"""Collect the exactness traces of finished runs into reference.json.

    python3 perfbench/make_reference.py

Reads every .perfbench_runs/*-trace0/result.json in the checkout and stores,
per workload and seed, the sha256 of report.json and the converged actions
(trajectory energies for energy runs). Run it only at a commit whose
results are meant to be the reference; later runs compare against it.
"""

import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUNS = BENCH.parent / ".perfbench_runs"


def main() -> None:
    path = BENCH / "reference.json"
    reference = json.loads(path.read_text())
    for result in sorted(RUNS.glob("*-trace0/result.json")):
        run = json.loads(result.read_text())
        if run["exactness"] is not None and not run["problems"]:
            reference.setdefault(run["workload"], {})[str(run["seed"])] = run["exactness"]
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"{path}: " + ", ".join(f"{w} {len(s)} seeds" for w, s in sorted(reference.items())))


if __name__ == "__main__":
    main()
