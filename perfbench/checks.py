"""Independent checks of a workload's output files.

Nothing here imports torusfloer: the expected values (critical set of the
potential, oscillation bound, seed counts) are derived from the workload
definition, and the program's report is only read. An op is one seed
(cuplength) or one trajectory (energy); it fails when any check on it fails.
A check on the run as a whole (counts, exit status) fails every op.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import workloads

Q_MEAN_TOL = 1e-6
DEFECT_TOL = 1e-3
ENERGY_SLACK = 1e-2


@dataclass
class Verdict:
    attempted: int
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def fail(self, ops, message: str) -> None:
        self.failed.update(ops)
        self.problems.append(message)

    def fail_all(self, message: str) -> None:
        self.fail(range(self.attempted), message)


def critical_set(modes) -> list:
    """Critical points of V(q) = eps * sum_a cos(a . q) for axis-aligned unit modes.

    grad V = -eps * sum_a a sin(a . q); with the modes the unit vectors it
    vanishes iff sin(q_i) = 0 for every i, i.e. q_i in {0, pi}.
    """
    dim = len(modes)
    if sorted(map(tuple, modes)) != sorted(tuple(int(i == j) for j in range(dim)) for i in range(dim)):
        raise ValueError("critical set is derived only for axis-aligned unit modes")
    points = [()]
    for _ in range(dim):
        points = [p + (c,) for p in points for c in (0.0, math.pi)]
    return points


def _periodic_gap(x: float, c: float) -> float:
    return abs((x - c + math.pi) % (2.0 * math.pi) - math.pi)


def _read(outdir: Path):
    report = json.loads((outdir / "report.json").read_text())
    rows = None
    if (outdir / "summary.csv").exists():
        with (outdir / "summary.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
    return report, rows


def check_cuplength(outdir: Path, config: dict, rc: int) -> Verdict:
    n_seeds = workloads.n_seeds(config)
    tol = config["residual_tol"]
    v = Verdict(n_seeds)
    try:
        report, rows = _read(outdir)
        if rows is None:
            raise OSError("summary.csv missing")
    except (OSError, ValueError) as exc:
        v.fail_all(f"unreadable output: {exc}")
        return v
    if rc != 0 or report.get("passed") is not True:
        v.fail_all(f"program verdict: exit {rc}, passed={report.get('passed')}")
    if sorted(int(r["seed"]) for r in rows) != list(range(n_seeds)):
        v.fail_all("summary.csv does not list every seed exactly once")
    outcomes = [report.get(k) for k in ("n_converged", "n_divergent", "n_unfinished")]
    if report.get("n_seeds") != n_seeds or not all(isinstance(x, int) for x in outcomes) or sum(outcomes) != n_seeds:
        v.fail_all(f"converged + divergent + unfinished = {outcomes} does not add up to {n_seeds} seeds")
    converged = [r for r in rows if r["converged"] == "True"]
    if len(converged) != report.get("n_converged"):
        v.fail_all("summary.csv and report.json disagree on the converged count")
    cluster = {}
    for r in converged:
        cluster.setdefault(r["cluster"], []).append(int(r["seed"]))
        if not float(r["residual"]) < tol:
            v.fail([int(r["seed"])], f"seed {r['seed']}: residual {r['residual']} not below {tol}")
    by_seed = {int(r["seed"]): r["cluster"] for r in converged}

    critical = critical_set(config["potential"]["modes"])
    hit = set()
    for rec in report.get("records", []):
        members = cluster.get(by_seed.get(rec["seed_index"]), [rec["seed_index"]])
        if not rec["residual"] < tol:
            v.fail(members, f"record {rec['seed_index']}: residual {rec['residual']} not below {tol}")
        gap, point = min(
            (max(_periodic_gap(q, c) for q, c in zip(rec["q_mean"], p)), p) for p in critical
        )
        if not gap <= Q_MEAN_TOL:
            v.fail(members, f"record {rec['seed_index']}: q_mean {rec['q_mean']} is {gap:.3g} off the critical set")
        else:
            hit.add(point)
    bound = 2 * config["n_pairs"] + 1
    if len(hit) < bound:
        v.fail_all(f"{len(hit)} distinct critical points found, bound {bound}")
    return v


def check_energy(outdir: Path, flags: dict, rc: int) -> Verdict:
    v = Verdict(flags["trajectories"])
    try:
        report, _ = _read(outdir)
        rows = report["trajectories"]
        hofer = report["hofer_norm"]["value"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        v.fail_all(f"unreadable output: {exc}")
        return v
    if rc != 0 or report.get("passed") is not True:
        v.fail_all(f"program verdict: exit {rc}, passed={report.get('passed')}")
    if [r.get("trajectory") for r in rows] != list(range(v.attempted)):
        v.fail_all("report.json does not list every trajectory exactly once")
    # h_tilde = chi * V with 0 <= chi <= 1 stays within [inf V, sup V] + {0}, so its
    # oscillation is at most sup V - inf V = 2 * |eps| * (number of modes).
    oscillation = 2.0 * abs(flags["epsilon"]) * len(workloads.MODES)
    if not 0.0 <= hofer <= oscillation + 1e-12:
        v.fail_all(f"Hofer estimate {hofer} outside [0, {oscillation}]")
    for r in rows:
        i = r.get("trajectory")
        if not r["defect"] < DEFECT_TOL:
            v.fail([i], f"trajectory {i}: identity defect {r['defect']} not below {DEFECT_TOL}")
        if not 0.0 <= r["energy"] <= 2.0 * hofer + ENERGY_SLACK:
            v.fail([i], f"trajectory {i}: energy {r['energy']} exceeds 2*Hofer + {ENERGY_SLACK}")
        if not r["max_p_sq"] <= flags["rho"]:
            v.fail([i], f"trajectory {i}: max|p|^2 {r['max_p_sq']} exceeds rho {flags['rho']}")
        if r["ends_converged"] is not True:
            v.fail([i], f"trajectory {i}: ends not converged")
    return v


def check(name: str, outdir: Path, seed: int, rc: int) -> Verdict:
    if workloads.kind(name) == "cuplength":
        return check_cuplength(outdir, workloads.cuplength_config(name, seed), rc)
    return check_energy(outdir, workloads.ENERGY[name], rc)


# ---------------------------------------------------------------------------
# self-test: each corruption of a passing output must make a check fail


def _edit_report(outdir: Path, edit) -> None:
    path = outdir / "report.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def _drop_summary_row(outdir: Path) -> None:
    path = outdir / "summary.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _set(key, value, table="records"):
    """Edit that sets (or maps, when value is callable) key of the table's first row."""
    def edit(report):
        row = report[table][0]
        row[key] = value(row[key]) if callable(value) else value
    return edit


CORRUPTIONS = {
    "cuplength": {
        "record residual above tol": lambda d: _edit_report(d, _set("residual", 1e-6)),
        "q_mean off the critical set": lambda d: _edit_report(d, _set("q_mean", lambda q: [q[0] + 1e-3] + q[1:])),
        "outcome counts do not add up": lambda d: _edit_report(d, lambda r: r.update(n_divergent=r["n_divergent"] + 1)),
        "seed missing from summary": _drop_summary_row,
    },
    "energy": {
        "identity defect too large": lambda d: _edit_report(d, _set("defect", 2e-3, table="trajectories")),
        "energy above 2*Hofer": lambda d: _edit_report(d, _set("energy", 1.0, table="trajectories")),
        "max|p|^2 above rho": lambda d: _edit_report(d, _set("max_p_sq", 5.0, table="trajectories")),
        "end not converged": lambda d: _edit_report(d, _set("ends_converged", False, table="trajectories")),
        "trajectory missing": lambda d: _edit_report(d, lambda r: r["trajectories"].pop()),
    },
}


def self_test(name: str, outdir: Path, seed: int, scratch: Path) -> list:
    """Corrupt copies of a passing output; return the corruptions no check caught."""
    missed = []
    for i, (label, corrupt) in enumerate(CORRUPTIONS[workloads.kind(name)].items()):
        copy = scratch / f"case{i}"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(outdir, copy)
        corrupt(copy)
        if not check(name, copy, seed, 0).failed:
            missed.append(label)
    return missed
