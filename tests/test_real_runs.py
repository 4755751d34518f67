"""Real runs: each one is `python -m torusfloer.cli ...` in a fresh interpreter, with a timeout.

The in-process tests call `cli.main` inside the test interpreter, which
has already imported everything and set its own warning filters.  These
runs see what a user sees: the start-up imports, the exit code and the
stderr of a real process, and, for `--jobs 2`, a real fork pool.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_generated_dry_runs import parse_outcome

from torusfloer import cli

SRC = str(Path(cli.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
TIMEOUT_S = 60

CUPLENGTH = {
    "n_pairs": 1,
    "grid_size": 16,
    "potential": {"kind": "trig_potential", "epsilon": 0.3, "modes": [[1, 0], [0, 1]]},
    "lattice_per_dim": 2,
    "random_starts": 1,
    "residual_tol": 1e-8,
    "dedup_delta": 0.05,
    "s_max": 60.0,
    "ds": 0.02,
    "seed": 11,
}

# name -> (argv before --out, exit code); the runs share one directory that holds cuplength.json and bad.json
RUNS = {
    "structures": (["structures", "--standard", "1"], 0),
    "symbol": (["symbol", "--m-bound", "2", "--xi", "0,1", "--nmin-m-bound", "3"], 0),
    "flow": (["flow", "--h", "trig", "--grid", "16"], 0),
    "energy": (["energy", "--trajectories", "1", "--grid", "16", "--ds", "0.01"], 0),
    "cuplength": (["cuplength", "--config", "cuplength.json"], 0),
    "cuplength_jobs_2": (["cuplength", "--config", "cuplength.json", "--jobs", "2"], 0),
    "legendre-check": (["legendre-check", "--samples", "4"], 0),
    "ddw-demo": (["ddw-demo", "--grid", "16", "--samples", "5"], 0),
    "bad_seed_mode": (["flow", "--seed-mode", "oops"], 1),
    "missing_config": (["cuplength", "--config", "missing.json"], 1),
    "malformed_input": (["structures", "--input", "bad.json"], 1),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_one_subcommand_parser_reads_each_run_as_the_full_parser(name):
    """`main` adds the arguments of the subcommand that argv names alone; each run parses as with the full parser."""
    argv = [*RUNS[name][0], "--out", name]
    assert parse_outcome(cli.build_parser(argv[0]), argv) == parse_outcome(cli.build_parser(), argv)


def _python(args, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=ENV, capture_output=True, text=True, timeout=TIMEOUT_S
    )


@pytest.fixture(scope="module")
def real_run(tmp_path_factory):
    """real_run(name) -> (the finished process, its --out directory); each run is made once."""
    root = tmp_path_factory.mktemp("real_runs")
    (root / "cuplength.json").write_text(json.dumps(CUPLENGTH))
    (root / "bad.json").write_text("{not json")

    @functools.cache
    def run(name):
        argv, _ = RUNS[name]
        return _python(["-m", "torusfloer.cli", *argv, "--out", name], cwd=root), root / name

    return run


@pytest.mark.parametrize("name", list(RUNS))
def test_a_real_run_exits_with_its_code_and_at_most_one_line(real_run, name):
    proc, _ = real_run(name)
    assert proc.returncode == RUNS[name][1], proc.stderr
    assert proc.stderr.count("\n") <= 1 and "Traceback" not in proc.stderr


def test_cuplength_jobs_2_writes_the_serial_report(real_run):
    """`--jobs 2` imports the process pool and forks its workers; its report.json has the serial run's bytes."""
    (serial, serial_out), (pooled, pooled_out) = real_run("cuplength"), real_run("cuplength_jobs_2")
    assert serial.returncode == pooled.returncode == 0
    assert (pooled_out / "report.json").read_bytes() == (serial_out / "report.json").read_bytes()


def test_importing_the_cli_loads_no_process_pool():
    """The pool stack is imported by a `--jobs` > 1 run alone: `import torusfloer.cli` does not load it."""
    proc = _python(["-c", "import json, sys, torusfloer.cli; print(json.dumps(sorted(sys.modules)))"])
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[0] for name in json.loads(proc.stdout)}
    assert "torusfloer" in loaded and not loaded & {"concurrent", "multiprocessing"}
