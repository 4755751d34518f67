import argparse
import csv
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_generated_dry_runs import parse_outcome

from torusfloer import cli, floer
from torusfloer.cli import SUBCOMMANDS, build_parser, main
from torusfloer.floer import action, check_step, flow_constants, flow_to_solution, mu_max, run_homotopy
from torusfloer import hamiltonians, structures
from torusfloer.hamiltonians import CustomPotential, CutoffTerms, HamiltonianSpec, LagrangianSpec, cutoff_terms
from torusfloer.runner import ExperimentConfig
from torusfloer.structures import standard_structures


FLAGSHIP = json.loads((Path(__file__).resolve().parents[1] / "configs" / "trig_n1.json").read_text())
TRIG_16 = {"potential": {"kind": "trig_potential", "epsilon": 0.1, "modes": [[1, 0], [0, 1]]}, "grid_size": 16}


def run_cli(*args):
    return main(list(args))


def read_json(path):
    return json.loads(path.read_text())


def test_structures_standard(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("structures", "--standard", "1", "--out", str(out)) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["J"] == standard_structures(1).J.tolist()
    assert printed["K"] == standard_structures(1).K.tolist()
    report = read_json(out / "report.json")
    assert report["passed"]
    manifest = read_json(out / "manifest.json")
    assert manifest["exit_status"] == 0
    assert manifest["subcommand"] == "structures"


def test_structures_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("structures", "--input", str(bad), "--out", str(tmp_path / "o")) == 1


def test_structures_sign_flip_fails(tmp_path):
    t = standard_structures(1)
    payload = {
        "omega1": t.omega1.tolist(),
        "omega2": (-t.omega2).tolist(),
        "I": t.I.tolist(),
    }
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert run_cli("structures", "--input", str(cfg), "--out", str(out)) == 2
    report = read_json(out / "report.json")
    assert report["failed_checks"] == ["pairing"]


def test_structures_valid_input_builds_triple(tmp_path):
    t = standard_structures(1)
    payload = {
        "omega1": (2 * t.omega1).tolist(),
        "omega2": (2 * t.omega2).tolist(),
        "I": t.I.tolist(),
    }
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert run_cli("structures", "--input", str(cfg), "--out", str(out)) == 0
    report = read_json(out / "report.json")
    assert report["triple"]["g"] == (2 * np.eye(4)).tolist()
    # byte-identical config snapshot, recorded in the manifest
    assert (out / "config_snapshot.json").read_bytes() == cfg.read_bytes()
    manifest = read_json(out / "manifest.json")
    assert manifest["config_path"] == str(cfg)
    assert manifest["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()


def test_symbol_sweep(tmp_path):
    out = tmp_path / "sym"
    assert run_cli("symbol", "--m-bound", "3", "--xi", "0", "--nmin-m-bound", "6",
                   "--out", str(out)) == 0
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 49
    assert all(float(r["det_residual"]) < 1e-10 for r in rows)
    cert = read_json(out / "nmin_certificate.json")
    assert cert["n_min"] == 1
    assert cert["certified"]


def test_flow_mode_seed_monotone_action(tmp_path):
    out = tmp_path / "flow"
    code = run_cli("flow", "--h", "zero", "--seed-mode", "1,0", "--grid", "16",
                   "--s-max", "20", "--out", str(out))
    assert code == 0  # the run reaches a definite reported outcome
    with (out / "diagnostics.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    acts = [float(r["action"]) for r in rows]
    assert len(acts) > 10
    assert all(b <= a + 1e-12 for a, b in zip(acts, acts[1:]))
    result = read_json(out / "result.json")
    assert result["diverged"]  # a bare mode overlaps the growing directions


def test_flow_bad_seed_mode(tmp_path):
    assert run_cli("flow", "--seed-mode", "oops", "--out", str(tmp_path / "x")) == 1


def test_energy_command(tmp_path):
    out = tmp_path / "energy"
    code = run_cli("energy", "--trajectories", "2", "--grid", "16", "--ds", "0.01",
                   "--rng-seed", "3", "--save-trajectories", "--out", str(out))
    assert code == 0
    report = read_json(out / "report.json")
    assert report["passed"]
    assert len(report["trajectories"]) == 2
    for row in report["trajectories"]:
        assert row["energy"] <= report["bound"] + 1e-2
        assert row["defect"] < 1e-3
    # re-run the checks on the stored trajectories
    out2 = tmp_path / "energy_reload"
    assert run_cli("energy", "--load", str(out), "--out", str(out2)) == 0
    report2 = read_json(out2 / "report.json")
    assert report2["passed"]
    assert [r["energy"] for r in report2["trajectories"]] == pytest.approx(
        [r["energy"] for r in report["trajectories"]]
    )


def test_energy_reports_blown_up_trajectories_as_diverged(tmp_path, capsys):
    """Under this time_trig potential both flows grow along unstable modes past 2 rho = 8: exit 3, not a failed bound."""
    config = tmp_path / "time_trig.json"
    config.write_text(json.dumps({"potential": {"kind": "time_trig", "epsilon": 0.2, "t_mode": [1, 2], "q_mode": [1, -1]}}))
    out = tmp_path / "energy"
    capsys.readouterr()
    assert run_cli("energy", "--config", str(config), "--grid", "16", "--trajectories", "2", "--out", str(out)) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines] == ["energy[0]: diverged", "energy[1]: diverged"]
    assert all(line.endswith("> 8") for line in lines)
    report = read_json(out / "report.json")
    assert not report["passed"]
    for row in report["trajectories"]:
        assert row["diverged"] and not row["passed"] and row["max_p_sq"] > 8.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_energy_ends_an_escaping_trajectory_at_its_escape(tmp_path, capsys):
    """A window of 4,000 steps ends where max|p|^2 passes 8: one line, no warning, and a report in strict JSON."""
    config = tmp_path / "time_trig.json"
    config.write_text(json.dumps({"potential": {"kind": "time_trig", "epsilon": 0.2, "t_mode": [1, 2], "q_mode": [1, -1]}}))
    out = tmp_path / "energy"
    argv = ["--grid", "16", "--trajectories", "1", "--ds", "0.01", "--r", "12", "--save-trajectories"]
    capsys.readouterr()
    assert run_cli("energy", "--config", str(config), *argv, "--out", str(out)) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [line.split(",")[0] for line in captured.out.splitlines()] == ["energy[0]: diverged"]

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["trajectories"][0]["diverged"] and report["trajectories"][0]["max_p_sq"] > 8.0
    with (out / "trajectory_000" / "diagnostics.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) < 4001 // 4 and float(rows[-1]["max_p_sq"]) > 8.0 >= max(float(r["max_p_sq"]) for r in rows[:-1])


@pytest.fixture(scope="module")
def saved_trajectory(tmp_path_factory):
    out = tmp_path_factory.mktemp("saved") / "energy"
    argv = ["--trajectories", "1", "--grid", "16", "--ds", "0.01", "--r", "0.2", "--save-trajectories"]
    assert run_cli("energy", *argv, "--out", str(out)) == 0
    return out / "trajectory_000"


@pytest.mark.parametrize("dry", [[], ["--dry-run"]])
@pytest.mark.parametrize(
    "key, value",
    [("r", "0.2"), ("k", "2"), ("ds", "0.01"), ("ds", None), ("ds", 0.0), ("snapshots", [5]), (None, [])],
)
def test_energy_load_rejects_a_malformed_trajectory(tmp_path, capsys, saved_trajectory, key, value, dry):
    """A stored r, k or ds of the wrong type or range, or a manifest of the wrong shape, exits 1 with one line."""
    stored = tmp_path / "stored"
    stored.mkdir()
    for path in saved_trajectory.iterdir():
        (stored / path.name).write_bytes(path.read_bytes())
    manifest = read_json(stored / "trajectory.json")
    if key is None:
        manifest = value
    else:
        manifest[key] = value
    (stored / "trajectory.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("energy", "--load", str(stored), "--out", str(tmp_path / "out"), *dry) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cannot load stored trajectory" in err


def test_cuplength_command_and_determinism(tmp_path):
    config = {
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
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli("cuplength", "--config", str(cfg), "--out", str(out1), "--save-fields") == 0
    assert run_cli("cuplength", "--config", str(cfg), "--out", str(out2)) == 0
    report = read_json(out1 / "report.json")
    assert report["distinct"] >= 3 and report["passed"]
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    with (out1 / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5  # 4 lattice + 1 random seed
    assert [r["kind"] for r in rows] == ["lattice"] * 4 + ["perturbed"]
    assert any((out1 / "records").glob("*.bin"))


def test_cuplength_dry_run(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_pairs": 1, "grid_size": 16}))
    out = tmp_path / "dry"
    assert run_cli("cuplength", "--config", str(cfg), "--dry-run", "--out", str(out)) == 0
    assert not (out / "report.json").exists()


def test_manifest_records_environment(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_pairs": 1, "grid_size": 16}))
    out = tmp_path / "dry"
    assert run_cli("cuplength", "--config", str(cfg), "--dry-run", "--out", str(out)) == 0
    env = read_json(out / "manifest.json")["environment"]
    assert env["numpy"] == np.__version__
    assert env["python"].count(".") == 2
    assert env["cpu_count"] is None or env["cpu_count"] >= 1


@pytest.mark.parametrize(
    "argv, n_grid, ds",
    [
        (["flow", "--grid", "16", "--ds", "0.02"], 16, 0.02),
        (["energy", "--grid", "32"], 32, 5e-3),
        (["cuplength", "--config", "<cfg>"], 16, 0.02),
        (["structures", "--standard", "1"], None, None),
    ],
)
def test_manifest_records_the_step_regime(tmp_path, argv, n_grid, ds):
    """ds * mu_max and the largest step amplification go to the manifest, not to report.json."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_pairs": 1, "grid_size": 16}))
    out = tmp_path / "dry"
    argv = [str(cfg) if arg == "<cfg>" else arg for arg in argv]
    assert run_cli(*argv, "--dry-run", "--out", str(out)) == 0
    regime = read_json(out / "manifest.json")["step_regime"]
    if n_grid is None:
        assert regime is None
        return
    ds_mu = ds * mu_max(n_grid)
    assert regime == pytest.approx({"ds_mu_max": ds_mu, "max_step_amplification": 1.0 / (1.0 - ds_mu)})


@pytest.mark.parametrize("option", [["--jobs", "2"], ["--plots"]])
def test_jobs_and_plots_belong_to_cuplength_only(tmp_path, option):
    with pytest.raises(SystemExit) as exc:
        run_cli("flow", "--dry-run", "--out", str(tmp_path / "o"), *option)
    assert exc.value.code == 1  # a usage error is an input error


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "--grid", "abc"],
        ["flow", "--bogus"],
        [],
        ["flow", "--check-every", "10"],
        # the argv that once failed the flag's own >= 1 check now fails as an unknown flag, run and dry run
        ["flow", "--grid", "16", "--check-every", "0"],
        ["flow", "--grid", "16", "--check-every", "0", "--dry-run"],
    ],
    ids=["type", "unknown", "none", "retired-check-every", "retired-check-every-0", "retired-check-every-0-dry-run"],
)
def test_usage_errors_exit_1_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("torusfloer")


@pytest.mark.parametrize("option", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, option):
    with pytest.raises(SystemExit) as exc:
        run_cli(option)
    assert exc.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in SUBCOMMANDS)])
def test_help_is_the_full_parsers(capsys, argv):
    """`torusfloer --help` and `torusfloer <subcommand> --help` print what the full parser prints."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    printed = capsys.readouterr().out
    assert printed and parse_outcome(build_parser(), argv) == (0, printed, "")


def test_cuplength_invalid_config(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grid": 99}))
    assert run_cli("cuplength", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1


@pytest.mark.parametrize(
    "argv, config, message",
    [
        # odd grid: ExperimentConfig rejects it
        (["cuplength"], {"n_pairs": 1, "grid_size": 31}, "grid size must be even"),
        # ds * (1 + sqrt(1 + 4M)) / 2 = 1 at M = 49^2 + 7^2 on the 128 grid
        (["flow", "--grid", "128", "--ds", "0.02"], None, "singular implicit solve"),
        # ds * mu_max = 2.0 on the 64 grid: outside the step regime, not an escape
        (["flow", "--grid", "64", "--ds", "0.045"], None, "need ds < 0.02255"),
        # the dry run checks what the run checks
        (["cuplength", "--dry-run"], {"n_pairs": 1, "grid_size": 31}, "grid size must be even"),
        # a start that already solves the system takes no step, but the ds is still checked
        (["flow", "--grid", "64", "--ds", "0.045", "--amplitude", "0"], None, "need ds < 0.02255"),
    ]
    # each field's type and range, checked alike by the dry run and the run
    + [
        (["cuplength", *dry], {"n_pairs": 1, "grid_size": 16, key: value}, message)
        for key, value, message in [
            # the residual cadence is floer.CHECK_EVERY, so check_every is no config key, whatever its value
            ("check_every", 10, "unknown config keys: ['check_every']"),
            ("s_max", "400", "s_max must be a positive finite number"),
            ("random_starts", 1.5, "random_starts must be an integer >= 0"),
            ("seed", -3, "seed must be an integer >= 0"),
            ("wall_clock_cap", "x", "wall_clock_cap must be null or a number >= 0"),
            ("residual_tol", -1.0, "residual_tol must be a positive finite number"),
            ("perturbation_band", 40, "perturbation_band must stay below the Nyquist band"),
            ("lattice_per_dim", True, "lattice_per_dim must be an integer >= 1"),
        ]
        for dry in (["--dry-run"], [])
    ]
    # config files that are not a JSON object, or whose potential is malformed
    + [
        (["structures", "--input", "<tmp>/config.json"], [1, 2], "must hold a JSON object, got a list"),
        (["flow"], [1, 2], "must hold a JSON object, got a list"),
        (["energy"], [1, 2], "must hold a JSON object, got a list"),
        (["flow"], {"potential": 5}, "potential must be a JSON object"),
        (["energy"], {"potential": 5}, "potential must be a JSON object"),
        (["flow"], {"grid_size": "abc"}, "grid_size must be an integer"),
        (["flow"], {"grid_size": 16.7}, "grid_size must be an integer"),
        (["flow"], {"rho": "x"}, "cut-off radius must be a positive number"),
        (
            ["cuplength"],
            {"n_pairs": 1, "grid_size": 16, "potential": {"kind": "trig_potential", "modes": [[1, 0]]}},
            "trig_potential potential lacks the key 'epsilon'",
        ),
        (
            ["cuplength"],
            {"n_pairs": 1, "grid_size": 16, "potential": {"kind": "trig_potential", "epsilon": "x", "modes": [[1, 0]]}},
            "trig_potential potential has a value that is not numeric",
        ),
        (["symbol", "--xi", ""], None, "--xi needs at least one value"),
        (["symbol", "--out", "<tmp>/file/out"], None, "cannot create output directory"),
    ]
    # a count below 1 would check nothing and pass; the dry run checks the grid and the step regime
    + [
        (argv + dry, None, message)
        for argv, message in [
            (["energy", "--trajectories", "0"], "--trajectories must be an integer >= 1"),
            (["legendre-check", "--samples", "0"], "--samples must be an integer >= 1"),
            (["ddw-demo", "--samples", "0"], "--samples must be an integer >= 1"),
            (["ddw-demo", "--grid", "7"], "grid size must be even"),
            (["energy", "--grid", "7"], "grid size must be even"),
            (["energy", "--grid", "64", "--ds", "0.045"], "need ds < 0.02255"),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # a worker count below 1 is an input error, not a serial run; the dry run checks it too
    + [
        (
            ["cuplength", "--jobs", jobs, *dry],
            {"n_pairs": 1, "grid_size": 16},
            "--jobs must be an integer >= 1",
        )
        for jobs in ("0", "-1")
        for dry in ([], ["--dry-run"])
    ]
    # a non-finite number is rejected where it enters, by the dry run as well
    + [
        (argv + dry, None, message)
        for argv, message in [
            (["energy", "--r", "nan"], "profile parameter r must be a finite number >= 0"),
            (["energy", "--r", "inf"], "profile parameter r must be a finite number >= 0"),
            (["symbol", "--xi", "nan"], "--xi values must be finite"),
            (["flow", "--h", "trig", "--epsilon", "inf"], "potential C3-norm estimate must be finite"),
            (["flow", "--h", "trig", "--epsilon", "1e308"], "potential C3-norm estimate must be finite"),
            (["flow", "--h", "trig", "--epsilon", "nan"], "potential C3-norm estimate must be finite"),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # a cuplength config's step is checked by the flow's own step check
    + [
        (["cuplength", *dry], {"n_pairs": 1, "grid_size": 64, "ds": ds}, message)
        for ds, message in [
            (0.045, "need ds < 0.02255"),
            ("x", "ds must be a number"),
            (0, "step size must lie in (0, 1)"),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # a switching window longer than run_homotopy's step cap, and a bound that is not positive
    + [
        (argv + dry, None, message)
        for argv, message in [
            (["energy", "--r", "1e7"], "more than the cap of 1e+06"),
            (["energy", "--r", "1e300"], "more than the cap of 1e+06"),
            (["energy", "--r", "1e308"], "needs inf steps"),
            (["symbol", "--xi-bound", "0"], "bounds must be finite and positive"),
            (["symbol", "--xi-bound", "-5"], "bounds must be finite and positive"),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # numpy rejects a negative seed with a traceback; the dry run checks it too
    + [
        (argv + ["--rng-seed", seed, *dry], None, "--rng-seed must be an integer >= 0")
        for argv, seed in [
            (["flow", "--grid", "16"], "-1"),
            (["energy"], "-1"),
            (["legendre-check"], "-1"),
            (["ddw-demo", "--grid", "16", "--samples", "1"], "-5"),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # a seed mode at or past the Nyquist band would alias; a grid too small gets its own message
    + [
        (["flow", *argv, *dry], None, message)
        for argv, message in [
            (["--grid", "16", "--seed-mode", "8,0"], "--seed-mode must satisfy |m1|, |m2| < N/2 = 8"),
            (["--grid", "16", "--seed-mode", "0,-8"], "--seed-mode must satisfy |m1|, |m2| < N/2 = 8"),
            (["--grid", "16", "--seed-mode", "100,0"], "--seed-mode must satisfy |m1|, |m2| < N/2 = 8"),
            (["--grid", "4"], "grid size must be even and >= 8, got 4"),
            (["--grid", "0"], "grid size must be even and >= 8, got 0"),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # a flow tolerance or horizon that no run can meet or reach, and a non-finite amplitude
    + [
        (["flow", "--grid", "16", *argv, *dry], None, message)
        for argv, message in [
            (["--tol", "inf", "--s-max", "0.5"], "--tol must be a positive finite number"),
            (["--tol", "nan"], "--tol must be a positive finite number"),
            (["--tol", "0"], "--tol must be a positive finite number"),
            (["--tol", "-1"], "--tol must be a positive finite number"),
            (["--s-max", "nan"], "--s-max must be a positive finite number"),
            (["--s-max", "-1"], "--s-max must be a positive finite number"),
            (["--amplitude", "inf"], "--amplitude must be finite"),
            (["--amplitude", "nan"], "--amplitude must be finite"),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # a grid or a seed count past its cap is rejected before any array is allocated
    + [
        (argv + dry, config, message)
        for argv, config, message in [
            (["flow", "--grid", "100000"], None, "grid size 100000 exceeds the cap of 1024"),
            (["flow"], {"grid_size": 2048}, "grid size 2048 exceeds the cap of 1024"),
            (["energy", "--grid", "100000"], None, "grid size 100000 exceeds the cap of 1024"),
            (["ddw-demo", "--grid", "100000"], None, "grid size 100000 exceeds the cap of 1024"),
            (["cuplength"], {**FLAGSHIP, "grid_size": 100000}, "grid size 100000 exceeds the cap of 1024"),
            (["cuplength"], {**FLAGSHIP, "lattice_per_dim": 100000}, "n_seeds must be at most 65536 at grid size 32"),
            (
                ["cuplength"],
                {**FLAGSHIP, "grid_size": 1024, "ds": 0.001, "lattice_per_dim": 8},
                "n_seeds must be at most 64 at grid size 1024",
            ),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # config keys that flow and energy do not read, and a boolean cut-off radius
    + [
        (argv + dry, config, message)
        for argv, config, message in [
            (
                ["flow"],
                {"grid_size": 16, "ds": 0.5, "potnetial": {"kind": "zero", "n_pairs": 1}},
                "unknown config keys: ['ds', 'potnetial']",
            ),
            (["energy"], {"rho": 0.5, "grid_size": 12}, "unknown config keys: ['grid_size', 'rho']"),
            (["flow"], {"grid_size": 16, "rho": True}, "cut-off radius must be a positive number, got True"),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # a flag that would set what the config sets, present or by its default
    + [
        (argv + dry, config, message)
        for argv, config, message in [
            (["flow", "--rho", "2", "--grid", "32"], TRIG_16, "--rho conflicts with --config: the config sets rho"),
            (["flow", "--grid", "32"], TRIG_16, "--grid conflicts with --config: the config sets grid_size"),
            (["flow", "--h", "zero", "--epsilon", "5"], TRIG_16, "--h conflicts with --config: the config sets potential"),
            (["flow", "--epsilon", "5"], {"grid_size": 16}, "--epsilon conflicts with --config: the config sets potential"),
            (["energy", "--epsilon", "5"], {"potential": TRIG_16["potential"]}, "--epsilon conflicts with --config: the config sets potential"),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # --epsilon scales the trig potential alone: beside the zero potential it would do nothing
    + [
        (["flow", "--grid", "16", *argv, *dry], None, "--epsilon acts only with --h trig")
        for argv in (["--epsilon", "5"], ["--h", "zero", "--epsilon", "5"])
        for dry in ([], ["--dry-run"])
    ]
    # a symbol past the float range, a margin search that squares its bound past it, and sweeps past their caps
    + [
        (["symbol", *argv, *dry], None, message)
        for argv, message in [
            (["--xi", "1e80"], "beyond it the symbol (m^2 + xi^2 + i xi)^2 overflows"),
            (["--xi", "0,-1.2e77"], "beyond it the symbol (m^2 + xi^2 + i xi)^2 overflows"),
            (["--xi-bound", "1e200"], "is not below 2^512 = 1.341e+154: the margin search squares it"),
            (["--m-bound", "100000"], "rows, more than the cap of 100000"),
            (["--nmin-m-bound", "100000"], "exceeds the cap of 512"),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # a worker count past MAX_JOBS and a trajectory count past 2 GiB of fields, rejected before a pool or a field exists
    + [
        (argv + dry, config, message)
        for argv, config, message in [
            (["cuplength", "--jobs", "65"], {"n_pairs": 1, "grid_size": 16}, "--jobs must be at most 64, got 65"),
            (["cuplength", "--jobs", "1048576"], {"n_pairs": 1, "grid_size": 8}, "--jobs must be at most 64, got 1048576"),
            (["energy", "--trajectories", "65537"], None, "--trajectories must be at most 65536 at grid size 32"),
            (["energy", "--trajectories", "1000000000000"], None, "--trajectories must be at most 65536 at grid size 32"),
            (
                ["energy", "--grid", "1024", "--ds", "0.001", "--trajectories", "65"],
                None,
                "--trajectories must be at most 64 at grid size 1024",
            ),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # a flow of more steps than MAX_FLOW_STEPS, from the flags or per seed of a cuplength config
    + [
        (argv + dry, config, message)
        for argv, config, message in [
            (["flow", "--grid", "16", "--ds", "1e-300", "--s-max", "1"], None, "needs 1e+300 steps of ds=1e-300"),
            (["flow", "--grid", "16", "--s-max", "1e300"], None, "needs 1e+302 steps of ds=0.01"),
            (["cuplength"], {"n_pairs": 1, "grid_size": 16, "s_max": 1e300}, "needs 5e+301 steps of ds=0.02"),
            (["cuplength"], {"n_pairs": 1, "grid_size": 16, "s_max": 4000.0}, "needs 2e+05 steps of ds=0.02"),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # sample counts past the time caps MAX_LEGENDRE_SAMPLES and MAX_DDW_POINTS, rejected before any sample
    + [
        (argv + dry, None, message)
        for argv, message in [
            (["legendre-check", "--samples", "1000000000"], "--samples must be at most 100000, got 1000000000"),
            (["legendre-check", "--samples", "100001"], "--samples must be at most 100000, got 100001"),
            (["ddw-demo", "--samples", "1000000000"], "--samples must be at most 16384 at grid size 32"),
            (["ddw-demo", "--grid", "8", "--samples", "16385"], "--samples must be at most 16384 at grid size 8"),
            (["ddw-demo", "--grid", "1024", "--samples", "17"], "--samples must be at most 16 at grid size 1024"),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # a potential past MAX_C3_NORM, where |grad h|^2 summed over a grid can overflow, and a --standard past its cap
    + [
        (argv + dry, config, message)
        for argv, config, message in [
            (
                ["energy", "--epsilon", "1e300", "--grid", "16", "--trajectories", "1"],
                None,
                "estimate 2e+300 exceeds the cap of 1e+150",
            ),
            (["energy", "--epsilon", "1e150"], None, "estimate 2e+150 exceeds the cap of 1e+150"),
            (
                ["energy"],
                {"potential": {"kind": "time_trig", "epsilon": -2e150, "t_mode": [1, 2], "q_mode": [1, 0]}},
                "estimate 2e+150 exceeds the cap of 1e+150",
            ),
            (["flow", "--h", "trig", "--epsilon", "1e300"], None, "estimate 2e+300 exceeds the cap of 1e+150"),
            (
                ["flow"],
                {"potential": {"kind": "time_trig", "epsilon": 1e300, "t_mode": [1, 2], "q_mode": [1, 0]}},
                "estimate 1e+300 exceeds the cap of 1e+150",
            ),
            (
                ["cuplength"],
                {"n_pairs": 1, "grid_size": 16, "lattice_per_dim": 2, "random_starts": 1,
                 "potential": {**FLAGSHIP["potential"], "epsilon": 1e300}},
                "estimate 2e+300 exceeds the cap of 1e+150",
            ),
            (["structures", "--standard", "3000"], None, "--standard must be at most 64, got 3000"),
            (["structures", "--standard", "65"], None, "--standard must be at most 64, got 65"),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # an energy step past the explicit term's regime, ds * c3_norm > 1 (ds = 0.005)
    + [
        (argv + dry, config, message)
        for argv, config, message in [
            (["energy", "--epsilon", "1000"], None, "ds*c3_norm = 10 > 1, need ds <= 0.0005"),
            (["energy", "--epsilon", "200"], None, "ds*c3_norm = 2 > 1, need ds <= 0.0025"),
            (
                ["energy"],
                {"potential": {"kind": "time_trig", "epsilon": 300, "t_mode": [1, 2], "q_mode": [1, 0]}},
                "ds*c3_norm = 1.5 > 1, need ds <= 0.003333",
            ),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # a frequency that is not an integer, and a mode whose norm overflows, without numpy's warning
    + [
        (argv + dry, config, message)
        for argv, config, message in [
            (
                ["cuplength"],
                {"n_pairs": 1, "grid_size": 16, "lattice_per_dim": 2,
                 "potential": {"kind": "trig_potential", "epsilon": 0.1, "modes": [[0.5, 0], [0, 1]]}},
                "trig modes must be integer frequencies, got 0.5",
            ),
            (
                ["energy"],
                {"potential": {"kind": "time_trig", "epsilon": 0.2, "t_mode": [0.5, 0], "q_mode": [1, -1]}},
                "t_mode must be integer frequencies, got 0.5",
            ),
            (
                ["flow"],
                {"grid_size": 16, "potential": {"kind": "time_trig", "epsilon": 0.2, "t_mode": [1, 2], "q_mode": [1, -1.5]}},
                "q_mode must be integer frequencies, got -1.5",
            ),
            (
                ["flow"],
                {"grid_size": 16, "potential": {"kind": "trig_potential", "epsilon": 0.1, "modes": [[1e300, 0], [0, 1]]}},
                "potential C3-norm estimate must be finite, got inf",
            ),
            (
                ["energy"],
                {"potential": {"kind": "trig_potential", "epsilon": 0.1, "modes": [[1e300, 0], [0, 1]]}},
                "potential C3-norm estimate must be finite, got inf",
            ),
            (
                ["cuplength"],
                {"n_pairs": 1, "grid_size": 16, "lattice_per_dim": 2,
                 "potential": {"kind": "trig_potential", "epsilon": 0.1, "modes": [[1e300, 0], [0, 1]]}},
                "potential C3-norm estimate must be finite, got inf",
            ),
            (
                ["energy"],
                {"potential": {"kind": "time_trig", "epsilon": 0.2, "t_mode": [1, 2], "q_mode": [1e150, 0]}},
                "potential C3-norm estimate must be finite, got inf",
            ),
            (
                ["flow"],
                {"potential": {"kind": "time_trig", "epsilon": 0.0, "t_mode": [1, 2], "q_mode": [1e300, 0]}},
                "potential C3-norm estimate must be finite, got nan",
            ),
        ]
        for dry in ([], ["--dry-run"])
    ]
    # a huge finite mode: past the C3-norm cap before the gradient check, else past a run's frequency bound
    + [
        (argv + dry, config, message)
        for argv, config, message in [
            (
                ["flow"],
                {"grid_size": 16, "potential": {"kind": "trig_potential", "epsilon": 0.1, "modes": [[1e100, 0], [0, 1]]}},
                "estimate 1e+299 exceeds the cap of 1e+150",
            ),
            (
                ["energy"],
                {"potential": {"kind": "trig_potential", "epsilon": 0.1, "modes": [[1e100, 0], [0, 1]]}},
                "estimate 1e+299 exceeds the cap of 1e+150",
            ),
            (
                ["cuplength"],
                {"n_pairs": 1, "grid_size": 16, "lattice_per_dim": 2,
                 "potential": {"kind": "trig_potential", "epsilon": 0.1, "modes": [[1e100, 0], [0, 1]]}},
                "estimate 1e+299 exceeds the cap of 1e+150",
            ),
            (
                ["flow"],
                {"grid_size": 16, "potential": {"kind": "trig_potential", "epsilon": 0.1, "modes": [[2**63, 0], [0, 1]]}},
                "trig modes must be below 512 in magnitude, a run's frequency bound in q, got 9.22337e+18",
            ),
            (
                ["energy"],
                {"potential": {"kind": "trig_potential", "epsilon": 0.1, "modes": [[1, 0], [0, -2**63]]}},
                "trig modes must be below 512 in magnitude, a run's frequency bound in q, got -9.22337e+18",
            ),
            (
                ["cuplength"],
                {"n_pairs": 1, "grid_size": 16, "lattice_per_dim": 2,
                 "potential": {"kind": "trig_potential", "epsilon": 0.1, "modes": [[2**63, 0], [0, 1]]}},
                "trig modes must be below 512 in magnitude, a run's frequency bound in q, got 9.22337e+18",
            ),
            (
                ["flow"],
                {"grid_size": 16, "potential": {"kind": "time_trig", "epsilon": 0.2, "t_mode": [1e308, 0], "q_mode": [1, -1]}},
                "t_mode must be below 512 in magnitude, N/2 of the largest grid (1024), got 1e+308",
            ),
            (
                ["energy"],
                {"potential": {"kind": "time_trig", "epsilon": 0.2, "t_mode": [1e308, 0], "q_mode": [1, -1]}},
                "t_mode must be below 512 in magnitude, N/2 of the largest grid (1024), got 1e+308",
            ),
            (
                ["flow"],
                {"grid_size": 16, "potential": {"kind": "time_trig", "epsilon": 0.2, "t_mode": [1, 2], "q_mode": [512, 0]}},
                "q_mode must be below 512 in magnitude, a run's frequency bound in q, got 512",
            ),
            (
                ["cuplength"],
                {"n_pairs": 1, "grid_size": 16, "lattice_per_dim": 2, "random_starts": 0,
                 "potential": {"kind": "trig_potential", "epsilon": 0.1, "modes": [[512, 0], [0, 1]]}},
                "trig modes must be below 512 in magnitude, a run's frequency bound in q, got 512",
            ),
        ]
        for dry in ([], ["--dry-run"])
    ],
)
def test_library_errors_exit_1_with_one_line(tmp_path, capsys, argv, config, message):
    """config goes to --config unless argv names the file itself, as <tmp>/config.json."""
    (tmp_path / "file").write_text("")
    argv = [arg.replace("<tmp>", str(tmp_path)) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        if str(cfg) not in argv:
            argv += ["--config", str(cfg)]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert err.startswith(f"{argv[0]}: ")


def _trig_n16(modes):
    """A cuplength config at N = 16 with the 2 x 2 lattice alone, the critical points of the potential's modes."""
    return {
        "n_pairs": 1, "grid_size": 16, "lattice_per_dim": 2, "random_starts": 0,
        "potential": {"kind": "trig_potential", "epsilon": 0.1, "modes": modes},
    }


@pytest.mark.parametrize(
    "argv, config, last",
    [
        (["cuplength"], _trig_n16([[300, 0], [0, 1]]), "cuplength: distinct=4 (bound 3), pass"),
        (["cuplength"], _trig_n16([[511, 0], [0, 1]]), "cuplength: distinct=4 (bound 3), pass"),
        (
            ["flow"],
            {"grid_size": 16, "potential": {"kind": "time_trig", "epsilon": 0.1, "t_mode": [1, 0], "q_mode": [300, 0]}},
            "flow: max|p|^2 ",
        ),
    ],
    ids=["trig_300", "trig_511", "time_trig_300"],
)
def test_every_frequency_below_max_frequency_runs(tmp_path, capsys, argv, config, last):
    """A frequency below MAX_FREQUENCY = 512 runs.  Runs take no finite-difference test of a built-in gradient:
    its truncation error, about (a * 1e-5)^2 / 6 of the gradient at frequency a, passes a 1e-6 tolerance near a = 245."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(*argv, "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith(last) and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["cuplength", "--config", "<config>"],
        ["flow", "--h", "trig", "--grid", "16", "--s-max", "5"],
        ["energy", "--grid", "16", "--trajectories", "1"],
    ],
    ids=["cuplength", "flow", "energy"],
)
def test_runs_of_a_built_in_potential_take_no_finite_differences(tmp_path, monkeypatch, argv):
    """A built-in potential's formulas are tested in the test suite (test_built_in_gradients_match_central_differences),
    not on every run; a custom potential is checked when it is built."""
    calls, central_difference = [], structures.central_difference

    def spy(f, x, step):
        calls.append(step)
        return central_difference(f, x, step)

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_trig_n16([[1, 0], [0, 1]])))
    for module in (hamiltonians, structures):  # every name it is bound to in src/
        monkeypatch.setattr(module, "central_difference", spy)
    assert run_cli(*[str(cfg) if arg == "<config>" else arg for arg in argv], "--out", str(tmp_path / "out")) == 0
    assert calls == []
    pot = hamiltonians.TrigPotential(0.1, [[1, 0], [0, 1]])

    def grad(t1, t2, z):
        return pot.evaluate(t1, t2, z, True, False)[1]

    CustomPotential(1, pot.value, grad)
    assert len(calls) == 5


@pytest.mark.parametrize(
    "argv, code, last",
    [
        (["--amplitude", "1e300"], 0, "flow: residual blow-up at s=0.000, residual inf"),
        (["--amplitude", "1e152"], 0, "flow: residual blow-up at s=0.000, residual inf"),
        (["--amplitude", "3e307", "--seed-mode", "1,0"], 0, "flow: residual blow-up at s=0.000, residual "),
        (["--amplitude", "1e308"], 1, "flow: field values must be finite"),
    ],
)
def test_overflowing_amplitude_prints_one_line_and_no_warning(tmp_path, argv, code, last):
    """A start whose squares or transform overflow ends as a blow-up, or is refused, without numpy's warnings."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "torusfloer.cli", "flow", "--grid", "16", *argv, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == code
    assert "RuntimeWarning" not in proc.stderr and proc.stderr.count("\n") <= 1
    assert (proc.stdout + proc.stderr).splitlines()[-1].startswith(last)


def test_flow_halved_past_the_step_cap_is_inconclusive(tmp_path, capsys, monkeypatch):
    """A flow within the step cap that halves its step and reaches the cap exits 3, unfinished."""
    monkeypatch.setattr(floer, "MAX_FLOW_STEPS", 5)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"potential": {**TRIG_16["potential"], "epsilon": 30.0}, "grid_size": 16}))
    out = tmp_path / "out"
    argv = ["--seed-mode", "0,0", "--amplitude", repr(np.pi / 3), "--ds", "0.09", "--config", str(cfg), "--out", str(out)]
    assert run_cli("flow", "--s-max", "0.46", *argv) == 1
    assert run_cli("flow", "--s-max", "0.45", *argv) == 3
    assert capsys.readouterr().out.splitlines()[-1].startswith("flow: step cap reached at s=0.270, residual ")
    result = read_json(out / "result.json")
    assert (result["reason"], result["n_steps"], result["n_halvings"]) == ("step cap reached", 6, 1)


def test_manifest_records_the_constant_step(tmp_path):
    """cuplength's manifest keeps its constant seeds' step and ds * c3_norm beside step_regime; report.json does not."""
    cfg = tmp_path / "config.json"
    for epsilon, ds, ds_c3_norm in ((0.1, 0.5, 0.1), (2.5, 0.2, 1.0), (0.001, 0.5, 0.001)):
        potential = {**FLAGSHIP["potential"], "epsilon": epsilon}
        cfg.write_text(json.dumps({**FLAGSHIP, "potential": potential, "lattice_per_dim": 2, "random_starts": 0}))
        out = tmp_path / f"eps{epsilon}"
        assert run_cli("cuplength", "--config", str(cfg), "--out", str(out)) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["constant_step_regime"] == pytest.approx({"ds": ds, "ds_c3_norm": ds_c3_norm}, rel=1e-12)
        assert manifest["step_regime"] == pytest.approx(check_step(32, 0.02))
        assert "constant_step_regime" not in (out / "report.json").read_text()
    assert run_cli("flow", "--grid", "16", "--dry-run", "--out", str(tmp_path / "flow")) == 0
    assert read_json(tmp_path / "flow" / "manifest.json")["constant_step_regime"] is None


def test_energy_dry_run_at_the_trajectory_cap_builds_no_field(tmp_path, monkeypatch):
    """65,536 start fields of a 32 grid are 2 GiB: the dry run checks their count and builds none."""
    built = []
    monkeypatch.setattr(cli, "constant_field", lambda *a: built.append(a))
    assert run_cli("energy", "--trajectories", "65536", "--dry-run", "--out", str(tmp_path / "out")) == 0
    assert built == []


def test_energy_step_at_the_explicit_regime_edge_passes_its_dry_run(tmp_path):
    """--epsilon 100 gives c3_norm 200, so ds * c3_norm = 0.005 * 200 rounds to exactly 1: inside the regime."""
    assert run_cli("energy", "--epsilon", "100", "--dry-run", "--out", str(tmp_path / "out")) == 0


def test_energy_identity_tolerance_is_relative_above_energy_1(tmp_path):
    """--epsilon 50 gives E up to 30, whose defects pass 1e-3 but stay below 3e-4 of E: every trajectory passes."""
    out = tmp_path / "out"
    assert run_cli("energy", "--epsilon", "50", "--out", str(out)) == 0
    rows = read_json(out / "report.json")["trajectories"]
    assert max(row["defect"] for row in rows) > 1e-3
    assert all(row["passed"] and row["defect"] < 3e-4 * max(1.0, row["energy"]) for row in rows)


def test_flags_fill_in_what_the_config_leaves_out(tmp_path):
    """--grid gives flow a missing grid_size; --epsilon gives energy a missing potential."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"potential": TRIG_16["potential"]}))
    assert run_cli("flow", "--config", str(cfg), "--grid", "16", "--dry-run", "--out", str(tmp_path / "flow")) == 0
    regime = read_json(tmp_path / "flow" / "manifest.json")["step_regime"]
    assert regime["ds_mu_max"] == pytest.approx(1e-2 * mu_max(16))
    cfg.write_text("{}")
    argv = ["--trajectories", "1", "--grid", "16", "--ds", "0.01", "--r", "0.2", "--config", str(cfg)]
    assert run_cli("energy", *argv, "--epsilon", "5", "--out", str(tmp_path / "energy")) == 0
    assert read_json(tmp_path / "energy" / "report.json")["hofer_norm"]["value"] == pytest.approx(20.0)


@pytest.mark.parametrize("argv", [["flow", "--grid", "16", "--ds", "0.2"], ["energy", "--grid", "7"]])
def test_input_error_writes_exit_1_manifest(tmp_path, argv):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 1
    manifest = read_json(out / "manifest.json")
    assert manifest["subcommand"] == argv[0]
    assert manifest["argv"] == [*argv, "--out", str(out)]
    assert manifest["exit_status"] == 1


def _perfbench_module(name):
    """perfbench/<name>.py, loaded from its file: perfbench is no package, and nothing in it is written."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _perfbench_tracing():
    return _perfbench_module("tracing")


def test_perfbench_tracing_restores_every_wrapped_name():
    """perfbench/tracing.py wraps program names by getattr: each must exist and come back unwrapped."""
    tracing = _perfbench_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        wrapped = list(tracer._undo)
        assert all(getattr(owner, attr) is not original for owner, attr, original in wrapped)
    finally:
        tracer.uninstall()
    assert wrapped
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original


@pytest.mark.parametrize("grid_size", [16, 24])
def test_perfbench_tracing_times_a_cuplength_run(tmp_path, grid_size):
    """A traced run writes the untraced report; runner.action is timed for the records without a row alone.

    At N = 16 every record is an exact constant, whose action comes from the
    batch of `_records`, so no `hamiltonians.action` span is recorded.  At
    N = 24 no record has a row (the grid is not a power of two), and each
    record's action is one span.
    """
    tracing = _perfbench_tracing()
    cfg = tmp_path / "config.json"
    config = {"grid_size": grid_size, "lattice_per_dim": 2, "random_starts": 1, "s_max": 5.0}
    cfg.write_text(json.dumps(config))
    status = run_cli("cuplength", "--config", str(cfg), "--out", str(tmp_path / "plain"))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert run_cli("cuplength", "--config", str(cfg), "--out", str(tmp_path / "traced")) == status
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["runner.build_spec.calls"] >= 1
    converged = read_json(tmp_path / "traced" / "report.json")["n_converged"]
    assert converged > 0
    if grid_size == 16:
        assert tracer.names.count("hamiltonians.action") == 0
    else:
        assert tracer.names.count("hamiltonians.action") == converged
        assert metrics["hamiltonians.action.s"] > 0.0
    for name in ("report.json", "summary.csv"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


# sha256 of the outputs of one perfbench workload run at seed 1; energy writes no summary.csv
GOLDEN_OUTPUTS = {
    "perturbed_n64": {
        "report.json": "90756c0a795112612a4eade484f0c96905bccc2227ea3cbe6863977ba54a9389",
        "summary.csv": "4916db4582fb767df2a0ae6c4faac146cac01294aa470e6048ff17692633f11d",
    },
    "flagship_mini": {
        "report.json": "892516ff378ec20c0ea915263633a46811d0d34d2eea32c81c0b5d970ce2ced4",
        "summary.csv": "cf58fd29d1a504239da89b440da1f015186404dabfe3f61bf3e83cd2729fdf84",
    },
    "switching_energy": {"report.json": "3032343bf18e5a7b351c47a63bbc49bf8ae55e6228c39927799ef03ac8402f24"},
}


@pytest.mark.parametrize("workload", list(GOLDEN_OUTPUTS))
def test_workload_outputs_keep_their_bytes(tmp_path, workload):
    """Three runs keep their output bytes: perturbed_n64 (full-grid flows at N = 64), flagship_mini (constant
    flows at N = 32) and switching_energy (one `energy` trajectory), each at seed 1, with the inputs that
    perfbench/workloads.py writes, run in process.  The hashes are the program's own output; the report.json
    hashes in perfbench/reference.json are those of the run that made that file, and may be older.  A change
    that moves these bytes on purpose updates the hashes here and gives the reason in CHANGES.md."""
    argv = _perfbench_module("workloads").write_inputs(workload, 1, tmp_path)
    assert run_cli(*argv) == 0
    out = tmp_path / "out"
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_OUTPUTS[workload]}
    assert digests == GOLDEN_OUTPUTS[workload]


def test_legendre_check(tmp_path):
    out = tmp_path / "leg"
    assert run_cli("legendre-check", "--samples", "4", "--out", str(out)) == 0
    report = read_json(out / "report.json")
    assert report["passed"]


def test_ddw_demo(tmp_path):
    out = tmp_path / "ddw"
    assert run_cli("ddw-demo", "--grid", "16", "--samples", "5", "--out", str(out)) == 0
    report = read_json(out / "report.json")
    assert report["passed"]
    assert report["max_witness_residual"] < 1e-12


def test_field_round_trip(tmp_path):
    from torusfloer.fields_io import load_field, save_field
    from torusfloer.spectral import random_band_limited

    f = random_band_limited(np.random.default_rng(0), 16, 4, 2, layout="z")
    save_field(f, tmp_path / "field")
    g = load_field(tmp_path / "field")
    assert np.array_equal(f.values, g.values)
    assert g.layout == "z"
    header = json.loads((tmp_path / "field.json").read_text())
    assert header["shape"] == [16, 16, 4]


def test_knob_census():
    """Every CLI option, config field, flow parameter and evaluation flag, in order: a knob added or dropped edits this pin."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: [s for a in p._actions for s in a.option_strings] for name, p in sub.choices.items()}
    own = {
        "structures": ["--standard", "--input"],
        "symbol": ["--m-bound", "--xi", "--xi-bound", "--nmin-m-bound"],
        "flow": [
            "--config", "--h", "--epsilon", "--rho", "--grid", "--seed-mode", "--amplitude",
            "--rng-seed", "--tol", "--s-max", "--ds",
        ],
        "energy": [
            "--config", "--epsilon", "--rho", "--grid", "--r", "--ds", "--trajectories",
            "--rng-seed", "--save-trajectories", "--load",
        ],
        "cuplength": ["--config", "--save-fields", "--plots", "--jobs"],
        "legendre-check": ["--epsilon", "--samples", "--rng-seed"],
        "ddw-demo": ["--grid", "--samples", "--rng-seed"],
    }
    assert options == {name: ["-h", "--help", "--out", "--dry-run", *rest] for name, rest in own.items()}
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "n_pairs", "grid_size", "potential", "rho", "lattice_per_dim", "random_starts",
        "perturbation_amplitude", "perturbation_band", "residual_tol", "dedup_delta", "s_max",
        "ds", "seed", "wall_clock_cap",
    ]
    assert [f.name for f in dataclasses.fields(HamiltonianSpec)] == ["potential", "rho"]
    assert list(inspect.signature(CustomPotential).parameters) == ["n_pairs", "h", "grad_h", "time_dependent"]
    assert [f.name for f in dataclasses.fields(LagrangianSpec)] == ["n_pairs", "lagrangian", "v_grad", "q_grad", "v_hess"]
    assert list(CutoffTerms._fields) == ["p_sq", "h", "grad", "p_grad_zero"]
    flows = (flow_to_solution, flow_constants, run_homotopy, action, cutoff_terms)
    assert {f.__name__: list(inspect.signature(f).parameters) for f in flows} == {
        "flow_to_solution": ["Z0", "spec", "triple", "tol", "s_max", "ds"],
        "flow_constants": ["starts", "spec", "tol", "s_max", "ds", "stop"],
        "run_homotopy": ["Z0", "spec", "r", "triple", "ds", "snapshot_every"],
        "action": ["spec", "Z", "h_weight"],
        "cutoff_terms": ["spec", "t1", "t2", "z", "with_grad", "with_h"],
    }
