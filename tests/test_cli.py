import csv
import json

import numpy as np
import pytest

from torusfloer.cli import main
from torusfloer.structures import standard_structures


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
    # byte-identical config snapshot
    assert (out / "config_snapshot.json").read_bytes() == cfg.read_bytes()


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
    assert any((out1 / "records").glob("*.bin"))


def test_cuplength_dry_run(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_pairs": 1, "grid_size": 16}))
    out = tmp_path / "dry"
    assert run_cli("cuplength", "--config", str(cfg), "--dry-run", "--out", str(out)) == 0
    assert not (out / "report.json").exists()


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
            ("check_every", 0, "check_every must be an integer >= 1"),
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
    + [(["flow", "--grid", "16", "--check-every", "0"], None, "check_every must be >= 1")],
)
def test_library_errors_exit_1_with_one_line(tmp_path, capsys, argv, config, message):
    argv = [*argv, "--out", str(tmp_path / "out")]
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert err.startswith(f"{argv[0]}: ")


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
