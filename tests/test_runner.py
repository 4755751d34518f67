import json

import numpy as np
import pytest

from torusfloer.runner import (
    ConfigError,
    ExperimentConfig,
    dedup,
    detect_continuum,
    multistart_solve,
    quotient_l2_distance,
    seed_field,
    seed_kind,
    solve_seed,
    verify_count,
)
from torusfloer.spectral import constant_field

FAST_TRIG = dict(
    n_pairs=1,
    grid_size=16,
    potential={"kind": "trig_potential", "epsilon": 0.3, "modes": [[1, 0], [0, 1]]},
    lattice_per_dim=2,
    random_starts=2,
    perturbation_amplitude=0.01,
    residual_tol=1e-8,
    dedup_delta=0.05,
    s_max=120.0,
    ds=0.02,
    seed=7,
)


def _constant_record(q, residual=1e-10, action=0.0, index=0):
    from torusfloer.runner import SolutionRecord

    field = constant_field(16, [q[0], q[1], 0.0, 0.0], "z")
    return SolutionRecord(
        seed_index=index,
        field=field,
        action=action,
        residual=residual,
        classification="constant",
        q_mean=np.asarray(q, dtype=float),
        max_p_sq=0.0,
        s_reached=0.0,
        n_steps=0,
        p_norm_sq=0.0,
        bound_margin=1.0,
        reason="residual below tol",
        n_halvings=0,
    )


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ConfigError, match="dedup_delta"):
        ExperimentConfig(residual_tol=1e-3, dedup_delta=1e-3)
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"grid": 32})
    with pytest.raises(ConfigError, match="n_pairs"):
        ExperimentConfig(n_pairs=2)  # default potential is for n_pairs=1


def test_config_round_trip():
    config = ExperimentConfig(**FAST_TRIG)
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_config_default_rho():
    config = ExperimentConfig(**FAST_TRIG)
    # 4 + c1/c0 with c0 = 1/4, c1 = sup|h| = 2 * 0.3
    assert config.resolved_rho() == pytest.approx(4.0 + 4.0 * 0.6)
    explicit = ExperimentConfig(**{**FAST_TRIG, "rho": 5.0})
    assert explicit.resolved_rho() == 5.0


def test_seed_fields_deterministic():
    config = ExperimentConfig(**FAST_TRIG)
    assert config.n_seeds == 4 + 2
    a = seed_field(config, 5)
    b = seed_field(config, 5)
    assert np.array_equal(a.values, b.values)
    assert seed_kind(config, 0) == "lattice"
    assert seed_kind(config, 4) == "perturbed"
    with pytest.raises(ConfigError):
        seed_field(config, 6)


def test_lattice_seeds_cover_half_period_points():
    config = ExperimentConfig(**FAST_TRIG)
    means = sorted(
        tuple(np.round(np.mean(seed_field(config, i).q_part(), axis=(0, 1)), 12))
        for i in range(4)
    )
    expected = sorted(
        (round(a, 12), round(b, 12)) for a in (0.0, np.pi) for b in (0.0, np.pi)
    )
    assert means == expected


# ---------------------------------------------------------------------------
# dedup metric


def test_quotient_distance_lattice_shift():
    a = constant_field(16, [0.1, 0.2, 0.0, 0.0], "z")
    b = constant_field(16, [0.1 + 2 * np.pi, 0.2 - 4 * np.pi, 0.0, 0.0], "z")
    assert quotient_l2_distance(a, b) < 1e-14


def test_quotient_distance_half_period():
    a = constant_field(16, [0.0, 0.0, 0.0, 0.0], "z")
    b = constant_field(16, [np.pi, 0.0, 0.0, 0.0], "z")
    assert quotient_l2_distance(a, b) == pytest.approx(np.pi)


def test_dedup_merges_same_limit():
    records = [
        _constant_record([0.0, 0.0], residual=1e-10, index=0),
        _constant_record([1e-4, -1e-4], residual=1e-9, index=1),
        _constant_record([2 * np.pi, 0.0], residual=1e-11, index=2),
    ]
    result = dedup(records, delta=0.05)
    assert result.distinct == 1
    assert records[result.representatives[0]].residual == 1e-11


def test_dedup_separates_critical_points():
    qs = [(0.0, 0.0), (0.0, np.pi), (np.pi, 0.0), (np.pi, np.pi)]
    records = [_constant_record(list(q), index=i) for i, q in enumerate(qs)]
    result = dedup(records, delta=0.1)
    assert result.distinct == 4


def test_continuum_detector_flat_actions():
    config = ExperimentConfig(**{**FAST_TRIG, "lattice_per_dim": 4})
    qs = [(2 * np.pi * i / 4, 2 * np.pi * j / 4) for i in range(4) for j in range(4)]
    records = [_constant_record(list(q), action=0.0, index=k) for k, q in enumerate(qs)]
    result = dedup(records, delta=0.05)
    assert result.distinct == 16
    assert detect_continuum(records, result, config)


def test_continuum_not_detected_for_distinct_actions():
    config = ExperimentConfig(**FAST_TRIG)
    qs = [(0.0, 0.0), (0.0, np.pi), (np.pi, 0.0), (np.pi, np.pi)]
    records = [
        _constant_record(list(q), action=float(i), index=i) for i, q in enumerate(qs)
    ]
    result = dedup(records, delta=0.05)
    assert not detect_continuum(records, result, config)


# ---------------------------------------------------------------------------
# end-to-end searches (small grids)


def test_solve_seed_exact_critical_point():
    config = ExperimentConfig(**FAST_TRIG)
    # lattice seed at (pi, pi) is an exact stationary state
    idx = [i for i in range(4) if np.allclose(
        np.mean(seed_field(config, i).q_part(), axis=(0, 1)), [np.pi, np.pi])][0]
    _, result = solve_seed(config, idx)
    assert result.converged and result.n_steps == 0


def test_multistart_and_count_trig():
    config = ExperimentConfig(**FAST_TRIG)
    report = verify_count(config)
    assert report.bound == 3
    assert report.distinct >= 3
    assert report.passed and not report.inconclusive
    assert not report.continuum_detected
    # every record satisfies the solution contract
    for rec in report.records:
        assert rec.residual < config.residual_tol
        assert rec.max_p_sq <= report.rho + 1e-8
        assert rec.bound_margin >= -1e-12  # saturated at the potential maximum
        assert rec.classification == "constant"
        q = np.mod(rec.q_mean, 2 * np.pi)
        dist = np.minimum(np.abs(q), 2 * np.pi - np.abs(q))
        dist = np.minimum(dist, np.abs(q - np.pi))
        assert np.max(dist) < 1e-6  # critical lattice {0, pi}^2
    # table is sorted by action, largest first
    actions = [row["action"] for row in report.table()]
    assert actions == sorted(actions, reverse=True)


def test_multistart_records_divergences():
    config = ExperimentConfig(
        **{**FAST_TRIG, "lattice_per_dim": 1, "random_starts": 2, "perturbation_amplitude": 0.05}
    )
    result = multistart_solve(config)
    # perturbed seeds exit along growing directions and are reported, not raised
    assert len(result.divergent) >= 1
    for rec in result.divergent:
        assert rec.reason


def test_zero_potential_reports_continuum():
    config = ExperimentConfig(
        n_pairs=1,
        grid_size=16,
        potential={"kind": "zero", "n_pairs": 1},
        lattice_per_dim=4,
        random_starts=0,
        residual_tol=1e-8,
        dedup_delta=0.05,
        s_max=10.0,
        ds=0.02,
    )
    report = verify_count(config)
    # every constant is a stationary state: flagged as a continuum, counted
    # as a trivial pass rather than by cluster number
    assert report.continuum_detected
    assert report.passed
    assert all(rec.action == pytest.approx(0.0, abs=1e-12) for rec in report.records)


def test_budget_exhaustion_is_inconclusive():
    config = ExperimentConfig(**{**FAST_TRIG, "wall_clock_cap": 0.0})
    report = verify_count(config)
    assert report.inconclusive and not report.passed


def test_parallel_budget_cancels_pending_seeds():
    config = ExperimentConfig(**{**FAST_TRIG, "wall_clock_cap": 0.0})
    multi = multistart_solve(config, jobs=2)
    assert multi.budget_exhausted
    finished = len(multi.records) + len(multi.divergent) + len(multi.unfinished)
    assert finished < config.n_seeds


def test_multistart_worker_pool_matches_serial():
    config = ExperimentConfig(**FAST_TRIG)
    serial = verify_count(config, jobs=1)
    parallel = verify_count(config, jobs=2)
    assert parallel.distinct == serial.distinct
    assert [r.seed_index for r in parallel.records] == [r.seed_index for r in serial.records]
    assert [r.action for r in parallel.records] == [r.action for r in serial.records]
    assert json.dumps(parallel.to_report_dict()) == json.dumps(serial.to_report_dict())


def test_verify_count_n2_product_potential():
    config = ExperimentConfig(
        n_pairs=2,
        grid_size=16,
        potential={
            "kind": "trig_potential",
            "epsilon": 0.2,
            "modes": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        },
        lattice_per_dim=2,
        random_starts=0,
        residual_tol=1e-8,
        dedup_delta=0.05,
        s_max=10.0,
        ds=0.02,
    )
    report = verify_count(config)
    # all 16 lattice seeds sit at stationary states of the product potential
    assert report.distinct >= 2 * 2 + 1
    assert report.passed


def test_report_dict_is_json_clean():
    config = ExperimentConfig(**FAST_TRIG)
    report = verify_count(config)
    payload = json.dumps(report.to_report_dict(), sort_keys=True)
    assert "records" in json.loads(payload)
