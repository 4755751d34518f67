import concurrent.futures
import json
import pickle
from collections import Counter
from concurrent.futures import Future
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flow_bytes
from torusfloer import runner
from torusfloer.floer import (
    PAIRWISE_BLOCK,
    FlowResult,
    constant_start,
    constant_step,
    exact_constant,
    flow_constants,
    POLISH_FRACTION,
    polish_constants,
    polish_level,
)
from torusfloer.hamiltonians import hamiltonian_from_config
from torusfloer.runner import (
    ConfigError,
    ExperimentConfig,
    _component_planes,
    _plane_distance,
    _record_from_result,
    _solve_seeds,
    dedup,
    detect_continuum,
    multistart_solve,
    quotient_l2_distance,
    seed_field,
    seed_kind,
    solve_seed,
    verify_count,
)
from torusfloer.spectral import TorusField, constant_field, sobolev_seminorm

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
    assert ExperimentConfig.from_dict(asdict(config)) == config


def test_config_default_rho():
    config = ExperimentConfig(**FAST_TRIG)
    # 4 + c1/c0 with c0 = 1/4, c1 = sup|h| = 2 * 0.3
    assert config.build_spec().rho == pytest.approx(4.0 + 4.0 * 0.6)
    explicit = ExperimentConfig(**{**FAST_TRIG, "rho": 5.0})
    assert explicit.build_spec().rho == 5.0


def _counting_build_spec(monkeypatch) -> list:
    """Spy on ExperimentConfig.build_spec; returns the list of configs it built a spec for."""
    built = []
    build = ExperimentConfig.build_spec
    monkeypatch.setattr(ExperimentConfig, "build_spec", lambda config: built.append(config) or build(config))
    return built


def test_config_keeps_its_spec(monkeypatch):
    built = _counting_build_spec(monkeypatch)
    config = ExperimentConfig(**FAST_TRIG)
    assert config.spec is config.spec and built == [config]
    assert "spec" not in asdict(config)


def test_verify_count_builds_the_spec_once(monkeypatch):
    built = _counting_build_spec(monkeypatch)
    verify_count(ExperimentConfig(**{**FAST_TRIG, "lattice_per_dim": 1, "random_starts": 1}))
    assert len(built) == 1


def test_pickled_config_carries_its_spec(monkeypatch):
    """A worker process receives the config pickled, spec included, and builds no spec of its own."""
    built = _counting_build_spec(monkeypatch)
    config = ExperimentConfig(**FAST_TRIG)
    spec = config.spec
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config and copy.spec is not spec and copy.spec.rho == spec.rho
    assert built == [config]


def test_worker_tasks_take_the_pickled_spec(monkeypatch):
    """--jobs tasks get the config as a pool pickles it, and write the serial records without a second build."""
    built = _counting_build_spec(monkeypatch)

    class PicklingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*pickle.loads(pickle.dumps(args))))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingPool)  # the name runner imports for jobs > 1
    config = ExperimentConfig(**FAST_TRIG)
    pooled = multistart_solve(config, jobs=3)
    assert len(built) == 1
    serial = multistart_solve(config, jobs=1)
    assert [(r.seed_index, r.action) for r in pooled.records] == [(r.seed_index, r.action) for r in serial.records]


def test_replaced_config_builds_its_own_spec(monkeypatch):
    built = _counting_build_spec(monkeypatch)
    config = ExperimentConfig(**FAST_TRIG)
    finer = replace(config, ds=config.ds / 2)
    assert finer.spec is not config.spec
    assert built == [finer, config]


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


def _grid_distance(a, b):
    """The quotient distance as a formula over the fields' (N, N, 4n) values."""
    dq = a.q_part() - b.q_part()
    shift = 2.0 * np.pi * np.round(np.mean(dq, axis=(0, 1)) / (2.0 * np.pi))
    dq = dq - shift
    dp = a.p_part() - b.p_part()
    dist_sq = float(np.mean(np.sum(dq**2, axis=2) + np.sum(dp**2, axis=2)))
    return float(np.sqrt(max(dist_sq, 0.0)))


@pytest.mark.parametrize("n_pairs", [1, 2, 5])  # 2n components below 8, and above
@pytest.mark.parametrize("n", [16, 32])
def test_plane_distance_has_the_bits_of_the_grid_formula(rng, n_pairs, n):
    base = rng.standard_normal((n, n, 4 * n_pairs))
    fields = []
    for scale, points in ((0.0, 0), (1e-3, 3), (0.1, 3), (1.0, 3), (0.1, n * n)):
        # differences on a few points: the sums over components there round the mean
        noise = rng.standard_normal(base.shape)
        noise.reshape(n * n, -1)[rng.permutation(n * n)[points:]] = 0.0
        values = base + scale * noise
        values[:, :, : 2 * n_pairs] += 2.0 * np.pi * rng.integers(-3, 4, 2 * n_pairs)
        fields.append(TorusField(values, "z"))
    pairs = [(a, b) for i, a in enumerate(fields) for b in fields[i + 1 :]]
    expected = [_grid_distance(a, b) for a, b in pairs]
    assert 0.0 < max(expected) < 2.0  # every lattice shift is taken out
    assert [quotient_l2_distance(a, b) for a, b in pairs] == expected
    assert [float(_plane_distance(_component_planes(a), _component_planes(b))) for a, b in pairs] == expected
    # the batched form dedup takes: one field against the stacked planes of the fields after it,
    # and the other way round, since dedup fills both halves of its distance matrix from one
    planes = np.stack([_component_planes(z) for z in fields])
    batched = [_plane_distance(a, planes[i + 1 :]).tolist() for i, a in enumerate(planes[:-1])]
    assert [d for row in batched for d in row] == expected
    count = len(planes)
    mirrored = [_plane_distance(planes[j], planes[:j])[i] for i in range(count) for j in range(i + 1, count)]
    assert [float(d) for d in mirrored] == expected
    records = [_constant_record([0.0, 0.0], index=i)._replace(field=z) for i, z in enumerate(fields)]
    assert dedup(records, delta=1e3).diameters == [max(expected)]


def test_record_q_mean_has_the_bits_of_the_values_in_every_layout():
    config = ExperimentConfig(**{**FAST_TRIG, "grid_size": 32})
    point = np.array([np.pi, np.pi, 0.0, 0.0])
    grid = np.broadcast_to(point, (32, 32, 4))
    layouts = [grid.copy(), np.asfortranarray(grid), grid.transpose(2, 0, 1).copy().transpose(1, 2, 0), grid]
    means = []
    for values in layouts:
        result = FlowResult(TorusField(values, "z"), 0.0, 0.0, True, False, "", 0, 0.02, [[0.0] * 5], 0)
        means.append(_record_from_result(config, config.build_spec(), 0, result).q_mean.tobytes())
    assert means == [np.mean(grid.copy()[:, :, :2], axis=(0, 1)).tobytes()] * len(layouts)


components = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, np.pi, -np.pi, 5e-324, 1.3e154, 1.4e154, 1e300]),
)


@settings(max_examples=100, deadline=None, database=None)
@given(
    n=st.sampled_from([16, 32, 64]),
    point=st.lists(components, min_size=4, max_size=4),
    tol=st.sampled_from([1e-8, 1e-300]),
)
def test_flat_constants_classify_as_their_seminorm_does(n, point, tol):
    """An equal-bytes constant of a power-of-two grid has seminorm exactly 0 unless its squares overflow."""
    z = TorusField(np.broadcast_to(point, (n, n, 4)), "z")
    with np.errstate(over="ignore", invalid="ignore"):
        seminorm = sobolev_seminorm(z, 1)
        squares_finite = bool(np.all(np.isfinite(np.square(point))))
    assert exact_constant(z.values) == squares_finite
    if exact_constant(z.values):  # the shortcut: "constant" for every positive tolerance
        assert seminorm == 0.0 and seminorm < 10.0 * tol


def test_flat_shortcut_leaves_other_fields_to_the_transform(monkeypatch):
    point = np.array([np.pi, -0.0, 0.0, 1.0])
    assert not exact_constant(np.broadcast_to(point, (24, 24, 4)).copy())  # N = 24: the transform rounds
    nan = np.broadcast_to(point, (16, 16, 4)).copy()
    nan[..., 2] = np.nan
    assert not exact_constant(nan)
    mixed = np.broadcast_to(point, (16, 16, 4)).copy()
    mixed[3, 5, 1] = 0.0  # +0.0 at one point, -0.0 at the others
    assert not exact_constant(mixed)

    config = ExperimentConfig(**FAST_TRIG)
    seminorms = []
    monkeypatch.setattr(
        runner, "sobolev_seminorm", lambda z, k: seminorms.append(z.grid_size) or sobolev_seminorm(z, k)
    )
    for n, expected in ((16, "constant"), (24, "constant")):
        result = FlowResult(constant_field(n, point, "z"), 0.0, 0.0, True, False, "", 0, 0.02, [[0.0] * 5], 0)
        assert _record_from_result(config, config.build_spec(), 0, result).classification == expected
    assert seminorms == [24]  # the power-of-two constant took no transform


# the potentials of the row-path property, a time-dependent one among them
ROW_POTENTIALS = {
    1: [
        {"kind": "trig_potential", "epsilon": 0.3, "modes": [[1, 0], [0, 1]]},
        {"kind": "time_trig", "epsilon": 0.2, "t_mode": [1, 2], "q_mode": [1, -1]},
        {"kind": "zero", "n_pairs": 1},  # a mean H of +-0: the constant grid forms the action's pairing
    ],
    2: [{"kind": "trig_potential", "epsilon": 0.2, "modes": [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]}],
}
huge = st.floats(min_value=1e151, max_value=1.4e154).flatmap(lambda x: st.sampled_from([x, -x]))
row_values = st.one_of(  # squares near overflow too: exact constants end at |x| = 1.34e154
    st.floats(min_value=-10.0, max_value=10.0), st.sampled_from([0.0, -0.0, np.pi, -np.pi]), huge
)


def _record_bits(record):
    stats = (record.action, record.max_p_sq, record.p_norm_sq, record.bound_margin)
    return record.classification, np.array(stats).tobytes(), record.q_mean.tobytes()


@settings(max_examples=120, deadline=None, database=None)
@given(n=st.sampled_from([8, 12, 16, 24, 32, 64]), n_pairs=st.sampled_from([1, 2]), data=st.data())
def test_row_path_of_records_and_dedup_has_the_bits_of_the_field_path(n, n_pairs, data):
    """Records and distances of exact constants, taken from their rows, have the bits of their fields'.

    Rows are drawn with signed zeros, lifts by 2 pi k and squares near
    overflow.  A grid that is not a power of two, a row whose square
    overflows or a field made not constant at one point leaves its record,
    and a mixed set all of dedup, to the field path, which must match too.
    Under an autonomous h the rows' actions come from one constant grid, and
    `action` is called for the other records alone.
    """
    k, q = 4 * n_pairs, 2 * n_pairs
    config = ExperimentConfig(
        n_pairs=n_pairs, grid_size=n, potential=data.draw(st.sampled_from(ROW_POTENTIALS[n_pairs])), ds=0.01
    )
    spec = config.build_spec()
    draw_row = st.lists(row_values, min_size=k, max_size=k).map(np.array)
    base = data.draw(draw_row)
    rows = []
    for _ in range(data.draw(st.integers(1, 5))):
        if data.draw(st.booleans()):  # a lift of the base point
            row = base.copy()
            row[:q] += 2.0 * np.pi * np.array(data.draw(st.lists(st.integers(-3, 3), min_size=q, max_size=q)))
        else:
            row = data.draw(draw_row)
        rows.append(row)
    fields = [np.broadcast_to(row, (n, n, k)).copy() for row in rows]
    if data.draw(st.booleans()):  # one field not constant
        field = fields[data.draw(st.integers(0, len(fields) - 1))]
        field[1, 2, 0] = np.nextafter(field[1, 2, 0], np.inf)
    results = [
        (i, FlowResult(TorusField(v, "z"), 0.0, 0.0, True, False, "", 0, 0.01, [[0.0] * 5], 0))
        for i, v in enumerate(fields)
    ]
    exact = [exact_constant(v) for v in fields]
    with np.errstate(over="ignore", invalid="ignore"):
        with mock.patch.object(runner, "action", wraps=runner.action) as spy:
            records = runner._records(config, spec, results)
        alone = [_record_from_result(config, spec, i, result) for i, result in results]
        assert [r.row is not None for r in records] == exact
        # the field path's action is taken for the records without a row, and for every one of a time-dependent h
        index_of = {id(result.Z): i for i, result in results}
        called = sorted(index_of[id(call.args[1])] for call in spy.call_args_list)
        assert called == [i for i, e in enumerate(exact) if not e or spec.potential.time_dependent]
        assert [_record_bits(r) for r in records] == [_record_bits(r) for r in alone]
        fields_only = [r._replace(row=None) for r in records]
        pairs = [(i, j) for i in range(len(records)) for j in range(i + 1, len(records))]
        for delta in (0.05, np.inf):
            with mock.patch.object(runner, "_plane_distance", wraps=runner._plane_distance) as spy:
                got = dedup(records, delta)
            if pairs:
                width = min(n * n, PAIRWISE_BLOCK) if all(exact) else n * n
                assert {call.args[0].shape[-1] for call in spy.call_args_list} == {width}
            want = dedup(fields_only, delta)
            assert (got.clusters, got.representatives) == (want.clusters, want.representatives)
            assert np.array(got.diameters).tobytes() == np.array(want.diameters).tobytes()
        # every distance, as the diameter of a pair merged at delta = inf
        for i, j in pairs:
            got = dedup([records[i], records[j]], np.inf).diameters
            want = dedup([fields_only[i], fields_only[j]], np.inf).diameters
            assert np.array(got).tobytes() == np.array(want).tobytes()


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


def test_failed_polish_falls_back_to_the_plain_flow():
    """V = eps cos(q1) leaves the Jacobian's q2 column exactly zero, so Newton fails on every seed.

    Each such seed flows again from its start, and every seed's result, those
    that start on a critical point included, is byte-identical to the plain
    flow of the batch to residual_tol.
    """
    potential = {"kind": "trig_potential", "epsilon": 1.0, "modes": [[1, 0]]}
    config = ExperimentConfig(**{**FAST_TRIG, "potential": potential, "lattice_per_dim": 4, "random_starts": 0})
    spec = config.build_spec()
    starts = [constant_start(spec, seed_field(config, i)) for i in range(config.n_seeds)]
    options = dict(s_max=config.s_max, ds=constant_step(spec, config.ds))
    handed = flow_constants(starts, spec, tol=polish_level(spec), **options)
    polish = [r for r in handed if not r.residual_norm < config.residual_tol]
    assert len(polish) == 8 and polish_constants(polish, spec, config.residual_tol) == [None] * 8

    results, stopped = _solve_seeds(config, spec, range(config.n_seeds), lambda: False)
    plain = flow_constants(starts, spec, tol=config.residual_tol, **options)
    assert not stopped and sorted(results) == list(range(config.n_seeds))
    assert sum(r.reason == "initial residual below tol" for r in plain) == 8
    for i, expected in enumerate(plain):
        assert expected.converged
        assert flow_bytes(results[i]) == flow_bytes(expected)
        assert results[i].Z.values.strides == expected.Z.values.strides


def test_polish_level_scales_with_the_potential():
    """The handover level is a fixed fraction of the largest residual of a constant, |grad h|."""
    def spec(epsilon):
        return hamiltonian_from_config({"kind": "trig_potential", "epsilon": epsilon, "modes": [[1, 0], [0, 1]]})

    levels = [polish_level(spec(eps)) for eps in (0.01, 0.1, 2.5)]
    assert levels[0] > 0.0 and levels == pytest.approx([levels[0], 10.0 * levels[0], 250.0 * levels[0]], rel=1e-12)
    # sup |grad h| = sqrt(2) epsilon at (pi/2, pi/2), nearly reached by the samples
    assert levels[1] == pytest.approx(POLISH_FRACTION * np.sqrt(2.0) * 0.1, rel=1e-3)
    assert polish_level(hamiltonian_from_config({"kind": "zero", "n_pairs": 1})) == 0.0


def test_a_small_potential_hands_over_no_nearer_its_saddle():
    """At epsilon 0.01 the seed (2 pi/3, 0) starts at residual 0.0087, below an absolute 1e-2.

    Handed to Newton there, it would be polished onto the saddle (pi, 0); the
    flow takes it to (0, 0), and so must the polish.
    """
    potential = {"kind": "trig_potential", "epsilon": 0.01, "modes": [[1, 0], [0, 1]]}
    config = ExperimentConfig(
        **{**FAST_TRIG, "potential": potential, "lattice_per_dim": 6, "random_starts": 0, "s_max": 400.0, "ds": 0.08}
    )
    spec = config.build_spec()
    assert np.array_equal(seed_field(config, 2).values[0, 0], [2 * np.pi / 3, 0.0, 0.0, 0.0])
    results, stopped = _solve_seeds(config, spec, [2], lambda: False)
    result = results[2]
    assert not stopped and result.converged and "Newton" in result.reason
    assert result.residual_norm < config.residual_tol
    assert np.max(np.abs(np.mod(result.Z.values[0, 0, :2] + np.pi, 2 * np.pi) - np.pi)) < 1e-12


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


@pytest.mark.parametrize("jobs", [2, 3, 4])
@pytest.mark.parametrize("changes", [{}, {"lattice_per_dim": 3}], ids=["fast_trig", "newton_lattice"])
def test_multistart_worker_pool_matches_serial(jobs, changes):
    """Round-robin tasks write the serial report, with lattice constants handed to Newton in each."""
    config = ExperimentConfig(**{**FAST_TRIG, **changes})
    serial = verify_count(config, jobs=1)
    if changes:
        assert any("Newton" in r.reason for r in serial.records)
    parallel = verify_count(config, jobs=jobs)
    assert parallel.distinct == serial.distinct
    assert [r.seed_index for r in parallel.records] == [r.seed_index for r in serial.records]
    assert [r.action for r in parallel.records] == [r.action for r in serial.records]
    assert json.dumps(parallel.to_report_dict()) == json.dumps(serial.to_report_dict())


def test_worker_pool_is_no_larger_than_the_task_list(monkeypatch):
    """A fork pool starts every worker at its first submit, so jobs beyond the task count cost processes."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    built = Counter()
    seed_field = runner.seed_field
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)  # the name runner imports for jobs > 1
    monkeypatch.setattr(runner, "seed_field", lambda config, i: built.update([i]) or seed_field(config, i))
    config = ExperimentConfig(**FAST_TRIG)  # 6 seeds: one task each at jobs=8
    pooled = multistart_solve(config, jobs=8)
    # each task builds its own seeds: no seed is built twice
    assert built == Counter({0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1})
    serial = multistart_solve(config, jobs=1)
    assert sizes == [6]
    assert [r.seed_index for r in pooled.records] == [r.seed_index for r in serial.records]


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


FLAGSHIP = json.loads((Path(__file__).resolve().parents[1] / "configs" / "trig_n1.json").read_text())
N2_PRODUCT = dict(  # the config of test_verify_count_n2_product_potential
    n_pairs=2,
    grid_size=16,
    potential={"kind": "trig_potential", "epsilon": 0.2, "modes": np.eye(4, dtype=int).tolist()},
    lattice_per_dim=2,
    random_starts=0,
    s_max=10.0,
    ds=0.02,
)
# Where the flagship's lattice seeds land at epsilon 0.01 and ds 0.02, a flow of about 4 s:
# each q_i starting at 2 pi k / 6 flows to 0 but for k = 3, which starts on pi.  Read off
# the records of `verify_count` (random_starts 0) with `constant_step` returning ds, where
# each limit lies within 1e-13 of these points modulo 2 pi; distinct is 4.
FLAGSHIP_LIMIT_OF_DIGIT = [0.0, 0.0, 0.0, np.pi, 0.0, 0.0]


@pytest.mark.parametrize("case", [0.01, 0.1, 1.0, 2.5, "n2_product"])
def test_constant_seeds_land_where_they_land_at_the_config_step(monkeypatch, case):
    """Every lattice seed, flowed at `constant_step`, lands within dedup_delta of its limit at config.ds."""
    if case == "n2_product":
        config = ExperimentConfig(**N2_PRODUCT)
    else:
        potential = {**FLAGSHIP["potential"], "epsilon": case}
        config = ExperimentConfig(**{**FLAGSHIP, "random_starts": 0, "potential": potential})
    assert constant_step(config.build_spec(), config.ds) > config.ds
    report = verify_count(config)
    if case == 0.01:
        digit = FLAGSHIP_LIMIT_OF_DIGIT
        expected = {i: np.array([digit[i % 6], digit[i // 6]]) for i in range(config.n_seeds)}
        distinct = 4
    else:
        monkeypatch.setattr(runner, "constant_step", lambda spec, ds: ds)
        at_ds = verify_count(config)
        expected = {r.seed_index: r.q_mean for r in at_ds.records}
        distinct = at_ds.distinct
    assert report.distinct == distinct
    assert sorted(r.seed_index for r in report.records) == sorted(expected) == list(range(config.n_seeds))
    for r in report.records:
        gap = np.angle(np.exp(1j * (r.q_mean - expected[r.seed_index])))  # modulo 2 pi
        assert np.sqrt(np.sum(gap**2)) < config.dedup_delta


def test_report_dict_is_json_clean():
    config = ExperimentConfig(**FAST_TRIG)
    report = verify_count(config)
    payload = json.dumps(report.to_report_dict(), sort_keys=True)
    assert "records" in json.loads(payload)
