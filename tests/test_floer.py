import hashlib
import types
from collections import Counter

import numpy as np
import pytest

from torusfloer import floer
from torusfloer.floer import (
    BetaProfile,
    DS_CONSTANT_MAX,
    FlowError,
    _FlowGrid,
    _propagator,
    action,
    check_flow_steps,
    check_step,
    constant_step,
    energy,
    energy_identity_check,
    flow_to_solution,
    max_principle_check,
    mu_max,
    run_homotopy,
)
from torusfloer.hamiltonians import (
    CustomPotential,
    HamiltonianSpec,
    TrigPotential,
    hamiltonian_from_config,
    hamiltonian_residual,
    hofer_norm,
    nonlinearity_from_config,
)
from torusfloer.spectral import (
    TorusField,
    constant_field,
    derivative_numbers,
    field_from_modes,
    l2_norm,
    random_band_limited,
    sobolev_seminorm,
)
from torusfloer.runner import ExperimentConfig, multistart_solve
from torusfloer.structures import compatible_triple, mode_operator, random_regularized_pair, standard_structures

from conftest import flow_bytes, linear_flow_exact, mode_block, project_flow_stable, rk4_reference

TRIG = {"kind": "trig_potential", "epsilon": 0.1, "modes": [[1, 0], [0, 1]]}


def trig_spec(rho=4.0):
    return hamiltonian_from_config(TRIG, rho=rho)


def free_spec():
    return hamiltonian_from_config({"kind": "zero", "n_pairs": 1})


# ---------------------------------------------------------------------------
# switching profile


@pytest.mark.parametrize("r", [0.0, 0.25, 1.0, 2.5])
def test_beta_profile_bullets(r):
    k = 2
    bp = BetaProfile(r=r, k=k)
    s = np.linspace(-3.0, (k + 1) * r + 3.0, 40001)
    vals = bp.value(s)
    assert np.all(vals[s <= -1.0] == 0.0)
    assert np.all(vals[s >= (k + 1) * r + 1.0] == 0.0)
    if r >= 1.0:
        plateau = (s >= 0.0) & (s <= (k + 1) * r)
        assert np.allclose(vals[plateau], 1.0, atol=1e-15)
    d = bp.derivative(s)
    rising = (s > -1.0) & (s < 0.0)
    falling = (s > (k + 1) * r) & (s < (k + 1) * r + 1.0)
    assert np.all(d[rising] >= 0.0) and np.all(d[rising] <= 2.0)
    assert np.all(d[falling] <= 0.0) and np.all(d[falling] >= -2.0)


def test_beta_profile_vanishes_with_r():
    s = np.linspace(-3.0, 10.0, 5001)
    for r in (1e-1, 1e-3, 1e-6):
        bp = BetaProfile(r=r, k=2)
        assert np.max(np.abs(bp.value(s))) <= r
        assert np.max(np.abs(bp.derivative(s))) <= 2.0 * r


def test_beta_profile_derivative_by_differences():
    bp = BetaProfile(r=0.7, k=2)
    s = np.linspace(-2.0, 4.0, 2001)
    h = 1e-6
    fd = (bp.value(s + h) - bp.value(s - h)) / (2 * h)
    assert np.max(np.abs(fd - bp.derivative(s))) < 1e-5


def imex_steps(spec, z, ds, n_steps=1, weight=1.0):
    """The field after n_steps IMEX steps of the flow grid from z."""
    grid = _FlowGrid(spec, standard_structures(spec.n_pairs), z)
    vals, zhat = grid.start
    for _ in range(n_steps):
        vals, zhat = grid.step(zhat, grid.evaluate(vals), np.full(1, ds), weight)
    return grid.field(vals)


# ---------------------------------------------------------------------------
# one step of the flow


def test_residual_zero_at_solution():
    spec = trig_spec()
    z = constant_field(16, [np.pi, 0.0, 0.0, 0.0], "z")
    grid = _FlowGrid(spec, standard_structures(1), z)
    vals, zhat = grid.start
    assert grid.residual(vals, zhat, grid.evaluate(vals))[0] < 1e-15
    assert l2_norm(hamiltonian_residual(spec, z, standard_structures(1))) < 1e-15


def test_step_constant_momentum_grows():
    # Z = (0, p0): the velocity is (0, p), so constants with momentum run away;
    # the implicit step multiplies p by 1 / (1 - ds) and leaves q at 0
    spec = free_spec()
    z = constant_field(16, [0.0, 0.0, 0.7, -0.2], "z")
    ds = 0.01
    stepped = imex_steps(spec, z, ds).values
    assert np.max(np.abs(stepped[:, :, :2])) == 0.0
    assert np.max(np.abs(stepped[:, :, 2] - 0.7 / (1.0 - ds))) < 1e-14
    assert np.max(np.abs(stepped[:, :, 3] + 0.2 / (1.0 - ds))) < 1e-14


def test_step_single_mode_matches_symbol_block():
    # free flow on one q mode: the step solves (Id + ds L(m)) v_new = v with L
    # the per-mode block of the linearized operator at zero flow frequency
    spec = free_spec()
    m = (1, 0)
    v = np.zeros(4, dtype=complex)
    v[0] = 0.3
    z = field_from_modes(16, 4, {m: v}, "z")
    ds = 0.01
    out = np.fft.fft2(imex_steps(spec, z, ds).values, axes=(0, 1), norm="forward")[m[0] % 16, m[1] % 16]
    expected = np.linalg.solve(np.eye(4) + ds * mode_block(*m), v)
    assert np.max(np.abs(out - expected)) < 1e-13


def test_homotopy_velocity_follows_profile_weight():
    # a constant off the critical points of h is a fixed point of the free flow
    spec = trig_spec()
    z = constant_field(16, [1.0, 2.0, 0.0, 0.0], "z")
    traj = run_homotopy(z, spec, r=1.0, ds=0.01)
    before = traj.s[:-1] < -1.0
    assert np.all(traj.vsq[before] == 0.0)  # nonlinearity switched off
    assert np.max(traj.vsq[~before]) > 1e-6


def test_imex_fixed_point_exact():
    spec = trig_spec()
    z = constant_field(16, [0.0, np.pi, 0.0, 0.0], "z")
    stepped = imex_steps(spec, z, 0.05)
    assert np.max(np.abs(stepped.values - z.values)) < 1e-12


def test_imex_rejects_large_step():
    with pytest.raises(FlowError):
        imex_steps(free_spec(), constant_field(16, [0.0] * 4, "z"), 1.0)


@pytest.mark.parametrize("n_pairs", [1, 2])
@pytest.mark.parametrize("n_grid", [16, 32, 64])
@pytest.mark.parametrize("ds_mu", [0.5, 0.9, 0.99])
def test_step_regime_is_the_spectrum_of_the_standard_mode_operator(n_pairs, n_grid, ds_mu):
    """check_step's largest step factor is max 1/|1 + ds lam| over the eigenvalues of L(m) on the grid modes."""
    ds = ds_mu / mu_max(n_grid)
    lam = np.linalg.eigvals(mode_operator(standard_structures(n_pairs), *derivative_numbers(n_grid)))
    largest = np.max(1.0 / np.abs(1.0 + ds * lam))
    assert largest == pytest.approx(check_step(n_grid, ds)["max_step_amplification"], rel=1e-9)


@pytest.mark.parametrize("ds", [[0.01, 0.0, 0.02], [0.01, -0.01, 0.02], [0.01, 1.0, 0.02]])
def test_constant_grid_rejects_any_seeds_step_outside_the_regime(ds):
    grid = _FlowGrid.constants(free_spec(), 16, np.zeros((3, 4)))
    with pytest.raises(FlowError, match=r"step size must lie in \(0, 1\)|leaves the step regime"):
        grid.step(grid.start[1], grid.evaluate(grid.start[0]), np.array(ds), 1.0)


# the constant step of each c3_norm bound before it is raised to ds: DS_CONSTANT_MAX, else 1 / c3_norm
CONSTANT_STEP_OF_C3 = {0.0: 0.5, 0.2: 0.5, 2.0: 0.5, 5.0: 0.2, 1e3: 1e-3}


@pytest.mark.parametrize("c3_norm", [None, np.inf, np.nan, -1.0, *CONSTANT_STEP_OF_C3])
@pytest.mark.parametrize("ds", [1e-4, 0.02, 0.3, 0.9])
def test_constant_step_never_shortens_the_step(c3_norm, ds):
    """min(DS_CONSTANT_MAX, 1 / c3_norm), never below ds; a custom h without a finite bound keeps ds.

    The spec reads c3_norm from its potential, so a namespace with the bound stands in for one of any value.
    """
    spec = HamiltonianSpec(types.SimpleNamespace(n_pairs=1, c3_norm=c3_norm))
    assert DS_CONSTANT_MAX == 0.5
    step = constant_step(spec, ds)
    assert step >= ds
    assert step == max(ds, CONSTANT_STEP_OF_C3.get(c3_norm, ds))


@pytest.mark.parametrize("constant", [True, False], ids=["constant", "full"])
def test_a_flow_halved_past_the_step_cap_ends_unfinished(monkeypatch, constant):
    """s_max / ds is within MAX_FLOW_STEPS, but the halved step needs more: the flow ends one step past the cap."""
    monkeypatch.setattr(floer, "MAX_FLOW_STEPS", 5)
    spec = hamiltonian_from_config({"kind": "trig_potential", "epsilon": 30.0, "modes": [[1, 0], [0, 1]]})
    if not constant:
        _full_grid_only(monkeypatch)
    check_flow_steps(0.45, 0.09)
    with pytest.raises(FlowError, match="needs 5.11 steps of ds=0.09, more than the cap"):
        check_flow_steps(0.46, 0.09)
    z0 = constant_field(16, [np.pi / 3, 0.0, 0.0, 0.0], "z")
    result = flow_to_solution(z0, spec, ds=0.09, s_max=0.45)
    assert (result.converged, result.diverged, result.reason) == (False, False, "step cap reached")
    assert result.n_halvings == 1 and result.n_steps == 6 and len(result.rows) == 7
    assert result.s_reached == pytest.approx(0.27)
    # five steps of 0.09 sum to 0.44999999999999996: a flow that keeps its step takes one more to s_max
    result = flow_to_solution(z0, trig_spec(), ds=0.09, s_max=0.45)
    assert (result.reason, result.n_halvings, result.n_steps) == ("s_max reached", 0, 6)


def test_propagator_matches_exponential_to_first_order():
    triple = standard_structures(1)
    ds = 1e-3
    prop = _propagator(16, ds, triple, np.s_[:, :])
    m = np.rint(np.fft.fftfreq(16, 1 / 16)).astype(int)
    m[8] = 0
    for a, b in [(0, 0), (1, 0), (3, 14), (5, 5)]:
        block = mode_block(int(m[a]), int(m[b]))
        lam, vec = np.linalg.eig(block)
        expm = vec @ np.diag(np.exp(-ds * lam)) @ np.linalg.inv(vec)
        assert np.max(np.abs(prop[a, b] - expm)) < 5.0 * ds**2 * max(1.0, np.max(np.abs(lam)) ** 2)


def test_imex_step_accuracy_is_second_order_local(rng):
    # one step against an RK4 reference at ds/100: local error O(ds^2)
    spec = trig_spec()
    triple = standard_structures(1)
    z = project_flow_stable(random_band_limited(rng, 16, 4, 2, 0.2, "z"))
    errors = []
    for ds in (2e-2, 1e-2):
        ref = rk4_reference(z, spec, triple, ds, 100)
        err = np.max(np.abs(imex_steps(spec, z, ds).values - ref.values))
        errors.append(err)
    ratio = errors[0] / errors[1]
    assert 3.0 < ratio < 5.5  # halving ds quarters the local error


def test_linear_flow_global_order_one(rng):
    # free flow has a closed form per mode; global IMEX error is O(ds)
    spec = free_spec()
    z0 = project_flow_stable(random_band_limited(rng, 16, 4, 2, 0.5, "z"))
    exact = linear_flow_exact(z0, 1.0)
    errors = []
    for ds in (0.02, 0.01):
        z = imex_steps(spec, z0, ds, int(round(1.0 / ds)))
        errors.append(np.max(np.abs(z.values - exact.values)))
    ratio = errors[0] / errors[1]
    assert 1.6 < ratio < 2.4


def test_imex_action_decrease(rng):
    spec = trig_spec()
    triple = standard_structures(1)
    z = project_flow_stable(random_band_limited(rng, 16, 4, 2, 0.1, "z"))
    errs = []
    for ds in (5e-3, 2.5e-3):
        stepped = imex_steps(spec, z, ds)
        a0, a1 = action(spec, z), action(spec, stepped)
        assert a1 < a0
        ref = rk4_reference(z, spec, triple, ds, 100)
        errs.append(abs(a1 - action(spec, ref)))
    assert 3.0 < errs[0] / errs[1] < 5.5  # action error of one step is O(ds^2)


# ---------------------------------------------------------------------------
# flow driver


def test_flow_exact_solution_returns_immediately():
    spec = trig_spec()
    z = constant_field(16, [np.pi, np.pi, 0.0, 0.0], "z")
    result = flow_to_solution(z, spec)
    assert result.converged and result.s_reached == 0.0 and result.n_steps == 0


def test_flow_reports_divergence_for_constant_momentum():
    spec = trig_spec(rho=4.0)
    z0 = constant_field(16, [0.0, 0.0, 0.5, 0.0], "z")
    result = flow_to_solution(z0, spec, s_max=100.0)
    assert result.diverged and not result.converged
    assert "escaped" in result.reason
    assert result.rows[-1][3] > 2.0 * spec.rho  # max |p|^2 column


def test_flow_converges_to_potential_critical_point():
    spec = trig_spec()
    z0 = constant_field(16, [2.5, 1.0, 0.0, 0.0], "z")
    result = flow_to_solution(z0, spec, tol=1e-8, s_max=400.0, ds=0.05)
    assert result.converged
    q = np.mod(np.mean(result.Z.values[:, :, :2], axis=(0, 1)), 2 * np.pi)
    dist = np.minimum(q, 2 * np.pi - q)
    assert np.max(dist) < 1e-6  # the ascent target is the origin cell


# ---------------------------------------------------------------------------
# exact constant-state path


def _full_grid_only(monkeypatch):
    monkeypatch.setattr(floer, "exact_constant", lambda values: False)


def _takes_constant_path(spec, z):
    return floer.constant_start(spec, z) is not None


# n = 2: four q and four p components, so |p|^2 sums four squares
TRIG_N2 = {"kind": "trig_potential", "epsilon": 0.5, "modes": [[1, 0, 0, 1], [0, 1, 1, 0], [1, -1, 0, 2]]}


@pytest.mark.parametrize(
    "n_grid, potential, rho, ds, p",
    [
        # a flagship lattice constant (6x6 lattice) at a larger epsilon
        (32, {"kind": "trig_potential", "epsilon": 2.5, "modes": [[1, 0], [0, 1]]}, 4.0, 0.02, [0.0, 0.0]),
        # non-axis modes: the nonlinearity goes through matmul kernels
        (32, {"kind": "trig_potential", "epsilon": 0.5, "modes": [[1, 2], [3, -1], [1, 1]]}, 4.0, 0.02, [0.0, 0.0]),
        # a step long enough to be halved
        (16, {"kind": "trig_potential", "epsilon": 30.0, "modes": [[1, 0], [0, 1]]}, np.inf, 0.09, [0.0, 0.0]),
        (16, TRIG_N2, 4.0, 0.02, [0.0] * 4),
        # h = 0: p grows by 1 / (1 - ds) a step, across the cut-off ramp to the escape
        (16, {"kind": "zero", "n_pairs": 2}, 4.0, 0.02, [0.3, -0.2, 0.1, 0.4]),
    ],
    ids=["32-potential0-4.0-0.02", "32-potential1-4.0-0.02", "16-potential2-inf-0.09", "trig_n2", "zero_n2"],
)
@pytest.mark.parametrize("seed", ["lattice", "random"])
def test_constant_path_flow_is_bit_identical(monkeypatch, rng, n_grid, potential, rho, ds, p, seed):
    spec = hamiltonian_from_config(potential, rho=rho)
    n = spec.n_pairs
    q = [np.pi / 3, 0.0] * n if seed == "lattice" else list(rng.uniform(0, 2 * np.pi, size=2 * n))
    z0 = constant_field(n_grid, [*q, *p], "z")
    assert _takes_constant_path(spec, z0)
    fast = flow_to_solution(z0, spec, ds=ds, s_max=40.0)
    _full_grid_only(monkeypatch)
    full = flow_to_solution(z0, spec, ds=ds, s_max=40.0)
    assert fast.n_steps > 0
    assert flow_bytes(fast) == flow_bytes(full)
    if ds == 0.09:
        assert fast.ds_final < ds


@pytest.mark.parametrize(
    "point",
    # h(0, -pi) = 0.1 (cos 0 + cos -pi) = 0: with p = 0 the action is the pairing's signed zero
    [[0.0, -np.pi, -0.0, 0.0], [-np.pi, -0.0, 0.0, -0.0], [-0.0, -0.0, -0.0, -0.0], [np.pi, 0.0, -0.0, -0.0]],
)
def test_constant_path_keeps_the_full_grid_signed_zeros(monkeypatch, point):
    """A -0.0 component steps to the full grid's +0.0, and an action of H = 0 takes the full grid's sign."""
    z0 = constant_field(16, point, "z")
    assert _takes_constant_path(trig_spec(), z0)

    def run():
        grid = _FlowGrid(trig_spec(), None, z0)
        vals, zhat = grid.start
        terms = grid.evaluate(vals)
        out = [grid.action(zhat, terms, 1.0).tobytes()]
        for weight in (0.0, 1.0, 0.5):
            vals, zhat = grid.step(zhat, terms, np.full(1, 0.01), weight)
            terms = grid.evaluate(vals)
            out += [grid.field(vals).values.tobytes(), grid.action(zhat, terms, weight).tobytes()]
        return out

    fast = run()
    _full_grid_only(monkeypatch)
    assert fast == run()


def _trajectory_bytes(traj):
    arrays = (traj.s, traj.action, traj.h_int, traj.max_p_sq, traj.vsq)
    return [a.tobytes() for a in arrays], traj.end_residuals, [(s, z.values.tobytes()) for s, z in traj.snapshots]


@pytest.mark.parametrize(
    "potential, rho, p, r, snapshot_every",
    [
        (TRIG, 4.0, [0.0, 0.0], 0.5, 50),
        # |p|^2 = 1.93 starts past rho - 1: the samples of one block lie on and beyond the cut-off ramp,
        # and the trajectory ends at the escape, sample 48
        (TRIG, 2.5, [1.2, -0.7], 0.5, 10),
        # |p|^2 crosses rho - 1 and rho within the first block and escapes at sample 71
        (TRIG, 4.0, [1.2, -0.7], 0.5, 10),
        # 3,101 samples: three full blocks and a part, with velocities across their boundaries
        (TRIG, 4.0, [0.0, 0.0], 9.0, 500),
        # n = 2: |p|^2 = 2.03 crosses the cut-off ramp and escapes
        (TRIG_N2, 4.0, [1.2, -0.7, 0.3, 0.1], 0.5, 10),
        (TRIG_N2, 4.0, [0.0] * 4, 0.5, 50),
        ({"kind": "zero", "n_pairs": 2}, 4.0, [0.3, -0.2, 0.1, 0.4], 0.5, 10),
    ],
    ids=["4.0-p0-0.5-50", "2.5-p1-0.5-10", "4.0-p2-0.5-10", "4.0-p3-9.0-500", "trig_n2_ramp", "trig_n2", "zero_n2"],
)
def test_constant_path_homotopy_is_bit_identical(monkeypatch, rng, potential, rho, p, r, snapshot_every):
    spec = hamiltonian_from_config(potential, rho=rho)
    q = rng.uniform(0, 2 * np.pi, size=2 * spec.n_pairs)
    z0 = constant_field(16, [*q, *p], "z")
    assert _takes_constant_path(spec, z0)

    def run():
        traj = run_homotopy(z0, spec, r=r, ds=0.01, snapshot_every=snapshot_every)
        return traj, _trajectory_bytes(traj)

    traj, fast = run()
    _full_grid_only(monkeypatch)
    assert len(traj.snapshots) > 1
    assert fast == run()[1]
    if r > 1.0:
        assert len(traj.s) > 3 * floer.HOMOTOPY_BLOCK and len(traj.s) % floer.HOMOTOPY_BLOCK != 0
    if p[0] != 0.0:  # |p|^2 leaves the cut-off ramp [rho - 1, rho] upwards, and escapes at the last sample
        assert traj.max_p_sq[0] < rho < np.max(traj.max_p_sq)
        assert np.flatnonzero(traj.max_p_sq > spec.escape_p_sq).tolist() == [len(traj.s) - 1]


@pytest.mark.parametrize(
    "rho, point, r, ds, snapshot_every",
    [
        # p != 0 without a cut-off: |p| grows by 1/(1 - ds) a step through both pads
        (np.inf, [1.0, 2.0, 0.3, -0.2], 1.0, 0.01, 50),
        # -0.0 components: the first pad's states hold +0.0, as the full grid's do
        (4.0, [-0.0, 2.0, -0.0, -0.0], 0.5, 0.01, 25),
        # 1,085 samples: the last pad, from sample 1,000 on, crosses the block boundary at 1,024
        (np.inf, [1.0, 2.0, 1e-4, -2e-4], 3.0, 0.012, 100),
        # an escape inside the first pad, at sample 45
        (2.0, [1.0, 0.5, 0.9, 0.9], 3.0, 0.01, 10),
        # an escape inside the weighted stretch, at sample 151
        (4.0, [1.0, 2.0, 0.45, -0.43], 1.0, 0.01, 10),
    ],
    ids=["pads_with_p", "signed_zero_pad", "pad_across_blocks", "escape_in_pad", "escape_weighted"],
)
def test_constant_homotopy_pads_are_bit_identical(monkeypatch, rho, point, r, ds, snapshot_every):
    """A stretch of zero profile weight advances in one running product: the full grid's bits, sample by sample."""
    spec = trig_spec(rho)
    z0 = constant_field(16, point, "z")
    assert _takes_constant_path(spec, z0)
    traj = run_homotopy(z0, spec, r=r, ds=ds, snapshot_every=snapshot_every)
    _full_grid_only(monkeypatch)
    full = run_homotopy(z0, spec, r=r, ds=ds, snapshot_every=snapshot_every)
    assert _trajectory_bytes(traj) == _trajectory_bytes(full)
    weights = traj.profile.value(traj.s)
    escaped = np.flatnonzero(traj.max_p_sq > spec.escape_p_sq).tolist()
    if np.signbit(point[0]):  # the start keeps its -0.0, every later state of the pad holds +0.0
        first, second = (np.signbit(z.values[0, 0]).tolist() for _, z in traj.snapshots[:2])
        assert weights[25] == 0.0 and first == [True, False, True, True] and second == [False] * 4
    elif r == 3.0 and not escaped:
        assert len(traj.s) == 1085 and not weights[1000 : floer.HOMOTOPY_BLOCK + 60].any()
    elif escaped:
        assert escaped == [len(traj.s) - 1] and (weights[-1] == 0.0) == (len(traj.s) == 46)
    else:
        assert not escaped and traj.max_p_sq[-1] > traj.max_p_sq[0] > 0.0


def _homotopy_sample_by_sample(z0, spec, r, ds):
    """run_homotopy's action, h_int, max|p|^2 and |d_s Z|^2, a sample at a time, each from its own state."""
    profile, n_steps = floer.switching_window(spec.n_pairs, r, ds)
    weights = profile.value(profile.s_on - floer.HOMOTOPY_PAD + np.arange(n_steps + 1) * ds)
    grid = _FlowGrid(spec, None, z0)
    vals, zhat = grid.start
    columns = [[], [], [], []]
    for i in range(n_steps + 1):
        terms = grid.evaluate(vals)
        columns[0].append(grid.action(zhat, terms, weights[i : i + 1, None]))
        columns[1].append(grid.mean(terms.h))
        columns[2].append(grid.max_p_sq(terms))
        if i < n_steps:
            new_vals, zhat = grid.step(zhat, terms, np.full(1, ds), weights[i])
            columns[3].append(grid.mean_sq(new_vals - vals) / ds**2)
            vals = new_vals
    return [np.concatenate(column) for column in columns]


@pytest.mark.parametrize("n_grid", [16, 12])
def test_full_grid_homotopy_is_its_sample_by_sample_flow(rng, n_grid):
    """A non-constant start, whose action pairs nonzero modes: each sample's diagnostics read its own state."""
    spec = trig_spec()
    start = constant_field(n_grid, [1.0, 2.0, 0.1, 0.0], "z").values
    z0 = TorusField(start + random_band_limited(rng, n_grid, 4, 2, 0.05, "z").values, "z")
    assert not _takes_constant_path(spec, z0)
    traj = run_homotopy(z0, spec, r=0.2, ds=0.01)
    columns = _homotopy_sample_by_sample(z0, spec, r=0.2, ds=0.01)
    n = len(traj.s)  # its growing modes escape at sample 46 or 48
    assert np.flatnonzero(columns[2] > spec.escape_p_sq)[0] == n - 1 and 40 < n < len(columns[0])
    arrays = (traj.action, traj.h_int, traj.max_p_sq, traj.vsq)
    assert [a.tobytes() for a in arrays] == [c[: len(a)].tobytes() for c, a in zip(columns, arrays)]


def test_homotopy_never_evaluates_a_custom_h_on_a_non_finite_state():
    """The unbounded custom h still raises at s = 2.300, and sees finite states alone on the way."""
    spec = _unbounded_spec()
    h, grad_h = spec.potential.h, spec.potential.grad_h

    def finite_only(f):
        def checked(t1, t2, z):
            assert np.isfinite(z).all()
            return f(t1, t2, z)

        return checked

    spec = HamiltonianSpec(CustomPotential(1, finite_only(h), finite_only(grad_h)))
    z0 = constant_field(16, [1.0, 0.5, 0.0, 0.0], "z")
    assert _takes_constant_path(spec, z0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FlowError, match=r"^homotopy flow lost finiteness at s=2\.300$"):
            run_homotopy(z0, spec, r=1.0, ds=0.01)


@pytest.mark.parametrize("n_grid", [16, 24])
def test_constant_homotopy_takes_diagnostics_in_blocks(monkeypatch, n_grid):
    """A constant start evaluates the action once a block; a full grid (N = 24), once a sample."""
    calls = []
    action_of = _FlowGrid.action
    monkeypatch.setattr(_FlowGrid, "action", lambda grid, *args: calls.append(1) or action_of(grid, *args))
    z0 = constant_field(n_grid, [1.0, 2.0, 0.0, 0.0], "z")
    traj = run_homotopy(z0, trig_spec(), r=9.0 if n_grid == 16 else 0.5, ds=0.01)
    samples = len(traj.s)
    if _takes_constant_path(trig_spec(), z0):
        assert samples > floer.HOMOTOPY_BLOCK
        assert len(calls) <= -(-samples // floer.HOMOTOPY_BLOCK)
    else:
        assert len(calls) == samples


@pytest.mark.parametrize("n_grid", [16, 24])
def test_constant_homotopy_steps_on_the_gradient_alone(monkeypatch, n_grid):
    """A constant start takes the cosine of h once a block and for the two end residuals; N = 24, once a sample."""
    spec = trig_spec()
    z0 = constant_field(n_grid, [1.0, 2.0, 0.0, 0.0], "z")
    constant = _takes_constant_path(spec, z0)
    calls = []
    cos = np.cos
    monkeypatch.setattr(np, "cos", lambda *args, **kwargs: calls.append(1) or cos(*args, **kwargs))
    samples = len(run_homotopy(z0, spec, r=9.0 if constant else 0.5, ds=0.01).s)
    if constant:
        assert samples > floer.HOMOTOPY_BLOCK
        assert len(calls) <= -(-samples // floer.HOMOTOPY_BLOCK) + 2
    else:
        assert len(calls) >= samples


@pytest.mark.parametrize("r", [1.0, 9.0])
def test_constant_homotopy_calls_the_kernel_once_a_weighted_step(monkeypatch, r):
    """The potential's formulas run once a weighted step, without h, and with h once a block and once for each of
    the two end residuals; a stretch of zero weight runs none."""
    spec = trig_spec()
    calls = Counter()
    kernel = TrigPotential._kernel

    def counted(pot, t1, t2, q, with_grad, with_h):
        calls[with_grad, with_h] += 1
        return kernel(pot, t1, t2, q, with_grad, with_h)

    monkeypatch.setattr(TrigPotential, "_kernel", counted)
    z0 = constant_field(32, [1.0, 2.0, 0.0, 0.0], "z")
    assert _takes_constant_path(spec, z0)
    traj = run_homotopy(z0, spec, r=r, ds=5e-3)
    weighted = np.count_nonzero(traj.profile.value(traj.s[:-1]))
    blocks = -(-len(traj.s) // floer.HOMOTOPY_BLOCK)
    assert (len(traj.s), weighted, blocks) == ((1401, 999, 2) if r == 1.0 else (6201, 5799, 7))
    assert calls == {(True, False): weighted, (True, True): blocks + 2}


@pytest.mark.parametrize("n_grid", [32, 24])
def test_constant_homotopy_steps_without_a_propagator_product(monkeypatch, n_grid):
    """A constant start's step scales its value row: no propagator product, where a full grid (N = 24) applies
    its propagator once a step (`floer._apply_propagator`)."""
    calls = []
    apply = floer._apply_propagator
    monkeypatch.setattr(floer, "_apply_propagator", lambda *args, **kwargs: calls.append(1) or apply(*args, **kwargs))
    z0 = constant_field(n_grid, [1.0, 2.0, 0.0, 0.0], "z")
    steps = len(run_homotopy(z0, trig_spec(), r=1.0 if n_grid == 32 else 0.2, ds=5e-3 if n_grid == 32 else 0.01).vsq)
    if _takes_constant_path(trig_spec(), z0):
        assert steps == 1400 and calls == []
    else:
        assert len(calls) == steps


def _propagator_inputs(n_pairs, n_grid, triple):
    """The half-spectrum propagator of a step of 0.5 / mu_max(N), and right-hand-side planes holding an exact-zero
    mode, a -0.0 mode, mixed signed zeros, inf and NaN among random modes."""
    prop = floer._half_spectrum_propagator(n_grid, 0.5 / mu_max(n_grid), triple)
    rng = np.random.default_rng(100 * n_pairs + n_grid)
    shape = (4 * n_pairs, n_grid, n_grid // 2 + 1)
    rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rhs[:, 0, 0] = 0.0
    rhs[:, 1, 1] = complex(-0.0, -0.0)
    rhs[0, 2, 1], rhs[-1, 2, 1] = complex(-0.0, 0.0), complex(0.0, -0.0)
    rhs[1, 3, 2], rhs[0, 4, 3] = complex(np.inf, 0.0), complex(-np.inf, 1.0)
    rhs[-1, 5, 1], rhs[1, 1, 4] = complex(np.nan, 0.0), complex(2.0, np.nan)
    return prop, rhs


@pytest.mark.parametrize("n_grid", [8, 12, 16, 24, 32, 64])
@pytest.mark.parametrize("n_pairs", [1, 2])
def test_apply_propagator_has_the_bits_of_einsum_for_standard_structures(n_pairs, n_grid):
    """Row by row, numpy's complex product and the ordered plane sum round as einsum does where every propagator
    entry is real or imaginary: the same bits, signed zeros, inf and NaN included, also into a buffer slot."""
    prop, rhs = _propagator_inputs(n_pairs, n_grid, standard_structures(n_pairs))
    with np.errstate(invalid="ignore"):  # inf times a zero part is NaN, in both
        ref = np.einsum("abxy,bxy->axy", prop, rhs)
        buf = np.full((2, *rhs.shape), complex(7.0, 7.0))
        got = floer._apply_propagator(prop, rhs, out=buf[1])
        fresh = floer._apply_propagator(prop, rhs)
    assert np.shares_memory(got, buf[1])
    assert buf[1].tobytes() == ref.tobytes() and fresh.tobytes() == ref.tobytes()
    assert np.all(buf[0] == complex(7.0, 7.0))
    assert np.isnan(ref).any() and np.isinf(ref).any() and np.signbit(ref.real).any()


@pytest.mark.parametrize("n_grid", [8, 12, 16, 24, 32, 64])
@pytest.mark.parametrize("n_pairs", [1, 2])
def test_apply_propagator_is_einsum_to_rounding_for_a_compatible_triple(n_pairs, n_grid):
    """For a general compatible triple both cross terms of each product are nonzero: the result is einsum's to
    within 4e-16 of its largest entry."""
    triple = compatible_triple(*random_regularized_pair(np.random.default_rng(n_pairs), n_pairs))
    prop, rhs = _propagator_inputs(n_pairs, n_grid, triple)
    rhs = np.where(np.isfinite(rhs), rhs, 1.0)
    ref = np.einsum("abxy,bxy->axy", prop, rhs)
    got = floer._apply_propagator(prop, rhs)
    assert np.max(np.abs(got - ref)) <= 4e-16 * np.max(np.abs(ref))


def test_constant_grid_action_after_a_step_is_a_fresh_grids():
    """A step leaves nothing behind: the actions of the state before it and after it are a fresh grid's."""
    spec = trig_spec()
    z = np.array([[1.0, 2.0, 0.3, -0.2], [0.5, -1.0, 1.2, 0.7]])  # |p|^2 inside and on the cut-off ramp
    grid = _FlowGrid.constants(spec, 16, z)
    vals, zhat = grid.start
    new_vals, new_hat = grid.step(zhat, grid.evaluate(vals, with_h=False), np.full(2, 0.01), 0.7)
    for state, (v, zh) in ((z, (vals, zhat)), (new_vals[:, 0], (new_vals, new_hat))):
        fresh = _FlowGrid.constants(spec, 16, state)
        terms, fresh_terms = grid.evaluate(v), fresh.evaluate(fresh.start[0])
        assert grid.action(zh, terms, 0.7).tobytes() == fresh.action(fresh.start[1], fresh_terms, 0.7).tobytes()
        assert grid.mean(terms.h).tobytes() == fresh.mean(fresh_terms.h).tobytes()


def _unbounded_spec():
    """h = 500 q1^2, a custom h that outgrows every float along the flow; no cut-off, so escape at max|p|^2 1e6."""

    def h(t1, t2, z):
        return 500.0 * z[..., 0] ** 2

    def grad_h(t1, t2, z):
        grad = np.zeros_like(np.asarray(z, dtype=float))
        grad[..., 0] = 1000.0 * z[..., 0]
        return grad

    return HamiltonianSpec(CustomPotential(1, h, grad_h))


def test_homotopy_overflow_of_unbounded_h(monkeypatch):
    """h = 500 q1^2 outgrows every float: the flow raises where a state stops being finite.

    The full grid's rfft2 of the huge gradient overflows two steps before
    the constant path's (0, 0) value does, so in this regime alone (an
    unbounded custom h) the full grid stops earlier.
    """
    spec = _unbounded_spec()
    z0 = constant_field(16, [1.0, 0.5, 0.0, 0.0], "z")
    assert _takes_constant_path(spec, z0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FlowError, match=r"^homotopy flow lost finiteness at s=2\.300$"):
            run_homotopy(z0, spec, r=1.0, ds=0.01)
        _full_grid_only(monkeypatch)
        with pytest.raises(FlowError, match=r"^homotopy flow lost finiteness at s=2\.280$"):
            run_homotopy(z0, spec, r=1.0, ds=0.01)


def test_homotopy_ends_at_an_escape_before_a_later_overflow(monkeypatch):
    """p = 20 grows past |p|^2 = 1e6 at sample 390, before q overflows at s = 2.3 (sample 430).

    The constant path steps the whole block and loses finiteness in it: it
    ends at the escaped sample instead of raising, as the full grid does,
    which checks every sample.
    """
    spec = _unbounded_spec()
    z0 = constant_field(16, [1.0, 0.5, 20.0, 0.0], "z")
    assert _takes_constant_path(spec, z0)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = run_homotopy(z0, spec, r=1.0, ds=0.01, snapshot_every=100)
        _full_grid_only(monkeypatch)
        full = run_homotopy(z0, spec, r=1.0, ds=0.01, snapshot_every=100)
    assert len(traj.s) == 391 and len(traj.vsq) == 390 and traj.s[-1] == pytest.approx(1.9)
    assert np.flatnonzero(traj.max_p_sq > spec.escape_p_sq).tolist() == [390]
    assert [s for s, _ in traj.snapshots] == traj.s[::100].tolist()
    assert _trajectory_bytes(traj) == _trajectory_bytes(full)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_homotopy_of_a_time_dependent_h_ends_at_its_escape():
    """This time_trig potential drives a constant start past max|p|^2 = 2 rho: the trajectory ends there, finite."""
    spec = hamiltonian_from_config({"kind": "time_trig", "epsilon": 0.2, "t_mode": [1, 2], "q_mode": [1, -1]}, rho=4.0)
    traj = run_homotopy(constant_field(16, [1.0, 2.0, 0.0, 0.0], "z"), spec, r=12.0, ds=0.01)
    n = len(traj.s)
    assert n < 4001 // 4  # the window has 4,001 samples
    assert np.flatnonzero(traj.max_p_sq > spec.escape_p_sq).tolist() == [n - 1]
    assert len(traj.action) == len(traj.h_int) == n and len(traj.vsq) == n - 1
    assert all(np.isfinite(x).all() for x in (traj.action, traj.h_int, traj.vsq, traj.end_residuals))


def _constant_batch_fields(rng):
    """Lattice and random constants: two start on critical points, one escapes at once."""
    qs = [[0.0, 0.0], [np.pi, np.pi], [np.pi / 2, 0.0], [np.pi / 3, 0.0]]
    qs += [list(rng.uniform(0, 2 * np.pi, size=2)) for _ in range(4)]
    ps = [[0.0, 0.0]] * 7 + [[2.5, 2.0]]
    return [constant_field(16, [*q, *p], "z") for q, p in zip(qs, ps)]


# non-axis modes, finite rho and a step that is halved four times
BATCH_SPEC = {"kind": "trig_potential", "epsilon": 30.0, "modes": [[1, 2], [3, -1], [1, 1]]}


def test_constant_batch_is_bit_identical_to_flows_alone(monkeypatch, rng):
    spec = hamiltonian_from_config(BATCH_SPEC, rho=4.0)
    fields = _constant_batch_fields(rng)
    starts = [floer.constant_start(spec, z) for z in fields]
    batch = floer.flow_constants(starts, spec, ds=0.09, s_max=0.7)
    alone = [flow_to_solution(z, spec, ds=0.09, s_max=0.7) for z in fields]
    _full_grid_only(monkeypatch)
    full = [flow_to_solution(z, spec, ds=0.09, s_max=0.7) for z in fields]

    reasons = [r.reason.split()[0] for r in batch]
    assert reasons.count("initial") == 2 and reasons.count("s_max") >= 1
    assert reasons.count("residual") >= 1 and reasons.count("max|p|^2") == 1
    assert any(r.n_halvings > 0 and r.ds_final < 0.09 for r in batch)
    for b, a, f in zip(batch, alone, full):
        assert flow_bytes(b) == flow_bytes(f)
        assert b.n_halvings == f.n_halvings
        # every field is stored in C order, batched or not
        assert b.Z.values.strides == a.Z.values.strides
        assert flow_bytes(b) == flow_bytes(a)


def test_constant_batch_stops_between_steps(rng):
    spec = hamiltonian_from_config(BATCH_SPEC, rho=4.0)
    fields = _constant_batch_fields(rng)
    calls = []
    batch = floer.flow_constants(
        [floer.constant_start(spec, z) for z in fields],
        spec,
        ds=0.09,
        s_max=0.7,
        stop=lambda: calls.append(1) or len(calls) > 5,
    )
    alone = [flow_to_solution(z, spec, ds=0.09, s_max=0.7) for z in fields]
    finished = [b is not None for b in batch]
    assert finished == [a.n_steps == 0 or a.reason.startswith("max") for a in alone]
    for b, a in zip(batch, alone):
        if b is not None:
            assert flow_bytes(b) == flow_bytes(a)


def test_newton_polish_takes_the_jacobian_from_a_custom_gradient():
    """h couples p to q, so every block of the 4 x 4 Jacobian is exercised."""

    def h(t1, t2, z):
        return 0.2 * np.cos(z[..., 0]) * np.cos(z[..., 1]) + 0.1 * z[..., 2] * np.sin(z[..., 0])

    def grad_h(t1, t2, z):
        q1, q2, p1 = z[..., 0], z[..., 1], z[..., 2]
        return np.stack(
            [
                -0.2 * np.sin(q1) * np.cos(q2) + 0.1 * p1 * np.cos(q1),
                -0.2 * np.cos(q1) * np.sin(q2),
                0.1 * np.sin(q1),
                np.zeros_like(q1),
            ],
            axis=-1,
        )

    spec = HamiltonianSpec(CustomPotential(n_pairs=1, h=h, grad_h=grad_h), rho=4.0)
    roots = [[np.pi, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]  # grad H = 0
    starts = [[np.pi + 0.02, -0.01, 0.005, -0.003], [0.01, 0.02, -0.004, 0.002]]
    handed = [
        floer.FlowResult(constant_field(16, z, "z"), 1.5, 1e-3, True, False, "residual below tol", 75, 0.02, [], 0)
        for z in starts
    ]
    polished = floer.polish_constants(handed, spec, 1e-8)
    for result, root in zip(polished, roots):
        assert result.reason.startswith("residual below tol after")
        assert (result.s_reached, result.n_steps) == (1.5, 75)
        assert result.residual_norm < 1e-12
        assert l2_norm(hamiltonian_residual(spec, result.Z, standard_structures(1))) < 1e-12
        assert np.max(np.abs(result.Z.values - root)) < 1e-12


@pytest.mark.parametrize("modes", [[[1, 0], [0, 1]], [[1, 0]]], ids=["polished", "singular_jacobian"])
def test_polish_batch_is_bit_identical_to_seeds_polished_alone(rng, modes):
    """A seed's polish does not depend on the other seeds of its batch, failures included.

    V = cos(q1) leaves the Jacobian's q2 column exactly zero, so there every seed fails.
    """
    spec = hamiltonian_from_config({"kind": "trig_potential", "epsilon": 1.0, "modes": modes}, rho=4.0)
    fields = [constant_field(16, [*rng.uniform(0, 2 * np.pi, size=2), 0.0, 0.0], "z") for _ in range(6)]
    flowed = floer.flow_constants(
        [floer.constant_start(spec, z) for z in fields], spec, tol=floer.polish_level(spec), ds=0.02, s_max=100.0
    )
    handed = [r for r in flowed if r.converged and not r.residual_norm < 1e-8]
    assert len(handed) >= 4
    batch = floer.polish_constants(handed, spec, 1e-8)
    assert [b is None for b in batch] == [len(modes) == 1] * len(handed)
    for b, r in zip(batch, handed):
        (alone,) = floer.polish_constants([r], spec, 1e-8)
        if b is None:
            assert alone is None
        else:
            assert flow_bytes(b) == flow_bytes(alone)
            assert b.Z.values.strides == alone.Z.values.strides


def test_constant_start_takes_equal_bytes_only():
    spec = trig_spec()
    z = constant_field(32, [1.0, 2.0, 0.0, 0.0], "z")
    row, (vals, coef) = floer.constant_start(spec, z), _FlowGrid(spec, None, z).start
    assert row.shape == (1, 32, 4) and coef is vals and vals.shape == (1, floer.CONSTANT_ROW, 4)  # values are modes
    values = z.values.copy()
    values[5, 7, 2] = -0.0  # equal to 0.0, but not the same bytes
    assert floer.constant_start(spec, TorusField(values, "z")) is None
    assert floer.constant_start(spec, constant_field(24, [1.0, 2.0, 0.0, 0.0], "z")) is None


def _constant_rule_fields():
    z = constant_field(32, [1.0, 2.0, 0.0, 0.0], "z")
    values = z.values.copy()
    values[5, 7, 2] = -0.0
    time_trig = hamiltonian_from_config({"kind": "time_trig", "epsilon": 0.5, "t_mode": [1, 0], "q_mode": [1, 0]})
    return [
        (trig_spec(), z),
        (trig_spec(), TorusField(values, "z")),
        (trig_spec(), constant_field(24, [1.0, 2.0, 0.0, 0.0], "z")),
        (time_trig, z),
    ]


@pytest.mark.parametrize("case", range(4))
def test_flow_grid_takes_the_constant_path_by_the_batch_rule(case):
    """A single flow and the constant batch agree on which states are constant."""
    spec, z = _constant_rule_fields()[case]
    assert _FlowGrid(spec, None, z).constant == (floer.constant_start(spec, z) is not None)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_flow_ends_at_once_on_a_start_residual_that_is_not_finite():
    """At q = (pi, 0) the residual eps sin(pi) of eps = 1e200 overflows to inf: no scale for a blow-up."""
    spec = HamiltonianSpec(nonlinearity_from_config({**TRIG, "epsilon": 1e200}))  # past a run's C3 cap
    result = flow_to_solution(constant_field(16, [np.pi, 0.0, 0.0, 0.0], "z"), spec, s_max=0.05)
    assert result.diverged and not result.converged
    assert (result.reason, result.n_steps, result.residual_norm) == ("residual blow-up", 0, np.inf)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_residual_that_overflows_at_s_max_is_a_blow_up():
    """No check falls inside the run, so the residual is first taken again at s_max, where it overflows."""
    spec = HamiltonianSpec(nonlinearity_from_config({**TRIG, "epsilon": 1e200}))  # past a run's C3 cap
    z0 = constant_field(16, [1e-190, 0.0, 0.0, 0.0], "z")
    result = flow_to_solution(z0, spec, s_max=1e-4)
    assert result.n_steps > 0 and result.diverged and not result.converged
    assert (result.reason, result.residual_norm) == ("residual blow-up", np.inf)


@pytest.mark.parametrize(
    "n_grid, potential",
    [
        (32, {"kind": "time_trig", "epsilon": 0.5, "t_mode": [1, 0], "q_mode": [1, 0]}),
        # the (0, 0) coefficient of a constant is rounded off power-of-two grids
        (24, {"kind": "trig_potential", "epsilon": 0.5, "modes": [[1, 0], [0, 1]]}),
    ],
)
def test_constant_path_needs_autonomous_h_on_power_of_two_grid(n_grid, potential):
    spec = hamiltonian_from_config(potential)
    z0 = constant_field(n_grid, [1.0, 2.0, 0.0, 0.0], "z")
    assert not _takes_constant_path(spec, z0)
    if spec.potential.time_dependent:
        # the full-grid flow leaves the constants at once
        result = flow_to_solution(z0, spec, s_max=0.1)
        assert sobolev_seminorm(result.Z, 1) > 1e-6


# ---------------------------------------------------------------------------
# energy bookkeeping


def test_energy_stationary_trajectory():
    spec = trig_spec()
    z = constant_field(16, [np.pi, np.pi, 0.0, 0.0], "z")
    traj = run_homotopy(z, spec, r=1.0, ds=0.01)
    assert energy(traj) < 1e-28
    assert energy_identity_check(traj).defect < 1e-14


def test_energy_identity_autonomous(rng):
    # profile flat at 1 well inside the window: beta' = 0 there, so the
    # energy equals the action drop over that stretch
    spec = trig_spec()
    z0 = constant_field(32, [1.2, 2.1, 0.0, 0.0], "z")
    traj = run_homotopy(z0, spec, r=3.0, ds=1e-3)
    i0 = int(np.argmin(np.abs(traj.s - 0.0)))
    i1 = int(np.argmin(np.abs(traj.s - 9.0)))  # inside the plateau [0, 9]
    e = energy(traj, traj.s[i0], traj.s[i1])
    drop = traj.action[i0] - traj.action[i1]
    assert abs(e - drop) < 1e-4


def test_energy_identity_full_window(rng):
    spec = trig_spec()
    for _ in range(2):
        q = rng.uniform(0, 2 * np.pi, size=2)
        z0 = constant_field(32, [q[0], q[1], 0.0, 0.0], "z")
        traj = run_homotopy(z0, spec, r=1.0, ds=5e-3)
        rep = energy_identity_check(traj)
        assert rep.defect < 1e-3
        assert all(traj.ends_converged)


def test_energy_bound_by_oscillation(rng):
    spec = trig_spec()
    bound = 2.0 * hofer_norm(spec).value
    q = rng.uniform(0, 2 * np.pi, size=2)
    traj = run_homotopy(constant_field(32, [q[0], q[1], 0, 0], "z"), spec, r=1.0, ds=5e-3)
    assert energy(traj) <= bound + 1e-2


def test_energy_window_needs_samples():
    spec = trig_spec()
    traj = run_homotopy(constant_field(16, [1, 1, 0, 0], "z"), spec, r=0.5, ds=0.01)
    with pytest.raises(FlowError):
        energy(traj, traj.s[3], traj.s[3])


def test_max_principle_on_homotopy():
    spec = trig_spec(rho=4.0)
    traj = run_homotopy(constant_field(16, [2.0, 0.5, 0, 0], "z"), spec, r=1.0, ds=0.01)
    rep = max_principle_check(traj, spec.rho)
    assert rep.passed and rep.max_p_sq <= spec.rho + 1e-8



# ---------------------------------------------------------------------------
# evaluations of the nonlinearity


def _count_evaluations(monkeypatch):
    calls = []
    evaluate = floer.cutoff_terms
    monkeypatch.setattr(floer, "cutoff_terms", lambda *args, **kwargs: calls.append(1) or evaluate(*args, **kwargs))
    return calls


def test_each_run_evaluates_the_nonlinearity_once_a_state(monkeypatch):
    """A flow evaluates its start and each accepted state once; a switching run, as its docstring says."""
    calls = _count_evaluations(monkeypatch)
    spec = trig_spec()
    z = random_band_limited(np.random.default_rng(1), 32, 4, 2, 0.01, "z")
    result = flow_to_solution(TorusField(z.values + np.array([1.0, 2.0, 0.0, 0.0]), "z"), spec, ds=0.01)
    assert result.diverged and result.n_steps == 104
    assert len(calls) == 1 + result.n_steps == 105
    lattice = 2.0 * np.pi * np.stack(np.meshgrid(np.arange(6), np.arange(6), indexing="ij"), axis=-1).reshape(-1, 2) / 6
    starts = [floer.constant_start(spec, constant_field(32, [*q, 0.0, 0.0], "z")) for q in lattice]
    calls.clear()
    results = floer.flow_constants(starts, spec, ds=0.02, tol=1e-8)
    assert len(calls) == 1 + max(r.n_steps for r in results) == 8851  # one batch evaluation an iteration
    for n_grid, samples in ((32, 999 + 2), (24, 1401)):
        calls.clear()
        traj = run_homotopy(constant_field(n_grid, [1.0, 2.0, 0.0, 0.0], "z"), spec, r=1.0, ds=5e-3)
        assert len(traj.s) == 1401
        # N = 32: the 999 steps of nonzero weight and 2 blocks; N = 24: every sample; then the two end residuals
        assert len(calls) == samples + 2


@pytest.mark.parametrize("constant", [True, False], ids=["constant", "full"])
def test_a_halved_step_reuses_the_evaluation_of_its_state(monkeypatch, constant):
    """Each attempt evaluates the state it stepped to; a halved step starts from the evaluation in hand."""
    spec = hamiltonian_from_config({"kind": "trig_potential", "epsilon": 30.0, "modes": [[1, 0], [0, 1]]}, rho=np.inf)
    z0 = constant_field(16, [np.pi / 3, 0.0, 0.0, 0.0], "z")
    if not constant:
        _full_grid_only(monkeypatch)
    calls = _count_evaluations(monkeypatch)
    result = flow_to_solution(z0, spec, ds=0.09, s_max=40.0)
    assert result.converged and result.n_halvings == 1
    assert len(calls) == 1 + result.n_steps + result.n_halvings == 22


@pytest.mark.parametrize("weight", [0.7, 0.0])
@pytest.mark.parametrize("constant", [False, True], ids=["full", "constant"])
def test_step_evaluates_nothing(monkeypatch, constant, weight):
    """The step reads the evaluation it is handed, and a second step from it gives the same bytes."""
    spec = trig_spec()
    if constant:
        grid = _FlowGrid.constants(spec, 16, np.array([[1.0, 2.0, 0.3, -0.2], [0.5, -1.0, 1.2, 0.7]]))
    else:
        grid = _FlowGrid(spec, None, random_band_limited(np.random.default_rng(3), 16, 4, 2, 0.1, "z"))
    assert grid.constant == constant
    vals, zhat = grid.start
    terms = grid.evaluate(vals)
    ds = np.full(grid.n_seeds, 0.01)

    def evaluate(*args, **kwargs):
        raise AssertionError("the step evaluated the nonlinearity")

    first = grid.step(zhat, terms, ds, weight)
    monkeypatch.setattr(floer, "cutoff_terms", evaluate)
    second = grid.step(zhat, terms, ds, weight)
    assert [x.tobytes() for x in first] == [x.tobytes() for x in second]


def _count_propagator_builds(monkeypatch):
    """The (N, ds) of each `_propagator` build, from an empty half-spectrum memo."""
    builds, build = [], floer._propagator

    def counted(n, ds, triple, modes):
        builds.append((n, ds))
        return build(n, ds, triple, modes)

    monkeypatch.setattr(floer, "_propagator", counted)
    monkeypatch.setattr(floer, "_half_spectrum", (None, None))
    return builds


def test_full_grid_flows_of_a_run_share_one_propagator(monkeypatch):
    """Every perturbed seed of a run flows with the one memoised, read-only half-spectrum propagator."""
    builds = _count_propagator_builds(monkeypatch)
    config = ExperimentConfig(grid_size=16, lattice_per_dim=1, random_starts=4, perturbation_amplitude=0.01, s_max=20.0)
    result = multistart_solve(config)
    assert len(result.records) + len(result.divergent) + len(result.unfinished) == 5
    assert builds == [(16, 0.02)]
    spec = trig_spec()
    grids = [_FlowGrid(spec, None, random_band_limited(np.random.default_rng(k), 16, 4, 2, 0.1, "z")) for k in range(2)]
    first, second = (grid._propagators(np.full(1, 0.02)) for grid in grids)
    assert first is second and not first.flags.writeable
    assert len(builds) == 1


def test_a_halved_step_builds_one_more_propagator(monkeypatch):
    builds = _count_propagator_builds(monkeypatch)
    spec = hamiltonian_from_config({"kind": "trig_potential", "epsilon": 30.0, "modes": [[1, 0], [0, 1]]}, rho=np.inf)
    _full_grid_only(monkeypatch)
    result = flow_to_solution(constant_field(16, [np.pi / 3, 0.0, 0.0, 0.0], "z"), spec, ds=0.09, s_max=40.0)
    assert result.n_halvings == 1
    assert builds == [(16, 0.09), (16, 0.045)]


# ---------------------------------------------------------------------------
# full-grid flow bytes


def _perturbed(seed, n_grid, base, amplitude=0.01):
    """A non-constant field: base plus a band-limited perturbation, which no constant grid takes."""
    z = random_band_limited(np.random.default_rng(seed), n_grid, len(base), 2, amplitude, "z")
    return TorusField(z.values + np.asarray(base, dtype=float), "z")


def _trig(epsilon, modes, rho=4.0):
    return hamiltonian_from_config({"kind": "trig_potential", "epsilon": epsilon, "modes": modes}, rho=rho)


# case -> (spec, start field, flow keywords); each flow runs on the full grid
FULL_GRID_FLOWS = {
    "halved_n16": (
        _trig(30.0, [[1, 0], [0, 1]], rho=np.inf), _perturbed(5, 16, [np.pi / 3, 0.0, 0.0, 0.0], 1e-3),
        {"ds": 0.09, "s_max": 40.0},
    ),
    "cutoff_ramp_n32": (_trig(0.1, [[1, 0], [0, 1]]), _perturbed(7, 32, [1.0, 2.0, 1.0, 0.5]), {"ds": 0.02}),
    "time_trig_n16": (
        hamiltonian_from_config({"kind": "time_trig", "epsilon": 0.3, "t_mode": [1, 0], "q_mode": [1, 1]}, rho=4.0),
        _perturbed(9, 16, [1.0, 2.0, 0.0, 0.0]), {"ds": 0.02},
    ),
    "n_pairs_2_n16": (
        _trig(0.2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]), _perturbed(11, 16, [1.0, 2.0, 0.5, 3.0, 0, 0, 0, 0]),
        {"ds": 0.02},
    ),
    # N = 12 is no power of two, so even a constant flows on the full grid
    "converges_n12": (_trig(2.5, [[1, 0], [0, 1]]), constant_field(12, [2.5, 1.0, 0.0, 0.0], "z"), {"ds": 0.02}),
}

# sha256 of each flow's `flow_bytes` and `n_halvings`: its rows, field, residual, reason and counters
FULL_GRID_FLOW_SHA256 = {
    "converges_n12": "b43bd24cf0fe7c6e582c725f8f7d6e5de96d1a795c7719a3bbb619970591fb1c",
    "cutoff_ramp_n32": "93ce89c8b48df4c9593b29cc9d86137075fb0849bc7818c15f35930afa869569",
    "halved_n16": "9f790e8e11795b3535392d768411d48bb264734c6571921492e3871a681cf48c",
    "n_pairs_2_n16": "fa3c4677b5a7e1b81854ae9343784f603db969827a7388a9a3204b3c798392a0",
    "time_trig_n16": "9976bf964bfb81952b995b12f7f042beb41a4aa05f114cdde3cccbe060058dba",
}


@pytest.mark.parametrize("case", sorted(FULL_GRID_FLOWS))
def test_full_grid_flows_keep_their_bytes(case):
    """Small full-grid flows keep their bytes: a halved step, the cut-off ramp, a time-dependent h, n = 2, a converged one."""
    spec, z0, kwargs = FULL_GRID_FLOWS[case]
    assert floer.constant_start(spec, z0) is None
    result = flow_to_solution(z0, spec, **kwargs)
    rows = np.array(result.rows)
    regime = {
        "halved_n16": result.n_halvings == 1 and result.diverged,
        "cutoff_ramp_n32": np.any((rows[:, 3] > spec.rho - 1.0) & (rows[:, 3] < spec.rho)) and result.diverged,
        "time_trig_n16": result.diverged,
        "n_pairs_2_n16": result.diverged,
        "converges_n12": result.converged and result.n_steps % floer.CHECK_EVERY == 0,
    }
    assert regime[case], (result.reason, result.n_steps, result.n_halvings)
    digest = hashlib.sha256()
    for part in flow_bytes(result) + (result.n_halvings,):
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    assert digest.hexdigest() == FULL_GRID_FLOW_SHA256[case]


def _count_transforms(monkeypatch):
    """Calls of numpy's FFT functions by name, as floer makes them."""
    counts = Counter()
    names = ("rfft", "irfft", "fft", "ifft", "rfft2", "irfft2", "rfftn", "irfftn", "fft2", "ifft2", "fftn", "ifftn")
    for name in names:

        def counted(*args, _f=getattr(np.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


@pytest.mark.parametrize(
    "case, attempts, checks",
    # 136 steps and one halving, residuals at the start, every CHECK_EVERY steps and at the escape;
    # 32 steps, in the q-plane path and then on the cut-off ramp, which transforms every plane
    [("halved_n16", 137, 15), ("cutoff_ramp_n32", 32, 5)],
)
def test_a_full_grid_step_transforms_once_each_way(monkeypatch, case, attempts, checks):
    """A step attempt transforms the gradient forward once and the new state back once; a residual check
    transforms back once more.  Each transform is two 1-D numpy calls, and setting up the grid transforms
    the start field and a zero plane forward."""
    spec, z0, kwargs = FULL_GRID_FLOWS[case]
    residuals, residual_map = [], _FlowGrid.residual_map
    monkeypatch.setattr(_FlowGrid, "residual_map", lambda *a, **k: residuals.append(1) or residual_map(*a, **k))
    counts = _count_transforms(monkeypatch)
    result = flow_to_solution(z0, spec, **kwargs)
    assert (result.n_steps + result.n_halvings, len(residuals)) == (attempts, checks)
    forward, inverse = 2 + attempts, attempts + checks
    assert counts == {"rfft": forward, "fft": forward, "ifft": inverse, "irfft": inverse}
