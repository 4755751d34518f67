import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torusfloer import hamiltonians
from torusfloer.floer import action
from torusfloer.hamiltonians import (
    CustomPotential,
    HamiltonianError,
    HamiltonianSpec,
    LagrangianSpec,
    LegendreError,
    TrigPotential,
    action_bound_constants,
    chi_cutoff,
    cutoff_terms,
    ddw_kernel_witness,
    ddw_residual,
    euler_lagrange_residual,
    grad_H,
    hamiltonian_from_config,
    hamiltonian_residual,
    hofer_norm,
    legendre_transform,
    nonlinearity_from_config,
    quadratic_lagrangian,
    smoothstep_prime,
)
from torusfloer.spectral import (
    TorusField,
    constant_field,
    derivative,
    grid_points,
    l2_inner,
    l2_norm,
    laplacian,
    random_band_limited,
)
from torusfloer.structures import standard_structures

TRIG = {"kind": "trig_potential", "epsilon": 0.1, "modes": [[1, 0], [0, 1]]}


def trig_spec(rho=np.inf):
    return hamiltonian_from_config(TRIG, rho=rho)


def free_spec(rho=np.inf):
    return hamiltonian_from_config({"kind": "zero", "n_pairs": 1}, rho=rho)


# ---------------------------------------------------------------------------
# cut-off profile


def test_chi_cutoff_support():
    x = np.linspace(0, 6, 601)
    chi = chi_cutoff(x, rho=4.0)
    assert np.all(chi[x <= 3.0] == 1.0)
    assert np.all(chi[x >= 4.0] == 0.0)
    assert np.all((chi >= 0.0) & (chi <= 1.0))
    # C^1: chi'(x) = -smoothstep'(x - (rho - 1)), as cutoff_terms takes it, vanishes at both knots
    assert smoothstep_prime(0.0) == 0.0
    assert smoothstep_prime(1.0) == 0.0
    assert smoothstep_prime(0.5) == pytest.approx(1.5)


def test_chi_cutoff_infinite_rho():
    x = np.linspace(0, 100, 11)
    assert np.all(chi_cutoff(x, np.inf) == 1.0)
    # chi' = 0: the gradient of an h that depends on p is h's own, to the bit
    pot = CustomPotential(
        1,
        lambda t1, t2, z: np.cos(z[..., 0]) + 0.5 * z[..., 2] ** 2,
        lambda t1, t2, z: np.stack([-np.sin(z[..., 0]), np.zeros(z.shape[:-1]), z[..., 2], np.zeros(z.shape[:-1])], -1),
    )
    z = np.random.default_rng(5).uniform(-3.0, 3.0, size=(50, 4))
    grad = cutoff_terms(HamiltonianSpec(pot, np.inf), 0.0, 0.0, z).grad
    assert grad.tobytes() == pot.grad_h(0.0, 0.0, z).tobytes()


# ---------------------------------------------------------------------------
# gradients


def test_grad_free_hamiltonian(rng):
    spec = free_spec()
    z = TorusField(rng.standard_normal((16, 16, 4)), "z")
    g = grad_H(spec, z)
    assert np.array_equal(g.values[:, :, :2], np.zeros((16, 16, 2)))
    assert np.array_equal(g.values[:, :, 2:], z.values[:, :, 2:])


def test_grad_trig_potential():
    spec = trig_spec()
    t1, t2 = grid_points(16)
    vals = np.zeros((16, 16, 4))
    vals[:, :, 0] = t1
    vals[:, :, 1] = t2
    vals[:, :, 2] = 0.3
    z = TorusField(vals, "z")
    g = grad_H(spec, z).values
    assert np.max(np.abs(g[:, :, 0] + 0.1 * np.sin(t1))) < 1e-12
    assert np.max(np.abs(g[:, :, 1] + 0.1 * np.sin(t2))) < 1e-12
    assert np.max(np.abs(g[:, :, 2] - 0.3)) < 1e-12
    assert np.max(np.abs(g[:, :, 3])) == 0.0


def test_grad_beyond_cutoff_is_free(rng):
    spec = trig_spec(rho=4.0)
    vals = rng.standard_normal((16, 16, 4))
    vals[:, :, 2] = 3.0  # |p|^2 >= 9 > rho everywhere
    z = TorusField(vals, "z")
    g = grad_H(spec, z).values
    assert np.array_equal(g[:, :, :2], np.zeros((16, 16, 2)))
    assert np.array_equal(g[:, :, 2:], z.values[:, :, 2:])


def test_gradient_validation_catches_mismatch():
    pot = TrigPotential(0.1, [[1, 0], [0, 1]])

    def broken_grad(t1, t2, z):
        return 2.0 * pot.evaluate(t1, t2, z, True, False)[1]

    with pytest.raises(HamiltonianError, match="finite differences"):
        CustomPotential(n_pairs=1, h=pot.value, grad_h=broken_grad)


@pytest.mark.parametrize(
    "cfg, name, bound",
    [
        ({"kind": "trig_potential", "epsilon": 0.1, "modes": [[1, 0], [0, "F"]]}, "trig modes", "a run's frequency bound in q"),
        ({"kind": "time_trig", "epsilon": 0.1, "t_mode": ["F", 1], "q_mode": [1, 0]}, "t_mode", r"N/2 of the largest grid \(1024\)"),
        ({"kind": "time_trig", "epsilon": 0.1, "t_mode": [1, 1], "q_mode": [0, "F"]}, "q_mode", "a run's frequency bound in q"),
    ],
)
def test_a_run_bounds_each_frequency_below_max_frequency(cfg, name, bound):
    """A run takes |frequency| < MAX_FREQUENCY = MAX_GRID // 2 = 512 and rejects 512 and -512, which the
    constructors take, like any finite integer.  In t that is N/2 of the largest grid; in q it is a run's bound."""

    def build(frequency):
        return nonlinearity_from_config(json.loads(json.dumps(cfg).replace('"F"', str(frequency))))

    hamiltonians.check_run_potential(build(511))
    hamiltonians.check_run_potential(build(-511))
    for frequency in (512, -512):
        with pytest.raises(HamiltonianError, match=f"^{name} must be below 512 in magnitude, {bound}, got {frequency}$"):
            hamiltonians.check_run_potential(build(frequency))
    hamiltonians.check_run_potential(nonlinearity_from_config({"kind": "zero", "n_pairs": 2}))


def test_only_a_built_in_potential_takes_the_fused_shortcut():
    pot = TrigPotential(0.1, [[1, 0], [0, 1]])
    z = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 4, 4))  # |p|^2 <= 2 < rho - 1
    fused = cutoff_terms(HamiltonianSpec(pot, rho=4.0), 0.0, 0.0, z)
    assert fused.p_grad_zero

    def grad(t1, t2, zz):
        return pot.evaluate(t1, t2, zz, True, False)[1]

    # the same formula as a custom potential takes the full evaluation, which rounds to the same bits here
    terms = cutoff_terms(HamiltonianSpec(CustomPotential(1, pot.value, grad), rho=4.0), 0.0, 0.0, z)
    assert not terms.p_grad_zero
    assert terms.h.tobytes() == fused.h.tobytes() and terms.grad.tobytes() == fused.grad.tobytes()


def test_per_spec_facts_are_decided_once_and_pickle():
    """has_cutoff is kept beside the frozen fields, and a pickled spec (--jobs N) keeps it and its potential."""
    spec = trig_spec(rho=4.0)
    assert spec.potential.built_in and spec.has_cutoff and not trig_spec().has_cutoff
    assert "has_cutoff" in vars(spec)
    copy = pickle.loads(pickle.dumps(spec))
    assert copy.has_cutoff and type(copy.potential) is TrigPotential
    assert copy.potential.modes.tobytes() == spec.potential.modes.tobytes()


def test_time_dependence_must_be_declared():
    def h(t1, t2, z):
        return 0.1 * np.cos(t1) * np.cos(z[..., 0])

    def grad_h(t1, t2, z):
        out = np.zeros(np.broadcast_shapes(np.shape(t1), np.shape(z)[:-1]) + (4,))
        out[..., 0] = -0.1 * np.cos(t1) * np.sin(z[..., 0])
        return out

    with pytest.raises(HamiltonianError, match="time_dependent"):
        CustomPotential(n_pairs=1, h=h, grad_h=grad_h)
    assert CustomPotential(n_pairs=1, h=h, grad_h=grad_h, time_dependent=True).time_dependent


def test_cutoff_consistency_inside_support(rng):
    # where |p|^2 <= rho - 1 the cut-off changes nothing, exactly
    spec_inf = trig_spec(np.inf)
    spec_rho = trig_spec(rho=4.0)
    vals = rng.standard_normal((16, 16, 4))
    vals[:, :, 2:] = rng.uniform(-0.8, 0.8, size=(16, 16, 2))  # |p|^2 <= 1.28 < 3
    z = TorusField(vals, "z")
    assert action(spec_inf, z) == action(spec_rho, z)
    ga = grad_H(spec_inf, z).values
    gb = grad_H(spec_rho, z).values
    assert np.array_equal(ga, gb)


# ---------------------------------------------------------------------------
# residual and action


def test_residual_zero_at_constant_critical_point():
    spec = trig_spec(rho=4.0)
    triple = standard_structures(1)
    for q in ([0.0, 0.0], [0.0, np.pi], [np.pi, 0.0], [np.pi, np.pi]):
        z = constant_field(16, [q[0], q[1], 0.0, 0.0], "z")
        assert l2_norm(hamiltonian_residual(spec, z, triple)) < 1e-15


def test_residual_q_slot_is_minus_laplacian(rng):
    # free Hamiltonian, p defined as the holomorphic velocity of q: the
    # q-slot of the residual reduces to -(Laplacian q), the p-slot vanishes
    spec = free_spec()
    triple = standard_structures(1)
    q = random_band_limited(rng, 32, 2, max_mode=4, layout="q")
    p = 2.0 * derivative(q, "dt").values
    z = TorusField(np.concatenate([q.values, p], axis=2), "z")
    res = hamiltonian_residual(spec, z, triple).values
    lap = laplacian(q).values
    assert np.max(np.abs(res[:, :, :2] + lap)) < 1e-10 * max(1.0, np.max(np.abs(lap)))
    assert np.max(np.abs(res[:, :, 2:])) < 1e-12


def test_action_constant_is_minus_potential():
    spec = trig_spec(rho=4.0)
    z = constant_field(16, [0.5, 1.5, 0.0, 0.0], "z")
    expected = -0.1 * (np.cos(0.5) + np.cos(1.5))
    assert action(spec, z) == pytest.approx(expected, abs=1e-14)


def test_action_free_single_mode_is_half_momentum_norm(rng):
    spec = free_spec()
    q = random_band_limited(rng, 32, 2, max_mode=1, layout="q")
    p = 2.0 * derivative(q, "dt").values
    z = TorusField(np.concatenate([q.values, p], axis=2), "z")
    pf = TorusField(p, "q")
    assert action(spec, z) == pytest.approx(0.5 * l2_inner(pf, pf) , rel=1e-12)


def test_action_gradient_identity(rng):
    spec = trig_spec(rho=4.0)
    triple = standard_structures(1)
    z = random_band_limited(rng, 32, 4, max_mode=3, amplitude=0.2, layout="z")
    res = hamiltonian_residual(spec, z, triple)
    eps = 1e-5
    for _ in range(5):
        y = random_band_limited(rng, 32, 4, max_mode=3, layout="z")
        plus = TorusField(z.values + eps * y.values, "z")
        minus = TorusField(z.values - eps * y.values, "z")
        fd = (action(spec, plus) - action(spec, minus)) / (2 * eps)
        pairing = l2_inner(res, y)
        assert fd == pytest.approx(pairing, rel=1e-6, abs=1e-10)


def test_action_bound_constants():
    spec = trig_spec(rho=4.0)
    c0, c1 = action_bound_constants(spec)
    assert c0 == 0.25
    assert c1 == pytest.approx(0.2)
    spec0 = free_spec()
    assert action_bound_constants(spec0) == (0.25, 0.0)


# ---------------------------------------------------------------------------
# oscillation norm


def test_hofer_zero():
    assert hofer_norm(free_spec()).value == 0.0


def test_hofer_single_cosine():
    spec = hamiltonian_from_config(
        {"kind": "trig_potential", "epsilon": 0.25, "modes": [[1, 0]]}, rho=9.0
    )
    est = hofer_norm(spec)
    assert est.value == pytest.approx(0.5, abs=1e-12)


def test_hofer_time_dependent_vs_quadrature():
    eps = 0.2
    spec = hamiltonian_from_config(
        {"kind": "time_trig", "epsilon": eps, "t_mode": [1, 0], "q_mode": [1, 0]}, rho=9.0
    )
    est = hofer_norm(spec, t_points=64)
    # oscillation at time t is 2 eps |cos t1|; dense 1D quadrature oracle
    t = np.linspace(0, 2 * np.pi, 200001)
    oracle = 2 * eps * np.trapezoid(np.abs(np.cos(t)), t) / (2 * np.pi)
    assert est.value == pytest.approx(oracle, rel=2e-3)
    assert est.time_dependent


def _hofer_samples(spec, est):
    """The q lattice of an estimate, and its samples: the repeated q lattice beside the tiled p samples."""
    dim_q = 2 * spec.n_pairs
    axes = [2 * np.pi * np.arange(est.q_points_per_dim) / est.q_points_per_dim] * dim_q
    qs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim_q)
    ps = hamiltonians._p_samples(spec, 5)
    return qs, np.concatenate([np.repeat(qs, len(ps), axis=0), np.tile(ps, (len(qs), 1))], axis=1)


def _flat_hofer(spec, est):
    """The autonomous estimate from h_tilde at every (q, p) sample."""
    vals = hamiltonians.h_tilde(spec, 0.0, 0.0, _hofer_samples(spec, est)[1])
    return float(np.max(vals) - np.min(vals))


@pytest.mark.parametrize(
    "potential, kwargs",
    [
        (TRIG, {}),
        ({"kind": "time_trig", "epsilon": 0.2, "t_mode": [1, 2], "q_mode": [1, -1]}, {"q_points_cap": 64, "t_points": 4}),
    ],
)
def test_hofer_samples_every_q_with_every_p(monkeypatch, potential, kwargs):
    """The estimate has the bits of h_tilde at every q with every p.

    A time-dependent h is evaluated on the sample array, the repeated q
    lattice beside the tiled p samples; an autonomous built-in h sees the q
    lattice alone.
    """
    spec = hamiltonian_from_config(potential, rho=4.0)
    seen, seen_by_h = [], []
    h_tilde = hamiltonians.h_tilde
    monkeypatch.setattr(hamiltonians, "h_tilde", lambda spec, t1, t2, z: seen.append(z) or h_tilde(spec, t1, t2, z))
    kind = type(spec.potential)
    evaluate = kind.evaluate
    monkeypatch.setattr(kind, "evaluate", lambda pot, t1, t2, z, *a: seen_by_h.append(z) or evaluate(pot, t1, t2, z, *a))
    est = hofer_norm(spec, **kwargs)
    monkeypatch.undo()
    qs, zs = _hofer_samples(spec, est)
    if spec.potential.time_dependent:
        assert np.concatenate([z.reshape(-1, 4) for z in seen]).tobytes() == zs.tobytes()
        t1, t2 = grid_points(kwargs["t_points"])
        vals = hamiltonians.h_tilde(spec, t1.reshape(-1, 1), t2.reshape(-1, 1), zs[None])
        assert est.value == float(np.mean(vals.max(axis=1) - vals.min(axis=1)))
    else:
        assert seen == [] and [z.tobytes() for z in seen_by_h] == [qs.tobytes()]
        assert est.value == _flat_hofer(spec, est)


@pytest.mark.parametrize("modes", [[[1, 0], [0, 1]], [[1, 2], [3, -1], [0, 5]], [[1, 0, 0, 1], [0, 1, -1, 0]]])
@pytest.mark.parametrize("rho", [np.inf, 4.0, 1.0, 0.7, 0.2])
@pytest.mark.parametrize("epsilon", [0.1, -2.5, 1e-300])
def test_hofer_on_the_q_lattice_has_the_bits_of_every_sample(modes, rho, epsilon):
    """chi(|p|^2) times h on the q lattice, against h_tilde at every (q, p).

    rho <= 1 puts p = 0 on the cut-off ramp, where h_tilde of a q-lattice
    point is not h.
    """
    spec = hamiltonian_from_config({"kind": "trig_potential", "epsilon": epsilon, "modes": modes}, rho=rho)
    est = hofer_norm(spec)
    assert est.value == _flat_hofer(spec, est)
    assert est.value > 0.0 and est.p_sample_count == len(hamiltonians._p_samples(spec, 5))


def _unique_p_samples(spec, shells):
    """np.unique of every radius times each of the zero, +-e_a and diagonal directions."""
    dim_p = 2 * spec.n_pairs
    radii = np.linspace(0.0, np.sqrt(spec.rho) if np.isfinite(spec.rho) else 4.0, shells)
    dirs = [np.zeros(dim_p)]
    for a in range(dim_p):
        e = np.zeros(dim_p)
        e[a] = 1.0
        dirs += [e, -e]
    dirs.append(np.ones(dim_p) / np.sqrt(dim_p))
    return np.unique(np.array([r * d for r in radii for d in dirs]), axis=0)


@pytest.mark.parametrize("modes", [[[1, 0], [0, 1]], [[1, 0, 0, 1], [0, 1, -1, 0]]])
@pytest.mark.parametrize("rho", [4.0, np.inf])
def test_hofer_p_samples_are_the_distinct_products(modes, rho):
    """The zero row, then each nonzero radius times each of the 2 (2n) + 1 directions: no row twice."""
    spec = hamiltonian_from_config({"kind": "trig_potential", "epsilon": 0.1, "modes": modes}, rho=rho)
    ps = hamiltonians._p_samples(spec, 5)
    assert len(ps) == 1 + 4 * (2 * 2 * spec.n_pairs + 1)
    assert np.unique(ps, axis=0).tobytes() == _unique_p_samples(spec, 5).tobytes()


def test_hofer_norm_imports_no_masked_arrays():
    """A fresh process estimates the Hofer norm of the energy run without importing numpy.ma."""
    code = (
        "import sys\n"
        "from torusfloer.cli import hofer_norm\n"
        "from torusfloer.hamiltonians import hamiltonian_from_config\n"
        f"hofer_norm(hamiltonian_from_config({TRIG!r}, rho=4.0))\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(hamiltonians.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_hofer_samples_a_custom_h_at_every_p(monkeypatch):
    """A custom h may depend on p: here h = p1 cos q1, which vanishes on the q lattice at p = 0."""

    def h(t1, t2, z):
        return z[..., 2] * np.cos(z[..., 0])

    def grad_h(t1, t2, z):
        grad = np.zeros_like(np.asarray(z, dtype=float))
        grad[..., 0] = -z[..., 2] * np.sin(z[..., 0])
        grad[..., 2] = np.cos(z[..., 0])
        return grad

    spec = HamiltonianSpec(CustomPotential(1, h, grad_h), rho=4.0)
    seen = []
    h_tilde = hamiltonians.h_tilde
    monkeypatch.setattr(hamiltonians, "h_tilde", lambda spec, t1, t2, z: seen.append(z) or h_tilde(spec, t1, t2, z))
    est = hofer_norm(spec)
    monkeypatch.undo()
    assert sum(len(z) for z in seen) == est.q_points_per_dim**2 * est.p_sample_count
    assert est.value == _flat_hofer(spec, est) > 1.0


# ---------------------------------------------------------------------------
# scalar two-momentum system


def test_ddw_witness_kernel(rng):
    for _ in range(20):
        psi = random_band_limited(rng, 32, 1, max_mode=5, layout="scalar")
        witness = ddw_kernel_witness(psi, q0=float(rng.uniform(0, 2 * np.pi)))
        assert l2_norm(ddw_residual(None, witness)) < 1e-12


def test_ddw_witness_zero_psi():
    psi = TorusField(np.zeros((16, 16, 1)), "scalar")
    w = ddw_kernel_witness(psi, q0=0.0)
    assert np.max(np.abs(w.values)) == 0.0


def test_ddw_specific_witness():
    t1, t2 = grid_points(32)
    psi = TorusField(np.sin(t1 + t2)[:, :, None], "scalar")
    witness = ddw_kernel_witness(psi, q0=0.0)
    assert l2_norm(ddw_residual(None, witness)) < 1e-12
    # p1 = d2 psi, p2 = -d1 psi
    assert np.max(np.abs(witness.values[:, :, 1] - np.cos(t1 + t2))) < 1e-12
    assert np.max(np.abs(witness.values[:, :, 2] + np.cos(t1 + t2))) < 1e-12


def test_ddw_reduces_to_second_order_ode(rng):
    # 1D field lifted constantly in t2 with p1 = d1 q, p2 = 0: the only
    # nonzero residual is the second-order equation -q'' - V'(q)
    n = 32
    t1, _ = grid_points(n)
    q = 0.3 * np.sin(t1) + 0.1 * np.cos(2 * t1)
    qf = TorusField(q[:, :, None], "scalar")
    p1 = derivative(qf, "d1").values[:, :, 0]
    z3 = TorusField(np.stack([q, p1, np.zeros_like(q)], axis=2), "ddw")

    def grad3(qq, pp1, pp2):
        return (np.sin(qq), pp1, pp2)  # V(q) = -cos q, quadratic momenta

    res = ddw_residual(grad3, z3).values
    q_second = laplacian(qf).values[:, :, 0]  # no t2 dependence
    assert np.max(np.abs(res[:, :, 0] - (-q_second - np.sin(q)))) < 1e-10
    assert np.max(np.abs(res[:, :, 1])) < 1e-12
    assert np.max(np.abs(res[:, :, 2])) < 1e-12


# ---------------------------------------------------------------------------
# Legendre bridge


def test_legendre_quadratic_exact(rng):
    pot = TrigPotential(0.1, [[1, 0], [0, 1]])
    lag = quadratic_lagrangian(pot)
    for _ in range(5):
        q = rng.uniform(0, 2 * np.pi, size=2)
        p = rng.uniform(-2, 2, size=2)
        res = legendre_transform(lag, 0.0, 0.0, q, p)
        expected = 0.5 * float(p @ p) + 0.1 * (np.cos(q[0]) + np.cos(q[1]))
        assert res.value == pytest.approx(expected, abs=1e-12)
        assert np.allclose(res.v, p)


@pytest.mark.parametrize(
    "potential",
    [
        TRIG,
        {"kind": "trig_potential", "epsilon": 0.2, "modes": [[1, 0, 0, 1], [0, 1, -1, 0]]},
        {"kind": "time_trig", "epsilon": 0.4, "t_mode": [1, 2], "q_mode": [1, -1]},
    ],
)
def test_quadratic_lagrangian_has_the_bits_of_the_zero_padded_evaluation(potential):
    """value and q_grad evaluate h on q itself, with the bits of h on q padded into a zero-p state."""
    pot = nonlinearity_from_config(potential)
    lag = quadratic_lagrangian(pot)
    rng = np.random.default_rng(3)
    dim_q = 2 * pot.n_pairs
    t1, t2 = grid_points(8)
    for s1, s2, shape in ((0.3, 1.1, (dim_q,)), (0.3, 1.1, (5, dim_q)), (t1, t2, (8, 8, dim_q))):
        q, v = rng.uniform(-7.0, 7.0, size=(2, *shape))
        z = np.zeros(shape[:-1] + (2 * dim_q,))  # the reference: q padded with p = 0
        z[..., :dim_q] = q
        value = 0.5 * np.sum(v * v, axis=-1) - pot.value(s1, s2, z)
        q_grad = -pot.evaluate(s1, s2, z, True, False)[1][..., :dim_q]
        got = (np.asarray(lag.lagrangian(s1, s2, q, v)), np.asarray(lag.q_grad(s1, s2, q, v)))
        assert [(x.shape, x.tobytes()) for x in got] == [(x.shape, x.tobytes()) for x in (value, q_grad)]


def test_legendre_double_transform_involution(rng):
    pot = TrigPotential(0.1, [[1, 0], [0, 1]])
    lag = quadratic_lagrangian(pot)

    def h_fun(t1, t2, q, p):
        return legendre_transform(lag, t1, t2, q, p).value

    h_as_lag = LagrangianSpec(
        n_pairs=1,
        lagrangian=h_fun,
        v_grad=lambda t1, t2, q, p: p,
        check_convexity=False,
    )
    for _ in range(5):
        q = rng.uniform(0, 2 * np.pi, size=2)
        v = rng.uniform(-2, 2, size=2)
        back = legendre_transform(h_as_lag, 0.0, 0.0, q, v)
        assert back.value == pytest.approx(float(lag.lagrangian(0.0, 0.0, q, v)), abs=1e-8)


def test_legendre_nonquadratic_convex(rng):
    # L = |v|^2/2 + |v|^4/4: dL/dv = v (1 + |v|^2), strictly convex
    def lag_fun(t1, t2, q, v):
        vv = float(np.dot(v, v))
        return 0.5 * vv + 0.25 * vv**2

    def v_grad(t1, t2, q, v):
        return v * (1.0 + float(np.dot(v, v)))

    lag = LagrangianSpec(n_pairs=1, lagrangian=lag_fun, v_grad=v_grad)
    q = np.zeros(2)
    p = np.array([0.7, -0.3])
    res = legendre_transform(lag, 0.0, 0.0, q, p)
    # optimality: p = v (1 + |v|^2)
    assert np.max(np.abs(p - res.v * (1 + res.v @ res.v))) < 1e-9


def test_lagrangian_convexity_check():
    with pytest.raises(HamiltonianError, match="convex"):
        LagrangianSpec(
            n_pairs=1,
            lagrangian=lambda t1, t2, q, v: -0.5 * float(np.dot(v, v)),
            v_grad=lambda t1, t2, q, v: -v,
        )


def test_euler_lagrange_constant_critical_point():
    pot = TrigPotential(0.1, [[1, 0], [0, 1]])
    lag = quadratic_lagrangian(pot)
    q = constant_field(16, [np.pi, 0.0], "q")
    assert l2_norm(euler_lagrange_residual(lag, q)) < 1e-14


def test_euler_lagrange_matches_hamiltonian_residual(rng):
    # the variational residual must agree with the q slot of the
    # first-order system residual along p = 2 dt q
    spec = trig_spec(rho=np.inf)
    pot = TrigPotential(0.1, [[1, 0], [0, 1]])
    lag = quadratic_lagrangian(pot)
    triple = standard_structures(1)
    for _ in range(3):
        q = random_band_limited(rng, 32, 2, max_mode=3, amplitude=0.1, layout="q")
        p = 2.0 * derivative(q, "dt").values
        z = TorusField(np.concatenate([q.values, p], axis=2), "z")
        el = euler_lagrange_residual(lag, q).values
        ham = hamiltonian_residual(spec, z, triple).values
        assert np.max(np.abs(el - ham[:, :, :2])) < 1e-8
        assert np.max(np.abs(ham[:, :, 2:])) < 1e-12


@pytest.mark.parametrize("amplitude", [0.1, 1.0])
def test_euler_lagrange_finite_difference_branch_matches_q_grad(rng, amplitude):
    """Without q_grad, dL/dq is a central difference of step 1e-6: against the analytic q_grad.

    The gap is the round-off of L in the difference, about eps max|L| / (2 step)
    = 1.1e-10 max|L|; 200 random fields at each amplitude gave at most 1.06e-10 max|L|.
    """
    lag = quadratic_lagrangian(TrigPotential(0.1, [[1, 0], [0, 1]]))
    fd = dataclasses.replace(lag, q_grad=None)
    t1, t2 = grid_points(32)
    for _ in range(5):
        q = random_band_limited(rng, 32, 2, max_mode=3, amplitude=amplitude, layout="q")
        scale = np.max(np.abs(lag.lagrangian(t1, t2, q.values, 2.0 * derivative(q, "dt").values)))
        gap = np.max(np.abs(euler_lagrange_residual(fd, q).values - euler_lagrange_residual(lag, q).values))
        assert 0.0 < gap < 3e-10 * scale


def test_legendre_reports_iterate_on_failure():
    lag = LagrangianSpec(
        n_pairs=1,
        lagrangian=lambda t1, t2, q, v: 0.5 * float(np.dot(v, v)),
        v_grad=lambda t1, t2, q, v: v + 10.0,  # inconsistent: no stationary point
        v_hess=lambda t1, t2, q, v: np.zeros((2, 2)),
        check_convexity=False,
    )
    with pytest.raises(LegendreError) as err:
        legendre_transform(lag, 0.0, 0.0, np.zeros(2), np.zeros(2), max_iter=5)
    assert err.value.iterate is not None
