"""Property tests of the discrete operators and of the flow grid's half-spectrum arithmetic.

Random even grids N = 8 .. 64 and random states: band-limited content plus,
optionally, white noise that reaches every mode up to the Nyquist band.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from torusfloer import floer
from torusfloer.floer import _FlowGrid, _propagator, mu_max
from torusfloer.hamiltonians import (
    action,
    chi_cutoff,
    chi_cutoff_prime,
    cutoff_terms,
    grad_h_tilde,
    h_tilde,
    hamiltonian_from_config,
    hamiltonian_residual,
    hamiltonian_value,
)
from torusfloer.spectral import (
    TorusField,
    constant_field,
    derivative,
    dirac,
    grid_points,
    l2_inner,
    l2_norm,
    laplacian,
    random_band_limited,
    sobolev_norm,
)
from torusfloer.structures import standard_structures

PROPERTY = settings(max_examples=25, deadline=None, database=None)
TRIPLE = standard_structures(1)
POTENTIALS = (
    {"kind": "trig_potential", "epsilon": 0.3, "modes": [[1, 0], [0, 1]]},
    {"kind": "trig_potential", "epsilon": 0.5, "modes": [[1, 2], [3, -1]]},
    {"kind": "time_trig", "epsilon": 0.4, "t_mode": [1, 2], "q_mode": [1, -1]},
)
RHOS = (4.0, 9.0, np.inf)
SPECS = {
    (k, rho): hamiltonian_from_config(pot, rho=rho)
    for k, pot in enumerate(POTENTIALS)
    for rho in RHOS
}
specs = st.sampled_from(sorted(SPECS, key=str)).map(SPECS.get)


@st.composite
def states(draw):
    n = 2 * draw(st.integers(4, 32))
    band = draw(st.integers(1, min(n // 2 - 1, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitude = draw(st.floats(0.02, 0.6))
    z = random_band_limited(rng, n, 4, band, amplitude / band, "z", include_mean=True)
    if draw(st.booleans()):
        return TorusField(z.values + 1e-3 * rng.standard_normal(z.values.shape), "z")
    return z


@PROPERTY
@given(z=states())
def test_dirac_squared_is_minus_laplacian(z):
    dd = dirac(dirac(z, TRIPLE), TRIPLE)
    defect = TorusField(dd.values + laplacian(z).values, "z")
    assert l2_norm(defect) < 1e-10 * sobolev_norm(z, 2)


@PROPERTY
@given(a=states(), seed=st.integers(0, 2**32 - 1))
def test_derivatives_skew_adjoint_and_dirac_symmetric(a, seed):
    """<d a, b> = -<a, d b> for d = d1, d2; so dirac = J d1 + K d2 (J, K antisymmetric) is symmetric."""
    b = TorusField(np.random.default_rng(seed).standard_normal(a.values.shape), "z")
    for which in ("d1", "d2"):
        da, db = derivative(a, which), derivative(b, which)
        scale = l2_norm(da) * l2_norm(b) + l2_norm(a) * l2_norm(db)
        assert abs(l2_inner(da, b) + l2_inner(a, db)) <= 1e-12 * scale
    da, db = dirac(a, TRIPLE), dirac(b, TRIPLE)
    scale = l2_norm(da) * l2_norm(b) + l2_norm(a) * l2_norm(db)
    assert abs(l2_inner(da, b) - l2_inner(a, db)) <= 1e-12 * scale


ZERO = hamiltonian_from_config({"kind": "zero", "n_pairs": 1}, rho=4.0)


ZERO = hamiltonian_from_config({"kind": "zero", "n_pairs": 1}, rho=4.0)


@PROPERTY
@given(
    n=st.integers(4, 32).map(lambda k: 2 * k),
    spec=specs,
    q=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
    frac=st.floats(0.05, 0.95),
    weight=st.floats(0.0, 1.0),
)
def test_constant_critical_point_is_fixed_point_of_full_grid_step(n, spec, q, frac, weight):
    """Bit for bit on N = 2^k, where the transforms of a constant are exact; to round-off on other N.

    Elsewhere the modes of a constant off (0, 0) are round-off, which the step moves.
    """
    # every constant (q, 0) is critical for h = 0; (0, 0) is critical for every potential here
    for spec, point in ((ZERO, q), (spec, [0.0, 0.0])):
        for n_grid in (n, 1 << (n.bit_length() - 1)):
            z = constant_field(n_grid, [*point, 0.0, 0.0], "z")
            with mock.patch.object(floer, "_is_constant", lambda spec, zhat: False):
                grid = _FlowGrid(spec, TRIPLE, z)
            assert not grid.constant
            ds = np.full(1, frac / mu_max(n_grid))
            vals, zhat = grid.start
            vals1, zhat1 = grid.step(vals, zhat, ds, weight)
            vals2, _ = grid.step(vals1, zhat1, ds, weight)
            if n_grid & (n_grid - 1) == 0:
                assert np.array_equal(zhat1, zhat) and np.array_equal(vals1, vals)
                assert np.array_equal(vals2, vals)
                assert grid.residual(vals1, zhat1)[0] == 0.0
            scale = max(1.0, np.max(np.abs(vals)))
            assert max(np.max(np.abs(vals1 - vals)), np.max(np.abs(vals2 - vals))) <= 1e-13 * scale


def _close(value, ref, tol=1e-12):
    return abs(value - ref) <= tol * max(1.0, abs(ref))


@PROPERTY
@given(z=states(), spec=specs, frac=st.floats(0.05, 0.5), weight=st.floats(0.0, 1.0))
def test_half_spectrum_step_matches_full_fft_step(z, spec, frac, weight):
    n = z.grid_size
    ds = frac / mu_max(n)
    grid = _FlowGrid(spec, TRIPLE, z)
    assert not grid.constant
    new_vals, new_hat = grid.step(*grid.start, np.full(1, ds), weight)

    t1, t2 = grid_points(n)
    zhat = np.fft.fft2(z.values, axes=(0, 1), norm="forward")
    nl = weight * grad_h_tilde(spec, t1, t2, z.values)
    rhs = zhat + ds * np.fft.fft2(nl, axes=(0, 1), norm="forward")
    ref_hat = np.einsum("xyab,xyb->xya", _propagator(n, ds, TRIPLE), rhs)
    ref = np.fft.ifft2(ref_hat, axes=(0, 1), norm="forward").real

    scale = np.max(np.abs(ref))
    assert new_vals.flags.c_contiguous
    assert np.max(np.abs(new_vals - ref)) <= 1e-12 * scale
    assert np.max(np.abs(new_hat - ref_hat[:, : n // 2 + 1])) <= 1e-12 * scale


@PROPERTY
@given(z=states(), spec=specs, weight=st.floats(0.0, 1.0))
def test_parseval_action_matches_grid_action(z, spec, weight):
    grid = _FlowGrid(spec, TRIPLE, z)
    assert _close(grid.action(*grid.start, weight), action(spec, z, weight))


@PROPERTY
@given(z=states(), spec=specs, h_weight=st.sampled_from([0.0, 0.5, 1.0]))
def test_residual_from_modes_matches_grid_residual(z, spec, h_weight):
    grid = _FlowGrid(spec, TRIPLE, z)
    ref = l2_norm(hamiltonian_residual(spec, z, TRIPLE, h_weight))
    assert _close(grid.residual(*grid.start, h_weight), ref)


def _separate_evaluations(spec, t1, t2, z):
    """|p|^2, h_tilde and grad h_tilde as three evaluations of h, grad h and chi."""
    p = z[..., 2 * spec.n_pairs :]
    psq = np.sum(p**2, axis=-1)
    h = chi_cutoff(psq, spec.rho) * spec.h(t1, t2, z)
    grad = chi_cutoff(psq, spec.rho)[..., None] * spec.grad_h(t1, t2, z)
    if np.isfinite(spec.rho):
        dchi = chi_cutoff_prime(psq, spec.rho)
        grad[..., 2 * spec.n_pairs :] += (2.0 * dchi * spec.h(t1, t2, z))[..., None] * p
    return psq, h, grad


@PROPERTY
@given(
    spec=specs,
    seed=st.integers(0, 2**32 - 1),
    points=st.integers(1, 64),
    weight=st.floats(0.0, 1.0),
)
def test_fused_evaluation_is_bit_identical(spec, seed, points, weight):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-np.pi, np.pi, size=(points, 4))
    t1, t2 = rng.uniform(0.0, 2.0 * np.pi, size=(2, points))
    if np.isfinite(spec.rho):
        # |p|^2 spread over [rho - 1.5, rho + 0.5]; the first point inside the cut-off shell
        p_sq = rng.uniform(spec.rho - 1.5, spec.rho + 0.5, size=points)
        p_sq[0] = spec.rho - 0.5
        angle = rng.uniform(0.0, 2.0 * np.pi, size=points)
        z[:, 2] = np.sqrt(p_sq) * np.cos(angle)
        z[:, 3] = np.sqrt(p_sq) * np.sin(angle)
    psq, h, grad = _separate_evaluations(spec, t1, t2, z)

    terms = cutoff_terms(spec, t1, t2, z)
    assert np.array_equal(terms.p_sq, psq)
    assert np.array_equal(terms.h, h)
    assert np.array_equal(terms.grad, grad)
    assert np.array_equal(h_tilde(spec, t1, t2, z), h)
    assert np.array_equal(grad_h_tilde(spec, t1, t2, z), grad)
    assert np.array_equal(hamiltonian_value(spec, t1, t2, z, weight), 0.5 * psq + weight * h)
