"""Property tests of the discrete operators and of the flow grid's half-spectrum arithmetic.

Random even grids N = 8 .. 64 and random states: band-limited content plus,
optionally, white noise that reaches every mode up to the Nyquist band.
The flow grid's component-major arithmetic is also checked bit for bit
against a reference on the trailing-component layout kept here, and the
constant grid's two-point rows and closed-form means against the full grid.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusfloer import floer
from torusfloer.floer import _FlowGrid, _propagator, action, mu_max
from torusfloer.hamiltonians import (
    NONLINEARITY_KINDS,
    TrigPotential,
    component_sum,
    cutoff_terms,
    grad_H_values,
    grad_h_tilde,
    h_tilde,
    hamiltonian_from_config,
    hamiltonian_residual,
    hamiltonian_value,
    nonlinearity_from_config,
    smoothstep_prime,
    square_sum,
)
from torusfloer.spectral import (
    TorusField,
    constant_field,
    derivative,
    derivative_numbers,
    dirac,
    grid_points,
    l2_inner,
    l2_norm,
    laplacian,
    random_band_limited,
    sobolev_norm,
)
from torusfloer.structures import central_difference, compatible_triple, random_regularized_pair, standard_structures

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
spec_keys = st.sampled_from(sorted(SPECS, key=str))
specs = spec_keys.map(SPECS.get)


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
            with mock.patch.object(floer, "exact_constant", lambda values: False):
                grid = _FlowGrid(spec, TRIPLE, z)
            assert not grid.constant
            ds = np.full(1, frac / mu_max(n_grid))
            vals, zhat = grid.start
            vals1, zhat1 = grid.step(zhat, grid.evaluate(vals), ds, weight)
            terms1 = grid.evaluate(vals1)
            vals2, _ = grid.step(zhat1, terms1, ds, weight)
            if n_grid & (n_grid - 1) == 0:
                assert np.array_equal(zhat1, zhat) and np.array_equal(vals1, vals)
                assert np.array_equal(vals2, vals)
                assert grid.residual(vals1, zhat1, terms1)[0] == 0.0
            scale = max(1.0, np.max(np.abs(vals)))
            assert max(np.max(np.abs(vals1 - vals)), np.max(np.abs(vals2 - vals))) <= 1e-13 * scale


@settings(max_examples=100, deadline=None, database=None)
@given(
    log_n=st.integers(3, 7),
    point=st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
            st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1.3e154, -1.4e154, 1e300]),
        ),
        min_size=4,
        max_size=4,
    ),
)
def test_exact_constants_have_the_transform_they_claim(log_n, point):
    """rfft2 of an exact constant is its value at (0, 0), bytes and signed zeros included, and 0 elsewhere.

    constant_start takes the value as the (0, 0) mode without a transform,
    and the constant grid holds it as a real number at each of its points:
    cast to complex, it has the transform's bytes, imaginary part +0.0 included.
    """
    n = 1 << log_n
    values = np.broadcast_to(np.asarray(point), (n, n, 4)).copy()
    with np.errstate(over="ignore"):
        assert floer.exact_constant(values) == bool(np.all(np.isfinite(np.square(point))))
    if floer.exact_constant(values):
        zhat = floer._rfft2(values)
        assert not np.any(zhat[1:]) and not np.any(zhat[0, 1:])
        z = TorusField(values, "z")
        row, coefficient = floer.constant_start(ZERO, z), _FlowGrid(ZERO, None, z).start[1]
        assert coefficient[:, :1].astype(complex).tobytes() == np.ascontiguousarray(zhat[:1, :1]).tobytes()
        assert coefficient[:, 1:].tobytes() == coefficient[:, :1].tobytes()
        assert row.tobytes() == values[:1].tobytes()


def _close(value, ref, tol=1e-12):
    return abs(value - ref) <= tol * max(1.0, abs(ref))


@PROPERTY
@given(z=states(), spec=specs, frac=st.floats(0.05, 0.5), weight=st.floats(0.0, 1.0))
def test_half_spectrum_step_matches_full_fft_step(z, spec, frac, weight):
    n = z.grid_size
    ds = frac / mu_max(n)
    grid = _FlowGrid(spec, TRIPLE, z)
    assert not grid.constant
    vals, zhat = grid.start
    new_vals, new_hat = grid.step(zhat, grid.evaluate(vals), np.full(1, ds), weight)

    t1, t2 = grid_points(n)
    zhat = np.fft.fft2(z.values, axes=(0, 1), norm="forward")
    nl = weight * grad_h_tilde(spec, t1, t2, z.values)
    rhs = zhat + ds * np.fft.fft2(nl, axes=(0, 1), norm="forward")
    ref_hat = np.einsum("xyab,xyb->xya", _propagator(n, ds, TRIPLE, np.s_[:, :]), rhs)
    ref = np.fft.ifft2(ref_hat, axes=(0, 1), norm="forward").real

    scale = np.max(np.abs(ref))
    # component-major: the values and modes are grid views of C-contiguous component planes
    assert new_vals.transpose(2, 0, 1).flags.c_contiguous
    assert new_hat.transpose(2, 0, 1).flags.c_contiguous
    assert np.max(np.abs(new_vals - ref)) <= 1e-12 * scale
    assert np.max(np.abs(new_hat - ref_hat[:, : n // 2 + 1])) <= 1e-12 * scale


def _density_action(spec, z, weight):
    """The action as the grid mean of the density <p, 2 d_t q> - H, over full-grid transforms."""
    v = 2.0 * derivative(TorusField(z.q_part(), "q"), "dt").values
    t1, t2 = grid_points(z.grid_size)
    density = np.sum(z.p_part() * v, axis=-1) - hamiltonian_value(spec, t1, t2, z.values, weight)
    return float(np.mean(density))


@PROPERTY
@given(z=states(), spec=specs, weight=st.floats(0.0, 1.0))
def test_parseval_action_matches_grid_action(z, spec, weight):
    assert _close(action(spec, z, weight), _density_action(spec, z, weight))


@pytest.mark.parametrize("q", [[0.0, 0.0], [0.0, np.pi], [np.pi, 0.0], [np.pi, np.pi]])
def test_action_of_lattice_critical_points_has_the_density_bits(q):
    """Constant critical points at eps 2.5; at the two saddles H = 0, and the action is zero, sign included."""
    spec = hamiltonian_from_config({**POTENTIALS[0], "epsilon": 2.5}, rho=4.0)
    z = constant_field(32, [*q, 0.0, 0.0], "z")
    value = action(spec, z)
    assert np.float64(value).tobytes() == np.float64(_density_action(spec, z, 1.0)).tobytes()
    if (np.cos(q[0]) + np.cos(q[1])) == 0.0:  # H = 0
        assert value == 0.0


@PROPERTY
@given(z=states(), spec=specs, h_weight=st.sampled_from([0.0, 0.5, 1.0]))
def test_residual_from_modes_matches_grid_residual(z, spec, h_weight):
    grid = _FlowGrid(spec, TRIPLE, z)
    ref = l2_norm(hamiltonian_residual(spec, z, TRIPLE, h_weight))
    vals, zhat = grid.start
    assert _close(grid.residual(vals, zhat, grid.evaluate(vals), h_weight), ref)


def _reference_potential(pot, t1, t2, z):
    """h and grad h by literal copies of the built-in potentials' formulas.

    They multiply and sum over the trailing axis of a C-ordered z: the trailing-component layout.
    """
    z = np.ascontiguousarray(z)
    if pot["kind"] == "zero":
        shape = np.broadcast_shapes(np.shape(t1), np.shape(t2), z.shape[:-1])
        return np.zeros(shape), np.zeros_like(z, shape=shape + (z.shape[-1],))
    eps = pot["epsilon"]
    if pot["kind"] == "trig_potential":
        modes = np.atleast_2d(np.asarray(pot["modes"], dtype=float))
        q = z[..., : modes.shape[1]]
        phases = q @ modes.T
        grad = np.zeros_like(z)
        grad[..., : modes.shape[1]] = -eps * (np.sin(phases) @ modes)
        return eps * np.sum(np.cos(phases), axis=-1), grad
    t_mode = np.asarray(pot["t_mode"], dtype=float)
    q_mode = np.asarray(pot["q_mode"], dtype=float)
    tfactor = np.cos(t_mode[0] * np.asarray(t1) + t_mode[1] * np.asarray(t2))
    q = z[..., : q_mode.shape[0]]
    grad = np.zeros(np.broadcast_shapes(np.shape(t1), np.shape(t2), z.shape[:-1]) + (z.shape[-1],))
    grad[..., : q_mode.shape[0]] = (-eps * tfactor * np.sin(q @ q_mode))[..., None] * q_mode
    return eps * tfactor * np.cos(q @ q_mode), grad


def _reference_chi(x, rho):
    """chi and chi' of the cut-off by literal copies of their formulas, 1 and 0 for rho = inf."""
    if np.isinf(rho):
        return np.ones_like(x), np.zeros_like(x)
    u = np.clip(x - (rho - 1.0), 0.0, 1.0)
    chi = 1.0 - u * u * (3.0 - 2.0 * u)
    u = x - (rho - 1.0)
    inside = (u > 0.0) & (u < 1.0)
    dchi = np.zeros_like(x)
    uu = u[inside]
    dchi[inside] = -6.0 * uu * (1.0 - uu)
    return chi, dchi


@settings(PROPERTY, max_examples=200)
@given(
    u=st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            st.floats(-0.01, 1.01),
            st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, 1.0 - 2.0**-53, 1.0 + 2.0**-52, np.nan, -np.nan]),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_smoothstep_prime_has_the_bits_of_the_masked_formula(u):
    """6u(1 - u) inside (0, 1), selected without a mask, has the bits of the product over the masked entries: +0.0
    outside, NaN included, for arrays and for scalars."""
    u = np.array(u)
    ref = np.zeros_like(u)
    inside = (u > 0.0) & (u < 1.0)
    ref[inside] = 6.0 * u[inside] * (1.0 - u[inside])
    assert _bits(smoothstep_prime(u)) == _bits(ref)
    assert _bits(smoothstep_prime(u[0])) == _bits(ref[0])


def _separate_evaluations(pot, spec, t1, t2, z):
    """|p|^2, h_tilde and grad h_tilde from the reference h, grad h and chi on C-ordered z."""
    z = np.ascontiguousarray(z)
    p = z[..., 2 * spec.n_pairs :]
    psq = np.sum(p**2, axis=-1)
    hval, gval = _reference_potential(pot, t1, t2, z)
    chi, dchi = _reference_chi(psq, spec.rho)
    h = chi * hval
    grad = chi[..., None] * gval
    if np.isfinite(spec.rho):
        grad[..., 2 * spec.n_pairs :] += (2.0 * dchi * hval)[..., None] * p
    return psq, h, grad


def _component_major(z):
    """The (..., k) grid view of C-contiguous component planes holding the values of z."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(z, -1, 0)), 0, -1)


# values that a transform carries through to its output bytes: signed zeros, subnormals, huge values, inf and NaN
TRANSFORM_SPECIALS = (0.0, -0.0, 5e-324, -2.2e-308, 1e-310, 1e308, -1e300, np.inf, -np.inf, np.nan)


def _with_specials(rng, shape, count):
    """Normal values of many scales with count entries set to TRANSFORM_SPECIALS."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    x.reshape(-1)[rng.integers(0, x.size, count)] = rng.choice(TRANSFORM_SPECIALS, count)
    return x


@settings(PROPERTY, max_examples=300)
@given(
    n=st.integers(8, 128),
    k=st.integers(1, 4),
    major=st.booleans(),
    count=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=57, k=4, major=False, count=3, seed=27405348)  # NaN output whose sign depends on the layout
def test_grid_transforms_have_the_bytes_of_numpy_2d_transforms(n, k, major, count, seed):
    """_rfft2 and _irfft2, two 1-D numpy calls each, give the raw bytes of np.fft.rfft2 and np.fft.irfftn.

    Over the grid axes of C-ordered or component-major (N, N, k) values, N odd
    and even, and into an out of C-contiguous planes, which numpy takes as
    well.  With NaN among the values the bytes of numpy's transforms depend on
    the layout of their input and output, so each call is compared with
    numpy's on the same arrays.
    """
    rng = np.random.default_rng(seed)
    values = _with_specials(rng, (n, n, k), count)
    zhat = np.empty((n, n // 2 + 1, k), dtype=complex)
    zhat.real, zhat.imag = (_with_specials(rng, zhat.shape, count) for _ in range(2))
    if major:
        values, zhat = _component_major(values), _component_major(zhat)
    hat_planes, val_planes = (k, n, n // 2 + 1), (k, n, n)
    with np.errstate(all="ignore"):
        pairs = {
            "rfft2": (floer._rfft2(values), np.fft.rfft2(values, axes=(0, 1), norm="forward")),
            "irfftn": (floer._irfft2(zhat, n), np.fft.irfftn(zhat, s=(n, n), axes=(0, 1), norm="forward")),
            "rfft2 out": (
                floer._rfft2(values, out=np.empty(hat_planes, dtype=complex)),
                np.fft.rfft2(values.transpose(2, 0, 1), norm="forward", out=np.empty(hat_planes, dtype=complex))
                .transpose(1, 2, 0),
            ),
            "irfftn out": (
                floer._irfft2(zhat, n, out=np.empty(val_planes).transpose(1, 2, 0)),
                np.fft.irfftn(zhat.transpose(2, 0, 1), s=(n, n), axes=(-2, -1), norm="forward",
                              out=np.empty(val_planes)).transpose(1, 2, 0),
            ),
        }
    for name, (got, ref) in pairs.items():
        assert _bits(got) == _bits(ref), name


def _fused_inputs(rng, spec, points):
    """points random states and torus times; with finite rho the first point inside the cut-off shell."""
    z = rng.uniform(-np.pi, np.pi, size=(points, 4))
    t1, t2 = rng.uniform(0.0, 2.0 * np.pi, size=(2, points))
    if np.isfinite(spec.rho):
        # |p|^2 spread over [rho - 1.5, rho + 0.5]
        p_sq = rng.uniform(spec.rho - 1.5, spec.rho + 0.5, size=points)
        p_sq[0] = spec.rho - 0.5
        angle = rng.uniform(0.0, 2.0 * np.pi, size=points)
        z[:, 2] = np.sqrt(p_sq) * np.cos(angle)
        z[:, 3] = np.sqrt(p_sq) * np.sin(angle)
    return z, t1, t2


@PROPERTY
@given(
    key=spec_keys,
    seed=st.integers(0, 2**32 - 1),
    points=st.integers(1, 64),
    side=st.integers(1, 8),
    weight=st.floats(0.0, 1.0),
)
def test_fused_evaluation_is_bit_identical(key, seed, points, side, weight):
    pot, spec = POTENTIALS[key[0]], SPECS[key]
    rng = np.random.default_rng(seed)
    z, t1, t2 = _fused_inputs(rng, spec, points)
    grid_z, grid_t1, grid_t2 = _fused_inputs(rng, spec, side * side)
    grid_t = (grid_t1.reshape(side, side), grid_t2.reshape(side, side))
    grid_z = grid_z.reshape(side, side, 4)
    # points, a C-ordered (N, N, 4) grid and its component-major view
    for zz, (tt1, tt2) in ((z, (t1, t2)), (grid_z, grid_t), (_component_major(grid_z), grid_t)):
        psq, h, grad = _separate_evaluations(pot, spec, tt1, tt2, zz)
        terms = cutoff_terms(spec, tt1, tt2, zz)
        assert np.array_equal(terms.p_sq, psq)
        assert np.array_equal(terms.h, h)
        assert np.array_equal(terms.grad, grad)
        assert np.array_equal(h_tilde(spec, tt1, tt2, zz), h)
        assert np.array_equal(grad_h_tilde(spec, tt1, tt2, zz), grad)
        assert np.array_equal(hamiltonian_value(spec, tt1, tt2, zz, weight), 0.5 * psq + weight * h)


@PROPERTY
@given(
    k=st.integers(1, 140),
    rows=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    major=st.booleans(),
)
def test_component_sum_rounds_like_a_c_ordered_sum(k, rows, seed, major):
    x = np.random.default_rng(seed).standard_normal((rows, 5, k)) * 10.0 ** np.arange(-4, 4, 8 / k)[:k]
    ref = np.sum(x, axis=-1)
    got = component_sum(_component_major(x) if major else x)
    assert got.tobytes() == ref.tobytes()


# NaNs of both signs, with a payload and signalling, besides the transforms' special values
SQUARE_SPECIALS = np.concatenate(
    [TRANSFORM_SPECIALS, np.array([0xFFF8000000000000, 0x7FF80000DEADBEEF, 0x7FF0000000000001], np.uint64).view(float)]
)


@settings(PROPERTY, max_examples=200)
@given(
    k=st.integers(1, 20),
    rows=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    major=st.booleans(),
    part=st.sampled_from(["q", "p"]),
    share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_square_sum_has_the_bytes_of_the_component_sum_of_squares(k, rows, seed, major, part, share):
    """`square_sum` has the bytes of component_sum(x * x) on the q or p half of a C-ordered or component-major
    array, as cutoff_terms takes |p|^2 on either grid: signed zeros, overflow and inf included, and NaN where that is.

    Which payload a sum of two NaNs keeps is numpy's choice, and not a fixed one: a 1-element in-place add keeps the
    second operand's, a longer one the first's.  So a NaN counts as a NaN alone.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, 5, 2 * k)) * 10.0 ** rng.uniform(-170, 170, 2 * k)
    special = rng.random(x.shape) < share
    x[special] = rng.choice(SQUARE_SPECIALS, int(special.sum()))
    x = _component_major(x) if major else x
    x = x[..., k:] if part == "p" else x[..., :k]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # invalid: a signalling NaN's square
        ref = component_sum(x * x)
        got = square_sum(x)
    assert got.shape == ref.shape == x.shape[:-1]
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == ref[~nan].tobytes()


# the trailing-layout reference below: potentials with n = 1 and n = 2, axis and non-axis modes
LAYOUT_POTENTIALS = (
    {"kind": "trig_potential", "epsilon": 0.3, "modes": [[1, 0], [0, 1]]},
    {"kind": "trig_potential", "epsilon": 0.5, "modes": [[1, 2], [3, -1]]},
    {"kind": "time_trig", "epsilon": 0.4, "t_mode": [1, 2], "q_mode": [1, -1]},
    {"kind": "trig_potential", "epsilon": 0.2, "modes": [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, -1]]},
    {"kind": "trig_potential", "epsilon": 0.2, "modes": [[1, 2, 0, -1]]},
    {"kind": "time_trig", "epsilon": 0.3, "t_mode": [0, 1], "q_mode": [1, -1, 2, 0]},
)


def _structures(n_pairs, general):
    """The standard triple, or a compatible triple of a random regularized pair (J, K not integer)."""
    if not general:
        return standard_structures(n_pairs)
    return compatible_triple(*random_regularized_pair(np.random.default_rng(n_pairs), n_pairs))


class _TrailingGrid:
    """The full flow grid on the trailing-component layout: C-ordered (N, N, 4n) values,
    modes by rfft2 over axes (0, 1), the propagator applied as the products prop[..., b] * rhs[..., b] added
    in the order b = 0, 1, ..., on this layout the arithmetic of the flow grid's `_apply_propagator`."""

    def __init__(self, pot, spec, triple, n):
        self.pot, self.spec, self.triple, self.n = pot, spec, triple, n
        self.t1, self.t2 = grid_points(n)
        m1, m2 = derivative_numbers(n)
        half = n // 2 + 1
        self.im1, self.im2 = (1j * m1[:, :half])[:, :, None], (1j * m2[:, :half])[:, :, None]
        cols = np.arange(half)
        self.parseval = np.where((cols == 0) | (cols == n // 2), 1.0, 2.0)[None, :, None]

    def terms(self, vals):
        return _separate_evaluations(self.pot, self.spec, self.t1, self.t2, vals)

    def step(self, vals, zhat, ds, weight):
        n = self.n
        rhs = zhat
        if weight != 0.0:
            rhs = zhat + ds * np.fft.rfft2(weight * self.terms(vals)[2], axes=(0, 1), norm="forward")
        # the full grid's inverses, sliced: the flow grid inverts only the half spectrum
        prop = np.ascontiguousarray(_propagator(n, ds, self.triple, np.s_[:, :])[:, : n // 2 + 1])
        new_hat = prop[..., 0] * rhs[..., None, 0]
        for b in range(1, rhs.shape[-1]):
            new_hat += prop[..., b] * rhs[..., None, b]
        new_vals = np.fft.irfft2(new_hat, s=(n, n), axes=(0, 1), norm="forward")
        return np.ascontiguousarray(new_vals), new_hat

    def action(self, vals, zhat, weight):
        k = self.spec.n_pairs
        qa, qb = zhat[:, :, :k], zhat[:, :, k : 2 * k]
        pa, pb = zhat[:, :, 2 * k : 3 * k], zhat[:, :, 3 * k :]
        va = self.im1 * qa + self.im2 * qb
        vb = self.im1 * qb - self.im2 * qa
        pairing = np.sum(self.parseval * (np.conj(pa) * va + np.conj(pb) * vb).real)
        psq, h, _ = self.terms(vals)
        return pairing - np.mean(0.5 * psq + weight * h)

    def residual(self, vals, zhat):
        grad = self.terms(vals)[2].copy()
        grad[..., 2 * self.spec.n_pairs :] += vals[..., 2 * self.spec.n_pairs :]
        dhat = self.im1 * (zhat @ self.triple.J.T) + self.im2 * (zhat @ self.triple.K.T)
        res = np.fft.irfft2(dhat, s=(self.n, self.n), axes=(0, 1), norm="forward") - grad
        return np.sqrt(np.maximum(np.mean(np.sum(res * res, axis=2)), 0.0))


@pytest.mark.parametrize("general", [False, True], ids=["standard", "general"])
@pytest.mark.parametrize("n", [16, 24, 64])
@pytest.mark.parametrize("rho", [4.0, np.inf])
@pytest.mark.parametrize(
    "pot", LAYOUT_POTENTIALS, ids=lambda pot: f"{pot['kind']}{pot.get('modes', pot.get('q_mode'))}"
)
def test_component_major_grid_is_bit_identical_to_trailing_layout(pot, rho, n, general):
    spec = hamiltonian_from_config(pot, rho=rho)
    triple = _structures(spec.n_pairs, general)
    rng = np.random.default_rng(n)
    z = random_band_limited(rng, n, spec.dim, 3, 0.15, "z", include_mean=True)
    z = TorusField(z.values + 1e-3 * rng.standard_normal(z.values.shape), "z")
    grid, ref = _FlowGrid(spec, triple, z), _TrailingGrid(pot, spec, triple, n)
    assert not grid.constant
    ds = 0.5 / mu_max(n)
    vals, zhat = grid.start
    ref_vals, ref_hat = z.values, np.fft.rfft2(z.values, axes=(0, 1), norm="forward")
    for weight in (1.0, 0.37, 0.0):
        vals, zhat = grid.step(zhat, grid.evaluate(vals), np.full(1, ds), weight)
        ref_vals, ref_hat = ref.step(ref_vals, ref_hat, ds, weight)
        assert vals.transpose(2, 0, 1).flags.c_contiguous
        assert vals.tobytes(order="C") == ref_vals.tobytes()
        assert zhat.tobytes(order="C") == ref_hat.tobytes()
        terms = grid.evaluate(vals)
        ref_action = np.float64(ref.action(ref_vals, ref_hat, weight))
        assert grid.action(zhat, terms, weight).tobytes() == ref_action.tobytes()
        ref_residual = np.float64(ref.residual(ref_vals, ref_hat))
        assert grid.residual(vals, zhat, terms).tobytes() == ref_residual.tobytes()
        assert grid.max_p_sq(terms)[0] == np.max(ref.terms(ref_vals)[0])
        field = grid.field(vals).values
        assert field.flags.c_contiguous and field.tobytes() == ref_vals.tobytes()


# the fast paths of one evaluation: the fused built-in call, the identity cut-off, the q-plane transform
BUILT_IN_POTENTIALS = ({"kind": "zero", "n_pairs": 1}, {"kind": "zero", "n_pairs": 2}) + LAYOUT_POTENTIALS


def _bits(x):
    x = np.asarray(x)
    return x.shape, x.tobytes(order="C")


@PROPERTY
@given(
    k=st.integers(0, len(BUILT_IN_POTENTIALS) - 1),
    seed=st.integers(0, 2**32 - 1),
    side=st.integers(1, 8),
    scale=st.sampled_from([0.1, 3.0, 1e3]),
)
def test_joint_evaluation_has_the_bits_of_value_and_grad(k, seed, side, scale):
    pot = nonlinearity_from_config(BUILT_IN_POTENTIALS[k])
    rng = np.random.default_rng(seed)
    z = rng.uniform(-scale, scale, size=(side, side, 4 * pot.n_pairs))
    t1, t2 = rng.uniform(0.0, 2.0 * np.pi, size=(2, side, side))
    for zz in (z, _component_major(z)):
        h, grad = pot.evaluate(t1, t2, zz, True, True)
        assert _bits(h) == _bits(pot.value(t1, t2, zz))
        assert _bits(grad) == _bits(pot.evaluate(t1, t2, zz, True, False)[1])


@st.composite
def built_in_configs(draw):
    """A config of each built-in kind at n = 1 or 2, with a drawn epsilon and integer frequencies of magnitude up to 511."""
    n = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(NONLINEARITY_KINDS))
    if kind == "zero":
        return {"kind": kind, "n_pairs": n}
    frequency = st.integers(-511, 511)
    q_mode = st.lists(frequency, min_size=2 * n, max_size=2 * n)
    cfg = {"kind": kind, "epsilon": draw(st.floats(-10.0, 10.0, allow_subnormal=False))}
    if kind == "trig_potential":
        return {**cfg, "modes": draw(st.lists(q_mode, min_size=1, max_size=3))}
    return {**cfg, "t_mode": draw(st.lists(frequency, min_size=2, max_size=2)), "q_mode": draw(q_mode)}


@settings(max_examples=200, deadline=None, database=None)
@given(cfg=built_in_configs(), seed=st.integers(0, 2**32 - 1))
def test_built_in_gradients_match_central_differences(cfg, seed):
    """Each built-in kind's gradient against central differences of its value, at every run-accepted frequency.

    Runs take no finite-difference test of a built-in; this is its test.  The step is 1e-5 / max(1, max|a|),
    a phase step of at most 1e-5, so the truncation error stays near (1e-5)^2 / 6 of |grad h|'s bound
    |epsilon| sum max(1, |a|); the tolerance is 1e-6 of that bound, and the p gradient is 0.
    """
    pot = nonlinearity_from_config(cfg)
    modes = np.atleast_2d(np.asarray(cfg.get("modes", cfg.get("q_mode", [0.0])), dtype=float))
    step = 1e-5 / max(1.0, float(np.max(np.abs(modes))))
    bound = abs(cfg.get("epsilon", 0.0)) * float(np.sum(np.maximum(1.0, np.linalg.norm(modes, axis=1))))
    rng = np.random.default_rng(seed)
    t1, t2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    for z in rng.uniform(-np.pi, np.pi, size=(4, 4 * pot.n_pairs)):
        fd = central_difference(lambda zz: pot.value(t1, t2, zz), z, step)
        grad = pot.evaluate(t1, t2, z, True, False)[1]
        assert np.max(np.abs(grad - fd)) <= 1e-6 * bound, (cfg, z)
        assert not grad[2 * pot.n_pairs :].any()


def _major(x):
    """Whether x is the (N, N', k) grid view of C-contiguous component planes, and not C-ordered itself."""
    return x.ndim == 3 and not x.flags.c_contiguous and x.transpose(2, 0, 1).flags.c_contiguous


@PROPERTY
@given(
    k=st.integers(0, len(BUILT_IN_POTENTIALS) - 1),
    seed=st.integers(0, 2**32 - 1),
    side=st.integers(1, 8),
    with_h=st.booleans(),
)
def test_layout_adapter_has_the_bits_of_the_c_ordered_evaluation(k, seed, side, with_h):
    """`_BuiltIn.evaluate` on z of each layout against the literal formulas on C-ordered z.

    h and grad h have the reference's bits, the gradient is component-major
    exactly when z is, and its p part is +0.0, byte for byte.  The inputs
    are the flow grid's layouts, a q-only array and `hofer_norm`'s
    time-dependent samples: times (T, 1) against states (1, Q, 4n).
    """
    cfg = BUILT_IN_POTENTIALS[k]
    pot = nonlinearity_from_config(cfg)
    dim_q = 2 * pot.n_pairs
    rng = np.random.default_rng(seed)
    grid = rng.uniform(-7.0, 7.0, size=(side, side, 2 * dim_q))
    wide = rng.uniform(-7.0, 7.0, size=(side, 2 * side, 2 * dim_q))
    t1, t2 = rng.uniform(0.0, 2.0 * np.pi, size=(2, side, side))
    ts1, ts2 = rng.uniform(0.0, 2.0 * np.pi, size=(2, side + 1, 1))
    cases = {
        "C-ordered grid": (t1, t2, grid),
        "component-major grid": (t1, t2, _component_major(grid)),
        "slice of a grid": (t1, t2, wide[:, ::2]),
        "q-only grid": (t1, t2, np.ascontiguousarray(grid[..., :dim_q])),
        "component-major q-only grid": (t1, t2, _component_major(grid[..., :dim_q])),
        "broadcast times": (ts1, ts2, grid.reshape(1, side * side, 2 * dim_q)),
    }
    for name, (s1, s2, z) in cases.items():
        h, grad = pot.evaluate(s1, s2, z, True, with_h)
        ref_h, ref_grad = _reference_potential(cfg, s1, s2, z)
        assert (h is not None) == with_h and (h is None or _bits(h) == _bits(ref_h)), name
        assert _bits(grad) == _bits(ref_grad), name
        assert _major(grad) == _major(z), name
        assert not grad[..., dim_q:].view(np.uint64).any(), name


@PROPERTY
@given(
    key=spec_keys,
    seed=st.integers(0, 2**32 - 1),
    side=st.integers(1, 8),
    place=st.sampled_from(["inside", "ramp", "beyond"]),
    nonfinite=st.booleans(),
    major=st.booleans(),
)
def test_cutoff_terms_match_the_literal_formula_in_each_region(key, seed, side, place, nonfinite, major):
    """All |p|^2 <= rho - 1, some on the ramp (rho - 1, rho) or some beyond rho; maybe q = inf somewhere."""
    pot, spec = POTENTIALS[key[0]], SPECS[key]
    rng = np.random.default_rng(seed)
    inner = spec.rho - 1.0 if np.isfinite(spec.rho) else 3.0
    p_sq = rng.uniform(0.0, inner, size=side * side)
    p_sq[0] = inner
    count = rng.integers(1, side * side + 1)
    if place == "ramp":
        p_sq[-count:] = rng.uniform(inner, inner + 1.0, size=count)
    elif place == "beyond":
        p_sq[-count:] = rng.uniform(inner + 1.0, inner + 3.0, size=count)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=side * side)
    q = rng.uniform(-np.pi, np.pi, size=(2, side * side))
    p = np.sqrt(p_sq) * np.stack([np.cos(angle), np.sin(angle)])
    z = np.concatenate([q, p]).T.reshape(side, side, 4).copy()
    if nonfinite:
        z[0, 0, 0] = np.inf
    t1, t2 = rng.uniform(0.0, 2.0 * np.pi, size=(2, side, side))
    zz = _component_major(z) if major else z
    # q = inf on purpose: the phases there are invalid (sin and cos of inf are NaN)
    with np.errstate(invalid="ignore" if nonfinite else "warn"):
        psq, h, grad = _separate_evaluations(pot, spec, t1, t2, z)
        terms = cutoff_terms(spec, t1, t2, zz)
        only = cutoff_terms(spec, t1, t2, zz, with_h=False)
        tilde = h_tilde(spec, t1, t2, zz)
    assert _bits(terms.p_sq) == _bits(psq)
    assert _bits(terms.h) == _bits(h)
    assert _bits(terms.grad) == _bits(grad)
    assert _bits(tilde) == _bits(h)
    identity = np.isinf(spec.rho) or np.max(psq) <= spec.rho - 1.0
    assert terms.p_grad_zero == (identity and (np.isinf(spec.rho) or not nonfinite))
    if terms.p_grad_zero:
        assert not np.any(terms.grad[..., 2:].view(np.uint64))
    # the gradient alone: the bits of the evaluation with h wherever h is finite
    assert only.h is None
    assert _bits(only.p_sq) == _bits(psq)
    assert only.p_grad_zero == identity
    finite_h = np.isfinite(h)
    assert _bits(only.grad[finite_h]) == _bits(grad[finite_h])
    assert nonfinite != finite_h.all()
    # where h is not finite, a phase is not: the q gradient is not finite either, with h or without
    for g in (only.grad, grad):
        assert not np.isfinite(g[~finite_h][:, :2]).all(axis=1).any()


def _parent_step(grid, pot, vals, zhat, ds, weight):
    """The full grid's step transforming every plane of the nonlinearity, from the reference gradient."""
    prop = grid._propagators(ds)
    nl = weight * _separate_evaluations(pot, grid.spec, grid.t1, grid.t2, vals)[2]
    rhs = zhat + ds[:, None, None] * floer._rfft2(nl)
    planes = np.einsum("abxy,bxy->axy", prop, np.ascontiguousarray(floer._planes(rhs)))
    new_hat = floer._grid(planes)
    return floer._irfft2(new_hat, grid.n), new_hat


@PROPERTY
@given(
    k=st.integers(0, len(BUILT_IN_POTENTIALS) - 1),
    rho=st.sampled_from([4.0, np.inf]),
    half=st.integers(4, 40),
    seed=st.integers(0, 2**32 - 1),
    frac=st.sampled_from([0.5, 1e-6, 0.99]),
)
def test_q_plane_step_matches_the_step_that_transforms_every_plane(k, rho, half, seed, frac):
    n, pot = 2 * half, BUILT_IN_POTENTIALS[k]
    spec = hamiltonian_from_config(pot, rho=rho)
    rng = np.random.default_rng(seed)
    z = random_band_limited(rng, n, spec.dim, 3, 0.02, "z", include_mean=True).values
    z = z + 1e-3 * rng.standard_normal(z.shape)
    z /= max(1.0, np.sqrt(np.max(np.sum(z[..., spec.dim // 2 :] ** 2, axis=-1))))  # |p|^2 <= 1 < rho - 1
    grid = _FlowGrid(spec, _structures(spec.n_pairs, False), TorusField(z, "z"))
    ds = np.full(1, frac / mu_max(n))
    vals, zhat = ref_vals, ref_hat = grid.start
    assert grid.evaluate(vals).p_grad_zero  # the first step takes the q-plane path; later ones may leave it
    for weight in (1.0, 0.37, 1.0):
        ref_grad = _separate_evaluations(pot, spec, grid.t1, grid.t2, vals)[2]
        terms = grid.evaluate(vals)
        rhs = grid._rhs(zhat, terms, ds[:, None, None], weight)
        assert _bits(rhs) == _bits(zhat + ds[:, None, None] * floer._rfft2(weight * ref_grad))
        vals, zhat = grid.step(zhat, terms, ds, weight)
        ref_vals, ref_hat = _parent_step(grid, pot, ref_vals, ref_hat, ds, weight)
        assert _bits(vals) == _bits(ref_vals)
        assert _bits(zhat) == _bits(ref_hat)


# the constant grid: each seed on two grid points, its grid means in closed form


def _constant_grid(spec, n, z):
    """The constant grid of an N grid holding the constant states z, one (4n,) row of z per seed."""
    return _FlowGrid.constants(spec, n, z)


@settings(PROPERTY, max_examples=100)
@given(
    n=st.sampled_from([8, 16, 32, 64]),
    n_pairs=st.sampled_from([1, 2]),
    general=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_zero_mode_propagator_is_exactly_diagonal(n, n_pairs, general, seed, data):
    """At (0, 0), (Id + ds L(0))^(-1) = diag(1, 1/(1 - ds)) to the last bit, zeros and imaginary parts included.

    The constant grid's step rests on it: it scales each value row by that
    diagonal, which the grid holds per seed.
    """
    mu = mu_max(n)
    step = st.floats(0.0, 1.0 / mu, exclude_min=True, exclude_max=True).filter(lambda ds: ds * mu < 1.0)
    ds = np.array(data.draw(st.lists(step, min_size=1, max_size=3)))
    rng = np.random.default_rng(seed)
    triple = compatible_triple(*random_regularized_pair(rng, n_pairs)) if general else standard_structures(n_pairs)
    half = 2 * n_pairs
    grid = _constant_grid(hamiltonian_from_config({"kind": "zero", "n_pairs": n_pairs}), n, np.zeros((len(ds), 2 * half)))
    factors = grid._propagators(ds)
    for d, row in zip(ds.tolist(), factors):
        prop = _propagator(n, d, triple, np.s_[:1, :1])
        diagonal = np.concatenate([np.ones(half), np.full(half, 1.0 / (1.0 - d))])
        assert prop.tobytes() == np.diag(diagonal).astype(complex)[None, None].tobytes()
        assert row.tobytes() == np.broadcast_to(diagonal, row.shape).tobytes()


grid_means = st.one_of(
    st.floats(1e-300, 1e300),
    st.floats(-1e300, -1e-300),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1.7e308]),
)


@settings(PROPERTY, max_examples=100)
@given(n=st.sampled_from([8, 16, 32, 64, 128, 256]), values=st.lists(grid_means, min_size=1, max_size=40))
def test_constant_grid_mean_is_the_mean_of_the_filled_grid(n, values):
    grid = _constant_grid(SPECS[0, np.inf], n, np.zeros((len(values), 4)))
    x = np.repeat(np.array(values)[:, None], floer.CONSTANT_ROW, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = [np.add.reduce(np.full(n * n, v)) / (n * n) for v in values]
        assert _bits(grid.mean(x)) == _bits(np.array(ref))


@PROPERTY
@given(
    k=st.integers(0, len(LAYOUT_POTENTIALS) - 1),
    rho=st.sampled_from([4.0, np.inf]),
    n=st.sampled_from([8, 16, 32, 64]),
    seeds=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_point_rows_evaluate_like_the_full_grid(k, rho, n, seeds, seed):
    """The constant grid's rows against each seed's full grid, C-ordered and component-major.

    |p|^2 lies inside, on or beyond the cut-off ramp, seed by seed, so a batch
    mixes the identity cut-off of some full grids with the ramp of others.
    """
    spec = hamiltonian_from_config(LAYOUT_POTENTIALS[k], rho=rho)
    rng = np.random.default_rng(seed)
    z = rng.uniform(-np.pi, np.pi, size=(seeds, spec.dim))
    p = z[:, spec.dim // 2 :]
    p *= np.sqrt(rng.uniform(0.0, 5.0, size=(seeds, 1)) / np.sum(p * p, axis=1, keepdims=True))
    grid = _constant_grid(spec, n, z)
    row = grid.evaluate(grid.start[0])
    t1, t2 = grid_points(n)
    for b, v in enumerate(z):
        full = np.broadcast_to(v, (n, n, spec.dim)).copy()
        for zz in (full, _component_major(full)):
            ref = cutoff_terms(spec, t1, t2, zz)
            for got, want in zip(row[:3], ref[:3]):
                assert _bits(got[b]) == _bits(want[0, : floer.CONSTANT_ROW])
                if not spec.potential.time_dependent:  # a constant state of an autonomous h: one value everywhere
                    assert _bits(want) == _bits(np.broadcast_to(want[:1, :1], want.shape))


def _pairing_action(grid, vals, zhat, weight):
    """The action with the Parseval pairing formed, as every grid took it before the constant shortcut."""
    zhat = zhat.astype(complex)  # a constant grid's real (0, 0) modes, as the full grid holds them
    n = grid.spec.n_pairs
    qa, qb = zhat[:, :, :n], zhat[:, :, n : 2 * n]
    pa, pb = zhat[:, :, 2 * n : 3 * n], zhat[:, :, 3 * n :]
    va = grid.im1 * qa + grid.im2 * qb
    vb = grid.im1 * qb - grid.im2 * qa
    pairing = grid.parseval * (np.conj(pa) * va + np.conj(pb) * vb).real
    pairing = np.add.reduce(pairing.reshape(len(pairing), -1), axis=1)
    terms = grid.evaluate(vals)
    return pairing - grid.mean(0.5 * terms.p_sq + weight * terms.h)


# lattice points, the saddles (0, pi) and (pi, 0) among them, where h = 0; signed zeros;
# momenta on and beyond the cut-off ramp, ones whose |p|^2 overflows, and non-finite states
constant_components = st.one_of(
    st.sampled_from([0.0, -0.0, np.pi, -np.pi, 2.0 * np.pi, 1.5, -2.5, 1e155, -1e200]),
    st.sampled_from([np.inf, -np.inf, np.nan]),
    st.floats(-10.0, 10.0),
)


@settings(PROPERTY, max_examples=60)
@given(
    seeds=st.sampled_from([1, 32]),
    weight=st.sampled_from([0.0, 0.37, 1.0]),
    n=st.sampled_from([16, 32]),
    rho=st.sampled_from([4.0, np.inf]),
    data=st.data(),
)
def test_constant_grid_action_has_the_bits_of_the_pairing_formula(seeds, weight, n, rho, data):
    spec = hamiltonian_from_config({**POTENTIALS[0], "epsilon": 2.5}, rho=rho)
    point = st.lists(constant_components, min_size=4, max_size=4)
    z = np.array(data.draw(st.lists(point, min_size=seeds, max_size=seeds)))
    if data.draw(st.booleans()):  # a saddle with +-0 momenta, so that H = 0 on some seed
        z[0] = [0.0, np.pi, data.draw(st.sampled_from([0.0, -0.0])), data.draw(st.sampled_from([0.0, -0.0]))]
    grid = _constant_grid(spec, n, z)
    vals, zhat = grid.start
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(grid.action(zhat, grid.evaluate(vals), weight)) == _bits(_pairing_action(grid, vals, zhat, weight))


@settings(PROPERTY, max_examples=50)
@given(
    n_pairs=st.sampled_from([1, 2]),
    data=st.data(),
    n=st.sampled_from([8, 16, 32, 64]),
    rows=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_trig_evaluate_has_the_bits_of_the_transposed_modes_formula(n_pairs, data, n, rows, seed):
    """Every caller layout against the formula on a C-ordered q and the transposed view of the modes.

    The evaluation copies a component-major q plane by plane and multiplies
    a contiguous copy of modes.T; a matrix-vector product (one row) keeps the view.
    """
    row = st.lists(st.integers(-3, 3), min_size=2 * n_pairs, max_size=2 * n_pairs)
    modes = np.array(data.draw(st.lists(row, min_size=1, max_size=4)), dtype=float)
    epsilon = data.draw(st.floats(0.01, 3.0))
    pot = TrigPotential(epsilon, modes)
    rng = np.random.default_rng(seed)
    dim = 4 * n_pairs
    grid = rng.uniform(-7.0, 7.0, size=(n, n, dim))
    layouts = {
        "component-major grid": _component_major(grid),
        "C-ordered grid": grid,
        "constant rows": rng.uniform(-7.0, 7.0, size=(rows, floer.CONSTANT_ROW, dim)),
        "samples": rng.uniform(-7.0, 7.0, size=(rows, dim)),
        "one row": rng.uniform(-7.0, 7.0, size=(1, dim)),
        "one-row seeds": rng.uniform(-7.0, 7.0, size=(rows, 1, dim)),
        "point": rng.uniform(-7.0, 7.0, size=dim),
    }
    for name, z in layouts.items():
        phases = np.ascontiguousarray(z[..., : 2 * n_pairs]) @ modes.T
        grad = np.zeros_like(z)
        grad[..., : 2 * n_pairs] = -epsilon * (np.sin(phases) @ modes)
        h, got = pot.evaluate(0.0, 0.0, z, True, True)
        assert _bits(h) == _bits(epsilon * component_sum(np.cos(phases))), name
        assert _bits(got) == _bits(grad) and got.strides == grad.strides, name


@pytest.mark.parametrize("general", [False, True], ids=["standard", "general"])
@pytest.mark.parametrize("n", [16, 24, 64])
def test_residual_map_has_the_bits_of_the_trailing_layout_dirac(n, general):
    """dirac on contiguous planes against the products on the C-ordered (N, N/2 + 1, 4n) modes."""
    spec = hamiltonian_from_config(LAYOUT_POTENTIALS[3], rho=4.0)
    grid = _FlowGrid(spec, _structures(spec.n_pairs, general), random_band_limited(
        np.random.default_rng(n), n, spec.dim, 3, 0.15, "z", include_mean=True
    ))
    vals, zhat = grid.start
    vals, zhat = grid.step(zhat, grid.evaluate(vals), np.full(1, 0.5 / mu_max(n)), 1.0)
    terms = grid.evaluate(vals)
    modes = np.ascontiguousarray(zhat)
    dhat = grid.im1 * (modes @ grid.triple.J.T) + grid.im2 * (modes @ grid.triple.K.T)
    dirac_values = np.fft.irfft2(dhat, s=(n, n), axes=(0, 1), norm="forward")
    ref = dirac_values - grad_H_values(spec, terms.grad, vals)
    assert _bits(grid.residual_map(vals, zhat, terms)) == _bits(ref)
