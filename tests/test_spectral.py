import numpy as np
import pytest

from torusfloer.spectral import (
    FieldError,
    TorusField,
    constant_field,
    derivative,
    dirac,
    field_from_modes,
    grid_points,
    l2_inner,
    l2_norm,
    laplacian,
    random_band_limited,
    sobolev_norm,
)
from torusfloer.structures import standard_structures
from torusfloer.symbol import symbol_matrix

from conftest import mode_block


def coefficients(field):
    """The mode coefficients of a field, numpy FFT ordering."""
    return np.fft.fft2(field.values, axes=(0, 1), norm="forward")


def test_field_validation():
    with pytest.raises(FieldError):
        TorusField(np.zeros((7, 7, 1)), "scalar")  # odd grid
    with pytest.raises(FieldError):
        TorusField(np.zeros((4, 4, 1)), "scalar")  # too small
    with pytest.raises(FieldError):
        TorusField(np.full((8, 8, 1), np.nan), "scalar")
    with pytest.raises(FieldError):
        TorusField(np.zeros((8, 8, 3)), "z")  # bad component count


def test_fields_are_immutable():
    f = constant_field(8, [1.0], "scalar")
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 2.0


def test_constant_field_single_zero_mode():
    f = constant_field(16, [2.5, -1.0], "q")
    modes = coefficients(f)
    assert modes[0, 0, 0] == pytest.approx(2.5)
    assert modes[0, 0, 1] == pytest.approx(-1.0)
    off = modes.copy()
    off[0, 0, :] = 0
    assert np.max(np.abs(off)) < 1e-15


def test_cosine_modes_are_half():
    t1, _ = grid_points(16)
    f = TorusField(np.cos(t1)[:, :, None], "scalar")
    modes = coefficients(f)[:, :, 0].copy()
    assert modes[1, 0] == pytest.approx(0.5, abs=1e-14)
    assert modes[-1, 0] == pytest.approx(0.5, abs=1e-14)
    modes[1, 0] = modes[-1, 0] = 0.0
    assert np.max(np.abs(modes)) < 1e-14


def test_field_values_are_c_contiguous(rng):
    v = rng.standard_normal((8, 8, 4))
    layouts = {
        "fortran": np.asfortranarray(v),
        "component-major": v.transpose(2, 0, 1).copy().transpose(1, 2, 0),
        "broadcast": np.broadcast_to(v[:1, :1], v.shape),
    }
    for name, x in layouts.items():
        f = TorusField(x, "z")
        assert f.values.flags.c_contiguous, name
        assert np.array_equal(f.values, x), name


def test_derivative_d1_sine():
    t1, _ = grid_points(32)
    f = TorusField(np.sin(t1)[:, :, None], "scalar")
    df = derivative(f, "d1")
    assert np.max(np.abs(df.values[:, :, 0] - np.cos(t1))) < 1e-12


def test_dt_reproduces_momentum_convention():
    # q = (cos t1, sin t1): the holomorphic velocity 2*dt(q) must come out
    # as (d1 q1 + d2 q2, d1 q2 - d2 q1) = (-sin t1, cos t1)
    t1, _ = grid_points(32)
    q = np.stack([np.cos(t1), np.sin(t1)], axis=2)
    f = TorusField(q, "q")
    v = 2.0 * derivative(f, "dt").values
    assert np.max(np.abs(v[:, :, 0] + np.sin(t1))) < 1e-12
    assert np.max(np.abs(v[:, :, 1] - np.cos(t1))) < 1e-12


def test_dt_dtbar_compose_to_quarter_laplacian(rng):
    f = random_band_limited(rng, 24, 2, max_mode=5, layout="q")
    lhs = derivative(derivative(f, "dt"), "dtbar").values
    rhs = 0.25 * laplacian(f).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_dirac_constant_is_zero():
    triple = standard_structures(1)
    z = constant_field(16, [1.0, -2.0, 0.5, 3.0], "z")
    assert l2_norm(dirac(z, triple)) == 0.0


def test_dirac_squared_is_minus_laplacian(rng):
    triple = standard_structures(1)
    for _ in range(5):
        z = TorusField(rng.standard_normal((32, 32, 4)), "z")
        dd = dirac(dirac(z, triple), triple)
        defect = TorusField(dd.values + laplacian(z).values, "z")
        assert l2_norm(defect) < 1e-10 * sobolev_norm(z, 2)


def test_dirac_matches_mode_block(rng):
    # single-mode field: the output coefficient must be i(m1 J + m2 K) v,
    # the mode block of the linearized operator without its zeroth-order part
    triple = standard_structures(1)
    for m in [(1, 0), (0, 1), (2, -3), (-4, 5)]:
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z = field_from_modes(16, 4, {m: v}, "z")
        out = coefficients(dirac(z, triple))[m[0] % 16, m[1] % 16]
        expected = (symbol_matrix(0.0, *m) + np.diag([0.0, 0.0, 1.0, 1.0])) @ v
        assert np.max(np.abs(out - expected)) < 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_dirac_block_action_n2(rng):
    # two pairs: the operator acts blockwise, one copy per complex pair
    triple = standard_structures(2)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    full = np.zeros(8, dtype=complex)
    full[[0, 2, 4, 6]] = v  # pair 0 sits at (q1_0, q2_0, p1_0, p2_0)
    z = field_from_modes(16, 8, {(1, 2): full}, "z")
    out = coefficients(dirac(z, triple))[1, 2][[0, 2, 4, 6]]
    expected = (mode_block(1, 2) + np.diag([0.0, 0.0, 1.0, 1.0])) @ v
    assert np.max(np.abs(out - expected)) < 1e-12


def test_laplacian_cosine():
    t1, _ = grid_points(16)
    f = TorusField(np.cos(t1)[:, :, None], "scalar")
    assert np.max(np.abs(laplacian(f).values[:, :, 0] + np.cos(t1))) < 1e-12


def test_l2_inner_cosine_half():
    t1, _ = grid_points(16)
    f = TorusField(np.cos(t1)[:, :, None], "scalar")
    assert l2_inner(f, f) == pytest.approx(0.5, abs=1e-14)


def test_sobolev_norm_cosine():
    t1, _ = grid_points(16)
    f = TorusField(np.cos(t1)[:, :, None], "scalar")
    # modes (+-1, 0) carry 1/4 each, weight (1 + 1)^1
    assert sobolev_norm(f, 1) ** 2 == pytest.approx(1.0, abs=1e-13)


def test_integration_by_parts(rng):
    a = TorusField(rng.standard_normal((16, 16, 1)), "scalar")
    b = TorusField(rng.standard_normal((16, 16, 1)), "scalar")
    lhs = l2_inner(derivative(a, "d1"), b)
    rhs = -l2_inner(a, derivative(b, "d1"))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_parseval(rng):
    f = TorusField(rng.standard_normal((16, 16, 3)), "generic")
    coeffs = coefficients(f)
    assert l2_inner(f, f) == pytest.approx(float(np.sum(np.abs(coeffs) ** 2)), rel=1e-12)


def test_field_from_modes_rejects_complex_mean():
    with pytest.raises(FieldError):
        field_from_modes(8, 1, {(0, 0): [1j]}, "scalar")


def test_random_band_limited_is_band_limited(rng):
    f = random_band_limited(rng, 32, 2, max_mode=3, layout="q")
    coeffs = coefficients(f)
    m = np.rint(np.fft.fftfreq(32, 1 / 32)).astype(int)
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    outside = (np.abs(m1) > 3) | (np.abs(m2) > 3)
    assert np.max(np.abs(coeffs[outside])) < 1e-15
