import numpy as np
import pytest

from torusfloer.structures import (
    StructureError,
    check_regularized_pair,
    compatible_triple,
    current_check,
    holomorphic_form,
    polysymplectic_pair,
    random_regularized_pair,
    standard_structures,
)

# the flat Darboux-frame block matrices on R^4
J4 = np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
K4 = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)
I4 = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)


def test_standard_structures_n1_exact():
    t = standard_structures(1)
    assert np.array_equal(t.J, J4)
    assert np.array_equal(t.K, K4)
    assert np.array_equal(t.I, I4)
    assert np.array_equal(t.g, np.eye(4))
    assert np.array_equal(t.omega1, J4)
    assert np.array_equal(t.omega2, K4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_standard_structures_identities_exact(n):
    t = standard_structures(n)
    dim = 4 * n
    assert np.array_equal(t.J @ t.J, -np.eye(dim))
    assert np.array_equal(t.K @ t.K, -np.eye(dim))
    assert np.array_equal(t.I @ t.J, t.K)
    assert np.array_equal(t.J @ t.K + t.K @ t.J, np.zeros((dim, dim)))
    assert np.array_equal(t.omega2, -t.omega1 @ t.I)


@pytest.mark.parametrize("n", [1, 2])
def test_standard_structures_are_built_once_and_read_only(n):
    """Every flow grid shares the one triple of its n, so no caller may write to it."""
    t = standard_structures(n)
    assert standard_structures(n) is t
    with pytest.raises(ValueError, match="read-only"):
        t.J[0, 0] = 5.0
    assert np.array_equal(t.J @ t.J, -np.eye(4 * n))


def test_standard_structures_rejects_bad_n():
    with pytest.raises(StructureError):
        standard_structures(0)
    with pytest.raises(StructureError):
        standard_structures(-2)


def test_check_pair_standard_passes():
    t = standard_structures(1)
    report = check_regularized_pair(t.omega1, t.omega2, t.I)
    assert report.passed
    assert all(v == 0.0 for v in report.residuals.values())


def test_check_pair_sign_flip_fails_on_pairing_only():
    t = standard_structures(1)
    report = check_regularized_pair(t.omega1, -t.omega2, t.I)
    assert not report.passed
    assert report.failed_checks() == ["pairing"]


def test_check_pair_dimension_mismatch():
    t = standard_structures(1)
    with pytest.raises(StructureError):
        check_regularized_pair(t.omega1, np.eye(6), t.I)
    with pytest.raises(StructureError):
        check_regularized_pair(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))


def test_random_pair_generator_passes_checker(rng):
    # the generator inverts the pair <-> complex-form correspondence; its
    # output must satisfy the defining identities by direct matrix residuals
    for n in (1, 2):
        for _ in range(10):
            w1, w2, big_i = random_regularized_pair(rng, n)
            report = check_regularized_pair(w1, w2, big_i)
            assert report.passed, report._asdict()


def test_compatible_triple_standard_exact():
    t = standard_structures(1)
    out = compatible_triple(t.omega1, t.omega2, t.I)
    assert np.array_equal(out.J, J4)
    assert np.array_equal(out.K, K4)
    assert np.array_equal(out.g, np.eye(4))


def test_compatible_triple_scaling_invariance():
    t = standard_structures(1)
    out = compatible_triple(2.0 * t.omega1, 2.0 * t.omega2, t.I)
    assert np.array_equal(out.g, 2.0 * np.eye(4))
    assert np.array_equal(out.J, J4)
    assert np.array_equal(out.K, K4)


@pytest.mark.parametrize("n", [1, 2])
def test_compatible_triple_random_pairs(rng, n):
    for _ in range(25):
        w1, w2, big_i = random_regularized_pair(rng, n)
        out = compatible_triple(w1, w2, big_i)
        residuals = out.algebra_residuals()
        assert max(residuals.values()) < 1e-10, residuals
        assert np.max(np.abs(out.g - out.g.T)) < 1e-12 * np.linalg.norm(out.g, 2)
        assert np.min(np.linalg.eigvalsh(0.5 * (out.g + out.g.T))) > 0.0


def test_compatible_triple_with_aux_metric(rng):
    t = standard_structures(1)
    a = rng.standard_normal((4, 4))
    g0 = a @ a.T + 4.0 * np.eye(4)
    aux = g0 + t.I.T @ g0 @ t.I  # exactly I-invariant by construction
    out = compatible_triple(t.omega1, t.omega2, t.I, aux_metric=aux)
    assert max(out.algebra_residuals().values()) < 1e-10


def test_compatible_triple_symmetrizes_non_invariant_aux():
    # a non-invariant seed metric is averaged with its I pullback first;
    # the construction then goes through and the identities still hold
    t = standard_structures(1)
    aux = np.diag([1.0, 2.0, 3.0, 4.0])
    out = compatible_triple(t.omega1, t.omega2, t.I, aux_metric=aux)
    assert max(out.algebra_residuals().values()) < 1e-12


def test_compatible_triple_rejects_bad_aux():
    t = standard_structures(1)
    with pytest.raises(StructureError, match="symmetric"):
        compatible_triple(t.omega1, t.omega2, t.I, aux_metric=t.J)
    with pytest.raises(StructureError, match="positive definite"):
        compatible_triple(t.omega1, t.omega2, t.I, aux_metric=-np.eye(4))


def test_compatible_triple_rejects_degenerate_pair():
    t = standard_structures(1)
    with pytest.raises(StructureError):
        compatible_triple(np.zeros((4, 4)), t.omega2, t.I)


def test_holomorphic_form_round_trip(rng):
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))
    w1, w2 = a - a.T, b - b.T
    wc = holomorphic_form(w1, w2)
    r1, r2 = polysymplectic_pair(wc)
    assert np.array_equal(r1, w1)
    assert np.array_equal(r2, w2)


def test_holomorphic_form_rejects_non_antisymmetric():
    with pytest.raises(StructureError):
        holomorphic_form(np.eye(4), np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# currents


def _sample_points(rng, n, count=6):
    return rng.uniform(-1.0, 1.0, size=(count, 4 * n))


def test_current_constant(rng):
    report = current_check(lambda z: (3.0, -2.0), _sample_points(rng, 1))
    assert report.is_current
    assert np.max(np.abs(report.x_f)) < 1e-9


def test_current_bilinear_holomorphic(rng):
    # F = (q1 + i q2)(p1 - i p2) as (Re, Im): holomorphic in the chart
    def f(z):
        zq = z[0] + 1j * z[1]
        zp = z[2] - 1j * z[3]
        w = zq * zp
        return (w.real, w.imag)

    report = current_check(f, _sample_points(rng, 1))
    assert report.is_current
    assert report.x_f_mismatch < 1e-6


def test_current_hamiltonian_field_formula(rng):
    # F = (p1 - i p2) as (Re, Im): X_F = (-1, 0, 0, 0) in both column forms
    def f(z):
        return (z[2], -z[3])

    report = current_check(f, _sample_points(rng, 1, count=3))
    assert report.is_current
    expected = np.array([-1.0, 0.0, 0.0, 0.0])
    assert np.max(np.abs(report.x_f - expected)) < 1e-9


def test_current_rejects_real_coordinate():
    report = current_check(lambda z: (z[0], 0.0), np.zeros((1, 4)))
    assert not report.is_current
    # the broken relation is dF1/dq1 = dF2/dq2 with defect exactly 1
    assert report.max_cr_residual == pytest.approx(1.0, abs=1e-9)


def _random_holomorphic_poly(rng, degree=3):
    coeffs = {}
    for dq in range(degree + 1):
        for dp in range(degree + 1 - dq):
            coeffs[(dq, dp)] = rng.standard_normal() + 1j * rng.standard_normal()

    def f(z):
        zq = z[0] + 1j * z[1]
        zp = z[2] - 1j * z[3]
        w = sum(c * zq**a * zp**b for (a, b), c in coeffs.items())
        return (w.real, w.imag)

    return f


def test_current_accepts_holomorphic_polynomials(rng):
    points = rng.uniform(-0.8, 0.8, size=(5, 4))
    for _ in range(10):
        report = current_check(_random_holomorphic_poly(rng), points, step=1e-5, tol=1e-6)
        assert report.is_current


def test_current_rejects_nonconstant_real_component(rng):
    points = rng.uniform(-0.8, 0.8, size=(5, 4))
    for _ in range(10):
        c = rng.standard_normal(4)

        def f(z, c=c):
            return (float(c @ z + (c @ z) ** 2), 0.0)

        report = current_check(f, points, step=1e-5, tol=1e-6)
        assert not report.is_current
