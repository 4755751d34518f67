import numpy as np
import pytest

from torusfloer.symbol import (
    MIN_MODE_SQ_THRESHOLD,
    P_MATRIX,
    certified_margin,
    det_formula,
    eig_bound_margin,
    eigenvalue_formula,
    minimal_N_search,
    mode_matrix,
    symbol_det,
    symbol_eigs,
    symbol_matrix,
    symbol_report,
    sweep_rows,
)


def test_symbol_matrix_printed_positions():
    m = symbol_matrix(0.0, 1, 0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = -1j
    expected[1, 3] = -1j
    expected[2, 0] = 1j
    expected[3, 1] = 1j
    expected -= P_MATRIX
    assert np.array_equal(m, expected)


def test_symbol_matrix_zero_frequency_is_minus_projector():
    assert np.array_equal(symbol_matrix(0.0, 0, 0), -P_MATRIX.astype(complex))


def test_symbol_matrix_pure_xi():
    m = symbol_matrix(1.0, 0, 0)
    assert np.array_equal(m, 1j * np.eye(4) - P_MATRIX)


def test_det_pinned_values():
    assert symbol_det(0, 0, 0).numeric == 0
    r = symbol_det(1, 0, 0)
    assert r.formula == pytest.approx(2j)
    assert abs(r.numeric - 2j) < 1e-12
    r = symbol_det(0, 1, 0)
    assert r.formula == pytest.approx(1.0)
    assert abs(r.numeric - 1.0) < 1e-12


def test_eigs_zero_frequency_matches_projector_spectrum():
    # independent oracle: eigendecomposition of -P
    oracle = np.sort(np.linalg.eigvals(-P_MATRIX).real)
    r = symbol_eigs(0, 0, 0)
    assert r.lambda_plus == pytest.approx(-1.0)
    assert r.lambda_minus == pytest.approx(0.0)
    assert np.allclose(np.sort(r.numeric.real), oracle, atol=1e-12)
    assert np.max(np.abs(r.numeric.imag)) < 1e-12


def test_eigs_mode_one():
    r = symbol_eigs(0, 1, 0)
    assert r.lambda_plus == pytest.approx((-1 - np.sqrt(5)) / 2)
    assert r.lambda_minus == pytest.approx((-1 + np.sqrt(5)) / 2)
    assert r.residual < 1e-12


def test_det_and_eigs_random_sample(rng):
    xi = rng.uniform(-100, 100, size=500)
    m1 = rng.integers(-100, 101, size=500)
    m2 = rng.integers(-100, 101, size=500)
    mats = symbol_matrix(xi, m1, m2)
    dets = np.linalg.det(mats)
    formulas = det_formula(xi, m1, m2)
    assert np.max(np.abs(dets - formulas) / np.maximum(1.0, np.abs(formulas))) < 1e-10
    lam_p, lam_m = eigenvalue_formula(xi, m1, m2)
    eigs = np.linalg.eigvals(mats)
    expected = np.stack([lam_p, lam_p, lam_m, lam_m], axis=-1)
    order = np.lexsort((eigs.imag, eigs.real), axis=-1)
    eigs = np.take_along_axis(eigs, order, axis=-1)
    order = np.lexsort((expected.imag, expected.real), axis=-1)
    expected = np.take_along_axis(expected, order, axis=-1)
    scale = np.maximum(1.0, np.max(np.abs(expected), axis=-1))
    assert np.max(np.max(np.abs(eigs - expected), axis=-1) / scale) < 1e-10


def test_eigenvalues_real_and_imag_split():
    # lam = -(1 +/- sqrt(1+4M))/2 + i*xi: imaginary part is exactly xi
    lam_p, lam_m = eigenvalue_formula(0.7, 3, -4)
    assert lam_p.imag == pytest.approx(0.7)
    assert lam_m.imag == pytest.approx(0.7)
    root = np.sqrt(1 + 4 * 25)
    assert lam_p.real == pytest.approx(-(1 + root) / 2)
    assert lam_m.real == pytest.approx(-(1 - root) / 2)


def test_invertibility_only_fails_at_zero():
    assert not symbol_report(0, 0, 0).invertible
    for args in [(0.5, 0, 0), (0, 1, 0), (0, 0, -1), (1e-3, 0, 0), (0, 7, -2)]:
        assert symbol_report(*args).invertible
    # kernel at the zero frequency is the constant q direction
    kernel = symbol_matrix(0, 0, 0) @ np.eye(4)[:, :2]
    assert np.max(np.abs(kernel)) == 0.0


def test_report_det_equals_eigenvalue_product():
    rep = symbol_report(0.3, 2, -1)
    assert rep.residuals["det_vs_eig_product"] < 1e-12


def test_large_mode_lower_bound():
    lam_p, lam_m = eigenvalue_formula(0.0, 10, 10)
    for lam in (lam_p, lam_m):
        assert abs(lam) ** 2 >= 0.5 * (100 + 100)


def test_bound_margin_closed_form():
    # fails at M=1, equality at M=0 and M=2
    assert eig_bound_margin(0, 0) == pytest.approx(0.0, abs=1e-14)
    assert eig_bound_margin(1, 0) < -0.1
    assert eig_bound_margin(1, 1) == pytest.approx(0.0, abs=1e-12)
    assert eig_bound_margin(2, 0) > 0.1


def test_certified_margin_matches_closed_form():
    for m in [(0, 0), (1, 0), (1, 1), (3, 2)]:
        margin, certified, _ = certified_margin(*m, xi_bound=50.0)
        assert certified
        assert margin == pytest.approx(eig_bound_margin(*m), abs=1e-10)


def test_minimal_N_search():
    result = minimal_N_search(xi_bound=100.0, m_bound=12)
    assert result.certified
    assert result.n_min == MIN_MODE_SQ_THRESHOLD == 1
    assert [(f["m1"], f["m2"]) for f in result.failures] == [(-1, 0)] or all(
        f["msq"] == 1 for f in result.failures
    )
    # spot checks above the threshold at several flow frequencies
    for m1, m2 in [(1, 1), (2, 0), (3, 4), (10, 10)]:
        msq = m1 * m1 + m2 * m2
        if msq <= result.n_min:
            continue
        for xi in (0.0, 1.0, -1.0, 10.0, -10.0):
            lam_p, lam_m = eigenvalue_formula(xi, m1, m2)
            bound = xi**2 + 0.5 * msq
            assert abs(lam_p) ** 2 >= bound - 1e-9
            assert abs(lam_m) ** 2 >= bound - 1e-9
    # boundary case: at the origin the bound reduces to |lam|^2 >= xi^2,
    # met with equality by the vanishing eigenvalue
    lam_p, lam_m = eigenvalue_formula(0.0, 0, 0)
    assert abs(lam_m) == 0.0


def test_minimal_N_rejects_bad_bounds():
    for xi_bound in (np.inf, 0.0, -5.0):
        with pytest.raises(Exception):
            minimal_N_search(xi_bound=xi_bound, m_bound=3)


def test_sweep_row_count():
    rows = sweep_rows([0.0], 3)
    assert len(rows) == 49
    assert max(r["det_residual"] for r in rows) < 1e-10


def test_mode_matrix_is_antisymmetric(rng):
    m = mode_matrix(rng.integers(-20, 20), rng.integers(-20, 20))
    assert np.array_equal(m, -m.T)
