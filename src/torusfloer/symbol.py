"""Fourier symbol of the linearized flow operator d_s + J d1 + K d2 - P.

Per frequency (xi, m1, m2), with xi the continuous frequency along the flow
direction and m1, m2 integer torus modes, the operator acts on coefficients
as the 4 x 4 complex matrix

    D(xi, m1, m2) = i*xi*Id + i * [[ 0,   0, -m1,  m2],
                                   [ 0,   0, -m2, -m1],
                                   [m1,  m2,   0,   0],
                                   [-m2, m1,   0,   0]] - P,

where P projects onto the p block.  Closed forms:

    det D = (m1^2 + m2^2 + xi^2 + i*xi)^2
    spectrum = {lam+, lam+, lam-, lam-},
    lam(+/-) = i/2 * (i + 2*xi +/- i*sqrt(1 + 4*m1^2 + 4*m2^2))
             = -(1 +/- sqrt(1 + 4*(m1^2+m2^2)))/2 + i*xi.

For n complex pairs the operator is block diagonal with n copies of this
4 x 4 matrix (one per pair), so everything here is stated for the single
block.  Since |lam|^2 - xi^2 depends on the modes only, the high-mode
lower bound |lam|^2 >= xi^2 + (m1^2 + m2^2)/2 can be certified by a pure
mode sweep; the smallest threshold above which it holds is recorded in
MIN_MODE_SQ_THRESHOLD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .structures import standard_structures

#: smallest N such that |lam(xi, m)|^2 >= xi^2 + (m1^2+m2^2)/2 whenever
#: m1^2 + m2^2 > N.  Derived by minimal_N_search; the bound fails at
#: m1^2 + m2^2 = 1 and holds from 2 on (with equality at 2).
MIN_MODE_SQ_THRESHOLD = 1

P_MATRIX = np.diag([0.0, 0.0, 1.0, 1.0])
_STANDARD = standard_structures(1)


class SymbolError(ValueError):
    pass


def mode_matrix(m1, m2) -> np.ndarray:
    """The antisymmetric mode block m1*J + m2*K of the standard structures, broadcasting over inputs."""
    m1 = np.asarray(m1, dtype=float)[..., None, None]
    m2 = np.asarray(m2, dtype=float)[..., None, None]
    return m1 * _STANDARD.J + m2 * _STANDARD.K


def symbol_matrix(xi, m1, m2) -> np.ndarray:
    """D(xi, m1, m2), broadcasting to shape (..., 4, 4) complex."""
    xi = np.asarray(xi, dtype=float)
    mm = mode_matrix(m1, m2)
    shape = np.broadcast_shapes(xi.shape, mm.shape[:-2])
    out = np.zeros(shape + (4, 4), dtype=complex)
    out += 1j * mm
    out -= P_MATRIX
    idx = np.arange(4)
    out[..., idx, idx] += (1j * xi)[..., None] if xi.ndim else 1j * xi
    return out


def det_formula(xi, m1, m2):
    """Closed-form determinant (m1^2 + m2^2 + xi^2 + i*xi)^2."""
    xi = np.asarray(xi, dtype=float)
    msq = np.asarray(m1, dtype=float) ** 2 + np.asarray(m2, dtype=float) ** 2
    return (msq + xi**2 + 1j * xi) ** 2


def eigenvalue_formula(xi, m1, m2):
    """Closed-form double eigenvalues (lam_plus, lam_minus)."""
    xi = np.asarray(xi, dtype=float)
    msq = np.asarray(m1, dtype=float) ** 2 + np.asarray(m2, dtype=float) ** 2
    root = np.sqrt(1.0 + 4.0 * msq)
    lam_plus = 0.5j * (1j + 2.0 * xi + 1j * root)
    lam_minus = 0.5j * (1j + 2.0 * xi - 1j * root)
    return lam_plus, lam_minus


@dataclass(frozen=True)
class DetReport:
    xi: float
    m1: int
    m2: int
    numeric: complex
    formula: complex
    residual: float


def symbol_det(xi, m1, m2) -> DetReport:
    """Numeric determinant against the closed form; residual relative above 1."""
    numeric = complex(np.linalg.det(symbol_matrix(xi, m1, m2)))
    formula = complex(det_formula(xi, m1, m2))
    residual = abs(numeric - formula) / max(1.0, abs(formula))
    return DetReport(float(xi), int(m1), int(m2), numeric, formula, residual)


@dataclass(frozen=True)
class EigReport:
    xi: float
    m1: int
    m2: int
    lambda_plus: complex
    lambda_minus: complex
    numeric: np.ndarray
    residual: float


def _sorted_spectrum(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((values.imag, values.real))
    return values[order]


def symbol_eigs(xi, m1, m2) -> EigReport:
    """Numeric spectrum against {lam+, lam+, lam-, lam-} as multisets."""
    lam_plus, lam_minus = eigenvalue_formula(xi, m1, m2)
    lam_plus = complex(lam_plus)
    lam_minus = complex(lam_minus)
    numeric = _sorted_spectrum(np.linalg.eigvals(symbol_matrix(xi, m1, m2)))
    expected = _sorted_spectrum(np.array([lam_plus, lam_plus, lam_minus, lam_minus]))
    residual = float(np.max(np.abs(numeric - expected)) / max(1.0, np.max(np.abs(expected))))
    return EigReport(float(xi), int(m1), int(m2), lam_plus, lam_minus, numeric, residual)


@dataclass(frozen=True)
class SymbolReport:
    """Everything about one frequency: matrix, determinant, spectrum."""

    xi: float
    m1: int
    m2: int
    matrix: np.ndarray
    det: complex
    eigenvalues: np.ndarray
    invertible: bool
    residuals: dict


def symbol_report(xi, m1, m2, tol: float = 1e-10) -> SymbolReport:
    det = symbol_det(xi, m1, m2)
    eig = symbol_eigs(xi, m1, m2)
    matrix = symbol_matrix(xi, m1, m2)
    # the closed form vanishes only at the zero frequency, where the kernel
    # is the constant q direction
    invertible = abs(det.formula) > tol * max(
        1.0, (1.0 + float(xi) ** 2 + float(m1) ** 2 + float(m2) ** 2) ** 2
    )
    prod_resid = abs(
        np.prod(eig.numeric) - det.numeric
    ) / max(1.0, abs(det.formula))
    return SymbolReport(
        float(xi),
        int(m1),
        int(m2),
        matrix,
        det.numeric,
        np.array([eig.lambda_plus, eig.lambda_plus, eig.lambda_minus, eig.lambda_minus]),
        invertible,
        {
            "det": det.residual,
            "eigenvalues": eig.residual,
            "det_vs_eig_product": float(prod_resid),
        },
    )


def eig_bound_margin(m1: int, m2: int) -> float:
    """Closed-form inf over xi of min|lam|^2 - xi^2 - (m1^2+m2^2)/2.

    Both |lam(+/-)|^2 - xi^2 equal ((1 +/- sqrt(1+4M))/2)^2 with
    M = m1^2 + m2^2, independent of xi, and the minus branch is smaller.
    """
    msq = float(m1) ** 2 + float(m2) ** 2
    root = np.sqrt(1.0 + 4.0 * msq)
    return float((root - 1.0) ** 2 / 4.0 - 0.5 * msq)


def certified_margin(
    m1: int, m2: int, xi_bound: float, start_points: int = 9, max_refine: int = 20,
    certify_tol: float = 1e-8,
) -> tuple:
    """Grid-refined inf over |xi| <= xi_bound of min|lam|^2 - xi^2 - M/2.

    Returns (margin, certified, grid_points).  The grid is refined until
    the observed variation between refinement levels drops below
    certify_tol; the quantity is constant in xi, so this terminates on the
    first refinement, but no closed form is assumed here.
    """
    msq = float(m1) ** 2 + float(m2) ** 2

    def values(xi):
        lam_plus, lam_minus = eigenvalue_formula(xi, m1, m2)
        # Im(lam) equals xi exactly, so group the squares to cancel before
        # adding the O(1) real parts (avoids catastrophic loss at large xi)
        best = np.minimum(lam_plus.real**2, lam_minus.real**2)
        return best + (lam_plus.imag**2 - xi**2) - 0.5 * msq

    points = start_points
    prev = None
    for _ in range(max_refine):
        xi = np.linspace(-xi_bound, xi_bound, points)
        margin = float(np.min(values(xi)))
        if prev is not None and abs(margin - prev) < certify_tol:
            return margin, True, points
        prev = margin
        points = 2 * points - 1
    return prev, False, points


@dataclass(frozen=True)
class MinimalNResult:
    n_min: int
    m_bound: int
    xi_bound: float
    certified: bool
    failures: list
    certificates: list


def minimal_N_search(xi_bound: float = 100.0, m_bound: int = 12) -> MinimalNResult:
    """Smallest N with min|lam|^2 >= xi^2 + (m1^2+m2^2)/2 for all m1^2+m2^2 > N.

    Sweeps every integer pair with m1^2 + m2^2 <= m_bound^2, certifying the
    worst xi per pair by grid refinement.  Margins within round-off of zero
    count as holding (the bound is non-strict).
    """
    if not 0.0 < xi_bound < np.inf or m_bound < 1:
        raise SymbolError("bounds must be finite and positive")
    margin_floor = -1e-12
    by_msq: dict = {}
    certified_all = True
    for m1 in range(-m_bound, m_bound + 1):
        for m2 in range(-m_bound, m_bound + 1):
            msq = m1 * m1 + m2 * m2
            if msq > m_bound * m_bound or msq in by_msq:
                continue
            margin, ok, points = certified_margin(m1, m2, xi_bound)
            certified_all = certified_all and ok
            by_msq[msq] = {"m1": m1, "m2": m2, "msq": msq, "margin": margin, "grid_points": points}
    failures = [rec for rec in by_msq.values() if rec["margin"] < margin_floor]
    n_min = max((rec["msq"] for rec in failures), default=0)
    certificates = sorted(by_msq.values(), key=lambda rec: rec["msq"])
    return MinimalNResult(
        n_min=n_min,
        m_bound=m_bound,
        xi_bound=float(xi_bound),
        certified=certified_all,
        failures=sorted(failures, key=lambda rec: rec["msq"]),
        certificates=certificates,
    )


def sweep_rows(xi_values, m_bound: int):
    """Rows for the CSV sweep: one entry per (xi, m1, m2) on the full square."""
    rows = []
    for xi in xi_values:
        for m1 in range(-m_bound, m_bound + 1):
            for m2 in range(-m_bound, m_bound + 1):
                det = symbol_det(xi, m1, m2)
                eig = symbol_eigs(xi, m1, m2)
                rows.append(
                    {
                        "xi": float(xi),
                        "m1": m1,
                        "m2": m2,
                        "det_numeric_re": det.numeric.real,
                        "det_numeric_im": det.numeric.imag,
                        "det_formula_re": det.formula.real,
                        "det_formula_im": det.formula.imag,
                        "det_residual": det.residual,
                        "lambda_plus_re": eig.lambda_plus.real,
                        "lambda_plus_im": eig.lambda_plus.imag,
                        "lambda_minus_re": eig.lambda_minus.real,
                        "lambda_minus_im": eig.lambda_minus.imag,
                        "eig_residual": eig.residual,
                        "bound_margin": eig_bound_margin(m1, m2),
                    }
                )
    return rows
