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

from typing import NamedTuple

import numpy as np

from .spectral import MAX_GRID
from .structures import mode_operator, standard_structures

#: smallest N such that |lam(xi, m)|^2 >= xi^2 + (m1^2+m2^2)/2 whenever
#: m1^2 + m2^2 > N.  Derived by minimal_N_search; the bound fails at
#: m1^2 + m2^2 = 1 and holds from 2 on (with equality at 2).
MIN_MODE_SQ_THRESHOLD = 1

#: The symbol's size is |det D| ~ xi^4: below |xi| = 2^256 it stays below the largest
#: float, 2^1024 (at 2^256 numpy's product of the eigenvalues overflows).  The margin
#: search squares its xi bound, which so stays below 2^512.
XI_LIMIT = 2.0**256
XI_BOUND_LIMIT = 2.0**512
#: a sweep row takes about 130 us (one 4 x 4 det and eigvals): some 13 s at this cap
MAX_SWEEP_ROWS = 100_000
#: modes past N/2 of the largest grid (MAX_GRID) lie on no grid; the search takes about 5 s at 512
MAX_SEARCH_M = MAX_GRID // 2

P_MATRIX = np.diag([0.0, 0.0, 1.0, 1.0])
_STANDARD = standard_structures(1)


class SymbolError(ValueError):
    pass


def symbol_matrix(xi, m1, m2) -> np.ndarray:
    """D(xi, m1, m2) = L(m) + i xi Id (`structures.mode_operator`), broadcasting to shape (..., 4, 4) complex."""
    xi = np.asarray(xi, dtype=float)[..., None, None]
    return mode_operator(_STANDARD, m1, m2) + 1j * xi * np.eye(4) + 0.0  # + 0.0: no entry is -0.0


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


def _sorted_spectrum(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((values.imag, values.real))
    return values[order]


class SymbolReport(NamedTuple):
    """Everything about one frequency: matrix, determinant, spectrum, each taken once.

    det and numeric_eigenvalues are numpy's, det_formula and eigenvalues
    (lam+, lam+, lam-, lam-) the closed forms; the residuals compare them.
    """

    xi: float
    m1: int
    m2: int
    matrix: np.ndarray
    det: complex
    det_formula: complex
    eigenvalues: tuple
    numeric_eigenvalues: np.ndarray
    invertible: bool
    residuals: dict


def symbol_report(xi, m1, m2) -> SymbolReport:
    matrix = symbol_matrix(xi, m1, m2)
    det = complex(np.linalg.det(matrix))
    formula = complex(det_formula(xi, m1, m2))
    lam_plus, lam_minus = (complex(lam) for lam in eigenvalue_formula(xi, m1, m2))
    eigenvalues = (lam_plus, lam_plus, lam_minus, lam_minus)
    numeric = _sorted_spectrum(np.linalg.eigvals(matrix))
    expected = _sorted_spectrum(np.array(eigenvalues))
    scale = max(1.0, abs(formula))
    # the closed form vanishes only at the zero frequency, where the kernel
    # is the constant q direction
    invertible = abs(formula) > 1e-10 * max(
        1.0, (1.0 + float(xi) ** 2 + float(m1) ** 2 + float(m2) ** 2) ** 2
    )
    return SymbolReport(
        float(xi),
        int(m1),
        int(m2),
        matrix,
        det,
        formula,
        eigenvalues,
        numeric,
        invertible,
        {
            "det": abs(det - formula) / scale,
            "eigenvalues": float(np.max(np.abs(numeric - expected)) / max(1.0, np.max(np.abs(expected)))),
            "det_vs_eig_product": float(abs(np.prod(numeric) - det) / scale),
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


def certified_margin(m1: int, m2: int, xi_bound: float) -> tuple:
    """Grid-refined inf over |xi| <= xi_bound of min|lam|^2 - xi^2 - M/2.

    Returns (margin, certified, grid_points).  The grid starts at 9 points
    and is refined, up to 20 times, until the observed variation between
    refinement levels drops below 1e-8; the quantity is constant in xi, so
    this terminates on the first refinement, but no closed form is assumed here.
    """
    msq = float(m1) ** 2 + float(m2) ** 2

    def values(xi):
        lam_plus, lam_minus = eigenvalue_formula(xi, m1, m2)
        # Im(lam) equals xi exactly, so group the squares to cancel before
        # adding the O(1) real parts (avoids catastrophic loss at large xi)
        best = np.minimum(lam_plus.real**2, lam_minus.real**2)
        return best + (lam_plus.imag**2 - xi**2) - 0.5 * msq

    points = 9
    prev = None
    for _ in range(20):
        xi = np.linspace(-xi_bound, xi_bound, points)
        margin = float(np.min(values(xi)))
        if prev is not None and abs(margin - prev) < 1e-8:
            return margin, True, points
        prev = margin
        points = 2 * points - 1
    return prev, False, points


class MinimalNResult(NamedTuple):
    n_min: int
    m_bound: int
    xi_bound: float
    certified: bool
    failures: list
    certificates: list


def check_search(xi_bound: float, m_bound: int) -> None:
    """Raise SymbolError unless minimal_N_search(xi_bound, m_bound) runs in its regime."""
    if not 0.0 < xi_bound < np.inf or m_bound < 1:
        raise SymbolError("bounds must be finite and positive")
    if not xi_bound < XI_BOUND_LIMIT:
        raise SymbolError(
            f"xi bound {xi_bound:.4g} is not below 2^512 = {XI_BOUND_LIMIT:.4g}: the margin search squares it"
        )
    if m_bound > MAX_SEARCH_M:
        raise SymbolError(
            f"search mode bound {m_bound} exceeds the cap of {MAX_SEARCH_M}: "
            f"modes past N/2 of the largest grid ({MAX_GRID}) lie on no grid"
        )


def minimal_N_search(xi_bound: float = 100.0, m_bound: int = 12) -> MinimalNResult:
    """Smallest N with min|lam|^2 >= xi^2 + (m1^2+m2^2)/2 for all m1^2+m2^2 > N.

    Sweeps every integer pair with m1^2 + m2^2 <= m_bound^2, certifying the
    worst xi per pair by grid refinement.  Margins within round-off of zero
    count as holding (the bound is non-strict).
    """
    check_search(xi_bound, m_bound)
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


def check_sweep(xi_values, m_bound: int) -> None:
    """Raise SymbolError unless sweep_rows(xi_values, m_bound) runs in its regime."""
    if m_bound < 1:
        raise SymbolError("bounds must be finite and positive")
    for xi in xi_values:
        if not abs(xi) < XI_LIMIT:
            raise SymbolError(
                f"|xi| = {abs(xi):.4g} is not below 2^256 = {XI_LIMIT:.4g}: "
                "beyond it the symbol (m^2 + xi^2 + i xi)^2 overflows"
            )
    rows = len(xi_values) * (2 * m_bound + 1) ** 2
    if rows > MAX_SWEEP_ROWS:
        raise SymbolError(
            f"the sweep has {len(xi_values)} x (2*{m_bound} + 1)^2 = {rows} rows, "
            f"more than the cap of {MAX_SWEEP_ROWS}"
        )


def sweep_rows(xi_values, m_bound: int):
    """Rows for the CSV sweep: one entry per (xi, m1, m2) on the full square."""
    check_sweep(xi_values, m_bound)
    rows = []
    for xi in xi_values:
        for m1 in range(-m_bound, m_bound + 1):
            for m2 in range(-m_bound, m_bound + 1):
                rep = symbol_report(xi, m1, m2)
                lam_plus, _, lam_minus, _ = rep.eigenvalues
                rows.append(
                    {
                        "xi": float(xi),
                        "m1": m1,
                        "m2": m2,
                        "det_numeric_re": rep.det.real,
                        "det_numeric_im": rep.det.imag,
                        "det_formula_re": rep.det_formula.real,
                        "det_formula_im": rep.det_formula.imag,
                        "det_residual": rep.residuals["det"],
                        "lambda_plus_re": lam_plus.real,
                        "lambda_plus_im": lam_plus.imag,
                        "lambda_minus_re": lam_minus.real,
                        "lambda_minus_im": lam_minus.imag,
                        "eig_residual": rep.residuals["eigenvalues"],
                        "bound_margin": eig_bound_margin(m1, m2),
                    }
                )
    return rows
