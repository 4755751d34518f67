"""Constant-coefficient linear algebra of paired symplectic structures.

The objects here are a complex structure I on R^(4n) together with two
symplectic forms (omega1, omega2) locked to each other by
omega2 = -omega1(., I.).  Such a pair is equivalent to a single complex
antisymmetric form omega1 + i*omega2 that kills the -i eigenspace of I,
and it admits a compatible metric g with anticommuting almost complex
structures J, K satisfying omega1 = g(., J.), omega2 = g(., K.), K = I J.
The compatible triple is produced by a polar decomposition carried out in
an auxiliary inner product for which I is an isometry.

Bilinear forms are stored as matrices with the convention
form(X, Y) = X^T M Y, so antisymmetric forms are antisymmetric matrices
and omega2 = -omega1(., I.) reads M2 = -M1 I.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

ALGEBRA_TOL = 1e-10
AUX_INVARIANCE_TOL = 1e-8


class StructureError(ValueError):
    pass


def _as_square(name: str, a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructureError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _opnorm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class StructureTriple:
    """Structure matrices on R^(4n); J, K, g populated by compatible_triple."""

    dim: int
    omega1: np.ndarray
    omega2: np.ndarray
    I: np.ndarray
    J: np.ndarray | None = None
    K: np.ndarray | None = None
    g: np.ndarray | None = None

    def __post_init__(self):
        for name in ("omega1", "omega2", "I", "J", "K", "g"):
            a = getattr(self, name)
            if a is None:
                continue
            a = _as_square(name, a)
            if a.shape[0] != self.dim:
                raise StructureError(f"{name} has dimension {a.shape[0]}, expected {self.dim}")
            a = a.copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if self.dim % 4 != 0 or self.dim <= 0:
            raise StructureError(f"dimension must be a positive multiple of 4, got {self.dim}")

    def algebra_residuals(self) -> dict:
        """Residuals of the compatible-triple identities, relative to scale."""
        if self.J is None or self.K is None or self.g is None:
            raise StructureError("J, K, g are not populated")
        eye = np.eye(self.dim)
        scale = max(1.0, _opnorm(self.omega1), _opnorm(self.omega2), _opnorm(self.g))
        return {
            "J_squared": _opnorm(self.J @ self.J + eye) / max(1.0, _opnorm(self.J) ** 2),
            "K_squared": _opnorm(self.K @ self.K + eye) / max(1.0, _opnorm(self.K) ** 2),
            "anticommute": _opnorm(self.J @ self.K + self.K @ self.J)
            / max(1.0, _opnorm(self.J) * _opnorm(self.K)),
            "IJ_equals_K": _opnorm(self.I @ self.J - self.K) / max(1.0, _opnorm(self.K)),
            "omega1_gJ": _opnorm(self.omega1 - self.g @ self.J) / scale,
            "omega2_gK": _opnorm(self.omega2 - self.g @ self.K) / scale,
        }


@lru_cache(maxsize=16)
def standard_structures(n: int) -> StructureTriple:
    """Flat Darboux-frame structure on R^(4n) with coordinates (q1, q2, p1, p2).

    omega1 = sum dp1^dq1 + dp2^dq2, omega2 = sum dp1^dq2 - dp2^dq1, the
    complex structure is i on the q block and -i on the p block, the metric
    is the identity, and J, K are the standard block matrices.  All entries
    are integers, so every identity holds exactly.  The triple is built once
    for each n and shared: it is frozen and its arrays are read-only.
    """
    if int(n) != n or n < 1:
        raise StructureError(f"n must be a positive integer, got {n}")
    n = int(n)
    idn = np.eye(n)
    zn = np.zeros((n, n))
    i2n = np.block([[zn, -idn], [idn, zn]])
    id2n = np.eye(2 * n)
    z2n = np.zeros((2 * n, 2 * n))
    I = np.block([[i2n, z2n], [z2n, -i2n]])
    J = np.block([[z2n, -id2n], [id2n, z2n]])
    K = np.block([[z2n, -i2n], [-i2n, z2n]])
    return StructureTriple(
        dim=4 * n, omega1=J.copy(), omega2=K.copy(), I=I, J=J, K=K, g=np.eye(4 * n)
    )


def mode_operator(triple: StructureTriple, m1, m2) -> np.ndarray:
    """L(m) = i(m1 J + m2 K) - P of the torus modes (m1, m2), P the p-block projector, as broadcast (..., 4n, 4n) blocks.

    The one place the system's linear part on a mode is formed: `floer._propagator` inverts Id + ds L(m) and
    `symbol.symbol_matrix` adds i xi."""
    m1, m2 = (np.asarray(m)[..., None, None] for m in (m1, m2))
    return 1j * m1 * triple.J + 1j * m2 * triple.K - np.diag(np.repeat([0.0, 1.0], triple.dim // 2))


class RegularizedPairReport(NamedTuple):
    """Per-invariant validation of an (omega1, omega2, I) triple."""

    dim: int
    tol: float
    residuals: dict
    min_singular_values: dict
    passed: bool

    def failed_checks(self) -> list:
        bad = [k for k, v in self.residuals.items() if not v < self.tol]
        bad += [k for k, v in self.min_singular_values.items() if not v > self.tol]
        return bad


def check_regularized_pair(omega1, omega2, I) -> RegularizedPairReport:
    """Validate antisymmetry, non-degeneracy, I^2 = -Id and omega2 = -omega1*I.

    Residuals are relative to the matrix scales; non-degeneracy is reported
    as the smallest singular value relative to the largest; both against ALGEBRA_TOL.
    """
    w1 = _as_square("omega1", omega1)
    w2 = _as_square("omega2", omega2)
    ii = _as_square("I", I)
    if not (w1.shape == w2.shape == ii.shape):
        raise StructureError(
            f"dimension mismatch: {w1.shape[0]}, {w2.shape[0]}, {ii.shape[0]}"
        )
    dim = w1.shape[0]
    if dim % 2 != 0:
        raise StructureError(f"dimension must be even, got {dim}")
    s1 = np.linalg.svd(w1, compute_uv=False)
    s2 = np.linalg.svd(w2, compute_uv=False)
    scale1 = max(1e-300, s1[0])
    scale2 = max(1e-300, s2[0])
    residuals = {
        "antisymmetry_omega1": _opnorm(w1 + w1.T) / scale1,
        "antisymmetry_omega2": _opnorm(w2 + w2.T) / scale2,
        "complex_structure": _opnorm(ii @ ii + np.eye(dim)) / max(1.0, _opnorm(ii) ** 2),
        "pairing": _opnorm(w2 + w1 @ ii) / max(scale1, scale2),
    }
    min_sv = {
        "omega1": float(s1[-1] / scale1),
        "omega2": float(s2[-1] / scale2),
    }
    passed = all(v < ALGEBRA_TOL for v in residuals.values()) and all(v > ALGEBRA_TOL for v in min_sv.values())
    return RegularizedPairReport(dim, ALGEBRA_TOL, residuals, min_sv, passed)


def _sym_sqrt(s: np.ndarray) -> np.ndarray:
    """Square root of a symmetric positive-definite matrix.

    Exactly-diagonal inputs are square-rooted entrywise so that integer
    Darboux data comes back bit-exact; otherwise a symmetric
    eigendecomposition is used (deterministic, exactly symmetric output).
    """
    off = s - np.diag(np.diag(s))
    if not np.any(off):
        d = np.diag(s)
        if np.min(d) <= 0:
            raise StructureError("matrix square root of a non-positive matrix")
        return np.diag(np.sqrt(d))
    w, v = np.linalg.eigh(0.5 * (s + s.T))
    if w[0] <= ALGEBRA_TOL * w[-1]:
        raise StructureError(f"numerically singular polar factor (eigenvalues {w[0]:.3e}..{w[-1]:.3e})")
    return (v * np.sqrt(w)) @ v.T


def compatible_triple(omega1, omega2, I, aux_metric=None) -> StructureTriple:
    """Compatible metric and almost complex structures by polar decomposition.

    Writes omega_i = (., A_i .) in the auxiliary inner product, forms
    B = sqrt(A1 A1^T) with the transpose taken in that product, and returns
    J = B^(-1) A1, K = B^(-1) A2, g = (., B .).  The auxiliary product
    defaults to the identity and is always averaged with I^T G I, which
    makes any symmetric positive-definite seed exactly I-invariant (the
    construction needs I to be an isometry of it); for the flat standard
    structure the averaging is the identity map.
    """
    report = check_regularized_pair(omega1, omega2, I)
    if not report.passed:
        raise StructureError(f"not a regularized pair, failed: {report.failed_checks()}")
    w1 = np.asarray(omega1, dtype=float)
    w2 = np.asarray(omega2, dtype=float)
    ii = np.asarray(I, dtype=float)
    dim = w1.shape[0]

    aux = np.eye(dim) if aux_metric is None else _as_square("aux_metric", aux_metric)
    if _opnorm(aux - aux.T) > AUX_INVARIANCE_TOL * _opnorm(aux):
        raise StructureError("auxiliary metric must be symmetric")
    if np.min(np.linalg.eigvalsh(0.5 * (aux + aux.T))) <= 0:
        raise StructureError("auxiliary metric must be positive definite")
    aux = 0.5 * (aux + ii.T @ aux @ ii)
    aux = 0.5 * (aux + aux.T)

    identity_aux = not np.any(aux - np.eye(dim))
    if identity_aux:
        a1, a2 = w1, w2
    else:
        # work in an aux-orthonormal frame where the aux-adjoint is the
        # plain transpose; R^T R = aux
        try:
            r = np.linalg.cholesky(aux).T
        except np.linalg.LinAlgError as exc:
            raise StructureError("auxiliary metric must be positive definite") from exc
        rinv = np.linalg.inv(r)
        a1 = rinv.T @ w1 @ rinv
        a2 = rinv.T @ w2 @ rinv
        a1 = 0.5 * (a1 - a1.T)
        a2 = 0.5 * (a2 - a2.T)

    b = _sym_sqrt(a1 @ a1.T)
    j = np.linalg.solve(b, a1)
    k = np.linalg.solve(b, a2)
    if identity_aux:
        g = b
    else:
        j = rinv @ j @ r
        k = rinv @ k @ r
        g = r.T @ b @ r

    triple = StructureTriple(dim=dim, omega1=w1, omega2=w2, I=ii, J=j, K=k, g=g)
    worst = max(triple.algebra_residuals().values())
    if worst > 1e-6:
        raise StructureError(f"polar construction lost accuracy (residual {worst:.3e})")
    return triple


def holomorphic_form(omega1, omega2) -> np.ndarray:
    """Complex form omega1 + i*omega2 from an antisymmetric pair."""
    w1 = _as_square("omega1", omega1)
    w2 = _as_square("omega2", omega2)
    if w1.shape != w2.shape:
        raise StructureError(f"dimension mismatch: {w1.shape[0]} vs {w2.shape[0]}")
    for name, w in (("omega1", w1), ("omega2", w2)):
        if _opnorm(w + w.T) > ALGEBRA_TOL * max(1.0, _opnorm(w)):
            raise StructureError(f"{name} is not antisymmetric")
    return w1 + 1j * w2


def polysymplectic_pair(omega_c) -> tuple:
    """Inverse direction: split a complex form into (Re, Im)."""
    wc = np.asarray(omega_c, dtype=complex)
    if wc.ndim != 2 or wc.shape[0] != wc.shape[1]:
        raise StructureError(f"expected a square matrix, got shape {wc.shape}")
    return wc.real.copy(), wc.imag.copy()


def random_regularized_pair(rng: np.random.Generator, n: int):
    """Random (omega1, omega2, I) built from a random holomorphic symplectic form.

    A complex antisymmetric invertible 2n x 2n matrix is pushed through the
    holomorphic coordinates of a conjugated complex structure; the real and
    imaginary parts of the result form a valid pair by construction.
    """
    std = standard_structures(n)
    dim = 4 * n
    # controlled conditioning, diagonal entries in [1/2, 2]: orthogonal x diagonal x orthogonal
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    d = np.exp(rng.uniform(-np.log(2.0), np.log(2.0), size=dim))
    t = q1 @ np.diag(d) @ q2
    tinv = np.linalg.inv(t)
    ii = t @ std.I @ tinv

    phi0 = np.zeros((2 * n, dim), dtype=complex)
    for j in range(n):
        phi0[j, j] = 1.0
        phi0[j, n + j] = 1.0j
        phi0[n + j, 2 * n + j] = 1.0
        phi0[n + j, 3 * n + j] = -1.0j
    phi = phi0 @ tinv

    while True:
        m = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
        s = m - m.T
        sv = np.linalg.svd(s, compute_uv=False)
        if sv[-1] > 0.2 * sv[0]:
            s = s / sv[0]
            break
    wc = phi.T @ s @ phi
    return wc.real.copy(), wc.imag.copy(), ii


def central_difference(f, x, step: float) -> np.ndarray:
    """(f(x + step e_c) - f(x - step e_c)) / (2 step), stacked over the components c of x's last axis.

    Each side moves a copy of x; for a vector f the result is its Jacobian, one column per c.
    """
    x = np.asarray(x, dtype=float)
    columns = []
    for c in range(x.shape[-1]):
        plus, minus = x.copy(), x.copy()
        plus[..., c] += step
        minus[..., c] -= step
        columns.append(np.asarray(f(plus), dtype=float) - np.asarray(f(minus), dtype=float))
    return np.stack(columns, axis=-1) / (2 * step)


@dataclass(frozen=True)
class CurrentSample:
    """One evaluation point of a candidate current F: R^(4n) -> R^2."""

    point: np.ndarray
    value: np.ndarray
    jacobian: np.ndarray

    def __post_init__(self):
        point = np.asarray(self.point, dtype=float)
        value = np.asarray(self.value, dtype=float)
        jac = np.asarray(self.jacobian, dtype=float)
        if jac.shape != (2, point.shape[0]):
            raise StructureError(f"jacobian must be 2 x {point.shape[0]}, got {jac.shape}")
        if value.shape != (2,):
            raise StructureError("current values must lie in R^2")
        if point.shape[0] % 4 != 0:
            raise StructureError("point dimension must be a multiple of 4")
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "jacobian", jac)


class CurrentReport(NamedTuple):
    is_current: bool
    max_cr_residual: float
    samples: list
    x_f: np.ndarray | None
    x_f_mismatch: float | None
    tol: float


def current_check(f, points, step: float = 1e-5, tol: float = 1e-6) -> CurrentReport:
    """Decide whether F = (F1, F2) is a current, i.e. holomorphic in the chart.

    In Darboux coordinates the condition is the Cauchy-Riemann system

        dF1/dq1 =  dF2/dq2,   -dF1/dq2 = dF2/dq1,
       -dF1/dp1 =  dF2/dp2,    dF1/dp2 = dF2/dp1,

    per coordinate pair, i.e. holomorphy in q1 + i q2 and p1 - i p2.  The
    Jacobian is taken by central differences.  When every residual is below
    tol the induced vector field is assembled from the F1 columns,

        X_F = (-dF1/dp1, -dF1/dp2, dF1/dq1, dF1/dq2),

    and cross-checked against the equivalent F2-column expression
    (dF2/dp2, -dF2/dp1, dF2/dq2, -dF2/dq1).
    """
    if step <= 0:
        raise StructureError("finite-difference step must be positive")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] % 4 != 0:
        raise StructureError("points must have 4n coordinates")
    n = pts.shape[1] // 4
    samples = []
    max_res = 0.0
    for point in pts:
        jac = central_difference(f, point, step)
        samples.append(CurrentSample(point, np.asarray(f(point), dtype=float), jac))
        for j in range(n):
            q1, q2, p1, p2 = j, n + j, 2 * n + j, 3 * n + j
            res = max(
                abs(jac[0, q1] - jac[1, q2]),
                abs(jac[0, q2] + jac[1, q1]),
                abs(jac[0, p1] + jac[1, p2]),
                abs(jac[0, p2] - jac[1, p1]),
            )
            max_res = max(max_res, res)
    if max_res >= tol:
        return CurrentReport(False, max_res, samples, None, None, tol)
    x_f = np.zeros((pts.shape[0], 4 * n))
    mismatch = 0.0
    for i, sample in enumerate(samples):
        jac = sample.jacobian
        for j in range(n):
            q1, q2, p1, p2 = j, n + j, 2 * n + j, 3 * n + j
            first = np.array([-jac[0, p1], -jac[0, p2], jac[0, q1], jac[0, q2]])
            second = np.array([jac[1, p2], -jac[1, p1], jac[1, q2], -jac[1, q1]])
            x_f[i, [q1, q2, p1, p2]] = first
            mismatch = max(mismatch, float(np.max(np.abs(first - second))))
    return CurrentReport(True, max_res, samples, x_f, mismatch, tol)
