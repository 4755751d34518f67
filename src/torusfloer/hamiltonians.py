"""Hamiltonians H = |p|^2/2 + h on the cotangent phase space of a torus.

The nonlinearity h(t, q, p) may depend on the base point t of the 2-torus.
A cut-off radius rho suppresses h where |p|^2 >= rho through a C^1
smoothstep chi, giving the modified Hamiltonian used by the gradient flow;
below |p|^2 <= rho - 1 nothing changes.  The module supplies gradients and
the full-FFT residual of the first-order system "dirac Z = grad H(Z)" (its
action is `floer.action`), the oscillation (Hofer) norm of the nonlinearity,
the scalar first-order system with two momenta and its explicit kernel
family, and the Legendre bridge to the Lagrangian picture.

Conventions: a phase-space field Z has layout (q1, q2, p1, p2) with
n_pairs entries per slot; callables are vectorized with signature
f(t1, t2, z) where t1, t2 broadcast against z[..., :].  z may be any
strided view, such as the flow grid's component-major values; the
pointwise functions here give the same bits for every memory layout.
The built-in potentials hold only their formulas, on a C-ordered q; their
one `_BuiltIn.evaluate` adapts z of any layout to them.
"""

from __future__ import annotations

import numbers
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .spectral import (
    MAX_GRID,
    TorusField,
    derivative,
    dirac,
    grid_points,
    partials,
)
from .structures import central_difference


class HamiltonianError(ValueError):
    pass


class LegendreError(RuntimeError):
    def __init__(self, message, iterate=None):
        super().__init__(message)
        self.iterate = iterate


def component_sum(x: np.ndarray) -> np.ndarray:
    """np.sum(x, axis=-1) as numpy rounds it over C-ordered x, for x of any memory layout.

    numpy sums a contiguous axis pairwise: in order below 8 terms, else in
    8 interleaved partial sums (up to 128 terms).  Adding whole component
    planes in that order rounds the same way, is faster than a reduction
    over a short axis, and reads contiguous planes of a component-major x.
    Only the sign of a sum of negative zeros can differ.
    """
    k = x.shape[-1]
    if k > 128:
        return np.sum(np.ascontiguousarray(x), axis=-1)
    if k < 8:
        out = x[..., 0] + 0.0
        for j in range(1, k):
            out += x[..., j]
        return out
    part = [x[..., j].copy() for j in range(8)]
    full = k - k % 8
    for i in range(8, full, 8):
        for j in range(8):
            part[j] += x[..., i + j]
    out = ((part[0] + part[1]) + (part[2] + part[3])) + ((part[4] + part[5]) + (part[6] + part[7]))
    for i in range(full, k):
        out += x[..., i]
    return out


# ---------------------------------------------------------------------------
# cut-off profile; the switching profile of the flow is built from the same smoothstep


def smoothstep(u):
    """0 for u <= 0, u^2 (3 - 2u) in between, 1 for u >= 1; C^1 at the knots."""
    u = np.asarray(u, dtype=float)
    v = np.clip(u, 0.0, 1.0)
    return v * v * (3.0 - 2.0 * v)


def smoothstep_prime(u):
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    out = np.zeros_like(u)
    uu = u[inside]
    out[inside] = 6.0 * uu * (1.0 - uu)
    return out


def chi_cutoff(x, rho: float):
    """1 for x <= rho - 1, 0 for x >= rho, the falling smoothstep in between."""
    x = np.asarray(x, dtype=float)
    if np.isinf(rho):
        return np.ones_like(x)
    return 1.0 - smoothstep(x - (rho - 1.0))


def chi_cutoff_prime(x, rho: float):
    x = np.asarray(x, dtype=float)
    if np.isinf(rho):
        return np.zeros_like(x)
    return 0.0 - smoothstep_prime(x - (rho - 1.0))  # 0.0 -, not -: +0.0 outside the ramp


# ---------------------------------------------------------------------------
# built-in nonlinearities (classes so that worker processes can pickle them)


# |grad h| <= c3_norm for every built-in, so up to this cap |grad h|^2, summed over the 4n
# components and the MAX_GRID^2 = 2^20 points, stays below 2^20 * 1e300 ~ 1.05e306, finite.
# A run's inputs are checked against it; the constructors take any finite estimate.
MAX_C3_NORM = 1e150


def check_c3_norm(c3_norm: float, cap: float = np.inf) -> float:
    """c3_norm; HamiltonianError where it is not finite, or above cap (MAX_C3_NORM for a run's input)."""
    if not np.isfinite(c3_norm):
        raise HamiltonianError(f"potential C3-norm estimate must be finite, got {c3_norm}")
    if c3_norm > cap:
        raise HamiltonianError(
            f"potential C3-norm estimate {c3_norm:.3g} exceeds the cap of {cap:.0e}, "
            "past which |grad h|^2 summed over a grid can overflow"
        )
    return c3_norm


# A run's bound on |frequency|.  A frequency in t at or past N/2 of the largest grid is resolved by no
# grid that a run accepts.  A frequency a in q is exact at a constant start, where cos(a . q) is evaluated
# pointwise, but on a varying field h(q(t)) gains t frequencies about |a| times those of q, which alias on
# the grid; the same value bounds it.
MAX_FREQUENCY = MAX_GRID // 2


def check_run_potential(pot) -> None:
    """A run's built-in potential: HamiltonianError unless its C3-norm estimate is within MAX_C3_NORM
    (`check_c3_norm`), then unless each of its frequencies is below MAX_FREQUENCY in magnitude."""
    check_c3_norm(pot.c3_norm, MAX_C3_NORM)
    for pairs, bound in (
        (pot.t_frequencies, f"N/2 of the largest grid ({MAX_GRID})"),
        (pot.q_frequencies, "a run's frequency bound in q"),
    ):
        for name, values in pairs:
            big = values[np.abs(values) >= MAX_FREQUENCY]
            if big.size:
                raise HamiltonianError(f"{name} must be below {MAX_FREQUENCY} in magnitude, {bound}, got {big[0]:g}")


def _frequencies(name: str, values) -> np.ndarray:
    """values as a float array; HamiltonianError unless each is a finite integer, a frequency on the torus."""
    values = np.asarray(values, dtype=float)
    bad = values[~(np.isfinite(values) & (values == np.round(values)))]
    if bad.size:
        raise HamiltonianError(f"{name} must be integer frequencies, got {bad[0]:g}")
    return values


class _BuiltIn:
    """A built-in h(t, q): its formulas in `_kernel`, on a C-ordered q; this class adapts z to them.

    evaluate(t1, t2, z, with_grad, with_h) returns (h, grad h), each None
    where its flag is False, for z of any memory layout.  A matrix product
    rounds by the memory order of its operands (BLAS picks its kernel by
    layout), so the kernel gets the C-ordered q of z, which rounds like the
    trailing layout: copied plane by plane from the component-major grid
    view of the flow (a strided copy is slower), else by np.ascontiguousarray.
    The gradient is component-major where z is, else C-ordered, and its p
    part is +0.0.  The potentials hold only their formulas on q, their
    bounds sup_h and c3_norm, and their frequencies in t and in q as (name,
    values) pairs for `check_run_potential`.  built_in promises what
    `cutoff_terms`, `hofer_norm` and `run_homotopy` rely on: h reads q
    alone, and a state that is not finite gives values that are not finite,
    never an exception.  Runs take the formulas as they are; the tests check
    them against finite differences.
    """

    built_in = True
    time_dependent = False
    t_frequencies = q_frequencies = ()

    def evaluate(self, t1, t2, z, with_grad, with_h):
        z = np.asarray(z, dtype=float)
        k = 2 * self.n_pairs
        major = z.ndim == 3 and not z.flags.c_contiguous and z.transpose(2, 0, 1).flags.c_contiguous
        if major:
            q = np.empty(z.shape[:-1] + (k,))
            for j in range(k):
                q[..., j] = z[..., j]
        else:
            q = np.ascontiguousarray(z[..., :k])
        h, grad_q = self._kernel(t1, t2, q, with_grad, with_h)
        if grad_q is None:
            return h, None
        shape = grad_q.shape[:-1] + z.shape[-1:]
        grad = np.zeros(shape[-1:] + shape[:-1]).transpose(*range(1, len(shape)), 0) if major else np.zeros(shape)
        grad[..., :k] = grad_q
        return h, grad

    def value(self, t1, t2, z):
        return self.evaluate(t1, t2, z, False, True)[0]


class ZeroNonlinearity(_BuiltIn):
    """h identically zero."""

    sup_h = c3_norm = 0.0

    def __init__(self, n_pairs: int):
        self.n_pairs = n_pairs

    def _kernel(self, t1, t2, q, with_grad, with_h):
        shape = np.broadcast_shapes(np.shape(t1), np.shape(t2), q.shape[:-1])
        return (np.zeros(shape) if with_h else None), (np.zeros(shape + q.shape[-1:]) if with_grad else None)


class TrigPotential(_BuiltIn):
    """h(q) = epsilon * sum_a cos(a . q) over integer frequency vectors a."""

    def __init__(self, epsilon: float, modes):
        modes = np.atleast_2d(_frequencies("trig modes", modes))
        if modes.shape[1] % 2 != 0:
            raise HamiltonianError("trig modes must have 2n components")
        self.epsilon = float(epsilon)
        self.modes = modes
        # against the transposed view numpy runs one small gemm per grid row
        self._modes_t = modes.T.copy()
        self.n_pairs = modes.shape[1] // 2
        self.sup_h = abs(self.epsilon) * modes.shape[0]
        with np.errstate(over="ignore"):  # a huge mode's norm is inf, which check_c3_norm rejects
            c3 = abs(self.epsilon) * float(np.sum(np.maximum(1.0, np.linalg.norm(modes, axis=1)) ** 3))
        self.c3_norm = check_c3_norm(c3)
        self.q_frequencies = (("trig modes", modes),)

    def _kernel(self, t1, t2, q, with_grad, with_h):
        # a one-row product is a matrix-vector product, which rounds by the layout of
        # the matrix: it keeps the transposed view; the rows of a matrix product do not
        phases = q @ (self._modes_t if q.ndim > 1 and q.shape[-2] > 1 else self.modes.T)
        grad_q = -self.epsilon * (np.sin(phases) @ self.modes) if with_grad else None
        if not with_h:
            return None, grad_q
        return self.epsilon * component_sum(np.cos(phases, out=phases)), grad_q


class TimeTrigPotential(_BuiltIn):
    """h(t, q) = epsilon * cos(w . t) * cos(a . q); oscillates in torus time."""

    time_dependent = True

    def __init__(self, epsilon: float, t_mode, q_mode):
        self.epsilon = float(epsilon)
        self.t_mode = _frequencies("t_mode", t_mode)
        self.q_mode = _frequencies("q_mode", q_mode)
        if self.t_mode.shape != (2,):
            raise HamiltonianError("t_mode must have 2 components")
        if self.q_mode.shape[0] % 2 != 0:
            raise HamiltonianError("q_mode must have 2n components")
        self.n_pairs = self.q_mode.shape[0] // 2
        self.sup_h = abs(self.epsilon)
        with np.errstate(over="ignore"):  # as TrigPotential's: a float64 power overflows to inf, a float's raises
            c3 = abs(self.epsilon) * float(np.maximum(1.0, np.linalg.norm(self.q_mode)) ** 3)
        self.c3_norm = check_c3_norm(c3)
        self.t_frequencies = (("t_mode", self.t_mode),)
        self.q_frequencies = (("q_mode", self.q_mode),)

    def _kernel(self, t1, t2, q, with_grad, with_h):
        tfactor = np.cos(self.t_mode[0] * np.asarray(t1) + self.t_mode[1] * np.asarray(t2))
        phase = q @ self.q_mode
        grad_q = (-self.epsilon * tfactor * np.sin(phase))[..., None] * self.q_mode if with_grad else None
        return (self.epsilon * tfactor * np.cos(phase) if with_h else None), grad_q


NONLINEARITY_KINDS = ("zero", "trig_potential", "time_trig")


def nonlinearity_from_config(cfg: dict):
    """Build a registry nonlinearity from {'kind': ..., ...}; HamiltonianError for a malformed cfg."""
    if not isinstance(cfg, dict):
        raise HamiltonianError(f"potential must be a JSON object, got {cfg!r}")
    kind = cfg.get("kind")
    try:
        if kind == "zero":
            return ZeroNonlinearity(int(cfg.get("n_pairs", 1)))
        if kind == "trig_potential":
            return TrigPotential(cfg["epsilon"], cfg["modes"])
        if kind == "time_trig":
            return TimeTrigPotential(cfg["epsilon"], cfg["t_mode"], cfg["q_mode"])
    except KeyError as exc:
        raise HamiltonianError(f"{kind} potential lacks the key {exc}") from None
    except HamiltonianError:
        raise
    except (TypeError, ValueError) as exc:
        raise HamiltonianError(f"{kind} potential has a value that is not numeric: {exc}") from None
    raise HamiltonianError(f"unknown nonlinearity kind {kind!r}; have {NONLINEARITY_KINDS}")


class CustomPotential:
    """h(t, q, p) given by vectorized callables h and grad_h, (t1, t2, z) -> values / vectors; no global bounds.

    The full flow grid passes z as a strided (N, N, 4n) view of component
    planes: a callable that needs C order must copy z.
    time_dependent=False is a promise that h and grad_h do not depend on the
    torus time: the Hofer norm then samples one time only, and the flow
    advances constant states on their (0, 0) mode alone.  The constructor
    compares grad_h with central differences of h, and both callables at two
    times where the promise is made, and raises HamiltonianError on a
    mismatch or a broken promise.
    """

    built_in = False
    sup_h = c3_norm = None

    def __init__(self, n_pairs: int, h, grad_h, time_dependent: bool = False):
        if n_pairs < 1:
            raise HamiltonianError("n_pairs must be positive")
        self.n_pairs = n_pairs
        self.h = h
        self.grad_h = grad_h
        self.time_dependent = time_dependent
        rng = np.random.default_rng(1234)
        other_times = np.random.default_rng(4321)
        for _ in range(5):
            t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
            z = rng.uniform(-1.0, 1.0, size=4 * n_pairs)
            grad = np.asarray(grad_h(t1, t2, z), dtype=float)
            if not time_dependent:
                s1, s2 = other_times.uniform(0, 2 * np.pi, size=2)
                if not (
                    np.array_equal(h(t1, t2, z), h(s1, s2, z))
                    and np.array_equal(grad, np.asarray(grad_h(s1, s2, z), dtype=float))
                ):
                    raise HamiltonianError(
                        "h depends on the torus time; declare time_dependent=True"
                    )
            fd = central_difference(lambda zz: h(t1, t2, zz), z, 1e-5)
            err = np.max(np.abs(grad - fd)) / max(1.0, float(np.max(np.abs(grad))))
            if err > 1e-6:
                raise HamiltonianError(
                    f"gradient of h disagrees with finite differences (residual {err:.3e})"
                )

    def evaluate(self, t1, t2, z, with_grad, with_h):
        """(h, grad h) at z, each None where its flag is False; h is called first."""
        hval = np.asarray(self.h(t1, t2, z), dtype=float) if with_h else None
        return hval, (self.grad_h(t1, t2, z) if with_grad else None)


# ---------------------------------------------------------------------------
# Hamiltonian specification


@dataclass(frozen=True)
class HamiltonianSpec:
    """H(t, q, p) = |p|^2/2 + h(t, q, p) with cut-off radius rho.

    The potential h is a built-in (`nonlinearity_from_config`) or a
    `CustomPotential`.  Each gives h and grad h from one
    `evaluate(t1, t2, z, with_grad, with_h)` call and holds n_pairs,
    time_dependent, the bounds sup_h and c3_norm (None where unknown) and
    built_in (see `_BuiltIn`).
    """

    potential: object
    rho: float = np.inf

    def __post_init__(self):
        if self.n_pairs < 1:
            raise HamiltonianError("n_pairs must be positive")
        if not (isinstance(self.rho, numbers.Real) and not isinstance(self.rho, bool) and self.rho > 0):
            raise HamiltonianError(f"cut-off radius must be a positive number, got {self.rho!r}")

    @property
    def n_pairs(self) -> int:
        return self.potential.n_pairs

    @property
    def dim(self) -> int:
        return 4 * self.n_pairs

    @property
    def escape_p_sq(self) -> float:
        """The max|p|^2 past which a flow has diverged: 2 rho, or 1e6 without a cut-off."""
        return 2.0 * self.rho if self.has_cutoff else 1e6

    # A fact that `cutoff_terms` reads on every call, decided on the first.  It is
    # kept in the instance dict, beside the frozen fields, and is pickled with it.

    @cached_property
    def has_cutoff(self) -> bool:
        """Whether rho is finite, so that the cut-off acts somewhere."""
        return not np.isinf(self.rho)


def hamiltonian_from_config(cfg: dict, rho: float = np.inf) -> HamiltonianSpec:
    return HamiltonianSpec(nonlinearity_from_config(cfg), rho)


# pointwise cut-off evaluations ------------------------------------------------


class CutoffTerms(NamedTuple):
    """Pointwise |p|^2, h_tilde = chi(|p|^2) h (or None), grad h_tilde (or None) and whether its p part is +0.0."""

    p_sq: np.ndarray
    h: np.ndarray | None
    grad: np.ndarray | None
    p_grad_zero: bool = False


def cutoff_terms(
    spec: HamiltonianSpec, t1, t2, z, with_grad: bool = True, with_h: bool = True
) -> CutoffTerms:
    """Evaluate |p|^2, chi, h, grad h and chi' once and combine them.

    h_tilde, grad_h_tilde and hamiltonian_value are views of this one
    evaluation.  The flow evaluates each state once (`_FlowGrid.evaluate`)
    and hands the result to the step, the action, max|p|^2 and the residual
    of the state.

    h and grad h come from one `evaluate` call of the spec's potential.  A
    built-in's p gradient is +0.0 (`p_grad_zero`);
    where every |p|^2 <= rho - 1 (not NaN), chi is 1.0 and chi' +0.0,
    chi * x has the bits of x, and (+0.0) h p added to that +0.0 p gradient
    leaves +0.0 while h is finite, so both are skipped.

    What a caller may skip: with_grad=False skips the gradient (h_tilde,
    hamiltonian_value, the Hofer norm).  with_h=False is for a caller that
    reads only |p|^2 and the gradient, such as a step of a switching run
    from a constant start (`run_homotopy`), and gives h None.  For a
    built-in potential where the cut-off is skipped, h is then not
    evaluated (no cosine, no sum) nor checked for being finite; a custom h
    is evaluated all the same, and on the cut-off ramp the gradient needs h.
    The gradient has the bits of the evaluation with h wherever h is
    finite.  A built-in h is bounded by its finite C3-norm estimate, so it
    is not finite only where a phase a . q is not;
    sin is NaN there, and the matrix product spreads it to the q gradient.
    So where the evaluation with h turns the p gradient NaN, the q gradient
    is not finite either: a step from it is not finite either way, and the
    flow stops at the same s.

    Whether rho is finite is decided once per spec (`has_cutoff`).
    """
    z = np.asarray(z, dtype=float)
    psq = component_sum(z[..., 2 * spec.n_pairs :] ** 2)
    pot, cut = spec.potential, spec.has_cutoff
    identity = pot.built_in and (
        not cut or np.maximum.reduce(psq, axis=None, initial=-np.inf) <= spec.rho - 1.0
    )
    chi = None if identity else chi_cutoff(psq, spec.rho)  # chi while h is held raises the peak memory
    hval, grad = pot.evaluate(t1, t2, z, with_grad, with_h or not identity)
    if identity:
        if grad is None or not (with_h and cut) or np.isfinite(hval).all():
            return CutoffTerms(psq, hval, grad, grad is not None)
        chi = chi_cutoff(psq, spec.rho)
    if grad is None:
        return CutoffTerms(psq, chi * hval, None)
    grad = chi[..., None] * np.asarray(grad, dtype=float)
    if cut:
        dh = 2.0 * chi_cutoff_prime(psq, spec.rho) * hval
        for k in range(2 * spec.n_pairs, spec.dim):  # per component: the same products, faster loops
            grad[..., k] += dh * z[..., k]
    return CutoffTerms(psq, chi * hval if with_h else None, grad)


def h_tilde(spec: HamiltonianSpec, t1, t2, z) -> np.ndarray:
    """Cut-off nonlinearity chi(|p|^2) h; vanishes identically for |p|^2 >= rho."""
    return cutoff_terms(spec, t1, t2, z, with_grad=False).h


def grad_h_tilde(spec: HamiltonianSpec, t1, t2, z) -> np.ndarray:
    return cutoff_terms(spec, t1, t2, z).grad


def hamiltonian_value(spec: HamiltonianSpec, t1, t2, z, h_weight: float = 1.0) -> np.ndarray:
    terms = cutoff_terms(spec, t1, t2, z, with_grad=False)
    return 0.5 * terms.p_sq + h_weight * terms.h


# field-level operations -------------------------------------------------------


def _check_z_field(spec: HamiltonianSpec, Z: TorusField):
    if Z.layout != "z" or Z.components != spec.dim:
        raise HamiltonianError(
            f"expected layout 'z' with {spec.dim} components, got {Z.layout!r}/{Z.components}"
        )


def grad_H_values(spec: HamiltonianSpec, grad_h, z, h_weight: float = 1.0) -> np.ndarray:
    """Pointwise (dH/dq, dH/dp) = (w*dh/dq, p + w*dh/dp) from grad_h = grad h_tilde at z.

    grad_h is left unchanged.
    """
    grad = h_weight * grad_h if h_weight != 1.0 else grad_h.copy(order="K")
    grad[..., 2 * spec.n_pairs :] += z[..., 2 * spec.n_pairs :]
    return grad


def grad_H(spec: HamiltonianSpec, Z: TorusField, h_weight: float = 1.0) -> TorusField:
    """Gradient field (dH/dq, dH/dp) = (w*dh/dq, p + w*dh/dp), cut-off applied."""
    _check_z_field(spec, Z)
    t1, t2 = grid_points(Z.grid_size)
    grad_h = grad_h_tilde(spec, t1, t2, Z.values)
    return TorusField(grad_H_values(spec, grad_h, Z.values, h_weight), "z")


def hamiltonian_residual(
    spec: HamiltonianSpec, Z: TorusField, triple, h_weight: float = 1.0
) -> TorusField:
    """Residual dirac(Z) - grad H(Z); zero exactly on solutions of the system."""
    _check_z_field(spec, Z)
    out = dirac(Z, triple).values - grad_H(spec, Z, h_weight).values
    return TorusField(out, "z")


def action_bound_constants(spec: HamiltonianSpec) -> tuple:
    """(c0, c1) with action >= c0 |p|_L2^2 - c1 pointwise under the integral.

    From |p|^2/2 + <p, dh/dp> - h >= |p|^2/4 - (sup|dh/dp|^2 + sup|h|).
    A built-in's bound sup_h is c1, its dh/dp being 0; a custom h takes a
    coarse sampling estimate of both sups over the cut-off support.
    """
    if spec.potential.sup_h is not None:
        return 0.25, spec.potential.sup_h
    rng = np.random.default_rng(99)
    pmax = np.sqrt(spec.rho) if np.isfinite(spec.rho) else 4.0
    z = rng.uniform(-np.pi, np.pi, size=(4096, spec.dim))
    z[:, 2 * spec.n_pairs :] *= pmax / np.pi
    t1 = rng.uniform(0, 2 * np.pi, size=4096)
    t2 = rng.uniform(0, 2 * np.pi, size=4096)
    terms = cutoff_terms(spec, t1, t2, z)
    hv = np.abs(terms.h)
    gp = np.abs(terms.grad[:, 2 * spec.n_pairs :])
    return 0.25, float(np.max(gp)) ** 2 + float(np.max(hv))


class HoferEstimate(NamedTuple):
    value: float
    q_points_per_dim: int
    p_sample_count: int
    t_points: int
    time_dependent: bool


def _p_samples(spec: HamiltonianSpec, shells: int) -> np.ndarray:
    """The p samples of `hofer_norm`: the zero row, then each nonzero radius times each direction.

    The radii split [0, sqrt(rho)] (4 without a cut-off) into shells; the
    directions are +-e_a and the diagonal, so no two rows are equal.
    """
    dim_p = 2 * spec.n_pairs
    pmax = np.sqrt(spec.rho) if np.isfinite(spec.rho) else 4.0
    radii = np.linspace(0.0, pmax, shells)[1:]
    eye = np.eye(dim_p)
    dirs = np.concatenate([eye, -eye, [np.ones(dim_p) / np.sqrt(dim_p)]])
    return np.concatenate([np.zeros((1, dim_p)), (radii[:, None, None] * dirs).reshape(-1, dim_p)])


def hofer_norm(spec: HamiltonianSpec, q_points_cap: int = 4096, t_points: int = 32) -> HoferEstimate:
    """Integrated oscillation of the cut-off nonlinearity over torus time.

    Estimates integral over t of (sup_Z h_tilde - inf_Z h_tilde) with the
    unit-mass time measure, sampling q on a lattice of the base torus and p
    on 5 radial shells within the cut-off support (`_p_samples`).  A sampling estimate, not
    an exact value; the resolution is reported alongside.
    A built-in autonomous h depends on q alone: chi on the p samples times h on the q lattice
    has the bits of `h_tilde`.  A custom or time-dependent h sees every (q, p) sample.
    """
    dim_q = 2 * spec.n_pairs
    pot = spec.potential
    cap = min(q_points_cap, 1024) if pot.time_dependent else q_points_cap
    per_dim = int(round(cap ** (1.0 / dim_q)))
    per_dim = int(np.clip(per_dim, 4, 64))
    axes = [2 * np.pi * np.arange(per_dim) / per_dim] * dim_q
    qs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim_q)
    ps = _p_samples(spec, 5)
    if pot.built_in and not pot.time_dependent:  # a built-in reads the q part of z alone
        vals = chi_cutoff(component_sum(ps**2), spec.rho) * pot.value(0.0, 0.0, qs)[:, None]
        return HoferEstimate(float(np.max(vals) - np.min(vals)), per_dim, ps.shape[0], 1, False)
    # every q with every p, q-major: one array filled by broadcasting
    zs = np.empty((qs.shape[0], ps.shape[0], spec.dim))
    zs[:, :, :dim_q] = qs[:, None]
    zs[:, :, dim_q:] = ps
    zs = zs.reshape(-1, spec.dim)
    if not pot.time_dependent:
        vals = h_tilde(spec, 0.0, 0.0, zs)
        value = float(np.max(vals) - np.min(vals))
        return HoferEstimate(value, per_dim, ps.shape[0], 1, False)
    t1g, t2g = grid_points(t_points)
    t1f, t2f = t1g.ravel(), t2g.ravel()
    sup = np.full(t1f.shape, -np.inf)
    inf = np.full(t1f.shape, np.inf)
    chunk = max(1, 2**22 // max(1, t1f.size))
    for start in range(0, zs.shape[0], chunk):
        vals = h_tilde(spec, t1f[:, None], t2f[:, None], zs[None, start : start + chunk, :])
        sup = np.maximum(sup, vals.max(axis=1))
        inf = np.minimum(inf, vals.min(axis=1))
    return HoferEstimate(float(np.mean(sup - inf)), per_dim, ps.shape[0], t_points**2, True)


# ---------------------------------------------------------------------------
# scalar first-order system with two momenta (q, p1, p2)


def ddw_residual(grad3, Z3: TorusField) -> TorusField:
    """Residual of the three-equation first-order system for (q, p1, p2):

        -d1 p1 - d2 p2 = dH/dq,   d1 q = dH/dp1,   d2 q = dH/dp2.

    grad3 maps grid arrays (q, p1, p2) to (dH/dq, dH/dp1, dH/dp2);
    pass None for the zero Hamiltonian.
    """
    if Z3.layout != "ddw":
        raise HamiltonianError("expected a 3-component field with layout 'ddw'")
    d1, d2 = partials(Z3.values)
    if grad3 is None:
        gq = gp1 = gp2 = 0.0
    else:
        gq, gp1, gp2 = grad3(Z3.values[:, :, 0], Z3.values[:, :, 1], Z3.values[:, :, 2])
    out = [-d1[:, :, 1] - d2[:, :, 2] - gq, d1[:, :, 0] - gp1, d2[:, :, 0] - gp2]
    return TorusField(np.stack(out, axis=2), "ddw")


def ddw_kernel_witness(psi: TorusField, q0: float = 0.0) -> TorusField:
    """Kernel family of the free system: constant q, p1 = d2 psi, p2 = -d1 psi."""
    if psi.layout != "scalar":
        raise HamiltonianError("psi must be a scalar field")
    d1, d2 = partials(psi.values)
    return TorusField(np.concatenate([np.full_like(d1, q0), d2, -d1], axis=2), "ddw")


# ---------------------------------------------------------------------------
# Lagrangian side


@dataclass(frozen=True)
class LagrangianSpec:
    """Fiberwise convex Lagrangian L(t, q, v) on a 2n-dimensional base.

    v_grad is the fiber gradient dL/dv; q_grad is optional (finite
    differences otherwise); v_hess is optional and accelerates the inner
    Newton iteration of the Legendre transform.
    """

    n_pairs: int
    lagrangian: object
    v_grad: object
    q_grad: object = None
    v_hess: object = None
    check_convexity: InitVar[bool] = True

    def __post_init__(self, check_convexity):
        if self.n_pairs < 1:
            raise HamiltonianError("n_pairs must be positive")
        if check_convexity:
            self._spot_check_convexity()

    @property
    def base_dim(self) -> int:
        return 2 * self.n_pairs

    def fiber_hessian(self, t1, t2, q, v) -> np.ndarray:
        if self.v_hess is not None:
            return np.asarray(self.v_hess(t1, t2, q, v), dtype=float)
        hess = central_difference(lambda vv: self.v_grad(t1, t2, q, vv), v, 1e-5)
        return 0.5 * (hess + hess.T)

    def _spot_check_convexity(self):
        rng = np.random.default_rng(4321)
        for _ in range(4):
            t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
            q = rng.uniform(-np.pi, np.pi, size=self.base_dim)
            v = rng.uniform(-1.0, 1.0, size=self.base_dim)
            w = np.linalg.eigvalsh(self.fiber_hessian(t1, t2, q, v))
            if w[0] < -1e-8 * max(1.0, abs(w[-1])):
                raise HamiltonianError(
                    f"Lagrangian is not fiberwise convex (Hessian eigenvalue {w[0]:.3e})"
                )


class LegendreResult(NamedTuple):
    value: float
    v: np.ndarray
    iterations: int


def legendre_transform(L: LagrangianSpec, t1, t2, q, p, max_iter: int = 50) -> LegendreResult:
    """H(t, q, p) = max_v (<p, v> - L(t, q, v)) by damped Newton from v = p, to max|p - dL/dv| < 1e-10."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    v = p.copy()

    def residual(vv):
        return p - np.asarray(L.v_grad(t1, t2, q, vv), dtype=float)

    g = residual(v)
    for it in range(max_iter + 1):
        gn = float(np.max(np.abs(g)))
        if gn < 1e-10:
            value = float(np.dot(p, v) - float(L.lagrangian(t1, t2, q, v)))
            return LegendreResult(value, v, it)
        if it == max_iter:
            break
        hess = L.fiber_hessian(t1, t2, q, v)
        try:
            step = np.linalg.solve(hess, g)
        except np.linalg.LinAlgError as exc:
            raise LegendreError("singular fiber Hessian", iterate=v) from exc
        alpha = 1.0
        for _ in range(30):
            g_new = residual(v + alpha * step)
            if np.max(np.abs(g_new)) < gn:
                break
            alpha *= 0.5
        else:
            raise LegendreError("line search failed", iterate=v)
        v = v + alpha * step
        g = g_new
    raise LegendreError(f"no convergence in {max_iter} iterations", iterate=v)


def euler_lagrange_residual(L: LagrangianSpec, q_field: TorusField) -> TorusField:
    """Residual of the variational equations with velocity v = 2 dt q:

        dL/dq1 - d1 (dL/dv1) + d2 (dL/dv2)
        dL/dq2 - d1 (dL/dv2) - d2 (dL/dv1)

    evaluated pointwise, fiber derivatives differentiated spectrally.
    """
    if q_field.layout != "q" or q_field.components != L.base_dim:
        raise HamiltonianError(
            f"expected layout 'q' with {L.base_dim} components, got "
            f"{q_field.layout!r}/{q_field.components}"
        )
    n = L.n_pairs
    t1, t2 = grid_points(q_field.grid_size)
    v = 2.0 * derivative(q_field, "dt").values
    q = q_field.values
    if L.q_grad is not None:
        lq = np.asarray(L.q_grad(t1, t2, q, v), dtype=float)
    else:
        lq = central_difference(lambda qq: L.lagrangian(t1, t2, qq, v), q, 1e-6)
    d1lv, d2lv = partials(TorusField(np.asarray(L.v_grad(t1, t2, q, v), dtype=float), "q").values)
    out = [lq[:, :, :n] - d1lv[:, :, :n] + d2lv[:, :, n:], lq[:, :, n:] - d1lv[:, :, n:] - d2lv[:, :, :n]]
    return TorusField(np.concatenate(out, axis=2), "q")


class _QuadraticLagrangian:
    """L(t, q, v) = |v|^2/2 - h(t, q); Legendre partner of H = |p|^2/2 + h."""

    def __init__(self, potential):
        self.potential = potential

    def value(self, t1, t2, q, v):
        v = np.asarray(v, dtype=float)
        h = self.potential._kernel(t1, t2, np.ascontiguousarray(q, dtype=float), False, True)[0]
        return 0.5 * np.sum(v * v, axis=-1) - h

    def v_grad(self, t1, t2, q, v):
        return np.asarray(v, dtype=float)

    def q_grad(self, t1, t2, q, v):
        return -self.potential._kernel(t1, t2, np.ascontiguousarray(q, dtype=float), True, False)[1]

    def v_hess(self, t1, t2, q, v):
        return np.eye(np.shape(v)[-1])


def quadratic_lagrangian(potential) -> LagrangianSpec:
    impl = _QuadraticLagrangian(potential)
    return LagrangianSpec(
        n_pairs=potential.n_pairs,
        lagrangian=impl.value,
        v_grad=impl.v_grad,
        q_grad=impl.q_grad,
        v_hess=impl.v_hess,
    )
