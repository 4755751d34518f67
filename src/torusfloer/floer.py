"""Negative L2-gradient flow of the action functional.

The flow is d_s Z = -dirac(Z) + grad H(Z) with the cut-off Hamiltonian, so
stationary points are exactly the solutions of the first-order system.  A
switching profile beta_r(s) can multiply the nonlinearity, turning it on
over an s-interval of length (k+1)*r and off again; with the profile
absent the flow is autonomous and the action decreases monotonically.

Time stepping is IMEX Euler: the stiff linear part (the dirac operator
minus the p-block projector) is diagonal per Fourier mode and is treated
implicitly through precomputed 4n x 4n mode solves, while the bounded
nonlinear gradient is explicit.  The block L(m) = i(m1 J + m2 K) - P has
the eigenvalues -mu(M) and mu(M) - 1 with mu(M) = (1 + sqrt(1 + 4M))/2 and
M = m1^2 + m2^2, so Id + ds*L(m) is singular exactly when ds*mu(M) = 1.  The
step is well posed in the regime ds*(1 + sqrt(1 + 4M))/2 < 1 for every
grid mode; the derivatives annihilate the Nyquist band, so the largest M is
2(N/2 - 1)^2 (ds < 0.046 at N = 32, ds < 0.023 at N = 64).  Along its
growing direction a step multiplies mode m by 1/(1 - ds*mu(M)), which blows
up as ds*mu(M) nears 1; the propagator raises FlowError for a step size
outside the regime (`mu_max`).
States solving the system are exact fixed points of the step because the
implicit solve uses the same discrete derivative convention as the
residual.

Initial-value flows find critical points; they are not two-point
boundary-value trajectories.  The action functional is strongly
indefinite, so generic data exits along growing directions - that outcome
is reported as divergence, not raised.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hamiltonians import (
    CutoffTerms,
    HamiltonianSpec,
    _check_z_field,
    component_sum,
    cutoff_terms,
    grad_H_values,
    smoothstep,
    smoothstep_prime,
)

# perfbench/tracing.py wraps these names on this module
from .hamiltonians import grad_h_tilde, h_tilde, hamiltonian_residual, hamiltonian_value  # noqa: F401
from .spectral import (
    FieldError,
    TorusField,
    derivative,
    derivative_numbers,
    grid_points,
)
from .structures import StructureTriple, standard_structures

DEFAULT_DS = 1e-2
DEFAULT_TOL = 1e-8
DEFAULT_S_MAX = 1e3
MONOTONE_SLACK = 1e-12
DS_MIN = 1e-6  # floor of the step halving on a rising action
RESIDUAL_BLOWUP = 1e6  # a residual this many times its start scale is a blow-up
# Constant seeds flow down to this residual, then Newton takes over (`polish_constants`).
# Near a nondegenerate critical point the residual falls linearly under the flow
# (about 1,150 steps a decade on the flagship) and quadratically under Newton; at
# 1e-3 the state lies about 1e-2 from the critical point the flow is heading for,
# far inside its basin (the critical points are pi apart).
POLISH_BELOW = 1e-3
HOMOTOPY_PAD = 1.0  # run_homotopy flows this far beyond the profile's support on each side
# run_homotopy keeps five float arrays of one entry per step (s, action, h_int,
# max|p|^2, |d_s Z|^2): 40 bytes a step, 40 MB at this cap
MAX_HOMOTOPY_STEPS = 10**6
NEWTON_STEPS = 8  # a polish that is not below tol after this many steps has failed
NEWTON_FD_STEP = 2.0**-17  # central-difference step of the Jacobian
# A constant grid holds each seed on this many grid points (see _FlowGrid): with one,
# numpy sends the potentials' matrix products to gemv, which rounds unlike the gemm
# of the full grid; two points keep a matrix product, and the full grid's bits.
CONSTANT_ROW = 2
# numpy sums a contiguous array pairwise in blocks of up to 128 terms and halves a
# longer one on a multiple of 8, so N^2 >= 256 equal values of a power-of-two grid sum
# to the sum of 128 of them times N^2 / 128: exact doublings, overflow included.
PAIRWISE_BLOCK = 128


class FlowError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# switching profile


@dataclass(frozen=True)
class BetaProfile:
    """Switching profile: 0 outside [-1, (k+1)r + 1], plateau min(r, 1) inside.

    The plateau equals 1 on [0, (k+1)r] once r >= 1; the height factor
    min(r, 1) makes the whole family collapse to zero uniformly (with all
    s-derivatives) as r -> 0+.  Ramp slopes stay within +/- 3/2.
    """

    r: float
    k: int

    def __post_init__(self):
        if not (np.isfinite(self.r) and self.r >= 0):
            raise FlowError(f"profile parameter r must be a finite number >= 0, got {self.r}")
        if self.k < 1:
            raise FlowError("profile factor k must be >= 1")

    @property
    def height(self) -> float:
        return min(self.r, 1.0)

    @property
    def s_on(self) -> float:
        return -1.0

    @property
    def s_off(self) -> float:
        return (self.k + 1) * self.r + 1.0

    def value(self, s):
        s = np.asarray(s, dtype=float)
        return self.height * smoothstep(s + 1.0) * smoothstep(self.s_off - s)

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        up = smoothstep(s + 1.0)
        down = smoothstep(self.s_off - s)
        return self.height * (smoothstep_prime(s + 1.0) * down - up * smoothstep_prime(self.s_off - s))


# ---------------------------------------------------------------------------
# IMEX propagator


def mu_max(n_grid: int) -> float:
    """Largest mu(M) = (1 + sqrt(1 + 4M))/2 over the derivative modes of an N grid.

    The derivatives annihilate the Nyquist band, so M <= 2 (N/2 - 1)^2.
    """
    m = n_grid // 2 - 1
    return 0.5 * (1.0 + np.sqrt(1.0 + 8.0 * m * m))


def check_step(n_grid: int, ds: float) -> dict:
    """Raise FlowError unless 0 < ds < 1 and ds * mu_max < 1 on the N x N grid.

    Returns ds * mu_max and 1 / (1 - ds * mu_max), the largest factor by
    which one step amplifies a grid mode along its growing direction.
    """
    if not 0.0 < ds < 1.0:
        raise FlowError(f"step size must lie in (0, 1), got {ds}")
    mu = mu_max(n_grid)
    if ds * mu >= 1.0:
        raise FlowError(
            f"ds={ds} leaves the step regime on the {n_grid}x{n_grid} grid: ds*mu_max = "
            f"{ds * mu:.3g} >= 1, need ds < {1.0 / mu:.4g} "
            "(at ds*mu = 1 a grid mode has a singular implicit solve)"
        )
    return {"ds_mu_max": float(ds * mu), "max_step_amplification": float(1.0 / (1.0 - ds * mu))}


def _propagator(n_grid: int, ds: float, triple: StructureTriple, modes) -> np.ndarray:
    """Inverse per-mode matrices (Id + ds * (i(m1 J + m2 K) - P))^(-1) of the grid modes `modes`.

    modes is an index of the (N, N) mode grid, such as the half spectrum
    np.s_[:, : N // 2 + 1]; each matrix is inverted alone, so a subset gives
    the same bits as the full grid.
    """
    check_step(n_grid, ds)
    dim = triple.dim
    m1, m2 = derivative_numbers(n_grid)
    proj = np.zeros((dim, dim))
    half = dim // 2
    proj[half:, half:] = np.eye(half)
    lin = (
        1j * m1[modes][:, :, None, None] * triple.J
        + 1j * m2[modes][:, :, None, None] * triple.K
        - proj
    )
    return np.linalg.inv(np.eye(dim) + ds * lin)


def _is_constant(spec: HamiltonianSpec, zhat: np.ndarray) -> bool:
    """True when the flow of zhat may be advanced on its (0, 0) block alone.

    That holds for an exactly constant state (every other coefficient is
    zero) of an autonomous h on a power-of-two grid.  There the transforms
    of a constant field are exact: zero off (0, 0) and the value itself at
    (0, 0), so the state stays constant to the last bit.  On other grids
    (N = 12, 24, 48, ...) the (0, 0) coefficient of a constant is rounded.
    """
    n = zhat.shape[0]
    return (
        not spec.time_dependent
        and n & (n - 1) == 0
        and not np.any(zhat[1:])
        and not np.any(zhat[0, 1:])
    )


def constant_start(spec: HamiltonianSpec, Z: TorusField):
    """(row, coefficient) of Z when its flow runs on the (0, 0) block alone, else None.

    Z qualifies when it holds the same bytes at every grid point, so that it
    is its first row repeated, and its modes pass `_is_constant`.  row is
    the (1, N, 4n) first grid row and coefficient the (1, 1, 4n) (0, 0)
    mode; `flow_constants` flows a list of them.  Only a field with equal
    values is transformed.
    """
    _check_z_field(spec, Z)
    bits = Z.values.view(np.uint64)
    if spec.time_dependent or not np.all(bits == bits[0, 0]):
        return None
    zhat = _rfft2(Z.values)
    if not _is_constant(spec, zhat):
        return None
    return Z.values[:1].copy(), zhat[:1, :1].copy()


def _planes(x):
    """The (k, N, N') component planes of an (N, N', k) grid array, as a view."""
    return x.transpose(2, 0, 1)


def _grid(planes):
    """The (N, N', k) grid view of (k, N, N') component planes."""
    return planes.transpose(1, 2, 0)


def _rfft2(values):
    """rfft2 over the grid axes of (N, N, k) values, transformed plane by plane.

    The result follows the layout of values: for component-major values it
    is the grid view of C-contiguous (k, N, N/2 + 1) planes.
    """
    return _grid(np.fft.rfft2(_planes(values), norm="forward"))


def _irfft2(zhat, n_grid: int):
    return _grid(np.fft.irfft2(_planes(zhat), s=(n_grid, n_grid), norm="forward"))


class _FlowGrid:
    """The grid side of IMEX flow runs: the step, the action, grid means and the residual.

    A state is a pair (vals, zhat) of grid values and mode coefficients;
    `start` is the first one.  The grid flows one or more seeds, and every
    per-seed quantity (action, mean, max|p|^2, residual, finiteness) is an
    array over them; a step takes one step size per seed.

    A full grid flows one seed.  zhat is the rfft2 half spectrum, shape
    (N, N/2 + 1, 4n): the modes of a real field at -m are the conjugates of
    those at m, so only columns m2 = 0 .. N/2 are held.  Every stepped
    state is component-major: vals and zhat are the (N, N, 4n) and
    (N, N/2 + 1, 4n) grid views of C-contiguous (4n, N, N) and
    (4n, N, N/2 + 1) planes (the start vals are the C-ordered start
    field's), and the propagator is held as (4n, 4n, N, N/2 + 1).  The
    transforms run over contiguous planes, and each sum over components
    (|p|^2, |dZ|^2, the residual) adds whole planes in the order numpy sums
    a C-ordered component axis (`component_sum`), so every result is
    bit-identical to the trailing-component layout.

    A constant grid flows B exactly constant states of an autonomous h
    (`constant_start`) on their (0, 0) blocks alone, one seed per row: zhat
    is (B, 1, 4n), the (0, 0) block of each seed's propagator advances it,
    and vals is (B, CONSTANT_ROW, 4n), each seed's value on the first two
    points of a grid row, on which the pointwise functions run.  Two
    points, not one, keep every matrix product of a potential a matrix
    product: numpy computes a one-row product as a matrix-vector product,
    which rounds unlike the full grid's (N, 2n) products, while the rows of
    a matrix product round alike at every row count (their memory layout
    does not matter, see above).  Each grid mean is taken in closed form:
    numpy's pairwise sum of the N^2 equal values of a power-of-two grid is
    the sum of 128 of them doubled exactly (`mean`).  Every seed's results
    are bit-identical to its full-grid flow, step halving and termination
    included.

    The nonlinearity of a state is evaluated once (`cutoff_terms`) and
    kept for the last state seen, keyed by the identity of its vals: the
    step, the action, max|p|^2, h_int and the residual all read it.
    """

    def __init__(self, spec, triple, Z: TorusField):
        start = constant_start(spec, Z)
        if start is None:
            self._setup(spec, triple, Z.grid_size, False, (Z.values, _rfft2(Z.values)))
        else:
            self._setup(spec, triple, Z.grid_size, True, (start[0][:, :CONSTANT_ROW], start[1]))

    @classmethod
    def constants(cls, spec, triple, starts) -> "_FlowGrid":
        """The constant grid of `starts`, one (row, coefficient) pair per seed from `constant_start`."""
        grid = cls.__new__(cls)
        rows, coefs = zip(*starts)
        start = (np.concatenate([row[:, :CONSTANT_ROW] for row in rows]), np.concatenate(coefs))
        grid._setup(spec, triple, rows[0].shape[1], True, start)
        return grid

    def _setup(self, spec, triple, n, constant, start):
        triple = standard_structures(spec.n_pairs) if triple is None else triple
        self.spec, self.triple, self.n, self.constant = spec, triple, n, constant
        modes = np.s_[:1, :1] if constant else np.s_[:, : n // 2 + 1]
        t1, t2 = grid_points(n)
        m1, m2 = derivative_numbers(n)
        self.t1, self.t2 = (t1[:1, :CONSTANT_ROW], t2[:1, :CONSTANT_ROW]) if constant else (t1, t2)
        self.modes = modes
        self.im1 = (1j * m1[modes])[:, :, None]
        self.im2 = (1j * m2[modes])[:, :, None]
        # Parseval: each interior column of the half spectrum stands for m and -m
        cols = np.arange(self.im1.shape[1])
        self.parseval = np.where((cols == 0) | (cols == n // 2), 1.0, 2.0)[None, :, None]
        # the transform of a +0.0 plane, signed zeros and all, for the p planes of a q-only gradient
        self._zero_hat = None if constant else np.fft.rfft2(np.zeros((n, n)), norm="forward")
        self.start = start
        self.n_seeds = len(start[0]) if constant else 1
        self._props: dict = {}
        self._seed_props = self._seed_props_key = None
        self._vals = self._terms_of_vals = None

    def terms(self, vals) -> CutoffTerms:
        """The pointwise evaluation of the nonlinearity at vals, reused while vals is the last state."""
        if vals is not self._vals:
            self._terms_of_vals = cutoff_terms(self.spec, self.t1, self.t2, vals)
            self._vals = vals
        return self._terms_of_vals

    def take(self, keep, vals, zhat):
        """The seeds `keep` (a mask) of a constant-grid state; the kept evaluation follows them."""
        kept = vals[keep], zhat[keep]
        if vals is self._vals:
            t = self._terms_of_vals
            self._terms_of_vals = CutoffTerms(t.p_sq[keep], t.h[keep], t.grad[keep], t.p_grad_zero)
            self._vals = kept[0]
        return kept

    def _propagator(self, ds: float):
        """The propagator on the held modes: (1, 1, 4n, 4n) on a constant grid, else (4n, 4n, N, N/2 + 1)."""
        prop = self._props.get(ds)
        if prop is None:
            prop = _propagator(self.n, ds, self.triple, self.modes)
            prop = np.ascontiguousarray(prop if self.constant else prop.transpose(2, 3, 0, 1))
            self._props[ds] = prop
        return prop

    def _propagators(self, ds):
        """The propagator for each seed's step size, stacked along the seed axis on a constant grid."""
        if not self.constant:
            return self._propagator(ds[0])
        key = ds.tobytes()
        if key != self._seed_props_key:
            self._seed_props = np.concatenate([self._propagator(d) for d in ds.tolist()])
            self._seed_props_key = key
        return self._seed_props

    def _nonlinear_modes(self, vals, weight):
        """The held modes of weight * grad h_tilde at vals."""
        terms = self.terms(vals)
        nl = terms.grad if weight == 1.0 else weight * terms.grad
        if self.constant:  # the (0, 0) coefficient of a constant field is its value
            return nl[:, :1].astype(complex)
        if not (terms.p_grad_zero and 0.0 < weight < np.inf):
            return _rfft2(nl)
        # the p planes of nl are +0.0: only the q planes are transformed
        q = 2 * self.spec.n_pairs
        nhat = np.empty((self.spec.dim, *self._zero_hat.shape), dtype=complex)
        np.fft.rfft2(_planes(nl)[:q], norm="forward", out=nhat[:q])
        nhat[q:] = self._zero_hat
        return _grid(nhat)

    def step(self, vals, zhat, ds, weight):
        """One implicit-explicit Euler update, seed i by ds[i].

        Returns C-contiguous vals and modes on a constant grid, component-major
        ones on a full grid.
        """
        prop = self._propagators(ds)
        if weight != 0.0:
            rhs = zhat + ds[:, None, None] * self._nonlinear_modes(vals, weight)
        else:
            rhs = zhat
        if self.constant:  # the inverse transform of a lone (0, 0) coefficient puts it on every point
            new_hat = np.einsum("xyab,xyb->xya", prop, rhs)
            return np.repeat(new_hat.real, CONSTANT_ROW, axis=1), new_hat
        # C-contiguous planes in, C-contiguous planes out: from its first step on,
        # the C-ordered start state is component-major
        new_hat = _grid(np.einsum("abxy,bxy->axy", prop, np.ascontiguousarray(_planes(rhs))))
        return _irfft2(new_hat, self.n), new_hat

    def _by_seed(self, x):
        """x with one row per seed: the first axis of a constant grid; a full grid is one seed."""
        return x.reshape(len(x) if self.constant else 1, -1)

    def mean(self, x):
        """Grid mean of a pointwise array, per seed (np.mean's sum and division).

        On a constant grid the sum of a seed's N^2 equal values is taken in
        closed form (PAIRWISE_BLOCK); a grid of at most 128 points sums them all.
        """
        points = self.n * self.n
        if not self.constant:
            return np.add.reduce(self._by_seed(x), axis=1) / points
        block = min(points, PAIRWISE_BLOCK)
        return np.add.reduce(np.repeat(x[:, :1], block, axis=1), axis=1) * (points // block) / points

    def mean_sq(self, x):
        """Grid mean of the pointwise |x|^2, per seed."""
        return self.mean(component_sum(x * x))

    def finite(self, vals):
        if not self.constant:  # over the component planes: a reshape of their grid view copies it
            return np.array([np.isfinite(_planes(vals)).all()])
        return np.logical_and.reduce(np.isfinite(self._by_seed(vals)), axis=1)

    def action(self, vals, zhat, weight):
        """Action via Parseval for the kinetic pairing, grid values for H."""
        n = self.spec.n_pairs
        qa, qb = zhat[:, :, :n], zhat[:, :, n : 2 * n]
        pa, pb = zhat[:, :, 2 * n : 3 * n], zhat[:, :, 3 * n :]
        va = self.im1 * qa + self.im2 * qb
        vb = self.im1 * qb - self.im2 * qa
        pairing = self.parseval * (np.conj(pa) * va + np.conj(pb) * vb).real
        pairing = np.add.reduce(self._by_seed(pairing), axis=1)
        terms = self.terms(vals)
        return pairing - self.mean(0.5 * terms.p_sq + weight * terms.h)

    def max_p_sq(self, vals):
        return np.maximum.reduce(self._by_seed(self.terms(vals).p_sq), axis=1)

    def h_int(self, vals):
        """Grid mean of the cut-off nonlinearity h_tilde."""
        return self.mean(self.terms(vals).h)

    def residual(self, vals, zhat, h_weight: float = 1.0):
        """L2 norm of the system residual dirac(Z) - grad H(Z), dirac taken from the modes."""
        res = grad_H_values(self.spec, self.terms(vals).grad, vals, h_weight)
        if not self.constant:  # dirac of a constant field is exactly zero
            # C-ordered modes: a matrix product rounds by layout (TrigPotential._phases)
            zhat = np.ascontiguousarray(zhat)
            dhat = self.im1 * (zhat @ self.triple.J.T) + self.im2 * (zhat @ self.triple.K.T)
            res = _irfft2(dhat, self.n) - res
        return np.sqrt(np.maximum(self.mean_sq(res), 0.0))

    def field(self, vals, seed: int = 0) -> TorusField:
        """The field of one seed in state vals; a constant seed's holds its value on every point."""
        if self.constant:
            vals = np.broadcast_to(vals[seed : seed + 1, :1], (self.n, self.n, vals.shape[2]))
        return TorusField(vals, "z")


def action(spec: HamiltonianSpec, Z: TorusField, h_weight: float = 1.0) -> float:
    """Action integral of Z, unit-mass normalized: mean(<p, 2 d_t q> - H_tilde), as the flow takes it."""
    grid = _FlowGrid(spec, None, Z)
    return float(grid.action(*grid.start, h_weight)[0])


# ---------------------------------------------------------------------------
# autonomous flow to a critical point


@dataclass
class FlowResult:
    Z: TorusField
    s_reached: float
    residual_norm: float
    converged: bool
    diverged: bool
    reason: str
    n_steps: int
    ds_final: float
    rows: list
    n_halvings: int


DIAGNOSTIC_COLUMNS = ("s", "action", "residual", "max_p_sq", "energy_cum")


def flow_to_solution(
    Z0: TorusField,
    spec: HamiltonianSpec,
    triple: StructureTriple | None = None,
    tol: float = DEFAULT_TOL,
    s_max: float = DEFAULT_S_MAX,
    ds: float = DEFAULT_DS,
    check_every: int = 10,
) -> FlowResult:
    """Run the autonomous flow until the system residual drops below tol.

    The step is halved, down to DS_MIN, whenever the action increases
    beyond round-off (the autonomous flow is a descent, so a genuine
    increase means the step is too long).  Divergence - max|p|^2 past 2 rho
    (1e6 without a cut-off), a residual that is RESIDUAL_BLOWUP times its
    start scale or not finite (at the start and at s_max too), or non-finite
    values - is reported in the result, not raised.

    The flow amplifies content at spatial mode m roughly like
    exp(|m| s), so transform round-off seeds the fastest grid modes and
    caps how small the residual of a non-constant state can get over long
    horizons (exactly constant states are immune: they stay constant to
    the last bit).
    """
    return _flow(_FlowGrid(spec, triple, Z0), tol, s_max, ds, check_every)[0]


def flow_constants(
    starts: list,
    spec: HamiltonianSpec,
    tol: float = DEFAULT_TOL,
    s_max: float = DEFAULT_S_MAX,
    ds: float = DEFAULT_DS,
    check_every: int = 10,
    stop=None,
) -> list:
    """Flow exactly constant seeds as one batch, each as `flow_to_solution` flows it alone.

    starts holds a (row, coefficient) pair per seed from `constant_start`.
    Returns one FlowResult per seed, in order, bit-identical to
    flow_to_solution of the seed's field.  stop, a callable, is asked
    between steps; once it returns True the seeds still running get None.
    """
    if not starts:
        return []
    return _flow(_FlowGrid.constants(spec, None, starts), tol, s_max, ds, check_every, stop)


def polish_constants(results: list, spec: HamiltonianSpec, tol: float) -> list:
    """Newton's method on exactly constant flow limits, run as one batch; None where it fails.

    results holds FlowResults of constant states, such as the converged
    results of `flow_constants` at a looser tolerance.  A constant state z
    solves the system when F(z) = grad H(z) vanishes, so each Newton step
    is one dim x dim solve per seed.  The Jacobian of F is the central
    difference of the spec's own gradient (one `cutoff_terms` call for
    every seed and probe), so any autonomous h qualifies, and the residual
    is the constant grid's, the flow's own.  A seed takes steps while each
    lowers its residual and moves its state by more than round-off, and
    keeps the last such state, usually at round-off level.  It fails, and
    gets None, when its residual stops falling (a singular or non-finite
    Jacobian makes the step NaN) before it is below tol, or when it is not
    below tol after NEWTON_STEPS steps.  Otherwise it gets a copy of its FlowResult with the polished
    field, its residual and the reason; the flow's fields (steps, flow
    time, rows) are kept.
    """
    if not results:
        return []
    polished = [None] * len(results)

    def state(z):
        return np.repeat(z[:, None], CONSTANT_ROW, axis=1), z[:, None].astype(complex)

    seeds = np.arange(len(results))
    starts = [(r.Z.values[:1], r.Z.values[:1, :1].astype(complex)) for r in results]
    grid = _FlowGrid.constants(spec, None, starts)
    vals, zhat = grid.start
    z = vals[:, 0]
    residual = grid.residual(vals, zhat)
    t = grid.t1[:, :1]  # h is autonomous: one point stands for all
    probes = NEWTON_FD_STEP * np.stack([np.eye(spec.dim), -np.eye(spec.dim)])  # (2, k, dim)
    for n_newton in range(NEWTON_STEPS + 1):
        falls = np.zeros(len(z), dtype=bool)
        if n_newton < NEWTON_STEPS:
            f = grad_H_values(spec, grid.terms(vals).grad, vals)[:, 0]
            zp = z[:, None, None] + probes
            fp = grad_H_values(spec, cutoff_terms(spec, t, t, zp).grad, zp)  # (B, 2, k, dim)
            jac = np.swapaxes(fp[:, 0] - fp[:, 1], 1, 2) / (2.0 * NEWTON_FD_STEP)
            new_z = z + _solve_each(jac, -f)
            new_vals, new_hat = state(new_z)
            new_residual = grid.residual(new_vals, new_hat)
            # a step counts if it lowers the residual and moves the state by more than round-off
            round_off = np.finfo(float).eps * np.fmax(1.0, np.max(np.abs(z), axis=1))
            falls = (new_residual < residual) & (np.max(np.abs(new_z - z), axis=1) > round_off)  # False for NaN
        for i in np.flatnonzero(~falls & (residual < tol)):
            polished[seeds[i]] = replace(
                results[seeds[i]], Z=grid.field(vals, i), residual_norm=float(residual[i]),
                reason=f"residual below tol after {n_newton} Newton steps",
            )
        if not falls.any():
            break
        seeds, z, residual = seeds[falls], new_z[falls], new_residual[falls]
        vals, zhat = grid.take(falls, new_vals, new_hat)
    return polished


def _solve_each(a, b):
    """x with a[i] x[i] = b[i] for each i, NaN where a[i] is singular or not finite."""
    x = np.full_like(b, np.nan)
    ok = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    try:
        x[ok] = np.linalg.solve(a[ok], b[ok][..., None])[..., 0]
    except np.linalg.LinAlgError:  # one singular matrix fails the whole batch: solve one by one
        for i in np.flatnonzero(ok):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
    return x


def _flow(grid, tol, s_max, ds, check_every, stop=None):
    """The adaptive flow of every seed of grid; see flow_to_solution and flow_constants.

    Each seed keeps its own step size, flow time, energy and diagnostics
    rows, and leaves the working arrays when it finishes.  An iteration
    advances every running seed or none: when a seed's step is halved or a
    seed turns non-finite, the others take the same step again in the next
    iteration.  So the running seeds share one step count, and with it the
    residual check cadence.
    """
    if check_every < 1:
        raise FlowError(f"check_every must be >= 1, got {check_every}")
    rho = grid.spec.rho
    escape_p_sq = 2.0 * rho if np.isfinite(rho) else 1e6
    grid._propagator(ds)  # rejects a ds outside the step regime even if no step is taken

    results = [None] * grid.n_seeds
    seeds = np.arange(grid.n_seeds)
    ds = np.full(grid.n_seeds, float(ds))
    s = np.zeros(grid.n_seeds)
    energy_cum = np.zeros(grid.n_seeds)
    n_halvings = np.zeros(grid.n_seeds, dtype=int)
    n_steps = 0
    vals, zhat = grid.start
    # diagnostics rows carry the latest residual, refreshed every check_every steps
    residual = grid.residual(vals, zhat)
    residual_scale = np.fmax(1.0, residual)
    act = grid.action(vals, zhat, 1.0)
    max_p_sq = grid.max_p_sq(vals)
    rows = [[row] for row in zip(*(x.tolist() for x in (s, act, residual, max_p_sq, energy_cum)))]
    # the rows between two checks share one float object for the residual
    listed, residual_values = residual, [seed_rows[0][2] for seed_rows in rows]

    def finish(i, field, converged, diverged, reason):
        seed = seeds[i]
        results[seed] = FlowResult(
            field, float(s[i]), float(residual[i]), converged, diverged, reason,
            n_steps, float(ds[i]), rows[seed], int(n_halvings[i]),
        )

    # a start residual that is not finite sets no scale for a blow-up: the seed ends at once
    finished = (residual < tol) | ~np.isfinite(residual)
    for i in np.flatnonzero(finished):
        done = bool(residual[i] < tol)
        finish(i, grid.field(vals, i), done, not done, "initial residual below tol" if done else "residual blow-up")
    if not 0.0 < s_max:  # no step at all
        for i in np.flatnonzero(~finished):
            finish(i, grid.field(vals, i), False, False, "s_max reached")
        return results
    while True:
        if finished is not None and finished.any():
            if finished.all():
                break
            keep = ~finished
            seeds, ds, s, act, residual, residual_scale, energy_cum, n_halvings = (
                x[keep] for x in (seeds, ds, s, act, residual, residual_scale, energy_cum, n_halvings)
            )
            vals, zhat = grid.take(keep, vals, zhat)
        finished = None
        if stop is not None and stop():
            break

        new_vals, new_hat = grid.step(vals, zhat, ds, 1.0)
        finite = grid.finite(new_vals)
        if not finite.all():
            finished = ~finite
            for i in np.flatnonzero(finished):
                finish(i, grid.field(vals, i), False, True, "non-finite state")
            continue
        new_act = grid.action(new_vals, new_hat, 1.0)
        rises = new_act > act + MONOTONE_SLACK * np.fmax(1.0, np.abs(act))
        if rises.any():
            halve = rises & (ds > DS_MIN)
            if halve.any():
                ds = np.where(halve, 0.5 * ds, ds)
                n_halvings = n_halvings + halve
                continue
        dz = new_vals - vals
        energy_cum = energy_cum + grid.mean_sq(dz) / ds
        vals, zhat, act = new_vals, new_hat, new_act
        s = s + ds
        n_steps += 1
        max_p_sq = grid.max_p_sq(vals)
        escaped = max_p_sq > escape_p_sq
        exits = escaped | ~(s < s_max)
        if n_steps % check_every == 0:
            residual = grid.residual(vals, zhat)
            exits |= ~(residual <= RESIDUAL_BLOWUP * residual_scale) | (residual < tol)  # NaN too
            any_exit = exits.any()
        else:  # the residual of a seed changes only at checks, or when it escapes
            any_exit = exits.any()
            if any_exit and escaped.any():
                residual = np.where(escaped, grid.residual(vals, zhat), residual)
        if residual is not listed:
            listed, residual_values = residual, residual.tolist()
        new_rows = zip(s.tolist(), act.tolist(), residual_values, max_p_sq.tolist(), energy_cum.tolist())
        for seed, row in zip(seeds.tolist(), new_rows):
            rows[seed].append(row)
        if any_exit:
            blowup = ~(residual <= RESIDUAL_BLOWUP * residual_scale)
            converged = residual < tol
            at_s_max = exits & ~(escaped | blowup | converged)
            if at_s_max.any():
                residual = np.where(at_s_max, grid.residual(vals, zhat), residual)
                blowup |= at_s_max & ~np.isfinite(residual)
            for i in np.flatnonzero(exits):
                field = grid.field(vals, i)
                if escaped[i]:
                    finish(i, field, False, True, f"max|p|^2 {max_p_sq[i]:.3g} escaped")
                elif blowup[i]:
                    finish(i, field, False, True, "residual blow-up")
                elif converged[i]:
                    finish(i, field, True, False, "residual below tol")
                else:
                    finish(i, field, False, False, "s_max reached")
            finished = exits
    return results


# ---------------------------------------------------------------------------
# switching trajectories and energy bookkeeping


@dataclass
class FlowTrajectory:
    """Uniformly sampled flow run with the scalars needed for energy checks.

    Arrays are indexed by sample; vsq holds the squared L2 velocity of each
    step (length len(s) - 1).  action is evaluated with the instantaneous
    profile weight, h_int is the torus mean of the cut-off nonlinearity.
    """

    s: np.ndarray
    action: np.ndarray
    h_int: np.ndarray
    max_p_sq: np.ndarray
    vsq: np.ndarray
    ds: float
    profile: BetaProfile
    end_residuals: tuple
    ends_converged: tuple
    snapshots: list


def switching_window(n_pairs: int, r: float, ds: float) -> tuple:
    """(profile beta_r with k = 2n, step count) of run_homotopy's window; at most MAX_HOMOTOPY_STEPS."""
    profile = BetaProfile(r=r, k=2 * n_pairs)
    n_steps = np.ceil((profile.s_off + HOMOTOPY_PAD - (profile.s_on - HOMOTOPY_PAD)) / ds)
    if not n_steps <= MAX_HOMOTOPY_STEPS:  # an infinite window too
        raise FlowError(
            f"the switching window of r={r} needs {n_steps:.3g} steps of ds={ds}, "
            f"more than the cap of {MAX_HOMOTOPY_STEPS:.0e}"
        )
    return profile, int(n_steps)


def run_homotopy(
    Z0: TorusField,
    spec: HamiltonianSpec,
    r: float,
    triple: StructureTriple | None = None,
    ds: float = 5e-3,
    snapshot_every: int | None = None,
) -> FlowTrajectory:
    """Flow across the full switching window of beta_r (k = 2n), recording diagnostics.

    Integrates from s = -(1 + HOMOTOPY_PAD) to (k+1)r + 1 + HOMOTOPY_PAD so
    the profile is identically zero at both ends; end residuals are taken
    against the plain quadratic Hamiltonian there and count as converged
    below DEFAULT_TOL.
    """
    profile, n_steps = switching_window(spec.n_pairs, r, ds)
    s_start = profile.s_on - HOMOTOPY_PAD
    svals = s_start + np.arange(n_steps + 1) * ds
    act = np.empty(n_steps + 1)
    h_int = np.empty(n_steps + 1)
    max_p_sq = np.empty(n_steps + 1)
    vsq = np.empty(n_steps)
    snapshots = []

    grid = _FlowGrid(spec, triple, Z0)
    vals, zhat = grid.start
    step = np.full(1, ds)
    weights = profile.value(svals).tolist()  # elementwise: each weight has the bits of a call at its s
    for i, (s, w) in enumerate(zip(svals.tolist(), weights)):
        act[i] = grid.action(vals, zhat, w).item()
        h_int[i] = grid.h_int(vals).item()
        max_p_sq[i] = grid.max_p_sq(vals).item()
        if snapshot_every is not None and i % snapshot_every == 0:
            snapshots.append((s, grid.field(vals)))
        if i == n_steps:
            break
        new_vals, new_hat = grid.step(vals, zhat, step, w)
        if not np.all(np.isfinite(new_vals)):
            raise FlowError(f"homotopy flow lost finiteness at s={s:.3f}")
        dz = new_vals - vals
        vsq[i] = grid.mean_sq(dz).item() / ds**2
        vals, zhat = new_vals, new_hat

    res_start = grid.residual(*grid.start, h_weight=0.0).item()
    res_end = grid.residual(vals, zhat, h_weight=0.0).item()
    return FlowTrajectory(
        s=svals,
        action=act,
        h_int=h_int,
        max_p_sq=max_p_sq,
        vsq=vsq,
        ds=ds,
        profile=profile,
        end_residuals=(res_start, res_end),
        ends_converged=(res_start < DEFAULT_TOL, res_end < DEFAULT_TOL),
        snapshots=snapshots,
    )


def _sample_index(traj: FlowTrajectory, s: float | None, default: int) -> int:
    if s is None:
        return default
    idx = int(np.argmin(np.abs(traj.s - s)))
    return idx


def energy(traj: FlowTrajectory, s0: float | None = None, s1: float | None = None) -> float:
    """Flow energy: integral of |d_s Z|^2 over [s0, s1] from stored velocities."""
    i0 = _sample_index(traj, s0, 0)
    i1 = _sample_index(traj, s1, len(traj.s) - 1)
    if i1 - i0 < 1:
        raise FlowError("energy window contains fewer than two samples")
    return float(np.sum(traj.vsq[i0:i1]) * traj.ds)


@dataclass(frozen=True)
class EnergyIdentityReport:
    energy: float
    action_drop: float
    switch_integral: float
    defect: float


def energy_identity_check(
    traj: FlowTrajectory, s0: float | None = None, s1: float | None = None
) -> EnergyIdentityReport:
    """Defect of E = A(s0) - A(s1) - integral of beta' * h over the window.

    The actions carry the instantaneous profile weight; the switching
    integral is a trapezoid over the stored torus means of h.  Expected
    size O(ds^2) plus quadrature error on smooth runs.
    """
    i0 = _sample_index(traj, s0, 0)
    i1 = _sample_index(traj, s1, len(traj.s) - 1)
    e = energy(traj, traj.s[i0], traj.s[i1])
    drop = float(traj.action[i0] - traj.action[i1])
    bprime = traj.profile.derivative(traj.s[i0 : i1 + 1])
    switch = float(np.trapezoid(bprime * traj.h_int[i0 : i1 + 1], dx=traj.ds))
    return EnergyIdentityReport(e, drop, switch, abs(e - (drop - switch)))


@dataclass(frozen=True)
class MaxPrincipleReport:
    max_p_sq: float
    rho: float
    passed: bool
    ends_converged: tuple
    grid_tol: float = 1e-8


def max_principle_check(traj: FlowTrajectory, rho: float, grid_tol: float = 1e-8) -> MaxPrincipleReport:
    """Report whether |p|^2 stayed below rho along the whole trajectory."""
    worst = float(np.max(traj.max_p_sq))
    return MaxPrincipleReport(worst, rho, worst <= rho + grid_tol, traj.ends_converged, grid_tol)


def energy_density(Z: TorusField, dZds: TorusField) -> np.ndarray:
    """Pointwise density (|d_s Z|^2 + |d1 Z|^2 + |d2 Z|^2) / 2 on the grid."""
    if Z.values.shape != dZds.values.shape:
        raise FieldError("field and velocity shapes differ")
    d1 = derivative(Z, "d1").values
    d2 = derivative(Z, "d2").values
    return 0.5 * (
        np.sum(dZds.values**2, axis=2) + np.sum(d1**2, axis=2) + np.sum(d2**2, axis=2)
    )
