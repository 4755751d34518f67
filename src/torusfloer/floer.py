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

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .hamiltonians import (
    CutoffTerms,
    HamiltonianSpec,
    _check_z_field,
    cutoff_terms,
    grad_H_values,
    hamiltonian_residual,
)

# perfbench/tracing.py wraps these names on this module
from .hamiltonians import grad_h_tilde, h_tilde, hamiltonian_value  # noqa: F401
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


class FlowError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# switching profile


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
        if self.r < 0:
            raise FlowError("profile parameter r must be >= 0")
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

    def __call__(self, s):
        return self.value(s)


def _weight(profile: BetaProfile | None, s: float) -> float:
    return 1.0 if profile is None else float(profile.value(s))


# ---------------------------------------------------------------------------
# IMEX propagator


_PROP_CACHE: dict = {}


def mu_max(n_grid: int) -> float:
    """Largest mu(M) = (1 + sqrt(1 + 4M))/2 over the derivative modes of an N grid.

    The derivatives annihilate the Nyquist band, so M <= 2 (N/2 - 1)^2.
    """
    m = n_grid // 2 - 1
    return 0.5 * (1.0 + np.sqrt(1.0 + 8.0 * m * m))


def _propagator(n_grid: int, ds: float, triple: StructureTriple) -> np.ndarray:
    """Inverse per-mode matrices (Id + ds * (i(m1 J + m2 K) - P))^(-1) on the full N x N grid."""
    if not 0.0 < ds < 1.0:
        raise FlowError(f"step size must lie in (0, 1), got {ds}")
    mu = mu_max(n_grid)
    if ds * mu >= 1.0:
        raise FlowError(
            f"ds={ds} leaves the step regime on the {n_grid}x{n_grid} grid: ds*mu_max = "
            f"{ds * mu:.3g} >= 1, need ds < {1.0 / mu:.4g} "
            "(at ds*mu = 1 a grid mode has a singular implicit solve)"
        )
    key = (n_grid, float(ds), triple.dim, triple.J.tobytes(), triple.K.tobytes())
    cached = _PROP_CACHE.get(key)
    if cached is not None:
        return cached
    dim = triple.dim
    m1, m2 = derivative_numbers(n_grid)
    proj = np.zeros((dim, dim))
    half = dim // 2
    proj[half:, half:] = np.eye(half)
    lin = (
        1j * m1[:, :, None, None] * triple.J
        + 1j * m2[:, :, None, None] * triple.K
        - proj
    )
    inv = np.linalg.inv(np.eye(dim) + ds * lin)
    if len(_PROP_CACHE) > 64:
        _PROP_CACHE.clear()
    _PROP_CACHE[key] = inv
    return inv


def band_mask(n_grid: int, band_limit: int | None) -> np.ndarray | None:
    """Boolean (N, N) mask keeping modes with max(|m1|, |m2|) <= band_limit."""
    if band_limit is None:
        return None
    m1, m2 = derivative_numbers(n_grid)
    return (np.abs(m1) <= band_limit) & (np.abs(m2) <= band_limit)


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


def _rfft2(values):
    return np.fft.rfft2(values, axes=(0, 1), norm="forward")


def _irfft2(zhat, n_grid: int):
    return np.fft.irfft2(zhat, s=(n_grid, n_grid), axes=(0, 1), norm="forward")


class _FlowGrid:
    """The grid side of IMEX flow runs: the step, the action, grid means and the residual.

    A state is a pair (vals, zhat) of grid values and mode coefficients;
    `start` is the first one.  The grid flows one or more seeds, and every
    per-seed quantity (action, mean, max|p|^2, residual, finiteness) is an
    array over them; a step takes one step size per seed.

    A full grid flows one seed.  zhat is the rfft2 half spectrum, shape
    (N, N/2 + 1, 4n): the modes of a real field at -m are the conjugates of
    those at m, so only columns m2 = 0 .. N/2 are held.

    A constant grid flows B exactly constant states of an autonomous h
    (`_is_constant`) on their (0, 0) blocks alone, one seed per row: zhat
    is (B, 1, 4n), the (0, 0) block of each seed's propagator advances it,
    and vals is (B, N, 4n), each seed's values on one grid row, on which
    the pointwise functions run.  A row, not a single point, keeps the
    array shapes and layouts of the full grid, so the same kernels round
    the same way.  Each grid mean is the mean of an (N, N) array filled
    with the seed's one pointwise value, which repeats the
    pairwise-summation rounding of the full grid.  Every seed's results
    are bit-identical to its full-grid flow, step halving and termination
    included.

    The nonlinearity of a state is evaluated once (`cutoff_terms`) and
    kept for the last state seen, keyed by the identity of its vals: the
    step, the action, max|p|^2, h_int and the residual all read it.
    """

    def __init__(self, spec, triple, Z: TorusField, band_limit: int | None = None):
        _check_z_field(spec, Z)
        n = Z.grid_size
        zhat = _rfft2(Z.values)
        mask = band_mask(n, band_limit)
        if mask is not None:
            zhat *= mask[:, : n // 2 + 1, None]
            Z = TorusField(_irfft2(zhat, n), "z")
        if _is_constant(spec, zhat):
            self._setup(spec, triple, n, True, (Z.values[:1], zhat[:1, :1]), mask)
        else:
            self._setup(spec, triple, n, False, (Z.values, zhat), mask)
        # the start state as given (band-limited if asked): a field rebuilt
        # from one row has another memory layout, and means over it round differently
        self._start_fields = [Z]

    @classmethod
    def constants(cls, spec, triple, starts) -> "_FlowGrid":
        """The constant grid of `starts`, one (row, coefficient) pair per seed from `constant_start`."""
        grid = cls.__new__(cls)
        rows, coefs = zip(*starts)
        start = (np.concatenate(rows), np.concatenate(coefs))
        grid._setup(spec, triple, start[0].shape[1], True, start, None)
        grid._start_fields = None
        return grid

    def _setup(self, spec, triple, n, constant, start, mask):
        self.spec, self.triple, self.n, self.constant = spec, triple, n, constant
        modes = np.s_[:1, :1] if constant else np.s_[:, : n // 2 + 1]
        t1, t2 = grid_points(n)
        m1, m2 = derivative_numbers(n)
        self.t1, self.t2 = (t1[:1], t2[:1]) if constant else (t1, t2)
        self.modes = modes
        self.im1 = (1j * m1[modes])[:, :, None]
        self.im2 = (1j * m2[modes])[:, :, None]
        # Parseval: each interior column of the half spectrum stands for m and -m
        cols = np.arange(self.im1.shape[1])
        self.parseval = np.where((cols == 0) | (cols == n // 2), 1.0, 2.0)[None, :, None]
        self.mask = None if mask is None else mask[modes][:, :, None]
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
            self._terms_of_vals = CutoffTerms(t.p_sq[keep], t.h[keep], t.grad[keep])
            self._vals = kept[0]
        return kept

    def _propagator(self, ds: float):
        prop = self._props.get(ds)
        if prop is None:
            prop = np.ascontiguousarray(_propagator(self.n, ds, self.triple)[self.modes])
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

    def step(self, vals, zhat, ds, weight):
        """One implicit-explicit Euler update, seed i by ds[i]; returns C-contiguous vals and modes."""
        prop = self._propagators(ds)
        if weight != 0.0:
            nl = weight * self.terms(vals).grad
            if self.constant:  # the (0, 0) coefficient of a constant field is its value
                nhat = nl[:, :1].astype(complex)
            else:
                nhat = _rfft2(nl)
            if self.mask is not None:
                nhat *= self.mask
            rhs = zhat + ds[:, None, None] * nhat
        else:
            rhs = zhat
        new_hat = np.einsum("xyab,xyb->xya", prop, rhs)
        if self.constant:  # the inverse transform of a lone (0, 0) coefficient puts it on every point
            new_vals = np.repeat(new_hat.real, self.n, axis=1)
        else:
            new_vals = _irfft2(new_hat, self.n)
        return np.ascontiguousarray(new_vals), new_hat

    def _by_seed(self, x):
        """x with one row per seed: the first axis of a constant grid; a full grid is one seed."""
        return x.reshape(len(x) if self.constant else 1, -1)

    def mean(self, x):
        """Grid mean of a pointwise array, per seed (np.mean's sum and division)."""
        if self.constant:  # each seed's (N, N) array filled with its one value
            x = np.repeat(x[:, :1], self.n * self.n, axis=1)
        return np.add.reduce(self._by_seed(x), axis=1) / (self.n * self.n)

    def finite(self, vals):
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
            dhat = self.im1 * (zhat @ self.triple.J.T) + self.im2 * (zhat @ self.triple.K.T)
            res = _irfft2(dhat, self.n) - res
        return np.sqrt(np.maximum(self.mean(np.sum(res * res, axis=2)), 0.0))

    def field(self, vals, seed: int = 0) -> TorusField:
        """The field of one seed in state vals."""
        if self.constant:
            vals = np.broadcast_to(vals[seed : seed + 1, :1], (self.n, self.n, vals.shape[2]))
        return TorusField(vals, "z")

    def start_field(self, seed: int) -> TorusField:
        """The start field of one seed; a constant seed's is its row repeated, in C order."""
        if self._start_fields is not None:
            return self._start_fields[seed]
        row = self.start[0][seed]
        return TorusField(np.broadcast_to(row, (self.n, *row.shape)).copy(), "z")


def floer_rhs(state) -> TorusField:
    """Flow velocity -dirac(Z) + grad H(Z), nonlinearity weighted by the profile."""
    res = hamiltonian_residual(state.spec, state.Z, state.triple, _weight(state.profile, state.s))
    return TorusField(-res.values, "z")


@dataclass
class FlowState:
    """One point on a flow trajectory, plus integration bookkeeping."""

    Z: TorusField
    spec: HamiltonianSpec
    triple: StructureTriple
    s: float = 0.0
    ds: float = DEFAULT_DS
    profile: BetaProfile | None = None
    energy_total: float = 0.0
    diagnostics: deque = field(default_factory=lambda: deque(maxlen=100_000))


def imex_step(state: FlowState, ds: float | None = None) -> FlowState:
    """Advance one IMEX Euler step; returns a new state, input untouched.

    Appends (s, action, max|p|^2, cumulative energy) to the shared
    diagnostics ring.
    """
    ds = state.ds if ds is None else float(ds)
    grid = _FlowGrid(state.spec, state.triple, state.Z)
    vals, zhat = grid.start
    new_vals, new_hat = grid.step(vals, zhat, np.full(1, ds), _weight(state.profile, state.s))
    dz = new_vals - vals
    vsq = grid.mean(np.sum(dz * dz, axis=2)).item() / ds**2
    new = replace(state)
    new.Z = grid.field(new_vals)
    new.s = state.s + ds
    new.energy_total = state.energy_total + vsq * ds
    new.diagnostics = state.diagnostics
    act = grid.action(new_vals, new_hat, _weight(state.profile, new.s)).item()
    new.diagnostics.append((new.s, act, grid.max_p_sq(new_vals).item(), new.energy_total))
    return new


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

    def to_dict(self) -> dict:
        return {
            "s_reached": self.s_reached,
            "residual_norm": self.residual_norm,
            "converged": self.converged,
            "diverged": self.diverged,
            "reason": self.reason,
            "n_steps": self.n_steps,
            "ds_final": self.ds_final,
            "n_halvings": self.n_halvings,
        }


DIAGNOSTIC_COLUMNS = ("s", "action", "residual", "max_p_sq", "energy_cum")


def flow_to_solution(
    Z0: TorusField,
    spec: HamiltonianSpec,
    triple: StructureTriple | None = None,
    tol: float = DEFAULT_TOL,
    s_max: float = DEFAULT_S_MAX,
    ds: float = DEFAULT_DS,
    ds_min: float = 1e-6,
    check_every: int = 10,
    divergence_p_sq: float | None = None,
    residual_blowup: float = 1e6,
    band_limit: int | None = None,
) -> FlowResult:
    """Run the autonomous flow until the system residual drops below tol.

    The step is halved whenever the action increases beyond round-off (the
    autonomous flow is a descent, so a genuine increase means the step is
    too long).  Divergence - the escape of |p|^2 past the threshold, a
    residual blow-up, or non-finite values - is reported in the result,
    not raised.

    The flow amplifies content at spatial mode m roughly like
    exp(|m| s), so transform round-off seeds the fastest grid modes and
    caps how small the residual of a non-constant state can get over long
    horizons (exactly constant states are immune: they stay constant to
    the last bit).  band_limit optionally confines the run to modes with
    max(|m1|, |m2|) <= band_limit, which pushes that floor out far enough
    to converge band-limited low-mode data.
    """
    triple = standard_structures(spec.n_pairs) if triple is None else triple
    grid = _FlowGrid(spec, triple, Z0, band_limit)
    return _flow(grid, tol, s_max, ds, ds_min, check_every, divergence_p_sq, residual_blowup)[0]


def flow_constants(
    starts: list,
    spec: HamiltonianSpec,
    triple: StructureTriple | None = None,
    tol: float = DEFAULT_TOL,
    s_max: float = DEFAULT_S_MAX,
    ds: float = DEFAULT_DS,
    ds_min: float = 1e-6,
    check_every: int = 10,
    divergence_p_sq: float | None = None,
    residual_blowup: float = 1e6,
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
    triple = standard_structures(spec.n_pairs) if triple is None else triple
    grid = _FlowGrid.constants(spec, triple, starts)
    return _flow(grid, tol, s_max, ds, ds_min, check_every, divergence_p_sq, residual_blowup, stop)


def _flow(grid, tol, s_max, ds, ds_min, check_every, divergence_p_sq, residual_blowup, stop=None):
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
    spec = grid.spec
    if divergence_p_sq is None:
        divergence_p_sq = 2.0 * spec.rho if np.isfinite(spec.rho) else 1e6
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

    finished = residual < tol
    for i in np.flatnonzero(finished):
        finish(i, grid.start_field(seeds[i]), True, False, "initial residual below tol")
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
            halve = rises & (ds > ds_min)
            if halve.any():
                ds = np.where(halve, 0.5 * ds, ds)
                n_halvings = n_halvings + halve
                continue
        dz = new_vals - vals
        energy_cum = energy_cum + grid.mean(np.sum(dz * dz, axis=2)) / ds
        vals, zhat, act = new_vals, new_hat, new_act
        s = s + ds
        n_steps += 1
        max_p_sq = grid.max_p_sq(vals)
        escaped = max_p_sq > divergence_p_sq
        exits = escaped | ~(s < s_max)
        if n_steps % check_every == 0:
            residual = grid.residual(vals, zhat)
            exits |= (residual > residual_blowup * residual_scale) | (residual < tol)
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
            blowup = residual > residual_blowup * residual_scale
            converged = residual < tol
            at_s_max = exits & ~(escaped | blowup | converged)
            if at_s_max.any():
                residual = np.where(at_s_max, grid.residual(vals, zhat), residual)
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


def run_homotopy(
    Z0: TorusField,
    spec: HamiltonianSpec,
    r: float,
    triple: StructureTriple | None = None,
    ds: float = 5e-3,
    pad: float = 1.0,
    k: int | None = None,
    tol: float = DEFAULT_TOL,
    snapshot_every: int | None = None,
) -> FlowTrajectory:
    """Flow across the full switching window of beta_r, recording diagnostics.

    Integrates from s = -(1 + pad) to (k+1)r + 1 + pad so the profile is
    identically zero at both ends; end residuals are taken against the
    plain quadratic Hamiltonian there.
    """
    triple = standard_structures(spec.n_pairs) if triple is None else triple
    k = 2 * spec.n_pairs if k is None else k
    profile = BetaProfile(r=r, k=k)
    s_start = profile.s_on - pad
    s_end = profile.s_off + pad
    n_steps = int(np.ceil((s_end - s_start) / ds))

    svals = np.empty(n_steps + 1)
    act = np.empty(n_steps + 1)
    h_int = np.empty(n_steps + 1)
    max_p_sq = np.empty(n_steps + 1)
    vsq = np.empty(n_steps)
    snapshots = []

    grid = _FlowGrid(spec, triple, Z0)
    vals, zhat = grid.start
    step = np.full(1, ds)
    for i in range(n_steps + 1):
        s = s_start + i * ds
        w = float(profile.value(s))
        svals[i] = s
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
        vsq[i] = grid.mean(np.sum(dz * dz, axis=2)).item() / ds**2
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
        ends_converged=(res_start < tol, res_end < tol),
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

    def to_dict(self) -> dict:
        return {
            "energy": self.energy,
            "action_drop": self.action_drop,
            "switch_integral": self.switch_integral,
            "defect": self.defect,
        }


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

    def to_dict(self) -> dict:
        return {
            "max_p_sq": self.max_p_sq,
            "rho": self.rho,
            "passed": self.passed,
            "ends_converged": list(self.ends_converged),
            "grid_tol": self.grid_tol,
        }


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
