"""Negative L2-gradient flow of the action functional.

The flow is d_s Z = -dirac(Z) + grad H(Z) with the cut-off Hamiltonian, so
stationary points are exactly the solutions of the first-order system.  A
switching profile beta_r(s) can multiply the nonlinearity, turning it on
over an s-interval of length (k+1)*r and off again; with the profile
absent the flow is autonomous and the action decreases monotonically.

Time stepping is IMEX Euler: the stiff linear part (the dirac operator
minus the p-block projector) is diagonal per Fourier mode and is treated
implicitly through precomputed 4n x 4n mode solves, while the bounded
nonlinear gradient is explicit.  The block L(m) = i(m1 J + m2 K) - P is
formed in one place, `structures.mode_operator`, which the propagator
inverts; the residual applies i(m1 J + m2 K) as two real products, and
`grad_H_values` adds -P in grid space.  For the standard structures L(m)
has the eigenvalues -mu(M) and mu(M) - 1 with mu(M) = (1 + sqrt(1 + 4M))/2
and M = m1^2 + m2^2, so Id + ds*L(m) is singular exactly when ds*mu(M) = 1.
The step is well posed in the regime ds*(1 + sqrt(1 + 4M))/2 < 1 for every
grid mode; the derivatives annihilate the Nyquist band, so the largest M is
2(N/2 - 1)^2 (ds < 0.046 at N = 32, ds < 0.023 at N = 64).  Along its
growing direction a step multiplies mode m by 1/(1 - ds*mu(M)), which blows
up as ds*mu(M) nears 1; the propagator raises FlowError for a step size
outside the regime (`mu_max`).
An exact constant has no grid mode but (0, 0), where Id + ds*L(0) is the
diagonal diag(1, 1 - ds): a constant grid's regime is 0 < ds < 1 alone.  Its
step is then limited by the explicit term, whose Lipschitz constant on
constants is bounded by the Hessian of h; `constant_step` takes the step of
constant seeds from that bound.
States solving the system are exact fixed points of the step because the
implicit solve uses the same discrete derivative convention as the
residual.

Initial-value flows find critical points; they are not two-point
boundary-value trajectories.  The action functional is strongly
indefinite, so generic data exits along growing directions - that outcome
is reported as divergence, not raised.
"""

from __future__ import annotations

import contextlib
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
from .spectral import TorusField, derivative_numbers, grid_points
from .structures import StructureTriple, mode_operator, standard_structures

DEFAULT_DS = 1e-2
DEFAULT_TOL = 1e-8
DEFAULT_S_MAX = 1e3
MONOTONE_SLACK = 1e-12
DS_MIN = 1e-6  # floor of the step halving on a rising action
RESIDUAL_BLOWUP = 1e6  # a residual this many times its start scale is a blow-up
# Constant seeds flow down to the residual `polish_level`, POLISH_FRACTION of the
# largest residual of a constant state, then Newton takes over (`polish_constants`).
# The residual of a constant (q, 0) is |grad h(q)|, so for every multiple epsilon h
# the level marks the same neighbourhood of the critical points.  The fraction is
# measured on the flagship's 6 x 6 lattice at epsilon 0.01, 0.1 and 1: handed over at
# 0.07, 0.21, 0.35 or 0.5, every polished seed lands on the critical point that the
# plain flow converges to.  At 0.71 a seed at (2 pi/3, 0) or (4 pi/3, 0), whose start
# residual is 0.61 of the largest, is handed over at once, and Newton takes it to the
# saddle (pi, 0), pi from the flow's limit (0, 0).  A per-seed contraction test
# (simplified second Newton step at most a tenth of the first) was no safer: it handed
# a seed over between basins, and Newton took it to (pi, pi), 4.44 from its limit.
POLISH_FRACTION = 0.07
POLISH_SAMPLES = 1024  # constant states sampled for the largest residual
HOMOTOPY_PAD = 1.0  # run_homotopy flows this far beyond the profile's support on each side
# run_homotopy keeps five float arrays of one entry per step (s, action, h_int,
# max|p|^2, |d_s Z|^2): 40 bytes a step, 40 MB at this cap.  On a constant grid it
# also holds one buffer of HOMOTOPY_BLOCK + 1 states, (HOMOTOPY_BLOCK + 1) *
# CONSTANT_ROW * 4n * 8 bytes (64 KiB at n = 1), whatever the window's length.
MAX_HOMOTOPY_STEPS = 10**6
# samples of a constant-grid homotopy whose diagnostics are taken as one grid of
# seeds.  A whole switching run (N = 32, trig potential, one BLAS thread, the fastest
# of 15) costs 82 us a sample with blocks of one sample, nearly all numpy call
# overhead on one-row arrays, and 13-14 us with blocks of 64, 256 or 1024 samples
HOMOTOPY_BLOCK = 1024
# The largest step `constant_step` gives: it caps the p solve's factor 1/(1 - ds) at 2.
DS_CONSTANT_MAX = 0.5
# _flow keeps one diagnostics row per step and seed, a tuple of five floats: about 200
# bytes, 20 MB a seed at this cap.  A flow is checked to need at most this many steps
# (`check_flow_steps`); it may take one more where its summed steps round below s_max
# (400 / 0.02 steps sum to 399.99999999993), and one that halves past that ends unfinished.
MAX_FLOW_STEPS = 10**5
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
MAX_PRINCIPLE_TOL = 1e-8  # max|p|^2 may pass rho by this round-off; MaxPrincipleReport records it as grid_tol


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

    Returns ds * mu_max and 1 / (1 - ds * mu_max), the largest factor by which one step amplifies a grid
    mode along its growing direction, for the standard structures' L(m) (`structures.mode_operator`).  A
    general triple's max 1/|1 + ds lam| is larger: at N = 32, for the `compatible_triple` of
    `random_regularized_pair(default_rng(s), 1)`, s = 0, 1, 12.1-12.2 against 10 at ds * mu_max = 0.9,
    and 923 and 193 against 100 at 0.99.
    """
    _check_unit_step(ds)
    mu = mu_max(n_grid)
    if ds * mu >= 1.0:
        raise FlowError(
            f"ds={ds} leaves the step regime on the {n_grid}x{n_grid} grid: ds*mu_max = "
            f"{ds * mu:.3g} >= 1, need ds < {1.0 / mu:.4g} "
            "(at ds*mu = 1 a grid mode has a singular implicit solve)"
        )
    return {"ds_mu_max": float(ds * mu), "max_step_amplification": float(1.0 / (1.0 - ds * mu))}


def _check_unit_step(ds: float) -> None:
    """Raise FlowError unless 0 < ds < 1, the regime of the (0, 0) mode's implicit solve diag(1, 1/(1 - ds))."""
    if not 0.0 < ds < 1.0:
        raise FlowError(f"step size must lie in (0, 1), got {ds}")


def constant_step(spec: HamiltonianSpec, ds: float) -> float:
    """The step of exact constant seeds of spec: max(ds, min(DS_CONSTANT_MAX, 1 / spec.c3_norm)).

    A constant has no grid mode that check_step guards, so its step is
    limited by the explicit gradient term alone: 1 / c3_norm is the edge of
    `check_explicit_step`'s regime.  A spec without a finite bound (a custom h) keeps ds.
    """
    c3 = spec.c3_norm
    if c3 is None or not 0.0 <= c3 < np.inf:
        return ds
    return max(ds, DS_CONSTANT_MAX if DS_CONSTANT_MAX * c3 <= 1.0 else 1.0 / c3)


def check_explicit_step(spec: HamiltonianSpec, ds: float) -> None:
    """Raise FlowError unless ds * Lip(grad h) <= 1, the explicit gradient term's regime, by c3_norm.

    c3_norm bounds the Hessian of a built-in h (|eps| sum |a|^2 <= |eps| sum max(1, |a|)^3); a custom h passes.
    """
    c3 = spec.c3_norm
    if c3 is not None and ds * c3 > 1.0:
        raise FlowError(
            f"ds={ds} leaves the explicit term's regime: ds*c3_norm = {ds * c3:.3g} > 1, need ds <= {1.0 / c3:.4g}"
        )


def check_flow_steps(s_max: float, ds: float) -> None:
    """Raise FlowError when a flow to s_max needs more than MAX_FLOW_STEPS steps of ds."""
    if not s_max / ds <= MAX_FLOW_STEPS:
        raise FlowError(
            f"a flow to s_max={s_max} needs {s_max / ds:.3g} steps of ds={ds}, "
            f"more than the cap of {MAX_FLOW_STEPS:.0e}"
        )


def _propagator(n_grid: int, ds: float, triple: StructureTriple, modes) -> np.ndarray:
    """Inverse per-mode matrices (Id + ds * (i(m1 J + m2 K) - P))^(-1) of the grid modes `modes`.

    modes is an index of the (N, N) mode grid, such as the half spectrum
    np.s_[:, : N // 2 + 1], and only its modes are built; each matrix is
    inverted alone, so a subset gives the same bits as the full grid.
    """
    check_step(n_grid, ds)
    return np.linalg.inv(np.eye(triple.dim) + ds * mode_operator(triple, *derivative_numbers(n_grid, modes)))


# the half-spectrum propagator last built, as ((N, ds, J bytes, K bytes), array): every
# full-grid flow of a run at one step size shares it, and one entry keeps one in memory
_half_spectrum = (None, None)


def _half_spectrum_propagator(n_grid: int, ds: float, triple: StructureTriple) -> np.ndarray:
    """`_propagator` of the rfft2 half spectrum as read-only (4n, 4n, N, N/2 + 1), memoised for the last (N, ds, triple)."""
    global _half_spectrum
    key = (n_grid, ds, triple.J.tobytes(), triple.K.tobytes())
    if _half_spectrum[0] != key:
        _half_spectrum = (None, None)  # the old propagator goes before the new one is built
        prop = _propagator(n_grid, ds, triple, np.s_[:, : n_grid // 2 + 1])
        prop = np.ascontiguousarray(prop.transpose(2, 3, 0, 1))
        prop.flags.writeable = False
        _half_spectrum = (key, prop)
    return _half_spectrum[1]


def _apply_propagator(prop, rhs_planes, out=None):
    """The (k, N, N') planes sum_b prop[a, b] * rhs_planes[b] of a (k, k, N, N') propagator, row by row.

    Each output row a is numpy's complex product prop[a] * rhs_planes into
    one scratch array, then its sum over b, which adds whole planes in the
    order b = 0, 1, ..., k - 1.  out, C-contiguous (k, N, N') complex, takes
    the result.  For the standard structures every entry of the propagator
    is purely real or purely imaginary, so one cross term of each product is
    an exact zero and the products round as np.einsum("abxy,bxy->axy")
    rounds them: the result has its bits, signed zeros, inf and NaN
    included.  For a general compatible triple both cross terms are nonzero
    and the product's fused multiply-add rounds them otherwise, within a few
    units in the last place (4e-16 of the largest entry).
    """
    out = np.empty(rhs_planes.shape, dtype=complex) if out is None else out
    scratch = np.empty(rhs_planes.shape, dtype=complex)
    for a, row in enumerate(prop):
        np.multiply(row, rhs_planes, out=scratch)
        np.add.reduce(scratch, axis=0, out=out[a])
    return out


def grid_mean(x, points: int):
    """np.mean over the last axis of x, which holds a grid's points values or min(points, PAIRWISE_BLOCK) equal ones.

    Equal values stand for the points equal values of an exact constant: numpy's
    pairwise sum of those is the sum of the values held doubled exactly, so it is
    that sum times points // width, the overflow to inf included (PAIRWISE_BLOCK).
    """
    total = np.add.reduce(x, axis=-1)
    if x.shape[-1] < points:
        total = total * (points // x.shape[-1])
    return total / points


def exact_constant(values: np.ndarray) -> bool:
    """True when the grid transforms of the (N, N, k) values are exact, without taking one.

    That holds when they are the same bytes at every point of a power-of-two
    grid and their squares are finite: rfft2 is then the values themselves
    at (0, 0) and zero elsewhere, to the last bit and signed zeros included,
    and no sum of the transform, nor a square of a mode, overflows.  On
    other grids (N = 12, 24, 48, ...) the (0, 0) coefficient of a constant
    is rounded.  `constant_start`, and the records of constant limits and
    their deduplication (`runner`), rest on it.
    """
    n = values.shape[0]
    bits = values.view(np.uint64)
    with np.errstate(over="ignore", invalid="ignore"):
        squares = values[0, 0] * values[0, 0]
    return n & (n - 1) == 0 and bool(np.isfinite(squares).all() and np.all(bits == bits[0, 0]))


def constant_start(spec: HamiltonianSpec, Z: TorusField):
    """The (1, N, 4n) first grid row of Z when its flow runs on the (0, 0) block alone, else None.

    That holds for an `exact_constant` state of an autonomous h: its other
    coefficients are zero and stay zero, so the state stays constant to the
    last bit, and its (0, 0) mode is its value (`_constant_state`).
    `flow_constants` flows a list of such rows.
    """
    _check_z_field(spec, Z)
    if spec.time_dependent or not exact_constant(Z.values):
        return None
    return Z.values[:1].copy()


def _constant_state(z):
    """Constant-grid (vals, zhat) of constant states z, one (4n,) row per seed: CONSTANT_ROW points, (0, 0) mode."""
    return np.repeat(z[:, None], CONSTANT_ROW, axis=1), z[:, None]


def _take(keep, vals, zhat, terms):
    """The seeds `keep` (a mask) of a constant-grid state and of its evaluation."""
    return vals[keep], zhat[keep], terms._replace(p_sq=terms.p_sq[keep], h=terms.h[keep], grad=terms.grad[keep])


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


def _irfft2(zhat, n_grid: int, out=None):
    """The inverse of `_rfft2`; out, a grid view of C-contiguous planes, takes the values.

    np.fft.irfft2 is irfftn over the last two axes, but drops its out.
    """
    planes = None if out is None else _planes(out)
    return _grid(np.fft.irfftn(_planes(zhat), s=(n_grid, n_grid), axes=(-2, -1), norm="forward", out=planes))


def _times_planes(im, rows):
    """im * rows as contiguous (k, N, N') component planes, for (N, N', 1) im and rows one (k,) row per point."""
    planes = np.ascontiguousarray(rows.T).reshape(-1, *im.shape[:2])
    return np.multiply(_planes(im), planes, out=planes)


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
    (`constant_start`) on their (0, 0) blocks alone, one seed per row: vals
    is (B, CONSTANT_ROW, 4n), each seed's value on the first two points of
    a grid row, on which the pointwise functions run, and zhat is the real
    (B, 1, 4n) value rows, the (0, 0) modes, which a step scales by the
    diagonal (0, 0) propagator (`_propagators`).  Two points, not one, keep
    every matrix product of a potential a matrix product: numpy computes a
    one-row product as a matrix-vector product, which rounds unlike the
    full grid's (N, 2n) products, while the rows of a matrix product round
    alike at every row count (their memory layout does not matter, see
    above).  Each grid mean is taken in closed form: numpy's pairwise sum of
    the N^2 equal values of a power-of-two grid is the sum of 128 of them
    doubled exactly (`mean`).  The diagonal solve is exact for any step
    size, so a constant grid checks its own regime, 0 < ds < 1, not the full
    grid's ds * mu_max < 1: constant seeds can take the larger
    `constant_step`.  At a step size both grids accept, every seed's results
    are bit-identical to its full-grid flow, step halving and termination
    included, as long as the
    full grid's transforms stay finite: for an unbounded custom h, the full
    grid's rfft2 of a huge gradient can overflow a step before the (0, 0)
    value itself does, so there the full grid loses finiteness earlier
    (built-in potentials are bounded).  A seed's results do not depend on
    the other seeds of its grid, so a grid of B seeds also evaluates B
    states of one seed at once (a `buffer` of them).

    The grid keeps nothing from one call to the next but the propagator of
    the last step sizes; a full grid's is the read-only half-spectrum
    propagator that every full-grid flow of the same N, step size and
    structures shares (`_half_spectrum_propagator`).  A caller evaluates
    the nonlinearity of a state once (`evaluate`) and hands that evaluation
    to the step, the action, max|p|^2 and the residual of the state; none
    of them evaluates it.  The step reads only the gradient, so an
    evaluation for a step alone may skip h.
    """

    def __init__(self, spec, triple, Z: TorusField):
        row = constant_start(spec, Z)
        start = (Z.values, _rfft2(Z.values)) if row is None else _constant_state(row[:, 0])
        self._setup(spec, triple, Z.grid_size, row is not None, start)

    @classmethod
    def constants(cls, spec, triple, n: int, z) -> "_FlowGrid":
        """The constant grid of the constant states z of an N x N grid, one (4n,) row per seed."""
        grid = cls.__new__(cls)
        grid._setup(spec, triple, n, True, _constant_state(z))
        return grid

    def _setup(self, spec, triple, n, constant, start):
        triple = standard_structures(spec.n_pairs) if triple is None else triple
        self.spec, self.triple, self.n, self.constant = spec, triple, n, constant
        modes = np.s_[:1, :1] if constant else np.s_[:, : n // 2 + 1]
        self.t1, self.t2 = grid_points(n, np.s_[:1, :CONSTANT_ROW] if constant else np.s_[:, :])
        m1, m2 = derivative_numbers(n, modes)
        self.im1 = (1j * m1)[:, :, None]
        self.im2 = (1j * m2)[:, :, None]
        # Parseval: each interior column of the half spectrum stands for m and -m
        cols = np.arange(self.im1.shape[1])
        self.parseval = np.where((cols == 0) | (cols == n // 2), 1.0, 2.0)[None, :, None]
        # the transform of a +0.0 plane, signed zeros and all, for the p planes of a q-only gradient
        self._zero_hat = None if constant else np.fft.rfft2(np.zeros((n, n)), norm="forward")
        self.start = start
        self.n_seeds = len(start[0]) if constant else 1
        self._prop = self._prop_key = None

    def evaluate(self, vals, with_h: bool = True) -> CutoffTerms:
        """The pointwise evaluation of the nonlinearity at vals (`cutoff_terms`).

        with_h=False serves a step alone, which reads only the gradient: h is
        then None, and a built-in h is not evaluated.
        """
        return cutoff_terms(self.spec, self.t1, self.t2, vals, with_h=with_h)

    def buffer(self, size: int):
        """Empty (vals, modes) buffers of size states, whose state j is `held` (buf, j).

        A constant grid's states are rows of one (size, CONSTANT_ROW, 4n)
        array, and each one's modes are a view of its first point.  A full
        grid's are component-major grid views of (size, 4n, N, N) and
        (size, 4n, N, N/2 + 1) planes, the layout its step gives.
        """
        if self.constant:
            vals = np.empty((size, CONSTANT_ROW, self.spec.dim))
            return vals, vals[:, :1]
        planes = (self.spec.dim, self.n, self.n)
        hat_planes = (self.spec.dim, *self.im1.shape[:2])
        vals = np.empty((size, *planes)).transpose(0, 2, 3, 1)
        return vals, np.empty((size, *hat_planes), dtype=complex).transpose(0, 2, 3, 1)

    def held(self, buf, j: int, count: int = 1):
        """States j .. j + count - 1 of a `buffer` as one state of the grid: count seeds of a constant
        grid, and the one state a full grid holds (count 1)."""
        return buf[j : j + count] if self.constant else buf[j]

    def _propagators(self, ds):
        """The propagator of the step sizes ds last seen, the shared (4n, 4n, N, N/2 + 1) `_half_spectrum_propagator`;
        on a constant grid, per seed, diag(1, 1/(1 - ds)) as (B, CONSTANT_ROW, 4n): the closed form of the
        exact inverse of Id + ds L(0), L(0) = -P (`structures.mode_operator`), which needs no matrix inverse.
        A full grid's step sizes are checked by `check_step`, a constant grid's by their own regime, 0 < ds < 1."""
        key = ds.tobytes()
        if key != self._prop_key:
            if not self.constant:
                self._prop = _half_spectrum_propagator(self.n, float(ds[0]), self.triple)
            else:
                for d in (ds.min(), ds.max()):  # the step regime is an interval
                    _check_unit_step(float(d))
                self._prop = np.ones((len(ds), CONSTANT_ROW, self.spec.dim))
                self._prop[:, :, 2 * self.spec.n_pairs :] = (1.0 / (1.0 - ds))[:, None, None]
            self._prop_key = key
        return self._prop

    def _nonlinear_modes(self, terms, weight):
        """The held modes of weight * grad h_tilde, from the gradient of the evaluation terms."""
        nl = terms.grad if weight == 1.0 else weight * terms.grad
        if self.constant:  # the (0, 0) coefficient of a constant field is its value
            return nl[:, :1]
        if not (terms.p_grad_zero and 0.0 < weight < np.inf):
            return _rfft2(nl)
        # the p planes of nl are +0.0: only the q planes are transformed
        q = 2 * self.spec.n_pairs
        nhat = np.empty((self.spec.dim, *self._zero_hat.shape), dtype=complex)
        np.fft.rfft2(_planes(nl)[:q], norm="forward", out=nhat[:q])
        nhat[q:] = self._zero_hat
        return _grid(nhat)

    def step(self, zhat, terms, ds, weight, out=None):
        """One implicit-explicit Euler update of the state with modes zhat and evaluation terms, seed i by ds[i].

        A weight of 0 reads no evaluation: terms may be None.  Returns
        C-contiguous vals and their first point as the modes on a constant
        grid, component-major ones on a full grid.  out, a state of a
        `buffer` as (vals, modes), takes the new state in place.  A constant
        grid scales its value rows by the diagonal propagator; a full grid
        applies its propagator to the component planes of the right-hand
        side row by row (`_apply_propagator`) and transforms back.
        """
        prop = self._propagators(ds)
        rhs = zhat + ds[:, None, None] * self._nonlinear_modes(terms, weight) if weight != 0.0 else zhat
        vals_out, hat_out = (None, None) if out is None else out
        if self.constant:  # the diagonal propagator scales each value row onto every point
            new_vals = np.multiply(prop, rhs, out=vals_out)
            new_vals += 0.0  # -0.0 to +0.0, as the full grid's inverse transform sums it
            return new_vals, new_vals[:, :1]
        # C-contiguous planes in, C-contiguous planes out: from its first step on,
        # the C-ordered start state is component-major
        hat_planes = None if out is None else _planes(hat_out)
        new_hat = _grid(_apply_propagator(prop, np.ascontiguousarray(_planes(rhs)), hat_planes))
        return _irfft2(new_hat, self.n, vals_out), new_hat

    def coast(self, states, ds):
        """Steps of weight 0 of a constant grid's seed from states[0] into states[1:], in place.

        A step of weight 0 scales the state by the diagonal propagator and
        adds +0.0.  Its entries are positive, so the running product of the
        propagator rows is the state at every step but for the sign of a
        zero, which +0.0 added once at the end gives: the bits of the steps
        taken one at a time.
        """
        states[1:] = self._propagators(ds)
        np.multiply.accumulate(states, axis=0, out=states)
        states[1:] += 0.0

    def _by_seed(self, x):
        """x with one row per seed: the first axis of a constant grid; a full grid is one seed."""
        return x.reshape(len(x) if self.constant else 1, -1)

    def mean(self, x):
        """Grid mean of a pointwise array, per seed (np.mean's sum and division).

        On a constant grid the sum of a seed's N^2 equal values is taken in
        closed form (`grid_mean`).
        """
        points = self.n * self.n
        if self.constant:
            x = np.repeat(x[:, :1], min(points, PAIRWISE_BLOCK), axis=1)
        return grid_mean(self._by_seed(x), points)

    def mean_sq(self, x):
        """Grid mean of the pointwise |x|^2, per seed."""
        return self.mean(component_sum(x * x))

    def finite(self, vals):
        if not self.constant:  # over the component planes: a reshape of their grid view copies it
            return np.array([np.isfinite(_planes(vals)).all()])
        return np.logical_and.reduce(np.isfinite(self._by_seed(vals)), axis=1)

    def action(self, zhat, terms, weight):
        """Action of the state with modes zhat and evaluation terms: Parseval for the pairing, grid values for H.

        On a constant grid the pairing is exactly +-0 for a finite state, so
        the action is -mean(H) wherever that mean is nonzero and finite; the
        pairing is formed only when some seed's mean is 0 or not finite,
        where +-0 - mean keeps a sign or NaN bits that -mean would not.
        """
        mean = self.mean(0.5 * terms.p_sq + weight * terms.h)
        if self.constant and np.all(np.isfinite(mean) & (mean != 0.0)):
            return -mean
        zhat = np.asarray(zhat, dtype=complex)  # a constant grid's real modes, as the full grid holds them
        n = self.spec.n_pairs
        qa, qb = zhat[:, :, :n], zhat[:, :, n : 2 * n]
        pa, pb = zhat[:, :, 2 * n : 3 * n], zhat[:, :, 3 * n :]
        va = self.im1 * qa + self.im2 * qb
        vb = self.im1 * qb - self.im2 * qa
        pairing = self.parseval * (np.conj(pa) * va + np.conj(pb) * vb).real
        pairing = np.add.reduce(self._by_seed(pairing), axis=1)
        return pairing - mean

    def max_p_sq(self, terms):
        return np.maximum.reduce(self._by_seed(terms.p_sq), axis=1)

    def residual_map(self, vals, zhat, terms, h_weight: float = 1.0):
        """F(Z) = dirac(Z) - grad H(Z) on the grid, dirac from the modes; -grad H, negated, on a constant grid.

        L(m) (`structures.mode_operator`) acts without its blocks, which were no faster, and not bit-equal for a
        general triple: i(m1 J + m2 K) as two real products, -P as the p that `grad_H_values` adds."""
        grad = grad_H_values(self.spec, terms.grad, vals, h_weight)
        if self.constant:
            return np.negative(grad, out=grad)
        # one 2-D product per matrix on the C-ordered modes, as a matrix product rounds by
        # layout (_BuiltIn); the sum and the transform run on contiguous component planes
        rows = np.ascontiguousarray(zhat).reshape(-1, self.spec.dim)
        dhat = _times_planes(self.im1, rows @ self.triple.J.T)
        dhat += _times_planes(self.im2, rows @ self.triple.K.T)
        return _irfft2(_grid(dhat), self.n) - grad

    def residual(self, vals, zhat, terms, h_weight: float = 1.0):
        """L2 norm of the system residual F(Z) (`residual_map`)."""
        return np.sqrt(np.maximum(self.mean_sq(self.residual_map(vals, zhat, terms, h_weight)), 0.0))

    def field(self, vals, seed: int = 0) -> TorusField:
        """The field of one seed in state vals; a constant seed's holds its value on every point."""
        if self.constant:
            vals = np.broadcast_to(vals[seed : seed + 1, :1], (self.n, self.n, vals.shape[2]))
        return TorusField(vals, "z")


def action(spec: HamiltonianSpec, Z: TorusField, h_weight: float = 1.0) -> float:
    """Action integral of Z, unit-mass normalized: mean(<p, 2 d_t q> - H_tilde), as the flow takes it."""
    grid = _FlowGrid(spec, None, Z)
    vals, zhat = grid.start
    return float(grid.action(zhat, grid.evaluate(vals), h_weight)[0])



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
    values - is reported in the result, not raised.  A flow still running
    after MAX_FLOW_STEPS + 1 steps, which only a halved step can make of a
    checked s_max / ds (`check_flow_steps`), ends unfinished with the
    reason "step cap reached".

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

    starts holds the first grid row of each seed from `constant_start`.
    Returns one FlowResult per seed, in order, bit-identical to
    flow_to_solution of the seed's field.  stop, a callable, is asked
    between steps; once it returns True the seeds still running get None.
    """
    if not starts:
        return []
    grid = _FlowGrid.constants(spec, None, starts[0].shape[1], np.concatenate([row[:, 0] for row in starts]))
    return _flow(grid, tol, s_max, ds, check_every, stop)


def polish_level(spec: HamiltonianSpec) -> float:
    """The residual at which constant seeds are handed to Newton: see POLISH_FRACTION.

    The largest residual of a constant state is taken over POLISH_SAMPLES
    states (q, 0) with q uniform on the base torus, from a fixed generator,
    so the level is a property of h alone and scales with it.
    """
    q = np.random.default_rng(99).uniform(0.0, 2.0 * np.pi, size=(POLISH_SAMPLES, 2 * spec.n_pairs))
    z = np.concatenate([q, np.zeros_like(q)], axis=1)
    grad = grad_H_values(spec, cutoff_terms(spec, 0.0, 0.0, z).grad, z)
    return POLISH_FRACTION * float(np.sqrt(np.max(component_sum(grad * grad))))


def polish_constants(results: list, spec: HamiltonianSpec, tol: float) -> list:
    """Newton's method on exactly constant flow limits, run as one batch; None where it fails.

    results holds FlowResults of constant states, such as the converged
    results of `flow_constants` at a looser tolerance.  A constant state z
    solves the system when the constant grid's residual map F(z) = -grad H(z)
    vanishes, so each Newton step is one dim x dim solve per seed.  Its
    Jacobian is the central difference of F, taken on the same grid at every
    seed's probes z +- step e_c, so any autonomous h qualifies, and the
    residual is the constant grid's, the flow's own.  A seed takes steps while each
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
    seeds = np.arange(len(results))
    dim = spec.dim
    grid = _FlowGrid.constants(spec, None, results[0].Z.grid_size, np.stack([r.Z.values[0, 0] for r in results]))
    vals, zhat = grid.start
    z = vals[:, 0]
    terms = grid.evaluate(vals)  # one evaluation per state, read by its residual and its F
    residual = grid.residual(vals, zhat, terms)
    probes = NEWTON_FD_STEP * np.stack([np.eye(dim), -np.eye(dim)])  # (2, k, dim)
    for n_newton in range(NEWTON_STEPS + 1):
        falls = np.zeros(len(z), dtype=bool)
        if n_newton < NEWTON_STEPS:
            f = grid.residual_map(vals, zhat, terms)[:, 0]
            probe_vals, probe_hat = _constant_state((z[:, None, None] + probes).reshape(-1, dim))
            fp = grid.residual_map(probe_vals, probe_hat, grid.evaluate(probe_vals))
            fp = fp[:, 0].reshape(len(z), 2, dim, dim)
            # F(z - step) - F(z + step) has the bits of grad H(z + step) - grad H(z - step)
            jac = np.swapaxes(fp[:, 1] - fp[:, 0], 1, 2) / (2.0 * NEWTON_FD_STEP)
            new_z = z + _solve_each(jac, f)
            new_vals, new_hat = _constant_state(new_z)
            new_terms = grid.evaluate(new_vals)
            new_residual = grid.residual(new_vals, new_hat, new_terms)
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
        vals, zhat, terms = _take(falls, new_vals, new_hat, new_terms)
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
    residual check cadence, and all end together past MAX_FLOW_STEPS steps.
    """
    if check_every < 1:
        raise FlowError(f"check_every must be >= 1, got {check_every}")
    if grid.constant:  # rejects a ds outside the grid's step regime even if no step is taken
        _check_unit_step(ds)
    else:
        check_step(grid.n, ds)

    results = [None] * grid.n_seeds
    seeds = np.arange(grid.n_seeds)
    ds = np.full(grid.n_seeds, float(ds))
    s = np.zeros(grid.n_seeds)
    energy_cum = np.zeros(grid.n_seeds)
    n_halvings = np.zeros(grid.n_seeds, dtype=int)
    n_steps = 0
    vals, zhat = grid.start
    # one evaluation per state, with h, read by its step, action, max|p|^2 and residual
    terms = grid.evaluate(vals)
    # diagnostics rows carry the latest residual, refreshed every check_every steps
    residual = grid.residual(vals, zhat, terms)
    residual_scale = np.fmax(1.0, residual)
    act = grid.action(zhat, terms, 1.0)
    max_p_sq = grid.max_p_sq(terms)
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
            vals, zhat, terms = _take(keep, vals, zhat, terms)
        finished = None
        if stop is not None and stop():
            break

        new_vals, new_hat = grid.step(zhat, terms, ds, 1.0)
        finite = grid.finite(new_vals)
        if not finite.all():
            finished = ~finite
            for i in np.flatnonzero(finished):
                finish(i, grid.field(vals, i), False, True, "non-finite state")
            continue
        new_terms = grid.evaluate(new_vals)
        new_act = grid.action(new_hat, new_terms, 1.0)
        rises = new_act > act + MONOTONE_SLACK * np.fmax(1.0, np.abs(act))
        if rises.any():
            halve = rises & (ds > DS_MIN)
            if halve.any():  # the halved step starts from the same state and evaluation
                ds = np.where(halve, 0.5 * ds, ds)
                n_halvings = n_halvings + halve
                continue
        dz = new_vals - vals
        energy_cum = energy_cum + grid.mean_sq(dz) / ds
        vals, zhat, terms, act = new_vals, new_hat, new_terms, new_act
        s = s + ds
        n_steps += 1
        max_p_sq = grid.max_p_sq(terms)
        escaped = max_p_sq > grid.spec.escape_p_sq
        exits = escaped | ~(s < s_max) | (n_steps > MAX_FLOW_STEPS)
        if n_steps % check_every == 0:
            residual = grid.residual(vals, zhat, terms)
            exits |= ~(residual <= RESIDUAL_BLOWUP * residual_scale) | (residual < tol)  # NaN too
            any_exit = exits.any()
        else:  # the residual of a seed changes only at checks, or when it escapes
            any_exit = exits.any()
            if any_exit and escaped.any():
                residual = np.where(escaped, grid.residual(vals, zhat, terms), residual)
        if residual is not listed:
            listed, residual_values = residual, residual.tolist()
        new_rows = zip(s.tolist(), act.tolist(), residual_values, max_p_sq.tolist(), energy_cum.tolist())
        for seed, row in zip(seeds.tolist(), new_rows):
            rows[seed].append(row)
        if any_exit:
            blowup = ~(residual <= RESIDUAL_BLOWUP * residual_scale)
            converged = residual < tol
            unfinished = exits & ~(escaped | blowup | converged)  # at s_max or at the step cap
            if unfinished.any():
                residual = np.where(unfinished, grid.residual(vals, zhat, terms), residual)
                blowup |= unfinished & ~np.isfinite(residual)
            for i in np.flatnonzero(exits):
                field = grid.field(vals, i)
                if escaped[i]:
                    finish(i, field, False, True, f"max|p|^2 {max_p_sq[i]:.3g} escaped")
                elif blowup[i]:
                    finish(i, field, False, True, "residual blow-up")
                elif converged[i]:
                    finish(i, field, True, False, "residual below tol")
                else:
                    finish(i, field, False, False, "s_max reached" if not s[i] < s_max else "step cap reached")
            finished = exits
    return results


# ---------------------------------------------------------------------------
# switching trajectories and energy bookkeeping


@dataclass
class FlowTrajectory:
    """Uniformly sampled flow run with the scalars needed for energy checks.

    Arrays are indexed by sample; vsq holds the squared L2 velocity of each
    step (length len(s) - 1).  action is evaluated with the instantaneous
    profile weight, h_int is the torus mean of the cut-off nonlinearity.  A
    trajectory that escapes ends at its first escaped sample (`run_homotopy`).
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
    below DEFAULT_TOL.  A sample whose max|p|^2 is past `spec.escape_p_sq`
    has diverged: the trajectory ends there, that sample kept.

    The samples are taken in blocks, HOMOTOPY_BLOCK of a constant start and
    one of a full grid.  Each step writes the next sample in place into one
    buffer of block + 1 states (`_FlowGrid.buffer`), whose last row, the
    state the block's last step reaches, starts the next block.  At the
    block's end its states are checked for finiteness and its diagnostics
    taken: the action at each sample's profile weight, h_int, max|p|^2,
    and |d_s Z|^2 of each step from the difference of two buffer rows, a
    constant start's samples as one constant grid with a seed per sample.
    A seed's results do not depend on the other seeds of its grid, so every
    output is the one a sample-by-sample evaluation gives, bit for bit.

    A full grid evaluates each sample once, h included, for its step and
    its diagnostics.  A constant start's step evaluates the gradient alone
    (`cutoff_terms`), h is evaluated once a block, and a stretch of zero
    profile weight (the pads) takes no evaluation: it advances in one
    running product (`_FlowGrid.coast`).  A built-in h is evaluated without
    harm on a state that is not finite, so a constant start's steps run on
    under np.errstate to the block's end; with a custom h each state is
    checked before it is evaluated.  So a constant start finds an escape at
    the end of its block and truncates there, and a step of the block that
    lost finiteness after an escaped sample ends the trajectory at that
    sample instead of raising.
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
    block = HOMOTOPY_BLOCK if grid.constant else 1
    buf, hats = grid.buffer(block + 1)
    vals, zhat = grid.start
    grid.held(buf, 0)[...] = vals
    grid.held(hats, 0)[...] = zhat
    step = np.full(1, ds)
    weights = profile.value(svals)  # elementwise: each weight has the bits of a call at its s
    s_list, weight_list = svals.tolist(), weights.tolist()
    weighted = np.flatnonzero(weights)  # the samples whose step reads an evaluation
    # a custom h sees finite states alone: a constant start checks each state it evaluates,
    # and a full grid's block is one step; a built-in h leaves the checks to the block's end
    defer = grid.constant and spec.built_in is not None
    first = 0  # the sample in buf[0]
    while True:
        size = min(block, n_steps + 1 - first)  # the block's samples, buf[:size]
        moves = min(size, n_steps - first)  # the trajectory's last sample takes no step
        # a full grid evaluates its one sample once, h included, for its step and its diagnostics
        terms = None if grid.constant else grid.evaluate(buf[0])
        vals, zhat = grid.held(buf, 0), grid.held(hats, 0)
        j = 0  # the steps of the block taken, then those to a finite state
        with np.errstate(all="ignore") if defer else contextlib.nullcontext():
            while j < moves:
                i = first + j
                if grid.constant and weight_list[i] == 0.0:  # to the next weighted sample
                    nxt = np.searchsorted(weighted, i)
                    stop = min(weighted[nxt] if nxt < weighted.size else n_steps, first + moves) - first
                    grid.coast(buf[j : stop + 1], step)
                    j = stop
                    vals, zhat = grid.held(buf, j), grid.held(hats, j)
                    continue
                if grid.constant:
                    if not (defer or np.isfinite(vals).all()):
                        break
                    terms = grid.evaluate(vals, with_h=False)
                j += 1
                vals, zhat = grid.step(zhat, terms, step, weight_list[i], out=(grid.held(buf, j), grid.held(hats, j)))
        finite = np.isfinite(buf[1 : j + 1]).all(axis=tuple(range(1, buf.ndim)))
        if not finite.all():  # the step from sample first + j lost finiteness
            j = int(np.argmin(finite))
        count = min(j + 1, size)  # the block's samples reached
        rows = slice(first, first + count)
        if grid.constant:
            terms = grid.evaluate(buf[:count])
        act[rows] = grid.action(grid.held(hats, 0, count), terms, weights[rows, None])
        h_int[rows] = grid.mean(terms.h)
        max_p_sq[rows] = grid.max_p_sq(terms)
        if j:
            vsq[first : first + j] = grid.mean_sq(buf[1 : j + 1] - buf[:j]) / ds**2
        if snapshot_every is not None:
            for i in range(-(-first // snapshot_every) * snapshot_every, first + count, snapshot_every):
                snapshots.append((s_list[i], grid.field(grid.held(buf, i - first))))
        escaped = np.flatnonzero(max_p_sq[rows] > spec.escape_p_sq)
        if escaped.size:
            last = int(escaped[0])
            break
        if j < moves:
            raise FlowError(f"homotopy flow lost finiteness at s={s_list[first + j]:.3f}")
        if moves < size:
            last = size - 1
            break
        if block == 1:  # a full grid's two rows swap roles, where a copy would move a whole grid
            buf, hats = buf[::-1], hats[::-1]
        else:
            buf[0], hats[0] = buf[size], hats[size]
        first += size
    end = first + last

    res_start, res_end = (
        grid.residual(v, z, grid.evaluate(v), h_weight=0.0).item()
        for v, z in (grid.start, (grid.held(buf, last), grid.held(hats, last)))
    )
    if snapshot_every is not None:
        del snapshots[end // snapshot_every + 1 :]
    return FlowTrajectory(
        s=svals[: end + 1],
        action=act[: end + 1],
        h_int=h_int[: end + 1],
        max_p_sq=max_p_sq[: end + 1],
        vsq=vsq[:end],
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


def energy_identity_check(traj: FlowTrajectory) -> EnergyIdentityReport:
    """Defect of E = A(s_first) - A(s_last) - integral of beta' * h over the whole trajectory.

    The actions carry the instantaneous profile weight; the switching
    integral is a trapezoid over the stored torus means of h.  Expected
    size O(ds^2) plus quadrature error on smooth runs.
    """
    e = energy(traj)
    drop = float(traj.action[0] - traj.action[-1])
    switch = float(np.trapezoid(traj.profile.derivative(traj.s) * traj.h_int, dx=traj.ds))
    return EnergyIdentityReport(e, drop, switch, abs(e - (drop - switch)))


@dataclass(frozen=True)
class MaxPrincipleReport:
    max_p_sq: float
    rho: float
    passed: bool
    ends_converged: tuple
    grid_tol: float = MAX_PRINCIPLE_TOL


def max_principle_check(traj: FlowTrajectory, rho: float) -> MaxPrincipleReport:
    """Report whether |p|^2 stayed below rho + MAX_PRINCIPLE_TOL along the whole trajectory."""
    worst = float(np.max(traj.max_p_sq))
    return MaxPrincipleReport(worst, rho, worst <= rho + MAX_PRINCIPLE_TOL, traj.ends_converged)

