"""Multistart search for solutions of the first-order system on the torus.

Seeds are constants on a lattice of the base torus plus random band-limited
perturbations; each seed flows under the autonomous gradient flow until the
residual converges or the run is reported divergent.  Converged limits are
deduplicated in the quotient L2 metric (the base torus identifies constant
shifts by 2*pi lattice vectors) and counted against the 2n+1 lower bound.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .floer import (
    FlowError,
    FlowResult,
    PAIRWISE_BLOCK,
    _FlowGrid,
    action,
    check_flow_steps,
    check_step,
    constant_start,
    constant_step,
    exact_constant,
    flow_constants,
    flow_to_solution,
    grid_mean,
    polish_constants,
    polish_level,
)
from .hamiltonians import (
    HamiltonianSpec,
    action_bound_constants,
    component_sum,
    hamiltonian_from_config,
    square_sum,
)
from .spectral import FieldError, TorusField, check_grid_size, constant_field, random_band_limited, sobolev_seminorm

# The records keep one float64 field per converged seed: n_seeds * N^2 * 4n values
# are capped at 2^28, 2 GiB (65,536 seeds at N = 32, n = 1; 64 at N = 1024).
MAX_SEED_VALUES = 2**28


class ConfigError(ValueError):
    pass


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    n_pairs: int = 1
    grid_size: int = 32
    potential: dict = field(
        default_factory=lambda: {"kind": "trig_potential", "epsilon": 0.1, "modes": [[1, 0], [0, 1]]}
    )
    rho: float | None = None
    lattice_per_dim: int = 6
    random_starts: int = 14
    perturbation_amplitude: float = 0.01
    perturbation_band: int = 2
    residual_tol: float = 1e-8
    dedup_delta: float = 0.05
    s_max: float = 400.0
    ds: float = 0.02
    seed: int = 0
    wall_clock_cap: float | None = None

    def __post_init__(self):
        for name, low in (
            ("n_pairs", 1),
            ("grid_size", 8),
            ("lattice_per_dim", 1),
            ("random_starts", 0),
            ("perturbation_band", 0),
            ("seed", 0),
        ):
            value = getattr(self, name)
            if not _is_integer(value) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.perturbation_band >= self.grid_size // 2:
            raise ConfigError(
                f"perturbation_band must stay below the Nyquist band N/2 = {self.grid_size // 2}, "
                f"got {self.perturbation_band}"
            )
        for name in ("residual_tol", "dedup_delta", "s_max", "rho"):
            value = getattr(self, name)
            if name == "rho" and value is None:
                continue
            if not (_is_real(value) and 0.0 < value < np.inf):
                raise ConfigError(f"{name} must be a positive finite number, got {value!r}")
        amplitude = self.perturbation_amplitude
        if not (_is_real(amplitude) and 0.0 <= amplitude < np.inf):
            raise ConfigError(
                f"perturbation_amplitude must be a finite number >= 0, got {amplitude!r}"
            )
        cap = self.wall_clock_cap
        if cap is not None and not (_is_real(cap) and cap >= 0.0):
            raise ConfigError(f"wall_clock_cap must be null or a number >= 0, got {cap!r}")
        if self.dedup_delta <= 10.0 * self.residual_tol:
            raise ConfigError("dedup_delta must exceed 10x residual_tol")
        if not _is_real(self.ds):
            raise ConfigError(f"ds must be a number, got {self.ds!r}")
        try:
            check_grid_size(self.grid_size)
            check_step(self.grid_size, self.ds)
        except (FieldError, FlowError) as exc:
            raise ConfigError(str(exc)) from None
        cap = MAX_SEED_VALUES // (self.grid_size**2 * 4 * self.n_pairs)
        if self.n_seeds > cap:
            raise ConfigError(f"n_seeds must be at most {cap} at grid size {self.grid_size} (2 GiB of fields)")
        try:
            check_flow_steps(self.s_max, self.ds)  # per seed: a constant seed's `constant_step` takes fewer
        except FlowError as exc:
            raise ConfigError(str(exc)) from None
        if self.spec.n_pairs != self.n_pairs:
            raise ConfigError(f"potential is for n_pairs={self.spec.n_pairs}, config says {self.n_pairs}")

    @property
    def n_lattice_seeds(self) -> int:
        return self.lattice_per_dim ** (2 * self.n_pairs)

    @property
    def n_seeds(self) -> int:
        return self.n_lattice_seeds + self.random_starts

    def build_spec(self) -> HamiltonianSpec:
        """The run's spec (`hamiltonian_from_config`); rho defaults to 4 plus the action bound's |p|^2 level."""
        spec = hamiltonian_from_config(self.potential)
        if self.rho is not None:
            rho = float(self.rho)
        else:
            c0, c1 = action_bound_constants(spec)
            rho = 4.0 + c1 / c0
        return replace(spec, rho=rho)

    @cached_property
    def spec(self) -> HamiltonianSpec:
        """`build_spec()` once, in `__post_init__`; kept beside the frozen fields, pickled, not copied by `replace`."""
        return self.build_spec()

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        check_keys(data, cls.__dataclass_fields__)
        return cls(**data)


def check_keys(data: dict, known) -> None:
    """Reject the keys of a config object that its reader does not read."""
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")


def seed_field(config: ExperimentConfig, index: int) -> TorusField:
    """Deterministic seed: lattice constants first, then perturbed constants."""
    dim_q = 2 * config.n_pairs
    n = config.grid_size
    if index < 0 or index >= config.n_seeds:
        raise ConfigError(f"seed index {index} out of range")
    if index < config.n_lattice_seeds:
        digits = []
        rest = index
        for _ in range(dim_q):
            digits.append(rest % config.lattice_per_dim)
            rest //= config.lattice_per_dim
        q = 2.0 * np.pi * np.array(digits, dtype=float) / config.lattice_per_dim
        vec = np.concatenate([q, np.zeros(dim_q)])
        return constant_field(n, vec, "z")
    rng = np.random.default_rng([config.seed, index])
    q = rng.uniform(0.0, 2.0 * np.pi, size=dim_q)
    base = np.concatenate([q, np.zeros(dim_q)])
    bump = random_band_limited(
        rng,
        n,
        4 * config.n_pairs,
        max_mode=config.perturbation_band,
        amplitude=config.perturbation_amplitude,
        layout="z",
    )
    return TorusField(bump.values + base, "z")


def seed_kind(config: ExperimentConfig, index: int) -> str:
    return "lattice" if index < config.n_lattice_seeds else "perturbed"


class SolutionRecord(NamedTuple):
    seed_index: int
    field: TorusField
    action: float
    residual: float
    classification: str
    q_mean: np.ndarray
    max_p_sq: float
    s_reached: float
    n_steps: int
    p_norm_sq: float
    bound_margin: float
    reason: str
    n_halvings: int
    action_trace: np.ndarray | None = None  # (samples, 2): s, action
    row: np.ndarray | None = None  # the (4n,) value of an `exact_constant` field, else None

    def to_row(self) -> dict:
        return {
            "seed_index": self.seed_index,
            "action": self.action,
            "residual": self.residual,
            "classification": self.classification,
            "q_mean": [float(x) for x in np.mod(self.q_mean, 2.0 * np.pi)],
            "max_p_sq": self.max_p_sq,
            "s_reached": self.s_reached,
            "bound_margin": self.bound_margin,
        }


class DivergenceRecord(NamedTuple):
    seed_index: int
    reason: str
    s_reached: float
    residual: float
    n_steps: int
    n_halvings: int


def _exact_row(z: TorusField):
    """The (4n,) value of z when z is an `exact_constant`, else None."""
    return z.values[0, 0] if exact_constant(z.values) else None


def _field_stats(z: TorusField) -> tuple:
    """(q_mean, max_p_sq, p_norm_sq) of a field: means and a max over its grid values."""
    p_sq = np.sum(z.p_part() ** 2, axis=2)
    return np.mean(z.q_part(), axis=(0, 1)), float(np.max(p_sq)), float(np.mean(p_sq))


def _record_from_result(
    config: ExperimentConfig, spec: HamiltonianSpec, index: int, result: FlowResult, stats=None
) -> SolutionRecord:
    """The record of one converged flow result.

    stats is (row, q_mean, max_p_sq, p_norm_sq, action) as `_records` takes
    them for a result with a row.  Without it they come from the field
    (`_exact_row`, `_field_stats` and `action`): the reference whose bits the
    batch of `_records` has, which the tests compare against.  A field that
    is not an exact constant classifies by its seminorm.
    """
    z = result.Z
    if stats is None:
        stats = (_exact_row(z), *_field_stats(z), action(spec, z))
    row, q_mean, max_p_sq, p_norm_sq, act = stats
    # the seminorm of an exact constant is exactly 0: its transform is zero off (0, 0)
    flat = row is not None or sobolev_seminorm(z, 1) < 10.0 * config.residual_tol
    c0, c1 = action_bound_constants(spec)
    trace = np.array([(r[0], r[1]) for r in result.rows[::20]])
    return SolutionRecord(
        seed_index=index,
        field=z,
        action=act,
        residual=result.residual_norm,
        classification="constant" if flat else "nonconstant",
        q_mean=q_mean,
        max_p_sq=max_p_sq,
        s_reached=result.s_reached,
        n_steps=result.n_steps,
        p_norm_sq=p_norm_sq,
        bound_margin=act - (c0 * p_norm_sq - c1),
        reason=result.reason,
        n_halvings=result.n_halvings,
        action_trace=trace,
        row=row,
    )


def _records(config: ExperimentConfig, spec: HamiltonianSpec, converged: list) -> list:
    """The records of the converged (index, FlowResult) pairs, in their order.

    Whether a result's field is an `exact_constant` is decided once, and its
    (4n,) value kept on the record as `row` (`dedup` reads it).  The rows'
    stats come in one batch, with the bits of `_field_stats` and `action` of
    their fields: a row's |p|^2 (`square_sum`, as `cutoff_terms` takes it)
    is its field's max, `grid_mean` of its copies the field's mean, and the
    q means are numpy's mean over a broadcast (B, N, N, 2n) view.  Under an
    autonomous h the rows' actions come from one constant grid of them,
    evaluated once: `action` takes each such field on a one-seed constant
    grid, and a seed's results do not depend on the other seeds of its grid.
    Every other result, and every record of a time-dependent h, takes
    `action` of its field, and every result without a row `_field_stats`.
    """
    rows = [_exact_row(result.Z) for _, result in converged]
    stats = [None] * len(rows)
    batch = [i for i, row in enumerate(rows) if row is not None]
    if batch:
        n, q, block = config.grid_size, 2 * spec.n_pairs, np.array([rows[i] for i in batch])
        p_sq = square_sum(block[:, q:])
        p_norm_sq = grid_mean(np.repeat(p_sq[:, None], min(n * n, PAIRWISE_BLOCK), axis=1), n * n)
        q_means = np.mean(np.broadcast_to(block[:, None, None, :q], (len(batch), n, n, q)), axis=(1, 2))
        if spec.potential.time_dependent:
            actions = [action(spec, converged[i][1].Z) for i in batch]
        else:
            grid = _FlowGrid.constants(spec, n, block)
            vals, zhat = grid.start
            actions = [float(a) for a in grid.action(zhat, grid.evaluate(vals), 1.0)]
        for i, m, x, p, a in zip(batch, q_means, p_sq, p_norm_sq, actions):
            stats[i] = (rows[i], m, float(x), float(p), a)
    return [_record_from_result(config, spec, idx, result, stats[i]) for i, (idx, result) in enumerate(converged)]


def solve_seed(config: ExperimentConfig, z0: TorusField) -> FlowResult:
    """Flow one built seed field z0 alone under config.spec."""
    return flow_to_solution(z0, config.spec, tol=config.residual_tol, s_max=config.s_max, ds=config.ds)


def _solve_seeds(config: ExperimentConfig, indices, stop):
    """Flow the seeds `indices` under config.spec, each built in its turn; returns ({index: FlowResult}, stopped).

    A seed that `constant_start` accepts keeps only its first row; every
    other seed flows at once (`solve_seed`).  The constant seeds then flow as
    one batch (`flow_constants`), each bit-identical to its own flow, at the step
    `constant_step` of config.ds, but only down to the residual
    `polish_level`; `polish_constants` takes each seed that got there on to
    residual_tol.  A seed whose polish fails flows again from its start, at
    the same step, to residual_tol, so its result is the plain flow's.  Seeds that
    start below residual_tol, and seeds that diverge or stop before
    `polish_level`, get the plain flow's result as well.  stop() is asked
    before each seed and between batch steps; once it returns True, the
    seeds not finished are left out and stopped is True.
    """
    spec, results, constants = config.spec, {}, {}
    for idx in indices:
        if stop():
            return results, True
        z0 = seed_field(config, idx)
        start = constant_start(spec, z0)
        if start is None:
            results[idx] = solve_seed(config, z0)
        else:
            constants[idx] = start
    if not constants:
        return results, False
    if stop():
        return results, True
    starts = list(constants.values())
    tol, s_max, ds = config.residual_tol, config.s_max, constant_step(spec, config.ds)
    batch = flow_constants(starts, spec, max(tol, polish_level(spec)), s_max, ds, stop)
    handed = [i for i, r in enumerate(batch) if r is not None and r.converged and not r.residual_norm < tol]
    for i, result in zip(handed, polish_constants([batch[i] for i in handed], spec, tol)):
        batch[i] = result
    failed = [i for i in handed if batch[i] is None]
    for i, result in zip(failed, flow_constants([starts[i] for i in failed], spec, tol, s_max, ds, stop)):
        batch[i] = result
    results.update((idx, result) for idx, result in zip(constants, batch) if result is not None)
    return results, any(result is None for result in batch)


def _solve_seeds_task(config: ExperimentConfig, indices, deadline: float | None):
    """_solve_seeds in a worker process under the pickled config's spec; deadline is a time.time() value or None."""
    return _solve_seeds(config, indices, lambda: deadline is not None and time.time() > deadline)


class MultistartResult(NamedTuple):
    records: list
    divergent: list
    unfinished: list
    budget_exhausted: bool


def multistart_solve(config: ExperimentConfig, jobs: int = 1) -> MultistartResult:
    """Run every seed; converged limits become records, the rest are reported.

    The records are made together once the seeds are done (`_records`):
    those whose field is an exact constant take their statistics from
    their rows in one batch, the others from their fields.

    Every seed flows under config.spec.  With jobs > 1 the seed indices
    are dealt round-robin into min(jobs, n_seeds) pool tasks; a worker
    takes the config's spec and builds its seeds as the serial run does.
    A seed's result does not depend on the other seeds of its task, so
    every split writes the serial run's records.  wall_clock_cap is
    checked before each seed, between batch steps and after each finished task.
    The process pool is imported in the jobs > 1 branch only, so that a
    serial run, and `import torusfloer.cli`, never load `concurrent.futures`
    or `multiprocessing`.
    """
    divergent, unfinished = [], []
    start = time.monotonic()
    cap = config.wall_clock_cap
    indices = range(config.n_seeds)

    def over_budget() -> bool:
        return cap is not None and time.monotonic() - start > cap

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        results, budget_exhausted = {}, False
        deadline = None if cap is None else time.time() + cap
        tasks = [indices[k::jobs] for k in range(min(jobs, config.n_seeds))]
        # a fork pool starts all its workers at the first submit: no more than there are tasks
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            futures = [pool.submit(_solve_seeds_task, config, task, deadline) for task in tasks]
            for future in as_completed(futures):
                part, stopped = future.result()
                results.update(part)
                if stopped or over_budget():
                    budget_exhausted = True
                    for pending in futures:
                        pending.cancel()
                    break
    else:
        results, budget_exhausted = _solve_seeds(config, indices, over_budget)

    converged = []
    for idx in sorted(results):
        result = results[idx]
        if result.converged:
            converged.append((idx, result))
            continue
        record = DivergenceRecord(
            idx, result.reason, result.s_reached, result.residual_norm,
            result.n_steps, result.n_halvings,
        )
        (divergent if result.diverged else unfinished).append(record)
    return MultistartResult(_records(config, config.spec, converged), divergent, unfinished, budget_exhausted)


# ---------------------------------------------------------------------------
# deduplication in the quotient metric


def _component_planes(z: TorusField) -> np.ndarray:
    """The C-contiguous (4n, N^2) component planes of a field."""
    return np.ascontiguousarray(z.values.reshape(-1, z.components).T)


def _plane_distance(a: np.ndarray, b: np.ndarray, points: int | None = None) -> np.ndarray:
    """quotient_l2_distance of fields given as `_component_planes`, from a to each of b.

    a is one field's (4n, N^2) planes and b one field's or a stack (B, 4n, N^2)
    of them; the result has b's leading shape.  Each sum over components adds
    whole planes in numpy's order over a C-ordered component axis
    (`component_sum`), and each mean over points is numpy's pairwise mean
    along a contiguous axis, so every distance has the bits of the same
    formula taken over the two fields' (N, N, 4n) values.  Planes of exact
    constants may hold min(N^2, PAIRWISE_BLOCK) copies of each value instead,
    with points = N^2: each mean then scales their sum as numpy's sum of the
    N^2 values does (`grid_mean`), and the distances keep their bits.
    """
    points = a.shape[-1] if points is None else points
    q = len(a) // 2
    dq = a[:q] - b[..., :q, :]
    dq -= 2.0 * np.pi * np.round(grid_mean(dq, points) / (2.0 * np.pi))[..., None]
    dq *= dq
    dp = a[q:] - b[..., q:, :]
    dp *= dp
    sq = component_sum(np.swapaxes(dq, -1, -2)) + component_sum(np.swapaxes(dp, -1, -2))
    return np.sqrt(np.maximum(grid_mean(sq, points), 0.0))


def quotient_l2_distance(a: TorusField, b: TorusField) -> float:
    """L2 distance with the q block compared modulo constant 2*pi shifts.

    Only the q mean can differ by a lattice vector between two lifts of the
    same torus-valued field, so the minimizing shift is the rounded mean
    difference per component.
    """
    if a.values.shape != b.values.shape:
        raise ConfigError("cannot compare fields of different shapes")
    return float(_plane_distance(_component_planes(a), _component_planes(b)))


class DedupResult(NamedTuple):
    clusters: list
    representatives: list
    diameters: list
    delta: float

    @property
    def distinct(self) -> int:
        return len(self.clusters)


def dedup(records: list, delta: float) -> DedupResult:
    """Single-linkage greedy clustering; representatives take the lowest residual.

    Each record's distances to the records after it are taken in one
    broadcast over their stacked planes (a distance is symmetric to the
    bit), and the clustering and the diameters read them.  When every
    record holds the row of an exact constant, the planes are
    (B, 4n, min(N^2, PAIRWISE_BLOCK)) copies of the rows (`_plane_distance`);
    otherwise each record's field is copied once into (B, 4n, N^2) planes.
    """
    if delta <= 0:
        raise ConfigError("dedup delta must be positive")
    dist = np.zeros((len(records), len(records)))
    if records:
        n, _, k = records[0].field.values.shape
        points = n * n
        if all(r.row is not None for r in records):
            rows = np.array([r.row for r in records])
            planes = np.repeat(rows[:, :, None], min(points, PAIRWISE_BLOCK), axis=2)
        else:
            planes = np.empty((len(records), k, points))  # `_component_planes` of each record
            for plane, r in zip(planes, records):
                plane[...] = r.field.values.reshape(-1, k).T
        for i in range(len(records) - 1):
            dist[i, i + 1 :] = dist[i + 1 :, i] = _plane_distance(planes[i], planes[i + 1 :], points)
    order = sorted(range(len(records)), key=lambda i: records[i].residual)
    clusters: list[list[int]] = []
    for i in order:
        hits = [ci for ci, members in enumerate(clusters) if np.any(dist[i, members] <= delta)]
        if not hits:
            clusters.append([i])
        else:
            keep = hits[0]
            clusters[keep].append(i)
            for ci in reversed(hits[1:]):
                clusters[keep].extend(clusters.pop(ci))
    representatives = [
        min(members, key=lambda i: records[i].residual) for members in clusters
    ]
    # the largest distance within each cluster; a NaN distance is passed over
    diameters = [float(np.fmax.reduce(dist[np.ix_(m, m)], axis=None, initial=0.0)) for m in clusters]
    return DedupResult(clusters, representatives, diameters, delta)


def detect_continuum(records: list, dedup_result: DedupResult, config: ExperimentConfig) -> bool:
    """Heuristic for a continuum of solutions rather than isolated ones.

    Fires when a cluster chains beyond 10*delta, or when many clusters
    share one action value to within residual noise (the flat landscape a
    vanishing nonlinearity produces: isolated lattice seeds never chain, so
    diameter alone cannot see it).
    """
    if any(d > 10.0 * dedup_result.delta for d in dedup_result.diameters):
        return True
    if dedup_result.distinct > max(10, 3 * (2 * config.n_pairs + 1)):
        acts = [records[i].action for i in dedup_result.representatives]
        if max(acts) - min(acts) < 10.0 * config.residual_tol:
            return True
    return False


class CountReport(NamedTuple):
    config: ExperimentConfig
    bound: int
    distinct: int
    passed: bool
    inconclusive: bool
    continuum_detected: bool
    records: list
    dedup_result: DedupResult
    divergent: list
    unfinished: list
    rho: float
    bound_constants: tuple

    def table(self) -> list:
        """Representative rows sorted by action, largest first."""
        reps = [self.records[i] for i in self.dedup_result.representatives]
        rows = []
        for rec, members in sorted(
            zip(reps, self.dedup_result.clusters), key=lambda t: -t[0].action
        ):
            row = rec.to_row()
            row["cluster_size"] = len(members)
            rows.append(row)
        return rows

    def to_report_dict(self) -> dict:
        c0, c1 = self.bound_constants
        return {
            "bound": self.bound,
            "distinct": self.distinct,
            "passed": self.passed,
            "inconclusive": self.inconclusive,
            "continuum_detected": self.continuum_detected,
            "rho": self.rho,
            "action_bound_constants": {"c0": c0, "c1": c1},
            "n_seeds": self.config.n_seeds,
            "n_converged": len(self.records),
            "n_divergent": len(self.divergent),
            "n_unfinished": len(self.unfinished),
            "records": self.table(),
            "config": asdict(self.config),
        }


def verify_count(config: ExperimentConfig, jobs: int = 1) -> CountReport:
    """Full experiment under config.spec: multistart, dedup, count against the 2n+1 bound."""
    multi = multistart_solve(config, jobs=jobs)
    dd = dedup(multi.records, config.dedup_delta)
    continuum = detect_continuum(multi.records, dd, config) if multi.records else False
    bound = 2 * config.n_pairs + 1
    inconclusive = multi.budget_exhausted
    passed = (dd.distinct >= bound or continuum) and not inconclusive
    return CountReport(
        config=config,
        bound=bound,
        distinct=dd.distinct,
        passed=passed,
        inconclusive=inconclusive,
        continuum_detected=continuum,
        records=multi.records,
        dedup_result=dd,
        divergent=multi.divergent,
        unfinished=multi.unfinished,
        rho=config.spec.rho,
        bound_constants=action_bound_constants(config.spec),
    )
