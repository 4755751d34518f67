"""Multistart search for solutions of the first-order system on the torus.

Seeds are constants on a lattice of the base torus plus random band-limited
perturbations; each seed flows under the autonomous gradient flow until the
residual converges or the run is reported divergent.  Converged limits are
deduplicated in the quotient L2 metric (the base torus identifies constant
shifts by 2*pi lattice vectors) and counted against the 2n+1 lower bound.
"""

from __future__ import annotations

import json
import numbers
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field

import numpy as np

from .floer import (
    POLISH_BELOW,
    FlowError,
    FlowResult,
    action,
    check_step,
    constant_start,
    flow_constants,
    flow_to_solution,
    polish_constants,
)
from .hamiltonians import (
    HamiltonianSpec,
    action_bound_constants,
    component_sum,
    hamiltonian_from_config,
    nonlinearity_from_config,
)
from .spectral import TorusField, constant_field, random_band_limited, sobolev_seminorm


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
    check_every: int = 10
    seed: int = 0
    wall_clock_cap: float | None = None

    def __post_init__(self):
        for name, low in (
            ("n_pairs", 1),
            ("lattice_per_dim", 1),
            ("random_starts", 0),
            ("perturbation_band", 0),
            ("check_every", 1),
            ("seed", 0),
        ):
            value = getattr(self, name)
            if not _is_integer(value) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if not _is_integer(self.grid_size) or self.grid_size % 2 or self.grid_size < 8:
            raise ConfigError(f"grid size must be even and >= 8, got {self.grid_size!r}")
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
            check_step(self.grid_size, self.ds)
        except FlowError as exc:
            raise ConfigError(str(exc)) from None
        pot = nonlinearity_from_config(self.potential)
        if pot.n_pairs != self.n_pairs:
            raise ConfigError(
                f"potential is for n_pairs={pot.n_pairs}, config says {self.n_pairs}"
            )

    @property
    def n_lattice_seeds(self) -> int:
        return self.lattice_per_dim ** (2 * self.n_pairs)

    @property
    def n_seeds(self) -> int:
        return self.n_lattice_seeds + self.random_starts

    def resolved_rho(self) -> float:
        """Configured rho, or 4 plus the a-priori |p|^2 level of the action bound."""
        if self.rho is not None:
            return float(self.rho)
        spec = hamiltonian_from_config(self.potential)
        c0, c1 = action_bound_constants(spec)
        return 4.0 + c1 / c0

    def build_spec(self) -> HamiltonianSpec:
        return hamiltonian_from_config(self.potential, rho=self.resolved_rho())

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


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


@dataclass
class SolutionRecord:
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


@dataclass
class DivergenceRecord:
    seed_index: int
    reason: str
    s_reached: float
    residual: float
    n_steps: int
    n_halvings: int


def _record_from_result(
    config: ExperimentConfig, spec: HamiltonianSpec, index: int, result: FlowResult
) -> SolutionRecord:
    z = result.Z
    seminorm = sobolev_seminorm(z, 1)
    classification = "constant" if seminorm < 10.0 * config.residual_tol else "nonconstant"
    q_mean = np.mean(z.q_part(), axis=(0, 1))
    p_norm_sq = float(np.mean(np.sum(z.p_part() ** 2, axis=2)))
    c0, c1 = action_bound_constants(spec)
    act = action(spec, z)
    trace = np.array([(row[0], row[1]) for row in result.rows[::20]])
    return SolutionRecord(
        seed_index=index,
        field=z,
        action=act,
        residual=result.residual_norm,
        classification=classification,
        q_mean=q_mean,
        max_p_sq=float(np.max(np.sum(z.p_part() ** 2, axis=2))),
        s_reached=result.s_reached,
        n_steps=result.n_steps,
        p_norm_sq=p_norm_sq,
        bound_margin=act - (c0 * p_norm_sq - c1),
        reason=result.reason,
        n_halvings=result.n_halvings,
        action_trace=trace,
    )


def _flow_options(config: ExperimentConfig) -> dict:
    return {
        "tol": config.residual_tol,
        "s_max": config.s_max,
        "ds": config.ds,
        "check_every": config.check_every,
    }


def solve_seed(config: ExperimentConfig, index: int, spec: HamiltonianSpec | None = None):
    """Flow one seed alone; returns (index, FlowResult).  spec defaults to config.build_spec()."""
    spec = config.build_spec() if spec is None else spec
    return index, flow_to_solution(seed_field(config, index), spec, **_flow_options(config))


def _solve_seeds(config: ExperimentConfig, spec: HamiltonianSpec, indices, stop):
    """Flow the seeds `indices`, building each once; returns ({index: FlowResult}, stopped).

    A seed that `constant_start` accepts keeps only its first row; every
    other seed flows at once.  The constant seeds then flow as one batch
    (`flow_constants`), each bit-identical to its own flow, but only down
    to the residual POLISH_BELOW; `polish_constants` takes each seed that
    got there on to residual_tol.  A seed whose polish fails flows again
    from its start to residual_tol, so its result is the plain flow's.
    Seeds that start below residual_tol, and seeds that diverge or stop
    before POLISH_BELOW, get the plain flow's result as well.  stop() is
    asked before each seed and between batch steps; once it returns True,
    the seeds not finished are left out and stopped is True.
    """
    results, constants = {}, {}
    options = _flow_options(config)
    for idx in indices:
        if stop():
            return results, True
        z0 = seed_field(config, idx)
        start = constant_start(spec, z0)
        if start is None:
            results[idx] = flow_to_solution(z0, spec, **options)
        else:
            constants[idx] = start
    if not constants:
        return results, False
    if stop():
        return results, True
    starts = list(constants.values())
    tol = options["tol"]
    batch = flow_constants(starts, spec, stop=stop, **{**options, "tol": max(tol, POLISH_BELOW)})
    handed = [i for i, r in enumerate(batch) if r is not None and r.converged and not r.residual_norm < tol]
    for i, result in zip(handed, polish_constants([batch[i] for i in handed], spec, tol)):
        batch[i] = result
    failed = [i for i in handed if batch[i] is None]
    for i, result in zip(failed, flow_constants([starts[i] for i in failed], spec, stop=stop, **options)):
        batch[i] = result
    results.update((idx, result) for idx, result in zip(constants, batch) if result is not None)
    return results, any(result is None for result in batch)


def _solve_seeds_task(config_json: str, indices: list, deadline: float | None):
    """_solve_seeds in a worker process; deadline is a time.time() value or None."""
    config = ExperimentConfig.from_dict(json.loads(config_json))
    return _solve_seeds(
        config, config.build_spec(), indices, lambda: deadline is not None and time.time() > deadline
    )


@dataclass
class MultistartResult:
    records: list
    divergent: list
    unfinished: list
    budget_exhausted: bool


def multistart_solve(
    config: ExperimentConfig, jobs: int = 1, spec: HamiltonianSpec | None = None
) -> MultistartResult:
    """Run every seed; converged limits become records, the rest are reported.

    spec defaults to config.build_spec(); worker processes build their own.
    With jobs > 1 each non-constant seed is one pool task and the batch of
    constant seeds is another.  wall_clock_cap is checked before each seed,
    between batch steps and after each finished task.
    """
    spec = config.build_spec() if spec is None else spec
    records, divergent, unfinished = [], [], []
    start = time.monotonic()
    cap = config.wall_clock_cap
    indices = list(range(config.n_seeds))

    def over_budget() -> bool:
        return cap is not None and time.monotonic() - start > cap

    if jobs > 1:
        results, budget_exhausted = {}, False
        deadline = None if cap is None else time.time() + cap
        constants = [i for i in indices if constant_start(spec, seed_field(config, i)) is not None]
        tasks = [[i] for i in sorted(set(indices) - set(constants))]
        if constants:
            tasks.insert(0, constants)  # the longest task first
        config_json = json.dumps(asdict(config))
        # a fork pool starts all its workers at the first submit: no more than there are tasks
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            futures = [pool.submit(_solve_seeds_task, config_json, task, deadline) for task in tasks]
            for future in as_completed(futures):
                part, stopped = future.result()
                results.update(part)
                if stopped or over_budget():
                    budget_exhausted = True
                    for pending in futures:
                        pending.cancel()
                    break
    else:
        results, budget_exhausted = _solve_seeds(config, spec, indices, over_budget)

    for idx in sorted(results):
        result = results[idx]
        if result.converged:
            records.append(_record_from_result(config, spec, idx, result))
            continue
        record = DivergenceRecord(
            idx, result.reason, result.s_reached, result.residual_norm,
            result.n_steps, result.n_halvings,
        )
        (divergent if result.diverged else unfinished).append(record)
    return MultistartResult(records, divergent, unfinished, budget_exhausted)


# ---------------------------------------------------------------------------
# deduplication in the quotient metric


def _component_planes(z: TorusField) -> np.ndarray:
    """The C-contiguous (4n, N^2) component planes of a field."""
    return np.ascontiguousarray(z.values.reshape(-1, z.components).T)


def _plane_distance(a: np.ndarray, b: np.ndarray) -> float:
    """quotient_l2_distance of two fields given as `_component_planes`.

    Each sum over components adds whole planes in numpy's order over a
    C-ordered component axis (`component_sum`), and the mean over points is
    numpy's pairwise mean, so the result has the bits of the same formula
    taken over the fields' (N, N, 4n) values.
    """
    q = len(a) // 2
    dq = a[:q] - b[:q]
    dq -= 2.0 * np.pi * np.round(np.mean(dq, axis=1) / (2.0 * np.pi))[:, None]
    dp = a[q:] - b[q:]
    dist_sq = float(np.mean(component_sum((dq * dq).T) + component_sum((dp * dp).T)))
    return float(np.sqrt(max(dist_sq, 0.0)))


def quotient_l2_distance(a: TorusField, b: TorusField) -> float:
    """L2 distance with the q block compared modulo constant 2*pi shifts.

    Only the q mean can differ by a lattice vector between two lifts of the
    same torus-valued field, so the minimizing shift is the rounded mean
    difference per component.
    """
    if a.values.shape != b.values.shape:
        raise ConfigError("cannot compare fields of different shapes")
    return _plane_distance(_component_planes(a), _component_planes(b))


@dataclass
class DedupResult:
    clusters: list
    representatives: list
    diameters: list
    delta: float

    @property
    def distinct(self) -> int:
        return len(self.clusters)


def dedup(records: list, delta: float) -> DedupResult:
    """Single-linkage greedy clustering; representatives take the lowest residual."""
    if delta <= 0:
        raise ConfigError("dedup delta must be positive")
    planes = [_component_planes(r.field) for r in records]
    order = sorted(range(len(records)), key=lambda i: records[i].residual)
    clusters: list[list[int]] = []
    for i in order:
        hits = []
        for ci, members in enumerate(clusters):
            if any(_plane_distance(planes[i], planes[j]) <= delta for j in members):
                hits.append(ci)
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
    diameters = []
    for members in clusters:
        worst = 0.0
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                worst = max(worst, _plane_distance(planes[members[a]], planes[members[b]]))
        diameters.append(worst)
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


@dataclass
class CountReport:
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
    """Full experiment: multistart, dedup, count against the 2n+1 bound."""
    spec = config.build_spec()
    multi = multistart_solve(config, jobs=jobs, spec=spec)
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
        rho=spec.rho,
        bound_constants=action_bound_constants(spec),
    )
