"""Command-line entry point.

Subcommands: structures, symbol, flow, energy, cuplength, legendre-check,
ddw-demo.  Every run writes a manifest.json (timestamps, config hash, exit
status) into its output directory; report files themselves contain no
timestamps, so identical configs reproduce byte-identical reports.

Exit codes: 0 pass, 1 input error, 2 check failure, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .fields_io import (
    load_trajectory,
    matrix_from_jsonable,
    matrix_to_jsonable,
    save_field,
    save_trajectory,
    write_csv,
    write_json,
)
from .floer import (
    DIAGNOSTIC_COLUMNS,
    FlowError,
    check_explicit_step,
    check_flow_steps,
    check_step,
    constant_step,
    energy_identity_check,
    flow_to_solution,
    max_principle_check,
    run_homotopy,
    switching_window,
)
from .hamiltonians import (
    HamiltonianError,
    LagrangianSpec,
    LegendreError,
    TrigPotential,
    check_run_potential,
    hamiltonian_from_config,
    hofer_norm,
    legendre_transform,
    nonlinearity_from_config,
    quadratic_lagrangian,
    ddw_kernel_witness,
    ddw_residual,
)
from .runner import MAX_SEED_VALUES, ConfigError, ExperimentConfig, check_keys, seed_kind, verify_count
from .spectral import (
    FieldError,
    check_grid_size,
    constant_field,
    field_from_modes,
    l2_norm,
    random_band_limited,
)
from .structures import (
    StructureError,
    check_regularized_pair,
    compatible_triple,
    standard_structures,
)
from .symbol import SymbolError, check_search, check_sweep, minimal_N_search, sweep_rows

EXIT_PASS = 0
EXIT_INPUT = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3

#: `cuplength --jobs` starts up to this many fork workers at once; each holds about
#: 45 MB (perfbench peak_rss_mb), so about 3 GB at the cap
MAX_JOBS = 64
#: `structures --standard N` prints J and K and writes five (4N, 4N) matrices, all growing as (4N)^2:
#: at this cap (4N = 256) 1.5 MB of JSON on stdout and a 3.7 MB report.json
MAX_STANDARD_PAIRS = 64
#: a legendre-check sample takes about 130 us (two Legendre transforms, one BLAS thread): some 13 s at this cap
MAX_LEGENDRE_SAMPLES = 100_000
#: a ddw-demo sample takes about 0.8 us a grid point, and no less than about 0.5 ms (0.4-0.7 ms at N <= 32,
#: 0.85 s at N = 1024, one BLAS thread): --samples times max(N^2, 1024) is capped here, some 8-14 s
MAX_DDW_POINTS = 2**24

# one row per finished seed; columns after "cluster" say how its flow ended
# and, last, what kind of seed it was (lattice or perturbed)
SUMMARY_COLUMNS = (
    "seed", "converged", "action", "residual", "cluster",
    "reason", "n_steps", "n_halvings", "s_reached", "kind",
)


class InputError(ValueError):
    """A bad argument or input file: exit code 1 with a one-line message."""


def _prepare_outdir(args) -> Path:
    out = Path(args.out or Path(os.environ.get("TORUSFLOER_OUT", "runs")) / args.subcommand)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory: {exc}") from None
    return out


def _load_config(path, outdir: Path):
    """(JSON object, SHA-256) of the file at path, snapshotted into outdir; (None, None) without one."""
    if path is None:
        return None, None
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise InputError(f"cannot parse {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object, got a {type(data).__name__}")
    (outdir / "config_snapshot.json").write_bytes(raw)
    return data, hashlib.sha256(raw).hexdigest()


def _write_manifest(outdir: Path, args, argv: list, started: float, exit_status: int, sha):
    write_json(
        outdir / "manifest.json",
        {
            "subcommand": args.subcommand,
            "argv": argv,
            "config_path": args.config,
            "config_sha256": sha,
            "tool_version": __version__,
            "started_at": started,
            "finished_at": time.time(),
            "output_dir": str(outdir),
            "exit_status": exit_status,
            "step_regime": args.step_regime,
            "constant_step_regime": args.constant_step_regime,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cpu_count": os.cpu_count(),
            },
        },
    )


def _at_least(option: str, value: int, low: int) -> None:
    if value < low:
        raise InputError(f"{option} must be an integer >= {low}, got {value}")


def _beside_config(args, flags) -> None:
    """Exit 1 on the first of the (flag, config key) pairs whose flag was given: the config sets the key."""
    for flag, key in flags:
        if getattr(args, flag.lstrip("-")) is not None:
            raise InputError(f"{flag} conflicts with --config: the config sets {key}")


# ---------------------------------------------------------------------------
# Each subcommand is a check, which validates the input and returns what the
# run needs, and a run, which computes, writes its outputs and returns the
# exit status.  A dry run stops after the check.  A check of a subcommand
# that takes flow steps keeps the step regime for the manifest in
# args.step_regime; cuplength's also keeps its constant seeds' step, from
# `constant_step`, in args.constant_step_regime.


def check_structures(args, data):
    if args.standard is not None:
        if args.standard > MAX_STANDARD_PAIRS:
            raise InputError(f"--standard must be at most {MAX_STANDARD_PAIRS}, got {args.standard}")
        return standard_structures(args.standard)
    if data is None:
        raise InputError("need --standard N or --input FILE")
    try:
        matrices = [matrix_from_jsonable(data[key]) for key in ("omega1", "omega2", "I")]
        aux = matrix_from_jsonable(data["aux_metric"]) if "aux_metric" in data else None
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed matrices: {exc}") from None
    return (*matrices, aux)


def run_structures(args, outdir: Path, checked) -> int:
    if args.standard is not None:
        triple = checked
        report = {
            "dim": triple.dim,
            "J": matrix_to_jsonable(triple.J),
            "K": matrix_to_jsonable(triple.K),
            "I": matrix_to_jsonable(triple.I),
            "omega1": matrix_to_jsonable(triple.omega1),
            "omega2": matrix_to_jsonable(triple.omega2),
            "algebra_residuals": triple.algebra_residuals(),
            "passed": True,
        }
        print(json.dumps({"J": report["J"], "K": report["K"]}, indent=2))
        write_json(outdir / "report.json", report)
        return EXIT_PASS
    omega1, omega2, big_i, aux = checked
    pair = check_regularized_pair(omega1, omega2, big_i)
    report = {"pair_check": asdict(pair), "failed_checks": pair.failed_checks()}
    status = EXIT_PASS if pair.passed else EXIT_FAIL
    if pair.passed:
        try:
            triple = compatible_triple(omega1, omega2, big_i, aux)
            report["triple"] = {
                "J": matrix_to_jsonable(triple.J),
                "K": matrix_to_jsonable(triple.K),
                "g": matrix_to_jsonable(triple.g),
                "algebra_residuals": triple.algebra_residuals(),
            }
        except StructureError as exc:
            report["triple_error"] = str(exc)
            status = EXIT_FAIL
    write_json(outdir / "report.json", report)
    print(f"structures: {'pass' if status == EXIT_PASS else 'fail'}")
    return status


def check_symbol(args, data):
    try:
        xi_values = [float(x) for x in args.xi.split(",") if x.strip() != ""]
    except ValueError:
        raise InputError(f"cannot parse --xi {args.xi!r}") from None
    if not xi_values:
        raise InputError(f"--xi needs at least one value, got {args.xi!r}")
    if not np.all(np.isfinite(xi_values)):
        raise InputError(f"--xi values must be finite, got {args.xi!r}")
    check_sweep(xi_values, args.m_bound)
    check_search(args.xi_bound, args.nmin_m_bound)
    return xi_values


def run_symbol(args, outdir: Path, xi_values) -> int:
    rows = sweep_rows(xi_values, args.m_bound)
    columns = list(rows[0].keys())
    write_csv(outdir / "sweep.csv", columns, rows)
    nmin = minimal_N_search(xi_bound=args.xi_bound, m_bound=args.nmin_m_bound)
    write_json(outdir / "nmin_certificate.json", asdict(nmin))
    worst_det = max(r["det_residual"] for r in rows)
    worst_eig = max(r["eig_residual"] for r in rows)
    passed = worst_det < 1e-10 and worst_eig < 1e-10 and nmin.certified
    print(
        f"symbol: {len(rows)} rows, worst det residual {worst_det:.3e}, "
        f"worst eig residual {worst_eig:.3e}, N_min={nmin.n_min}"
    )
    return EXIT_PASS if passed else EXIT_FAIL


def _trig_potential(epsilon):
    """The potential of --epsilon (0.1 when not given): epsilon (cos q1 + cos q2)."""
    return {"kind": "trig_potential", "epsilon": 0.1 if epsilon is None else epsilon, "modes": [[1, 0], [0, 1]]}


def check_flow(args, data):
    _at_least("--rng-seed", args.rng_seed, 0)
    _at_least("--check-every", args.check_every, 1)
    for option, value in (("--tol", args.tol), ("--s-max", args.s_max)):
        if not 0.0 < value < np.inf:
            raise InputError(f"{option} must be a positive finite number, got {value}")
    if not np.isfinite(args.amplitude):
        raise InputError(f"--amplitude must be finite, got {args.amplitude}")
    if data is None:  # the flags as a config; what they leave out takes the defaults below
        data = {} if args.rho is None else {"rho": args.rho}
        if args.epsilon is not None and args.h != "trig":
            raise InputError("--epsilon acts only with --h trig: the zero potential has no epsilon")
        if args.h == "trig":
            data["potential"] = _trig_potential(args.epsilon)
    else:  # the config's potential and rho apply, present or not; --grid fills in a missing grid_size
        check_keys(data, ("potential", "rho", "grid_size"))
        _beside_config(args, [("--h", "potential"), ("--epsilon", "potential"), ("--rho", "rho")])
        if "grid_size" in data:
            _beside_config(args, [("--grid", "grid_size")])
    potential = data.get("potential", {"kind": "zero", "n_pairs": 1})
    check_run_potential(nonlinearity_from_config(potential))  # before the spec's gradient check
    spec = hamiltonian_from_config(potential, rho=data.get("rho", np.inf))
    n_grid = data.get("grid_size", 32 if args.grid is None else args.grid)
    if not isinstance(n_grid, int) or isinstance(n_grid, bool):
        raise InputError(f"grid_size must be an integer, got {n_grid!r}")
    check_grid_size(n_grid)
    # a start field that an amplitude overflows is refused as not finite (FieldError), without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if args.seed_mode:
            try:
                m1, m2 = (int(x) for x in args.seed_mode.split(","))
            except ValueError:
                raise InputError(f"bad --seed-mode {args.seed_mode!r}") from None
            if max(abs(m1), abs(m2)) >= n_grid // 2:  # the Nyquist band and beyond alias
                raise InputError(
                    f"--seed-mode must satisfy |m1|, |m2| < N/2 = {n_grid // 2}, got {args.seed_mode}"
                )
            vec = np.zeros(spec.dim, dtype=complex)
            vec[0] = args.amplitude
            z0 = field_from_modes(n_grid, spec.dim, {(m1, m2): vec}, "z")
        else:
            rng = np.random.default_rng(args.rng_seed)
            z0 = random_band_limited(rng, n_grid, spec.dim, 2, args.amplitude, "z")
    args.step_regime = check_step(n_grid, args.ds)
    check_flow_steps(args.s_max, args.ds)
    return spec, z0


def run_flow(args, outdir: Path, checked) -> int:
    spec, z0 = checked
    # a start whose transform or squares overflow ends as a blow-up, reported in one line: numpy's warnings are not
    with np.errstate(over="ignore", invalid="ignore"):
        result = flow_to_solution(
            z0, spec, tol=args.tol, s_max=args.s_max, ds=args.ds, check_every=args.check_every
        )
    write_csv(outdir / "diagnostics.csv", DIAGNOSTIC_COLUMNS, result.rows)
    save_field(result.Z, outdir / "final_state")
    write_json(outdir / "result.json", {k: v for k, v in vars(result).items() if k not in ("Z", "rows")})
    print(
        f"flow: {'converged' if result.converged else result.reason} at s={result.s_reached:.3f}, "
        f"residual {result.residual_norm:.3e}"
    )
    return EXIT_PASS if result.converged or result.diverged else EXIT_INCONCLUSIVE


def check_energy(args, data):
    """(spec, trajectories loaded by --load) or (spec, start fields of the trajectories to run).

    A run's ds must pass `check_step` on its grid and `check_explicit_step`, ds * c3_norm <= 1, for its potential.
    """
    _at_least("--rng-seed", args.rng_seed, 0)
    potential = _trig_potential(args.epsilon)
    if data is not None:
        check_keys(data, ("potential",))
        if "potential" in data:  # --epsilon fills in a missing potential
            _beside_config(args, [("--epsilon", "potential")])
            potential = data["potential"]
    check_run_potential(nonlinearity_from_config(potential))  # before the spec's gradient check
    spec = hamiltonian_from_config(potential, rho=args.rho)
    if args.load is not None:
        base = Path(args.load)
        try:
            return spec, [load_trajectory(d) for d in sorted(base.glob("trajectory_*")) or [base]]
        except (OSError, KeyError, TypeError, ValueError) as exc:  # TypeError: a JSON value of the wrong shape
            raise InputError(f"cannot load stored trajectory: {exc}") from None
    _at_least("--trajectories", args.trajectories, 1)
    check_grid_size(args.grid)
    cap = MAX_SEED_VALUES // (args.grid**2 * spec.dim)
    if args.trajectories > cap:
        raise InputError(f"--trajectories must be at most {cap} at grid size {args.grid} (2 GiB of fields)")
    args.step_regime = check_step(args.grid, args.ds)
    check_explicit_step(spec, args.ds)
    switching_window(spec.n_pairs, args.r, args.ds)  # rejects the r and window run_homotopy rejects
    # the run builds each start field as it flows it; a dry run builds none
    rng = np.random.default_rng(args.rng_seed)
    q = rng.uniform(0.0, 2.0 * np.pi, size=(args.trajectories, 2 * spec.n_pairs))
    return spec, (constant_field(args.grid, np.concatenate([row, np.zeros_like(row)]), "z") for row in q)


def run_energy(args, outdir: Path, checked) -> int:
    spec, trajectories = checked
    hofer = hofer_norm(spec)
    bound = 2.0 * hofer.value
    if args.load is None:
        trajectories = [run_homotopy(z0, spec, r=args.r, ds=args.ds) for z0 in trajectories]
    rows = []
    failed = diverged = False
    for i, traj in enumerate(trajectories):
        identity = energy_identity_check(traj)
        principle = max_principle_check(traj, spec.rho)
        blown_up = principle.max_p_sq > spec.escape_p_sq  # diverged, as `flow` reports it: it tests no bound
        # the identity's defect (O(ds^2) plus quadrature error) scales with the actions, and so
        # with E: the tolerance 1e-3 is absolute up to E = 1, where the default runs lie, and
        # relative above.  At ds = 0.005, the largest --epsilon of the explicit regime, 100,
        # gives E up to 40 with defects of 3.2-4.3e-4 of E; --epsilon 50, 2.0-2.6e-4.
        ok = (
            identity.defect < 1e-3 * max(1.0, identity.energy)
            and identity.energy <= bound + 1e-2
            and all(traj.ends_converged)
            and principle.passed
        )
        failed, diverged = failed or not (ok or blown_up), diverged or blown_up
        rows.append(
            {
                "trajectory": i,
                "energy": identity.energy,
                "defect": identity.defect,
                "hofer_bound": bound,
                "max_p_sq": principle.max_p_sq,
                "ends_converged": all(traj.ends_converged),
                "passed": ok,
                **({"diverged": True} if blown_up else {}),
            }
        )
        if args.save_trajectories and args.load is None:
            save_trajectory(traj, outdir / f"trajectory_{i:03d}")
        if blown_up:
            print(f"energy[{i}]: diverged, max|p|^2={principle.max_p_sq:.3e} > {spec.escape_p_sq:g}")
        else:
            print(
                f"energy[{i}]: E={identity.energy:.6f} <= {bound:.6f}, defect={identity.defect:.2e}, "
                f"max|p|^2={principle.max_p_sq:.3e} ({'ok' if ok else 'FAIL'})"
            )
    write_json(
        outdir / "report.json",
        {"hofer_norm": asdict(hofer), "bound": bound, "trajectories": rows, "passed": not (failed or diverged)},
    )
    return EXIT_FAIL if failed else EXIT_INCONCLUSIVE if diverged else EXIT_PASS


def check_cuplength(args, data):
    _at_least("--jobs", args.jobs, 1)
    if args.jobs > MAX_JOBS:
        raise InputError(f"--jobs must be at most {MAX_JOBS}, got {args.jobs}")
    config = ExperimentConfig.from_dict(data)
    spec = config.spec
    args.step_regime = check_step(config.grid_size, config.ds)
    ds = constant_step(spec, config.ds)
    args.constant_step_regime = {"ds": ds, "ds_c3_norm": ds * spec.c3_norm}
    return config


def run_cuplength(args, outdir: Path, config) -> int:
    report = verify_count(config, jobs=args.jobs)
    write_json(outdir / "report.json", report.to_report_dict())
    cluster_of = {}
    for ci, members in enumerate(report.dedup_result.clusters):
        for i in members:
            cluster_of[report.records[i].seed_index] = ci

    def seed_row(rec, converged, action, cluster):
        return {
            "seed": rec.seed_index,
            "converged": converged,
            "action": action,
            "residual": rec.residual,
            "cluster": cluster,
            "reason": rec.reason,
            "n_steps": rec.n_steps,
            "n_halvings": rec.n_halvings,
            "s_reached": rec.s_reached,
            "kind": seed_kind(config, rec.seed_index),
        }

    rows = [seed_row(rec, True, rec.action, cluster_of[rec.seed_index]) for rec in report.records]
    rows += [seed_row(rec, False, "", "") for rec in report.divergent + report.unfinished]
    rows.sort(key=lambda r: r["seed"])
    write_csv(outdir / "summary.csv", SUMMARY_COLUMNS, rows)
    if args.save_fields:
        for i in report.dedup_result.representatives:
            rec = report.records[i]
            save_field(rec.field, outdir / "records" / f"solution_{rec.seed_index:04d}")
            write_json(
                outdir / "records" / f"solution_{rec.seed_index:04d}.meta.json", rec.to_row()
            )
    if args.plots:
        _emit_cuplength_plots(outdir, report)
    print(
        f"cuplength: distinct={report.distinct} (bound {report.bound}), "
        f"{'pass' if report.passed else 'inconclusive' if report.inconclusive else 'fail'}"
    )
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS if report.passed else EXIT_FAIL


def _emit_cuplength_plots(outdir: Path, report) -> None:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("cuplength: matplotlib unavailable, skipping plots", file=sys.stderr)
        return
    fig, ax = plt.subplots(figsize=(6, 4))
    for rec in report.records:
        if rec.action_trace is not None and len(rec.action_trace):
            ax.plot(rec.action_trace[:, 0], rec.action_trace[:, 1], lw=0.7, alpha=0.6)
    ax.set_xlabel("s")
    ax.set_ylabel("action")
    ax.set_title("descent traces of converged seeds")
    fig.tight_layout()
    fig.savefig(outdir / "action_traces.png", dpi=110)
    plt.close(fig)
    for rank, i in enumerate(report.dedup_result.representatives):
        rec = report.records[i]
        fig, axes = plt.subplots(1, 2, figsize=(8, 3))
        for ax, comp, label in zip(axes, (0, 1), ("q1", "q2")):
            im = ax.imshow(rec.field.values[:, :, comp], origin="lower", cmap="twilight")
            ax.set_title(f"{label}, seed {rec.seed_index}")
            fig.colorbar(im, ax=ax)
        fig.tight_layout()
        fig.savefig(outdir / f"solution_{rank:02d}.png", dpi=110)
        plt.close(fig)


def check_legendre(args, data):
    _at_least("--samples", args.samples, 1)
    if args.samples > MAX_LEGENDRE_SAMPLES:
        raise InputError(f"--samples must be at most {MAX_LEGENDRE_SAMPLES}, got {args.samples}")
    _at_least("--rng-seed", args.rng_seed, 0)
    pot = TrigPotential(args.epsilon, [[1, 0], [0, 1]])
    return pot, quadratic_lagrangian(pot)


def run_legendre(args, outdir: Path, checked) -> int:
    pot, lag = checked
    # H = max_v (<p, v> - L) as a Lagrangian in p; its fiber gradient is p, H being quadratic in p
    h_as_lagrangian = LagrangianSpec(
        n_pairs=1,
        lagrangian=lambda t1, t2, q, p: legendre_transform(lag, t1, t2, q, p).value,
        v_grad=lambda t1, t2, q, p: p,
        check_convexity=False,
    )
    rng = np.random.default_rng(args.rng_seed)
    worst_closed = 0.0
    worst_involution = 0.0
    for _ in range(args.samples):
        q = rng.uniform(0, 2 * np.pi, size=2)
        p = rng.uniform(-2, 2, size=2)
        v = rng.uniform(-2, 2, size=2)
        res = legendre_transform(lag, 0.0, 0.0, q, p)
        closed = 0.5 * float(p @ p) + float(pot.value(0.0, 0.0, np.concatenate([q, p * 0])))
        worst_closed = max(worst_closed, abs(res.value - closed))
        dual = legendre_transform(h_as_lagrangian, 0.0, 0.0, q, v).value
        direct = float(lag.lagrangian(0.0, 0.0, q, v))
        worst_involution = max(worst_involution, abs(dual - direct))
    passed = worst_closed < 1e-10 and worst_involution < 1e-8
    write_json(
        outdir / "report.json",
        {
            "closed_form_residual": worst_closed,
            "involution_residual": worst_involution,
            "samples": args.samples,
            "passed": passed,
        },
    )
    print(
        f"legendre-check: closed-form residual {worst_closed:.3e}, "
        f"double-transform residual {worst_involution:.3e}"
    )
    return EXIT_PASS if passed else EXIT_FAIL


def check_ddw(args, data):
    _at_least("--samples", args.samples, 1)
    _at_least("--rng-seed", args.rng_seed, 0)
    check_grid_size(args.grid)
    cap = MAX_DDW_POINTS // max(args.grid**2, 1024)
    if args.samples > cap:
        raise InputError(f"--samples must be at most {cap} at grid size {args.grid}, got {args.samples}")


def run_ddw(args, outdir: Path, checked) -> int:
    rng = np.random.default_rng(args.rng_seed)
    worst = 0.0
    for _ in range(args.samples):
        psi = random_band_limited(rng, args.grid, 1, max_mode=3, layout="scalar")
        witness = ddw_kernel_witness(psi, q0=float(rng.uniform(0, 2 * np.pi)))
        worst = max(worst, l2_norm(ddw_residual(None, witness)))
    passed = worst < 1e-12
    write_json(
        outdir / "report.json",
        {"max_witness_residual": worst, "samples": args.samples, "passed": passed},
    )
    print(f"ddw-demo: max kernel-witness residual {worst:.3e}")
    return EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 1 with one line, not argparse's 2 and usage block."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="torusfloer", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--dry-run", action="store_true")
        p.set_defaults(step_regime=None, constant_step_regime=None)

    p = sub.add_parser("structures", help="validate structure matrices")
    common(p)
    p.add_argument("--standard", type=int, default=None, metavar="N")
    # the input file is the run's config: the manifest records its path and hash
    p.add_argument("--input", dest="config", metavar="INPUT", help="JSON with omega1, omega2, I")
    p.set_defaults(check=check_structures, func=run_structures)

    p = sub.add_parser("symbol", help="sweep the per-frequency symbol")
    common(p)
    p.add_argument("--m-bound", type=int, default=5)
    p.add_argument("--xi", default="0,0.5,-0.5,1,-1,2,-2")
    p.add_argument("--xi-bound", type=float, default=100.0)
    p.add_argument("--nmin-m-bound", type=int, default=12)
    p.set_defaults(check=check_symbol, func=run_symbol, config=None)

    p = sub.add_parser("flow", help="single gradient flow with diagnostics")
    common(p)
    p.add_argument("--config", default=None)
    # None marks a flag not given: --config sets potential, rho and grid_size (see check_flow)
    p.add_argument("--h", choices=("zero", "trig"), default=None, help="default zero")
    p.add_argument("--epsilon", type=float, default=None, help="default 0.1")
    p.add_argument("--rho", type=float, default=None, help="default inf")
    p.add_argument("--grid", type=int, default=None, help="default 32")
    p.add_argument("--seed-mode", default=None, metavar="M1,M2")
    p.add_argument("--amplitude", type=float, default=0.1)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--s-max", type=float, default=50.0)
    p.add_argument("--ds", type=float, default=1e-2)
    p.add_argument("--check-every", type=int, default=10)
    p.set_defaults(check=check_flow, func=run_flow)

    p = sub.add_parser("energy", help="switching trajectories: energy bound and identity")
    common(p)
    p.add_argument("--config", default=None)
    p.add_argument("--epsilon", type=float, default=None, help="default 0.1")
    p.add_argument("--rho", type=float, default=4.0)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--ds", type=float, default=5e-3)
    p.add_argument("--trajectories", type=int, default=5)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--save-trajectories", action="store_true")
    p.add_argument("--load", default=None, help="check a stored trajectory directory")
    p.set_defaults(check=check_energy, func=run_energy)

    p = sub.add_parser("cuplength", help="multistart solution count experiment")
    common(p)
    p.add_argument("--config", required=True)
    p.add_argument("--save-fields", action="store_true")
    p.add_argument("--plots", action="store_true", help="write static images; never affects the exit code")
    p.add_argument("--jobs", type=int, default=1, help=f"worker processes (1 to {MAX_JOBS})")
    p.set_defaults(check=check_cuplength, func=run_cuplength)

    p = sub.add_parser("legendre-check", help="verify the Legendre bridge")
    common(p)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(check=check_legendre, func=run_legendre, config=None)

    p = sub.add_parser("ddw-demo", help="kernel witness of the three-equation system")
    common(p)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(check=check_ddw, func=run_ddw, config=None)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: output directory, config snapshot, check, dry run or run, manifest.

    An input error at any stage exits 1 with a one-line message; once the
    output directory exists, every exit writes the manifest.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    started = time.time()
    outdir = None
    sha = None
    try:
        outdir = _prepare_outdir(args)
        data, sha = _load_config(args.config, outdir)
        checked = args.check(args, data)
        if args.dry_run:
            print(f"{args.subcommand}: input ok (dry run)")
            status = EXIT_PASS
        else:
            status = args.func(args, outdir, checked)
    except (
        InputError,
        ConfigError,
        StructureError,
        HamiltonianError,
        FieldError,
        FlowError,
        SymbolError,
        LegendreError,
    ) as exc:
        print(f"{args.subcommand}: {exc}", file=sys.stderr)
        status = EXIT_INPUT
    if outdir is not None:
        _write_manifest(outdir, args, argv, started, status, sha)
    return status


if __name__ == "__main__":
    sys.exit(main())
