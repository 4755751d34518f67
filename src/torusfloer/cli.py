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
    FlowError,
    energy,
    energy_identity_check,
    flow_to_solution,
    max_principle_check,
    run_homotopy,
)
from .hamiltonians import (
    HamiltonianError,
    LegendreError,
    TrigPotential,
    hamiltonian_from_config,
    hofer_norm,
    legendre_transform,
    quadratic_lagrangian,
    ddw_kernel_witness,
    ddw_residual,
)
from .runner import ConfigError, ExperimentConfig, seed_kind, verify_count
from .spectral import (
    FieldError,
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
from .symbol import SymbolError, minimal_N_search, sweep_rows

EXIT_PASS = 0
EXIT_INPUT = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3

# one row per finished seed; columns after "cluster" say how its flow ended
# and, last, what kind of seed it was (lattice or perturbed)
SUMMARY_COLUMNS = (
    "seed", "converged", "action", "residual", "cluster",
    "reason", "n_steps", "n_halvings", "s_reached", "kind",
)


def _default_out_root() -> Path:
    return Path(os.environ.get("TORUSFLOER_OUT", "runs"))


def _prepare_outdir(args, subcommand: str) -> Path:
    out = Path(args.out) if args.out else _default_out_root() / subcommand
    out.mkdir(parents=True, exist_ok=True)
    return out


def _snapshot_config(outdir: Path, config_path) -> str | None:
    if config_path is None:
        return None
    raw = Path(config_path).read_bytes()
    (outdir / "config_snapshot.json").write_bytes(raw)
    return hashlib.sha256(raw).hexdigest()


def _write_manifest(outdir: Path, subcommand: str, args, started: float, exit_status: int, sha=None):
    write_json(
        outdir / "manifest.json",
        {
            "subcommand": subcommand,
            "argv": sys.argv[1:],
            "config_path": getattr(args, "config", None),
            "config_sha256": sha,
            "tool_version": __version__,
            "started_at": started,
            "finished_at": time.time(),
            "output_dir": str(outdir),
            "exit_status": exit_status,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cpu_count": os.cpu_count(),
            },
        },
    )


def _load_json(path):
    try:
        return json.loads(Path(path).read_text()), None
    except (OSError, json.JSONDecodeError) as exc:
        return None, str(exc)


# ---------------------------------------------------------------------------


def cmd_structures(args) -> int:
    outdir = _prepare_outdir(args, "structures")
    started = time.time()
    sha = None
    if args.standard is not None:
        triple = standard_structures(args.standard)
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
        _write_manifest(outdir, "structures", args, started, EXIT_PASS)
        return EXIT_PASS

    if args.input is None:
        print("structures: need --standard N or --input FILE", file=sys.stderr)
        return EXIT_INPUT
    data, err = _load_json(args.input)
    if err is not None:
        print(f"structures: cannot parse input: {err}", file=sys.stderr)
        return EXIT_INPUT
    try:
        omega1 = matrix_from_jsonable(data["omega1"])
        omega2 = matrix_from_jsonable(data["omega2"])
        big_i = matrix_from_jsonable(data["I"])
        aux = matrix_from_jsonable(data["aux_metric"]) if "aux_metric" in data else None
    except (KeyError, ValueError) as exc:
        print(f"structures: malformed matrices: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sha = _snapshot_config(outdir, args.input)
    if args.dry_run:
        print("structures: input ok (dry run)")
        _write_manifest(outdir, "structures", args, started, EXIT_PASS, sha)
        return EXIT_PASS
    try:
        pair = check_regularized_pair(omega1, omega2, big_i)
    except StructureError as exc:
        print(f"structures: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {"pair_check": pair.to_dict(), "failed_checks": pair.failed_checks()}
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
    _write_manifest(outdir, "structures", args, started, status, sha)
    print(f"structures: {'pass' if status == EXIT_PASS else 'fail'}")
    return status


def cmd_symbol(args) -> int:
    outdir = _prepare_outdir(args, "symbol")
    started = time.time()
    if args.m_bound < 1 or args.nmin_m_bound < 1:
        print("symbol: bounds must be positive", file=sys.stderr)
        return EXIT_INPUT
    try:
        xi_values = [float(x) for x in args.xi.split(",") if x.strip() != ""]
    except ValueError:
        print(f"symbol: cannot parse --xi {args.xi!r}", file=sys.stderr)
        return EXIT_INPUT
    if args.dry_run:
        print("symbol: arguments ok (dry run)")
        _write_manifest(outdir, "symbol", args, started, EXIT_PASS)
        return EXIT_PASS
    rows = sweep_rows(xi_values, args.m_bound)
    columns = list(rows[0].keys())
    write_csv(outdir / "sweep.csv", columns, rows)
    nmin = minimal_N_search(xi_bound=args.xi_bound, m_bound=args.nmin_m_bound)
    write_json(outdir / "nmin_certificate.json", nmin.to_dict())
    worst_det = max(r["det_residual"] for r in rows)
    worst_eig = max(r["eig_residual"] for r in rows)
    passed = worst_det < 1e-10 and worst_eig < 1e-10 and nmin.certified
    print(
        f"symbol: {len(rows)} rows, worst det residual {worst_det:.3e}, "
        f"worst eig residual {worst_eig:.3e}, N_min={nmin.n_min}"
    )
    status = EXIT_PASS if passed else EXIT_FAIL
    _write_manifest(outdir, "symbol", args, started, status)
    return status


def _spec_from_flow_args(args):
    if args.config is not None:
        data, err = _load_json(args.config)
        if err is not None:
            return None, None, f"cannot parse config: {err}"
        potential = data.get("potential", {"kind": "zero", "n_pairs": 1})
        rho = data.get("rho", np.inf)
        try:
            spec = hamiltonian_from_config(potential, rho=rho)
        except (HamiltonianError, KeyError) as exc:
            return None, None, f"bad potential config: {exc}"
        return spec, data, None
    if args.h == "zero":
        potential = {"kind": "zero", "n_pairs": 1}
    else:
        potential = {"kind": "trig_potential", "epsilon": args.epsilon, "modes": [[1, 0], [0, 1]]}
    spec = hamiltonian_from_config(potential, rho=args.rho)
    return spec, {"potential": potential, "rho": args.rho}, None


def cmd_flow(args) -> int:
    outdir = _prepare_outdir(args, "flow")
    started = time.time()
    spec, data, err = _spec_from_flow_args(args)
    if err is not None:
        print(f"flow: {err}", file=sys.stderr)
        return EXIT_INPUT
    sha = _snapshot_config(outdir, args.config) if args.config else None
    if args.dry_run:
        print("flow: config ok (dry run)")
        _write_manifest(outdir, "flow", args, started, EXIT_PASS, sha)
        return EXIT_PASS
    n_grid = int(data.get("grid_size", args.grid))
    if args.seed_mode:
        try:
            m1, m2 = (int(x) for x in args.seed_mode.split(","))
        except ValueError:
            print(f"flow: bad --seed-mode {args.seed_mode!r}", file=sys.stderr)
            return EXIT_INPUT
        vec = np.zeros(spec.dim, dtype=complex)
        vec[0] = args.amplitude
        z0 = field_from_modes(n_grid, spec.dim, {(m1, m2): vec}, "z")
    else:
        rng = np.random.default_rng(args.rng_seed)
        z0 = random_band_limited(rng, n_grid, spec.dim, 2, args.amplitude, "z")
    result = flow_to_solution(
        z0, spec, tol=args.tol, s_max=args.s_max, ds=args.ds, check_every=args.check_every
    )
    write_csv(
        outdir / "diagnostics.csv",
        ["s", "action", "residual", "max_p_sq", "energy_cum"],
        result.rows,
    )
    save_field(result.Z, outdir / "final_state")
    write_json(outdir / "result.json", result.to_dict())
    print(
        f"flow: {'converged' if result.converged else result.reason} at s={result.s_reached:.3f}, "
        f"residual {result.residual_norm:.3e}"
    )
    if result.converged or result.diverged:
        status = EXIT_PASS
    else:
        status = EXIT_INCONCLUSIVE
    _write_manifest(outdir, "flow", args, started, status, sha)
    return status


def cmd_energy(args) -> int:
    outdir = _prepare_outdir(args, "energy")
    started = time.time()
    potential = {"kind": "trig_potential", "epsilon": args.epsilon, "modes": [[1, 0], [0, 1]]}
    if args.config is not None:
        data, err = _load_json(args.config)
        if err is not None:
            print(f"energy: cannot parse config: {err}", file=sys.stderr)
            return EXIT_INPUT
        potential = data.get("potential", potential)
    sha = _snapshot_config(outdir, args.config) if args.config else None
    try:
        spec = hamiltonian_from_config(potential, rho=args.rho)
    except (HamiltonianError, KeyError) as exc:
        print(f"energy: bad potential config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.dry_run:
        print("energy: config ok (dry run)")
        _write_manifest(outdir, "energy", args, started, EXIT_PASS, sha)
        return EXIT_PASS
    hofer = hofer_norm(spec)
    bound = 2.0 * hofer.value
    if args.load is not None:
        base = Path(args.load)
        dirs = sorted(base.glob("trajectory_*")) or [base]
        try:
            trajectories = [load_trajectory(d) for d in dirs]
        except (OSError, KeyError, ValueError) as exc:
            print(f"energy: cannot load stored trajectory: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        rng = np.random.default_rng(args.rng_seed)
        trajectories = []
        for _ in range(args.trajectories):
            q = rng.uniform(0.0, 2.0 * np.pi, size=2 * spec.n_pairs)
            z0 = constant_field(args.grid, np.concatenate([q, np.zeros(2 * spec.n_pairs)]), "z")
            trajectories.append(run_homotopy(z0, spec, r=args.r, ds=args.ds))
    rows = []
    all_pass = True
    for i, traj in enumerate(trajectories):
        identity = energy_identity_check(traj)
        principle = max_principle_check(traj, spec.rho)
        ok = (
            identity.defect < 1e-3
            and identity.energy <= bound + 1e-2
            and all(traj.ends_converged)
            and principle.passed
        )
        all_pass = all_pass and ok
        rows.append(
            {
                "trajectory": i,
                "energy": identity.energy,
                "defect": identity.defect,
                "hofer_bound": bound,
                "max_p_sq": principle.max_p_sq,
                "ends_converged": all(traj.ends_converged),
                "passed": ok,
            }
        )
        if args.save_trajectories and args.load is None:
            save_trajectory(traj, outdir / f"trajectory_{i:03d}")
        print(
            f"energy[{i}]: E={identity.energy:.6f} <= {bound:.6f}, defect={identity.defect:.2e}, "
            f"max|p|^2={principle.max_p_sq:.3e} ({'ok' if ok else 'FAIL'})"
        )
    write_json(
        outdir / "report.json",
        {"hofer_norm": hofer.to_dict(), "bound": bound, "trajectories": rows, "passed": all_pass},
    )
    status = EXIT_PASS if all_pass else EXIT_FAIL
    _write_manifest(outdir, "energy", args, started, status, sha)
    return status


def cmd_cuplength(args) -> int:
    if args.jobs < 1:
        print(f"cuplength: --jobs must be an integer >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_INPUT
    outdir = _prepare_outdir(args, "cuplength")
    started = time.time()
    data, err = _load_json(args.config)
    if err is not None:
        print(f"cuplength: cannot parse config: {err}", file=sys.stderr)
        return EXIT_INPUT
    try:
        config = ExperimentConfig.from_dict(data)
    except (ConfigError, HamiltonianError, TypeError) as exc:
        print(f"cuplength: invalid config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sha = _snapshot_config(outdir, args.config)
    if args.dry_run:
        print("cuplength: config ok (dry run)")
        _write_manifest(outdir, "cuplength", args, started, EXIT_PASS, sha)
        return EXIT_PASS
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
        status = EXIT_INCONCLUSIVE
    else:
        status = EXIT_PASS if report.passed else EXIT_FAIL
    _write_manifest(outdir, "cuplength", args, started, status, sha)
    return status


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


def cmd_legendre_check(args) -> int:
    outdir = _prepare_outdir(args, "legendre-check")
    started = time.time()
    pot = TrigPotential(args.epsilon, [[1, 0], [0, 1]])
    lag = quadratic_lagrangian(pot)
    if args.dry_run:
        print("legendre-check: arguments ok (dry run)")
        _write_manifest(outdir, "legendre-check", args, started, EXIT_PASS)
        return EXIT_PASS
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

        def h_as_lagrangian(t1, t2, qq, pp, _lag=lag, _q=q):
            return legendre_transform(_lag, t1, t2, qq, pp).value

        dual = _numeric_legendre(h_as_lagrangian, q, v)
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
    status = EXIT_PASS if passed else EXIT_FAIL
    _write_manifest(outdir, "legendre-check", args, started, status)
    return status


def _numeric_legendre(fun, q, v, iters: int = 60):
    """max_p (<v, p> - fun(q, p)) by damped Newton with finite differences."""
    p = v.copy()
    step = 1e-5
    for _ in range(iters):
        grad = np.zeros_like(p)
        for c in range(p.shape[0]):
            pp, pm = p.copy(), p.copy()
            pp[c] += step
            pm[c] -= step
            grad[c] = (fun(0.0, 0.0, q, pp) - fun(0.0, 0.0, q, pm)) / (2 * step)
        g = v - grad
        if np.max(np.abs(g)) < 1e-10:
            break
        p = p + g  # quadratic fiber: Hessian is the identity
    return float(v @ p - fun(0.0, 0.0, q, p))


def cmd_ddw_demo(args) -> int:
    outdir = _prepare_outdir(args, "ddw-demo")
    started = time.time()
    if args.dry_run:
        print("ddw-demo: arguments ok (dry run)")
        _write_manifest(outdir, "ddw-demo", args, started, EXIT_PASS)
        return EXIT_PASS
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
    status = EXIT_PASS if passed else EXIT_FAIL
    _write_manifest(outdir, "ddw-demo", args, started, status)
    return status


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="torusfloer", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--dry-run", action="store_true")

    p = sub.add_parser("structures", help="validate structure matrices")
    common(p)
    p.add_argument("--standard", type=int, default=None, metavar="N")
    p.add_argument("--input", default=None, help="JSON with omega1, omega2, I")
    p.set_defaults(func=cmd_structures, config=None)

    p = sub.add_parser("symbol", help="sweep the per-frequency symbol")
    common(p)
    p.add_argument("--m-bound", type=int, default=5)
    p.add_argument("--xi", default="0,0.5,-0.5,1,-1,2,-2")
    p.add_argument("--xi-bound", type=float, default=100.0)
    p.add_argument("--nmin-m-bound", type=int, default=12)
    p.set_defaults(func=cmd_symbol, config=None)

    p = sub.add_parser("flow", help="single gradient flow with diagnostics")
    common(p)
    p.add_argument("--config", default=None)
    p.add_argument("--h", choices=("zero", "trig"), default="zero")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=np.inf)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--seed-mode", default=None, metavar="M1,M2")
    p.add_argument("--amplitude", type=float, default=0.1)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--s-max", type=float, default=50.0)
    p.add_argument("--ds", type=float, default=1e-2)
    p.add_argument("--check-every", type=int, default=10)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("energy", help="switching trajectories: energy bound and identity")
    common(p)
    p.add_argument("--config", default=None)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=4.0)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--ds", type=float, default=5e-3)
    p.add_argument("--trajectories", type=int, default=5)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--save-trajectories", action="store_true")
    p.add_argument("--load", default=None, help="check a stored trajectory directory")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("cuplength", help="multistart solution count experiment")
    common(p)
    p.add_argument("--config", required=True)
    p.add_argument("--save-fields", action="store_true")
    p.add_argument("--plots", action="store_true", help="write static images; never affects the exit code")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (>= 1)")
    p.set_defaults(func=cmd_cuplength)

    p = sub.add_parser("legendre-check", help="verify the Legendre bridge")
    common(p)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(func=cmd_legendre_check, config=None)

    p = sub.add_parser("ddw-demo", help="kernel witness of the three-equation system")
    common(p)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(func=cmd_ddw_demo, config=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        StructureError,
        HamiltonianError,
        FieldError,
        FlowError,
        SymbolError,
        LegendreError,
    ) as exc:
        print(f"{args.subcommand}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
