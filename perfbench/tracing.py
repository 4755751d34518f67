"""Spans around torusfloer's layer boundaries, recorded from outside the program.

Each public function is wrapped where its caller binds it (for example
`runner.flow_to_solution`, the name runner.py calls), so the program itself
is unchanged. A span records its name, start, end and parent; counts taken
at the same boundaries (flow steps, FFT bytes) ride along as span extras.
Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import functools
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.extra: dict = {}
        self._stack = [-1]
        self._undo: list = []

    def wrap(self, owner, attr: str, span: str, on_return=None) -> None:
        """Replace owner.attr by a wrapper that records a span per call."""
        original = getattr(owner, attr)
        names, starts, ends, parents, stack, extra = (
            self.names, self.starts, self.ends, self.parents, self._stack, self.extra
        )
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(span)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = original(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_return is not None:
                extra[i] = on_return(args, out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        labels = sorted(set(self.names))
        index = {name: k for k, name in enumerate(labels)}
        np.savez_compressed(
            path,
            labels=np.array(labels),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.array(self.starts),
            end=np.array(self.ends),
            parent=np.array(self.parents, dtype=np.int64),
        )


def _flow_outcome(args, result):
    outcome = "converged" if result.converged else "diverged" if result.diverged else "unfinished"
    return outcome, result.n_steps


def _homotopy_steps(args, traj):
    return "homotopy", len(traj.vsq)


def _fft_bytes(args, out):
    # computed from array sizes, not measured traffic
    return np.asarray(args[0]).nbytes + out.nbytes


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary that the CLI workloads cross."""
    from torusfloer import cli, floer, hamiltonians, runner

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "run_homotopy", "floer.run_homotopy", _homotopy_steps)
    w(cli, "hofer_norm", "hamiltonians.hofer_norm")
    w(cli, "write_json", "fields_io.write")
    w(cli, "write_csv", "fields_io.write")
    w(runner, "solve_seed", "runner.seed")
    w(runner.ExperimentConfig, "build_spec", "runner.build_spec")
    w(runner, "dedup", "runner.dedup")
    w(runner, "action", "hamiltonians.action")
    w(runner, "flow_to_solution", "floer.flow_to_solution", _flow_outcome)
    for owner in (floer, hamiltonians):
        w(owner, "grad_h_tilde", "hamiltonians.grad_h_tilde")
        w(owner, "h_tilde", "hamiltonians.h_tilde")
    w(floer, "hamiltonian_value", "hamiltonians.hamiltonian_value")
    w(floer, "hamiltonian_residual", "hamiltonians.hamiltonian_residual")
    w(hamiltonians, "dirac", "spectral.dirac")
    w(np.fft, "fft2", "spectral.fft", _fft_bytes)
    w(np.fft, "ifft2", "spectral.fft", _fft_bytes)
    # the per-mode propagator solve; floer applies it once per step attempt
    w(np, "einsum", "floer.propagator_apply")


def _times(tracer: Tracer):
    """Span names, durations and self times (duration minus child spans)."""
    names = np.array(tracer.names)
    dur = np.array(tracer.ends) - np.array(tracer.starts)
    parent = np.array(tracer.parents, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return names, dur, dur - covered


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times (seconds) from the recorded spans."""
    names, dur, self_time = _times(tracer)

    def calls(*spans):
        return int(np.isin(names, spans).sum())

    def total(*spans):
        return float(dur[np.isin(names, spans)].sum())

    def self_s(*spans):
        return float(self_time[np.isin(names, spans)].sum())

    flows = ("floer.flow_to_solution", "floer.run_homotopy")
    outcomes = [tracer.extra[i] for i in np.flatnonzero(np.isin(names, flows))]
    seeds = [o for o, _ in outcomes if o != "homotopy"]
    steps = sum(n for _, n in outcomes)
    attempts = calls("floer.propagator_apply")
    seed_s = dur[names == "runner.seed"]
    fft = np.flatnonzero(names == "spectral.fft")
    return {
        "runner.seeds": len(seeds),
        "runner.converged": seeds.count("converged"),
        "runner.diverged": seeds.count("diverged"),
        "runner.unfinished": seeds.count("unfinished"),
        "runner.converged_ratio": seeds.count("converged") / len(seeds) if seeds else 0.0,
        "runner.seed_s.p50": float(np.percentile(seed_s, 50)) if len(seed_s) else 0.0,
        "runner.seed_s.p90": float(np.percentile(seed_s, 90)) if len(seed_s) else 0.0,
        "runner.build_spec.calls": calls("runner.build_spec"),
        "runner.build_spec.s": total("runner.build_spec"),
        "runner.dedup.s": total("runner.dedup"),
        "floer.flows": len(outcomes),
        "floer.steps": steps,
        "floer.step_attempts": attempts,
        "floer.rejected_ratio": 1.0 - steps / attempts if attempts else 0.0,
        "floer.step_us": 1e6 * total(*flows) / attempts if attempts else 0.0,
        "floer.self_s": self_s(*flows),
        "floer.propagator_apply.s": total("floer.propagator_apply"),
        "floer.residual_checks": calls("hamiltonians.hamiltonian_residual"),
        "hamiltonians.grad_h_tilde.calls": calls("hamiltonians.grad_h_tilde"),
        "hamiltonians.grad_h_tilde.s": total("hamiltonians.grad_h_tilde"),
        "hamiltonians.hamiltonian_value.calls": calls("hamiltonians.hamiltonian_value"),
        "hamiltonians.hamiltonian_value.s": total("hamiltonians.hamiltonian_value"),
        "hamiltonians.h_tilde.calls": calls("hamiltonians.h_tilde"),
        "hamiltonians.h_tilde.s": total("hamiltonians.h_tilde"),
        "hamiltonians.hamiltonian_residual.calls": calls("hamiltonians.hamiltonian_residual"),
        "hamiltonians.hamiltonian_residual.self_s": self_s("hamiltonians.hamiltonian_residual"),
        "hamiltonians.hofer_norm.s": total("hamiltonians.hofer_norm"),
        "hamiltonians.action.s": total("hamiltonians.action"),
        "spectral.fft.calls": len(fft),
        "spectral.fft.s": float(dur[fft].sum()),
        "spectral.fft.bytes": int(sum(tracer.extra[i] for i in fft)),
        "spectral.dirac.calls": calls("spectral.dirac"),
        "spectral.dirac.s": total("spectral.dirac"),
        "fields_io.write.s": total("fields_io.write"),
        "cli.self_s": self_s("cli.main"),
        "trace.spans": len(names),
    }


def self_shares(tracer: Tracer) -> dict:
    """Share of the root span's duration spent as self time in each span name."""
    names, dur, self_time = _times(tracer)
    root = float(dur[names == "cli.main"].sum())
    return {
        name: float(self_time[names == name].sum()) / root
        for name in sorted(set(tracer.names))
    }
