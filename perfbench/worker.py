"""One repetition of a workload in a fresh interpreter, or a set-up probe.

    python3 perfbench/worker.py JOB_JSON

JOB_JSON names the workload, seed, repetition directory, the checkout's
`src` directory and the CLOCK_MONOTONIC reading taken just before this
process was spawned. The worker imports `torusfloer.cli` from that `src`,
writes the workload's inputs and records the set-up time. A probe stops
there; a repetition then calls `cli.main`, checks the outputs and records
wall time, CPU time and peak RSS (with spans when the job asks for a trace)
while hostspeed.Sampler samples the host's speed. The wall and CPU times
exclude the sampler's kernel runs. The result goes to `result.json` in the
repetition directory.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    job = json.loads(sys.argv[1])
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import hostspeed  # imports numpy, as torusfloer would

    # Only the set-up after numpy's import can be sampled; its host speed stands for the whole set-up.
    with hostspeed.Sampler(hostspeed.SETUP_PERIOD_S) as setup_sampler:
        from torusfloer import cli

        import checks
        import workloads

        name, seed, repdir = job["workload"], job["seed"], Path(job["repdir"])
        argv = workloads.write_inputs(name, seed, repdir)
    measured_setup = time.monotonic() - job["spawned"]
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"torusfloer was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    result = {
        "measured_setup_s": measured_setup,
        "setup_s": measured_setup - sum(setup_sampler.wall),
        "setup_scale": setup_sampler.scale(),
    }
    if not job["probe"]:
        tracer = None
        if job["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        sampler = hostspeed.Sampler()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        with sampler:
            rc = cli.main(argv)
            if tracer is not None:
                tracer.uninstall()
            verdict = checks.check(name, repdir / "out", seed, rc)
        measured = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        result.update(
            rc=rc,
            measured_wall_s=measured,
            wall_s=measured - sum(sampler.wall),
            cpu_s=cpu - sum(sampler.cpu),
            scale=sampler.scale(),
            host_samples=len(sampler.wall),
            peak_rss_mb=after.ru_maxrss / 1024.0,
            attempted=verdict.attempted,
            failed=sorted(verdict.failed),
            problems=verdict.problems,
        )
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
            result["self_shares"] = tracing.self_shares(tracer)
            tracer.dump(repdir / "spans.npz")
    (repdir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
