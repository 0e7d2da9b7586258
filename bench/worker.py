"""Workload process: set one workload up, run its closed loop, write a result file.

Usage: python bench/worker.py WORKLOAD SEED SECONDS WORK_DIR RESULT_JSON
       [--setup-only] [--trace SPANS_JSON] [--tiny]

Set-up is everything before the first timed op: importing superdiscord,
generating the inputs and one warm-up op. The worker records the monotonic
clock when set-up ends; the parent, which noted the clock before starting
the process, subtracts.
"""

import argparse
import time


def parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("seconds", type=float)
    p.add_argument("work")
    p.add_argument("result")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", metavar="SPANS_JSON", help="trace the timed ops, write spans here")
    p.add_argument("--tiny", action="store_true")
    return p.parse_args()


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def closed_loop(call, seconds: float, tracer=None) -> dict:
    """Run ops 1, 2, ... back to back until `seconds` have passed; check each one."""
    from workloads import Outcome

    samples, failures = [], []
    attempted = gaps = 0
    start = time.perf_counter()
    while True:
        attempted += 1
        if tracer is not None:
            tracer.op = attempted
        t0, t1 = time.perf_counter(), None
        try:
            check = call(attempted, tracer)
            t1 = time.perf_counter()
            outcome = check()
        except Exception as exc:  # a raising op or unreadable output is a failed op, not a crash
            t1 = t1 or time.perf_counter()
            outcome = Outcome(False, f"{type(exc).__name__}: {exc}")
        samples.append(t1 - t0)
        gaps += outcome.gaps
        if not outcome.ok:
            failures.append({"op": attempted, "reason": outcome.reason})
        if t1 - start >= seconds:
            break
    wall = time.perf_counter() - start
    return {"samples": samples, "wall_s": wall, "attempted": attempted,
            "failures": failures, "gaps": gaps}


def main() -> None:
    args = parse_args()
    if args.workload != "cli-oneshot":  # that workload's ops import the package themselves
        import superdiscord.cli  # noqa: F401  first import, so importtime nests numpy and scipy under it

    import json
    import resource
    from pathlib import Path

    import tracer as tracing
    import workloads

    wl = workloads.make(args.workload, args.seed, Path(args.work), args.tiny)
    warm = closed_loop(lambda _i, tr: wl.call(0, tr), 0.0)
    result = {"ready": time.monotonic(), "warmup": warm}
    if not args.setup_only:
        tr = tracing.Tracer() if args.trace is not None else None
        if tr is not None and args.workload != "cli-oneshot":
            tr.install()
        result["loop"] = loop = closed_loop(wl.call, args.seconds, tr)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        result["env"] = environment()
        if tr is not None:
            result["layers"] = tracing.layer_metrics(
                tr.spans, loop["attempted"], tr.absent, tr.errors, loop["gaps"]
            )
            result["absent"] = sorted(tr.absent)
            if args.workload == "cli-oneshot":
                result["layers"].update(tracing.median_import_metrics(wl.import_samples))
            tr.dump(args.trace)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
