"""superdiscord benchmark: run one workload and print its metrics.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root; the package is imported from src/. Workloads
(see BENCHMARK.json for why each was chosen):

  cli-oneshot     one op = one fresh `python -m superdiscord.cli report|resurrect`
  ensemble-qubit  one op = analyze + verify_resurrection on a random two-qubit state
  sweep-qudit     one op = `cli.main(["sweep", ...])` over x on a dim_a = 8 state file

--trace 0 prints the end-to-end metrics: each run starts SETUPS fresh workload
processes for the set-up time and times the closed loop in the last one.
--trace 1 runs the loop untraced and then traced, with spans around each
package layer, and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object; the full record, with every raw
sample and the environment, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BENCH, ROOT, WORKLOADS, blas_pinned_env

OUT = BENCH / "out"
SETUPS = 3  # set-ups timed per run; setup_s is their median
DEADLINE_S = 170  # every process this run starts has ended by then


class BenchError(Exception):
    pass


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, one set-up (smoke tests)")
    return p.parse_args()


def run_process(cmd: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; kill the whole group at the deadline."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[2:4]} did not finish before the deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


class Runner:
    def __init__(self, args, work: Path):
        self.args, self.work = args, work
        self.env = blas_pinned_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def worker(self, *, setup_only=False, traced=False) -> dict:
        """Start one workload process; return its result with setup_s filled in."""
        a, self.count = self.args, self.count + 1
        result_path = self.work / f"result-{self.count}.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), a.workload, str(a.seed),
               str(a.seconds), str(self.work), str(result_path)]
        if traced:
            cmd[1:1] = ["-X", "importtime"]
            cmd += ["--trace", str(spans_path(a))]
        cmd += ["--setup-only"] * setup_only + ["--tiny"] * a.tiny
        t0 = time.monotonic()
        proc = run_process(cmd, self.env, self.deadline)
        if proc.returncode != 0:
            raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready"] - t0
        result["stderr"] = proc.stderr
        return result


def spans_path(args) -> Path:
    return OUT / f"{args.workload}-seed{args.seed}-spans.json"


def commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least 10 samples beyond it; None below 20 samples."""
    n = len(samples)
    if n < 20:
        return None
    return {"value": sorted(samples)[n - 11], "percentile": 100.0 * (n - 10) / n, "n": n}


def tally(results: list[dict]) -> tuple[int, list]:
    """Ops attempted and failures over warm-ups and timed loops."""
    attempted, failures = 0, []
    for r in results:
        for part in ("warmup", "loop"):
            if part in r:
                attempted += r[part]["attempted"]
                failures += [dict(f, part=part) for f in r[part]["failures"]]
    return attempted, failures


def rate(result: dict) -> float:
    return result["loop"]["attempted"] / result["loop"]["wall_s"]


def end_to_end(runner: Runner) -> tuple[dict, dict, list]:
    extra_setups = 0 if runner.args.tiny else SETUPS - 1
    results = [runner.worker(setup_only=True) for _ in range(extra_setups)]
    main = runner.worker()
    results.append(main)
    samples = main["loop"]["samples"]
    metrics = {
        "ops_per_s": (rate(main), "1/s"),
        "op_s.p50": (statistics.median(samples), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    record = {
        "op_samples_s": samples,
        "setup_samples_s": [r["setup_s"] for r in results],
        "op_s.tail": tail(samples),
        "resurrection_gaps_over_1e-3": main["loop"]["gaps"],
    }
    return metrics, record, results


def layer_unit(name: str) -> str:
    if name.startswith("import."):
        return "s"
    if name.endswith(".self_s"):
        return "s/op"
    if name.endswith(".per_op"):
        return "1/op"
    if name.endswith(("_share", "_frac")):
        return "fraction"
    return "count"


def per_layer(runner: Runner) -> tuple[dict, dict, list]:
    import tracer

    plain = runner.worker()
    traced = runner.worker(traced=True)
    layers = dict(traced["layers"])
    if runner.args.workload != "cli-oneshot":
        layers.update(tracer.import_metrics(traced["stderr"]))
    layers["trace.overhead_frac"] = 1.0 - rate(traced) / rate(plain)
    metrics = {name: (value, layer_unit(name)) for name, value in sorted(layers.items())}
    record = {
        "untraced_ops_per_s": rate(plain),
        "traced_ops_per_s": rate(traced),
        "op_samples_s": traced["loop"]["samples"],
        "absent": traced["absent"],
        "spans_file": str(spans_path(runner.args).relative_to(ROOT)),
    }
    return metrics, record, [plain, traced]


def show(args, env: dict, metrics: dict, record: dict, attempted: int, failures: list) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("  " + "  ".join(f"{k} {v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    if args.trace == 0:
        t = record["op_s.tail"]
        if t is not None:
            print(f"  {'op_s.tail':<40} {t['value']:>14.6g} s  (p{t['percentile']:.1f}, n={t['n']})")
        print(f"  {'op_s.p50 samples':<40} {len(record['op_samples_s']):>14d} count")
    else:
        for name in record["absent"]:
            print(f"  absent: {name}")
    print(f"  {'fail_frac':<40} {len(failures) / attempted:>14.6g} ({len(failures)}/{attempted} ops)")
    for f in failures[:5]:
        print(f"  failed op {f['op']} ({f['part']}): {f['reason']}")


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "superdiscord" / "cli.py").is_file():
        print(f"error: no superdiscord source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(args, work)
        metrics, record, results = (per_layer if args.trace else end_to_end)(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failures = tally(results)
    env = dict(results[-1]["env"], commit=commit(), seed=args.seed)
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted, "failures": failures,
        "fail_frac": len(failures) / attempted, **record,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(full, indent=1))
    show(args, env, metrics, record, attempted, failures)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": full["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
