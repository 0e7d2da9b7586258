"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import worker
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.cache
def run_bench(workload: str, trace: int, seed: int = 5) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_the_spec_metrics(workload, trace):
    out = run_bench(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_smoke_trace_counts_minimizations():
    m = run_bench("ensemble-qubit", 1)["metrics"]
    assert m["discord.minimize.per_op"]["value"] == 5
    assert m["discord.refine.nfev"]["value"] == m["discord.point.calls"]["value"]


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        dirs = [tmp_path / f"{name}-{k}" for k in range(3)]
        for d in dirs:
            d.mkdir()
        a, b, c = (workloads.make(name, seed, d).inputs() for seed, d in zip((7, 7, 8), dirs))
        assert json.dumps(a, default=repr) == json.dumps(b, default=repr), name
        assert json.dumps(a, default=repr) != json.dumps(c, default=repr), name


def sweep_csv(dw_values):
    rows = [",".join(workloads.SWEEP_COLUMNS)]
    for x, dw in zip((0.2, 0.8, 1.4, 2.0), dw_values):
        rows.append(",".join(str(v) for v in (x, 1.5, 1, 0.9, 0.95, 0.6, 0.3, dw, dw - 0.3, dw - 0.3, 1e-5)))
    return "\n".join(rows) + "\n"


def test_corrupted_sweep_row_fails():
    assert workloads.check_sweep(sweep_csv([0.5, 0.4, 0.35, 0.32]), 4).ok
    bad = sweep_csv([0.5, 0.4, 0.45, 0.32])  # D_w perturbed upward in one row
    assert not workloads.check_sweep(bad, 4).ok
    assert not workloads.check_sweep(sweep_csv([0.5, 0.4, float("nan"), 0.32]), 4).ok
    assert not workloads.check_sweep(sweep_csv([0.5, 0.4, 0.35]), 4).ok


def test_corrupted_output_counts_as_failed():
    texts = [sweep_csv([0.5, 0.4, 0.35, 0.32]), sweep_csv([0.5, 0.4, 0.45, 0.32])]

    def call(i, _tracer):
        text = texts[i % 2]
        return lambda: workloads.check_sweep(text, 4)

    loop = worker.closed_loop(call, 0.05)
    assert loop["attempted"] >= 2
    assert [f["op"] for f in loop["failures"]] == [i for i in range(1, loop["attempted"] + 1) if i % 2]


def test_cli_checks():
    werner = {"command": "report", "state": "werner", "x": "0.5", "z": 0.6}
    exp = workloads.werner_expected(0.6, 0.5)
    good = dict(exp, mutual_info=1.0)
    assert workloads.check_cli(werner, 0, json.dumps(good)).ok
    bad = dict(good, super_discord=exp["super_discord"] + 1e-4, delta=exp["delta"] + 1e-4)
    assert not workloads.check_cli(werner, 0, json.dumps(bad)).ok
    assert not workloads.check_cli(werner, 4, json.dumps(good)).ok
    resurrect = {"command": "resurrect", "state": "random", "x": "1", "seed": 3}
    rec = {"delta": 0.1, "post_super_discord": 0.1 - 2e-3, "gap": 2e-3}
    assert workloads.check_cli(resurrect, 4, json.dumps(rec)).gaps == 1
    assert not workloads.check_cli(resurrect, 0, json.dumps(rec)).ok  # gap over tol must exit 4
    pure = {"command": "report", "state": "pure", "x": "0.2", "lambda0": 0.2}
    delta = workloads.pure_delta_expected(0.2, 0.2)
    assert abs(delta - 0.7010) < 1e-3  # the paper's headline number
    assert not workloads.check_cli(pure, 0, json.dumps(
        {"discord": 0.7, "super_discord": 0.7 + delta + 0.01, "delta": delta + 0.01, "mutual_info": 1.4}
    )).ok


def test_layer_metrics_self_time_and_absent_names():
    spans = [
        ["discord.minimize", 0.0, 10.0, -1, 1, 0],
        ["discord.lattice", 0.0, 2.0, 0, 1, 4096],
        ["discord.refine", 2.0, 9.0, 0, 1, 3],
        ["discord.point", 3.0, 4.0, 2, 1, 1],
        ["discord.minimize", 10.0, 11.0, -1, 1, 0],
    ]
    m = tracer.layer_metrics(spans, 1, set(), {"NoConvergence": 0, "QuantumStateError": 0}, 0)
    assert m["discord.minimize.self_s"] == pytest.approx(2.0)
    assert m["discord.refine.self_s"] == pytest.approx(6.0)
    assert m["discord.refine_share"] == pytest.approx(7.0 / 11.0)
    assert m["discord.flat_skips"] == 1 and m["discord.lattice.points"] == 4096
    m = tracer.layer_metrics(spans, 1, {"superdiscord.discord._nm_minimize"}, {}, 0)
    assert "discord.refine.calls" not in m and "discord.refine_share" not in m
    assert "discord.minimize.calls" in m


def test_import_metrics_counts_outermost_modules():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:       200 |        200 |       numpy._core",
        "import time:       300 |        500 |     numpy",
        "import time:       400 |        400 |       scipy.optimize",
        "import time:        50 |        450 |     scipy.linalg",
        "import time:        10 |        960 |   superdiscord.discord",
        "import time:        10 |        970 | superdiscord",
    ]
    m = tracer.import_metrics("\n".join(lines))
    assert m["import.total_s"] == pytest.approx(1070e-6)
    assert m["import.numpy_s"] == pytest.approx(500e-6)
    assert m["import.scipy_s"] == pytest.approx(450e-6)
    assert m["import.superdiscord_s"] == pytest.approx(970e-6)


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ensemble-qubit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
