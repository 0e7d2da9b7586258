"""The benchmark's workloads: seeded input generation, one op each, output checks.

Every workload is a closed loop with one caller. Inputs come only from the
benchmark seed; the program sees nothing but the generated inputs. `call(i)`
runs op i and returns a check that yields its Outcome, so that checking stays
outside the timed region; a failed output check is a failure, while a resurrection
gap above GAP_TOL is physics (acceptance criterion 4) and only counted.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

WORKLOADS = ("cli-oneshot", "ensemble-qubit", "sweep-qudit")

GAP_TOL = 1e-3
STRENGTHS_CLI = ("0.1", "0.2", "0.5", "1", "2")
STRENGTHS_ENSEMBLE = (0.1, 0.5, 1.0)
SWEEP_COLUMNS = [
    "param", "S_AB", "S_B", "cond_entropy_strong", "cond_entropy_weak",
    "I", "D_s", "D_w", "delta", "D_w_post", "gap",
]
D_W_COLUMN = SWEEP_COLUMNS.index("D_w")
GAP_COLUMN = SWEEP_COLUMNS.index("gap")
SWEEP_START, SWEEP_STOP = 0.2, 2.0

# pool sizes exceed the ops a 60 s run completes; ops cycle through the pool
CLI_POOL = 128
ENSEMBLE_POOL = 512
SWEEP_POOL = 32

TINY_GRID = 16


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    gaps: int = 0  # resurrection gaps above GAP_TOL (informational)


def blas_pinned_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------- oracles
# Closed forms are computed here, independently of the package under test.


def h2(p: float) -> float:
    p = min(max(p, 0.0), 1.0)
    return -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)


def werner_expected(z: float, x: float) -> dict:
    """D_s, D_w and Δ of z|Ψ-><Ψ-| + (1-z)I/4 (S(B) = 1 bit)."""
    lams = [(1 + 3 * z) / 4] + [(1 - z) / 4] * 3
    s_ab = -sum(v * math.log2(v) for v in lams if v > 0.0)
    cond = s_ab - 1.0
    t = math.tanh(x)
    strong, weak = h2((1 + z) / 2), h2((1 + z * t) / 2)
    return {"discord": strong - cond, "super_discord": weak - cond, "delta": weak - strong}


def pure_delta_expected(lambda0: float, x: float) -> float:
    """Δ of sqrt(λ0)|00> + sqrt(λ1)|11>: the weak conditional entropy minimized over θ."""
    theta = np.linspace(0.0, math.pi, 4001)
    lam1 = 1.0 - lambda0
    t, ch2 = math.tanh(x), math.cosh(x) ** 2
    total = np.zeros_like(theta)
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 - sign * (lambda0 - lam1) * t * np.cos(theta))
        root = np.sqrt(np.clip(1.0 - lambda0 * lam1 / (p**2 * ch2), 0.0, None))
        k = np.clip((1.0 + root) / 2.0, 1e-300, 1.0)
        kb = np.clip(1.0 - k, 1e-300, 1.0)
        total += p * -(k * np.log2(k) + kb * np.log2(kb))
    return float(total.min())


def ginibre(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


# ---------------------------------------------------------------- checks


def _finite(*vals) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)


def check_cli(spec: dict, rc: int, stdout: str) -> Outcome:
    """Check one `report` or `resurrect` call against its exit code and closed forms."""
    cmd, state, x = spec["command"], spec["state"], float(spec["x"])
    allowed = (0,) if cmd == "report" else (0, 4)
    if rc not in allowed:
        return Outcome(False, f"exit code {rc}")
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return Outcome(False, "stdout is not JSON")
    if cmd == "report":
        ds, dw, delta, mi = (out.get(k) for k in ("discord", "super_discord", "delta", "mutual_info"))
        if not _finite(ds, dw, delta, mi):
            return Outcome(False, "non-finite report field")
        if abs(delta - (dw - ds)) > 1e-9:
            return Outcome(False, "delta != D_w - D_s")
        if state == "werner":
            exp = werner_expected(spec["z"], x)
            for key, want in exp.items():
                if abs(out[key] - want) > 1e-6:
                    return Outcome(False, f"werner {key} off by {abs(out[key] - want):.3g}")
        elif state == "pure":
            err = abs(delta - pure_delta_expected(spec["lambda0"], x))
            if err > 1e-3:
                return Outcome(False, f"pure delta off by {err:.3g}")
        elif not (mi + 1e-6 >= dw and dw >= ds - 1e-6 and ds >= -1e-6):
            return Outcome(False, "I >= D_w >= D_s >= 0 violated")
        return Outcome(True)
    delta, post, gap = (out.get(k) for k in ("delta", "post_super_discord", "gap"))
    if not _finite(delta, post, gap):
        return Outcome(False, "non-finite resurrect field")
    if abs(gap - abs(delta - post)) > 1e-9:
        return Outcome(False, "gap != |delta - D_w(post)|")
    if (rc == 4) != (gap > GAP_TOL):
        return Outcome(False, f"exit code {rc} disagrees with gap {gap:.3g}")
    if state == "werner":
        err = abs(delta - werner_expected(spec["z"], x)["delta"])
        if err > 1e-6:
            return Outcome(False, f"werner delta off by {err:.3g}")
    elif state == "pure":
        err = abs(delta - pure_delta_expected(spec["lambda0"], x))
        if err > 1e-3:
            return Outcome(False, f"pure delta off by {err:.3g}")
    elif delta < -1e-6:
        return Outcome(False, "negative delta")
    return Outcome(True, gaps=int(gap > GAP_TOL))


def check_ensemble(report, record) -> Outcome:
    """I >= D_w >= D_s >= 0, and analyze/verify_resurrection agree on Δ."""
    mi, dw, ds = report.mutual_info, report.super_discord, report.discord
    if not _finite(mi, dw, ds, report.delta, record.delta, record.gap):
        return Outcome(False, "non-finite value")
    if not (mi + 1e-6 >= dw and dw >= ds - 1e-6 and ds >= -1e-6):
        return Outcome(False, "I >= D_w >= D_s >= 0 violated")
    if abs(report.delta - record.delta) > 1e-9:
        return Outcome(False, "analyze and verify_resurrection disagree on delta")
    return Outcome(True, gaps=int(record.gap > GAP_TOL))


def check_sweep(text: str, steps: int) -> Outcome:
    """Rows of 11 finite columns on the requested x grid, D_w non-increasing in x."""
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != SWEEP_COLUMNS:
        return Outcome(False, "bad CSV header")
    if len(rows) != steps + 1:
        return Outcome(False, f"{len(rows) - 1} rows, expected {steps}")
    try:
        table = [[float(v) for v in row] for row in rows[1:]]
    except ValueError:
        return Outcome(False, "unparsable CSV value")
    grid = np.linspace(SWEEP_START, SWEEP_STOP, steps)
    for want, row in zip(grid, table):
        if len(row) != len(SWEEP_COLUMNS) or not _finite(*row):
            return Outcome(False, "row without 11 finite columns")
        if abs(row[0] - want) > 1e-9:
            return Outcome(False, f"param {row[0]} off the grid")
    for prev, row in zip(table, table[1:]):
        if row[D_W_COLUMN] > prev[D_W_COLUMN] + 1e-6:
            return Outcome(False, "D_w increases with x")
    return Outcome(True, gaps=sum(row[GAP_COLUMN] > GAP_TOL for row in table))


# ---------------------------------------------------------------- workloads


def cli_specs(seed: int, n: int = CLI_POOL) -> list[dict]:
    """Seeded mix of report/resurrect on pure, Werner and random states."""
    rng = random.Random(f"cli-oneshot:{seed}")
    specs = []
    for _ in range(n):
        spec = {
            "command": rng.choice(("report", "resurrect")),
            "state": rng.choice(("pure", "werner", "random")),
            "x": rng.choice(STRENGTHS_CLI),
        }
        if spec["state"] == "pure":
            spec["lambda0"] = round(rng.uniform(0.05, 0.95), 6)
        elif spec["state"] == "werner":
            spec["z"] = round(rng.uniform(0.05, 0.95), 6)
        else:
            spec["seed"] = rng.randrange(2**31)
        specs.append(spec)
    return specs


def cli_argv(spec: dict, tiny: bool) -> list[str]:
    argv = [spec["command"], "--state", spec["state"], "--x", spec["x"]]
    for key, flag in (("lambda0", "--lambda0"), ("z", "--z"), ("seed", "--seed")):
        if key in spec:
            argv += [flag, repr(spec[key])]
    if tiny:
        argv += ["--grid", str(TINY_GRID)]
    return argv


class CliOneshot:
    """One op is one fresh `python -m superdiscord.cli` process."""

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.specs = cli_specs(seed)
        self.work, self.tiny = work, tiny
        self.env = blas_pinned_env()
        self.import_samples: list[str] = []  # -X importtime output of traced ops

    def inputs(self):
        return [cli_argv(s, self.tiny) for s in self.specs]

    def call(self, i: int, tracer=None):
        spec = self.specs[i % len(self.specs)]
        argv = cli_argv(spec, self.tiny)
        if tracer is None:
            cmd = [sys.executable, "-m", "superdiscord.cli", *argv]
        else:
            spans = self.work / "cli-spans.json"
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, "-X", "importtime", str(BENCH / "cli_child.py"), str(spans), *argv]
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120
        )
        if tracer is not None:
            self.import_samples.append(proc.stderr)
            tracer.merge_file(spans)
        return lambda: check_cli(spec, proc.returncode, proc.stdout)


class EnsembleQubit:
    """One op is analyze + verify_resurrection on one Ginibre rank-4 two-qubit state."""

    def __init__(self, seed: int, work: Path, tiny: bool):
        rng = np.random.default_rng([seed, 2])
        self.mats = [ginibre(rng, 4, 4) for _ in range(ENSEMBLE_POOL)]
        self.tiny = tiny
        self._cfg = None

    def inputs(self):
        return self.mats

    def call(self, i: int, tracer=None):
        from superdiscord import discord, qstate

        if self.tiny and self._cfg is None:
            self._cfg = discord.OptimizerConfig(grid_gamma=TINY_GRID, grid_delta=TINY_GRID)
        kw = {"cfg": self._cfg} if self._cfg else {}
        x = STRENGTHS_ENSEMBLE[i % len(STRENGTHS_ENSEMBLE)]
        rho = qstate.validate(self.mats[i % len(self.mats)], dim_a=2)
        report = discord.analyze(rho, x, **kw)
        record = discord.verify_resurrection(rho, x, **kw)
        return lambda: check_ensemble(report, record)


class SweepQudit:
    """One op is one in-process `cli.main(["sweep", ...])` over x on a dim_a = 8 state file."""

    def __init__(self, seed: int, work: Path, tiny: bool):
        dim_a, rank = (2, 4) if tiny else (8, 8)
        self.steps = 2 if tiny else 4
        self.tiny = tiny
        rng = np.random.default_rng([seed, 3])
        self.paths = []
        self.out = work / "sweep.csv"
        for k in range(SWEEP_POOL):
            m = ginibre(rng, 2 * dim_a, rank)
            path = work / f"state-{k}.json"
            path.write_text(json.dumps(
                {"dim_a": dim_a, "dim_b": 2, "re": m.real.tolist(), "im": m.imag.tolist()}
            ))
            self.paths.append(path)

    def inputs(self):
        return [p.read_text() for p in self.paths]

    def argv(self, i: int) -> list[str]:
        argv = [
            "sweep", "--state", f"file:{self.paths[i % len(self.paths)]}", "--axis", "x",
            "--start", repr(SWEEP_START), "--stop", repr(SWEEP_STOP),
            "--steps", str(self.steps), "--out", str(self.out),
        ]
        return argv + (["--grid", str(TINY_GRID)] if self.tiny else [])

    def call(self, i: int, tracer=None):
        from superdiscord import cli

        self.out.unlink(missing_ok=True)
        rc = cli.main(self.argv(i))
        if rc != 0:
            return lambda: Outcome(False, f"exit code {rc}")
        text = self.out.read_text()
        return lambda: check_sweep(text, self.steps)


def make(name: str, seed: int, work: Path, tiny: bool = False):
    classes = {"cli-oneshot": CliOneshot, "ensemble-qubit": EnsembleQubit, "sweep-qudit": SweepQudit}
    return classes[name](seed, work, tiny)
