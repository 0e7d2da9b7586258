"""Print the CLI's output and the full-precision results on fixed inputs, for a byte-for-byte diff.

Usage: python scripts/identity_digest.py SRC_DIR

SRC_DIR is the directory holding the `superdiscord` package of the tree under
test (`src` in a checkout). The digest has two sections:

- the CLI: every command of a fixed set runs in-process through
  `superdiscord.cli.main`, and the script prints its argv, exit code and stdout;
- the minima: for each state, lattice and strength, the `repr` of
  `discord._minimize`, `discord.analyze` and `discord.verify_resurrection`, of
  `discord._minimize` on the state the check measures, so that its
  `grid_spread` shows, of the public `discord.super_discord` on a new copy of
  that state, and of `discord.analyze` on a fresh copy of the state that keeps
  no minima yet, or of the exception each raises. A `repr` shows every float
  to the last bit,
  where the CLI's stdout shows 12 significant digits. The Ginibre states at
  dim_a = 5 and 8 also take a 64x64 lattice, whose scan the kernel evaluates
  in more than one block.

Running it on two trees with the same Python and numpy and comparing with
`diff` shows whether a change moved any printed byte or any bit of a result,
without a golden file that would depend on the numpy or BLAS build.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

CLI_STRENGTHS = ["0", "0.1", "0.5", "2", "inf", "-1", "nan"]
STRENGTHS = [0.0, 0.1, 0.5, 2.0, float("inf")]
LATTICES = [(24, 24), (9, 7), (6, 6)]
# at these dim_a a 64x64 scan is more than one kernel block, so the digest covers split batches
SPLIT_DIMS = (5, 8)


def ginibre(seed: int, dim_a: int, rank: int | None = None) -> np.ndarray:
    """A state on dim_a x 2 of the given rank (full by default), built here so that it does not depend on the tree."""
    d = 2 * dim_a
    shape = (d, d if rank is None else rank)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m = g @ g.conj().T
    return m / np.trace(m).real


def commands(state_path: str) -> list[list[str]]:
    states = [
        ["--state", "pure", "--lambda0", "0.2"],
        ["--state", "werner", "--z", "0.6"],
        *[["--state", "random", "--seed", str(seed)] for seed in (1, 3, 7, 12)],
        ["--state", f"file:{state_path}", "--grid", "16"],
    ]
    cmds = [[cmd, *state, "--x", x] for state in states for cmd in ("report", "resurrect") for x in CLI_STRENGTHS]
    cmds.append(["report", "--state", "random", "--seed", "1", "--x", "0.5", "--format", "csv"])
    # an odd lattice width is estimated at every point; an even one on one hemisphere, here with pole ties
    cmds.append(["report", "--state", "random", "--seed", "3", "--x", "0.5", "--grid", "7"])
    cmds.append(["resurrect", "--state", "werner", "--z", "0.6", "--x", "0.5", "--grid", "6"])
    cmds.append(["resurrect", "--state", "pure", "--lambda0", "0.2", "--x", "2", "--grid", "6"])
    cmds.append(["sweep", "--state", "random", "--seed", "1", "--axis", "x",
                 "--start", "0", "--stop", "2", "--steps", "5"])
    cmds.append(["sweep", "--state", f"file:{state_path}", "--grid", "16", "--axis", "x",
                 "--start", "0.5", "--stop", "2", "--steps", "3"])
    cmds.append(["sweep", "--state", "werner", "--axis", "z", "--start", "0.1", "--stop", "0.9",
                 "--steps", "5", "--x", "0.5"])
    cmds.append(["sweep", "--state", "pure", "--axis", "lambda0", "--start", "0", "--stop", "1",
                 "--steps", "5", "--x", "0.5"])
    return cmds


def cli_section(cli) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        state_path = os.path.join(tmp, "qutrit.json")
        m = ginibre(3, 3)
        with open(state_path, "w") as fh:
            json.dump({"dim_a": 3, "dim_b": 2, "re": m.real.tolist(), "im": m.imag.tolist()}, fh)
        for cmd in commands(state_path):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = cli.main(cmd)
                except SystemExit as exc:  # argparse rejections
                    rc = exc.code
            shown = " ".join(cmd).replace(tmp, "TMP")
            sys.stdout.write(f"$ superdiscord {shown}\nexit {rc}\n{out.getvalue()}")


def states(families, qstate) -> list[tuple[str, object]]:
    out = [
        ("werner z=0.6", families.werner(0.6)),
        ("werner z=0", families.werner(0.0)),
        ("pure lambda0=0.2", families.pure_schmidt(0.2)),
        # the lattice estimate's dim_a = 2 closed form where its ties and its entropy near zero are tightest:
        # a minimum tied on a pole, and conditional states with zero eigenvalues
        ("classical diag(0.2, 0, 0, 0.8)", qstate.validate(np.diag([0.2, 0.0, 0.0, 0.8]), 2)),
        ("ginibre seed=40 dim_a=2 rank=1", qstate.validate(ginibre(40, 2, rank=1), 2)),
    ]
    for dim_a in (2, 3, 4, 5, 8):  # 8 is the dimension of the benchmark's qudit sweep
        seed = 20 + dim_a
        out.append((f"ginibre seed={seed} dim_a={dim_a}", qstate.validate(ginibre(seed, dim_a), dim_a)))
    # R_k = Tr_B[(I⊗σ_k)ρ] = 0, so the lattice estimate evaluates one point and every point goes to the kernel
    out.append(("maximally mixed dim_a=3", qstate.validate(np.eye(6) / 6, 3)))
    rho_a = np.einsum("ibjb->ij", ginibre(33, 3).reshape(3, 2, 3, 2))  # A's marginal of a Ginibre state
    out.append(("ginibre marginal seed=33 dim_a=3 x I/2", qstate.validate(np.kron(rho_a, np.eye(2) / 2), 3)))
    return out


def record(call) -> str:
    try:
        return repr(call())
    except (ValueError, RuntimeError) as exc:  # QuantumStateError, NoConvergence: part of the digest
        return repr(exc)


def measured_state(discord, measure, rho, x, cfg):
    """The state `verify_resurrection` measures, a new object on every call."""
    basis = discord.verify_resurrection(rho, x, cfg).strong_basis  # raises where the check does
    return measure.project_state(rho, basis)


def minima_section(discord, families, measure, qstate) -> None:
    for name, rho in states(families, qstate):
        lattices = LATTICES + [(64, 64)] if rho.dim_a in SPLIT_DIMS else LATTICES
        for grid in lattices:
            cfg = discord.OptimizerConfig(*grid)
            for x in STRENGTHS:
                sys.stdout.write(f"# {name} grid={grid[0]}x{grid[1]} x={x}\n")
                for fn in (discord._minimize, discord.analyze, discord.verify_resurrection):
                    sys.stdout.write(f"{fn.__name__}: {record(lambda: fn(rho, x, cfg))}\n")
                post = record(lambda: discord._minimize(measured_state(discord, measure, rho, x, cfg), x, cfg))
                sys.stdout.write(f"_minimize, measured state: {post}\n")
                public = record(lambda: discord.super_discord(measured_state(discord, measure, rho, x, cfg), x, cfg))
                sys.stdout.write(f"super_discord, measured state: {public}\n")
                # `rho` keeps its minima across strengths, so after x = 0 its strong minimum is
                # never computed again; a fresh object makes analyze find both minima at each x
                fresh = qstate.validate(rho.entries, rho.dim_a)
                sys.stdout.write(f"analyze, fresh object: {record(lambda: discord.analyze(fresh, x, cfg))}\n")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/identity_digest.py SRC_DIR", file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    sys.path.insert(0, src)
    from superdiscord import cli, discord, families, measure, qstate

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"superdiscord was imported from {cli.__file__}, not from {src}")
    cli_section(cli)
    minima_section(discord, families, measure, qstate)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
