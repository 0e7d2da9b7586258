"""Print the full-precision `repr` of basis minima and reports, for a bit-for-bit diff.

Usage: python scripts/minima_digest.py SRC_DIR

SRC_DIR is the directory holding the `superdiscord` package of the tree under
test (`src` in a checkout). For each state, lattice and strength the script
prints the `repr` of `discord._minimize`, `discord.analyze` and
`discord.verify_resurrection`, or of the exception each raises. A `repr`
shows every float to the last bit, where the CLI's stdout shows 12
significant digits, so running it on two trees with the same Python and numpy
and comparing with `diff` shows whether a change moved any bit of a result.
"""

from __future__ import annotations

import os
import sys

import numpy as np

STRENGTHS = [0.0, 0.1, 0.5, 2.0, float("inf")]
LATTICES = [(24, 24), (9, 7), (6, 6)]


def ginibre(seed: int, dim_a: int) -> np.ndarray:
    """A full-rank state on dim_a x 2, built here so that it does not depend on the tree."""
    d = 2 * dim_a
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def states(families, qstate) -> list[tuple[str, object]]:
    out = [
        ("werner z=0.6", families.werner(0.6)),
        ("werner z=0", families.werner(0.0)),
        ("pure lambda0=0.2", families.pure_schmidt(0.2)),
    ]
    for dim_a in (2, 3, 4, 5):
        seed = 20 + dim_a
        out.append((f"ginibre seed={seed} dim_a={dim_a}", qstate.validate(ginibre(seed, dim_a), dim_a)))
    return out


def record(call) -> str:
    try:
        return repr(call())
    except (ValueError, RuntimeError) as exc:  # QuantumStateError, NoConvergence: part of the digest
        return repr(exc)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/minima_digest.py SRC_DIR", file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    sys.path.insert(0, src)
    from superdiscord import discord, families, qstate

    if not os.path.abspath(discord.__file__).startswith(src + os.sep):
        raise SystemExit(f"superdiscord was imported from {discord.__file__}, not from {src}")
    for name, rho in states(families, qstate):
        for grid in LATTICES:
            cfg = discord.OptimizerConfig(*grid)
            for x in STRENGTHS:
                sys.stdout.write(f"# {name} grid={grid[0]}x{grid[1]} x={x}\n")
                for fn in (discord._minimize, discord.analyze, discord.verify_resurrection):
                    sys.stdout.write(f"{fn.__name__}: {record(lambda: fn(rho, x, cfg))}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
