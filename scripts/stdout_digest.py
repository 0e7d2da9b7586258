"""Print the CLI's stdout and exit code on a fixed command set, for a byte-for-byte diff.

Usage: python scripts/stdout_digest.py SRC_DIR

SRC_DIR is the directory holding the `superdiscord` package of the tree under
test (`src` in a checkout). Every command runs in-process through
`superdiscord.cli.main`; for each one the script prints the argv, the exit code
and the stdout. Running it on two trees with the same Python and numpy and
comparing with `diff` shows whether a change moved any printed byte, without a
golden file that would depend on the numpy or BLAS build.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

STRENGTHS = ["0", "0.1", "0.5", "2", "inf", "-1", "nan"]


def write_state_file(path: str) -> None:
    """A full-rank dim_a = 3 state, built here so that it does not depend on the tree."""
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m = g @ g.conj().T
    m /= np.trace(m).real
    with open(path, "w") as fh:
        json.dump({"dim_a": 3, "dim_b": 2, "re": m.real.tolist(), "im": m.imag.tolist()}, fh)


def commands(state_path: str) -> list[list[str]]:
    states = [
        ["--state", "pure", "--lambda0", "0.2"],
        ["--state", "werner", "--z", "0.6"],
        *[["--state", "random", "--seed", str(seed)] for seed in (1, 3, 7, 12)],
        ["--state", f"file:{state_path}", "--grid", "16"],
    ]
    cmds = [[cmd, *state, "--x", x] for state in states for cmd in ("report", "resurrect") for x in STRENGTHS]
    cmds.append(["report", "--state", "random", "--seed", "1", "--x", "0.5", "--format", "csv"])
    # an odd lattice width is scanned in full; an even one by hemisphere, here with pole ties
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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/stdout_digest.py SRC_DIR", file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    sys.path.insert(0, src)
    from superdiscord import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"superdiscord was imported from {cli.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        state_path = os.path.join(tmp, "qutrit.json")
        write_state_file(state_path)
        for cmd in commands(state_path):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = cli.main(cmd)
                except SystemExit as exc:  # argparse rejections
                    rc = exc.code
            shown = " ".join(cmd).replace(tmp, "TMP")
            sys.stdout.write(f"$ superdiscord {shown}\nexit {rc}\n{out.getvalue()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
