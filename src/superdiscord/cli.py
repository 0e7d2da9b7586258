"""Command-line front end: report, resurrect, and sweep commands.

Output is deterministic: JSON with sorted keys and all floats printed with 12
significant digits (lowercase exponent); CSV uses the same float formatting.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import discord, families, measure, qstate
from .discord import OptimizerConfig
from .errors import BadDimension, DomainError, NoConvergence, QuantumStateError
from .measure import QubitBasis
from .qstate import DensityMatrix

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_GAP = 4

# the most rows a sweep may ask for, checked before np.linspace allocates them
MAX_SWEEP_STEPS = 10**6

SWEEP_COLUMNS = [
    "param",
    "S_AB",
    "S_B",
    "cond_entropy_strong",
    "cond_entropy_weak",
    "I",
    "D_s",
    "D_w",
    "delta",
    "D_w_post",
    "gap",
]


def fmt_float(v: float) -> str:
    return format(float(v), ".12g")  # also "nan", "inf" and "-inf"


def dumps(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isfinite(v):
            return fmt_float(v)
        return json.dumps(fmt_float(v))  # "inf"/"nan" as strings, valid JSON
    if isinstance(v, dict):
        inner = ",".join(f"{json.dumps(k)}:{dumps(v[k])}" for k in sorted(v))
        return "{" + inner + "}"
    raise TypeError(f"cannot serialize {type(v)}")


def _basis_dict(b: QubitBasis) -> dict:
    return {"gamma": float(b.gamma), "delta": float(b.delta)}


def load_state_file(path: str) -> DensityMatrix:
    """The state in a JSON file {"dim_a": N, "dim_b": 2, "re": [[...]], "im": [[...]]}, validated.

    `re` and `im` are read by `qstate.complex_array`, the rule `validate`
    applies to a matrix, so each malformed entry or nesting raises the
    exception `validate` raises for it, its message naming the field. Both
    must be matrices of one shape, checked before they are added, so that a
    scalar, or a row and a column, never broadcasts into a matrix.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # json's decoder recurses once per nesting level
            raise QuantumStateError("state file nests too deeply to parse") from None
    if not isinstance(data, dict):
        raise QuantumStateError(f"state file must hold a JSON object, got {type(data).__name__}")
    for key in ("dim_a", "dim_b", "re", "im"):
        if key not in data:
            raise QuantumStateError(f"state file missing key '{key}'")
    if type(data["dim_b"]) is not int or data["dim_b"] != 2:  # B is a qubit; 2.0 and true are no dimension
        raise BadDimension(f"state file 'dim_b' must be the integer 2, got {data['dim_b']!r}")
    re, im = (qstate.complex_array(data[key], f"state file '{key}'") for key in ("re", "im"))
    if re.ndim != 2 or re.shape != im.shape:  # checked before adding them, which would broadcast
        raise BadDimension(f"state file 're' and 'im' must be matrices of one shape, got {re.shape} and {im.shape}")
    return qstate.validate(re + 1j * im, dim_a=data["dim_a"])


# each --state family: its option, that option's default, and its constructor in
# `families`, looked up by name on each call so that a wrapper installed on the
# module (as bench/tracer.py does) sees it
FAMILIES = {
    "pure": ("lambda0", 0.5, "pure_schmidt"),
    "werner": ("z", 0.5, "werner"),
    "random": ("seed", 0, "random_state"),
}


def check_options(args) -> None:
    """Parse --x, and give each family option its default or reject it for another --state.

    A sweep sets its axis's own option (--x, --z or --lambda0) on every row, so
    giving that option as well is rejected, not ignored.
    """
    axis = getattr(args, "axis", None)
    if axis is not None and getattr(args, axis) is not None:
        raise QuantumStateError(f"--{axis} is the swept axis of this sweep; set its range with --start and --stop")
    args.x = float("0.5" if args.x is None else args.x)
    for family, (name, default, _) in FAMILIES.items():
        value = getattr(args, name)
        if value is None:
            if args.state == family:
                setattr(args, name, default)
        elif args.state != family:
            raise QuantumStateError(f"--{name} applies to --state {family} only, got --state {args.state}")


def resolve_state(args) -> DensityMatrix:
    spec = args.state
    if spec.startswith("file:"):
        return load_state_file(spec[len("file:") :])
    if spec not in FAMILIES:
        raise QuantumStateError(f"unknown state spec '{spec}'")
    name, _, constructor = FAMILIES[spec]
    return getattr(families, constructor)(getattr(args, name))


def make_config(args) -> OptimizerConfig:
    return OptimizerConfig(grid_gamma=args.grid, grid_delta=args.grid)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--state", default="pure", help="pure | werner | random | file:PATH")
    common.add_argument("--lambda0", type=float, default=None, help="Schmidt weight for --state pure (0.5)")
    common.add_argument("--z", type=float, default=None, help="singlet weight for --state werner (0.5)")
    common.add_argument("--seed", type=int, default=None, help="seed for --state random (0)")
    common.add_argument("--x", default=None, help="measurement strength, a float or 'inf' (0.5)")
    common.add_argument("--grid", type=int, default=64, help="lattice points per angle, 3 to 1024")
    common.add_argument("--out", default=None, help="write output to PATH instead of stdout")

    parser = argparse.ArgumentParser(prog="superdiscord")
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("report", parents=[common], help="discord, super discord, and delta for one state")
    rep.add_argument("--format", choices=["json", "csv"], default="json")
    res = sub.add_parser("resurrect", parents=[common], help="verify delta against the post-measured state")
    res.add_argument("--gap-tol", type=float, default=1e-3, help="largest gap that exits 0, >= 0")
    swp = sub.add_parser("sweep", parents=[common], help="CSV sweep over x, z, or lambda0")
    swp.add_argument("--axis", choices=["x", "z", "lambda0"], required=True)
    swp.add_argument("--start", type=float, required=True)
    swp.add_argument("--stop", type=float, required=True)
    swp.add_argument("--steps", type=int, required=True, help="rows, 1 to 10**6")
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def cmd_report(args) -> int:
    rho = resolve_state(args)
    rep = discord.analyze(rho, args.x, make_config(args))
    if args.format == "json":
        payload = {
            "conditional_entropy_qq": rep.conditional_entropy_qq,
            "mutual_info": rep.mutual_info,
            "discord": rep.discord,
            "super_discord": rep.super_discord,
            "delta": rep.delta,
            "strong_basis": _basis_dict(rep.strong_basis),
            "weak_basis": _basis_dict(rep.weak_basis),
            "strength": rep.strength,
        }
        _emit(dumps(payload), args.out)
    else:
        header = (
            "strength,cond_entropy_qq,mutual_info,discord,super_discord,delta,"
            "strong_gamma,strong_delta,weak_gamma,weak_delta"
        )
        row = ",".join(
            fmt_float(v)
            for v in (
                rep.strength,
                rep.conditional_entropy_qq,
                rep.mutual_info,
                rep.discord,
                rep.super_discord,
                rep.delta,
                rep.strong_basis.gamma,
                rep.strong_basis.delta,
                rep.weak_basis.gamma,
                rep.weak_basis.delta,
            )
        )
        _emit(header + "\n" + row, args.out)
    return EXIT_OK


def cmd_resurrect(args) -> int:
    if not args.gap_tol >= 0:
        raise DomainError(f"--gap-tol must be >= 0, got {args.gap_tol}")
    rho = resolve_state(args)
    rec = discord.verify_resurrection(rho, args.x, make_config(args))
    payload = {
        "delta": rec.delta,
        "post_super_discord": rec.post_super_discord,
        "gap": rec.gap,
        "strong_basis": _basis_dict(rec.strong_basis),
        "post_weak_basis": _basis_dict(rec.post_weak_basis),
        "ambiguous_minimizer": rec.ambiguous_minimizer,
        "coincidence": rec.coincidence,
        "strength": args.x,
    }
    _emit(dumps(payload), args.out)
    return EXIT_OK if rec.gap <= args.gap_tol else EXIT_GAP


def cmd_sweep(args) -> int:
    if args.axis != "x":
        family = next(f for f, (name, _, _) in FAMILIES.items() if name == args.axis)
        if args.state != family:
            raise QuantumStateError(f"axis '{args.axis}' requires --state {family}")
    if not 1 <= args.steps <= MAX_SWEEP_STEPS:
        raise DomainError(f"sweep needs 1 <= --steps <= {MAX_SWEEP_STEPS}, got {args.steps}")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise DomainError(f"sweep needs finite --start and --stop, got {args.start}, {args.stop}")
    cfg = make_config(args)
    grid = [float(v) for v in np.linspace(args.start, args.stop, args.steps)]
    # every row's strength or state passes its check before any minimization
    if args.axis == "x":
        for value in grid:
            measure.weak_coefficients(value)
        rho = resolve_state(args)  # one state object, so its strong minimum is found once
        rows = [(value, rho, value) for value in grid]
    else:
        rows = []
        for value in grid:
            setattr(args, args.axis, value)
            rows.append((value, resolve_state(args), args.x))
    lines = [",".join(SWEEP_COLUMNS)]
    for value, rho, x in rows:
        s_ab = qstate.von_neumann_entropy(rho.entries)
        s_b = qstate.von_neumann_entropy(qstate.partial_trace_a(rho))
        if math.isfinite(x) and x > 0:
            rec = discord.verify_resurrection(rho, x, cfg)
            rep, dw_post, gap = rec.report, rec.post_super_discord, rec.gap
        else:
            rep, dw_post, gap = discord.analyze(rho, x, cfg), math.nan, math.nan
        row = (
            value,
            s_ab,
            s_b,
            rep.discord + rep.conditional_entropy_qq,
            rep.super_discord + rep.conditional_entropy_qq,
            rep.mutual_info,
            rep.discord,
            rep.super_discord,
            rep.delta,
            dw_post,
            gap,
        )
        lines.append(",".join(fmt_float(v) for v in row))
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"report": cmd_report, "resurrect": cmd_resurrect, "sweep": cmd_sweep}
    try:
        check_options(args)
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:  # QuantumStateError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
