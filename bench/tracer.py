"""Spans around the calls into each superdiscord layer, installed from outside.

The tracer replaces module attributes of the loaded package (and
np.linalg.eigvalsh / np.einsum, which the package calls through module
attributes) with wrappers that record one span per call: name, start, end,
parent span and op id. Spans stay in memory until the run ends. A wrapped
name that the package no longer has is recorded as absent, and every metric
built from it is omitted rather than reported as zero.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

import numpy as np

PACKAGE = "superdiscord"


def _kernel_label(args, kwargs) -> str:
    gammas = args[2] if len(args) > 2 else kwargs["gammas"]
    return "discord.point" if len(gammas) == 1 else "discord.lattice"


def _kernel_points(args, kwargs) -> int:
    return len(args[2] if len(args) > 2 else kwargs["gammas"])


def _matrices(args, kwargs) -> int:
    return math.prod(np.shape(args[0] if args else kwargs["a"])[:-2])


def _nfev(result) -> int:
    return int(getattr(result, "nfev", 0))


# (module, attribute, span label or label function, count on entry, count from result)
TARGETS = [
    ("superdiscord.cli", "main", "cli.main", None, None),
    ("superdiscord.discord", "analyze", "discord.analyze", None, None),
    ("superdiscord.discord", "verify_resurrection", "discord.verify_resurrection", None, None),
    ("superdiscord.discord", "_minimize", "discord.minimize", None, None),
    ("superdiscord.discord", "_batched_weak_ce", _kernel_label, _kernel_points, None),
    ("superdiscord.discord", "_nm_minimize", "discord.refine", None, _nfev),
    ("superdiscord.qstate", "validate", "qstate.validate", None, None),
    ("superdiscord.qstate", "von_neumann_entropy", "qstate.entropy", None, None),
    ("superdiscord.qstate", "spectrum", "qstate.spectrum", None, None),
    ("superdiscord.qstate", "partial_trace_a", "qstate.partial_trace_a", None, None),
    ("superdiscord.qstate", "partial_trace_b", "qstate.partial_trace_b", None, None),
    ("superdiscord.qstate", "mutual_information", "qstate.mutual_information", None, None),
    ("superdiscord.measure", "project_state", "measure.project_state", None, None),
    ("superdiscord.measure", "projectors", "measure.projectors", None, None),
    ("superdiscord.measure", "basis_from_ket", "measure.basis_from_ket", None, None),
    ("superdiscord.measure", "same_basis", "measure.same_basis", None, None),
    ("superdiscord.families", "pure_schmidt", "families.pure_schmidt", None, None),
    ("superdiscord.families", "werner", "families.werner", None, None),
    ("superdiscord.families", "random_state", "families.random_state", None, None),
    ("numpy.linalg", "eigvalsh", "numpy.eigvalsh", _matrices, None),
    ("numpy", "einsum", "numpy.einsum", None, None),
]

ERROR_CLASSES = ("NoConvergence", "QuantumStateError")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op, count]
        self.op = -1
        self.absent: set[str] = set()  # "module.attribute" of wrapped names not found
        self.errors = {name: 0 for name in ERROR_CLASSES}
        self._stack: list[int] = []
        self._raised: set[int] = set()

    def _wrap(self, fn, label, count_in, count_out):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op,
                   count_in(args, kwargs) if count_in else 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._note_error(exc)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if count_out:
                rec[5] = count_out(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_error(self, exc: BaseException) -> None:
        if id(exc) in self._raised:
            return
        self._raised.add(id(exc))
        errors = sys.modules.get(f"{PACKAGE}.errors")
        for name in ERROR_CLASSES:
            cls = getattr(errors, name, None)
            if cls is not None and isinstance(exc, cls):
                self.errors[name] += 1

    def install(self) -> None:
        """Wrap every target, in each package module that refers to it."""
        for modname, attr, label, count_in, count_out in TARGETS:
            mod = sys.modules.get(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                self.absent.add(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(orig, label, count_in, count_out)
            holders = [mod] + [
                m for name, m in list(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
        errors = sys.modules.get(f"{PACKAGE}.errors")
        for name in ERROR_CLASSES:
            if getattr(errors, name, None) is None:
                self.absent.add(f"{PACKAGE}.errors.{name}")

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": sorted(self.absent), "errors": self.errors}, fh)

    def merge_file(self, path) -> None:
        """Append the spans a traced child process wrote, under the current op id."""
        with open(path) as fh:
            data = json.load(fh)
        base = len(self.spans)
        for name, start, end, parent, _op, count in data["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, self.op, count])
        self.absent.update(data["absent"])
        for name, n in data["errors"].items():
            self.errors[name] += n


# ------------------------------------------------------------ per-layer table

# metric -> wrapped names it is built from
REQUIRES = {
    "cli.main": ["superdiscord.cli.main"],
    "discord.minimize": ["superdiscord.discord._minimize"],
    "discord.point": ["superdiscord.discord._batched_weak_ce"],
    "discord.lattice": ["superdiscord.discord._batched_weak_ce"],
    "discord.refine": ["superdiscord.discord._nm_minimize"],
    "discord.refine_share": ["superdiscord.discord._nm_minimize", "superdiscord.discord._minimize"],
    "discord.flat_skips": ["superdiscord.discord._nm_minimize", "superdiscord.discord._minimize"],
    "qstate.validate": ["superdiscord.qstate.validate"],
    "qstate.entropy": ["superdiscord.qstate.von_neumann_entropy"],
    "measure.project_state": ["superdiscord.measure.project_state"],
    "errors.NoConvergence": ["superdiscord.errors.NoConvergence"],
    "errors.QuantumStateError": ["superdiscord.errors.QuantumStateError"],
}


def layer_metrics(spans: list, ops: int, absent: set, errors: dict, gaps: int) -> dict:
    """Per-layer values from the spans of `ops` timed ops.

    `.calls`, `.nfev`, `.points`, `.matrices` and `.count` are totals over
    the traced ops; `.self_s` is self time (duration minus child spans) per op.
    """
    child = [0.0] * len(spans)
    refined = set()
    for name, start, end, parent, _op, _count in spans:
        if parent >= 0:
            child[parent] += end - start
            if name == "discord.refine":
                refined.add(parent)
    calls, self_s, total_s, counts = {}, {}, {}, {}
    flat = 0
    for i, (name, start, end, _parent, _op, count) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        counts[name] = counts.get(name, 0) + count
        if name == "discord.minimize":
            flat += i not in refined

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix)) / ops

    def layer_calls(prefix: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    m = {}
    for name in ("cli.main", "discord.minimize", "discord.point", "discord.refine",
                 "discord.lattice", "numpy.eigvalsh", "numpy.einsum",
                 "qstate.validate", "qstate.entropy", "measure.project_state"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / ops
    m["discord.minimize.per_op"] = calls.get("discord.minimize", 0) / ops
    m["discord.refine.nfev"] = counts.get("discord.refine", 0)
    m["discord.refine_share"] = (
        total_s.get("discord.refine", 0.0) / total_s["discord.minimize"]
        if total_s.get("discord.minimize") else 0.0
    )
    m["discord.lattice.points"] = counts.get("discord.lattice", 0)
    m["discord.flat_skips"] = flat
    m["numpy.eigvalsh.matrices"] = counts.get("numpy.eigvalsh", 0)
    m["qstate.self_s"] = layer_self("qstate.")
    m["measure.self_s"] = layer_self("measure.")
    m["families.calls"] = layer_calls("families.")
    m["families.self_s"] = layer_self("families.")
    for name in ERROR_CLASSES:
        m[f"errors.{name}.count"] = errors.get(name, 0)
    m["discord.resurrection_gaps_over_1e-3"] = gaps
    m["trace.ops"] = ops
    return {k: v for k, v in m.items() if not _is_absent(k, absent)}


def _is_absent(metric: str, absent: set) -> bool:
    for prefix, needs in REQUIRES.items():
        if metric == prefix or metric.startswith(prefix + "."):
            return any(n in absent for n in needs)
    return False


# ------------------------------------------------------------ -X importtime

IMPORT_GROUPS = {"numpy": "import.numpy_s", "scipy": "import.scipy_s", PACKAGE: "import.superdiscord_s"}


def import_metrics(stderr: str) -> dict:
    """Import seconds from `python -X importtime` output.

    import.total_s sums the top-level imports of the process; each group sums
    the cumulative time of its outermost modules (a package and its
    submodules, not counted twice when nested).
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2][1:]
        rows.append(((len(name) - len(name.lstrip(" "))) // 2, name.strip(), cumulative / 1e6))
    out = {"import.total_s": sum(c for depth, _, c in rows if depth == 0)}
    out.update(dict.fromkeys(IMPORT_GROUPS.values(), 0.0))
    # importtime prints a module after its imports; reversed, parents come first
    stack: list[str] = []  # the modules enclosing the current row
    for depth, name, cumulative in reversed(rows):
        del stack[depth:]
        for group, key in IMPORT_GROUPS.items():
            if _in_group(name, group) and not any(_in_group(a, group) for a in stack):
                out[key] += cumulative
        stack.append(name)
    return out


def _in_group(module: str, group: str) -> bool:
    return module == group or module.startswith(group + ".")


def median_import_metrics(stderrs: list[str]) -> dict:
    samples = [import_metrics(s) for s in stderrs]
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]} if samples else {}
