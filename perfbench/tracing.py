"""Span tracing of geodrev from outside the package.

``Tracer.install`` replaces each public function of the geodrev modules,
and a few methods, with a wrapper that records a span: name, start, end,
parent span and command id.  Spans live in flat arrays in memory and are
written out once, by ``Tracer.save``.  Counters are taken in the same
wrappers, so a ratio is measured where the work happens.  Nothing under
``src/`` is edited: the wrappers are rebound in the imported modules and
``Tracer.uninstall`` puts the originals back.
"""

from __future__ import annotations

import collections
import inspect
import os
import time
import types
from array import array

import numpy as np

MODULES = ("scalarfield", "config", "metric", "reversibility", "frames", "geodesics", "runtime", "cli")

# Recursive or per-AST-node helpers of the expression DSL.  A span per
# node would cost more than the work it measures; their time is the self
# time of the ScalarField method that calls them.
SKIP = {
    "scalarfield": {
        "eval_expr", "diff_expr", "substitute", "to_text",
        "const", "var", "add", "sub", "mul", "div", "neg", "power", "func",
    },
}

# (module, class, method, span name)
METHODS = (
    ("scalarfield", "ScalarField", "eval", "scalarfield.eval"),
    ("scalarfield", "ScalarField", "diff", "scalarfield.diff"),
    ("metric", "MetricBundle", "validate", "metric.validate"),
    ("config", "ExperimentConfig", "build_bundle", "config.build_bundle"),
)

HOOK_SPAN = "trace.hook"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.command = array("q")
        self.start = array("d")
        self.end = array("d")
        self.command_id = -1
        self._stack = [-1]
        self.counts = collections.Counter()
        self.maxima = collections.Counter()
        self._seen_integrations: set = set()
        self._restore: list = []

    # -- span store -------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.command.append(self.command_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_command(self, command_id: int) -> None:
        self.command_id = command_id
        self._seen_integrations = set()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx)
                if hook:
                    hook(tracer, (sig, args, kwargs), None, exc)
                raise
            tracer.close(idx)
            if hook:
                hook(tracer, (sig, args, kwargs), result, None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        mods = {short: getattr(self.package, short) for short in MODULES}
        replacements = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in SKIP.get(short, ())
                ):
                    replacements[obj] = self._wrap(obj, f"{short}.{attr}")
        # Rebind every module-level name bound to a wrapped function, so
        # calls through `from .x import f` bindings are traced as well.
        for mod in (self.package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replacements:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, replacements[obj])
        for short, cls_name, meth, name in METHODS:
            cls = getattr(mods[short], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reports ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "command": np.frombuffer(self.command, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, **self.arrays())

    def summary(self) -> dict:
        """Per span name: count, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which tile the part of its interval spent in them.
        """
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        counts = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=self_time, minlength=k)
        return {
            name: {"calls": int(counts[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def main_seconds_by_command(self, kinds: dict) -> dict:
        """Inclusive cli.main seconds grouped by the CLI command of each op."""
        a = self.arrays()
        if "cli.main" not in self._ids:
            return {}
        pick = a["name_id"] == self._ids["cli.main"]
        out = collections.Counter()
        for cmd, d in zip(a["command"][pick], (a["end"] - a["start"])[pick]):
            out[kinds[int(cmd)]] += float(d)
        return dict(out)


# -- counters taken at span boundaries ------------------------------------


def _bound(call) -> dict:
    sig, args, kwargs = call
    return sig.bind(*args, **kwargs).arguments


def _eval_hook(t: Tracer, call, result, exc) -> None:
    if exc is None:
        t.counts["scalarfield.eval.elements"] += int(np.size(result))


def _spray_hook(t: Tracer, call, result, exc) -> None:
    if isinstance(exc, t.package.geodesics.SingularHessianError):
        t.counts["geodesics.spray.failures"] += 1


def _integrate_hook(t: Tracer, call, result, exc) -> None:
    if exc is not None:
        return
    args = _bound(call)
    t.counts["geodesics.integrate.rk4_steps"] += len(result.samples) - 1
    t.counts["geodesics.integrate.truncations"] += int(result.truncated)
    key = (
        id(args["bundle"]),
        tuple(float(v) for v in args["x0"]),
        tuple(float(v) for v in args["y0"]),
        float(args["T"]),
        float(args["h"]),
    )
    if key in t._seen_integrations:
        t.counts["geodesics.integrate.repeats"] += 1
    t._seen_integrations.add(key)


def _path_distance_hook(t: Tracer, call, result, exc) -> None:
    if exc is not None:
        return
    args = _bound(call)
    n, m = len(args["a"].samples), len(args["b"].samples)
    t.counts["geodesics.path_distance.pairs"] += n * m
    # _points_to_polyline builds (n, m-1, 2) float64 temporaries, both ways
    temp = 16 * max(n * (m - 1), m * (n - 1))
    t.maxima["geodesics.path_distance.temp_bytes_computed"] = max(
        t.maxima["geodesics.path_distance.temp_bytes_computed"], temp
    )


def _ordered_map_hook(t: Tracer, call, result, exc) -> None:
    items = len(result) if exc is None else 0
    thread_cap = t.package.runtime.thread_cap
    cap = getattr(thread_cap, "__wrapped__", thread_cap)()
    workers = min(cap, items) if cap > 1 and items > 1 else 1
    t.maxima["runtime.ordered_map.workers"] = max(t.maxima["runtime.ordered_map.workers"], workers)


def _write_csv_hook(t: Tracer, call, result, exc) -> None:
    if exc is not None:
        return
    idx = t.open(HOOK_SPAN)
    with open(_bound(call)["path"], "rb") as handle:
        data = handle.read()
    t.close(idx)
    t.counts["cli.write_csv.rows"] += data.count(b"\n") - 1
    t.counts["cli.write_csv.bytes"] += len(data)


HOOKS = {
    "scalarfield.eval": _eval_hook,
    "geodesics.spray": _spray_hook,
    "geodesics.integrate": _integrate_hook,
    "geodesics.path_distance": _path_distance_hook,
    "runtime.ordered_map": _ordered_map_hook,
    "cli.write_csv": _write_csv_hook,
}
