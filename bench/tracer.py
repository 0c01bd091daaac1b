"""Outside-in tracer for the dynact modules.

The tracer wraps every public function (and the public batch methods of
public classes) defined in each ``dynact`` layer module, and rebinds every
alias of those functions that any ``dynact`` module holds. This is needed
because ``verification``, ``simulation`` and ``cli`` import what they call by
name, so patching only the defining module would miss their calls.
``uninstall`` puts every original object back.

While ``active`` is true each wrapped call records one span
``(name, start_ns, end_ns, parent, op, count)`` in memory; ``count`` is the
amount of work the call did where a counter exists (draws, bytes, band
misses). Spans are aggregated into per-function and per-layer self times
and counts by ``summarize`` and written out by ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

LAYERS = (
    "cli",
    "verification",
    "core_math",
    "activations",
    "rng",
    "simulation",
    "fitting",
    "svgplot",
)

# Per-draw primitives of the RNG. ``normals`` calls them once per draw, so a
# span each would cost more than the work it times; their time is part of
# the caller's self time instead.
UNTRACED = frozenset(
    {
        "rng.CounterRng.u64",
        "rng.CounterRng.uniform_open",
        "rng.CounterRng.uniform_halfopen",
        "rng.CounterRng.normal",
    }
)

# Criterion 6's reproduction band: DyISRU MAE <= 0.02 on the C=100 outlier
# experiment. A miss is counted, never treated as a failed op.
BAND_CHANNELS = 100
BAND_MAE = 0.02

ROOT_SPAN = "bench.op"


def _draws(args, kwargs, result):
    return int(kwargs["n"] if "n" in kwargs else args[1])


def _text_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])


def _band_miss(args, kwargs, result):
    data = kwargs["data"] if "data" in kwargs else args[0]
    return int(data.channels == BAND_CHANNELS and result.mae > BAND_MAE)


# Work counted at a layer boundary, keyed by span name; the metric is named
# <span>.draws, <span>.bytes or fitting.band_misses.
COUNTERS = {
    "rng.normals": _draws,
    "simulation.scenario_to_csv": _text_bytes,
    "simulation.read_points_csv": _file_bytes,
    "svgplot.render_figure": _text_bytes,
    "fitting.fit_dyisru": _band_miss,
}


def _targets(modules: dict) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, function) for every traced definition."""
    found = []
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((mod, name, f"{layer}.{name}", obj))
            elif inspect.isclass(obj):
                for mname, meth in vars(obj).items():
                    if mname.startswith("_") or not inspect.isfunction(meth):
                        continue
                    if f"{layer}.{name}.{mname}" in UNTRACED:
                        continue
                    found.append((obj, mname, f"{layer}.{mname}", meth))
    names = [t[2] for t in found]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise RuntimeError(f"ambiguous span names: {sorted(dupes)}")
    return found


class Tracer:
    """Wraps the dynact layer functions and records spans while active."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[tuple | None] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("dynact")
        modules = {layer: importlib.import_module(f"dynact.{layer}") for layer in LAYERS}
        wrappers = {}
        for owner, attr, name, fn in _targets(modules):
            wrapper = self._wrap(name, fn)
            wrappers[id(fn)] = (fn, wrapper)
            self._rebind(owner, attr, wrapper)
        # aliases: every module attribute that is one of the wrapped functions
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, attr, hit[1])

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, counter, args, kwargs)

        return wrapper

    def call(self, name: str, fn, counter, args, kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        parent = stack[-1]
        spans.append(None)
        stack.append(idx)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.op, 0)
        if counter is not None:
            spans[idx] = (name, start, end, parent, self.op, counter(args, kwargs, result))
        return result

    def run_op(self, op: int, fn, *args):
        """Run one benchmark op, recording, under a root span carrying its op id."""
        self.op = op
        self.active = True
        try:
            return self.call(ROOT_SPAN, fn, None, args, {})
        finally:
            self.active = False


def summarize(spans) -> dict[str, dict[str, int]]:
    """Per span name: calls, self time in nanoseconds and the summed count."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op, _count in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, _parent, _op, count) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "self_ns": 0, "count": 0})
        agg["calls"] += 1
        agg["self_ns"] += end - start - child_ns[idx]
        agg["count"] += count
    return out


def write_spans(spans, path) -> None:
    """One CSV row per span, in the order the spans were opened."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span,parent,op,name,start_ns,end_ns,count\n")
        for idx, (name, start, end, parent, op, count) in enumerate(spans):
            fh.write(f"{idx},{parent},{op},{name},{start},{end},{count}\n")
