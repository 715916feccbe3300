"""In-memory span tracer for the benchmark's traced runs.

`instrumented(tracer)` wraps every public function and public method of the
swapcal layer modules at each module attribute where a caller looks it up
(for example `swapcal.forecaster.ons_step` and `swapcal.ons.ons_step` both
get a wrapper, and both record the span `ons.ons_step`), and restores the
original objects on exit. Discovery is by module contents, so a function that
a refactor deletes or stops calling simply reports no calls.

A span is (name, start, end, parent, op id). Spans close in post-order, so
when a span closes all of its children are known: its self time is its
duration minus the part of its interval that the children cover. Only open
spans are held; closed spans are folded into per-name statistics, which
keeps memory flat over long traced runs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time

import numpy as np

LAYERS = ("core", "ons", "linalg", "forecaster", "metrics", "batch",
          "harness", "cli")


def covered_ns(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanStat:
    """Aggregate of every closed span with one name in one phase."""

    __slots__ = ("calls", "total_ns", "self_ns", "durations")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.durations = None


class Tracer:
    """Span recorder. `phase` ("setup" or "step") and `op_id` are set by the
    benchmark loop; statistics are kept per (phase, name).

    keep_durations names the spans whose per-call durations are kept for
    percentiles.
    """

    def __init__(self, clock=time.perf_counter_ns, keep_durations=()):
        self.clock = clock
        self.keep_durations = frozenset(keep_durations)
        self.phase = "step"
        self.op_id = 0
        self.stats = {}
        self.resid_max = 0.0
        self.bytes_read = 0
        self._stack = []
        self._next_id = 0

    def open(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        frame = (self._next_id, name, parent, self.op_id, [], self.clock())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame):
        end = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        _, name, _, _, children, start = frame
        self._fold(name, start, end, children)
        if self._stack:
            self._stack[-1][4].append((start, end))

    def exclude(self, start, end):
        """Mark [start, end] as not belonging to the enclosing span (time
        the tracer itself spent, e.g. in a post-call hook)."""
        if self._stack:
            self._stack[-1][4].append((start, end))

    def _fold(self, name, start, end, children):
        key = (self.phase, name)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = SpanStat()
            if name in self.keep_durations:
                st.durations = []
        dur = end - start
        st.calls += 1
        st.total_ns += dur
        st.self_ns += dur - covered_ns(children)
        if st.durations is not None:
            st.durations.append(dur)

    def stat(self, name, phase="step"):
        """Statistics of one span name; an empty SpanStat if never called."""
        return self.stats.get((phase, name)) or SpanStat()

    def self_ns_by_layer(self, phase="step"):
        out = dict.fromkeys(LAYERS, 0)
        for (ph, name), st in self.stats.items():
            if ph == phase:
                layer = name.split(".", 1)[0]
                if layer in out:
                    out[layer] += st.self_ns
        return out


def _stationary_residual(tracer, args, result):
    """max |Q p - p| of a returned stationary distribution (batched or not)."""
    Q = np.asarray(args[0], dtype=float)
    p = np.asarray(result, dtype=float)
    r = np.einsum("...ij,...j->...i", Q, p) - p
    tracer.resid_max = max(tracer.resid_max, float(np.max(np.abs(r))))


def _count_bytes_read(tracer, args, _result):
    tracer.bytes_read += os.path.getsize(args[-1])


# Post-call hooks, keyed by span name. Their time is excluded from the
# enclosing span.
HOOKS = {
    "linalg.stationary_distribution": _stationary_residual,
    "core.Transcript.read_jsonl": _count_bytes_read,
}


def _traced(fn, name, tracer):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if hook is not None:
            t0 = tracer.clock()
            hook(tracer, args, result)
            tracer.exclude(t0, tracer.clock())
        return result

    return traced


def _layer_of(module_name):
    prefix, _, layer = module_name.partition(".")
    return layer if prefix == "swapcal" and layer in LAYERS else None


def _wrap_method(raw, name, tracer):
    if isinstance(raw, classmethod):
        return classmethod(_traced(raw.__func__, name, tracer))
    if isinstance(raw, staticmethod):
        return staticmethod(_traced(raw.__func__, name, tracer))
    if inspect.isfunction(raw):
        return _traced(raw, name, tracer)
    return None


def install(tracer):
    """Wrap the layers' public callables; returns the (owner, attr, original)
    list that `restore` undoes."""
    patches = []
    for layer in LAYERS:
        try:
            mod = importlib.import_module(f"swapcal.{layer}")
        except ImportError:
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                home = _layer_of(obj.__module__)
                if home is None:
                    continue
                patches.append((mod, attr, obj))
                setattr(mod, attr, _traced(obj, f"{home}.{obj.__name__}",
                                           tracer))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mattr, raw in list(vars(obj).items()):
                    if mattr.startswith("_"):
                        continue
                    wrapped = _wrap_method(
                        raw, f"{layer}.{obj.__name__}.{mattr}", tracer)
                    if wrapped is not None:
                        patches.append((obj, mattr, raw))
                        setattr(obj, mattr, wrapped)
    return patches


def restore(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextlib.contextmanager
def instrumented(tracer):
    patches = install(tracer)
    try:
        yield tracer
    finally:
        restore(patches)
