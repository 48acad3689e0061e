"""Span tracing around the simulator's layer boundaries, from outside.

The simulator has no instrumentation of its own, so the traced run
wraps the public functions and methods of each layer (listed in
:data:`layers.LAYER_TARGETS`) with a recorder.  Every call made
while the recorder is on becomes one span: name, start, end, parent
span and the benchmark op it belongs to.  Spans live in compact arrays
in memory; a layer's self time is derived from them afterwards as each
span's duration minus the durations of its direct children.

Two small registries are installed in *every* run, traced or not,
because the simulated-cycle ledger and digest need them: every
:class:`~repro.hw.cycles.CycleCounter` created is remembered, and (in
traced runs) so is every :class:`~repro.hw.tlb.Tlb` and
:class:`~repro.workloads.tracegen.CacheModel`.  Remembering an object
costs one list append at construction and nothing per operation.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array


class SpanRecorder:
    """Spans in parallel arrays; ``on`` gates recording."""

    def __init__(self):
        self.on = False
        self.names = []          # span-name id -> "layer:qualname"
        self.layer_of = []       # span-name id -> layer
        self.name_ids = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.errors = {}         # span-name id -> calls that raised
        self._stack = []
        self._op_id = -1
        self.op_count = 0

    def name_id(self, layer, qualname):
        key = "%s:%s" % (layer, qualname)
        nid = self.name_ids.get(key)
        if nid is None:
            nid = len(self.names)
            self.name_ids[key] = nid
            self.names.append(key)
            self.layer_of.append(layer)
        return nid

    def open(self, nid):
        idx = len(self.span_name)
        stack = self._stack
        self.span_name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, kind):
        """Open the root span of one benchmark op; returns its index."""
        self._op_id = self.op_count
        self.op_count += 1
        return self.open(self.name_id("bench", "op." + kind))

    def end_op(self, idx):
        self.close(idx)
        self._op_id = -1

    def __len__(self):
        return len(self.span_name)

    def self_times(self):
        """(per-layer self seconds, per-span-name call counts)."""
        n = len(self.span_name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        layer_self = {}
        calls = [0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            layer = self.layer_of[nid]
            layer_self[layer] = (layer_self.get(layer, 0.0)
                                 + (end[i] - start[i]) - child[i])
        return layer_self, dict(zip(self.names, calls))


def _span_wrapper(fn, nid, rec):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        idx = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec.errors[nid] = rec.errors.get(nid, 0) + 1
            raise
        finally:
            rec.close(idx)
    traced.__wrapped_span__ = True
    return traced


def _wrappable(value):
    return (inspect.isfunction(value)
            and not inspect.isgeneratorfunction(value)
            and not getattr(value, "__wrapped_span__", False))


def _rebind_everywhere(original, replacement):
    """Point every loaded ``repro`` module's name for ``original`` at
    ``replacement`` (``from x import f`` copies the binding)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


class LayerSpans:
    """Wraps every layer target on entry and restores them on exit.

    A target is ``(module, "Class")`` for every public method defined
    on that class, ``(module, "Class.method")`` for one method (dunder
    or private included) or ``(module, "function")``.
    """

    def __init__(self, recorder, layer_targets):
        self.recorder = recorder
        self.layer_targets = layer_targets
        self._undo = []

    def __enter__(self):
        rec = self.recorder
        for layer, targets in self.layer_targets.items():
            for module_name, target in targets:
                module = importlib.import_module(module_name)
                head, _, member = target.partition(".")
                obj = getattr(module, head)
                if not inspect.isclass(obj):
                    if _wrappable(obj):
                        wrapper = _span_wrapper(
                            obj, rec.name_id(layer, head), rec)
                        _rebind_everywhere(obj, wrapper)
                        self._undo.append((None, obj, wrapper))
                    continue
                members = [member] if member else [
                    attr for attr in vars(obj) if not attr.startswith("_")]
                for attr in members:
                    self._wrap_member(obj, attr,
                                      rec.name_id(layer, head + "." + attr))
        return self

    def _wrap_member(self, cls, attr, nid):
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            if _wrappable(raw.__func__):
                setattr(cls, attr, type(raw)(
                    _span_wrapper(raw.__func__, nid, self.recorder)))
                self._undo.append((cls, attr, raw))
        elif _wrappable(raw):
            setattr(cls, attr, _span_wrapper(raw, nid, self.recorder))
            self._undo.append((cls, attr, raw))

    def __exit__(self, *exc):
        for owner, first, second in reversed(self._undo):
            if owner is None:
                _rebind_everywhere(second, first)
            else:
                setattr(owner, first, second)
        self._undo.clear()
        return False


class InstanceRegistry:
    """Remembers every instance of some classes created while armed;
    restores their constructors on exit."""

    def __init__(self):
        self.instances = {}
        self._armed = False
        self._originals = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for cls, original in self._originals.items():
            cls.__init__ = original
        self._originals.clear()
        return False

    def track(self, cls):
        self.instances.setdefault(cls, [])
        original = cls.__init__
        self._originals[cls] = original
        registry = self

        @functools.wraps(original)
        def remembering_init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            if registry._armed:
                registry.instances[cls].append(obj)

        cls.__init__ = remembering_init

    def arm(self):
        """Start a fresh window: forget what was created before."""
        for bucket in self.instances.values():
            bucket.clear()
        self._armed = True

    def of(self, cls):
        return self.instances.get(cls, [])
