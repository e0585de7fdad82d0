"""Per-layer tracing from outside the program.

:class:`SpanRecorder` keeps every span in memory as parallel arrays (name,
parent, start, end) and folds them into per-layer self time when the run
ends.  :class:`Tracer` installs the recorder by wrapping, from here, the
public functions of each layer and the kernel's ``schedule*`` entry points
(so every fired callback becomes a span named after the module that owns
it); :meth:`Tracer.uninstall` puts the originals back.

A layer is a module name without the ``repro.`` prefix, cut to two parts
under ``runtime``/``core`` (``runtime.transport``, ``core.converter``),
three under ``runtime.mp`` (shown as ``mp.frames``, ``mp.worker``) and one
elsewhere (``sim``, ``dataflow``, ``state``, ``metrics``).  Code outside
the package is layer ``bench``.  A layer's self time is the time its spans
cover minus the time covered by their child spans, so the self times of
all layers add up exactly to the root span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array

import numpy as np

#: attribute marking a wrapper, so a wrapped callback is not spanned twice
_WRAPPED = "__perfbench_span__"


def layer_of(module: str) -> str:
    """Layer name of a module (see the module docstring)."""
    if not module.startswith("repro."):
        return "bench"
    parts = module.split(".")[1:]
    if parts[0] == "runtime" and len(parts) > 2 and parts[1] == "mp":
        return "mp." + parts[2]
    if parts[0] in ("runtime", "core") and len(parts) > 1:
        return parts[0] + "." + parts[1]
    return parts[0]


class SpanRecorder:
    """In-memory spans: ``name`` ids, ``parent`` indices (-1 for a root) and
    ``perf_counter_ns`` start/end stamps, appended in opening order."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: set by the caller: the next root call records
        self.armed = False
        #: set while a root call runs: spans are recorded
        self.on = False
        #: byte and event counts measured at layer boundaries
        self.counters: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counters.clear()

    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, name_id: int) -> None:
        stack = self._stack
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        stack.append(index)

    def close(self) -> None:
        self.end[self._stack.pop()] = time.perf_counter_ns()

    def close_all(self) -> None:
        while self._stack:
            self.close()

    def arrays(self) -> dict:
        """The spans as numpy arrays plus the name table (picklable)."""
        return {
            "names": list(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "counters": dict(self.counters),
        }


def fold(spans: dict) -> dict:
    """Per-layer totals of one span set.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n}, "span_s":
    {name: s}, "span_calls": {name: n}, "root_s": s}``; ``span_*`` are keyed
    by full span name (``layer:function``)."""
    names = spans["names"]
    name, parent = spans["name"], spans["parent"]
    duration = (spans["end"] - spans["start"]).astype(np.float64) / 1e9
    count = len(names)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested],
                           minlength=len(duration))
    own = duration - children
    by_name_self = np.bincount(name, weights=own, minlength=count)
    by_name_total = np.bincount(name, weights=duration, minlength=count)
    by_name_calls = np.bincount(name, minlength=count)
    result = {"self_s": {}, "calls": {}, "span_s": {}, "span_calls": {},
              "root_s": float(duration[~nested].sum())}
    for ident, full in enumerate(names):
        layer = full.split(":", 1)[0]
        result["self_s"][layer] = result["self_s"].get(layer, 0.0) + by_name_self[ident]
        result["calls"][layer] = result["calls"].get(layer, 0) + int(by_name_calls[ident])
        result["span_s"][full] = float(by_name_total[ident])
        result["span_calls"][full] = int(by_name_calls[ident])
    result["self_s"] = {k: float(v) for k, v in result["self_s"].items()}
    return result


def merge_folds(folds: list) -> dict:
    """Sum several folds (one per mp worker)."""
    merged = {"self_s": {}, "calls": {}, "span_s": {}, "span_calls": {}, "root_s": 0.0}
    for one in folds:
        merged["root_s"] += one["root_s"]
        for part in ("self_s", "calls", "span_s", "span_calls"):
            for key, value in one[part].items():
                merged[part][key] = merged[part].get(key, 0) + value
    return merged


def write_jsonl(path, spans: dict, process: int = 0) -> None:
    """Append the spans as gzipped JSON lines, one object per span:
    ``{"pid", "id", "parent", "name", "start_ns", "end_ns"}``."""
    names = [json.dumps(name) for name in spans["names"]]
    rows = zip(spans["name"].tolist(), spans["parent"].tolist(),
               spans["start"].tolist(), spans["end"].tolist())
    with gzip.open(path, "at", compresslevel=1) as out:
        out.writelines(
            f'{{"pid": {process}, "id": {index}, "parent": {parent}, '
            f'"name": {names[name]}, "start_ns": {start}, "end_ns": {end}}}\n'
            for index, (name, parent, start, end) in enumerate(rows)
        )


class Tracer:
    """Installs span wrappers on the program's layers and the sim kernel."""

    #: (module, class names or None for every class, method names or None
    #: for every public method) of the layer entry points the sim runs
    SIM_POINTS = (
        ("repro.runtime.transport", ("Transport",),
         ("deliver", "route_emissions", "send_reply", "ingest")),
        ("repro.core.scheduler", None, ("notify", "pop", "requeue", "push")),
        ("repro.runtime.baselines", None, ("notify", "pop", "requeue", "push")),
        ("repro.core.converter", ("ContextConverter",),
         ("build", "prepare_reply", "process_reply")),
        ("repro.dataflow.operators", None, ("on_message",)),
        ("repro.dataflow.events", ("EventBatch",), ("select",)),
        ("repro.state.store",
         ("KeyedStateStore", "AggregateStateStore", "JoinStateStore"), None),
        ("repro.runtime.recovery", ("ReliableDelivery", "CheckpointManager"), None),
        ("repro.metrics.collectors", ("MetricsHub", "JobMetrics"), "record"),
        ("repro.metrics.stats", ("RunningStat",), ("add",)),
    )
    #: the mp layers, installed in the parent before the workers fork
    MP_POINTS = (
        ("repro.runtime.mp.frames", ("DataCodec",), ("decode_data",)),
        ("repro.runtime.mp.transport", ("ProcessTransport",), None),
        ("repro.runtime.mp.reliable", ("MpReliableDelivery",), None),
        ("repro.runtime.mp.ingest", ("IngestDriver",), ("pump",)),
        ("repro.runtime.mp.worker", ("MpWorker",), ("_dispatch_quantum",)),
    )

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple] = []

    # -- wrapping ------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def span(self, fn, name: str):
        """``fn`` wrapped so each call while recording is one span."""
        recorder = self.recorder
        ident = recorder.name_id(name)
        open_, close = recorder.open, recorder.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.on:
                return fn(*args, **kwargs)
            open_(ident)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def root(self, fn, name: str):
        """``fn`` wrapped as the root span: while the recorder is armed, a
        call records itself and every span opened inside it."""
        recorder = self.recorder
        ident = recorder.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.armed or recorder.on:
                return fn(*args, **kwargs)
            recorder.on = True
            recorder.open(ident)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close_all()
                recorder.on = False

        return wrapper

    def wrap_points(self, points) -> None:
        for module_name, classes, methods in points:
            module = importlib.import_module(module_name)
            layer = layer_of(module_name)
            for cls_name, cls in vars(module).items():
                if not inspect.isclass(cls) or cls.__module__ != module_name:
                    continue
                if classes is not None and cls_name not in classes:
                    continue
                for attr, value in list(vars(cls).items()):
                    if not inspect.isfunction(value):
                        continue
                    if methods is None:
                        if attr.startswith("_"):
                            continue
                    elif isinstance(methods, str):
                        if not attr.startswith(methods):
                            continue
                    elif attr not in methods:
                        continue
                    self._patch(cls, attr, self.span(
                        value, f"{layer}:{cls_name}.{attr}"))

    def wrap_kernel(self) -> None:
        """Span every kernel callback under its owner module's layer, and
        ``Simulator.run`` as the root."""
        from repro.sim.kernel import Simulator

        recorder = self.recorder
        open_, close = recorder.open, recorder.close
        callback_ids: dict = {}

        def callback_name(callback) -> int:
            fn = getattr(callback, "__func__", callback)
            if isinstance(fn, functools.partial):
                fn = fn.func
            ident = callback_ids.get(fn)
            if ident is None:
                name = f"{layer_of(getattr(fn, '__module__', '') or '')}:" \
                       f"{getattr(fn, '__qualname__', type(fn).__name__)}"
                ident = callback_ids[fn] = recorder.name_id(name)
            return ident

        def fire(ident, callback, *args):
            if not recorder.on:
                return callback(*args)
            open_(ident)
            try:
                return callback(*args)
            finally:
                close()

        def spanned(original):
            def schedule(sim, when, callback, *args):
                fn = getattr(callback, "__func__", callback)
                if getattr(fn, _WRAPPED, False):
                    return original(sim, when, callback, *args)
                return original(sim, when, fire, callback_name(callback),
                                callback, *args)
            return schedule

        # ``schedule`` delegates to ``schedule_at``: wrapping both would
        # span its callbacks twice
        for attribute in ("schedule_at", "schedule_fast", "schedule_at_fast"):
            self._patch(Simulator, attribute,
                        spanned(Simulator.__dict__[attribute]))
        self._patch(Simulator, "run",
                    self.root(Simulator.__dict__["run"], "sim:Simulator.run"))

    def wrap_mp(self) -> None:
        """The mp layers, plus byte counting of encoded DATA frames and the
        worker's idle wait."""
        from repro.runtime.mp import worker
        from repro.runtime.mp.frames import DataCodec

        recorder = self.recorder
        counters = recorder.counters
        encode = DataCodec.__dict__["encode_data"]

        def encode_data(codec, entries):
            data = encode(codec, entries)
            if recorder.on:
                counters["mp.frames.bytes"] = counters.get("mp.frames.bytes", 0) + len(data)
            return data

        self._patch(DataCodec, "encode_data",
                    self.span(functools.wraps(encode)(encode_data),
                              "mp.frames:DataCodec.encode_data"))
        self.wrap_points(self.MP_POINTS)
        self._patch(worker, "conn_wait", self.span(worker.conn_wait, "mp.wait:conn_wait"))

    def install(self, mp: bool = False) -> None:
        self.wrap_points(self.SIM_POINTS)
        if mp:
            self.wrap_mp()
        else:
            self.wrap_kernel()

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
