"""One repetition of a workload: set the engine up, run it, collect.

Engines are built through ``make_engine`` and fed the pre-generated trace
through ``engine.ingest``; nothing here changes the program.  On the mp
backend, :class:`MpHooks` wraps the coordinator's ``worker_main`` so each
worker ships its sink outputs, peak memory and (traced runs) spans back
through a file when it reports, and the coordinator's ``send_frame`` so the
START broadcast marks the end of set-up.
"""

from __future__ import annotations

import gc
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime.engine import make_engine

from perfbench.oracle import OutputTap
from perfbench.spans import SpanRecorder
from perfbench.workloads import DRAIN, DURATION, Trace, TraceReplay, Workload


def _status_mb(field: str) -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/self/status")


def peak_rss_mb() -> float:
    """This process's peak resident set size (``VmHWM``) in MiB."""
    return _status_mb("VmHWM")


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: list[float]
    run_s: float
    messages: int
    events: int
    outputs: list
    metrics: object
    #: False on a forced stop, a FIFO violation or a missing worker report
    run_ok: bool = True
    #: mp: each worker's peak resident memory beyond what it had at fork
    worker_rss_mb: list[float] = field(default_factory=list)
    #: traced runs: span arrays, one per process
    spans: list[dict] = field(default_factory=list)


class MpHooks:
    """Per-worker collection for the mp backend (installed before fork)."""

    def __init__(self, outdir: Path, tap: OutputTap, recorder: SpanRecorder):
        self._outdir = outdir
        self._tap = tap
        self._recorder = recorder
        self._undo: list[tuple] = []
        self.started_at: float | None = None
        self._forked_rss_mb = 0.0

    def install(self) -> None:
        from repro.runtime.mp import coordinator
        from repro.runtime.mp.worker import MpWorker

        hooks = self
        recorder = self._recorder
        tap = self._tap
        root = recorder.name_id("mp.worker:worker_main")
        worker_main = coordinator.worker_main
        report = MpWorker._report
        send_frame = coordinator.send_frame

        def collecting_worker_main(node_id, *args, **kwargs):
            hooks._forked_rss_mb = _status_mb("VmRSS")
            tap.outputs.clear()
            recorder.reset()
            if recorder.armed:
                recorder.on = True
                recorder.open(root)
            return worker_main(node_id, *args, **kwargs)

        def dumping_report(worker):
            # dump before the REPORT frame, not when worker_main returns:
            # the coordinator may terminate a worker once it has reported
            recorder.close_all()
            recorder.on = False
            payload = {
                "outputs": list(tap.outputs),
                "rss_mb": peak_rss_mb() - hooks._forked_rss_mb,
                "spans": recorder.arrays() if recorder.armed else None,
            }
            path = hooks._outdir / f"worker-{worker._node_id}.pkl"
            with open(path.with_suffix(".tmp"), "wb") as out:
                pickle.dump(payload, out)
            os.replace(path.with_suffix(".tmp"), path)
            return report(worker)

        def marking_send_frame(conn, kind, payload=None):
            if kind == coordinator.START and hooks.started_at is None:
                hooks.started_at = time.perf_counter()
            return send_frame(conn, kind, payload)

        for owner, attribute, value in (
            (coordinator, "worker_main", collecting_worker_main),
            (MpWorker, "_report", dumping_report),
            (coordinator, "send_frame", marking_send_frame),
        ):
            self._undo.append((owner, attribute, getattr(owner, attribute)))
            setattr(owner, attribute, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)

    def collect(self, nodes: int) -> list[dict]:
        """Load and delete the worker files; a missing one is ``None``."""
        payloads = []
        for node in range(nodes):
            path = self._outdir / f"worker-{node}.pkl"
            if not path.exists():
                payloads.append(None)
                continue
            with open(path, "rb") as handle:
                payloads.append(pickle.load(handle))
            path.unlink()
        return payloads


def _build(workload: Workload, trace: Trace, seed: int):
    engine = make_engine(workload.config(seed), workload.mix.build_jobs())
    TraceReplay(engine, trace).install()
    return engine


def run_sim(workload: Workload, trace: Trace, seed: int, tap: OutputTap,
            setups: int, recorder: SpanRecorder | None = None,
            until: float = DURATION + DRAIN) -> Rep:
    """Build the engine ``setups`` times (timing each), run the last one."""
    setup_s = []
    for _ in range(setups):
        # every timed phase starts from an empty young generation, so a
        # collection of the (large) trace never lands in one by chance
        gc.collect()
        start = time.perf_counter()
        engine = _build(workload, trace, seed)
        setup_s.append(time.perf_counter() - start)
    gc.collect()
    tap.outputs.clear()
    if recorder is not None:
        recorder.reset()
        recorder.armed = True
    start = time.perf_counter()
    try:
        engine.run(until=until)
    finally:
        run_s = time.perf_counter() - start
        if recorder is not None:
            recorder.armed = False
    rep = Rep(setup_s, run_s, engine.metrics.total_messages,
              engine.sim.fired_count, list(tap.outputs), engine.metrics)
    if recorder is not None:
        rep.spans.append(recorder.arrays())
    return rep


def run_mp(workload: Workload, trace: Trace, seed: int, hooks: MpHooks,
           recorder: SpanRecorder, traced: bool = False,
           until: float = DURATION + DRAIN) -> Rep:
    """One mp run: capture, fork, flood, quiesce, merge."""
    hooks.started_at = None
    recorder.armed = traced
    gc.collect()
    start = time.perf_counter()
    try:
        engine = _build(workload, trace, seed)
        engine.run(until=until)
    finally:
        recorder.armed = False
    info = engine.info
    payloads = hooks.collect(workload.nodes)
    reported = [p for p in payloads if p is not None]
    rep = Rep(
        [hooks.started_at - start], info["wall_time"],
        engine.metrics.total_messages, engine.sim.fired_count,
        [out for p in reported for out in p["outputs"]], engine.metrics,
        run_ok=(not info["forced_stop"] and info["fifo_violations"] == 0
                and len(reported) == workload.nodes
                and len(info["reports"]) == workload.nodes),
        worker_rss_mb=[p["rss_mb"] for p in reported],
    )
    if traced:
        rep.spans = [p["spans"] for p in reported]
    return rep
