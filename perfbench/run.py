"""The repository benchmark: one workload, measured from outside the program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mt_cameo_sat --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload for about ``--seconds`` seconds of runs
(at least one) and reports the end-to-end metrics; ``--trace 1`` runs it
once untraced and once with span wrappers installed, and reports the
per-layer metrics.  Either way every sink output of every run is checked
against an independent numpy reference.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``,
where ``attempted`` counts expected sink outputs over all runs and
``failed`` the missing, duplicated or wrong ones.  Spans of a traced run
are written to ``.perfbench/spans-<workload>.jsonl.gz``.

Self-tests: ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: sim engines are built this many times per run; set-up is their median
SIM_SETUPS = 15

END_TO_END = {
    "msgs_per_s": "1/s",
    "setup_s": "s",
    "ls_p50_ms": "ms",
    "ls_p90_ms": "ms",
    "ls_on_time_frac": "fraction",
    "ba_wait_ms": "ms",
    "correct_frac": "fraction",
    "peak_rss_mb": "MiB",
}

#: per-layer metrics: self time of each layer, then counts and ratios
LAYERS = ("sim", "runtime.node", "runtime.transport", "runtime.baselines",
          "core.converter", "core.scheduler", "dataflow", "state",
          "runtime.recovery", "metrics", "mp.frames", "mp.transport",
          "mp.reliable", "mp.ingest", "mp.worker", "mp.wait")
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "other.self_s": "s",
    "sim.events_per_msg": "1/msg",
    "runtime.node.wait_sim_ms": "ms",
    "runtime.node.busy_frac": "fraction",
    "runtime.transport.calls": "count",
    "core.converter.build_per_msg": "1/msg",
    "core.scheduler.calls": "count",
    "dataflow.select_calls": "count",
    "state.snapshot_bytes": "bytes",
    "state.checkpoints": "count",
    "runtime.recovery.retransmit_ratio": "fraction",
    "runtime.recovery.replayed": "count",
    "mp.frames.bytes_per_msg": "bytes/msg",
    "mp.worker.idle_frac": "fraction",
    "mp.worker.busy_frac": "fraction",
    "workloads.gen_s": "s",
    "trace.overhead_x": "x",
}


def _percentile_ms(latencies: list, q: float) -> float:
    return float(np.percentile(latencies, q)) * 1e3 if latencies else math.nan


def mean_wait_ms(metrics, jobs: list, group: str | None = None) -> float:
    """Mean mailbox wait per message hop of ``group``'s jobs (all jobs when
    ``None``), from the engine's per-stage queueing stats."""
    stats = [stat for job in jobs if group in (None, job.group)
             for stat in metrics.job(job.name).queueing.values()]
    count = sum(stat.count for stat in stats)
    return sum(stat.mean * stat.count for stat in stats) / count * 1e3 if count else 0.0


class Outcome:
    """Output checks accumulated over every run of one invocation."""

    def __init__(self, expected: dict, jobs: list):
        self.expected = expected
        self.jobs = jobs
        self.groups = {j.name: j.group for j in jobs}
        self.attempted = 0
        self.failed = 0
        #: the tap saw exactly the outputs the engine's metrics recorded
        self.consistent = True

    def check(self, rep) -> list:
        """Check one run; returns its correct outputs."""
        from perfbench.oracle import check_outputs

        self.attempted += len(self.expected)
        recorded = sum(rep.metrics.job(j.name).output_count for j in self.jobs)
        if recorded != len(rep.outputs):
            self.consistent = False
        if not rep.run_ok:
            self.failed += len(self.expected)
            return []
        failed, correct = check_outputs(self.expected, rep.outputs)
        self.failed += failed
        return correct

    def latencies(self, rep, group: str) -> list:
        return [o.latency for o in rep.outputs if self.groups[o.job] == group]


def end_to_end(reps: list, latency_runs: list, outcome: Outcome,
               rss_mb: float) -> dict:
    """Speed and memory over ``reps``; latencies over ``latency_runs``, a
    list of ``(rep, correct outputs)`` pairs."""
    from perfbench.oracle import on_time_fraction

    def latency_median(metric) -> float:
        return statistics.median(metric(rep, good) for rep, good in latency_runs)

    return {
        "msgs_per_s": statistics.median(rep.messages / rep.run_s for rep in reps),
        "setup_s": statistics.median(s for rep in reps for s in rep.setup_s),
        "ls_p50_ms": latency_median(
            lambda rep, _: _percentile_ms(outcome.latencies(rep, "LS"), 50)),
        "ls_p90_ms": latency_median(
            lambda rep, _: _percentile_ms(outcome.latencies(rep, "LS"), 90)),
        "ls_on_time_frac": latency_median(
            lambda _, good: on_time_fraction(outcome.expected, good, outcome.jobs, "LS")),
        "ba_wait_ms": latency_median(
            lambda rep, _: mean_wait_ms(rep.metrics, outcome.jobs, "BA")),
        "correct_frac": 1.0 - outcome.failed / outcome.attempted,
        "peak_rss_mb": rss_mb + max(sum(rep.worker_rss_mb) for rep in reps),
    }


def per_layer(traced, plain, jobs: list, gen_s: float, mp: bool) -> dict:
    from perfbench.spans import fold, merge_folds
    from perfbench.workloads import DRAIN, DURATION

    folded = merge_folds([fold(spans) for spans in traced.spans])
    self_s = folded["self_s"]
    span_calls = folded["span_calls"]
    span_s = folded["span_s"]
    counters: dict = {}
    for spans in traced.spans:
        for key, value in spans["counters"].items():
            counters[key] = counters.get(key, 0) + value
    metrics = traced.metrics
    messages = max(traced.messages, 1)
    root = folded["root_s"]
    if root <= 0:
        raise RuntimeError("the traced run recorded no spans")
    sends = span_calls.get("runtime.recovery:ReliableDelivery.send", 0)
    result = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    result["other.self_s"] = sum(v for k, v in self_s.items() if k not in LAYERS)
    # the self-time split must account for the root spans exactly
    if abs(sum(self_s.values()) - root) > 1e-6 * max(root, 1.0):
        raise RuntimeError(f"self times {sum(self_s.values())} != root {root}")
    result.update({
        "sim.events_per_msg": plain.events / max(plain.messages, 1),
        # the node runtime and its simulated clock exist only on the sim
        "runtime.node.wait_sim_ms": 0.0 if mp else mean_wait_ms(plain.metrics, jobs),
        "runtime.node.busy_frac":
            0.0 if mp else plain.metrics.utilization(DURATION + DRAIN),
        "runtime.transport.calls": folded["calls"].get("runtime.transport", 0),
        "core.converter.build_per_msg":
            span_calls.get("core.converter:ContextConverter.build", 0) / messages,
        "core.scheduler.calls": folded["calls"].get("core.scheduler", 0),
        "dataflow.select_calls": span_calls.get("dataflow:EventBatch.select", 0),
        "state.snapshot_bytes": metrics.checkpoint_bytes,
        "state.checkpoints": metrics.checkpoints_taken,
        "runtime.recovery.retransmit_ratio":
            metrics.retransmissions / sends if sends else 0.0,
        "runtime.recovery.replayed": metrics.messages_replayed_recovery,
        "mp.frames.bytes_per_msg": counters.get("mp.frames.bytes", 0) / messages,
        "mp.worker.idle_frac": span_s.get("mp.wait:conn_wait", 0.0) / root,
        "mp.worker.busy_frac":
            span_s.get("mp.worker:MpWorker._dispatch_quantum", 0.0) / root,
        "workloads.gen_s": gen_s,
        "trace.overhead_x": traced.run_s / plain.run_s,
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.harness import MpHooks, peak_rss_mb, run_mp, run_sim
    from perfbench.oracle import OutputTap, reference
    from perfbench.spans import SpanRecorder, Tracer, write_jsonl
    from perfbench.workloads import WORKLOADS, generate_trace

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    jobs = workload.mix.build_jobs()
    start = time.perf_counter()
    trace = generate_trace(workload, jobs, args.seed)
    gen_s = time.perf_counter() - start
    outcome = Outcome(reference(trace, jobs), jobs)

    mp = workload.backend == "mp"
    rundir = OUT / f"run-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    tap = OutputTap()
    tap.install()
    recorder = SpanRecorder()
    hooks = MpHooks(rundir, tap, recorder)
    if mp:
        hooks.install()

    def rep(traced: bool = False):
        if mp:
            return run_mp(workload, trace, args.seed, hooks, recorder, traced)
        return run_sim(workload, trace, args.seed, tap, SIM_SETUPS,
                       recorder if traced else None)

    try:
        if args.trace:
            plain = rep()
            tracer = Tracer(recorder)
            tracer.install(mp=mp)
            try:
                traced = rep(traced=True)
            finally:
                tracer.uninstall()
            outcome.check(plain)
            outcome.check(traced)
            metrics = per_layer(traced, plain, jobs, gen_s, mp)
            spans_path = OUT / f"spans-{workload.name}.jsonl.gz"
            spans_path.unlink(missing_ok=True)
            for process, spans in enumerate(traced.spans):
                write_jsonl(spans_path, spans, process)
        else:
            reps = []
            began = time.perf_counter()
            while True:
                reps.append(rep())
                spent = time.perf_counter() - began
                if spent + spent / len(reps) > args.seconds:
                    break
            rss_mb = peak_rss_mb()
            latency_runs = [(r, outcome.check(r)) for r in reps]
            if mp:
                # flooded wall-clock latency measures drain order, not what a
                # tenant sees, and swings by 30% run to run: the latency
                # metrics of an mp cell come from its sim twin
                twin = run_sim(workload.sim_twin(), trace, args.seed, tap, 1)
                latency_runs = [(twin, outcome.check(twin))]
            metrics = end_to_end(reps, latency_runs, outcome, rss_mb)
    finally:
        hooks.uninstall()
        tap.uninstall()
        shutil.rmtree(rundir, ignore_errors=True)
        for child in multiprocessing.active_children():
            child.kill()
            child.join()

    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.consistent,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
