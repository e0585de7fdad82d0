"""Self-tests of the benchmark: span arithmetic, the output oracle, trace
replay and the metric contract.

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.dataflow.messages import reset_message_ids
from repro.runtime.engine import make_engine
from repro.workloads.tenants import make_latency_sensitive_job

from perfbench import run
from perfbench.harness import MpHooks, run_mp, run_sim
from perfbench.oracle import Output, OutputTap, check_outputs, reference
from perfbench.spans import SpanRecorder, Tracer, fold, layer_of
from perfbench.workloads import (
    WORKLOADS,
    Trace,
    TraceReplay,
    generate_trace,
)

#: simulated seconds of input in the short runs below
SHORT = 3.0


def _spans(rows, names):
    """Span arrays from ``(name, parent, start, end)`` rows."""
    name, parent, start, end = zip(*rows)
    return {"names": names, "name": np.array(name), "parent": np.array(parent),
            "start": np.array(start, dtype=np.int64),
            "end": np.array(end, dtype=np.int64), "counters": {}}


def test_self_time_of_nested_spans():
    # root [0, 100] > a [10, 40] > b [20, 30];  root > c [50, 90]
    spans = _spans([(0, -1, 0, 100), (1, 0, 10, 40), (2, 1, 20, 30), (2, 0, 50, 90)],
                   ["sim:run", "x:a", "y:b"])
    folded = fold(spans)
    assert folded["self_s"] == pytest.approx({"sim": 30e-9, "x": 20e-9, "y": 50e-9})
    assert folded["calls"] == {"sim": 1, "x": 1, "y": 2}
    assert folded["root_s"] == pytest.approx(100e-9)
    assert sum(folded["self_s"].values()) == pytest.approx(folded["root_s"])


def test_wrapped_calls_add_up_to_the_root():
    recorder = SpanRecorder()
    tracer = Tracer(recorder)

    def leaf():
        return sum(range(1000))

    inner = tracer.span(lambda: leaf() + leaf(), "x:inner")
    leaf_span = tracer.span(leaf, "y:leaf")
    root = tracer.root(lambda: [inner(), leaf_span()], "sim:root")
    root()  # not armed: records nothing
    assert len(recorder.name) == 0
    recorder.armed = True
    root()
    spans = recorder.arrays()
    assert [spans["names"][i] for i in spans["name"]] == ["sim:root", "x:inner", "y:leaf"]
    assert spans["parent"].tolist() == [-1, 0, 0]
    folded = fold(spans)
    assert sum(folded["self_s"].values()) == pytest.approx(folded["root_s"], rel=1e-9)


def test_layer_names():
    assert layer_of("repro.runtime.transport") == "runtime.transport"
    assert layer_of("repro.runtime.mp.frames") == "mp.frames"
    assert layer_of("repro.core.converter") == "core.converter"
    assert layer_of("repro.dataflow.operators") == "dataflow"
    assert layer_of("repro.sim.kernel") == "sim"
    assert layer_of("perfbench.workloads") == "bench"


def test_reference_on_a_hand_computed_window():
    job = make_latency_sensitive_job("ls0", source_count=2)
    trace = Trace(
        sources=[("ls0", "source", 0), ("ls0", "source", 1)],
        entries=[
            [(1.0, np.array([0.1, 0.5, 0.9, 1.2]), None, np.array([0, 1, 0, 1]), True)],
            [(1.0, np.array([0.3, 1.5]), np.array([2.0, 7.0]), np.array([1, 1]), True)],
        ],
    )
    # window [0, 1) holds key 0: 0.1, 0.9 -> 2.0; key 1: 0.5, 0.3 (value 2) -> 3.0;
    # window [1, 2) is open: source 0 has only reached 1.2
    assert reference(trace, [job]) == {("ls0", 1.0): {0: 2.0, 1: 3.0}}


def test_check_outputs_counts_every_kind_of_failure():
    expected = {("a", 1.0): {0: 2.0}, ("a", 2.0): {0: 1.0}}
    good = [Output("a", 1.0, (0,), (2.0,), 0.1), Output("a", 2.0, (0,), (1.0,), 0.1)]
    assert check_outputs(expected, good) == (0, good)
    assert check_outputs(expected, good[:1])[0] == 1                    # missing
    assert check_outputs(expected, good + good[1:])[0] == 1            # duplicated
    assert check_outputs(expected, [good[0], Output("a", 2.0, (0,), (1.5,), 0.1)])[0] == 1
    assert check_outputs(expected, good + [Output("a", 9.0, (0,), (1.0,), 0.1)])[0] == 1


def _short(name: str, seed: int = 3):
    workload = WORKLOADS[name]
    jobs = workload.mix.build_jobs()
    return workload, jobs, generate_trace(workload, jobs, seed, duration=SHORT)


@pytest.fixture
def tap():
    tap = OutputTap()
    tap.install()
    yield tap
    tap.uninstall()


def _driven_and_replayed(workload, trace, seed: int, tap):
    """(driver-driven, replayed) engines of the same short run."""
    engines = []
    for replayed in (False, True):
        reset_message_ids()
        config = replace(workload.config(seed), record_completion_timeline=True)
        engine = make_engine(config, workload.mix.build_jobs())
        if replayed:
            TraceReplay(engine, trace).install()
        else:
            workload.mix.install_drivers(engine, list(engine.jobs.values()), SHORT)
        tap.outputs.clear()
        engine.run(until=SHORT + 2.0)
        engines.append((engine, list(tap.outputs)))
    return engines


@pytest.mark.parametrize("name", ["mt_cameo_sat", "mt_faults_ckpt"])
def test_replay_equals_drivers(name, tap):
    workload, _, trace = _short(name)
    (driven, driven_out), (replayed, replayed_out) = _driven_and_replayed(
        workload, trace, 3, tap)
    assert replayed.sim.fired_count == driven.sim.fired_count
    assert replayed.metrics.completion_log == driven.metrics.completion_log
    assert replayed_out == driven_out
    assert len(replayed_out) > 0


def test_outputs_match_the_reference_and_a_perturbed_one_fails(tap):
    workload, jobs, trace = _short("mt_cameo_sat")
    expected = reference(trace, jobs)
    rep = run_sim(workload, trace, 3, tap, setups=1, until=SHORT + 2.0)
    failed, correct = check_outputs(expected, rep.outputs)
    assert failed == 0 and len(correct) == len(expected) > 0
    first = rep.outputs[0]
    perturbed = [replace(first, values=(first.values[0] + 1.0,) + first.values[1:])]
    assert check_outputs(expected, perturbed + rep.outputs[1:])[0] == 1


def test_cameo_and_fifo_outputs_are_equal(tap):
    outputs = {}
    for name in ("mt_cameo_sat", "mt_fifo_sat"):
        workload, _, trace = _short(name)
        rep = run_sim(workload, trace, 3, tap, setups=1, until=SHORT + 2.0)
        outputs[name] = sorted((o.job, o.window_end, o.keys, o.values) for o in rep.outputs)
    assert outputs["mt_cameo_sat"] == outputs["mt_fifo_sat"]


def test_mp_workers_ship_outputs_and_spans(tap, tmp_path):
    workload, jobs, trace = _short("mp_flood")
    recorder = SpanRecorder()
    hooks = MpHooks(tmp_path, tap, recorder)
    hooks.install()
    tracer = Tracer(recorder)
    tracer.install(mp=True)
    try:
        rep = run_mp(workload, trace, 3, hooks, recorder, traced=True, until=SHORT)
    finally:
        tracer.uninstall()
        hooks.uninstall()
    assert rep.run_ok and len(rep.spans) == workload.nodes
    failed, _ = check_outputs(reference(trace, jobs), rep.outputs)
    assert failed == 0
    for spans in rep.spans:
        folded = fold(spans)
        assert folded["span_calls"]["mp.worker:worker_main"] == 1
        assert sum(folded["self_s"].values()) == pytest.approx(folded["root_s"])


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
