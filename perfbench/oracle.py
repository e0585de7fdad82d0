"""Independent output reference and the output check.

Every job in the benchmark is a keyed windowed sum, so its sink output for
one window is, per key, the sum of the values ingested with that key into
that window.  :func:`reference` computes this with numpy straight from the
generated trace, sharing no code with the engine's operators.  A window is
expected once every source of its job has ingested past the window's end.

The engine's outputs are collected by :class:`OutputTap`, a wrapper around
``SinkOperator.on_message`` installed from outside; :func:`check_outputs`
compares them against the reference.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.dataflow.operators import SinkOperator


@dataclass(frozen=True)
class Output:
    """One sink emission: a window's per-key results and its latency."""

    job: str
    window_end: float
    keys: tuple
    values: tuple
    latency: float


def reference(trace, jobs: list) -> dict:
    """``{(job, window_end): {key: sum}}`` for every window that must fire."""
    slots: dict[str, list[int]] = {}
    for slot, (job, _stage, _index) in enumerate(trace.sources):
        slots.setdefault(job, []).append(slot)
    expected: dict = {}
    for job in jobs:
        size = next(
            stage.window.size
            for stage in map(job.graph.stage, job.graph.stage_names)
            if stage.window is not None
        )
        batches = [e for slot in slots.get(job.name, ()) for e in trace.entries[slot]]
        if not batches:
            continue
        times = np.concatenate([np.asarray(b[1], dtype=np.float64) for b in batches])
        keys = np.concatenate([np.asarray(b[3], dtype=np.int64) for b in batches])
        values = np.concatenate([
            np.ones(len(b[1])) if b[2] is None else np.asarray(b[2], dtype=np.float64)
            for b in batches
        ])
        # a window fires when every source's progress reaches its end
        frontier = min(
            float(np.max(trace.entries[slot][-1][1])) for slot in slots[job.name]
        )
        ends = (np.floor(times / size) + 1.0) * size
        for end in np.unique(ends):
            if end > frontier:
                continue
            mask = ends == end
            sums = np.bincount(keys[mask], weights=values[mask])
            present = np.flatnonzero(np.bincount(keys[mask]))
            expected[(job.name, float(end))] = {
                int(k): float(sums[k]) for k in present
            }
    return expected


def check_outputs(expected: dict, outputs: list) -> tuple[int, list]:
    """Count failed outputs and return the correct ones.

    An expected window fails when it is missing, emitted more than once,
    or emitted with per-key results that differ from the reference; an
    emission for a window the reference does not expect also fails."""
    seen = Counter((o.job, o.window_end) for o in outputs)
    failed = 0
    correct = []
    for out in outputs:
        want = expected.get((out.job, out.window_end))
        if want is None:
            failed += 1
        elif seen[(out.job, out.window_end)] == 1 and dict(zip(out.keys, out.values)) == want:
            correct.append(out)
    failed += len(expected) - len(correct)
    return failed, correct


def on_time_fraction(expected: dict, correct: list, jobs: list, group: str) -> float:
    """Correct on-time outputs of ``group`` over the windows it must emit."""
    constraint = {j.name: j.latency_constraint for j in jobs if j.group == group}
    windows = sum(1 for job, _ in expected if job in constraint)
    on_time = sum(
        1 for o in correct if o.job in constraint and o.latency <= constraint[o.job]
    )
    return on_time / windows if windows else math.nan


class OutputTap:
    """Records every non-empty sink message while installed.

    Works across ``fork``: each process appends to its own copy of
    ``outputs``, which the mp wrapper ships back to the parent."""

    def __init__(self):
        self.outputs: list[Output] = []
        self._original = None

    def install(self) -> None:
        original = SinkOperator.on_message
        self._original = original
        outputs = self.outputs

        def on_message(op, msg, now):
            result = original(op, msg, now)
            batch = msg.batch
            if batch is not None and len(batch) > 0:
                outputs.append(Output(
                    op.address.job, float(msg.p),
                    tuple(int(k) for k in batch.keys),
                    tuple(float(v) for v in batch.values),
                    now - msg.t,
                ))
            return result

        SinkOperator.on_message = on_message

    def uninstall(self) -> None:
        if self._original is not None:
            SinkOperator.on_message = self._original
            self._original = None
