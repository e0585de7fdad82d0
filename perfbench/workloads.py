"""The benchmark's four workloads, their seeded input traces, and replay.

Every workload is the fig08 multi-tenant mix: 4 latency-sensitive (LS)
tenants at 1 msg/s/source and 4 bulk-analytics (BA) tenants, 4 sources
each, 1000 tuples per message, 30 s of simulated input.  They differ in
the scheduler, the BA rate, the cluster and the backend, so that each one
drives a different layer hardest (see ``WORKLOADS``).

The program never sees the seed's generators: :func:`generate_trace` runs
the repository's own ``SourceDriver``s against :class:`CaptureEngine` (the
duck-typed ``.sim``/``.rng``/``.ingest`` surface the drivers use, as the mp
backend's capture phase does) and keeps what they ingest.  The timed run
then feeds that trace to a real engine through :class:`TraceReplay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.experiments.common import TenantMix
from repro.runtime.config import EngineConfig
from repro.sim.faults import ChannelLoss, CrashWindow, FaultSchedule
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import (
    FixedBatchSize,
    PeriodicArrivals,
    drive_all_sources,
)

#: simulated seconds of source input in every workload
DURATION = 30.0
#: simulated seconds the engines keep running after the last input (the
#: last sink output of every workload lands before 31 s)
DRAIN = 5.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a tenant mix on a cluster under a scheduler."""

    name: str
    why: str
    scheduler: str
    ba_rate: float
    nodes: int
    workers_per_node: int
    overrides: dict = field(default_factory=dict)

    @property
    def backend(self) -> str:
        return self.overrides.get("backend", "sim")

    @property
    def mix(self) -> TenantMix:
        return TenantMix(ls_count=4, ba_count=4, ba_msg_rate=self.ba_rate)

    def sim_twin(self) -> "Workload":
        """The same cell on the sim backend."""
        overrides = {k: v for k, v in self.overrides.items()
                     if k != "backend" and not k.startswith("mp_")}
        return replace(self, overrides=overrides)

    def config(self, seed: int) -> EngineConfig:
        return EngineConfig(
            scheduler=self.scheduler,
            nodes=self.nodes,
            workers_per_node=self.workers_per_node,
            seed=seed,
            **self.overrides,
        )


def _fault_schedule() -> FaultSchedule:
    """Node 1 down for 8-14 s plus 1 % loss on every cross-node hop."""
    return FaultSchedule(
        crashes=[CrashWindow(node=1, start=8.0, end=14.0)],
        losses=[ChannelLoss(rate=0.01, scope="remote", end=DURATION)],
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mt_cameo_sat",
            "fig08a past saturation under Cameo LLF: deep mailboxes make "
            "priority generation and the two-level run queue do the most work",
            scheduler="cameo", ba_rate=100.0, nodes=2, workers_per_node=2,
        ),
        Workload(
            "mt_fifo_sat",
            "the same trace and cluster under FIFO: no contexts or priority "
            "queues run, so a change to Cameo's core should leave it flat",
            scheduler="fifo", ba_rate=100.0, nodes=2, workers_per_node=2,
        ),
        Workload(
            "mt_faults_ckpt",
            "a node crash plus 1% remote loss with checkpointed state: "
            "go-back-N, retransmits, snapshots and replay run beside delivery",
            scheduler="cameo", ba_rate=60.0, nodes=3, workers_per_node=2,
            overrides={
                "fault_schedule": _fault_schedule(),
                "state_recovery": "checkpoint",
                "checkpoint_interval": 1.0,
            },
        ),
        Workload(
            "mp_flood",
            "the fig08 cell flooded through 2 worker processes with no cost "
            "realisation: pure mp runtime overhead (latencies: its sim twin)",
            scheduler="cameo", ba_rate=60.0, nodes=2, workers_per_node=1,
            overrides={
                "backend": "mp",
                "mp_realtime": False,
                "mp_cost_mode": "none",
                "placement": "pack_by_job",
            },
        ),
    )
}


@dataclass
class Trace:
    """Everything the sources ingest, grouped per source.

    ``sources[i]`` is ``(job, stage, index)`` in the order the drivers were
    installed; ``entries[i]`` lists that source's ingests as ``(time,
    logical_times, values, keys, sorted_times)`` in firing order."""

    sources: list[tuple[str, str, int]]
    entries: list[list[tuple]]


class CaptureEngine:
    """The engine surface a ``SourceDriver`` touches, recording its ingests."""

    def __init__(self, seed: int):
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self._index: dict[tuple[str, str, int], int] = {}
        self.trace = Trace([], [])

    def add_source(self, job: str, stage: str, index: int) -> None:
        self._index[(job, stage, index)] = len(self.trace.sources)
        self.trace.sources.append((job, stage, index))
        self.trace.entries.append([])

    def ingest(self, job_name, stage_name, source_index, logical_times,
               values=None, keys=None, sorted_times=False) -> None:
        slot = self._index[(job_name, stage_name, source_index)]
        self.trace.entries[slot].append(
            (self.sim.now, logical_times, values, keys, sorted_times)
        )


def install_drivers(engine, workload: Workload, jobs: list,
                    duration: float = DURATION) -> list:
    """Install the mix's ``SourceDriver``s on ``engine`` (real or capture),
    exactly as ``TenantMix.install_drivers`` does; returns the drivers in
    installation order."""
    mix = workload.mix
    drivers = []
    for job in jobs:
        rate = mix.ls_msg_rate if job.group == "LS" else mix.ba_msg_rate
        drivers += drive_all_sources(
            engine, job, lambda s, i, rate=rate: PeriodicArrivals(1.0 / rate),
            sizer=FixedBatchSize(mix.tuples_per_msg), until=duration,
        )
    return drivers


def generate_trace(workload: Workload, jobs: list, seed: int,
                   duration: float = DURATION) -> Trace:
    """Run the workload's drivers against a capture engine; keep the trace."""
    capture = CaptureEngine(seed)
    for driver in install_drivers(capture, workload, jobs, duration):
        capture.add_source(driver.job.name, driver.stage_name, driver.index)
    capture.sim.run()
    return capture.trace


class TraceReplay:
    """Feeds a captured trace into ``engine.ingest`` from the engine's own
    kernel: one chained event per source, each ingest scheduling the next,
    installed in the drivers' order — the kernel sees the same schedule
    calls in the same order as a driver-driven run."""

    def __init__(self, engine, trace: Trace):
        self._engine = engine
        self._trace = trace

    def install(self) -> None:
        schedule = self._engine.sim.schedule_at_fast
        for slot, entries in enumerate(self._trace.entries):
            if entries:
                schedule(entries[0][0], self._fire, slot, 0)

    def _fire(self, slot: int, position: int) -> None:
        job, stage, index = self._trace.sources[slot]
        entries = self._trace.entries[slot]
        _, times, values, keys, sorted_times = entries[position]
        engine = self._engine
        engine.ingest(job, stage, index, times, values=values, keys=keys,
                      sorted_times=sorted_times)
        position += 1
        if position < len(entries):
            engine.sim.schedule_at_fast(entries[position][0], self._fire,
                                        slot, position)
