"""Process-backed execution backend (``backend="mp"``).

Each node of the configured cluster runs as a real worker process that
replays its shard of a deterministically captured ingest trace; workers
exchange framed, batched messages over multiprocessing pipes through a
:class:`~repro.runtime.mp.transport.ProcessTransport`
implementing the same ingest/deliver/route/reply surface as the simulated
:class:`~repro.runtime.transport.Transport`.  The reliability layer over
those channels is :class:`~repro.runtime.mp.reliable.MpReliableDelivery`,
a wall-clock driver of the same go-back-N channel core
(:class:`~repro.runtime.recovery.ReliableChannel`) the sim backend runs.
See ``docs/architecture.md`` ("Process backend") for the frame format,
the ack flow, the FIFO-order argument and the determinism caveats
relative to the sim backend.
"""

from repro.runtime.mp.engine import MpStreamEngine

__all__ = ["MpStreamEngine"]
