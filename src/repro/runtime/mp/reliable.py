"""Wall-clock driver of the go-back-N channel for the process backend.

The channel protocol itself — sequence numbers, cumulative ``(admitted,
processed)`` acknowledgements, in-order admission with out-of-order
buffering, duplicate suppression, and go-back-N replay under capped
exponential backoff — is :class:`~repro.runtime.recovery.ReliableChannel`,
the one definition the simulated
:class:`~repro.runtime.recovery.ReliableDelivery` drives too.  This
module drives it across processes: the sender half lives in the
producing worker, the receiver half in the consuming worker, and the two
exchange information only through ``DATA`` frame entries.

There is no event heap in a worker, so retransmit timers are polled: the
dispatch loop calls :meth:`MpReliableDelivery.due_retransmits` every
iteration and bounds its idle wait by :meth:`~MpReliableDelivery.
next_deadline`; a timer is due ``rto`` after the ``armed_at`` instant.

A channel is identified by ``(msg.sender, msg.target)`` — exactly the key
the simulated layer uses — so the per-channel FIFO guarantee (§4.3) is
enforced end to end: the receiver admits messages to mailboxes strictly
in sequence order (the transport's admission audit counts violations; it
must stay zero).

Loss injection (``mp_loss_rate``) drops incoming data entries *before*
the receiver half sees them, simulating a lossy network over the real
(reliable, FIFO) pipes — the knob that lets tests prove the go-back-N
path works across real process boundaries.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dataflow.messages import Message
from repro.runtime.recovery import QUEUED, STALE, ReliableChannel


class MpReliableDelivery:
    """Both halves of every reliable channel one worker participates in."""

    def __init__(self, clock: Callable[[], float], rto: float, rto_cap: float,
                 metrics, loss_rate: float = 0.0, loss_rng=None):
        if rto <= 0 or rto_cap < rto:
            raise ValueError("need 0 < rto <= rto_cap")
        self._clock = clock
        self._rto_initial = rto
        self._rto_cap = rto_cap
        self._metrics = metrics
        self._loss_rate = loss_rate
        self._loss_rng = loss_rng
        self._senders: dict[tuple, ReliableChannel] = {}
        self._receivers: dict[tuple, ReliableChannel] = {}
        #: channels whose cumulative ack changed since the last drain
        self._ack_dirty: set[tuple] = set()
        #: span recorder (None = tracing off: zero hot-path residue)
        self._tracer = None

    def attach_tracer(self, tracer) -> None:
        """Install the worker's span recorder (observability plane)."""
        self._tracer = tracer

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------

    def send(self, msg: Message) -> Message:
        """Assign the channel sequence number and retain for retransmit."""
        key = (msg.sender, msg.target)
        state = self._senders.get(key)
        if state is None:
            state = self._senders[key] = ReliableChannel(self._rto_initial)
        state.sequence(msg)
        if state.armed_at is None:
            state.armed_at = self._clock()
        if self._tracer is not None:
            self._tracer.on_transmit(msg, self._clock())
        return msg

    def _restart_timer(self, state: ReliableChannel) -> None:
        """Re-arm from the initial RTO while anything awaits admission."""
        state.rto = self._rto_initial
        state.armed_at = self._clock() if state.needs_retransmit() else None

    def on_ack(self, key: tuple, admitted: int, processed: int) -> None:
        state = self._senders.get(key)
        if state is not None and state.ack(admitted, processed):
            state.release(False)
            self._restart_timer(state)  # fresh news: restart the backoff clock

    def due_retransmits(self, now: float) -> list[Message]:
        """Go-back-N replays for every channel whose timer expired.

        Doubles the channel's RTO (capped) and re-arms.  The caller
        enqueues the returned messages on the appropriate outboxes."""
        replays: list[Message] = []
        metrics, tracer = self._metrics, self._tracer
        for state in self._senders.values():
            if state.armed_at is None or now < state.armed_at + state.rto:
                continue
            expired = state.expire(now, self._rto_initial, self._rto_cap)
            if expired is None:
                continue
            stall, msgs = expired
            metrics.retransmit_backoff_time += stall
            metrics.retransmissions += len(msgs)
            if tracer is not None:
                for msg in msgs:
                    # stall since the last wire attempt, then the replay
                    # itself becomes the new last attempt
                    tracer.on_retransmit(msg, now)
                    tracer.on_transmit(msg, now)
            replays.extend(msgs)
            state.armed_at = now
        return replays

    def next_deadline(self) -> Optional[float]:
        """Earliest armed retransmit instant (bounds the idle wait)."""
        return min((s.armed_at + s.rto for s in self._senders.values()
                    if s.armed_at is not None), default=None)

    def reset_sender(self, key: tuple) -> Optional[tuple[int, list[Message]]]:
        """Fail-over: the channel's receiver died with its node.

        Rolls delivery knowledge back to the processed watermark (admitted
        -but-unprocessed messages died in the lost mailboxes) and returns
        ``(base_seq, replays)``: the new admission base the caller must
        announce to the operator's new home with a ``reset`` entry, and
        the unprocessed suffix to replay after it."""
        state = self._senders.get(key)
        if state is None:
            return None
        state.admitted_w = state.processed_w
        self._restart_timer(state)
        return state.processed_w + 1, state.unadmitted()

    def sender_channels_to(self, targets: set) -> list[tuple]:
        """Channel keys whose destination operator is in ``targets``."""
        return [key for key in self._senders if key[1] in targets]

    def forget_sender(self, key: tuple) -> None:
        """Drop a sender channel entirely (it collapsed to a local edge
        after a fail-over moved its receiver onto this very node)."""
        self._senders.pop(key, None)

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------

    def _receiver(self, key: tuple) -> ReliableChannel:
        state = self._receivers.get(key)
        if state is None:
            state = self._receivers[key] = ReliableChannel()
        return state

    def on_data(self, msg: Message) -> list[Message]:
        """One incoming data entry; returns messages admitted *in order*.

        Applies loss injection first (the simulated lossy network), then
        the channel's dedupe / in-order admission decision."""
        if self._loss_rate > 0 and self._loss_rng.random() < self._loss_rate:
            self._metrics.messages_lost_network += 1
            return []
        key = (msg.sender, msg.target)
        admitted = self._receiver(key).arrive(msg)
        if admitted is STALE or admitted is QUEUED:
            self._metrics.duplicates_dropped += 1
            if admitted is STALE:
                self._ack_dirty.add(key)  # refresh the sender's cumulative view
            return []
        admitted = list(admitted)
        if admitted:
            self._ack_dirty.add(key)
        return admitted

    def install_reset(self, key: tuple, base_seq: int) -> None:
        """A sender re-incarnated the channel (fail-over): admit from
        ``base_seq``, treating everything below it as processed."""
        self._receiver(key).roll_back(base_seq - 1)
        self._ack_dirty.add(key)

    def drop_receivers_from(self, senders: set) -> None:
        """Forget receiver state of channels whose *sender* operator died:
        the reborn sender starts a fresh sequence space."""
        for key in [k for k in self._receivers if k[0] in senders]:
            del self._receivers[key]
            self._ack_dirty.discard(key)

    def on_processed(self, msg: Message) -> None:
        """Final disposition of a message (executed or dropped)."""
        key = (msg.sender, msg.target)
        state = self._receivers.get(key)
        if state is None:
            return
        state.mark_processed(msg.seq)
        self._ack_dirty.add(key)

    def drain_acks(self) -> list[tuple]:
        """Coalesced cumulative acks since the last drain: one
        ``(channel_key, admitted, processed)`` triple per dirty channel."""
        acks = []
        for key in self._ack_dirty:
            state = self._receivers.get(key)
            if state is not None:
                acks.append((key, state.next_admit - 1, state.watermark))
        self._ack_dirty.clear()
        return acks

    # -- introspection -------------------------------------------------

    def idle(self) -> bool:
        """No unacked sends, no buffered receives, no pending acks."""
        return (
            all(not s.unacked for s in self._senders.values())
            and all(not r.pending for r in self._receivers.values())
            and not self._ack_dirty
        )

    def outstanding_total(self) -> int:
        """Unacked in-flight messages across all sender channels (the
        telemetry bus's retransmit-pressure sensor)."""
        return sum(len(s.unacked) for s in self._senders.values())

    @property
    def channel_count(self) -> int:
        return len(self._senders) + len(self._receivers)
