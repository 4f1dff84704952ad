"""Shared state of the timing simulator.

The per-cluster synchronization-array port budget, the timestamped
queues, the timed-run result, and the inter-cluster queue penalties.
The product simulator (:mod:`repro.machine.fast_timing`) and its oracle
(:mod:`repro.check.reference_timing`) both run on these classes, so
their interleaving-sensitive behaviour has one implementation.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, List, Optional, Sequence

from ..interp.state import Memory
from ..mtcg.program import MTProgram
from .config import MachineConfig
from .functional import FifoQueues


class SAPortSchedule:
    """Global per-cycle budget of synchronization-array ports."""

    #: Prune the booking dict once it holds this many cycle entries.
    PRUNE_THRESHOLD = 4096

    def __init__(self, ports: int):
        self.ports = ports
        self.booked: Dict[int, int] = {}

    def next_free(self, cycle: int) -> int:
        while self.booked.get(cycle, 0) >= self.ports:
            cycle += 1
        return cycle

    def book(self, cycle: int) -> None:
        self.booked[cycle] = self.booked.get(cycle, 0) + 1

    def prune(self, watermark: int) -> None:
        """Drop bookings below ``watermark`` so long simulations don't
        grow the dict monotonically.

        Safe whenever every future ``next_free(t)`` query has
        ``t >= watermark``: cores only ever query at or above their own
        ``min_issue``, which never decreases, so the minimum
        ``min_issue`` over live cores is a valid watermark.
        """
        stale = [cycle for cycle in self.booked if cycle < watermark]
        for cycle in stale:
            del self.booked[cycle]


class TimedQueues(FifoQueues):
    """FIFO queues carrying value-availability timestamps.

    The simulator stages the producer-side availability time before letting
    the context execute a produce, and reads the timestamp of the popped
    value after a consume.
    """

    def __init__(self, n_queues: int, capacity: int):
        super().__init__(n_queues, capacity)
        self.timestamps: List[deque] = [deque() for _ in range(n_queues)]
        self.pop_times: List[deque] = [deque(maxlen=max(capacity, 1))
                                       for _ in range(n_queues)]
        self.push_counts = [0] * n_queues
        self.pop_counts = [0] * n_queues
        self.staged_push_time = 0.0
        self.last_popped_time = 0.0
        # Event-seq mirrors of the timestamp bookkeeping, threading
        # cross-thread dependence edges through the queues when tracing.
        self.producer_seqs: List[deque] = [deque() for _ in range(n_queues)]
        self.pop_seqs: List[deque] = [deque(maxlen=max(capacity, 1))
                                      for _ in range(n_queues)]
        self.staged_push_seq: Optional[int] = None
        self.last_popped_seq: Optional[int] = None

    def try_push(self, queue: int, value) -> bool:
        if not super().try_push(queue, value):
            return False
        self.timestamps[queue].append(self.staged_push_time)
        self.producer_seqs[queue].append(self.staged_push_seq)
        self.push_counts[queue] += 1
        return True

    def try_pop(self, queue: int):
        ok, value = super().try_pop(queue)
        if ok:
            self.last_popped_time = self.timestamps[queue].popleft()
            self.last_popped_seq = self.producer_seqs[queue].popleft()
            self.pop_counts[queue] += 1
        return ok, value

    def slot_free_time(self, queue: int) -> float:
        """Earliest cycle the next push has a free slot (back-pressure)."""
        pushes = self.push_counts[queue]
        if pushes < self.capacity:
            return 0.0
        # The (pushes - capacity)-th pop freed the slot; pop_times keeps the
        # last `capacity` pop completion times.
        index = (pushes - self.capacity) - (self.pop_counts[queue]
                                            - len(self.pop_times[queue]))
        return self.pop_times[queue][index]

    def slot_free_seq(self, queue: int) -> Optional[int]:
        """Event seq of the consume that freed the next push's slot."""
        pushes = self.push_counts[queue]
        if pushes < self.capacity:
            return None
        index = (pushes - self.capacity) - (self.pop_counts[queue]
                                            - len(self.pop_seqs[queue]))
        return self.pop_seqs[queue][index]

    def record_pop_completion(self, queue: int, cycle: float,
                              seq: Optional[int] = None) -> None:
        self.pop_times[queue].append(cycle)
        self.pop_seqs[queue].append(seq)


class TimedResult:
    """Outcome of a timed multi-threaded (or single-threaded) run."""

    def __init__(self, cycles: float, core_finish: List[float],
                 per_thread_instructions: List[int],
                 per_thread_communication: List[int],
                 opcode_counts: Counter, live_outs: Dict[str, object],
                 memory: Memory, cache_stats: Dict[str, int],
                 queues: Optional[TimedQueues],
                 comm_stats: Optional[Dict[str, float]] = None):
        self.cycles = cycles
        self.core_finish = core_finish
        self.per_thread_instructions = per_thread_instructions
        self.per_thread_communication = per_thread_communication
        self.opcode_counts = opcode_counts
        self.live_outs = live_outs
        self.memory = memory
        self.cache_stats = cache_stats
        self.queues = queues
        self.comm_stats = comm_stats or {}

    @property
    def dynamic_instructions(self) -> int:
        return sum(self.per_thread_instructions)

    @property
    def communication_instructions(self) -> int:
        return sum(self.per_thread_communication)

    @property
    def computation_instructions(self) -> int:
        return self.dynamic_instructions - self.communication_instructions

    def __repr__(self) -> str:  # pragma: no cover
        return "<TimedResult %.0f cycles, %d instrs>" % (
            self.cycles, self.dynamic_instructions)


def queue_crossing_penalties(program: MTProgram, config: MachineConfig,
                             placement: Optional[Sequence[int]] = None
                             ) -> Optional[List[int]]:
    """Per-physical-queue inter-cluster latency under ``placement``
    (identity by default): a channel whose placed producer and consumer
    cores sit in different clusters pays the topology's crossing penalty
    on every consume.  ``None`` on any flat machine — queue sharing only
    ever pairs channels of one (producer, consumer) thread pair, so the
    per-queue penalty is well defined."""
    topo = config.resolve_topology()
    if topo.n_clusters == 1 or not program.n_queues:
        return None
    if placement is None:
        placement = tuple(range(program.n_threads))
    penalties = [0] * program.n_queues
    for channel in program.channels:
        if channel.queue is None:
            continue
        crossing = topo.crossing(placement[channel.source_thread],
                                 placement[channel.target_thread])
        penalties[channel.queue] = max(penalties[channel.queue], crossing)
    return penalties
