"""Queue allocation: mapping communication channels to physical queues.

MTCG gives every channel its own queue for simplicity; the papers note
that "a queue-allocation algorithm can reduce the number of queues
necessary" (the synchronization array has 256).  This pass lets channels
share a physical queue when that is provably safe:

Two channels may share iff both of the following hold:

* they connect the **same producer thread to the same consumer thread** —
  then all pushes are ordered by the producer's program order and all
  pops by the consumer's, so the FIFO pairs them correctly; and
* every program point of one channel strictly precedes every point of
  the other in the CFG's acyclic (SCC-condensed) order — so their point
  regions never interleave across a loop.

Anything weaker is unsound: in particular, sharing a queue between
``T0 -> T1`` (early region) and ``T1 -> T0`` (late region) deadlocks even
though the *push* streams are ordered, because the two channels have
different consumer threads and the later consumer can race ahead of the
earlier one and steal its pending value from the shared FIFO.  (This was
observed on a real schedule; see tests/test_queue_allocation.py.)

Channels that do not satisfy the rule conflict; a greedy
interference-graph coloring assigns physical ids.  The allocator fails
loudly if the machine's queue count is exceeded.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..graphs import condense
from ..ir.cfg import Function
from .channels import CommChannel


class QueueAllocationError(Exception):
    pass


class QueueAllocation:
    """Result: physical id per channel plus accounting."""

    def __init__(self, physical: Dict[int, int], n_physical: int,
                 n_channels: int):
        self.physical = physical      # channel index -> physical queue id
        self.n_physical = n_physical
        self.n_channels = n_channels

    def __repr__(self) -> str:  # pragma: no cover
        return "<QueueAllocation %d channels -> %d queues>" % (
            self.n_channels, self.n_physical)


def _block_scc_order(function: Function) -> Dict[str, int]:
    """Topological position of each block's CFG strongly connected
    component (blocks of one loop share a position)."""
    successors = {block.label: list(block.successors())
                  for block in function.blocks}
    _, component_of, _ = condense([b.label for b in function.blocks],
                                  successors)
    return component_of


def _channel_span(channel: CommChannel,
                  order: Dict[str, int]) -> Tuple[int, int]:
    positions = [order[point.block] for point in channel.points
                 if point.block in order]
    if not positions:
        return (0, 1 << 30)
    return (min(positions), max(positions))


def _may_share(first: CommChannel, second: CommChannel,
               order: Dict[str, int]) -> bool:
    """True iff the channels connect the same (producer, consumer) pair
    and their point regions are strictly ordered (see module docstring)."""
    if (first.source_thread, first.target_thread) \
            != (second.source_thread, second.target_thread):
        return False
    first_span = _channel_span(first, order)
    second_span = _channel_span(second, order)
    return (first_span[1] < second_span[0]
            or second_span[1] < first_span[0])


def allocate_queues(channels: Sequence[CommChannel], function: Function,
                    max_queues: int = 256,
                    allow_sharing: bool = True) -> QueueAllocation:
    """Assign physical queue ids to ``channels`` (mutates their ``queue``
    fields).  With ``allow_sharing`` disabled, this is a dense 1:1
    renumbering with a capacity check."""
    order = _block_scc_order(function)
    n = len(channels)
    physical: Dict[int, int] = {}
    # Greedy coloring in channel order; colors carry their member sets so
    # a channel must be shareable with *every* member of a color.
    color_members: List[List[int]] = []
    for index, channel in enumerate(channels):
        chosen = -1
        if allow_sharing:
            for color, members in enumerate(color_members):
                if all(_may_share(channels[m], channel, order)
                       for m in members):
                    chosen = color
                    break
        if chosen < 0:
            color_members.append([])
            chosen = len(color_members) - 1
        color_members[chosen].append(index)
        physical[index] = chosen

    n_physical = len(color_members)
    if n_physical > max_queues:
        raise QueueAllocationError(
            "%d physical queues needed, machine has %d"
            % (n_physical, max_queues))
    for index, channel in enumerate(channels):
        channel.queue = physical[index]
    return QueueAllocation(physical, n_physical, n)


def check_cluster_capacity(channels: Sequence[CommChannel], topology,
                           placement=None) -> Dict[int, int]:
    """Check the per-cluster queue budget of a clustered topology.

    Each physical queue lives in its *producer* core's cluster (the
    synchronization-array slice the produce writes into).  ``placement``
    maps thread -> core (identity by default).  Returns the per-cluster
    physical-queue counts; raises :class:`QueueAllocationError` when any
    cluster needs more queues than its slice provides.  Single-cluster
    topologies reduce to the global ``max_queues`` check above.
    """
    cores = getattr(placement, "cores", placement)
    per_cluster: Dict[int, set] = {}
    for channel in channels:
        if channel.queue is None:
            continue
        core = (cores[channel.source_thread] if cores is not None
                else channel.source_thread)
        cluster = topology.cluster_of(min(core, topology.n_cores - 1))
        per_cluster.setdefault(cluster, set()).add(channel.queue)
    counts = {cluster: len(queues)
              for cluster, queues in sorted(per_cluster.items())}
    for cluster, count in counts.items():
        if count > topology.sa_queues:
            raise QueueAllocationError(
                "cluster %d needs %d physical queues, its "
                "synchronization-array slice has %d (topology %r)"
                % (cluster, count, topology.sa_queues, topology.name))
    return counts
