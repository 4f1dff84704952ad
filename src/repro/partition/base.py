"""Thread partitions and the partitioner interface.

A partition assigns every instruction of a function to one of ``n`` threads.
GMT schedulers (DSWP, GREMIO, ...) are *partitioners*: strategies producing
a partition from the PDG; MTCG then turns any partition into correct
multi-threaded code (the "plug different partitioners into the same
framework" structure of Figure 2 of the papers).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from ..analysis.pdg import PDG
from ..interp.profile import EdgeProfile
from ..ir.cfg import Function


class PartitionError(Exception):
    pass


class Partition:
    """An assignment of instruction iids to thread ids ``0..n_threads-1``."""

    def __init__(self, function: Function, n_threads: int,
                 assignment: Mapping[int, int]):
        self.function = function
        self.n_threads = n_threads
        self.assignment: Dict[int, int] = dict(assignment)
        self.validate()

    def validate(self) -> None:
        iids = {instruction.iid for instruction in
                self.function.instructions()}
        missing = iids - set(self.assignment)
        if missing:
            raise PartitionError("unassigned instructions: %s"
                                 % sorted(missing)[:10])
        extra = set(self.assignment) - iids
        if extra:
            raise PartitionError("assignment for unknown iids: %s"
                                 % sorted(extra)[:10])
        for iid, thread in self.assignment.items():
            if not 0 <= thread < self.n_threads:
                raise PartitionError("iid %d assigned to invalid thread %d"
                                     % (iid, thread))

    def thread_of(self, iid: int) -> int:
        return self.assignment[iid]

    def counts(self) -> Dict[int, int]:
        result = {thread: 0 for thread in range(self.n_threads)}
        for thread in self.assignment.values():
            result[thread] += 1
        return result

    def __repr__(self) -> str:  # pragma: no cover
        return "<Partition %s over %d threads: %s>" % (
            self.function.name, self.n_threads, self.counts())


class Partitioner:
    """Interface: produce a Partition from a function + PDG + profile."""

    name = "abstract"

    def partition(self, function: Function, pdg: PDG,
                  profile: EdgeProfile, n_threads: int) -> Partition:
        raise NotImplementedError


def single_thread_partition(function: Function,
                            n_threads: int = 1) -> Partition:
    """Everything on thread 0 (the degenerate, always-valid partition)."""
    return Partition(function, max(n_threads, 1),
                     {instruction.iid: 0
                      for instruction in function.instructions()})


def partition_from_threads(function: Function, n_threads: int,
                           thread_sets: Iterable[Iterable[int]]) -> Partition:
    """Build a partition from explicit per-thread iid sets (tests use it)."""
    assignment: Dict[int, int] = {}
    for thread, iids in enumerate(thread_sets):
        for iid in iids:
            if iid in assignment:
                raise PartitionError("iid %d in two threads" % iid)
            assignment[iid] = thread
    return Partition(function, n_threads, assignment)
