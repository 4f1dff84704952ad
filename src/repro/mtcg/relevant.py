"""Relevant branches, blocks, and points (Definitions 1 and 2).

A branch is *relevant* to a thread if the thread must contain it — because
it was assigned there, because it controls the insertion point of one of
the thread's input dependences, or because it controls another relevant
branch.  Relevant branches are exactly the branches a thread's generated
CFG replicates; every relevant branch not assigned to the thread needs its
condition communicated (the "transitive control dependences" of MTCG).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.control_dependence import (ControlDependenceGraph,
                                           control_dependence_graph)
from ..analysis.pdg import PDG, DepKind
from ..ir.cfg import Function
from ..partition.base import Partition
from .channels import CommChannel, Point


class RelevanceInfo:
    """Per-thread relevant branch/block sets for one partition."""

    def __init__(self, function: Function, partition: Partition,
                 cdg: ControlDependenceGraph,
                 relevant_branches: Dict[int, Set[str]],
                 relevant_blocks: Dict[int, Set[str]]):
        self.function = function
        self.partition = partition
        self.cdg = cdg
        # thread -> labels of blocks whose terminating branch the thread
        # must contain (assigned or duplicated).
        self.relevant_branches = relevant_branches
        self.relevant_blocks = relevant_blocks

    def duplicated_branches(self, thread: int) -> List[str]:
        """Relevant branch blocks whose branch is assigned elsewhere."""
        result = []
        for label in sorted(self.relevant_branches.get(thread, set())):
            branch = self.function.block(label).terminator
            if self.partition.thread_of(branch.iid) != thread:
                result.append(label)
        return result


def compute_relevance(function: Function, pdg: PDG, partition: Partition,
                      data_channels: List[CommChannel],
                      cdg: Optional[ControlDependenceGraph] = None
                      ) -> RelevanceInfo:
    """Compute relevant branches (Definition 1) and relevant blocks for
    every thread, given the chosen data-channel insertion points."""
    if cdg is None:
        cdg = pdg.cdg if pdg is not None else control_dependence_graph(
            function)
    block_of = function.block_of()
    n = partition.n_threads

    relevant_branches: Dict[int, Set[str]] = {t: set() for t in range(n)}

    def add_with_controllers(thread: int, branch_block: str) -> None:
        if branch_block in relevant_branches[thread]:
            return
        relevant_branches[thread].add(branch_block)
        for controller in cdg.transitive_controlling_branches(branch_block):
            add_with_controllers(thread, controller)

    # Rule 1: branches assigned to the thread (plus rule-3 closure).
    for instruction in function.instructions():
        if instruction.is_branch():
            thread = partition.thread_of(instruction.iid)
            label = block_of[instruction.iid]
            relevant_branches[thread].add(label)
            for controller in cdg.transitive_controlling_branches(label):
                add_with_controllers(thread, controller)

    # Cross-thread control arcs: the branch must be replicated in the
    # target thread (plus closure).
    for arc in pdg.arcs_of_kind(DepKind.CONTROL):
        source_thread = partition.thread_of(arc.source)
        target_thread = partition.thread_of(arc.target)
        if source_thread == target_thread:
            continue
        add_with_controllers(target_thread, block_of[arc.source])

    # Rule 2: branches controlling the insertion points of the thread's
    # input dependences (plus closure).
    for channel in data_channels:
        for point in channel.points:
            for controller in cdg.transitive_controlling_branches(
                    point.block):
                add_with_controllers(channel.target_thread, controller)

    # Relevant blocks: blocks holding the thread's instructions, blocks of
    # channel endpoints, and blocks of relevant branches.
    relevant_blocks: Dict[int, Set[str]] = {t: set() for t in range(n)}
    for instruction in function.instructions():
        relevant_blocks[partition.thread_of(instruction.iid)].add(
            block_of[instruction.iid])
    for channel in data_channels:
        for point in channel.points:
            relevant_blocks[channel.source_thread].add(point.block)
            relevant_blocks[channel.target_thread].add(point.block)
    for thread in range(n):
        relevant_blocks[thread] |= relevant_branches[thread]

    return RelevanceInfo(function, partition, cdg, relevant_branches,
                         relevant_blocks)


def control_channels(function: Function, partition: Partition,
                     relevance: RelevanceInfo,
                     condition_covered=frozenset()) -> List[CommChannel]:
    """One condition channel per (duplicated branch, target thread): the
    branch's home thread sends the condition register right before the
    branch; the target consumes it and executes the duplicate.

    ``condition_covered`` lists (branch block, thread) pairs whose
    condition operand already arrives via an optimized register channel
    (COCO's merging of branch operands into data communication) — those
    duplicates read the register directly and need no condition channel.
    """
    channels: List[CommChannel] = []
    position = function.position_of()
    for thread in range(partition.n_threads):
        for label in relevance.duplicated_branches(thread):
            if (label, thread) in condition_covered:
                continue
            branch = function.block(label).terminator
            home = partition.thread_of(branch.iid)
            point = Point(label, position[branch.iid][1])
            channels.append(CommChannel(
                DepKind.CONTROL, home, thread, branch.srcs[0], [point],
                arcs=[], branch_iid=branch.iid, source_iid=branch.iid))
    channels.sort(key=lambda c: (c.branch_iid, c.target_thread))
    return channels
