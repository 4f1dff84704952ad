"""Natural loops and the loop-nest forest.

The loop-nest forest is GREMIO's scheduling hierarchy: the scheduler works
level by level, treating each inner loop as a single schedulable unit with a
profile-estimated latency, and recursing into it afterwards.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.cfg import Function
from .dominators import dominator_tree


class Loop:
    """One natural loop: header, member blocks, and nested children."""

    def __init__(self, header: str):
        self.header = header
        self.blocks: Set[str] = {header}
        self.back_edge_sources: Set[str] = set()
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []
        self.depth = 1

    @property
    def exclusive_blocks(self) -> Set[str]:
        """Blocks in this loop but in none of its children."""
        nested: Set[str] = set()
        for child in self.children:
            nested |= child.blocks
        return self.blocks - nested

    def contains_block(self, label: str) -> bool:
        return label in self.blocks

    def __repr__(self) -> str:  # pragma: no cover
        return "<Loop header=%s depth=%d blocks=%d>" % (
            self.header, self.depth, len(self.blocks))


class LoopNestForest:
    """All loops of a function, organized by nesting."""

    def __init__(self, function: Function, top_level: List[Loop],
                 by_header: Dict[str, Loop]):
        self.function = function
        self.top_level = top_level
        self.by_header = by_header

    def all_loops(self) -> List[Loop]:
        result: List[Loop] = []
        stack = list(self.top_level)
        while stack:
            loop = stack.pop()
            result.append(loop)
            stack.extend(loop.children)
        result.sort(key=lambda lp: (lp.depth, lp.header))
        return result

    def depth_by_block(self) -> Dict[str, int]:
        depth: Dict[str, int] = {b.label: 0 for b in self.function.blocks}
        for loop in self.all_loops():
            for label in loop.blocks:
                depth[label] = max(depth[label], loop.depth)
        return depth

    def __repr__(self) -> str:  # pragma: no cover
        return "<LoopNestForest %s: %d top-level>" % (
            self.function.name, len(self.top_level))


def _natural_loop(function: Function, header: str,
                  tail: str) -> Set[str]:
    """Blocks of the natural loop of back edge ``tail -> header``."""
    preds = function.predecessors_map()
    members = {header, tail}
    # Walk predecessors from the tail, but never *through* the header: the
    # loop body is everything that reaches the back edge without leaving
    # through the header (handles self-loops correctly).
    stack = [tail] if tail != header else []
    while stack:
        node = stack.pop()
        for pred in preds[node]:
            if pred not in members:
                members.add(pred)
                stack.append(pred)
    return members


def loop_nest_forest(function: Function) -> LoopNestForest:
    """Find all natural loops (dominator back edges); loops sharing a header
    are merged, as usual.  Irreducible cycles (back edges to non-dominating
    headers) are ignored — the front-ends in this repo emit reducible code.
    """
    dom = dominator_tree(function)
    loops_by_header: Dict[str, Loop] = {}
    for block in function.blocks:
        for succ in block.successors():
            if dom.contains(block.label) and dom.dominates(succ, block.label):
                loop = loops_by_header.setdefault(succ, Loop(succ))
                loop.back_edge_sources.add(block.label)
                loop.blocks |= _natural_loop(function, succ, block.label)

    loops = sorted(loops_by_header.values(), key=lambda lp: len(lp.blocks))
    # Nest loops: each loop's parent is the smallest strictly-containing one.
    for index, inner in enumerate(loops):
        for outer in loops[index + 1:]:
            if inner.header != outer.header and \
                    inner.blocks <= outer.blocks:
                inner.parent = outer
                outer.children.append(inner)
                break
    top_level = [loop for loop in loops if loop.parent is None]

    def set_depth(loop: Loop, depth: int) -> None:
        loop.depth = depth
        for child in loop.children:
            set_depth(child, depth + 1)

    for loop in top_level:
        set_depth(loop, 1)
    for loop in loops:
        loop.children.sort(key=lambda lp: lp.header)
    top_level.sort(key=lambda lp: lp.header)
    return LoopNestForest(function, top_level, loops_by_header)


def loop_trip_count_estimate(loop: Loop, profile) -> float:
    """Average trip count from profile weights: header executions per entry.

    Entries = executions of edges into the header from outside the loop.
    """
    entries = 0.0
    preds_map = profile.function.predecessors_map()
    for pred in preds_map.get(loop.header, ()):
        if pred not in loop.blocks:
            entries += profile.edge_weight(pred, loop.header)
    header_weight = profile.block_weight(loop.header)
    if entries <= 0:
        return header_weight if header_weight > 0 else 0.0
    return header_weight / entries
