"""Classic liveness analysis, per instruction."""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from ..ir.cfg import Function
from .dataflow import instruction_defs, instruction_uses, solve_backward


class LivenessResult:
    """Live registers before/after every instruction (by iid) and at block
    boundaries."""

    def __init__(self, live_in: Dict[int, FrozenSet[str]],
                 live_out: Dict[int, FrozenSet[str]],
                 block_live_in: Dict[str, FrozenSet[str]],
                 block_live_out: Dict[str, FrozenSet[str]]):
        self.live_in = live_in
        self.live_out = live_out
        self.block_live_in = block_live_in
        self.block_live_out = block_live_out


def liveness(function: Function) -> LivenessResult:
    gen: Dict[str, Set] = {}
    kill: Dict[str, Set] = {}
    for block in function.blocks:
        uses: Set[str] = set()
        defs: Set[str] = set()
        for instruction in block:
            for register in instruction_uses(instruction, function):
                if register not in defs:
                    uses.add(register)
            defs.update(instruction_defs(instruction))
        gen[block.label] = uses
        kill[block.label] = defs

    # The exit "use" of live-outs is modeled on the exit instruction itself
    # (via instruction_uses), so the boundary fact past exits is empty.
    boundary: Dict[str, Set] = {}
    block_out = solve_backward(function, gen, kill, boundary)

    live_in: Dict[int, FrozenSet[str]] = {}
    live_out: Dict[int, FrozenSet[str]] = {}
    block_live_in: Dict[str, FrozenSet[str]] = {}
    block_live_out: Dict[str, FrozenSet[str]] = {}
    for block in function.blocks:
        current: Set[str] = set(block_out[block.label])
        block_live_out[block.label] = frozenset(current)
        for instruction in reversed(block.instructions):
            live_out[instruction.iid] = frozenset(current)
            current -= set(instruction_defs(instruction))
            current |= set(instruction_uses(instruction, function))
            live_in[instruction.iid] = frozenset(current)
        block_live_in[block.label] = frozenset(current)
    return LivenessResult(live_in, live_out, block_live_in, block_live_out)
