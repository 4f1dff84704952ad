"""Structural verification of IR functions.

The verifier enforces the invariants every pass in the toolchain relies on:
exactly one terminator per block, at the end; branch targets exist; operand
shapes match opcode signatures; iids are unique; every register is defined
on every path before use (ignoring communication, whose consumes count as
definitions).  MTCG output is verified with ``allow_comm=True``.
"""

from __future__ import annotations

from typing import Dict, Set

from .cfg import Function
from .instructions import Opcode


class VerificationError(Exception):
    pass


def verify_function(function: Function, allow_comm: bool = False,
                    check_defined_use: bool = True) -> None:
    if not function.blocks:
        raise VerificationError("function %s has no blocks" % function.name)

    seen_iids: Set[int] = set()
    labels = {block.label for block in function.blocks}
    exit_seen = False

    for block in function.blocks:
        if not block.instructions:
            raise VerificationError("empty block %r" % block.label)
        terminator = block.instructions[-1]
        if not terminator.is_terminator():
            raise VerificationError("block %r lacks a terminator"
                                    % block.label)
        for index, instruction in enumerate(block):
            if instruction.is_terminator() and index != len(block) - 1:
                raise VerificationError(
                    "terminator in the middle of block %r" % block.label)
            _verify_shape(instruction, block.label)
            if instruction.is_communication() and not allow_comm:
                raise VerificationError(
                    "communication op %s outside MTCG output"
                    % instruction.op.value)
            if instruction.iid in seen_iids:
                raise VerificationError("duplicate iid %d" % instruction.iid)
            if instruction.iid >= 0:
                seen_iids.add(instruction.iid)
            for target in instruction.labels:
                if target not in labels:
                    raise VerificationError(
                        "branch to unknown block %r in %r"
                        % (target, block.label))
        if terminator.op is Opcode.EXIT:
            exit_seen = True

    if not exit_seen:
        raise VerificationError("function %s has no exit" % function.name)

    for param, obj_name in function.pointer_params.items():
        if param not in function.params:
            raise VerificationError("pointer param %r not a parameter"
                                    % param)
        if obj_name not in function.mem_objects:
            raise VerificationError("pointer param %r targets unknown "
                                    "memory object %r" % (param, obj_name))

    if check_defined_use:
        _verify_defined_before_use(function)


def _verify_shape(instruction, block_label: str) -> None:
    signature = instruction.signature
    if signature.has_dest != (instruction.dest is not None):
        raise VerificationError("bad dest for %s in %r"
                                % (instruction.op.value, block_label))
    n_srcs = len(instruction.srcs)
    has_imm = instruction.imm is not None
    if instruction.op.value in ("load", "store"):
        # The offset immediate is always considered present (default 0).
        has_imm = False
    effective = n_srcs + (1 if has_imm else 0)
    if has_imm and not signature.allows_imm:
        raise VerificationError("unexpected immediate for %s"
                                % instruction.op.value)
    if signature.requires_imm and instruction.imm is None:
        raise VerificationError("missing immediate for %s"
                                % instruction.op.value)
    if not signature.requires_imm and not (
            signature.min_srcs <= effective <= signature.max_srcs
            or signature.min_srcs <= n_srcs <= signature.max_srcs):
        raise VerificationError("bad arity for %s (srcs=%d)"
                                % (instruction.op.value, n_srcs))
    if len(instruction.labels) != signature.n_labels:
        raise VerificationError("bad label count for %s"
                                % instruction.op.value)
    if signature.has_queue and instruction.queue is None:
        raise VerificationError("missing queue for %s"
                                % instruction.op.value)


def _verify_defined_before_use(function: Function) -> None:
    """Forward may-be-undefined analysis: flag a register used where no
    definition reaches it on *any* path (certain bug); registers defined on
    only some paths are accepted, matching real compilers' leniency."""
    defined_out: Dict[str, Set[str]] = {}
    params = set(function.params)
    preds = function.predecessors_map()
    changed = True
    # Iterate to a fixed point of the *union* of definitions (may-defined).
    while changed:
        changed = False
        for block in function.blocks:
            incoming: Set[str] = set(params)
            for pred in preds[block.label]:
                incoming |= defined_out.get(pred, set())
            current = set(incoming)
            for instruction in block:
                current.update(instruction.defined_registers())
            if defined_out.get(block.label) != current:
                defined_out[block.label] = current
                changed = True

    for block in function.blocks:
        incoming = set(params)
        for pred in preds[block.label]:
            incoming |= defined_out.get(pred, set())
        current = set(incoming)
        for instruction in block:
            for register in instruction.used_registers():
                if register not in current:
                    raise VerificationError(
                        "register %r used in block %r before any "
                        "definition may reach it" % (register, block.label))
            current.update(instruction.defined_registers())

