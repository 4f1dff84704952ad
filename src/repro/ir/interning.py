"""Flyweight interning of IR instructions.

MTCG output is where instruction objects multiply: every thread carries
copies of the duplicated control flow, sweeps evaluate the same program
under many configurations, and the multiprocess pool and artifact cache
pickle those programs over and over.  Interning collapses structurally
identical instructions to one immutable object per process, so

* equal instructions are pointer-equal — pickle's memo table then
  serializes each distinct instruction once per program instead of once
  per occurrence, shrinking pool payloads and cache artifacts;
* ``hash()`` is computed once per distinct instruction and cached
  (:class:`Instruction` hashing re-tuples seven fields every call);
* operand/label strings are ``sys.intern``-ed, making the hot ``regs``
  dictionary lookups in the simulators identity-fast.

Interning happens at one boundary: the end of the ``mtcg`` stage, on the
generated thread functions (see ``repro.pipeline.stages._run_mtcg``).
Everything upstream (builders, normalize, COCO, the partitioners)
mutates instructions freely — ``assign_iid`` writes ``iid`` after
construction — so builder-owned functions are never interned.
``Instruction.copy()`` deliberately constructs a plain mutable
``Instruction``, so downstream passes that clone-and-edit keep working
on interned input.

Interned instructions compare and hash exactly like their uninterned
equivalents, and pickling round-trips *through the intern table*
(:meth:`InternedInstruction.__reduce__`), so objects stay canonical
across process boundaries.  Stage fingerprints are text-based
(:mod:`repro.pipeline.fingerprint`) and unchanged by interning; both are
locked down by ``tests/test_ir_interning.py``.
"""

from __future__ import annotations

import sys
import threading
from typing import Optional, Sequence
from weakref import WeakValueDictionary

from .cfg import Function
from .instructions import Instruction, Opcode


def _intern_str(value: Optional[str]) -> Optional[str]:
    return sys.intern(value) if value is not None else value


class InternedInstruction(Instruction):
    """An immutable, hash-caching :class:`Instruction`.

    Created only by :func:`intern_instruction`; direct construction works
    but bypasses the canonical table.  Equality and hashing are inherited
    (and the hash precomputed), so interned and plain instructions mix
    freely in sets and dicts.
    """

    __slots__ = ("_hash", "__weakref__")

    def __init__(self, op: Opcode, dest: Optional[str] = None,
                 srcs: Sequence[str] = (), imm=None,
                 labels: Sequence[str] = (), queue: Optional[int] = None,
                 iid: int = -1, region: Optional[str] = None,
                 origin: Optional[int] = None):
        set_ = object.__setattr__
        set_(self, "op", op)
        set_(self, "dest", _intern_str(dest))
        set_(self, "srcs", tuple(_intern_str(s) for s in srcs))
        set_(self, "imm", imm)
        set_(self, "labels", tuple(_intern_str(lab) for lab in labels))
        set_(self, "queue", queue)
        set_(self, "iid", iid)
        set_(self, "region", _intern_str(region))
        set_(self, "origin", origin)
        set_(self, "_hash", Instruction.__hash__(self))

    def __setattr__(self, name, value):
        raise AttributeError(
            "InternedInstruction is immutable; use .copy() for a mutable "
            "Instruction (tried to set %r)" % name)

    def __delattr__(self, name):
        raise AttributeError("InternedInstruction is immutable")

    def __hash__(self) -> int:
        return self._hash

    __eq__ = Instruction.__eq__

    def __reduce__(self):
        # Unpickle through the intern table so a program shipped to a
        # pool worker (or loaded from the artifact cache) stays canonical
        # in the receiving process.
        return (intern_instruction_fields,
                (self.op, self.dest, self.srcs, self.imm, self.labels,
                 self.queue, self.iid, self.region, self.origin))


# Canonical instruction per full field tuple.  Weak values: instructions
# die with the last program referencing them, so long-lived services
# don't accumulate every program ever evaluated.  The key carries
# ``type(imm)`` because 1 == 1.0 but ``movi 1`` and ``movi 1.0`` are
# different programs.
_TABLE: "WeakValueDictionary[tuple, InternedInstruction]" = \
    WeakValueDictionary()
_LOCK = threading.Lock()


def intern_instruction_fields(op: Opcode, dest: Optional[str],
                              srcs: Sequence[str], imm,
                              labels: Sequence[str], queue: Optional[int],
                              iid: int, region: Optional[str],
                              origin: Optional[int]) -> InternedInstruction:
    """The canonical interned instruction with exactly these fields
    (all of them — iid/region/origin annotations are preserved)."""
    key = (op, dest, tuple(srcs), type(imm), imm, tuple(labels), queue,
           iid, region, origin)
    with _LOCK:
        instruction = _TABLE.get(key)
        if instruction is None:
            instruction = InternedInstruction(op, dest, srcs, imm, labels,
                                              queue, iid, region, origin)
            _TABLE[key] = instruction
        return instruction


def intern_instruction(instruction: Instruction) -> InternedInstruction:
    """Intern one instruction (identity for already-interned objects)."""
    if type(instruction) is InternedInstruction:
        return instruction
    return intern_instruction_fields(
        instruction.op, instruction.dest, instruction.srcs, instruction.imm,
        instruction.labels, instruction.queue, instruction.iid,
        instruction.region, instruction.origin)


def intern_function(function: Function) -> Function:
    """Replace every instruction of ``function`` with its interned
    flyweight, in place.  Only call on functions no pass will mutate
    instruction-wise again (MTCG output threads)."""
    for block in function.blocks:
        block.instructions[:] = [intern_instruction(instruction)
                                 for instruction in block.instructions]
    return function


def intern_program(program) -> object:
    """Intern all thread functions of an :class:`repro.mtcg.MTProgram`."""
    for thread in program.threads:
        intern_function(thread)
    return program

