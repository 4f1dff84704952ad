"""Instruction set of the mini-IR.

The IR is a low-level, assembly-like register machine in the spirit of the
VELOCITY compiler's intermediate representation that the GMT scheduling
papers operate on: virtual registers, explicit loads/stores against a flat
word-addressed memory, two-way conditional branches, and (in generated
multi-threaded code only) ``produce``/``consume`` operations against the
synchronization-array queues.

Every instruction is an :class:`Instruction` with an opcode drawn from
:class:`Opcode`.  Opcode *signatures* (operand arity, whether an immediate or
queue id is carried, how many branch labels) are declared in
:data:`SIGNATURES` and enforced by :func:`repro.ir.verify.verify_function`.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence, Tuple


class Opcode(str, enum.Enum):
    """All operations understood by the interpreter and the machine model."""

    # Data movement.
    MOV = "mov"          # dest = src
    MOVI = "movi"        # dest = imm

    # Integer / generic ALU.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    IDIV = "idiv"        # truncating integer division
    IMOD = "imod"
    NEG = "neg"
    ABS = "abs"
    MIN = "min"
    MAX = "max"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    ITOF = "itof"        # int -> float

    # Comparisons (result is 0/1; operate on ints or floats).
    CMPEQ = "cmpeq"
    CMPNE = "cmpne"
    CMPLT = "cmplt"
    CMPLE = "cmple"
    CMPGT = "cmpgt"
    CMPGE = "cmpge"

    # Floating point.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FSQRT = "fsqrt"
    FNEG = "fneg"
    FABS = "fabs"
    FMIN = "fmin"
    FMAX = "fmax"
    FTOI = "ftoi"        # float -> int (truncation)

    # Memory.
    LOAD = "load"        # dest = mem[src0 + imm]
    STORE = "store"      # mem[src0 + imm] = src1

    # Control flow (block terminators).
    BR = "br"            # if src0 != 0 goto labels[0] else labels[1]
    JMP = "jmp"          # goto labels[0]
    EXIT = "exit"        # leave the region

    # Inter-thread communication (inserted by MTCG, never by front-ends).
    PRODUCE = "produce"            # queue[q].push(src0)
    CONSUME = "consume"            # dest = queue[q].pop()
    PRODUCE_SYNC = "produce.sync"  # queue[q].push(token), release semantics
    CONSUME_SYNC = "consume.sync"  # queue[q].pop(), acquire semantics

    NOP = "nop"


class OpKind(enum.Enum):
    """Coarse classification used by the PDG builder and the timing model."""

    ALU = enum.auto()
    FP = enum.auto()
    LOAD = enum.auto()
    STORE = enum.auto()
    BRANCH = enum.auto()
    JUMP = enum.auto()
    EXIT = enum.auto()
    COMM = enum.auto()
    NOP = enum.auto()


class Signature:
    """Operand-shape contract of one opcode."""

    __slots__ = ("has_dest", "min_srcs", "max_srcs", "allows_imm",
                 "requires_imm", "n_labels", "has_queue", "kind")

    def __init__(self, has_dest: bool, min_srcs: int, max_srcs: int,
                 allows_imm: bool, requires_imm: bool, n_labels: int,
                 has_queue: bool, kind: OpKind):
        self.has_dest = has_dest
        self.min_srcs = min_srcs
        self.max_srcs = max_srcs
        self.allows_imm = allows_imm
        self.requires_imm = requires_imm
        self.n_labels = n_labels
        self.has_queue = has_queue
        self.kind = kind


def _alu2(kind: OpKind = OpKind.ALU) -> Signature:
    # Binary op; the second operand may be an immediate instead of a register.
    return Signature(True, 1, 2, True, False, 0, False, kind)


def _alu1(kind: OpKind = OpKind.ALU) -> Signature:
    return Signature(True, 1, 1, False, False, 0, False, kind)


SIGNATURES = {
    Opcode.MOV: _alu1(),
    Opcode.MOVI: Signature(True, 0, 0, True, True, 0, False, OpKind.ALU),
    Opcode.ADD: _alu2(), Opcode.SUB: _alu2(), Opcode.MUL: _alu2(),
    Opcode.IDIV: _alu2(), Opcode.IMOD: _alu2(),
    Opcode.NEG: _alu1(), Opcode.ABS: _alu1(),
    Opcode.MIN: _alu2(), Opcode.MAX: _alu2(),
    Opcode.AND: _alu2(), Opcode.OR: _alu2(), Opcode.XOR: _alu2(),
    Opcode.NOT: _alu1(), Opcode.SHL: _alu2(), Opcode.SHR: _alu2(),
    Opcode.ITOF: _alu1(OpKind.FP),
    Opcode.CMPEQ: _alu2(), Opcode.CMPNE: _alu2(), Opcode.CMPLT: _alu2(),
    Opcode.CMPLE: _alu2(), Opcode.CMPGT: _alu2(), Opcode.CMPGE: _alu2(),
    Opcode.FADD: _alu2(OpKind.FP), Opcode.FSUB: _alu2(OpKind.FP),
    Opcode.FMUL: _alu2(OpKind.FP), Opcode.FDIV: _alu2(OpKind.FP),
    Opcode.FSQRT: _alu1(OpKind.FP), Opcode.FNEG: _alu1(OpKind.FP),
    Opcode.FABS: _alu1(OpKind.FP), Opcode.FMIN: _alu2(OpKind.FP),
    Opcode.FMAX: _alu2(OpKind.FP), Opcode.FTOI: _alu1(OpKind.FP),
    Opcode.LOAD: Signature(True, 1, 1, True, False, 0, False, OpKind.LOAD),
    Opcode.STORE: Signature(False, 2, 2, True, False, 0, False, OpKind.STORE),
    Opcode.BR: Signature(False, 1, 1, False, False, 2, False, OpKind.BRANCH),
    Opcode.JMP: Signature(False, 0, 0, False, False, 1, False, OpKind.JUMP),
    Opcode.EXIT: Signature(False, 0, 0, False, False, 0, False, OpKind.EXIT),
    Opcode.PRODUCE: Signature(False, 1, 1, False, False, 0, True, OpKind.COMM),
    Opcode.CONSUME: Signature(True, 0, 0, False, False, 0, True, OpKind.COMM),
    Opcode.PRODUCE_SYNC: Signature(False, 0, 0, False, False, 0, True,
                                   OpKind.COMM),
    Opcode.CONSUME_SYNC: Signature(False, 0, 0, False, False, 0, True,
                                   OpKind.COMM),
    Opcode.NOP: Signature(False, 0, 0, False, False, 0, False, OpKind.NOP),
}

COMM_OPCODES = frozenset({Opcode.PRODUCE, Opcode.CONSUME,
                          Opcode.PRODUCE_SYNC, Opcode.CONSUME_SYNC})
MEMORY_OPCODES = frozenset({Opcode.LOAD, Opcode.STORE})
TERMINATOR_OPCODES = frozenset({Opcode.BR, Opcode.JMP, Opcode.EXIT})


class Instruction:
    """One IR instruction.

    Attributes:
        op: the :class:`Opcode`.
        dest: destination virtual register name, or ``None``.
        srcs: tuple of source register names.
        imm: immediate operand (``int`` or ``float``), or ``None``.  For
            ``load``/``store`` it is the constant address offset.
        labels: branch target block labels (``br``: taken, not-taken).
        queue: synchronization-array queue id for communication opcodes.
        iid: instruction id, unique within a function; assigned by the
            builder / CFG and stable across passes.  The PDG and partitions
            are keyed by iid.
        region: optional may-alias region annotation for memory opcodes.
            ``None`` means "let the alias analysis derive it"; the analysis
            falls back to a single conservative region when it cannot.
        origin: for instructions produced by MTCG, the iid of the original
            instruction this one implements (a duplicated branch, or the
            source of the dependence a produce/consume pair satisfies).
    """

    __slots__ = ("op", "dest", "srcs", "imm", "labels", "queue", "iid",
                 "region", "origin")

    def __init__(self, op: Opcode, dest: Optional[str] = None,
                 srcs: Sequence[str] = (), imm=None,
                 labels: Sequence[str] = (), queue: Optional[int] = None,
                 iid: int = -1, region: Optional[str] = None,
                 origin: Optional[int] = None):
        self.op = op
        self.dest = dest
        self.srcs: Tuple[str, ...] = tuple(srcs)
        self.imm = imm
        self.labels: Tuple[str, ...] = tuple(labels)
        self.queue = queue
        self.iid = iid
        self.region = region
        self.origin = origin

    # -- classification helpers -------------------------------------------

    @property
    def signature(self) -> Signature:
        return SIGNATURES[self.op]

    @property
    def kind(self) -> OpKind:
        return SIGNATURES[self.op].kind

    def is_terminator(self) -> bool:
        return self.op in TERMINATOR_OPCODES

    def is_branch(self) -> bool:
        return self.op is Opcode.BR

    def is_memory(self) -> bool:
        return self.op in MEMORY_OPCODES

    def is_communication(self) -> bool:
        return self.op in COMM_OPCODES

    def defined_registers(self) -> Tuple[str, ...]:
        return (self.dest,) if self.dest is not None else ()

    def used_registers(self) -> Tuple[str, ...]:
        return self.srcs

    # -- copying ------------------------------------------------------------

    def copy(self) -> "Instruction":
        """Shallow copy keeping iid/region/origin annotations."""
        return Instruction(self.op, self.dest, self.srcs, self.imm,
                           self.labels, self.queue, self.iid, self.region,
                           self.origin)

    # -- rendering ------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .printer import format_instruction
        return "<%d: %s>" % (self.iid, format_instruction(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        return (self.op is other.op and self.dest == other.dest
                and self.srcs == other.srcs and self.imm == other.imm
                and self.labels == other.labels and self.queue == other.queue
                and self.region == other.region)

    def __hash__(self) -> int:
        return hash((self.op, self.dest, self.srcs, self.imm, self.labels,
                     self.queue, self.region))
