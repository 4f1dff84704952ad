"""The timing simulator: a fused functional+timing interpreter.

Each thread's CFG is compiled once into flat per-block record tuples —
integer op-class codes, pre-resolved branch targets, pre-computed port
indices/limits/latencies, pre-bound value-semantics callables — and one
loop executes and times each instruction directly against array-backed
core state.  Every caller (the ``simulate-st``/``simulate-mt`` pipeline
stages, the bench specs, ``repro run``/``sweep``/``trace``/``serve``)
runs this module.

Contract: the results are **bit-identical** to the readable
event-driven model kept as the oracle in
:mod:`repro.check.reference_timing` — cycles, per-core finish times,
stall attribution, cache and queue statistics, memory, live-outs, even
the ``int`` vs ``float`` types the model's mixed arithmetic produces
(cached artifacts are pickled, so object equality must survive
pickling).  With a tracer attached, the trace events are identical too.
Every timing expression below mirrors a line of the oracle; when
editing one, edit both.  The differential harness
(:mod:`repro.check.differential_backend`,
``tests/test_backend_equivalence.py``) locks this down.

Shared state (the per-cluster :class:`SAPortSchedule` bookings, the
:class:`TimedQueues` timestamps, the :class:`MemoryHierarchy` LRU sets)
lives in :mod:`repro.machine.timing` and :mod:`repro.machine.cache`:
its behaviour is interleaving-sensitive, so sharing the implementation
with the oracle removes a whole class of divergence.

Tracing is a separate loop over the same records (:func:`_run_traced`):
it feeds the tracer's ``on_event``/``on_queue_depth`` hooks with the
stall components and dependence edges of each issued instruction, so
the untraced loop pays nothing for it.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Mapping, Optional, Sequence

from ..interp.context import _BINARY, _UNARY, TrapError
from ..interp.state import MemoryError_, bind_params, make_memory
from ..ir.cfg import Function
from ..ir.instructions import COMM_OPCODES, OpKind, Opcode
from ..mtcg.program import MTProgram
from ..trace.events import PRODUCER_CATEGORY
from .cache import MemoryHierarchy
from .config import DEFAULT_CONFIG, MachineConfig
from .functional import DeadlockError, MTExecutionLimitExceeded
from .timing import (SAPortSchedule, TimedQueues, TimedResult,
                     queue_crossing_penalties)

# Op-class codes of the compiled dispatch records.  Ordered roughly by
# dynamic frequency so the dispatch chain tests the hot classes first.
_ALU_RR = 0        # binary op, two register sources
_ALU_RI = 1        # binary op, register + immediate
_ALU_UN = 2        # unary op
_MOVI = 3
_LOAD = 4
_STORE = 5
_BR = 6
_JMP = 7
_EXIT = 8
_NOP = 9
_PRODUCE = 10
_PRODUCE_SYNC = 11
_CONSUME = 12
_CONSUME_SYNC = 13

#: Issue-port classes, by index: alu, memory, fp, branch.
_PORT_ALU, _PORT_MEM, _PORT_FP, _PORT_BR = 0, 1, 2, 3
#: The port names (trace ``op_class`` values), by index.
_PORT_NAMES = ("alu", "memory", "fp", "branch")


def _fdiv(a, b):
    """FDIV value semantics (the reference checks before dividing)."""
    if float(b) == 0.0:
        raise TrapError("float division by zero")
    return float(a) / float(b)


#: Sentinel filling the slots of never-written registers.  The register
#: file is a flat list indexed by the compile-time register table, so
#: "undefined" must be a value; reading it traps exactly where the
#: reference's ``KeyError`` would.
_UNDEF = object()


def _trap_undef(register: str, function_name: str):
    raise TrapError("read of undefined register %r in %s"
                    % (register, function_name))


class _FastCore:
    """Array-backed in-order issue state of one core.

    Field-for-field mirror of the oracle's ``CoreTiming`` minus the
    trace-only bookkeeping (see :class:`_TracedCore`); ``port_use`` is a
    fixed 4-slot list indexed by port class instead of a ``Counter``
    keyed by port name.
    """

    __slots__ = ("core_id", "sa", "cycle", "issued_in_cycle", "port_use",
                 "min_issue", "mem_fence", "last_mem_complete",
                 "finish", "branch_counters", "mispredictions",
                 "backpressure_cycles", "operand_wait_cycles",
                 "sa_port_delays")

    def __init__(self, core_id: int, sa: SAPortSchedule):
        self.core_id = core_id
        self.sa = sa
        self.cycle = 0
        self.issued_in_cycle = 0
        self.port_use = [0, 0, 0, 0]
        self.min_issue = 0
        self.mem_fence = 0.0
        self.last_mem_complete = 0.0
        self.finish = 0.0
        self.branch_counters = {}
        self.mispredictions = 0
        self.backpressure_cycles = 0.0
        self.operand_wait_cycles = 0.0
        self.sa_port_delays = 0


class _TracedCore(_FastCore):
    """A core plus the bookkeeping the trace sink threads dependence
    edges through: the conflict cycles of the last issue, the last
    event (in-order edge), a pending branch redirect (control edge),
    and the events that set the memory-completion and fence times."""

    __slots__ = ("port_delay", "sa_delay", "last_event_seq",
                 "last_event_issue", "pending_control", "last_mem_event",
                 "last_mem_kind", "fence_event")

    def __init__(self, core_id: int, sa: SAPortSchedule):
        super().__init__(core_id, sa)
        self.port_delay = 0
        self.sa_delay = 0
        self.last_event_seq = None
        self.last_event_issue = 0
        self.pending_control = None
        self.last_mem_event = None
        self.last_mem_kind = "store"
        self.fence_event = None


def _issue(core, earliest, pidx, limit, issue_width):
    """``CoreTiming.find_issue_slot(earliest, port, uses_sa=False)``."""
    mi = core.min_issue
    if earliest > mi:
        t = int(earliest)
        if earliest > t:
            t += 1
    else:
        t = mi
    pu = core.port_use
    while True:
        if t > core.cycle:
            core.cycle = t
            core.issued_in_cycle = 0
            pu[0] = pu[1] = pu[2] = pu[3] = 0
        if core.issued_in_cycle < issue_width and pu[pidx] < limit:
            core.issued_in_cycle += 1
            pu[pidx] += 1
            core.min_issue = t
            tf = t + 1.0
            if tf > core.finish:
                core.finish = tf
            return t
        t += 1


def _issue_sa(core, earliest, limit, issue_width):
    """``find_issue_slot(..., "memory", uses_sa=True)``: memory port plus
    a synchronization-array port of the core's cluster."""
    mi = core.min_issue
    if earliest > mi:
        t = int(earliest)
        if earliest > t:
            t += 1
    else:
        t = mi
    pu = core.port_use
    sa = core.sa
    booked = sa.booked
    ports = sa.ports
    while True:
        if t > core.cycle:
            core.cycle = t
            core.issued_in_cycle = 0
            pu[0] = pu[1] = pu[2] = pu[3] = 0
        if core.issued_in_cycle < issue_width and pu[_PORT_MEM] < limit:
            free = t
            while booked.get(free, 0) >= ports:
                free += 1
            if free != t:
                core.sa_port_delays += 1
                t = free
                continue
            sa.book(t)
            core.issued_in_cycle += 1
            pu[_PORT_MEM] += 1
            core.min_issue = t
            tf = t + 1.0
            if tf > core.finish:
                core.finish = tf
            return t
        t += 1


def compile_function(function: Function, config: MachineConfig):
    """Compile one thread CFG into per-block dispatch records.

    Returns ``(blocks, meta, reg_index, reg_names)``: ``blocks[i]`` is
    the record list of the i-th basic block (branch targets pre-resolved
    to block indices), ``meta[ridx]`` the source :class:`Instruction` of
    record ``ridx`` (used for end-of-run opcode accounting and error
    messages), and ``reg_index``/``reg_names`` the register table —
    records refer to registers by index into a flat list-backed register
    file (params first, then first-use order), which replaces every
    per-step dict probe of the reference with a list subscript.  The
    compile is linear in static code size and performs no dynamic work.
    """
    _ = function.entry  # same ValueError as ThreadContext on empty CFGs
    label_index = {block.label: i for i, block in enumerate(function.blocks)}
    alu_limit = config.alu_ports
    mem_limit = config.memory_ports
    fp_limit = config.fp_ports
    br_limit = config.branch_ports
    reg_index: dict = {}
    reg_names: list = []

    def reg(name):
        i = reg_index.get(name)
        if i is None:
            i = len(reg_names)
            reg_index[name] = i
            reg_names.append(name)
        return i

    for param in function.params:
        reg(param)
    meta = []
    blocks = []
    for block in function.blocks:
        records = []
        for instr in block.instructions:
            ridx = len(meta)
            meta.append(instr)
            op = instr.op
            if op is Opcode.LOAD:
                rec = (_LOAD, ridx, instr, reg(instr.dest),
                       reg(instr.srcs[0]), instr.imm or 0, mem_limit)
            elif op is Opcode.STORE:
                rec = (_STORE, ridx, instr, reg(instr.srcs[0]),
                       reg(instr.srcs[1]), instr.imm or 0, mem_limit)
            elif op is Opcode.BR:
                rec = (_BR, ridx, instr, reg(instr.srcs[0]), instr.iid,
                       label_index[instr.labels[0]],
                       label_index[instr.labels[1]], br_limit)
            elif op is Opcode.JMP:
                rec = (_JMP, ridx, instr, label_index[instr.labels[0]],
                       br_limit)
            elif op is Opcode.EXIT:
                rec = (_EXIT, ridx, instr, br_limit)
            elif op is Opcode.MOVI:
                rec = (_MOVI, ridx, instr, reg(instr.dest), instr.imm,
                       alu_limit, config.latency_of(instr))
            elif op is Opcode.NOP:
                rec = (_NOP, ridx, instr, alu_limit)
            elif op is Opcode.PRODUCE:
                rec = (_PRODUCE, ridx, instr, reg(instr.srcs[0]),
                       instr.queue, mem_limit)
            elif op is Opcode.PRODUCE_SYNC:
                rec = (_PRODUCE_SYNC, ridx, instr, instr.queue, mem_limit)
            elif op is Opcode.CONSUME:
                rec = (_CONSUME, ridx, instr, reg(instr.dest),
                       instr.queue, mem_limit)
            elif op is Opcode.CONSUME_SYNC:
                rec = (_CONSUME_SYNC, ridx, instr, instr.queue, mem_limit)
            else:
                if op is Opcode.FDIV:
                    fn = _fdiv
                else:
                    fn = _BINARY.get(op) or _UNARY.get(op)
                    if fn is None:  # pragma: no cover - all opcodes covered
                        raise TrapError("unimplemented opcode %s" % op.value)
                if instr.kind is OpKind.FP:
                    pidx, limit = _PORT_FP, fp_limit
                else:
                    pidx, limit = _PORT_ALU, alu_limit
                latency = config.latency_of(instr)
                srcs = instr.srcs
                if len(srcs) == 2:
                    rec = (_ALU_RR, ridx, instr, fn, reg(instr.dest),
                           reg(srcs[0]), reg(srcs[1]), pidx, limit, latency)
                elif instr.imm is not None:
                    rec = (_ALU_RI, ridx, instr, fn, reg(instr.dest),
                           reg(srcs[0]), instr.imm, pidx, limit, latency)
                else:
                    rec = (_ALU_UN, ridx, instr, fn, reg(instr.dest),
                           reg(srcs[0]), pidx, limit, latency)
            records.append(rec)
        blocks.append(records)
    return blocks, meta, reg_index, reg_names


def simulate_threads(functions: Sequence[Function], exit_thread: int,
                     memory_owner: Function,
                     args: Optional[Mapping[str, object]] = None,
                     initial_memory: Optional[Mapping[str, object]] = None,
                     config: MachineConfig = DEFAULT_CONFIG,
                     n_queues: int = 0,
                     max_steps: int = 200_000_000,
                     tracer=None,
                     placement: Optional[Sequence[int]] = None,
                     queue_crossing: Optional[Sequence[int]] = None
                     ) -> TimedResult:
    """Co-simulate ``functions`` (one per thread) functionally + in time.

    ``placement`` maps thread index to core id of the machine's
    topology (identity when omitted); each core arbitrates for its own
    cluster's synchronization-array ports, and ``queue_crossing`` adds
    the per-queue inter-cluster latency for channels whose placed
    endpoints sit in different clusters (zeros on any flat machine).

    ``tracer`` (a :class:`repro.trace.TraceCollector`, or anything with
    its ``on_event`` / ``on_queue_depth`` / ``on_finish`` hooks) selects
    the traced loop, which emits one event per issued instruction with
    its stall breakdown and dependence edges.  The simulated timings are
    identical with and without a tracer.
    """
    memory = make_memory(memory_owner, initial_memory)
    queues = TimedQueues(n_queues, config.sa_queue_size) if n_queues else None
    hierarchy = MemoryHierarchy(config)
    topo = config.resolve_topology()
    sa_latency = topo.sa_access_latency
    cluster_ports = [SAPortSchedule(topo.sa_ports)
                     for _ in range(topo.n_clusters)]
    if placement is None:
        placement = tuple(range(len(functions)))
    if len(placement) < len(functions):
        raise ValueError("placement covers %d threads, program has %d"
                         % (len(placement), len(functions)))

    issue_width = config.issue_width
    predictor = config.branch_predictor
    taken_penalty = config.taken_branch_penalty
    mispredict_penalty = config.mispredict_penalty
    # 0 = static, 1 = bimodal, 2 = perfect (matches branch_redirect).
    pred_mode = 2 if predictor == "perfect" else (
        0 if predictor == "static" else 1)

    n = len(functions)
    thread_regs: List[list] = []    # flat register files (see compile)
    thread_rr: List[list] = []      # parallel register-ready times
    thread_names: List[list] = []   # register index -> name (for traps)
    thread_index: List[dict] = []   # register name -> index
    cores: List[_FastCore] = []
    core_class = _FastCore if tracer is None else _TracedCore
    thread_blocks = []          # per thread: compiled block record lists
    thread_meta = []            # per thread: record index -> Instruction
    for index, function in enumerate(functions):
        params = bind_params(function, dict(args) if args else {})
        # Compile (touching function.entry) before validating the core id:
        # the reference builds the ThreadContext first, so an empty CFG
        # must win over a bad placement.
        blocks, meta, reg_index, reg_names = compile_function(function,
                                                              config)
        regs = [_UNDEF] * len(reg_names)
        for name, value in params.items():
            regs[reg_index[name]] = value
        thread_regs.append(regs)
        thread_rr.append([0.0] * len(reg_names))
        thread_names.append(reg_names)
        thread_index.append(reg_index)
        thread_blocks.append(blocks)
        thread_meta.append(meta)
        core_id = placement[index]
        if not 0 <= core_id < topo.n_cores:
            raise ValueError("thread %d placed on core %d outside "
                             "topology %r (%d cores)"
                             % (index, core_id, topo.name, topo.n_cores))
        cores.append(core_class(core_id,
                                cluster_ports[topo.cluster_of(core_id)]))
    if tracer is not None and hasattr(tracer, "on_topology"):
        tracer.on_topology(topo.cluster_map())

    mem_words = memory.words
    mem_size = memory.size
    access = hierarchy.access
    qcap = queues.capacity if queues is not None else 0

    # Inline L1 read-hit path (the common case): the loop below checks
    # the per-core L1 tag store directly — same hit counting and LRU
    # update as CacheLevel.lookup — and only falls back to the full
    # hierarchy walk on a miss.
    word_bytes = config.word_bytes
    l1_line_bytes = config.l1d.line_bytes
    l1_hit_latency = config.l1d.hit_latency
    l1_nsets = hierarchy.l1[0].n_sets
    l1_levels = [hierarchy.l1[core.core_id] for core in cores]

    # Per-thread program counters over the compiled records.
    cur_recs = [blocks[0] for blocks in thread_blocks]
    cur_idx = [0] * n
    counts = [[0] * len(meta) for meta in thread_meta]
    live = [True] * n
    total_steps = 0
    prune_threshold = SAPortSchedule.PRUNE_THRESHOLD

    if tracer is not None:
        _run_traced(tracer, functions, cores, thread_blocks, thread_meta,
                    thread_regs, thread_rr, thread_names, counts, live,
                    queues, hierarchy, cluster_ports, config, memory,
                    queue_crossing, max_steps, memory_owner.name)
    else:
        while any(live):
            if any(len(schedule.booked) > prune_threshold
                   for schedule in cluster_ports):
                watermark = min(cores[i].min_issue
                                for i in range(n) if live[i])
                for schedule in cluster_ports:
                    schedule.prune(watermark)
            progressed = False
            for index in range(n):
                if not live[index]:
                    continue
                core = cores[index]
                cid = core.core_id
                l1 = l1_levels[index]
                regs = thread_regs[index]
                rr = thread_rr[index]
                names = thread_names[index]
                fname = functions[index].name
                ccounts = counts[index]
                recs = cur_recs[index]
                pos = cur_idx[index]
                executed = 0
                # Local mirrors of the core's issue state: the inlined
                # find-issue-slot logic below (the body of ``_issue``,
                # repeated per op class) runs entirely on locals, written
                # back once per burst.  ``_issue_sa`` still runs out of line
                # — its call sites sync the mirrors around the call.
                c_cycle = core.cycle
                c_issued = core.issued_in_cycle
                c_min_issue = core.min_issue
                c_finish = core.finish
                c_mem_fence = core.mem_fence
                c_last_mem = core.last_mem_complete
                pu = core.port_use
                # Budget: a burst of instructions per thread per visit, as in
                # the reference loop (keeps queue timestamps causal).
                for _ in range(64):
                    rec = recs[pos]
                    code = rec[0]
                    if code == _ALU_RR:
                        (_c, ridx, _i, fn, dest, s0, s1, pidx, limit,
                         latency) = rec
                        v0 = regs[s0]
                        if v0 is _UNDEF:
                            _trap_undef(names[s0], fname)
                        v1 = regs[s1]
                        if v1 is _UNDEF:
                            _trap_undef(names[s1], fname)
                        regs[dest] = fn(v0, v1)
                        e = rr[s0]
                        e2 = rr[s1]
                        if e2 > e:
                            e = e2
                        if e > c_min_issue:
                            t = int(e)
                            if e > t:
                                t += 1
                        else:
                            t = c_min_issue
                        while True:
                            if t > c_cycle:
                                c_cycle = t
                                c_issued = 0
                                pu[0] = pu[1] = pu[2] = pu[3] = 0
                            if c_issued < issue_width and pu[pidx] < limit:
                                c_issued += 1
                                pu[pidx] += 1
                                c_min_issue = t
                                tf = t + 1.0
                                if tf > c_finish:
                                    c_finish = tf
                                break
                            t += 1
                        fin = t + latency
                        rr[dest] = fin
                        if fin > c_finish:
                            c_finish = fin
                        pos += 1
                    elif code == _ALU_RI:
                        (_c, ridx, _i, fn, dest, s0, imm, pidx, limit,
                         latency) = rec
                        v0 = regs[s0]
                        if v0 is _UNDEF:
                            _trap_undef(names[s0], fname)
                        regs[dest] = fn(v0, imm)
                        e = rr[s0]
                        if e > c_min_issue:
                            t = int(e)
                            if e > t:
                                t += 1
                        else:
                            t = c_min_issue
                        while True:
                            if t > c_cycle:
                                c_cycle = t
                                c_issued = 0
                                pu[0] = pu[1] = pu[2] = pu[3] = 0
                            if c_issued < issue_width and pu[pidx] < limit:
                                c_issued += 1
                                pu[pidx] += 1
                                c_min_issue = t
                                tf = t + 1.0
                                if tf > c_finish:
                                    c_finish = tf
                                break
                            t += 1
                        fin = t + latency
                        rr[dest] = fin
                        if fin > c_finish:
                            c_finish = fin
                        pos += 1
                    elif code == _ALU_UN:
                        (_c, ridx, _i, fn, dest, s0, pidx, limit,
                         latency) = rec
                        v0 = regs[s0]
                        if v0 is _UNDEF:
                            _trap_undef(names[s0], fname)
                        regs[dest] = fn(v0)
                        e = rr[s0]
                        if e > c_min_issue:
                            t = int(e)
                            if e > t:
                                t += 1
                        else:
                            t = c_min_issue
                        while True:
                            if t > c_cycle:
                                c_cycle = t
                                c_issued = 0
                                pu[0] = pu[1] = pu[2] = pu[3] = 0
                            if c_issued < issue_width and pu[pidx] < limit:
                                c_issued += 1
                                pu[pidx] += 1
                                c_min_issue = t
                                tf = t + 1.0
                                if tf > c_finish:
                                    c_finish = tf
                                break
                            t += 1
                        fin = t + latency
                        rr[dest] = fin
                        if fin > c_finish:
                            c_finish = fin
                        pos += 1
                    elif code == _MOVI:
                        _c, ridx, _i, dest, imm, limit, latency = rec
                        regs[dest] = imm
                        t = c_min_issue
                        while True:
                            if t > c_cycle:
                                c_cycle = t
                                c_issued = 0
                                pu[0] = pu[1] = pu[2] = pu[3] = 0
                            if c_issued < issue_width and pu[0] < limit:
                                c_issued += 1
                                pu[0] += 1
                                c_min_issue = t
                                tf = t + 1.0
                                if tf > c_finish:
                                    c_finish = tf
                                break
                            t += 1
                        fin = t + latency
                        rr[dest] = fin
                        if fin > c_finish:
                            c_finish = fin
                        pos += 1
                    elif code == _LOAD:
                        _c, ridx, _i, dest, s0, offset, limit = rec
                        base = regs[s0]
                        if base is _UNDEF:
                            _trap_undef(names[s0], fname)
                        address = base + offset
                        if not isinstance(address, int):
                            raise TrapError("non-integer address %r"
                                            % (address,))
                        if 0 <= address < mem_size:
                            regs[dest] = mem_words[address]
                        else:
                            raise MemoryError_(
                                "load from address %r (size %d)"
                                % (address, mem_size))
                        e = rr[s0]
                        if c_mem_fence > e:
                            e = c_mem_fence
                        if e > c_min_issue:
                            t = int(e)
                            if e > t:
                                t += 1
                        else:
                            t = c_min_issue
                        while True:
                            if t > c_cycle:
                                c_cycle = t
                                c_issued = 0
                                pu[0] = pu[1] = pu[2] = pu[3] = 0
                            if c_issued < issue_width and pu[1] < limit:
                                c_issued += 1
                                pu[1] += 1
                                c_min_issue = t
                                tf = t + 1.0
                                if tf > c_finish:
                                    c_finish = tf
                                break
                            t += 1
                        line = address * word_bytes // l1_line_bytes
                        ways = l1.sets.get(line % l1_nsets)
                        if ways is not None and line // l1_nsets in ways:
                            ways.move_to_end(line // l1_nsets)
                            l1.hits += 1
                            hierarchy.last_level = "l1"
                            latency = l1_hit_latency
                        else:
                            latency = access(cid, address, False)
                        fin = t + latency
                        rr[dest] = fin
                        if fin > c_last_mem:
                            c_last_mem = fin
                        if fin > c_finish:
                            c_finish = fin
                        pos += 1
                    elif code == _STORE:
                        _c, ridx, _i, s0, s1, offset, limit = rec
                        base = regs[s0]
                        if base is _UNDEF:
                            _trap_undef(names[s0], fname)
                        address = base + offset
                        if not isinstance(address, int):
                            raise TrapError("non-integer address %r"
                                            % (address,))
                        value = regs[s1]
                        if value is _UNDEF:
                            _trap_undef(names[s1], fname)
                        if 0 <= address < mem_size:
                            mem_words[address] = value
                        else:
                            raise MemoryError_(
                                "store to address %r (size %d)"
                                % (address, mem_size))
                        e = rr[s0]
                        e2 = rr[s1]
                        if e2 > e:
                            e = e2
                        if c_mem_fence > e:
                            e = c_mem_fence
                        if e > c_min_issue:
                            t = int(e)
                            if e > t:
                                t += 1
                        else:
                            t = c_min_issue
                        while True:
                            if t > c_cycle:
                                c_cycle = t
                                c_issued = 0
                                pu[0] = pu[1] = pu[2] = pu[3] = 0
                            if c_issued < issue_width and pu[1] < limit:
                                c_issued += 1
                                pu[1] += 1
                                c_min_issue = t
                                tf = t + 1.0
                                if tf > c_finish:
                                    c_finish = tf
                                break
                            t += 1
                        access(cid, address, True)
                        tf = float(t + 1)
                        if tf > c_last_mem:
                            c_last_mem = tf
                        ti = t + 1
                        if ti > c_finish:
                            c_finish = ti
                        pos += 1
                    elif code == _BR:
                        _c, ridx, _i, s0, iid, tk, nt, limit = rec
                        v0 = regs[s0]
                        if v0 is _UNDEF:
                            _trap_undef(names[s0], fname)
                        taken = bool(v0)
                        e = rr[s0]
                        if e > c_min_issue:
                            t = int(e)
                            if e > t:
                                t += 1
                        else:
                            t = c_min_issue
                        while True:
                            if t > c_cycle:
                                c_cycle = t
                                c_issued = 0
                                pu[0] = pu[1] = pu[2] = pu[3] = 0
                            if c_issued < issue_width and pu[3] < limit:
                                c_issued += 1
                                pu[3] += 1
                                c_min_issue = t
                                tf = t + 1.0
                                if tf > c_finish:
                                    c_finish = tf
                                break
                            t += 1
                        if pred_mode == 0:
                            penalty = taken_penalty if taken else 0
                        elif pred_mode == 2:
                            penalty = 0
                        else:
                            bc = core.branch_counters
                            counter = bc.get(iid, 2)
                            if taken:
                                bc[iid] = counter + 1 if counter < 3 else 3
                            else:
                                bc[iid] = counter - 1 if counter > 0 else 0
                            if (counter >= 2) == taken:
                                penalty = 0
                            else:
                                core.mispredictions += 1
                                penalty = mispredict_penalty
                        if penalty:
                            c_min_issue = t + 1 + penalty
                        ti = t + 1
                        if ti > c_finish:
                            c_finish = ti
                        recs = thread_blocks[index][tk if taken else nt]
                        pos = 0
                    elif code == _JMP:
                        _c, ridx, _i, target, limit = rec
                        t = c_min_issue
                        while True:
                            if t > c_cycle:
                                c_cycle = t
                                c_issued = 0
                                pu[0] = pu[1] = pu[2] = pu[3] = 0
                            if c_issued < issue_width and pu[3] < limit:
                                c_issued += 1
                                pu[3] += 1
                                c_min_issue = t
                                tf = t + 1.0
                                if tf > c_finish:
                                    c_finish = tf
                                break
                            t += 1
                        ti = t + 1
                        if ti > c_finish:
                            c_finish = ti
                        recs = thread_blocks[index][target]
                        pos = 0
                    elif code == _PRODUCE or code == _PRODUCE_SYNC:
                        if code == _PRODUCE:
                            _c, ridx, _i, s0, q, limit = rec
                        else:
                            _c, ridx, _i, q, limit = rec
                            s0 = None
                        if len(queues.queues[q]) >= qcap:
                            break  # functionally full: retry after consumers
                        slot_free = queues.slot_free_time(q)
                        if s0 is not None:
                            own_ready = rr[s0]
                            value = regs[s0]
                            if value is _UNDEF:
                                _trap_undef(names[s0], fname)
                        else:
                            own_ready = c_last_mem
                            value = 0
                        mi_f = float(c_min_issue)
                        if mi_f > own_ready:
                            own_ready = mi_f
                        if slot_free > own_ready:
                            core.backpressure_cycles += slot_free - own_ready
                            earliest = slot_free
                        else:
                            earliest = own_ready
                        core.cycle = c_cycle
                        core.issued_in_cycle = c_issued
                        core.min_issue = c_min_issue
                        core.finish = c_finish
                        t = _issue_sa(core, earliest, limit, issue_width)
                        c_cycle = core.cycle
                        c_issued = core.issued_in_cycle
                        c_min_issue = core.min_issue
                        c_finish = core.finish
                        queues.staged_push_time = float(t + 1)
                        queues.try_push(q, value)
                        ti = t + 1
                        if ti > c_finish:
                            c_finish = ti
                        pos += 1
                    elif code == _CONSUME or code == _CONSUME_SYNC:
                        if code == _CONSUME:
                            _c, ridx, _i, dest, q, limit = rec
                        else:
                            _c, ridx, _i, q, limit = rec
                            dest = None
                        ok, value = queues.try_pop(q)
                        if not ok:
                            break  # queue empty: blocked
                        if dest is not None:
                            regs[dest] = value
                        core.cycle = c_cycle
                        core.issued_in_cycle = c_issued
                        core.min_issue = c_min_issue
                        core.finish = c_finish
                        t = _issue_sa(core, 0.0, limit, issue_width)
                        c_cycle = core.cycle
                        c_issued = core.issued_in_cycle
                        c_min_issue = core.min_issue
                        c_finish = core.finish
                        data_ready = queues.last_popped_time + sa_latency
                        if queue_crossing is not None:
                            data_ready += queue_crossing[q]
                        ti = t + 1
                        if data_ready > ti:
                            core.operand_wait_cycles += data_ready - ti
                            available = data_ready
                        else:
                            available = float(ti)
                        if dest is not None:
                            rr[dest] = available
                        elif available > c_mem_fence:
                            c_mem_fence = available
                        queues.record_pop_completion(q, available, None)
                        if available > c_finish:
                            c_finish = available
                        pos += 1
                    elif code == _EXIT:
                        _c, ridx, _i, limit = rec
                        t = c_min_issue
                        while True:
                            if t > c_cycle:
                                c_cycle = t
                                c_issued = 0
                                pu[0] = pu[1] = pu[2] = pu[3] = 0
                            if c_issued < issue_width and pu[3] < limit:
                                c_issued += 1
                                pu[3] += 1
                                c_min_issue = t
                                tf = t + 1.0
                                if tf > c_finish:
                                    c_finish = tf
                                break
                            t += 1
                        ti = t + 1
                        if ti > c_finish:
                            c_finish = ti
                        ccounts[ridx] += 1
                        executed += 1
                        total_steps += 1
                        if total_steps > max_steps:
                            raise MTExecutionLimitExceeded(
                                "%s exceeded %d steps"
                                % (memory_owner.name, max_steps))
                        live[index] = False
                        break
                    else:  # _NOP
                        _c, ridx, _i, limit = rec
                        t = c_min_issue
                        while True:
                            if t > c_cycle:
                                c_cycle = t
                                c_issued = 0
                                pu[0] = pu[1] = pu[2] = pu[3] = 0
                            if c_issued < issue_width and pu[0] < limit:
                                c_issued += 1
                                pu[0] += 1
                                c_min_issue = t
                                tf = t + 1.0
                                if tf > c_finish:
                                    c_finish = tf
                                break
                            t += 1
                        ti = t + 1
                        if ti > c_finish:
                            c_finish = ti
                        pos += 1
                    ccounts[ridx] += 1
                    executed += 1
                    total_steps += 1
                    if total_steps > max_steps:
                        raise MTExecutionLimitExceeded(
                            "%s exceeded %d steps"
                            % (memory_owner.name, max_steps))
                core.cycle = c_cycle
                core.issued_in_cycle = c_issued
                core.min_issue = c_min_issue
                core.finish = c_finish
                core.mem_fence = c_mem_fence
                core.last_mem_complete = c_last_mem
                cur_recs[index] = recs
                cur_idx[index] = pos
                if executed:
                    progressed = True
            if not progressed and any(live):
                blocked = [cur_recs[i][cur_idx[i]][2]
                           for i in range(n) if live[i]]
                raise DeadlockError("all live threads blocked: %s" % blocked)

    per_thread_instructions = [0] * n
    per_thread_communication = [0] * n
    opcode_counts: Counter = Counter()
    for index in range(n):
        meta = thread_meta[index]
        executed = 0
        comm = 0
        for ridx, count in enumerate(counts[index]):
            if not count:
                continue
            executed += count
            op = meta[ridx].op
            opcode_counts[op] += count
            if op in COMM_OPCODES:
                comm += count
        per_thread_instructions[index] = executed
        per_thread_communication[index] = comm

    exit_regs = thread_regs[exit_thread]
    exit_index = thread_index[exit_thread]
    live_outs = {}
    for register in memory_owner.live_outs:
        i = exit_index.get(register)
        value = exit_regs[i] if i is not None else None
        live_outs[register] = None if value is _UNDEF else value
    core_finish = [0.0] * max(len(cores), max(placement[:n],
                                              default=-1) + 1)
    for core in cores:
        core_finish[core.core_id] = core.finish
    comm_stats = {
        "backpressure_cycles": sum(c.backpressure_cycles for c in cores),
        "operand_wait_cycles": sum(c.operand_wait_cycles for c in cores),
        "sa_port_delays": sum(c.sa_port_delays for c in cores),
        "mispredictions": sum(c.mispredictions for c in cores),
    }
    if tracer is not None:
        tracer.on_finish(core_finish, hierarchy.stats(), comm_stats)
    return TimedResult(max(core_finish) if core_finish else 0.0,
                       core_finish, per_thread_instructions,
                       per_thread_communication, opcode_counts, live_outs,
                       memory, hierarchy.stats(), queues, comm_stats)


def _issue_traced(core, earliest, pidx, limit, issue_width, uses_sa):
    """``find_issue_slot`` that also records the cycles lost to width/
    port limits and to SA port displacement (the ``port_conflict`` and
    ``sa_port_contention`` stall components)."""
    mi = core.min_issue
    if earliest > mi:
        t = int(earliest)
        if earliest > t:
            t += 1
    else:
        t = mi
    port_delay = sa_delay = 0
    pu = core.port_use
    while True:
        if t > core.cycle:
            core.cycle = t
            core.issued_in_cycle = 0
            pu[0] = pu[1] = pu[2] = pu[3] = 0
        if core.issued_in_cycle < issue_width and pu[pidx] < limit:
            if uses_sa:
                free = core.sa.next_free(t)
                if free != t:
                    core.sa_port_delays += 1
                    sa_delay += free - t
                    t = free
                    continue
                core.sa.book(t)
            core.issued_in_cycle += 1
            pu[pidx] += 1
            core.min_issue = t
            tf = t + 1.0
            if tf > core.finish:
                core.finish = tf
            core.port_delay = port_delay
            core.sa_delay = sa_delay
            return t
        port_delay += 1
        t += 1


def _operands(core, rr, sources, srcs, min_issue_before, use_fence):
    """The issue constraint of an instruction's source registers (and
    the memory fence, for loads and stores) plus its trace view:
    ``(ready, raw stall components, register/memory edges)``.  Must run
    before the instruction's own destination update."""
    deps = []
    ready = 0.0
    kind = None
    for r in srcs:
        value = rr[r]
        source = sources[r]
        if source is not None and value > 0.0:
            deps.append((source[0], "register", value))
        if value > ready:
            ready = value
            kind = source[1] if source is not None else None
    if use_fence and core.mem_fence > ready:
        ready = core.mem_fence
        kind = "fence"
        if core.fence_event is not None:
            deps.append((core.fence_event, "memory", core.mem_fence))
    delay = ready - min_issue_before
    if delay > 0.0:
        category = ("sa_queue_empty" if kind == "fence"
                    else PRODUCER_CATEGORY.get(kind, "operand_wait"))
        return ready, {category: delay}, deps
    return ready, {}, deps


def _emit(tracer, core, thread, info, op_class, issue, complete, raw,
          deps, queue=None, control_penalty=0.0, extra=None):
    """Attach the common edges (in-order predecessor, pending control
    redirect) and the issue-slot conflicts, and emit one event."""
    if core.last_event_seq is not None:
        deps.append((core.last_event_seq, "order",
                     float(core.last_event_issue)))
    if core.pending_control is not None:
        deps.append((core.pending_control[0], "control",
                     core.pending_control[1]))
        core.pending_control = None
    if core.port_delay:
        raw["port_conflict"] = float(core.port_delay)
    if core.sa_delay:
        raw["sa_port_contention"] = float(core.sa_delay)
    seq = tracer.on_event(
        core.core_id, thread, info[0], info[1], op_class, issue, complete,
        stall=raw, deps=tuple(deps), queue=queue,
        control_penalty=control_penalty, extra=extra)
    core.last_event_seq = seq
    core.last_event_issue = issue
    return seq


def _run_traced(tracer, functions, cores, thread_blocks, thread_meta,
                thread_regs, thread_rr, thread_names, counts, live, queues,
                hierarchy, cluster_ports, config, memory, queue_crossing,
                max_steps, owner_name) -> None:
    """The simulation loop with the trace sink: the same records, burst
    schedule and timing as the untraced loop of :func:`simulate_threads`,
    plus one ``tracer.on_event`` per issued instruction and one
    ``tracer.on_queue_depth`` per produce/consume.  Written for clarity
    rather than speed (the tracer's own accounting dominates anyway)."""
    n = len(functions)
    issue_width = config.issue_width
    pred_mode = 2 if config.branch_predictor == "perfect" else (
        0 if config.branch_predictor == "static" else 1)
    taken_penalty = config.taken_branch_penalty
    mispredict_penalty = config.mispredict_penalty
    sa_latency = config.resolve_topology().sa_access_latency
    access = hierarchy.access
    mem_words = memory.words
    mem_size = memory.size
    qcap = queues.capacity if queues is not None else 0
    # Per thread: record index -> (iid, op name, source register
    # indices); register index -> (producing event seq, producer kind).
    thread_info = []
    for meta, reg_names in zip(thread_meta, thread_names):
        reg_index = {name: i for i, name in enumerate(reg_names)}
        thread_info.append([(i.iid, i.op.name.lower(),
                             tuple(reg_index[r] for r in i.srcs))
                            for i in meta])
    thread_sources = [[None] * len(rr) for rr in thread_rr]
    cur_recs = [blocks[0] for blocks in thread_blocks]
    cur_idx = [0] * n
    total_steps = 0

    while any(live):
        if any(len(schedule.booked) > SAPortSchedule.PRUNE_THRESHOLD
               for schedule in cluster_ports):
            watermark = min(cores[i].min_issue
                            for i in range(n) if live[i])
            for schedule in cluster_ports:
                schedule.prune(watermark)
        progressed = False
        for index in range(n):
            if not live[index]:
                continue
            core = cores[index]
            cid = core.core_id
            regs = thread_regs[index]
            rr = thread_rr[index]
            sources = thread_sources[index]
            names = thread_names[index]
            fname = functions[index].name
            infos = thread_info[index]
            recs = cur_recs[index]
            pos = cur_idx[index]
            executed = 0
            for _ in range(64):
                rec = recs[pos]
                code = rec[0]
                ridx = rec[1]
                info = infos[ridx]
                mib = float(core.min_issue)
                if code <= _MOVI:
                    if code == _MOVI:
                        _c, _r, _i, dest, imm, limit, latency = rec
                        pidx = _PORT_ALU
                        regs[dest] = imm
                    else:
                        fn, dest, s0 = rec[3], rec[4], rec[5]
                        pidx, limit, latency = rec[-3:]
                        v0 = regs[s0]
                        if v0 is _UNDEF:
                            _trap_undef(names[s0], fname)
                        if code == _ALU_RR:
                            v1 = regs[rec[6]]
                            if v1 is _UNDEF:
                                _trap_undef(names[rec[6]], fname)
                            regs[dest] = fn(v0, v1)
                        elif code == _ALU_RI:
                            regs[dest] = fn(v0, rec[6])
                        else:
                            regs[dest] = fn(v0)
                    ready, raw, deps = _operands(core, rr, sources,
                                                 info[2], mib, False)
                    t = _issue_traced(core, ready, pidx, limit,
                                      issue_width, False)
                    fin = t + latency
                    sources[dest] = (_emit(
                        tracer, core, index, info, _PORT_NAMES[pidx], t,
                        fin, raw, deps), "alu")
                    rr[dest] = fin
                    if fin > core.finish:
                        core.finish = fin
                    pos += 1
                elif code == _LOAD or code == _STORE:
                    _c, _r, _i, r0, s0, offset, limit = rec
                    base = regs[s0 if code == _LOAD else r0]
                    if base is _UNDEF:
                        _trap_undef(names[s0 if code == _LOAD else r0],
                                    fname)
                    address = base + offset
                    if not isinstance(address, int):
                        raise TrapError("non-integer address %r"
                                        % (address,))
                    if code == _LOAD:
                        if not 0 <= address < mem_size:
                            raise MemoryError_(
                                "load from address %r (size %d)"
                                % (address, mem_size))
                        regs[r0] = mem_words[address]
                    else:
                        value = regs[s0]
                        if value is _UNDEF:
                            _trap_undef(names[s0], fname)
                        if not 0 <= address < mem_size:
                            raise MemoryError_(
                                "store to address %r (size %d)"
                                % (address, mem_size))
                        mem_words[address] = value
                    ready, raw, deps = _operands(core, rr, sources,
                                                 info[2], mib, True)
                    t = _issue_traced(core, ready, _PORT_MEM, limit,
                                      issue_width, False)
                    if code == _LOAD:
                        latency = access(cid, address, False)
                        level = hierarchy.last_level
                        fin = t + latency
                        seq = _emit(tracer, core, index, info, "memory",
                                    t, fin, raw, deps,
                                    extra={"cache_level": level})
                        sources[r0] = (seq, "load_" + level)
                        if fin >= core.last_mem_complete:
                            core.last_mem_event = seq
                            core.last_mem_kind = "load_" + level
                        if fin > core.last_mem_complete:
                            core.last_mem_complete = fin
                        rr[r0] = fin
                    else:
                        access(cid, address, True)
                        fin = t + 1
                        seq = _emit(tracer, core, index, info, "memory",
                                    t, float(fin), raw, deps)
                        if fin >= core.last_mem_complete:
                            core.last_mem_event = seq
                            core.last_mem_kind = "store"
                        if fin > core.last_mem_complete:
                            core.last_mem_complete = float(fin)
                    if fin > core.finish:
                        core.finish = fin
                    pos += 1
                elif code == _BR:
                    _c, _r, _i, s0, iid, tk, nt, limit = rec
                    v0 = regs[s0]
                    if v0 is _UNDEF:
                        _trap_undef(names[s0], fname)
                    taken = bool(v0)
                    ready, raw, deps = _operands(core, rr, sources,
                                                 info[2], mib, False)
                    t = _issue_traced(core, ready, _PORT_BR, limit,
                                      issue_width, False)
                    if pred_mode == 0:
                        penalty = taken_penalty if taken else 0
                    elif pred_mode == 2:
                        penalty = 0
                    else:
                        counter = core.branch_counters.get(iid, 2)
                        core.branch_counters[iid] = (
                            min(3, counter + 1) if taken
                            else max(0, counter - 1))
                        if (counter >= 2) == taken:
                            penalty = 0
                        else:
                            core.mispredictions += 1
                            penalty = mispredict_penalty
                    seq = _emit(tracer, core, index, info, "branch", t,
                                float(t + 1), raw, deps,
                                control_penalty=float(penalty))
                    if penalty:
                        core.pending_control = (seq,
                                                float(t + 1 + penalty))
                        core.min_issue = t + 1 + penalty
                    if t + 1 > core.finish:
                        core.finish = t + 1
                    recs = thread_blocks[index][tk if taken else nt]
                    pos = 0
                elif code == _PRODUCE or code == _PRODUCE_SYNC:
                    if code == _PRODUCE:
                        _c, _r, _i, s0, q, limit = rec
                    else:
                        _c, _r, _i, q, limit = rec
                        s0 = None
                    if len(queues.queues[q]) >= qcap:
                        break  # functionally full: retry after consumers
                    slot_free = queues.slot_free_time(q)
                    if s0 is not None:
                        own_ready, raw, deps = _operands(
                            core, rr, sources, info[2], mib, False)
                    else:
                        own_ready = core.last_mem_complete
                        raw = {}
                        deps = []
                        if own_ready - mib > 0.0:
                            raw[PRODUCER_CATEGORY.get(
                                core.last_mem_kind,
                                "operand_wait")] = own_ready - mib
                        if core.last_mem_event is not None:
                            deps.append((core.last_mem_event, "memory",
                                         own_ready))
                    if mib > own_ready:
                        own_ready = mib
                    earliest = own_ready
                    if slot_free > own_ready:
                        core.backpressure_cycles += slot_free - own_ready
                        raw["sa_queue_full"] = slot_free - own_ready
                        free_seq = queues.slot_free_seq(q)
                        if free_seq is not None:
                            deps.append((free_seq, "communication",
                                         slot_free))
                        earliest = slot_free
                    t = _issue_traced(core, earliest, _PORT_MEM, limit,
                                      issue_width, True)
                    queues.staged_push_time = float(t + 1)
                    queues.staged_push_seq = _emit(
                        tracer, core, index, info, "comm", t,
                        float(t + 1), raw, deps, queue=q)
                    value = 0
                    if s0 is not None:
                        value = regs[s0]
                        if value is _UNDEF:
                            _trap_undef(names[s0], fname)
                    queues.try_push(q, value)
                    if t + 1 > core.finish:
                        core.finish = t + 1
                    tracer.on_queue_depth(q, float(t + 1),
                                          len(queues.queues[q]))
                    pos += 1
                elif code == _CONSUME or code == _CONSUME_SYNC:
                    if code == _CONSUME:
                        _c, _r, _i, dest, q, limit = rec
                    else:
                        _c, _r, _i, q, limit = rec
                        dest = None
                    ok, value = queues.try_pop(q)
                    if not ok:
                        break  # queue empty: blocked
                    if dest is not None:
                        regs[dest] = value
                    t = _issue_traced(core, 0.0, _PORT_MEM, limit,
                                      issue_width, True)
                    data_ready = queues.last_popped_time + sa_latency
                    if queue_crossing is not None:
                        data_ready += queue_crossing[q]
                    raw = {}
                    available = float(t + 1)
                    if data_ready > t + 1:
                        core.operand_wait_cycles += data_ready - (t + 1)
                        raw["sa_queue_empty"] = data_ready - (t + 1)
                        available = data_ready
                    if dest is not None:
                        rr[dest] = available
                    elif available > core.mem_fence:
                        core.mem_fence = available
                    deps = []
                    if queues.last_popped_seq is not None:
                        deps.append((queues.last_popped_seq,
                                     "communication", data_ready))
                    seq = _emit(tracer, core, index, info, "comm", t,
                                available, raw, deps, queue=q)
                    if dest is not None:
                        sources[dest] = (seq, "consume")
                    else:
                        core.fence_event = seq
                    tracer.on_queue_depth(q, float(t + 1),
                                          len(queues.queues[q]))
                    queues.record_pop_completion(q, available, seq)
                    if available > core.finish:
                        core.finish = available
                    pos += 1
                else:  # _JMP, _EXIT, _NOP: no sources, no stall
                    limit = rec[-1]
                    pidx = _PORT_ALU if code == _NOP else _PORT_BR
                    t = _issue_traced(core, 0.0, pidx, limit, issue_width,
                                      False)
                    _emit(tracer, core, index, info, _PORT_NAMES[pidx], t,
                          float(t + 1), {}, [])
                    if t + 1 > core.finish:
                        core.finish = t + 1
                    if code == _JMP:
                        recs = thread_blocks[index][rec[3]]
                        pos = 0
                    else:
                        pos += 1
                counts[index][ridx] += 1
                executed += 1
                total_steps += 1
                if total_steps > max_steps:
                    raise MTExecutionLimitExceeded(
                        "%s exceeded %d steps" % (owner_name, max_steps))
                if code == _EXIT:
                    live[index] = False
                    break
            cur_recs[index] = recs
            cur_idx[index] = pos
            if executed:
                progressed = True
        if not progressed and any(live):
            blocked = [cur_recs[i][cur_idx[i]][2]
                       for i in range(n) if live[i]]
            raise DeadlockError("all live threads blocked: %s" % blocked)


def simulate_program(program: MTProgram,
                     args: Optional[Mapping[str, object]] = None,
                     initial_memory: Optional[Mapping[str, object]] = None,
                     config: MachineConfig = DEFAULT_CONFIG,
                     max_steps: int = 200_000_000,
                     tracer=None,
                     placement=None) -> TimedResult:
    """Timed simulation of MTCG output.  ``placement`` (a
    :class:`~repro.machine.placement.Placement` or a raw thread->core
    sequence) selects the cores; identity on a machine sized to the
    thread count otherwise."""
    cores = getattr(placement, "cores", placement)
    if config.topology is None:
        config = config.with_cores(max(program.n_threads, 1))
    return simulate_threads(program.threads, program.exit_thread,
                            program.original, args, initial_memory, config,
                            n_queues=program.n_queues, max_steps=max_steps,
                            tracer=tracer, placement=cores,
                            queue_crossing=queue_crossing_penalties(
                                program, config, cores))


def simulate_single(function: Function,
                    args: Optional[Mapping[str, object]] = None,
                    initial_memory: Optional[Mapping[str, object]] = None,
                    config: MachineConfig = DEFAULT_CONFIG,
                    max_steps: int = 200_000_000,
                    tracer=None) -> TimedResult:
    """Timed simulation of the original single-threaded code on one core."""
    if config.topology is None:
        config = config.with_cores(1)
    return simulate_threads([function], 0, function, args, initial_memory,
                            config, n_queues=0, max_steps=max_steps,
                            tracer=tracer)
