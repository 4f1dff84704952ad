"""Machine configuration: the dual-core CMP model of the papers' Figure 6(a).

Two (or more) validated-Itanium-2-like in-order cores connected by a
synchronization array (Rangan et al., PACT 2004).  All parameters below are
taken from the shared experimental setup table; they drive both the timing
simulator and the partitioners' cost models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..ir.instructions import Instruction, OpKind, Opcode
from .topology import Topology


@dataclass(frozen=True)
class CacheConfig:
    name: str
    size_bytes: int
    associativity: int
    line_bytes: int
    hit_latency: int


@dataclass(frozen=True)
class MachineConfig:
    """The CMP model's parameters (defaults = the papers' configuration)."""

    n_cores: int = 2
    issue_width: int = 6
    alu_ports: int = 6
    memory_ports: int = 4
    fp_ports: int = 2
    branch_ports: int = 3
    taken_branch_penalty: int = 1
    # Branch handling: "static" charges taken_branch_penalty on every
    # taken branch (the conservative default); "bimodal" models per-branch
    # 2-bit counters with a mispredict penalty instead; "perfect" never
    # pays a redirect penalty.
    branch_predictor: str = "static"
    mispredict_penalty: int = 6

    # Synchronization array.
    sa_queues: int = 256
    sa_queue_size: int = 1          # 32 for DSWP (pipeline parallelism)
    sa_access_latency: int = 1
    sa_ports: int = 4               # shared between all cores
    # Minimum producer-to-consumer cycles (produce at commit + SA access).
    comm_latency: int = 2

    # Memory hierarchy (private L1/L2, shared L3).
    l1d: CacheConfig = CacheConfig("L1D", 16 * 1024, 4, 64, 1)
    l2: CacheConfig = CacheConfig("L2", 256 * 1024, 8, 128, 7)
    l3: CacheConfig = CacheConfig("L3", 1536 * 1024, 12, 128, 12)
    memory_latency: int = 141
    word_bytes: int = 8

    # Explicit machine topology (clusters, per-cluster SA slices, L3
    # domains).  ``None`` resolves to a flat single-cluster machine built
    # from the scalar SA parameters above — exactly the papers' shape.
    topology: Optional[Topology] = None

    # Operation latencies (cycles until the result is usable).
    op_latencies: Dict[Opcode, int] = field(default_factory=lambda: dict(
        _DEFAULT_LATENCIES))

    def latency_of(self, instruction: Instruction) -> int:
        """Best-case (L1-hit, queue-ready) latency of one instruction."""
        return self.op_latencies.get(instruction.op, 1)

    def for_dswp(self) -> "MachineConfig":
        """The DSWP configuration: 32-entry queues."""
        return replace(self, sa_queue_size=32)

    def with_cores(self, n_cores: int) -> "MachineConfig":
        """A copy with ``n_cores`` set.  How many of those cores a
        program actually occupies is the placement stage's business
        (:mod:`repro.machine.placement`) — this only sizes the machine."""
        return replace(self, n_cores=n_cores)

    def resolve_topology(self) -> Topology:
        """The effective topology: the explicit one when set, else a
        flat single-cluster machine of ``n_cores`` cores carrying this
        config's scalar SA parameters (bit-for-bit the legacy model)."""
        if self.topology is not None:
            return self.topology
        return Topology.flat(self.n_cores,
                             sa_access_latency=self.sa_access_latency,
                             sa_ports=self.sa_ports,
                             sa_queues=self.sa_queues)

    def crossing_cycles(self, core_a: int, core_b: int) -> int:
        """Extra communication latency between two placed cores (zero on
        any flat machine)."""
        return self.resolve_topology().crossing(core_a, core_b)

    def port_kind(self, instruction: Instruction) -> str:
        """Which issue-port class an instruction occupies.  produce/consume
        use the M (memory) pipeline, as in the papers' ISA extension."""
        kind = instruction.kind
        if kind in (OpKind.LOAD, OpKind.STORE, OpKind.COMM):
            return "memory"
        if kind is OpKind.FP:
            return "fp"
        if kind in (OpKind.BRANCH, OpKind.JUMP, OpKind.EXIT):
            return "branch"
        return "alu"

    def port_limit(self, port: str) -> int:
        return {"memory": self.memory_ports, "fp": self.fp_ports,
                "branch": self.branch_ports, "alu": self.alu_ports}[port]


_DEFAULT_LATENCIES: Dict[Opcode, int] = {}
for _op in Opcode:
    _DEFAULT_LATENCIES[_op] = 1
_DEFAULT_LATENCIES.update({
    Opcode.MUL: 3,
    Opcode.IDIV: 24,
    Opcode.IMOD: 24,
    Opcode.SHL: 1,
    Opcode.SHR: 1,
    Opcode.ITOF: 4,
    Opcode.FTOI: 4,
    Opcode.FADD: 4,
    Opcode.FSUB: 4,
    Opcode.FMUL: 4,
    Opcode.FMIN: 4,
    Opcode.FMAX: 4,
    Opcode.FNEG: 1,
    Opcode.FABS: 1,
    Opcode.FDIV: 24,
    Opcode.FSQRT: 30,
    Opcode.LOAD: 1,     # plus cache penalties from the hierarchy model
    Opcode.STORE: 1,
    Opcode.PRODUCE: 1,
    Opcode.CONSUME: 1,
    Opcode.PRODUCE_SYNC: 1,
    Opcode.CONSUME_SYNC: 1,
})

DEFAULT_CONFIG = MachineConfig()


@dataclass(frozen=True)
class TunableField:
    """Validation contract of one machine-config field the auto-tuner
    (``repro tune``) may override: integer fields carry an inclusive
    range, choice fields an allowed-value set."""

    lo: Optional[int] = None
    hi: Optional[int] = None
    choices: Optional[Tuple[str, ...]] = None

    def check(self, name: str, value: object) -> None:
        if self.choices is not None:
            if value not in self.choices:
                raise ValueError(
                    "override %r must be one of %s, got %r"
                    % (name, ", ".join(self.choices), value))
            return
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError("override %r must be an integer, got %r"
                             % (name, value))
        if not self.lo <= value <= self.hi:
            raise ValueError("override %r must be in [%d, %d], got %d"
                             % (name, self.lo, self.hi, value))


#: The :class:`MachineConfig` fields ``repro tune`` may override
#: (``machine.<field>`` knobs), each with its validity envelope.  The
#: whitelist is deliberate: structural fields (``n_cores``, caches,
#: ``topology``) have dedicated pipeline knobs or invariants of their
#: own and are excluded.
TUNABLE_MACHINE_FIELDS: Dict[str, TunableField] = {
    "issue_width": TunableField(1, 16),
    "alu_ports": TunableField(1, 16),
    "memory_ports": TunableField(1, 16),
    "fp_ports": TunableField(1, 16),
    "branch_ports": TunableField(1, 16),
    "taken_branch_penalty": TunableField(0, 16),
    "branch_predictor": TunableField(
        choices=("static", "bimodal", "perfect")),
    "mispredict_penalty": TunableField(0, 64),
    "sa_queue_size": TunableField(1, 1024),
    "sa_access_latency": TunableField(1, 16),
    "sa_ports": TunableField(1, 64),
    "comm_latency": TunableField(1, 32),
    "memory_latency": TunableField(1, 2048),
}


def config_table(config: MachineConfig = DEFAULT_CONFIG) -> str:
    """Render the machine-configuration table (the papers' Figure 6(a))."""
    rows = [
        ("Core", "%d issue; ports: %d ALU, %d memory, %d FP, %d branch"
         % (config.issue_width, config.alu_ports, config.memory_ports,
            config.fp_ports, config.branch_ports)),
        ("L1D Cache", "%d cycle, %d KB, %d-way, %dB lines"
         % (config.l1d.hit_latency, config.l1d.size_bytes // 1024,
            config.l1d.associativity, config.l1d.line_bytes)),
        ("L2 Cache", "%d cycles, %d KB, %d-way, %dB lines"
         % (config.l2.hit_latency, config.l2.size_bytes // 1024,
            config.l2.associativity, config.l2.line_bytes)),
        ("Shared L3 Cache", "%d cycles, %.1f MB, %d-way, %dB lines"
         % (config.l3.hit_latency, config.l3.size_bytes / (1024 * 1024),
            config.l3.associativity, config.l3.line_bytes)),
        ("Main Memory", "latency: %d cycles" % config.memory_latency),
        ("Synch. Array", "%d queues, %d-entry, %d-cycle access, %d ports"
         % (config.sa_queues, config.sa_queue_size,
            config.sa_access_latency, config.sa_ports)),
        ("Operand Network", "produce-to-consume: %d cycles"
         % config.comm_latency),
        ("Branch Handling", "%s predictor, mispredict: %d cycles, "
         "taken-branch: %d cycle(s)"
         % (config.branch_predictor, config.mispredict_penalty,
            config.taken_branch_penalty)),
        ("Cores", str(config.n_cores)),
        ("Topology", config.resolve_topology().summary()),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join("%-*s | %s" % (width, label, text)
                     for label, text in rows)


#: Simulator names the ``backend`` parameters still accept (``--backend``,
#: ``MatrixCell``/``EvaluateRequest``/``TuneRequest``/``ServiceConfig``
#: ``.backend``).  There is one simulator
#: (:mod:`repro.machine.fast_timing`): the value is validated, kept out
#: of request keys, and otherwise ignored.  Deprecated; removed in the
#: next release.
BACKENDS = ("reference", "fast")
DEFAULT_BACKEND = "reference"


def validate_backend(name: str) -> str:
    """Return ``name`` if it is an accepted backend name, else raise."""
    if name not in BACKENDS:
        raise ValueError("unknown backend %r (expected one of %s)"
                         % (name, ", ".join(BACKENDS)))
    return name
