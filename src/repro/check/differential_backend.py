"""Differential equivalence checker: the simulator against its oracle.

The product simulator (:mod:`repro.machine.fast_timing`) promises
**bit-identical** results to the reference model kept as its oracle
(:mod:`repro.check.reference_timing`) — not "close", identical: every
cycle count, every per-core stall attribution, every queue timestamp,
every live-out, down to the int/float type of each number (the model
mixes both deliberately, and a ``1635`` silently becoming ``1635.0``
would change downstream repr-based fingerprints).  With a tracer
attached, the trace event streams must be identical too.  This module
is the executable form of that contract:

* :func:`snapshot_result` flattens a
  :class:`~repro.machine.timing.TimedResult` into a JSON-able tree
  whose leaves are ``[type_name, repr]`` pairs — equality of snapshots
  is bit-equality of results; :func:`snapshot_trace` does the same for
  everything a :class:`~repro.trace.TraceCollector` received;
* :func:`diff_snapshots` returns path-labelled differences
  (``cycles: ('int', '1635') != ('float', '1635.0')``);
* :func:`run_workload_case` / :func:`run_fuzz_case` execute one
  comparison — a registry workload under a (technique, topology,
  trace) configuration, or a seeded random program from
  :mod:`repro.check.generate` — on **both** implementations and report
  the divergences plus per-implementation host seconds;
* :func:`run_differential` sweeps the whole grid (all workloads x
  topology presets x partitioners x trace on/off, plus N fuzz seeds)
  and aggregates a machine-readable report —
  ``tools/check_backend_equivalence.py`` turns it into the CI
  ``backend-equivalence`` job and uploads the report on failure.
"""

from __future__ import annotations

import json
import random
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from .. import machine
from ..machine.placement import make_placement
from ..mtcg.codegen import generate
from ..pipeline.core import parallelize
from ..pipeline.stages import normalize
from ..trace import (DEFAULT_EVENT_LIMIT, TraceCollector, analyze,
                     stall_report_json)
from ..workloads import all_workloads, get_workload
from . import reference_timing
from .generate import random_args, random_partition, random_sketch, \
    render_program

ProgressFn = Optional[Callable[[str], None]]

#: The default comparison grid (mirrors tests/test_backend_equivalence).
DEFAULT_TOPOLOGIES = (None, "paper-dual", "quad-2x2")
DEFAULT_TECHNIQUES = ("gremio", "dswp")

#: Cores per preset: quad-2x2 fits 4 threads, the rest 2.
_TOPOLOGY_THREADS = {None: 2, "paper-dual": 2, "quad-2x2": 4}

#: Traced cases added per workload when tracing is compared:
#: (technique, topology preset, threads, placer), each with COCO off
#: and on — flat and clustered SA ports, affinity placement, and
#: inter-cluster crossings all feed the trace's stall components.
TRACED_CASES = (("gremio", "paper-dual", 2, "identity"),
                ("dswp", "quad-2x2", 4, "affinity"),
                ("gremio", "octa-hier", 4, "identity"))

#: Event-ring size of the truncation case: small enough that every
#: workload evicts events, so the ``dropped`` counts are compared.
TRUNCATED_TRACE_LIMIT = 64

#: The two implementations a comparison runs: the oracle (reported as
#: "reference") first, then the product simulator (reported as "fast").
IMPLEMENTATIONS = (reference_timing, machine)


def _typed(value):
    """JSON-able, type-preserving view: containers recurse, every leaf
    becomes ``[type_name, repr]`` so ``1`` never equals ``1.0``."""
    if isinstance(value, dict):
        return {str(key): _typed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_typed(item) for item in value]
    return [type(value).__name__, repr(value)]


def snapshot_result(result) -> Dict[str, object]:
    """Every observable of a TimedResult, typed (see module docstring)."""
    queues = None
    if result.queues is not None:
        q = result.queues
        queues = {
            "push_counts": list(q.push_counts),
            "pop_counts": list(q.pop_counts),
            "pop_times": [list(times) for times in q.pop_times],
            "timestamps": [list(times) for times in q.timestamps],
            "staged_push_time": q.staged_push_time,
            "last_popped_time": q.last_popped_time,
            "total_pushes": q.total_pushes,
            "pushes_per_queue": list(q.pushes_per_queue),
            "max_occupancy": q.max_occupancy,
        }
    return _typed({
        "cycles": result.cycles,
        "core_finish": list(result.core_finish),
        "per_thread_instructions": list(result.per_thread_instructions),
        "per_thread_communication":
            list(result.per_thread_communication),
        "opcode_counts": dict(sorted(
            (opcode.value, count)
            for opcode, count in result.opcode_counts.items())),
        "live_outs": result.live_outs,
        "memory": list(result.memory.snapshot()),
        "cache_stats": dict(result.cache_stats),
        "comm_stats": dict(result.comm_stats),
        "queues": queues,
    })


def snapshot_trace(collector) -> Dict[str, object]:
    """Everything a finished TraceCollector received, byte for byte:
    each event as the JSON it exports to (key order and int/float types
    included), the queue-depth samples, what each ring dropped, the
    ``on_topology`` cluster map, the ``on_finish`` arguments, and the
    :func:`~repro.trace.analyze` report built from them."""
    return _typed({
        "events": [json.dumps(event.as_dict())
                   for event in collector.events],
        "dropped": collector.events.dropped,
        "queue_samples": [(sample.queue, sample.cycle, sample.depth)
                          for sample in collector.queue_samples],
        "queue_samples_dropped": collector.queue_samples.dropped,
        "cluster_of": collector.cluster_of,
        "core_finish": collector.core_finish,
        "cache_stats": collector.cache_stats,
        "comm_stats": collector.comm_stats,
        "report": stall_report_json(analyze(collector)),
    })


def diff_snapshots(reference, fast, path: str = "",
                   limit: int = 50) -> List[str]:
    """Path-labelled differences between two snapshots (both sides
    produced by :func:`snapshot_result` / :func:`snapshot_trace`)."""
    diffs: List[str] = []
    _diff(reference, fast, path, diffs)
    return diffs[:limit]


def _diff(a, b, path: str, out: List[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            _diff(a.get(key), b.get(key),
                  "%s.%s" % (path, key) if path else str(key), out)
        return
    if isinstance(a, list) and isinstance(b, list) \
            and not _is_leaf(a) and not _is_leaf(b):
        if len(a) != len(b):
            out.append("%s: length %d != %d" % (path, len(a), len(b)))
            return
        for index, (left, right) in enumerate(zip(a, b)):
            _diff(left, right, "%s[%d]" % (path, index), out)
        return
    if a != b:
        out.append("%s: %r != %r" % (path, a, b))


def _is_leaf(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(isinstance(item, str) for item in value))


class CaseResult:
    """One executed comparison: a label, the divergences (empty =
    bit-identical), and the host seconds of the oracle ("reference")
    and of the product simulator ("fast")."""

    def __init__(self, label: str, divergences: List[str],
                 reference_seconds: float, fast_seconds: float):
        self.label = label
        self.divergences = divergences
        self.reference_seconds = reference_seconds
        self.fast_seconds = fast_seconds

    @property
    def ok(self) -> bool:
        return not self.divergences

    def as_dict(self) -> Dict[str, object]:
        return {"label": self.label, "ok": self.ok,
                "divergences": list(self.divergences),
                "reference_seconds": round(self.reference_seconds, 6),
                "fast_seconds": round(self.fast_seconds, 6)}

    def __repr__(self) -> str:  # pragma: no cover
        return "<CaseResult %s: %s>" % (
            self.label, "ok" if self.ok else
            "%d divergences" % len(self.divergences))


def _capture(run, snapshot) -> Dict[str, object]:
    """Run one implementation; an exception is an observable too — both
    must raise the same type with the same message (fuzz programs trap
    by design: division by zero, undefined registers)."""
    try:
        return {"result": snapshot(run())}
    except Exception as error:
        return {"error": _typed([type(error).__name__, str(error)])}


def _compare(label: str, run_reference, run_fast,
             snapshot=snapshot_result, may_raise: bool = False
             ) -> CaseResult:
    """Run both sides and diff them.  Unless ``may_raise`` (random
    programs trap by design), an exception is a failure even when both
    sides raise it: registry workloads always run to completion."""
    started = time.perf_counter()
    reference = _capture(run_reference, snapshot)
    mid = time.perf_counter()
    fast = _capture(run_fast, snapshot)
    done = time.perf_counter()
    divergences = diff_snapshots(reference, fast)
    if not may_raise:
        divergences += ["%s raised %s" % (side, capture["error"])
                        for side, capture in (("reference", reference),
                                              ("fast", fast))
                        if "error" in capture]
    return CaseResult(label, divergences, mid - started, done - mid)


def run_workload_case(workload_name: str,
                      technique: Optional[str] = None,
                      topology: Optional[str] = None,
                      n_threads: int = 2,
                      scale: str = "train",
                      trace: bool = False,
                      placer: str = "identity",
                      coco: bool = False,
                      trace_limit: Optional[int] = None) -> CaseResult:
    """Compare the oracle and the simulator on one registry workload.

    ``technique=None`` runs the single-threaded simulator; otherwise the
    workload is parallelized once (``placer`` places the threads,
    ``coco`` runs the communication optimizer) and the resulting MT
    program timed by both.  ``trace=True`` attaches an independent
    TraceCollector (ring size ``trace_limit``) to each run and compares
    everything it received too.
    """
    workload = get_workload(workload_name)
    inputs = workload.make_inputs(scale)
    label = "%s/%s/%s/%dT%s%s%s%s" % (
        workload_name, technique or "st", topology or "flat", n_threads,
        "" if placer == "identity" else "/" + placer,
        "/coco" if coco else "", "/trace" if trace else "",
        "" if trace_limit is None else "-%d" % trace_limit)
    if technique is None:
        return _compare(label, *(
            _runner(impl.simulate_single, workload.build(), inputs.args,
                    inputs.memory)
            for impl in IMPLEMENTATIONS))

    train = workload.make_inputs("train")
    built = parallelize(workload.build(), technique=technique,
                        n_threads=n_threads, profile_args=train.args,
                        profile_memory=train.memory, cache=False,
                        topology=topology, coco=coco)
    placement = make_placement(placer, n_threads,
                               built.config.resolve_topology(),
                               pdg=built.pdg, partition=built.partition,
                               profile=built.profile)
    runs = [_runner(impl.simulate_program, built.program, inputs.args,
                    inputs.memory, config=built.config,
                    placement=placement, trace=trace,
                    trace_limit=trace_limit)
            for impl in IMPLEMENTATIONS]
    return _compare(label, *runs,
                    snapshot=snapshot_trace if trace else snapshot_result)


def _runner(simulate, *args, trace: bool = False,
            trace_limit: Optional[int] = None, **kwargs):
    """A thunk running one implementation.  A traced run returns its
    collector, whose ``on_finish`` arguments carry the run's finish
    times and statistics."""
    def go():
        if not trace:
            return simulate(*args, **kwargs)
        collector = TraceCollector(limit=trace_limit or DEFAULT_EVENT_LIMIT)
        simulate(*args, tracer=collector, **kwargs)
        return collector
    return go


def run_fuzz_case(seed: int, depth: int = 2,
                  max_threads: int = 3) -> CaseResult:
    """Compare the oracle and the simulator on one seeded random
    program: the single-threaded run, plus an MTCG program built from a
    random partition of the same function (the adversarial shapes the
    workload registry never produces)."""
    rng = random.Random(seed)
    sketch = random_sketch(rng, depth=depth)
    args = random_args(rng)
    n_threads = rng.randint(2, max_threads)

    function = render_program(sketch)
    normalize(function)
    st = _compare("fuzz-%d/st" % seed, *(
        _runner(impl.simulate_single, function, args)
        for impl in IMPLEMENTATIONS), may_raise=True)

    from ..analysis.pdg import build_pdg
    pdg = build_pdg(function)
    partition = random_partition(random.Random(seed * 7919 + 13),
                                 function, n_threads=n_threads)
    program = generate(function, pdg, partition)
    mt = _compare("fuzz-%d/random-%dT" % (seed, n_threads), *(
        _runner(impl.simulate_program, program, args)
        for impl in IMPLEMENTATIONS), may_raise=True)

    return CaseResult(
        "fuzz-%d" % seed, st.divergences + mt.divergences,
        st.reference_seconds + mt.reference_seconds,
        st.fast_seconds + mt.fast_seconds)


class DifferentialReport:
    """Aggregate of one equivalence sweep."""

    def __init__(self):
        self.cases: List[CaseResult] = []

    def add(self, case: CaseResult) -> None:
        self.cases.append(case)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def failures(self) -> List[CaseResult]:
        return [case for case in self.cases if not case.ok]

    @property
    def reference_seconds(self) -> float:
        return sum(case.reference_seconds for case in self.cases)

    @property
    def fast_seconds(self) -> float:
        return sum(case.fast_seconds for case in self.cases)

    def speedup(self) -> float:
        return self.reference_seconds / max(self.fast_seconds, 1e-9)

    def summary(self) -> str:
        return ("backend-equivalence: %d cases, %d divergent; "
                "reference %.2fs, fast %.2fs (%.2fx)"
                % (len(self.cases), len(self.failures),
                   self.reference_seconds, self.fast_seconds,
                   self.speedup()))

    def as_dict(self) -> Dict[str, object]:
        return {"schema": "repro.check.backend-equivalence/v1",
                "ok": self.ok,
                "cases": [case.as_dict() for case in self.cases],
                "reference_seconds": round(self.reference_seconds, 4),
                "fast_seconds": round(self.fast_seconds, 4)}


def run_differential(workloads: Optional[Iterable[str]] = None,
                     topologies: Sequence[Optional[str]]
                     = DEFAULT_TOPOLOGIES,
                     techniques: Sequence[str] = DEFAULT_TECHNIQUES,
                     scale: str = "train",
                     trace_modes: Sequence[bool] = (False,),
                     fuzz_seeds: Iterable[int] = (),
                     progress: ProgressFn = None) -> DifferentialReport:
    """Sweep the full equivalence grid and aggregate the report.

    Every (workload x topology x technique x trace) cell plus the
    single-threaded run per workload; with tracing, also the
    :data:`TRACED_CASES` (COCO off and on) and one truncated-ring run
    per workload; then one :func:`run_fuzz_case` per seed.  Any
    divergence makes ``report.ok`` false; nothing short-circuits, so
    the report always carries the complete failure list.
    """
    report = DifferentialReport()

    def add(case: CaseResult) -> None:
        report.add(case)
        if progress:
            progress("%s: %s" % (case.label, "ok" if case.ok else "FAIL"))

    names = list(workloads) if workloads is not None \
        else [workload.name for workload in all_workloads()]
    for name in names:
        report.add(run_workload_case(name, scale=scale))
        for topology in topologies:
            n_threads = _TOPOLOGY_THREADS.get(topology, 2)
            for technique in techniques:
                for trace in trace_modes:
                    add(run_workload_case(
                        name, technique=technique, topology=topology,
                        n_threads=n_threads, scale=scale, trace=trace))
        if True not in trace_modes:
            continue
        for technique, topology, n_threads, placer in TRACED_CASES:
            for coco in (False, True):
                add(run_workload_case(
                    name, technique=technique, topology=topology,
                    n_threads=n_threads, scale=scale, trace=True,
                    placer=placer, coco=coco))
        add(run_workload_case(name, technique="gremio", scale=scale,
                              trace=True,
                              trace_limit=TRUNCATED_TRACE_LIMIT))
    for seed in fuzz_seeds:
        add(run_fuzz_case(seed))
    return report
