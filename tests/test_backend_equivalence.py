"""Differential equivalence of the simulator and its oracle.

The contract under test (see ``docs/performance.md``): for every
program the simulator (:mod:`repro.machine.fast_timing`) produces
results **bit-identical** to the reference model kept as its oracle
(:mod:`repro.check.reference_timing`) — cycles, per-core finish times,
stall attributions, queue internals, live-outs, memory images, and the
int-vs-float type of every number — and, with a tracer attached, the
same trace: every event byte for byte, the queue-depth samples, the
topology and finish hooks, and the ``analyze()`` report.  The grid is
every registry workload x {paper-dual, quad-2x2} x {GREMIO, DSWP} x
{trace off, trace on}, plus affinity placement, the hierarchical
octa-hier machine and COCO under tracing, a truncated event ring, the
single-threaded simulator per workload, whole-pipeline
``Evaluation.metrics()`` parity, and seeded random programs from
:mod:`repro.check.generate`.
"""

import pytest

from repro import machine
from repro.api import configure_cache, evaluate_workload, get_cache, \
    get_workload, workload_names
from repro.check import reference_timing
from repro.check.differential_backend import (IMPLEMENTATIONS,
                                              TRACED_CASES,
                                              TRUNCATED_TRACE_LIMIT,
                                              diff_snapshots,
                                              run_fuzz_case,
                                              run_workload_case,
                                              snapshot_result,
                                              snapshot_trace)
from repro.pipeline import stages
from repro.pipeline.core import parallelize
from repro.trace import TraceCollector

#: (topology preset, threads that fill it).
TOPOLOGIES = (("paper-dual", 2), ("quad-2x2", 4))
TECHNIQUES = ("gremio", "dswp")

_BUILDS = {}


def _built(name, technique, topology, n_threads):
    """One parallelization per grid point, shared by the trace-on and
    trace-off cases (the build side does not simulate)."""
    key = (name, technique, topology, n_threads)
    if key not in _BUILDS:
        workload = get_workload(name)
        train = workload.make_inputs("train")
        _BUILDS[key] = parallelize(
            workload.build(), technique=technique, n_threads=n_threads,
            profile_args=train.args, profile_memory=train.memory,
            cache=False, topology=topology)
    return _BUILDS[key]


def _assert_identical(reference_snap, fast_snap, label):
    divergences = diff_snapshots(reference_snap, fast_snap)
    assert not divergences, "%s diverged:\n%s" % (
        label, "\n".join(divergences[:10]))


@pytest.mark.parametrize("name", workload_names())
def test_single_threaded_bit_identical(name):
    workload = get_workload(name)
    inputs = workload.make_inputs("train")
    reference, fast = (
        impl.simulate_single(workload.build(), inputs.args, inputs.memory)
        for impl in IMPLEMENTATIONS)
    _assert_identical(snapshot_result(reference), snapshot_result(fast),
                      "%s/st" % name)


@pytest.mark.parametrize("topology,n_threads", TOPOLOGIES)
@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("name", workload_names())
def test_multi_threaded_bit_identical(name, technique, topology,
                                      n_threads):
    built = _built(name, technique, topology, n_threads)
    inputs = get_workload(name).make_inputs("train")
    reference, fast = (
        impl.simulate_program(built.program, inputs.args, inputs.memory,
                              config=built.config)
        for impl in IMPLEMENTATIONS)
    ref_snap = snapshot_result(reference)
    fast_snap = snapshot_result(fast)
    _assert_identical(ref_snap, fast_snap,
                      "%s/%s/%s" % (name, technique, topology))
    # Per-core stall attributions reconcile, not just the total cycles:
    # the snapshot covers comm_stats (SA port delays, backpressure,
    # operand waits), per-core finish times, and queue timestamps.
    for field in ("core_finish", "comm_stats", "queues", "cache_stats"):
        assert ref_snap[field] == fast_snap[field]


@pytest.mark.parametrize("topology,n_threads", TOPOLOGIES)
@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("name", workload_names())
def test_traced_runs_bit_identical(name, technique, topology, n_threads):
    """The simulator's trace sink emits exactly the oracle's trace:
    every event (stall components, dependence edges, cache levels),
    every queue-depth sample, the topology and finish hooks, and the
    analyze() report — and tracing leaves the results unchanged."""
    built = _built(name, technique, topology, n_threads)
    inputs = get_workload(name).make_inputs("train")
    snapshots = []
    for impl in IMPLEMENTATIONS:
        collector = TraceCollector()
        result = impl.simulate_program(
            built.program, inputs.args, inputs.memory,
            config=built.config, tracer=collector)
        snapshots.append((snapshot_result(result),
                          snapshot_trace(collector)))
    untraced = machine.simulate_program(built.program, inputs.args,
                                        inputs.memory, config=built.config)
    label = "%s/%s/%s" % (name, technique, topology)
    _assert_identical(snapshots[0][0], snapshots[1][0],
                      label + "/trace-result")
    _assert_identical(snapshots[0][1], snapshots[1][1],
                      label + "/trace-events")
    _assert_identical(snapshots[1][0], snapshot_result(untraced),
                      label + "/traced-vs-untraced")


#: Workloads of the placement/COCO/truncation traced cases (a control-
#: heavy, a streaming and a floating-point kernel keep the grid small).
TRACED_WORKLOADS = ("ks", "adpcmdec", "183.equake")


@pytest.mark.parametrize("coco", (False, True), ids=("nococo", "coco"))
@pytest.mark.parametrize("technique,topology,n_threads,placer",
                         TRACED_CASES,
                         ids=["-".join(map(str, case))
                              for case in TRACED_CASES])
@pytest.mark.parametrize("name", TRACED_WORKLOADS)
def test_traced_placement_and_coco_bit_identical(name, technique, topology,
                                                 n_threads, placer, coco):
    case = run_workload_case(name, technique=technique, topology=topology,
                             n_threads=n_threads, trace=True,
                             placer=placer, coco=coco)
    assert case.ok, "%s diverged:\n%s" % (
        case.label, "\n".join(case.divergences[:10]))


@pytest.mark.parametrize("name", TRACED_WORKLOADS)
def test_truncated_trace_ring_bit_identical(name):
    """A ring smaller than the run evicts events: both implementations
    keep the same newest window and count the same drops."""
    case = run_workload_case(name, technique="gremio", trace=True,
                             trace_limit=TRUNCATED_TRACE_LIMIT)
    assert case.ok, "%s diverged:\n%s" % (
        case.label, "\n".join(case.divergences[:10]))
    workload = get_workload(name)
    inputs = workload.make_inputs("train")
    collector = TraceCollector(limit=TRUNCATED_TRACE_LIMIT)
    machine.simulate_single(workload.build(), inputs.args, inputs.memory,
                            tracer=collector)
    assert collector.events.dropped > 0  # the ring really truncates


class TestEvaluationMetrics:
    """Whole-pipeline parity: evaluate_workload with the simulate
    stages running the simulator, then the oracle (cache disabled, so
    the second run cannot replay the first's artifacts), yields
    bit-identical Evaluation.metrics()."""

    @pytest.fixture(autouse=True)
    def _no_cache(self):
        previous = get_cache()
        configure_cache(enabled=False)
        yield
        configure_cache(previous.directory, previous.enabled)

    @pytest.mark.parametrize("name,technique,topology,n_threads", [
        ("ks", "gremio", "paper-dual", 2),
        ("adpcmdec", "dswp", "quad-2x2", 4),
        ("mpeg2enc", "gremio", None, 2),
    ])
    def test_metrics_bit_identical(self, name, technique, topology,
                                   n_threads, monkeypatch):
        def evaluate():
            return evaluate_workload(get_workload(name),
                                     technique=technique,
                                     n_threads=n_threads, scale="train",
                                     topology=topology)
        fast = evaluate()
        monkeypatch.setattr(stages, "simulate_program",
                            reference_timing.simulate_program)
        monkeypatch.setattr(stages, "simulate_single",
                            reference_timing.simulate_single)
        reference = evaluate()
        assert reference.metrics() == fast.metrics()
        # Bit-identity includes types: speedup reprs match exactly.
        assert repr(reference.speedup) == repr(fast.speedup)
        assert (reference.mt_result.cycles == fast.mt_result.cycles
                and type(reference.mt_result.cycles)
                is type(fast.mt_result.cycles))


@pytest.mark.parametrize("seed", range(25))
def test_fuzz_programs_bit_identical(seed):
    """Seeded random programs (repro.check.generate): single-threaded
    plus a random-partition MTCG program per seed, oracle and
    simulator — including identical trap type and message when the
    program traps."""
    case = run_fuzz_case(seed)
    assert case.ok, "fuzz seed %d diverged:\n%s" % (
        seed, "\n".join(case.divergences[:10]))
