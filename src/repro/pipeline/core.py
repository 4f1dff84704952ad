"""The end-to-end GMT scheduling pipeline (legacy entry points).

One call takes a workload (or any IR function) through the whole stack:

    normalize CFG -> profile (train inputs) -> PDG -> partition (GREMIO or
    DSWP) -> [COCO] -> MTCG -> timed simulation on the CMP model (ref
    inputs) -> metrics

``parallelize()`` and ``evaluate_workload()`` keep their historical
signatures, but are now thin wrappers over the staged pass manager
(:mod:`repro.pipeline.stages`): every stage is fingerprinted, consults
the persistent artifact cache, and records telemetry.  Batch evaluation
across a (workload x technique x coco x threads) matrix lives in
:mod:`repro.pipeline.matrix`.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional, Union

from ..analysis.pdg import PDG
from ..coco.driver import CocoResult
from ..interp.profile import EdgeProfile
from ..ir.cfg import Function
from ..machine.config import DEFAULT_BACKEND, MachineConfig, validate_backend
from ..machine.timing import TimedResult
from ..mtcg.program import MTProgram
from ..partition.base import Partition
from ..workloads.common import Workload
from .cache import ArtifactCache, get_cache
from .stages import (EVALUATE_STAGES, PARALLELIZE_STAGES, PipelineContext,
                     execute, technique_config)
from .telemetry import Telemetry, global_telemetry

CacheOption = Union[ArtifactCache, bool, None]


def _resolve_cache(cache: CacheOption) -> Optional[ArtifactCache]:
    if cache is None:
        return get_cache()
    if cache is False:
        return None
    if cache is True:
        return get_cache()
    return cache


def _publish_telemetry(run: Telemetry,
                       telemetry: Optional[Telemetry]) -> None:
    """Fold one run's telemetry into the process-global accumulator and,
    when distinct, the caller-supplied collector."""
    accumulator = global_telemetry()
    if accumulator is not run:
        accumulator.merge(run)
    if telemetry is not None and telemetry is not run \
            and telemetry is not accumulator:
        telemetry.merge(run)


class Parallelization:
    """A parallelized function plus everything used to build it."""

    def __init__(self, function: Function, profile: EdgeProfile, pdg: PDG,
                 partition: Partition, program: MTProgram,
                 coco_result: Optional[CocoResult],
                 config: MachineConfig):
        self.function = function
        self.profile = profile
        self.pdg = pdg
        self.partition = partition
        self.program = program
        self.coco_result = coco_result
        self.config = config
        # Populated by the staged pipeline: per-stage cache keys and the
        # per-run telemetry (stage timings, cache traffic, counters).
        self.fingerprints = {}
        self.telemetry: Optional[Telemetry] = None


def parallelize(function: Function,
                technique: str = "gremio",
                n_threads: int = 2,
                profile: Optional[EdgeProfile] = None,
                profile_args: Optional[Mapping[str, object]] = None,
                profile_memory: Optional[Mapping[str, object]] = None,
                coco: bool = False,
                config: Optional[MachineConfig] = None,
                normalized: bool = False,
                alias_mode: str = "annotated",
                mt_check: bool = False,
                cache: CacheOption = None,
                telemetry: Optional[Telemetry] = None,
                topology: Optional[str] = None,
                partitioner_args: Optional[
                    Mapping[str, object]] = None) -> Parallelization:
    """Parallelize ``function`` into ``n_threads`` threads.

    ``profile`` may be supplied directly; otherwise the function is
    profiled by interpretation on ``profile_args``/``profile_memory``, or
    with the static estimator when no inputs are given either.
    ``alias_mode`` selects the memory-disambiguation power (see
    :class:`repro.analysis.AliasAnalysis`).

    ``cache`` selects the artifact cache (default: the process-wide one;
    ``False`` disables caching for this call); ``telemetry`` optionally
    collects this run's stage timings in addition to the per-result
    ``.telemetry`` attribute and the process-global accumulator.

    ``mt_check`` enables the ``check`` stage: the static MT validators of
    :mod:`repro.check.validators` run over the MTCG output and raise
    :class:`~repro.check.validators.MTValidationError` on any violation.

    ``topology`` names a machine-topology preset; the partition cost
    models then see the clustered machine (see :func:`evaluate_workload`).
    ``partitioner_args`` forwards tunable cost-model parameters to the
    technique's partitioner (see
    :data:`repro.pipeline.stages.PARTITIONER_PARAMS`).
    """
    if config is None:
        config = technique_config(technique)
    if topology is not None:
        from ..machine.topology import get_topology
        config = dataclasses.replace(config, topology=get_topology(topology))
    config = config.with_cores(n_threads)
    run_telemetry = Telemetry()
    ctx = PipelineContext(
        function,
        options={
            "technique": technique,
            "n_threads": n_threads,
            "coco": coco,
            "alias_mode": alias_mode,
            "normalized": normalized,
            "profile": profile,
            "profile_args": profile_args,
            "profile_memory": profile_memory,
            "mt_check": mt_check,
            "partitioner_args": dict(partitioner_args)
            if partitioner_args else None,
        },
        config=config,
        cache=_resolve_cache(cache),
        telemetry=run_telemetry)
    execute(ctx, PARALLELIZE_STAGES)
    _publish_telemetry(run_telemetry, telemetry)
    result = Parallelization(function, ctx.values["profile"],
                             ctx.values["pdg"], ctx.values["partition"],
                             ctx.values["program"],
                             ctx.values["coco_result"], config)
    result.fingerprints = dict(ctx.fingerprints)
    result.telemetry = run_telemetry
    return result


class Evaluation:
    """Measured results of one (workload, technique, coco) configuration."""

    def __init__(self, workload: Workload, technique: str, coco: bool,
                 n_threads: int, parallelization: Parallelization,
                 st_result: TimedResult, mt_result: TimedResult):
        self.workload = workload
        self.technique = technique
        self.coco = coco
        self.n_threads = n_threads
        self.parallelization = parallelization
        self.st_result = st_result
        self.mt_result = mt_result
        # Populated by the staged pipeline (see Parallelization).
        self.fingerprints = {}
        self.telemetry: Optional[Telemetry] = None
        # TraceAnalysis of the MT run when evaluated with trace=True.
        self.trace = None

    @property
    def speedup(self) -> float:
        if self.mt_result.cycles == 0:
            return 1.0
        return self.st_result.cycles / self.mt_result.cycles

    @property
    def communication_instructions(self) -> int:
        return self.mt_result.communication_instructions

    @property
    def computation_instructions(self) -> int:
        return self.mt_result.computation_instructions

    @property
    def communication_fraction(self) -> float:
        total = self.mt_result.dynamic_instructions
        if total == 0:
            return 0.0
        return self.mt_result.communication_instructions / total

    def metrics(self) -> Mapping[str, float]:
        """The paper metrics as a flat JSON-able mapping — the payload
        the :mod:`repro.api` facade and the ``repro serve`` daemon
        return for one evaluated cell."""
        metrics = {
            "speedup": self.speedup,
            "st_cycles": float(self.st_result.cycles),
            "mt_cycles": float(self.mt_result.cycles),
            "dynamic_instructions":
                float(self.mt_result.dynamic_instructions),
            "communication_instructions":
                float(self.communication_instructions),
            "computation_instructions":
                float(self.computation_instructions),
            "communication_fraction": self.communication_fraction,
            "channels": float(len(self.parallelization.program.channels)),
        }
        for key, value in self.mt_result.cache_stats.items():
            metrics["cache_" + key] = float(value)
        for key, value in self.st_result.cache_stats.items():
            metrics["st_cache_" + key] = float(value)
        if self.trace is not None:
            metrics["critical_path_cycles"] = \
                float(self.trace.critical_path.length)
            metrics["critical_path_instructions"] = \
                float(self.trace.critical_path.instructions)
        return metrics

    def __repr__(self) -> str:  # pragma: no cover
        return "<Evaluation %s/%s%s: speedup %.2fx, comm %.1f%%>" % (
            self.workload.name, self.technique,
            "+coco" if self.coco else "", self.speedup,
            100 * self.communication_fraction)


def evaluate_workload(workload: Workload, technique: str = "gremio",
                      n_threads: int = 2, coco: bool = False,
                      scale: str = "ref",
                      config: Optional[MachineConfig] = None,
                      check: bool = True,
                      alias_mode: str = "annotated",
                      local_schedule: Optional[str] = None,
                      mt_check: bool = False,
                      cache: CacheOption = None,
                      telemetry: Optional[Telemetry] = None,
                      trace: bool = False,
                      trace_limit: Optional[int] = None,
                      topology: Optional[str] = None,
                      placer: str = "identity",
                      backend: str = DEFAULT_BACKEND,
                      partitioner_args: Optional[
                          Mapping[str, object]] = None) -> Evaluation:
    """Run the full methodology for one workload: profile on `train`,
    measure on ``scale`` (default `ref`), and verify the multi-threaded
    run produced the single-threaded results.

    ``local_schedule`` optionally runs the downstream local instruction
    scheduler over both the single-threaded baseline and every generated
    thread, with the given produce/consume priority ("early"/"late"/
    "neutral") — the papers' post-MT scheduling stage.  ``mt_check``
    enables the static MT validator stage; ``cache`` and ``telemetry``
    are forwarded to the staged pipeline (see :func:`parallelize`).

    ``trace=True`` runs the MT simulation with a
    :class:`repro.trace.TraceCollector` attached and exposes the
    resulting :class:`repro.trace.TraceAnalysis` as ``evaluation.trace``
    (the traced simulate-mt stage bypasses the artifact cache;
    ``trace_limit`` bounds the event ring).  Simulated cycle counts are
    bit-identical with tracing on or off.

    ``topology`` names a machine-topology preset (see
    :data:`repro.machine.topology.TOPOLOGIES`) — partition cost models,
    the placement stage, and the simulator all see the clustered machine;
    ``placer`` chooses the thread->core placer ("identity"/"affinity").
    Both default to the flat legacy machine, which is cycle-invariant.

    ``backend`` is deprecated: it is validated against the old names
    ("reference"/"fast") and otherwise ignored — there is one simulator.

    ``partitioner_args`` forwards tunable cost-model parameters (e.g.
    ``split_threshold``) to the technique's partitioner; they enter the
    partition-stage fingerprint, so distinct parameters never share
    cache entries (see
    :data:`repro.pipeline.stages.PARTITIONER_PARAMS`).
    """
    validate_backend(backend)
    function = workload.build()
    train = workload.make_inputs("train")
    measure = workload.make_inputs(scale)
    if config is None:
        config = technique_config(technique)
    if topology is not None:
        from ..machine.topology import get_topology
        config = dataclasses.replace(config, topology=get_topology(topology))
    effective = config.with_cores(n_threads)
    run_telemetry = Telemetry()
    ctx = PipelineContext(
        function,
        options={
            "technique": technique,
            "n_threads": n_threads,
            "coco": coco,
            "alias_mode": alias_mode,
            "normalized": False,
            "profile": None,
            "profile_args": train.args,
            "profile_memory": train.memory,
            "local_schedule": local_schedule,
            "mt_check": mt_check,
            "measure_args": measure.args,
            "measure_memory": measure.memory,
            "trace": trace,
            "trace_limit": trace_limit,
            "placer": placer,
            "partitioner_args": dict(partitioner_args)
            if partitioner_args else None,
        },
        config=effective,
        sim_config=config,
        cache=_resolve_cache(cache),
        telemetry=run_telemetry)
    execute(ctx, EVALUATE_STAGES)
    _publish_telemetry(run_telemetry, telemetry)

    st_result = ctx.values["st_result"]
    mt_result = ctx.values["mt_result"]
    if check:
        _check_results(workload, function, st_result, mt_result)
    parallelization = Parallelization(function, ctx.values["profile"],
                                      ctx.values["pdg"],
                                      ctx.values["partition"],
                                      ctx.values["program"],
                                      ctx.values["coco_result"], effective)
    parallelization.fingerprints = dict(ctx.fingerprints)
    parallelization.telemetry = run_telemetry
    evaluation = Evaluation(workload, technique, coco, n_threads,
                            parallelization, st_result, mt_result)
    evaluation.fingerprints = dict(ctx.fingerprints)
    evaluation.telemetry = run_telemetry
    evaluation.trace = ctx.values.get("mt_trace")
    return evaluation


def _check_results(workload: Workload, function: Function,
                   st_result: TimedResult,
                   mt_result: TimedResult) -> None:
    if mt_result.live_outs != st_result.live_outs:
        raise AssertionError(
            "%s: MT live-outs %r != ST %r"
            % (workload.name, mt_result.live_outs, st_result.live_outs))
    if mt_result.memory.snapshot() != st_result.memory.snapshot():
        raise AssertionError("%s: MT memory differs from ST"
                             % workload.name)
