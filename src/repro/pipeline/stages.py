"""The staged pass manager: named passes with declared artifacts,
content-addressed cache keys, and instrumentation hooks.

The end-to-end methodology (normalize -> profile -> pdg -> partition ->
[coco] -> mtcg -> [schedule] -> simulate-st / simulate-mt) is expressed
as an ordered list of :class:`Stage` objects.  Each stage

* reads and writes named slots of a :class:`PipelineContext`;
* derives a deterministic fingerprint from the *content* of its inputs
  (IR text, machine configuration, profiling inputs, stage options), so
  equal work is recognized across workloads, processes, and sweeps;
* is skipped when the persistent :class:`~repro.pipeline.cache
  .ArtifactCache` holds an artifact for its fingerprint;
* records wall time, cache traffic, and size counters into a
  :class:`~repro.pipeline.telemetry.Telemetry`.

The legacy ``parallelize()``/``evaluate_workload()`` entry points in
:mod:`repro.pipeline.core` are thin wrappers that build a context and run
a stage list.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Optional, Sequence

from ..analysis.alias import AliasAnalysis
from ..analysis.pdg import build_pdg
from ..coco.driver import optimize as coco_optimize
from ..interp.interpreter import run_function
from ..interp.profile import static_profile
from ..ir.cfg import Function
from ..ir.interning import intern_program
from ..ir.transforms import renumber_iids, split_critical_edges
from ..machine.config import DEFAULT_CONFIG, MachineConfig
from ..machine.fast_timing import simulate_program, simulate_single
from ..machine.placement import make_placement
from ..mtcg.codegen import generate
from ..partition.base import Partitioner
from ..partition.dswp import DSWPPartitioner
from ..partition.gremio import GremioPartitioner
from .cache import ArtifactCache
from .fingerprint import (digest, fingerprint_config, fingerprint_function,
                          fingerprint_inputs, fingerprint_profile)
from .telemetry import Telemetry

TECHNIQUES = ("gremio", "gremio-flat", "dswp")

#: Tunable cost-model parameters each technique's partitioner accepts as
#: keyword arguments (the ``partitioner.<param>`` override namespace of
#: :func:`repro.pipeline.matrix.validate_overrides`).  DSWP's greedy
#: packer has no free thresholds; ``hierarchical`` is deliberately not
#: tunable — it is what distinguishes the ``gremio``/``gremio-flat``
#: techniques.
PARTITIONER_PARAMS: Dict[str, tuple] = {
    "gremio": ("split_threshold", "occupancy_factor", "latency_factor"),
    "gremio-flat": ("split_threshold", "occupancy_factor",
                    "latency_factor"),
    "dswp": (),
}


def make_partitioner(technique: str, config: MachineConfig,
                     **params) -> Partitioner:
    allowed = PARTITIONER_PARAMS.get(technique)
    if allowed is None:
        raise ValueError("unknown technique %r (use one of %s)"
                         % (technique, TECHNIQUES))
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(
            "technique %r does not accept partitioner parameter(s) %s "
            "(tunable: %s)" % (technique, ", ".join(unknown),
                               ", ".join(allowed) or "none"))
    if technique == "gremio":
        return GremioPartitioner(config, **params)
    if technique == "gremio-flat":
        return GremioPartitioner(config, hierarchical=False, **params)
    return DSWPPartitioner(config)


def technique_config(technique: str,
                     base: MachineConfig = DEFAULT_CONFIG) -> MachineConfig:
    """DSWP uses the 32-entry queue configuration; others single-entry."""
    return base.for_dswp() if technique == "dswp" else base


def normalize(function: Function, optimize: bool = False) -> Function:
    """Prepare a freshly built function for the pipeline (in place):
    optionally run the classical scalar optimizer, then split critical
    edges and renumber instructions in program order."""
    if optimize:
        from ..opt import optimize_function
        optimize_function(function)
    split_critical_edges(function)
    renumber_iids(function)
    return function


class PipelineContext:
    """Mutable state threaded through one pipeline run.

    ``values`` holds the named artifacts stages produce; ``options``
    the run configuration (technique, thread count, alias mode, inputs,
    ...); ``fingerprints`` the per-stage cache keys actually used.
    """

    def __init__(self, function: Function, options: Dict[str, object],
                 config: MachineConfig,
                 sim_config: Optional[MachineConfig] = None,
                 cache: Optional[ArtifactCache] = None,
                 telemetry: Optional[Telemetry] = None):
        self.values: Dict[str, object] = {
            "function": function,
            "profile": options.get("profile"),
            "pdg": None,
            "partition": None,
            "coco_result": None,
            "data_channels": None,
            "condition_covered": frozenset(),
            "program": None,
            "placement": None,
            "st_result": None,
            "mt_result": None,
            "mt_trace": None,
        }
        self.options = options
        self.config = config            # partitioning config (with threads)
        self.sim_config = sim_config    # simulation config (as passed in)
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.fingerprints: Dict[str, Optional[str]] = {}
        self.norm_fp: Optional[str] = None

    @property
    def function(self) -> Function:
        return self.values["function"]


class Stage:
    """One named pass: run callback, fingerprint derivation, cache
    policy, and counter hook."""

    def __init__(self, name: str,
                 run: Callable[[PipelineContext], Optional[dict]],
                 fingerprint: Optional[
                     Callable[[PipelineContext], Optional[str]]] = None,
                 persist: bool = False,
                 counters: Optional[
                     Callable[[PipelineContext], None]] = None,
                 enabled: Optional[
                     Callable[[PipelineContext], bool]] = None):
        self.name = name
        self.run = run
        self.fingerprint = fingerprint
        self.persist = persist
        self.counters = counters
        self.enabled = enabled

    def __repr__(self) -> str:  # pragma: no cover
        return "<Stage %s%s>" % (self.name,
                                 " (persistent)" if self.persist else "")


def execute(ctx: PipelineContext, stage_names: Sequence[str]) -> None:
    """Run the named stages in order against ``ctx``, consulting the
    artifact cache for persistent stages and recording telemetry."""
    for name in stage_names:
        _run_stage(ctx, STAGES[name])


def _run_stage(ctx: PipelineContext, stage: Stage) -> None:
    if stage.enabled is not None and not stage.enabled(ctx):
        return
    start = time.perf_counter()
    key = stage.fingerprint(ctx) if stage.fingerprint is not None else None
    ctx.fingerprints[stage.name] = key
    cached = (stage.persist and key is not None
              and ctx.cache is not None and ctx.cache.enabled)
    if cached:
        hit, payload = ctx.cache.load(stage.name, key)
        if hit:
            ctx.values.update(payload)
            ctx.telemetry.record_hit(stage.name,
                                     time.perf_counter() - start)
            if stage.counters is not None:
                stage.counters(ctx)
            return
    produced = stage.run(ctx)
    if produced:
        ctx.values.update(produced)
    if cached and produced:
        ctx.cache.store(stage.name, key, produced)
    ctx.telemetry.record_run(stage.name, time.perf_counter() - start,
                             cache_miss=cached)
    if stage.counters is not None:
        stage.counters(ctx)


# ---------------------------------------------------------------------------
# Stage implementations.

def _run_normalize(ctx: PipelineContext) -> dict:
    if not ctx.options.get("normalized", False):
        normalize(ctx.function)
    ctx.norm_fp = fingerprint_function(ctx.function)
    return {}


def _fp_profile(ctx: PipelineContext) -> Optional[str]:
    if ctx.options.get("profile") is not None:
        return None  # supplied directly; adopt it, don't cache it
    return digest("stage:profile", ctx.norm_fp,
                  fingerprint_inputs(ctx.options.get("profile_args"),
                                     ctx.options.get("profile_memory")))


def _run_profile(ctx: PipelineContext) -> dict:
    supplied = ctx.options.get("profile")
    if supplied is not None:
        return {"profile": supplied}
    profile_args = ctx.options.get("profile_args")
    profile_memory = ctx.options.get("profile_memory")
    if profile_args or profile_memory:
        profile = run_function(ctx.function, profile_args,
                               profile_memory).profile
    else:
        profile = static_profile(ctx.function)
    return {"profile": profile}


def _fp_pdg(ctx: PipelineContext) -> str:
    return digest("stage:pdg", ctx.norm_fp,
                  str(ctx.options.get("alias_mode", "annotated")))


def _run_pdg(ctx: PipelineContext) -> dict:
    alias = AliasAnalysis(ctx.function,
                          ctx.options.get("alias_mode", "annotated"))
    return {"pdg": build_pdg(ctx.function, alias)}


def _count_pdg(ctx: PipelineContext) -> None:
    pdg = ctx.values["pdg"]
    ctx.telemetry.count("pdg_nodes", len(pdg.nodes))
    ctx.telemetry.count("pdg_edges", len(pdg.arcs))


def _fp_partition(ctx: PipelineContext) -> str:
    parts = ["stage:partition",
             ctx.fingerprints.get("pdg") or "",
             fingerprint_profile(ctx.values["profile"]),
             str(ctx.options["technique"]),
             str(ctx.options["n_threads"]),
             fingerprint_config(ctx.config)]
    params = ctx.options.get("partitioner_args")
    if params:
        # Appended only when present so default-parameter fingerprints
        # (and the cache entries behind them) are unchanged.
        parts.append("params:%r" % (sorted(params.items()),))
    return digest(*parts)


def _run_partition(ctx: PipelineContext) -> dict:
    params = ctx.options.get("partitioner_args") or {}
    partitioner = make_partitioner(ctx.options["technique"], ctx.config,
                                   **params)
    partition = partitioner.partition(ctx.function, ctx.values["pdg"],
                                      ctx.values["profile"],
                                      ctx.options["n_threads"])
    return {"partition": partition}


def _coco_enabled(ctx: PipelineContext) -> bool:
    return bool(ctx.options.get("coco"))


def _fp_coco(ctx: PipelineContext) -> str:
    return digest("stage:coco", ctx.fingerprints.get("partition") or "")


def _run_coco(ctx: PipelineContext) -> dict:
    result = coco_optimize(ctx.function, ctx.values["pdg"],
                           ctx.values["partition"], ctx.values["profile"])
    return {"coco_result": result,
            "data_channels": result.data_channels,
            "condition_covered": result.condition_covered}


def _count_coco(ctx: PipelineContext) -> None:
    result = ctx.values["coco_result"]
    if result is not None:
        ctx.telemetry.count("coco_iterations", result.iterations)


def _fp_mtcg(ctx: PipelineContext) -> str:
    config = ctx.sim_config if ctx.sim_config is not None else ctx.config
    topo = config.topology
    return digest("stage:mtcg", ctx.fingerprints.get("partition") or "",
                  "coco" if ctx.options.get("coco") else "plain",
                  "" if topo is None else "topology:%r" % (topo,))


def _run_mtcg(ctx: PipelineContext) -> dict:
    config = ctx.sim_config if ctx.sim_config is not None else ctx.config
    program = generate(ctx.function, ctx.values["pdg"],
                       ctx.values["partition"],
                       data_channels=ctx.values["data_channels"],
                       condition_covered=ctx.values["condition_covered"],
                       config=config)
    # Thread functions are finished artifacts from here on (the local
    # scheduler only reorders instruction lists): collapse them to
    # interned flyweights so sweep cells, pool payloads, and cache
    # pickles share one object per distinct instruction.
    return {"program": intern_program(program)}


def _count_mtcg(ctx: PipelineContext) -> None:
    ctx.telemetry.count("channels_inserted",
                        len(ctx.values["program"].channels))


def _check_enabled(ctx: PipelineContext) -> bool:
    return bool(ctx.options.get("mt_check"))


def _run_check(ctx: PipelineContext) -> dict:
    # Imported lazily: repro.check sits above the pipeline in the layer
    # order (its fuzzer drives the pipeline), so the stage table must not
    # import it at module load.
    from ..check.validators import MTValidationError, validate_program
    report = validate_program(ctx.values["program"])
    ctx.telemetry.count("check_programs_validated", 1)
    for name, amount in report.counters.items():
        ctx.telemetry.count("check_" + name, amount)
    if not report.ok:
        ctx.telemetry.count("check_violations", len(report.violations))
        raise MTValidationError(report, ctx.function.name)
    return {}


def _schedule_enabled(ctx: PipelineContext) -> bool:
    return ctx.options.get("local_schedule") is not None


def _run_schedule(ctx: PipelineContext) -> dict:
    from ..opt.scheduler import schedule_function, schedule_program
    priority = ctx.options["local_schedule"]
    config = ctx.sim_config if ctx.sim_config is not None else ctx.config
    schedule_program(ctx.values["program"], config, priority)
    schedule_function(ctx.function, config, priority)
    return {}


def _fp_placement(ctx: PipelineContext) -> str:
    config = ctx.sim_config if ctx.sim_config is not None else ctx.config
    return digest("stage:placement",
                  ctx.fingerprints.get("mtcg") or "",
                  str(ctx.options.get("placer", "identity")),
                  str(ctx.options["n_threads"]),
                  fingerprint_config(config))


def _run_placement(ctx: PipelineContext) -> dict:
    n_threads = max(int(ctx.options["n_threads"]), 1)
    config = ctx.sim_config if ctx.sim_config is not None else ctx.config
    # with_cores() sizes the flat default; an explicit topology wins.
    topo = config.with_cores(n_threads).resolve_topology()
    placement = make_placement(ctx.options.get("placer", "identity"),
                               n_threads, topo,
                               pdg=ctx.values["pdg"],
                               partition=ctx.values["partition"],
                               profile=ctx.values["profile"])
    return {"placement": placement}


def _count_placement(ctx: PipelineContext) -> None:
    placement = ctx.values["placement"]
    moved = sum(1 for thread, core in enumerate(placement.cores)
                if thread != core)
    ctx.telemetry.count("placement_threads_moved", moved)


def _measure_fp(ctx: PipelineContext) -> str:
    return fingerprint_inputs(ctx.options.get("measure_args"),
                              ctx.options.get("measure_memory"))


def _fp_simulate_st(ctx: PipelineContext) -> str:
    config = ctx.sim_config if ctx.sim_config is not None else ctx.config
    return digest("stage:simulate-st", ctx.norm_fp, _measure_fp(ctx),
                  fingerprint_config(config.with_cores(1)),
                  repr(ctx.options.get("local_schedule")))


def _run_simulate_st(ctx: PipelineContext) -> dict:
    config = ctx.sim_config if ctx.sim_config is not None else ctx.config
    result = simulate_single(ctx.function, ctx.options.get("measure_args"),
                             ctx.options.get("measure_memory"),
                             config=config)
    return {"st_result": result}


def _count_simulate_st(ctx: PipelineContext) -> None:
    ctx.telemetry.count("st_cycles", ctx.values["st_result"].cycles)


def _fp_simulate_mt(ctx: PipelineContext) -> Optional[str]:
    # Traced runs are never cached (and never replayed from an untraced
    # cache entry): the event stream is a side effect the artifact cache
    # cannot reproduce.
    if ctx.options.get("trace"):
        return None
    config = ctx.sim_config if ctx.sim_config is not None else ctx.config
    return digest("stage:simulate-mt",
                  ctx.fingerprints.get("mtcg") or "", _measure_fp(ctx),
                  ctx.fingerprints.get("placement") or "",
                  fingerprint_config(config),
                  repr(ctx.options.get("local_schedule")))


def _run_simulate_mt(ctx: PipelineContext) -> dict:
    config = ctx.sim_config if ctx.sim_config is not None else ctx.config
    if ctx.options.get("trace"):
        from ..trace import DEFAULT_EVENT_LIMIT, TraceCollector, analyze
        limit = ctx.options.get("trace_limit") or DEFAULT_EVENT_LIMIT
        collector = TraceCollector(limit=limit)
        result = simulate_program(ctx.values["program"],
                                  ctx.options.get("measure_args"),
                                  ctx.options.get("measure_memory"),
                                  config=config, tracer=collector,
                                  placement=ctx.values.get("placement"))
        return {"mt_result": result, "mt_trace": analyze(collector)}
    result = simulate_program(ctx.values["program"],
                              ctx.options.get("measure_args"),
                              ctx.options.get("measure_memory"),
                              config=config,
                              placement=ctx.values.get("placement"))
    return {"mt_result": result}


def _count_simulate_mt(ctx: PipelineContext) -> None:
    result = ctx.values["mt_result"]
    ctx.telemetry.count("mt_cycles", result.cycles)
    ctx.telemetry.count("comm_instructions",
                        result.communication_instructions)
    for key, value in result.cache_stats.items():
        ctx.telemetry.count("cache_" + key, value)
    trace = ctx.values.get("mt_trace")
    if trace is not None:
        ctx.telemetry.count("trace_events", trace.events_recorded)


STAGES: Dict[str, Stage] = {stage.name: stage for stage in (
    Stage("normalize", _run_normalize),
    Stage("profile", _run_profile, _fp_profile, persist=True),
    Stage("pdg", _run_pdg, _fp_pdg, persist=True, counters=_count_pdg),
    Stage("partition", _run_partition, _fp_partition, persist=True),
    Stage("coco", _run_coco, _fp_coco, persist=True,
          counters=_count_coco, enabled=_coco_enabled),
    Stage("mtcg", _run_mtcg, _fp_mtcg, persist=True, counters=_count_mtcg),
    Stage("check", _run_check, enabled=_check_enabled),
    Stage("schedule", _run_schedule, enabled=_schedule_enabled),
    Stage("placement", _run_placement, _fp_placement, persist=True,
          counters=_count_placement),
    Stage("simulate-st", _run_simulate_st, _fp_simulate_st, persist=True,
          counters=_count_simulate_st),
    Stage("simulate-mt", _run_simulate_mt, _fp_simulate_mt, persist=True,
          counters=_count_simulate_mt),
)}

#: Stage lists the public wrappers execute.  ``check`` (the static MT
#: validators, see :mod:`repro.check`) is present but disabled unless the
#: run sets the ``mt_check`` option (CLI ``--check``; always on under
#: fuzzing).
PARALLELIZE_STAGES = ("normalize", "profile", "pdg", "partition", "coco",
                      "mtcg", "check")
EVALUATE_STAGES = PARALLELIZE_STAGES + ("schedule", "placement",
                                        "simulate-st", "simulate-mt")


def stage_names() -> Iterable[str]:
    return tuple(STAGES)
