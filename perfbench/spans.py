"""Outside-in spans: wrap the program's layer entry points from the
benchmark's own code, keep the spans in memory, and derive per-layer
self times and a Chrome trace-event file (loads in Perfetto).

Nothing under ``src/`` knows about these spans.  :class:`Tracer`
replaces attributes where the pipeline looks them up at call time and
restores every one of them on exit, so a traced run leaves the process
exactly as it found it.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Callable, Dict, List, Optional

# One span: [name, layer, start, end, parent index, args].
NAME, LAYER, START, END, PARENT, ARGS = range(6)

#: Layer of each pipeline stage's ``run`` callback.  ``normalize`` is
#: IR clean-up the stage manager performs itself, so it counts as
#: pipeline time.
STAGE_LAYERS = {
    "normalize": "pipeline",
    "profile": "interp",
    "pdg": "analysis",
    "partition": "partition",
    "coco": "coco",
    "mtcg": "mtcg",
    "check": "check",
    "schedule": "opt",
    "placement": "machine.placement",
    "simulate-st": "machine.sim_st",
    "simulate-mt": "machine.sim_mt",
}

#: Per-layer metrics ``(runs, seconds)`` of the stage layers and the
#: traced simulator; placement reports its time only.
LAYER_METRICS = {
    "interp": ("interp.profile_runs", "interp.profile_s"),
    "analysis": ("analysis.pdg_runs", "analysis.pdg_s"),
    "partition": ("partition.runs", "partition.self_s"),
    "coco": ("coco.runs", "coco.self_s"),
    "mtcg": ("mtcg.runs", "mtcg.self_s"),
    "opt": ("opt.schedule_runs", "opt.schedule_s"),
    "machine.placement": (None, "machine.placement_s"),
    "machine.sim_st": ("machine.sim_st_runs", "machine.sim_st_s"),
    "machine.sim_mt": ("machine.sim_mt_runs", "machine.sim_mt_s"),
    "machine.sim_traced": ("machine.sim_traced_runs",
                           "machine.sim_traced_s"),
    "trace": ("trace.analyze_calls", "trace.analyze_s"),
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, layer: str,
              args: Optional[Dict[str, object]] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           args or {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span %r closed out of order"
                               % self.spans[index][NAME])

    @contextlib.contextmanager
    def span(self, name: str, layer: str,
             args: Optional[Dict[str, object]] = None):
        index = self.begin(name, layer, args)
        try:
            yield self.spans[index][ARGS]
        finally:
            self.end(index)

    def wrap(self, function: Callable, name: str, layer: str,
             annotate: Optional[Callable] = None) -> Callable:
        """``function`` inside a span; ``annotate(args, call_args,
        result)`` may attach facts (stage name, hit flag, simulated
        instructions) to the span."""
        tracer = self

        def wrapper(*call_args, **call_kwargs):
            index = tracer.begin(name, layer)
            try:
                result = function(*call_args, **call_kwargs)
                if annotate is not None:
                    annotate(tracer.spans[index][ARGS], call_args, result)
                return result
            finally:
                tracer.end(index)

        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus the part its children cover
        (children of one single-threaded span never overlap)."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    @staticmethod
    def layer_of(span: list) -> str:
        """A span's layer; traced MT simulations are a layer of their
        own (they bypass the cache and feed ``repro.trace``)."""
        return "machine.sim_traced" if span[ARGS].get("traced") \
            else span[LAYER]

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls": n, "self_s": s}}`` over every span."""
        table: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = table.setdefault(self.layer_of(span),
                                   {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own
        return table

    def chrome_trace(self, process_name: str) -> Dict[str, object]:
        """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
        events: List[Dict[str, object]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": process_name}}]
        for span in self.spans:
            events.append({
                "name": span[NAME], "cat": self.layer_of(span), "ph": "X",
                "pid": 1, "tid": 1,
                "ts": round((span[START] - self.origin) * 1e6, 3),
                "dur": round((span[END] - span[START]) * 1e6, 3),
                "args": {key: value for key, value in span[ARGS].items()
                         if isinstance(value, (str, int, float, bool))}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str, process_name: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(process_name), handle)


class Patches:
    """Attribute replacements restored in reverse order on exit."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def set(self, owner: object, attribute: str, value: object) -> None:
        own = vars(owner)
        self._saved.append((owner, attribute, own.get(attribute),
                            attribute in own))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, value, present = self._saved.pop()
            if present:
                setattr(owner, attribute, value)
            else:
                delattr(owner, attribute)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def _note_stage(args, call_args, result) -> None:
    args["stage"] = call_args[1]
    args["hit"] = bool(result[0])


def _note_store(args, call_args, result) -> None:
    args["stage"] = call_args[1]


def _note_fingerprint(stage_name: str):
    def note(args, call_args, result) -> None:
        args["stage"] = stage_name
        args["key"] = result
    return note


def _note_run(stage_name: str):
    def note(args, call_args, result) -> None:
        args["stage"] = stage_name
        ctx = call_args[0]
        key = ctx.fingerprints.get(stage_name)
        if key is not None:
            args["key"] = key
        for slot in ("st_result", "mt_result"):
            produced = (result or {}).get(slot)
            if produced is not None:
                args["instructions"] = produced.dynamic_instructions
        if stage_name == "simulate-mt" and ctx.options.get("trace"):
            args["traced"] = True
    return note


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer entry point the pipeline calls, for the
    duration of the ``with`` block:

    * each ``STAGES[name].run`` and ``.fingerprint``;
    * ``ArtifactCache.load_with_meta``/``store``, ``LocalStore.get``/
      ``put``;
    * each registered ``Workload.build`` and ``Workload.make_inputs``;
    * ``repro.trace.analyze`` and the stage manager
      ``repro.pipeline.core.execute``.
    """
    import repro.pipeline.core as core
    import repro.trace as trace
    from repro.pipeline.cache import ArtifactCache
    from repro.pipeline.stages import STAGES
    from repro.pipeline.store import LocalStore
    from repro.workloads import all_workloads
    from repro.workloads.common import Workload

    with Patches() as patches:
        for name, stage in STAGES.items():
            patches.set(stage, "run", tracer.wrap(
                stage.run, "run:" + name, STAGE_LAYERS.get(name, "pipeline"),
                _note_run(name)))
            if stage.fingerprint is not None:
                patches.set(stage, "fingerprint", tracer.wrap(
                    stage.fingerprint, "fingerprint:" + name,
                    "pipeline.fingerprint", _note_fingerprint(name)))
        patches.set(ArtifactCache, "load_with_meta", tracer.wrap(
            ArtifactCache.load_with_meta, "cache.load", "cache.load",
            _note_stage))
        patches.set(ArtifactCache, "store", tracer.wrap(
            ArtifactCache.store, "cache.store", "cache.store", _note_store))
        patches.set(LocalStore, "get", tracer.wrap(
            LocalStore.get, "store.get", "store.get"))
        patches.set(LocalStore, "put", tracer.wrap(
            LocalStore.put, "store.put", "store.put"))
        patches.set(Workload, "make_inputs", tracer.wrap(
            Workload.make_inputs, "workloads.make_inputs",
            "workloads.inputs"))
        for workload in all_workloads():
            patches.set(workload, "build", tracer.wrap(
                workload.build, "workloads.build", "workloads.build"))
        patches.set(trace, "analyze", tracer.wrap(
            trace.analyze, "trace.analyze", "trace"))
        patches.set(core, "execute", tracer.wrap(
            core.execute, "pipeline.execute", "pipeline"))
        yield tracer
