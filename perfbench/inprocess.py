"""The in-process workloads: ``sweep-cold``, ``sweep-warm`` and ``tune``.

Each drives one public entry point of ``repro.api`` from this process
(``evaluate_matrix(cells, jobs=1)`` or ``tune()``), one call at a time,
and checks every output outside the timed region.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from . import common
from .oracle import LiveOutOracle, check_evaluation, tune_summary
from .spans import Tracer, instrument
from .universe import (SCALE, TUNE_BACKEND, TUNE_BUDGET, TUNE_PAIRS,
                       TUNE_SEEDS, TUNE_STRATEGY, sweep_cells, tune_key)

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 3

_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "import importlib; from repro.api import get_workload; "
          "[importlib.import_module(m) for m in sys.argv[2].split(',') if m]; "
          "[(get_workload(n).build(), get_workload(n).make_inputs('%s')) "
          "for n in sys.argv[3:]]" % SCALE)


_FILL = ("import sys; sys.path[:0] = sys.argv[1:3]; "
         "from perfbench.inprocess import fill_cache; "
         "fill_cache(sys.argv[3])")


def _child_seconds(code: str, *args: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code] + list(args),
                   env=common.child_env(), check=True, timeout=120,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def boot_seconds(workloads: List[str], modules: str = "") -> float:
    """Wall time for a fresh interpreter to import the program and
    materialize ``workloads`` (IR and inputs) — what every ``repro
    sweep``/``repro tune`` process pays before its first stage."""
    return _child_seconds(_PROBE, common.SRC, modules, *workloads)


def fill_cache(directory: str) -> None:
    """Write every artifact of the sweep matrix into ``directory``."""
    from repro.api import (MatrixCell, configure_cache, evaluate_matrix,
                           workload_names)
    configure_cache(directory)
    # Backends are bit-identical and not part of any cache key, so the
    # fast one writes the same entries sooner.
    evaluate_matrix([MatrixCell(f["workload"], f["technique"], f["coco"],
                                f["n_threads"], SCALE, backend="fast")
                     for f in sweep_cells(workload_names())], jobs=1)


class Unit:
    """One timed call: its wall time, cells produced and verified."""

    __slots__ = ("seconds", "cells", "verified")

    def __init__(self, seconds: float, cells: int, verified: int) -> None:
        self.seconds = seconds
        self.cells = cells
        self.verified = verified


class InProcessWorkload:
    """Shared loop: set up, run timed units until the window closes,
    report end-to-end or (traced) per-layer metrics."""

    name = ""
    #: The window closes only after a whole number of this many units.
    granule = 1

    def __init__(self, seed: int, seconds: float, result: common.Result,
                 workdir: common.Workdir) -> None:
        self.seed = seed
        self.seconds = seconds
        self.result = result
        self.workdir = workdir
        self.cache_stats: Dict[str, int] = {}
        self.disk_mb = 0.0
        self.tune_candidates = 0

    # -- hooks -------------------------------------------------------------

    def setup_once(self) -> float:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed state the timed units need (after set-up)."""

    def unit(self, index: int, tracer: Optional[Tracer]) -> Unit:
        raise NotImplementedError

    # -- shared machinery ----------------------------------------------------

    def _timed_call(self, tracer: Optional[Tracer], span: str,
                    call: Callable[[], object]):
        """``call()`` timed; when traced, inside the instrumentation and
        an ``api`` span, with the cache traffic it caused recorded.
        Returns ``(seconds, value)``."""
        if tracer is None:
            start = time.perf_counter()
            value = call()
            return time.perf_counter() - start, value
        from repro.api import get_cache
        cache = get_cache()
        before = cache.stats.as_dict()
        with instrument(tracer):
            start = time.perf_counter()
            with tracer.span(span, "api"):
                value = call()
            seconds = time.perf_counter() - start
        for key, count in cache.stats.as_dict().items():
            self.cache_stats[key] = (self.cache_stats.get(key, 0)
                                     + count - before[key])
        self.disk_mb = common.dir_mb(cache.directory)
        return seconds, value

    def setup(self) -> float:
        times = [self.setup_once() for _ in range(SETUP_REPEATS)]
        common.log("setup runs: %s s" % ", ".join("%.3f" % t for t in times))
        return common.median(times)

    def loop(self, tracer: Optional[Tracer]) -> List[Tuple[Unit, bool]]:
        """Run units in granules while another granule as long as the
        last one still fits in the window (at least one granule; two
        with a tracer).  With a tracer, granules alternate untraced and
        traced, so both see the same host conditions.  Returns each
        unit with whether it was traced."""
        units: List[Tuple[Unit, bool]] = []
        start = time.perf_counter()
        mark = start
        while True:
            traced = (tracer is not None
                      and (len(units) // self.granule) % 2 == 1)
            units.append((self.unit(len(units), tracer if traced else None),
                          traced))
            if len(units) % self.granule:
                continue
            now = time.perf_counter()
            enough = tracer is None or len(units) >= 2 * self.granule
            if enough and 2 * now - mark - start > self.seconds:
                break
            mark = now
        return units

    def run(self, traced: bool) -> None:
        setup_s = self.setup()
        self.prepare()
        common.reset_peak_rss()
        if not traced:
            units = [unit for unit, _ in self.loop(None)]
            self.report_end_to_end(units, setup_s)
            return
        tracer = Tracer()
        units = self.loop(tracer)
        self.report_layers(tracer, [u for u, t in units if t],
                           [u for u, t in units if not t])

    # -- reporting ---------------------------------------------------------

    def report_end_to_end(self, units: List[Unit], setup_s: float) -> None:
        result = self.result
        latencies = [unit.seconds * 1000.0 for unit in units]
        total = sum(unit.seconds for unit in units)
        cells = sum(unit.cells for unit in units)
        verified = sum(unit.verified for unit in units)
        result.metric("setup_s", setup_s, SETUP_REPEATS)
        result.metric("cells_per_s", verified / total, cells)
        result.metric("latency_p50_ms", common.median(latencies),
                      len(latencies))
        result.note("latency_p90_ms", common.percentile(latencies, 0.9)[0],
                    "ms", len(latencies))
        result.metric("ok_frac", verified / cells, cells)
        result.metric("peak_rss_mb", common.self_peak_rss_mb())

    def report_layers(self, tracer: Tracer, units: List[Unit],
                      plain: List[Unit]) -> None:
        traced_wall = sum(unit.seconds for unit in units)
        plain_wall = sum(unit.seconds for unit in plain[:len(units)])
        metrics = layer_metrics(tracer, traced_wall)
        stats = self.cache_stats
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        metrics.update({
            "cache.hits": stats.get("hits", 0),
            "cache.memory_hits": stats.get("memory_hits", 0),
            "cache.misses": stats.get("misses", 0),
            "cache.stores": stats.get("stores", 0),
            "cache.invalidations": stats.get("invalidations", 0),
            "cache.hit_ratio": (stats.get("hits", 0) / lookups
                                if lookups else 0.0),
            "store.disk_mb": self.disk_mb,
            "tune.candidates": self.tune_candidates,
            "spans.overhead_frac": traced_wall / plain_wall - 1.0,
        })
        emit_layers(self.result, metrics, tracer, traced_wall,
                    "%s-seed%d" % (self.name, self.seed))


def layer_metrics(tracer: Tracer, wall: float) -> Dict[str, float]:
    """Per-layer metrics derivable from the spans alone."""
    from .spans import ARGS, LAYER, LAYER_METRICS, NAME
    table = tracer.layer_table()
    sums = {layer: row["self_s"] for layer, row in table.items()}
    calls = {layer: row["calls"] for layer, row in table.items()}
    runs = [span[ARGS] for span in tracer.spans
            if span[ARGS].get("key") is not None
            and not span[NAME].startswith("fingerprint:")]
    distinct = len({(args["stage"], args["key"]) for args in runs})
    sim_layers = ("machine.sim_st", "machine.sim_mt", "machine.sim_traced")
    instructions = sum(span[ARGS].get("instructions", 0)
                       for span in tracer.spans)
    sim_s = sum(sums.get(layer, 0.0) for layer in sim_layers)
    memo_hits = sum(1 for span in tracer.spans
                    if span[LAYER] == "cache.load" and span[ARGS].get("hit")
                    and span[ARGS].get("stage") in ("tune-candidate",
                                                    "tune-trace"))
    attributed = sum(seconds for layer, seconds in sums.items()
                     if layer != "api")

    def s(layer: str) -> float:
        return sums.get(layer, 0.0)

    def n(layer: str) -> int:
        return calls.get(layer, 0)

    metrics = {}
    for layer, (runs_name, seconds_name) in LAYER_METRICS.items():
        if runs_name is not None:
            metrics[runs_name] = n(layer)
        metrics[seconds_name] = s(layer)
    metrics.update({
        "api.calls": n("api"), "api.self_s": s("api"),
        "workloads.build_s": s("workloads.build"),
        "workloads.inputs_s": s("workloads.inputs"),
        "pipeline.self_s": s("pipeline"),
        "pipeline.fingerprint_s": s("pipeline.fingerprint"),
        "pipeline.stage_runs": len(runs),
        "pipeline.distinct_fingerprints": distinct,
        "pipeline.reuse_ratio": distinct / len(runs) if runs else 0.0,
        "cache.load_s": s("cache.load"), "cache.store_s": s("cache.store"),
        "store.get_s": s("store.get"), "store.put_s": s("store.put"),
        "machine.sim_minst_per_s": (instructions / 1e6 / sim_s
                                    if sim_s else 0.0),
        "tune.memo_hits": memo_hits,
        "tune.traced_evals": n("machine.sim_traced"),
        "spans.attributed_frac": attributed / wall if wall else 0.0,
    })
    return metrics


def emit_layers(result: common.Result, metrics: Dict[str, float],
                tracer: Optional[Tracer], wall: float, label: str) -> None:
    """Fill in layers this workload does not exercise with 0, print the
    per-layer table, write the span file and report every metric."""
    if tracer is not None:
        table = tracer.layer_table()
        common.log("%-22s %8s %10s %7s" % ("layer", "calls", "self s",
                                            "share"))
        for layer, row in sorted(table.items(),
                                 key=lambda item: -item[1]["self_s"]):
            common.log("%-22s %8d %10.4f %6.1f%%" % (
                layer, row["calls"], row["self_s"],
                100.0 * row["self_s"] / wall if wall else 0.0))
        _write_trace(tracer, label)
    for name, _unit in common.declared_metrics("per_layer"):
        result.metric(name, float(metrics.get(name, 0.0)))


def _write_trace(tracer: Tracer, label: str) -> None:
    os.makedirs(common.TRACE_DIR, exist_ok=True)
    path = os.path.join(common.TRACE_DIR, label + ".trace.json")
    tracer.write_chrome_trace(path, "perfbench " + label)
    common.log("span file: %s (%d spans)"
               % (os.path.relpath(path, common.ROOT), len(tracer.spans)))


# -- the workloads ----------------------------------------------------------

class Sweep(InProcessWorkload):
    """``evaluate_matrix`` over the shuffled 128-cell paper matrix."""

    def __init__(self, *args, warm: bool, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.warm = warm
        self.name = "sweep-warm" if warm else "sweep-cold"
        from repro.api import MatrixCell, workload_names
        self.names = workload_names()
        self.fields = sweep_cells(self.names)
        random.Random(self.seed).shuffle(self.fields)
        self.cells = [MatrixCell(f["workload"], f["technique"], f["coco"],
                                 f["n_threads"], SCALE)
                      for f in self.fields]
        self.oracle = LiveOutOracle()
        self.fill_dir: Optional[str] = None

    def setup_once(self) -> float:
        """A fresh process: importing the program and materializing the
        workloads (cold), or filling a fresh disk cache (warm)."""
        if not self.warm:
            return boot_seconds(self.names)
        if self.fill_dir is not None:
            shutil.rmtree(self.fill_dir, ignore_errors=True)
        self.fill_dir = self.workdir.fresh("fill")
        return _child_seconds(_FILL, common.SRC, common.ROOT, self.fill_dir)

    def prepare(self) -> None:
        from repro.api import configure_cache, get_workload
        from .oracle import load_expected
        if self.warm:
            configure_cache(self.fill_dir)
        self.expected = load_expected()["cells"]
        for name in self.names:
            self.oracle.prepare(get_workload(name), SCALE)

    def unit(self, index: int, tracer: Optional[Tracer]) -> Unit:
        from repro.api import configure_cache, evaluate_matrix, get_cache
        if self.warm:
            get_cache().drop_memory()
        else:
            previous = get_cache().directory
            configure_cache(self.workdir.fresh("cold"))
            if index:
                shutil.rmtree(previous, ignore_errors=True)
        seconds, evaluations = self._timed_call(
            tracer, "api.evaluate_matrix",
            lambda: evaluate_matrix(self.cells, jobs=1))
        verified = 0
        for fields, evaluation in zip(self.fields, evaluations):
            self.result.attempted += 1
            problems = check_evaluation(evaluation, fields, self.expected,
                                        self.oracle)
            if problems:
                self.result.fail("; ".join(problems))
            else:
                verified += 1
        return Unit(seconds, len(self.cells), verified)


class Tune(InProcessWorkload):
    """``tune()`` over fixed workload pairs, one fresh cache each."""

    name = "tune"
    granule = len(TUNE_PAIRS)

    def setup_once(self) -> float:
        names = sorted({name for pair in TUNE_PAIRS for name in pair})
        return boot_seconds(names, "repro.tune.driver")

    def prepare(self) -> None:
        from .oracle import load_expected
        self.expected = load_expected()["tune"]

    def unit(self, index: int, tracer: Optional[Tracer]) -> Unit:
        from repro.api import TuneRequest, configure_cache, get_cache, tune
        pair = TUNE_PAIRS[index % len(TUNE_PAIRS)]
        tune_seed = (self.seed + index // len(TUNE_PAIRS)) % TUNE_SEEDS
        request = TuneRequest(workloads=pair, strategy=TUNE_STRATEGY,
                              budget=TUNE_BUDGET, seed=tune_seed,
                              scale=SCALE, backend=TUNE_BACKEND)
        previous = get_cache().directory
        configure_cache(self.workdir.fresh("tune"))
        if index:
            shutil.rmtree(previous, ignore_errors=True)
        seconds, outcome = self._timed_call(tracer, "api.tune",
                                            lambda: tune(request))
        self.result.attempted += 1
        if tracer is not None:
            self.tune_candidates += outcome.evaluated
        key = tune_key(pair, tune_seed)
        got = tune_summary(outcome)
        if got != self.expected.get(key):
            self.result.fail("tune %s: %r, frozen %r"
                             % (key, got, self.expected.get(key)))
            return Unit(seconds, outcome.evaluated, 0)
        return Unit(seconds, outcome.evaluated, outcome.evaluated)
