"""The headless bench runner behind ``python -m repro bench``.

For every selected spec: bulk-prewarm its evaluation-matrix cells
through ``evaluate_matrix`` (``--jobs N`` fans them across a process
pool; the persistent artifact cache keeps repeat runs cheap), then time
the spec's metric extractor.  The merged per-stage telemetry and cache
traffic of the whole run land in the results' host section — the
``BENCH_RESULTS.json`` perf trajectory tracks the pipeline's own
wall-clock and cache behavior alongside the paper metrics.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional

from ..api import (MatrixCell, get_cache, global_telemetry,
                   reset_global_telemetry)
from .harness import prewarm
from .results import BenchResults, SpecResult
from .spec import BenchMode, BenchSpec, all_specs, get_spec

ProgressFn = Optional[Callable[[str], None]]


def select_specs(spec_ids: Optional[Iterable[str]] = None
                 ) -> List[BenchSpec]:
    if not spec_ids:
        return all_specs()
    return [get_spec(spec_id) for spec_id in spec_ids]


def run_bench(mode: BenchMode, jobs: int = 1,
              spec_ids: Optional[Iterable[str]] = None,
              progress: ProgressFn = None) -> BenchResults:
    """Execute the selected specs under ``mode`` and return the
    machine-readable results document."""
    specs = select_specs(spec_ids)
    telemetry = reset_global_telemetry()
    cache = get_cache()
    cache.stats.reset()
    results = BenchResults(mode=mode.name, host=BenchResults.host_info())
    started = time.perf_counter()

    cells: List[MatrixCell] = []
    seen = set()
    for spec in specs:
        for cell in spec.prewarm_cells(mode):
            if cell not in seen:
                seen.add(cell)
                cells.append(cell)
    if cells:
        if progress:
            progress("prewarming %d evaluation cells (jobs=%d)"
                     % (len(cells), jobs))
        prewarm(cells=cells, jobs=jobs)

    for spec in specs:
        if progress:
            progress("collecting %s" % spec.id)
        spec_started = time.perf_counter()
        metrics = spec.collect(mode)
        results.specs[spec.id] = SpecResult(
            spec_id=spec.id, title=spec.title,
            seconds=time.perf_counter() - spec_started,
            metrics=metrics)

    results.total_seconds = time.perf_counter() - started
    results.telemetry = global_telemetry()
    stats = cache.stats
    # Under --jobs the cache traffic happens in worker processes; the
    # merged telemetry still carries it (see repro.pipeline.matrix).
    results.cache = {
        "hits": max(stats.hits, telemetry.cache_hits),
        "misses": max(stats.misses, telemetry.cache_misses),
        "invalidations": stats.invalidations,
        "stores": stats.stores,
        "enabled": int(cache.enabled),
    }
    return results
