"""``repro.bench`` — the machine-readable benchmark subsystem.

The papers' entire evaluation (GREMIO/DSWP speedups, COCO communication
reduction, the ablation and sensitivity studies) is registered as
:class:`BenchSpec` objects on a common interface: an id, the
evaluation-matrix cells to prewarm, and a metric extractor.  Two
frontends drive the same specs:

* the pytest modules under ``benchmarks/`` — human-readable figure
  tables plus the paper-shape assertions;
* ``python -m repro bench [--smoke|--full] [--jobs N]`` — a headless
  runner that emits a schema-versioned ``BENCH_RESULTS.json`` and,
  with ``--compare baselines/bench_baseline.json``, gates against a
  committed baseline under per-metric tolerance bands.

See ``docs/benchmarking.md`` for the schema and the baseline-update
workflow.
"""

from .compare import Comparison, MetricDelta, compare
from .harness import (BENCH_ORDER, clear_memo, evaluation, prewarm,
                      relative_communication)
from .results import SCHEMA, BenchResults, SchemaError, SpecResult
from .runner import run_bench, select_specs
from .spec import (EXACT, FULL, MODES, SMOKE, STRICT_TIME_BAND,
                   TIME_BAND, BenchMode, BenchSpec, Metric, all_specs,
                   bench_spec, get_spec, register, spec_ids)

__all__ = [
    # specs
    "BenchSpec", "BenchMode", "Metric", "MODES", "SMOKE", "FULL",
    "EXACT", "TIME_BAND", "STRICT_TIME_BAND", "register", "bench_spec",
    "get_spec",
    "all_specs", "spec_ids",
    # harness
    "BENCH_ORDER", "evaluation", "prewarm", "relative_communication",
    "clear_memo",
    # results + comparison
    "SCHEMA", "BenchResults", "SpecResult", "SchemaError",
    "Comparison", "MetricDelta", "compare",
    # runner
    "run_bench", "select_specs",
]
