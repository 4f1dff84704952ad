"""The baseline comparator: diff a fresh ``BenchResults`` against a
committed baseline, per-metric, under each metric's tolerance band.

Statuses:

* ``ok`` — inside the band (``same`` when bit-identical);
* ``regression`` — outside the band (for ``unit="s"`` wall-time
  metrics only an increase regresses), or present in the baseline but
  missing from the current run;
* ``info`` — tolerance ``None``: diffed for the record, never gates;
* ``new`` — present now but absent from the baseline: never gates
  (commit a refreshed baseline to start tracking it);
* ``unbaselined`` — a metric of a spec the baseline has no entry for
  at all: gates, so a registered spec can never run unchecked.

The rendered markdown table names every offending metric — it is what
CI writes to ``$GITHUB_STEP_SUMMARY``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..stats import relative_delta, within_band
from .results import BenchResults, SchemaError
from .spec import STRICT_TIME_BAND, Metric

OK = "ok"
SAME = "same"
REGRESSION = "regression"
MISSING = "missing"          # rendered as a regression
INFO = "info"
NEW = "new"
UNBASELINED = "unbaselined"  # rendered as a regression

_GATING = (REGRESSION, MISSING, UNBASELINED)


@dataclass
class MetricDelta:
    """One compared metric."""

    spec_id: str
    name: str
    status: str
    baseline: Optional[float]
    current: Optional[float]
    unit: str = ""
    tolerance: Optional[float] = 0.0

    @property
    def gates(self) -> bool:
        return self.status in _GATING

    @property
    def delta(self) -> float:
        if self.baseline is None or self.current is None:
            return math.nan
        return relative_delta(self.current, self.baseline)


def _compare_metric(spec_id: str, name: str, base: Metric,
                    current: Metric,
                    host_strict: bool = False) -> MetricDelta:
    tolerance = current.tolerance
    unit = current.unit or base.unit
    if (host_strict and unit == "s" and tolerance is not None
            and tolerance > STRICT_TIME_BAND):
        # --host-strict: on a quiet dedicated host, tighten every
        # wall-time band to STRICT_TIME_BAND (the CI default stays
        # generous to absorb shared-runner jitter).
        tolerance = STRICT_TIME_BAND
    delta = MetricDelta(spec_id, name, OK, base.value, current.value,
                        unit=unit, tolerance=tolerance)
    if base.value == current.value:
        delta.status = SAME
    elif tolerance is None:
        delta.status = INFO
    elif within_band(current.value, base.value, tolerance,
                     one_sided=(current.unit == "s")):
        delta.status = OK
    else:
        delta.status = REGRESSION
    return delta


@dataclass
class Comparison:
    """Every per-metric verdict of one baseline diff."""

    baseline_mode: str
    current_mode: str
    deltas: List[MetricDelta]

    @property
    def regressions(self) -> List[MetricDelta]:
        return [delta for delta in self.deltas if delta.gates]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for delta in self.deltas:
            counts[delta.status] = counts.get(delta.status, 0) + 1
        return counts

    # -- rendering ---------------------------------------------------------

    def summary(self) -> str:
        counts = self.counts()
        parts = ["%d %s" % (counts[status], status)
                 for status in (SAME, OK, REGRESSION, MISSING,
                                UNBASELINED, INFO, NEW)
                 if counts.get(status)]
        verdict = ("OK" if self.ok
                   else "REGRESSION (%d metrics)" % len(self.regressions))
        return "bench compare [%s]: %s" % (", ".join(parts) or "empty",
                                           verdict)

    def markdown_table(self, include_unchanged: bool = False) -> str:
        """The regression table (markdown).  By default only rows that
        moved (regressions, info drifts, new/missing metrics) are
        listed; ``include_unchanged`` dumps everything."""
        lines = ["| status | spec | metric | baseline | current | Δ | "
                 "tolerance |",
                 "|---|---|---|---|---|---|---|"]
        shown = 0
        for delta in self.deltas:
            if not include_unchanged and delta.status in (SAME, OK):
                continue
            shown += 1
            lines.append(
                "| %s | %s | `%s` | %s | %s | %s | %s |"
                % (_badge(delta.status), delta.spec_id, delta.name,
                   _number(delta.baseline, delta.unit),
                   _number(delta.current, delta.unit),
                   _percent(delta.delta), _tolerance(delta.tolerance)))
        if not shown:
            return ("All %d metrics within tolerance of the baseline."
                    % len(self.deltas))
        return "\n".join(lines)


def _badge(status: str) -> str:
    return {REGRESSION: "❌ regression", MISSING: "❌ missing",
            UNBASELINED: "❌ no baseline",
            INFO: "ℹ️ info", NEW: "🆕 new", SAME: "✅ same",
            OK: "✅ ok"}.get(status, status)


def _number(value: Optional[float], unit: str) -> str:
    if value is None:
        return "—"
    text = ("%d" % value if float(value).is_integer()
            else "%.4f" % value)
    return text + (" %s" % unit if unit else "")


def _percent(delta: float) -> str:
    if math.isnan(delta):
        return "—"
    if math.isinf(delta):
        return "∞"
    return "%+.2f%%" % (100.0 * delta)


def _tolerance(tolerance: Optional[float]) -> str:
    if tolerance is None:
        return "info"
    if tolerance == 0:
        return "exact"
    return "±%.0f%%" % (100.0 * tolerance)


def compare(baseline: BenchResults, current: BenchResults,
            host_strict: bool = False) -> Comparison:
    """Diff ``current`` against ``baseline``.

    ``host_strict`` tightens every wall-time (``unit="s"``) band to
    :data:`~repro.bench.spec.STRICT_TIME_BAND` — for baselines recorded
    on the same quiet host, where the default CI jitter band would mask
    real slowdowns.

    Raises :class:`~repro.bench.results.SchemaError` when the two
    documents are not comparable (schema or mode mismatch) — smoke
    numbers measured on train inputs are meaningless against a full
    ref-scale baseline.
    """
    if baseline.schema != current.schema:
        raise SchemaError("schema mismatch: baseline %r vs current %r"
                          % (baseline.schema, current.schema))
    if baseline.mode != current.mode:
        raise SchemaError("mode mismatch: baseline is %r, current run "
                          "is %r — compare like with like"
                          % (baseline.mode, current.mode))
    deltas: List[MetricDelta] = []
    current_index = {(spec_id, name): metric
                     for spec_id, name, metric in current.metric_items()}
    for spec_id, name, base_metric in baseline.metric_items():
        current_metric = current_index.pop((spec_id, name), None)
        if current_metric is None:
            deltas.append(MetricDelta(spec_id, name, MISSING,
                                      base_metric.value, None,
                                      unit=base_metric.unit,
                                      tolerance=base_metric.tolerance))
        else:
            deltas.append(_compare_metric(spec_id, name, base_metric,
                                          current_metric,
                                          host_strict=host_strict))
    for (spec_id, name), metric in sorted(current_index.items()):
        status = NEW if spec_id in baseline.specs else UNBASELINED
        deltas.append(MetricDelta(spec_id, name, status, None,
                                  metric.value, unit=metric.unit,
                                  tolerance=metric.tolerance))
    return Comparison(baseline.mode, current.mode, deltas)
