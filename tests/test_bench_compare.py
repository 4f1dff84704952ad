"""Tests for the baseline comparator (:mod:`repro.bench.compare`):
tolerance bands, one-sided wall-time gating, missing/new metrics, and
schema/mode mismatch refusal."""

import pytest

from repro.bench import (BenchResults, Comparison, Metric, SchemaError,
                        SpecResult, compare)
from repro.bench.compare import (INFO, MISSING, NEW, OK, REGRESSION, SAME,
                                 UNBASELINED)


def make_doc(metrics, mode="smoke", spec_id="spec", schema=None):
    results = BenchResults(mode=mode)
    if schema is not None:
        results.schema = schema
    results.specs[spec_id] = SpecResult(
        spec_id=spec_id, title=spec_id, seconds=0.0,
        metrics=dict(metrics))
    return results


def one_delta(comparison):
    assert len(comparison.deltas) == 1
    return comparison.deltas[0]


class TestMetricVerdicts:
    def test_identical_values_pass(self):
        comparison = compare(make_doc({"m": Metric(1.5)}),
                             make_doc({"m": Metric(1.5)}))
        assert comparison.ok
        assert one_delta(comparison).status == SAME

    def test_exact_tolerance_flags_any_change(self):
        comparison = compare(make_doc({"m": Metric(100.0)}),
                             make_doc({"m": Metric(100.0001)}))
        assert not comparison.ok
        delta = one_delta(comparison)
        assert delta.status == REGRESSION
        assert delta.gates

    def test_within_band_passes(self):
        comparison = compare(
            make_doc({"m": Metric(100.0, tolerance=0.10)}),
            make_doc({"m": Metric(105.0, tolerance=0.10)}))
        assert comparison.ok
        assert one_delta(comparison).status == OK

    def test_outside_band_regresses(self):
        comparison = compare(
            make_doc({"m": Metric(100.0, tolerance=0.10)}),
            make_doc({"m": Metric(115.0, tolerance=0.10)}))
        assert not comparison.ok
        assert one_delta(comparison).status == REGRESSION

    def test_wall_time_gate_is_one_sided(self):
        """A unit="s" metric only regresses on slowdowns — a 10x
        speedup on a faster runner must never fail CI."""
        base = {"t": Metric(1.0, unit="s", tolerance=0.5)}
        faster = compare(make_doc(base),
                         make_doc({"t": Metric(0.1, unit="s",
                                               tolerance=0.5)}))
        assert faster.ok
        slower = compare(make_doc(base),
                         make_doc({"t": Metric(2.0, unit="s",
                                               tolerance=0.5)}))
        assert not slower.ok

    def test_host_strict_tightens_wall_time_bands(self):
        """--host-strict substitutes STRICT_TIME_BAND for looser
        wall-time tolerances: a slowdown that the default TIME_BAND
        jitter allowance absorbs gates on a quiet dedicated host."""
        from repro.bench import STRICT_TIME_BAND, TIME_BAND
        base = {"t": Metric(1.0, unit="s", tolerance=TIME_BAND)}
        slower = {"t": Metric(1.0 + STRICT_TIME_BAND + 0.5, unit="s",
                              tolerance=TIME_BAND)}
        assert compare(make_doc(base), make_doc(slower)).ok
        strict = compare(make_doc(base), make_doc(slower),
                         host_strict=True)
        assert not strict.ok
        delta = one_delta(strict)
        assert delta.status == REGRESSION
        assert delta.tolerance == STRICT_TIME_BAND

    def test_host_strict_stays_one_sided_and_scoped_to_seconds(self):
        from repro.bench import STRICT_TIME_BAND, TIME_BAND
        # Speedups under strict comparison still never gate...
        faster = compare(
            make_doc({"t": Metric(10.0, unit="s", tolerance=TIME_BAND)}),
            make_doc({"t": Metric(0.5, unit="s", tolerance=TIME_BAND)}),
            host_strict=True)
        assert faster.ok
        # ...non-wall-time metrics keep their own bands...
        counts = compare(
            make_doc({"n": Metric(100.0, unit="count", tolerance=3.0)}),
            make_doc({"n": Metric(300.0, unit="count", tolerance=3.0)}),
            host_strict=True)
        assert counts.ok
        # ...and already-tighter or informational tolerances are kept.
        tight = compare(
            make_doc({"t": Metric(1.0, unit="s", tolerance=0.1)}),
            make_doc({"t": Metric(1.05, unit="s", tolerance=0.1)}),
            host_strict=True)
        assert one_delta(tight).tolerance == 0.1
        info = compare(
            make_doc({"t": Metric(1.0, unit="s", tolerance=None)}),
            make_doc({"t": Metric(9.0, unit="s", tolerance=None)}),
            host_strict=True)
        assert info.ok
        assert one_delta(info).status == INFO
        assert STRICT_TIME_BAND < TIME_BAND

    def test_info_metrics_never_gate(self):
        comparison = compare(
            make_doc({"m": Metric(10.0, tolerance=None)}),
            make_doc({"m": Metric(99.0, tolerance=None)}))
        assert comparison.ok
        assert one_delta(comparison).status == INFO

    def test_missing_metric_is_a_regression(self):
        comparison = compare(make_doc({"gone": Metric(1.0)}),
                             make_doc({}))
        assert not comparison.ok
        delta = one_delta(comparison)
        assert delta.status == MISSING
        assert delta.current is None

    def test_new_metric_never_gates(self):
        comparison = compare(make_doc({}),
                             make_doc({"fresh": Metric(1.0)}))
        assert comparison.ok
        assert one_delta(comparison).status == NEW

    def test_spec_without_baseline_entries_gates(self):
        """A spec absent from the baseline would otherwise compare as
        "new" forever and never gate."""
        comparison = compare(make_doc({"m": Metric(1.0)}, spec_id="old"),
                             make_doc({"m": Metric(1.0)}, spec_id="fresh"))
        assert not comparison.ok
        statuses = {(delta.spec_id, delta.status)
                    for delta in comparison.deltas}
        assert statuses == {("old", MISSING), ("fresh", UNBASELINED)}
        assert "no baseline" in comparison.markdown_table()


class TestDocumentCompatibility:
    def test_schema_mismatch_refused(self):
        with pytest.raises(SchemaError, match="schema mismatch"):
            compare(make_doc({}, schema="repro.bench/v0"), make_doc({}))

    def test_mode_mismatch_refused(self):
        with pytest.raises(SchemaError, match="mode mismatch"):
            compare(make_doc({}, mode="full"), make_doc({}, mode="smoke"))


class TestRendering:
    def regression_comparison(self):
        return compare(
            make_doc({"speedup/gremio/ks": Metric(1.5, unit="x"),
                      "stable": Metric(2.0)}, spec_id="fig8_speedup"),
            make_doc({"speedup/gremio/ks": Metric(1.2, unit="x"),
                      "stable": Metric(2.0)}, spec_id="fig8_speedup"))

    def test_table_names_the_offending_metric(self):
        text = self.regression_comparison().markdown_table()
        assert "`speedup/gremio/ks`" in text
        assert "fig8_speedup" in text
        assert "regression" in text
        assert "stable" not in text  # unchanged rows elided by default

    def test_table_include_unchanged(self):
        text = self.regression_comparison().markdown_table(
            include_unchanged=True)
        assert "stable" in text

    def test_all_clear_table(self):
        comparison = compare(make_doc({"m": Metric(1.0)}),
                             make_doc({"m": Metric(1.0)}))
        assert "within tolerance" in comparison.markdown_table()

    def test_summary_counts(self):
        summary = self.regression_comparison().summary()
        assert "REGRESSION (1 metrics)" in summary
        assert "1 same" in summary

    def test_counts(self):
        assert self.regression_comparison().counts() == {
            SAME: 1, REGRESSION: 1}


class TestDeltaMath:
    def test_relative_delta_reported(self):
        comparison = compare(make_doc({"m": Metric(100.0)}),
                             make_doc({"m": Metric(150.0)}))
        assert one_delta(comparison).delta == pytest.approx(0.5)

    def test_empty_comparison_is_ok(self):
        comparison = compare(make_doc({}), make_doc({}))
        assert isinstance(comparison, Comparison)
        assert comparison.ok
        assert comparison.deltas == []
