"""Unit tests for critical paths, self-time breakdowns and waterfalls."""

import pytest

from repro.obs.analyze import (
    critical_path,
    format_critical_path,
    format_self_times,
    format_trace_analytics,
    format_waterfall,
    self_time_breakdown,
    slowest_traces,
    trace_root,
)
from repro.obs.trace import Span


def make_span(name, span_id, start, end, parent_id=None, trace_id=1):
    span = Span(tracer=None, name=name, trace_id=trace_id, span_id=span_id,
                parent_id=parent_id, start=start, attrs={})
    span.end = end
    return span


@pytest.fixture()
def fanout_trace():
    """root(0..10) -> fast(1..3) + slow(2..9) -> leaf(4..8)."""
    return [
        make_span("root", 1, 0.0, 10.0),
        make_span("fast", 2, 1.0, 3.0, parent_id=1),
        make_span("slow", 3, 2.0, 9.0, parent_id=1),
        make_span("leaf", 4, 4.0, 8.0, parent_id=3),
    ]


class TestCriticalPath:
    def test_root_selection_prefers_longest(self):
        spans = [make_span("short", 1, 0.0, 1.0),
                 make_span("long", 2, 0.0, 5.0)]
        assert trace_root(spans).name == "long"

    def test_orphan_parent_counts_as_root(self):
        spans = [make_span("orphan", 7, 0.0, 2.0, parent_id=99)]
        assert trace_root(spans).name == "orphan"

    def test_empty_trace(self):
        assert trace_root([]) is None
        assert critical_path([]) == []

    def test_path_descends_into_last_ending_child(self, fanout_trace):
        names = [s.name for s in critical_path(fanout_trace)]
        # the fast sibling never gates end-to-end latency
        assert names == ["root", "slow", "leaf"]


class TestSelfTime:
    def test_child_time_is_excluded(self, fanout_trace):
        stats = {s.name: s for s in self_time_breakdown(fanout_trace)}
        # root: 10 total minus children union [1,3] U [2,9] = [1,9] -> 2
        assert stats["root"].self_s == pytest.approx(2.0)
        # slow: 7 total minus leaf [4,8] -> 3
        assert stats["slow"].self_s == pytest.approx(3.0)
        # leaves keep everything
        assert stats["leaf"].self_s == pytest.approx(4.0)
        assert stats["fast"].self_s == pytest.approx(2.0)

    def test_overlapping_children_subtract_once(self):
        spans = [
            make_span("parent", 1, 0.0, 10.0),
            make_span("a", 2, 1.0, 6.0, parent_id=1),
            make_span("b", 3, 4.0, 8.0, parent_id=1),  # overlaps a on [4,6]
        ]
        stats = {s.name: s for s in self_time_breakdown(spans)}
        # union of children is [1,8] -> self = 3, not 10 - 5 - 4 = 1
        assert stats["parent"].self_s == pytest.approx(3.0)

    def test_child_outlasting_parent_never_goes_negative(self):
        spans = [
            make_span("parent", 1, 0.0, 2.0),
            make_span("runaway", 2, 0.0, 5.0, parent_id=1),
        ]
        stats = {s.name: s for s in self_time_breakdown(spans)}
        assert stats["parent"].self_s == 0.0

    def test_aggregates_by_name(self):
        spans = [make_span("op", i, 0.0, 1.0, trace_id=i) for i in (1, 2, 3)]
        stats = self_time_breakdown(spans)
        assert len(stats) == 1
        assert stats[0].count == 3
        assert stats[0].total_s == pytest.approx(3.0)


class TestSlowestTraces:
    def test_ranked_by_root_duration(self, fanout_trace):
        traces = {
            1: fanout_trace,
            2: [make_span("quick", 9, 0.0, 1.0, trace_id=2)],
        }
        ranked = slowest_traces(traces, k=2)
        assert [trace_id for trace_id, _, _ in ranked] == [1, 2]
        assert ranked[0][2] == pytest.approx(10.0)
        assert len(slowest_traces(traces, k=1)) == 1

    def test_negative_k_is_refused(self, fanout_trace):
        # k=-1 once sliced ranked[:-1]: every trace but the fastest
        traces = {1: fanout_trace,
                  2: [make_span("quick", 9, 0.0, 1.0, trace_id=2)]}
        assert slowest_traces(traces, k=0) == []
        with pytest.raises(ValueError, match="k must be >= 0"):
            slowest_traces(traces, k=-1)


class TestRenderers:
    def test_format_critical_path(self, fanout_trace):
        text = format_critical_path(fanout_trace, title="demo")
        assert text.startswith("demo")
        assert "critical path: 3 hops over 10000.00 ms" in text
        assert "slow" in text and "fast" not in text

    def test_format_self_times_percentages(self, fanout_trace):
        text = format_self_times(self_time_breakdown(fanout_trace))
        assert "operation" in text and "self %" in text
        assert "leaf" in text

    def test_format_waterfall_bars(self, fanout_trace):
        text = format_waterfall(fanout_trace, width=20)
        lines = text.splitlines()
        assert len(lines) == 4
        assert all("#" in line for line in lines)
        # the root bar spans the full width
        assert lines[0].count("#") == 20

    def test_empty_inputs(self):
        assert format_critical_path([]) == "(empty trace)"
        assert format_waterfall([]) == "(empty trace)"
        assert format_self_times([]) == "(no spans captured)"
        assert format_trace_analytics({}) == "(no spans captured)"

    def test_combined_analytics(self, fanout_trace):
        text = format_trace_analytics({1: fanout_trace}, top=1)
        assert "Self-time by operation" in text
        assert "trace 1" in text
