"""Unit tests for the tracer: nesting, propagation, retention."""

import pytest

from repro.obs.trace import (
    NullTracer,
    TraceContext,
    Tracer,
    span_children,
    walk_tree,
)
from repro.simkernel import Simulator


@pytest.fixture()
def traced_sim():
    sim = Simulator(seed=1)
    tracer = Tracer()
    tracer.bind(sim)
    return sim, tracer


class TestSpanBasics:
    def test_nested_spans_link_parent_child(self, traced_sim):
        sim, tracer = traced_sim

        def work():
            with tracer.span("outer") as outer:
                yield sim.timeout(1)
                with tracer.span("inner") as inner:
                    yield sim.timeout(2)
            assert inner.parent_id == outer.span_id
            assert inner.trace_id == outer.trace_id
            assert outer.parent_id is None

        sim.process(work())
        sim.run()
        outer, = tracer.find("outer")
        inner, = tracer.find("inner")
        assert (outer.start, outer.end) == (0.0, 3.0)
        assert (inner.start, inner.end) == (1.0, 3.0)
        assert inner.duration == pytest.approx(2.0)

    def test_siblings_share_parent_and_trace(self, traced_sim):
        sim, tracer = traced_sim

        def work():
            with tracer.span("root"):
                with tracer.span("first"):
                    yield sim.timeout(1)
                with tracer.span("second"):
                    yield sim.timeout(1)

        sim.process(work())
        sim.run()
        root, = tracer.find("root")
        first, = tracer.find("first")
        second, = tracer.find("second")
        assert first.parent_id == second.parent_id == root.span_id
        assert len(tracer.traces()) == 1

    def test_separate_top_level_spans_get_separate_traces(self, traced_sim):
        sim, tracer = traced_sim

        def one_span(name):
            with tracer.span(name):
                yield sim.timeout(1)

        proc = sim.process(one_span("a"))
        sim.run(until=proc)
        sim.process(one_span("b"))
        sim.run()
        a, = tracer.find("a")
        b, = tracer.find("b")
        assert a.trace_id != b.trace_id

    def test_interleaved_processes_do_not_cross_attribute(self, traced_sim):
        """Two concurrent processes keep their spans in their own traces."""
        sim, tracer = traced_sim

        def work(name, delay):
            with tracer.span(f"outer:{name}"):
                yield sim.timeout(delay)
                with tracer.span(f"inner:{name}"):
                    yield sim.timeout(delay)

        sim.process(work("a", 1.0))
        sim.process(work("b", 1.5))
        sim.run()
        for name in ("a", "b"):
            outer, = tracer.find(f"outer:{name}")
            inner, = tracer.find(f"inner:{name}")
            assert inner.parent_id == outer.span_id
            assert inner.trace_id == outer.trace_id
        outer_a, = tracer.find("outer:a")
        outer_b, = tracer.find("outer:b")
        assert outer_a.trace_id != outer_b.trace_id

    def test_exception_records_error_attr(self, traced_sim):
        sim, tracer = traced_sim

        def work():
            with tracer.span("boom"):
                yield sim.timeout(1)
                raise RuntimeError("kaput")

        sim.process(work())
        with pytest.raises(RuntimeError, match="kaput"):
            sim.run()
        boom, = tracer.find("boom")
        assert "kaput" in boom.attrs["error"]

    def test_set_attr_and_kwargs(self, traced_sim):
        sim, tracer = traced_sim
        with tracer.span("s", site="agrid01") as span:
            span.set_attr("outcome", "ok")
        assert span.attrs == {"site": "agrid01", "outcome": "ok"}


class TestPropagation:
    def test_spawned_process_inherits_active_span(self, traced_sim):
        sim, tracer = traced_sim

        def child_work():
            with tracer.span("child"):
                yield sim.timeout(1)

        def parent_work():
            with tracer.span("parent") as span:
                proc = sim.process(child_work())
                yield proc
            return span

        sim.process(parent_work())
        sim.run()
        parent, = tracer.find("parent")
        child, = tracer.find("child")
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id

    def test_spawn_outside_any_span_starts_fresh_trace(self, traced_sim):
        sim, tracer = traced_sim

        def work():
            with tracer.span("loner"):
                yield sim.timeout(1)

        sim.process(work())
        sim.run()
        loner, = tracer.find("loner")
        assert loner.parent_id is None

    def test_explicit_parent_context_overrides_current(self, traced_sim):
        """Restoring a TraceContext from RPC metadata re-parents a span."""
        sim, tracer = traced_sim
        remote = TraceContext(trace_id=77, span_id=123)

        def work():
            with tracer.span("local-root"):
                with tracer.span("restored", parent=remote) as span:
                    yield sim.timeout(1)
                assert span.trace_id == 77
                assert span.parent_id == 123

        proc = sim.process(work())
        sim.run()
        assert proc.ok

    def test_current_context_reflects_active_span(self, traced_sim):
        sim, tracer = traced_sim
        assert tracer.current_context() is None
        with tracer.span("outer") as span:
            ctx = tracer.current_context()
            assert ctx == TraceContext(span.trace_id, span.span_id)
        assert tracer.current_context() is None


class TestRetention:
    def test_max_spans_ring_keeps_most_recent(self):
        sim = Simulator()
        tracer = Tracer(max_spans=3)
        tracer.bind(sim)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert [s.name for s in tracer.spans] == ["s7", "s8", "s9"]
        assert tracer.dropped_spans == 7

    def test_overflow_is_bulk_trimmed_with_an_exact_drop_count(self):
        """50k spans through a 1000-span bound: amortised O(1) per finish
        (no per-span front deletion), newest 1000 kept, 49,000 dropped."""
        sim = Simulator()
        tracer = Tracer(max_spans=1000)
        tracer.bind(sim)
        longest = 0
        for index in range(50_000):
            with tracer.span(f"s{index}"):
                pass
            longest = max(longest, len(tracer._finished))
        # the buffer overshoots the bound between trims, never past twice it
        assert 1000 < longest <= 2001
        assert tracer.dropped_spans == 49_000
        assert [s.name for s in tracer.spans] == [
            f"s{index}" for index in range(49_000, 50_000)]
        assert len(tracer.find("s")) == 1000 and len(tracer.traces()) == 1000

    def test_clear_empties_finished(self, traced_sim):
        _, tracer = traced_sim
        with tracer.span("x"):
            pass
        assert tracer.spans
        tracer.clear()
        assert tracer.spans == []


class TestNullTracer:
    def test_everything_is_a_noop(self):
        tracer = NullTracer()
        assert not tracer.enabled
        with tracer.span("anything", site="s") as span:
            span.set_attr("k", "v")
        assert span.context is None
        assert tracer.current_context() is None
        assert tracer.spans == []
        assert tracer.open_spans() == []
        assert tracer.leaked_spans() == []


class TestSpanLifecycle:
    def test_open_spans_track_activation(self, traced_sim):
        sim, tracer = traced_sim

        def work():
            with tracer.span("long"):
                yield sim.timeout(10)

        sim.process(work())
        sim.run(until=5.0)
        assert [s.name for s in tracer.open_spans()] == ["long"]
        sim.run()
        assert tracer.open_spans() == []

    def test_error_path_closes_span(self, traced_sim):
        """An exception through ``with`` must still finish the span."""
        sim, tracer = traced_sim

        def work():
            with tracer.span("failing"):
                yield sim.timeout(1)
                raise RuntimeError("boom")

        sim.process(work())
        with pytest.raises(RuntimeError):
            sim.run()
        assert tracer.open_spans() == []
        failing, = tracer.find("failing")
        assert failing.end == pytest.approx(1.0)
        assert "boom" in failing.attrs["error"]

    def test_open_span_of_live_process_is_not_a_leak(self, traced_sim):
        sim, tracer = traced_sim

        def keepalive():
            with tracer.span("forever"):
                while True:
                    yield sim.timeout(1)

        sim.process(keepalive())
        sim.run(until=5.0)
        assert [s.name for s in tracer.open_spans()] == ["forever"]
        assert tracer.leaked_spans() == []

    def test_span_dropped_by_dead_process_is_a_leak(self, traced_sim):
        """A span never finished by a terminated process is reported."""
        sim, tracer = traced_sim

        def sloppy():
            span = tracer.span("dropped")
            span.__enter__()  # deliberately never exited
            yield sim.timeout(1)

        sim.process(sloppy())
        sim.run()
        leaked = tracer.leaked_spans()
        assert [s.name for s in leaked] == ["dropped"]
        assert leaked[0].end is None


class TestTreeHelpers:
    def test_walk_tree_depths(self, traced_sim):
        sim, tracer = traced_sim

        def work():
            with tracer.span("root"):
                with tracer.span("mid"):
                    with tracer.span("leaf"):
                        yield sim.timeout(1)
                with tracer.span("mid2"):
                    yield sim.timeout(1)

        sim.process(work())
        sim.run()
        walk = [(depth, span.name) for depth, span in walk_tree(tracer.spans)]
        assert walk == [(0, "root"), (1, "mid"), (2, "leaf"), (1, "mid2")]

    def test_span_children_sorted_by_start(self, traced_sim):
        sim, tracer = traced_sim

        def work():
            with tracer.span("root") as root:
                with tracer.span("a"):
                    yield sim.timeout(1)
                with tracer.span("b"):
                    yield sim.timeout(1)
            return root

        sim.process(work())
        sim.run()
        root, = tracer.find("root")
        index = span_children(tracer.spans)
        assert [s.name for s in index[root.span_id]] == ["a", "b"]
