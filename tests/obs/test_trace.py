"""Unit tests for the tracer: nesting, propagation, retention."""

import gc
import io
import json

import pytest

from repro.obs.export import export_chrome, export_jsonl
from repro.obs.trace import (
    SPAN_NAMES,
    NullTracer,
    TraceContext,
    Tracer,
    span_children,
    walk_tree,
)
from repro.perf import one_shot_echo_calls
from repro.simkernel import Simulator
from repro.simkernel.process import Process


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
            longest = max(longest, len(tracer))
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

    def test_clear_is_not_a_drop(self):
        sim = Simulator()
        tracer = Tracer(max_spans=3)
        tracer.bind(sim)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        tracer.clear()
        assert len(tracer) == 0 and tracer.spans == []
        assert tracer.dropped_spans == 0
        for index in range(5):
            with tracer.span(f"t{index}"):
                pass
        assert tracer.dropped_spans == 2

    def test_intern_table_is_bounded_by_the_retention_bound(self):
        """Unique attribute values through a 1000-span bound: the table
        is cleared with every trim, so it never outgrows the columns."""
        sim = Simulator()
        tracer = Tracer(max_spans=1000)
        tracer.bind(sim)
        largest = 0
        for index in range(50_000):
            with tracer.span("s", n=index):
                pass
            largest = max(largest, len(tracer._interned))
        assert largest <= 2000
        assert tracer.spans[-1].attrs == {"n": 49_999}


class TestRowStore:
    """A finished span is a row: typed ids and times, shared attributes."""

    def test_equal_values_of_different_types_keep_their_types(self, traced_sim):
        _, tracer = traced_sim
        for value in (1, True, 1.0, 1, True, 1.0):
            with tracer.span("v", v=value):
                pass
        read = [span.attrs["v"] for span in tracer.spans]
        assert [type(value) for value in read] == [int, bool, float] * 2
        assert read == [1, True, 1.0] * 2
        with tracer.span("z", v=0.0):
            pass
        with tracer.span("z", v=-0.0):
            pass
        assert [repr(span.attrs["v"]) for span in tracer.find("z")] == [
            "0.0", "-0.0"]

    def test_repeated_attributes_share_one_tuple(self, traced_sim):
        _, tracer = traced_sim
        for _ in range(3):
            with tracer.span("s", src="a", dst="b") as span:
                span.set_attr("outcome", "ok")
        folded = tracer._rows[1::2]
        assert folded[0] == ("src", "dst", "outcome", "a", "b", "ok")
        assert folded[0] is folded[1] is folded[2]

    def test_unhashable_value_still_records(self, traced_sim):
        _, tracer = traced_sim
        with tracer.span("s", peers=["a", "b"], site="x"):
            pass
        with tracer.span("s", peers=("a", ["b"])):
            pass
        first, second = tracer.spans
        assert first.attrs == {"peers": ["a", "b"], "site": "x"}
        assert second.attrs == {"peers": ("a", ["b"])}

    def test_handle_and_view_share_one_dict(self, traced_sim):
        _, tracer = traced_sim
        with tracer.span("a", site="x") as first:
            pass
        with tracer.span("b", site="x") as second:
            pass
        first.set_attr("late", 1)  # handle first, then view
        view_a, view_b = tracer.spans
        assert view_a.attrs == {"site": "x", "late": 1}
        view_b.set_attr("late", 2)  # view first, then handle
        assert second.attrs == {"site": "x", "late": 2}
        assert second.attrs is view_b.attrs
        # the two rows shared an interned tuple; their dicts are their own
        assert [span.attrs for span in tracer.spans] == [
            {"site": "x", "late": 1}, {"site": "x", "late": 2}]

    def test_handle_outlives_its_trimmed_row(self):
        sim = Simulator()
        tracer = Tracer(max_spans=10)
        tracer.bind(sim)
        with tracer.span("kept", index=0) as early:
            pass
        with tracer.span("read", index=1) as read:
            pass
        read.set_attr("late", True)
        for index in range(2, 40):
            with tracer.span("later", index=index):
                pass
        assert tracer.dropped_spans == 30
        assert early.attrs == {"index": 0}
        assert read.attrs == {"index": 1, "late": True}
        early.set_attr("late", "x")
        assert early.attrs == {"index": 0, "late": "x"}
        assert [span.attrs["index"] for span in tracer.spans] == list(range(30, 40))
        assert all("late" not in span.attrs for span in tracer.spans)

    def test_handle_after_clear_reads_its_own_attributes(self, traced_sim):
        _, tracer = traced_sim
        with tracer.span("old", site="a") as old:
            pass
        tracer.clear()
        with tracer.span("new", site="b"):
            pass
        assert old.attrs == {"site": "a"}
        new, = tracer.spans
        assert new.attrs == {"site": "b"}

    def test_exit_lets_go_of_process_and_shadowed_span(self, traced_sim):
        _, tracer = traced_sim
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                assert inner._prev is not None
        assert inner._key is None and inner._prev is None


class TestViewParents:
    """A root's parent reads back as None (the row stores 0) everywhere."""

    @pytest.fixture()
    def root_and_child(self, traced_sim):
        sim, tracer = traced_sim

        def work():
            with tracer.span("root", site="a"):
                with tracer.span("child", site="a"):
                    yield sim.timeout(1)

        sim.process(work())
        sim.run()
        return tracer

    def test_export_jsonl(self, root_and_child):
        stream = io.StringIO()
        assert export_jsonl(root_and_child.spans, stream) == 2
        child, root = map(json.loads, stream.getvalue().splitlines())
        assert root["parent"] is None
        assert child["parent"] == root["span"]

    def test_export_chrome(self, root_and_child):
        stream = io.StringIO()
        export_chrome(root_and_child.spans, stream)
        events = [e for e in json.loads(stream.getvalue())["traceEvents"]
                  if e["ph"] == "X"]
        child, root = events
        assert (root["name"], child["name"]) == ("root", "child")
        # Chrome nests by interval on one track: the child sits in the root
        assert root["tid"] == child["tid"] == root_and_child.spans[1].trace_id
        assert root["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"]

    def test_walk_tree_roots(self, root_and_child):
        walk = [(depth, span.name, span.parent_id)
                for depth, span in walk_tree(root_and_child.spans)]
        root_id = root_and_child.spans[1].span_id
        assert walk == [(0, "root", None), (1, "child", root_id)]


class TestFinishedSpanFootprint:
    """A finished span holds only what it records."""

    def test_retained_spans_do_not_keep_their_processes(self):
        sim, tracer = one_shot_echo_calls(200)
        gc.collect()
        assert len(tracer.spans) == 400
        dead = [obj for obj in gc.get_objects()
                if isinstance(obj, Process) and obj.sim is sim
                and not obj.is_alive]
        assert dead == []

    def test_spans_of_one_endpoint_share_their_name(self):
        _sim, tracer = one_shot_echo_calls(2)
        for kind in ("rpc", "serve"):
            first, second = tracer.find(f"{kind}:")
            assert first.name == f"{kind}:echo.echo"
            assert first.name is second.name
            endpoint = ".".join(["echo", "echo"])  # a fresh, equal string
            assert SPAN_NAMES[kind, endpoint] is first.name

    def test_every_way_of_setting_an_attribute_reads_back(self, traced_sim):
        _, tracer = traced_sim
        with tracer.span("s", site="agrid01") as span:
            span.set_attr("tier", "local")
            span.attrs["outcome"] = "ok"
        assert span._key is None
        assert list(span.attrs.items()) == [
            ("site", "agrid01"), ("tier", "local"), ("outcome", "ok")]
        with tracer.span("bare") as bare:
            pass
        assert bare.attrs == {}

    def test_error_attribute_reads_back(self, traced_sim):
        _, tracer = traced_sim
        with pytest.raises(RuntimeError):
            with tracer.span("boom", site="agrid01"):
                raise RuntimeError("kaput")
        boom, = tracer.find("boom")
        assert boom.attrs == {"site": "agrid01", "error": "RuntimeError('kaput')"}

    def test_set_attr_after_exit_persists(self, traced_sim):
        _, tracer = traced_sim
        with tracer.span("read-first", site="a") as read_first:
            pass
        assert read_first.attrs == {"site": "a"}
        read_first.set_attr("late", 1)
        with tracer.span("unread", site="b") as unread:
            pass
        unread.set_attr("late", 2)
        assert [span.attrs for span in tracer.spans] == [
            {"site": "a", "late": 1}, {"site": "b", "late": 2}]


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

    def test_span_dropped_by_a_process_spawned_under_a_span_is_a_leak(
            self, traced_sim):
        """A child that inherited a span and leaks one of its own keeps
        its entry when it ends: the leak is reported like an orphan's."""
        sim, tracer = traced_sim

        def sloppy_leg():
            tracer.span("dropped").__enter__()  # deliberately never exited
            yield sim.timeout(1)

        def fanout():
            with tracer.span("fanout") as parent:
                yield sim.process(sloppy_leg())
            return parent

        proc = sim.process(fanout())
        sim.run()
        assert [s.name for s in tracer.open_spans()] == ["dropped"]
        leaked = tracer.leaked_spans()
        assert [s.name for s in leaked] == ["dropped"]
        assert leaked[0].parent_id == proc.value.span_id

    def test_a_clean_spawned_process_leaves_no_entry(self, traced_sim):
        """The inherited entry goes when the child ends, its own spans closed."""
        sim, tracer = traced_sim

        def leg():
            with tracer.span("leg"):
                yield sim.timeout(1)

        def fanout():
            with tracer.span("fanout"):
                yield sim.process(leg())

        sim.process(fanout())
        sim.run()
        assert tracer._current == {}
        assert tracer.open_spans() == []


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
