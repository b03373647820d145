"""The ``EXPERIMENTS`` table is the one place that names the artefacts.

Table-driven: every assertion here iterates the table, so a new entry
is covered the moment it is declared — by ``--help``, ``repro all``,
the aggregate report and the serial-vs-fanned digest check alike.
"""

import copy
import inspect

import pytest

from repro import cli
from repro.experiments import ablation, fig11, fig17, fig18, sensitivity
from repro.experiments.harness import (
    ExperimentRun,
    run_experiment,
    run_grid,
    verify,
)
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import join_sections, render_experiment_report
from repro.net.network import Network

from .test_output_identity import mask_wall_time


class TestTable:
    def test_names_are_the_keys_in_presentation_order(self):
        assert list(EXPERIMENTS) == [e.name for e in EXPERIMENTS.values()]
        # the paper's table and figures in its order, then the planes'
        # figures, then what cuts across them
        figures = [name for name in EXPERIMENTS if name.startswith("fig")]
        assert list(EXPERIMENTS) == (
            ["table1"] + sorted(figures) + ["ablation", "sensitivity"])

    @pytest.mark.slow
    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_units_are_named_after_their_experiment(self, name, quick_runs):
        experiment = EXPERIMENTS[name]
        names = list(quick_runs[name].results)
        assert len(names) > 1
        assert all(n.startswith(f"{name}:") for n in names)
        # a repeat and the unit it reproduces both exist
        for repeat, original in experiment.repeats.items():
            assert repeat in names and original in names

    def test_no_switch_rides_on_a_declaration(self):
        # grids are data; nothing on an Experiment is set by the user
        for experiment in EXPERIMENTS.values():
            assert experiment.quick is not None and experiment.full is not None
        assert [e.name for e in EXPERIMENTS.values() if e.scale] == ["fig14"]
        assert [e.name for e in EXPERIMENTS.values() if e.report] == ["fig16"]


class TestCliReadsTheTable:
    def test_help_lists_every_entry(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = capsys.readouterr().out
        width = max(map(len, EXPERIMENTS))
        for name, experiment in EXPERIMENTS.items():
            assert f"  {name:<{width}} {experiment.summary}" in out
        positional = out[out.index("positional arguments:"):]
        choices = positional[positional.index("{") + 1:positional.index("}")]
        assert set(EXPERIMENTS) | {"all"} <= set(choices.split(","))

    def test_all_runs_every_entry_in_table_order(self, capsys, monkeypatch):
        seen = []

        def stub(name, **kwargs):
            seen.append((name, kwargs))
            return ExperimentRun(name, {}, "", f"<{name}>")

        monkeypatch.setattr(cli, "run_experiment", stub)
        assert cli.main(["all", "--quick", "--jobs", "3",
                         "--report-out", "r.txt"]) == 0
        assert [name for name, _ in seen] == list(EXPERIMENTS)
        assert all(kwargs == {"quick": True, "jobs": 3, "scale": False,
                              "report_out": "r.txt"} for _, kwargs in seen)
        out = capsys.readouterr().out
        assert all(f"=== {name} " in out and f"<{name}>" in out
                   for name in EXPERIMENTS)

    def test_one_command_per_entry_plus_all_plus_views(self):
        assert list(cli.COMMANDS) == list(EXPERIMENTS) + [
            "all", "trace", "metrics", "health", "slo", "analyze", "report"]


class TestAggregateReport:
    def test_sections_equal_the_standalone_renders(self, quick_runs):
        names = ("fig15", "table1", "fig16")  # sub-second entries
        report = render_experiment_report(quick=True, names=names)
        assert report == join_sections(
            {name: quick_runs[name].text for name in names})

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="fig99"):
            render_experiment_report(names=("table1", "fig99"))


@pytest.mark.slow
@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_fanned_run_merges_to_the_serial_digest(name, quick_runs):
    """``--jobs 4`` against the session's serial run: same merged
    digest (every point matched) and the same rendered text."""
    serial = quick_runs[name]
    fanned = run_experiment(name, quick=True, jobs=4)
    assert fanned.merged_digest == serial.merged_digest
    assert list(fanned.results) == list(serial.results)
    assert mask_wall_time(fanned.text) == mask_wall_time(serial.text)


@pytest.mark.slow
class TestPaperClaims:
    """The paper's shape claims live in the ``check`` of ``table1`` and
    ``fig10``-``fig13``: each holds on the session's quick run (or the
    run would not exist) and raises once the results are doctored."""

    @staticmethod
    def doctored(quick_runs, name, change):
        results = copy.deepcopy(quick_runs[name].results)
        for unit, point in results.items():
            change(unit, point)
        return results

    def refuted(self, quick_runs, name, change, match):
        with pytest.raises(AssertionError, match=match):
            EXPERIMENTS[name].check(self.doctored(quick_runs, name, change))

    @staticmethod
    def swap(attribute, one, other):
        def change(unit, point):
            value = getattr(point, attribute)
            if value in (one, other):
                setattr(point, attribute, other if value == one else one)
        return change

    def test_table1_raises_when_the_handlers_swap(self, quick_runs):
        self.refuted(quick_runs, "table1",
                     self.swap("method", "expect", "javacog"),
                     "Expect does not beat JavaCoG")

    def test_fig10_raises_when_registry_and_index_swap(self, quick_runs):
        self.refuted(quick_runs, "fig10",
                     self.swap("service", "registry", "index"), "not ~2x")

    def test_fig10_raises_when_tls_is_free(self, quick_runs):
        def change(unit, point):
            if point.security == "https":
                point.throughput *= 2.4
        self.refuted(quick_runs, "fig10", change, "TLS divides")

    def test_fig11_raises_when_registry_and_index_swap(self, quick_runs):
        self.refuted(quick_runs, "fig11",
                     self.swap("service", "registry", "index"), "not flat")

    def test_fig11_raises_when_the_overloaded_index_keeps_serving(
            self, quick_runs):
        def change(unit, point):
            if unit == fig11.PROBE:
                point.throughput = 40.0
        self.refuted(quick_runs, "fig11", change, "still serves")

    def test_fig12_raises_when_the_cache_is_no_faster(self, quick_runs):
        def change(unit, point):
            if point.cache:
                point.mean_response_ms *= 50
        self.refuted(quick_runs, "fig12", change, "not under half")

    def test_fig12_raises_when_more_sites_are_slower(self, quick_runs):
        def change(unit, point):
            point.sites = 8 - point.sites
        self.refuted(quick_runs, "fig12", change, "more sites are not faster")

    def test_fig13_raises_on_a_flat_sink_series(self, quick_runs):
        def change(unit, point):
            if point.series.startswith("sinks"):
                point.load_average = 12.0
        self.refuted(quick_runs, "fig13", change, "grows with the number")

    def test_fig13_raises_on_unbounded_requesters(self, quick_runs):
        def change(unit, point):
            if point.series == "requesters":
                point.load_average *= 10
        self.refuted(quick_runs, "fig13", change, "requester series")

    def test_a_claim_whose_points_are_absent_is_skipped(self, quick_runs):
        for name, keep in (("fig12", lambda p: p.sites != 7),
                           ("fig13", lambda p: p.count == 0),
                           ("table1", lambda p: p.method == "expect")):
            partial = {unit: point
                       for unit, point in quick_runs[name].results.items()
                       if keep(point)}
            assert partial
            EXPERIMENTS[name].check(partial)


def _swap_handlers(unit, result):
    for seconds in result.values():
        seconds["expect"], seconds["javacog"] = (seconds["javacog"],
                                                 seconds["expect"])


def _set(path, value):
    """Doctor one figure of a result: ``path`` walks keys/attributes."""
    def change(unit, result):
        for step in path[:-1]:
            result = result[step] if isinstance(result, dict) else getattr(
                result, step)
        if isinstance(result, dict):
            result[path[-1]] = value
        else:
            setattr(result, path[-1], value)
    return change


@pytest.mark.slow
class TestAblationAndSensitivityClaims:
    """DESIGN.md's ablation and sensitivity claims are ``check`` clauses
    too: one doctored figure per clause, refuted by name."""

    #: entry, unit (prefix) to doctor, the doctoring, the clause it trips
    CLAUSES = {
        "xpath as fast as the hash path": (
            "ablation", "ablation:lookup", _set(["xpath_ms"], 12.2),
            "XPath is not clearly slower"),
        "a cache that barely helps": (
            "ablation", "ablation:cache",
            _set(["on", "mean_response_ms"], 20.0), "only 1.7x"),
        "nothing was cached to refresh": (
            "ablation", "ablation:refresh", _set(["cached_as"], "evicted"),
            "not 'active'"),
        "the stale copy survives": (
            "ablation", "ablation:refresh", _set(["after_flag"], "active"),
            "still 'active' 120 s after"),
        "the grouped VO is one group": (
            "ablation", "ablation:overlay", _set(["grouped", "groups"], 1),
            "not 1 and several"),
        "the overlay saves no message": (
            "ablation", "ablation:overlay", _set(["grouped", "messages"], 47),
            "no fewer messages"),
        "expect and javacog swapped": (
            "ablation", "ablation:handler", _swap_handlers,
            "Expect does not beat JavaCoG at every archive size"),
        "a gap that does not widen": (
            "ablation", "ablation:handler",
            _set([32_000_000, "javacog"], 20.0), "does not widen"),
        "a second install of one app": (
            "ablation", "ablation:tiers",
            _set(["on", "tiers", "on-demand-deploy"], 3),
            "not one install per application"),
        "few local hits with the cache on": (
            "ablation", "ablation:tiers", _set(["on", "tiers", "local"], 19),
            "too few local hits"),
        "local hits in the uncached VO": (
            "ablation", "ablation:tiers", _set(["off", "tiers", "local"], 4),
            "cache off, yet requests resolved locally"),
        "a cached median no faster": (
            "ablation", "ablation:tiers", _set(["on", "median_ms"], 30.0),
            "cached median is no faster"),
        "the index beats the registry": (
            "sensitivity", "sensitivity:scan:4e-06:registry@100",
            _set(["throughput"], 150.0), "registry does not beat the index"),
        "an index that does not decay": (
            "sensitivity", "sensitivity:scan:1.6e-05:index@25",
            _set(["throughput"], 70.0), "does not decay with registry size"),
        "the collapsed index serves 50 req/s": (
            "sensitivity", "sensitivity:heap:40000",
            _set(["throughput"], 50.0), "has not collapsed"),
        "the tls drop flattened to 10 %": (
            "sensitivity", "sensitivity:crypto:0.002:https",
            _set(["throughput"], 0.9 * 493.8), "registry only 10%"),
    }

    @pytest.mark.parametrize("case", list(CLAUSES))
    def test_clause_raises_on_its_doctored_figure(self, case, quick_runs):
        name, prefix, change, match = self.CLAUSES[case]
        TestPaperClaims().refuted(
            quick_runs, name,
            lambda unit, result: unit.startswith(prefix) and change(
                unit, result),
            match)

    def test_every_clause_is_refuted(self):
        asserts = sum(inspect.getsource(module._check).count("assert ")
                      for module in (ablation, sensitivity))
        assert asserts == len(self.CLAUSES)


class TestFig17FlatnessIsNotAClock:
    GRID = ((1_000, 16_000), ())  # two storage sizes, no routing cells

    def test_skewed_timings_do_not_raise(self, monkeypatch):
        # a busy sibling worker: the bigger backend "measures" 16x slower
        monkeypatch.setattr(
            fig17, "_time_lookups",
            lambda backend, sample: 1e-9 * len(backend))
        results = run_grid(fig17.EXPERIMENT, self.GRID)
        sharded = [p for points in results.values() for p in points if p.shards]
        assert max(p.per_lookup_ns for p in sharded) > 10 * min(
            p.per_lookup_ns for p in sharded)
        verify(fig17.EXPERIMENT, results)
        assert len({p.calls_per_lookup for p in sharded}) == 1

    def test_call_count_growing_with_n_raises(self, monkeypatch):
        monkeypatch.setattr(
            fig17, "_calls_per_lookup",
            lambda backend, sample: 3.0 + len(backend) / 1_000)
        results = run_grid(fig17.EXPERIMENT, self.GRID)
        with pytest.raises(AssertionError, match="per-lookup work not flat"):
            verify(fig17.EXPERIMENT, results)


class TestFig18CapacityProbe:
    def test_probe_client_propagates_a_non_transient_error(self, monkeypatch):
        """A bug in the call path must fail the run, not spin the probe
        loop forever at one simulated instant."""
        def broken_call(self, *args, **kwargs):
            raise TypeError("call() got an unexpected keyword")
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(fig18, "_setup_content", lambda *args: [])
        monkeypatch.setattr(Network, "call", broken_call)
        with pytest.raises(TypeError, match="unexpected keyword"):
            fig18.run_fig18_capacity(n_sites=3, clients=2, horizon=1.0,
                                     warmup=0.0)
