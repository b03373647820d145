"""The gate harness, table-driven over every ``perf.SUITES`` declaration.

Three layers:

* the generic machinery — for *every* declared suite the committed
  ``BENCH_<name>.json`` is clean against itself, a fresh quick run
  passes every deterministic gate against it (any optimisation that
  changes a simulated-time result shows up as a byte-level diff,
  independent of how much faster it runs), and each declared gate,
  tampered alone, produces exactly one failure naming the suite and the
  field;
* the ``bench_wallclock.py`` CLI over the table, including a toy ninth
  suite registered by the test and nothing else;
* kernel-specific pins that must not move with a regenerated baseline.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro import perf

REPO_ROOT = Path(__file__).resolve().parents[1]
NAMES = list(perf.SUITES)

#: hard-coded second copy of the trace pin so a regenerated baseline
#: file cannot silently ratify a behaviour change
KERNEL_TRACE_SHA = "608a9146715772e560498dcaf8ac5d94dbba4f9c21b1022034e9d4eb3f27645b"

#: hard-coded second copy of every enforced threshold (suite, gate type,
#: field, bound), so loosening one is a deliberate two-place edit
CONTRACT = {
    ("kernel", "RateFloor", "results.kernel.value", 0.25),
    ("kernel", "RateFloor", "results.rpc.value", 0.25),
    ("kernel", "Cap", "rpc_pycalls_per_roundtrip", 66),
    ("kernel", "Cap", "fig10_index_pycalls_per_request", 203),
    ("resolution", "MaxRise", "baseline_messages_per_resolution", 0.25),
    ("resolution", "MaxRise", "optimized_messages_per_resolution", 0.25),
    ("resolution", "Holds", "results_equal", True),
    ("resolution", "Cap", "optimized_pycalls_per_resolution", 2110),
    ("provisioning", "Floor", "rollout_speedup", 3.0),
    ("provisioning", "Holds", "results_equal", True),
    ("provisioning", "Cap", "optimized_pycalls_per_install", 4263),
    ("faults", "Floor", "resilient_resolution_success", 0.95),
    ("faults", "Floor", "resilient_provision_success", 0.95),
    ("faults", "Floor", "reelections", 1),
    ("faults", "Holds", "fragile_reelections", 0),
    ("obs", "Cap", "obs_overhead_frac", 0.60),
    ("obs", "Cap", "slo_overhead_frac", 0.60),
    ("obs", "Cap", "obs_extra_pycalls_per_rpc", 35),
    ("obs", "Cap", "slo_extra_pycalls_per_rpc", 50),
    ("obs", "MaxRise", "obs_overhead_frac", 0.15),
    ("obs", "MaxRise", "slo_overhead_frac", 0.15),
    ("obs", "Holds", "sim_throughput_equal", True),
    ("obs", "Holds", "undetected_crashes", 0),
    ("obs", "Holds", "fragile_verdicts.client-availability", "exhausted"),
    ("obs", "Holds", "resilient_verdicts.client-availability", "met"),
    ("storage", "Cap", "flatness_ratio", 1.5),
    ("storage", "Holds", "digests_equal", True),
    ("storage", "Cap", "ring_builds_per_routed_vo", 2.2),
    ("storage", "Cap", "ring_point_hashes_per_routed_vo", 1408),
    ("workload", "Floor", "results.workload.value", 1_000_000.0),
    ("workload", "Cap", "target_rss_growth_kb", 131_072),
    ("workload", "Cap", "stats_footprint_bytes", 1_000_000),
    ("orchestration", "RateFloor", "results.orchestration.value", 0.25),
    ("orchestration", "Holds", "final_replicas", 1),
}


def _committed(name):
    with (REPO_ROOT / f"BENCH_{name}.json").open() as handle:
        return json.load(handle)


def _set(doc, path, value):
    *parents, leaf = path.split(".")
    for key in parents:
        doc = doc[key]
    doc[leaf] = value


def _leaves(doc, path):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}")
    else:
        yield path


def _pinned_section(name):
    return next(g.path for g in perf.SUITES[name].gates
                if isinstance(g, perf.Exact))


#: how to break each relational predicate alone: (field it must name,
#: edits applied to *both* documents so the Exact gate stays quiet)
PREDICATE_TAMPERS = {
    "_fragile_degrades": ("fragile_resolution_success", {
        "results.faults.details.fragile_resolution_success": 1.0,
        "results.faults.details.resilient_resolution_success": 1.0}),
    "_routed_equals_broadcast": ("routed_result_digest", {
        "fingerprint.routed_result_digest": "deadbeef"}),
    "_scale_out_beats_static": ("recovered_goodput", {
        "fingerprint.recovered_goodput": "1.0"}),
}


def _break(gate, current, baseline):
    """Edit the two documents so exactly ``gate`` fails; return the
    field its failure must name."""
    if not isinstance(gate, perf.Gate):
        if gate is perf._same_jobs:
            current["jobs"] = 4
            return "jobs"
        field, edits = PREDICATE_TAMPERS[gate.__name__]
        for path, value in edits.items():
            _set(current, path, value)
            _set(baseline, path, value)
        return field
    if isinstance(gate, perf.RateFloor):
        _set(baseline, gate.path, 1000.0)
        _set(current, gate.path, 1000.0 * (1.0 - gate.bound) * 0.98)
    elif isinstance(gate, perf.MaxRise):
        base = 10.0 if gate.bound else 0.1
        _set(baseline, gate.path, base)
        _set(current, gate.path,
             base * (1.0 + (gate.bound or 0.0)) * 1.02 + gate.plus)
    else:
        if isinstance(gate, perf.Floor):
            value = gate.bound * 0.99
        elif isinstance(gate, perf.Cap):
            value = gate.bound * 1.01
        else:
            assert isinstance(gate, perf.Holds)
            value = "tampered"
        _set(current, gate.path, value)
        _set(baseline, gate.path, value)
    return gate.path.rsplit(".", 1)[-1]


def _gate_id(gate):
    if isinstance(gate, perf.Gate):
        return f"{type(gate).__name__}:{gate.path.rsplit('.', 1)[-1]}"
    return gate.__name__.lstrip("_")


#: every declared gate but the Exact ones (those get a per-leaf test)
BOUND_GATES = [(name, gate) for name, decl in perf.SUITES.items()
               for gate in decl.gates if not isinstance(gate, perf.Exact)]


class TestTable:
    def test_baseline_files_and_declarations_pair_up(self):
        committed = {p.name for p in REPO_ROOT.glob("BENCH_*.json")
                     if p.name.count(".") == 1}  # not BENCH_all.ci.json
        assert committed == {f"BENCH_{name}.json" for name in NAMES}

    @pytest.mark.parametrize("name", NAMES)
    def test_committed_baseline_is_clean_against_itself(self, name):
        baseline = _committed(name)
        assert perf.compare(name, baseline, baseline) == []

    @pytest.mark.parametrize("name", NAMES)
    def test_fresh_run_passes_deterministic_gates(self, name, quick_suites):
        """BENCH_<name>.json stays in lockstep with the code.

        Host-dependent gates (wall rates, RSS) are left to the CI
        ``--check-all`` job; everything simulated must match here.
        """
        fresh, baseline = quick_suites[name], _committed(name)
        for gate in perf.SUITES[name].gates:
            if not getattr(gate, "noisy", False):
                assert gate(fresh, baseline) == []

    @pytest.mark.parametrize("name", NAMES)
    def test_fresh_payload_keeps_the_committed_shape(self, name, quick_suites):
        fresh, baseline = quick_suites[name], _committed(name)
        assert set(baseline) <= set(fresh)
        assert fresh["mode"] == "quick"
        assert fresh["suite"] == baseline["suite"]
        assert set(fresh["results"]) == set(baseline["results"])
        for bench, result in baseline["results"].items():
            assert set(result) <= set(fresh["results"][bench])
            assert set(result["details"]) == set(fresh["results"][bench]["details"])

    @pytest.mark.parametrize(
        "name,gate", BOUND_GATES,
        ids=[f"{name}-{_gate_id(gate)}" for name, gate in BOUND_GATES])
    def test_gate_fails_alone(self, name, gate):
        current, baseline = _committed(name), _committed(name)
        field = _break(gate, current, baseline)
        failures = perf.compare(name, current, baseline)
        assert len(failures) == 1, failures
        assert failures[0].startswith(f"{name}: ")
        assert field in failures[0]

    @pytest.mark.parametrize("name", NAMES)
    def test_exact_gate_names_every_drifted_leaf(self, name):
        """Every key of the committed pinned section is gated — not a
        hand-picked subset — and a drift names the suite and the leaf."""
        current = _committed(name)
        section = _pinned_section(name)
        leaves = list(_leaves(current[section], section))
        assert leaves
        for leaf in leaves:
            baseline = copy.deepcopy(current)
            _set(baseline, leaf, "drifted")
            failures = perf.compare(name, current, baseline)
            assert len(failures) == 1, (leaf, failures)
            assert failures[0].startswith(f"{name}: {leaf} drifted")

    def test_values_at_the_bound_pass(self):
        for name, gate in BOUND_GATES:
            doc = _committed(name)
            if isinstance(gate, (perf.Floor, perf.Cap)):
                _set(doc, gate.path, gate.bound)
                assert gate(doc, doc) == [], gate

    def test_small_rate_jitter_is_within_tolerance(self):
        for name, gate in BOUND_GATES:
            if isinstance(gate, perf.RateFloor):
                baseline = _committed(name)
                jittered = copy.deepcopy(baseline)
                _set(jittered, gate.path, perf._dig(baseline, gate.path) * 0.9)
                assert perf.compare(name, jittered, baseline) == []

    def test_rates_recorded_under_other_worker_counts_are_refused(self):
        baseline = _committed("kernel")
        slow = copy.deepcopy(baseline)
        slow["jobs"] = 4
        slow["results"]["kernel"]["value"] /= 3  # not a verdict either way
        failures = perf.compare("kernel", slow, baseline)
        assert len(failures) == 1 and "jobs=4" in failures[0]

    def test_declared_thresholds_match_the_contract(self):
        declared = {
            (name, type(gate).__name__, gate.path,
             gate.plus if getattr(gate, "plus", 0.0) else gate.bound)
            for name, decl in perf.SUITES.items() for gate in decl.gates
            if isinstance(gate, perf.Gate) and not isinstance(gate, perf.Exact)
        }
        for name, kind, field, bound in CONTRACT:
            matches = [d for d in declared if d[:2] == (name, kind)
                       and d[2].endswith(field) and d[3] == bound]
            assert len(matches) == 1, (name, kind, field, bound)
        assert len(declared) == len(CONTRACT)

    def test_scale_out_must_clear_1_2x_the_static_series(self):
        doc = _committed("orchestration")
        static = float(doc["fingerprint"]["static_recovered_goodput"])
        doc["fingerprint"]["recovered_goodput"] = repr(1.2 * static)
        assert perf._scale_out_beats_static(doc, doc) == []
        doc["fingerprint"]["recovered_goodput"] = repr(1.19 * static)
        assert len(perf._scale_out_beats_static(doc, doc)) == 1

    @pytest.mark.parametrize("name", NAMES)
    def test_summary_and_help_come_from_the_declaration(self, name):
        baseline = _committed(name)
        text = perf.summarize(name, baseline)
        assert text.startswith(f"{baseline['suite']} (full")
        for bench in baseline["results"]:
            assert f"  {bench} " in text
        described = perf.describe(name)
        assert described.startswith(f"{name} (BENCH_{name}.json):")
        assert len(described.splitlines()) == 1 + len(perf.SUITES[name].gates)


# -- the CLI over the table ---------------------------------------------------


@pytest.fixture(scope="module")
def cli():
    spec = importlib.util.spec_from_file_location(
        "bench_wallclock", REPO_ROOT / "benchmarks" / "bench_wallclock.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _toy_run(quick, repeats=1, jobs=1):
    result = perf.BenchResult(name="toy", metric="toys_per_sec", value=2.0,
                              wall_seconds=1.0, work_units=2)
    return [result], {"fingerprint": {"answer": 42 if quick else 41}}


class TestCli:
    def test_check_against_the_committed_default(self, cli, capsys):
        assert cli.main(["--suite", "resolution", "--quick", "--check"]) == 0
        out = capsys.readouterr().out
        assert "resolution baseline check passed" in out
        assert "BENCH_resolution.json" in out

    def test_tampered_baseline_fails_on_stderr(self, cli, capsys, tmp_path):
        tampered = _committed("resolution")
        tampered["fingerprint"]["optimized_result_digest"] = "deadbeef"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(tampered))
        assert cli.main(["--suite", "resolution", "--quick",
                         "--check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "FAIL:" in err
        assert "resolution: fingerprint.optimized_result_digest drifted" in err

    def test_unknown_suite_is_an_argparse_error(self, cli, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--suite", "nonesuch"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_exactly_the_seven_options(self, cli, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        usage = capsys.readouterr().out
        options = {word.strip("[],") for word in usage.split("options:")[0].split()
                   if word.startswith("[-")}
        assert options == {"-h", "--suite", "--check", "--check-all", "--quick",
                           "--repeats", "--jobs", "-o"}
        for name in NAMES:  # the epilog is rendered from the table
            assert perf.describe(name) in usage

    def test_a_ninth_suite_is_one_declaration(self, cli, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.setitem(perf.SUITES, "toy", perf.Suite(
            run=_toy_run,
            gates=(perf.Floor("results.toy.value", 1.0), perf.Exact("fingerprint")),
            highlights=("fingerprint.answer",),
        ))
        suite = perf.run_suite("toy", quick=True)
        assert suite["suite"] == "bench_toy" and suite["mode"] == "quick"
        assert perf.compare("toy", suite, suite) == []
        assert "fingerprint.answer" in perf.summarize("toy", suite)
        assert "results.toy.value >= 1" in perf.describe("toy")

        path = tmp_path / "BENCH_toy.json"
        assert cli.main(["--suite", "toy", "--quick", "-o", str(path)]) == 0
        assert json.loads(path.read_text()) == suite
        assert cli.main(["--suite", "toy", "--quick", "--check", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["--suite", "toy", "--check", str(path)]) == 1
        assert "toy: fingerprint.answer drifted: 41 != baseline 42" \
            in capsys.readouterr().err

    def test_check_all_clamps_its_fan_out_to_the_machine(self, cli, capsys,
                                                         monkeypatch):
        """``--jobs`` above the core count would timeshare the very wall
        rates the gates check; the effective count is reported."""
        seen = {}

        def fake_run_units(units, jobs=1):
            seen["jobs"], seen["units"] = jobs, [u.name for u in units]
            return [_committed(u.name) for u in units]

        monkeypatch.setattr(cli, "run_units", fake_run_units)
        monkeypatch.setattr(cli, "default_jobs", lambda: 2)
        assert cli.main(["--quick", "--check-all", "--jobs", "4"]) == 0
        assert seen == {"jobs": 2, "units": NAMES}
        out = capsys.readouterr().out
        assert "(2 workers for --jobs 4)" in out
        assert f"all {len(NAMES)} baseline gates passed" in out


# -- kernel-specific pins ---------------------------------------------------------


@pytest.fixture(scope="module")
def baseline():
    return _committed("kernel")


class TestDeterminismGate:
    def test_kernel_trace_matches_committed_baseline(self, baseline):
        current = perf.kernel_trace_fingerprint()
        assert current == baseline["determinism"]["kernel_trace"]

    def test_kernel_trace_matches_hardcoded_pin(self):
        current = perf.kernel_trace_fingerprint()
        assert current["sha256"] == KERNEL_TRACE_SHA
        assert current["events"] == 266
        assert current["final_time"] == "100.0"

    def test_experiment_outputs_match_committed_baseline(self, baseline,
                                                         quick_suites):
        current = quick_suites["kernel"]["determinism"]["experiment"]
        expected = baseline["determinism"]["experiment"]
        # compare key-by-key so a drift names the quantity that moved
        assert set(current) == set(expected)
        for key in expected:
            assert current[key] == expected[key], f"drift in {key}"


class TestBaselineFile:
    def test_baseline_has_required_rates(self, baseline):
        for name in ("kernel", "rpc", "fig10_registry", "fig10_index"):
            result = baseline["results"][name]
            assert result["value"] > 0
            assert result["wall_seconds"] > 0
            assert result["work_units"] > 0
        assert baseline["peak_rss_kb"] > 0

    def test_compare_to_baseline_accepts_itself(self, baseline):
        assert perf.compare("kernel", baseline, baseline) == []

    def test_compare_to_baseline_flags_regression(self, baseline):
        slow = copy.deepcopy(baseline)
        slow["results"]["kernel"]["value"] = baseline["results"]["kernel"]["value"] / 3
        failures = perf.compare("kernel", slow, baseline)
        assert len(failures) == 1
        assert "kernel" in failures[0] and "66.7% below" in failures[0]

    def test_small_jitter_within_tolerance(self, baseline):
        jittered = copy.deepcopy(baseline)
        for name in ("kernel", "rpc"):
            jittered["results"][name]["value"] *= 0.9
        assert perf.compare("kernel", jittered, baseline) == []
