"""The gate harness, table-driven over every ``perf.SUITES`` declaration.

Three layers:

* the generic machinery — for *every* declared suite the committed
  ``BENCH_<name>.json`` is clean against itself, a fresh quick run
  passes every gate against it (an optimisation that moves a pinned
  section or an exact counter shows up here, independent of how much
  faster it runs), each declared gate, tampered alone, produces exactly
  one failure naming the suite and the field, and no gate reads a
  clock;
* the ``bench_wallclock.py`` CLI over the table, including a toy extra
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

#: hard-coded second copy of every declared gate (suite, kind, path): a
#: budget's threshold is its committed value, so adding, dropping or
#: retyping a gate is a deliberate two-place edit
CONTRACT = {
    ("kernel", "Budget", "results.kernel.details.kernel_pycalls_per_event"),
    ("kernel", "Budget", "results.rpc.details.rpc_pycalls_per_roundtrip"),
    ("kernel", "Budget",
     "results.fig10_registry.details.fig10_registry_pycalls_per_request"),
    ("kernel", "Budget",
     "results.fig10_index.details.fig10_index_pycalls_per_request"),
    ("kernel", "Exact", "determinism"),
    ("resolution", "Budget",
     "results.resolution.details.optimized_pycalls_per_resolution"),
    ("provisioning", "Budget",
     "results.provisioning.details.optimized_pycalls_per_install"),
    ("obs", "Budget", "results.obs.details.obs_extra_pycalls_per_rpc"),
    ("obs", "Budget", "results.obs.details.slo_extra_pycalls_per_rpc"),
    ("obs", "Holds", "results.obs.details.sim_throughput_equal"),
    ("obs", "Budget", "results.obs.details.retained_bytes_per_span"),
    ("obs", "Exact", "results.obs.details.tracked_objects_per_span"),
    ("storage", "Budget", "results.storage.details.ring_builds_per_routed_vo"),
    ("storage", "Budget",
     "results.storage.details.ring_point_hashes_per_routed_vo"),
    ("workload", "Budget", "results.workload.details.pycalls_per_arrival"),
    ("workload", "Budget",
     "results.workload_memory.details.stats_footprint_bytes"),
    ("workload", "Exact", "fingerprint"),
    ("orchestration", "Budget",
     "results.orchestration.details.pycalls_per_reconcile_round"),
    ("orchestration", "Exact", "fingerprint"),
}

#: what every result records as trajectory and no gate may read
TRAJECTORY = ("value", "wall_seconds", "cpu_seconds", "peak_rss_kb")


def _committed(name):
    with (REPO_ROOT / f"BENCH_{name}.json").open() as handle:
        return json.load(handle)


def _set(doc, path, value):
    *parents, leaf = path.split(".")
    for key in parents:
        doc = doc[key]
    doc[leaf] = value


def _drop(doc, path):
    *parents, leaf = path.split(".")
    for key in parents:
        doc = doc[key]
    del doc[leaf]


def _leaves(doc, path):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}")
    else:
        yield path


#: the suites that pin a section or a value (``Exact``), and which one:
#: what the host cannot change and no experiment runs
PINNED = {name: gate.path for name, suite in perf.SUITES.items()
          for gate in suite.gates if isinstance(gate, perf.Exact)}


def _break(gate, current, baseline):
    """Edit ``current`` so exactly ``gate`` fails; return the field its
    failure must name."""
    if isinstance(gate, perf.Budget):
        _set(current, gate.path, perf._dig(baseline, gate.path) * 1.11)
    else:
        assert isinstance(gate, perf.Holds)
        _set(current, gate.path, "tampered")
    return gate.path.rsplit(".", 1)[-1]


def _gate_id(gate):
    return f"{type(gate).__name__}:{gate.path.rsplit('.', 1)[-1]}"


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
        """BENCH_<name>.json stays in lockstep with the code: every gate
        reads an exact count, so every gate must hold here."""
        assert perf.compare(name, quick_suites[name], _committed(name)) == []

    @pytest.mark.parametrize("name", NAMES)
    def test_fresh_payload_keeps_the_committed_shape(self, name, quick_suites):
        """Two-way: no committed key went missing, and no key appeared
        that the committed baseline does not record (or pin) yet."""
        fresh, baseline = quick_suites[name], _committed(name)
        assert set(baseline) <= set(fresh)
        assert fresh["mode"] == "quick"
        assert fresh["suite"] == baseline["suite"]
        assert set(fresh["results"]) == set(baseline["results"])
        for bench, result in baseline["results"].items():
            assert set(result) <= set(fresh["results"][bench])
            assert set(result["details"]) == set(fresh["results"][bench]["details"])
        if name in PINNED:
            section = PINNED[name]
            assert (set(_leaves(perf._dig(fresh, section), section))
                    == set(_leaves(perf._dig(baseline, section), section)))

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

    @pytest.mark.parametrize("name", list(PINNED))
    def test_exact_gate_names_every_drifted_leaf(self, name):
        """Every key of the committed pinned section is gated — not a
        hand-picked subset — and a drift names the suite and the leaf."""
        current = _committed(name)
        section = PINNED[name]
        leaves = list(_leaves(perf._dig(current, section), section))
        assert leaves
        for leaf in leaves:
            baseline = copy.deepcopy(current)
            _set(baseline, leaf, "drifted")
            failures = perf.compare(name, current, baseline)
            assert len(failures) == 1, (leaf, failures)
            assert failures[0].startswith(f"{name}: {leaf} drifted")

    def test_values_at_the_bound_pass(self):
        """A budget is the committed value x 1.10, inclusive (x 1.11
        fails alone above); a verdict holds at its bound."""
        for name, gate in BOUND_GATES:
            doc, baseline = _committed(name), _committed(name)
            if isinstance(gate, perf.Budget):
                _set(doc, gate.path, perf._dig(baseline, gate.path) * 1.10)
            else:
                _set(doc, gate.path, gate.bound)
            assert perf.compare(name, doc, baseline) == [], gate

    @pytest.mark.parametrize("kind", ["Exact", "Budget", "Holds"])
    def test_a_gate_fails_when_what_it_guards_is_absent(self, kind):
        """A baseline that lacks a guarded path is not a pass (Exact and
        Budget read it); a payload that lacks a verdict is not either."""
        name, gate = next((name, gate) for name, decl in perf.SUITES.items()
                          for gate in decl.gates if type(gate).__name__ == kind)
        current, baseline = _committed(name), _committed(name)
        _drop(current if kind == "Holds" else baseline, gate.path)
        failures = perf.compare(name, current, baseline)
        assert len(failures) == 1, failures
        expected = "is None" if kind == "Holds" else "is missing from the baseline"
        assert failures[0].startswith(f"{name}: {gate.path} {expected}")

    @pytest.mark.parametrize("name", NAMES)
    def test_no_gate_reads_a_clock(self, name):
        doc, baseline = _committed(name), _committed(name)
        for result in doc["results"].values():
            for key in TRAJECTORY:
                result[key] *= 10
        assert perf.compare(name, doc, baseline) == []

    def test_declared_thresholds_match_the_contract(self):
        declared = {(name, type(gate).__name__, gate.path)
                    for name, decl in perf.SUITES.items() for gate in decl.gates}
        assert declared == CONTRACT

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


def _toy_run(quick):
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
        tampered = _committed("storage")
        tampered["results"]["storage"]["details"]["ring_builds_per_routed_vo"] = 1
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(tampered))
        assert cli.main(["--suite", "storage", "--quick",
                         "--check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "FAIL:" in err
        assert ("storage: results.storage.details.ring_builds_per_routed_vo "
                "is 2, over its budget 1.1") in err

    def test_unknown_suite_is_an_argparse_error(self, cli, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--suite", "nonesuch"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_exactly_the_six_options(self, cli, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        usage = capsys.readouterr().out
        options = {word.strip("[],") for word in usage.split("options:")[0].split()
                   if word.startswith("[-")}
        assert options == {"-h", "--suite", "--check", "--check-all", "--quick",
                           "--jobs", "-o"}
        for name in NAMES:  # the epilog is rendered from the table
            assert perf.describe(name) in usage
        assert "host-dependent" not in usage

    def test_a_ninth_suite_is_one_declaration(self, cli, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.setitem(perf.SUITES, "toy", perf.Suite(
            run=_toy_run,
            gates=(perf.Budget("results.toy.value"), perf.Exact("fingerprint")),
            highlights=("fingerprint.answer",),
        ))
        suite = perf.run_suite("toy", quick=True)
        assert suite["suite"] == "bench_toy" and suite["mode"] == "quick"
        assert perf.compare("toy", suite, suite) == []
        assert "fingerprint.answer" in perf.summarize("toy", suite)
        assert "results.toy.value <= baseline x 1.1" in perf.describe("toy")

        path = tmp_path / "BENCH_toy.json"
        assert cli.main(["--suite", "toy", "--quick", "-o", str(path)]) == 0
        assert json.loads(path.read_text()) == suite
        assert cli.main(["--suite", "toy", "--quick", "--check", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["--suite", "toy", "--check", str(path)]) == 1
        assert "toy: fingerprint.answer drifted: 41 != baseline 42" \
            in capsys.readouterr().err

    def test_check_all_hands_jobs_to_the_runner(self, cli, capsys, monkeypatch):
        """No verdict reads a clock, so ``--jobs`` reaches the runner as
        given: one suite per worker, however many cores there are."""
        seen = {}

        def fake_run_units(units, jobs=1):
            seen["jobs"], seen["units"] = jobs, [u.name for u in units]
            return [_committed(u.name) for u in units]

        monkeypatch.setattr(cli, "run_units", fake_run_units)
        assert cli.main(["--quick", "--check-all", "--jobs", "4"]) == 0
        assert seen == {"jobs": 4, "units": NAMES}
        out = capsys.readouterr().out
        assert "(--jobs 4)" in out
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
            assert result["peak_rss_kb"] > 0

    def test_compare_to_baseline_accepts_itself(self, baseline):
        assert perf.compare("kernel", baseline, baseline) == []
