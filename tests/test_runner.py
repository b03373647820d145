"""Tests for the multiprocess sweep runner (``repro.runner``).

The runner's promise is that ``--jobs N`` is invisible in the results:
work units are seeded and merged so the fan-out produces byte-identical
figures and fingerprints to a serial run, and a crashing worker
surfaces a clear error instead of a hang or a silent partial result.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig14
from repro.experiments.harness import run_grid, verify
from repro.runner import (
    WorkUnit,
    WorkerError,
    derive_seed,
    merge_digests,
    run_units,
    truncate_traceback,
)


# --- helpers importable by worker processes (must be module-level) ---

def _square(x):
    return x * x


def _boom(message):
    raise RuntimeError(message)


class TestRunUnits:
    def test_inline_path_preserves_submission_order(self):
        units = [
            WorkUnit(name=f"sq:{i}", fn="tests.test_runner:_square",
                     kwargs={"x": i})
            for i in (3, 1, 2)
        ]
        assert run_units(units, jobs=1) == [9, 1, 4]

    def test_parallel_results_match_serial(self):
        units = [
            WorkUnit(name=f"sq:{i}", fn="tests.test_runner:_square",
                     kwargs={"x": i})
            for i in range(8)
        ]
        assert run_units(units, jobs=4) == run_units(units, jobs=1)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_empty_unit_list_returns_empty(self, jobs):
        # must not spin up a pool (jobs=4) just to do nothing
        assert run_units([], jobs=jobs) == []

    def test_duplicate_names_rejected(self):
        units = [
            WorkUnit(name="dup", fn="tests.test_runner:_square", kwargs={"x": 1}),
            WorkUnit(name="dup", fn="tests.test_runner:_square", kwargs={"x": 2}),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            run_units(units, jobs=1)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_crash_in_worker_surfaces_clear_error(self, jobs):
        units = [
            WorkUnit(name="ok", fn="tests.test_runner:_square", kwargs={"x": 2}),
            WorkUnit(name="kaboom", fn="tests.test_runner:_boom",
                     kwargs={"message": "deliberate failure"}),
        ]
        with pytest.raises(WorkerError) as excinfo:
            run_units(units, jobs=jobs)
        # the error names the unit, its fn, and carries the child
        # traceback text — enough to debug without re-running serially
        text = str(excinfo.value)
        assert "kaboom" in text
        assert "tests.test_runner:_boom" in text
        assert "deliberate failure" in text


class TestTruncateTraceback:
    def _deep_traceback(self, depth=40):
        # synthetic: real recursive tracebacks get collapsed by
        # CPython's "[Previous line repeated ...]" folding, which is
        # exactly the shape deep sweep failures do NOT have (they cross
        # many distinct runner/simulator frames)
        lines = ["work unit 'deep' failed:",
                 "Traceback (most recent call last):"]
        for i in range(depth):
            lines.append(f'  File "/x/layer{i}.py", line {i + 1}, in step{i}')
            lines.append(f"    step{i + 1}()")
        lines.append('  File "/x/bottom.py", line 1, in recurse')
        lines.append('    raise RuntimeError("bottom of the stack")')
        lines.append("RuntimeError: bottom of the stack")
        return "\n".join(lines)

    def test_short_traceback_untouched(self):
        units = [WorkUnit(name="kaboom", fn="tests.test_runner:_boom",
                          kwargs={"message": "short"})]
        with pytest.raises(WorkerError) as excinfo:
            run_units(units, jobs=1)
        text = str(excinfo.value)
        assert truncate_traceback(text) == text

    def test_deep_traceback_keeps_header_and_tail(self):
        text = self._deep_traceback()
        truncated = truncate_traceback(text, max_frames=20)
        assert truncated != text
        # header preserved, innermost frames preserved, marker present
        assert truncated.startswith("work unit 'deep' failed:")
        assert "bottom of the stack" in truncated
        assert "outer frames elided" in truncated
        assert truncated.count("  File ") == 20
        # the kept frames are the innermost ones (the raise site)
        assert "in recurse" in truncated.rsplit("  File ", 1)[1]


class TestDeterministicMerge:
    def test_merge_digests_is_order_independent(self):
        a = {"fig14:16:base": "aa" * 32, "fig14:16:opt": "bb" * 32}
        b = dict(reversed(list(a.items())))
        assert merge_digests(a) == merge_digests(b)

    def test_merge_digests_sensitive_to_content(self):
        a = {"x": "aa" * 32}
        b = {"x": "ab" * 32}
        assert merge_digests(a) != merge_digests(b)

    def test_derive_seed_is_stable_and_distinct(self):
        s1 = derive_seed(21, "fig14:16:base")
        assert s1 == derive_seed(21, "fig14:16:base")
        assert s1 != derive_seed(21, "fig14:16:opt")
        assert s1 != derive_seed(22, "fig14:16:base")


class TestFig14Parallel:
    def test_fig14_sweep_fingerprint_matches_serial(self):
        serial = run_grid(fig14.EXPERIMENT, (8, 16), jobs=1)
        fanned = run_grid(fig14.EXPERIMENT, (8, 16), jobs=4)
        assert (verify(fig14.EXPERIMENT, serial)
                == verify(fig14.EXPERIMENT, fanned))
        # and not just the merged digest — the per-point results agree
        assert list(serial) == list(fanned)
        for name in serial:
            assert serial[name] == fanned[name]
