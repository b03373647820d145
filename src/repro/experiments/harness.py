"""One declaration per evaluation artefact, one engine that runs them.

Every table/figure module ends with an :class:`Experiment` — its name,
its ``--quick`` and full grids, the work units a grid fans out, which
unit is the same-seed repeat of which, the acceptance assertions and
the renderer — and :func:`run_experiment` is the only driver: fan the
units through :func:`repro.runner.run_units`, verify the repeats,
``check``, merge the digests, ``render``.  ``repro.experiments.
registry.EXPERIMENTS`` collects the declarations; the CLI, ``repro all``, the
aggregate report and CI all read that one table.

What ``check`` may assert: simulated figures and exact counts — they
are identical on every machine and under every ``--jobs``.  What it may
not: anything derived from wall time.  An experiment runs beside busy
sibling workers, so a wall-clock ratio measures the scheduler; such
numbers may be *rendered* (fig17a's ``ns/lookup``) but never raise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.runner import WorkUnit, merge_digests, run_units

#: unit name -> what the unit returned, in submission order
Results = Dict[str, Any]


def result_digest(result: Any) -> str:
    """The digest a point function folded, else sha256 of its ``repr``.

    Simulated results are plain dataclasses of seeded figures, so their
    ``repr`` is as deterministic as a hand-folded digest; an experiment
    whose results carry wall timings declares its own ``digest``.
    """
    folded = getattr(result, "result_digest", "")
    return folded or hashlib.sha256(repr(result).encode()).hexdigest()


@dataclass(frozen=True)
class Experiment:
    """The declaration of one artefact (see the module docstring).

    ``quick``/``full`` are opaque to the engine: whichever applies is
    handed to ``units``.  ``scale`` is the grid ``--scale`` selects in
    place of ``full``, ``report`` the payload ``--report-out`` writes;
    an experiment that leaves them unset ignores those flags.
    """

    name: str
    summary: str
    quick: Any
    full: Any
    units: Callable[[Any], Sequence[WorkUnit]]
    render: Callable[[Results], str]
    check: Callable[[Results], None] = lambda results: None
    #: repeat unit -> the unit it must reproduce bit for bit
    repeats: Mapping[str, str] = field(default_factory=dict)
    digest: Callable[[Any], str] = result_digest
    scale: Any = None
    report: Optional[Callable[[Results], str]] = None


@dataclass
class ExperimentRun:
    """What one run produced: raw results, fingerprint, rendered text."""

    name: str
    results: Results
    #: order-independent fingerprint of every non-repeat unit — equal
    #: between ``jobs=1`` and ``jobs=N`` iff every point matched
    merged_digest: str
    text: str


def run_grid(experiment: Experiment, grid: Any, jobs: int = 1) -> Results:
    """Fan one grid's units out and key the results by unit name."""
    units = list(experiment.units(grid))
    return dict(zip((unit.name for unit in units),
                    run_units(units, jobs=jobs)))


def verify(experiment: Experiment, results: Results) -> str:
    """Repeat identity, then ``check``; returns the merged digest."""
    digests = {name: experiment.digest(result)
               for name, result in results.items()}
    for repeat, original in experiment.repeats.items():
        if digests[repeat] != digests[original]:
            raise AssertionError(
                f"{experiment.name}: {original} is not deterministic — its "
                f"same-seed repeat folded {digests[repeat]}, not "
                f"{digests[original]}"
            )
    experiment.check(results)
    return merge_digests({name: digest for name, digest in digests.items()
                          if name not in experiment.repeats})


def run_experiment(
    name: str,
    quick: bool = False,
    jobs: int = 1,
    scale: bool = False,
    report_out: Optional[str] = None,
) -> ExperimentRun:
    """The one driver: look ``name`` up in the table, pick the grid,
    fan out, verify, render."""
    from repro.experiments.registry import EXPERIMENTS  # it imports us

    experiment = EXPERIMENTS[name]
    if quick:
        grid = experiment.quick
    elif scale and experiment.scale is not None:
        grid = experiment.scale
    else:
        grid = experiment.full
    results = run_grid(experiment, grid, jobs=jobs)
    merged = verify(experiment, results)
    text = experiment.render(results)
    if report_out and experiment.report is not None:
        with open(report_out, "w") as stream:
            stream.write(experiment.report(results))
        text += f"\n\nwrote the full health/SLO report to {report_out}"
    return ExperimentRun(name, results, merged, text)
