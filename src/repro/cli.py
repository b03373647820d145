"""Command-line runner for the reproduction experiments.

Usage::

    python -m repro EXPERIMENT [--quick] [--jobs N]
    python -m repro fig14 [--quick | --scale]
    python -m repro fig16 [--quick] [--report-out FILE]
    python -m repro all [--quick] [--jobs N]
    python -m repro report [SCENARIO] [--format text|json] [--top N]
                           [--chrome-out FILE] [--jsonl-out FILE]
    python -m repro report experiments [--quick] [--jobs N]

``EXPERIMENT`` is any entry of ``repro.experiments.registry.EXPERIMENTS`` —
the one table every shipped artefact (``table1``, ``fig10`` … ``fig19``,
``ablation``, ``sensitivity``) is declared in; ``--help`` lists them with
their one-line summaries and ``all`` runs them in table order.  Each rebuilds the corresponding
table/figure on the simulated Grid and prints the rows/series;
``--quick`` selects the entry's small grid (fewer points / shorter
horizons) for a fast sanity pass, ``--jobs N`` fans its work units over
N processes.  :data:`COMMANDS` is that table plus ``all`` plus
``report``; ``main`` looks the command up and calls it, nothing else.

``report SCENARIO`` is the one observability command.  It runs a canned
scenario (default ``churn``, the only one with faults) on an
observability-enabled VO and prints the run report: health, SLO budgets,
burn-rate alerts, crash detection, metrics and trace analytics for the
``--top`` slowest traces.  ``--format json`` prints the same sections as
one record instead, plus the :mod:`repro.stats` snapshot;
``--chrome-out`` / ``--jsonl-out`` also write every span as Chrome
trace-event JSON (gauge series ride along as counter events) / one JSON
object per line.  ``report experiments`` instead renders the aggregate
*experiment* report: every shipped table/figure section in one document
(honours ``--quick`` and ``--jobs``).  The scenario and the four report
options are refused, with exit status 2, anywhere else; so are
``--scale`` and ``--report-out`` unless a selected experiment declares
them (``Experiment.scale`` / ``Experiment.report``), and ``--scale``
with ``--quick``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.experiments.harness import run_experiment
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import banner, render_experiment_report
from repro.obs.scenarios import SCENARIOS, run_scenario
from repro.runner import WorkerError

#: the options only ``report SCENARIO`` reads, flag -> attribute
_REPORT_OPTIONS = {"--format": "format", "--top": "top",
                   "--chrome-out": "chrome_out", "--jsonl-out": "jsonl_out"}

#: the options only an experiment declaring them reads, flag ->
#: (attribute, the :class:`Experiment` field that declares it)
_EXPERIMENT_OPTIONS = {"--scale": ("scale", "scale"),
                       "--report-out": ("report_out", "report")}


def _declaring(declaration: str) -> List[str]:
    """The experiments that set ``declaration``, in table order."""
    return [name for name, experiment in EXPERIMENTS.items()
            if getattr(experiment, declaration) is not None]


def _report(args: argparse.Namespace) -> None:
    if args.scenario == "experiments":
        print(render_experiment_report(quick=args.quick, jobs=args.jobs))
        return
    import json

    from repro.obs.export import (
        export_chrome,
        export_jsonl,
        render_run_report,
        run_record,
    )

    vo = run_scenario(args.scenario or "churn")
    top = 3 if args.top is None else args.top
    if args.format == "json":
        print(json.dumps(run_record(vo, top=top), indent=2, sort_keys=True))
    else:
        print(render_run_report(vo, top=top))
    spans = vo.obs.tracer.spans
    if args.chrome_out:
        with open(args.chrome_out, "w") as stream:
            events = export_chrome(spans, stream, registry=vo.obs.metrics)
        print(f"wrote {events} Chrome trace events to {args.chrome_out}",
              file=sys.stderr)
    if args.jsonl_out:
        with open(args.jsonl_out, "w") as stream:
            written = export_jsonl(spans, stream)
        print(f"wrote {written} spans to {args.jsonl_out}", file=sys.stderr)


def _experiments(*names: str) -> Callable[[argparse.Namespace], None]:
    """An experiment command: run and print ``names``, one timed
    section each."""
    def run(args: argparse.Namespace) -> None:
        for name in names:
            started = time.time()
            print(banner(name))
            print(run_experiment(name, quick=args.quick, jobs=args.jobs,
                                 scale=args.scale,
                                 report_out=args.report_out).text)
            print(f"--- {name} done in {time.time() - started:.1f}s\n")

    return run


#: every command, by name: one per :data:`EXPERIMENTS` entry, ``all``,
#: and ``report``, the one observability command
COMMANDS: Dict[str, Callable[[argparse.Namespace], None]] = {
    **{name: _experiments(name) for name in EXPERIMENTS},
    "all": _experiments(*EXPERIMENTS),
    "report": _report,
}


def _count(text: str) -> int:
    """``--top``'s type: a whole number, never negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the GLARE paper's tables and figures "
                    "on the simulated Grid.",
        epilog="experiments:\n" + "\n".join(
            f"  {name:<{max(map(len, EXPERIMENTS))}} {experiment.summary}"
            for name, experiment in EXPERIMENTS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        choices=list(COMMANDS),
        help="which evaluation artefact to regenerate ('all': every "
             "one, in table order), or 'report' over a canned scenario",
    )
    parser.add_argument(
        "scenario", nargs="?", default=None,
        choices=list(SCENARIOS) + ["experiments"],
        help="report only: the scenario to run and report (default: "
             "churn); 'experiments' renders the aggregate experiment "
             "report",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink sweeps for a fast sanity pass",
    )
    parser.add_argument(
        "--chrome-out", metavar="FILE", default=None,
        help="report SCENARIO only: also write Chrome trace-event JSON "
             "with gauge counter tracks (load in chrome://tracing or "
             "ui.perfetto.dev)",
    )
    parser.add_argument(
        "--jsonl-out", metavar="FILE", default=None,
        help="report SCENARIO only: also write one JSON object per span",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default=None,
        help="report SCENARIO only: the report as text (default) or as "
             "one JSON record",
    )
    parser.add_argument(
        "--top", type=_count, default=None, metavar="N",
        help="report SCENARIO only: how many slowest traces to break "
             "down (default: 3)",
    )
    parser.add_argument(
        "--report-out", metavar="FILE", default=None,
        help=f"{', '.join(_declaring('report'))} (alone or within 'all'): "
             "write the experiment's full report to FILE",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan each experiment's work units (sweep points, A/B "
             "series, same-seed repeats) across N worker processes; "
             "results are byte-identical to a serial run",
    )
    parser.add_argument(
        "--scale", action="store_true",
        help=f"{', '.join(_declaring('scale'))} (alone or within 'all'), "
             "not with --quick: run the experiment's scale grid in place "
             "of its full one — see EXPERIMENTS.md",
    )
    parser.add_argument(
        "--error-out", metavar="FILE", default="repro-error.json",
        help="where to write the full failure report when a sweep work "
             "unit dies (the terminal shows a truncated traceback)",
    )
    args = parser.parse_args(argv)
    if args.experiment != "report" and args.scenario is not None:
        parser.error(f"scenario {args.scenario!r} applies only to 'report'")
    if args.experiment != "report" or args.scenario == "experiments":
        for flag, attribute in _REPORT_OPTIONS.items():
            if getattr(args, attribute) is not None:
                parser.error(f"{flag} applies only to 'report SCENARIO'")
    selected = set(EXPERIMENTS) if args.experiment == "all" else {args.experiment}
    for flag, (attribute, declaration) in _EXPERIMENT_OPTIONS.items():
        declaring = _declaring(declaration)
        if getattr(args, attribute) and not selected & set(declaring):
            parser.error(f"{flag} applies only to {', '.join(declaring)} "
                         "(alone or within 'all')")
    if args.scale and args.quick:
        parser.error("--scale and --quick exclude each other")
    try:
        COMMANDS[args.experiment](args)
    except WorkerError as error:
        _report_worker_error(error, args.error_out)
        return 1
    return 0


def _report_worker_error(error: "WorkerError", error_out: str) -> None:
    """Truncated traceback to the terminal, full text to the artifact.

    Sweep failures arrive through many layers of runner/simulator
    plumbing; the terminal shows the innermost 20 frames, and the JSON
    artifact keeps the complete report for CI upload / later digging.
    """
    import json as _json

    from repro.runner import truncate_traceback

    full = str(error)
    print(truncate_traceback(full, max_frames=20), file=sys.stderr)
    try:
        with open(error_out, "w") as stream:
            _json.dump({"error": "WorkerError", "detail": full}, stream,
                       indent=2)
        print(f"(full failure report written to {error_out})",
              file=sys.stderr)
    except OSError as write_error:  # pragma: no cover - fs permissions
        print(f"(could not write {error_out}: {write_error})",
              file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
