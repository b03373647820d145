"""Command-line runner for the reproduction experiments.

Usage::

    python -m repro EXPERIMENT [--quick] [--jobs N]
    python -m repro fig14 [--quick] [--scale]
    python -m repro fig16 [--quick] [--report-out FILE]
    python -m repro all [--quick] [--jobs N]
    python -m repro trace [deploy|lookup|election|churn] [--chrome-out FILE]
                          [--jsonl-out FILE]
    python -m repro metrics [SCENARIO] [--format text|json|csv]
    python -m repro health  [SCENARIO] [--format text|json|csv]
    python -m repro slo     [SCENARIO]
    python -m repro analyze [SCENARIO] [--top N]
    python -m repro report  [SCENARIO|experiments]

``EXPERIMENT`` is any entry of ``repro.experiments.registry.EXPERIMENTS`` —
the one table every shipped artefact (``table1``, ``fig10`` … ``fig19``,
``ablation``, ``sensitivity``) is declared in; ``--help`` lists them with
their one-line summaries and ``all`` runs them in table order.  Each rebuilds the corresponding
table/figure on the simulated Grid and prints the rows/series;
``--quick`` selects the entry's small grid (fewer points / shorter
horizons) for a fast sanity pass, ``--jobs N`` fans its work units over
N processes.  :data:`COMMANDS` is that table plus ``all`` plus the
observability views below; ``main`` looks the command up and calls it,
nothing else.

``trace`` runs a representative scenario on an observability-enabled VO
and prints every captured trace as an indented span tree (optionally
exporting Chrome trace-event JSON / JSONL — gauge series ride along as
counter events); ``metrics`` prints the counters, latency histograms
and sampled gauge series.  The health/SLO plane has its own views, each
reading the run's journal (``sim.journal``): ``health`` prints
node/service states and the health transitions, ``slo`` prints the
error-budget table, the burn-rate alerts and the crash-detection
timeline, ``analyze`` prints trace critical paths / self-time
breakdowns / slowest-trace waterfalls, and ``report`` prints the
unified run report (health, SLO, crash detection, metrics and trace
analytics for one scenario).  Scenario
defaults: ``churn`` for health/slo (it is the only one with faults),
``deploy`` otherwise.  ``report experiments`` instead renders the
aggregate *experiment* report: every shipped table/figure section in
one document (honours ``--quick`` and ``--jobs``).
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


def _view_trace(scenario: str, args: argparse.Namespace) -> str:
    from repro.obs.export import export_chrome, export_jsonl, format_trace_tree

    vo = run_scenario(scenario)
    tracer = vo.obs.tracer
    sections = []
    for trace_id, spans in sorted(tracer.traces().items()):
        sections.append(format_trace_tree(
            spans, title=f"trace {trace_id} ({len(spans)} spans)"
        ))
    if not sections:
        sections.append("(no spans captured)")
    if args.chrome_out:
        with open(args.chrome_out, "w") as stream:
            events = export_chrome(tracer.spans, stream,
                                   registry=vo.obs.metrics)
        sections.append(
            f"wrote {events} Chrome trace events to {args.chrome_out}")
    if args.jsonl_out:
        with open(args.jsonl_out, "w") as stream:
            written = export_jsonl(tracer.spans, stream)
        sections.append(f"wrote {written} spans to {args.jsonl_out}")
    return "\n\n".join(sections)


def _view_metrics(scenario: str, args: argparse.Namespace) -> str:
    import json as _json

    from repro.obs.export import metrics_to_csv, metrics_to_dict, render_metrics
    from repro.stats import collect_metrics

    vo = run_scenario(scenario)
    if args.format == "json":
        return _json.dumps(metrics_to_dict(vo.obs.metrics), indent=2,
                           sort_keys=True)
    if args.format == "csv":
        return metrics_to_csv(vo.obs.metrics).rstrip("\n")
    return render_metrics(vo.obs.metrics) + "\n\n" + collect_metrics(vo).render()


def _view_health(scenario: str, args: argparse.Namespace) -> str:
    import json as _json

    from repro.obs.export import health_to_csv, health_to_dict, render_health

    vo = run_scenario(scenario)
    health = vo.obs.health
    if health is None:
        return "(health registry disabled for this scenario)"
    if args.format == "json":
        return _json.dumps(health_to_dict(health), indent=2, sort_keys=True)
    if args.format == "csv":
        return health_to_csv(health).rstrip("\n")
    return render_health(health)


def _view_slo(scenario: str, args: argparse.Namespace) -> str:
    from repro.obs.export import render_alerts, render_detection, render_slo

    vo = run_scenario(scenario)
    engine = vo.obs.slo
    if engine is None:
        return "(no SLOs configured for this scenario)"
    sections = [render_slo(engine), render_alerts(engine),
                render_detection(vo.sim.journal)]
    return "\n\n".join(filter(None, sections))


def _view_analyze(scenario: str, args: argparse.Namespace) -> str:
    from repro.obs.analyze import format_trace_analytics

    vo = run_scenario(scenario)
    return format_trace_analytics(vo.obs.tracer.traces(), top=args.top)


def _view_report(scenario: str, args: argparse.Namespace) -> str:
    if scenario == "experiments":
        return render_experiment_report(quick=args.quick, jobs=args.jobs)
    from repro.obs.export import render_run_report

    return render_run_report(run_scenario(scenario), top=args.top)


def _view(render: Callable[[str, argparse.Namespace], str],
          default_scenario: str) -> Callable[[argparse.Namespace], None]:
    """An observability command: ``render`` over the chosen scenario."""
    return lambda args: print(render(args.scenario or default_scenario, args))


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
#: and the observability views with the scenario each defaults to (the
#: health/SLO views need the only scenario that injects faults)
COMMANDS: Dict[str, Callable[[argparse.Namespace], None]] = {
    **{name: _experiments(name) for name in EXPERIMENTS},
    "all": _experiments(*EXPERIMENTS),
    "trace": _view(_view_trace, "deploy"),
    "metrics": _view(_view_metrics, "deploy"),
    "health": _view(_view_health, "churn"),
    "slo": _view(_view_slo, "churn"),
    "analyze": _view(_view_analyze, "deploy"),
    "report": _view(_view_report, "churn"),
}


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
             "one, in table order), or an observability view (trace/"
             "metrics/health/slo/analyze/report) over a canned scenario",
    )
    parser.add_argument(
        "scenario", nargs="?", default=None,
        choices=list(SCENARIOS) + ["experiments"],
        help="scenario for the observability subcommands (default: "
             "churn for health/slo/report, deploy otherwise); 'report "
             "experiments' renders the aggregate experiment report",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink sweeps for a fast sanity pass",
    )
    parser.add_argument(
        "--chrome-out", metavar="FILE", default=None,
        help="trace only: also write Chrome trace-event JSON with gauge "
             "counter tracks (load in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--jsonl-out", metavar="FILE", default=None,
        help="trace only: also write one JSON object per span",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="metrics/health only: output format (default: text)",
    )
    parser.add_argument(
        "--top", type=int, default=3, metavar="N",
        help="analyze/report only: how many slowest traces to break down",
    )
    parser.add_argument(
        "--report-out", metavar="FILE", default=None,
        help="fig16 (alone or within 'all'): write the rendered "
             "health/SLO extension report to FILE",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan each experiment's work units (sweep points, A/B "
             "series, same-seed repeats) across N worker processes; "
             "results are byte-identical to a serial run",
    )
    parser.add_argument(
        "--scale", action="store_true",
        help="fig14 only: add the 4096-site point with the sampled "
             "(extrapolated) broadcast baseline — see EXPERIMENTS.md",
    )
    parser.add_argument(
        "--error-out", metavar="FILE", default="repro-error.json",
        help="where to write the full failure report when a sweep work "
             "unit dies (the terminal shows a truncated traceback)",
    )
    args = parser.parse_args(argv)
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
