"""Command-line runner for the reproduction experiments.

Usage::

    python -m repro table1
    python -m repro fig10 [--quick]
    python -m repro fig11 [--quick]
    python -m repro fig12
    python -m repro fig13 [--quick]
    python -m repro fig14 [--quick] [--scale]
    python -m repro fig15 [--quick]
    python -m repro fig16 [--quick] [--report-out FILE]
    python -m repro fig17 [--quick]
    python -m repro fig18 [--quick]
    python -m repro fig19 [--quick]
    python -m repro all [--quick]
    python -m repro trace [deploy|lookup|election|churn] [--chrome-out FILE]
                          [--jsonl-out FILE]
    python -m repro metrics [SCENARIO] [--format text|json|csv]
    python -m repro health  [SCENARIO] [--format text|json|csv]
    python -m repro slo     [SCENARIO]
    python -m repro analyze [SCENARIO] [--top N]
    python -m repro report  [SCENARIO|experiments]

Each experiment command rebuilds the corresponding table/figure of the
paper on the simulated Grid and prints the rows/series.  ``--quick``
shrinks the sweeps (fewer points / smaller horizons) for a fast sanity
pass.

``trace`` runs a representative scenario on an observability-enabled VO
and prints every captured trace as an indented span tree (optionally
exporting Chrome trace-event JSON / JSONL — gauge series ride along as
counter events); ``metrics`` prints the counters, latency histograms
and sampled gauge series.  The health/SLO plane has its own views:
``health`` prints node/service states and the transition log, ``slo``
prints the error-budget table, burn-rate alert log and crash-detection
timeline, ``analyze`` prints trace critical paths / self-time
breakdowns / slowest-trace waterfalls, and ``report`` prints the
unified run report (all of the above for one scenario).  Scenario
defaults: ``churn`` for health/slo (it is the only one with faults),
``deploy`` otherwise.  ``report experiments`` instead renders the
aggregate *experiment* report: every shipped table/figure section in
one document (honours ``--quick`` and ``--jobs``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.runner import WorkerError  # stdlib-only import, safe for --help


def _run_table1(quick: bool, jobs: int = 1, **_extras) -> str:
    from repro.experiments.table1 import format_table1, run_table1

    apps = ("Wien2k",) if quick else ("Wien2k", "Invmod", "Counter")
    return format_table1(run_table1(applications=apps))


def _run_fig10(quick: bool, jobs: int = 1, **_extras) -> str:
    from repro.experiments.fig10 import format_fig10, run_fig10

    clients = (1, 4, 16) if quick else (1, 2, 4, 6, 8, 10, 12, 14, 16)
    return format_fig10(run_fig10(client_counts=clients))


def _run_fig11(quick: bool, jobs: int = 1, **_extras) -> str:
    from repro.experiments.fig11 import (
        format_fig11,
        run_collapse_probe,
        run_fig11,
    )

    sizes = (10, 100, 150) if quick else (10, 25, 50, 75, 100, 130, 150, 175, 200)
    text = format_fig11(run_fig11(sizes=sizes, include_https=not quick))
    probe = run_collapse_probe()
    text += (
        f"\n\nCollapse probe ({probe.resources} resources, {probe.clients} "
        f"clients): index throughput = {probe.throughput:.2f} req/s"
    )
    return text


def _run_fig12(quick: bool, jobs: int = 1, **_extras) -> str:
    from repro.experiments.fig12 import format_fig12, run_fig12

    return format_fig12(run_fig12())


def _run_fig14(quick: bool, jobs: int = 1, scale: bool = False,
               **_extras) -> str:
    from repro.experiments.fig14 import (
        format_fig14,
        run_fig14,
        run_revalidation_point,
    )

    # The 1024-site point is the scale ceiling for the exact broadcast
    # baseline: gated out of --quick (it alone costs ~10x the 256-site
    # point).  --scale adds the 4096-site point, whose baseline is
    # *sampled* (measured on a site subset, O(n^2) extrapolated) — see
    # EXPERIMENTS.md for the deviation.
    sizes = (16, 64) if quick else (16, 64, 128, 256, 1024)
    if scale and not quick:
        sizes = sizes + (4096,)
    return format_fig14(run_fig14(sizes=sizes, jobs=jobs),
                        revalidation=run_revalidation_point())


def _run_fig13(quick: bool, jobs: int = 1, **_extras) -> str:
    from repro.experiments.fig13 import format_fig13, run_fig13

    counts = (0, 120, 210) if quick else (0, 30, 60, 90, 120, 150, 180, 210)
    rates = (1.0, 5.0) if quick else (1.0, 5.0, 10.0)
    return format_fig13(run_fig13(requester_counts=counts,
                                  sink_counts=counts, rates=rates))


def _run_fig15(quick: bool, jobs: int = 1, **_extras) -> str:
    from repro.experiments.fig15 import format_fig15, run_fig15

    sizes = (8, 16) if quick else (8, 16, 32, 64)
    return format_fig15(run_fig15(sizes=sizes, jobs=jobs))


def _run_fig16(quick: bool, jobs: int = 1,
               report_out: Optional[str] = None, **_extras) -> str:
    from repro.experiments.fig16 import (
        format_fig16,
        format_fig16_slo,
        run_fig16,
        run_fig16_slo,
    )

    text = format_fig16(run_fig16(quick=quick, jobs=jobs))
    fragile, resilient = run_fig16_slo(quick=quick)
    slo_text = format_fig16_slo(fragile, resilient)
    if report_out:
        with open(report_out, "w") as stream:
            stream.write(slo_text + "\n\n" + fragile.report
                         + "\n\n" + resilient.report + "\n")
        slo_text += f"\n\nwrote the full health/SLO report to {report_out}"
    return text + "\n\n" + slo_text


def _run_fig17(quick: bool, jobs: int = 1, **_extras) -> str:
    from repro.experiments.fig17 import format_fig17, run_fig17

    # quick sweeps the storage backends to 10^5 types; the full run
    # adds the 10^6 point and the 16/64-group routing cells
    return format_fig17(run_fig17(quick=quick, jobs=jobs))


def _run_fig18(quick: bool, jobs: int = 1, **_extras) -> str:
    from repro.experiments.fig18 import format_fig18, run_fig18

    # open-loop overload sweep + flash crowd + mass-provisioning wave;
    # the sweep points, flash and wave scenarios fan out across workers
    return format_fig18(run_fig18(quick=quick, jobs=jobs))


def _run_fig19(quick: bool, jobs: int = 1, **_extras) -> str:
    from repro.experiments.fig19 import format_fig19, run_fig19

    # desired-state orchestration under a 100x flash crowd: the
    # orchestrated / static / repeat series fan out across workers
    return format_fig19(run_fig19(quick=quick, jobs=jobs))


COMMANDS = {
    "table1": _run_table1,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "fig12": _run_fig12,
    "fig13": _run_fig13,
    "fig14": _run_fig14,
    "fig15": _run_fig15,
    "fig16": _run_fig16,
    "fig17": _run_fig17,
    "fig18": _run_fig18,
    "fig19": _run_fig19,
}


def _run_command(name: str, quick: bool, jobs: int = 1, **extras) -> str:
    """One experiment command, by name — the single dispatch.

    Every ``_run_*`` shares the ``(quick, jobs=1, **extras)`` call
    shape and picks the extras it understands (``scale`` for fig14,
    ``report_out`` for fig16), so the serial loop, ``repro all --jobs``
    work units (module-level, hence shippable to a worker) and the
    aggregate report all come through here.
    """
    return COMMANDS[name](quick, jobs=jobs, **extras)


#: scenario names accepted by the observability subcommands (mirrors
#: repro.obs.scenarios.SCENARIOS; kept literal so --help never imports
#: the VO machinery)
SCENARIO_NAMES = ("deploy", "lookup", "election", "churn")

#: observability subcommands and the scenario each defaults to (the
#: health/SLO views need the only scenario that injects faults)
OBS_COMMANDS = {
    "trace": "deploy",
    "metrics": "deploy",
    "health": "churn",
    "slo": "churn",
    "analyze": "deploy",
    "report": "churn",
}


def _run_trace(scenario: str, chrome_out: Optional[str],
               jsonl_out: Optional[str]) -> str:
    from repro.obs.export import export_chrome, export_jsonl, format_trace_tree
    from repro.obs.scenarios import run_scenario

    vo = run_scenario(scenario)
    tracer = vo.obs.tracer
    sections = []
    for trace_id, spans in sorted(tracer.traces().items()):
        sections.append(format_trace_tree(
            spans, title=f"trace {trace_id} ({len(spans)} spans)"
        ))
    if not sections:
        sections.append("(no spans captured)")
    if chrome_out:
        with open(chrome_out, "w") as stream:
            events = export_chrome(tracer.spans, stream,
                                   registry=vo.obs.metrics)
        sections.append(f"wrote {events} Chrome trace events to {chrome_out}")
    if jsonl_out:
        with open(jsonl_out, "w") as stream:
            written = export_jsonl(tracer.spans, stream)
        sections.append(f"wrote {written} spans to {jsonl_out}")
    return "\n\n".join(sections)


def _run_metrics(scenario: str, fmt: str = "text") -> str:
    import json as _json

    from repro.obs.export import metrics_to_csv, metrics_to_dict, render_metrics
    from repro.obs.scenarios import run_scenario
    from repro.stats import collect_metrics

    vo = run_scenario(scenario)
    if fmt == "json":
        return _json.dumps(metrics_to_dict(vo.obs.metrics), indent=2,
                           sort_keys=True)
    if fmt == "csv":
        return metrics_to_csv(vo.obs.metrics).rstrip("\n")
    return render_metrics(vo.obs.metrics) + "\n\n" + collect_metrics(vo).render()


def _run_health(scenario: str, fmt: str = "text") -> str:
    import json as _json

    from repro.obs.export import health_to_csv, health_to_dict, render_health
    from repro.obs.scenarios import run_scenario

    vo = run_scenario(scenario)
    health = vo.obs.health
    if health is None:
        return "(health registry disabled for this scenario)"
    if fmt == "json":
        return _json.dumps(health_to_dict(health), indent=2, sort_keys=True)
    if fmt == "csv":
        return health_to_csv(health).rstrip("\n")
    return render_health(health)


def _run_slo(scenario: str) -> str:
    from repro.obs.export import render_alerts, render_slo
    from repro.obs.health import detection_timeline
    from repro.obs.scenarios import run_scenario

    vo = run_scenario(scenario)
    engine = vo.obs.slo
    if engine is None:
        return "(no SLOs configured for this scenario)"
    sections = [render_slo(engine), render_alerts(engine)]
    crashes = [e for e in vo.faults.events if e.get("kind") == "crash"]
    if crashes:
        lines = ["Crash detection"]
        for rec in detection_timeline(vo.faults.events, engine.alert_log):
            mttd = f"{rec.mttd:.2f}s" if rec.mttd is not None else "UNDETECTED"
            mttr = f"{rec.mttr:.2f}s" if rec.mttr is not None else "-"
            lines.append(f"  {rec.site} crashed t={rec.crash_at:.2f}s: "
                         f"detected in {mttd}, incident closed in {mttr}")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


def _run_analyze(scenario: str, top: int = 3) -> str:
    from repro.obs.analyze import format_trace_analytics
    from repro.obs.scenarios import run_scenario

    vo = run_scenario(scenario)
    return format_trace_analytics(vo.obs.tracer.traces(), top=top)


def _run_report(scenario: str, top: int = 3, quick: bool = False,
                jobs: int = 1) -> str:
    if scenario == "experiments":
        from repro.experiments.report import render_experiment_report

        return render_experiment_report(quick=quick, jobs=jobs)
    from repro.obs.export import render_run_report
    from repro.obs.scenarios import run_scenario

    return render_run_report(run_scenario(scenario), top=top)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the GLARE paper's tables and figures "
                    "on the simulated Grid.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS) + ["all"] + sorted(OBS_COMMANDS),
        help="which evaluation artefact to regenerate, or an "
             "observability view (trace/metrics/health/slo/analyze/"
             "report) over a canned scenario",
    )
    parser.add_argument(
        "scenario", nargs="?", default=None,
        choices=SCENARIO_NAMES + ("experiments",),
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
        help="fig16 only: write the rendered health/SLO extension "
             "report to FILE",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan independent work across N worker processes: whole "
             "experiments for 'all', sweep points for fig14/fig15/fig16/"
             "fig17/fig18/fig19 (results are byte-identical to a serial "
             "run)",
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

    if args.experiment in OBS_COMMANDS:
        scenario = args.scenario or OBS_COMMANDS[args.experiment]
        if args.experiment == "trace":
            print(_run_trace(scenario, args.chrome_out, args.jsonl_out))
        elif args.experiment == "metrics":
            print(_run_metrics(scenario, fmt=args.format))
        elif args.experiment == "health":
            print(_run_health(scenario, fmt=args.format))
        elif args.experiment == "slo":
            print(_run_slo(scenario))
        elif args.experiment == "analyze":
            print(_run_analyze(scenario, top=args.top))
        else:
            print(_run_report(scenario, top=args.top, quick=args.quick,
                              jobs=args.jobs))
        return 0

    names = sorted(COMMANDS) if args.experiment == "all" else [args.experiment]
    extras = {"scale": args.scale, "report_out": args.report_out}
    try:
        if args.experiment == "all" and args.jobs > 1:
            # fan whole experiments across workers (each serial inside:
            # nesting pools would oversubscribe the machine); print in
            # name order so the output is byte-identical to a serial
            # run (modulo timing)
            from repro.runner import WorkUnit, run_units

            started = time.time()
            units = [
                WorkUnit(
                    name=f"all:{name}",
                    fn="repro.cli:_run_command",
                    kwargs=dict(extras, name=name, quick=args.quick),
                )
                for name in names
            ]
            texts = run_units(units, jobs=args.jobs)
            for name, text in zip(names, texts):
                print(f"=== {name} " + "=" * (70 - len(name)))
                print(text)
                print()
            print(f"--- all done in {time.time() - started:.1f}s "
                  f"({args.jobs} workers)")
            return 0
        for name in names:
            started = time.time()
            print(f"=== {name} " + "=" * (70 - len(name)))
            print(_run_command(name, args.quick, jobs=args.jobs, **extras))
            print(f"--- {name} done in {time.time() - started:.1f}s\n")
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
