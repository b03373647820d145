"""Table 1: time spent in different operations of on-demand deployment.

For each application (Wien2k, Invmod, Counter) and each deployment
method (Expect, Java CoG), a fresh VO is built, the activity type is
registered through one site's local GLARE service, and a client on a
*different* site requests deployments — triggering the full on-demand
pipeline.  The per-stage timings come out of the installation report:

=================================  =======================================
Paper row                          Measured as
=================================  =======================================
Activity Type Addition             duration of the ``register_type`` call
Communication Overhead             download/transfer time in the report
Activity Installation/Deployment   expand+configure+make time in the report
Activity Deployment Registration   ADR registration time in the report
Notification                       admin-notification cost
Expect/JavaCoG Overhead            handler session overhead in the report
Total overhead for meta-scheduler  sum of the rows
=================================  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Sequence

from repro.apps import TABLE1_APPLICATIONS, get_application, publish_applications
from repro.experiments.harness import Experiment, Results
from repro.experiments.report import format_table
from repro.glare.provisioning import NOTIFICATION_COST
from repro.runner import WorkUnit
from repro.vo import build_vo

STAGES = (
    "Activity Type Addition",
    "Communication Overhead",
    "Activity Installation/Deployment",
    "Activity Deployment Registration",
    "Notification",
    "Handler Overhead",
    "Total overhead for meta-scheduler",
)


@dataclass
class Table1Row:
    """One (method, application) measurement, all values in ms."""

    method: str
    application: str
    type_addition_ms: float
    communication_ms: float
    installation_ms: float
    registration_ms: float
    notification_ms: float
    handler_overhead_ms: float

    @property
    def total_ms(self) -> float:
        return (
            self.type_addition_ms
            + self.communication_ms
            + self.installation_ms
            + self.registration_ms
            + self.notification_ms
            + self.handler_overhead_ms
        )

    def stage_values(self) -> List[float]:
        return [
            self.type_addition_ms,
            self.communication_ms,
            self.installation_ms,
            self.registration_ms,
            self.notification_ms,
            self.handler_overhead_ms,
            self.total_ms,
        ]


def run_table1_row(application: str, handler: str, seed: int = 1) -> Table1Row:
    """Deploy ``application`` once through ``handler`` (on a fresh VO)
    and time the stages."""
    vo = build_vo(n_sites=4, seed=seed, handler=handler, monitors=False)
    publish_applications(vo, [application])
    vo.form_overlay()
    spec = get_application(application)

    def register() -> Generator:
        start = vo.sim.now
        yield from vo.client_call("agrid01", "register_type",
                                  payload={"xml": spec.type_xml})
        return vo.sim.now - start

    type_addition = vo.run_process(register())

    def deploy() -> Generator:
        # the client explicitly drives the target-side deploy operation
        # so the report (with its stage timings) comes back directly
        result = yield from vo.network.call(
            "agrid02", "agrid03", "glare-rdm", "deploy",
            payload={"type_xml": spec.type_xml, "requester": "agrid02",
                     "handler": handler},
        )
        return result

    result = vo.run_process(deploy())
    if not result["success"]:
        raise RuntimeError(f"deployment failed: {result['error']}")
    report = result["report"]
    return Table1Row(
        method=handler,
        application=application,
        type_addition_ms=type_addition * 1000.0,
        communication_ms=report["communication_time"] * 1000.0,
        installation_ms=report["installation_time"] * 1000.0,
        registration_ms=report["registration_time"] * 1000.0,
        notification_ms=NOTIFICATION_COST * 1000.0,
        handler_overhead_ms=report["handler_overhead"] * 1000.0,
    )


def format_table1(rows: List[Table1Row]) -> str:
    """Render in the paper's layout: stages as rows, apps as columns."""
    methods: Dict[str, List[Table1Row]] = {}
    for row in rows:
        methods.setdefault(row.method, []).append(row)
    blocks = []
    for method, method_rows in methods.items():
        apps = [r.application for r in method_rows]
        headers = ["Operation/Overhead (ms)"] + apps
        table_rows = []
        for stage_index, stage in enumerate(STAGES):
            cells = [stage] + [
                round(r.stage_values()[stage_index]) for r in method_rows
            ]
            table_rows.append(cells)
        blocks.append(
            format_table(headers, table_rows,
                         title=f"Deployment method: {method}")
        )
    return "\n\n".join(blocks)


def _units(applications: Sequence[str]) -> List[WorkUnit]:
    return [
        WorkUnit(f"table1:{handler}:{application}",
                 "repro.experiments.table1:run_table1_row",
                 {"application": application, "handler": handler})
        for handler in ("expect", "javacog")
        for application in applications
    ]


#: the paper's "Total overhead for meta-scheduler" row, in ms
PAPER_TOTALS_MS = {
    ("expect", "Wien2k"): 11068,
    ("expect", "Invmod"): 30484,
    ("expect", "Counter"): 32484,
    ("javacog", "Wien2k"): 25001,
    ("javacog", "Invmod"): 53527,
    ("javacog", "Counter"): 43518,
}


def _check(results: Results) -> None:
    """Paper Table 1's shape: Expect beats JavaCoG on every total, the
    installation dominates a source build (Invmod), and every total is
    within 2x of the paper's number."""
    rows = {(r.method, r.application): r for r in results.values()}
    for (method, application), row in rows.items():
        other = rows.get(("javacog", application))
        if method == "expect" and other is not None:
            assert row.total_ms < other.total_ms, (
                f"table1: Expect does not beat JavaCoG on {application}")
        if application == "Invmod":
            assert row.installation_ms > 0.5 * row.total_ms, (
                f"table1: installation does not dominate Invmod/{method}")
        paper_ms = PAPER_TOTALS_MS[(method, application)]
        assert paper_ms / 2 < row.total_ms < paper_ms * 2, (
            f"table1: {method}/{application} total {row.total_ms:.0f} ms is "
            f"not within 2x of the paper's {paper_ms} ms")


EXPERIMENT = Experiment(
    name="table1",
    summary="per-stage on-demand deployment overheads, Expect vs JavaCoG",
    quick=("Wien2k",),
    full=TABLE1_APPLICATIONS,
    units=_units,
    render=lambda results: format_table1(list(results.values())),
    check=_check,
)
