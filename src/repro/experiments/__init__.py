"""Experiment harness: regenerate every table and figure of the paper.

One driver module per evaluation artefact:

* :mod:`repro.experiments.table1` — per-stage deployment overheads for
  Wien2k / Invmod / Counter via Expect vs JavaCoG;
* :mod:`repro.experiments.fig10` — registry-vs-index throughput under
  concurrent clients, with and without transport security;
* :mod:`repro.experiments.fig11` — throughput as the number of
  registered activity types grows (index decay + overload collapse);
* :mod:`repro.experiments.fig12` — deployment-list response time with
  cache on one site and without cache on 1/3/7 sites;
* :mod:`repro.experiments.fig13` — 1-minute load average under
  concurrent requesters and notification sinks.

Beyond the paper, one driver per plane grown on top of it:

* :mod:`repro.experiments.fig14` — resolution messages vs VO size,
  broadcast baseline against the scaled walk (digests, singleflight,
  batched revalidation);
* :mod:`repro.experiments.fig15` — bulk rollout time, serial
  origin-only against parallel + replica-aware transfers;
* :mod:`repro.experiments.fig16` — request success under super-peer
  churn, fragile against resilient, plus the health/SLO judgements;
* :mod:`repro.experiments.fig17` — registry lookup cost and routing
  messages, flat dict against consistent-hash shards;
* :mod:`repro.experiments.fig18` — open-loop overload sweep, flash
  crowd and provisioning wave;
* :mod:`repro.experiments.fig19` — desired-state orchestration under a
  flash crowd, orchestrated against static.

Each driver returns plain data structures and has a ``format_*``
companion that renders the same rows/series the paper reports; the
``benchmarks/`` directory wires the paper's into pytest-benchmark,
``repro.cli.COMMANDS`` is the one table of all of them, and
EXPERIMENTS.md records paper-vs-measured values.
"""

from repro.experiments.report import Table, format_series, format_table
from repro.experiments.table1 import Table1Row, format_table1, run_table1
from repro.experiments.fig10 import Fig10Point, format_fig10, run_fig10
from repro.experiments.fig11 import Fig11Point, format_fig11, run_fig11
from repro.experiments.fig12 import Fig12Point, format_fig12, run_fig12
from repro.experiments.fig13 import Fig13Point, format_fig13, run_fig13

__all__ = [
    "Fig10Point",
    "Fig11Point",
    "Fig12Point",
    "Fig13Point",
    "Table",
    "Table1Row",
    "format_fig10",
    "format_fig11",
    "format_fig12",
    "format_fig13",
    "format_series",
    "format_table",
    "format_table1",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_table1",
]
