"""Experiment harness: regenerate every table and figure of the paper,
one figure per plane grown on top of it, and the ablation and
calibration-sensitivity claims of DESIGN.md.

Each artefact module pairs its point functions (plain data structures
in, a ``format_*`` companion rendering the rows/series the paper
reports) with one :class:`~repro.experiments.harness.Experiment`
declaration; :data:`repro.experiments.registry.EXPERIMENTS` is the one
table of all of them (``repro --help`` prints it, one summary line
each) — the CLI, ``repro all``, ``repro report experiments`` and CI
read it, and :func:`~repro.experiments.harness.run_experiment` is the
only driver.  EXPERIMENTS.md records paper-vs-measured values and the
contract for adding an entry.

Importing this package stays cheap (the table helpers of
:mod:`~repro.experiments.report` are used by the observability
renderers); the table — and with it every figure module — loads with
:mod:`~repro.experiments.registry`.
"""

from repro.experiments.report import Table, format_series, format_table

__all__ = ["Table", "format_series", "format_table"]
