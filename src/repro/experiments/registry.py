"""The one table of shipped artefacts (see :mod:`repro.experiments`)."""

from typing import Dict

from repro.experiments import (
    ablation,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    fig19,
    sensitivity,
    table1,
)
from repro.experiments.harness import Experiment

#: every shipped artefact, in presentation order
EXPERIMENTS: Dict[str, Experiment] = {
    module.EXPERIMENT.name: module.EXPERIMENT
    for module in (table1, fig10, fig11, fig12, fig13, fig14, fig15,
                   fig16, fig17, fig18, fig19, ablation, sensitivity)
}
