"""Sensitivity: the reproduced shapes are not calibration flukes.

The reproduction calibrates three constants — the XPath scan cost per
node visited, the index's heap budget, the TLS crypto CPU per call.
Each is swept across a 4x range around its paper-point value on
Fig. 10's world (:func:`repro.experiments.fig10.run_fig10_point`, one
work unit per measured point) and ``check`` asserts the *qualitative*
claims of Figs. 10/11 survive at every point:

* the registry beats the index, and the index decays with registry
  size, at every scan cost;
* the index collapses under more than 10 clients and a large registry
  for every heap budget — a bigger heap only moves the cliff;
* https costs the registry a large fraction of its throughput at every
  crypto cost.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.harness import Experiment, Results
from repro.runner import WorkUnit

SCAN_SERIES = (("registry", 100), ("index", 25), ("index", 100))
CLIENTS, COLLAPSE_CLIENTS = 8, 12
CRYPTO_TYPES = 50


def _collapse_size(budget: float) -> int:
    """A registry ~2.2x the budget / (12 clients x 14 nodes per
    document) product: past every swept budget's own cliff."""
    return int(budget / (COLLAPSE_CLIENTS * 14) * 2.2)


def _units(grid: Tuple[Sequence[float], ...]) -> List[WorkUnit]:
    """``grid``: scan costs (s/node), heap budgets (nodes), crypto costs
    (s/call); units are ``sensitivity:<sweep>:<swept value>:<series>``."""
    scan_costs, heap_budgets, crypto_costs = grid

    def unit(name: str, service: str, n_types: int, clients: int = CLIENTS,
             secure: bool = False, **calibration: float) -> WorkUnit:
        return WorkUnit(
            f"sensitivity:{name}", "repro.experiments.fig10:run_fig10_point",
            dict(service=service, secure=secure, clients=clients,
                 n_types=n_types, **calibration))

    units = [unit(f"scan:{cost:g}:{service}@{n_types}", service, n_types,
                  per_visit_cost=cost)
             for cost in scan_costs for service, n_types in SCAN_SERIES]
    units += [unit(f"heap:{budget:g}:index@{_collapse_size(budget)}", "index",
                   _collapse_size(budget), clients=COLLAPSE_CLIENTS,
                   heap_node_budget=budget)
              for budget in heap_budgets]
    units.append(unit("crypto:off:http", "registry", CRYPTO_TYPES))
    units += [unit(f"crypto:{cost:g}:https", "registry", CRYPTO_TYPES,
                   secure=True, cpu_fixed=cost)
              for cost in crypto_costs]
    return units


def _rows(results: Results, sweep: str) -> Dict[str, Dict[str, float]]:
    """One sweep's throughputs as ``{swept value: {series: req/s}}``."""
    rows: Dict[str, Dict[str, float]] = {}
    for name, point in results.items():
        _, unit_sweep, value, series = name.split(":")
        if unit_sweep == sweep:
            rows.setdefault(value, {})[series] = point.throughput
    return rows


def _tls_drops(results: Results) -> Dict[str, Tuple[float, float, float]]:
    """``{crypto cost: (plain req/s, https req/s, fraction lost)}``."""
    rows = _rows(results, "crypto")
    plain = rows.pop("off")["http"]
    return {cost: (plain, row["https"], 1 - row["https"] / plain)
            for cost, row in rows.items()}


def _render(results: Results) -> str:
    lines = ["Sensitivity — per-visit scan cost, s/node (req/s):"]
    for cost, row in _rows(results, "scan").items():
        lines.append(f"  {cost:>7}: " + " | ".join(
            f"{series} {throughput:6.1f}" for series, throughput in row.items()))
    lines += ["", f"Sensitivity — heap budget vs collapse "
                  f"({COLLAPSE_CLIENTS} clients):"]
    for budget, row in _rows(results, "heap").items():
        (series, throughput), = row.items()
        lines.append(f"  budget {budget:>6}: {series.split('@')[1]} resources "
                     f"-> {throughput:5.2f} req/s")
    lines += ["", "Sensitivity — TLS crypto cost, s/call (registry req/s):"]
    for cost, (plain, secure, drop) in _tls_drops(results).items():
        lines.append(f"  crypto {cost:>6}: {plain:6.1f} -> {secure:6.1f} "
                     f"({drop:.0%} drop)")
    return "\n".join(lines)


def _check(results: Results) -> None:
    """The qualitative claims of Figs. 10/11 hold at every swept point."""
    for cost, row in _rows(results, "scan").items():
        assert row["registry@100"] > row["index@100"], (
            f"sensitivity: the registry does not beat the index at scan "
            f"cost {cost}: {row}")
        assert row["index@25"] > row["index@100"], (
            f"sensitivity: the index does not decay with registry size at "
            f"scan cost {cost}: {row}")
    for budget, row in _rows(results, "heap").items():
        (series, throughput), = row.items()
        assert throughput < 10.0, (  # healthy is > 100 req/s
            f"sensitivity: {series} has not collapsed at heap budget "
            f"{budget}: still serves {throughput:.2f} req/s")
    for cost, (plain, secure, drop) in _tls_drops(results).items():
        assert drop > 0.25, (
            f"sensitivity: TLS costs the registry only {drop:.0%} at crypto "
            f"cost {cost}: {plain:.1f} -> {secure:.1f} req/s")


EXPERIMENT = Experiment(
    name="sensitivity",
    summary="Fig. 10/11 claims across 4x sweeps of scan cost, heap budget "
            "and TLS crypto cost",
    quick=((4e-6, 1.6e-5), (10_000.0, 40_000.0), (0.002, 0.007)),
    full=((4e-6, 8e-6, 1.6e-5), (10_000.0, 20_000.0, 40_000.0),
          (0.002, 0.0035, 0.007)),
    units=_units,
    render=_render,
    check=_check,
)
