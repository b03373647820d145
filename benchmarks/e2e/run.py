#!/usr/bin/env python3
"""The repo benchmark: six workloads, host + simulated metrics, a layer ledger.

    python3 benchmarks/e2e/run.py                         # every workload, both modes
    python3 benchmarks/e2e/run.py --workload NAME --trace 0   # end-to-end metrics
    python3 benchmarks/e2e/run.py --workload NAME --trace 1   # per-layer metrics
    python3 benchmarks/e2e/run.py --compare A.json B.json     # apply the bounds

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; everything above it
is the same numbers for people.  Names, units and bounds come from the
``BENCHMARK.json`` at the root of the checkout; README.md says what each
metric means and which layer should move it.

A run is a loop of *passes*.  A pass builds the workload from scratch
(``setup_s``), then runs its timed section: a fixed, seed-determined
set of client-visible operations.  ``--seconds`` decides how many
passes fit (never fewer than three measured ones after a short warm-up
pass); host metrics are medians over the passes, simulated metrics
must be identical in every pass.

Host times are reported at *reference speed*: this sandbox's own speed
moves by 20-40% for seconds to minutes at a time, so a pure-Python
reference loop that touches nothing of the repo is timed before and
after each phase, and the phase's wall time is scaled by how fast the
machine was running then (see :func:`speed_now`).  Raw wall times and
the speed index are printed beside every pass.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"
DEFAULT_SEED = 20050512

#: wall/CPU above this marks a pass as disturbed by another process
CONTENDED = 1.15
#: passes re-run past the time budget to replace contended ones
MAX_RERUNS = 2
#: share of ``--seconds`` the layer probes get in a traced run
PROBE_SHARE = 0.25
#: scale of the discarded warm-up pass relative to a measured one
WARMUP_SCALE = 0.2


#: iterations of the reference loop, and the seconds they take at
#: reference speed (this sandbox's most common state when the benchmark
#: was defined); speed index 1.0 means "as fast as that"
REFERENCE_LOOPS = 200_000
REFERENCE_SECONDS = 0.019


def speed_now() -> float:
    """The machine's speed index right now (1.0 = reference, higher = faster).

    Times a fixed loop of dict reads, writes and integer arithmetic that
    touches nothing of the program under test, so a change to the repo
    cannot move it.  Validated against 150 passes each of three workloads:
    scaling pass times by it took the spread of a run's median
    ``ops_per_s`` from 15% to 7% (openloop_steady), 6% to 2%
    (closed_lookup) and left rollout_churn's 2% alone, and cut the
    worst-case range from ~27% to 5-12%.
    """
    table: Dict[int, int] = {}
    started = time.perf_counter()
    for i in range(REFERENCE_LOOPS):
        table[i & 1023] = table.get(i & 511, 0) + i
    return REFERENCE_SECONDS / (time.perf_counter() - started)


def load_spec() -> dict:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


def sim_metrics(workload, messages: int) -> Dict[str, float]:
    """The simulated statistics of a finished pass (exact for a seed)."""
    from workloads import nearest_rank

    ops = workload.ops
    counts = ops.counts()
    latencies = ops.latencies_ms()
    return {
        "sim_goodput_ops_s": counts["ok"] / workload.sim_span,
        "sim_p50_ms": nearest_rank(latencies, 0.50),
        "sim_p99_ms": nearest_rank(latencies, 0.99),
        "sim_msgs_per_op": messages / len(ops),
        "ok_share": counts["ok"] / len(ops),
    }


def run_pass(cls, seed: int, scale: float, observe: Optional[bool] = None,
             profile: bool = False, sample: bool = False) -> dict:
    """Set a workload up, run its timed section, check it, summarise it."""
    import ledger
    from workloads import OUTCOMES, nearest_rank

    gc.collect()
    workload = cls(seed, scale, observe)
    speed_before = speed_now()
    started = time.perf_counter()
    workload.set_up()
    raw_setup_s = time.perf_counter() - started
    speed_between = speed_now()

    network = workload.vo.network
    tally = ledger.CallTally(network) if profile else None
    sampler = (ledger.RunQueueSampler(network, workload.SAMPLE_EVERY)
               if sample else None)
    profiler = cProfile.Profile() if profile else None
    before = ledger.Snapshot(network)
    cpu_started = time.process_time()
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    workload.run_timed()
    if profiler is not None:
        profiler.disable()
    raw_timed_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    speed_after = speed_now()
    after = ledger.Snapshot(network)
    setup_speed = (speed_before + speed_between) / 2.0
    timed_speed = (speed_between + speed_after) / 2.0

    ops = workload.ops
    counts = ops.counts()
    sim = sim_metrics(workload, after.messages - before.messages)
    unexpected = len(ops) - sum(counts[OUTCOMES[code]] for code in cls.allowed)
    problems = list(workload.check(sim))
    if sum(counts.values()) != len(ops) or counts["unresolved"]:
        problems.append(f"conservation: {counts} over {len(ops)} ops attempted")
    if unexpected:
        problems.append(f"{unexpected} ops ended outside the allowed outcomes: {counts}")
    if counts["ok"] < 1000 and scale >= 1.0:
        problems.append("fewer than 1,000 ok ops: p99 has under ten samples beyond it")

    result = {
        # seconds at reference speed: a fast spell of the machine
        # stretches them, a slow spell shrinks them
        "setup_s": raw_setup_s * setup_speed,
        "timed_s": raw_timed_s * timed_speed,
        "raw_setup_s": raw_setup_s,
        "raw_timed_s": raw_timed_s,
        "speed": timed_speed,
        "wall_over_cpu": raw_timed_s / cpu_s if cpu_s > 0 else float("inf"),
        "ops": len(ops),
        "counts": counts,
        "unexpected": unexpected,
        "digest": ops.digest(),
        "sim": sim,
        "problems": problems,
    }
    if not (profile or sample):
        return result

    n = len(ops)
    result["layer"] = layer = {}
    if profiler is not None:
        stats = profiler.getstats()
        layer.update(ledger.profile_metrics(stats, n))
        layer.update(ledger.counter_metrics(network, before, after, tally, n))
        result["top_functions"] = ledger.top_functions(stats)
    if sampler is not None:
        spans, result["spans"] = ledger.span_ledger(
            workload.vo.obs.tracer, workload.sim_start, n)
        layer.update(spans)
        layer["site.sim_cpu_util"] = ledger.busiest_cpu_util(network, before, after)
        layer["site.sim_runq_peak"] = float(sampler.peak)
        late = workload.inject_late_ms()
        layer["load.sim_inject_late_ms_p99"] = (
            nearest_rank(late, 0.99) if late.size else 0.0
        )
    return result


def determinism_problems(passes: List[dict]) -> List[str]:
    """Every pass of one run must produce the same digest and sim_* values."""
    first = passes[0]
    problems = []
    for index, other in enumerate(passes[1:], start=1):
        if other["digest"] != first["digest"]:
            problems.append(f"pass {index} outcome digest differs from pass 0")
        elif other["sim"] != first["sim"]:
            problems.append(f"pass {index} sim_* values differ from pass 0")
    return problems


# ---------------------------------------------------------------------------
# the two modes of one workload
# ---------------------------------------------------------------------------


def run_end_to_end(cls, seed: int, seconds: float, scale: float) -> dict:
    """``--trace 0``: host metrics as medians over passes, sim metrics exact."""
    deadline = time.perf_counter() + seconds
    run_pass(cls, seed, scale * WARMUP_SCALE)  # warm-up: imports, heap, caches
    passes: List[dict] = []
    reruns = 0
    while True:
        passes.append(run_pass(cls, seed, scale))
        clean = [p for p in passes if p["wall_over_cpu"] <= CONTENDED]
        if len(passes) < 3 or time.perf_counter() < deadline:
            continue
        if len(clean) >= 3 or reruns >= MAX_RERUNS:
            break
        reruns += 1
    used = clean if len(clean) >= 3 else passes
    problems = [p for each in passes for p in each["problems"]]
    problems += determinism_problems(passes)
    rates = [p["ops"] / p["timed_s"] for p in used]
    setups = [p["setup_s"] for p in used]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **passes[0]["sim"],
    }
    return {
        "mode": "end_to_end",
        "metrics": metrics,
        "ranges": {"ops_per_s": [min(rates), max(rates)],
                   "setup_s": [min(setups), max(setups)]},
        "passes": [
            {**{key: p[key] for key in ("setup_s", "timed_s", "raw_setup_s",
                                        "raw_timed_s", "speed", "wall_over_cpu")},
             "ops_per_s": p["ops"] / p["timed_s"],
             "contended": p["wall_over_cpu"] > CONTENDED}
            for p in passes
        ],
        "counts": passes[0]["counts"],
        "digest": passes[0]["digest"],
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["unexpected"] for p in passes),
        "problems": problems,
    }


def run_traced(cls, seed: int, seconds: float, scale: float) -> dict:
    """``--trace 1``: layer probes, then observability off / on / profiled passes."""
    from probes import run_probes

    metrics = run_probes(seconds * PROBE_SHARE, speed_now)
    run_pass(cls, seed, scale * WARMUP_SCALE)
    off = run_pass(cls, seed, scale, observe=False)
    on = run_pass(cls, seed, scale, observe=True, sample=True)
    profiled = run_pass(cls, seed, scale, profile=True)
    base = on if cls.observed else off
    passes = [off, on, profiled]
    problems = [p for each in passes for p in each["problems"]]
    problems += determinism_problems(passes)
    metrics.update(on["layer"])
    metrics.update(profiled["layer"])
    metrics["trace_overhead_x"] = profiled["timed_s"] / base["timed_s"]
    metrics["obs.tax_x"] = on["timed_s"] / off["timed_s"]
    shares = sum(v for k, v in metrics.items() if k.endswith(".self_share"))
    if abs(shares - 1.0) > 0.01:
        problems.append(f"layer self_share values sum to {shares:.4f}, not 1")
    return {
        "mode": "per_layer",
        "metrics": metrics,
        "sim": base["sim"],
        "digest": base["digest"],
        "timed_s": {"off": off["timed_s"], "on": on["timed_s"],
                    "profiled": profiled["timed_s"]},
        "top_functions": profiled["top_functions"],
        "spans": on["spans"],
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["unexpected"] for p in passes),
        "problems": problems,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float) -> int:
    from workloads import WORKLOADS

    spec = load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    cls = WORKLOADS[name]
    result = (run_traced if trace else run_end_to_end)(cls, seed, seconds, scale)
    result.update(workload=name, seed=seed, scale=scale, loop=cls.loop)

    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    extra = sorted(set(result["metrics"]) - {m["name"] for m in declared})
    if missing or extra:
        result["problems"].append(
            f"metrics out of step with BENCHMARK.json: missing {missing}, extra {extra}"
        )
    correct = not result["problems"]

    OUT.mkdir(exist_ok=True)
    kind = "trace" if trace else "e2e"
    with open(OUT / f"{kind}_{name}.json", "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)

    print(f"# {name} ({cls.loop} loop) seed {seed} — {cls.why}")
    if not trace:
        for index, p in enumerate(result["passes"]):
            flag = "  contended" if p["contended"] else ""
            print(f"  pass {index}: setup {p['setup_s']:.3f} s (raw "
                  f"{p['raw_setup_s']:.3f}), timed {p['timed_s']:.3f} s (raw "
                  f"{p['raw_timed_s']:.3f}), speed {p['speed']:.3f}, "
                  f"{p['ops_per_s']:,.0f} ops/s, "
                  f"wall_over_cpu {p['wall_over_cpu']:.3f}{flag}")
        counts = result["counts"]
        print(f"  ops_attempted {sum(counts.values())}  " + "  ".join(
            f"{k} {v}" for k, v in counts.items() if k != "unresolved"))
        print(f"  digest {result['digest']}")
    for m in declared:
        value = result["metrics"].get(m["name"])
        if value is not None:
            print(f"  {m['name']:34s} {value:>16,.4f} {m['unit']}")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in result["metrics"]
        },
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload, one after the other
# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float, scale: float, out_path: Path) -> int:
    """Each workload and mode in a fresh subprocess, serially; one merged file."""
    spec = load_spec()
    merged = {"seed": seed, "seconds": seconds, "scale": scale, "workloads": {}}
    with open(HERE / "layer_map.json") as handle:
        merged["layer_map"] = json.load(handle)
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = merged["workloads"][name] = {}
        for trace in (0, 1):
            code = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--scale", str(scale)],
            ).returncode
            status = status or code
            kind = "trace" if trace else "e2e"
            with open(OUT / f"{kind}_{name}.json") as handle:
                entry[kind] = json.load(handle)
    pair = [merged["workloads"].get(n, {}).get("e2e", {}).get("metrics", {})
            .get("ops_per_s") for n in ("openloop_steady", "openloop_observed")]
    if all(pair):
        merged["obs.tax_x"] = pair[0] / pair[1]
        print(f"# obs.tax_x (openloop_steady / openloop_observed ops_per_s): "
              f"{merged['obs.tax_x']:.3f}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(merged, handle, indent=1, sort_keys=True)
    print(f"# wrote {out_path}")
    return status


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def verdict(metric: dict, a: dict, b: dict) -> str:
    """``better | same | unresolved | worse`` for one (workload, metric).

    ``worse``: B's median is worse than A's by more than the bound.
    ``better``: every pass of B reads better than every pass of A (for a
    metric with one value per run: better by more than the bound).
    ``unresolved``: neither, and the passes spread wider than the bound.
    """
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    va, vb = a["metrics"][name], b["metrics"][name]
    worse_by = sign * (vb - va) / abs(va)
    if worse_by > bound:
        return "worse"
    if name not in a["ranges"]:
        return "better" if worse_by < -bound else "same"
    ra, rb = a["ranges"][name], b["ranges"][name]
    if (sign > 0 and rb[1] < ra[0]) or (sign < 0 and rb[0] > ra[1]):
        return "better"
    spread = max((ra[1] - ra[0]) / abs(va), (rb[1] - rb[0]) / abs(vb))
    return "unresolved" if spread > bound else "same"


def compare(path_a: str, path_b: str) -> int:
    """Apply BENCHMARK.json's bounds to two ``run.py`` result files."""
    spec = load_spec()
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    same_seed = a["seed"] == b["seed"] and a["scale"] == b["scale"]
    status = 0
    print(f"{'workload':20s} {'metric':20s} {'A':>14s} {'B':>14s}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        ea, eb = a["workloads"][name]["e2e"], b["workloads"][name]["e2e"]
        if same_seed and ea["digest"] != eb["digest"]:
            print(f"{name:20s} {'outcome digest':20s} {'':14s} {'':14s}  mismatch")
            status = 1
        for metric in spec["end_to_end"]:
            key = metric["name"]
            result = verdict(metric, ea, eb)
            simulated = key.startswith("sim_") or key == "ok_share"
            if simulated and same_seed and ea["metrics"][key] != eb["metrics"][key]:
                result = "mismatch"
            if result in ("worse", "mismatch"):
                status = 1
            print(f"{name:20s} {key:20s} {ea['metrics'][key]:14.4f} "
                  f"{eb['metrics'][key]:14.4f}  {result}")
        # exact per-op counters: a change is information, not a failure
        # (moving them is what an optimisation is for)
        ta = a["workloads"][name]["trace"]["metrics"]
        tb = b["workloads"][name]["trace"]["metrics"]
        moved = [k for k in ta if k.endswith("_per_op") and ta[k] != tb.get(k)]
        for key in moved:
            print(f"{name:20s} {key:34s} {ta[key]:.4f} -> {tb[key]:.4f}  counter moved")
        if not moved:
            print(f"{name:20s} exact per-op counters identical")
    return status


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink horizons and op counts (self-test only)")
    parser.add_argument("--out", type=Path, default=OUT / "results.json",
                        help="merged result file of an all-workloads run")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # one fixed hash seed for every measuring process, set before
        # the interpreter starts: re-execute this command under it
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds, args.scale, args.out)
    try:
        from workloads import WORKLOADS
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    return run_workload(args.workload, args.seed, seconds, bool(args.trace),
                        args.scale)


if __name__ == "__main__":
    sys.exit(main())
