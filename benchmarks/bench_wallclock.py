"""Wall-clock perf-regression harness (CLI, not a pytest benchmark).

A thin front end over the suite table in :mod:`repro.perf`: every
entry of ``perf.SUITES`` is one committed ``BENCH_<name>.json`` — its
fixed-seed benchmarks, its pinned determinism section and the gates
that compare a fresh run against the committed file.  ``--help`` prints
each suite's gates straight from the declarations, so what CI enforced
is never restated by hand.

Usage::

    python benchmarks/bench_wallclock.py                  # kernel suite, full
    python benchmarks/bench_wallclock.py --quick          # CI smoke sizes
    python benchmarks/bench_wallclock.py -o BENCH_kernel.json   # refresh
    python benchmarks/bench_wallclock.py --quick --check  # vs BENCH_kernel.json
    python benchmarks/bench_wallclock.py --suite resolution --check
    python benchmarks/bench_wallclock.py --suite storage --check other.json
    python benchmarks/bench_wallclock.py --quick --check-all --jobs 4

``--check`` gates the suite against a baseline file (default: the
repo-root ``BENCH_<suite>.json``); exit status 1 on any failure, each
naming the suite and the field.  ``--check-all`` runs every suite and
gates each against its committed file in one invocation, aggregating
failures and printing a per-suite timing summary.

Pinned sections must be **byte-identical** across perf work: any drift
means an optimization changed simulated behaviour, which is a bug
regardless of the speedup.  Wall-clock rates vary across machines; the
committed baselines are only a tripwire for large same-machine-family
regressions, which is why those tolerances are generous.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import perf  # noqa: E402  (path bootstrap above)
from repro.runner import WorkUnit, default_jobs, run_units  # noqa: E402

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="gates enforced by --check / --check-all, per suite:\n\n"
               + "\n\n".join(perf.describe(name) for name in perf.SUITES),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--suite", choices=list(perf.SUITES), default="kernel",
                        help="which suite to run (default: kernel)")
    parser.add_argument("--check", nargs="?", const="", metavar="PATH",
                        help="fail on any gate of the suite vs this baseline "
                             "(default: the repo-root BENCH_<suite>.json)")
    parser.add_argument("--check-all", action="store_true",
                        help="run every suite and gate each against its "
                             "committed BENCH_<suite>.json in one "
                             "invocation, with a timing summary")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI smoke job)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="kernel suite: keep the best of N runs per "
                             "benchmark (default 3)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes: with --check-all one suite "
                             "per worker (clamped to the core count), "
                             "otherwise the kernel suite's (benchmark, "
                             "repeat) batches (default 1)")
    parser.add_argument("-o", "--output", metavar="PATH",
                        help="write the suite result (with --check-all: "
                             "every suite, keyed by name) as JSON")
    args = parser.parse_args(argv)

    # --check-all fans the *suites* across workers, one suite per worker
    # and serial inside.  A suite only keeps a core to itself — and its
    # wall rates comparable to a serially recorded baseline — while
    # workers do not outnumber cores, so the fan-out is clamped to the
    # machine.  A single suite runs inline and hands --jobs to its units.
    names = list(perf.SUITES) if args.check_all else [args.suite]
    workers = max(1, min(args.jobs, default_jobs(), len(names)))
    units = [
        WorkUnit(name, "repro.perf:run_suite",
                 {"name": name, "quick": args.quick, "repeats": args.repeats,
                  "jobs": 1 if args.check_all else args.jobs})
        for name in names
    ]
    started = time.perf_counter()
    suites = dict(zip(names, run_units(units, jobs=workers)))
    total = time.perf_counter() - started

    # failures aggregate across suites so one bad gate doesn't mask the rest
    failures = []
    for name, suite in suites.items():
        print(perf.summarize(name, suite))
        if args.check_all or args.check is not None:
            path = os.path.join(ROOT, f"BENCH_{name}.json")
            if args.check and not args.check_all:
                path = args.check
            with open(path) as handle:
                found = perf.compare(name, suite, json.load(handle))
            failures += found
            print(f"  -> {name} gate {'FAILED' if found else 'passed'} "
                  f"({path})\n")

    if args.output:
        perf.dump_suite(suites if args.check_all else suites[args.suite],
                        args.output)
        print(f"wrote {args.output}")

    if args.check_all:
        # makes harness wall-time regressions visible in the job log
        print("timing summary (benchmark wall per suite):")
        for name, suite in suites.items():
            wall = sum(r["wall_seconds"] for r in suite["results"].values())
            print(f"  {name:13s} {wall:7.1f}s")
        print(f"  {'harness total':13s} {total:7.1f}s "
              f"({workers} worker{'s' if workers != 1 else ''} "
              f"for --jobs {args.jobs})")

    if failures:
        print("FAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if args.check_all:
        print(f"all {len(suites)} baseline gates passed")
    elif args.check is not None:
        print(f"{args.suite} baseline check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
