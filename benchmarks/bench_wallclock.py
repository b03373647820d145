"""Host-cost perf-regression harness (CLI, not a pytest benchmark).

A thin front end over the suite table in :mod:`repro.perf`: every
entry of ``perf.SUITES`` is one committed ``BENCH_<name>.json`` — its
fixed-seed counters, its pinned determinism section and the gates
that compare a fresh run against the committed file.  ``--help`` prints
each suite's gates straight from the declarations, so what CI enforced
is never restated by hand.

Usage::

    python benchmarks/bench_wallclock.py                  # kernel suite
    python benchmarks/bench_wallclock.py -o BENCH_kernel.json   # refresh
    python benchmarks/bench_wallclock.py --check          # vs BENCH_kernel.json
    python benchmarks/bench_wallclock.py --suite resolution --check
    python benchmarks/bench_wallclock.py --suite storage --check other.json
    python benchmarks/bench_wallclock.py --check-all --jobs 4

``--check`` gates the suite against a baseline file (default: the
repo-root ``BENCH_<suite>.json``); exit status 1 on any failure, each
naming the suite and the field.  ``--check-all`` runs every suite, one
per worker under ``--jobs``, and gates each against its committed file
in one invocation, aggregating failures.  The two are exclusive.

Every gate reads an exact count: a pinned section must stay
**byte-identical** (any drift means an optimization changed simulated
behaviour, a bug regardless of the speedup), and a Python-call, ring or
footprint counter may rise at most 10 % over its committed value.  No
clock is read but the harness total ``--check-all`` prints, so the
verdict and the ``-o`` file are the same on any host at any ``--jobs``;
host wall time is ``benchmarks/e2e``'s to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import perf  # noqa: E402  (path bootstrap above)
from repro.runner import WorkUnit, run_units  # noqa: E402

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
    checks = parser.add_mutually_exclusive_group()
    checks.add_argument("--check", nargs="?", const="", metavar="PATH",
                        help="fail on any gate of the suite vs this baseline "
                             "(default: the repo-root BENCH_<suite>.json)")
    checks.add_argument("--check-all", action="store_true",
                        help="run every suite and gate each against its "
                             "committed BENCH_<suite>.json in one invocation")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for --check-all, one suite "
                             "per worker (default 1)")
    parser.add_argument("-o", "--output", metavar="PATH",
                        help="write the suite result (with --check-all: "
                             "every suite, keyed by name) as JSON")
    args = parser.parse_args(argv)

    names = list(perf.SUITES) if args.check_all else [args.suite]
    units = [WorkUnit(name, "repro.perf:run_suite", {"name": name})
             for name in names]
    started = time.perf_counter()
    suites = dict(zip(names, run_units(units, jobs=args.jobs)))
    total = time.perf_counter() - started

    # failures aggregate across suites so one bad gate doesn't mask the rest
    failures = []
    for name, suite in suites.items():
        print(perf.summarize(name, suite))
        if args.check_all or args.check is not None:
            path = args.check or os.path.join(ROOT, f"BENCH_{name}.json")
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
        print(f"harness total {total:.1f}s (--jobs {args.jobs})")

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
