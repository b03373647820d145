"""Multiprocess sweep runner: fan independent work units across cores.

Every sweep in the harness — fig14/fig15's (size, configuration)
points, ``repro all``'s experiment commands, ``bench_wallclock.py
--check-all``'s suites — is a list of *independent, fixed-seed*
simulations: no unit reads another's output, and each carries its full
seed explicitly.  That makes them embarrassingly parallel, and this
module is the one place that exploits it.

Determinism contract
--------------------
Parallelism must never be observable in the results:

* **Seeding** — a :class:`WorkUnit` carries everything its function
  needs, including the seed, in ``kwargs``; the runner itself never
  draws randomness and never injects worker identity.  A unit that
  needs its own stream (e.g. a sweep point that must differ from its
  siblings) derives it *before* submission with :func:`derive_seed`,
  which hashes ``(base_seed, unit name)`` — stable across runs,
  machines and worker counts, unlike anything derived from pids or
  submission timing.
* **Ordering** — :func:`run_units` returns results in *submission*
  order regardless of completion order, so ``--jobs 1`` and
  ``--jobs 8`` produce byte-identical result lists.
* **Reduction** — merges over unordered result sets go through
  :func:`merge_digests`, which sorts its ``name=digest`` lines before
  hashing; the merged fingerprint is a pure function of the set.

Failure surface
---------------
A unit that raises in a worker is re-raised at the collection point as
:class:`WorkerError` naming the unit and carrying the child's
formatted traceback — one bad sweep point fails the whole run loudly
instead of hanging or silently dropping a point.  (A worker that dies
outright — segfault, OOM kill — surfaces as the executor's
``BrokenProcessPool``, which is equally loud.)

Functions are addressed as ``"module:callable"`` dotted paths rather
than pickled code objects, so units stay cheap to ship and work under
any multiprocessing start method.
"""

from __future__ import annotations

import hashlib
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Dict, List, Mapping, Sequence


class WorkerError(RuntimeError):
    """A work unit failed inside a worker process.

    The message names the unit and embeds the child's traceback, so the
    failure reads the same whether it happened inline (``jobs=1``) or
    in a pool worker.
    """


@dataclass(frozen=True)
class WorkUnit:
    """One independent, picklable piece of sweep work.

    Parameters
    ----------
    name:
        Stable identity — used for error reports and as the label in
        merged fingerprints.  Must be unique within one ``run_units``
        call.
    fn:
        ``"module:callable"`` dotted path to a module-level function.
    kwargs:
        Keyword arguments for the call.  Must be picklable and must
        include the unit's seed when the function is randomized — the
        runner adds nothing.
    """

    name: str
    fn: str
    kwargs: Dict[str, Any] = field(default_factory=dict)


def derive_seed(base_seed: int, name: str) -> int:
    """Stable per-unit seed: ``sha256(base_seed || name)`` as an int.

    Worker count, submission order and scheduling never enter the
    derivation, so a unit gets the same seed under ``--jobs 1`` and
    ``--jobs N`` — the property every merged-fingerprint test relies
    on.  Distinct names yield independent streams from one base seed.
    """
    digest = hashlib.sha256(f"{base_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _resolve(path: str):
    """Import ``"module:callable"`` (clear error on a malformed path)."""
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise ValueError(f"work unit fn must be 'module:callable', got {path!r}")
    return getattr(import_module(module_name), attr)


def _run_unit(unit: WorkUnit) -> Any:
    """Child-side entry: execute one unit, wrapping failures.

    ``WorkerError`` carries only strings, so it survives the result
    pickle no matter what the original exception held.
    """
    try:
        return _resolve(unit.fn)(**unit.kwargs)
    except BaseException:
        raise WorkerError(
            f"work unit {unit.name!r} ({unit.fn}) failed:\n"
            + traceback.format_exc()
        ) from None


def run_units(
    units: Sequence[WorkUnit], jobs: int = 1
) -> List[Any]:
    """Run every unit; return their results in submission order.

    ``jobs <= 1`` runs inline in this process (no pool, no pickling) —
    the reference serial semantics.  With more workers the units fan
    out over a :class:`~concurrent.futures.ProcessPoolExecutor`;
    collection walks the futures in submission order, so the returned
    list is identical either way.  The first failing unit raises
    :class:`WorkerError` (collection order, i.e. deterministic when
    several fail).
    """
    if not units:
        return []
    names = [unit.name for unit in units]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate work unit names: {sorted(names)}")
    if jobs <= 1 or len(units) <= 1:
        return [_run_unit(unit) for unit in units]
    workers = min(jobs, len(units))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_unit, unit) for unit in units]
        return [future.result() for future in futures]


def truncate_traceback(text: str, max_frames: int = 20) -> str:
    """Keep a traceback's header and its last ``max_frames`` frames.

    Deep sweeps fail through many layers of runner/simulator plumbing;
    the frames that matter are the innermost ones.  Renderers (the CLI)
    show this truncated form; artifact writers keep the full text.
    A ``WorkerError`` message is "header line\\n<child traceback>" —
    everything before the first ``"  File "`` line is preserved
    verbatim, then all but the last ``max_frames`` frame blocks are
    replaced with an elision marker.
    """
    lines = text.splitlines()
    frame_starts = [i for i, line in enumerate(lines)
                    if line.startswith("  File ")]
    if len(frame_starts) <= max_frames:
        return text
    keep_from = frame_starts[-max_frames]
    dropped = len(frame_starts) - max_frames
    return "\n".join(
        lines[:frame_starts[0]]
        + [f"  [... {dropped} outer frames elided ...]"]
        + lines[keep_from:]
    )


def merge_digests(named_digests: Mapping[str, str]) -> str:
    """Order-independent reduction of per-unit digests to one sha256.

    The merged value hashes the sorted ``name=digest`` lines, so it
    depends only on the *set* of (unit, digest) pairs — completion
    order, worker count and submission order all cancel out.  Equality
    of merged digests between a serial and a parallel sweep therefore
    proves every individual point matched.
    """
    lines = sorted(f"{name}={digest}" for name, digest in named_digests.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


__all__ = [
    "WorkUnit",
    "WorkerError",
    "derive_seed",
    "merge_digests",
    "run_units",
    "truncate_traceback",
]
