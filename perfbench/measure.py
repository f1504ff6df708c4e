"""Pure helpers: the run loop, pooled rates, the tail-percentile rule,
match-set digests, layer coverage.

Nothing here imports ``repro``; :func:`layer_coverage` reads the summary
:func:`repro.obs.report.summarize` returns, so the arithmetic is testable on
hand-built span lists.
"""

from __future__ import annotations

import hashlib
import math
import time
from statistics import median
from typing import (Any, Callable, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES_BEYOND = 10


def cycle(count: int, seconds: float, run_one: Callable[[int], Any],
          clock: Callable[[], float] = time.perf_counter) -> List[List[Any]]:
    """Run instances ``0 .. count - 1`` in order, round and round, until
    ``seconds`` have passed and each has run at least once.

    Returns one list of ``run_one(index)`` results per instance.
    """
    runs: List[List[Any]] = [[] for _ in range(count)]
    began = clock()
    step = 0
    while step < count or clock() - began < seconds:
        runs[step % count].append(run_one(step % count))
        step += 1
    return runs


def pooled_rate(work: Sequence[float],
                times: Sequence[Sequence[float]]) -> float:
    """Work per second over instances each timed one or more times.

    The summed work over the summed per-instance median times, so every
    instance counts once however often it ran.
    """
    return sum(work) / sum(median(samples) for samples in times)


class Tail(NamedTuple):
    """One tail statistic: the percentile used, its value, the sample count."""

    percentile: float
    value: float
    samples: int


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values: Sequence[float],
         beyond: int = TAIL_SAMPLES_BEYOND) -> Optional[Tail]:
    """The highest percentile with at least ``beyond`` samples above it.

    With ``n`` samples that is the nearest-rank percentile
    ``100 * (n - beyond) / n``, whose value is the ``beyond + 1``-th largest
    sample.  ``None`` when there are too few samples for any tail.
    """
    count = len(values)
    if count <= beyond:
        return None
    percentile = 100.0 * (count - beyond) / count
    return Tail(percentile, sorted(values)[count - beyond - 1], count)


def bounded_percentile(values: Sequence[float], percentile: float,
                       beyond: int = TAIL_SAMPLES_BEYOND) -> Optional[Tail]:
    """``percentile`` of ``values`` when ``beyond`` samples lie above it,
    else the :func:`tail` (the highest percentile that has them)."""
    count = len(values)
    if count and count - math.ceil(percentile / 100.0 * count) >= beyond:
        return Tail(percentile, nearest_rank(values, percentile), count)
    return tail(values, beyond)


def match_digest(pairs: Iterable[Tuple[str, str]]) -> str:
    """Order-independent digest of a match set: sha256 of the sorted pairs."""
    lines = sorted(f"{first}\t{second}" for first, second in pairs)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def combined_digest(digests: Iterable[str]) -> str:
    """Digest of an ordered list of per-instance digests."""
    return hashlib.sha256(",".join(digests).encode("ascii")).hexdigest()[:16]


def layer_coverage(summary: Mapping, root: str) -> Tuple[float, float]:
    """``(covered share, unattributed seconds)`` of the ``root`` spans.

    ``summary`` is :func:`repro.obs.report.summarize` output.  The time of a
    root span that no child span covers is its self-time, so the
    unattributed seconds are the roots' summed self-time and the covered
    share is one minus that over their summed duration.
    """
    phase = summary["phases"].get(root)
    if phase is None or phase["total_s"] <= 0:
        return 0.0, 0.0
    unattributed = phase["self_s"]
    return 1.0 - unattributed / phase["total_s"], unattributed
