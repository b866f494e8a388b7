"""Summary statistics the benchmark reports: medians and tail percentiles.

A tail is reported at the highest percentile that still has at least
``MIN_BEYOND`` samples beyond it, together with the sample count, so a
p90 is only claimed from at least 100 samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: Percentiles considered for the tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def _rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q`` percentile of ``count``
    samples (rounded first, so 99.9% of 10000 is rank 9990)."""
    return max(1, math.ceil(round(q * count / 100.0, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q) - 1]


def beyond(count: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q`` percentile."""
    return count - _rank(count, q)


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with ``MIN_BEYOND`` samples
    beyond it, or 0.0 when even the median is not supported."""
    for q in TAIL_CANDIDATES:
        if beyond(count, q) >= MIN_BEYOND:
            return q
    return 0.0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``{"n", "p50", "tail_q", "tail"}`` of a latency sample.
    Failed requests enter as ``inf``, so they miss every limit."""
    count = len(values)
    tail_q = tail_percentile(count)
    return {
        "n": count,
        "p50": percentile(values, 50.0) if count else math.nan,
        "tail_q": tail_q,
        "tail": percentile(values, tail_q) if tail_q else math.nan,
    }


def supported_percentile(values: Sequence[float], q: float) -> float:
    """``percentile(values, q)``, refusing a percentile the sample
    cannot support (fewer than ``MIN_BEYOND`` samples beyond it)."""
    if beyond(len(values), q) < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"have {len(values)} samples"
        )
    return percentile(values, q)


def best_of(runs: Sequence[Sequence[float]]) -> List[float]:
    """Item by item, the least of several timings of the same items.

    On a shared host, identical work measured seconds apart can take up
    to 1.8 times as long while a neighbour loads the same core; the
    least of a few repetitions spread over a run estimates the
    program's own cost (the ``timeit`` convention)."""
    return [min(times) for times in zip(*runs)]


def sum_of_best(samples: Dict[str, List[float]]) -> float:
    """Seconds per pass over a fixed item set: the sum of each item's
    best time."""
    return sum(min(times) for times in samples.values())
