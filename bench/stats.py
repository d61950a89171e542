"""Pure helpers of the benchmark: percentiles, span self time, census diffs.

Nothing here imports infocat, so the helpers are testable on their own
(see test_bench.py) and usable by the parent process, which never
imports the package it measures.
"""

from __future__ import annotations

import math
import statistics

# Percentiles tried for the reported tail, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0)


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(samples, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile of samples, with the number beyond it.

    The value is the smallest sample with at least q percent of the
    samples at or below it; "beyond" counts the samples ranked after it.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    # Rounded first, so that 99.9 % of 10,000 is rank 9990, not 9991.
    rank = max(1, math.ceil(round(q / 100.0 * len(ordered), 9)))
    return ordered[rank - 1], len(ordered) - rank


def tail_summary(samples, min_beyond: int = 10) -> dict:
    """Median plus the highest percentile with min_beyond samples beyond it.

    Returns {"count", "p50", "tail_q", "tail", "tail_beyond"}; tail_q is
    None when the sample is too small for even the lowest candidate.
    """
    samples = list(samples)
    out = {"count": len(samples), "p50": percentile(samples, 50.0)[0],
           "tail_q": None, "tail": None, "tail_beyond": 0}
    for q in TAIL_PERCENTILES:
        value, beyond = percentile(samples, q)
        if beyond >= min_beyond:
            out.update(tail_q=q, tail=value, tail_beyond=beyond)
            break
    return out


def median_per_item(runs) -> list[float]:
    """Each item's median time over every run and repeat.

    runs holds, per run, one list of repeated times per item, the items
    in the same order in every run.
    """
    pooled: list[list[float]] = []
    for run in runs:
        for position, times in enumerate(run):
            if position == len(pooled):
                pooled.append([])
            pooled[position].extend(times)
    return [median(times) for times in pooled]


def self_times(spans) -> dict:
    """Self time of each span: its duration minus what its children cover.

    Each span is a mapping with "id", "parent" (an id or None), "start"
    and "end" in seconds, and optionally "covered": time spent in
    aggregated calls made directly inside it (which are not spans).
    Child spans are assumed to nest inside their parent, as spans taken
    from a call stack do.
    """
    child_total: dict = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            child_total[parent] = child_total.get(parent, 0.0) + (span["end"] - span["start"])
    return {
        span["id"]: (span["end"] - span["start"])
        - child_total.get(span["id"], 0.0)
        - span.get("covered", 0.0)
        for span in spans
    }


def census_diff(expected: dict, actual: dict, prefix: str = "") -> list[str]:
    """Differences between two (possibly nested) census mappings.

    Returns one readable line per key whose value differs or that only
    one side has; an empty list means the censuses agree.
    """
    lines = []
    for key in sorted(set(expected) | set(actual), key=str):
        name = f"{prefix}{key}"
        if key not in actual:
            lines.append(f"{name}: missing, expected {expected[key]!r}")
        elif key not in expected:
            lines.append(f"{name}: unexpected {actual[key]!r}")
        elif isinstance(expected[key], dict) and isinstance(actual[key], dict):
            lines.extend(census_diff(expected[key], actual[key], prefix=f"{name}."))
        elif expected[key] != actual[key]:
            lines.append(f"{name}: expected {expected[key]!r}, got {actual[key]!r}")
    return lines


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0
