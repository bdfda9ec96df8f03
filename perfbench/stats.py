"""Small statistics and span-tree helpers for run.py.

Kept free of ``vdc`` imports so the tests can exercise them directly.
"""

from __future__ import annotations

from collections import defaultdict

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``: the order statistic at ascending rank
    ``n - beyond - 1`` and the share of samples at or below it, in percent.
    ``None`` when there are not enough samples for any such percentile.
    """
    n = len(values)
    i = n - beyond - 1
    if i < 0:
        return None
    ordered = sorted(values)
    return ordered[i], 100.0 * (i + 1) / n


def self_times(records: list[dict]) -> dict[int, float]:
    """Self time of every span record: its duration minus its children's.

    A record is ``{"id", "parent", "dur"}`` (plus anything else); ``dur`` is
    the total time of the span, or of all calls folded into an aggregate
    record.  Spans come from one single-threaded process, so children are
    properly nested inside their parent and never overlap each other: the
    time they cover is the sum of their durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for r in records:
        if r["parent"] is not None:
            covered[r["parent"]] += r["dur"]
    return {r["id"]: r["dur"] - covered[r["id"]] for r in records}


def layer_totals(records: list[dict]) -> dict[str, float]:
    """Sum of self time per span name, in the records' time unit."""
    own = self_times(records)
    out: dict[str, float] = defaultdict(float)
    for r in records:
        out[r["name"]] += own[r["id"]]
    return dict(out)


def counter_totals(records: list[dict]) -> dict[str, float]:
    """Per span name: ``calls`` (number of calls) plus every summed attribute."""
    out: dict[str, float] = defaultdict(float)
    for r in records:
        out[r["name"] + ".calls"] += r["n"]
        for k, v in r.get("attrs", {}).items():
            out[r["name"] + "." + k] += v
    return dict(out)
