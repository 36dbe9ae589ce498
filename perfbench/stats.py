"""Summary rules the benchmark reports with (kept small and unit-tested)."""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10
#: ``capacity_msgs_s``: the accept-latency limit on the reported tail
#: percentile, and how far the delivered rate may fall short of the
#: offered rate before the step counts as building a backlog.
P99_LIMIT_MS = 50.0
BACKLOG_TOLERANCE = 0.02


def tail_percentile(
    values: Sequence[float], fraction: float = 0.99, min_beyond: int = MIN_BEYOND
) -> Tuple[Optional[float], Optional[float]]:
    """``(percentile reported, value)`` by the nearest-rank rule.

    The wanted *fraction* is reported only when at least *min_beyond*
    samples lie above its rank; otherwise the highest percentile the
    sample supports is reported instead. ``(None, None)`` when even the
    smallest sample has fewer than *min_beyond* samples beyond it.
    """
    n = len(values)
    if n <= min_beyond:
        return None, None
    ordered = sorted(values)
    rank = max(0, math.ceil(fraction * n) - 1)
    rank = min(rank, n - 1 - min_beyond)
    return (rank + 1) / n, ordered[rank]


def capacity(steps: Sequence[dict]) -> float:
    """Highest offered rate whose step met the latency limit without a
    growing backlog and without a failed message; 0.0 when none did.

    Each step is ``{"rate", "p99_ms", "delivered_rate", "failed"}``.
    """
    best = 0.0
    for step in steps:
        if (
            step["failed"] == 0
            and step["p99_ms"] is not None
            and step["p99_ms"] <= P99_LIMIT_MS
            and step["delivered_rate"] >= (1.0 - BACKLOG_TOLERANCE) * step["rate"]
        ):
            best = max(best, float(step["rate"]))
    return best
