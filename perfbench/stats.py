"""Summary statistics with the benchmark's accounting rules.

A failed op counts as infinite latency, so failures push the median and
the tail up instead of vanishing from them.
"""

from __future__ import annotations

import math
import re
import statistics

FAILED = math.inf
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(latencies) -> tuple:
    """(value, percentile, samples beyond) at the highest percentile that
    has at least ten samples beyond it.

    With n samples sorted ascending that is the (n-10)-th, so exactly ten
    lie above its rank; the percentile is its nearest rank, 100*(n-10)/n.
    Fewer than eleven samples have no such percentile: the maximum is
    reported with the true count beyond it, zero.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def finite(x: float):
    """JSON has no infinity; an infinite latency (a failed op) prints as null."""
    return x if math.isfinite(x) else None


def check_names(names) -> list:
    """Names that break the metric-name pattern, or repeat."""
    bad, seen = [], set()
    for n in names:
        if not NAME.fullmatch(n) or n in seen:
            bad.append(n)
        seen.add(n)
    return bad
