"""Summary statistics and the parent-versus-change verdict rule."""

import math
import statistics

#: a tail percentile needs at least this many units beyond it
TAIL_BEYOND = 10

#: the tail is reported only from this percentile up; below it the
#: "tail" would sit at or under the median
TAIL_MIN_PERCENTILE = 50


def tail(values):
    """(percentile, value) of the highest percentile with TAIL_BEYOND units
    beyond it, by nearest rank; None when the run has too few units."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    pct = min(100 * (n - TAIL_BEYOND) // n, 99)
    if pct < TAIL_MIN_PERCENTILE:
        return None
    rank = max(math.ceil(pct * n / 100), 1)
    return pct, sorted(values)[rank - 1]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def verdict(parent, change, better: str, bound: float):
    """Compare two sets of runs of one metric.

    ``parent`` and ``change`` are in run order; run i of each side forms a
    pair.  Returns (win_fraction, verdict) where verdict is "improved" when
    the change wins at least nine tenths of the pairs (ties count for
    neither) and the medians differ by more than the parent's quartile
    distance; "worse" when the change median is worse than the parent's by
    more than ``bound``; "unresolved" when the parent's own spread is wider
    than ``bound`` and not every change run beats every parent run; else
    "no worse".
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - pmed)
    if pairs and win_frac >= 0.9 and gain > pq3 - pq1:
        return win_frac, "improved"
    if gain < -bound * abs(pmed):
        return win_frac, "worse"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread(parent) > bound and not all_better:
        return win_frac, "unresolved"
    return win_frac, "no worse"
