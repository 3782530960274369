"""Order statistics used by every workload."""

# Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.0, 90.0, 50.0)
# A tail percentile is reported only with at least this many samples
# beyond it, so one slow sample cannot set it.
TAIL_MIN_BEYOND = 10


def _rank(p, n):
    """1-based nearest rank of percentile p among n samples, in integer
    arithmetic (p has at most one decimal) so 99.9% of 10000 is 9990."""
    return max(1, -(-round(p * 10) * n // 1000))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_rank(n):
    """The highest candidate percentile with at least TAIL_MIN_BEYOND of
    n samples beyond it, or None when n is too small for any."""
    for p in TAIL_CANDIDATES:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            return p
    return None


def tail(values):
    """(percentile used, value) for the tail of values."""
    p = tail_rank(len(values))
    if p is None:
        raise ValueError(f"{len(values)} samples are too few for a tail")
    return p, percentile(values, p)


def median(values):
    return percentile(values, 50.0)


def mean(values):
    return sum(values) / len(values) if values else 0.0
