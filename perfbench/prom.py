"""A small reader for the daemons' Prometheus text exposition: counters,
gauges and histogram `_sum`/`_count` series keyed by label set, and their
deltas over a measurement window."""

import re

_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse(text):
    """{(name, ((label, value), ...)): float} for every sample line;
    comment lines are skipped, labels are sorted by name."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if not m:
            raise ValueError(f"malformed exposition line: {line!r}")
        labels = tuple(sorted(_LABEL.findall(m.group(2) or "")))
        out[(m.group(1), labels)] = float(m.group(3))
    return out


def delta(before, after):
    """after - before per series; a series missing before counts from 0."""
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


class Window:
    """Deltas of one window summed over every daemon scraped."""

    def __init__(self, befores, afters):
        self.total = {}
        for b, a in zip(befores, afters):
            for k, v in delta(parse(b), parse(a)).items():
                self.total[k] = self.total.get(k, 0.0) + v

    def get(self, name, **labels):
        return self.total.get((name, tuple(sorted(labels.items()))), 0.0)

    def hist_mean(self, name, **labels):
        """Mean of a histogram's observations over the window (0 if none)."""
        n = self.get(name + "_count", **labels)
        return self.get(name + "_sum", **labels) / n if n else 0.0
