"""Timing: the parts of an operation, the reference loops that
normalise them, and the statistics the benchmark reports.

On a shared machine, other tenants can slow a run by up to half again
for tens of seconds at a time, so whole runs can come out slow.  Each
part of an operation, and each set-up, is therefore timed between two
runs of a fixed reference loop that shares no code with the library,
and reported both in seconds and as a ratio to the loop's time.  A change to the library moves both; a slow
spell of the machine moves only the seconds.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

REFERENCE_MODULUS = 4 * 3 ** 74 * 5 ** 55 - 1      # 247 bits
REFERENCE_ROUNDS = 1000
# Median time of `reference_seconds()` on an idle machine (2-vCPU Intel
# Xeon, Python 3.11).  A time in reference units times this constant is
# that time in seconds at the idle machine's speed.
REFERENCE_NOMINAL_S = 0.00095


class _Residue:
    """Stand-in for a field element in the reference loop: one big
    integer in a slotted object, a new object per operation."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def mul(self, other: "_Residue") -> "_Residue":
        return _Residue(self.v * other.v % REFERENCE_MODULUS)

    def add(self, other: "_Residue") -> "_Residue":
        return _Residue((self.v + other.v) % REFERENCE_MODULUS)


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop, about a millisecond, that
    allocates like the library's field arithmetic, so that the two slow
    alike in a slow spell."""
    x, y = _Residue(3), _Residue(5)
    t0 = perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        x = x.mul(x).add(y)
    return perf_counter() - t0


MEAN_REFERENCE_RUNS = 10


def mean_reference_seconds() -> float:
    """Mean time of `MEAN_REFERENCE_RUNS` reference loops.  A single
    loop's time swings by a third from one millisecond to the next on a
    shared machine, while a part of tenths of a second averages over the
    swings; so long parts are divided by this longer mean."""
    return statistics.fmean(reference_seconds()
                            for _ in range(MEAN_REFERENCE_RUNS))


_MODEXP_MODULUS = 4 * 3 ** 238 * 5 ** 165 - 1     # 763 bits


def modexp_reference_seconds() -> float:
    """Time of one 763-bit modular exponentiation by the built-in `pow`,
    the work that dominates Miller-Rabin."""
    t0 = perf_counter()
    pow(3, _MODEXP_MODULUS >> 1, _MODEXP_MODULUS)
    return perf_counter() - t0


class Phases:
    """Seconds spent in the named parts of one operation, and the
    reference loop's time before the first part and after each one.
    In the traced run each part is also a span."""

    def __init__(self, tracer=None, reference=reference_seconds):
        self.tracer = tracer
        self.seconds: dict[str, float] = {}
        self._reference = reference
        self.reference = [reference()]

    @contextmanager
    def __call__(self, name: str):
        span = self.tracer.open(name) if self.tracer is not None else None
        ok = False
        t0 = perf_counter()
        try:
            yield
            ok = True
        finally:
            self.seconds[name] = perf_counter() - t0
            if span is not None:
                self.tracer.close(span, ok)
            self.reference.append(self._reference())

    def relative(self) -> dict[str, float]:
        """Each part's time in units of the reference loop, taken as the
        mean of the loop's runs just before and just after the part."""
        ref = self.reference
        return {name: t * 2 / (ref[k] + ref[k + 1])
                for k, (name, t) in enumerate(self.seconds.items())}


def median_metric(name, values, unit="s", note="median"):
    return {"name": name, "value": statistics.median(values), "unit": unit,
            "samples": len(values), "note": note}


def sum_of_part_medians(samples, attr="phases", names=None) -> float:
    """Sum over the parts of an operation of each part's median, in
    seconds (`phases`) or reference-loop units (`relative`).  Parts are
    short, so a slow spell of the machine lands in fewer samples than it
    would in whole operations."""
    names = samples[0].phases if names is None else names
    return sum(statistics.median(getattr(s, attr)[name] for s in samples)
               for name in names)


def tail_metric(name, values, unit="s"):
    """The highest of a fixed ladder of percentiles that has at least
    ten samples beyond it (nearest rank), or None when none has."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99.9, 99.0, 98.0, 95.0, 90.0):
        rank = -(-q * n // 100)            # ceil(q/100 * n), 1-based
        beyond = n - int(rank)
        if beyond >= 10:
            return {"name": name, "value": ordered[int(rank) - 1], "unit": unit,
                    "samples": n, "note": f"p{q:g}, {beyond} samples beyond"}
    return None
