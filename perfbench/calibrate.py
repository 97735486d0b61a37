"""A fixed piece of pure-Python work that measures how fast the machine is
running right now.

On a shared machine, load from elsewhere slows every Python process down
by up to about 1.8x, in periods from milliseconds to minutes.  The probe
runs between the benchmark's operations; its time, next to REFERENCE_S,
gives the slowdown at that moment, and the benchmark divides it out.  The
probe touches nothing of dimeq's.
"""

from __future__ import annotations

import time

# The probe's time, in seconds, on a quiet machine: the one that was used to
# define the benchmark (Python 3.11, x86-64).  Only scales the reported
# numbers; comparisons between runs do not depend on it.
REFERENCE_S = 0.0025


class _Cell:
    __slots__ = ("parts", "weight")

    def __init__(self, parts: tuple, weight: int) -> None:
        self.parts = parts
        self.weight = weight


def _work(n: int) -> int:
    """Small tuples, slotted objects, isinstance, dict stores and integer
    arithmetic: the mix dimeq's operations are made of.  Everything it
    allocates is freed at once, so the collector never runs for it."""
    acc = 0
    seen: dict = {}
    for i in range(n):
        parts = (i, i + 1, i & 7)
        cell = _Cell(parts, i)
        if isinstance(cell, _Cell):
            acc += len(cell.parts) + cell.weight % 7
        seen[i & 63] = parts
        acc += sum(parts[:2]) - max(parts)
    return acc


def probe() -> float:
    """Seconds the reference work took."""
    t = time.perf_counter()
    _work(3000)
    return time.perf_counter() - t
