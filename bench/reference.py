"""How fast the machine runs right now, from a fixed slice of interpreter work.

On a shared virtual machine the speed of pure-Python code drifts by up to
±20% over minutes (host CPU frequency and neighbours), and the program
and this loop drift together: measured side by side, their rates
correlate at about 0.75.  Each round therefore probes this loop between
its cycles, and the runner reports every time and rate scaled to
:data:`NOMINAL_RATE`, the probe rate of the machine the bounds were
calibrated on.  The raw values stay in the result file.  The loop mixes
what the program spends its time on: small objects, attribute reads,
tuple keys, dicts, sets and sorting.
"""

from __future__ import annotations

from time import perf_counter

#: Reference units per second of the calibration machine: a 2-vCPU
#: x86-64 virtual machine running CPython 3.11.
NOMINAL_RATE = 12_500.0
#: Length of one probe, and cycle time between probes.
PROBE_SECONDS = 0.03
PROBE_EVERY_S = 0.5


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _unit() -> int:
    points = [_Point(i, i % 7) for i in range(120)]
    table: dict = {}
    for p in points:
        key = (p.b, p.a % 13)
        table[key] = table.get(key, 0) + p.a
    keys = {k for k in table if k[0] < 4} | set(range(50))
    return len(keys) + len(sorted(table.items())) + sum(p.a >> 1 for p in points if p.b)


def probe(seconds: float = PROBE_SECONDS) -> float:
    """Reference units per second, measured for about ``seconds``."""
    count = 0
    start = perf_counter()
    while True:
        _unit()
        count += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return count / elapsed
