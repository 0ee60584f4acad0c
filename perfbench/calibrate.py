"""Host speed probe, so that timings can be read at a fixed host speed.

The machines this benchmark runs on share cores with other tenants, and
their speed drifts by up to 1.5x for seconds to minutes at a time; the
same session can take 0.6 s or 1.0 s.  :func:`probe` times a fixed
pure-Python loop that uses no repository code but does what the engine
does most — calls, attribute and dict access, small allocations.  A
repetition probed right before and right after its timed region has a
speed factor ``REFERENCE_S / probe time`` (both cores are probed at once
for the workloads that run on both); a time multiplied by it is in
*reference seconds*, the time the host would have taken at the probe's
reference speed.  Code changes move reference seconds; host drift
largely does not.  (A memory-bound probe was tried and dropped: it
drifted by 3x while the workloads drifted by 1.4x.)
"""

from __future__ import annotations

import os
import time

#: typical probe time, in seconds, on the reference host (2 vCPUs,
#: Python 3.11).  Only a scale: every factor divides by the same
#: constant, so comparisons between runs do not depend on its value.
REFERENCE_S = 0.004


class _Node:
    __slots__ = ("key", "next")

    def __init__(self, key, nxt):
        self.key = key
        self.next = nxt


def _step(table, i):
    node = _Node(i & 255, table.get(i & 255))
    table[i & 255] = node
    return node.key + (len(table) if i % 7 else 0)


def _loop() -> float:
    table, acc = {}, 0
    start = time.perf_counter()
    for i in range(10_000):
        acc += _step(table, i)
    return time.perf_counter() - start


def probe(cpus: int = 1) -> float:
    """Best of three times of the probe loop, in seconds.

    The best of three drops the odd garbage collection or interrupt that
    lands inside one loop.
    With ``cpus=2`` a forked child runs the same probe at the same time,
    so that both of a two-CPU host's cores are probed at once — the
    speed a workload spread over both cores sees — and the geometric
    mean of the two times is returned.
    """
    if cpus == 1:
        return min(_loop() for _ in range(3))
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: probe, report, exit without running cleanup
        os.close(read_end)
        os.write(write_end, repr(probe()).encode("ascii"))
        os._exit(0)
    os.close(write_end)
    mine = probe()
    with os.fdopen(read_end, "rb") as handle:
        theirs = float(handle.read())
    os.waitpid(pid, 0)
    return (mine * theirs) ** 0.5


def speed_factor(before: float, after: float) -> float:
    """Factor turning wall seconds into reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
