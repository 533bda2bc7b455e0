"""How fast the host is right now, measured without the program.

The benchmark's host shares its cores with other tenants: while they are
busy the same call runs up to 1.6 times slower, in spells of seconds to
minutes.  ``host_probe`` times a fixed piece of work right before and
right after each timed call, and timings are reported in *reference
seconds*: ``wall seconds * REF_PROBE_S / probe seconds``, the time the
call would have taken on a host where the probe takes ``REF_PROBE_S``.
"""

from __future__ import annotations

import heapq
import time

#: Seconds ``host_probe`` takes on the reference host: the tuning host
#: (see the fingerprint in a run's details) when no neighbour loads its
#: cores.
REF_PROBE_S = 0.09


class _Cost:
    __slots__ = ("flops", "nbytes")

    def __init__(self, flops: float, nbytes: int) -> None:
        self.flops = flops
        self.nbytes = nbytes


def _linear(m: float, k: float, n: float) -> float:
    return 2.0 * m * k * n


def _attention(lq: float, lk: float, channels: float, heads: float) -> float:
    head_dim = channels / heads
    return (_linear(lq, channels, channels) + 2 * _linear(lk, channels, channels)
            + 2.0 * heads * lq * lk * head_dim + 5.0 * heads * lq * lk)


def _step(total: float, i: int) -> float:
    return total + (i * 0.5) % 7.0


def _work(a, scale: int) -> None:
    import numpy as np

    # Interpreted arithmetic through small calls, and dict stores.
    table, total = {}, 0.0
    for i in range(800 * scale):
        total = _step(total, i)
        table[i & 1023] = total
    # Small objects, nested float functions and a heap, as in the
    # analytic cost model and the event loops.
    heap, sizes = [], []
    for i in range(160 * scale):
        cost = _Cost(_attention(float(i % 384 + 1), float(i % 256 + 1),
                                128.0, 4.0), i * 8)
        heapq.heappush(heap, (cost.flops, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        sizes.append(cost.nbytes)
    # Element-wise numpy on a 64 KiB array, as in the MSA kernels.
    x = a
    for _ in range(13 * scale):
        x = np.maximum(x[::-1] * 0.5 + a, a)


def host_probe() -> float:
    """Wall seconds of a fixed piece of work.

    The work does not touch the program, so a change to the program
    cannot move it.  It mixes the kinds of work the program's calls do,
    so contention slows it down as it slows them.  A short untimed run
    first warms the interpreter and the allocator, so a fresh process
    probes like a warm one.
    """
    import numpy as np

    a = np.random.default_rng(0).random((64, 128))
    _work(a, 15)
    began = time.perf_counter()
    _work(a, 150)
    return time.perf_counter() - began
