"""Machine-speed probe, to take the host's speed drift out of the timings.

On a small shared VM the same CPU-bound work can take 25% longer for
seconds or minutes at a time, with CPU time tracking wall time (see
WORKLOADS.md).  So while a workload times a program call, an interval
timer interrupts it every INTERVAL_S to time a fixed kernel.  The kernels
never call the program, so a change to the program cannot move them.  The
probe's own time is taken out of the call's time, and the rest is scaled
to the reference speed:

    seconds at reference speed = program seconds x reference / median probe

A program that gets slower still reads slower.  A host that gets slower
slows the kernel about as much as the program, so the scaled value stays
put.  There are two kernels, interpreter work and small float64 matrix
work, because the host's slowdowns hit them differently; each workload
uses the one that resembles its own work.
"""

from __future__ import annotations

import functools
import json
import re
import signal
import statistics
import time
from typing import Callable, TypeVar

T = TypeVar("T")

INTERVAL_S = 0.25

# Lexing, counting, sorting and serialising: the kind of interpreter work
# the slicer, tokenizer and corpus I/O do.
_TOKEN = re.compile(r"[A-Za-z_]\w*|\d+|\S")
_TEXT = "\n".join(f"    v{i % 13} = buf[{i}] * n{i % 7} + {i}; /* {i} */" for i in range(200))


def _python_kernel() -> None:
    for _ in range(4):
        counts: dict[str, int] = {}
        for tok in _TOKEN.findall(_TEXT):
            counts[tok] = counts.get(tok, 0) + 1
        json.dumps(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


@functools.cache
def _numpy_operands():
    import numpy as np

    rng = np.random.default_rng(0)
    return (np, rng.standard_normal((320, 64)), rng.standard_normal((64, 256)),
            rng.standard_normal((256, 64)))


def _numpy_kernel() -> None:
    """One feed-forward block at the desk model's shapes: batch 8 x 40
    positions, hidden 64, feed-forward 256, float64."""
    np, x, w1, w2 = _numpy_operands()
    h = x @ w1
    g = 0.5 * h * (1.0 + np.tanh(0.7978845608 * (h + 0.044715 * h ** 3)))
    y = g @ w2
    (y - y.mean(-1, keepdims=True)).var(-1)
    y.T @ g


# name -> (kernel, its median seconds on the 2-core VM the benchmark was
# written on).  The time is only a scale: both sides of a comparison use
# the same constant.
KERNELS = {"python": (_python_kernel, 0.006), "numpy": (_numpy_kernel, 0.010)}


class Probe:
    """Probe timings of one pass, taken before and during its timed calls.

    ``kernel`` names the entry of KERNELS whose work resembles the
    workload's.  Single-threaded use from the main thread only: it takes
    over SIGALRM while a call runs.
    """

    def __init__(self, kernel: str = "python"):
        self.kernel, self.reference_s = KERNELS[kernel]
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def time(self, call: Callable[[], T]) -> tuple[T, float]:
        """Run call; return its result and its seconds less the probe's."""
        self.sample()
        inside = []
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: inside.append(self.sample()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = call()
        finally:
            seconds = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        return result, seconds - sum(inside)

    def median(self) -> float:
        return statistics.median(self.samples)

    def scale(self, seconds: float) -> float:
        """seconds converted to the reference speed"""
        return seconds * self.reference_s / self.median()
