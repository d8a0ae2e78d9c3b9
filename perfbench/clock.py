"""Checkpoint clock: a timestamp at every dense linear-algebra call.

Other tenants share this host's CPU, and its speed changes within a
fraction of a second: one 40x40 ``numpy.linalg.eigh`` takes 157 us in a
fast phase and up to 275 us in a slow one, on one vCPU while the other
runs fast.  A half-second operation spans many such phases, so even the
fastest of its repetitions is slow by a share that differs from run to
run.  A millisecond-long piece of it runs in a fast phase in most
repetitions.

While installed, the clock wraps the LAPACK-backed functions of
``numpy.linalg`` and ``numpy.einsum``, which sdnop calls through the
module (``np.linalg.eigh`` and the like), with a wrapper that appends
``perf_counter()`` and calls the original.  ``einsum`` is there for the
second-order probes of ``diagnostics``, which call no LAPACK routine.
The stamps cut one operation into segments of, typically, a fraction of
a millisecond.  An operation on fixed inputs is deterministic, so its
k-th segment does the same work in every repetition, and ``SegmentMin``
keeps the fastest time of each segment.  A wrapper costs about a
quarter of a microsecond per call, against tens to hundreds of
microseconds for the call it stamps.
"""

from contextlib import contextmanager
from time import perf_counter

import numpy as np

STAMPED = (
    (np.linalg, "eigh"),
    (np.linalg, "eigvalsh"),
    (np.linalg, "svd"),
    (np.linalg, "solve"),
    (np, "einsum"),
)


class Checkpoints:
    """Timestamps of the stamped calls since the last ``clear``."""

    def __init__(self):
        self.ticks = []

    def clear(self):
        self.ticks.clear()

    @contextmanager
    def installed(self):
        saved = [(module, name, getattr(module, name))
                 for module, name in STAMPED]
        tick = self.ticks.append

        def stamp(fn):
            def stamped(*args, **kwargs):
                tick(perf_counter())
                return fn(*args, **kwargs)
            return stamped

        try:
            for module, name, fn in saved:
                setattr(module, name, stamp(fn))
            yield self
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)


class SegmentMin:
    """Fastest time of each segment of one repeated operation.

    ``add`` takes the operation's interval and the stamps inside it.  A
    repetition that cuts the operation into a different number of
    segments than the first one did (the work is not the same) makes the
    estimate fall back to the fastest whole operation.
    """

    def __init__(self):
        self.best = None
        self.fastest_whole = float("inf")
        self.repeats = 0
        self.misaligned = 0

    def add(self, start, end, ticks):
        inside = [t for t in ticks if start <= t < end]
        segments = np.diff(np.array([start, *inside, end]))
        self.repeats += 1
        self.fastest_whole = min(self.fastest_whole, end - start)
        if self.best is None:
            self.best = segments
        elif len(self.best) == len(segments):
            np.minimum(self.best, segments, out=self.best)
        else:
            self.misaligned += 1

    @property
    def segments(self):
        return 0 if self.best is None else len(self.best)

    @property
    def longest(self):
        return 0.0 if self.best is None else float(self.best.max())

    def seconds(self):
        """Sum of the fastest segment times: the operation's time in a
        fast phase of the host."""
        if self.best is None:
            return 0.0
        if self.misaligned:
            return self.fastest_whole
        return float(self.best.sum())
