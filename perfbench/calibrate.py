"""Machine-speed calibration for timings taken on a shared host.

Other tenants of a shared host slow this process by up to half, for
stretches from a second to minutes, so raw pass times of the same code
spread by a third between runs.  A fixed chunk of exact rational
elimination, in the standard library only and so the same on every
commit, slows with them.  The calibrator times BOUNDARY_SAMPLES such
chunks at the start and at the end of every pass and, where the
workload offers, one between its operations at most every EVERY_S
seconds.  Times are then scaled by REF_S over the time of the chunks
around them: they read as seconds on a machine where one chunk takes
REF_S.

On a 2-core shared KVM guest, raw median pass times of the same code
spread by up to 38% (quartile distance over median) between sets of ten
25-second runs; scaled, every workload's wall and op times spread by
under 6% over ten runs.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

EVERY_S = 0.25
REF_S = 0.015
CHUNK_REPEATS = 6
BOUNDARY_SAMPLES = 2

_RNG = random.Random(20040412)
_MATRIX = [[_RNG.randint(-9, 9) for _ in range(10)] for _ in range(8)]


def chunk() -> int:
    """Row-reduce a fixed 8 x 10 integer matrix over Fraction, repeatedly.

    Returns the rank, so that the work cannot be skipped.
    """
    rank = 0
    for _ in range(CHUNK_REPEATS):
        m = [[Fraction(v) for v in row] for row in _MATRIX]
        rank = 0
        for c in range(len(m[0])):
            p = next((i for i in range(rank, len(m)) if m[i][c]), None)
            if p is None:
                continue
            m[rank], m[p] = m[p], m[rank]
            inv = 1 / m[rank][c]
            m[rank] = [x * inv for x in m[rank]]
            for i in range(len(m)):
                if i != rank and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
            rank += 1
    return rank


class Calibrator:
    """Chunk times of the current pass, and where its operations fall.

    Use start_pass, then between_ops before each operation (outside its
    timing), then end_pass.
    """

    def __init__(self):
        self.history = []  # every chunk time of the run
        self._pass = []  # chunk times of the current pass
        self._marks = []  # per operation: chunks taken before it began
        self._inside = 0.0  # wall seconds spent on chunks inside the pass
        self._due = 0.0

    def _sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not slow the chunk
        t0 = time.perf_counter()
        try:
            chunk()
        finally:
            t1 = time.perf_counter()
            if enabled:
                gc.enable()
        self._pass.append(t1 - t0)
        self.history.append(t1 - t0)
        self._due = time.perf_counter() + EVERY_S
        return time.perf_counter() - t0

    def start_pass(self) -> None:
        self._pass, self._marks, self._inside = [], [], 0.0
        for _ in range(BOUNDARY_SAMPLES):
            self._sample()

    def between_ops(self) -> None:
        """Sample if one is due, and mark where the next operation falls."""
        if time.perf_counter() >= self._due:
            self._inside += self._sample()
        self._marks.append(len(self._pass))

    def end_pass(self, wall: float, ops: list[float]):
        """Raw and scaled wall time of the pass, and its scaled op times.

        wall is the raw time of the whole pass, chunks inside it
        included; the raw time returned leaves them out.  Each operation
        is scaled by the chunks just before and just after it.  The rest
        of the pass, and every operation when between_ops did not mark
        them one to one, is scaled by the mean of all the pass's chunks.
        """
        for _ in range(BOUNDARY_SAMPLES):
            self._sample()
        whole = REF_S / statistics.fmean(self._pass)
        if len(self._marks) == len(ops):
            scales = [2 * REF_S / (self._pass[m - 1] + self._pass[m])
                      for m in self._marks]
        else:
            scales = [whole] * len(ops)
        raw = wall - self._inside
        scaled_ops = [op * k for op, k in zip(ops, scales)]
        return raw, sum(scaled_ops) + (raw - sum(ops)) * whole, scaled_ops
