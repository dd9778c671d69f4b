"""A fixed reference computation that measures the host's current speed.

The benchmark's host is a few cores of a shared machine whose speed changes
in phases of seconds to minutes, by 20-30%.  The benchmark times this
computation between the jobs of a pass and divides each job's time by it, so
a slow phase that stretches a job stretches the reference beside it too.

The computation never touches the package under test: it is exact rational
elimination on sparse dict rows with ``fractions.Fraction``, the kind of
work the package spends its time on, so a change to the package cannot move
it.  The garbage collector is off while it runs, so the size of the
package's heap does not move it either.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

SIZE = 18
REPEATS = 3
# The median of 837 reference times measured on the 2-CPU x86_64 host the
# bounds were set on.  It only scales the normalised times back to seconds;
# it never changes their spread.
REFERENCE_SECONDS = 0.0147


def _matrix() -> list[dict[int, Fraction]]:
    rng = random.Random(20230612)
    rows = []
    for _ in range(SIZE):
        cols = rng.sample(range(SIZE), SIZE // 2)
        rows.append({c: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7)) for c in cols})
    return rows


def reference_work() -> int:
    """Rank of a fixed sparse rational matrix by Gauss-Jordan elimination."""
    rows = _matrix()
    rank = 0
    for col in range(SIZE):
        pivot = next((r for r in range(rank, SIZE) if rows[r].get(col)), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        prow = {c: v * inv for c, v in rows[rank].items()}
        rows[rank] = prow
        for r in range(SIZE):
            f = rows[r].get(col) if r != rank else None
            if f:
                row = dict(rows[r])
                for c, v in prow.items():
                    x = row.get(c, 0) - f * v
                    if x:
                        row[c] = x
                    else:
                        row.pop(c, None)
                rows[r] = row
        rank += 1
    return rank


def reference_seconds() -> float:
    """Median wall time of ``REPEATS`` runs of the reference computation."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
