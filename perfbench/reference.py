"""A fixed pure-Python task that gauges how fast the machine runs now.

On a shared machine other tenants slow the whole process by 20-60% in
phases that last from a fraction of a second to many minutes, so two
runs of the same code can differ by more than any useful bound.  The
benchmark times this task between items and scales every end-to-end
timing by ``REF_S / <its median time in the run>``: timings then read
as at the speed where the task takes ``REF_S``.

The task uses none of the library, so no change to the library moves
it.  It does what the library's hot paths do -- integer-keyed dict
updates, exact ``Fraction`` elimination, tuples hashed into sets -- so
contention slows it about as much as it slows them.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# about the task's median time in runs on the 2-core x86-64 host the
# benchmark was sized on; any constant would do, this one keeps the
# scaled timings close to real seconds there
REF_S = 0.009


def task() -> int:
    # products of Laurent-like polynomials over int dicts
    p = {k: (k * 7919) % 13 - 6 for k in range(-20, 21)}
    acc = {0: 1}
    for _ in range(6):
        out: dict[int, int] = {}
        for a, x in acc.items():
            for b, y in p.items():
                out[a + b] = out.get(a + b, 0) + x * y
        acc = {k: v % 1000003 for k, v in out.items() if v}
    # exact elimination on a small rational matrix
    n = 9
    m = [[Fraction((i * 31 + j * 17) % 11 - 5, 1 + (i + j) % 3) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            continue
        m[c], m[piv] = m[piv], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    # tuples hashed into small sets
    sizes = 0
    for block in range(8):
        seen = {(i % 97, (i * 13 + block) % 89, i & 7) for i in range(500)}
        sizes += len(sorted(seen))
    return len(acc) + sizes


def sample() -> float:
    """Seconds one run of the task takes now.  The collector is off
    while it runs, so the library's heap does not reach into it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        task()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
