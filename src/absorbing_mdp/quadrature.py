"""Adaptive quadrature for evaluator-only integrands.

Bisects the worst interval first.  Each interval carries a Simpson rule and
its two-half refinement; the Richardson combination of the pair is the local
value and their scaled disagreement the local error estimate, so smooth
integrands converge at fifth order and an interval straddling a jump keeps
shrinking geometrically under worst-first bisection.

`measure.integrate` passes test functions in through `TestFunction.sample`:
a float sample is checked for finiteness and against the function's bound
without being boxed into a `Number`; any other sample type takes the same
checks as `TestFunction.evaluate`.

Caveat: the returned bound is an estimate, sharp for smooth integrands and
reliable for piecewise-smooth ones with finitely many jumps.  For
indicator-type integrands it assumes bounded variation; a pathological
evaluator can defeat it.
"""

from __future__ import annotations

import heapq
from typing import Callable


class QuadratureError(Exception):
    """Budget exhausted before the tolerance was met.

    Carries the best estimate so callers can still report something.
    """

    def __init__(self, value: float, err: float, tol: float):
        self.value = value
        self.err = err
        self.tol = tol
        super().__init__(f"quadrature stalled at err={err:.3e} > tol={tol:.3e}")


def adaptive_quadrature(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    max_intervals: int = 4096,
) -> tuple[float, float]:
    """Integrate f over [lo, hi]; returns (value, error bound)."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    heappush, heappop = heapq.heappush, heapq.heappop
    # heap items: (-err, a, b, fa, flm, fm, frm, fb, value, err)
    heap = []
    total_err = 0.0
    count = 0
    # intervals (a, b, fa, fm, fb) waiting for their Simpson refinement
    fresh = ((lo, hi, f(lo), f(lo + (hi - lo) / 2.0), f(hi)),)
    while True:
        for a, b, fa, fm, fb in fresh:
            m = a + (b - a) / 2.0
            flm = f(a + (m - a) / 2.0)
            frm = f(m + (b - m) / 2.0)
            s1 = (fa + 4.0 * fm + fb) * (b - a) / 6.0
            s2 = (fa + 4.0 * flm + 2.0 * fm + 4.0 * frm + fb) * (b - a) / 12.0
            # /10 rather than the asymptotic /15 keeps a margin of safety
            e = abs(s2 - s1) / 10.0
            heappush(heap, (-e, a, b, fa, flm, fm, frm, fb, s2 + (s2 - s1) / 15.0, e))
            total_err += e
        count += 1
        if not total_err > tol:
            return sum(item[8] for item in heap), total_err
        if count >= max_intervals:
            value = sum(item[8] for item in heap)
            raise QuadratureError(value, total_err, tol)
        _, a, b, fa, flm, fm, frm, fb, _, e = heappop(heap)
        total_err -= e
        m = a + (b - a) / 2.0
        fresh = ((a, m, fa, flm, fm), (m, b, fm, frm, fb))
