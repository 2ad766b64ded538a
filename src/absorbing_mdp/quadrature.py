"""Adaptive quadrature for evaluator-only integrands.

Two rules share one loop shape: the worst interval is bisected first until
the summed local error estimates fall to the tolerance, or the interval
budget runs out and `QuadratureError` carries the best value reached.

* `kronrod_quadrature` applies the 15-point Kronrod rule with its embedded
  7-point Gauss rule (QUADPACK's QK15) to each interval; the Kronrod value
  is the local value and |K15 - G7| the local error estimate.  K15 is exact
  for polynomials of degree 22 and G7 for degree 13, so smooth integrands
  converge in few intervals.  `measure.integrate` uses it for functions
  declared `CONTINUOUS`.
* `adaptive_quadrature` carries a Simpson rule and its two-half refinement;
  the Richardson combination of the pair is the local value and their
  scaled disagreement the local error estimate, so smooth integrands
  converge at fifth order and an interval straddling a kink or a jump keeps
  shrinking geometrically under worst-first bisection with few samples.
  `measure.integrate` uses it for `CARATHEODORY` and `MEASURABLE`
  functions.

`measure.integrate` passes a test function in as one sampler per integral,
the point, segment and action fixed when it is built: a float sample is
checked for finiteness and against the function's bound inline, without
being boxed into a `Number`; any other sample takes the checks and errors
of `TestFunction.sample`.

Caveat: the returned error of either rule is an estimate, not a bound.  It
is pessimistic for smooth integrands.  A kink or a jump inside an interval
can make it too small (|K15 - G7| can under-report the kink |x - c| several
times over), indicator-type integrands are assumed to be of bounded
variation, and a pathological evaluator can defeat either rule.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

# QK15 on [-1, 1] (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner,
# QUADPACK, 1983): the node pairs +-x, largest first, split into those of
# the Kronrod rule alone and those it shares with the 7-point Gauss rule;
# the centre node 0 belongs to both.
_KRONROD_ONLY = (  # (x, Kronrod weight)
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649),
)
_GAUSS = (  # (x, Kronrod weight, Gauss weight)
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
)
_CENTRE_K = 0.209482141084727828012999174891714
_CENTRE_G = 0.417959183673469387755102040816327


class QuadratureError(Exception):
    """Budget exhausted before the tolerance was met.

    Carries the best estimate so callers can still report something.
    """

    def __init__(self, value: float, err: float, tol: float):
        self.value = value
        self.err = err
        self.tol = tol
        super().__init__(f"quadrature stalled at err={err:.3e} > tol={tol:.3e}")


def _kronrod_15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """(K15 value, |K15 - G7|) of f over [a, b]."""
    h = (b - a) / 2.0
    c = a + h
    fc = f(c)
    k = _CENTRE_K * fc
    g = _CENTRE_G * fc
    for x, wk, wg in _GAUSS:
        d = h * x
        pair = f(c - d) + f(c + d)
        k += wk * pair
        g += wg * pair
    for x, wk in _KRONROD_ONLY:
        d = h * x
        k += wk * (f(c - d) + f(c + d))
    return k * h, abs(k - g) * h


def kronrod_quadrature(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    max_intervals: int = 4096,
) -> tuple[float, float]:
    """Integrate f over [lo, hi] by adaptive G7-K15; returns (value, error
    estimate).  The interval values are summed with `math.fsum`."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    heappush, heappop = heapq.heappush, heapq.heappop
    heap = []  # (-err, a, b, value, err)
    total_err = 0.0
    count = 0
    fresh = ((lo, hi),)
    while True:
        for a, b in fresh:
            v, e = _kronrod_15(f, a, b)
            heappush(heap, (-e, a, b, v, e))
            total_err += e
        count += 1
        if not total_err > tol:
            return math.fsum(item[3] for item in heap), total_err
        if count >= max_intervals:
            raise QuadratureError(math.fsum(item[3] for item in heap), total_err, tol)
        _, a, b, _, e = heappop(heap)
        total_err -= e
        m = a + (b - a) / 2.0
        fresh = ((a, m), (m, b))


def adaptive_quadrature(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    max_intervals: int = 4096,
) -> tuple[float, float]:
    """Integrate f over [lo, hi] by adaptive Simpson; returns (value,
    error estimate)."""
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
