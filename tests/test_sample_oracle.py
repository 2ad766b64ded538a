"""The unboxed quadrature paths against their boxed references.

* `TestFunction.sample` must give `float(evaluate(...).value)` bit for bit,
  or raise the same exception type with the same message.
* `PiecewisePoly.integral` (which starts at the first overlapping piece and
  skips exact zero coefficients between exact limits) must give what the
  plain loop over every piece and coefficient gives, kept here as
  `reference_integral`: equal exact values, bit-identical floats.
* `adaptive_quadrature`, with its Simpson refinement inline, must take the
  same samples and return the same bits as the loop that calls a separate
  refinement function, kept here as `reference_quadrature`.
* The sampler's checks must still fire from inside `integrate` on every
  quadrature route.
"""

import heapq
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from absorbing_mdp import (
    ActionAtom,
    ActionDensity,
    ActionMixture,
    BoundViolation,
    CONTINUOUS,
    Domain,
    HybridMeasure,
    IntervalActions,
    MeasureComponent,
    MeasureError,
    Number,
    ONE,
    PiecewisePoly,
    StateAtom,
    StateDensity,
    StatePoint,
    TestFunction,
    integrate,
)
from absorbing_mdp.measure import CoverageError
from absorbing_mdp.quadrature import QuadratureError, adaptive_quadrature

from conftest import segment_space

F = Fraction


class Tagged(float):
    """A float subclass: must take the boxed path, not the float fast path."""


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def outcome(call):
    """('ok', type, bits) or ('raise', type, message) for one call."""
    try:
        v = call()
    except Exception as exc:  # compared below, type and message
        return ("raise", type(exc), str(exc))
    return ("ok", type(v), bits(v))


# -- sample against evaluate -----------------------------------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
fractions = st.fractions(max_denominator=10 ** 6).filter(lambda q: abs(q) < 10 ** 6)

raw_values = st.one_of(
    finite_floats,
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 1.0 + 1e-12, 1.0 + 2e-12]),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=-5, max_value=5),
    fractions,
    fractions.map(Number.lift),
    st.tuples(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=2.0),
    ).map(lambda ve: Number.approx(*ve)),
    st.one_of(finite_floats, st.sampled_from([math.nan, math.inf, 1.5])).map(Tagged),
    st.just("not a number"),
)

bounds = st.one_of(
    st.fractions(min_value=0, max_value=4, max_denominator=64),
    st.floats(min_value=0.0, max_value=4.0),
)


@settings(max_examples=400, deadline=None)
@given(raw=raw_values, bound=bounds, arity=st.sampled_from(["state", "state_action"]))
def test_sample_matches_evaluate(raw, bound, arity):
    if arity == "state":
        ev = lambda p: raw
    else:
        ev = lambda p, a: raw
    g = TestFunction("g", CONTINUOUS, ev, bound=bound, arity=arity)
    p = StatePoint(segment="seg", coord=F(1, 2))
    a = None if arity == "state" else F(1, 3)
    want = outcome(lambda: float(g.evaluate(p, a).value))
    got = outcome(lambda: g.sample(p, a))
    assert got == want


def test_sample_returns_the_float_itself():
    x = 0.1 + 0.2
    g = TestFunction("g", CONTINUOUS, lambda p: x, arity="state")
    assert g.sample(StatePoint(segment="seg", coord=F(0))) is x


def test_a_samples_err_widens_its_bound():
    p = StatePoint(segment="seg", coord=F(0))
    inside = TestFunction("g", CONTINUOUS, lambda p: Number.approx(1.5, 0.5), arity="state")
    assert inside.sample(p) == 1.5
    assert inside.evaluate(p) == Number.approx(1.5, 0.5)
    beyond = TestFunction("g", CONTINUOUS, lambda p: Number.approx(1.5, 0.49), arity="state")
    with pytest.raises(BoundViolation, match="evaluated to 1.5 beyond bound 1"):
        beyond.sample(p)
    with pytest.raises(BoundViolation, match="evaluated to 1.5 beyond bound 1"):
        beyond.evaluate(p)


def test_sample_needs_an_action_like_evaluate():
    g = TestFunction("g", CONTINUOUS, lambda p, a: 0.5)
    p = StatePoint(segment="seg", coord=F(0))
    with pytest.raises(MeasureError, match="needs an action"):
        g.sample(p)


# -- PiecewisePoly.integral against the plain loop -------------------------


def reference_integral(poly: PiecewisePoly, lo, hi):
    """Every piece, every coefficient, in order: the loop the trimmed one
    must reproduce."""
    if lo > hi:
        raise MeasureError("need lo <= hi")
    if lo < poly.breaks[0] or hi > poly.breaks[-1]:
        raise CoverageError("integration range escapes the piecewise range")
    total = 0
    for i, (a, b) in enumerate(zip(poly.breaks, poly.breaks[1:])):
        x0, x1 = max(a, lo), min(b, hi)
        if not x0 < x1:
            continue
        for j, c in enumerate(poly.coeffs[i]):
            if isinstance(c, int):
                c = Fraction(c)
            total = total + c * (x1 ** (j + 1) - x0 ** (j + 1)) / (j + 1)
    return total


coefficients = st.one_of(
    st.just(0),
    st.just(F(0)),
    st.just(0.0),
    st.just(-0.0),
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.floats(min_value=-4.0, max_value=4.0),
)


@st.composite
def polys_and_ranges(draw):
    exact_breaks = draw(st.booleans())
    if exact_breaks:
        pts = draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=16),
                            min_size=2, max_size=7, unique=True))
    else:
        pts = draw(st.lists(st.floats(min_value=-2.0, max_value=2.0),
                            min_size=2, max_size=7, unique=True))
    breaks = tuple(sorted(pts))
    coeffs = tuple(
        tuple(draw(st.lists(coefficients, min_size=1, max_size=4)))
        for _ in breaks[1:]
    )
    poly = PiecewisePoly(breaks, coeffs)
    # limits: breaks themselves, points inside, exact or float
    inside = st.one_of(
        st.sampled_from(breaks),
        st.fractions(min_value=0, max_value=1, max_denominator=64).map(
            lambda t: F(breaks[0]) + t * (F(breaks[-1]) - F(breaks[0]))),
        st.floats(min_value=float(breaks[0]), max_value=float(breaks[-1])),
    )
    lo, hi = sorted([draw(inside), draw(inside)])
    if lo < breaks[0] or hi > breaks[-1]:  # a float rounded out of range
        lo, hi = breaks[0], breaks[-1]
    return poly, lo, hi


def same_result(got, want):
    if isinstance(want, float):
        assert isinstance(got, float)
        assert bits(got) == bits(want)
    else:
        assert not isinstance(got, float)
        assert got == want


@settings(max_examples=500, deadline=None)
@given(case=polys_and_ranges())
def test_integral_matches_the_plain_loop(case):
    poly, lo, hi = case
    same_result(poly.integral(lo, hi), reference_integral(poly, lo, hi))


@settings(max_examples=200, deadline=None)
@given(case=polys_and_ranges(), heights=st.lists(
    st.fractions(min_value=0, max_value=3, max_denominator=8), min_size=1, max_size=4))
def test_integral_against_density_matches_the_plain_loop(case, heights):
    poly, lo, hi = case
    if not lo < hi:
        return
    n = len(heights)
    if isinstance(lo, float) or isinstance(hi, float):
        cuts = [lo + (hi - lo) * k / n for k in range(n + 1)]
    else:
        cuts = [lo + (hi - lo) * F(k, n) for k in range(n + 1)]
    cuts[0], cuts[-1] = lo, hi
    if any(not a < b for a, b in zip(cuts, cuts[1:])):
        return
    hs = [Number.lift(h) for h in heights]
    want = Number.lift(0)
    for a, b, h in zip(cuts, cuts[1:], hs):
        r = reference_integral(poly, a, b)
        want = want + h * (Number.approx(r) if isinstance(r, float) else Number.lift(r))
    got = poly.integral_against(tuple(cuts), tuple(hs))
    assert got.is_exact == want.is_exact
    assert got.value == want.value and got.err == want.err


def test_zero_coefficients_cost_no_power_term():
    class Limit(Fraction):
        """Counts the powers taken of it."""
        powers = 0

        def __pow__(self, k):
            Limit.powers += 1
            return Fraction(self) ** k

    square = PiecewisePoly((F(0), F(1, 2), F(1)), ((0, 0, 1), (0, F(0), 1)))
    got = square.integral(Limit(1, 4), Limit(3, 4))
    assert got == F(3, 4) ** 3 / 3 - F(1, 4) ** 3 / 3
    # each piece integrates x^2 alone: one power of its Limit end, not three
    assert Limit.powers == 2


# -- adaptive_quadrature against the loop with a separate refinement -------


def _reference_refine(f, a, b, fa, fm, fb):
    m = a + (b - a) / 2.0
    flm = f(a + (m - a) / 2.0)
    frm = f(m + (b - m) / 2.0)
    s1 = (fa + 4.0 * fm + fb) * (b - a) / 6.0
    s2 = (fa + 4.0 * flm + 2.0 * fm + 4.0 * frm + fb) * (b - a) / 12.0
    return s2 + (s2 - s1) / 15.0, abs(s2 - s1) / 10.0, flm, frm


def reference_quadrature(f, lo, hi, tol, max_intervals=4096):
    """The worst-first loop calling `_reference_refine` for every interval:
    the inlined loop must take the same samples and return the same bits."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    fa, fm, fb = f(lo), f(lo + (hi - lo) / 2.0), f(hi)
    val, err, flm, frm = _reference_refine(f, lo, hi, fa, fm, fb)
    heap = [(-err, lo, hi, fa, flm, fm, frm, fb, val, err)]
    count = 1
    total_err = err
    while total_err > tol:
        if count >= max_intervals:
            value = sum(item[8] for item in heap)
            raise QuadratureError(value, total_err, tol)
        _, a, b, fa, flm, fm, frm, fb, _, e = heapq.heappop(heap)
        total_err -= e
        m = a + (b - a) / 2.0
        for (x, y, fx, fmid, fy) in ((a, m, fa, flm, fm), (m, b, fm, frm, fb)):
            sv, se, sl, sr = _reference_refine(f, x, y, fx, fmid, fy)
            heapq.heappush(heap, (-se, x, y, fx, sl, fmid, sr, fy, sv, se))
            total_err += se
        count += 1
    return sum(item[8] for item in heap), total_err


def quadrature_outcome(quad, f, lo, hi, tol, max_intervals):
    """(samples taken, result bits or the stalled estimate's bits)."""
    seen = []

    def g(x):
        seen.append(bits(x))
        return f(x)

    try:
        v, e = quad(g, lo, hi, tol, max_intervals)
    except QuadratureError as exc:
        return seen, ("stalled", bits(exc.value), bits(exc.err))
    return seen, ("ok", bits(v), bits(e))


integrands = st.one_of(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=5).map(
        lambda cs: lambda x: sum(c * x ** j for j, c in enumerate(cs))),
    st.tuples(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-2.0, max_value=2.0)).map(
        lambda jh: lambda x: jh[1] if x > jh[0] else 0.25),
    st.floats(min_value=0.1, max_value=9.0).map(lambda w: lambda x: abs(x) ** 0.5 * w),
)


@settings(max_examples=300, deadline=None)
@given(
    f=integrands,
    ends=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2, max_size=2, unique=True),
    tol=st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12, 0.0]),
    max_intervals=st.sampled_from([1, 2, 7, 64, 4096]),
)
def test_quadrature_matches_the_reference_loop(f, ends, tol, max_intervals):
    lo, hi = sorted(ends)
    assert (quadrature_outcome(adaptive_quadrature, f, lo, hi, tol, max_intervals)
            == quadrature_outcome(reference_quadrature, f, lo, hi, tol, max_intervals))


# -- the checks still fire inside integrate --------------------------------


def _domain():
    return Domain(segment_space(), IntervalActions())


def _state_density():
    return StateDensity("seg", (F(0), F(1, 2), F(1)), (ONE, ONE))


def _action_density():
    return ActionDensity((F(0), F(1)), (ONE,))


ROUTES = {
    # state-only function against a state density
    "state-density": (
        "state",
        lambda: MeasureComponent(_state_density(), None, ONE),
    ),
    # joint function, state atom x action density
    "action-density": (
        "state_action",
        lambda: MeasureComponent(StateAtom(StatePoint(segment="seg", coord=F(1, 3))),
                                 _action_density(), ONE),
    ),
    # joint function, state atom x a mixture of an action atom and an action
    # density, taken part by part
    "action-mixture": (
        "state_action",
        lambda: MeasureComponent(StateAtom(StatePoint(segment="seg", coord=F(1, 3))),
                                 ActionMixture(((Number.exact(1, 2), ActionAtom(F(1, 3))),
                                                (Number.exact(1, 2), _action_density()))), ONE),
    ),
    # joint function, state density x action atom
    "state-density-action-atom": (
        "state_action",
        lambda: MeasureComponent(_state_density(), ActionAtom(F(1, 3)), ONE),
    ),
    # joint function, state density x action density (nested quadrature)
    "nested": (
        "state_action",
        lambda: MeasureComponent(_state_density(), _action_density(), ONE),
    ),
}

BAD = {
    # out of bound only past 0.6 in the integrated variable, float fast path
    "beyond-bound": (BoundViolation, "beyond bound 1", lambda t: 2.5 if t > 0.6 else 0.5),
    "nan": (ValueError, "non-finite value nan", lambda t: math.nan if t > 0.6 else 0.5),
    "inf": (ValueError, "non-finite value inf", lambda t: math.inf if t > 0.6 else 0.5),
    # a Fraction sample takes the boxed path
    "exact-beyond-bound": (BoundViolation, "beyond bound 1", lambda t: F(3) if t > 0.6 else F(1, 2)),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("bad", sorted(BAD))
def test_sample_checks_fire_inside_integrate(route, bad):
    arity, component = ROUTES[route]
    exc_type, message, value = BAD[bad]
    if arity == "state":
        ev = lambda p: value(float(p.coord))
    elif route in ("action-density", "action-mixture"):
        ev = lambda p, a: value(float(a))
    else:
        ev = lambda p, a: value(float(p.coord))
    g = TestFunction("bad", CONTINUOUS, ev, bound=F(1), arity=arity)
    mu = HybridMeasure(_domain(), (component(),))
    with pytest.raises(exc_type, match=message):
        integrate(mu, g, tol=1e-6)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_good_samples_integrate_on_every_route(route):
    # the control for the test above: each route integrates in-bound samples
    arity, component = ROUTES[route]
    ev = (lambda p: 0.5) if arity == "state" else (lambda p, a: 0.5)
    g = TestFunction("half", CONTINUOUS, ev, bound=F(1), arity=arity)
    mu = HybridMeasure(_domain(), (component(),))
    got = integrate(mu, g, tol=1e-6)
    assert abs(float(got.value) - 0.5 * float(mu.total_mass().value)) <= float(got.err) + 1e-12
