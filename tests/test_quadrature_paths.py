"""Evaluator-only quadrature against the per-sample loop it replaced.

`measure` integrates an evaluator-only function against a density with one
checked sampler per integral (`_sampler`), one float cell plan per density
(`_cell_plan`) and the cell sum in floats (`numbers._add_product`).  The
loop that wrapped every sample in `TestFunction.sample` and summed each
cell as a `Number` is kept here as the reference: `reference_sample`,
`reference_density_quad`, `reference_state_density_integral` and
`reference_pure_integral`.

On every route (a state density under a state-only function, a state atom
x an action density, a state density x an action atom, and the nested
state density x action density), under both rules (G7-K15 for `CONTINUOUS`,
Simpson for `MEASURABLE`), with exact and float heights, the two must make
the same evaluator calls in the same order (segment or atom, coordinate,
action), and give the same value and err bits or raise the same exception
type with the same message (and, for `IntegrationError`, the same best
value and err).
"""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from absorbing_mdp import (
    ActionAtom,
    ActionDensity,
    BoundViolation,
    CONTINUOUS,
    MEASURABLE,
    MeasureError,
    Number,
    StateAtom,
    StateDensity,
    StatePoint,
    TestFunction,
    ZERO,
)
from absorbing_mdp.measure import IntegrationError, _pure_integral, _state_density_integral
from absorbing_mdp.numbers import _add_product
from absorbing_mdp.quadrature import QuadratureError, adaptive_quadrature, kronrod_quadrature
from absorbing_mdp.spaces import _segment_point

F = Fraction


# -- the reference: every sample through the parent's `sample` ---------------


def reference_sample(g, point, action=None):
    if g.arity == "state":
        raw = g.evaluator(point)
    else:
        if action is None:
            raise MeasureError(f"{g.name!r} needs an action argument")
        raw = g.evaluator(point, action)
    if type(raw) is not float:
        return float(g._checked(raw).value)
    if not math.isfinite(raw):
        raise ValueError(f"non-finite value {raw!r}")
    if abs(raw) > g._limit:
        raise BoundViolation(f"{g.name!r} evaluated to {raw} beyond bound {g.bound}")
    return raw


def reference_quad(f, lo, hi, tol, declared_class):
    rule = kronrod_quadrature if declared_class == CONTINUOUS else adaptive_quadrature
    try:
        return rule(f, lo, hi, tol)
    except QuadratureError as exc:
        raise IntegrationError(str(exc), value=exc.value, err=exc.err) from exc


def reference_density_quad(breaks, heights, f, tol, declared_class):
    total = ZERO
    budget = tol / len(heights)
    for a, b, h in zip(breaks, breaks[1:], heights):
        hv = max(float(h.value), 1e-30)
        v, e = reference_quad(f, float(a), float(b), budget / hv, declared_class)
        total = total + h * Number.approx(v, e)
    return total


def reference_state_density_integral(d, g, tol):
    f = lambda x: reference_sample(g, _segment_point(d.segment, x))
    return reference_density_quad(d.breaks, d.heights, f, tol, g.declared_class)


def reference_pure_integral(s, a, g, tol):
    if isinstance(s, StateAtom):
        f = lambda t: reference_sample(g, s.point, t)
        return reference_density_quad(a.breaks, a.heights, f, tol, g.declared_class)
    if isinstance(a, ActionAtom):
        f = lambda x: reference_sample(g, _segment_point(s.segment, x), a.action)
        return reference_density_quad(s.breaks, s.heights, f, tol, g.declared_class)
    smass = max(float(s.mass().value), 1e-30)
    inner_tol = tol / (2.0 * smass)

    def outer(x):
        p = _segment_point(s.segment, x)
        f = lambda t: reference_sample(g, p, t)
        inner = reference_density_quad(a.breaks, a.heights, f, inner_tol, g.declared_class)
        return float(inner.value)

    got = reference_density_quad(s.breaks, s.heights, outer, tol / 2.0, g.declared_class)
    return Number.approx(float(got.value), float(got.err) + smass * inner_tol)


# -- outcomes ----------------------------------------------------------------


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


def outcome(call):
    """('ok', exact?, value bits, err bits), or ('raise', type, message,
    and an IntegrationError's best value and err)."""
    try:
        r = call()
    except IntegrationError as exc:
        return ("raise", IntegrationError, str(exc), bits(exc.value), bits(exc.err))
    except Exception as exc:  # compared by type and message
        return ("raise", type(exc), str(exc))
    return ("ok", r.is_exact, bits(r.value), bits(r.err))


class Tagged(float):
    """A float subclass: must take the boxed path, not the float fast path."""


def _where(p):
    return p.atom if p.atom is not None else (p.segment, p.coord)


def _u(p, t):
    """One coordinate in [0, 2] from the point and the action."""
    x = 0.5 if p.coord is None else float(p.coord)
    return x if t is None else x + float(t)


# each evaluator kind: the value at u = _u(p, t), and c in (0, 2) for the
# kinds that go wrong only past it
KINDS = {
    "float": lambda u, c: 0.75 * math.sin(3.0 * u + c),
    "int": lambda u, c: 1 if u > c else 0,
    "fraction": lambda u, c: F(round(4 * u), 9),
    "exact-number": lambda u, c: Number(F(round(4 * u), 9)),
    "float-number": lambda u, c: Number.approx(0.5 * math.cos(u), 0.001),
    "number-widened": lambda u, c: Number.approx(1.0005, 0.001) if u > c else Number.approx(0.5, 0.0),
    "tagged": lambda u, c: Tagged(0.3 * math.cos(5.0 * u)),
    "edge": lambda u, c: 1.0 + 1e-12 if u > c else -1.0 - 1e-12,
    "nan": lambda u, c: math.nan if u > c else 0.25,
    "inf": lambda u, c: -math.inf if u > c else 0.25,
    "beyond": lambda u, c: 1.0 + 2e-12 if u > c else 0.25,
    "exact-beyond": lambda u, c: F(3, 2) if u > c else F(1, 4),
    "tagged-nan": lambda u, c: Tagged(math.nan) if u > c else Tagged(0.5),
    "string": lambda u, c: "not a number" if u > c else 0.25,
}


# evaluations per integral: a nested staircase at a tight tol can take
# millions, and both sides stop at the same call
CALLS = 20_000


class OutOfCalls(Exception):
    pass


def recorded(value, c, arity, calls, most):
    def ev(p, t=None):
        if len(calls) == most:
            raise OutOfCalls(f"{most} evaluations")
        calls.append((_where(p), t))
        return value(_u(p, t), c)

    return (lambda p: ev(p)) if arity == "state" else ev


heights = st.one_of(
    st.fractions(min_value=0, max_value=5, max_denominator=7).map(Number),
    st.tuples(st.floats(min_value=0.0, max_value=5.0),
              st.sampled_from([0.0, 1e-9, 0.25])).map(lambda ve: Number.approx(*ve)),
)


@st.composite
def pieces(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    cuts = sorted(draw(st.lists(st.integers(min_value=1, max_value=15), min_size=n - 1,
                                max_size=n - 1, unique=True)))
    exact = draw(st.booleans())
    breaks = tuple([F(0)] + [F(k, 16) for k in cuts] + [F(1)])
    if not exact:
        breaks = tuple(float(b) for b in breaks)
    return breaks, tuple(draw(st.lists(heights, min_size=n, max_size=n)))


ROUTES = ("state-only", "atom-state-action-density", "state-density-action-atom", "nested")


@st.composite
def cases(draw):
    route = draw(st.sampled_from(ROUTES))
    arity = "state" if route == "state-only" else "state_action"
    sb, sh = draw(pieces())
    ab, ah = draw(pieces())
    if route == "atom-state-action-density":
        point = draw(st.sampled_from([StatePoint(atom="start"), StatePoint(segment="seg", coord=F(1, 3))]))
        s = StateAtom(point)
    else:
        s = StateDensity("seg", sb, sh)
    a = ActionAtom(draw(st.sampled_from([F(1, 4), 0.625]))) if route == "state-density-action-atom" else ActionDensity(ab, ah)
    return {
        "route": route,
        "arity": arity,
        "s": s,
        "a": a,
        "kind": draw(st.sampled_from(sorted(KINDS))),
        "c": draw(st.floats(min_value=0.05, max_value=1.95)),
        "cls": draw(st.sampled_from([CONTINUOUS, MEASURABLE])),
        "bound": draw(st.sampled_from([F(1), 1.0, F(3, 2)])),
        "tol": draw(st.sampled_from([1e-4, 1e-6, 1e-8])),
    }


def run(case, state_density_integral, pure_integral, most):
    calls = []
    ev = recorded(KINDS.get(case["kind"], case["kind"]), case["c"], case["arity"], calls, most)
    g = TestFunction("g", case["cls"], ev, bound=case["bound"], arity=case["arity"])
    if case["route"] == "state-only":
        got = outcome(lambda: state_density_integral(case["s"], g, case["tol"]))
    else:
        got = outcome(lambda: pure_integral(case["s"], case["a"], g, case["tol"]))
    return got, calls


def assert_same(case, most=CALLS):
    want = run(case, reference_state_density_integral, reference_pure_integral, most)
    got = run(case, _state_density_integral, _pure_integral, most)
    assert got[0] == want[0]
    assert got[1] == want[1]
    return got[0]


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_every_route_matches_the_per_sample_loop(case):
    assert_same(case)


# -- a rule that stalls ------------------------------------------------------


@pytest.mark.parametrize("cls", [CONTINUOUS, MEASURABLE])
@pytest.mark.parametrize("route", ROUTES)
def test_a_stalled_rule_matches_the_per_sample_loop(route, cls):
    if route == "atom-state-action-density":
        s = StateAtom(StatePoint(segment="seg", coord=F(1, 3)))
    else:
        s = StateDensity("seg", (F(0), F(1, 2), F(1)), (Number(F(1, 2)), Number.approx(1.5, 1e-9)))
    a = ActionAtom(F(1, 4)) if route == "state-density-action-atom" else ActionDensity((F(0), F(1)), (Number(F(1)),))
    # bounded, but far more periods than 4,096 intervals can resolve
    fast_wave = lambda u, c: math.sin(1e6 * u)
    case = {"route": route, "arity": "state" if route == "state-only" else "state_action",
            "s": s, "a": a, "kind": fast_wave, "c": 1.0, "cls": cls, "bound": F(1), "tol": 1e-9}
    # a stalled G7-K15 takes 8,191 intervals of 15 samples
    got = assert_same(case, most=150_000)
    assert got[:2] == ("raise", IntegrationError) and "quadrature stalled" in got[2]


# -- TestFunction.sample keeps the parent's contract --------------------------


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)), u=st.floats(min_value=0.0, max_value=2.0),
       bound=st.sampled_from([F(1), 1.0, F(1, 2)]), arity=st.sampled_from(["state", "state_action"]))
def test_sample_matches_the_parent_sample(kind, u, bound, arity):
    point = StatePoint(segment="seg", coord=F(1, 2))
    ev = (lambda p: KINDS[kind](u, 1.0)) if arity == "state" else (lambda p, t: KINDS[kind](u, 1.0))
    g = TestFunction("g", CONTINUOUS, ev, bound=bound, arity=arity)
    action = None if arity == "state" else 0.5

    def result(sample):
        try:
            return ("ok", bits(sample(point, action)))
        except Exception as exc:
            return ("raise", type(exc), str(exc))

    assert result(g.sample) == result(lambda p, t: reference_sample(g, p, t))


# -- the float cell sum against Number arithmetic ----------------------------


cell_values = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 0.0, -0.0]),
)
cell_errs = st.one_of(
    st.floats(min_value=0.0, max_value=1e-6),
    st.sampled_from([0.0, 1e-9, 0.25, 1e308, math.inf, math.nan, -1.0]),
)
cell_heights = st.one_of(
    heights,
    st.fractions(min_value=0, max_value=10 ** 300, max_denominator=3).map(Number),
    st.tuples(st.floats(min_value=0.0, max_value=1e300), st.floats(min_value=0.0, max_value=1e300)).map(
        lambda ve: Number.approx(*ve)),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(cell_heights, cell_values, cell_errs), min_size=1, max_size=6))
def test_the_float_cell_sum_matches_number_arithmetic(cells):
    def boxed():
        total = ZERO
        for h, v, e in cells:
            total = total + h * Number.approx(v, e)
        return total

    def unboxed():
        total = err = 0.0
        for h, v, e in cells:
            total, err = _add_product(total, err, float(h.value), float(h.err), v, e)
        return Number.approx(total, err)

    assert outcome(unboxed) == outcome(boxed)
