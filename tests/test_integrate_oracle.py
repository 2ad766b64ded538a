"""`integrate`'s one in-order pass against the plain loop over components.

`integrate` takes each component's share in turn: a state atom's value at
each action atom kept as an integer pair while exact, the cells of an exact
state density against a structured function grouped by (segment, action)
with integer moments summed per polynomial piece, and anything else through
the per-component route; from the first inexact share on, the shares are
added as Numbers in order.  The plain loop, one Number share per component,
is kept here as `reference_integrate`.  Against it, `integrate` must give:

* equal exact values, with err 0, on exact measures (atom or mixture-of-atom
  action parts, at least one state density) and structured functions, and
  unchanged exact values on atom-only measures;
* the same exception, type and message, wherever the loop raises one:
  an uncovered segment or atom, a density escaping the polynomial's range
  (even under a zero action factor), a missing action value, a joint
  function on a marginal;
* bit-identical floats wherever a float enters, in the measure or in a value
  the function takes.

On functions without a structured form (their values int, Fraction, exact or
float Numbers, floats, values past the bound, or a bad type, at random
atoms; quadrature on densities), against atom-only measures and measures
mixing atoms, densities and mixtures, exact and float weights, `integrate`
must give the reference's outcome and call the evaluator in the same
sequence, each atom once per action atom.

`integrate` keeps each (measure, function, tolerance) result, and the
measure's cell table for each arity, while the measure lives; the last
tests check what it keeps and what it drops.
"""

import dataclasses
import gc
import math
import struct
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from absorbing_mdp import (
    ActionAtom,
    ActionDensity,
    ActionFactor,
    ActionMixture,
    AtomDecl,
    CONTINUOUS,
    Domain,
    FiniteActions,
    BoundViolation,
    HybridMeasure,
    IntervalActions,
    MEASURABLE,
    MeasureComponent,
    MeasureError,
    Number,
    ONE,
    PiecewisePoly,
    SegmentDecl,
    StateAtom,
    StateDensity,
    StateFactor,
    StateSpace,
    TestFunction,
    ZERO,
    integrate,
    marginal_state,
    structured_joint_function,
    structured_state_function,
)
from absorbing_mdp import determinism_defect, measure, nsum, occupation_unroll, topology
from absorbing_mdp.measure import (
    DEFAULT_INTEGRATE_TOL,
    CoverageError,
    IntegrationError,
    _pure_integral,
    _state_density_integral,
    _wrap_value,
    action_mass,
)

from absorbing_mdp.zoo import remark1

F = Fraction

SEGMENTS = {"s": (F(0), F(1)), "t": (F(1, 3), F(2))}
ATOMS = ("start", "Delta")
ACTIONS = ("0", "1", "2")
SPACE = StateSpace(
    atoms=tuple(AtomDecl(a) for a in ATOMS),
    segments=tuple(SegmentDecl(label, lo, hi) for label, (lo, hi) in SEGMENTS.items()),
)
DOMAIN = Domain(SPACE, FiniteActions(ACTIONS))
BOUND = F(10**6)


# -- the per-component loop, as the reference -------------------------------


def reference_integrate(mu, g, tol=DEFAULT_INTEGRATE_TOL):
    """`integrate` as the plain loop over components, with no memo: each
    component's share in turn, added as a Number.  Densities against a
    function without a structured form go through the library's quadrature,
    at the component's part of tol divided by the weight its result is
    multiplied by, where that exceeds 1."""
    comps = mu.components
    if not comps:
        return ZERO
    share = tol / len(comps)
    total = ZERO
    for c in comps:
        total = total + reference_component(c, g, share)
    return total


def quadrature_tol(tol, w):
    return tol / float(w.value) if w > 1 else tol


def reference_component(c, g, tol):
    if g.arity == "state":
        amass = action_mass(c.action)
        if isinstance(c.state, StateAtom):
            v = g.evaluate(c.state.point)
        elif g.structured:
            v = g.structured[0].integral_against(c.state)
        else:
            v = _state_density_integral(c.state, g, quadrature_tol(tol, c.weight * amass))
        r = c.weight * v
        return r if amass is ONE and r.is_exact else r * amass
    if c.action is None:
        raise MeasureError(f"{g.name!r} needs actions but the measure is a marginal")
    parts = c.action.parts if isinstance(c.action, ActionMixture) else ((ONE, c.action),)
    total = ZERO
    for w, apart in parts:
        total = total + w * reference_pure(c.state, apart, g, quadrature_tol(tol / len(parts), c.weight * w))
    return c.weight * total


def reference_pure(s, a, g, tol):
    if isinstance(s, StateAtom) and isinstance(a, ActionAtom):
        return g.evaluate(s.point, a.action)
    if isinstance(a, ActionDensity) or not g.structured:
        return _pure_integral(s, a, g, tol)
    total = ZERO
    for sf, af in g.structured:
        total = total + sf.integral_against(s) * _wrap_value(af.value_at(a.action))
    return total


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def outcome(call):
    """('ok', exact?, value, err) with floats as bits, or ('raise', type, message)."""
    try:
        v = call()
    except Exception as exc:  # compared below, type and message
        return ("raise", type(exc), str(exc))
    if v.is_exact:
        return ("ok", True, v.value, v.err)
    return ("ok", False, bits(v.value), bits(v.err))


# -- strategies -------------------------------------------------------------

DENOMINATORS = st.sampled_from([1, 2, 3, 5, 7, 12])
coefficients = st.builds(F, st.integers(min_value=-36, max_value=36), DENOMINATORS)
masses = st.builds(F, st.integers(min_value=0, max_value=36), DENOMINATORS)


def points(lo, hi):
    """Exact points of [lo, hi] on a grid of 1/3, 1/5, 1/7 or 1/15 steps."""
    return st.builds(lambda k, d: lo + (hi - lo) * F(k % (d + 1), d),
                     st.integers(min_value=0, max_value=15), st.sampled_from([3, 5, 7, 15]))


@st.composite
def densities(draw, label):
    lo, hi = SEGMENTS[label]
    breaks = sorted(draw(st.lists(points(lo, hi), min_size=2, max_size=5, unique=True)))
    heights = tuple(Number.lift(draw(masses)) for _ in breaks[1:])
    return StateDensity(label, tuple(breaks), heights)


@st.composite
def action_parts(draw, marginal_ok=False):
    kinds = ["atom", "mixture"] + (["none"] if marginal_ok else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "none":
        return None
    if kind == "atom":
        return ActionAtom(draw(st.sampled_from(ACTIONS)))
    picks = draw(st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=3))
    return ActionMixture(tuple((Number.lift(draw(masses)), ActionAtom(a)) for a in picks))


@st.composite
def components(draw, density=None, marginal_ok=False):
    if density is None:
        density = draw(st.booleans())
    if density:
        state = draw(densities(draw(st.sampled_from(sorted(SEGMENTS)))))
    else:
        state = StateAtom(SPACE.point(draw(st.sampled_from(ATOMS))))
    return MeasureComponent(state, draw(action_parts(marginal_ok)), Number.lift(draw(masses)))


@st.composite
def measures(draw, marginal_ok=False, atoms_only=False):
    """Exact measures; unless atoms_only, at least one component is a density."""
    comps = draw(st.lists(components(density=False if atoms_only else None, marginal_ok=marginal_ok),
                          min_size=0 if not atoms_only else 1, max_size=6))
    if not atoms_only:
        at = draw(st.integers(min_value=0, max_value=len(comps)))
        comps.insert(at, draw(components(density=True, marginal_ok=marginal_ok)))
    return HybridMeasure(DOMAIN, tuple(comps))


@st.composite
def polys(draw, label, narrow_ok=False):
    """1-3 pieces with exact, non-dyadic breaks over the segment, or (narrow)
    over part of it."""
    lo, hi = SEGMENTS[label]
    if narrow_ok and draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(points(lo, hi), min_size=2, max_size=2, unique=True)))
    inner = draw(st.lists(points(lo, hi).filter(lambda x: lo < x < hi), max_size=2, unique=True))
    breaks = (lo, *sorted(inner), hi)
    rows = tuple(tuple(draw(st.lists(coefficients, min_size=1, max_size=4))) for _ in breaks[1:])
    return PiecewisePoly(breaks, rows)


@st.composite
def state_factors(draw, faulty=False):
    segs = [lbl for lbl in sorted(SEGMENTS) if not (faulty and draw(st.booleans()))]
    atoms = [a for a in ATOMS if not (faulty and draw(st.integers(0, 4)) == 0)]
    return StateFactor(
        segment_polys=tuple((lbl, draw(polys(lbl, narrow_ok=faulty))) for lbl in segs),
        atom_values=tuple((a, draw(coefficients)) for a in atoms),
    )


@st.composite
def action_factors(draw, faulty=False):
    if draw(st.booleans()):
        return ActionFactor(const=draw(coefficients))
    names = [a for a in ACTIONS if not (faulty and draw(st.integers(0, 4)) == 0)]
    # zero factors are common, so that a zero factor meets a faulty state side
    values = st.one_of(st.just(F(0)), coefficients)
    return ActionFactor(table=tuple((a, draw(values)) for a in names))


@st.composite
def functions(draw, faulty=False):
    if draw(st.booleans()):
        return structured_state_function("g", CONTINUOUS, draw(state_factors(faulty)), BOUND)
    terms = draw(st.lists(st.tuples(state_factors(faulty), action_factors(faulty)), min_size=1, max_size=3))
    return structured_joint_function("g", CONTINUOUS, terms, BOUND)


# -- properties -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(measures(), functions())
def test_grouped_pass_equals_the_loop(mu, g):
    want = reference_integrate(mu, g)
    assert want.is_exact
    got = integrate(mu, g)
    assert got is not None and got.is_exact
    assert got.value == want.value and got.err == 0
    assert integrate(mu, g) == want


@settings(max_examples=150, deadline=None)
@given(measures(marginal_ok=True), functions(faulty=True))
def test_grouped_pass_raises_what_the_loop_raises(mu, g):
    assert outcome(lambda: integrate(mu, g)) == outcome(lambda: reference_integrate(mu, g))


@settings(max_examples=100, deadline=None)
@given(measures(marginal_ok=True), st.lists(st.one_of(functions(), functions(faulty=True)), min_size=2, max_size=4))
def test_joint_and_state_only_functions_read_one_table(mu, gs):
    # the first function builds the measure's one cell table, the rest read
    # it: a joint function its atom groups, a state-only one every group,
    # those of the components under no action part (action None) included
    for g in gs:
        assert outcome(lambda: integrate(mu, g)) == outcome(lambda: reference_integrate(mu, g))


@settings(max_examples=40, deadline=None)
@given(measures(atoms_only=True), functions())
def test_atom_only_measures_keep_their_exact_value(mu, g):
    want = reference_integrate(mu, g)
    got = integrate(mu, g)
    assert got.is_exact and got == want


def _float_weight(c):
    return MeasureComponent(c.state, c.action, Number.approx(float(c.weight.value) + 0.1))


def _float_height(c):
    if not isinstance(c.state, StateDensity):
        return _float_weight(c)
    d = c.state
    heights = (Number.approx(float(d.heights[0].value) / 3.0),) + d.heights[1:]
    return MeasureComponent(StateDensity(d.segment, d.breaks, heights), c.action, c.weight)


def _float_break(c):
    if not isinstance(c.state, StateDensity):
        return _float_weight(c)
    d = c.state
    first = float(d.breaks[0])
    if first < SEGMENTS[d.segment][0]:
        first = math.nextafter(first, math.inf)
    if not first < d.breaks[1]:
        return _float_weight(c)
    return MeasureComponent(StateDensity(d.segment, (first, *d.breaks[1:]), d.heights), c.action, c.weight)


def _float_mixture_weight(c):
    if not isinstance(c.action, ActionMixture):
        return _float_weight(c)
    (w, p), *rest = c.action.parts
    return MeasureComponent(c.state, ActionMixture(((Number.approx(float(w.value) / 7.0), p), *rest)), c.weight)


@settings(max_examples=80, deadline=None)
@given(
    measures(),
    functions(),
    st.sampled_from([_float_weight, _float_height, _float_break, _float_mixture_weight]),
    st.data(),
)
def test_float_measures_keep_the_loop_bit_for_bit(mu, g, demote, data):
    at = data.draw(st.integers(min_value=0, max_value=len(mu.components) - 1))
    comps = list(mu.components)
    comps[at] = demote(comps[at])
    mu = HybridMeasure(DOMAIN, tuple(comps))
    assert outcome(lambda: integrate(mu, g)) == outcome(lambda: reference_integrate(mu, g))


@settings(max_examples=80, deadline=None)
@given(measures(), st.sampled_from(["coefficient", "action", "atom"]), st.data())
def test_float_values_of_the_function_keep_the_loop_bit_for_bit(mu, where, data):
    # a float the function takes ends the exact sum where it is met
    sf = data.draw(state_factors())
    if where == "coefficient":
        label, poly = sf.segment_polys[0]
        row = (float(poly.coeffs[0][0]) / 3.0,) + poly.coeffs[0][1:]
        sf = StateFactor(((label, PiecewisePoly(poly.breaks, (row,) + poly.coeffs[1:])),) + sf.segment_polys[1:],
                         sf.atom_values)
    elif where == "atom":
        sf = StateFactor(sf.segment_polys, tuple((a, float(v) + 0.1) for a, v in sf.atom_values))
    af = ActionFactor(const=0.3) if where == "action" else data.draw(action_factors())
    g = structured_joint_function("g", CONTINUOUS, ((sf, af),), BOUND)
    assert outcome(lambda: integrate(mu, g)) == outcome(lambda: reference_integrate(mu, g))


@settings(max_examples=150, deadline=None)
@given(measures(marginal_ok=True), functions(faulty=True), st.sampled_from(ATOMS))
def test_a_grouped_pass_that_steps_aside_evaluates_no_atom_twice(mu, g, floated):
    # a float at one atom ends the exact sum there; no atom is evaluated
    # twice, and every atom is evaluated in the loop's order
    calls = []
    ev = g.evaluator

    def counted(p, *a):
        calls.append(p)
        v = ev(p, *a)
        return float(v) if p.atom == floated else v

    g = dataclasses.replace(g, evaluator=counted)
    want = outcome(lambda: reference_integrate(mu, g))
    evaluated = len(calls)
    assert outcome(lambda: integrate(mu, g)) == want
    assert len(calls) - evaluated == evaluated
    assert calls[:evaluated] == calls[evaluated:]


@pytest.mark.parametrize("joint", [False, True])
def test_four_atoms_and_a_density_take_four_evaluations_per_action(joint):
    # 1/2 at three atoms and 0.25 at the fourth: the exact sum ends at the
    # fourth, and none of them is evaluated again
    names = ("p1", "p2", "p3", "p4")
    space = StateSpace(atoms=(*(AtomDecl(x) for x in names), AtomDecl("Delta")),
                       segments=(SegmentDecl("s", F(0), F(1)),))
    factor = StateFactor(segment_polys=(("s", _unit_poly()),),
                         atom_values=(("p1", F(1, 2)), ("p2", F(1, 2)), ("p3", F(1, 2)), ("p4", 0.25)))
    calls = []

    def ev(p, a=None):
        calls.append((p, a))
        return factor.value_at(p)

    if joint:
        g = TestFunction("g", CONTINUOUS, ev, arity="state_action",
                         structured=((factor, ActionFactor(const=F(1))),))
        action = ActionMixture(((Number.exact(1, 3), ActionAtom("0")), (Number.exact(2, 3), ActionAtom("1"))))
    else:
        g = TestFunction("g", CONTINUOUS, ev, arity="state", structured=(factor,))
        action = None
    comps = [MeasureComponent(StateAtom(space.point(x)), action, Number.exact(1, 4)) for x in names]
    comps.append(MeasureComponent(StateDensity("s", (F(0), F(1)), (ONE,)), action, ONE))
    mu = HybridMeasure(Domain(space, FiniteActions(ACTIONS)), tuple(comps))
    got = integrate(mu, g)
    assert len(calls) == (8 if joint else 4)
    assert outcome(lambda: got) == outcome(lambda: reference_integrate(mu, g))
    assert not got.is_exact


@pytest.mark.parametrize("first", ["atom", "density"])
@pytest.mark.parametrize("at_atom", [F(1, 3), 0.25, F(3, 2)])
def test_a_state_atom_under_a_mixture_of_an_action_atom_and_an_action_density(first, at_atom):
    # the mixture's action atom is evaluated, and its action density
    # integrated, part by part in the mixture's order, as the loop takes
    # them; a value past the bound at the action atom is refused there
    calls = []

    def ev(p, a):
        calls.append((p, a))
        if p.atom == "start" and type(a) is Fraction:  # the action atom; samples are floats
            return at_atom
        return 0.5 * float(a) if p.atom == "start" else F(1, 5)

    g = TestFunction("h", MEASURABLE, ev, bound=F(1))
    atom = (Number.exact(3, 4), ActionAtom(F(1, 2)))
    density = (Number.exact(5, 4), ActionDensity((F(0), F(1, 3), F(1)), (Number.exact(3, 2), Number.exact(3, 4))))
    mixture = ActionMixture((atom, density) if first == "atom" else (density, atom))
    domain = Domain(SPACE, IntervalActions())
    delta = MeasureComponent(StateAtom(SPACE.point("Delta")), ActionAtom(F(1, 4)), Number.exact(1, 2))
    mu = HybridMeasure(domain, (delta, MeasureComponent(StateAtom(SPACE.point("start")), mixture, Number.exact(2)), delta))
    got = outcome(lambda: integrate(mu, g))
    evaluated = len(calls)
    assert got == outcome(lambda: reference_integrate(mu, g))
    assert calls[:evaluated] == calls[evaluated:]
    if at_atom == F(3, 2):
        assert got[:2] == ("raise", BoundViolation)
    else:
        # 1/5 at Delta twice, and a/2 against the density's first moment 5/12
        want = F(1, 5) + 2 * (F(3, 4) * F(at_atom) + F(5, 4) * F(5, 24))
        assert got[:2] == ("ok", False)
        value, err = (struct.unpack("<d", x)[0] for x in got[2:])
        assert abs(value - float(want)) <= err


# nested powers of two up to 600 digits (the ladder's marginals), small
# coprime and composite denominators, and large ones of no shape
exact_sum_denominators = st.one_of(
    st.integers(min_value=0, max_value=1993).map(lambda k: 2**k),
    st.sampled_from([1, 3, 5, 7, 9, 12, 15, 2**64 - 59, 3**40]),
    st.integers(min_value=1, max_value=10**40),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(min_value=-(10**610), max_value=10**610), exact_sum_denominators), max_size=40),
    st.integers(min_value=0, max_value=3),
)
def test_exact_sum_is_the_fraction_sum(terms, repeats):
    terms = terms + terms[: repeats * len(terms) // 3]  # repeated denominators
    got = measure._exact_sum(terms)
    want = sum((F(n, d) for n, d in terms), F(0))
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_exact_sum_of_nothing_is_zero():
    got = measure._exact_sum([])
    assert type(got) is Fraction and got == 0 and got.denominator == 1


# -- the named refusals -----------------------------------------------------


def _unit_poly():
    return PiecewisePoly((F(0), F(1, 3), F(1)), ((F(0), F(1)), (F(1, 3),)))


def _cells_measure(action=ActionAtom("1")):
    cells = [
        MeasureComponent(StateDensity("s", (F(j, 5), F(j + 1, 5)), (ONE,)), action, Number.exact(1, 2))
        for j in range(5)
    ]
    start = MeasureComponent(StateAtom(SPACE.point("start")), ActionAtom("0"), ONE)
    return HybridMeasure(DOMAIN, (start, *cells))


def _same_refusal(mu, g, kind):
    got = outcome(lambda: integrate(mu, g))
    assert got == outcome(lambda: reference_integrate(mu, g))
    assert got[:2] == ("raise", kind)


def test_uncovered_segment_is_refused():
    sf = StateFactor(segment_polys=(("t", _unit_poly()),), atom_values=(("start", F(1)),))
    _same_refusal(_cells_measure(), structured_state_function("g", CONTINUOUS, sf, BOUND), CoverageError)
    joint = structured_joint_function("g", CONTINUOUS, ((sf, ActionFactor(const=F(1))),), BOUND)
    _same_refusal(_cells_measure(), joint, CoverageError)


def test_escaping_density_is_refused_under_a_zero_action_factor():
    narrow = PiecewisePoly((F(0), F(1, 3), F(2, 3)), ((F(1),), (F(2),)))
    sf = StateFactor(segment_polys=(("s", narrow),), atom_values=(("start", F(1)),))
    zero = ActionFactor(table=(("0", F(1)), ("1", F(0)), ("2", F(0))))
    g = structured_joint_function("g", CONTINUOUS, ((sf, zero),), BOUND)
    _same_refusal(_cells_measure(ActionAtom("1")), g, CoverageError)


def test_joint_function_on_a_marginal_is_refused():
    sf = StateFactor(segment_polys=(("s", _unit_poly()),), atom_values=(("start", F(1)),))
    g = structured_joint_function("g", CONTINUOUS, ((sf, ActionFactor(const=F(1))),), BOUND)
    _same_refusal(marginal_state(_cells_measure()), g, MeasureError)


def test_cells_straddling_a_break_are_split_there():
    # upper-third indicator times the action: cells of width 1/5 straddle 1/3
    upper = PiecewisePoly((F(0), F(1, 3), F(1)), ((F(0),), (F(1),)), knots=(F(0), F(0), F(1)))
    sf = StateFactor(segment_polys=(("s", upper),), atom_values=(("start", F(0)),))
    af = ActionFactor(table=(("0", F(0)), ("1", F(1)), ("2", F(2))))
    g = structured_joint_function("g", CONTINUOUS, ((sf, af),), BOUND)
    got = integrate(_cells_measure(ActionAtom("2")), g)
    # half-weight cells of the uniform density, times 2, over (1/3, 1]
    assert got == Number.exact(2, 3)
    assert got == reference_integrate(_cells_measure(ActionAtom("2")), g)


# -- functions without a structured form ------------------------------------

LIMIT = F(50)


@st.composite
def values(draw):
    """A value an evaluator returns at an atom: mostly exact, sometimes a
    float, rarely past the bound or of a bad type."""
    kind = draw(st.sampled_from(
        ["int"] * 3 + ["fraction"] * 3 + ["exact number"] * 2 + ["float"] * 2 + ["float number", "past", "type"]
    ))
    if kind == "int":
        return draw(st.integers(min_value=-50, max_value=50))
    if kind == "fraction":
        return draw(coefficients)
    if kind == "exact number":
        return Number.lift(draw(coefficients))
    if kind == "float":
        return float(draw(coefficients)) / 3.0
    if kind == "float number":
        return Number.approx(float(draw(coefficients)) / 7.0, draw(st.sampled_from([0.0, 1e-9, 0.5])))
    if kind == "past":
        return draw(st.sampled_from([51, F(101, 2), -51, 50.5, Number.lift(F(-151, 3)), math.inf, 10**400]))
    return "fifty"


@st.composite
def tabled_functions(draw):
    """A state-only or joint function without a structured form, tabled at
    the atoms and linear on the segments, with a counter of its calls."""
    table = {(a, act): draw(values()) for a in ATOMS for act in (*ACTIONS, None)}
    slope = float(draw(coefficients)) / 4.0
    calls = []

    def at(p, act=None):
        calls.append(p)
        if p.atom is None:
            return slope * float(p.coord)
        return table[p.atom, act]

    joint = draw(st.booleans())
    g = TestFunction("h", MEASURABLE, at, bound=LIMIT, arity="state_action" if joint else "state")
    return g, calls


@st.composite
def mixed_measures(draw):
    """Exact measures as `measures` draws them, atom-only or not, with
    marginal parts or not, and some weights made floats."""
    mu = draw(measures(marginal_ok=draw(st.booleans()), atoms_only=draw(st.booleans())))
    comps = [_float_weight(c) if draw(st.integers(0, 3)) == 0 else c for c in mu.components]
    return HybridMeasure(DOMAIN, tuple(comps))


@settings(max_examples=300, deadline=None)
@given(mixed_measures(), tabled_functions())
def test_unstructured_functions_keep_the_loop(mu, g_calls):
    g, calls = g_calls
    got = outcome(lambda: integrate(mu, g))
    evaluated = len(calls)
    assert got == outcome(lambda: reference_integrate(mu, g))
    # each atom is evaluated once per action atom, in the loop's order
    assert evaluated == len(calls) - evaluated
    assert calls[:evaluated] == calls[evaluated:]


def test_exact_atoms_sum_past_a_float_atom():
    table = {"start": F(1, 3), "Delta": 0.1}
    g = TestFunction("h", MEASURABLE, lambda p: table[p.atom], bound=LIMIT, arity="state")
    comps = tuple(
        MeasureComponent(StateAtom(SPACE.point(name)), None, Number.exact(1, 2 ** k))
        for k, name in enumerate(["start", "start", "Delta", "start"])
    )
    mu = HybridMeasure(DOMAIN, comps)
    got = integrate(mu, g)
    assert not got.is_exact
    assert outcome(lambda: got) == outcome(lambda: reference_integrate(mu, g))
    exact = HybridMeasure(DOMAIN, comps[:2])
    assert integrate(exact, g) == Number.exact(1, 2)


@pytest.mark.parametrize("value, kind", [(F(101, 2), BoundViolation), ("fifty", TypeError), (10**400, OverflowError)])
def test_a_bad_value_after_exact_atoms_raises_the_loops_error(value, kind):
    table = {"start": F(1, 3), "Delta": value}
    g = TestFunction("h", MEASURABLE, lambda p, a: table[p.atom], bound=LIMIT)
    comps = tuple(
        MeasureComponent(StateAtom(SPACE.point(name)), ActionAtom("0"), ONE) for name in ["start", "Delta", "start"]
    )
    mu = HybridMeasure(DOMAIN, comps)
    got = outcome(lambda: integrate(mu, g))
    assert got[:2] == ("raise", kind)
    assert got == outcome(lambda: reference_integrate(mu, g))


# -- the memo ---------------------------------------------------------------


def _atom_measure():
    return HybridMeasure(DOMAIN, (MeasureComponent(StateAtom(SPACE.point("start")), None, Number.exact(1, 2)),))


def test_an_integral_is_kept_while_its_measure_lives():
    calls = []

    def ev(p):
        calls.append(p)
        return F(1, 3)

    g = TestFunction("g", CONTINUOUS, ev, arity="state")
    mu = _atom_measure()
    first = integrate(mu, g)
    assert first == Number.exact(1, 6)
    assert integrate(mu, g) is first and len(calls) == 1
    # another tolerance, or an equal function that is not g, is integrated anew
    assert integrate(mu, g, 1e-6) == first and len(calls) == 2
    twin = TestFunction("g", CONTINUOUS, ev, arity="state")
    assert twin == g and twin is not g
    assert integrate(mu, twin) == first and len(calls) == 3
    assert integrate(mu, twin) == first and len(calls) == 3

    key, alive = id(mu), weakref.ref(mu)
    assert set(measure._MEMO[key]) == {(id(g), DEFAULT_INTEGRATE_TOL), (id(g), 1e-6), (id(twin), DEFAULT_INTEGRATE_TOL)}
    del mu
    gc.collect()
    assert alive() is None
    assert key not in measure._MEMO


def test_the_memo_keeps_no_function_alive():
    # an evaluator that refers to the measure: a kept function would keep
    # the measure alive through the module-level memo
    mu = _atom_measure()
    g = TestFunction("g", CONTINUOUS, lambda p, mu=mu: F(len(mu.components)), arity="state")
    assert integrate(mu, g) == Number.exact(1, 2)
    key, alive_mu, alive_g = id(mu), weakref.ref(mu), weakref.ref(g)
    del mu, g
    gc.collect()
    assert alive_g() is None and alive_mu() is None
    assert key not in measure._MEMO


def test_a_reused_function_id_is_integrated_anew():
    mu = _atom_measure()
    first = TestFunction("g", CONTINUOUS, lambda p: F(1), arity="state")
    assert integrate(mu, first) == Number.exact(1, 2)
    stale = (id(first), DEFAULT_INTEGRATE_TOL)
    del first
    second = TestFunction("g", CONTINUOUS, lambda p: F(1, 3), arity="state")
    # the entry of the collected function, as if second had reused its id
    memo = measure._MEMO[id(mu)]
    memo[id(second), DEFAULT_INTEGRATE_TOL] = memo.pop(stale)
    assert integrate(mu, second) == Number.exact(1, 6)


@pytest.mark.parametrize("kind", [BoundViolation, CoverageError, MeasureError, IntegrationError])
def test_errors_are_raised_on_every_call(kind):
    calls = []

    def ev(p):
        calls.append(p)
        raise kind("refused")

    g = TestFunction("g", CONTINUOUS, ev, arity="state")
    mu = _atom_measure()
    for n in (1, 2):
        with pytest.raises(kind, match="refused"):
            integrate(mu, g)
        assert len(calls) == n


def test_a_value_past_the_bound_is_refused_on_every_call():
    g = TestFunction("g", CONTINUOUS, lambda p: F(3, 2), arity="state")
    mu = _atom_measure()
    for _ in range(2):
        with pytest.raises(BoundViolation, match="beyond bound 1"):
            integrate(mu, g)


# -- the cell tables ---------------------------------------------------------


def _counting_tables(monkeypatch):
    built = []

    class Counting(measure._CellTable):
        def __init__(self, mu):
            built.append(id(mu))
            super().__init__(mu)

    monkeypatch.setattr(measure, "_CellTable", Counting)
    return built


def test_an_unrolled_measure_reads_the_table_of_its_cut_and_a_built_one_builds_one(monkeypatch):
    built = _counting_tables(monkeypatch)
    read = []

    def reading(mu):
        table = fetch(mu)
        read.append(table)
        return table

    fetch = measure._cell_table
    monkeypatch.setattr(measure, "_cell_table", reading)
    monkeypatch.setattr(topology, "_cell_table", reading)
    entry = remark1(depth=4)
    mu = occupation_unroll(entry.model, entry.families["alternating"].generator(4), entry.x0, 2).measure
    # the unroll seeded the table of the cells it cut
    ((seeded_key, (_, seeded)),) = measure._TABLES[id(mu)].items()
    assert seeded_key == ()
    battery = entry.batteries["ws-extended"].functions
    assert len(battery) == 7 and all(f.arity == "state_action" for f in battery)
    x = PiecewisePoly((F(0), F(1)), ((F(0), F(1)),))
    factor = StateFactor(segment_polys=(("unit", x),), atom_values=(("start", F(0)), ("Delta", F(0))))
    funcs = [*battery, *(structured_state_function(name, CONTINUOUS, factor, F(1)) for name in ("x", "x again"))]
    for f in funcs:
        assert integrate(mu, f) == reference_integrate(mu, f)
    assert mu.total_mass() == nsum(c.mass() for c in mu.components)
    assert determinism_defect(mu) == ZERO
    # integrate, total_mass and the defect read the seeded table, and none is built
    assert built == [] and read and all(table is seeded for table in read)

    # the same components in a measure the user builds: one table, built once
    nu = HybridMeasure(mu.domain, mu.components)
    for f in funcs:
        assert integrate(nu, f) == integrate(mu, f)
    assert nu.total_mass() == mu.total_mass() and determinism_defect(nu) == ZERO
    assert built == [id(nu)]
    assert measure._cell_table(nu).rows == seeded.rows

    keys, alive = [id(mu), id(nu)], [weakref.ref(mu), weakref.ref(nu)]
    assert all(set(measure._TABLES[key]) == {()} for key in keys)
    del mu, nu
    gc.collect()
    assert [ref() for ref in alive] == [None, None]
    assert not any(key in measure._TABLES for key in keys)


def test_functions_that_take_different_components_share_one_table(monkeypatch):
    built = _counting_tables(monkeypatch)
    n = Number.exact
    comps = (
        MeasureComponent(StateDensity("s", (F(0), F(1, 2), F(1)), (n(1), n(3))), ActionAtom("0"), ONE),
        MeasureComponent(StateDensity("t", (F(1, 2), F(3, 2)), (n(2),)), ActionAtom("1"), n(1, 3)),
        MeasureComponent(StateDensity("s", (F(1, 4), F(3, 4)), (n(5),)), ActionAtom("1"), ONE),
    )
    mu = HybridMeasure(DOMAIN, comps)
    x = PiecewisePoly((F(0), F(1)), ((F(0), F(1)),))
    on_t = PiecewisePoly((F(1, 3), F(2)), ((F(1, 2), F(1)),))
    on_t_float = PiecewisePoly((F(1, 3), F(2)), ((0.5, F(1)),))
    af = ActionFactor(table=(("0", F(2)), ("1", F(1, 7)), ("2", F(0))))
    af_float = ActionFactor(table=(("0", F(2)), ("1", 0.25), ("2", F(0))))
    joint = structured_joint_function
    funcs = [
        # every density taken
        joint("all", MEASURABLE, ((StateFactor((("s", x), ("t", on_t))), af),), BOUND),
        # an inexact polynomial on t: the walk takes the first density only,
        # and the rest by the per-component route
        joint("no-t", MEASURABLE, ((StateFactor((("s", x), ("t", on_t_float))), af),), BOUND),
        # an inexact value at action "1": the same
        joint("no-1", MEASURABLE, ((StateFactor((("s", x), ("t", on_t))), af_float),), BOUND),
        # a state-only function reads every group of a segment
        structured_state_function("state", MEASURABLE, StateFactor((("s", x), ("t", on_t))), BOUND),
    ]
    for g in funcs:
        assert outcome(lambda: integrate(mu, g)) == outcome(lambda: reference_integrate(mu, g))
    assert [integrate(mu, g).is_exact for g in funcs] == [True, False, False, True]
    assert built == [id(mu)]
