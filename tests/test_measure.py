"""Hybrid measures and test integrands: masses, marginals, exact integration."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from absorbing_mdp import (
    ActionAtom,
    ActionDensity,
    ActionFactor,
    ActionMixture,
    BoundViolation,
    CONTINUOUS,
    Domain,
    FiniteActions,
    HybridMeasure,
    IntervalActions,
    MEASURABLE,
    MeasureComponent,
    MeasureError,
    Number,
    ONE,
    PiecewisePoly,
    StateAtom,
    StateDensity,
    StateFactor,
    StatePoint,
    TestFunction,
    add,
    integrate,
    marginal_state,
    scale,
    structured_joint_function,
    structured_state_function,
    total_mass,
)
from absorbing_mdp.measure import action_mass

from conftest import segment_space

F = Fraction
HALF = Number.exact(1, 2)


def poly_density_integral(poly_coeffs, lo, hi, height):
    """Independent oracle: integral of sum c_j x^j against a constant density."""
    acc = F(0)
    for j, c in enumerate(poly_coeffs):
        acc += F(c) * (F(hi) ** (j + 1) - F(lo) ** (j + 1)) / (j + 1)
    return F(height) * acc


def unit_domain():
    return Domain(segment_space(), IntervalActions())


def density(breaks, heights):
    return StateDensity("seg", tuple(F(b) for b in breaks), tuple(Number.exact(h) for h in heights))


# -- parts -----------------------------------------------------------------


def test_density_mass_is_height_times_width():
    d = density((0, F(1, 4), 1), (2, 1))
    assert d.mass() == Number.exact(2) * Number.exact(1, 4) + Number.exact(3, 4)


def test_density_rejects_bad_pieces():
    with pytest.raises(MeasureError):
        density((0, 1), (1, 1))  # too many heights
    with pytest.raises(MeasureError):
        density((1, 0), (1,))  # decreasing breaks
    with pytest.raises(MeasureError):
        density((0, 1), (-1,))  # negative height


def test_action_mixture_mass():
    mix = ActionMixture(
        parts=(
            (HALF, ActionAtom(F(0))),
            (HALF, ActionDensity((F(0), F(1)), (ONE,))),
        )
    )
    assert mix.mass() == ONE


def test_component_mass_multiplies_all_three():
    comp = MeasureComponent(
        state=density((0, 1), (2,)),
        action=ActionDensity((F(0), F(1, 2)), (ONE,)),
        weight=HALF,
    )
    # 1/2 * 2 * 1/2
    assert comp.mass() == HALF


# -- measure algebra -------------------------------------------------------


def simple_measure(w1=ONE, w2=ONE):
    dom = unit_domain()
    return HybridMeasure(
        dom,
        (
            MeasureComponent(StateAtom(dom.states.point("start")), ActionAtom(F(0)), w1),
            MeasureComponent(density((0, 1), (1,)), ActionAtom(F(1, 2)), w2),
        ),
    )


def test_total_mass_sums_components():
    assert total_mass(simple_measure()) == Number.exact(2)


def test_add_requires_same_domain():
    mu = simple_measure()
    other = HybridMeasure(Domain(segment_space(), FiniteActions(("a",))), ())
    with pytest.raises(MeasureError):
        add(mu, other)


weights = st.fractions(min_value=F(0), max_value=F(5), max_denominator=16)


@given(weights, weights, weights)
def test_add_and_scale_are_linear_in_mass(w1, w2, c):
    mu = simple_measure(Number.exact(w1), Number.exact(w2))
    nu = simple_measure(Number.exact(w2), Number.exact(w1))
    assert total_mass(add(mu, nu)) == total_mass(mu) + total_mass(nu)
    assert total_mass(scale(mu, c)) == Number.exact(c) * total_mass(mu)


def test_scale_rejects_negative():
    with pytest.raises(MeasureError):
        scale(simple_measure(), F(-1))


def test_marginal_drops_actions_and_keeps_state_mass():
    mu = simple_measure(HALF, HALF)
    m = marginal_state(mu)
    assert all(c.action is None for c in m.components)
    assert total_mass(m) == total_mass(mu)
    # idempotent
    assert total_mass(marginal_state(m)) == total_mass(mu)


def merge_reference(mu):
    """The projection as a plain merge: each weight times its action mass,
    equal state parts summed in first-seen order."""
    merged = {}
    for c in mu.components:
        w = c.weight * action_mass(c.action)
        merged[c.state] = merged[c.state] + w if c.state in merged else w
    return HybridMeasure(mu.domain, tuple(MeasureComponent(s, None, w) for s, w in merged.items()))


# State parts of every kind: atoms, two of them sharing the name "start"
# but not the coord (validation does not tie an atom point's coord to its
# declaration), a segment point, and densities.
MARGINAL_STATES = (
    StateAtom(StatePoint("start")),
    StateAtom(StatePoint("start", coord=F(1, 3))),
    StateAtom(StatePoint("Delta")),
    StateAtom(StatePoint(segment="seg", coord=F(1, 2))),
    density((0, 1), (1,)),
    density((0, F(1, 2), 1), (2, 0)),
)


def _marginal(*states, action=None):
    return HybridMeasure(unit_domain(), tuple(MeasureComponent(s, action, ONE) for s in states))


@st.composite
def marginal_like(draw):
    comps = []
    for _ in range(draw(st.integers(0, 6))):
        state = draw(st.sampled_from(MARGINAL_STATES))
        action = draw(st.sampled_from([None, None, ActionAtom(F(1, 2))]))
        if draw(st.booleans()):
            weight = Number.exact(draw(weights))
        else:
            weight = Number.approx(draw(st.floats(0, 5)), draw(st.floats(0, 1e-6)))
        comps.append(MeasureComponent(state, action, weight))
    return HybridMeasure(unit_domain(), tuple(comps))


@given(marginal_like())
@example(_marginal(MARGINAL_STATES[0], MARGINAL_STATES[1]))
@example(_marginal(MARGINAL_STATES[0], MARGINAL_STATES[2], MARGINAL_STATES[0]))
@example(_marginal(MARGINAL_STATES[3], MARGINAL_STATES[4], MARGINAL_STATES[3]))
@example(_marginal(*MARGINAL_STATES[:3], MARGINAL_STATES[0], action=ActionAtom(F(1, 2))))
def test_marginal_matches_the_merge_and_skips_exact_marginals(mu):
    # the merge built by the checked constructor: the trusted one must
    # equal it, hash equal to it and keep every float weight's bits
    got = marginal_state(mu)
    want = merge_reference(mu)
    assert got == want and hash(got) == hash(want)
    assert [repr(c.weight) for c in got.components] == [repr(c.weight) for c in want.components]
    assert HybridMeasure(got.domain, got.components) == got
    # the name pretest against the full-state test
    comps = mu.components
    own = (
        all(c.action is None and c.weight.is_exact for c in comps)
        and len({c.state for c in comps}) == len(comps)
    )
    assert (got is mu) == own


def test_float_atom_integral_keeps_the_err_of_the_action_mass_multiply():
    # (weight * value) * ONE, then added to ZERO, as floats in the order of
    # Number's formulas: the exact action mass 1 still costs one slop
    def slop(v):
        return 2.0 ** -50 * max(1.0, abs(v))

    dom = unit_domain()
    w, ew, g = 0.3, 1e-10, 0.7
    mu = HybridMeasure(
        dom, (MeasureComponent(StateAtom(dom.states.point("start")), None, Number.approx(w, ew)),)
    )
    f = TestFunction("const", MEASURABLE, lambda p: g, bound=F(1), arity="state")
    got = integrate(mu, f)
    v = w * g
    e = abs(w) * 0.0 + abs(g) * ew + ew * 0.0 + slop(v)
    skipped = 0.0 + e + slop(0.0 + v)
    e = abs(v) * 0.0 + abs(1.0) * e + e * 0.0 + slop(v * 1.0)
    want = 0.0 + e + slop(0.0 + v)
    assert (got.value, got.err) == (0.0 + v * 1.0, want)
    assert got.err != skipped


# -- piecewise polynomials -------------------------------------------------


def test_piecewise_poly_values():
    # x^2 on [0,1/2], then the constant 3 on [1/2,1]
    p = PiecewisePoly((F(0), F(1, 2), F(1)), ((F(0), F(0), F(1)), (F(3),)))
    assert p.value_at(F(1, 4)) == F(1, 16)
    assert p.value_at(F(3, 4)) == F(3)


def test_piecewise_poly_knots_win_at_breaks():
    # indicator of (0,1], with an explicit 0 at the left endpoint
    p = PiecewisePoly((F(0), F(1)), ((F(1),),), knots=(F(0), F(1)))
    assert p.value_at(F(0)) == F(0)
    assert p.value_at(F(1)) == F(1)
    assert p.value_at(F(1, 2)) == F(1)


def test_piecewise_poly_shape_errors():
    with pytest.raises(MeasureError):
        PiecewisePoly((F(0), F(1)), ((F(1),), (F(2),)))


# -- integration -----------------------------------------------------------


def quadratic_state_function(bound=F(4)):
    factor = StateFactor(
        segment_polys=(("seg", PiecewisePoly((F(0), F(1)), ((F(0), F(1), F(1)),))),),
        atom_values=(("start", F(2)), ("Delta", F(0))),
    )
    return structured_state_function("x-plus-x-squared", CONTINUOUS, factor, bound)


def test_structured_integration_is_exact():
    dom = unit_domain()
    mu = HybridMeasure(
        dom,
        (MeasureComponent(density((0, 1), (3,)), None, HALF),),
    )
    got = integrate(mu, quadratic_state_function())
    want = poly_density_integral((0, 1, 1), 0, 1, 3) * F(1, 2)
    assert got.is_exact
    assert got == Number.exact(want)


def test_structured_integration_covers_atoms():
    dom = unit_domain()
    mu = HybridMeasure(
        dom,
        (MeasureComponent(StateAtom(dom.states.point("start")), None, HALF),),
    )
    assert integrate(mu, quadratic_state_function()) == Number.exact(1)


def test_joint_tensor_integration():
    # f(x, a) = x * a against (density on [0,1]) x (uniform action density)
    dom = unit_domain()
    sf = StateFactor(segment_polys=(("seg", PiecewisePoly((F(0), F(1)), ((F(0), F(1)),))),))
    af = ActionFactor(poly=PiecewisePoly((F(0), F(1)), ((F(0), F(1)),)))
    f = structured_joint_function("xa", CONTINUOUS, ((sf, af),), F(1))
    mu = HybridMeasure(
        dom,
        (
            MeasureComponent(
                density((0, 1), (1,)),
                ActionDensity((F(0), F(1)), (ONE,)),
                ONE,
            ),
        ),
    )
    assert integrate(mu, f) == Number.exact(1, 4)


def test_structured_evaluator_matches_factors():
    sf = StateFactor(segment_polys=(("seg", PiecewisePoly((F(0), F(1)), ((F(1), F(2)),))),))
    af = ActionFactor(table=(("l", F(1)), ("r", F(-1))))
    f = structured_joint_function("probe", MEASURABLE, ((sf, af),), F(3))
    space = segment_space()
    p = space.segment_point("seg", F(1, 4))
    assert f.evaluate(p, "l") == Number.exact(3, 2)
    assert f.evaluate(p, "r") == Number.exact(-3, 2)


def test_quadrature_fallback_matches_exact_value():
    # same integrand, but supplied as a bare evaluator with no structure
    dom = unit_domain()
    mu = HybridMeasure(dom, (MeasureComponent(density((0, 1), (3,)), None, HALF),))

    def ev(p):
        x = p.coord if p.segment == "seg" else {"start": 2, "Delta": 0}[p.atom]
        return float(x + x * x)

    f = TestFunction("bare", MEASURABLE, ev, bound=F(4), arity="state")
    got = integrate(mu, f, tol=1e-9)
    want = float(poly_density_integral((0, 1, 1), 0, 1, 3)) / 2
    assert not got.is_exact
    assert abs(float(got.value) - want) <= 1e-9
    assert float(got.err) <= 1e-9


def test_continuous_quadrature_fallback_matches_exact_value():
    # the twin of the test above, declared continuous: G7-K15 takes it, and
    # integrates the quadratic exactly up to rounding
    dom = unit_domain()
    mu = HybridMeasure(dom, (MeasureComponent(density((0, 1), (3,)), None, HALF),))

    def ev(p):
        x = p.coord if p.segment == "seg" else {"start": 2, "Delta": 0}[p.atom]
        return float(x + x * x)

    f = TestFunction("bare", CONTINUOUS, ev, bound=F(4), arity="state")
    got = integrate(mu, f, tol=1e-9)
    want = float(poly_density_integral((0, 1, 1), 0, 1, 3)) / 2
    assert not got.is_exact
    assert abs(float(got.value) - want) <= float(got.err) <= 1e-9


EIGHT = Number.exact(8)
UNIT = (F(0), F(1))

# a quadrature's result multiplied by 8: by the component's weight, by the
# action mass of a state-only function, or by a mixture part's weight
WEIGHTED = {
    "component weight": ("state", MeasureComponent(density(UNIT, (1,)), None, EIGHT)),
    "action mass": ("state", MeasureComponent(density(UNIT, (1,)), ActionDensity(UNIT, (EIGHT,)), ONE)),
    "mixture part": ("state_action", MeasureComponent(
        density(UNIT, (1,)), ActionMixture(((EIGHT, ActionAtom(F(1, 2))), (ONE, ActionAtom(F(0))))), ONE)),
}


@pytest.mark.parametrize("declared_class", [MEASURABLE, CONTINUOUS])
@pytest.mark.parametrize("shape", sorted(WEIGHTED))
def test_a_weight_above_one_keeps_the_err_within_tol(declared_class, shape):
    # sin(40x) at action 1/2 (0 at action 0) against the unit density, times 8
    arity, component = WEIGHTED[shape]
    if arity == "state":
        ev = lambda p: math.sin(40 * float(p.coord))
    else:
        ev = lambda p, a: math.sin(40 * float(p.coord)) if a else 0.0
    f = TestFunction("wave", declared_class, ev, arity=arity)
    tol = 1e-9
    got = integrate(HybridMeasure(unit_domain(), (component,)), f, tol=tol)
    want = 8 * (1 - math.cos(40)) / 40
    assert not got.is_exact
    assert float(got.err) <= tol
    assert abs(float(got.value) - want) <= float(got.err)


def test_bound_violation_is_raised():
    f = quadratic_state_function(bound=F(1))  # true values reach 2
    space = segment_space()
    with pytest.raises(BoundViolation):
        f.evaluate(space.segment_point("seg", F(1)))


def test_state_arity_refuses_missing_action():
    f = TestFunction("joint", MEASURABLE, lambda p, a: 0, arity="state_action")
    space = segment_space()
    with pytest.raises(MeasureError):
        f.evaluate(space.point("start"))
