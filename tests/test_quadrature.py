"""The G7-K15 rule, and which rule each declared class takes.

* The QK15 constants, in `Fraction` arithmetic: K15 integrates x^k over
  [-1, 1] to within an ulp of 1 for k <= 22 and G7 for k <= 13 (and neither
  one degree further), the nodes are distinct points of (-1, 1) symmetric
  about 0, and each weight set is positive and sums to 2.
* `integrate` on smooth evaluator-only `CONTINUOUS` integrands with closed
  forms (trigonometric products, polynomials of degree <= 22,
  exponentials), against 1-4-cell state and action densities, nested
  state x action cases included: |value - exact| <= err, up to the float
  rounding of the closed form and of the evaluator.
* Routing: `MEASURABLE` and `CARATHEODORY` integrands on densities keep the
  bits that the Simpson rule gave every class before G7-K15, pinned; only
  `CONTINUOUS` takes G7-K15; structured functions take neither.
* Refusals: a budget that cannot meet the tolerance raises with the best
  value and err, in `kronrod_quadrature`, in `integrate` and through the
  CLI (exit 1, one `error:` line); an empty interval is a `ValueError`.
"""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from absorbing_mdp import (
    ActionAtom,
    ActionDensity,
    CARATHEODORY,
    CONTINUOUS,
    Domain,
    HybridMeasure,
    IntervalActions,
    MEASURABLE,
    MeasureComponent,
    Number,
    ONE,
    PiecewisePoly,
    StateAtom,
    StateDensity,
    StateFactor,
    StatePoint,
    TestFunction,
    integrate,
    make_battery,
    structured_state_function,
)
from absorbing_mdp import measure, quadrature, zoo
from absorbing_mdp.cli import main
from absorbing_mdp.measure import IntegrationError
from absorbing_mdp.quadrature import QuadratureError, adaptive_quadrature, kronrod_quadrature

from conftest import segment_space

F = Fraction
ULP = math.ulp(1.0)


# -- the QK15 constants ------------------------------------------------------


def kronrod_nodes():
    """(x, weight) over [-1, 1] for K15."""
    pairs = [(x, wk) for x, wk in quadrature._KRONROD_ONLY]
    pairs += [(x, wk) for x, wk, _ in quadrature._GAUSS]
    return [(0.0, quadrature._CENTRE_K)] + [(s * x, w) for x, w in pairs for s in (1, -1)]


def gauss_nodes():
    """(x, weight) over [-1, 1] for G7."""
    pairs = [(x, wg) for x, _, wg in quadrature._GAUSS]
    return [(0.0, quadrature._CENTRE_G)] + [(s * x, w) for x, w in pairs for s in (1, -1)]


def moment_gap(nodes, k: int) -> Fraction:
    """|rule(x^k) - integral of x^k over [-1, 1]|, exactly."""
    got = sum((F(w) * F(x) ** k for x, w in nodes), F(0))
    exact = F(2, k + 1) if k % 2 == 0 else F(0)
    return abs(got - exact)


@pytest.mark.parametrize("nodes, degree", [(kronrod_nodes, 22), (gauss_nodes, 13)], ids=["K15", "G7"])
def test_rule_integrates_monomials_up_to_its_degree(nodes, degree):
    pts = nodes()
    for k in range(degree + 1):
        assert moment_gap(pts, k) <= ULP, k
    # the degree is sharp: one more even power is missed by far more
    assert moment_gap(pts, degree + 2 - degree % 2) > 1e6 * ULP


@pytest.mark.parametrize("nodes", [kronrod_nodes, gauss_nodes], ids=["K15", "G7"])
def test_nodes_are_symmetric_and_weights_sum_to_two(nodes):
    pts = nodes()
    xs = sorted(x for x, _ in pts)
    assert xs == sorted(-x for x in xs)
    assert len(set(xs)) == len(xs) and all(-1 < x < 1 for x in xs)
    assert all(w > 0 for _, w in pts)
    assert abs(sum((F(w) for _, w in pts), F(0)) - 2) <= ULP


# -- integrate on smooth integrands with closed forms ------------------------


def _domain():
    return Domain(segment_space(), IntervalActions())


@dataclasses.dataclass
class Factor:
    """A one-dimensional integrand u with its bound on [0, 1] and its exact
    (or correctly rounded, for the float closed forms) integral over a
    cell."""

    u: object
    bound: float
    integral: object  # (Fraction a, Fraction b) -> Fraction


def _sin_cell(omega, phi):
    def integral(a, b):
        # cos A - cos B = 2 sin((A + B)/2) sin((B - A)/2), without cancellation
        ta, tb = omega * float(a) + phi, omega * float(b) + phi
        return F(2.0 * math.sin((ta + tb) / 2.0) * math.sin(omega * float(b - a) / 2.0) / omega)
    return Factor(lambda x: math.sin(omega * x + phi), 1.0, integral)


def _cos_cell(omega, phi):
    return _sin_cell(omega, phi + math.pi / 2)


def _poly(coeffs):
    cs = [float(c) for c in coeffs]  # eighths: exact in binary

    def u(x):
        acc = 0.0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def integral(a, b):
        return sum((c * (b ** (j + 1) - a ** (j + 1)) / (j + 1) for j, c in enumerate(coeffs)), F(0))

    return Factor(u, float(sum(abs(c) for c in coeffs)), integral)


def _exp(lam):
    def integral(a, b):
        return F(math.exp(lam * float(a)) * math.expm1(lam * float(b - a)) / lam)
    return Factor(lambda x: math.exp(lam * x), math.exp(abs(lam)), integral)


factors = st.one_of(
    st.builds(_sin_cell, st.floats(0.5, 12.0), st.floats(-math.pi, math.pi)),
    st.builds(_cos_cell, st.floats(0.5, 12.0), st.floats(-math.pi, math.pi)),
    st.lists(st.integers(-8, 8).map(lambda k: F(k, 8)), min_size=1, max_size=23).map(_poly),
    st.builds(_exp, st.floats(0.25, 3.0) | st.floats(-3.0, -0.25)),
)


@st.composite
def densities(draw):
    """(breaks, heights) of a 1-4-cell density on [0, 1]."""
    cuts = draw(st.lists(st.integers(1, 63), max_size=3, unique=True))
    breaks = (F(0),) + tuple(F(c, 64) for c in sorted(cuts)) + (F(1),)
    heights = tuple(F(draw(st.integers(1, 9)), draw(st.integers(1, 4))) for _ in breaks[1:])
    return breaks, heights


def density_integral(factor, breaks, heights) -> Fraction:
    return sum((h * factor.integral(a, b) for a, b, h in zip(breaks, breaks[1:], heights)), F(0))


def density_mass(breaks, heights) -> Fraction:
    return sum((h * (b - a) for a, b, h in zip(breaks, breaks[1:], heights)), F(0))


ORACLE_ROUTES = ("state-density", "action-density", "state-density-action-atom", "nested")


@settings(max_examples=300, deadline=None)
@given(
    route=st.sampled_from(ORACLE_ROUTES),
    u=factors,
    v=factors,
    sdens=densities(),
    adens=densities(),
    point=st.integers(0, 64).map(lambda k: F(k, 64)),
    weight=st.integers(1, 8).map(lambda k: F(k, 4)),
    tol=st.sampled_from([1e-5, 1e-7, 1e-9, 1e-11]),
)
def test_continuous_integrals_are_within_err_of_the_closed_form(route, u, v, sdens, adens, point, weight, tol):
    sb, sh = sdens
    ab, ah = adens
    state = StateDensity("seg", sb, tuple(Number(h) for h in sh))
    su, smass = density_integral(u, sb, sh), density_mass(sb, sh)
    if route == "state-density":
        comp = MeasureComponent(state, None, Number(weight))
        g = TestFunction("u", CONTINUOUS, lambda p: u.u(float(p.coord)), u.bound, arity="state")
        exact, scale = su, smass * F(u.bound)
    else:
        action = ActionDensity(ab, tuple(Number(h) for h in ah))
        sv, amass = density_integral(v, ab, ah), density_mass(ab, ah)
        if route == "action-density":
            state = StateAtom(StatePoint(segment="seg", coord=point))
            su, smass = F(u.u(float(point))), F(1)
        if route == "state-density-action-atom":
            action = ActionAtom(point)
            sv, amass = F(v.u(float(point))), F(1)
        comp = MeasureComponent(state, action, Number(weight))
        g = TestFunction("uv", CONTINUOUS, lambda p, a: u.u(float(p.coord)) * v.u(float(a)), u.bound * v.bound)
        exact, scale = su * sv, smass * amass * F(u.bound * v.bound)
    got = integrate(HybridMeasure(_domain(), (comp,)), g, tol=tol)
    assert not got.is_exact
    # the closed forms are rounded and the evaluator rounds (Horner at
    # degree 22: under 2^-47 of the scale); neither is the rule's to estimate
    slack = F(2.0**-44) * (1 + weight * scale)
    assert abs(F(float(got.value)) - weight * exact) <= F(float(got.err)) + slack


# -- routing ---------------------------------------------------------------


def _state_density():
    return StateDensity("seg", (F(0), F(1, 3), F(1, 2), F(1)), (Number(F(1)), Number(F(2)), Number(F(3, 2))))


def _action_density():
    return ActionDensity((F(0), F(1, 4), F(1)), (Number(F(2)), Number(F(2, 3))))


ROUTES = {
    "state-density": ("state", lambda: MeasureComponent(_state_density(), None, ONE)),
    "action-density": (
        "state_action",
        lambda: MeasureComponent(StateAtom(StatePoint(segment="seg", coord=F(1, 3))), _action_density(), ONE),
    ),
    "state-density-action-atom": (
        "state_action",
        lambda: MeasureComponent(_state_density(), ActionAtom(F(1, 3)), ONE),
    ),
    "nested": ("state_action", lambda: MeasureComponent(_state_density(), _action_density(), ONE)),
}

INTEGRANDS = {  # (state-only u(x), joint f(x, a))
    "wave": (lambda x: math.sin(5 * x + 0.3), lambda x, a: math.sin(5 * x + 0.3) * math.cos(3 * a)),
    "kink": (lambda x: abs(x - 0.37), lambda x, a: (abs(x - 0.37) + abs(a - 0.61)) / 2),
    "step": (lambda x: 1.0 if x > 0.4 else 0.25, lambda x, a: 1.0 if a > x else 0.25),
}

# (value, err) at tol 1e-8, as the Simpson rule gave them for every class
# before G7-K15 was added
SIMPSON_BITS = {
    ("action-density", "kink"): ("0x1.7e052e402bb0ep-3", "0x1.89378bcfb9110p-29"),
    ("action-density", "step"): ("0x1.2aaaaa7777777p-1", "0x1.999a199999999p-30"),
    ("action-density", "wave"): ("0x1.3bdbbcafe4bbap-2", "0x1.309b34c04ccafp-27"),
    ("nested", "kink"): ("0x1.b1f72bc9ca8ccp-2", "0x1.6b041d0a398ecp-28"),
    ("nested", "step"): ("0x1.6e38e3790e085p-1", "0x1.9fb464a56ff6dp-28"),
    ("nested", "wave"): ("0x1.ca820e3fa81b0p-7", "0x1.26efa0a64f9d5p-27"),
    ("state-density", "kink"): ("0x1.7bed3fb0b5a3cp-2", "0x1.36b18e71dae93p-31"),
    ("state-density", "step"): ("0x1.111110d27d27ep+0", "0x1.1111a55444348p-30"),
    ("state-density", "wave"): ("0x1.56e035a29b5d8p-5", "0x1.0f07640e24fb7p-27"),
    ("state-density-action-atom", "kink"): ("0x1.86a3910dd48ffp-2", "0x1.36b2ee789fe66p-32"),
    ("state-density-action-atom", "step"): ("0x1.355554b60b60bp-1", "0x1.11116110ccccdp-29"),
    ("state-density-action-atom", "wave"): ("0x1.728360757d718p-6", "0x1.3ae059f25844fp-27"),
}


def _function(cls, route, integrand):
    arity, _ = ROUTES[route]
    u, f = INTEGRANDS[integrand]
    if arity == "state":
        return TestFunction(integrand, cls, lambda p: u(float(p.coord)), F(1), arity="state")
    return TestFunction(integrand, cls, lambda p, a: f(float(p.coord), float(a)), F(1))


def _integral(cls, route, integrand):
    mu = HybridMeasure(_domain(), (ROUTES[route][1](),))
    return integrate(mu, _function(cls, route, integrand), tol=1e-8)


@pytest.mark.parametrize("cls", [MEASURABLE, CARATHEODORY])
@pytest.mark.parametrize("route, integrand", sorted(SIMPSON_BITS))
def test_non_continuous_classes_keep_the_simpson_bits(cls, route, integrand):
    got = _integral(cls, route, integrand)
    assert (float(got.value).hex(), float(got.err).hex()) == SIMPSON_BITS[route, integrand]


@pytest.fixture
def rule_calls(monkeypatch):
    """Counts the calls `measure` makes to each rule."""
    calls = {"kronrod": 0, "simpson": 0}

    def counted(name, rule):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return rule(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(measure, "kronrod_quadrature", counted("kronrod", kronrod_quadrature))
    monkeypatch.setattr(measure, "adaptive_quadrature", counted("simpson", adaptive_quadrature))
    return calls


@pytest.mark.parametrize("cls", [CONTINUOUS, CARATHEODORY, MEASURABLE])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_only_continuous_functions_take_kronrod(rule_calls, cls, route):
    got = _integral(cls, route, "wave")
    rule = "kronrod" if cls == CONTINUOUS else "simpson"
    other = "simpson" if cls == CONTINUOUS else "kronrod"
    assert rule_calls[rule] > 0 and rule_calls[other] == 0
    if cls == CONTINUOUS:
        assert (float(got.value).hex(), float(got.err).hex()) != SIMPSON_BITS[route, "wave"]


def test_structured_functions_take_no_rule(rule_calls):
    x = PiecewisePoly((F(0), F(1)), ((F(0), F(1)),))
    g = structured_state_function("x", CONTINUOUS, StateFactor(segment_polys=(("seg", x),)), F(1))
    got = integrate(HybridMeasure(_domain(), (ROUTES["state-density"][1](),)), g)
    assert got.is_exact
    assert rule_calls == {"kronrod": 0, "simpson": 0}


# -- refusals --------------------------------------------------------------


def _fast_wave(x):
    # continuous and bounded, but about 160,000 periods over [0, 1]: far
    # more than 4,096 intervals of 15 samples can resolve
    return math.sin(1e6 * x)


def test_kronrod_refuses_with_its_best_value_and_err():
    with pytest.raises(QuadratureError) as info:
        kronrod_quadrature(_fast_wave, 0.0, 1.0, 1e-9, max_intervals=64)
    exc = info.value
    assert exc.tol == 1e-9 and exc.err > 1e-9
    assert math.isfinite(exc.value) and abs(exc.value) <= 1.0


@pytest.mark.parametrize("quad", [kronrod_quadrature, adaptive_quadrature])
@pytest.mark.parametrize("lo, hi", [(0.5, 0.5), (1.0, 0.0)])
def test_empty_interval_is_refused(quad, lo, hi):
    with pytest.raises(ValueError, match="need lo < hi"):
        quad(math.sin, lo, hi, 1e-9)


def _fast_wave_function():
    return TestFunction("fast-wave", CONTINUOUS, lambda p: _fast_wave(float(p.coord or 0)), F(1), arity="state")


def test_integrate_refuses_an_unresolvable_continuous_integrand():
    mu = HybridMeasure(_domain(), (MeasureComponent(_state_density(), None, ONE),))
    with pytest.raises(IntegrationError, match="quadrature stalled") as info:
        integrate(mu, _fast_wave_function(), tol=1e-9)
    exc = info.value
    assert isinstance(exc.value, float) and isinstance(exc.err, float)
    assert exc.err > 1e-9


def test_cli_reports_an_unresolvable_continuous_integrand(capsys, monkeypatch):
    def example1():
        entry = zoo.example1()
        wild = make_battery("w-fast-wave", "w", (_fast_wave_function(),))
        return dataclasses.replace(entry, batteries={**entry.batteries, "w-fast-wave": wild})

    monkeypatch.setitem(zoo.ZOO, "example1", example1)
    rc = main([
        "convergence", "--zoo", "example1", "--family", "spread_first",
        "--limit", "point_first", "--battery", "w-fast-wave", "--horizon", "2", "--tol", "1e-9",
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: quadrature stalled at err=")
