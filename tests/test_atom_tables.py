"""Atom chains without re-resolving or re-boxing, against the checked paths.

A state space keeps one point per atom (`StateSpace.point`, a
`cached_property` dict), and a model keeps each atom's checked kernel rows
by name (`MdpModel._kept_rows`, filled by `occupation._rows_at`, which
resolves the atom's rule only when its rows are not kept).  The
countable solver builds its measure trusted: its states are kept points,
every weight and each distinct action are still checked.  Exact atom
measures are summed on integers: `total_mass` by `_exact_sum`, which drops
zero numerators, and `_integral` skips an exact atom term whose value is 0.

Against the paths they replace:

* a kept point equals, hashes and prints as the point built from its
  declaration, and an unknown atom raises the same KeyError;
* the trusted countable measure equals and hashes equal to the measure the
  checked constructor builds from the same components, which accepts it;
* kept rows are those of the resolved rule, and a kept atom's later
  lookups resolve nothing;
* a rule lookup that raises keeps nothing and raises again, and a refused
  rule keeps no rows and is refused again;
* the kept points and rows die with their space and model;
* exact totals and integrals equal plain `Fraction` sums, value and type;
  with a float weight, their bits are those of the plain in-order loop.
"""

import dataclasses
import gc
import struct
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from absorbing_mdp import (
    ActionAtom,
    ActionMixture,
    AtomDecl,
    CountableSolverError,
    Domain,
    FiniteActions,
    FixedDiffuse,
    FromRegion,
    HybridMeasure,
    MdpModel,
    MEASURABLE,
    MeasureComponent,
    MeasureError,
    ModelError,
    Number,
    ONE,
    SolverError,
    StateAtom,
    StatePoint,
    StateSpace,
    TestFunction,
    TransitionKernel,
    ZERO,
    deterministic_stationary,
    occupation_countable,
)
from absorbing_mdp import measure, occupation
from absorbing_mdp.measure import action_mass
from absorbing_mdp.mdp import resolve_rule
from absorbing_mdp.occupation import _atom_rows

from conftest import refusal_case
from test_countable_oracle import build, chains
from test_integrate_oracle import reference_integrate

F = Fraction


def bits(n: Number):
    """A Number as (exact?, value, err), floats as their bytes."""
    if n.is_exact:
        return (True, n.value, n.err)
    return (False, struct.pack("<d", n.value), struct.pack("<d", n.err))


# -- kept points ------------------------------------------------------------

NAMES = ("a", "b", "c", "d", "Delta")
COORDS = st.one_of(st.none(), st.fractions(max_denominator=50), st.floats(-4, 4))


@st.composite
def spaces(draw):
    names = draw(st.lists(st.sampled_from(NAMES[:-1]), unique=True)) + ["Delta"]
    return StateSpace(atoms=tuple(AtomDecl(n, coord=draw(COORDS)) for n in names))


@settings(max_examples=150, deadline=None)
@given(spaces(), st.lists(st.sampled_from(NAMES + ("zz",)), max_size=8))
def test_a_kept_point_is_the_point_of_its_declaration(space, asked):
    for name in asked:
        if name not in space.atom_map:
            with pytest.raises(KeyError) as got:
                space.point(name)
            with pytest.raises(KeyError) as want:
                space.atom_decl(name)
            assert got.value.args == want.value.args == (f"unknown atom {name!r}",)
            continue
        p = space.point(name)
        want = StatePoint(atom=name, coord=space.atom_decl(name).coord)
        assert type(p) is StatePoint
        assert (p, hash(p), repr(p)) == (want, hash(want), repr(want))
        assert (p.atom, p.segment, type(p.coord), p.coord) == (want.atom, None, type(want.coord), want.coord)
        assert space.point(name) is p


# -- the trusted countable measure ------------------------------------------


def floated(model: MdpModel) -> MdpModel:
    rows = tuple(
        (key, tuple((t, Number.approx(float(p.value))) for t, p in row)) for key, row in model.kernel.rows
    )
    return dataclasses.replace(model, kernel=TransitionKernel(rows=rows))


@settings(max_examples=200, deadline=None)
@given(chains(), st.booleans())
def test_the_trusted_countable_measure_is_the_checked_one(chain, inexact):
    model, strategy = build(*chain)
    if inexact:
        model = floated(model)
    try:
        occ = occupation_countable(model, strategy, model.states.point("s0"), continue_bound=F(1, 2))
    except CountableSolverError:
        return
    mu = occ.measure
    checked = HybridMeasure(mu.domain, mu.components)  # accepts it, or raises
    assert (mu, hash(mu)) == (checked, hash(checked))
    space = model.states
    for c in mu.components:
        atom = c.state.point.atom
        assert c.state == StateAtom(StatePoint(atom=atom, coord=space.atom_decl(atom).coord))
        assert type(c.action) is ActionAtom and c.action.action in model.actions.names


def one_state(row, actions=("a",)) -> MdpModel:
    """s --a--> row; t and the cemetery absorb under a and every action."""
    space = StateSpace(atoms=(AtomDecl("s"), AtomDecl("t"), AtomDecl("Delta")))
    rows = [(("s", "a"), row)] + [((x, a), (("Delta", ONE),)) for x in ("t", "Delta") for a in {"a", *actions}]
    return MdpModel(
        name="one-state", states=space, actions=FiniteActions(actions), kernel=TransitionKernel(rows=tuple(rows))
    )


def test_a_negative_weight_is_still_refused():
    # t is visited -1/2 times: the checked constructor's error
    model = one_state((("t", Number.approx(-0.5)), ("Delta", Number.approx(1.5))))
    with pytest.raises(MeasureError, match="^component: negative weight$"):
        occupation_countable(model, deterministic_stationary(default="a"), model.states.point("s"))


def test_an_undeclared_action_is_still_refused():
    # the kernel has rows for "a", which the action space does not declare
    model = one_state((("t", ONE),), actions=("b",))
    with pytest.raises(MeasureError, match="^unknown action 'a'$"):
        occupation_countable(model, deterministic_stationary(default="a"), model.states.point("s"))


# -- kept rows ----------------------------------------------------------------


def rule_model() -> MdpModel:
    """s has table rows, r a diffuse rule, u nothing at all."""
    space = StateSpace(atoms=tuple(AtomDecl(x) for x in ("s", "r", "u", "Delta")))
    rows = ((("s", "a"), (("r", ONE),)), (("Delta", "a"), (("Delta", ONE),)))
    rule = FixedDiffuse(FromRegion(atoms=("r",)), atom_probs=(("Delta", ONE),))
    return MdpModel(name="rules", states=space, actions=FiniteActions(("a",)), kernel=TransitionKernel(rows, (rule,)))


def test_kept_rows_are_the_resolved_rules_rows(monkeypatch):
    model = rule_model()
    assert [resolve_rule(model, StateAtom(model.states.point(x))) for x in ("s", "r")] == ["table", model.kernel.rules[0]]
    resolved = []

    def counted(m, part):
        resolved.append(part)
        return resolve_rule(m, part)

    monkeypatch.setattr(occupation, "resolve_rule", counted)
    for name in ("s", "r"):
        point = model.states.point(name)
        first = _atom_rows(model, point, [("a", ONE)])
        # a point without its coordinate reads the same kept rows
        assert _atom_rows(model, StatePoint(atom=name), [("a", ONE)]) == first
    assert resolved == [StateAtom(model.states.point("s")), StateAtom(model.states.point("r"))]
    assert model._kept_rows == {"s": {"a": model.kernel.row("s", "a")}, "r": (model.kernel.rules[0].atom_probs,)}


def test_a_raising_rule_lookup_keeps_nothing():
    model = rule_model()
    point = model.states.point("u")
    for _ in range(2):
        with pytest.raises(ModelError, match="no kernel rule covers StatePoint\\('u'\\)"):
            _atom_rows(model, point, [("a", ONE)])
        assert "u" not in model._kept_rows


def test_a_refused_rule_keeps_no_rows():
    model, _ = refusal_case("density target", FiniteActions(("x", "y")))
    for _ in range(2):
        with pytest.raises(SolverError, match="atomic solver met a density target"):
            _atom_rows(model, model.states.point("s1"), [("x", ONE)])
        assert "s1" not in model._kept_rows


def test_kept_points_and_rows_die_with_their_model():
    model = rule_model()
    _atom_rows(model, model.states.point("s"), [("a", ONE)])
    assert model._kept_rows and model.states._points
    refs = weakref.ref(model), weakref.ref(model.states), weakref.ref(model.states.point("s"))
    del model
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


# -- atom measures on integers ------------------------------------------------

SPACE = StateSpace(atoms=tuple(AtomDecl(x, coord=F(i, 7)) for i, x in enumerate(NAMES)))
DOMAIN = Domain(SPACE, FiniteActions(("x", "y")))
# zero, repeated and nested denominators
EXACT = st.sampled_from([F(0), F(0), F(1), F(1, 2), F(3, 4), F(1, 3), F(5, 6), F(7, 12), F(2, 9), F(11, 10**30)])


@st.composite
def weights(draw, inexact: bool):
    if inexact and draw(st.integers(0, 3)) == 0:
        return Number.approx(draw(st.floats(0, 3)), draw(st.sampled_from([0.0, 2.0**-40])))
    return Number(draw(EXACT) * draw(st.sampled_from([1, 1, 2, 10**20])))


@st.composite
def action_parts(draw):
    kind = draw(st.sampled_from(["none", "atom", "atom", "mixture"]))
    if kind == "none":
        return None
    if kind == "atom":
        return ActionAtom(draw(st.sampled_from(["x", "y"])))
    return ActionMixture(((Number(draw(EXACT)), ActionAtom("x")), (Number(draw(EXACT)), ActionAtom("y"))))


@st.composite
def atom_measures(draw, inexact=False, joint=False):
    parts = action_parts().filter(lambda a: a is not None) if joint else action_parts()
    states = st.sampled_from(NAMES).map(lambda n: StateAtom(SPACE.point(n)))
    comps = draw(st.lists(st.builds(MeasureComponent, states, parts, weights(inexact)), max_size=12))
    return HybridMeasure(DOMAIN, tuple(comps))


def plain_total(mu) -> Fraction:
    total = F(0)
    for c in mu.components:
        a = c.action
        mass = F(1) if a is None or type(a) is ActionAtom else sum((w.value for w, _ in a.parts), F(0))
        total += c.weight.value * mass
    return total


def in_order(mu) -> Number:
    total = ZERO
    for c in mu.components:
        total = total + c.mass()
    return total


@settings(max_examples=300, deadline=None)
@given(atom_measures(inexact=True))
def test_atom_total_mass_is_the_fraction_sum_or_the_loop(mu):
    got = mu.total_mass()
    if all(c.weight.is_exact for c in mu.components):
        want = plain_total(mu)
        assert type(got) is Number and type(got.value) is Fraction and got.err == 0
        assert (got.value.numerator, got.value.denominator) == (want.numerator, want.denominator)
    assert bits(got) == bits(in_order(mu))


DENOMINATORS = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 10**30])  # repeated, nested and not


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0, 0, 1, -1, 3, 10**40]), DENOMINATORS), max_size=30))
@example([(0, 10**30), (0, 3)])
@example([(1, 2), (-1, 2), (0, 7)])
def test_exact_sum_with_zero_terms_is_the_fraction_sum(terms):
    got = measure._exact_sum(terms)
    want = sum((F(n, d) for n, d in terms), F(0))
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


VALUES = st.sampled_from([0, 0, 0, 1, F(1, 2), F(2, 3), F(0), 5])


@st.composite
def atom_functions(draw, joint: bool):
    table = {(n, a): draw(VALUES) for n in NAMES for a in ("x", "y")}
    if joint:
        return TestFunction("table", MEASURABLE, lambda p, a: table[(p.atom, a)], F(10), arity="state_action")
    return TestFunction("table", MEASURABLE, lambda p: table[(p.atom, "x")], F(10), arity="state")


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(lambda joint: st.tuples(atom_measures(True, joint), atom_functions(joint))))
def test_atom_integral_with_zero_values_is_the_fraction_sum_or_the_loop(case):
    mu, g = case
    got = measure._integral(mu, g, 1e-12)
    if all(c.weight.is_exact for c in mu.components):
        want = F(0)
        for c in mu.components:
            if g.arity == "state":
                want += c.weight.value * action_mass(c.action).value * g.evaluator(c.state.point)
                continue
            parts = c.action.parts if type(c.action) is ActionMixture else ((ONE, c.action),)
            for w, part in parts:
                want += c.weight.value * w.value * g.evaluator(c.state.point, part.action)
        assert type(got.value) is Fraction and got.err == 0
        assert (got.value.numerator, got.value.denominator) == (want.numerator, want.denominator)
    assert bits(got) == bits(reference_integrate(mu, g))
