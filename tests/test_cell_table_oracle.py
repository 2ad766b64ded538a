"""The trusted paths of selector measures against their checked counterparts.

`occupation_unroll` builds the cells a density is cut into, and the measure
it merges them into, without checking them again, routes the cells of one
exact density as one mass, and hashes only the cells that can meet an equal
one.  `HybridMeasure.total_mass` sums the cells of the measure's joint cell
table as integers, and `determinism_defect` sums a segment whose components
are all tabled on one integer grid.  Against their counterparts:

* the unrolled measure equals the one `reference_unroll` builds cell by
  cell through the checked constructors, merging every key by hash, with
  float weights bit for bit, and the checked constructor accepts it;
* `total_mass` equals `nsum` of the components' masses: the same exact
  value and type, or the same float bits;
* `determinism_defect` equals the containment scan of
  `test_defect_oracle`: the same exact value, or the same float bits where
  float and exact segments mix.
"""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from absorbing_mdp import (
    ActionAtom,
    ActionMixture,
    AtomDecl,
    Domain,
    FiniteActions,
    FixedDiffuse,
    FromRegion,
    HybridMeasure,
    MdpModel,
    MeasureComponent,
    Number,
    ONE,
    SegmentDecl,
    SegmentSelector,
    StageKernel,
    StateAtom,
    StateDensity,
    StateSpace,
    StrategyRule,
    TransitionKernel,
    ZERO,
    determinism_defect,
    markov_sequence,
    occupation_unroll,
)
from absorbing_mdp.mdp import resolve_rule
from absorbing_mdp.numbers import nsum

from test_defect_oracle import DOMAIN, assert_same, containment_scan_defect

F = Fraction
ACTIONS = ("a", "b", "c")
SPACE = StateSpace(
    atoms=(AtomDecl("start"), AtomDecl("mid"), AtomDecl("Delta")),
    segments=(SegmentDecl("s", F(0), F(1)), SegmentDecl("t", F(0), F(1))),
)


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


def weight_key(w: Number):
    return (True, w.value) if w.is_exact else (False, bits(w.value), bits(w.err))


def same_measure(got: HybridMeasure, want: HybridMeasure):
    assert got.domain == want.domain
    assert [(c.state, c.action) for c in got.components] == [(c.state, c.action) for c in want.components]
    assert [weight_key(c.weight) for c in got.components] == [weight_key(c.weight) for c in want.components]


def reference_unroll(model, strategy, x0, horizon) -> HybridMeasure:
    """The unroll as a plain loop over cells: each cell a checked
    StateDensity, its mass w · (cell mass) · (action mass) routed through
    its rule, and every (state part, action part) merged by hash."""
    space = model.states
    parts = [(StateAtom(x0), ONE)]
    collected = []
    for t in range(horizon):
        stage = strategy.stage(t)
        joint = []
        for spart, w in parts:
            if w.is_exact and w.value == 0:
                continue
            if isinstance(spart, StateAtom):
                joint.append((spart, stage.dist_at(spart.point), w))
            else:
                for breaks, heights, dist in stage.split_density(spart):
                    joint.append((StateDensity(spart.segment, tuple(breaks), tuple(heights)), dist, w))
        nxt = {}
        for s, dist, w in joint:
            rule = resolve_rule(model, s)
            mass = w * s.mass() * dist.mass()
            for name, p in rule.atom_probs:
                nxt[name] = nxt.get(name, ZERO) + mass * p
            for label, breaks, heights in rule.pieces:
                key = StateDensity(label, tuple(breaks), tuple(heights))
                nxt[key] = nxt.get(key, ZERO) + mass
        nxt.pop(space.cemetery, None)
        parts = [(StateAtom(space.point(k)) if isinstance(k, str) else k, m) for k, m in nxt.items()]
        collected += joint
    merged: dict = {}
    for s, a, w in collected:
        merged[(s, a)] = merged[(s, a)] + w if (s, a) in merged else w
    comps = tuple(MeasureComponent(s, a, w) for (s, a), w in merged.items())
    return HybridMeasure(Domain(space, model.actions), comps)


# -- generators ------------------------------------------------------------

exact_coords = st.fractions(min_value=0, max_value=1, max_denominator=16)


@st.composite
def numbers(draw, exact: bool, hi=2):
    if exact:
        return Number(draw(st.fractions(min_value=0, max_value=hi, max_denominator=12)))
    v = draw(st.floats(min_value=0, max_value=hi, allow_nan=False))
    return Number.approx(v, draw(st.sampled_from([0.0, 1e-12, 2.0 ** -40])))


@st.composite
def coords(draw, exact: bool, lo=0, hi=1, min_size=2):
    if exact:
        xs = draw(st.lists(st.fractions(min_value=lo, max_value=hi, max_denominator=16),
                           min_size=min_size, max_size=7, unique=True))
    else:
        xs = draw(st.lists(st.floats(min_value=lo, max_value=hi, allow_nan=False),
                           min_size=min_size, max_size=7, unique=True))
        if draw(st.booleans()) and xs[0] < hi:  # a cell one ulp wide
            xs.append(math.nextafter(xs[0], math.inf))
    return tuple(sorted(set(xs)))


@st.composite
def densities(draw, label: str, exact: bool):
    """Exact breaks and heights, or float ones, or (not exact) one kind of
    each."""
    exact_breaks = exact or draw(st.integers(0, 2)) == 0
    exact_heights = exact or not exact_breaks and draw(st.booleans())
    breaks = draw(coords(exact_breaks))
    return StateDensity(label, breaks, tuple(draw(numbers(exact_heights)) for _ in breaks[1:]))


@st.composite
def action_dists(draw, exact: bool):
    if draw(st.booleans()):
        return ActionAtom(draw(st.sampled_from(ACTIONS)))
    picks = draw(st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=3))
    return ActionMixture(tuple((draw(numbers(exact, hi=1)), ActionAtom(a)) for a in picks))


@st.composite
def segment_rules(draw, label: str, exact: bool):
    """A selector on the segment, with breaks inside, around or beyond it,
    or a rule playing one action distribution there."""
    if draw(st.booleans()):
        breaks = draw(coords(exact, lo=-1, hi=2))
        return SegmentSelector(label, breaks, tuple(draw(st.sampled_from(ACTIONS)) for _ in breaks[1:]))
    return StrategyRule(dist=draw(action_dists(exact)), segment=label)


@st.composite
def selector_models(draw):
    """start jumps onto a density on s, one on t (the same one s jumps onto,
    or another) and Delta; s and t jump to Delta and mid, and s, sometimes,
    onto t; mid jumps to Delta.  Each density, probability, selector and
    mixture is exact or float on its own, so that an exact density's cells
    may be cut at float breaks, or routed onto mid after a float mass.  The
    strategy plays at start, then by segment rules.  Every mass is absorbed
    within four stages; t is cut at stages 1 and 2 when s jumps onto it."""
    ex = lambda: draw(st.booleans())  # noqa: E731
    on_s = draw(densities("s", ex()))
    on_t = draw(densities("t", ex()))
    again = on_t if draw(st.booleans()) else draw(densities("t", ex()))
    s_pieces = (("t", again.breaks, again.heights),) if draw(st.booleans()) else ()
    rules = (
        FixedDiffuse(
            FromRegion(atoms=("start",)),
            atom_probs=(("Delta", draw(numbers(ex()))),),
            pieces=(("s", on_s.breaks, on_s.heights), ("t", on_t.breaks, on_t.heights)),
        ),
        FixedDiffuse(
            FromRegion(segment="s"),
            atom_probs=(("Delta", draw(numbers(ex()))), ("mid", draw(numbers(ex())))),
            pieces=s_pieces,
        ),
        FixedDiffuse(
            FromRegion(segment="t"), atom_probs=(("mid", draw(numbers(ex()))), ("Delta", draw(numbers(ex()))))
        ),
        FixedDiffuse(FromRegion(atoms=("mid", "Delta")), atom_probs=(("Delta", ONE),)),
    )
    model = MdpModel(
        name="selectors",
        states=SPACE,
        actions=FiniteActions(ACTIONS),
        kernel=TransitionKernel(rules=rules),
    )
    first = StageKernel((StrategyRule(dist=draw(action_dists(ex()))),))
    later = StageKernel((
        draw(segment_rules("s", ex())),
        draw(segment_rules("t", ex())),
        StrategyRule(dist=draw(action_dists(ex()))),
    ))
    return model, markov_sequence((first, later))


@st.composite
def mixed_measures(draw, marginal_ok=False):
    """Measures on the defect oracle's domain whose components are each
    exact or float: atoms, densities, action atoms and mixtures, and (for
    total mass) marginal components."""
    comps = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        exact = draw(st.booleans())
        if draw(st.integers(0, 4)) == 0:
            state = StateAtom(DOMAIN.states.point(draw(st.sampled_from(("p", "q")))))
        else:
            state = draw(densities(draw(st.sampled_from(("s", "t"))), exact))
        action = None if marginal_ok and draw(st.integers(0, 5)) == 0 else draw(action_dists(exact))
        comps.append(MeasureComponent(state, action, draw(numbers(exact))))
    return HybridMeasure(DOMAIN, tuple(comps))


@st.composite
def segment_exact_measures(draw):
    """Measures in which each segment is all exact or all float, so that a
    tabled segment meets a float one before or after it."""
    exact = {"s": draw(st.booleans()), "t": draw(st.booleans())}
    atoms_exact = draw(st.booleans())
    comps = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        if draw(st.integers(0, 4)) == 0:
            state = StateAtom(DOMAIN.states.point(draw(st.sampled_from(("p", "q")))))
            e = atoms_exact
        else:
            label = draw(st.sampled_from(("s", "t")))
            e = exact[label]
            state = draw(densities(label, e))
        comps.append(MeasureComponent(state, draw(action_dists(e)), draw(numbers(e))))
    return HybridMeasure(DOMAIN, tuple(comps))


# -- the oracles -----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(selector_models())
def test_the_unrolled_measure_equals_the_checked_cell_by_cell_one(case):
    model, strategy = case
    x0 = SPACE.point("start")
    mu = occupation_unroll(model, strategy, x0, 4).measure
    same_measure(mu, reference_unroll(model, strategy, x0, 4))
    same_measure(HybridMeasure(mu.domain, mu.components), mu)
    total = mu.total_mass()
    want = nsum(c.mass() for c in mu.components)
    assert total.is_exact == want.is_exact
    assert weight_key(total) == weight_key(want)
    assert_same(determinism_defect(mu), determinism_defect(HybridMeasure(mu.domain, mu.components)))


@settings(max_examples=100, deadline=None)
@given(mixed_measures(marginal_ok=True))
def test_total_mass_equals_the_sum_of_the_masses(mu):
    got = mu.total_mass()
    want = nsum(c.mass() for c in mu.components)
    assert got.is_exact == want.is_exact
    if want.is_exact:
        assert type(got.value) is type(want.value) is Fraction
        assert got.value == want.value and got.err == 0
    else:
        assert (bits(got.value), bits(got.err)) == (bits(want.value), bits(want.err))


@settings(max_examples=100, deadline=None)
@given(segment_exact_measures())
def test_defect_on_tabled_segments_matches_the_containment_scan(mu):
    assert_same(determinism_defect(mu), containment_scan_defect(mu))


def test_a_segment_cut_at_two_stages_merges_its_equal_cells():
    # start -> 1/2 on s and the density u on t; s -> u on t; so u is cut at
    # stages 1 and 2, into the same cells, whose weights must be summed
    half = Number.exact(1, 2)
    u = ("t", (F(0), F(1, 2), F(1)), (ONE, ONE))
    rules = (
        FixedDiffuse(FromRegion(atoms=("start",)), pieces=(("s", (F(0), F(1)), (half,)), u)),
        FixedDiffuse(FromRegion(segment="s"), pieces=(u,)),
        FixedDiffuse(FromRegion(segment="t"), atom_probs=(("Delta", ONE),)),
        FixedDiffuse(FromRegion(atoms=("Delta",)), atom_probs=(("Delta", ONE),)),
    )
    model = MdpModel("twice", SPACE, FiniteActions(ACTIONS), TransitionKernel(rules=rules))
    sel = SegmentSelector("t", (F(0), F(1, 4), F(1)), ("a", "b"))
    strategy = markov_sequence((StageKernel((StrategyRule(dist=ActionAtom("a")),)), StageKernel((sel,
        StrategyRule(dist=ActionAtom("c"), segment="s")))))
    x0 = SPACE.point("start")
    mu = occupation_unroll(model, strategy, x0, 3).measure
    same_measure(mu, reference_unroll(model, strategy, x0, 3))
    cells = [c for c in mu.components if isinstance(c.state, StateDensity) and c.state.segment == "t"]
    # three cells on t, each cut from u at both stages: weight 1 + 1/2
    assert [(c.state.breaks, c.action.action, c.weight.value) for c in cells] == [
        ((F(0), F(1, 4)), "a", F(3, 2)),
        ((F(1, 4), F(1, 2)), "b", F(3, 2)),
        ((F(1, 2), F(1)), "b", F(3, 2)),
    ]


def test_cells_cut_at_float_breaks_from_an_exact_density_have_float_masses():
    # the density on s is exact, but a float selector break cuts it: each
    # cell's mass, and so what it sends onto t, is a float, as the cell by
    # cell route computes it
    half = Number.exact(1, 2)
    rules = (
        FixedDiffuse(FromRegion(atoms=("start",)), pieces=(("s", (F(0), F(1)), (ONE,)),)),
        FixedDiffuse(FromRegion(segment="s"), pieces=(("t", (F(0), F(1)), (ONE,)),)),
        FixedDiffuse(FromRegion(segment="t"), atom_probs=(("Delta", ONE),)),
        FixedDiffuse(FromRegion(atoms=("Delta",)), atom_probs=(("Delta", ONE),)),
    )
    model = MdpModel("float-cut", SPACE, FiniteActions(ACTIONS), TransitionKernel(rules=rules))
    sel = SegmentSelector("s", (0.0, 0.3, 1.0), ("a", "b"))
    strategy = markov_sequence((StageKernel((StrategyRule(dist=ActionAtom("a")),)), StageKernel((sel,
        StrategyRule(dist=ActionAtom("c"), segment="t")))))
    x0 = SPACE.point("start")
    mu = occupation_unroll(model, strategy, x0, 3).measure
    same_measure(mu, reference_unroll(model, strategy, x0, 3))
    on_t = [c for c in mu.components if isinstance(c.state, StateDensity) and c.state.segment == "t"]
    assert len(on_t) == 1 and not on_t[0].weight.is_exact


def _routed(s_heights, s_to_mid, t_to_mid=ONE, s_play=None, t_piece=None):
    """start jumps onto [0, 1] of s with `s_heights` on [0, 1/3) and [1/3,
    1) (and onto `t_piece`); s and t jump to mid with the given
    probabilities; s is cut at 1/2 by a selector, or plays `s_play`, and t
    is cut at 1/4."""
    pieces = (("s", (F(0), F(1, 3), F(1)), s_heights),) + ((t_piece,) if t_piece else ())
    rules = (
        FixedDiffuse(FromRegion(atoms=("start",)), pieces=pieces),
        FixedDiffuse(FromRegion(segment="s"), atom_probs=(("mid", s_to_mid),)),
        FixedDiffuse(FromRegion(segment="t"), atom_probs=(("mid", t_to_mid),)),
        FixedDiffuse(FromRegion(atoms=("mid", "Delta")), atom_probs=(("Delta", ONE),)),
    )
    model = MdpModel("routed", SPACE, FiniteActions(ACTIONS), TransitionKernel(rules=rules))
    on_s = SegmentSelector("s", (F(0), F(1, 2), F(1)), ("a", "b")) if s_play is None else StrategyRule(
        dist=s_play, segment="s")
    on_t = SegmentSelector("t", (F(0), F(1, 4), F(1)), ("c", "a"))
    later = StageKernel((on_s, on_t, StrategyRule(dist=ActionAtom("c"))))
    return model, markov_sequence((StageKernel((StrategyRule(dist=ActionAtom("a")),)), later))


_TWO = (ONE, Number.exact(2))
_FLOATS = (Number.approx(1.0), Number.approx(2.0))


@pytest.mark.parametrize(
    "case",
    [
        # cut into three cells, each routed onto mid at a float probability
        _routed(_TWO, Number.approx(0.3)),
        # exact breaks, float heights
        _routed(_FLOATS, ONE),
        # a mixture whose mass is not 1 on each cell
        _routed(_TWO, ONE, s_play=ActionMixture(((ONE, ActionAtom("a")), (ONE, ActionAtom("b"))))),
        # an exact density on t routed onto mid after the float mass from s
        _routed(_FLOATS, ONE, t_piece=("t", (F(0), F(1, 2), F(1)), _TWO)),
    ],
    ids=["float-probability", "float-heights", "mixture-mass-2", "after-a-float-mass"],
)
def test_cells_that_cannot_go_as_one_mass_go_cell_by_cell(case):
    model, strategy = case
    x0 = SPACE.point("start")
    mu = occupation_unroll(model, strategy, x0, 4).measure
    same_measure(mu, reference_unroll(model, strategy, x0, 4))
