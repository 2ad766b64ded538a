"""Models, kernels, validation diagnostics and strategy plumbing."""

import dataclasses
import math
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
    MeasureError,
    ModelError,
    Number,
    ONE,
    SegmentDecl,
    SegmentSelector,
    StageKernel,
    StateAtom,
    StateDensity,
    StatePoint,
    Strategy,
    StrategyFamily,
    StrategyRule,
    StateSpace,
    TransitionKernel,
    check_condition_s,
    deterministic_stationary,
    markov_sequence,
    validate_model,
    validate_strategy,
)
from absorbing_mdp.zoo import example1

from conftest import chain_model, ladder_model, negative_float_model

F = Fraction
HALF = Number.exact(1, 2)


# -- validation ------------------------------------------------------------


def test_clean_models_have_no_diagnostics(chain, ladder8):
    assert validate_model(chain) == []
    assert validate_model(ladder8) == []


def test_frontier_may_not_name_the_cemetery():
    # every solver treats the cemetery as absorbing and would ignore the
    # declaration: occupation_countable reported tail 0 and total mass 2
    m = dataclasses.replace(chain_model(), frontier=frozenset({"Delta"}))
    assert validate_model(m) == [
        "frontier: the cemetery 'Delta' is absorbing and cannot be a frontier atom"
    ]
    assert validate_model(dataclasses.replace(chain_model(), frontier=frozenset({"B"}))) == []


def bad_model(rows):
    space = StateSpace(atoms=(AtomDecl("A"), AtomDecl("Delta")))
    return MdpModel(
        name="bad",
        states=space,
        actions=FiniteActions(("x",)),
        kernel=TransitionKernel(rows=rows),
    )


def test_row_mass_must_be_one():
    m = bad_model(
        (
            (("A", "x"), (("Delta", HALF),)),
            (("Delta", "x"), (("Delta", ONE),)),
        )
    )
    assert any("mass" in d or "sum" in d for d in validate_model(m))


@pytest.mark.parametrize("rule, where", [(False, "row ('s', 'a')"), (True, "rule[0]")], ids=["row", "rule"])
def test_negative_float_probability_is_reported(rule, where):
    # only exact probabilities were checked for sign, so this model drew no
    # diagnostic and occupation_countable reported a mean time of 2.5
    m = negative_float_model(rule)
    assert validate_model(m) == [f"{where}: negative probability on 'Delta'"]


def test_float_probability_within_its_err_of_zero_is_not_negative():
    space = StateSpace(atoms=(AtomDecl("s"), AtomDecl("Delta")))
    m = MdpModel(
        name="tiny",
        states=space,
        actions=FiniteActions(("a",)),
        kernel=TransitionKernel(
            rows=(
                (("s", "a"), (("Delta", Number.approx(1.0)), ("s", Number.approx(-1e-12, 1e-12)))),
                (("Delta", "a"), (("Delta", ONE),)),
            )
        ),
    )
    assert validate_model(m) == []


def negative_height_model(exact: bool) -> MdpModel:
    """s jumps to Delta with mass 3/2 and onto [0, 1] of u with height
    -1/2: the target masses sum to 1, but it is no distribution."""
    num = (lambda p, q: Number.exact(p, q)) if exact else (lambda p, q: Number.approx(p / q))
    space = StateSpace(atoms=(AtomDecl("s"), AtomDecl("Delta")), segments=(SegmentDecl("u", F(0), F(1)),))
    rules = (
        FixedDiffuse(FromRegion(atoms=("s",)), atom_probs=(("Delta", num(3, 2)),),
                     pieces=(("u", (F(0), F(1)), (num(-1, 2),)),)),
        FixedDiffuse(FromRegion(segment="u"), atom_probs=(("Delta", ONE),)),
        FixedDiffuse(FromRegion(atoms=("Delta",)), atom_probs=(("Delta", ONE),)),
    )
    return MdpModel(name="negative-height", states=space, actions=FiniteActions(("a",)),
                    kernel=TransitionKernel(rules=rules))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_negative_rule_density_height_is_reported(exact):
    # the heights went unchecked: this model drew no diagnostic, and
    # occupation_unroll then refused the density it built
    assert validate_model(negative_height_model(exact)) == ["rule[0]: negative probability on 'u'"]


def test_float_rule_density_height_within_its_err_of_zero_is_not_negative():
    space = StateSpace(atoms=(AtomDecl("s"), AtomDecl("Delta")), segments=(SegmentDecl("u", F(0), F(1)),))
    rules = (
        FixedDiffuse(FromRegion(atoms=("s",)), atom_probs=(("Delta", Number.approx(1.0)),),
                     pieces=(("u", (F(0), F(1)), (Number.approx(-1e-12, 1e-12),)),)),
        FixedDiffuse(FromRegion(segment="u"), atom_probs=(("Delta", ONE),)),
        FixedDiffuse(FromRegion(atoms=("Delta",)), atom_probs=(("Delta", ONE),)),
    )
    m = MdpModel(name="tiny", states=space, actions=FiniteActions(("a",)), kernel=TransitionKernel(rules=rules))
    assert validate_model(m) == []


def _weight_refusal(w):
    space = StateSpace(atoms=(AtomDecl("s"), AtomDecl("Delta")))
    try:
        component = MeasureComponent(StateAtom(space.point("s")), None, w)
        HybridMeasure(Domain(space, FiniteActions(("a",))), (component,))
    except MeasureError as exc:
        return str(exc)


def _height_refusal(h):
    try:
        StateDensity("u", (F(0), F(1)), (h,))
    except MeasureError as exc:
        return str(exc)


def _row_refusal(p):
    # the row sums to 1 (within 1e-9 for floats): only the sign is at fault
    space = StateSpace(atoms=(AtomDecl("s"), AtomDecl("Delta")))
    rows = ((("s", "a"), (("Delta", ONE - p), ("s", p))), (("Delta", "a"), (("Delta", ONE),)))
    m = MdpModel(name="tiny", states=space, actions=FiniteActions(("a",)), kernel=TransitionKernel(rows=rows))
    return "; ".join(validate_model(m)) or None


@pytest.mark.parametrize(
    "site, message",
    [
        (_weight_refusal, "component: negative weight"),
        (_height_refusal, "density on 'u': negative height"),
        (_row_refusal, "row ('s', 'a'): negative probability on 's'"),
    ],
    ids=["component-weight", "density-height", "row-probability"],
)
@pytest.mark.parametrize(
    "p, refused",
    [
        (Number.exact(-1, 10 ** 30), True),
        (Number.approx(-1e-17, 1e-16), False),
        (Number.approx(-1e-15, 1e-16), True),
    ],
    ids=["exact-tiny", "float-within-err", "float-beyond-err"],
)
def test_the_shared_sign_test_at_its_boundary(site, message, p, refused):
    # one sign test serves all three: negative exactly, or by more than its err
    assert site(p) == (message if refused else None)


def test_missing_row_is_reported():
    m = bad_model(((("Delta", "x"), (("Delta", ONE),)),))
    assert validate_model(m) != []


def test_cemetery_needs_sure_self_loop():
    m = bad_model(
        (
            (("A", "x"), (("Delta", ONE),)),
            (("Delta", "x"), (("A", ONE),)),
        )
    )
    assert any("Delta" in d for d in validate_model(m))


def test_unknown_target_is_reported():
    m = bad_model(
        (
            (("A", "x"), (("ghost", ONE),)),
            (("Delta", "x"), (("Delta", ONE),)),
        )
    )
    assert any("ghost" in d for d in validate_model(m))


# -- continuity condition --------------------------------------------------


def test_condition_trivial_for_finite_actions(chain):
    res = check_condition_s(chain)
    assert res.status == "holds_trivially"


def test_condition_fails_with_jump_witness():
    entry = example1()
    res = check_condition_s(entry.model)
    assert res.status == "fails"
    assert res.induced_map is not None
    assert res.jump_at is not None
    lo = res.induced_map(res.jump_at - F(1, 8))
    hi = res.induced_map(res.jump_at + F(1, 8))
    assert {lo, hi} == {0, 1}


# -- kernel pieces ---------------------------------------------------------


def test_from_region_matching():
    r = FromRegion(atoms=("A", "B"))
    assert r.matches(StatePoint(atom="A"))
    assert not r.matches(StatePoint(atom="C"))
    s = FromRegion(segment="seg")
    assert s.matches(StatePoint(segment="seg", coord=F(1, 2)))
    assert s.covers_segment("seg")


def test_from_region_needs_exactly_one_side():
    with pytest.raises(ModelError):
        FromRegion()
    with pytest.raises(ModelError):
        FromRegion(atoms=("A",), segment="seg")


def test_fixed_diffuse_target_mass():
    rule = FixedDiffuse(
        region=FromRegion(atoms=("A",)),
        atom_probs=(("Delta", HALF),),
        pieces=(("seg", (F(0), F(1, 2)), (HALF,)),),
    )
    # 1/2 atom mass + 1/2 * 1/2 density mass
    assert rule.target_mass() == Number.exact(3, 4)


# -- strategies ------------------------------------------------------------


def test_stationary_tail_clamps_stages():
    s = deterministic_stationary(default="fwd")
    assert s.stage(0) is s.stage(99)


def test_bounded_strategy_refuses_overflow():
    stage = StageKernel(rules=(StrategyRule(dist=ActionAtom("fwd")),))
    s = Strategy(stages=(stage,), stationary_tail=False)
    with pytest.raises(ModelError):
        s.stage(1)


def test_markov_sequence_orders_stages(chain):
    s = markov_sequence(
        [
            StageKernel(rules=(StrategyRule(dist=ActionAtom("stall")),)),
            StageKernel(rules=(StrategyRule(dist=ActionAtom("fwd")),)),
        ]
    )
    A = chain.states.point("A")
    assert s.stage(0).dist_at(A) == ActionAtom("stall")
    assert s.stage(1).dist_at(A) == ActionAtom("fwd")
    assert s.stage(5).dist_at(A) == ActionAtom("fwd")


def test_first_matching_rule_wins(chain):
    stage = StageKernel(
        rules=(
            StrategyRule(dist=ActionAtom("stall"), atoms=("A",)),
            StrategyRule(dist=ActionAtom("fwd")),
        )
    )
    assert stage.dist_at(chain.states.point("A")) == ActionAtom("stall")
    assert stage.dist_at(chain.states.point("B")) == ActionAtom("fwd")


def test_silent_stage_raises(chain):
    stage = StageKernel(rules=(StrategyRule(dist=ActionAtom("fwd"), atoms=("B",)),))
    with pytest.raises(ModelError):
        stage.dist_at(chain.states.point("A"))


# -- selectors -------------------------------------------------------------


def test_selector_cells_are_left_closed():
    sel = SegmentSelector("seg", breaks=(F(0), F(1, 2), F(1)), actions=("lo", "hi"))
    assert sel.action_at(F(0)) == "lo"
    assert sel.action_at(F(1, 4)) == "lo"
    assert sel.action_at(F(1, 2)) == "hi"
    # the right endpoint clamps into the last cell
    assert sel.action_at(F(1)) == "hi"


def test_selector_shape_errors():
    with pytest.raises(ModelError):
        SegmentSelector("seg", breaks=(F(0), F(1)), actions=("a", "b"))
    with pytest.raises(ModelError):
        SegmentSelector("seg", breaks=(F(1), F(0)), actions=("a",))


def test_selector_splits_density_and_preserves_mass():
    sel = SegmentSelector("seg", breaks=(F(0), F(1, 2), F(1)), actions=("lo", "hi"))
    stage = StageKernel(rules=(sel,))
    d = StateDensity("seg", (F(1, 4), F(3, 4)), (Number.exact(2),))
    parts = stage.split_density(d)
    # the cut at 1/2 splits the density into two cells with the two actions
    assert [(p[0], p[2]) for p in parts] == [
        ((F(1, 4), F(1, 2)), ActionAtom("lo")),
        ((F(1, 2), F(3, 4)), ActionAtom("hi")),
    ]
    mass = sum((hi - lo) * 2 for (lo, hi), _, _ in parts)
    assert mass == F(1)


def midpoint_split(sel, density):
    """The selector split as it was once written: cut at every break, then
    find each cell's piece and action at its midpoint.  A float cell one
    ulp wide can have a midpoint that rounds onto its upper end."""
    cuts = sorted(set(density.breaks) | {b for b in sel.breaks if density.breaks[0] < b < density.breaks[-1]})
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = lo + (hi - lo) / 2
        h = None
        for a, b, hh in zip(density.breaks, density.breaks[1:], density.heights):
            if a <= mid < b:
                h = hh
                break
        if h is None:
            continue
        out.append(((lo, hi), (h,), ActionAtom(sel.action_at(mid))))
    return out


def _ulp_split(breaks):
    sel = SegmentSelector("seg", breaks=(0.0, 0.5, 1.0), actions=("lo", "hi"))
    heights = tuple(Number.exact(j + 1) for j in range(len(breaks) - 1))
    return StageKernel(rules=(sel,)).split_density(StateDensity("seg", breaks, heights)), heights


def test_a_cell_one_ulp_wide_keeps_its_own_height():
    x = 0.3
    up = math.nextafter(x, 1.0)
    assert x + (up - x) / 2 == up  # the midpoint rounds onto the upper end
    parts, (h1, h2, h3) = _ulp_split((0.0, x, up, 1.0))
    assert parts == [
        ((0.0, x), (h1,), ActionAtom("lo")),
        ((x, up), (h2,), ActionAtom("lo")),
        ((up, 0.5), (h3,), ActionAtom("lo")),
        ((0.5, 1.0), (h3,), ActionAtom("hi")),
    ]


def test_a_last_cell_one_ulp_wide_is_kept():
    x = 0.3
    up = math.nextafter(x, 1.0)
    parts, (h1, h2) = _ulp_split((0.0, x, up))
    assert parts == [((0.0, x), (h1,), ActionAtom("lo")), ((x, up), (h2,), ActionAtom("lo"))]
    density = StateDensity("seg", (0.0, x, up), (h1, h2))
    assert sum(h.value * (hi - lo) for (lo, hi), (h,), _ in parts) == density.mass().value


_coords = st.fractions(min_value=0, max_value=1, max_denominator=12)


@st.composite
def _split_cases(draw):
    """A density on part of [0, 1] and a selector whose breaks are drawn from
    the density's own breaks, from [0, 1], and from outside [0, 1], so that
    it starts or ends inside the density, lies outside it, or shares its
    breaks."""
    breaks = tuple(sorted(draw(st.lists(_coords, min_size=2, max_size=6, unique=True))))
    heights = tuple(Number.exact(j + 1) for j in range(len(breaks) - 1))
    pool = st.one_of(
        st.sampled_from(breaks), _coords, st.fractions(min_value=-1, max_value=2, max_denominator=6)
    )
    cuts = tuple(sorted(draw(st.lists(pool, min_size=2, max_size=7, unique=True))))
    actions = tuple(draw(st.sampled_from("abc")) for _ in cuts[1:])
    return SegmentSelector("seg", cuts, actions), StateDensity("seg", breaks, heights)


@settings(max_examples=300, deadline=None)
@given(_split_cases())
def test_selector_split_matches_the_midpoint_split_on_exact_breaks(case):
    sel, density = case
    got = StageKernel(rules=(sel,)).split_density(density)
    want = midpoint_split(sel, density)
    assert got == want
    assert [type(x) for (lo, hi), _, _ in got for x in (lo, hi)] == [
        type(x) for (lo, hi), _, _ in want for x in (lo, hi)
    ]
    assert [h is w for (_, (h,), _), (_, (w,), _) in zip(got, want)] == [True] * len(want)


# -- families --------------------------------------------------------------


def test_family_explored_lists_members_then_generated():
    base = deterministic_stationary(default="fwd")
    fam = StrategyFamily(
        label="probe",
        members=(("base", base),),
        index_lo=1,
        index_hi=3,
        generator=lambda i: base,
    )
    names = [n for n, _ in fam.explored()]
    assert names == ["base", "probe:1", "probe:2", "probe:3"]


def test_validate_strategy_flags_unknown_action(chain):
    s = deterministic_stationary(default="sideways")
    assert validate_strategy(chain, s) != []


def test_validate_strategy_accepts_mixtures(chain):
    mix = ActionMixture(parts=((HALF, ActionAtom("fwd")), (HALF, ActionAtom("stall"))))
    s = Strategy(stages=(StageKernel(rules=(StrategyRule(dist=mix),)),))
    assert validate_strategy(chain, s) == []
