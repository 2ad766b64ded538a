"""Work that a frozen model or rule settles, done once per object.

`validate_model` works a model's diagnostics out once and keeps them with
the model (a `cached_property`): a second call does no work, every call
returns a fresh list, a replaced model is diagnosed anew, a call that
raises keeps nothing, and the kept diagnostics die with the model.

`StrategyRule.matches` looks a point's atom up in a set built once per
rule; it and `StageKernel.dist_at` must answer as the scan of the atom
tuple did.  `FromRegion.matches` scans its tuple; it and `resolve_rule` are
held to the same reference.
"""

import dataclasses
import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from absorbing_mdp import (
    ActionAtom,
    AtomDecl,
    FiniteActions,
    FixedDiffuse,
    FromRegion,
    MdpModel,
    ModelError,
    Number,
    ONE,
    SegmentDecl,
    SegmentSelector,
    StageKernel,
    StateAtom,
    StateDensity,
    StatePoint,
    StateSpace,
    StrategyRule,
    TransitionKernel,
    validate_model,
)
from absorbing_mdp import mdp
from absorbing_mdp.mdp import resolve_rule

from conftest import chain_model

F = Fraction


@pytest.fixture
def diagnose_calls(monkeypatch):
    """The number of times `validate_model` has worked diagnostics out."""
    calls = []
    real = mdp._diagnose

    def counted(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(mdp, "_diagnose", counted)
    return calls


def test_a_second_call_does_no_work(diagnose_calls):
    model = dataclasses.replace(chain_model(), frontier=frozenset({"Delta", "nowhere"}))
    first = validate_model(model)
    assert len(first) == 2 and len(diagnose_calls) == 1
    assert validate_model(model) == first
    assert len(diagnose_calls) == 1


def test_each_call_returns_a_fresh_list(diagnose_calls):
    model = chain_model()
    got = validate_model(model)
    assert got == []
    got.append("tampered")
    again = validate_model(model)
    assert again == [] and again is not got
    assert len(diagnose_calls) == 1


def test_a_replaced_model_is_diagnosed_anew(diagnose_calls):
    model = chain_model()
    assert validate_model(model) == []
    bad = dataclasses.replace(model, frontier=frozenset({"Delta"}))
    assert validate_model(bad) == [
        "frontier: the cemetery 'Delta' is absorbing and cannot be a frontier atom"
    ]
    assert len(diagnose_calls) == 2
    assert validate_model(model) == []
    assert len(diagnose_calls) == 2


def test_a_duplicate_row_is_kept_as_a_diagnostic(diagnose_calls):
    model = chain_model()
    rows = model.kernel.rows + model.kernel.rows[:1]
    dup = dataclasses.replace(model, kernel=TransitionKernel(rows=rows))
    want = [f"duplicate kernel row for {rows[0][0]!r}"]
    assert validate_model(dup) == want
    assert validate_model(dup) == want
    assert len(diagnose_calls) == 1


def test_a_call_that_raises_keeps_nothing(diagnose_calls):
    # a float where a Number belongs: the diagnostics cannot be worked out
    model = chain_model()
    rows = tuple((key, tuple((nxt, 0.5) for nxt, _ in row)) for key, row in model.kernel.rows)
    broken = dataclasses.replace(model, kernel=TransitionKernel(rows=rows))
    for _ in range(2):
        with pytest.raises(AttributeError):
            validate_model(broken)
    assert len(diagnose_calls) == 2


def test_the_kept_diagnostics_die_with_the_model():
    model = dataclasses.replace(chain_model(), frontier=frozenset({"nowhere"}))
    assert validate_model(model) == ["frontier: unknown atom 'nowhere'"]
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


# -- set-backed matches against the scan of the atom tuple ------------------

NAMES = ("a", "b", "c", "Delta")
SPACE = StateSpace(
    atoms=tuple(AtomDecl(x) for x in NAMES),
    segments=(SegmentDecl("seg", F(0), F(1)), SegmentDecl("other", F(0), F(1))),
)
POINTS = (
    *(StatePoint(x) for x in NAMES),
    StatePoint("z"),  # named in no tuple
    StatePoint(segment="seg", coord=F(1, 2)),
    StatePoint(segment="other", coord=F(1, 3)),
)

# tuples with repeated names and the empty tuple
atom_tuples = st.lists(st.sampled_from(NAMES + ("z",)), max_size=4).map(tuple)
segments = st.sampled_from(["seg", "other"])


def scan_region(region, point):
    if region.atoms is not None:
        return point.atom in region.atoms
    return point.segment == region.segment


def scan_rule(rule, point):
    if isinstance(rule, SegmentSelector):
        return point.segment == rule.segment
    if rule.atoms is None and rule.segment is None:
        return True
    if rule.atoms is not None and point.atom in rule.atoms:
        return True
    return rule.segment is not None and point.segment == rule.segment


def scan_dist_at(stage, point):
    for rule in stage.rules:
        if scan_rule(rule, point):
            if isinstance(rule, SegmentSelector):
                return ActionAtom(rule.action_at(point.coord))
            return rule.dist
    raise ModelError(f"stage kernel is silent at {point!r}")


def scan_resolve_rule(model, part):
    kernel = model.kernel
    if isinstance(part, StateAtom):
        point = part.point
        if point.atom is not None and kernel.has_row_for(point.atom):
            return "table"
        for rule in kernel.rules:
            if scan_region(rule.region, point):
                return rule
        raise ModelError(f"no kernel rule covers {point!r}")
    for rule in kernel.rules:
        if rule.region.segment == part.segment:
            return rule
    raise ModelError(f"no kernel rule covers segment {part.segment!r}")


def same_outcome(got, want):
    """Both return the same object, or both raise the same error."""
    try:
        expected = want()
    except ModelError as exc:
        with pytest.raises(ModelError) as info:
            got()
        assert str(info.value) == str(exc)
        return
    assert got() is expected


@st.composite
def strategy_rules(draw):
    i = draw(st.integers(0, 9))
    if draw(st.integers(0, 5)) == 0:
        return SegmentSelector(draw(segments), (F(0), F(1, 2), F(1)), (f"s{i}", f"t{i}"))
    atoms = draw(st.none() | atom_tuples)
    segment = draw(st.none() | segments)
    return StrategyRule(dist=ActionAtom(f"r{i}"), atoms=atoms, segment=segment)


@st.composite
def regions(draw):
    if draw(st.booleans()):
        return FromRegion(atoms=draw(atom_tuples))
    return FromRegion(segment=draw(segments))


@st.composite
def models(draw):
    rules = tuple(
        FixedDiffuse(draw(regions()), atom_probs=(("Delta", ONE),))
        for _ in range(draw(st.integers(0, 4)))
    )
    tabled = draw(st.lists(st.sampled_from(NAMES), unique=True))
    rows = tuple(((x, "x"), (("Delta", ONE),)) for x in tabled)
    return MdpModel(
        name="regions",
        states=SPACE,
        actions=FiniteActions(("x",)),
        kernel=TransitionKernel(rows=rows, rules=rules),
    )


@given(st.lists(strategy_rules(), max_size=5))
def test_strategy_matches_and_dist_at_equal_the_tuple_scan(rules):
    stage = StageKernel(tuple(rules))
    for point in POINTS:
        for rule in rules:
            assert rule.matches(point) == scan_rule(rule, point)
        try:
            want = scan_dist_at(stage, point)
        except ModelError as exc:
            with pytest.raises(ModelError) as info:
                stage.dist_at(point)
            assert str(info.value) == str(exc)
        else:
            assert stage.dist_at(point) == want


@given(models())
def test_region_matches_and_resolve_rule_equal_the_tuple_scan(model):
    for point in POINTS:
        for rule in model.kernel.rules:
            assert rule.region.matches(point) == scan_region(rule.region, point)
        atom = StateAtom(point)
        same_outcome(lambda: resolve_rule(model, atom), lambda: scan_resolve_rule(model, atom))
    for label in ("seg", "other"):
        part = StateDensity(label, (F(0), F(1)), (Number(F(1)),))
        same_outcome(lambda: resolve_rule(model, part), lambda: scan_resolve_rule(model, part))
