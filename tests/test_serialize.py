"""JSON schemas: round trips must be bit-exact and self-describing."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from absorbing_mdp import (
    ActionAtom,
    ActionDensity,
    ActionMixture,
    ActionPushforward,
    AtomDecl,
    ConvergentSeq,
    Domain,
    FiniteActions,
    FixedDiffuse,
    FromRegion,
    HybridMeasure,
    ISOLATED,
    IntervalActions,
    LIMIT_POINT,
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
    Strategy,
    StrategyRule,
    TransitionKernel,
    occupation_unroll,
)
from absorbing_mdp.serialize import (
    FormatError,
    absorption_report_to_dict,
    convergence_report_to_dict,
    dec_action_value,
    dec_number,
    dumps,
    enc_action_value,
    enc_number,
    load_json,
    measure_from_dict,
    measure_to_dict,
    model_from_dict,
    model_to_dict,
    save_json,
    strategy_from_dict,
    strategy_to_dict,
)
from absorbing_mdp.zoo import ZOO, example1, example2, remark1

from conftest import chain_model, segment_space

F = Fraction
HALF = Number.exact(1, 2)


# -- scalars ---------------------------------------------------------------


def test_number_encoding_shapes():
    assert enc_number(Number.exact(3, 4)) == "3/4"
    enc = enc_number(Number.approx(0.5, 1e-9))
    assert enc == {"f": 0.5, "err": 1e-9}


def test_number_round_trip_is_structural():
    for n in (Number.exact(0), Number.exact(-7, 3), Number.approx(1.25, 0.5)):
        assert dec_number(enc_number(n)) == n


def test_action_value_disambiguation():
    # the action NAME "1/2" and the action COORDINATE 1/2 are different values
    name = enc_action_value("1/2")
    coord = enc_action_value(F(1, 2))
    assert name != coord
    assert dec_action_value(name) == "1/2"
    assert dec_action_value(coord) == F(1, 2)


# -- models ----------------------------------------------------------------


@pytest.mark.parametrize("entry_name", sorted(ZOO))
def test_model_round_trip_bit_exact(entry_name):
    entry = ZOO[entry_name]()
    doc = model_to_dict(entry.model, entry.strategies)
    rt = model_from_dict(doc)
    assert rt.model == entry.model
    assert dumps(model_to_dict(rt.model, rt.strategies)) == dumps(doc)


def test_model_document_lists_strategies():
    entry = example2()
    doc = model_to_dict(entry.model, entry.strategies)
    assert sorted(doc["strategies"]) == sorted(entry.strategies)


def test_strategy_round_trip_all_rule_kinds():
    entry = remark1()
    for name, s in entry.strategies.items():
        rt = strategy_from_dict(strategy_to_dict(s))
        assert rt == s, name


def test_format_and_version_are_enforced():
    entry = example1()
    doc = model_to_dict(entry.model)
    bad = dict(doc)
    bad["format"] = "absorbing-mdp/other"
    with pytest.raises(FormatError):
        model_from_dict(bad)
    stale = dict(doc)
    stale["version"] = 999
    with pytest.raises(FormatError):
        model_from_dict(stale)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("kernel", None, "model document has no 'kernel' field"),
        ("kernel", {"rows": [[1]]}, "bad model field 'kernel': not enough values to unpack"),
        ("kernel", {"rows": []}, "bad model field 'kernel': missing 'rules'"),
        ("states", None, "model document has no 'states' field"),
        ("states", [], "bad model field 'states'"),
        ("actions", {"type": "finite"}, "bad model field 'actions': missing 'names'"),
        ("actions", {"type": "cube"}, "bad model field 'actions': unknown action space type"),
        ("actions", {"type": ["finite"]}, "bad model field 'actions': unknown action space type ['finite']"),
        ("actions", {"names": ["go"]}, "bad model field 'actions': missing 'type'"),
        ("frontier", 3, "bad model field 'frontier'"),
        ("strategies", [1], "bad model field 'strategies'"),
        ("kernel", {"rows": [], "rules": [{"type": "warp"}]}, "bad model field 'kernel': unknown kernel rule type 'warp'"),
        (
            "strategies",
            {"s": {"stages": [{"rules": [{"type": "coin"}]}], "stationary_tail": True}},
            "bad model field 'strategies': unknown strategy rule type 'coin'",
        ),
        (
            "strategies",
            {"s": {"stages": [{"rules": [{"type": "rule", "dist": {"type": "blob"}}]}], "stationary_tail": True}},
            "bad model field 'strategies': unknown action part type 'blob'",
        ),
        (
            "strategies",
            {"s": {"stages": [{"rules": [{"type": "selector", "segment": "s"}]}], "stationary_tail": True}},
            "bad model field 'strategies': missing 'breaks'",
        ),
        # state parts stand only in measure documents
        (
            "components",
            [{"state": {"type": "state-blob"}, "weight": "1/1"}],
            "bad measure field 'components': unknown state part type 'state-blob'",
        ),
        ("components", [{"state": 1}], "bad measure field 'components'"),
        ("components", [{"state": {"type": "state-atom", "atom": "s"}}], "bad measure field 'components': missing 'weight'"),
        ("components", None, "measure document has no 'components' field"),
        ("domain", None, "measure document has no 'domain' field"),
        ("domain", {"states": {"atoms": []}}, "bad measure field 'domain': missing 'segments'"),
    ],
)
def test_a_document_of_the_wrong_shape_names_its_field(field, value, message):
    if field in ("components", "domain"):
        doc, decode = measure_to_dict(all_parts_measure()), measure_from_dict
    else:
        entry = example1()
        doc, decode = model_to_dict(entry.model, entry.strategies), model_from_dict
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    with pytest.raises(FormatError) as caught:
        decode(doc)
    assert str(caught.value).startswith(message)


# (bytes, sha256) of dumps(model_to_dict(...)) for each zoo model with its
# strategies and every explored family strategy, as `amdp --zoo` loads them;
# the bytes rest on json.dumps and on float repr
ZOO_DOCUMENTS = {
    "example1": (20805, "ec8d93bc2446041e403a9db7f36c7fefdb9492e36574eb564ae7e4fa95c01133"),
    "example2": (80311, "e3363890de6199ede8dc5c932953dce9fc0881473065e391b4ea05c55ca9df16"),
    "remark1": (789779, "f42fb559a0758f96cce6d6ea2f51c075e9fd1afe084588988547fbd88362f908"),
    "remark2": (14910, "b32a97bb900fadc8ef6c8e6e9c38dd8e988796b38963f382a7b5be8da33fdaa4"),
}


@pytest.mark.parametrize("entry_name", sorted(ZOO))
def test_zoo_model_documents_keep_their_bytes(entry_name):
    entry = ZOO[entry_name]()
    strategies = dict(entry.strategies)
    for family in entry.families.values():
        for name, s in family.explored():
            strategies.setdefault(name, s)
    text = dumps(model_to_dict(entry.model, strategies)).encode()
    assert (len(text), hashlib.sha256(text).hexdigest()) == ZOO_DOCUMENTS[entry_name]


# -- measures --------------------------------------------------------------


def all_parts_measure():
    space = segment_space()
    from absorbing_mdp import IntervalActions

    dom = Domain(space, IntervalActions())
    mix = ActionMixture(
        parts=((HALF, ActionAtom(F(0))), (HALF, ActionDensity((F(0), F(1)), (ONE,)))),
    )
    return HybridMeasure(
        dom,
        (
            MeasureComponent(StateAtom(space.point("start")), ActionAtom(F(1, 3)), HALF),
            MeasureComponent(
                StateDensity("seg", (F(0), F(1, 2), F(1)), (HALF, ONE)), mix, ONE
            ),
            MeasureComponent(StateAtom(space.point("Delta")), None, HALF),
        ),
    )


def test_measure_round_trip_every_part_kind():
    mu = all_parts_measure()
    doc = measure_to_dict(mu)
    rt = measure_from_dict(doc)
    assert rt == mu
    assert dumps(measure_to_dict(rt)) == dumps(doc)


def test_occupation_measure_round_trip(tmp_path):
    entry = example1()
    occ = occupation_unroll(entry.model, entry.strategies["point_first"], entry.x0, 2)
    path = tmp_path / "occ.json"
    save_json(str(path), measure_to_dict(occ.measure))
    rt = measure_from_dict(load_json(str(path)))
    assert rt.total_mass() == occ.measure.total_mass()
    assert rt == occ.measure


# -- reports ---------------------------------------------------------------


def test_convergence_report_document():
    from absorbing_mdp import check_convergence
    from conftest import chain_model
    from absorbing_mdp import StateAtom as SA

    model = chain_model()
    dom = Domain(model.states, model.actions)
    mu = HybridMeasure(dom, (MeasureComponent(SA(model.states.point("A")),
                                              ActionAtom("fwd"), ONE),))
    from absorbing_mdp import CONTINUOUS, TestFunction, make_battery

    f = TestFunction("unit", CONTINUOUS, lambda p: 1, bound=F(1), arity="state")
    rep = check_convergence([mu, mu], mu, make_battery("b", "w", (f,)))
    doc = convergence_report_to_dict(rep)
    assert doc["format"] == "absorbing-mdp/convergence-report"
    assert doc["verdict"] == "converges"
    assert doc["caveat"]
    assert doc["traces"][0]["function"] == "unit"
    json.dumps(doc)  # must already be JSON-clean


def test_absorption_report_document():
    from absorbing_mdp import deterministic_stationary, uniformity_report, StrategyFamily

    model = chain_model()
    fam = StrategyFamily(label="f", members=(("fwd", deterministic_stationary(default="fwd")),))
    rep = uniformity_report(model, fam, model.states.point("A"), n_max=4, eps=F(1, 100))
    doc = absorption_report_to_dict(rep)
    assert doc["format"] == "absorbing-mdp/absorption-report"
    assert doc["verdict"] == rep.verdict
    json.dumps(doc)


def test_dumps_is_deterministic():
    entry = example1()
    doc = model_to_dict(entry.model, entry.strategies)
    assert dumps(doc) == dumps(json.loads(dumps(doc)))


# -- drawn round trips (hypothesis) ----------------------------------------
#
# Exact and float Numbers and positions, action names that read as numbers
# ("1/2") next to the coordinate 1/2, and every key a decoder may find absent.

NAMES = ["a", "b", "1/2", "0/1"]
exact = st.builds(F, st.integers(-60, 60), st.integers(1, 12))
floats = st.floats(allow_nan=False, allow_infinity=False)
positions = st.one_of(exact, floats, st.just(F(1, 2)), st.just(0.5))
masses = st.one_of(
    st.builds(F, st.integers(0, 60), st.integers(1, 12)).map(Number),
    st.builds(Number.approx, st.floats(0, 1e6), st.one_of(st.just(0.0), st.floats(0, 1.0))),
)
texts = st.sampled_from(NAMES)


def increasing(draw, lo=None, hi=None, min_size=2):
    """Strictly increasing positions, from lo to hi when given."""
    inner = draw(st.lists(positions, min_size=min_size, max_size=4, unique=True))
    if lo is not None:
        inner = [x for x in inner if lo < x < hi]
        return (lo, *sorted(inner), hi)
    return tuple(sorted(inner))


@st.composite
def spaces(draw):
    names = draw(st.lists(texts, unique=True, max_size=3))
    atoms = [AtomDecl(n, ISOLATED, draw(st.none() | positions)) for n in names]
    sequences = ()
    if names and draw(st.booleans()):
        atoms.append(AtomDecl("L", LIMIT_POINT, draw(st.none() | positions)))
        sequences = (ConvergentSeq(tuple(names), "L"),)
    atoms.append(AtomDecl("Delta"))
    segments = tuple(
        SegmentDecl(label, *increasing(draw, min_size=2)[:2])
        for label in draw(st.lists(st.sampled_from(["s", "t"]), unique=True, max_size=2))
    )
    return StateSpace(atoms=tuple(atoms), segments=segments, sequences=sequences)


@st.composite
def action_spaces(draw):
    if draw(st.booleans()):
        return FiniteActions(tuple(draw(st.lists(texts, unique=True, min_size=1, max_size=3))))
    return IntervalActions(*increasing(draw)[:2])


@st.composite
def action_parts(draw, actions=None):
    """An action part, inside `actions` when given."""
    finite = isinstance(actions, FiniteActions)

    def atom():
        if actions is None:
            return ActionAtom(draw(st.one_of(texts, positions)))
        if finite:
            return ActionAtom(draw(st.sampled_from(actions.names)))
        return ActionAtom(draw(st.sampled_from([actions.lo, actions.hi])))

    def density():
        breaks = increasing(draw) if actions is None else increasing(draw, actions.lo, actions.hi)
        return ActionDensity(breaks, tuple(draw(masses) for _ in breaks[1:]))

    kinds = ["atom", "mixture"] if finite else ["atom", "density", "mixture"]
    kind = draw(st.sampled_from(kinds))
    if kind == "mixture":
        return ActionMixture(tuple(
            (draw(masses), atom() if finite or draw(st.booleans()) else density())
            for _ in range(draw(st.integers(0, 3)))
        ))
    return atom() if kind == "atom" else density()


@st.composite
def strategy_rules(draw):
    if draw(st.booleans()):
        breaks = increasing(draw)
        return SegmentSelector(draw(texts), breaks, tuple(draw(st.one_of(texts, positions)) for _ in breaks[1:]))
    atoms = draw(st.none() | st.lists(texts, max_size=2).map(tuple))
    return StrategyRule(draw(st.none() | action_parts()), atoms, draw(st.none() | texts))


strategies_ = st.builds(
    Strategy,
    st.lists(st.lists(strategy_rules(), max_size=3).map(lambda rs: StageKernel(tuple(rs))), min_size=1, max_size=3)
    .map(tuple),
    st.booleans(),
)
regions = st.one_of(
    st.lists(texts, min_size=1, max_size=2).map(lambda a: FromRegion(atoms=tuple(a))),
    texts.map(lambda s: FromRegion(segment=s)),
)


@st.composite
def kernel_rules(draw):
    if draw(st.booleans()):
        return ActionPushforward(draw(regions), draw(texts), draw(positions), draw(positions))
    pieces = []
    for label in draw(st.lists(texts, max_size=2)):
        breaks = increasing(draw)
        pieces.append((label, breaks, tuple(draw(masses) for _ in breaks[1:])))
    probs = tuple((name, draw(masses)) for name in draw(st.lists(texts, max_size=3)))
    return FixedDiffuse(draw(regions), probs, tuple(pieces))


@st.composite
def models(draw):
    keys = draw(st.lists(st.tuples(texts, texts), unique=True, max_size=4))
    rows = tuple((key, tuple((n, draw(masses)) for n in draw(st.lists(texts, max_size=3)))) for key in keys)
    return MdpModel(
        name=draw(texts),
        states=draw(spaces()),
        actions=draw(action_spaces()),
        kernel=TransitionKernel(rows, tuple(draw(st.lists(kernel_rules(), max_size=3)))),
        condition_tags=frozenset(draw(st.lists(texts, max_size=2))),
        condition_note=draw(st.sampled_from(["", "note"])),
        frontier=frozenset(draw(st.lists(texts, max_size=2))),
    )


@st.composite
def measures(draw):
    space, actions = draw(spaces()), draw(action_spaces())
    comps = []
    for _ in range(draw(st.integers(0, 4))):
        segs = space.segments
        kind = draw(st.sampled_from(["atom", "point", "density"] if segs else ["atom"]))
        if kind == "atom":
            state = StateAtom(space.point(draw(st.sampled_from([a.name for a in space.atoms]))))
        else:
            seg = draw(st.sampled_from(segs))
            if kind == "point":
                state = StateAtom(space.segment_point(seg.label, draw(st.sampled_from([seg.lo, seg.hi]))))
            else:
                breaks = increasing(draw, seg.lo, seg.hi)
                state = StateDensity(seg.label, breaks, tuple(draw(masses) for _ in breaks[1:]))
        comps.append(MeasureComponent(state, draw(st.none() | action_parts(actions)), draw(masses)))
    return HybridMeasure(Domain(space, actions), tuple(comps))


def without_absent_keys(x):
    """The document x with each key that a decoder reads as absent dropped
    where it holds the value absence stands for."""
    if isinstance(x, list):
        return [without_absent_keys(v) for v in x]
    if not isinstance(x, dict):
        return x
    out = {k: without_absent_keys(v) for k, v in x.items()}
    if set(out) == {"f", "err"}:
        absent = {"err": 0.0}
    elif out.get("type") == "rule":
        absent = {"atoms": None, "segment": None}
    elif set(out) == {"name", "topology", "coord"} or out.get("type") == "state-atom" and "atom" in out:
        absent = {"coord": None}
    elif set(out) == {"state", "action", "weight"}:
        absent = {"action": None}
    elif out.get("format") == "absorbing-mdp/model":
        absent = {"condition_tags": [], "condition_note": "", "frontier": []}
    else:
        absent = {}
    return {k: v for k, v in out.items() if not (k in absent and v == absent[k] and type(v) is type(absent[k]))}


def round_trips(obj, encode, decode):
    """decode(encode(obj)) == obj through JSON text, with and without the
    keys that may be absent, and the text written again is the same."""
    text = dumps(encode(obj))
    back = decode(json.loads(text))
    assert back == obj
    assert dumps(encode(back)) == text
    assert decode(without_absent_keys(json.loads(text))) == obj


@settings(max_examples=150, deadline=None)
@given(strategies_)
def test_drawn_strategies_round_trip(s):
    round_trips(s, strategy_to_dict, strategy_from_dict)


@settings(max_examples=150, deadline=None)
@given(models(), st.dictionaries(texts, strategies_, max_size=2))
def test_drawn_models_round_trip(model, strategies):
    def decode(doc):
        rt = model_from_dict(doc)
        return rt.model, rt.strategies

    round_trips((model, strategies), lambda pair: model_to_dict(*pair), decode)


@settings(max_examples=150, deadline=None)
@given(measures())
def test_drawn_measures_round_trip(mu):
    round_trips(mu, measure_to_dict, measure_from_dict)
