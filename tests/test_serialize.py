"""JSON schemas: round trips must be bit-exact and self-describing."""

import json
from fractions import Fraction

import pytest

from absorbing_mdp import (
    ActionAtom,
    ActionDensity,
    ActionMixture,
    Domain,
    HybridMeasure,
    MeasureComponent,
    Number,
    ONE,
    StateAtom,
    StateDensity,
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
        ("frontier", 3, "bad model field 'frontier'"),
        ("strategies", [1], "bad model field 'strategies'"),
    ],
)
def test_a_document_of_the_wrong_shape_names_its_field(field, value, message):
    entry = example1()
    doc = model_to_dict(entry.model, entry.strategies)
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    with pytest.raises(FormatError) as caught:
        model_from_dict(doc)
    assert str(caught.value).startswith(message)


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
