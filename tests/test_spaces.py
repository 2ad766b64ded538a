"""State and action space declarations: lookups, topology flags, bounds."""

import dataclasses
from fractions import Fraction

import pytest

from absorbing_mdp import (
    AtomDecl,
    ConvergentSeq,
    FiniteActions,
    IntervalActions,
    LIMIT_POINT,
    SegmentDecl,
    StatePoint,
    StateSpace,
    is_isolated,
)
from absorbing_mdp.spaces import _segment_point


def make_space():
    return StateSpace(
        atoms=(
            AtomDecl("a1", coord=Fraction(1, 2)),
            AtomDecl("lim", topology=LIMIT_POINT, coord=Fraction(0)),
            AtomDecl("Delta"),
        ),
        segments=(SegmentDecl("seg", Fraction(0), Fraction(2)),),
        sequences=(ConvergentSeq(terms=("a1",), limit="lim"),),
    )


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        StateSpace(atoms=(AtomDecl("x"), AtomDecl("x")))
    with pytest.raises(ValueError):
        StateSpace(
            segments=(
                SegmentDecl("s", Fraction(0), Fraction(1)),
                SegmentDecl("s", Fraction(1), Fraction(2)),
            )
        )


def test_segment_needs_positive_length():
    with pytest.raises(ValueError):
        SegmentDecl("s", Fraction(1), Fraction(1))


def test_point_resolves_declared_coordinate():
    sp = make_space()
    p = sp.point("a1")
    assert p.atom == "a1"
    assert p.coord == Fraction(1, 2)
    assert sp.point("Delta").coord is None


def test_unknown_names_raise():
    sp = make_space()
    with pytest.raises(KeyError):
        sp.point("nope")
    with pytest.raises(KeyError):
        sp.segment_decl("nope")


def test_segment_point_bounds():
    sp = make_space()
    p = sp.segment_point("seg", Fraction(3, 2))
    assert p.segment == "seg" and p.coord == Fraction(3, 2)
    # endpoints are inside
    sp.segment_point("seg", Fraction(0))
    sp.segment_point("seg", Fraction(2))
    with pytest.raises(ValueError):
        sp.segment_point("seg", Fraction(5, 2))


@pytest.mark.parametrize("coord", [0.5, 0.0, -0.0, Fraction(3, 2), 1e-300])
def test_trusted_segment_point_equals_the_public_one(coord):
    public = StatePoint(segment="seg", coord=coord)
    trusted = _segment_point("seg", coord)
    assert type(trusted) is StatePoint
    assert trusted == public and hash(trusted) == hash(public)
    assert repr(trusted) == repr(public)
    assert dataclasses.astuple(trusted) == dataclasses.astuple(public)
    assert {public: 1}[trusted] == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        trusted.coord = 1.0


def test_is_isolated_flag():
    sp = make_space()
    assert is_isolated(sp, "a1")
    assert not is_isolated(sp, "lim")


def test_finite_actions():
    acts = FiniteActions(("l", "r"))
    assert "l" in acts.names and "r" in acts.names


def test_interval_actions_default_unit():
    acts = IntervalActions()
    assert acts.lo == Fraction(0)
    assert acts.hi == Fraction(1)


def test_sequence_declaration():
    sp = make_space()
    (seq,) = sp.sequences
    assert seq.terms == ("a1",)
    assert seq.limit == "lim"
