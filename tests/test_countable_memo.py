"""The countable solver's memo: one solve per (strategy, model, x0,
truncation, continue_bound) while the strategy object lives.

A repeated call returns the same `OccupationResult`, and `tail_sum` after it
only looks it up.  A fresh strategy, even an equal one, another model object
or another x0, truncation or continue_bound is solved anew; a refusal is
raised on every call; the memo keeps neither the model nor the strategy
alive, and the id of a collected model, reused, never matches.
"""

import gc
import weakref
from fractions import Fraction

import pytest

from absorbing_mdp import (
    ActionAtom,
    AtomDecl,
    CountableSolverError,
    FiniteActions,
    MdpModel,
    Number,
    ONE,
    StageKernel,
    StateSpace,
    StrategyRule,
    Truncation,
    TransitionKernel,
    expected_hitting_time,
    markov_sequence,
    occupation_countable,
    tail_sum,
)
from absorbing_mdp import occupation

F = Fraction
BOUND = F(1, 2)


def model(die=F(1, 4)):
    """A two-cycle a <-> b that dies with probability `die` at a and 1/2 at
    b, and leaks 1/4 from a into the frontier atom f."""
    rows = (
        (("a", "x"), (("b", Number(F(3, 4) - die)), ("f", Number(F(1, 4))), ("Delta", Number(die)))),
        (("b", "x"), (("a", Number(F(1, 2))), ("Delta", Number(F(1, 2))))),
        (("f", "x"), (("Delta", ONE),)),
        (("Delta", "x"), (("Delta", ONE),)),
    )
    return MdpModel(
        name="leaky-cycle",
        states=StateSpace(atoms=tuple(AtomDecl(x) for x in ("a", "b", "f", "Delta"))),
        actions=FiniteActions(("x",)),
        kernel=TransitionKernel(rows=rows),
        frontier=frozenset({"f"}),
    )


def strategy():
    return markov_sequence([StageKernel((StrategyRule(dist=ActionAtom("x")),))])


def weights(occ):
    return [(c.state.point.atom, c.action.action, c.weight) for c in occ.measure.components]


@pytest.fixture
def solves(monkeypatch):
    """The number of solves the countable path has run."""
    count = []
    solve = occupation._countable

    def counted(*args):
        count.append(args)
        return solve(*args)

    monkeypatch.setattr(occupation, "_countable", counted)
    return count


def test_a_repeated_call_returns_the_same_result(solves):
    m, s = model(), strategy()
    x0 = m.states.point("a")
    first = occupation_countable(m, s, x0, continue_bound=BOUND)
    assert first.tail_bound.is_exact and first.tail_bound.value > 0
    assert occupation_countable(m, s, m.states.point("a"), Truncation(), BOUND) is first
    # tail_sum's own solve is a lookup
    assert tail_sum(m, s, x0, 0, continue_bound=BOUND) == expected_hitting_time(first)
    assert len(solves) == 1


def test_an_equal_fresh_strategy_is_solved_anew(solves):
    m, s = model(), strategy()
    x0 = m.states.point("a")
    first = occupation_countable(m, s, x0, continue_bound=BOUND)
    twin = strategy()
    assert twin == s and twin is not s
    again = occupation_countable(m, twin, x0, continue_bound=BOUND)
    assert again is not first and len(solves) == 2
    assert weights(again) == weights(first) and again.tail_bound == first.tail_bound
    assert all(w.is_exact for _, _, w in weights(again))


@pytest.mark.parametrize("change", ["trunc", "continue_bound", "x0", "model"])
def test_each_other_input_gets_its_own_entry(solves, change):
    m0, s = model(), strategy()
    args = {"x0": m0.states.point("a"), "trunc": Truncation(), "continue_bound": BOUND}
    first = occupation_countable(m0, s, **args)
    m, other = m0, dict(args)
    if change == "trunc":
        other["trunc"] = Truncation(states=8)
    elif change == "continue_bound":
        other["continue_bound"] = F(3, 4)
    elif change == "x0":
        other["x0"] = m0.states.point("b")
    else:
        m = model(F(1, 8))
    got = occupation_countable(m, s, **other)
    assert got is not first and len(solves) == 2
    assert occupation_countable(m, s, **other) is got
    assert occupation_countable(m0, s, **args) is first
    assert len(solves) == 2 and len(occupation._MEMO[id(s)]) == 2
    if change == "trunc":
        assert weights(got) == weights(first) and got.tail_bound == first.tail_bound
    else:
        assert (weights(got), got.tail_bound) != (weights(first), first.tail_bound)


def test_an_equal_bound_of_another_type_is_not_a_hit():
    # 0.5 == 1/2 and they hash alike, but a float bound is refused
    m, s = model(), strategy()
    x0 = m.states.point("a")
    occupation_countable(m, s, x0, continue_bound=BOUND)
    with pytest.raises(TypeError, match="Number.approx"):
        occupation_countable(m, s, x0, continue_bound=0.5)


def test_a_refusal_is_raised_on_every_call(solves):
    m, s = model(), strategy()
    x0 = m.states.point("a")
    for n in (1, 2):
        with pytest.raises(CountableSolverError, match="2 reachable states exceed the state budget 1"):
            occupation_countable(m, s, x0, Truncation(states=1), BOUND)
        assert len(solves) == n
    assert id(s) not in occupation._MEMO


def test_the_memo_keeps_no_model_or_strategy_alive():
    m, s = model(), strategy()
    occupation_countable(m, s, m.states.point("a"), continue_bound=BOUND)
    key, alive_m, alive_s = id(s), weakref.ref(m), weakref.ref(s)
    del m
    gc.collect()
    # the strategy's entry outlives its model without keeping it alive
    assert alive_m() is None and key in occupation._MEMO
    del s
    gc.collect()
    assert alive_s() is None
    assert key not in occupation._MEMO


def test_a_reused_model_id_is_solved_anew():
    s = strategy()
    first = model()
    x0 = first.states.point("a")
    occupation_countable(first, s, x0, continue_bound=BOUND)
    stale = (id(first), x0, Truncation(), Fraction, BOUND)
    del first
    second = model(F(1, 8))
    # the entry of the collected model, as if second had reused its id
    memo = occupation._MEMO[id(s)]
    entry = memo[(id(second),) + stale[1:]] = memo.pop(stale)
    got = occupation_countable(second, s, x0, continue_bound=BOUND)
    assert got is not entry[1]
    want = occupation_countable(second, strategy(), x0, continue_bound=BOUND)
    assert weights(got) == weights(want) and got.tail_bound == want.tail_bound
    assert weights(got) != weights(entry[1])
