"""Truncated countable solves against the untruncated chain.

An acyclic chain from `test_countable_oracle` is solved twice: as drawn,
and with one of its states, s<k>, declared a frontier atom, whose own rows
are cut off.  The truncated solve's total must bracket the untruncated
exact total within its tail bound, and its survival probabilities must
hold the untruncated ones within value +- err.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from absorbing_mdp import expected_hitting_time, occupation_countable, survival_probs

from test_countable_oracle import build, chains

F = Fraction


@st.composite
def truncated_chains(draw):
    chain = draw(chains(acyclic=True))
    states = chain[0]
    return chain, draw(st.integers(1, len(states) - 1))


def truncate(chain, k):
    """The chain with s<k> moved from the in-play states to the frontier."""
    states, _, rows, stages = chain
    cut = states[k]
    kept = [s for s in states if s != cut]
    return kept, [cut], {key: row for key, row in rows.items() if key[0] != cut}, stages


@settings(max_examples=200, deadline=None)
@given(truncated_chains())
def test_truncated_solve_brackets_the_untruncated_chain(case):
    chain, k = case
    states = chain[0]
    horizon = len(states) + 1
    full, strategy = build(*chain)
    cut, cut_strategy = build(*truncate(chain, k))
    x0 = full.states.point("s0")
    want = expected_hitting_time(occupation_countable(full, strategy, x0))
    assert want.is_exact
    # a path that enters s<k> stays in play at most len(states) - k stages,
    # which the cap 1 / (1 - continue_bound) covers
    bound = 1 - F(1, len(states) - k)
    occ = occupation_countable(cut, cut_strategy, cut.states.point("s0"), continue_bound=bound)
    total = occ.measure.total_mass()
    assert total.is_exact and occ.tail_bound.is_exact
    assert total.value <= want.value <= total.value + occ.tail_bound.value

    surv = survival_probs(full, strategy, x0, horizon)
    got = survival_probs(cut, cut_strategy, cut.states.point("s0"), horizon)
    for s, g in zip(surv, got):
        assert s.is_exact
        assert F(g.value) - F(g.err) <= s.value <= F(g.value) + F(g.err)
