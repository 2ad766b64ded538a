"""Truncated countable solves against the untruncated chain.

A chain from `test_countable_oracle` is solved twice: as drawn, and with
one of its states, s<k>, declared a frontier atom, whose own rows are cut
off.  The truncated solve's total must bracket the untruncated exact total
within its tail bound, and its survival probabilities must hold the
untruncated ones within value +- err.

On acyclic chains the bound comes from the length of the longest path.
Chains with proper cycles are drawn with a stationary strategy and no
frontier atoms of their own, so that the occupation still to come after a
path enters s<k> is the dense reference's total E from s<k>: with the cap
1 / (1 - continue_bound) set to E, the truncated total plus its tail bound
is the untruncated total exactly.  Their classes of more than one state
are solved by `_class_visits`, fed by the exact class loop.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from absorbing_mdp import expected_hitting_time, occupation_countable, survival_probs

from test_countable_oracle import build, chains, reference

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


def stationary_and_closed(chain):
    """The chain under its tail policy alone, with its frontier atoms
    merged into the cemetery."""
    states, frontier, rows, stages = chain
    merged = {}
    for key, row in rows.items():
        out = {}
        for t, p in row.items():
            t = "Delta" if t in frontier else t
            out[t] = out.get(t, 0) + p
        merged[key] = out
    return states, [], merged, stages[-1:]


@st.composite
def truncated_cyclic_chains(draw):
    chain = stationary_and_closed(draw(chains()))
    return chain, draw(st.integers(1, len(chain[0]) - 1))


def total(solved) -> Fraction:
    return sum(solved[0].values(), F(0))


@settings(max_examples=200, deadline=None)
@given(truncated_cyclic_chains())
def test_truncated_cyclic_solve_plus_its_tail_is_the_untruncated_total(case):
    chain, k = case
    want = reference(*chain)
    assume(want is not None)
    cut, cut_strategy = build(*truncate(chain, k))
    x0 = cut.states.point("s0")
    after = reference(*chain, x0=f"s{k}")
    if after is None:
        # no mass reaches s<k>: the truncated chain is the untruncated one
        occ = occupation_countable(cut, cut_strategy, x0)
        assert occ.tail_bound == 0
        assert occ.measure.total_mass().value == total(want)
        return
    # the cap 1 / (1 - bound) is E, the total from s<k> on, itself included
    occ = occupation_countable(cut, cut_strategy, x0, continue_bound=1 - 1 / total(after))
    got = occ.measure.total_mass()
    assert got.is_exact and occ.tail_bound.is_exact
    assert got.value + occ.tail_bound.value == total(want)

    full, strategy = build(*chain)
    horizon = len(chain[0]) + 1
    surv = survival_probs(full, strategy, full.states.point("s0"), horizon)
    got = survival_probs(cut, cut_strategy, x0, horizon)
    for s, g in zip(surv, got):
        assert s.is_exact
        assert F(g.value) - F(g.err) <= s.value <= F(g.value) + F(g.err)
