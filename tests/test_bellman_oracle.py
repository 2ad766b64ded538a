"""Differential test of the Bellman operator against the plain Number loop.

`absorption._apply_at` sums an atom's exact rows on integers, skips
zero-valued successors and reduces only the winning row; rows with a float
probability or value go through `Number` arithmetic.  `reference_apply_at`
below is the plain loop it replaced: every row summed by `nsum` of Number
products, the rows compared by `>`, and `ONE + best`.  On random small
models with exact probabilities (zero included), exact values (zero,
negative and fallback-supplied ones included) and float probabilities and
values, `bellman_apply` and `verify_supersolution` must return what the
reference returns, value, type and float bits alike, look values up in the
same order, and raise the same `MissingValueError` for the same state.

The one place they may differ is an atom whose rows' intervals overlap, so
that the largest central value is not certainly the largest row: there the
operator returns an enclosure of the max, and the test checks that it holds
every row's interval, shifted by one.  The verdict of
`verify_supersolution` is checked against `reference_verify`, which orders
w and Tw by their intervals: overlapping floats are `undecided`, not
ordered by their central values.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from absorbing_mdp import (
    AtomDecl,
    FiniteActions,
    MdpModel,
    Number,
    ONE,
    StateSpace,
    TransitionKernel,
    ValueFunction,
    bellman_apply,
    nsum,
    verify_supersolution,
)
from absorbing_mdp.absorption import MissingValueError
from absorbing_mdp.occupation import _atom_rows

F = Fraction


def reference_apply_at(model, lookup, atom):
    """(ONE + best, the row totals): the plain loop over Numbers."""
    best = None
    totals = []
    point = model.states.point(atom)
    for _, row in _atom_rows(model, point, ((a, None) for a in model.actions.names)):
        total = nsum(p * lookup(name) for name, p in row)
        totals.append(total)
        if best is None or total > best:
            best = total
    return ONE + best, totals


def certain(totals) -> bool:
    """The first largest central value is certainly the largest row."""
    i = max(range(len(totals)), key=lambda k: totals[k].value)
    lo = F(totals[i].value) - F(totals[i].err)
    return all(lo >= F(t.value) + F(t.err) for k, t in enumerate(totals) if k != i)


def bits(x: Number):
    return type(x.value), repr(x.value), type(x.err), repr(x.err)


def exact_numbers(lo=-6, hi=6):
    return st.builds(Number.exact, st.integers(lo, hi), st.integers(1, 7))


def float_numbers(lo=-4.0, hi=4.0):
    return st.builds(
        Number.approx,
        st.floats(lo, hi, allow_nan=False),
        st.sampled_from([0.0, 1e-9, 0.25]),
    )


@st.composite
def models(draw):
    """A random model on s0..s<n-1> and Delta, with its value function's
    table, the states its fallback answers for, and the support."""
    inexact = draw(st.booleans())
    n = draw(st.integers(1, 4))
    states = [f"s{i}" for i in range(n)]
    actions = tuple(f"a{j}" for j in range(draw(st.integers(1, 3))))
    probs = st.one_of(exact_numbers(0, 3), float_numbers(0.0, 1.0)) if inexact else exact_numbers(0, 3)
    vals = st.one_of(exact_numbers(), float_numbers()) if inexact else exact_numbers()
    rows = []
    for s in states:
        for a in actions:
            targets = draw(st.lists(st.sampled_from(states + ["Delta"]), max_size=4))
            rows.append(((s, a), tuple((t, draw(probs)) for t in targets)))
    rows += [(("Delta", a), (("Delta", ONE),)) for a in actions]
    model = MdpModel(
        name="random",
        states=StateSpace(atoms=tuple(AtomDecl(x) for x in states + ["Delta"])),
        actions=FiniteActions(actions),
        kernel=TransitionKernel(rows=tuple(rows)),
    )
    # each state's value sits in the table, comes from the fallback, or
    # is missing
    table, by_fallback = {}, {}
    for s in states:
        where = draw(st.sampled_from(["table", "table", "fallback", "missing"]))
        if where == "table":
            table[s] = draw(vals)
        elif where == "fallback":
            by_fallback[s] = draw(vals)
    support = draw(st.lists(st.sampled_from(states), min_size=1, max_size=n + 1))
    return model, table, by_fallback, support


def value_function(table, by_fallback, calls):
    def fallback(name):
        calls.append(name)
        return by_fallback.get(name)

    return ValueFunction(dict(table), fallback=fallback)


def reference_apply(model, w, support):
    """{atom: (ONE + best, row totals)} over the support, or the
    MissingValueError the first missing value raises."""
    try:
        return {a: reference_apply_at(model, w.value_at, a) for a in support}
    except MissingValueError as exc:
        return exc


def reference_verify(model, w, support, want):
    """The verdict on the intervals value +- err of w and of the reference
    Tw: a certain violation first, then the first overlap that is not one
    common point, then a certain strict inequality anywhere."""
    first_violation = first_overlap = None
    strict = False
    for atom in support:
        lhs, rhs = w.value_at(atom), want[atom][0]
        lo, hi = F(lhs.value) - F(lhs.err), F(lhs.value) + F(lhs.err)
        rlo, rhi = F(rhs.value) - F(rhs.err), F(rhs.value) + F(rhs.err)
        if hi < rlo:
            first_violation = first_violation or atom
        elif lo > rhi:
            strict = True
        elif not lo == hi == rlo == rhi:
            first_overlap = first_overlap or atom
    if first_violation is not None:
        return "violated", first_violation
    if first_overlap is not None:
        return "undecided", first_overlap
    return ("strict_supersolution" if strict else "fixed_point"), None


def check_row(got: Number, want: Number, totals) -> None:
    if certain(totals):
        assert bits(got) == bits(want)
        return
    assert not got.is_exact
    lo = max(F(t.value) - F(t.err) for t in totals)
    hi = max(F(t.value) + F(t.err) for t in totals)
    assert F(got.value) - F(got.err) <= 1 + lo
    assert F(got.value) + F(got.err) >= 1 + hi


@settings(max_examples=400, deadline=None)
@given(models())
def test_bellman_apply_matches_the_number_loop(case):
    model, table, by_fallback, support = case
    ref_calls, calls = [], []
    want = reference_apply(model, value_function(table, by_fallback, ref_calls), support)
    w = value_function(table, by_fallback, calls)
    if isinstance(want, MissingValueError):
        with pytest.raises(MissingValueError) as exc:
            bellman_apply(model, w, support)
        assert str(exc.value) == str(want)
        assert calls == ref_calls
        return
    got = bellman_apply(model, w, support)
    assert calls == ref_calls
    assert list(got.values) == list(dict.fromkeys(support))
    for atom, (value, totals) in want.items():
        check_row(got.values[atom], value, totals)


@settings(max_examples=300, deadline=None)
@given(models())
def test_verify_supersolution_matches_the_number_loop(case):
    model, table, by_fallback, support = case
    # every support state has a value, so only a successor can be missing
    for s in support:
        if s not in table and s not in by_fallback:
            table[s] = Number.exact(1)
    ref_calls, calls = [], []
    ref_w = value_function(table, by_fallback, ref_calls)
    want = reference_apply(model, ref_w, support)
    w = value_function(table, by_fallback, calls)
    if isinstance(want, MissingValueError):
        with pytest.raises(MissingValueError) as exc:
            verify_supersolution(model, w, support)
        assert str(exc.value) == str(want)
        return
    got = verify_supersolution(model, w, support)
    assert [atom for atom, _, _ in got.details] == list(support)
    for atom, lhs, rhs in got.details:
        assert bits(lhs) == bits(w.value_at(atom))
        check_row(rhs, *want[atom])
    if all(certain(totals) for _, totals in want.values()):
        assert (got.kind, got.state) == reference_verify(model, ref_w, support, want)
