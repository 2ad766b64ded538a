"""Bellman operator, supersolution certificates and uniform-absorption tables."""

from fractions import Fraction

import pytest

from absorbing_mdp import (
    AtomDecl,
    FiniteActions,
    MdpModel,
    ModelError,
    Number,
    ONE,
    StateSpace,
    StrategyFamily,
    TransitionKernel,
    ValueFunction,
    bellman_apply,
    deterministic_stationary,
    nsum,
    uniformity_report,
    verify_supersolution,
)

from absorbing_mdp.absorption import _sup

from conftest import chain_model

F = Fraction
HALF = Number.exact(1, 2)

# worst-case mean hitting times for the chain model, solved by hand:
# w(A) = 1 + max(w(B), w(A)/2) and w(B) = 1 + max(0, w(A)/2)
CHAIN_STAR = {"A": Number.exact(4), "B": Number.exact(3)}
SUPPORT = ("A", "B")


def test_candidate_is_a_fixed_point(chain):
    w = ValueFunction(values=dict(CHAIN_STAR))
    res = verify_supersolution(chain, w, SUPPORT)
    assert res.kind == "fixed_point"


def test_doubling_gives_strict_supersolution(chain):
    w = ValueFunction(values={k: v * 2 for k, v in CHAIN_STAR.items()})
    res = verify_supersolution(chain, w, SUPPORT)
    assert res.kind == "strict_supersolution"


def test_undershoot_is_violated_with_witness(chain):
    w = ValueFunction(values={"A": Number.exact(3), "B": Number.exact(3)})
    res = verify_supersolution(chain, w, SUPPORT)
    assert res.kind == "violated"
    assert res.state == "A"


def test_overlapping_float_sides_are_undecided(chain):
    # Tw(B) = 1 + max(0, w(A)/2) = 3.0005 +- 0.25 holds w(B) = 3.0, so B is
    # no violation, though 3.0 < 3.0005; Tw(A) = 4.0 lies inside w(A)
    w = ValueFunction(values={"A": Number.approx(4.001, 0.5), "B": Number.approx(3.0)})
    res = verify_supersolution(chain, w, ("B",))
    assert (res.kind, res.state) == ("undecided", "B")
    res = verify_supersolution(chain, w, SUPPORT)
    assert (res.kind, res.state) == ("undecided", "A")


def test_a_certain_violation_wins_over_an_overlap(chain):
    # Tw(B) = 3.0005 +- 0.25 is certainly above w(B) = 2
    w = ValueFunction(values={"A": Number.approx(4.001, 0.5), "B": Number.exact(2)})
    res = verify_supersolution(chain, w, SUPPORT)
    assert (res.kind, res.state) == ("violated", "B")


def test_certainly_ordered_float_sides_keep_their_verdict(chain):
    w = ValueFunction(values={"A": Number.approx(8.0, 0.1), "B": Number.approx(6.0, 0.1)})
    assert verify_supersolution(chain, w, SUPPORT).kind == "strict_supersolution"


def test_bellman_apply_matches_hand_computation(chain):
    w = ValueFunction(values={"A": Number.exact(2), "B": Number.exact(2)})
    tw = bellman_apply(chain, w, SUPPORT)
    # at A: 1 + max(w(B), w(A)/2) = 3; at B: 1 + max(0, w(A)/2) = 2
    assert tw.values["A"] == Number.exact(3)
    assert tw.values["B"] == Number.exact(2)


def test_cemetery_is_pinned_to_zero(chain):
    w = ValueFunction(values=dict(CHAIN_STAR))
    assert w.value_at("Delta") == Number.exact(0)


def test_fallback_supplies_missing_values(chain):
    w = ValueFunction(values={}, fallback=lambda name: Number.exact(7))
    assert w.value_at("A") == Number.exact(7)
    # a fallback returning None falls through to the missing-value error
    strict = ValueFunction(values={}, fallback=lambda name: None)
    with pytest.raises(ModelError):
        strict.value_at("A")


@pytest.mark.parametrize("raw", [Fraction(4), 4, 4.0, "4"])
def test_a_value_that_is_not_a_number_is_refused_where_it_enters(chain, raw):
    # a raw Fraction once reached the Bellman rows and failed there with an
    # AttributeError
    with pytest.raises(TypeError, match=f"value of state 'A' is {type(raw).__name__}, not Number"):
        ValueFunction(values={"A": raw, "B": Number.exact(3)})
    w = ValueFunction(values={"B": Number.exact(3)}, fallback=lambda name: raw)
    with pytest.raises(TypeError, match=f"value of state 'A' is {type(raw).__name__}, not Number"):
        verify_supersolution(chain, w, SUPPORT)


def value_iterate(model, support, iters: int):
    """Reference value iteration: `bellman_apply` from zero, `iters` times,
    with successors outside the support counting as zero.  Returns the final
    iterate and the last per-state increments."""
    zero = lambda name: Number.exact(0)
    w = ValueFunction({a: Number.exact(0) for a in support}, cemetery=model.states.cemetery)
    gaps = dict(w.values)
    for _ in range(iters):
        nxt = bellman_apply(model, ValueFunction(w.values, w.cemetery, zero), support)
        gaps = {a: nxt.values[a] - w.values[a] for a in support}
        w = nxt
    return w, gaps


def test_value_iteration_is_monotone_and_converges(chain):
    # the error contracts by half every other step, so 120 iterations
    # leave a gap around 2^-58
    w, gaps = value_iterate(chain, SUPPORT, iters=120)
    for name, star in CHAIN_STAR.items():
        assert w.values[name] <= star
        assert w.values[name].within(star.value, 1e-15)
    assert all(g.certainly_le(F(1, 10 ** 15)) for g in gaps.values())


def test_value_iteration_steps_are_monotone(chain):
    prev = ValueFunction(values={n: Number.exact(0) for n in SUPPORT})
    for _ in range(12):
        nxt = bellman_apply(chain, prev, SUPPORT)
        for n in SUPPORT:
            assert prev.values[n] <= nxt.values[n] <= CHAIN_STAR[n]
        prev = ValueFunction(values=nxt.values)


def test_overlapping_float_rows_give_an_enclosure_of_the_max(chain):
    # at A the fwd row is w(B) = 2.0 +- 0.1 and the stall row w(A)/2 is
    # 1.9 +- 0.5: fwd wins by central value, but stall may be larger
    w = ValueFunction(values={"A": Number.approx(3.8, 1.0), "B": Number.approx(2.0, 0.1)})
    tw = bellman_apply(chain, w, ("A",)).values["A"]
    rows = [ONE * w.values["B"], HALF * w.values["A"] + HALF * Number.exact(0)]
    lo = max(F(r.value) - F(r.err) for r in rows)
    hi = max(F(r.value) + F(r.err) for r in rows)
    assert F(tw.value) - F(tw.err) <= 1 + lo
    assert F(tw.value) + F(tw.err) >= 1 + hi


def test_a_certain_float_winner_is_kept_unchanged(chain):
    w = ValueFunction(values={"A": Number.approx(3.8, 1.0), "B": Number.approx(3.0, 0.1)})
    tw = bellman_apply(chain, w, ("A",)).values["A"]
    want = ONE + nsum([ONE * w.values["B"]])
    assert (tw.value, tw.err) == (want.value, want.err)


def test_sup_encloses_only_an_uncertain_max():
    exact = [Number.exact(1, 3), Number.exact(1, 2)]
    assert _sup(exact) is exact[1]
    certain = [Number.approx(1.0, 0.1), Number.exact(1, 2)]
    assert _sup(certain) is certain[0]
    # the central winner 1.0 +- 0.1 ends below 0.95 + 0.2
    mixed = [Number.approx(1.0, 0.1), Number.approx(0.95, 0.2)]
    got = _sup(mixed)
    assert F(got.value) - F(got.err) <= F(0.9)
    assert F(got.value) + F(got.err) >= F(0.95) + F(0.2)


# -- uniformity tables -----------------------------------------------------


def lingering_model(levels):
    """One state per stall level: action j keeps the chain alive w.p. 1-2^-j."""
    space = StateSpace(atoms=(AtomDecl("s"), AtomDecl("Delta")))
    actions = FiniteActions(tuple(f"p{j}" for j in range(1, levels + 1)))
    rows = []
    for j in range(1, levels + 1):
        keep = Number.exact(2 ** j - 1, 2 ** j)
        die = Number.exact(1, 2 ** j)
        rows.append((("s", f"p{j}"), (("s", keep), ("Delta", die))))
        rows.append((("Delta", f"p{j}"), (("Delta", ONE),)))
    return MdpModel(
        name="linger",
        states=space,
        actions=actions,
        kernel=TransitionKernel(rows=tuple(rows)),
    )


def linger_family(levels):
    return StrategyFamily(
        label="linger",
        index_lo=1,
        index_hi=levels,
        generator=lambda j: deterministic_stationary(default=f"p{j}"),
    )


def test_uniformity_witness_when_tails_grow():
    model = lingering_model(6)
    rep = uniformity_report(
        model, linger_family(6), model.states.point("s"), n_max=10, eps=F(1, 4)
    )
    assert rep.verdict == "non_uniform_witness"
    name, n, value = rep.witness
    assert name == "linger:6"
    assert n >= 5  # witnesses only count in the deeper half of the table
    # survival under p6 is (63/64)^t, so the tail at 10 is huge
    assert value.certainly_ge(F(1, 4))


def test_uniformity_decay_for_a_single_fast_member():
    model = lingering_model(1)
    # eps sits above every deep-half tail (the largest, at stage 6, is 1/32)
    rep = uniformity_report(
        model, linger_family(1), model.states.point("s"), n_max=12, eps=F(1, 16)
    )
    assert rep.verdict == "decays"
    assert rep.witness is None
    assert rep.rows[0][12] == Number.exact(F(2, 2 ** 12))


def test_report_table_shapes():
    model = lingering_model(3)
    rep = uniformity_report(
        model, linger_family(3), model.states.point("s"), n_max=6, eps=F(1, 4)
    )
    assert len(rep.strategy_names) == 3
    assert all(len(row) == 7 for row in rep.rows)
    assert len(rep.sup_row) == 7
    # the sup row dominates every member row pointwise
    for row in rep.rows:
        for got, sup in zip(row, rep.sup_row):
            assert got <= sup
    # expected times agree with the geometric means 2^j
    for j, mean in enumerate(rep.expected_times, start=1):
        assert mean == Number.exact(2 ** j)
