"""Occupation solvers: exact unrolling, stationary-tail closed forms,
frontier certificates and the flow equation."""

import dataclasses
from fractions import Fraction

import pytest

from absorbing_mdp import (
    AtomDecl,
    CountableSolverError,
    FiniteActions,
    FixedDiffuse,
    FromRegion,
    MeasureError,
    ModelError,
    SegmentDecl,
    SegmentSelector,
    IntervalActions,
    ValueFunction,
    bellman_apply,
    verify_supersolution,
    MdpModel,
    StateSpace,
    TransitionKernel,
    StatePoint,
    Number,
    OccupationResult,
    ONE,
    SolverError,
    StageKernel,
    Strategy,
    StrategyRule,
    ActionAtom,
    Truncation,
    UnrollResidualError,
    ZERO,
    deterministic_stationary,
    expected_hitting_time,
    marginal_state,
    markov_sequence,
    nsum,
    occupation_countable,
    occupation_unroll,
    survival_probs,
    tail_sum,
)

from conftest import REFUSALS, chain_model, ladder_model, loop_model, refusal_case

F = Fraction


def atom_masses(measure):
    out = {}
    for c in marginal_state(measure).components:
        out[c.state.point.atom] = out.get(c.state.point.atom, ZERO) + c.mass()
    return out


def forward(model):
    return deterministic_stationary(default="fwd")


# -- exact unrolling -------------------------------------------------------


def test_unroll_deterministic_path(chain):
    occ = occupation_unroll(chain, forward(chain), chain.states.point("A"), horizon=2)
    assert occ.method == "unroll"
    assert occ.tail_bound == ZERO
    assert atom_masses(occ.measure) == {"A": ONE, "B": ONE}
    assert expected_hitting_time(occ) == Number.exact(2)


def test_unroll_requires_full_absorption(chain):
    stall = deterministic_stationary(default="stall")
    with pytest.raises(UnrollResidualError):
        occupation_unroll(chain, stall, chain.states.point("A"), horizon=5)


def test_unroll_two_stage_strategy(chain):
    # stall once (survive at A w.p. 1/2), then go forward
    s = markov_sequence(
        [
            StageKernel(rules=(StrategyRule(dist=ActionAtom("stall")),)),
            StageKernel(rules=(StrategyRule(dist=ActionAtom("fwd")),)),
        ]
    )
    occ = occupation_unroll(chain, s, chain.states.point("A"), horizon=3)
    masses = atom_masses(occ.measure)
    # visits: A at t=0, A again w.p. 1/2 at t=1, then B w.p. 1/2 at t=2
    assert masses == {"A": Number.exact(3, 2), "B": Number.exact(1, 2)}
    assert expected_hitting_time(occ) == Number.exact(2)


# -- countable solver, closed form ----------------------------------------


def test_countable_agrees_with_unroll(chain):
    x0 = chain.states.point("A")
    a = occupation_unroll(chain, forward(chain), x0, horizon=2)
    b = occupation_countable(chain, forward(chain), x0)
    assert atom_masses(a.measure) == atom_masses(b.measure)
    assert b.tail_bound == ZERO


def test_countable_geometric_self_loop(chain):
    # stalling at A: absorbed w.p. 1/2 each step, visits(A) = 2
    stall = deterministic_stationary(default="stall")
    occ = occupation_countable(chain, stall, chain.states.point("A"))
    assert atom_masses(occ.measure) == {"A": Number.exact(2)}
    assert occ.tail_bound == ZERO
    assert expected_hitting_time(occ) == Number.exact(2)


def test_countable_proper_cycle_certifies_residual(loop):
    occ = occupation_countable(loop, deterministic_stationary(default="x"),
                               loop.states.point("A"))
    masses = atom_masses(occ.measure)
    # geometric cycle: visits(A) = 4/3, visits(B) = 2/3, solved exactly, so
    # the certified residual is zero
    assert masses == {"A": Number.exact(4, 3), "B": Number.exact(2, 3)}
    assert occ.tail_bound == ZERO


def two_cycle(stay_in_play: Fraction) -> MdpModel:
    """A <-> B, each step absorbed with probability 1 - stay_in_play."""
    space = StateSpace(atoms=(AtomDecl("A"), AtomDecl("B"), AtomDecl("Delta")))
    p = Number(stay_in_play)
    rows = [(("A", "x"), (("B", p), ("Delta", ONE - p))),
            (("B", "x"), (("A", p), ("Delta", ONE - p))),
            (("Delta", "x"), (("Delta", ONE),))]
    rows = [(key, tuple((t, q) for t, q in row if q != ZERO)) for key, row in rows]
    return MdpModel(name="two-cycle", states=space, actions=FiniteActions(("x",)),
                    kernel=TransitionKernel(rows=tuple(rows)))


def test_slow_two_cycle_has_exact_mean_time_100():
    model = two_cycle(F(99, 100))
    occ = occupation_countable(model, deterministic_stationary(default="x"),
                               model.states.point("A"))
    assert occ.measure.total_mass() == Number(100)
    assert occ.tail_bound == ZERO
    assert expected_hitting_time(occ) == Number(100)


def test_closed_two_cycle_is_refused():
    model = two_cycle(F(1))
    with pytest.raises(CountableSolverError, match="no mass can leave"):
        occupation_countable(model, deterministic_stationary(default="x"),
                             model.states.point("A"))


def test_uncertain_escape_is_refused():
    # escape probability 2^-53 carries a float error larger than itself
    space = StateSpace(atoms=(AtomDecl("A"), AtomDecl("Delta")))
    rows = ((("A", "x"), (("A", Number.approx(1 - 2 ** -53)), ("Delta", Number.approx(2 ** -53)))),
            (("Delta", "x"), (("Delta", ONE),)))
    model = MdpModel(name="sticky", states=space, actions=FiniteActions(("x",)),
                     kernel=TransitionKernel(rows=rows))
    with pytest.raises(CountableSolverError, match="float error hides its escape"):
        occupation_countable(model, deterministic_stationary(default="x"),
                             model.states.point("A"))


@pytest.mark.parametrize("stay", [ONE, Number.approx(1.0)], ids=["exact", "float"])
def test_a_state_that_stays_for_sure_is_refused(stay):
    # S sends its mass to A, which keeps all of it: on integers, or on the
    # Number class loop once a float is met
    space = StateSpace(atoms=(AtomDecl("S"), AtomDecl("A"), AtomDecl("Delta")))
    rows = ((("S", "x"), (("A", ONE),)), (("A", "x"), (("A", stay),)),
            (("Delta", "x"), (("Delta", ONE),)))
    model = MdpModel(name="trap", states=space, actions=FiniteActions(("x",)),
                     kernel=TransitionKernel(rows=rows))
    with pytest.raises(CountableSolverError, match="^state 'A' never leaves itself"):
        occupation_countable(model, deterministic_stationary(default="x"),
                             model.states.point("S"))


def test_deep_ladder_needs_no_recursion():
    model = ladder_model(2048)
    occ = occupation_countable(model, deterministic_stationary(default="step"),
                               model.states.point("c1"), Truncation(states=2048))
    assert occ.measure.total_mass() == Number(2) - Number.exact(1, 2 ** 2047)
    assert occ.tail_bound == Number.exact(1, 2 ** 2047)


def test_countable_rejects_density_start(chain):
    s = forward(chain)
    with pytest.raises(SolverError):
        occupation_countable(chain, s, StatePoint(segment="seg", coord=F(1, 2)))


def test_countable_rejects_bounded_strategies(chain):
    stage = StageKernel(rules=(StrategyRule(dist=ActionAtom("fwd")),))
    s = Strategy(stages=(stage, stage), stationary_tail=False)
    with pytest.raises(SolverError):
        occupation_countable(chain, s, chain.states.point("A"))


def test_state_budget_is_enforced():
    model = ladder_model(10)
    s = deterministic_stationary(default="step")
    with pytest.raises(CountableSolverError):
        occupation_countable(model, s, model.states.point("c1"),
                             Truncation(states=4))


# -- frontier certificates -------------------------------------------------


def test_frontier_tail_bound_closed_form(ladder8):
    s = deterministic_stationary(default="step")
    occ = occupation_countable(ladder8, s, ladder8.states.point("c1"))
    masses = atom_masses(occ.measure)
    for n in range(1, 9):
        assert masses[f"c{n}"] == Number.exact(1, 2 ** (n - 1))
    # frontier rung gets no occupancy; its inflow 2^-8 is capped at factor 2
    assert "c9" not in masses
    assert occ.measure.total_mass() == Number.exact(2) - Number.exact(1, 2 ** 7)
    assert occ.tail_bound == Number.exact(1, 2 ** 7)


def test_frontier_certificate_covers_truth(ladder8):
    # the un-truncated model absorbs the frontier mass in one extra step,
    # so the true mean lies inside the certified interval
    s = deterministic_stationary(default="step")
    occ = occupation_countable(ladder8, s, ladder8.states.point("c1"))
    true_total = F(2) - F(1, 2 ** 8)  # sum of 2^(1-n) for n = 1..9
    mean = expected_hitting_time(occ)
    assert not mean.is_exact
    assert abs(float(mean.value) - float(true_total)) <= float(mean.err)


def test_continue_bound_override(ladder8):
    s = deterministic_stationary(default="step")
    occ = occupation_countable(ladder8, s, ladder8.states.point("c1"),
                               continue_bound=F(3, 4))
    # cap becomes 1/(1 - 3/4) = 4: twice the default bound
    assert occ.tail_bound == Number.exact(1, 2 ** 6)


def test_cap_takes_the_certified_upper_end_of_float_stay_probabilities():
    # A stays in play with 0.9 +- 0.05, B with 0.8 +- 0.25: the largest
    # central value is below 1, but B's upper end is not, so no cap holds
    space = StateSpace(atoms=tuple(AtomDecl(n) for n in ("A", "B", "F", "Delta")))
    rows = (
        (("A", "x"), (("B", Number.approx(0.9)), ("Delta", Number.approx(0.1, 0.05)))),
        (("B", "x"), (("F", Number.approx(0.8)), ("Delta", Number.approx(0.2, 0.25)))),
    )
    model = MdpModel(
        name="overlap", states=space, actions=FiniteActions(("x",)),
        kernel=TransitionKernel(rows=rows), frontier=frozenset({"F"}),
    )
    x0 = space.point("A")
    with pytest.raises(CountableSolverError, match="continuation probability reaches 1"):
        occupation_countable(model, deterministic_stationary(default="x"), x0)
    # with B's stay interval below 1 the cap is taken at its upper end
    narrow = (rows[0], (("B", "x"), (("F", Number.approx(0.8)), ("Delta", Number.approx(0.2, 0.15)))))
    model = dataclasses.replace(model, kernel=TransitionKernel(rows=narrow))
    occ = occupation_countable(model, deterministic_stationary(default="x"), x0)
    # frontier inflow 0.9 * 0.8 times a cap of at least 1/(1 - 0.95); the
    # central values would give 1/(1 - 0.9)
    assert occ.tail_bound.value >= 0.72 * 20 * (1 - 1e-12)


# -- survival and tails ----------------------------------------------------


def test_survival_probs_deterministic(chain):
    probs = survival_probs(chain, forward(chain), chain.states.point("A"), 3)
    assert probs == [ONE, ONE, ZERO, ZERO]


def test_survival_probs_geometric(chain):
    stall = deterministic_stationary(default="stall")
    probs = survival_probs(chain, stall, chain.states.point("A"), 4)
    assert probs == [Number.exact(1, 2 ** t) for t in range(5)]


def test_tail_sum_matches_survival_series(chain):
    # geometric survival 2^-t, so the tail at n is exactly 2^(1-n)
    stall = deterministic_stationary(default="stall")
    x0 = chain.states.point("A")
    for n in range(4):
        assert tail_sum(chain, stall, x0, n) == Number.exact(F(2, 2 ** n))


def test_flow_equation_on_ladder(ladder8):
    """Every computed occupancy satisfies mass(y) = start(y) + sum of inflows."""
    s = deterministic_stationary(default="step")
    occ = occupation_countable(ladder8, s, ladder8.states.point("c1"))
    masses = atom_masses(occ.measure)
    # under the single action, inflow to c(n+1) is mass(cn) / 2
    for n in range(2, 9):
        want = masses[f"c{n - 1}"] * Number.exact(1, 2)
        assert masses[f"c{n}"] == want
    assert masses["c1"] == ONE  # only the initial mass


def test_expected_time_exact_iff_no_tail(chain, ladder8):
    exact = occupation_countable(chain, forward(chain), chain.states.point("A"))
    assert expected_hitting_time(exact).is_exact
    capped = occupation_countable(
        ladder8, deterministic_stationary(default="step"), ladder8.states.point("c1")
    )
    assert not expected_hitting_time(capped).is_exact


def test_frontier_free_float_model_needs_no_cap():
    # no frontier, so the cap 1/(1 - q) is never needed; with q = 1 - 2^-53
    # its float divisor interval would contain zero
    space = StateSpace(atoms=(AtomDecl("A"), AtomDecl("B"), AtomDecl("Delta")))
    rows = ((("A", "x"), (("B", Number.approx(1 - 2 ** -53)), ("Delta", Number.approx(2 ** -53)))),
            (("B", "x"), (("Delta", ONE),)),
            (("Delta", "x"), (("Delta", ONE),)))
    model = MdpModel(name="nearly-sure", states=space, actions=FiniteActions(("x",)),
                     kernel=TransitionKernel(rows=rows))
    occ = occupation_countable(model, deterministic_stationary(default="x"),
                               model.states.point("A"))
    assert occ.tail_bound == ZERO
    masses = atom_masses(occ.measure)
    assert masses["A"] == ONE
    assert float(masses["B"].value) == 1 - 2 ** -53


def two_fifths_ladder(depth: int) -> MdpModel:
    """c1 -> c2 -> ... with continuation 2/5 per rung; the last rung is the
    frontier.  The exact total 5/3 (1 - (2/5)^depth) is not a float."""
    names = [f"c{n}" for n in range(1, depth + 2)]
    space = StateSpace(atoms=tuple(AtomDecl(n) for n in names) + (AtomDecl("Delta"),))
    go = Number.exact(2, 5)
    rows = [((f"c{n}", "step"), ((f"c{n + 1}", go), ("Delta", ONE - go)))
            for n in range(1, depth + 1)]
    rows.append(((f"c{depth + 1}", "step"), (("Delta", ONE),)))
    rows.append((("Delta", "step"), (("Delta", ONE),)))
    return MdpModel(name=f"two-fifths{depth}", states=space, actions=FiniteActions(("step",)),
                    kernel=TransitionKernel(rows=tuple(rows)),
                    frontier=frozenset({f"c{depth + 1}"}))


@pytest.mark.parametrize("depth", [60, 75, 90, 105])
def test_expected_time_err_covers_the_rounding(depth):
    # the tail (2/5)^depth * 5/3 is far below the rounding of the total to a
    # float, so only charging that rounding makes the err enclose the total
    model = two_fifths_ladder(depth)
    occ = occupation_countable(model, deterministic_stationary(default="step"),
                               model.states.point("c1"), Truncation(states=128))
    total = occ.measure.total_mass()
    tail = occ.tail_bound
    assert total == Number.exact(F(5, 3) * (1 - F(2, 5) ** depth))
    assert tail == Number.exact(F(5, 3) * F(2, 5) ** depth)
    mean = expected_hitting_time(occ)
    assert not mean.is_exact
    assert float(mean.value) == float(total.value)
    rounding = abs(F(mean.value) - total.value)
    assert rounding > tail.value
    # the err holds both parts in full: its own float sum does not round down
    assert F(mean.err) >= rounding + tail.value


def test_expected_time_err_keeps_the_tail_err(ladder8):
    occ = occupation_countable(ladder8, deterministic_stationary(default="step"),
                               ladder8.states.point("c1"))
    tail = Number.approx(1e-3, 5e-4)
    mean = expected_hitting_time(OccupationResult(occ.measure, tail, occ.method))
    assert F(mean.err) >= F(tail.value) + F(tail.err)


def test_survival_err_holds_the_frontier_pool_err():
    # c1 -> c2 w.p. 0.1, c2 -> frontier w.p. 0.7: the float pool 0.1 * 0.7
    # rounds below the exact product of the two floats, and only its err
    # covers the difference
    p, q = 0.1, 0.7
    assert F(p * q) < F(p) * F(q)
    space = StateSpace(atoms=(AtomDecl("c1"), AtomDecl("c2"), AtomDecl("c3"), AtomDecl("Delta")))
    rows = ((("c1", "x"), (("c2", Number.approx(p)), ("Delta", Number.approx(1 - p)))),
            (("c2", "x"), (("c3", Number.approx(q)), ("Delta", Number.approx(1 - q)))),
            (("c3", "x"), (("Delta", ONE),)),
            (("Delta", "x"), (("Delta", ONE),)))
    model = MdpModel(name="float-frontier", states=space, actions=FiniteActions(("x",)),
                     kernel=TransitionKernel(rows=rows), frontier=frozenset({"c3"}))
    probs = survival_probs(model, deterministic_stationary(default="x"), space.point("c1"), 3)
    assert probs[0] == ONE
    # from t = 2 on nothing is in play and the frontier holds 0.1 * 0.7
    # exactly: the survival probability lies between 0 and that pool
    for got in probs[2:]:
        assert not got.is_exact
        for truth in (F(0), F(p) * F(q)):
            assert abs(F(got.value) - truth) <= F(got.err)


@pytest.mark.parametrize("cause", sorted(REFUSALS))
def test_atomic_entry_points_refuse_alike(cause):
    # the hitting-time operator plays every action, so an action density
    # reaches it as an interval action space
    model, stage = refusal_case(cause, FiniteActions(("x", "y")))
    if cause == "action density":
        amodel, _ = refusal_case(cause, IntervalActions())
    else:
        amodel = model
    s1 = model.states.point("s1")
    w = ValueFunction({"s1": ONE})
    calls = {
        "prefix": lambda: occupation_countable(model, markov_sequence([stage, stage]), s1),
        "tail": lambda: occupation_countable(model, markov_sequence([stage]), s1),
        "bellman_apply": lambda: bellman_apply(amodel, w, ["s1"]),
        "verify_supersolution": lambda: verify_supersolution(amodel, w, ["s1"]),
    }
    kind, message = REFUSALS[cause]
    for name, call in calls.items():
        with pytest.raises(kind) as info:
            call()
        assert type(info.value) is kind and str(info.value) == message, name


# -- the unroll's boundary checks -------------------------------------------


def selector_closure(start_pieces=None):
    """start jumps onto the unit interval (or onto `start_pieces`), whose
    points jump to Delta."""
    space = StateSpace(
        atoms=(AtomDecl("start"), AtomDecl("Delta")),
        segments=(SegmentDecl("unit", F(0), F(1)),),
    )
    pieces = start_pieces or (("unit", (F(0), F(1)), (ONE,)),)
    rules = (
        FixedDiffuse(FromRegion(atoms=("start",)), pieces=pieces),
        FixedDiffuse(FromRegion(segment="unit"), atom_probs=(("Delta", ONE),)),
        FixedDiffuse(FromRegion(atoms=("Delta",)), atom_probs=(("Delta", ONE),)),
    )
    return MdpModel(
        name="selector-closure", states=space, actions=FiniteActions(("0", "1")),
        kernel=TransitionKernel(rules=rules),
    )


def selector_strategy(first="0", cells=("0", "1", "0", "1")):
    n = len(cells)
    selector = SegmentSelector("unit", tuple(F(j, n) for j in range(n + 1)), cells)
    return markov_sequence([
        StageKernel((StrategyRule(dist=ActionAtom(first)),)),
        StageKernel((selector, StrategyRule(dist=ActionAtom("0")))),
    ])


@pytest.mark.parametrize(
    "case, kind, message",
    [
        ("x0 outside its segment", MeasureError, "point coordinate 2 outside 'unit'"),
        ("unknown x0", ModelError, "no kernel rule covers StatePoint('nowhere')"),
        ("rule names 9", MeasureError, "unknown action '9'"),
        ("selector names 9", MeasureError, "unknown action '9'"),
        ("piece outside its segment", MeasureError, "density support outside segment 'unit'"),
        ("negative piece height", MeasureError, "density on 'unit': negative height"),
    ],
)
def test_the_unroll_checks_its_inputs(case, kind, message):
    model, strategy = selector_closure(), selector_strategy()
    x0 = model.states.point("start")
    if case == "x0 outside its segment":
        x0 = StatePoint(segment="unit", coord=F(2))
    elif case == "unknown x0":
        x0 = StatePoint(atom="nowhere")
    elif case == "rule names 9":
        strategy = selector_strategy(first="9")
    elif case == "selector names 9":
        strategy = selector_strategy(cells=("0", "1", "9", "1"))
    elif case == "piece outside its segment":
        model = selector_closure((("unit", (F(0), F(2)), (Number.exact(1, 2),)),))
    else:
        half = Number.exact(1, 2)
        model = selector_closure((("unit", (F(0), F(1), F(2)), (Number.exact(3, 2), -half)),))
    # none of these is run through validate_model or validate_strategy first
    with pytest.raises(kind) as info:
        occupation_unroll(model, strategy, x0, 3)
    assert type(info.value) is kind and str(info.value) == message
