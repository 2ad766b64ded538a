"""Built-in model instances with frozen expected-value claims.

Each entry packages a model, an initial state, strategies and strategy
families, test batteries adapted to the space, and a table of claims: a
claim names a quantity, the engine call that computes it, and the value it
must equal (exactly, or within a recorded tolerance).  The claim tables
drive the `reproduce` command.

The four instances:

* ``example1`` - a two-step continuum model: the first action is drawn from
  a shrinking uniform window and lands the chain on a second segment, where
  one more draw absorbs it.  Occupation measures converge against jointly
  continuous integrands but not against state-measurable ones.

* ``example2`` - a countable ladder with a limit state: climb-then-linger
  strategies push occupation mass onto ever higher rungs, while the
  always-branch strategy deposits mass on the limit state.  Marginals
  converge weakly but not setwise, tail sums stay at 1/2, and the
  worst-case hitting-time function has an exact closed form.

* ``remark1`` - a one-jump model onto the unit interval with two actions.
  Fine alternating selectors have occupation measures with zero
  determinism defect whose limit is the fair-coin occupation, with
  defect 1/2: the deterministic class is not closed.

* ``remark2`` - point masses sliding to a limit state that jumps straight
  to the cemetery: convergence holds for continuous integrands and fails
  for the indicator of the limit, at gap exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

from .numbers import Number, ZERO, ONE, nsum
from .measure import (
    ActionAtom,
    ActionDensity,
    ActionFactor,
    ActionMixture,
    CARATHEODORY,
    CONTINUOUS,
    MEASURABLE,
    HybridMeasure,
    PiecewisePoly,
    StateFactor,
    TestFunction,
    integrate,
    marginal_state,
    structured_joint_function,
    structured_state_function,
)
from .mdp import (
    ActionPushforward,
    FixedDiffuse,
    FromRegion,
    MdpModel,
    SegmentSelector,
    StageKernel,
    Strategy,
    StrategyFamily,
    StrategyRule,
    TransitionKernel,
    deterministic_stationary,
    markov_sequence,
    validate_model,
    check_condition_s,
)
from .occupation import (
    Truncation,
    expected_hitting_time,
    occupation_countable,
    occupation_unroll,
    survival_probs,
    tail_sum,
)
from .absorption import (
    ValueFunction,
    bellman_apply,
    uniformity_report,
    verify_supersolution,
)
from .topology import (
    BatteryError,
    check_convergence,
    determinism_defect,
    make_battery,
    multi_initial_check,
)
from .spaces import (
    AtomDecl,
    ConvergentSeq,
    FiniteActions,
    IntervalActions,
    ISOLATED,
    LIMIT_POINT,
    SegmentDecl,
    StatePoint,
    StateSpace,
    is_isolated,
)

F = Fraction


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    expected: object  # str verdict, or a Number/Fraction value
    compute: Callable[[], object]
    tol: float | None = None  # None: exact equality required
    acceptance: str | None = None


@dataclass(frozen=True)
class ZooEntry:
    name: str
    title: str
    model: MdpModel
    x0: StatePoint
    strategies: dict
    families: dict
    batteries: dict
    claims: tuple
    notes: str = ""


def atom_masses(measure: HybridMeasure) -> dict:
    """Atom name -> mass of the state marginal; atoms only."""
    out: dict = {}
    for c in marginal_state(measure).components:
        p = c.state.point if hasattr(c.state, "point") else None
        if p is None or p.atom is None:
            raise ValueError("marginal is not atom-supported")
        out[p.atom] = out.get(p.atom, ZERO) + c.weight
    return out


def _validated(model: MdpModel) -> str:
    """"ok" for a model with clean diagnostics, else the diagnostics."""
    diags = validate_model(model)
    return "ok" if not diags else "; ".join(diags)


def _rejects_indicator(name: str, atom: str, space, actions) -> str:
    """Whether a w battery rejects the indicator of `atom` declared continuous."""
    bad = TestFunction(name, CONTINUOUS, lambda p: 1 if p.atom == atom else 0, F(1), arity="state")
    try:
        make_battery("bad", "w", (bad,), space, actions)
    except BatteryError:
        return "rejected"
    return "accepted"


# the polynomials x, x^2 and 1 on [0, 1], shared by example1 and remark1
_X_POLY = PiecewisePoly((F(0), F(1)), ((F(0), F(1)),))
_X2_POLY = PiecewisePoly((F(0), F(1)), ((F(0), F(0), F(1)),))
_ONE_POLY = PiecewisePoly((F(0), F(1)), ((F(1),),))


def _coord(p: StatePoint):
    return p.coord if p.coord is not None else F(0)


# the continuous state functions of example2's and remark2's w batteries
_STATE_W_FUNCS = (
    TestFunction("unit", CONTINUOUS, lambda p: 1, F(1), arity="state"),
    TestFunction("coordinate", CONTINUOUS, _coord, F(1), arity="state"),
    TestFunction("coordinate-squared", CONTINUOUS, lambda p: _coord(p) ** 2, F(1), arity="state"),
)


# -- example 1: two-step continuum model -----------------------------------


def _ex1_space() -> StateSpace:
    return StateSpace(
        atoms=(AtomDecl("Delta", ISOLATED),),
        segments=(SegmentDecl("0", F(0), F(1)), SegmentDecl("1", F(0), F(1))),
    )


def _ex1_sf(poly0, poly1) -> StateFactor:
    """State factor on both segments, zero at the cemetery."""
    return StateFactor(
        segment_polys=(("0", poly0), ("1", poly1)),
        atom_values=(("Delta", F(0)),),
    )


def example1(mu: ActionDensity | None = None) -> ZooEntry:
    """Two labeled unit segments; from the first, the chosen action is the
    landing coordinate on the second; from the second, sure absorption.
    Every play lasts exactly two steps."""
    space = _ex1_space()
    actions = IntervalActions(F(0), F(1))
    kernel = TransitionKernel(
        rules=(
            ActionPushforward(FromRegion(segment="0"), segment="1"),
            FixedDiffuse(FromRegion(segment="1"), atom_probs=(("Delta", ONE),)),
            FixedDiffuse(FromRegion(atoms=("Delta",)), atom_probs=(("Delta", ONE),)),
        )
    )
    model = MdpModel(
        name="example1",
        states=space,
        actions=actions,
        kernel=kernel,
        condition_tags=frozenset(),
        condition_note="the embedding of actions into states defeats strong continuity",
    )
    x0 = space.segment_point("0", F(0))
    if mu is None:
        mu = ActionDensity((F(0), F(1)), (ONE,))
    mu_mean = _X_POLY.integral_against(mu.breaks, mu.heights)

    def second_stage() -> StageKernel:
        return StageKernel((StrategyRule(dist=mu),))

    def spread_first(m: int) -> Strategy:
        first = StageKernel(
            (StrategyRule(dist=ActionDensity((F(0), F(1, m)), (Number.exact(m),))),)
        )
        return markov_sequence((first, second_stage()))

    point_first = markov_sequence(
        (StageKernel((StrategyRule(dist=ActionAtom(F(0))),)), second_stage())
    )

    family = StrategyFamily(label="spread_first", index_lo=1, index_hi=20, generator=spread_first)

    zero_poly = PiecewisePoly((F(0), F(1)), ((F(0),),))
    half_ramp = PiecewisePoly((F(0), F(1)), ((F(1, 2), F(1, 2)),))  # (1+a)/2
    pos_poly = PiecewisePoly((F(0), F(1)), ((F(1),),), knots=(F(0), F(1)))  # 1{x>0}

    af1 = ActionFactor(const=F(1))
    sf_one = StateFactor(
        segment_polys=(("0", _ONE_POLY), ("1", _ONE_POLY)), atom_values=(("Delta", F(1)),)
    )
    sf_x = _ex1_sf(_X_POLY, _X_POLY)
    sf_x2 = _ex1_sf(_X2_POLY, _X2_POLY)
    sf_seg1 = _ex1_sf(zero_poly, _ONE_POLY)
    sf_pos = _ex1_sf(pos_poly, pos_poly)

    w_funcs = (
        structured_joint_function("unit", CONTINUOUS, ((sf_one, af1),), F(1)),
        structured_joint_function("second-coordinate", CONTINUOUS, ((sf_x, af1),), F(1)),
        structured_joint_function(
            "action-coordinate", CONTINUOUS, ((sf_one, ActionFactor(poly=_X_POLY)),), F(1)
        ),
        structured_joint_function(
            "coordinate-plus-action",
            CONTINUOUS,
            ((sf_x, af1), (sf_one, ActionFactor(poly=_X_POLY))),
            F(2),
        ),
        structured_joint_function(
            "coordinate-times-action", CONTINUOUS, ((sf_x, ActionFactor(poly=_X_POLY)),), F(1)
        ),
        structured_joint_function("second-coordinate-squared", CONTINUOUS, ((sf_x2, af1),), F(1)),
        structured_joint_function("on-second-segment", CONTINUOUS, ((sf_seg1, af1),), F(1)),
    )
    ws_funcs = (
        structured_state_function("positive-second-coordinate", CARATHEODORY, sf_pos, F(1)),
        structured_joint_function(
            "positive-ramp", CARATHEODORY, ((sf_pos, ActionFactor(poly=half_ramp)),), F(1)
        ),
    )
    batteries = {
        "w-poly": make_battery("w-poly", "w", w_funcs, space, actions),
        "ws-witness": make_battery("ws-witness", "ws", ws_funcs, space, actions),
    }

    witness = ws_funcs[0]
    plus = w_funcs[3]

    def occ_spread(m: int):
        return occupation_unroll(model, spread_first(m), x0, 2)

    occ_limit = lambda: occupation_unroll(model, point_first, x0, 2)

    def claim_condition_jump():
        chk = check_condition_s(model)
        lo = chk.induced_map(F(1, 4))
        hi = chk.induced_map(F(3, 4))
        return f"{lo}-{hi}"

    def claim_times():
        for m in range(1, 21):
            if expected_hitting_time(occ_spread(m)) != Number.exact(2):
                return f"mean time off at m={m}"
        if expected_hitting_time(occ_limit()) != Number.exact(2):
            return "mean time off in the limit"
        return "exact-match"

    def claim_survival():
        got = survival_probs(model, spread_first(3), x0, 2)
        want = [ONE, ONE, ZERO]
        return "exact-match" if got == want else f"got {got}"

    def claim_witness_mass():
        for m in range(1, 21):
            v = integrate(occ_spread(m).measure, witness)
            if v != ONE:
                return f"mass {v!r} at m={m}"
        return "exact-match"

    def claim_witness_limit():
        return integrate(occ_limit().measure, witness)

    def claim_ws_diverges():
        seq = [occ_spread(m).measure for m in range(1, 21)]
        rep = check_convergence(seq, occ_limit().measure, batteries["ws-witness"], tol=1e-3)
        return f"{rep.verdict}:{rep.witness}"

    def _w_report():
        seq = [occ_spread(2 ** k).measure for k in range(0, 11)]
        return check_convergence(seq, occ_limit().measure, batteries["w-poly"], tol=1e-2)

    def claim_w_converges():
        return _w_report().verdict

    def claim_w_gap_decay():
        rep = _w_report()
        maxima = []
        for i in range(11):
            maxima.append(max((t.gaps[i] for t in rep.traces), key=lambda g: g.value))
        for a, b in zip(maxima, maxima[1:]):
            if not b.value <= a.value:
                return "max gap not monotone"
        if not maxima[-1].certainly_le(F(1, 512)):
            return f"final max gap {float(maxima[-1].value)}"
        plus_trace = next(t for t in rep.traces if t.name == "coordinate-plus-action")
        for k, g in enumerate(plus_trace.gaps):
            if g != Number.exact(1, 2 ** k):
                return f"closed-form mismatch at k={k}"
        return "decay-certified"

    def claim_limit_integral():
        return integrate(occ_limit().measure, plus)

    claims = (
        Claim("E1.validate", "model diagnostics are clean", "ok", lambda: _validated(model)),
        Claim(
            "E1.condition",
            "strong action-continuity of the kernel fails",
            "fails",
            lambda: check_condition_s(model).status,
        ),
        Claim(
            "E1.condition.jump",
            "the refuting pullback steps from 0 to 1 across the action midpoint",
            "0-1",
            claim_condition_jump,
        ),
        Claim(
            "E1.time.family",
            "every strategy absorbs in mean time exactly 2",
            "exact-match",
            claim_times,
        ),
        Claim(
            "E1.survival",
            "survival probabilities from the start are exactly (1, 1, 0)",
            "exact-match",
            claim_survival,
        ),
        Claim(
            "E1.witness.mass",
            "the positive-coordinate indicator integrates to exactly 1 for windows 1..20",
            "exact-match",
            claim_witness_mass,
            acceptance="A5",
        ),
        Claim(
            "E1.witness.limit",
            "the positive-coordinate indicator integrates to exactly 0 in the limit",
            F(0),
            claim_witness_limit,
            acceptance="A5",
        ),
        Claim(
            "E1.ws.diverges",
            "the caratheodory battery refutes convergence, witnessed by the indicator",
            "diverges:positive-second-coordinate",
            claim_ws_diverges,
            acceptance="A5",
        ),
        Claim(
            "E1.w.converges",
            "the jointly continuous battery accepts convergence along doubling windows",
            "converges",
            claim_w_converges,
            acceptance="A6",
        ),
        Claim(
            "E1.w.gap-decay",
            "battery max-gap decays monotonically to at most 1/512, matching 1/m exactly "
            "for the coordinate-plus-action witness",
            "decay-certified",
            claim_w_gap_decay,
            acceptance="A6",
        ),
        Claim(
            "E1.limit.integral",
            "coordinate-plus-action integrates to the action-average in the limit",
            mu_mean,
            claim_limit_integral,
        ),
    )

    return ZooEntry(
        name="example1",
        title="two-step continuum model with a shrinking first-action window",
        model=model,
        x0=x0,
        strategies={"point_first": point_first, "spread_first:1": spread_first(1)},
        families={"spread_first": family},
        batteries=batteries,
        claims=claims,
        notes=(
            "strategies draw the first action from Uniform(0, 1/m]; the reference "
            "second-stage distribution defaults to Uniform(0, 1)"
        ),
    )


# -- example 2: countable ladder with a limit state ------------------------


def _ex2_space(depth: int) -> StateSpace:
    atoms = [AtomDecl(f"b{n}", ISOLATED, F(2 ** n - 1, 2 ** n)) for n in range(1, depth + 2)]
    atoms.append(AtomDecl("1", LIMIT_POINT, F(1)))
    atoms.append(AtomDecl("Delta", ISOLATED))
    seq = ConvergentSeq(tuple(f"b{n}" for n in range(1, depth + 2)), "1")
    return StateSpace(atoms=tuple(atoms), sequences=(seq,))


def _ex2_rows(depth: int):
    rows = []
    for a in ("1", "2", "3"):
        rows.append((("1", a), (("Delta", ONE),)))
        rows.append((("Delta", a), (("Delta", ONE),)))
    for n in range(1, depth + 1):
        b, up = f"b{n}", f"b{n + 1}"
        if n == 1:
            rows.append(((b, "1"), (("Delta", ONE),)))
        else:
            die = Number.exact(1, 2 ** (n - 2))
            if die == ONE:
                rows.append(((b, "1"), (("Delta", ONE),)))
            else:
                rows.append(((b, "1"), ((b, ONE - die), ("Delta", die))))
        rows.append(((b, "2"), ((up, Number.exact(1, 2)), ("Delta", Number.exact(1, 2)))))
        rows.append(
            (
                (b, "3"),
                ((up, Number.exact(1, 2)), ("1", Number.exact(1, 4)), ("Delta", Number.exact(1, 4))),
            )
        )
    return tuple(rows)


def _ex2_model(depth: int) -> MdpModel:
    return MdpModel(
        name="example2",
        states=_ex2_space(depth),
        actions=FiniteActions(("1", "2", "3")),
        kernel=TransitionKernel(rows=_ex2_rows(depth)),
        condition_tags=frozenset({"S"}),
        condition_note="finite actions make the compactness-continuity conditions trivial",
        frontier=frozenset({f"b{depth + 1}"}),
    )


def _ex2_climb(n: int) -> Strategy:
    return Strategy(
        stages=(
            StageKernel(
                (
                    StrategyRule(dist=ActionAtom("2"), atoms=tuple(f"b{i}" for i in range(1, n + 1))),
                    StrategyRule(dist=ActionAtom("3"), atoms=("1", "Delta")),
                    StrategyRule(dist=ActionAtom("1")),
                )
            ),
        )
    )


def _ex2_candidate(depth: int) -> ValueFunction:
    values = {f"b{n}": Number(F(5, 2) + F(2) ** (n - 2)) for n in range(1, depth + 2)}
    values["1"] = ONE

    def fallback(name: str):
        if name.startswith("b") and name[1:].isdigit():
            return Number(F(5, 2) + F(2) ** (int(name[1:]) - 2))
        return None

    return ValueFunction(values, cemetery="Delta", fallback=fallback)


def example2(depth: int = 64) -> ZooEntry:
    """Ladder of rungs accumulating at a limit state.  Action 1 lingers on
    the current rung (dying with the rung's escape rate), action 2 climbs or
    dies at odds 1/2, action 3 climbs, branches to the limit state, or dies."""
    model = _ex2_model(depth)
    space = model.states
    x0 = space.point("b1")
    always_branch = deterministic_stationary(default="3")
    family = StrategyFamily(
        label="climb_then_linger",
        members=(("always_branch", always_branch),),
        index_lo=3,
        index_hi=20,
        generator=_ex2_climb,
    )
    candidate = _ex2_candidate(depth)

    w_funcs = _STATE_W_FUNCS + (
        TestFunction("distance-to-limit", CONTINUOUS, lambda p: 1 - _coord(p), F(1), arity="state"),
    )
    s_funcs = (
        TestFunction(
            "at-limit-atom", MEASURABLE, lambda p: 1 if p.atom == "1" else 0, F(1), arity="state"
        ),
        TestFunction(
            "on-first-rung", MEASURABLE, lambda p: 1 if p.atom == "b1" else 0, F(1), arity="state"
        ),
    )
    batteries = {
        "w-coord": make_battery("w-coord", "w", w_funcs, space, model.actions),
        "s-indicator": make_battery("s-indicator", "s", s_funcs, space, model.actions),
    }

    def occ(strategy) -> tuple:
        return occupation_countable(model, strategy, x0, Truncation(states=depth + 4))

    def claim_survival_one():
        return survival_probs(model, always_branch, x0, 1)[1]

    def claim_branch_time():
        return expected_hitting_time(occ(always_branch))

    def claim_total_climb3():
        return occ(_ex2_climb(3)).measure.total_mass()

    def claim_marginal_family():
        for n in range(3, 21):
            res = occ(_ex2_climb(n))
            if res.tail_bound != ZERO:
                return f"unexpected tail at n={n}"
            masses = atom_masses(res.measure)
            want = {f"b{m}": Number.exact(1, 2 ** (m - 1)) for m in range(1, n + 1)}
            want[f"b{n + 1}"] = Number.exact(1, 2)
            if masses != want:
                return f"marginal mismatch at n={n}"
        return "exact-match"

    def claim_branch_certified():
        deep = _ex2_model(40)
        res = occupation_countable(deep, always_branch, deep.states.point("b1"), Truncation(states=44))
        masses = atom_masses(res.measure)
        for m in range(1, 41):
            if masses.get(f"b{m}") != Number.exact(1, 2 ** (m - 1)):
                return f"rung mass mismatch at m={m}"
        gap = abs(masses["1"] - Number.exact(1, 2))
        if not res.tail_bound.certainly_le(F(1, 2 ** 38)):
            return f"tail bound too large: {float(res.tail_bound.value)}"
        if not gap.value <= res.tail_bound.value:
            return "limit-state mass outside the certified bound"
        return "certified"

    support = [f"b{n}" for n in range(1, depth + 1)] + ["1"]

    def scaled(c: Number) -> ValueFunction:
        """The candidate times c, its fallback included."""
        fb = candidate.fallback
        return ValueFunction(
            {k: v * c for k, v in candidate.values.items()},
            cemetery="Delta",
            fallback=lambda name: None if fb(name) is None else fb(name) * c,
        )

    def claim_bellman_fixed():
        return verify_supersolution(model, candidate, support).kind

    def claim_bellman_up():
        return verify_supersolution(model, scaled(Number.exact(2)), support).kind

    def claim_bellman_down():
        res = verify_supersolution(model, scaled(Number.exact(1, 2)), support)
        return f"{res.kind}@{res.state}"

    def claim_tail_family():
        for n in range(3, 21):
            v = tail_sum(model, _ex2_climb(n), x0, n, trunc=Truncation(states=depth + 4))
            if v != Number.exact(1, 2):
                return f"tail {v!r} at n={n}"
        return "exact-match"

    def claim_uniformity():
        rep = uniformity_report(
            model, family, x0, n_max=20, eps=F(1, 4), trunc=Truncation(states=depth + 4)
        )
        return rep.verdict

    def _marginals():
        seq = [marginal_state(occ(_ex2_climb(n)).measure) for n in range(3, 21)]
        lim = marginal_state(occ(always_branch).measure)
        return seq, lim

    def claim_w_marginals():
        seq, lim = _marginals()
        return check_convergence(seq, lim, batteries["w-coord"], tol=1e-3).verdict

    def _s_report():
        seq, lim = _marginals()
        return check_convergence(seq, lim, batteries["s-indicator"], tol=1e-3)

    def claim_s_marginals():
        rep = _s_report()
        return f"{rep.verdict}:{rep.witness}"

    def claim_unroll_rejects():
        try:
            occupation_unroll(model, always_branch, x0, 5)
        except Exception as exc:
            return type(exc).__name__
        return "no-error"

    def claim_flow():
        for strat in (always_branch, _ex2_climb(5)):
            res = occ(strat)
            occd: dict = {}
            for c in res.measure.components:
                occd[(c.state.point.atom, c.action.action)] = c.weight
            masses = atom_masses(res.measure)
            for y in masses:
                inflow = ZERO
                for (src, a), w in occd.items():
                    row = model.kernel.row(src, a)
                    for name, p in row:
                        if name == y:
                            inflow = inflow + w * p
                start = ONE if y == "b1" else ZERO
                if masses[y] != start + inflow:
                    return f"flow equation fails at {y}"
        return "exact-match"

    def claim_consistency_climb3():
        res = occ(_ex2_climb(3))
        total = res.measure.total_mass()
        surv = survival_probs(model, _ex2_climb(3), x0, 63)
        diff = total - nsum(surv)
        cap = Number.exact(4)  # rung-4 lingering escapes at rate 1/4
        bound = surv[63] * cap
        if diff.value < 0:
            return "partial sums exceed the total"
        if not diff.value <= bound.value:
            return "difference above the certificate"
        return "consistent"

    def claim_vi_monotone():
        support = [f"b{n}" for n in range(1, 21)]
        zero_fb = lambda name: ZERO
        prev = ValueFunction({a: ZERO for a in support}, cemetery="Delta", fallback=zero_fb)
        for _ in range(200):
            nxt = bellman_apply(model, prev, support)
            for a in support:
                if nxt.value_at(a).value < prev.value_at(a).value:
                    return "iterate decreased"
                if nxt.value_at(a).value > candidate.value_at(a).value:
                    return "iterate crossed the candidate"
            prev = ValueFunction(nxt.values, cemetery="Delta", fallback=zero_fb)
        return "monotone-dominated"

    def claim_time_bound():
        cap = candidate.value_at("b1")
        for name, strat in family.explored():
            t = expected_hitting_time(occ(strat))
            if not float(t.value) <= float(cap.value) + float(t.err):
                return f"mean time above the candidate under {name}"
        return "dominated"

    claims = (
        Claim("E2.validate", "model diagnostics are clean", "ok", lambda: _validated(model)),
        Claim(
            "E2.condition",
            "finite actions settle the compactness-continuity conditions",
            "holds_trivially",
            lambda: check_condition_s(model).status,
        ),
        Claim(
            "E2.survival.one",
            "one-step survival under always-branch is exactly 3/4",
            F(3, 4),
            claim_survival_one,
        ),
        Claim(
            "E2.time.always-branch",
            "mean absorption time under always-branch is 5/2 within the certified tail",
            F(5, 2),
            claim_branch_time,
            tol=2.0 ** -38,
        ),
        Claim(
            "E2.total.climb3",
            "occupation mass under climb-then-linger(3) is exactly 9/4",
            F(9, 4),
            claim_total_climb3,
        ),
        Claim(
            "E2.marginal.family",
            "rung masses halve up to the lingering rung, which carries exactly 1/2",
            "exact-match",
            claim_marginal_family,
            acceptance="A2",
        ),
        Claim(
            "E2.marginal.always-branch",
            "with 40 rungs, rung masses are exact and the limit state carries 1/2 "
            "within a certified tail at most 2^-38",
            "certified",
            claim_branch_certified,
            acceptance="A3",
        ),
        Claim(
            "E2.bellman.fixed-point",
            "the closed-form hitting-time candidate is an exact fixed point",
            "fixed_point",
            claim_bellman_fixed,
            acceptance="A1",
        ),
        Claim(
            "E2.bellman.doubled",
            "doubling the candidate yields a strict supersolution",
            "strict_supersolution",
            claim_bellman_up,
        ),
        Claim(
            "E2.bellman.halved",
            "halving the candidate violates the operator at the first rung",
            "violated@b1",
            claim_bellman_down,
        ),
        Claim(
            "E2.tail.half",
            "the tail sum at the climb depth is exactly 1/2 for depths 3..20",
            "exact-match",
            claim_tail_family,
            acceptance="A4",
        ),
        Claim(
            "E2.uniformity",
            "the family table certifies a non-uniformity witness",
            "non_uniform_witness",
            claim_uniformity,
            acceptance="A4",
        ),
        Claim(
            "E2.convergence.w",
            "marginals converge against the continuous battery",
            "converges",
            claim_w_marginals,
            acceptance="A7",
        ),
        Claim(
            "E2.convergence.s",
            "marginals diverge against the indicator battery at the limit atom",
            "diverges:at-limit-atom",
            claim_s_marginals,
            acceptance="A7",
        ),
        Claim(
            "E2.convergence.s.gap",
            "the setwise gap at the limit atom is 1/2",
            F(1, 2),
            lambda: _s_report().witness_gap,
            tol=1e-9,
        ),
        Claim(
            "E2.w.rejects-indicator",
            "declaring the limit-atom indicator continuous is rejected by the battery check",
            "rejected",
            lambda: _rejects_indicator("at-limit-atom-continuous", "1", space, model.actions),
        ),
        Claim(
            "E2.unroll.rejects",
            "the finite-horizon path refuses a never-surely-absorbed strategy",
            "UnrollResidualError",
            claim_unroll_rejects,
        ),
        Claim(
            "E2.flow",
            "occupation marginals satisfy the flow equation exactly",
            "exact-match",
            claim_flow,
            acceptance="A9",
        ),
        Claim(
            "E2.consistency",
            "total mass agrees with summed survival probabilities within the certificate",
            "consistent",
            claim_consistency_climb3,
            acceptance="A9",
        ),
        Claim(
            "E2.vi.monotone",
            "200 value-iteration steps on 20 rungs increase monotonically below the candidate",
            "monotone-dominated",
            claim_vi_monotone,
            acceptance="A9",
        ),
        Claim(
            "E2.time.bound",
            "every family member's mean time is dominated by the candidate at the start",
            "dominated",
            claim_time_bound,
        ),
    )

    return ZooEntry(
        name="example2",
        title="countable rung ladder accumulating at a limit state",
        model=model,
        x0=x0,
        strategies={"always_branch": always_branch, "climb_then_linger:3": _ex2_climb(3)},
        families={"climb_then_linger": family},
        batteries=batteries,
        claims=claims,
        notes=f"rungs materialized to depth {depth}; rung {depth + 1} is the declared frontier",
    )


# -- remark 1: selector closure model --------------------------------------


def remark1(depth: int = 12) -> ZooEntry:
    """One jump from an isolated start onto the unit interval, then sure
    absorption; two actions.  Fine alternating selectors approximate the
    fair coin: the deterministic class is not closed in the limit."""
    space = StateSpace(
        atoms=(AtomDecl("start", ISOLATED), AtomDecl("Delta", ISOLATED)),
        segments=(SegmentDecl("unit", F(0), F(1)),),
    )
    actions = FiniteActions(("0", "1"))
    kernel = TransitionKernel(
        rules=(
            FixedDiffuse(
                FromRegion(atoms=("start",)), pieces=(("unit", (F(0), F(1)), (ONE,)),)
            ),
            FixedDiffuse(FromRegion(segment="unit"), atom_probs=(("Delta", ONE),)),
            FixedDiffuse(FromRegion(atoms=("Delta",)), atom_probs=(("Delta", ONE),)),
        )
    )
    model = MdpModel(
        name="remark1",
        states=space,
        actions=actions,
        kernel=kernel,
        condition_tags=frozenset({"S", "W"}),
        condition_note="finite actions and a fixed diffuse jump; uniformly absorbing in two steps",
    )
    x0 = space.point("start")

    first = StageKernel((StrategyRule(dist=ActionAtom("0")),))

    def alternating(k: int) -> Strategy:
        cells = 2 ** k
        breaks = tuple(F(j, cells) for j in range(cells + 1))
        acts = tuple("1" if j % 2 == 0 else "0" for j in range(cells))
        second = StageKernel(
            (SegmentSelector("unit", breaks, acts), StrategyRule(dist=ActionAtom("0")))
        )
        return markov_sequence((first, second))

    coin_dist = ActionMixture(
        ((Number.exact(1, 2), ActionAtom("0")), (Number.exact(1, 2), ActionAtom("1")))
    )
    fair_coin = markov_sequence((first, StageKernel((StrategyRule(dist=coin_dist),))))

    family = StrategyFamily(label="alternating", index_lo=1, index_hi=depth, generator=alternating)

    upper_poly = PiecewisePoly((F(0), F(1, 3), F(1)), ((F(0),), (F(1),)), knots=(F(0), F(0), F(1)))

    sf_one = StateFactor(
        segment_polys=(("unit", _ONE_POLY),), atom_values=(("start", F(1)), ("Delta", F(0)))
    )
    sf_x = StateFactor(
        segment_polys=(("unit", _X_POLY),), atom_values=(("start", F(0)), ("Delta", F(0)))
    )
    sf_x2 = StateFactor(
        segment_polys=(("unit", _X2_POLY),), atom_values=(("start", F(0)), ("Delta", F(0)))
    )
    sf_upper = StateFactor(
        segment_polys=(("unit", upper_poly),), atom_values=(("start", F(0)), ("Delta", F(0)))
    )
    af1 = ActionFactor(const=F(1))
    af_a = ActionFactor(table=(("0", F(0)), ("1", F(1))))

    w_funcs = (
        structured_joint_function("unit", CONTINUOUS, ((sf_one, af1),), F(1)),
        structured_joint_function("coordinate", CONTINUOUS, ((sf_x, af1),), F(1)),
        structured_joint_function("coordinate-squared", CONTINUOUS, ((sf_x2, af1),), F(1)),
        structured_joint_function("chosen-action", CONTINUOUS, ((sf_one, af_a),), F(1)),
        structured_joint_function("coordinate-times-action", CONTINUOUS, ((sf_x, af_a),), F(1)),
        structured_joint_function(
            "flipped-coordinate-times-action",
            CONTINUOUS,
            ((sf_one, af_a), (sf_x, ActionFactor(table=(("0", F(0)), ("1", F(-1)))))),
            F(1),
        ),
    )
    ws_funcs = w_funcs + (
        structured_joint_function("upper-third-action", CARATHEODORY, ((sf_upper, af_a),), F(1)),
    )
    batteries = {
        "w-poly": make_battery("w-poly", "w", w_funcs, space, actions),
        "ws-extended": make_battery("ws-extended", "ws", ws_funcs, space, actions),
    }

    # the claims share one k = 1..depth sequence and one coin occupation;
    # occupation results are immutable, so building each once changes no value
    @cache
    def occ_alternating(k: int):
        return occupation_unroll(model, alternating(k), x0, 2)

    @cache
    def occ_coin():
        return occupation_unroll(model, fair_coin, x0, 2)

    frozen_limits = {
        "unit": Number.exact(2),
        "coordinate": Number.exact(1, 2),
        "coordinate-squared": Number.exact(1, 3),
        "chosen-action": Number.exact(1, 2),
        "coordinate-times-action": Number.exact(1, 4),
        "flipped-coordinate-times-action": Number.exact(1, 4),
    }

    def claim_times():
        for k in range(1, depth + 1):
            if expected_hitting_time(occ_alternating(k)) != Number.exact(2):
                return f"mean time off at k={k}"
        if expected_hitting_time(occ_coin()) != Number.exact(2):
            return "mean time off for the coin"
        return "exact-match"

    def claim_defect_family():
        for k in range(1, depth + 1):
            d = determinism_defect(occ_alternating(k).measure)
            if d != ZERO:
                return f"defect {d!r} at k={k}"
        return "exact-match"

    def claim_defect_limit():
        return determinism_defect(occ_coin().measure)

    def claim_limit_integrals():
        lim = occ_coin().measure
        for f in w_funcs:
            got = integrate(lim, f)
            if got != frozen_limits[f.name]:
                return f"{f.name}: {got!r}"
        return "exact-match"

    def claim_w_converges():
        seq = [occ_alternating(k).measure for k in range(1, depth + 1)]
        return check_convergence(seq, occ_coin().measure, batteries["w-poly"], tol=5e-3).verdict

    def claim_mode_monotone():
        seq = [occ_alternating(k).measure for k in range(1, depth + 1)]
        lim = occ_coin().measure
        ws = check_convergence(seq, lim, batteries["ws-extended"], tol=5e-3).verdict
        w = check_convergence(seq, lim, batteries["w-poly"], tol=5e-3).verdict
        return f"ws:{ws},w:{w}"

    claims = (
        Claim("R1.validate", "model diagnostics are clean", "ok", lambda: _validated(model)),
        Claim(
            "R1.condition",
            "finite actions settle the compactness-continuity conditions",
            "holds_trivially",
            lambda: check_condition_s(model).status,
        ),
        Claim(
            "R1.time.family",
            "every strategy absorbs in mean time exactly 2",
            "exact-match",
            claim_times,
        ),
        Claim(
            "R1.defect.family",
            "alternating selectors have determinism defect exactly 0 for k = 1..12",
            "exact-match",
            claim_defect_family,
            acceptance="A8",
        ),
        Claim(
            "R1.defect.limit",
            "the fair-coin occupation has determinism defect exactly 1/2",
            F(1, 2),
            claim_defect_limit,
            acceptance="A8",
        ),
        Claim(
            "R1.limit.integrals",
            "fair-coin battery integrals match their closed forms exactly",
            "exact-match",
            claim_limit_integrals,
            acceptance="A8",
        ),
        Claim(
            "R1.w.converges",
            "selector occupations converge to the coin against the continuous battery",
            "converges",
            claim_w_converges,
        ),
        Claim(
            "R1.mode-monotone",
            "acceptance by the caratheodory battery implies acceptance by the continuous one",
            "ws:converges,w:converges",
            claim_mode_monotone,
            acceptance="A9",
        ),
    )

    return ZooEntry(
        name="remark1",
        title="selector-closure model on the unit interval",
        model=model,
        x0=x0,
        strategies={"fair_coin": fair_coin, "alternating:1": alternating(1)},
        families={"alternating": family},
        batteries=batteries,
        claims=claims,
        notes=(
            "the selector family alternates the two actions on dyadic cells of width "
            f"1/2^k, k = 1..{depth}; its occupation limit is the fair coin"
        ),
    )


# -- remark 2: sliding point masses ----------------------------------------


def remark2(depth: int = 50) -> ZooEntry:
    """States 1/n accumulate at 0; everything jumps straight to the
    cemetery under the single action."""
    atoms = [AtomDecl(f"1/{n}", ISOLATED, F(1, n)) for n in range(1, depth + 1)]
    atoms.append(AtomDecl("0", LIMIT_POINT, F(0)))
    atoms.append(AtomDecl("Delta", ISOLATED))
    space = StateSpace(
        atoms=tuple(atoms),
        sequences=(ConvergentSeq(tuple(f"1/{n}" for n in range(1, depth + 1)), "0"),),
    )
    actions = FiniteActions(("act",))
    rows = [((a.name, "act"), (("Delta", ONE),)) for a in space.atoms]
    model = MdpModel(
        name="remark2",
        states=space,
        actions=actions,
        kernel=TransitionKernel(rows=tuple(rows)),
        condition_tags=frozenset({"S", "W"}),
        condition_note="one action, one fatal step; absorption is immediate",
    )
    only = deterministic_stationary(default="act")
    x0 = space.point("1/1")

    ws_funcs = (
        TestFunction(
            "at-limit", CARATHEODORY, lambda p: 1 if p.atom == "0" else 0, F(1), arity="state"
        ),
    )
    batteries = {
        "w-coord": make_battery("w-coord", "w", _STATE_W_FUNCS, space, actions),
        "ws-witness": make_battery("ws-witness", "ws", ws_funcs, space, actions),
    }

    pairs = [(space.point(f"1/{n}"), only) for n in range(1, depth + 1)]
    limit_pair = (space.point("0"), only)

    def claim_isolated():
        return f"{is_isolated(space, '1/7')}-{is_isolated(space, '0')}"

    def claim_one_step():
        res = occupation_unroll(model, only, space.point("1/5"), 1)
        comps = res.measure.components
        if len(comps) != 1:
            return f"{len(comps)} components"
        c = comps[0]
        if c.state.point.atom != "1/5" or c.action.action != "act" or c.mass() != ONE:
            return "wrong component"
        if expected_hitting_time(res) != ONE:
            return "wrong mean time"
        return "exact-match"

    def claim_multi_w():
        return multi_initial_check(
            model, pairs, limit_pair, batteries["w-coord"], tol=0.05, horizon=1
        ).verdict

    def _ws_report():
        return multi_initial_check(
            model, pairs, limit_pair, batteries["ws-witness"], tol=0.05, horizon=1
        )

    def claim_multi_ws():
        rep = _ws_report()
        return f"{rep.verdict}:{rep.witness}"

    claims = (
        Claim("R2.validate", "model diagnostics are clean", "ok", lambda: _validated(model)),
        Claim(
            "R2.topology",
            "1/7 is isolated and 0 is not",
            "True-False",
            claim_isolated,
        ),
        Claim(
            "R2.one-step",
            "the occupation from 1/5 is a single unit point mass and mean time 1",
            "exact-match",
            claim_one_step,
        ),
        Claim(
            "R2.multi.w",
            "occupations from sliding starts converge against the continuous battery",
            "converges",
            claim_multi_w,
            acceptance="A7",
        ),
        Claim(
            "R2.multi.ws",
            "the limit-state indicator refutes convergence",
            "diverges:at-limit",
            claim_multi_ws,
            acceptance="A7",
        ),
        Claim(
            "R2.multi.ws.gap",
            "the refuting gap is exactly 1",
            F(1),
            lambda: _ws_report().witness_gap,
        ),
        Claim(
            "R2.w.rejects-indicator",
            "declaring the limit-state indicator continuous is rejected",
            "rejected",
            lambda: _rejects_indicator("at-limit-continuous", "0", space, actions),
        ),
    )

    return ZooEntry(
        name="remark2",
        title="sliding point masses with immediate absorption",
        model=model,
        x0=x0,
        strategies={"only": only},
        families={},
        batteries=batteries,
        claims=claims,
        notes=f"states 1/n materialized for n = 1..{depth}",
    )


ZOO = {
    "example1": example1,
    "example2": example2,
    "remark1": remark1,
    "remark2": remark2,
}


def load_zoo(name: str, **kwargs) -> ZooEntry:
    if name not in ZOO:
        raise KeyError(f"unknown zoo entry {name!r}; have {sorted(ZOO)}")
    return ZOO[name](**kwargs)
