"""Differential test of the countable solver against a dense rational solve.

Random absorbing chains with proper cycles, self-loops, a non-stationary
prefix and frontier atoms are solved by `occupation_countable` and by the
fundamental-matrix row e (I - Q)^-1 computed here with plain `Fraction`
Gaussian elimination over all reachable in-play states at once.  The two
must agree exactly; a chain whose reachable part cannot escape must be
refused.  On acyclic graphs the class order must repeat the earlier
topological order state for state, which keeps float results bit-identical.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from absorbing_mdp import (
    ActionAtom,
    AtomDecl,
    CountableSolverError,
    FiniteActions,
    MdpModel,
    Number,
    StageKernel,
    StateSpace,
    StrategyRule,
    TransitionKernel,
    expected_hitting_time,
    markov_sequence,
    nsum,
    occupation_countable,
    occupation_unroll,
    survival_probs,
)
from absorbing_mdp.measure import ActionMixture
from absorbing_mdp.occupation import _class_order, _classes

F = Fraction
ACTIONS = ("x", "y")
CAP = F(2)  # 1 / (1 - continue_bound) for the continue_bound passed below


@st.composite
def chains(draw, acyclic=False):
    """A random chain; an acyclic one has no frontier and moves only to
    later states, so it is surely absorbed within len(states) stages."""
    n = draw(st.integers(2, 7))
    states = [f"s{i}" for i in range(n)]
    frontier = [] if acyclic else [f"f{i}" for i in range(draw(st.integers(0, 2)))]
    rows = {}
    for i, s in enumerate(states):
        pool = states[i + 1:] if acyclic else states + frontier
        for a in ACTIONS:
            targets = draw(st.lists(st.sampled_from(pool), min_size=0 if acyclic else 1,
                                    max_size=4, unique=True)) if pool else []
            # a zero absorption weight lets closed classes appear
            weights = {t: draw(st.integers(1, 9)) for t in targets}
            weights["Delta"] = draw(st.integers(0 if targets else 1, 3))
            total = sum(weights.values())
            rows[(s, a)] = {t: F(w, total) for t, w in weights.items() if w}

    def policy():
        out = {}
        for s in states:
            if draw(st.booleans()):
                out[s] = {draw(st.sampled_from(ACTIONS)): F(1)}
            else:
                w = F(draw(st.integers(1, 9)), 10)
                out[s] = {"x": w, "y": 1 - w}
        return out

    stages = [policy() for _ in range(draw(st.integers(0, 2)) + 1)]
    return states, frontier, rows, stages


def build(states, frontier, rows, stages):
    names = states + frontier + ["Delta"]
    kernel = [((s, a), tuple((t, Number(p)) for t, p in row.items()))
              for (s, a), row in rows.items()]
    kernel += [((f, a), (("Delta", Number(1)),)) for f in frontier + ["Delta"] for a in ACTIONS]
    model = MdpModel(
        name="random-chain",
        states=StateSpace(atoms=tuple(AtomDecl(x) for x in names)),
        actions=FiniteActions(ACTIONS),
        kernel=TransitionKernel(rows=tuple(kernel)),
        frontier=frozenset(frontier),
    )

    def dist(mix):
        if len(mix) == 1:
            return ActionAtom(next(iter(mix)))
        return ActionMixture(tuple((Number(w), ActionAtom(a)) for a, w in mix.items()))

    kernels = [
        StageKernel(tuple(StrategyRule(dist=dist(pol[s]), atoms=(s,)) for s in states)
                    + (StrategyRule(dist=ActionAtom("x")),))
        for pol in stages
    ]
    return model, markov_sequence(kernels)


def dense_solve(a, b):
    """Solve a v = b over Fractions; None if a is singular."""
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        for r in range(n):
            if r != k and m[r][k] != 0:
                f = m[r][k] / m[k][k]
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return [m[k][n] / m[k][k] for k in range(n)]


def reference(states, frontier, rows, stages, x0="s0"):
    """(occupation by (state, action), frontier inflow) from x0, or None
    when the reachable in-play states hold a class no mass leaves."""

    def step_probs(pol, s):
        out = {}
        for a, wa in pol[s].items():
            for t, p in rows[(s, a)].items():
                out[t] = out.get(t, 0) + wa * p
        return out

    occ = {}
    inflow = F(0)
    dist = {x0: F(1)}
    for pol in stages[:-1]:
        nxt = {}
        for s, m in dist.items():
            for a, wa in pol[s].items():
                occ[(s, a)] = occ.get((s, a), 0) + m * wa
            for t, p in step_probs(pol, s).items():
                if t in frontier:
                    inflow += m * p
                elif t != "Delta":
                    nxt[t] = nxt.get(t, 0) + m * p
        dist = nxt

    tail = stages[-1]
    q = {s: step_probs(tail, s) for s in states}
    reach = sorted(dist)
    todo = list(reach)
    while todo:
        for t in q[todo.pop()]:
            if t in states and t not in reach:
                reach.append(t)
                todo.append(t)
    reach.sort()
    # (I - Q)^T v = e over the reachable in-play states
    a = [[F(int(x == y)) - q[x].get(y, 0) for x in reach] for y in reach]
    v = dense_solve(a, [dist.get(y, F(0)) for y in reach])
    if v is None:
        return None
    for x, vx in zip(reach, v):
        for act, wa in tail[x].items():
            occ[(x, act)] = occ.get((x, act), 0) + vx * wa
        inflow += vx * sum(p for t, p in q[x].items() if t in frontier)
    return {k: w for k, w in occ.items() if w}, inflow


@settings(max_examples=300, deadline=None)
@given(chains())
def test_countable_matches_the_dense_fundamental_matrix(chain):
    states, frontier, rows, stages = chain
    model, strategy = build(*chain)
    want = reference(*chain)
    if want is None:
        with pytest.raises(CountableSolverError):
            occupation_countable(model, strategy, model.states.point("s0"),
                                 continue_bound=F(1, 2))
        return
    occ = occupation_countable(model, strategy, model.states.point("s0"),
                               continue_bound=F(1, 2))
    got = {}
    for c in occ.measure.components:
        assert c.weight.is_exact
        got[(c.state.point.atom, c.action.action)] = c.weight.as_fraction()
    occupation, inflow = want
    assert got == occupation
    assert occ.tail_bound == Number(CAP * inflow)


def per_action(occ):
    """Occupation weight by (atom, action), with mixtures split into their
    atoms."""
    out = {}
    for c in occ.measure.components:
        parts = c.action.parts if isinstance(c.action, ActionMixture) else ((Number(1), c.action),)
        for wa, part in parts:
            key = (c.state.point.atom, part.action)
            out[key] = out.get(key, 0) + (c.weight * wa).as_fraction()
    return {k: w for k, w in out.items() if w}


@settings(max_examples=200, deadline=None)
@given(chains(acyclic=True))
def test_unroll_countable_and_survival_agree_on_acyclic_chains(chain):
    states = chain[0]
    model, strategy = build(*chain)
    x0 = model.states.point("s0")
    horizon = len(states) + 1
    unrolled = occupation_unroll(model, strategy, x0, horizon)
    countable = occupation_countable(model, strategy, x0)
    assert per_action(unrolled) == per_action(countable)
    total = expected_hitting_time(countable)
    assert total.is_exact and total == expected_hitting_time(unrolled)
    assert total == nsum(survival_probs(model, strategy, x0, horizon))


def old_topo_order(trans, nodes):
    """The earlier solver's order: repeatedly take the smallest ready node."""
    indeg = {n: 0 for n in nodes}
    for src in nodes:
        for dst in trans[src]:
            indeg[dst] += 1
    ready = sorted(n for n in nodes if indeg[n] == 0)
    order = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        for dst in sorted(trans[n]):
            indeg[dst] -= 1
            if indeg[dst] == 0:
                ready.append(dst)
        ready.sort()
    return order


@st.composite
def dags(draw):
    names = draw(st.lists(st.text("abc", min_size=1, max_size=3), min_size=1,
                          max_size=12, unique=True))
    rank = draw(st.permutations(names))
    trans = {x: {} for x in names}
    for i, x in enumerate(rank):
        for y in rank[i + 1:]:
            if draw(st.booleans()):
                trans[x][y] = 1
    return trans


@settings(max_examples=300, deadline=None)
@given(dags())
def test_acyclic_class_order_is_the_old_topological_order(trans):
    nodes = sorted(trans)
    classes, comp = _classes(trans, nodes)
    assert all(len(members) == 1 for members in classes)
    order = [members[0] for members in _class_order(trans, classes, comp)]
    assert order == old_topo_order(trans, nodes)
