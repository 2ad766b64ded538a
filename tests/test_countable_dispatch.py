"""The countable solve's integer tail against the Number class loop.

`occupation_countable` runs the stationary tail on integers when every
prefix mass, strategy weight and reachable row probability is an exact
Fraction, and on Numbers otherwise.  `reference_countable` below is the
solve as it was before the integer tail: the prefix, the Number transition
data of `_tail_transitions`, and the class loop over Numbers, copied here.

* On exact random chains (cycles, self-loops, frontier atoms, prefixes and
  mixtures, from `test_countable_oracle`) the two give the same measure:
  the same components in the same order, equal exact weights, and the same
  tail bound.  A class of more than one state is solved by fraction-free
  elimination on integers on one side and by `_class_visits` on the other;
  a class whose elimination must swap rows is checked by hand.
* With one float probability, strategy weight or prefix mass put in at a
  drawn reachable state, the whole solve takes the Number path, and the
  result has the reference's bits: every value and err, the component
  order and the tail bound.
* With a kernel row the strategy plays taken out at a drawn reachable
  state, both raise the same ModelError, on every call.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from absorbing_mdp import ModelError, Number, Truncation, occupation_countable
from absorbing_mdp.numbers import ONE, ZERO
from absorbing_mdp.occupation import (
    CountableSolverError,
    SolverError,
    _atomic_step,
    _cap,
    _certainly_nonzero,
    _class_order,
    _class_visits,
    _classes,
    _countable_result,
    _is_zero,
    _plus,
    _tail_transitions,
    _times,
)

from test_countable_oracle import build, chains, reference

F = Fraction
BOUND = F(1, 2)


def reference_countable(model, strategy, x0, trunc=Truncation(), continue_bound=None):
    """The countable solve in Number arithmetic throughout."""
    prefix = len(strategy.stages) - 1
    occ: dict = {}
    frontier = ZERO
    dist = {x0.atom: ONE}
    for t in range(prefix):
        dist, frontier = _atomic_step(model, strategy.stage(t), dist, occ, frontier)
    support = [a for a, m in dist.items() if not _is_zero(m)]
    trans, stay, acts, cont, frontier_p = _tail_transitions(model, strategy.stage(prefix), support)
    nodes = sorted(trans)
    if len(nodes) > trunc.states:
        raise CountableSolverError(f"{len(nodes)} reachable states exceed the state budget {trunc.states}")

    classes, comp = _classes(trans, nodes)
    enter = {n: dist.get(n, ZERO) for n in nodes}
    for members in _class_order(trans, classes, comp):
        if len(members) == 1:
            x = members[0]
            inflow = enter[x]
            if _is_zero(inflow):
                continue
            escape = ONE - stay[x]
            if not _certainly_nonzero(escape):
                raise CountableSolverError(
                    f"state {x!r} never leaves itself, or float error hides its escape"
                )
            visits = {x: inflow / escape}
        else:
            if all(_is_zero(enter[x]) for x in members):
                continue
            visits = _class_visits(members, trans, stay, enter)
        for x, v in visits.items():
            for a, wa in acts[x]:
                key = (x, a)
                occ[key] = _plus(occ.get(key, ZERO), _times(wa, v))
            for dst, p in trans[x].items():
                if dst not in visits:
                    enter[dst] = _plus(enter[dst], v * p)
            if not _is_zero(frontier_p[x]):
                frontier = _plus(frontier, v * frontier_p[x])

    tail = frontier * _cap(cont, continue_bound, needed=not _is_zero(frontier))
    return _countable_result(model, occ, tail)


def bits(n: Number):
    if n.is_exact:
        return ("exact", type(n.value), n.value)
    return ("float", float.hex(n.value), float.hex(float(n.err)))


def shape(occ):
    comps = [(c.state.point.atom, c.action, bits(c.weight)) for c in occ.measure.components]
    return comps, bits(occ.tail_bound), occ.method


def outcome(fn, *args, **kw):
    try:
        return ("ok", shape(fn(*args, **kw)))
    except (ModelError, SolverError) as exc:
        return ("raised", type(exc), str(exc))


def solve_both(chain):
    model, strategy = build(*chain)
    x0 = model.states.point("s0")
    want = outcome(reference_countable, model, strategy, x0, continue_bound=BOUND)
    got = outcome(occupation_countable, model, strategy, x0, continue_bound=BOUND)
    return got, want


def reached(chain) -> list:
    """States with positive occupation, by the dense reference, or s0."""
    solved = reference(*chain)
    return sorted({s for s, _ in solved[0]}) if solved and solved[0] else ["s0"]


@settings(max_examples=300, deadline=None)
@given(chains())
def test_exact_chains_take_the_integer_tail_to_the_same_measure(chain):
    got, want = solve_both(chain)
    assert got == want
    if got[0] == "ok":
        comps, tail, _ = got[1]
        assert tail[0] == "exact" and all(w[0] == "exact" for _, _, w in comps)


def floated(policy: dict, state: str) -> dict:
    """`policy` with float weights at `state`: a mixture of both actions."""
    out = dict(policy)
    w = F(policy[state].get("x", 0))
    out[state] = {"x": float(w), "y": float(1 - w)}
    return out


@st.composite
def chains_with_a_float(draw):
    states, frontier, rows, stages = chain = draw(chains())
    s = draw(st.sampled_from(reached(chain)))
    kind = draw(st.sampled_from(["probability", "weight", "prefix mass"]))
    rows, stages = dict(rows), list(stages)
    if kind == "probability":
        key = (s, draw(st.sampled_from(sorted(stages[-1][s]))))
        t = draw(st.sampled_from(sorted(rows[key])))
        rows[key] = {**rows[key], t: float(rows[key][t])}
    elif kind == "weight":
        stages[-1] = floated(stages[-1], s)
    else:  # a first stage that plays float weights at s0
        stages.insert(0, floated(stages[-1], "s0"))
    return states, frontier, rows, stages


@settings(max_examples=300, deadline=None)
@given(chains_with_a_float())
def test_a_float_sends_the_whole_solve_down_the_number_path(chain):
    got, want = solve_both(chain)
    assert got == want


@st.composite
def chains_missing_a_row(draw):
    states, frontier, rows, stages = chain = draw(chains())
    s = draw(st.sampled_from(reached(chain)))
    a = draw(st.sampled_from(sorted(stages[-1][s])))
    return states, frontier, {k: r for k, r in rows.items() if k != (s, a)}, stages


@settings(max_examples=200, deadline=None)
@given(chains_missing_a_row())
def test_a_missing_row_is_refused_alike_on_every_call(chain):
    model, strategy = build(*chain)
    x0 = model.states.point("s0")
    want = outcome(reference_countable, model, strategy, x0, continue_bound=BOUND)
    for _ in range(2):
        assert outcome(occupation_countable, model, strategy, x0, continue_bound=BOUND) == want
    if want[0] == "raised":
        assert want[1] is ModelError and want[2].startswith("no kernel row for (")


def test_a_class_that_needs_a_row_swap_is_solved_alike():
    # s0 stays surely and leaks to s1, whose mass returns with probability
    # -1/2: no distribution, but the solver does not validate.  The first
    # pivot of the exact elimination is zero, so rows are swapped, and the
    # determinant is negative.
    rows = {
        ("s0", "x"): {"s0": F(1), "s1": F(1, 2), "Delta": F(-1, 2)},
        ("s1", "x"): {"s0": F(-1, 2), "Delta": F(3, 2)},
    }
    chain = (["s0", "s1"], [], rows, [{"s0": {"x": F(1)}, "s1": {"x": F(1)}}])
    got, want = solve_both(chain)
    assert got == want
    comps, tail, _ = got[1]
    assert [(s, w[2]) for s, _, w in comps] == [("s0", 4), ("s1", 2)]
