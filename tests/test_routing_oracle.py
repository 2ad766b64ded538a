"""Differential test of the shared atom-routing core.

`occupation._atom_rows` resolves an atom's kernel rule once and fetches its
rows; `occupation._route` sends each weighted term of a row to the cemetery,
the frontier or play.  The four loops they replaced are kept below, verbatim
but for their names, as the reference: the unroll stage `_step`, the atomic
prefix stage `_atomic_step`, the tail's `_tail_transitions` and the
hitting-time operator's `_successor_rows`, whose max over rows is now the
certified one: the central winner when its interval ends at or above every
other row's, else an enclosure of the max.  On random atom models that mix
exact and float probabilities, action mixtures, diffuse rules, frontier
atoms (the cemetery among them), zero entries and repeated targets, the new
code must give the same parts in the same order, equal exact values and
the same float bits (`float.hex` of value and err).

Faulty atoms (no rule, a missing row, a density target, a segment rule, an
action density) must raise the same exception type and message, with two
documented differences:

* `absorption` refuses a density target, a segment rule and an interval
  action space with the occupation solvers' `SolverError` where it raised
  `ModelError`;
* the atomic prefix and tail draw an atom's actions before they resolve its
  rule, so an atom whose actions cannot be drawn is refused for that even
  when its rule is faulty too.  The reference shows the same error once
  such atoms are given table rows (`drawing_first`).
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from absorbing_mdp import (
    ActionAtom,
    AtomDecl,
    FiniteActions,
    MdpModel,
    ModelError,
    Number,
    SegmentDecl,
    StageKernel,
    StateSpace,
    StrategyRule,
    TransitionKernel,
    ValueFunction,
)
from absorbing_mdp.absorption import _apply_at
from absorbing_mdp.measure import (
    ActionDensity,
    ActionMixture,
    MeasureError,
    StateAtom,
    StateDensity,
    pushforward_affine,
)
from absorbing_mdp.mdp import (
    ActionPushforward,
    FixedDiffuse,
    FromRegion,
    resolve_rule,
)
from absorbing_mdp.numbers import ONE, ZERO, nsum
from absorbing_mdp.occupation import (
    SolverError,
    _atomic_step,
    _round_up,
    _step,
    _tail_transitions,
)

F = Fraction
ACTIONS = ("x", "y")
CEMETERY = "Delta"


# -- reference copies of the routing loops the core replaced ---------------


class _Flow:
    def __init__(self):
        self.absorbed = ZERO
        self.frontier = ZERO


def ref_decompose_atoms(part):
    if isinstance(part, ActionAtom):
        return [(part.action, ONE)]
    if isinstance(part, ActionMixture):
        out = []
        for w, p in part.parts:
            if not isinstance(p, ActionAtom):
                raise SolverError("atomic dynamics require purely atomic action mixtures")
            out.append((p.action, w))
        return out
    raise SolverError("atomic dynamics cannot draw from an action density")


def _is_zero(n):
    return n.is_exact and n.value == 0


def ref_step(model, parts, stage, flow):
    space = model.states
    joint = []
    for spart, w in parts:
        if _is_zero(w):
            continue
        if isinstance(spart, StateAtom):
            joint.append((spart, stage.dist_at(spart.point), w))
        else:
            for breaks, heights, dist in stage.split_density(spart):
                joint.append((StateDensity(spart.segment, tuple(breaks), tuple(heights)), dist, w))

    nxt = {}

    def route_atom(name, mass):
        if name == space.cemetery:
            flow.absorbed = flow.absorbed + mass
        elif name in model.frontier:
            flow.frontier = flow.frontier + mass
        else:
            key = StateAtom(space.point(name))
            nxt[key] = nxt.get(key, ZERO) + mass

    for spart, dist, w in joint:
        rule = resolve_rule(model, spart)
        smass = spart.mass()
        if rule == "table":
            atom = spart.point.atom
            for a, wa in ref_decompose_atoms(dist):
                row = model.kernel.row(atom, a)
                if row is None:
                    raise ModelError(f"no kernel row for ({atom!r}, {a!r})")
                for nxt_name, p in row:
                    route_atom(nxt_name, w * wa * p)
        elif isinstance(rule, ActionPushforward):
            for part, m in pushforward_affine(
                space, dist, segment=rule.segment, alpha=rule.alpha, beta=rule.beta
            ):
                nxt[part] = nxt.get(part, ZERO) + w * smass * m
        elif isinstance(rule, FixedDiffuse):
            mass = w * smass * dist.mass()
            for name, p in rule.atom_probs:
                route_atom(name, mass * p)
            for label, breaks, heights in rule.pieces:
                key = StateDensity(label, tuple(breaks), tuple(heights))
                nxt[key] = nxt.get(key, ZERO) + mass
        else:
            raise ModelError(f"unhandled rule {rule!r}")

    return joint, list(nxt.items())


def ref_atomic_step(model, stage, dist, occ, flow):
    space = model.states
    nxt = {}

    def route(name, mass):
        if name == space.cemetery:
            flow.absorbed = flow.absorbed + mass
        elif name in model.frontier:
            flow.frontier = flow.frontier + mass
        else:
            nxt[name] = nxt.get(name, ZERO) + mass

    for atom, mass in dist.items():
        if _is_zero(mass):
            continue
        point = space.point(atom)
        rule = resolve_rule(model, StateAtom(point))
        pairs = ref_decompose_atoms(stage.dist_at(point))
        for a, wa in pairs:
            key = (atom, a)
            occ[key] = occ.get(key, ZERO) + mass * wa
        if rule == "table":
            for a, wa in pairs:
                row = model.kernel.row(atom, a)
                if row is None:
                    raise ModelError(f"no kernel row for ({atom!r}, {a!r})")
                for name, p in row:
                    route(name, mass * wa * p)
        elif isinstance(rule, FixedDiffuse):
            if rule.pieces:
                raise SolverError("atomic solver met a density target")
            for name, p in rule.atom_probs:
                route(name, mass * p)
        else:
            raise SolverError("atomic solver met a segment embedding rule")
    return nxt


def ref_tail_transitions(model, stage, support):
    space = model.states
    trans = {}
    stay = {}
    acts = {}
    cont = {}
    frontier_p = {}
    absorbed_p = {}
    todo = sorted(support)
    seen = set(todo)
    while todo:
        atom = todo.pop()
        point = space.point(atom)
        rule = resolve_rule(model, StateAtom(point))
        pairs = ref_decompose_atoms(stage.dist_at(point))
        acts[atom] = pairs
        out = {}
        fr = ZERO
        ab = ZERO

        def take(name, mass):
            nonlocal fr, ab
            if name == space.cemetery:
                ab = ab + mass
            elif name in model.frontier:
                fr = fr + mass
            else:
                out[name] = out.get(name, ZERO) + mass

        if rule == "table":
            for a, wa in pairs:
                row = model.kernel.row(atom, a)
                if row is None:
                    raise ModelError(f"no kernel row for ({atom!r}, {a!r})")
                for name, p in row:
                    take(name, wa * p)
        elif isinstance(rule, FixedDiffuse):
            if rule.pieces:
                raise SolverError("atomic solver met a density target")
            for name, p in rule.atom_probs:
                take(name, p)
        else:
            raise SolverError("atomic solver met a segment embedding rule")

        stay[atom] = out.pop(atom, ZERO)
        trans[atom] = out
        frontier_p[atom] = fr
        absorbed_p[atom] = ab
        cont[atom] = ONE - ab
        for name in out:
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return trans, stay, acts, cont, frontier_p


def ref_successor_rows(model, atom):
    if not isinstance(model.actions, FiniteActions):
        raise ModelError("hitting-time analysis needs finite actions")
    rule = resolve_rule(model, StateAtom(model.states.point(atom)))
    if rule == "table":
        out = []
        for a in model.actions.names:
            row = model.kernel.row(atom, a)
            if row is None:
                raise ModelError(f"no kernel row for ({atom!r}, {a!r})")
            out.append((a, row))
        return out
    if isinstance(rule, FixedDiffuse):
        if rule.pieces:
            raise ModelError("hitting-time analysis needs atomic targets")
        return [(a, rule.atom_probs) for a in model.actions.names]
    raise ModelError("hitting-time analysis needs atomic targets")


def ref_apply_at(model, lookup, atom):
    best = None
    totals = []
    for _, row in ref_successor_rows(model, atom):
        total = nsum(p * lookup(name) for name, p in row)
        totals.append(total)
        if best is None or total > best:
            best = total
    return ONE + certified_max(best, totals)


def certified_max(best, totals):
    """`best` when its lower end is at or above every other row's upper
    end, else the enclosure [max lo, max hi] of the max, rounded outward."""
    ends = [(F(t.value) - F(t.err), F(t.value) + F(t.err)) for t in totals]
    if all(F(best.value) - F(best.err) >= hi for t, (_, hi) in zip(totals, ends) if t is not best):
        return best
    lo, hi = max(lo for lo, _ in ends), max(hi for _, hi in ends)
    mid = float((lo + hi) / 2)
    return Number.approx(mid, _round_up(max(hi - F(mid), F(mid) - lo)))


# -- random atom models ----------------------------------------------------


@st.composite
def numbers(draw, zero=True):
    """An exact or float Number in [0, 1], an exact or float zero included."""
    kinds = ["exact", "float", "float-err"] + (["zero", "float-zero"] if zero else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "exact":
        return Number(F(draw(st.integers(1, 12)), draw(st.integers(1, 12))))
    if kind == "zero":
        return ZERO
    if kind == "float-zero":
        return Number.approx(0.0)
    v = draw(st.floats(0.001, 1.0))
    return Number.approx(v, 1e-12 if kind == "float-err" else 0.0)


@st.composite
def atom_models(draw):
    """(model, stage, in-play atom names): 1-5 states, 0-2 frontier atoms
    (sometimes the cemetery too) and a segment for density targets and
    affine rules."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 5)))]
    frontier = [f"f{i}" for i in range(draw(st.integers(0, 2)))]
    targets = states + frontier + [CEMETERY]

    def row():
        names = draw(st.lists(st.sampled_from(targets), min_size=1, max_size=4))
        return tuple((n, draw(numbers())) for n in names)

    rows, rules = [], []
    for s in states:
        kind = draw(st.sampled_from(
            ["table"] * 4 + ["diffuse"] * 2 + ["missing-row", "density", "segment", "uncovered"]
        ))
        region = FromRegion(atoms=(s,))
        if kind in ("table", "missing-row"):
            acts = ACTIONS if kind == "table" else ACTIONS[:1]
            rows += [((s, a), row()) for a in acts]
        elif kind == "diffuse":
            rules.append(FixedDiffuse(region, atom_probs=row()))
        elif kind == "density":
            rules.append(FixedDiffuse(
                region, atom_probs=row(), pieces=(("I", (F(0), F(1)), (draw(numbers(zero=False)),)),)
            ))
        elif kind == "segment":
            rules.append(ActionPushforward(region, "I"))
    for f in frontier + [CEMETERY]:
        rows += [((f, a), ((CEMETERY, ONE),)) for a in ACTIONS]
    declared = frontier + ([CEMETERY] if draw(st.booleans()) and draw(st.booleans()) else [])
    model = MdpModel(
        name="random-atoms",
        states=StateSpace(
            atoms=tuple(AtomDecl(n) for n in targets),
            segments=(SegmentDecl("I", F(0), F(1)),),
        ),
        actions=FiniteActions(ACTIONS),
        kernel=TransitionKernel(rows=tuple(rows), rules=tuple(rules)),
        frontier=frozenset(declared),
    )

    def dist():
        kind = draw(st.sampled_from(
            ["atom"] * 3 + ["mixture"] * 3 + ["density", "numeric", "mixed-density"]
        ))
        if kind == "atom":
            return ActionAtom(draw(st.sampled_from(ACTIONS)))
        if kind == "mixture":
            picks = draw(st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=3))
            return ActionMixture(tuple((draw(numbers()), ActionAtom(a)) for a in picks))
        density = ActionDensity((F(0), F(1)), (ONE,))
        if kind == "density":
            return density
        if kind == "numeric":
            return ActionAtom(F(1, 2))
        return ActionMixture(((Number(F(1, 2)), ActionAtom("x")), (Number(F(1, 2)), density)))

    stage = StageKernel(
        tuple(StrategyRule(dist=dist(), atoms=(s,)) for s in states)
        + (StrategyRule(dist=ActionAtom("x")),)
    )
    return model, stage, targets


def drawing_first(model, stage, atoms):
    """The model with table rows for every atom whose actions cannot be
    drawn: the reference then refuses such an atom for its actions, as the
    new core does whatever the atom's rule."""
    mended = []
    for atom in atoms:
        try:
            ref_decompose_atoms(stage.dist_at(model.states.point(atom)))
        except SolverError:
            mended.append(atom)
    rows = tuple(r for r in model.kernel.rows if r[0][0] not in mended)
    rows += tuple(((a, act), ((CEMETERY, ONE),)) for a in mended for act in ACTIONS)
    rules = tuple(r for r in model.kernel.rules if not set(r.region.atoms) & set(mended))
    return MdpModel(
        name=model.name,
        states=model.states,
        actions=model.actions,
        kernel=TransitionKernel(rows=rows, rules=rules),
        frontier=model.frontier,
    )


def bits(n):
    """A Number's exact value, or the float bits of its value and err."""
    if n.is_exact:
        return ("exact", n.value, n.err)
    return ("float", float.hex(n.value), float.hex(float(n.err)))


def items(d):
    return [(k, bits(v)) for k, v in d.items()]


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (ModelError, SolverError, MeasureError) as exc:
        return ("raised", type(exc), str(exc))


# -- the oracle ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(atom_models(), st.data())
def test_step_matches_the_reference(case, data):
    model, stage, atoms = case
    picks = data.draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=4, unique=True))
    parts = [(StateAtom(model.states.point(a)), data.draw(numbers())) for a in picks]
    start = data.draw(numbers())

    def ref():
        flow = _Flow()
        flow.frontier = start
        joint, nxt = ref_step(model, parts, stage, flow)
        return joint, [(k, bits(m)) for k, m in nxt], bits(flow.frontier)

    def new():
        joint, nxt, frontier = _step(model, parts, stage, start)
        return joint, [(k, bits(m)) for k, m in nxt], bits(frontier)

    assert outcome(new) == outcome(ref)


@settings(max_examples=200, deadline=None)
@given(atom_models(), st.data())
def test_atomic_step_matches_the_reference(case, data):
    model, stage, atoms = case
    picks = data.draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=5, unique=True))
    dist = {a: data.draw(numbers()) for a in picks}
    start = data.draw(numbers())

    def ref(model):
        flow = _Flow()
        flow.frontier = start
        occ = {}
        nxt = ref_atomic_step(model, stage, dist, occ, flow)
        return items(nxt), bits(flow.frontier), items(occ)

    def new():
        occ = {}
        nxt, frontier = _atomic_step(model, stage, dist, occ, start)
        return items(nxt), bits(frontier), items(occ)

    want = outcome(ref, model)
    if want[0] == "raised":
        want = outcome(ref, drawing_first(model, stage, atoms))
    assert outcome(new) == want


@settings(max_examples=200, deadline=None)
@given(atom_models(), st.data())
def test_tail_transitions_match_the_reference(case, data):
    model, stage, atoms = case
    support = data.draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=4, unique=True))

    def run(fn, model):
        trans, stay, acts, cont, frontier_p = fn(model, stage, support)
        return (
            [(x, items(out)) for x, out in trans.items()],
            items(stay),
            [(x, [(a, bits(w)) for a, w in pairs]) for x, pairs in acts.items()],
            items(cont),
            items(frontier_p),
        )

    want = outcome(run, ref_tail_transitions, model)
    if want[0] == "raised":
        want = outcome(run, ref_tail_transitions, drawing_first(model, stage, atoms))
    assert outcome(run, _tail_transitions, model) == want


UNIFIED = {
    FixedDiffuse: "atomic solver met a density target",
    ActionPushforward: "atomic solver met a segment embedding rule",
}


@settings(max_examples=200, deadline=None)
@given(atom_models(), st.data())
def test_bellman_operator_matches_the_reference(case, data):
    model, _, atoms = case
    known = data.draw(st.lists(st.sampled_from(atoms), unique=True))
    w = ValueFunction({a: data.draw(numbers()) for a in known}, cemetery=CEMETERY)
    for atom in atoms:
        want = outcome(lambda: bits(ref_apply_at(model, w.value_at, atom)))
        if want[:3] == ("raised", ModelError, "hitting-time analysis needs atomic targets"):
            rule = resolve_rule(model, StateAtom(model.states.point(atom)))
            want = ("raised", SolverError, UNIFIED[type(rule)])
        assert outcome(lambda: bits(_apply_at(model, w.value_at, atom))) == want
