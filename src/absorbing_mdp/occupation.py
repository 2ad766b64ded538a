"""Occupation measures, survival probabilities and tail sums.

Two solver paths:

* `occupation_unroll` steps the exact forward distribution through finitely
  many stages and requires sure absorption within the horizon; it is the
  only path that handles segment densities.

* `occupation_countable` handles purely atomic dynamics.  It runs the
  non-stationary prefix exactly, then solves the stationary tail exactly:
  the strategy-fixed chain over the reachable states is condensed into its
  strongly connected classes (Tarjan), and the classes are solved in
  topological order.  Expected visits on a class C entered with mass e are
  the fundamental-matrix row e (I - Q_C)^-1: a single state's visits are
  its entering mass divided by its escape probability, a larger class is
  solved by Gauss-Jordan elimination in `Number` arithmetic, so exact
  inputs give exact visits and float inputs carry certified error.  A class
  that no mass can leave is refused.  Mass entering declared frontier atoms
  is not dropped: it is certified into `tail_bound` as (frontier inflow) x
  cap, where the cap 1/(1-q) bounds the occupation a unit of stray mass can
  still generate and q is the largest stay-in-play probability seen
  (overridable via `continue_bound`; of float probabilities, the largest
  certified upper end value + err, refused when it reaches 1).  The bound
  is a library construction, valid whenever q really bounds the
  continuation probability beyond the frontier.

  How the tail is computed is decided once per solve.  When every prefix
  mass, strategy weight and reachable row probability is an exact
  `Fraction`, it runs on integers: `_tail_transitions` sums successor
  masses as Fractions by the kernel of `numbers` (`_prod`, `_sum`; a
  weight of ONE costs no product), and `_exact_classes` keeps each state's
  inflow as one unreduced sum n/d (`numbers._add_unreduced`), reduces it
  once when the state comes up, divides it by the escape, and boxes each
  occupation weight once (Kemeny & Snell, ch. III; Knuth, TAOCP 2,
  section 4.5.1).  A larger class is solved there by fraction-free
  elimination on integers (`_bareiss_visits`, Bareiss 1968), not by
  Gauss-Jordan in Numbers.  Any float, met anywhere on the way, sends the
  whole tail to `_number_classes` on `Number` transition data, with the
  bits it always had: each class, a single state too, is solved by
  `_class_visits`, and `_route` and the class loop take ONE * p as p and
  ZERO + m as m when p or m is exact (`_times`, `_plus`).

Both paths, and the hitting-time operator in `absorption`, share one
atom-routing core.  `_rows_at` keeps an atom's checked kernel rows on the
model (`MdpModel._kept_rows`, by atom name: a region matches an atom point
by its name alone), and resolves its rule only while they are not kept; a
lookup that raises keeps nothing.  It refuses a density target or a
segment rule with a `SolverError`, which the unroll path avoids by
handling those rules itself.  `_atom_rows` pairs the kept rows with the
weights of the actions played (one action-independent row for a diffuse
rule), and `_route` sends each weighted term of a row to the cemetery, the
frontier's running total or the in-play masses.  The countable measure is
built by `_trusted`: its states are the space's points, every weight is
checked (a Fraction by its numerator's sign) and so is each distinct
action.

`occupation_countable` solves each instance once while its strategy object
lives: a repeated call with the same strategy object, the same model object
and an equal x0, truncation and continue_bound returns the same
`OccupationResult` (`memo.remembered`, owned by the strategy), so
`tail_sum` after an analysis's own solve only looks it up.  A fresh
strategy, even an equal one, is solved anew, and a refusal is raised again
on every call.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .memo import remembered
from .numbers import Number, ZERO, ONE, _add_unreduced, _exact, _frac, _prod, _reduced, _round_up, _sum, nsum
from .measure import (
    ActionAtom,
    ActionMixture,
    ActionPart,
    Domain,
    HybridMeasure,
    MeasureComponent,
    StateAtom,
    StateDensity,
    _trusted,
    _validate_action,
    _validate_state,
    _validate_weight,
    pushforward_affine,
)
from .mdp import (
    ActionPushforward,
    FixedDiffuse,
    MdpModel,
    ModelError,
    Strategy,
    resolve_rule,
)
from .spaces import FiniteActions, StatePoint


class SolverError(Exception):
    pass


class UnrollResidualError(SolverError):
    def __init__(self, residual: Number, horizon: int):
        self.residual = residual
        super().__init__(
            f"mass {float(residual.value):.6g} still in play after {horizon} stages; "
            "not surely absorbed within the horizon"
        )


class CountableSolverError(SolverError):
    def __init__(self, message: str, residual: Number | None = None):
        self.residual = residual
        super().__init__(message)


@dataclass(frozen=True)
class Truncation:
    states: int = 64
    stages: int = 256


@dataclass(frozen=True)
class OccupationResult:
    measure: HybridMeasure
    tail_bound: Number
    method: str


def expected_hitting_time(occ: OccupationResult) -> Number:
    """Total occupation mass; exact when the tail bound is zero, otherwise a
    float whose error holds the total's own error, the whole tail bound
    (value and error) and the rounding of the total to a float."""
    total = occ.measure.total_mass()
    tail = occ.tail_bound
    if tail == ZERO:
        return total
    return _widened(total, tail)


def _widened(x: Number, extra: Number) -> Number:
    """x as a float whose err holds x's own err, the rounding of x to a
    float and the whole of `extra` (value and err), summed as Fractions and
    rounded up."""
    v = float(x.value)
    err = (
        abs(Fraction(v) - Fraction(x.value))
        + Fraction(x.err)
        + Fraction(extra.value)
        + Fraction(extra.err)
    )
    return Number.approx(v, _round_up(err))


_ACTION_DENSITY = "atomic dynamics cannot draw from an action density"


def _decompose_atoms(part: ActionPart):
    if isinstance(part, ActionAtom):
        return [(part.action, ONE)]
    if isinstance(part, ActionMixture):
        out = []
        for w, p in part.parts:
            if not isinstance(p, ActionAtom):
                raise SolverError("atomic dynamics require purely atomic action mixtures")
            out.append((p.action, w))
        return out
    raise SolverError(_ACTION_DENSITY)


def _is_zero(n: Number) -> bool:
    return n.is_exact and n.value == 0


def _rows_at(model: MdpModel, point: StatePoint):
    """The kept kernel rows of the atom at `point` (`MdpModel._kept_rows`),
    its rule resolved only while they are not kept: with table rows, a dict
    action -> row of the declared finite actions that have one, in their
    order; with a FixedDiffuse rule, the 1-tuple of its atom targets.  A
    density target or a segment rule is refused, and a lookup that raises
    keeps nothing."""
    atom = point.atom
    rows = model._kept_rows.get(atom)
    if rows is not None:
        return rows
    rule = resolve_rule(model, StateAtom(point))
    if rule == "table":
        names = model.actions.names if isinstance(model.actions, FiniteActions) else ()
        rows = {a: r for a in names if (r := model.kernel.row(atom, a)) is not None}
    elif isinstance(rule, FixedDiffuse):
        if rule.pieces:
            raise SolverError("atomic solver met a density target")
        rows = (rule.atom_probs,)
    else:
        raise SolverError("atomic solver met a segment embedding rule")
    model._kept_rows[atom] = rows
    return rows


def _atom_rows(model: MdpModel, point: StatePoint, pairs):
    """The kernel rows leaving the atom at `point`, from its kept rows.
    With table rows: (w, row) for each (action, w) of `pairs`, in order (an
    action outside the declared ones is looked up in the kernel).  With a
    FixedDiffuse rule: the single (None, row) of its atom targets, whatever
    the actions."""
    rows = _rows_at(model, point)
    if type(rows) is tuple:
        return [(None, rows[0])]
    out = []
    for a, w in pairs:
        row = rows.get(a)
        if row is None and (row := model.kernel.row(point.atom, a)) is None:
            raise ModelError(f"no kernel row for ({point.atom!r}, {a!r})")
        out.append((w, row))
    return out


def _times(w: Number, p: Number) -> Number:
    """w * p; p itself when w is ONE and p exact, which ONE * p equals."""
    return p if w is ONE and type(p.value) is Fraction else w * p


def _plus(x: Number, m: Number) -> Number:
    """x + m; m itself when x is ZERO and m exact, which ZERO + m equals."""
    return m if x is ZERO and type(m.value) is Fraction else x + m


def _route(model: MdpModel, row, weight: Number | None, into: dict, frontier: Number) -> Number:
    """Send the terms weight * p of a kernel row on (p itself when `weight`
    is None): a frontier atom's onto the running total `frontier`, term by
    term in row order, and every other atom's, the cemetery's included, to
    `into` by name; a caller that drops absorbed mass pops the cemetery.
    Returns the new frontier total."""
    cemetery = model.states.cemetery
    for name, p in row:
        mass = p if weight is None else _times(weight, p)
        if name in model.frontier and name != cemetery:
            frontier = _plus(frontier, mass)
        else:
            into[name] = _plus(into.get(name, ZERO), mass)
    return frontier


def _step(model: MdpModel, parts, stage, frontier: Number):
    """One forward stage: returns (joint occupation components, next parts,
    frontier mass so far).

    The cells a density is cut into are built trusted: the cut keeps them
    inside the density, with its heights, and the density's support is
    checked once, where its rule is resolved.  The cells of one density
    are routed together: with everything exact and every cell playing an
    action atom, as the density's mass times its weight at once, which is
    the exact sum of the cells' masses; otherwise cell by cell, in order."""
    space = model.states
    joint = []
    blocks = []  # (state part, weight, its joint entries)
    for spart, w in parts:
        if _is_zero(w):
            continue
        if isinstance(spart, StateAtom):
            cells = [(spart, stage.dist_at(spart.point), w)]
        else:
            cells = [
                (_trusted(StateDensity, segment=spart.segment, breaks=tuple(b), heights=tuple(h)), dist, w)
                for b, h, dist in stage.split_density(spart)
            ]
        if cells:
            joint += cells
            blocks.append((spart, w, cells))

    nxt: dict = {}  # atom name or state part -> mass, in first-reached order
    for spart, w, cells in blocks:
        rule = resolve_rule(model, spart)
        if type(spart) is StateDensity:
            _validate_state(space, spart)
        if rule == "table":
            ((_, dist, _),) = cells
            for wa, row in _atom_rows(model, spart.point, _decompose_atoms(dist)):
                frontier = _route(model, row, w * wa, nxt, frontier)
        elif isinstance(rule, ActionPushforward):
            for cell, dist, _ in cells:
                smass = cell.mass()
                for part, m in pushforward_affine(
                    space, dist, segment=rule.segment, alpha=rule.alpha, beta=rule.beta
                ):
                    nxt[part] = nxt.get(part, ZERO) + w * smass * m
        elif isinstance(rule, FixedDiffuse):
            keys = [StateDensity(label, tuple(breaks), tuple(heights)) for label, breaks, heights in rule.pieces]
            if _one_mass(spart, w, cells, rule, nxt, frontier):
                masses = [w * spart.mass()]
            else:
                masses = [w * c.mass() * d.mass() for c, d, _ in cells]
            for m in masses:
                frontier = _route(model, rule.atom_probs, m, nxt, frontier)
                for key in keys:
                    nxt[key] = nxt.get(key, ZERO) + m
        else:
            raise ModelError(f"unhandled rule {rule!r}")

    nxt.pop(space.cemetery, None)
    parts = [(StateAtom(space.point(k)) if type(k) is str else k, m) for k, m in nxt.items()]
    return joint, parts, frontier


def _one_mass(spart, w: Number, cells, rule: FixedDiffuse, nxt: dict, frontier: Number) -> bool:
    """Whether the cells of spart can go through the diffuse rule as one
    mass, w times the mass of spart: that is the exact sum of their masses,
    in any order, when the weight, the heights, every cut and probability
    and every mass it joins are exact, and each cell plays an action atom."""
    return (
        all(x.is_exact for x in (w, frontier, *nxt.values()))
        and all(p.is_exact for _, p in rule.atom_probs)
        and all(type(dist) is ActionAtom for _, dist, _ in cells)
        and (
            type(spart) is StateAtom
            or all(h.is_exact for h in spart.heights)
            and not any(isinstance(x, float) for cell, _, _ in cells for x in cell.breaks)
        )
    )


def _merge_joint(domain: Domain, components, once: set) -> HybridMeasure:
    """Components with equal (state part, action part) summed, in
    first-seen order.  The cells of one density are disjoint, so a cell on
    a segment of `once`, where one density was cut, equals no other
    component; every other key is hashed, once.  Each component is checked
    as `HybridMeasure` checks it, except the state of a density cell, which
    `_step` checked, and a weight or action part already checked: the
    cells of one density share both objects."""
    index: dict = {}
    merged: list = []
    for c in components:
        s, a, w = c
        if type(s) is StateDensity and s.segment in once:
            merged.append(c)
            continue
        i = index.setdefault((s, a), len(merged))
        if i == len(merged):
            merged.append([s, a, w])
        else:
            merged[i][2] = merged[i][2] + w
    checked: set = set()  # ids of the weights and action parts checked
    for s, a, w in merged:
        if id(w) not in checked:
            _validate_weight(w, "component")
            checked.add(id(w))
        if type(s) is not StateDensity:
            _validate_state(domain.states, s)
        if id(a) not in checked:
            _validate_action(domain.actions, a)
            checked.add(id(a))
    comps = tuple(MeasureComponent(s, a, w) for s, a, w in merged)
    return _trusted(HybridMeasure, domain=domain, components=comps)


def occupation_unroll(
    model: MdpModel, strategy: Strategy, x0: StatePoint, horizon: int
) -> OccupationResult:
    """Exact finite-horizon occupation measure; requires sure absorption."""
    parts = [(StateAtom(x0), ONE)]
    frontier = ZERO
    collected = []
    cut = Counter()  # segment -> densities cut on it
    for t in range(horizon):
        cut.update(s.segment for s, w in parts if type(s) is StateDensity and not _is_zero(w))
        joint, parts, frontier = _step(model, parts, strategy.stage(t), frontier)
        collected.extend(joint)
        if not _is_zero(frontier):
            raise CountableSolverError(
                "mass reached the model frontier; the unroll path cannot continue",
                residual=frontier,
            )
    residual = nsum(w * s.mass() for s, w in parts)
    if residual.is_exact:
        if residual.value != 0:
            raise UnrollResidualError(residual, horizon)
    elif not residual.certainly_le(Fraction(1, 10 ** 9)):
        raise UnrollResidualError(residual, horizon)
    domain = Domain(model.states, model.actions)
    once = {label for label, n in cut.items() if n == 1}
    return OccupationResult(_merge_joint(domain, collected, once), ZERO, "unroll")


def _atomic_step(model: MdpModel, stage, dist, occ, frontier: Number):
    """One stage of the atomic prefix: adds the stage's occupation to `occ`
    and returns (next in-play masses by atom, frontier mass so far)."""
    space = model.states
    nxt: dict[str, Number] = {}
    for atom, mass in dist.items():
        if _is_zero(mass):
            continue
        point = space.point(atom)
        pairs = _decompose_atoms(stage.dist_at(point))
        for a, wa in pairs:
            occ[(atom, a)] = occ.get((atom, a), ZERO) + mass * wa
        for wa, row in _atom_rows(model, point, pairs):
            frontier = _route(model, row, mass if wa is None else mass * wa, nxt, frontier)
    nxt.pop(space.cemetery, None)
    return nxt, frontier


def _tail_transitions(model: MdpModel, stage, support, exact: bool = False):
    """Strategy-fixed transition data over atoms reachable from `support`:
    per-state successor masses in play, stay probability, action pairs and
    continue-in-play probability (frontier counts as still in play).  With
    `exact`, the masses are Fractions summed on the integer kernel
    (`_exact_route`), and None is returned at the first weight or
    probability that is not one."""
    space = model.states
    trans: dict[str, dict] = {}
    stay: dict = {}
    acts: dict[str, list] = {}
    cont: dict = {}
    frontier_p: dict = {}
    todo = sorted(support)
    seen = set(todo)
    while todo:
        atom = todo.pop()
        point = space.point(atom)
        pairs = _decompose_atoms(stage.dist_at(point))
        acts[atom] = pairs
        out: dict = {}
        rows = _atom_rows(model, point, pairs)
        if exact:
            fr = _exact_route(model, pairs, rows, out)
            if fr is None:
                return None
            absorbed = out.pop(space.cemetery, _F0)
            cont[atom] = _frac(absorbed._denominator - absorbed._numerator, absorbed._denominator)
            stay[atom] = out.pop(atom, _F0)
        else:
            fr = ZERO
            for wa, row in rows:
                fr = _route(model, row, wa, out, fr)
            cont[atom] = ONE - out.pop(space.cemetery, ZERO)
            stay[atom] = out.pop(atom, ZERO)
        trans[atom] = out
        frontier_p[atom] = fr
        for name in out:
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return trans, stay, acts, cont, frontier_p


_F0 = ZERO.value


def _exact_route(model: MdpModel, pairs, rows, into: dict):
    """`_route` of each weighted row of `rows` on Fractions, by `_prod` and
    `_sum`; a weight that is ONE (or None) costs no product.  Returns the
    frontier total, or None if a weight of `pairs` or a probability is not
    a Fraction."""
    if any(type(w.value) is not Fraction for _, w in pairs):
        return None
    cemetery, frontier = model.states.cemetery, model.frontier
    fr = _F0
    for wa, row in rows:
        w = None if wa is None or wa is ONE else wa.value
        for name, p in row:
            m = p.value
            if type(m) is not Fraction:
                return None
            if w is not None:
                m = _prod(w._numerator, w._denominator, m._numerator, m._denominator)
            if name in frontier and name != cemetery:
                fr = _sum(fr._numerator, fr._denominator, m._numerator, m._denominator)
            elif (old := into.get(name)) is None:
                into[name] = m
            else:
                into[name] = _sum(old._numerator, old._denominator, m._numerator, m._denominator)
    return fr


def _classes(trans, nodes):
    """Strongly connected classes of the successor graph `trans`, by
    Tarjan's algorithm run with an explicit stack, so that chains of
    thousands of states do not meet the recursion limit.  Returns the
    classes as sorted member lists and a state -> class index map."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set = set()
    stack: list = []
    classes: list = []
    comp: dict[str, int] = {}
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(trans[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(trans[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp[w] = len(classes)
                        members.append(w)
                        if w == v:
                            break
                    classes.append(sorted(members))
    return classes, comp


def _class_order(trans, classes, comp):
    """Classes in topological order (Kahn's algorithm), always taking the
    ready class whose smallest state name is smallest; on an acyclic graph
    this visits single states in name order among those ready."""
    indeg = [0] * len(classes)
    for x, c in comp.items():
        for dst in trans[x]:
            if comp[dst] != c:
                indeg[comp[dst]] += 1
    ready = [(members[0], c) for c, members in enumerate(classes) if indeg[c] == 0]
    heapq.heapify(ready)
    while ready:
        _, c = heapq.heappop(ready)
        yield classes[c]
        for x in classes[c]:
            for dst in trans[x]:
                d = comp[dst]
                if d != c:
                    indeg[d] -= 1
                    if indeg[d] == 0:
                        heapq.heappush(ready, (classes[d][0], d))


def _certainly_nonzero(n: Number) -> bool:
    return n.value != 0 if n.is_exact else abs(n.value) > n.err


def _class_visits(members, trans, stay, enter) -> dict[str, Number]:
    """Expected visits v on a strongly connected class C entered with mass
    `enter`: v = enter_C + v Q_C, i.e. (I - Q_C)^T v = enter_C, solved by
    Gauss-Jordan elimination in Number arithmetic (for a single state, its
    inflow over its escape).  I - Q_C is singular exactly when no mass can
    leave C; that class is refused."""
    n = len(members)
    col = {x: i for i, x in enumerate(members)}
    # sparse rows of (I - Q_C)^T; column n holds the right-hand side
    rows: list[dict[int, Number]] = [{n: enter[y]} for y in members]
    for x in members:
        i = col[x]
        rows[i][i] = ONE - stay[x]
        for dst, p in trans[x].items():
            j = col.get(dst)
            if j is not None:
                rows[j][i] = -p
    for k in range(n):
        piv = next((r for r in range(k, n) if _certainly_nonzero(rows[r].get(k, ZERO))), None)
        if piv is None:
            raise _closed_class_error(members)
        rows[k], rows[piv] = rows[piv], rows[k]
        prow = rows[k]
        d = prow.pop(k)
        for c in prow:
            prow[c] = prow[c] / d
        for r in range(n):
            row = rows[r]
            f = row.pop(k, None) if r != k else None
            if f is None or _is_zero(f):
                continue
            for c, v in prow.items():
                row[c] = row.get(c, ZERO) - f * v
    return {x: rows[col[x]].get(n, ZERO) for x in members}


def _closed_class_error(members) -> CountableSolverError:
    if len(members) == 1:
        return CountableSolverError(f"state {members[0]!r} never leaves itself, or float error hides its escape")
    return CountableSolverError(
        f"no mass can leave the class of {members[0]!r} ({len(members)} states), so its "
        "occupation is not finite, or float error hides the escape"
    )


def _bareiss_visits(members, trans, stay, inflow) -> dict[str, Fraction]:
    """`_class_visits` for the Fraction data of an exact tail, with each
    member's inflow an unreduced pair (n, d), by fraction-free elimination
    on integers (Bareiss, Math. Comp. 22, 1968): each row of
    (I - Q_C)^T | enter_C is scaled to integers, each elimination step
    divides exactly by the pivot before it, and back substitution gives
    det * v, so each visit is reduced once."""
    n = len(members)
    col = {x: i for i, x in enumerate(members)}
    a = [[_F0] * n + [Fraction(*inflow.get(y, (0, 1)))] for y in members]
    for x, i in col.items():
        s = stay[x]
        a[i][i] = _frac(s._denominator - s._numerator, s._denominator)
        for dst, p in trans[x].items():
            j = col.get(dst)
            if j is not None:
                a[j][i] = _frac(-p._numerator, p._denominator)
    for r, row in enumerate(a):
        scale = lcm(*{f._denominator for f in row})
        a[r] = [f._numerator * (scale // f._denominator) if f._numerator else 0 for f in row]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            raise _closed_class_error(members)
        a[k], a[piv] = a[piv], a[k]
        top = a[k]
        p = top[k]
        for row in a[k + 1:]:
            f = row[k]
            if f:
                row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], top[k + 1:])]
            else:
                row[k + 1:] = [p * x // prev if x else 0 for x in row[k + 1:]]
        prev = p
    scaled = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        t = prev * row[n] - sum(row[j] * scaled[j] for j in range(i + 1, n) if row[j])
        scaled[i] = t // row[i]
    return {x: Fraction(scaled[col[x]], prev) for x in members}


# id(strategy) -> {(id(model), x0, trunc, type, continue_bound):
# ((weak reference to model,), result)}; see `memo`.
_MEMO: dict[int, dict] = {}


def occupation_countable(
    model: MdpModel,
    strategy: Strategy,
    x0: StatePoint,
    trunc: Truncation = Truncation(),
    continue_bound: Fraction | None = None,
) -> OccupationResult:
    """Occupation measure for purely atomic dynamics, exact up to a
    certified tail bound.  While the strategy object lives, a call with it,
    the same model object and an equal x0, trunc and continue_bound returns
    the same result; an error is raised again on every call."""
    # the bound's type is in the key: 0.5 == 1/2, but a float bound is
    # refused
    key = (x0, trunc, type(continue_bound), continue_bound)
    return remembered(
        _MEMO, strategy, (model,), key,
        lambda: _countable(model, strategy, x0, trunc, continue_bound),
    )


def _countable(model, strategy, x0, trunc, continue_bound) -> OccupationResult:
    if x0.atom is None:
        raise SolverError("the countable path needs an atomic initial state")
    if not strategy.stationary_tail:
        raise SolverError("the countable path needs a stationary tail")
    prefix = len(strategy.stages) - 1
    if prefix > trunc.stages:
        raise CountableSolverError(f"{prefix} prefix stages exceed the stage budget")

    occ: dict = {}
    frontier = ZERO
    dist: dict[str, Number] = {x0.atom: ONE}
    for t in range(prefix):
        dist, frontier = _atomic_step(model, strategy.stage(t), dist, occ, frontier)

    tail_stage = strategy.stage(prefix)
    support = [a for a, m in dist.items() if not _is_zero(m)]
    # the tail runs on integers only if every mass, weight and probability
    # it meets is a Fraction; otherwise all of it runs on Numbers
    exact = type(frontier.value) is Fraction and all(type(m.value) is Fraction for m in dist.values())
    data = _tail_transitions(model, tail_stage, support, exact) if exact else None
    if data is None:
        exact = False
        data = _tail_transitions(model, tail_stage, support)
    trans, stay, acts, cont, frontier_p = data
    nodes = sorted(trans)
    if len(nodes) > trunc.states:
        raise CountableSolverError(
            f"{len(nodes)} reachable states exceed the state budget {trunc.states}"
        )

    classes, comp = _classes(trans, nodes)
    solve = _exact_classes if exact else _number_classes
    frontier = solve(_class_order(trans, classes, comp), trans, stay, acts, frontier_p, dist, occ, frontier)
    tail = frontier * _cap(cont, continue_bound, needed=not _is_zero(frontier))
    return _countable_result(model, occ, tail)


def _number_classes(order, trans, stay, acts, frontier_p, dist, occ, frontier: Number) -> Number:
    """The classes of `order` solved in Number arithmetic: their visits
    added to `occ` by (state, action) and their outflow to the inflow of
    the classes after them.  Returns the frontier total."""
    enter = {n: dist.get(n, ZERO) for n in trans}
    for members in order:
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
            # a state with no frontier successor adds nothing: a float v
            # times an exact zero would add a 0.0 carrying rounding slop
            if not _is_zero(frontier_p[x]):
                frontier = _plus(frontier, v * frontier_p[x])
    return frontier


def _exact_classes(order, trans, stay, acts, frontier_p, dist, occ, frontier: Number) -> Number:
    """`_number_classes` on integers, for the Fraction data of an exact
    `_tail_transitions`: a state's inflow is one unreduced sum n/d
    (`_add_unreduced`), reduced once when its class comes up; a single
    state's visits are that over its escape, and a larger class is solved
    by `_bareiss_visits`.  Each occupation weight is boxed once."""
    inflow = {x: (m.value._numerator, m.value._denominator) for x, m in dist.items()}
    fn, fd = frontier.value._numerator, frontier.value._denominator
    for members in order:
        if len(members) == 1:
            x = members[0]
            n, d = inflow.get(x, (0, 1))
            if not n:
                continue
            g = gcd(n, d)
            s = stay[x]
            en, ed = s._denominator - s._numerator, s._denominator
            if not en:
                raise _closed_class_error(members)
            if en < 0:
                en, ed = -en, -ed
            visits = {x: _prod(n // g, d // g, ed, en) if s._numerator else _frac(n // g, d // g)}
        else:
            if not any(inflow.get(x, (0,))[0] for x in members):
                continue
            visits = _bareiss_visits(members, trans, stay, inflow)
        for x, v in visits.items():
            vn, vd = v._numerator, v._denominator
            for a, wa in acts[x]:
                f = wa.value
                w = _exact(v if wa is ONE else _prod(f._numerator, f._denominator, vn, vd))
                old = occ.get(key := (x, a))
                occ[key] = w if old is None else old + w
            for dst, p in trans[x].items():
                if dst not in visits:
                    tn, td = vn * p._numerator, vd * p._denominator
                    old = inflow.get(dst)
                    inflow[dst] = (tn, td) if old is None else _add_unreduced(*old, tn, td)
            p = frontier_p[x]
            if p._numerator:
                fn, fd = _add_unreduced(fn, fd, vn * p._numerator, vd * p._denominator)
    return _reduced(fn, fd)


def _cap(cont: dict, continue_bound, needed: bool) -> Number:
    """Occupation cap for one unit of stray mass: 1/(1-q).  Without
    frontier mass (`needed` False) nothing uses it, and it is ONE."""
    if not needed:
        return ONE
    qs = [Number.lift(c) for c in cont.values()]  # an exact solve's are Fractions
    if continue_bound is not None:
        q = Number.lift(continue_bound)
    elif all(c.is_exact for c in qs):
        q = max(qs, default=ZERO)
    else:  # the largest certified upper end, not the largest central value
        q = Number.approx(_round_up(max(Fraction(c.value) + Fraction(c.err) for c in qs)))
    if q >= ONE:
        raise CountableSolverError(
            "no absorption certificate: continuation probability reaches 1; "
            "supply continue_bound"
        )
    return ONE / (ONE - q)


def _countable_result(model: MdpModel, occ: dict, tail: Number) -> OccupationResult:
    space = model.states
    domain = Domain(model.states, model.actions)
    comps = []
    checked: dict = {}  # action -> its checked ActionAtom
    for (atom, action), w in occ.items():
        v = w.value
        if type(v) is not Fraction or v._numerator <= 0:  # else positive
            if _is_zero(w):
                continue
            _validate_weight(w, "component")
        a = checked.get(action)
        if a is None:
            a = checked[action] = ActionAtom(action)
            _validate_action(domain.actions, a)
        state = _trusted(StateAtom, point=space.point(atom))
        comps.append(_trusted(MeasureComponent, state=state, action=a, weight=w))
    return OccupationResult(_trusted(HybridMeasure, domain=domain, components=tuple(comps)), tail, "countable")


def survival_probs(
    model: MdpModel, strategy: Strategy, x0: StatePoint, n_max: int
) -> list[Number]:
    """P(still in play at time t) for t = 0..n_max.  Mass that reached the
    frontier stays in the error bound forever (it may or may not be alive):
    once there is any, the result is a float whose err holds that mass
    (value and err), the in-play mass's own err and its rounding."""
    parts = [(StateAtom(x0), ONE)]
    pool = ZERO
    out: list[Number] = []
    for t in range(n_max + 1):
        alive = nsum(w * s.mass() for s, w in parts)
        if _is_zero(pool):
            out.append(alive)
        else:
            out.append(_widened(alive, pool))
        if t < n_max:
            _, parts, pool = _step(model, parts, strategy.stage(t), pool)
    return out


def tail_sum(
    model: MdpModel,
    strategy: Strategy,
    x0: StatePoint,
    n: int,
    trunc: Truncation = Truncation(),
    continue_bound: Fraction | None = None,
) -> Number:
    """Expected time spent in play from stage n on: total occupation mass,
    by the countable solver, minus the first n survival probabilities.
    Nonincreasing in n."""
    total = expected_hitting_time(occupation_countable(model, strategy, x0, trunc, continue_bound))
    if n == 0:
        return total
    surv = survival_probs(model, strategy, x0, n - 1)
    return total - nsum(surv)
