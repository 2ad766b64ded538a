"""Convergence checks against finite test-function batteries.

Three battery modes mirror three product topologies on measures:

* mode "w": every function must be declared continuous (jointly, in state
  and action);
* mode "ws": functions may be continuous or caratheodory (measurable in
  the state, continuous in the action);
* mode "s": functions see the state marginal only.

A verdict is always relative to the finite battery and the tolerance: the
battery realizes a topology on the instances exercised, it is not the full
topology.  Reports carry that caveat verbatim.

Declared continuity is sanity-checked along the state space's declared
convergent sequences: the deviation at the deepest term must have decayed
relative to the first term.  This is a finite check; it rejects honest
discontinuities (an indicator of the limit point) and accepts slow but
genuine convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .numbers import Number, ONE, ZERO, nsum
from .measure import (
    ActionAtom,
    ActionMixture,
    CONTINUOUS,
    CARATHEODORY,
    HybridMeasure,
    MeasureError,
    StateAtom,
    TestFunction,
    _cell_table,
    integrate,
    marginal_state,
)
from .mdp import MdpModel
from .occupation import occupation_unroll
from .spaces import FiniteActions, StateSpace

DEFAULT_TOPOLOGY_TOL = 1e-9
_CONTINUITY_ABS = 1e-9
_CONTINUITY_RATIO = 0.25


class BatteryError(ValueError):
    pass


@dataclass(frozen=True)
class TestBattery:
    __test__ = False  # keep pytest from collecting this as a test class

    name: str
    mode: str  # w | ws | s
    functions: tuple[TestFunction, ...]

    def __post_init__(self):
        if self.mode not in ("w", "ws", "s"):
            raise BatteryError(f"unknown mode {self.mode!r}")
        if not self.functions:
            raise BatteryError("a battery needs at least one function")
        names = [f.name for f in self.functions]
        if len(set(names)) != len(names):
            raise BatteryError("duplicate function names")
        for f in self.functions:
            if self.mode == "w" and f.declared_class != CONTINUOUS:
                raise BatteryError(
                    f"{f.name!r}: mode 'w' admits only declared-continuous functions"
                )
            if self.mode == "ws" and f.declared_class not in (CONTINUOUS, CARATHEODORY):
                raise BatteryError(
                    f"{f.name!r}: mode 'ws' admits continuous or caratheodory functions"
                )
            if self.mode == "s" and f.arity != "state":
                raise BatteryError(f"{f.name!r}: mode 's' sees the state marginal only")


def make_battery(
    name: str,
    mode: str,
    functions,
    space: StateSpace | None = None,
    actions=None,
) -> TestBattery:
    """Build a battery; when a space is supplied, declared-continuous
    functions are checked along its declared convergent sequences first."""
    battery = TestBattery(name, mode, tuple(functions))
    if space is not None:
        for f in battery.functions:
            if f.declared_class == CONTINUOUS:
                _check_continuity(f, space, actions)
    return battery


def _action_samples(f: TestFunction, actions):
    if f.arity == "state":
        return [None]
    if actions is None:
        raise BatteryError(f"{f.name!r}: joint continuity check needs the action space")
    if isinstance(actions, FiniteActions):
        return list(actions.names)
    lo, hi = actions.lo, actions.hi
    return [lo, (lo + hi) / 2, hi]


def _check_continuity(f: TestFunction, space: StateSpace, actions):
    for seq in space.sequences:
        if not seq.terms:
            continue
        limit = space.point(seq.limit)
        first = space.point(seq.terms[0])
        last = space.point(seq.terms[-1])
        for a in _action_samples(f, actions):
            def val(p):
                return float(f.evaluate(p, a).value) if a is not None else float(f.evaluate(p).value)
            dev_first = abs(val(first) - val(limit))
            dev_last = abs(val(last) - val(limit))
            allowed = max(_CONTINUITY_ABS, _CONTINUITY_RATIO * dev_first)
            if dev_last > allowed:
                raise BatteryError(
                    f"{f.name!r} declared continuous but deviates by {dev_last:.3g} "
                    f"at the deepest term toward {seq.limit!r}"
                )


@dataclass(frozen=True)
class FunctionTrace:
    name: str
    values: tuple
    limit_value: Number
    gaps: tuple
    converged: bool
    persistent: bool


CAVEAT = (
    "verdicts are relative to this finite battery and tolerance; "
    "they witness, but do not characterize, the corresponding topology"
)


@dataclass(frozen=True)
class ConvergenceReport:
    battery: str
    mode: str
    tol: float
    verdict: str  # converges | diverges
    witness: str | None
    witness_gap: Number | None
    traces: tuple[FunctionTrace, ...]
    note: str = ""
    caveat: str = CAVEAT


def check_convergence(
    sequence,
    limit: HybridMeasure,
    battery: TestBattery,
    tol: float = DEFAULT_TOPOLOGY_TOL,
) -> ConvergenceReport:
    """Battery-relative convergence of a measure sequence to a limit.

    A function converges when every gap in the final third is certified at
    or below tol; it diverges persistently when every such gap is certified
    at or above 10*tol.  The verdict is `converges` iff every function
    converges, else `diverges` with the strongest witness.
    """
    sequence = list(sequence)
    if not sequence:
        raise MeasureError("need at least one measure in the sequence")
    if battery.mode == "s":
        sequence = [marginal_state(mu) for mu in sequence]
        limit = marginal_state(limit)

    k = len(sequence)
    start = k - math.ceil(k / 3)
    # floats are exact binary rationals, so this conversion is lossless
    tol_exact = Fraction(tol)
    floor = 10 * tol_exact
    traces = []
    for f in battery.functions:
        lim_val = integrate(limit, f)
        vals = [integrate(mu, f) for mu in sequence]
        gaps = [abs(v - lim_val) for v in vals]
        tail = gaps[start:]
        converged = all(g.certainly_le(tol_exact) for g in tail)
        persistent = all(g.certainly_ge(floor) for g in tail)
        traces.append(
            FunctionTrace(f.name, tuple(vals), lim_val, tuple(gaps), converged, persistent)
        )

    bad = [t for t in traces if not t.converged]
    name = gap = None
    note = ""
    if bad:
        pool = [t for t in bad if t.persistent] or bad
        witness = max(pool, key=lambda t: min(float(g.value) for g in t.gaps[start:]))
        name = witness.name
        gap = min(witness.gaps[start:], key=lambda g: g.value)
        if not witness.persistent:
            note = (
                "no gap stayed certified above 10*tol through the final third; "
                "the divergence verdict is tolerance-sensitive"
            )
    return ConvergenceReport(
        battery.name,
        battery.mode,
        tol,
        "diverges" if bad else "converges",
        name,
        gap,
        tuple(traces),
        note=note,
    )


def multi_initial_check(
    model: MdpModel,
    pairs,
    limit_pair,
    battery: TestBattery,
    tol: float = DEFAULT_TOPOLOGY_TOL,
    horizon: int = 4,
) -> ConvergenceReport:
    """Convergence of occupation measures along a sequence of
    (initial state, strategy) pairs against a limit pair."""
    seq = [occupation_unroll(model, s, x0, horizon).measure for x0, s in pairs]
    lx0, ls = limit_pair
    lim = occupation_unroll(model, ls, lx0, horizon).measure
    return check_convergence(seq, lim, battery, tol)


# -- distance to deterministic relaxations ---------------------------------


def determinism_defect(mu: HybridMeasure) -> Number:
    """How far a measure on state x action is from having a deterministic
    action disintegration: the integral of (total action mass minus the
    largest single-action mass) over a common refinement of the state cells.
    Zero iff one action carries all the mass on every cell.  The cells of a
    segment are found by index on one integer grid, floats taken as the
    binary rationals they are, so a cell one ulp wide counts like any
    other.  While the sum is exact, a segment whose components are all in
    the measure's cell table is summed from the table, as integers
    (`_tabled_defect`)."""
    if not isinstance(mu.domain.actions, FiniteActions):
        raise MeasureError("determinism defect needs a finite action space")

    atom_cells: dict = {}
    seg_comps: dict = {}  # segment -> (index, component, its action parts)
    for i, c in enumerate(mu.components):
        if c.action is None:
            raise MeasureError("determinism defect needs action information")
        parts = (
            c.action.parts if isinstance(c.action, ActionMixture) else ((ONE, c.action),)
        )
        if not all(isinstance(part, ActionAtom) for _, part in parts):
            raise MeasureError("finite-action measures must mix atoms only")
        if isinstance(c.state, StateAtom):
            cell = atom_cells.setdefault(c.state.point, {})
            for w, part in parts:
                cell[part.action] = cell.get(part.action, ZERO) + c.weight * w
        elif parts:
            seg_comps.setdefault(c.state.segment, []).append((i, c, parts))

    defect = ZERO
    for cell in atom_cells.values():
        total = nsum(cell.values())
        top = max(cell.values(), key=lambda v: v.value)
        defect = defect + (total - top)

    table = _cell_table(mu) if seg_comps else None
    for segment, comps in seg_comps.items():
        if defect.is_exact and all(i in table.rows for i, _, _ in comps):
            defect = defect + Number(_tabled_defect(table, segment))
            continue
        pieces = [
            (c.state.breaks, c.state.heights, part.action, c.weight * w)
            for _, c, parts in comps
            for w, part in parts
        ]
        # Every cut, float or exact, is a rational n/m (a float a binary
        # one), so on the grid of 1/d, d the lcm of the m, each is the
        # integer n·d/m.  A cell of the common refinement is [cuts[j],
        # cuts[j + 1]), and the piece interval [a, b) holds the cells from
        # a's index to b's.  `value` maps each point to the first cut seen
        # there, which is written last in reversed order.
        ratios = [[b.as_integer_ratio() for b in breaks] for breaks, _, _, _ in pieces]
        d = math.lcm(*{m for r in ratios for _, m in r})
        ends = [[n * (d // m) for n, m in r] for r in ratios]
        value = dict(zip(
            reversed([n for grid in ends for n in grid]),
            reversed([b for breaks, _, _, _ in pieces for b in breaks]),
        ))
        cuts = sorted(value)
        pos = {n: i for i, n in enumerate(cuts)}
        cells = [{} for _ in cuts[1:]]
        for grid, (_, heights, action, weight) in zip(ends, pieces):
            for a, b, h in zip(grid, grid[1:], heights):
                mass = weight * h
                for per_action in cells[pos[a]:pos[b]]:
                    per_action[action] = per_action.get(action, ZERO) + mass
        for lo, hi, per_action in zip(cuts, cuts[1:], cells):
            if not per_action:
                continue
            total = nsum(per_action.values())
            top = max(per_action.values(), key=lambda v: v.value)
            a, b = value[lo], value[hi]
            if isinstance(a, float) or isinstance(b, float):
                length = Number.approx(b - a, 0.0)
            else:
                length = Number(Fraction(hi - lo, d))
            defect = defect + (total - top) * length
    return defect


def _tabled_defect(table, segment: str) -> Fraction:
    """The defect on one segment from the groups of a cell table, one group
    (d, q, cells) per action: every group on one grid, D and Q the lcm of
    the d and of the q, each action's mass on each cell of the common
    refinement an integer over Q, and Σ (total − top)·(hi − lo) one integer
    over Q·D."""
    groups = [group for (seg, _), group in table.groups.items() if seg == segment]
    D = math.lcm(*(d for d, _, _ in groups))
    Q = math.lcm(*(q for _, q, _ in groups))
    cuts = sorted({x * (D // d) for d, _, cells in groups for _, _, a, b in cells for x in (a, b)})
    pos = {x: j for j, x in enumerate(cuts)}
    rows = []
    for d, q, cells in groups:
        up, scale = D // d, Q // q
        row = [0] * (len(cuts) - 1)
        for _, p, a, b in cells:
            for j in range(pos[a * up], pos[b * up]):
                row[j] += p * scale
        rows.append(row)
    total = sum((sum(col) - max(col)) * (hi - lo) for col, lo, hi in zip(zip(*rows), cuts, cuts[1:]))
    return Fraction(total, Q * D)
