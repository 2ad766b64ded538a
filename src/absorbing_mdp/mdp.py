"""Transition kernels, models and strategies.

Kernels are built from three rule shapes:

* explicit per-(atom, action) probability rows over named atoms;
* an affine embedding of the chosen action into a target segment
  (next state = alpha * a + beta on that segment);
* a fixed, action-independent target distribution (atoms and/or
  piecewise-constant density pieces) attached to a region of states.

A model may declare a frontier: atoms where the kernel is intentionally
truncated.  Solvers treat mass flowing into the frontier as certified
residual rather than an error.

Strategies are finite sequences of stage kernels with a stationary tail;
each stage kernel maps states to action distributions by first-match rules,
including piecewise-constant selectors on segments.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .numbers import Number, ONE, _negative, nsum
from .measure import (
    ActionAtom,
    ActionDensity,
    ActionMixture,
    ActionPart,
    StateAtom,
    StateDensity,
    StatePart,
    TestFunction,
    MEASURABLE,
)
from .spaces import (
    ActionSpace,
    FiniteActions,
    IntervalActions,
    StatePoint,
    StateSpace,
)


class ModelError(ValueError):
    pass


# -- kernel rules ----------------------------------------------------------


@dataclass(frozen=True)
class FromRegion:
    """The states a rule applies to: a set of named atoms, or one segment."""

    atoms: tuple[str, ...] | None = None
    segment: str | None = None

    def __post_init__(self):
        if (self.atoms is None) == (self.segment is None):
            raise ModelError("a region is a tuple of atoms or a segment, pick one")

    def matches(self, point: StatePoint) -> bool:
        if self.atoms is not None:
            return point.atom in self.atoms
        return point.segment == self.segment

    def covers_segment(self, label: str) -> bool:
        return self.segment == label


@dataclass(frozen=True)
class ActionPushforward:
    """Next state is the affine image of the chosen action on a segment."""

    region: FromRegion
    segment: str
    alpha: Fraction | float = Fraction(1)
    beta: Fraction | float = Fraction(0)


@dataclass(frozen=True)
class FixedDiffuse:
    """Action-independent jump to a fixed sub-distribution of atoms and
    density pieces; the masses must sum to one."""

    region: FromRegion
    atom_probs: tuple = ()  # of (atom name, Number)
    pieces: tuple = ()  # of (segment label, breaks, heights)

    def target_mass(self) -> Number:
        from .measure import _pieces_mass

        total = nsum(p for _, p in self.atom_probs)
        for _, breaks, heights in self.pieces:
            total = total + _pieces_mass(breaks, heights)
        return total


KernelRule = ActionPushforward | FixedDiffuse


@dataclass(frozen=True)
class TransitionKernel:
    rows: tuple = ()  # of ((from atom, action name), ((next atom, Number), ...))
    rules: tuple[KernelRule, ...] = ()

    @cached_property
    def row_map(self) -> dict:
        out = {}
        for key, row in self.rows:
            if key in out:
                raise ModelError(f"duplicate kernel row for {key!r}")
            out[key] = row
        return out

    def row(self, atom: str, action: str):
        return self.row_map.get((atom, action))

    @cached_property
    def row_atoms(self) -> frozenset:
        return frozenset(atom for atom, _ in self.row_map)

    def has_row_for(self, atom: str) -> bool:
        return atom in self.row_atoms


@dataclass(frozen=True)
class MdpModel:
    name: str
    states: StateSpace
    actions: ActionSpace
    kernel: TransitionKernel
    condition_tags: frozenset[str] = frozenset()
    condition_note: str = ""
    frontier: frozenset[str] = frozenset()

    @cached_property
    def _diagnostics(self) -> tuple[str, ...]:
        """`validate_model`'s diagnostics, worked out once: a model does not
        change once validated.  A call that raises keeps nothing."""
        return tuple(_diagnose(self))

    @cached_property
    def _kept_rows(self) -> dict:
        """Atom name -> its checked kernel rows, filled by
        `occupation._rows_at` from the atom's resolved rule (for an atom
        point, `FromRegion.matches` reads only the name).  A refused or
        raising lookup keeps nothing, so it resolves again."""
        return {}


def resolve_rule(model: MdpModel, part: StatePart) -> KernelRule | str:
    """The governing rule for a state part: the literal string "table" for
    atoms with explicit rows, else the unique matching region rule."""
    kernel = model.kernel
    if isinstance(part, StateAtom):
        point = part.point
        if point.atom is not None and kernel.has_row_for(point.atom):
            return "table"
        for rule in kernel.rules:
            if rule.region.matches(point):
                return rule
        raise ModelError(f"no kernel rule covers {point!r}")
    for rule in kernel.rules:
        if rule.region.covers_segment(part.segment):
            return rule
    raise ModelError(f"no kernel rule covers segment {part.segment!r}")


# -- validation ------------------------------------------------------------


def _unit_diag(total: Number, where: str, what: str, diags: list) -> None:
    """Flag a total that is not 1: exactly, or beyond 1e-9 when inexact."""
    if total.is_exact:
        if total != ONE:
            diags.append(f"{where}: {what} {total.value}, not 1")
    elif not total.within(1, 1e-9):
        diags.append(f"{where}: {what} {float(total.value)}, not 1")


def _target_diags(pairs, atom_names, where: str, diags: list) -> None:
    """Flag the unknown atoms and negative probabilities of (target atom,
    probability) pairs."""
    for name, p in pairs:
        if name not in atom_names:
            diags.append(f"{where}: unknown target atom {name!r}")
        if _negative(p):
            diags.append(f"{where}: negative probability on {name!r}")


def validate_model(model: MdpModel) -> list[str]:
    """Structural diagnostics; an empty list means the model is well formed.

    They are worked out once per model object and kept with it, for as long
    as it lives; each call returns a fresh list of them.  A model must not
    change after its first validation: its fields, down to a kernel's rows
    and a rule's atoms, are tuples, frozensets and `Number`s, not lists."""
    return list(model._diagnostics)


def _diagnose(model: MdpModel) -> list[str]:
    diags: list[str] = []
    space, actions, kernel = model.states, model.actions, model.kernel
    atom_names = {a.name for a in space.atoms}
    segment_labels = {s.label for s in space.segments}

    for name in model.frontier:
        if name not in atom_names:
            diags.append(f"frontier: unknown atom {name!r}")
        elif name == space.cemetery:
            diags.append(f"frontier: the cemetery {name!r} is absorbing and cannot be a frontier atom")

    try:
        rows = kernel.row_map
    except ModelError as exc:
        return [str(exc)]

    for (src, act), row in rows.items():
        where = f"row ({src!r}, {act!r})"
        if src not in atom_names:
            diags.append(f"{where}: unknown source atom")
        if isinstance(actions, FiniteActions) and act not in actions.names:
            diags.append(f"{where}: unknown action")
        _target_diags(row, atom_names, where, diags)
        _unit_diag(nsum(p for _, p in row), where, "probabilities sum to", diags)

    for i, rule in enumerate(kernel.rules):
        where = f"rule[{i}]"
        region = rule.region
        if region.atoms is not None:
            for a in region.atoms:
                if a not in atom_names:
                    diags.append(f"{where}: unknown region atom {a!r}")
        elif region.segment not in segment_labels:
            diags.append(f"{where}: unknown region segment {region.segment!r}")
        if isinstance(rule, ActionPushforward):
            if not isinstance(actions, IntervalActions):
                diags.append(f"{where}: affine embedding needs interval actions")
            elif rule.segment not in segment_labels:
                diags.append(f"{where}: unknown target segment {rule.segment!r}")
            else:
                seg = space.segment_decl(rule.segment)
                imgs = (
                    rule.alpha * actions.lo + rule.beta,
                    rule.alpha * actions.hi + rule.beta,
                )
                if min(imgs) < seg.lo or max(imgs) > seg.hi:
                    diags.append(f"{where}: affine image escapes segment {rule.segment!r}")
        else:
            _target_diags(rule.atom_probs, atom_names, where, diags)
            for label, breaks, heights in rule.pieces:
                if any(map(_negative, heights)):
                    diags.append(f"{where}: negative probability on {label!r}")
                if label not in segment_labels:
                    diags.append(f"{where}: unknown target segment {label!r}")
                else:
                    seg = space.segment_decl(label)
                    if breaks[0] < seg.lo or breaks[-1] > seg.hi:
                        diags.append(f"{where}: density support escapes segment {label!r}")
            _unit_diag(rule.target_mass(), where, "target masses sum to", diags)

    # coverage and overlap
    tabled = {key[0] for key in rows}
    for a in sorted(atom_names - set(model.frontier)):
        point = space.point(a)
        matching = [i for i, r in enumerate(kernel.rules) if r.region.matches(point)]
        if a in tabled:
            if matching:
                diags.append(f"atom {a!r}: covered by both a table row and rule[{matching[0]}]")
            if isinstance(actions, FiniteActions):
                for act in actions.names:
                    if (a, act) not in rows:
                        diags.append(f"atom {a!r}: no row for action {act!r}")
        elif not matching:
            diags.append(f"atom {a!r}: no kernel rule covers it")
        elif len(matching) > 1:
            diags.append(f"atom {a!r}: rules {matching} overlap")
    for label in sorted(segment_labels):
        matching = [i for i, r in enumerate(kernel.rules) if r.region.covers_segment(label)]
        if len(matching) > 1:
            diags.append(f"segment {label!r}: rules {matching} overlap")

    diags.extend(_cemetery_diags(model))
    return diags


def _cemetery_diags(model: MdpModel) -> list[str]:
    cem = model.states.cemetery
    point = StatePoint(atom=cem)
    kernel = model.kernel
    if kernel.has_row_for(cem):
        if isinstance(model.actions, FiniteActions):
            for act in model.actions.names:
                row = kernel.row(cem, act)
                if row is None or dict(row).get(cem) != ONE:
                    return [f"cemetery {cem!r} must jump to itself surely (action {act!r})"]
            return []
        return [f"cemetery {cem!r}: rows need finite actions"]
    for rule in kernel.rules:
        if rule.region.matches(point):
            if isinstance(rule, FixedDiffuse) and dict(rule.atom_probs).get(cem) == ONE:
                return []
            return [f"cemetery {cem!r} must jump to itself surely"]
    return [f"cemetery {cem!r} has no kernel rule"]


# -- compactness-continuity check -----------------------------------------


@dataclass(frozen=True)
class ConditionCheck:
    status: str  # holds_trivially | holds | fails | unknown
    note: str = ""
    witness: TestFunction | None = None
    induced_map: Callable | None = None
    jump_at: Fraction | float | None = None


def check_condition_s(model: MdpModel) -> ConditionCheck:
    """Joint strong-continuity of the kernel in the action variable.

    Finite action spaces make it trivial.  A non-constant affine embedding
    of an interval action space refutes it: the indicator of a half-segment
    pulls back to a step in the action, and the constructed witness exhibits
    the jump.  Anything else is reported unknown.
    """
    if isinstance(model.actions, FiniteActions):
        return ConditionCheck("holds_trivially", "finite action space")
    for rule in model.kernel.rules:
        if isinstance(rule, ActionPushforward) and rule.alpha != 0:
            seg = model.states.segment_decl(rule.segment)
            cut = rule.alpha * (model.actions.lo + model.actions.hi) / 2 + rule.beta
            if not (seg.lo < cut < seg.hi):
                continue
            label = rule.segment

            def ev(p: StatePoint, _label=label, _cut=cut):
                if p.segment == _label and p.coord is not None:
                    return 1 if p.coord > _cut else 0
                return 0

            witness = TestFunction(
                name=f"above-{float(cut):g}-on-{label}",
                declared_class=MEASURABLE,
                evaluator=ev,
                bound=Fraction(1),
                arity="state",
            )
            jump = (cut - rule.beta) / rule.alpha

            def induced(a, _rule=rule, _cut=cut):
                img = _rule.alpha * a + _rule.beta
                return 1 if img > _cut else 0

            return ConditionCheck(
                "fails",
                f"affine embedding into {label!r} makes the half-segment indicator "
                f"pull back to a step at a = {jump}",
                witness=witness,
                induced_map=induced,
                jump_at=jump,
            )
    return ConditionCheck("unknown", "no refuting rule shape found; no general prover")


# -- strategies ------------------------------------------------------------


@dataclass(frozen=True)
class StrategyRule:
    """First-match rule: a region of states and the action distribution
    played there.  Region fields both None means match everything."""

    dist: ActionPart
    atoms: tuple[str, ...] | None = None
    segment: str | None = None

    def __post_init__(self):
        # the set `matches` looks a point's atom up in; a plain attribute
        # reads faster than a `cached_property`
        object.__setattr__(self, "_atom_set", frozenset(self.atoms or ()))

    def matches(self, point: StatePoint) -> bool:
        if self.atoms is None and self.segment is None:
            return True
        if self.atoms is not None and point.atom in self._atom_set:
            return True
        return self.segment is not None and point.segment == self.segment


@dataclass(frozen=True)
class SegmentSelector:
    """Deterministic piecewise-constant action choice on one segment."""

    segment: str
    breaks: tuple
    actions: tuple

    def __post_init__(self):
        if len(self.actions) != len(self.breaks) - 1:
            raise ModelError("need one action per selector cell")
        for a, b in zip(self.breaks, self.breaks[1:]):
            if not a < b:
                raise ModelError("selector breaks must increase strictly")

    @cached_property
    def _cell_atoms(self) -> tuple:
        """The ActionAtom of each cell, one object per action, so that the
        cells a split makes share it."""
        one = {a: ActionAtom(a) for a in self.actions}
        return tuple(one[a] for a in self.actions)

    @cached_property
    def _grid(self) -> tuple:
        """(d, ends, exact): the breaks on one integer grid, break n/m at
        n·(d/m), d the lcm of the m, a float taken as the binary rational it
        holds and an infinite end as None; exact when no break is a float."""
        xs = self.breaks
        ratios = [x.as_integer_ratio() if type(x) is not float or math.isfinite(x) else (None, 1) for x in xs]
        d = math.lcm(*{m for _, m in ratios})
        return d, [n if n is None else n * (d // m) for n, m in ratios], not any(isinstance(x, float) for x in xs)

    def action_at(self, coord):
        i = bisect.bisect_right(self.breaks, coord) - 1
        i = min(max(i, 0), len(self.actions) - 1)
        return self.actions[i]

    def matches(self, point: StatePoint) -> bool:
        return point.segment == self.segment


@dataclass(frozen=True)
class StageKernel:
    rules: tuple = ()  # of StrategyRule | SegmentSelector

    def dist_at(self, point: StatePoint) -> ActionPart:
        for rule in self.rules:
            if rule.matches(point):
                if isinstance(rule, SegmentSelector):
                    return ActionAtom(rule.action_at(point.coord))
                return rule.dist
        raise ModelError(f"stage kernel is silent at {point!r}")

    def split_density(self, density: StateDensity):
        """Cut a state density into cells on which the stage's action
        distribution is constant; returns (breaks, heights, dist) triples."""
        return self._cut(density)[1]

    def _cut(self, density: StateDensity):
        """(d, cells, cuts): the cells of `split_density` and, for a
        selector's cut, their ends on one integer grid (`_selector_split`)."""
        for rule in self.rules:
            if isinstance(rule, SegmentSelector) and rule.segment == density.segment:
                return _selector_split(rule, density)
            if isinstance(rule, StrategyRule) and rule.matches(
                StatePoint(segment=density.segment, coord=density.breaks[0])
            ):
                return None, [(density.breaks, density.heights, rule.dist)], None
        raise ModelError(f"stage kernel is silent on segment {density.segment!r}")


def _selector_split(sel: SegmentSelector, density: StateDensity):
    """(d, cells, cuts): the cells of `density` cut at every selector break
    strictly inside it, each with the height of its own piece and the shared
    atom of its own selector cell, clamped at the ends as `action_at`
    clamps, cell j spanning [cuts[j]/d, cuts[j + 1]/d].  The density's
    breaks join the selector's grid (`_grid`) and both are merged in one
    pass by integer comparison: a cell is never located by a computed
    point, so a float cell one ulp wide keeps its own piece.  d is None
    when a break is a float."""
    d, ys, exact = sel._grid
    ratios = [x.as_integer_ratio() for x in density.breaks]
    D = math.lcm(d, *{m for _, m in ratios})
    xs = [n * (D // m) for n, m in ratios]
    if D != d or ys[0] is None or ys[-1] is None:  # an infinite end lies past the density
        ys = [y * (D // d) if y is not None else xs[0] - 1 if j == 0 else xs[-1] + 1 for j, y in enumerate(ys)]
    breaks, atoms, top = sel.breaks, sel._cell_atoms, len(sel.actions) - 1
    lo, a = density.breaks[0], xs[0]
    k = bisect.bisect_right(ys, a)  # the selector breaks at or below lo

    def atom(k):  # the action of the selector cell that ends at ys[k]
        return atoms[min(max(k - 1, 0), top)]

    cells, cuts = [], [a]
    for hi, b, h in zip(density.breaks[1:], xs[1:], density.heights):
        while k < len(ys) and ys[k] < b:
            cells.append(((lo, breaks[k]), (h,), atom(k)))
            cuts.append(ys[k])
            lo = breaks[k]
            k += 1
        cells.append(((lo, hi), (h,), atom(k)))
        cuts.append(b)
        lo = hi
        if k < len(ys) and ys[k] == b:
            k += 1
    exact = exact and not any(isinstance(x, float) for x in density.breaks)
    return (D if exact else None), cells, cuts


@dataclass(frozen=True)
class Strategy:
    """Finitely many stage kernels; with a stationary tail the last stage
    repeats forever, otherwise play beyond the last stage is an error."""

    stages: tuple[StageKernel, ...]
    stationary_tail: bool = True

    def __post_init__(self):
        if not self.stages:
            raise ModelError("a strategy needs at least one stage")

    def stage(self, t: int) -> StageKernel:
        if t < len(self.stages):
            return self.stages[t]
        if self.stationary_tail:
            return self.stages[-1]
        raise ModelError(f"no stage kernel for time {t}")


def _as_dist(a) -> ActionPart:
    if isinstance(a, (ActionAtom, ActionDensity, ActionMixture)):
        return a
    return ActionAtom(a)


def deterministic_stationary(atom_actions: dict | None = None, default=None) -> Strategy:
    """Stationary strategy from an atom -> action map and an optional
    catch-all action."""
    rules: list = []
    if atom_actions:
        for name in atom_actions:
            rules.append(StrategyRule(dist=_as_dist(atom_actions[name]), atoms=(name,)))
    if default is not None:
        rules.append(StrategyRule(dist=_as_dist(default)))
    return Strategy(stages=(StageKernel(tuple(rules)),))


def markov_sequence(stages, stationary_tail: bool = True) -> Strategy:
    return Strategy(stages=tuple(stages), stationary_tail=stationary_tail)


def validate_strategy(model: MdpModel, strategy: Strategy) -> list[str]:
    """Check every stage rule's action distribution has exact unit mass and
    lives inside the model's action space."""
    diags = []
    for t, stage in enumerate(strategy.stages):
        for i, rule in enumerate(stage.rules):
            where = f"stage[{t}].rule[{i}]"
            if isinstance(rule, SegmentSelector):
                for a in rule.actions:
                    _action_value_diags(model, a, where, diags)
                continue
            if not isinstance(rule.dist, (ActionAtom, ActionDensity, ActionMixture)):
                diags.append(f"{where}: no action distribution, got {rule.dist!r}")
                continue
            _unit_diag(rule.dist.mass(), where, "action mass", diags)
            _action_part_diags(model, rule.dist, where, diags)
    return diags


def _action_value_diags(model: MdpModel, a, where: str, diags: list) -> None:
    acts = model.actions
    if isinstance(acts, FiniteActions):
        if a not in acts.names:
            diags.append(f"{where}: unknown action {a!r}")
    elif isinstance(a, (int, Fraction, float)):
        if not (acts.lo <= a <= acts.hi):
            diags.append(f"{where}: action {a} outside [{acts.lo}, {acts.hi}]")
    else:
        diags.append(f"{where}: interval actions need numeric values, got {a!r}")


def _action_part_diags(model: MdpModel, dist, where: str, diags: list) -> None:
    if isinstance(dist, ActionAtom):
        _action_value_diags(model, dist.action, where, diags)
    elif isinstance(dist, ActionDensity):
        if isinstance(model.actions, FiniteActions):
            diags.append(f"{where}: action density over a finite action space")
        elif not (model.actions.lo <= dist.breaks[0] and dist.breaks[-1] <= model.actions.hi):
            diags.append(f"{where}: action density leaves the action interval")
    elif isinstance(dist, ActionMixture):
        for _, part in dist.parts:
            _action_part_diags(model, part, where, diags)


@dataclass(frozen=True)
class StrategyFamily:
    """A labeled finite list of named strategies, optionally generated from
    an integer range."""

    label: str
    members: tuple = ()  # of (name, Strategy)
    index_lo: int | None = None
    index_hi: int | None = None
    generator: Callable[[int], Strategy] | None = None

    def explored(self) -> list[tuple[str, Strategy]]:
        out = list(self.members)
        if self.generator is not None:
            if self.index_lo is None or self.index_hi is None:
                raise ModelError(f"family {self.label!r}: generator without a range")
            for i in range(self.index_lo, self.index_hi + 1):
                out.append((f"{self.label}:{i}", self.generator(i)))
        return out
