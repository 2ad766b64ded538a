"""Hybrid measures on state x action products, and test functions.

A measure is a finite list of product components: a state part (an atom or a
piecewise-constant density on one segment) tensored with an action part (an
atom, a piecewise-constant density, or a finite mixture of those), carried
with a nonnegative weight.  Components with no action part represent
measures on the state space alone (marginals).

Integration is exact whenever the component is purely atomic, or the test
function carries a structured form (a sum of tensor-product terms with
piecewise-polynomial factors) covering the parts involved.  Everything else
falls back to adaptive quadrature with an estimated error: G7-K15 for
functions declared `CONTINUOUS`, Simpson for the rest.

`integrate` makes one pass over the measure's components, in order.  Each
component's share is one of three kinds:

* a state atom under no action part (for a state-only function) or an
  action atom: the function is evaluated there once, and an int or
  Fraction value times an exact weight is kept as an integer (numerator,
  denominator) pair;
* an exact state density (weight, heights, breaks and mixture weights
  rational, action atoms or mixtures of atoms) against a structured
  function whose polynomials and action values there are exact: its cells
  join the groups of one (segment, action), or of one segment for a
  state-only function, and each group is integrated against each
  polynomial piece at once, each of its moments one more integer pair.
  The coverage and range checks run, and raise, where the per-component
  route would;
* anything else: the per-component route, `_component_integral`.

While every share is exact, the shares and the cell moments are summed
once at the end, by `numbers._exact_sum` (one unreduced sum, reduced
once), the one place where exact shares meet.
At the first inexact share the exact sum so far becomes one Number, and
every later share is added to it as a Number, in order, so that float
results keep the bits, and errors the order, of the plain loop over
components.
No function value is evaluated twice.

Each component gets tol / (number of components).  A quadrature whose
result is multiplied by a weight above 1 (the component's, a mixture
part's, or the action mass under a state-only function) gets that share
divided by the weight, so that the err stays within tol.

The grouping depends on the measure alone: which components are exact
state densities, and their cells by group as integers over per-group
denominators, are tabled once per measure (`_CellTable`), or handed over
by `occupation_unroll`, which cut them.  Each pass then runs the
function's checks on each tabled component as it reaches it, and adds the
moments of the cells of the components it took to the exact sum
(`_CellPass`).  Once the checks of every (segment, actions) of a run of
consecutive tabled components have passed without a range check, the rest
of the run is taken in one step.

`integrate` keeps each result under (function, tolerance) for as long as
the measure lives (`memo.remembered`, owned by the measure): a second call
with the same measure, function object and tolerance returns the same
Number without evaluating anything.  The cell table is kept the same
way.  The memo keeps neither the function nor anything the function
refers to alive, and nothing is stored on the measure itself.  Errors are
not kept: a call that raised raises again on every call.

The cell table is the one integer form of a measure's exact cells:
`integrate`, `HybridMeasure.total_mass` and `topology.determinism_defect`
all read it.  An exact atom term whose value is 0 is skipped, and
`_exact_sum` (in `numbers`) drops zero numerators, so a zero never widens
the common denominator.

A measure the user builds is checked component by component
(`HybridMeasure.__post_init__`).  The cells `occupation_unroll` cuts from
a checked density, the measure it merges them into, and the merge
`marginal_state` makes of a measure, and the countable solver's measure,
are built by `_trusted`, which skips the checks.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .memo import remembered
from .numbers import Number, ZERO, ONE, _add_product, _approx, _exact_sum, _negative, nsum
from .quadrature import adaptive_quadrature, kronrod_quadrature, QuadratureError
from .spaces import (
    ActionSpace,
    FiniteActions,
    IntervalActions,
    StatePoint,
    StateSpace,
    _segment_point,
)

DEFAULT_INTEGRATE_TOL = 1e-12

ActionValue = str | Fraction | float


class MeasureError(ValueError):
    pass


class CoverageError(KeyError):
    """A structured form was asked about a point it does not cover."""


def _wrap_value(v) -> Number:
    if isinstance(v, Number):
        return v
    if isinstance(v, (int, Fraction)):
        return Number.lift(v)
    if isinstance(v, float):
        return Number.approx(v, 0.0)
    raise TypeError(f"evaluator returned {type(v).__name__}")


def _check_pieces(breaks, heights, where: str):
    if len(breaks) != len(heights) + 1:
        raise MeasureError(f"{where}: need len(breaks) == len(heights) + 1")
    for a, b in zip(breaks, breaks[1:]):
        if not a < b:
            raise MeasureError(f"{where}: breaks must increase strictly")
    for h in heights:
        if not isinstance(h, Number):
            raise MeasureError(f"{where}: heights must be Numbers")
        if _negative(h):
            raise MeasureError(f"{where}: negative height")


def _pieces_mass(breaks, heights) -> Number:
    total = ZERO
    for a, b, h in zip(breaks, breaks[1:], heights):
        # positions denote themselves: float coords carry no uncertainty
        total = total + h * (_wrap_value(b) - _wrap_value(a))
    return total


# -- measure parts ---------------------------------------------------------


@dataclass(frozen=True)
class StateAtom:
    """Unit point mass at a state."""

    point: StatePoint

    def mass(self) -> Number:
        return ONE


@dataclass(frozen=True)
class StateDensity:
    """Piecewise-constant density on part of one segment."""

    segment: str
    breaks: tuple
    heights: tuple

    def __post_init__(self):
        _check_pieces(self.breaks, self.heights, f"density on {self.segment!r}")

    def mass(self) -> Number:
        return _pieces_mass(self.breaks, self.heights)


StatePart = StateAtom | StateDensity


@dataclass(frozen=True)
class ActionAtom:
    action: ActionValue

    def mass(self) -> Number:
        return ONE


@dataclass(frozen=True)
class ActionDensity:
    breaks: tuple
    heights: tuple

    def __post_init__(self):
        _check_pieces(self.breaks, self.heights, "action density")

    def mass(self) -> Number:
        return _pieces_mass(self.breaks, self.heights)


@dataclass(frozen=True)
class ActionMixture:
    """Weighted finite mixture of atoms and densities (not nested)."""

    parts: tuple  # of (Number weight, ActionAtom | ActionDensity)

    def __post_init__(self):
        for w, p in self.parts:
            if not isinstance(w, Number):
                raise MeasureError("mixture weights must be Numbers")
            if not isinstance(p, (ActionAtom, ActionDensity)):
                raise MeasureError("mixture parts must be atoms or densities")

    def mass(self) -> Number:
        return nsum(w * p.mass() for w, p in self.parts)


ActionPart = ActionAtom | ActionDensity | ActionMixture


def action_mass(part: ActionPart | None) -> Number:
    return ONE if part is None else part.mass()


# -- measures --------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    states: StateSpace
    actions: ActionSpace


@dataclass(frozen=True)
class MeasureComponent:
    state: StatePart
    action: ActionPart | None
    weight: Number

    def mass(self) -> Number:
        return self.weight * self.state.mass() * action_mass(self.action)


@dataclass(frozen=True)
class HybridMeasure:
    domain: Domain
    components: tuple[MeasureComponent, ...] = ()

    def __post_init__(self):
        for c in self.components:
            _validate_weight(c.weight, "component")
            _validate_state(self.domain.states, c.state)
            _validate_action(self.domain.actions, c.action)

    def total_mass(self) -> Number:
        """Σ c.mass().  With every weight exact, the masses are summed as
        integers by `_exact_sum`: an atom's under an action atom or none is
        its weight, and with a state density the cells of the cell table
        (`_CellTable`) add Σ p·(b − a) over q·d per group.  With any
        inexact component, in order by `nsum`, so that float results keep
        their bits."""
        comps = self.components
        if not all(type(c.weight.value) is Fraction for c in comps):
            return nsum(c.mass() for c in comps)
        table = _cell_table(self)
        terms = []
        for i, c in enumerate(comps):
            if i not in table.rows:
                a = c.action
                atom = type(c.state) is StateAtom and (a is None or type(a) is ActionAtom)
                m = c.weight.value if atom else c.mass().value
                if type(m) is not Fraction:
                    return nsum(c.mass() for c in comps)
                terms.append((m.numerator, m.denominator))
        for d, q, cells in table.groups.values():
            terms.append((sum(p * (b - a) for _, p, a, b in cells), q * d))
        return Number(_exact_sum(terms))


_new = object.__new__


def _trusted(cls, **fields):
    """Trusted constructor of the frozen dataclass `cls`, for parts the
    library derives from parts already checked: it skips `__post_init__`,
    as `spaces._segment_point` does.  The object compares and hashes equal
    to `cls(**fields)`."""
    obj = _new(cls)
    obj.__dict__.update(fields)
    return obj


def _validate_weight(w: Number, where: str):
    if not isinstance(w, Number):
        raise MeasureError(f"{where}: weight must be a Number")
    if _negative(w):
        raise MeasureError(f"{where}: negative weight")


def _validate_state(space: StateSpace, s: StatePart):
    if isinstance(s, StateAtom):
        p = s.point
        if p.atom is not None:
            space.atom_decl(p.atom)
        else:
            seg = space.segment_decl(p.segment)
            if not (seg.lo <= p.coord <= seg.hi):
                raise MeasureError(f"point coordinate {p.coord} outside {p.segment!r}")
    elif isinstance(s, StateDensity):
        seg = space.segment_decl(s.segment)
        if not (seg.lo <= s.breaks[0] and s.breaks[-1] <= seg.hi):
            raise MeasureError(f"density support outside segment {s.segment!r}")
    else:
        raise MeasureError(f"bad state part {s!r}")


def _validate_action(actions: ActionSpace, a: ActionPart | None):
    if a is None:
        return
    parts = a.parts if isinstance(a, ActionMixture) else ((ONE, a),)
    for w, part in parts:
        _validate_weight(w, "mixture part")
        if isinstance(part, ActionAtom):
            _validate_action_value(actions, part.action)
        elif isinstance(part, ActionDensity):
            if not isinstance(actions, IntervalActions):
                raise MeasureError("action densities need an interval action space")
            if not (actions.lo <= part.breaks[0] and part.breaks[-1] <= actions.hi):
                raise MeasureError("action density support outside the action interval")


def _validate_action_value(actions: ActionSpace, a: ActionValue):
    if isinstance(actions, FiniteActions):
        if a not in actions.names:
            raise MeasureError(f"unknown action {a!r}")
    else:
        if isinstance(a, str):
            raise MeasureError("interval actions are coordinates, not names")
        if not (actions.lo <= a <= actions.hi):
            raise MeasureError(f"action coordinate {a} outside the interval")


def add(mu: HybridMeasure, nu: HybridMeasure) -> HybridMeasure:
    if mu.domain != nu.domain:
        raise MeasureError("cannot add measures on different domains")
    return HybridMeasure(mu.domain, mu.components + nu.components)


def scale(mu: HybridMeasure, c) -> HybridMeasure:
    c = Number.lift(c)
    _validate_weight(c, "scale factor")
    return HybridMeasure(
        mu.domain,
        tuple(MeasureComponent(k.state, k.action, k.weight * c) for k in mu.components),
    )


def total_mass(mu: HybridMeasure) -> Number:
    return mu.total_mass()


def marginal_state(mu: HybridMeasure) -> HybridMeasure:
    """Project onto the state space, merging equal state parts.

    An exact marginal whose state parts are all distinct is its own
    projection and is returned as is.  A float weight is still multiplied
    by the action mass 1, which adds rounding slop to its err.  The merged
    measure's states are `mu`'s and its weights are products and sums of
    nonnegative parts, so it is built by `_trusted`.

    State parts are told apart by `_name_key` first; only when two unequal
    parts share a name are the parts themselves compared."""
    comps = mu.components
    if all(c.action is None and c.weight.is_exact for c in comps) and (
        len({_name_key(c.state) for c in comps}) == len(comps)
        or len({c.state for c in comps}) == len(comps)
    ):
        return mu
    merged = _merged(comps, _name_key)
    if merged is None:
        merged = _merged(comps, lambda s: s)
    comps = tuple(MeasureComponent(s, None, w) for s, w in merged)
    return _trusted(HybridMeasure, domain=mu.domain, components=comps)


def _name_key(s: StatePart):
    """An atom point's name, else the part itself.  Equal parts have equal
    keys and distinct names make distinct parts; a name hashes far faster
    than a point with a Fraction coordinate.  Validation does not tie an
    atom point's coord to its declaration, so unequal parts may share it."""
    if type(s) is StateAtom and s.point.atom is not None:
        return s.point.atom
    return s


def _merged(comps, key):
    """[state part, Σ weight × action mass] per distinct state part, in
    first-seen order and summed in order; None when two unequal parts
    share a key."""
    merged: dict = {}
    for c in comps:
        s = c.state
        w, m = c.weight, action_mass(c.action)
        if m is not ONE or type(w.value) is not Fraction:  # an exact w * ONE is w
            w = w * m
        k = key(s)
        entry = merged.get(k)
        if entry is None:
            merged[k] = [s, w]
        elif entry[0] == s:
            entry[1] = entry[1] + w
        else:
            return None
    return merged.values()


class PushforwardError(MeasureError):
    pass


def pushforward_affine(
    space: StateSpace,
    part: ActionPart,
    *,
    segment: str,
    alpha=Fraction(1),
    beta=Fraction(0),
) -> list[tuple[StatePart, Number]]:
    """Image of an action measure under a |-> alpha*a + beta into a segment.
    Mass is preserved exactly."""
    seg = space.segment_decl(segment)

    def land(coord):
        if not (seg.lo <= coord <= seg.hi):
            raise PushforwardError(f"image {coord} escapes segment {segment!r}")
        return coord

    out: list[tuple[StatePart, Number]] = []

    def emit(p: ActionAtom | ActionDensity, w: Number):
        if isinstance(p, ActionAtom):
            if isinstance(p.action, str):
                raise PushforwardError("cannot embed a named action by an affine map")
            out.append((StateAtom(StatePoint(segment=segment, coord=land(alpha * p.action + beta))), w))
            return
        if alpha == 0:
            out.append((StateAtom(StatePoint(segment=segment, coord=land(beta))), w * p.mass()))
            return
        breaks = tuple(alpha * b + beta for b in p.breaks)
        heights = tuple(h / Number.lift(abs(alpha)) for h in p.heights)
        if alpha < 0:
            breaks = tuple(reversed(breaks))
            heights = tuple(reversed(heights))
        land(breaks[0]), land(breaks[-1])
        out.append((StateDensity(segment, breaks, heights), w))

    if isinstance(part, ActionMixture):
        for w, p in part.parts:
            emit(p, w)
    else:
        emit(part, ONE)
    return out


# -- test functions --------------------------------------------------------

CONTINUOUS = "continuous"
CARATHEODORY = "caratheodory"
MEASURABLE = "measurable"
_CLASSES = (CONTINUOUS, CARATHEODORY, MEASURABLE)


class BoundViolation(MeasureError):
    pass


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial on [breaks[0], breaks[-1]] with optional explicit
    values at the break coordinates (for genuinely discontinuous functions)."""

    breaks: tuple
    coeffs: tuple  # per piece, ascending powers
    knots: tuple | None = None

    def __post_init__(self):
        if len(self.coeffs) != len(self.breaks) - 1:
            raise MeasureError("need one coefficient row per piece")
        for a, b in zip(self.breaks, self.breaks[1:]):
            if not a < b:
                raise MeasureError("breaks must increase strictly")
        if self.knots is not None and len(self.knots) != len(self.breaks):
            raise MeasureError("need one knot value per break")

    def _piece_eval(self, i: int, x):
        acc = 0
        for c in reversed(self.coeffs[i]):
            acc = acc * x + c
        return acc

    def value_at(self, x):
        if x < self.breaks[0] or x > self.breaks[-1]:
            raise CoverageError(f"{x} outside piecewise range")
        if self.knots is not None:
            for b, k in zip(self.breaks, self.knots):
                if x == b:
                    return k
        i = bisect.bisect_right(self.breaks, x) - 1
        i = min(max(i, 0), len(self.coeffs) - 1)
        return self._piece_eval(i, x)

    def integral(self, lo, hi):
        """Exact integral over [lo, hi] within the covered range."""
        if lo > hi:
            raise MeasureError("need lo <= hi")
        if lo < self.breaks[0] or hi > self.breaks[-1]:
            raise CoverageError("integration range escapes the piecewise range")
        breaks = self.breaks
        total = 0
        # pieces before the one holding lo, and from the first break at or
        # past hi on, do not overlap [lo, hi]
        for i in range(max(bisect.bisect_right(breaks, lo) - 1, 0), len(self.coeffs)):
            a, b = breaks[i], breaks[i + 1]
            if a >= hi:
                break
            x0, x1 = max(a, lo), min(b, hi)
            if not x0 < x1:
                continue
            # an exact zero coefficient adds an exact zero between exact
            # limits; between float limits it adds 0.0, which can decide the
            # sign or type of the sum, so it is only skipped between exact ones
            exact = not (isinstance(x0, float) or isinstance(x1, float))
            for j, c in enumerate(self.coeffs[i]):
                if exact and isinstance(c, (int, Fraction)) and c == 0:
                    continue
                if isinstance(c, int):
                    c = Fraction(c)
                total = total + c * (x1 ** (j + 1) - x0 ** (j + 1)) / (j + 1)
        return total

    def integral_against(self, breaks, heights) -> Number:
        total = ZERO
        for a, b, h in zip(breaks, breaks[1:], heights):
            total = total + h * _wrap_value(self.integral(a, b))
        return total


def const_poly(value, lo=Fraction(0), hi=Fraction(1)) -> PiecewisePoly:
    return PiecewisePoly((lo, hi), ((value,),))


@dataclass(frozen=True)
class StateFactor:
    """State side of a structured term: one polynomial per covered segment
    plus explicit values at covered atoms."""

    segment_polys: tuple = ()  # of (label, PiecewisePoly)
    atom_values: tuple = ()  # of (name, value)

    def poly_for(self, label: str) -> PiecewisePoly:
        for lbl, p in self.segment_polys:
            if lbl == label:
                return p
        raise CoverageError(f"no structured factor for segment {label!r}")

    def value_at(self, point: StatePoint):
        if point.atom is not None:
            for name, v in self.atom_values:
                if name == point.atom:
                    return v
            raise CoverageError(f"no structured value for atom {point.atom!r}")
        return self.poly_for(point.segment).value_at(point.coord)

    def integral_against(self, density: StateDensity) -> Number:
        return self.poly_for(density.segment).integral_against(density.breaks, density.heights)


@dataclass(frozen=True)
class ActionFactor:
    """Action side of a structured term: a polynomial on the action interval,
    or a value table over named actions, or a constant."""

    poly: PiecewisePoly | None = None
    table: tuple = ()  # of (name, value)
    const: object = None

    def value_at(self, action: ActionValue):
        if self.const is not None:
            return self.const
        if isinstance(action, str):
            for name, v in self.table:
                if name == action:
                    return v
            raise CoverageError(f"no structured value for action {action!r}")
        if self.poly is None:
            raise CoverageError("no structured polynomial for interval actions")
        return self.poly.value_at(action)

    def integral_against(self, density: ActionDensity) -> Number:
        if self.const is not None:
            return density.mass() * _wrap_value(self.const)
        if self.poly is None:
            raise CoverageError("no structured polynomial for interval actions")
        return self.poly.integral_against(density.breaks, density.heights)


@dataclass(frozen=True)
class TestFunction:
    """Bounded test integrand with a declared regularity class.

    `evaluator` is the function itself; `structured`, when present, is an
    exactly integrable representation that must agree with the evaluator
    (sum of StateFactor x ActionFactor terms, or a single StateFactor for
    state-only functions).
    """

    __test__ = False  # keep pytest from collecting this as a test class

    name: str
    declared_class: str
    evaluator: Callable
    bound: Fraction | float = Fraction(1)
    arity: str = "state_action"
    structured: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.declared_class not in _CLASSES:
            raise MeasureError(f"unknown class {self.declared_class!r}")
        if self.arity not in ("state", "state_action"):
            raise MeasureError(f"unknown arity {self.arity!r}")
        if self.bound < 0:
            raise MeasureError("bound must be nonnegative")
        # the largest |value| an error-free sample may take
        object.__setattr__(self, "_limit", float(self.bound) + 1e-12)

    def evaluate(self, point: StatePoint, action: ActionValue | None = None) -> Number:
        if self.arity == "state":
            raw = self.evaluator(point)
        else:
            if action is None:
                raise MeasureError(f"{self.name!r} needs an action argument")
            raw = self.evaluator(point, action)
        return self._checked(raw)

    def sample(self, point: StatePoint, action: ActionValue | None = None) -> float:
        """`float(self.evaluate(point, action).value)`, with the same checks
        and errors, but a plain float sample is checked without boxing it."""
        if self.arity == "state":
            raw = self.evaluator(point)
        else:
            if action is None:
                raise MeasureError(f"{self.name!r} needs an action argument")
            raw = self.evaluator(point, action)
        # false for NaN and +-inf too
        if type(raw) is float and -self._limit <= raw <= self._limit:
            return raw
        return self._sampled(raw)

    def _sampled(self, raw) -> float:
        """`sample`'s checks of a raw value, for any but a float within the
        bound (which `sample` and `_sampler` return at once)."""
        if type(raw) is not float:
            return float(self._checked(raw).value)
        if not math.isfinite(raw):
            raise ValueError(f"non-finite value {raw!r}")
        if abs(raw) > self._limit:
            raise BoundViolation(f"{self.name!r} evaluated to {raw} beyond bound {self.bound}")
        return raw

    def _checked(self, raw) -> Number:
        """`raw` as a Number, refused when |value| exceeds the bound by more
        than its err (and 1e-12)."""
        # _wrap_value's dispatch, inline: this runs on every value that is
        # not an int or a Fraction that integrate takes at an atom, and on
        # every evaluate call, and a call to it would add a frame to each
        if isinstance(raw, Number):
            v = raw
        elif isinstance(raw, (int, Fraction)):
            v = Number.lift(raw)
        elif isinstance(raw, float):
            v = Number.approx(raw, 0.0)
        else:
            raise TypeError(f"evaluator returned {type(raw).__name__}")
        err = v.err
        limit = float(self.bound) + (float(err) + 1e-12) if err else self._limit
        if abs(float(v.value)) > limit:
            raise BoundViolation(
                f"{self.name!r} evaluated to {float(v.value)} beyond bound {self.bound}"
            )
        return v


def structured_state_function(name, declared_class, factor: StateFactor, bound) -> TestFunction:
    """State-only test function whose evaluator is the structured form itself."""
    return TestFunction(
        name=name,
        declared_class=declared_class,
        evaluator=lambda p: factor.value_at(p),
        bound=bound,
        arity="state",
        structured=(factor,),
    )


def structured_joint_function(name, declared_class, terms, bound) -> TestFunction:
    """Joint test function evaluated through its tensor-product terms."""
    terms = tuple(terms)

    def ev(p, a):
        acc = 0
        for sf, af in terms:
            acc = acc + sf.value_at(p) * af.value_at(a)
        return acc

    return TestFunction(
        name=name,
        declared_class=declared_class,
        evaluator=ev,
        bound=bound,
        arity="state_action",
        structured=terms,
    )


# -- integration -----------------------------------------------------------


class IntegrationError(Exception):
    def __init__(self, message, value=None, err=None):
        super().__init__(message)
        self.value = value
        self.err = err


# id(mu) -> {(id(g), tol): ((weak reference to g,), integral)}; see `memo`.
# A strong reference would keep alive a mu that g's evaluator refers to.
_MEMO: dict[int, dict] = {}


def integrate(mu: HybridMeasure, g: TestFunction, tol: float = DEFAULT_INTEGRATE_TOL) -> Number:
    """Integral of g against mu.  The result's err is zero on fully exact
    paths.  Where quadrature was involved it holds the rules' error
    estimates, which the tolerance split keeps near tol, and is not a
    certified bound (see `quadrature`).  Each (mu, g, tol) is integrated
    once while mu lives; an error is raised again on every call."""
    return remembered(_MEMO, mu, (g,), (tol,), lambda: _integral(mu, g, tol))


def _integral(mu: HybridMeasure, g: TestFunction, tol: float) -> Number:
    """One pass over mu's components, in order; see the module docstring."""
    comps = mu.components
    if not comps:
        return ZERO
    share = tol / len(comps)
    joint = g.arity != "state"
    ev = g.evaluator
    cells = _CellPass(mu, g) if g.structured else None
    terms = []  # (numerator, denominator) of each exact share
    rest = None  # the components past the first inexact share
    i = 0
    while i < len(comps):
        c = comps[i]
        s, a = c.state, c.action
        i += 1
        if type(s) is StateAtom and (type(a) is ActionAtom or a is None and not joint):
            w = c.weight.value
            t = _checked_term(g, ev(s.point, a.action) if joint else ev(s.point))
            if type(t) is tuple and type(w) is Fraction:
                if t[0]:
                    terms.append((w._numerator * t[0], w._denominator * t[1]))
                continue
            v = Number(Fraction(*t)) if type(t) is tuple else t
            # c's share as _component_integral computes it from v
            r = c.weight * (ZERO + ONE * v) if joint else c.weight * v * ONE
        elif type(s) is StateDensity and cells is not None and (taken := cells.take(i - 1)):
            i = taken
            continue
        else:
            r = _component_integral(c, g, share)
        if r.is_exact:
            terms.append((r.value.numerator, r.value.denominator))
            continue
        rest = comps[i:]
        break
    if cells is not None:
        cells.shares(terms)
    total = _exact_sum(terms)
    if rest is None:
        return Number(total)
    total = Number(total) + r
    for c in rest:
        total = total + _component_integral(c, g, share)
    return total


def _checked_term(g: TestFunction, raw) -> tuple[int, int] | Number:
    """A value g's evaluator returned, checked as `g._checked` checks it:
    an int or a Fraction as (numerator, denominator), without boxing it;
    anything else as `g._checked(raw)`.  The errors are `g._checked`'s."""
    t = type(raw)
    if t is int:
        n, d = raw, 1
    elif t is Fraction:
        n, d = raw._numerator, raw._denominator
    else:
        return g._checked(raw)
    try:
        inside = abs(n / d) <= g._limit
    except OverflowError:
        inside = False
    if not inside:
        g._checked(raw)
    return n, d


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def _exact_poly(poly: PiecewisePoly) -> bool:
    return all(map(_is_exact, poly.breaks)) and all(_is_exact(c) for row in poly.coeffs for c in row)


# id(mu) -> {(): ((), the _CellTable of mu)}; see `memo`.
_TABLES: dict[int, dict] = {}


class _CellTable:
    """The measure side of the grouped pass: which components are exact
    state densities (weight, heights and breaks rational) under an action
    part of rational mass, and their cells, grouped by (segment, action).
    Under action atoms, or a mixture of them, each atom's cells carry its
    weight and group under its action; under any other action part, or
    none, the cells carry the part's mass and group under action None.  A
    joint g reads the atom groups, a state-only g every group of the
    segment.  `HybridMeasure.total_mass` and `topology.determinism_defect`
    read the same table.  `occupation_unroll` hands the measures it builds
    this table, built from its cuts (groups equal as rationals).

    `rows[i]` is ((segment, actions), lo, hi) for such a component i, lo
    and hi the ends of its density, actions None for a component under
    action None.  `groups[key]` is (d, q, cells): each cell (i, p, a, b) of
    component i is [a/d, b/d] carrying weight times height p/q, with d and
    q common to the group.
    """

    def __init__(self, mu: HybridMeasure):
        self.rows: dict = {}
        found: dict = {}  # key -> [(i, lo, hi, weight, height)]
        for i, c in enumerate(mu.components):
            s, a, w = c.state, c.action, c.weight.value
            if type(s) is not StateDensity or type(w) is not Fraction:
                continue
            if not all(type(h.value) is Fraction for h in s.heights) or not all(map(_is_exact, s.breaks)):
                continue
            parts = a.parts if type(a) is ActionMixture else ((ONE, a),)
            if all(type(p) is ActionAtom and type(pw.value) is Fraction for pw, p in parts):
                actions = tuple(p.action for _, p in parts)
            else:
                parts = ((action_mass(a), None),)
                if type(parts[0][0].value) is not Fraction:
                    continue
                actions = None
            self.rows[i] = ((s.segment, actions), s.breaks[0], s.breaks[-1])
            for pw, p in parts:
                weight = w if pw is ONE else w * pw.value
                cells = found.setdefault((s.segment, None if p is None else p.action), [])
                for lo, hi, h in zip(s.breaks, s.breaks[1:], s.heights):
                    cells.append((i, lo, hi, weight, h.value))
        self.groups = {key: _as_ints(cells) for key, cells in found.items()}

    @cached_property
    def runs(self) -> dict:
        """i -> [end, keys] for the run of consecutive tabled components
        i..end-1 that holds i, keys their (segment, actions)."""
        runs: dict = {}
        for i, (key, _, _) in self.rows.items():
            run = runs[i] = runs.get(i - 1) or [0, set()]
            run[0] = i + 1
            run[1].add(key)
        return runs


def _cell_table(mu: HybridMeasure) -> _CellTable:
    """mu's cell table, built once while mu lives."""
    return remembered(_TABLES, mu, (), (), lambda: _CellTable(mu))


def _as_ints(cells):
    """(d, q, [(i, p, a, b)]) for exact cells (i, lo, hi, w, h): lo = a/d,
    hi = b/d and w·h = p/q over common denominators d and q."""
    d = math.lcm(*{cell[1].denominator for cell in cells}, *{cell[2].denominator for cell in cells})
    q = math.lcm(*{w.denominator * h.denominator for _, _, _, w, h in cells})
    return d, q, [
        (i, w.numerator * h.numerator * (q // (w.denominator * h.denominator)),
         lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator))
        for i, lo, hi, w, h in cells
    ]


class _CellPass:
    """The function side of the grouped pass: `take(i)` returns the index
    past the tabled components from i on that go to the grouped sum, or 0
    when i does not: the rest of i's run (`_CellTable.runs`) when the
    checks of its every key are settled and passed, else i alone after the
    coverage and range checks of `_component_integral`, run in its order
    and raising its errors; `shares(terms)` integrates the cells of the
    components taken, each group against each term's polynomial at once
    (`_cells_integral`), times the term's action factor, and appends each
    moment to the (numerator, denominator) pairs that `_exact_sum` adds up
    with the other exact shares."""

    def __init__(self, mu: HybridMeasure, g: TestFunction):
        self.mu = mu
        self.table = None  # mu's _CellTable, fetched at the first state density
        self.joint = g.arity != "state"
        self.terms = g.structured if self.joint else ((g.structured[0], None),)
        self.polys = [{} for _ in self.terms]  # per term: segment -> (polynomial, can a density escape it)
        self.factors = [{} for _ in self.terms]  # per term: action -> action factor
        self.known: dict = {}  # (segment, actions) -> outcome of checks no range check took part in
        self.taken: list = []

    def take(self, i: int) -> int:
        if self.table is None:
            self.table = _cell_table(self.mu)
        row = self.table.rows.get(i)
        if row is None or self.joint and row[0][1] is None:
            return 0
        end, keys = self.table.runs[i]
        if all(map(self.known.get, keys)):  # every check in the run settled and passed
            self.taken.extend(range(i, end))
            return end
        key, lo, hi = row
        ok = self.known.get(key)
        if ok is None:
            ok = self._check(key, lo, hi)
        if ok:
            self.taken.append(i)
            return i + 1
        return 0

    def _check(self, key, lo, hi) -> bool:
        """Whether g's polynomials and action factors on the component are
        exact.  The outcome is kept for key = (segment, actions) unless a
        polynomial narrower than the segment, whose range check depends on
        [lo, hi], took part in it."""
        segment, actions = key
        ranged = False
        for action in actions if self.joint else (None,):
            for t, (sf, af) in enumerate(self.terms):
                entry = self.polys[t].get(segment)
                if entry is None:
                    poly = sf.poly_for(segment)
                    if not _exact_poly(poly):
                        return self._keep(key, ranged, False)
                    # the measure keeps every density inside its segment
                    decl = self.mu.domain.states.segment_decl(segment)
                    entry = self.polys[t][segment] = (poly, poly.breaks[0] > decl.lo or poly.breaks[-1] < decl.hi)
                poly, narrow = entry
                if narrow:
                    ranged = True
                    if lo < poly.breaks[0] or hi > poly.breaks[-1]:
                        raise CoverageError("integration range escapes the piecewise range")
                if self.joint and action not in self.factors[t]:
                    v = af.value_at(action)
                    if not _is_exact(v):
                        return self._keep(key, ranged, False)
                    self.factors[t][action] = v
        return self._keep(key, ranged, True)

    def _keep(self, key, ranged: bool, ok: bool) -> bool:
        if not ranged:
            self.known[key] = ok
        return ok

    def shares(self, terms: list) -> None:
        """Append to terms, as (numerator, denominator) pairs, the moments
        of the cells of the components taken."""
        if not self.taken:
            return
        groups = self.table.groups
        if len(self.taken) < len(self.table.rows):
            keep = set(self.taken)
            groups = {key: (d, q, [c for c in cells if c[0] in keep]) for key, (d, q, cells) in groups.items()}
        for t in range(len(self.terms)):
            for (segment, action), (d, q, cells) in groups.items():
                if not cells:
                    continue
                if not self.joint:
                    _cells_integral(self.polys[t][segment][0], d, q, cells, 1, terms)
                elif action is not None and (v := self.factors[t][action]):
                    _cells_integral(self.polys[t][segment][0], d, q, cells, v, terms)


def _cells_integral(poly: PiecewisePoly, d: int, q: int, cells, v, terms: list) -> None:
    """Append to terms v·(p/q)·∫ poly over [a/d, b/d] for the cells
    (i, p, a, b), all inside the polynomial's range, as (numerator,
    denominator) pairs.

    The cell ends and the breaks are brought to one common denominator D, so
    the power-m moment of a piece, Σ p·(b^m − a^m) over its cells, is over
    q·D^m.  A cell that straddles a break is split there, the sums run over
    Python ints, and one pair is appended per (piece, power).
    """
    D = math.lcm(d, *{x.denominator for x in poly.breaks})
    up = D // d
    cuts = [x.numerator * (D // x.denominator) for x in poly.breaks]
    if len(poly.coeffs) == 1:  # every cell lies in the one piece
        pieces = [[(p, a * up, b * up) for _, p, a, b in cells]]
    else:
        pieces = [[] for _ in poly.coeffs]  # per piece: (p, a, b)
        for _, p, a, b in cells:
            a, b = a * up, b * up
            i = bisect.bisect_right(cuts, a) - 1
            while b > cuts[i + 1]:
                pieces[i].append((p, a, cuts[i + 1]))
                a = cuts[i + 1]
                i += 1
            pieces[i].append((p, a, b))
    vn, vd = v.numerator, v.denominator
    for row, piece in zip(poly.coeffs, pieces):
        if piece:
            for j, coeff in enumerate(row):
                if coeff:
                    m = j + 1
                    moment = sum(p * (b**m - a**m) for p, a, b in piece)
                    terms.append((vn * coeff.numerator * moment, vd * coeff.denominator * m * q * D**m))


def _component_integral(c: MeasureComponent, g: TestFunction, tol: float) -> Number:
    """c's share of the integral of g."""
    s = c.state
    if g.arity == "state":
        amass = action_mass(c.action)
        if isinstance(s, StateAtom):
            v = g.evaluate(s.point)
        else:
            v = _state_density_integral(s, g, _share_tol(tol, c.weight * amass))
        r = c.weight * v
        # times an exact ONE is the identity; a float product keeps the
        # multiply for the slop it adds to the err
        return r if amass is ONE and r.is_exact else r * amass
    if c.action is None:
        raise MeasureError(f"{g.name!r} needs actions but the measure is a marginal")
    parts = c.action.parts if isinstance(c.action, ActionMixture) else ((ONE, c.action),)
    total = ZERO
    for w, p in parts:
        if isinstance(s, StateAtom) and isinstance(p, ActionAtom):
            v = g.evaluate(s.point, p.action)
        else:
            v = _pure_integral(s, p, g, _share_tol(tol / len(parts), c.weight * w))
        total = total + w * v
    return c.weight * total


def _share_tol(tol: float, w: Number) -> float:
    """The tol of a quadrature whose result is multiplied by w: tol / w
    where w exceeds 1, so that the product's err stays within tol."""
    return tol / float(w.value) if w > ONE else tol


def _state_density_integral(d: StateDensity, g: TestFunction, tol: float) -> Number:
    if g.structured is not None:
        return g.structured[0].integral_against(d)
    return _density_quad(d.breaks, d.heights, _sampler(g, segment=d.segment), tol, g.declared_class)


def _pure_integral(s: StatePart, a: ActionAtom | ActionDensity, g: TestFunction, tol: float) -> Number:
    """g against s x a, not both atoms."""
    atomic_s = isinstance(s, StateAtom)
    atomic_a = isinstance(a, ActionAtom)
    if g.structured is not None:
        total = ZERO
        for sf, af in g.structured:
            sv = _wrap_value(sf.value_at(s.point)) if atomic_s else sf.integral_against(s)
            av = _wrap_value(af.value_at(a.action)) if atomic_a else af.integral_against(a)
            total = total + sv * av
        return total
    if atomic_s:
        return _density_quad(a.breaks, a.heights, _sampler(g, s.point), tol, g.declared_class)
    if atomic_a:
        f = _sampler(g, segment=s.segment, action=a.action)
        return _density_quad(s.breaks, s.heights, f, tol, g.declared_class)
    # nested: outer over the state density, inner over the action density
    smass = max(float(s.mass().value), 1e-30)
    inner_tol = tol / (2.0 * smass)
    rule = _rule(g.declared_class)
    kept = []
    inner = _cell_plan(a.breaks, a.heights, inner_tol, kept)

    def outer(x):
        # the first node converts the inner cells, every later one reuses them
        nonlocal inner
        cells, inner = inner, kept
        return _density_sum(cells, _sampler(g, _segment_point(s.segment, x)), rule)[0]

    total, err = _density_sum(_cell_plan(s.breaks, s.heights, tol / 2.0), outer, rule)
    return Number.approx(total, err + smass * inner_tol)


def _sampler(g: TestFunction, point: StatePoint | None = None, segment: str | None = None, action=None):
    """`g.sample` as a function of the action at a point, or of the segment
    coordinate (with the action, for a joint g), all else resolved once.  A
    float within the bound (false for NaN and +-inf) returns at once."""
    ev, lim, slow = g.evaluator, g._limit, g._sampled
    if point is not None:
        return lambda t: r if type(r := ev(point, t)) is float and -lim <= r <= lim else slow(r)
    if g.arity == "state":
        return lambda x: r if type(r := ev(_segment_point(segment, x))) is float and -lim <= r <= lim else slow(r)
    return lambda x: r if type(r := ev(_segment_point(segment, x), action)) is float and -lim <= r <= lim else slow(r)


def _density_quad(breaks, heights, f, tol: float, declared_class: str) -> Number:
    """f against a piecewise-constant density; see `_cell_plan`."""
    return _approx(*_density_sum(_cell_plan(breaks, heights, tol), f, _rule(declared_class)))


def _cell_plan(breaks, heights, tol: float, kept: list | None = None):
    """Each cell as floats (lo, hi, tol, height value, height err), tol split
    evenly over the cells and divided by the height; made as the sum reaches
    it, and appended to `kept` when that is given."""
    budget = tol / len(heights)
    for a, b, h in zip(breaks, breaks[1:], heights):
        hv = float(h.value)
        cell = (float(a), float(b), budget / max(hv, 1e-30), hv, float(h.err))
        if kept is not None:
            kept.append(cell)
        yield cell


def _density_sum(cells, f, rule) -> tuple[float, float]:
    """The value and err, in floats, of the Number sum from ZERO of each
    cell's height times the rule's integral of f over it."""
    total = err = 0.0
    for lo, hi, tol, hv, he in cells:
        try:
            v, e = rule(f, lo, hi, tol)
        except QuadratureError as exc:
            raise IntegrationError(str(exc), value=exc.value, err=exc.err) from exc
        total, err = _add_product(total, err, hv, he, v, e)
    return total, err


def _rule(declared_class: str):
    """G7-K15 for a continuous integrand; Simpson, whose bisection closes in
    on a kink or a jump with fewer samples, for any other."""
    return kronrod_quadrature if declared_class == CONTINUOUS else adaptive_quadrature
