"""Expected-hitting-time analysis and uniform-absorption diagnostics.

The Bellman operator here is the one for worst-case expected time to
absorption: (Tw)(x) = 1 + max over actions of the expected value of w at
the successor, with w pinned to zero at the cemetery.  Iterating
`bellman_apply` from zero, with successors outside the support counting as
zero, is monotone and converges to the least fixed point on that truncated
support.  Exact rows are summed on integers, each one unreduced sum by
`numbers._add_unreduced` with zero values skipped; inexact rows keep
`Number` arithmetic, and a max over overlapping intervals is an
enclosure.  `verify_supersolution` orders w(x) and Tw(x) only where that
is certain: float sides whose intervals overlap make its verdict
`undecided`.

`uniformity_report` tabulates tail sums over a strategy family.  Its
verdict is honest about finite evidence: a certified witness cell proves
non-uniformity over the explored family; a certified sup-row decay at the
deepest stage supports (but cannot prove) uniform absorption; everything
else is inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .numbers import Number, ZERO, ONE, _add_unreduced, _reduced, _round_up, nsum
from .mdp import FiniteActions, MdpModel, ModelError, StrategyFamily
from .occupation import (
    _ACTION_DENSITY,
    SolverError,
    Truncation,
    _rows_at,
    expected_hitting_time,
    occupation_countable,
    survival_probs,
)
from .spaces import StatePoint


class MissingValueError(ModelError):
    """A value function has no value for a state it was asked about."""


@dataclass(frozen=True)
class ValueFunction:
    """Values on named atoms, zero at the cemetery, with an optional
    closed-form fallback for atoms beyond the stored table."""

    values: dict
    cemetery: str = "Delta"
    fallback: Callable[[str], Number | None] | None = None

    def __post_init__(self):
        for name, v in self.values.items():
            _check_value(name, v)

    def value_at(self, name: str) -> Number:
        if name == self.cemetery:
            return ZERO
        if name in self.values:
            return self.values[name]
        if self.fallback is not None:
            v = self.fallback(name)
            if v is not None:
                return _check_value(name, v)
        raise MissingValueError(f"no value for state {name!r}")


def _check_value(name: str, v) -> Number:
    if not isinstance(v, Number):
        raise TypeError(f"value of state {name!r} is {type(v).__name__}, not Number")
    return v


def _apply_at(model: MdpModel, lookup: Callable[[str], Number], atom: str) -> Number:
    """(Tw)(atom).  While all is exact, a row is one unreduced integer sum
    n/d without its zero-valued terms, rows compare by cross products, and
    only the winner is reduced; `_inexact_rows` takes over at a float."""
    if not isinstance(model.actions, FiniteActions):
        raise SolverError(_ACTION_DENSITY)
    rows = _rows_at(model, model.states.point(atom))
    if type(rows) is dict:  # a row for every action, in their order
        names = model.actions.names
        if len(rows) < len(names):
            missing = next(a for a in names if a not in rows)
            raise ModelError(f"no kernel row for ({atom!r}, {missing!r})")
        rows = rows.values()
    rows = iter(rows)
    bn, bd = None, 1
    for row in rows:
        n, d = 0, 1
        terms = iter(row)
        for name, p in terms:
            w = lookup(name)
            pv, wv = p.value, w.value
            if type(pv) is not Fraction or type(wv) is not Fraction:
                best = [] if bn is None else [_reduced(bn, bd)]
                return _inexact_rows(lookup, best, _reduced(n, d) + p * w, terms, rows)
            wn = wv._numerator
            if wn:
                n, d = _add_unreduced(n, d, pv._numerator * wn, pv._denominator * wv._denominator)
        if bn is None or n * bd > bn * d:
            bn, bd = n, d
    return _reduced(bn + bd, bd)


def _inexact_rows(lookup, best: list, acc: Number, terms, rows) -> Number:
    """The rest of an atom's rows summed as `nsum` would, from `acc` on;
    `best` holds the winner of the exact rows before, if any."""
    for name, p in terms:
        acc = acc + p * lookup(name)
    totals = [acc] + [nsum(p * lookup(name) for name, p in row) for row in rows]
    return ONE + _sup(best + totals)


def _sup(items: list) -> Number:
    """The first largest of `items` by central value if its lower end is at
    or above every other's upper end, as it is among exact items, else a
    float enclosure [max lo, max hi] of the max, rounded outward."""
    i = max(range(len(items)), key=lambda k: items[k].value)
    los, his = zip(*map(_ends, items))
    if all(los[i] >= h for k, h in enumerate(his) if k != i):
        return items[i]
    lo, hi = max(los), max(his)
    mid = float((lo + hi) / 2)
    return Number.approx(mid, _round_up(max(hi - Fraction(mid), Fraction(mid) - lo)))


def _ends(x: Number) -> tuple[Fraction, Fraction]:
    """The interval value - err, value + err of x, exactly."""
    v, e = Fraction(x.value), Fraction(x.err)
    return v - e, v + e


def bellman_apply(model: MdpModel, w: ValueFunction, support) -> ValueFunction:
    """One application of the operator on the given atoms; successor values
    come from w (including its fallback)."""
    out = {}
    for atom in support:
        out[atom] = _apply_at(model, w.value_at, atom)
    return ValueFunction(out, cemetery=model.states.cemetery)


@dataclass(frozen=True)
class VerifyResult:
    kind: str  # fixed_point | strict_supersolution | violated | undecided
    state: str | None = None
    details: tuple = ()  # of (atom, w, Tw)


def verify_supersolution(model: MdpModel, w: ValueFunction, support) -> VerifyResult:
    """Certified comparison of w against Tw on the support: exact sides by
    cross products, a float side by the intervals value +- err.  The first
    state where w is certainly below Tw makes the verdict `violated`;
    failing that, the first where the intervals overlap, short of both
    being one point, makes it `undecided`."""
    details = []
    violated = undecided = None
    strict = False
    for atom in support:
        lhs = w.value_at(atom)
        rhs = _apply_at(model, w.value_at, atom)
        details.append((atom, lhs, rhs))
        r, l = rhs._ordered(lhs)
        if type(l) is int:  # both exact: the cross products, formed once
            lo = hi = l
            rlo = rhi = r
        else:
            (lo, hi), (rlo, rhi) = _ends(lhs), _ends(rhs)
        if hi < rlo:
            if violated is None:
                violated = atom
        elif lo > rhi:
            strict = True
        elif undecided is None and not lo == hi == rlo == rhi:
            undecided = atom
    if violated is not None:
        return VerifyResult("violated", violated, tuple(details))
    if undecided is not None:
        return VerifyResult("undecided", undecided, tuple(details))
    if strict:
        return VerifyResult("strict_supersolution", None, tuple(details))
    return VerifyResult("fixed_point", None, tuple(details))


@dataclass(frozen=True)
class AbsorptionReport:
    eps: float
    n_max: int
    strategy_names: tuple
    expected_times: tuple
    rows: tuple  # per strategy, tail sums for n = 0..n_max
    sup_row: tuple
    verdict: str  # non_uniform_witness | decays | inconclusive
    witness: tuple | None  # (strategy name, n, value)
    note: str = ""


def uniformity_report(
    model: MdpModel,
    family: StrategyFamily,
    x0: StatePoint,
    n_max: int,
    eps=Fraction(1, 10 ** 6),
    trunc: Truncation = Truncation(),
    continue_bound: Fraction | None = None,
) -> AbsorptionReport:
    """Tail-sum table over an explored strategy family.

    A witness is only claimed when a tail sum in the deeper half of the
    table is certified at or above eps; sup-row decay is only claimed when
    every final tail is certified at or below eps.
    """
    names = []
    times = []
    rows = []
    for name, strat in family.explored():
        occ = occupation_countable(model, strat, x0, trunc, continue_bound)
        total = expected_hitting_time(occ)
        surv = survival_probs(model, strat, x0, max(n_max - 1, 0))
        tails = [total]
        for n in range(1, n_max + 1):
            tails.append(tails[-1] - surv[n - 1])
        names.append(name)
        times.append(total)
        rows.append(tuple(tails))

    sup_row = []
    for n in range(n_max + 1):
        col = [row[n] for row in rows]
        sup_row.append(_sup(col))

    witness = None
    half = (n_max + 1) // 2
    for i, row in enumerate(rows):
        for n in range(half, n_max + 1):
            if row[n].certainly_ge(eps):
                cand = (names[i], n, row[n])
                if witness is None or (n, float(row[n].value)) > (witness[1], float(witness[2].value)):
                    witness = cand
    if witness is not None:
        verdict = "non_uniform_witness"
        note = f"tail sum stays at or above eps at stage {witness[1]} under {witness[0]!r}"
    elif all(row[n_max].certainly_le(eps) for row in rows):
        verdict = "decays"
        note = (
            "every explored tail sum is certified below eps at the deepest stage; "
            "this supports but cannot prove uniformity beyond the explored family"
        )
    else:
        verdict = "inconclusive"
        note = "neither a certified witness nor certified decay at the deepest stage"
    return AbsorptionReport(
        float(eps), n_max, tuple(names), tuple(times), tuple(rows), tuple(sup_row),
        verdict, witness, note=note,
    )
