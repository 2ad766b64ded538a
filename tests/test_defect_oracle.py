"""`determinism_defect` against two quadratic scans.

Both scans visit every cell [lo, hi) of the common refinement and every
piece sub-interval [a, b).  The containment scan gives the cell to the
pieces that contain it, a <= lo and hi <= b; the library's single pass must
give the same exact value, and on float inputs the same value and err bit
for bit, on every draw.  The midpoint scan, the library's former
implementation, gives the cell to the pieces that hold its midpoint
lo + (hi - lo) / 2.  It must still agree wherever that float midpoint lies
inside the cell; on a cell one ulp wide it can round onto hi.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from absorbing_mdp import (
    ActionAtom,
    AtomDecl,
    Domain,
    FiniteActions,
    HybridMeasure,
    MeasureComponent,
    Number,
    SegmentDecl,
    StateAtom,
    StateDensity,
    StateSpace,
    determinism_defect,
)
from absorbing_mdp.measure import ActionMixture
from absorbing_mdp.numbers import ZERO, nsum

ACTIONS = ("a", "b", "c")
SPACE = StateSpace(
    atoms=(AtomDecl("p"), AtomDecl("q"), AtomDecl("Delta")),
    segments=(
        SegmentDecl("s", Fraction(0), Fraction(1)),
        SegmentDecl("t", Fraction(0), Fraction(1)),
    ),
)
DOMAIN = Domain(SPACE, FiniteActions(ACTIONS))


def scan_defect(mu: HybridMeasure, holds) -> Number:
    """The defect with cell [lo, hi) given to piece [a, b) where
    holds(lo, hi, a, b)."""
    atom_cells: dict = {}
    seg_pieces: dict = {}
    for c in mu.components:
        parts = (
            c.action.parts if isinstance(c.action, ActionMixture) else ((Number.lift(1), c.action),)
        )
        for w, part in parts:
            weight = c.weight * w
            if isinstance(c.state, StateAtom):
                cell = atom_cells.setdefault(c.state.point, {})
                cell[part.action] = cell.get(part.action, ZERO) + weight
            else:
                seg_pieces.setdefault(c.state.segment, []).append(
                    (c.state.breaks, c.state.heights, part.action, weight)
                )

    defect = ZERO
    for cell in atom_cells.values():
        total = nsum(cell.values())
        top = max(cell.values(), key=lambda v: v.value)
        defect = defect + (total - top)

    for pieces in seg_pieces.values():
        for lo, hi in _cells(breaks for breaks, _, _, _ in pieces):
            per_action: dict = {}
            for breaks, heights, action, weight in pieces:
                for a, b, h in zip(breaks, breaks[1:], heights):
                    if holds(lo, hi, a, b):
                        per_action[action] = per_action.get(action, ZERO) + weight * h
            if not per_action:
                continue
            total = nsum(per_action.values())
            top = max(per_action.values(), key=lambda v: v.value)
            length = Number.lift(hi - lo) if not isinstance(hi - lo, float) else Number.approx(hi - lo, 0.0)
            defect = defect + (total - top) * length
    return defect


def _cells(all_breaks):
    """The cells (lo, hi) of the common refinement, each end the first cut
    seen at its point."""
    cuts = sorted({b for breaks in all_breaks for b in breaks})
    return zip(cuts, cuts[1:])


def containment_scan_defect(mu: HybridMeasure) -> Number:
    return scan_defect(mu, lambda lo, hi, a, b: a <= lo and hi <= b)


def midpoint_scan_defect(mu: HybridMeasure) -> Number:
    return scan_defect(mu, lambda lo, hi, a, b: a <= lo + (hi - lo) / 2 < b)


def has_midpoint_on_hi(mu: HybridMeasure) -> bool:
    """Whether some cell's float midpoint rounds onto the cell's upper end."""
    by_segment: dict = {}
    for c in mu.components:
        if isinstance(c.state, StateDensity):
            by_segment.setdefault(c.state.segment, []).append(c.state.breaks)
    return any(lo + (hi - lo) / 2 >= hi for breaks in by_segment.values() for lo, hi in _cells(breaks))


def assert_same(got: Number, want: Number):
    assert got.is_exact == want.is_exact
    if want.is_exact:
        assert got.value == want.value
        assert got.err == 0
    else:
        assert float(got.value).hex() == float(want.value).hex()
        assert float(got.err).hex() == float(want.err).hex()


# -- generators ------------------------------------------------------------

exact_coords = st.fractions(min_value=0, max_value=1, max_denominator=24)


@st.composite
def float_coords(draw):
    """A float in [0, 1], sometimes together with its next double up, so
    that cells one ulp wide (whose midpoint can round onto hi) occur."""
    x = draw(st.floats(min_value=0, max_value=1, allow_nan=False, allow_infinity=False))
    if x < 1 and draw(st.booleans()):
        return [x, math.nextafter(x, 2.0)]
    return [x]


@st.composite
def breaks_for(draw, exact: bool):
    if exact:
        coords = draw(st.lists(exact_coords, min_size=2, max_size=6, unique=True))
    else:
        groups = draw(st.lists(float_coords(), min_size=1, max_size=4))
        coords = sorted({c for g in groups for c in g})
        if len(coords) < 2:
            coords = sorted({coords[0], 0.0 if coords[0] > 0 else 1.0})
    return tuple(sorted(coords))


@st.composite
def numbers(draw, exact: bool):
    if exact or draw(st.integers(0, 3)) == 0:
        return Number(draw(st.fractions(min_value=0, max_value=4, max_denominator=12)))
    v = draw(st.floats(min_value=0, max_value=4, allow_nan=False))
    e = draw(st.sampled_from([0.0, 1e-12, 2.0 ** -40, 1e-3]))
    return Number.approx(v, e)


@st.composite
def action_parts(draw, exact: bool):
    if draw(st.booleans()):
        return ActionAtom(draw(st.sampled_from(ACTIONS)))
    picks = draw(st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=3))
    return ActionMixture(tuple((draw(numbers(exact)), ActionAtom(a)) for a in picks))


@st.composite
def components(draw, exact: bool):
    if draw(st.integers(0, 4)) == 0:
        state = StateAtom(SPACE.point(draw(st.sampled_from(("p", "q")))))
    else:
        br = draw(breaks_for(exact))
        heights = tuple(draw(numbers(exact)) for _ in br[1:])
        state = StateDensity(draw(st.sampled_from(("s", "t"))), br, heights)
    return MeasureComponent(state, draw(action_parts(exact)), draw(numbers(exact)))


@st.composite
def measures(draw):
    exact = draw(st.booleans())
    comps = draw(st.lists(components(exact), min_size=1, max_size=7))
    return HybridMeasure(DOMAIN, tuple(comps))


def _ulp_cell_measure():
    # 0.3 has an odd last mantissa bit, so the midpoint of the one-ulp cell
    # [0.3, next(0.3)) rounds onto next(0.3).  The midpoint scan then gives
    # that cell to the piece starting there, which plays "a" only, and never
    # sees the two actions the cell's own pieces play.
    lo = 0.3
    hi = math.nextafter(lo, 1.0)
    assert lo + (hi - lo) / 2 == hi
    one = Number.approx(1.0)
    cell = StateDensity("s", (lo, hi), (one,))
    mu = HybridMeasure(
        DOMAIN,
        (
            MeasureComponent(cell, ActionAtom("a"), one),
            MeasureComponent(cell, ActionAtom("b"), one),
            MeasureComponent(StateDensity("s", (hi, 1.0), (one,)), ActionAtom("a"), one),
        ),
    )
    return mu, lo, hi


@settings(max_examples=200, deadline=None)
@given(measures())
def test_defect_matches_the_containment_and_midpoint_scans(mu):
    got = determinism_defect(mu)
    assert_same(got, containment_scan_defect(mu))
    if not has_midpoint_on_hi(mu):
        assert_same(got, midpoint_scan_defect(mu))


def test_ulp_wide_cell_counts_both_actions():
    mu, lo, hi = _ulp_cell_measure()
    assert has_midpoint_on_hi(mu)
    # one unit of "a" and one of "b" on the cell: the defect is its length
    assert determinism_defect(mu).value == hi - lo
    assert_same(determinism_defect(mu), containment_scan_defect(mu))
    assert midpoint_scan_defect(mu).value == 0.0


def test_where_a_float_and_an_exact_cut_coincide_the_first_seen_sets_the_length():
    # "a" and "b" both carry exact mass 1 on [1/2, 1); the cell's length is
    # exact when its ends were first seen as Fractions, a float otherwise
    one = Number(Fraction(1))
    exact = StateDensity("s", (Fraction(0), Fraction(1, 2), Fraction(1)), (one, one))
    floats = StateDensity("s", (0.5, 1.0), (one,))
    for first, second, want_exact in ((exact, floats, True), (floats, exact, False)):
        mu = HybridMeasure(
            DOMAIN,
            (
                MeasureComponent(first, ActionAtom("a" if first is exact else "b"), one),
                MeasureComponent(second, ActionAtom("a" if second is exact else "b"), one),
            ),
        )
        got = determinism_defect(mu)
        assert got.is_exact == want_exact
        assert got.value == Fraction(1, 2)
        assert_same(got, containment_scan_defect(mu))
