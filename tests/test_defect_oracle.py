"""`determinism_defect` against the midpoint scan it replaced.

The oracle below is the former quadratic implementation: for every cell of
the common refinement it scans every piece and keeps the sub-intervals that
hold the cell's midpoint.  The library's single pass must give the same
exact value, and on float inputs the same value and err bit for bit.
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


def midpoint_scan_defect(mu: HybridMeasure) -> Number:
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
        cuts = sorted({b for breaks, _, _, _ in pieces for b in breaks})
        for lo, hi in zip(cuts, cuts[1:]):
            mid = lo + (hi - lo) / 2
            per_action: dict = {}
            for breaks, heights, action, weight in pieces:
                for a, b, h in zip(breaks, breaks[1:], heights):
                    if a <= mid < b:
                        per_action[action] = per_action.get(action, ZERO) + weight * h
            if not per_action:
                continue
            total = nsum(per_action.values())
            top = max(per_action.values(), key=lambda v: v.value)
            length = Number.lift(hi - lo) if not isinstance(hi - lo, float) else Number.approx(hi - lo, 0.0)
            defect = defect + (total - top) * length
    return defect


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
    # [0.3, next(0.3)) rounds onto next(0.3).  The scan then gives that cell
    # to the piece starting there, which plays "a" only, and never sees the
    # two actions the cell's own pieces play.
    lo = 0.3
    hi = math.nextafter(lo, 1.0)
    assert lo + (hi - lo) / 2 == hi
    one = Number.approx(1.0)
    cell = StateDensity("s", (lo, hi), (one,))
    return HybridMeasure(
        DOMAIN,
        (
            MeasureComponent(cell, ActionAtom("a"), one),
            MeasureComponent(cell, ActionAtom("b"), one),
            MeasureComponent(StateDensity("s", (hi, 1.0), (one,)), ActionAtom("a"), one),
        ),
    )


@settings(max_examples=200, deadline=None)
@given(measures())
def test_defect_matches_the_midpoint_scan(mu):
    assert_same(determinism_defect(mu), midpoint_scan_defect(mu))


def test_ulp_wide_cell_follows_the_rounded_midpoint():
    mu = _ulp_cell_measure()
    assert determinism_defect(mu).value == 0.0
    assert_same(determinism_defect(mu), midpoint_scan_defect(mu))
