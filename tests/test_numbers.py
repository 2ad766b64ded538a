"""Certified scalar arithmetic: exactness, error propagation, comparisons."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from absorbing_mdp import Number, ONE, ZERO, format_number, nsum, parse_number

fractions = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=64
)


def test_exact_constructors():
    n = Number.exact(3, 4)
    assert n.is_exact
    assert n.value == Fraction(3, 4)
    assert n.err == Fraction(0)
    assert Number.exact(5).value == Fraction(5)


def test_lift_rejects_floats():
    with pytest.raises(TypeError):
        Number.lift(0.5)
    assert Number.lift(Fraction(1, 2)) == Number.exact(1, 2)
    assert Number.lift(3) == Number.exact(3)
    n = Number.approx(0.5, 1e-9)
    assert Number.lift(n) is n


@given(fractions, fractions)
def test_exact_arithmetic_matches_fraction(a, b):
    x, y = Number.exact(a), Number.exact(b)
    assert (x + y).value == a + b
    assert (x - y).value == a - b
    assert (x * y).value == a * b
    assert (x + y).is_exact and (x * y).is_exact
    if b != 0:
        q = x / y
        assert q.is_exact and q.value == Fraction(a, 1) / b


@given(fractions, fractions)
def test_exact_division_by_zero(a, b):
    with pytest.raises(ZeroDivisionError):
        Number.exact(a) / ZERO


@st.composite
def approx_numbers(draw):
    v = draw(st.floats(min_value=-50, max_value=50, allow_nan=False))
    e = draw(st.floats(min_value=0, max_value=1, allow_nan=False))
    return Number.approx(v, e)


@given(approx_numbers(), approx_numbers())
def test_error_interval_contains_sum_endpoints(x, y):
    # the result interval must cover every sum of points from the inputs
    z = x + y
    lo = float(x.value) - float(x.err) + float(y.value) - float(y.err)
    hi = float(x.value) + float(x.err) + float(y.value) + float(y.err)
    assert float(z.value) - float(z.err) <= lo + 1e-9
    assert hi - 1e-9 <= float(z.value) + float(z.err)


@given(approx_numbers(), approx_numbers())
def test_error_interval_contains_product_corners(x, y):
    z = x * y
    corners = [
        (float(x.value) + sx * float(x.err)) * (float(y.value) + sy * float(y.err))
        for sx in (-1, 1)
        for sy in (-1, 1)
    ]
    zlo = float(z.value) - float(z.err)
    zhi = float(z.value) + float(z.err)
    for c in corners:
        assert zlo - 1e-6 <= c <= zhi + 1e-6


def test_mixed_arithmetic_degrades_to_approx():
    z = Number.exact(1, 3) + Number.approx(0.5)
    assert not z.is_exact
    assert z.value == pytest.approx(1 / 3 + 0.5)


def test_structural_equality_and_hash():
    assert Number.exact(1, 2) == Number.exact(2, 4)
    assert Number.exact(1, 2) == Fraction(1, 2)
    # an approximate 0.5 is a different object from the exact 1/2
    assert Number.approx(0.5) != Number.exact(1, 2)
    assert Number.approx(0.5, 0.1) != Number.approx(0.5, 0.2)
    assert hash(Number.exact(1, 2)) == hash(Number.exact(2, 4))


def test_certified_comparisons_respect_error():
    wide = Number.approx(0.5, 0.2)
    assert not wide.certainly_ge(Fraction(2, 5))
    assert not wide.certainly_le(Fraction(3, 5))
    assert wide.certainly_ge(Fraction(1, 4))
    assert wide.certainly_le(Fraction(4, 5))
    # exact comparisons are sharp at the boundary
    assert Number.exact(1, 2).certainly_ge(Fraction(1, 2))
    assert Number.exact(1, 2).certainly_le(Fraction(1, 2))


def test_within_includes_error_budget():
    # propagated float errors carry a few ulps of soundness slack, so the
    # budget has to sit strictly above the stored bound
    n = Number.approx(1.0, 0.05)
    assert n.within(1, 0.051)
    assert not n.within(1, 0.01)
    assert Number.exact(1, 3).within(Fraction(1, 3), 0.0)


def test_value_order_is_by_value():
    assert Number.exact(1, 3) < Number.exact(1, 2)
    assert Number.approx(0.2) < Number.exact(1, 2)
    assert Number.exact(2) >= ONE


def test_nsum_empty_and_chain():
    assert nsum([]) == ZERO
    parts = [Number.exact(1, 2 ** k) for k in range(1, 11)]
    assert nsum(parts) == Number.exact(1023, 1024)


@given(fractions)
def test_format_parse_round_trip(a):
    n = Number.exact(a)
    assert parse_number(format_number(n)) == n


def test_parse_number_floats():
    n = parse_number("0.25")
    assert not n.is_exact
    assert float(n.value) == 0.25


def test_abs_and_neg():
    n = Number.exact(-3, 4)
    assert abs(n) == Number.exact(3, 4)
    assert -n == Number.exact(3, 4)
    a = Number.approx(-1.0, 0.1)
    assert abs(a).value == 1.0
    assert abs(a).err == 0.1


# -- invariants of the slotted class ----------------------------------------


@given(fractions, fractions)
def test_exact_results_carry_a_fraction_zero_err(a, b):
    x, y = Number.exact(a), Number.exact(b)
    results = [x + y, x - y, x * y, -x, abs(x), 3 + x, 1 - x, x * 2, Number.lift(a), Number.lift(7)]
    if b != 0:
        results.append(x / y)
    for r in results:
        assert r.is_exact
        assert r.err == 0 and type(r.err) is Fraction
        assert type(r.value) is Fraction


def test_numbers_are_immutable():
    for n in (Number.exact(1, 3), Number.approx(0.25, 1e-9)):
        with pytest.raises(AttributeError):
            n.value = Fraction(1)
        with pytest.raises(AttributeError):
            n.err = 0.5
        with pytest.raises(AttributeError):
            n.other = 1
        with pytest.raises(AttributeError):
            del n.value
    assert Number.exact(1, 3).value == Fraction(1, 3)


@pytest.mark.parametrize(
    "n", [Number.exact(-7, 3), ZERO, Number.approx(0.1, 2.0 ** -40), Number.approx(-3.0)]
)
def test_copy_deepcopy_and_pickle_round_trip(n):
    for twin in (copy.copy(n), copy.deepcopy(n), pickle.loads(pickle.dumps(n))):
        assert twin == n
        assert hash(twin) == hash(n)
        assert twin.is_exact == n.is_exact
        assert type(twin.err) is type(n.err)


def test_equality_and_hash_across_backends():
    half = Number.exact(1, 2)
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert Number.exact(3) == 3
    assert half != Number.approx(0.5) and Number.approx(0.5) != half
    assert Number.approx(0.5, 0.0) == Number.approx(0.5)
    assert Number.approx(0.5) != 0.5  # floats are never lifted implicitly
    assert half != "1/2"
    keys = {half: "exact", Number.approx(0.5): "float"}
    assert keys[Number.exact(2, 4)] == "exact"
    assert keys[Number.approx(0.5, 0.0)] == "float"
    assert hash(Number.exact(3)) == hash(Number.lift(3))


def test_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError):
        Number(Fraction(1, 2), 1e-3)
    with pytest.raises(ValueError):
        Number(float("nan"))
    with pytest.raises(ValueError):
        Number(float("inf"))
    with pytest.raises(ValueError):
        Number(0.5, -1e-3)
    with pytest.raises(ValueError):
        Number(0.5, float("nan"))
    with pytest.raises(ValueError):
        Number(0.5, float("inf"))
    with pytest.raises(TypeError):
        Number("1/2")
    assert Number(3) == Number.exact(3)
    assert Number(0.5, Fraction(1, 4)).err == 0.25


def test_float_results_keep_the_finiteness_check():
    # an overflowed result is an OverflowError; a non-finite value or err
    # handed to the constructor stays a ValueError
    big = Number.approx(1e308)
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises(OverflowError):
        big + big
    with pytest.raises(ValueError):
        Number.approx(math.inf)
    with pytest.raises(ValueError):
        Number.approx(0.0, math.inf)


# -- the integer kernel against fractions.Fraction ----------------------------

# Operands the kernel meets on the ladder: zero, integers, small rationals,
# and rationals with denominators near 2^4096 that share powers of two (so
# that every cancellation branch of the sum and product rules runs).
kernel_fractions = st.one_of(
    st.just(Fraction(0)),
    st.integers(-(10**6), 10**6).map(Fraction),
    fractions,
    st.builds(Fraction, st.integers(-(2**4200), 2**4200), st.integers(2**4090, 2**4100)),
    st.builds(
        lambda n, e, odd: Fraction(n, odd << e),
        st.integers(-(2**4100), 2**4100),
        st.integers(4090, 4100),
        st.sampled_from([1, 3, 5, 7, 9, 15]),
    ),
)


def assert_canonical(got, want):
    """`got` is the Fraction `Fraction(n, d)` would build for `want`."""
    assert type(got) is Fraction
    n, d = got.numerator, got.denominator
    assert d > 0 and math.gcd(n, d) == 1
    ref = Fraction(n, d)
    assert got == want == ref
    assert hash(got) == hash(ref) and repr(got) == repr(ref)
    assert pickle.dumps(got) == pickle.dumps(ref)
    twin = pickle.loads(pickle.dumps(got))
    assert type(twin) is Fraction and twin == ref


@given(kernel_fractions, kernel_fractions)
def test_kernel_arithmetic_matches_fraction(a, b):
    x, y = Number(a), Number(b)
    cases = [
        (x + y, a + b),
        (x - y, a - b),
        (x * y, a * b),
        (-x, -a),
        (abs(x), abs(a)),
        (x + 3, a + 3),
        (3 + x, 3 + a),
        (1 - x, 1 - a),
        (x * 2, a * 2),
        (x - a, Fraction(0)),
    ]
    if b != 0:
        cases.append((x / y, a / b))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for got, want in cases:
        assert got.is_exact and type(got.err) is Fraction and got.err == 0
        assert_canonical(got.value, want)


@given(kernel_fractions, kernel_fractions)
def test_kernel_comparisons_match_fraction(a, b):
    x, y = Number(a), Number(b)
    assert (x < y) == (a < b)
    assert (x <= y) == (a <= b)
    assert (x > y) == (a > b)
    assert (x >= y) == (a >= b)
    assert (x == y) == (a == b)
    assert (x == b) == (a == b)
    assert (x < b) == (a < b) and (x >= 1) == (a >= 1)
    assert x == Number(Fraction(a.numerator, a.denominator))


@given(st.lists(kernel_fractions, max_size=3))
def test_kernel_nsum_matches_fraction(parts):
    got = nsum(Number(p) for p in parts)
    assert got.is_exact and got.err == 0
    assert_canonical(got.value, sum(parts, Fraction(0)))


# The float formulas as they stood before the kernel: the kernel must leave
# float and mixed arithmetic bit for bit as it was.


def _old_slop(v):
    return 2.0 ** -50 * max(1.0, abs(v))


def old_add(x, y):
    v = float(x.value) + float(y.value)
    return v, float(x.err) + float(y.err) + _old_slop(v)


def old_sub(x, y):
    # x + (-y)
    v = float(x.value) + float(-y.value)
    return v, float(x.err) + float(y.err) + _old_slop(v)


def old_mul(x, y):
    a, b = float(x.value), float(y.value)
    ea, eb = float(x.err), float(y.err)
    v = a * b
    return v, abs(a) * eb + abs(b) * ea + ea * eb + _old_slop(v)


def old_div(x, y):
    a, b = float(x.value), float(y.value)
    ea, eb = float(x.err), float(y.err)
    if abs(b) <= eb:
        return None
    v = a / b
    return v, (ea + abs(v) * eb) / (abs(b) - eb) + _old_slop(v)


def bits(v, e):
    return v.hex(), e.hex()


operands = st.one_of(approx_numbers(), fractions.map(Number))


def assert_keeps_bits(op, x, y, want):
    """op(x, y) has the bits of the reference (value, err) `want`, or
    raises OverflowError exactly when either of them is not finite: a
    Number holds no inf or nan."""
    if not (math.isfinite(want[0]) and math.isfinite(want[1])):
        with pytest.raises(OverflowError):
            op(x, y)
        return
    got = op(x, y)
    assert not got.is_exact
    assert bits(got.value, got.err) == bits(*want)


@given(operands, operands)
@example(Number.approx(1.0), Number.approx(2.2250738585e-313))
@example(Number.approx(0.0, 1.0), Number.approx(2.2250738585e-313))
@example(Number.approx(1e308), Number.approx(1e308))
def test_float_and_mixed_arithmetic_keeps_its_bits(x, y):
    if x.is_exact and y.is_exact:
        return
    for op, old in ((Number.__add__, old_add), (Number.__sub__, old_sub), (Number.__mul__, old_mul)):
        assert_keeps_bits(op, x, y, old(x, y))
    want = old_div(x, y)
    if want is None:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert_keeps_bits(Number.__truediv__, x, y, want)
    for got, (v, e) in (
        (-x, (-float(x.value), float(x.err))),
        (abs(x), (abs(float(x.value)), float(x.err))),
    ):
        if not x.is_exact:
            assert bits(got.value, got.err) == bits(v, e)
    assert (x < y) == (x.value < y.value) and (x >= y) == (x.value >= y.value)
    assert (x == y) == (x.is_exact == y.is_exact and x.value == y.value and x.err == y.err)


@given(st.lists(operands, max_size=6))
def test_nsum_with_floats_adds_left_to_right(parts):
    want = ZERO
    for p in parts:
        want = want + p
    got = nsum(parts)
    assert got.is_exact == want.is_exact
    if got.is_exact:
        assert_canonical(got.value, want.value)
    else:
        assert bits(got.value, got.err) == bits(float(want.value), float(want.err))


def old_certainly_ge(x, c):
    c = Number.lift(c).value
    return x.value - x.err >= c


def old_certainly_le(x, c):
    c = Number.lift(c).value
    return x.value + x.err <= c


def answer(call):
    try:
        return ("ok", call())
    except Exception as exc:  # compared by type and message
        return ("raise", type(exc), str(exc))


comparands = st.one_of(
    kernel_fractions,
    st.integers(-(2**70), 2**70),
    st.floats(min_value=-200, max_value=200, allow_nan=False),
    operands,
)


@given(st.one_of(kernel_fractions.map(Number), approx_numbers()), comparands, st.sampled_from(["drawn", "tie", "int tie"]))
def test_certified_comparisons_match_the_generic_formulas(x, c, pick):
    # exact values against ints and Fractions compare their cross products;
    # every other pairing, floats and Numbers included, keeps the formulas
    if x.is_exact and pick == "tie":
        c = x.value
    elif x.is_exact and pick == "int tie":
        c = math.floor(x.value)
    for new, old in ((Number.certainly_ge, old_certainly_ge), (Number.certainly_le, old_certainly_le)):
        assert answer(lambda: new(x, c)) == answer(lambda: old(x, c))


class Spy(Fraction):
    """A Fraction subclass that records the operators Python calls on it."""

    seen: list = []
    __hash__ = Fraction.__hash__


def _spying(name):
    def op(self, *args):
        Spy.seen.append(name)
        return getattr(Fraction, name)(self, *args)

    return op


for _name in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__",
    "__lt__", "__le__", "__gt__", "__ge__", "__eq__",
):
    setattr(Spy, _name, _spying(_name))


def test_fraction_subclass_operands_take_the_generic_path():
    s, h = Number(Spy(-1, 3)), Number.exact(1, 2)
    assert type(s.value) is Spy
    cases = [
        (lambda: s + h, Fraction(1, 6)),
        (lambda: h + s, Fraction(1, 6)),
        (lambda: s - h, Fraction(-5, 6)),
        (lambda: h - s, Fraction(5, 6)),
        (lambda: s * h, Fraction(-1, 6)),
        (lambda: h * s, Fraction(-1, 6)),
        (lambda: s / h, Fraction(-2, 3)),
        (lambda: h / s, Fraction(-3, 2)),
        (lambda: -s, Fraction(1, 3)),
        (lambda: abs(s), Fraction(1, 3)),
        (lambda: s < h, True),
        (lambda: s >= h, False),
        (lambda: s == h, False),
    ]
    for run, want in cases:
        Spy.seen.clear()
        got = run()
        assert Spy.seen, "the subclass's own operator was bypassed"
        assert (got.value if isinstance(got, Number) else got) == want
