"""Scalars with two backends: exact rationals, or floats with an error bound.

Every mass, weight, probability and integral in this library is a `Number`.
A Number is either exact (a `Fraction`, error identically zero) or approximate
(a float plus a nonnegative absolute error bound).  Arithmetic between exact
operands stays exact; as soon as a float operand enters, the result is
demoted to the float backend and the bound is propagated first-order, with a
small per-operation slop for rounding.  Exact values never degrade silently.

Exact arithmetic on operands whose value is exactly a `Fraction` (not a
subclass) runs on a small integer kernel: `_sum` and `_prod` apply the
gcd-reduced sum and product rules (Knuth, TAOCP vol. 2, section 4.5.1) that
`Fraction`'s own `_add`/`_mul`/`_div` use, to the numerators and
denominators, without `Fraction`'s operator dispatch.  Their results are
built by `_frac`, which fills the two slots of `Fraction` directly.  That
is safe because the kernel is only ever given canonical inputs (lowest
terms, positive denominator, as every `Fraction` holds) and the rules keep
results canonical, so the object is the one `Fraction(n, d)` would build:
equal, hash-equal, same repr and pickle.  It relies on `Fraction` storing
exactly the slots `_numerator` and `_denominator`, as it does in CPython
3.10-3.13.

A sum of many exact terms is kept unreduced instead, over the lcm of the
denominators seen (`_add_unreduced`), and reduced once at the end
(`_reduced`); `_exact_sum` is that fold, and the one place where an
unreduced sum grows.

`certainly_ge` and `certainly_le` compare an exact value with an int or
Fraction bound by the same cross products.

Float, mixed and subclass operands take the generic path: the float
formulas with their first-order bounds, or `Fraction`'s own operator for a
subclass.  A value is a `Fraction` or a float
and nothing else, so the dispatch asks `isinstance(x, float)`, a plain type
check, rather than `isinstance(x, Fraction)`, which runs the instance check
of `Fraction`'s abstract base class.

The interval helpers the other modules share live here too: `_negative`,
the one sign test of a weight, height or probability (negative exactly, or
by more than its err), `_round_up`, which rounds an exact bound up to
a float, and `_add_product`, one step of a float sum of products by the
formulas of `*` and `+`, for the cells of `measure`'s quadrature.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd

# A few ulps above IEEE double precision, charged once per float operation.
_EPS = 2.0 ** -50

# The err of every exact Number: one shared zero.
_NO_ERR = Fraction(0)

ExactLike = int | Fraction


def _slop(x: float) -> float:
    return _EPS * max(1.0, abs(x))


class Number:
    """An exact `Fraction` with err 0, or a finite float with a finite err >= 0.

    Immutable.  The public constructor validates its arguments, and
    raises ValueError for a non-finite value or err; exact arithmetic
    results (`+ - * /`, `abs`), which are valid by construction, skip that
    through the module-private `_exact`.  A float `+ - * /` whose value or
    err overflows raises OverflowError (`_approx`).
    """

    __slots__ = ("value", "err")

    def __init__(self, value: Fraction | float, err: Fraction | float = _NO_ERR):
        v, e = value, err
        # exact: a Fraction (tested first), an int or a Fraction subclass
        if type(v) is Fraction or not isinstance(v, float):
            if type(v) is not Fraction:
                if isinstance(v, int):
                    v = Fraction(v)
                elif not isinstance(v, Fraction):
                    raise TypeError(f"unsupported value type {type(v).__name__}")
            if e is not _NO_ERR and e != 0:
                raise ValueError("exact value cannot carry an error bound")
            e = _NO_ERR
        else:
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {v!r}")
            e = float(e)
            if not (e >= 0.0) or not math.isfinite(e):
                raise ValueError(f"bad error bound {e!r}")
        _set_value(self, v)
        _set_err(self, e)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Number, (self.value, self.err))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact(p, q=1) -> "Number":
        return Number(Fraction(p, q))

    @staticmethod
    def approx(v: float, err: float = 0.0) -> "Number":
        return Number(float(v), float(err))

    @staticmethod
    def lift(x) -> "Number":
        """Lift an int or Fraction to an exact Number.

        Floats are rejected on purpose: callers must say Number.approx to
        mark a value as inexact.
        """
        if isinstance(x, Number):
            return x
        if isinstance(x, Fraction):
            return _exact(x)
        if isinstance(x, int):
            return _exact(Fraction(x))
        raise TypeError(f"cannot lift {type(x).__name__} implicitly; use Number.approx")

    # -- predicates --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        # the value is a Fraction or a float
        return not isinstance(self.value, float)

    def as_fraction(self) -> Fraction:
        if not self.is_exact:
            raise ValueError(f"not exact: {self!r}")
        return self.value

    def __float__(self) -> float:
        return float(self.value)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Number":
        if isinstance(other, Number):
            return other
        return Number.lift(other)

    def __add__(self, other) -> "Number":
        o = other if type(other) is Number else self._coerce(other)
        a, b = self.value, o.value
        if type(a) is Fraction and type(b) is Fraction:
            return _exact(_sum(a._numerator, a._denominator, b._numerator, b._denominator))
        if not (isinstance(a, float) or isinstance(b, float)):
            return _exact(a + b)
        v = float(a) + float(b)
        return _approx(v, float(self.err) + float(o.err) + _slop(v))

    __radd__ = __add__

    def __neg__(self) -> "Number":
        v = self.value
        if type(v) is Fraction:
            return _exact(_frac(-v._numerator, v._denominator))
        if isinstance(v, float):
            return Number(-v, self.err)
        return _exact(-v)

    def __sub__(self, other) -> "Number":
        # a - b rounds to the same float as a + (-b): the bound is that of
        # adding the negation
        o = other if type(other) is Number else self._coerce(other)
        a, b = self.value, o.value
        if type(a) is Fraction and type(b) is Fraction:
            return _exact(_sum(a._numerator, a._denominator, -b._numerator, b._denominator))
        if not (isinstance(a, float) or isinstance(b, float)):
            return _exact(a - b)
        v = float(a) - float(b)
        return _approx(v, float(self.err) + float(o.err) + _slop(v))

    def __rsub__(self, other) -> "Number":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Number":
        o = other if type(other) is Number else self._coerce(other)
        a, b = self.value, o.value
        if type(a) is Fraction and type(b) is Fraction:
            return _exact(_prod(a._numerator, a._denominator, b._numerator, b._denominator))
        if not (isinstance(a, float) or isinstance(b, float)):
            return _exact(a * b)
        a, b = float(a), float(b)
        ea, eb = float(self.err), float(o.err)
        v = a * b
        return _approx(v, abs(a) * eb + abs(b) * ea + ea * eb + _slop(v))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Number":
        o = other if type(other) is Number else self._coerce(other)
        a, b = self.value, o.value
        if type(a) is Fraction and type(b) is Fraction and b._numerator:
            # times the reciprocal, with its sign moved to the numerator
            nb, db = b._numerator, b._denominator
            if nb < 0:
                nb, db = -nb, -db
            return _exact(_prod(a._numerator, a._denominator, db, nb))
        if not (isinstance(a, float) or isinstance(b, float)):
            # Fraction division by zero raises ZeroDivisionError itself
            return _exact(a / b)
        a, b = float(a), float(b)
        ea, eb = float(self.err), float(o.err)
        if abs(b) <= eb:
            raise ZeroDivisionError(f"divisor interval contains zero: {o!r}")
        v = a / b
        bound = (ea + abs(v) * eb) / (abs(b) - eb)
        return _approx(v, bound + _slop(v))

    def __abs__(self) -> "Number":
        v = self.value
        if type(v) is Fraction:
            return self if v._numerator >= 0 else _exact(_frac(-v._numerator, v._denominator))
        if isinstance(v, float):
            return Number(abs(v), self.err)
        return _exact(abs(v))

    # -- comparisons (by central value; certified variants below) ----------

    def _ordered(self, other):
        """The two sides that `<`, `<=`, `>` and `>=` compare: the
        cross products n1*d2 and n2*d1 for exact operands, else the
        central values themselves."""
        o = other if type(other) is Number else self._coerce(other)
        a, b = self.value, o.value
        if type(a) is Fraction and type(b) is Fraction:
            return a._numerator * b._denominator, b._numerator * a._denominator
        return a, b

    def __lt__(self, other):
        """Order by central value: the err bounds are ignored, so an
        approximate Number compares as its float.  `certainly_ge` and
        `certainly_le` take the bounds into account.  `<=`, `>` and `>=`
        compare the same way."""
        a, b = self._ordered(other)
        return a < b

    def __le__(self, other):
        a, b = self._ordered(other)
        return a <= b

    def __gt__(self, other):
        a, b = self._ordered(other)
        return a > b

    def __ge__(self, other):
        a, b = self._ordered(other)
        return a >= b

    def __eq__(self, other):
        if type(other) is not Number:
            if isinstance(other, (int, Fraction)):
                other = Number.lift(other)
            elif not isinstance(other, Number):
                return NotImplemented
        a, b = self.value, other.value
        if type(a) is Fraction and type(b) is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        return self.is_exact == other.is_exact and a == b and self.err == other.err

    def __hash__(self):
        return hash((self.is_exact, self.value, self.err))

    def certainly_ge(self, c) -> bool:
        """True only if the whole uncertainty interval sits at or above c."""
        v = self.value
        if type(v) is Fraction and (type(c) is int or type(c) is Fraction):
            # an exact value against an exact bound: the cross products
            return v._numerator * c.denominator >= c.numerator * v._denominator
        c = Number.lift(c).value
        return v - self.err >= c

    def certainly_le(self, c) -> bool:
        """True only if the whole uncertainty interval sits at or below c."""
        v = self.value
        if type(v) is Fraction and (type(c) is int or type(c) is Fraction):
            return v._numerator * c.denominator <= c.numerator * v._denominator
        c = Number.lift(c).value
        return v + self.err <= c

    def within(self, target, tol) -> bool:
        """|self - target| <= tol, including the tracked error bound."""
        gap = abs(self - Number.lift(target))
        return float(gap.value) + float(gap.err) <= float(tol)

    def __repr__(self):
        if self.is_exact:
            return f"Number({self.value})"
        return f"Number({self.value!r}, err={self.err!r})"


# The slot setters bypass the raising __setattr__.
_set_value = Number.value.__set__
_set_err = Number.err.__set__
_new = object.__new__


def _exact(v: Fraction) -> Number:
    """Trusted constructor for an exact result; `v` must be a Fraction."""
    n = _new(Number)
    _set_value(n, v)
    _set_err(n, _NO_ERR)
    return n


def _approx(v: float, e: float) -> Number:
    """Constructor for the result of a float operation, whose err `e` is
    nonnegative by its formula.  A value or err that overflowed (inf, or
    the nan of inf * 0) raises OverflowError."""
    if not (math.isfinite(v) and math.isfinite(e)):
        raise OverflowError(f"float arithmetic overflowed: value {v!r}, err {e!r}")
    n = _new(Number)
    _set_value(n, v)
    _set_err(n, e)
    return n


def _add_product(total: float, err: float, hv: float, he: float, v: float, e: float) -> tuple[float, float]:
    """The value and err of `acc + h * Number.approx(v, e)` for float Numbers
    acc = (total, err) and h = (hv, he), by `*` and `+`'s formulas without
    building a Number: the same bits, and the same errors."""
    if not (math.isfinite(v) and 0.0 <= e < math.inf):
        Number(v, e)
    p = hv * v
    pe = abs(hv) * e + abs(v) * he + he * e + _slop(p)
    if not (math.isfinite(p) and math.isfinite(pe)):
        _approx(p, pe)
    total += p
    err = err + pe + _slop(total)
    if not (math.isfinite(total) and math.isfinite(err)):
        _approx(total, err)
    return total, err


# -- the integer kernel of exact arithmetic ---------------------------------
#
# Operands and results are canonical: lowest terms, positive denominator.


def _frac(n: int, d: int) -> Fraction:
    """Trusted constructor of the Fraction n/d, which must be canonical."""
    f = _new(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _sum(na: int, da: int, nb: int, db: int) -> Fraction:
    """na/da + nb/db: only the common part g of the denominators can
    cancel, and only against gcd(t, g)."""
    g = gcd(da, db)
    if g == 1:
        return _frac(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _frac(t, s * db)
    return _frac(t // g2, s * (db // g2))


def _add_unreduced(n: int, d: int, tn: int, td: int) -> tuple[int, int]:
    """n/d + tn/td, for d, td > 0, left unreduced over the lcm of the two
    denominators: an equal one, or one that divides the other, costs no
    gcd."""
    if td == d:
        return n + tn, d
    q, r = divmod(d, td) if td < d else divmod(td, d)
    if r:
        g = gcd(d, td)
        return n * (td // g) + tn * (d // g), d // g * td
    if td < d:
        return n + tn * q, d
    return n * q + tn, td


def _reduced(n: int, d: int) -> Number:
    """The exact Number n/d, for d > 0, in lowest terms."""
    g = gcd(n, d)
    return _exact(_frac(n // g, d // g))


def _exact_sum(terms) -> Fraction:
    """Σ n/d over the (n, d) pairs, d > 0, as one unreduced sum
    (`_add_unreduced`) reduced once at the end.  Zero numerators are
    skipped, so their denominators never reach the lcm."""
    n, d = 0, 1
    for tn, td in terms:
        if tn:
            n, d = _add_unreduced(n, d, tn, td)
    return _reduced(n, d).value


def _prod(na: int, da: int, nb: int, db: int) -> Fraction:
    """na/da * nb/db, cancelling each numerator against the other
    denominator before multiplying."""
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _frac(na * nb, da * db)


ZERO = Number.exact(0)
ONE = Number.exact(1)


def _negative(p: Number) -> bool:
    """Whether p is negative: exactly, or by more than its err."""
    return p.value < 0 if p.is_exact else float(p.value) < -float(p.err)


def _round_up(x: Fraction) -> float:
    """The least float at or above x."""
    f = float(x)
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


def nsum(items) -> Number:
    """The sum of `items`, left to right.  A run of exact Numbers from the
    start is summed on the kernel without boxing the partial sums; from the
    first other item on, the sum goes through `+`."""
    total = ZERO.value
    items = iter(items)
    for it in items:
        v = it.value if type(it) is Number else None
        if type(v) is Fraction:
            total = _sum(total._numerator, total._denominator, v._numerator, v._denominator)
            continue
        acc = _exact(total) + it
        for it in items:
            acc = acc + it
        return acc
    return _exact(total)


class DigitLimitError(ValueError):
    """An exact value has more digits than the interpreter converts to a
    string (its int-to-str limit, 4300 digits by default)."""


def format_number(n: Number) -> str:
    """Exact values render as 'p/q'; approximate values as a decimal literal.
    An exact value past the int-to-str digit limit raises DigitLimitError."""
    f = n.value
    if isinstance(f, float):
        return repr(float(f))
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError as exc:
        digits = round(max(abs(f.numerator), f.denominator).bit_length() * math.log10(2))
        raise DigitLimitError(
            f"an exact value of about {digits} digits is too long to print"
        ) from exc


def parse_number(s: str) -> Number:
    s = s.strip()
    if "/" in s:
        p, q = s.split("/")
        return Number.exact(int(p), int(q))
    try:
        return Number.exact(int(s))
    except ValueError:
        return Number.approx(float(s))
