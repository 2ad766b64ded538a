"""Output checks against the reference, and the counts they collect."""

from __future__ import annotations

from fractions import Fraction

# Float results must sit this close to the reference even when their error
# bound fails to enclose it; anything further away is a wrong value.  The
# relative term covers rounding of the central value (2^-52 per operation).
_SANE_FACTOR = 1000
_SANE_RELATIVE = 2.0 ** -40
# The one exception: the library documents that its quadrature estimate can
# be defeated by an indicator integrand, whose jump may fall between the
# samples of a cell and go unseen (quadrature.py).  An indicator integral
# beyond the margin above is a gross miss, counted; only one off by more
# than this share of max(1, |reference|) is wrong.
_INDICATOR_RELATIVE = 1e-2
# operands kept for the traced run's `numbers` microkernels
OPERAND_CAP = 48


class Mismatch(Exception):
    """A returned value disagrees with the reference: the run is aborted."""


class Refused(Exception):
    """The library declined to answer (a solver refusal, an integration
    budget exhausted, or CLI exit code 1 with the countable solver's
    refusal message)."""


class Checker:
    """Compares one run's results with the reference and keeps the counts
    the metrics are made of."""

    def __init__(self):
        self.values = 0
        self.exact = 0
        self.bound_misses: dict = {}
        self.gross_misses = 0
        self._max_den = 1
        self.err_ratios: list = []  # reported error / requested tolerance
        self.fractions: list = []
        self.floats: list = []

    def _sample(self, got) -> None:
        if got.is_exact:
            v = got.value
            self._max_den = max(self._max_den, v.denominator)
            if len(self.fractions) < OPERAND_CAP and v.denominator > 1:
                self.fractions.append(v)
        elif len(self.floats) < OPERAND_CAP:
            self.floats.append(float(got.value))

    @property
    def max_den_digits(self) -> int:
        return len(str(self._max_den))

    def value(self, label: str, got, want, want_err=0.0, tol=0.0, layer="occupation", indicator=False) -> None:
        """`got` (a library Number) against `want` (a Fraction, or a float
        carrying its own error `want_err`).  Exact results must match exactly
        when `want` is exact; float results must lie within their reported
        error, otherwise they count as a bound miss of `layer`, and beyond a
        sanity margin they are wrong (for the integral of an `indicator`
        integrand, a gross miss up to a wider margin)."""
        self.values += 1
        self._sample(got)
        want_q = Fraction(want)
        slack = Fraction(want_err)
        if got.is_exact:
            self.exact += 1
            if abs(got.value - want_q) > slack:
                raise Mismatch(f"{label}: got exact {got.value}, reference {want}")
            return
        self._check_float(label, float(got.value), float(got.err), want_q, slack, tol, layer, indicator)

    def _check_float(self, label, value: float, err: float, want: Fraction, slack: Fraction, tol, layer,
                     indicator) -> None:
        gap = abs(Fraction(value) - want)
        if gap > Fraction(err) + slack:
            self.bound_misses[layer] = self.bound_misses.get(layer, 0) + 1
        scale = max(1.0, abs(float(want)))
        if gap <= Fraction(_SANE_FACTOR * (err + float(slack) + tol) + _SANE_RELATIVE * scale):
            return
        if indicator and gap <= Fraction(_INDICATOR_RELATIVE * scale):
            self.gross_misses += 1
            return
        raise Mismatch(f"{label}: got {value!r} (err {err:.3g}), reference {float(want)!r}")

    def count_value(self, got) -> None:
        """A returned number checked elsewhere (as part of an interval)."""
        self.values += 1
        self._sample(got)
        if got.is_exact:
            self.exact += 1

    @staticmethod
    def equal(label: str, got, want) -> None:
        if got != want:
            raise Mismatch(f"{label}: got {got!r}, reference {want!r}")
