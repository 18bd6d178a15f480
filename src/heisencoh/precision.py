"""Configurable-precision reals and continued fractions.

PrecisionReal keeps either an exact rational (Fraction) or a binary float
man * 2**exp (the integer pair ``man_exp``, with man odd as mpmath
normalises it) together with the binary precision it was produced at.
Exact inputs are never rounded; scans and divisor computations read the
stored value exactly (``diophantine._phase_grid``) so all downstream
decisions are made on exact integers.  The named constants are evaluated
on integers (``_bigfloat``); mpmath is loaded only by the views and
constructors that hand out or take in an mpmath float.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from fractions import Fraction

from . import _bigfloat as bf
from .errors import DomainError, PrecisionError

DEFAULT_PREC = 128

# mpmath's working precision is process-global mutable state; every use in
# this package goes through this guard so concurrent callers cannot corrupt
# each other's precision
_MP_LOCK = threading.RLock()


@contextmanager
def mp_prec(bits):
    import mpmath

    with _MP_LOCK:
        with mpmath.workprec(bits):
            yield


def _golden(prec):
    """(sqrt(5) - 1) / 2 in mpmath's steps: sqrt(5) and the difference
    rounded, the halving exact."""
    man, exp = bf.sub(bf.sqrt((5, 0), prec), (1, 0), prec)
    return man, exp - 1


# (man, exp) of each named constant at prec bits, as mpmath rounds it there
_NAMED = {
    "golden": _golden,
    "sqrt2": lambda p: bf.sqrt((2, 0), p),
    "sqrt3": lambda p: bf.sqrt((3, 0), p),
    "sqrt5": lambda p: bf.sqrt((5, 0), p),
    "pi": bf.pi,
    "e": bf.e,
}


class PrecisionReal:
    """A real number: exact Fraction, or man * 2**exp resolved to `prec` bits.

    Immutable; equal when fraction, value and prec are, and hashed as the
    tuple (fraction, value, prec)."""

    __slots__ = ("fraction", "man_exp", "prec")

    def __init__(self, fraction, man_exp, prec):
        set_ = object.__setattr__
        set_(self, "fraction", fraction)
        set_(self, "man_exp", man_exp)  # None for exact values
        set_(self, "prec", prec)        # None for exact values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return PrecisionReal, (self.fraction, self.man_exp, self.prec)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.fraction, self.man_exp, self.prec) == (
            other.fraction, other.man_exp, other.prec
        )

    def __hash__(self):
        value = None if self.man_exp is None else bf.fraction(self.man_exp)
        return hash((self.fraction, value, self.prec))

    def __repr__(self):
        return (
            f"PrecisionReal(fraction={self.fraction!r}, man_exp={self.man_exp!r}, "
            f"prec={self.prec!r})"
        )

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, value) -> "PrecisionReal":
        return cls(Fraction(value), None, None)

    @classmethod
    def from_mpf(cls, value, prec) -> "PrecisionReal":
        """value rounded to `prec` bits, whatever mpmath's working precision."""
        if prec < 64:
            raise DomainError("precision must be at least 64 bits")
        import mpmath

        with mp_prec(prec):
            value = mpmath.mpf(value)
        sign, man, exp, _ = value._mpf_
        return cls(None, (-man if sign else man, exp), int(prec))

    @classmethod
    def coerce(cls, value, prec=DEFAULT_PREC) -> "PrecisionReal":
        if isinstance(value, PrecisionReal):
            return value
        if isinstance(value, (int, Fraction)):
            return cls.exact(value)
        if isinstance(value, str):
            return cls.parse(value, prec)
        if isinstance(value, float):
            # a float is an exact binary rational; honour it as such
            return cls.exact(Fraction(value))
        # no mpmath float exists before mpmath is loaded
        mpmath = sys.modules.get("mpmath")
        if mpmath is not None and isinstance(value, mpmath.mpf):
            return cls.from_mpf(value, prec)
        raise DomainError(f"cannot interpret {value!r} as a real number")

    @classmethod
    def parse(cls, text, prec=DEFAULT_PREC) -> "PrecisionReal":
        """Parse 'p/q', a decimal literal, or a named constant.

        Named constants: golden ((sqrt(5)-1)/2), sqrt2, sqrt3, sqrt5, pi, e,
        liouville (sum of 10^-j!, truncated far below the working precision).
        """
        t = text.strip().lower()
        if not t:
            raise DomainError("empty number")
        if t == "liouville":
            return liouville_constant(prec)
        if t in _NAMED:
            if prec < 64:
                raise DomainError("precision must be at least 64 bits")
            return cls(None, _NAMED[t](int(prec)), int(prec))
        try:
            if "/" in t:
                num, den = t.split("/")
                return cls.exact(Fraction(int(num), int(den)))
            return cls.exact(Fraction(t))
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse number {text!r}: {exc}") from None

    # -- views ---------------------------------------------------------

    @property
    def exact_value(self) -> bool:
        return self.fraction is not None

    @property
    def approx(self):
        """The inexact value as an mpmath float, exactly; None when exact."""
        if self.man_exp is None:
            return None
        from mpmath import mp
        from mpmath.libmp import from_man_exp

        return mp.make_mpf(from_man_exp(*self.man_exp))

    def mpf(self, prec=None):
        import mpmath

        with mp_prec(prec or self.prec or DEFAULT_PREC):
            if self.fraction is not None:
                return mpmath.mpf(self.fraction.numerator) / self.fraction.denominator
            return +self.approx

    def __float__(self):
        return float(self.mpf(64))

    def fractional_part(self) -> "PrecisionReal":
        if self.fraction is not None:
            f = self.fraction - (self.fraction.numerator // self.fraction.denominator)
            return PrecisionReal(f, None, self.prec)
        # x - floor(x) rounded to prec + 8 bits; exact unless x < 0 is tiny
        man, exp = self.man_exp
        frac = man - (man >> -exp << -exp) if exp < 0 else 0
        return PrecisionReal(None, bf.normalize(frac, exp, self.prec + 8), self.prec)


def liouville_constant(prec=DEFAULT_PREC) -> PrecisionReal:
    """sum_{j>=1} 10^-j!, truncated once the tail drops below 2^-(prec+40).

    The truncation is stored exactly as a rational; for scans bounded well
    below the truncation denominator it is indistinguishable from the full
    series.  The declared resolution is prec bits.
    """
    cutoff = Fraction(1, 1 << (prec + 40))
    total = Fraction(0)
    j = 1
    while True:
        term = Fraction(1, 10 ** _factorial(j))
        if term < cutoff:
            break
        total += term
        j += 1
    return PrecisionReal(total, None, prec)


def _factorial(j):
    out = 1
    for i in range(2, j + 1):
        out *= i
    return out


# ---------------------------------------------------------------------------
# continued fractions


def continued_fraction(x, depth) -> list[int]:
    """Partial quotients [a0; a1, a2, ...] of x, at most `depth` of them.

    Exact rationals terminate naturally.  For floating values the expansion
    is tracked with interval arithmetic; when the interval no longer pins the
    next quotient a PrecisionError is raised rather than guessing.
    """
    if depth < 1:
        raise DomainError("depth must be positive")
    x = PrecisionReal.coerce(x)
    if x.exact_value:
        quotients = []
        frac = x.fraction
        num, den = frac.numerator, frac.denominator
        while den and len(quotients) < depth:
            a, num = divmod(num, den)
            quotients.append(int(a))
            num, den = den, num
        return quotients

    import mpmath

    prec = x.prec
    with mp_prec(prec + 16):
        err = mpmath.ldexp(max(mpmath.mpf(1), abs(x.approx)), -prec)
        lo = x.approx - err
        hi = x.approx + err
        quotients = []
        for _ in range(depth):
            alo = mpmath.floor(lo)
            ahi = mpmath.floor(hi)
            if alo != ahi:
                raise PrecisionError(
                    f"continued fraction ambiguous after {len(quotients)} terms "
                    f"at {prec} bits; increase the precision"
                )
            quotients.append(int(alo))
            flo = lo - alo
            fhi = hi - alo
            if flo <= 0:
                raise PrecisionError(
                    f"cannot certify the expansion beyond {len(quotients)} terms "
                    f"at {prec} bits"
                )
            lo, hi = 1 / fhi, 1 / flo
        return quotients


def convergents(quotients) -> list[tuple[int, int]]:
    """Convergents p_j/q_j from partial quotients, exact."""
    out = []
    p0, q0, p1, q1 = 1, 0, quotients[0] if quotients else 0, 1
    if quotients:
        out.append((p1, q1))
    for a in quotients[1:]:
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((p1, q1))
    return out
