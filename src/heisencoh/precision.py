"""Configurable-precision reals and continued fractions.

PrecisionReal keeps either an exact rational (Fraction) or a binary float
man * 2**exp (the integer pair ``man_exp``, in its canonical form: man odd,
or (0, 0) for zero) together with the binary precision it was produced at.
The canonical form is what makes the pair the value: ``__eq__`` compares
``man_exp``, and ``diophantine._phase_grid`` reads the least grid 2**-exp
from it.  Exact inputs are never rounded; scans, divisors, continued
fractions and float() read the stored value exactly (``_bigfloat``), so
every downstream decision is made on exact integers.  The named constants
are evaluated on integers too, and ``fractions`` is imported only where a
Fraction is made, so an irrational input never loads it.
"""

from __future__ import annotations

import math

from . import _bigfloat as bf
from .errors import DomainError, PrecisionError

DEFAULT_PREC = 128

# the most bits a named constant is parsed at: the scans work on integers
# of about that size, at a cost that grows as its square, so a larger
# precision is a DomainError before any work
MAX_PREC = 1 << 13

def _golden(prec):
    """(sqrt(5) - 1) / 2 from sqrt(5) rounded to prec bits, then the difference
    and the halving, both exact; not rounded once, so that 2 golden - sqrt5
    = -1 holds exactly and the CLI names the dependence of golden,sqrt5."""
    man, exp = bf.sub(bf.sqrt((5, 0), prec), (1, 0), prec)
    return man, exp - 1


# (man, exp) of each named constant at prec bits
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

    Immutable; equal when fraction, man_exp and prec are, and hashed as
    that tuple."""

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
        return hash((self.fraction, self.man_exp, self.prec))

    def __repr__(self):
        return (
            f"PrecisionReal(fraction={self.fraction!r}, man_exp={self.man_exp!r}, "
            f"prec={self.prec!r})"
        )

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, value) -> "PrecisionReal":
        from fractions import Fraction

        return cls(Fraction(value), None, None)

    @classmethod
    def coerce(cls, value, prec=DEFAULT_PREC) -> "PrecisionReal":
        if isinstance(value, PrecisionReal):
            return value
        if isinstance(value, str):
            return cls.parse(value, prec)
        from fractions import Fraction

        if isinstance(value, (int, Fraction)):
            return cls.exact(value)
        if isinstance(value, float):
            # a float is an exact binary rational; honour it as such
            return cls.exact(Fraction(value))
        raise DomainError(f"cannot interpret {value!r} as a real number")

    @classmethod
    def parse(cls, text, prec=DEFAULT_PREC) -> "PrecisionReal":
        """Parse 'p/q', a decimal literal, or a named constant.

        Named constants: golden ((sqrt(5)-1)/2), sqrt2, sqrt3, sqrt5, pi, e,
        liouville (sum of 10^-j!, truncated far below the working precision);
        each needs 64 <= prec <= MAX_PREC.
        """
        t = text.strip().lower()
        if not t:
            raise DomainError("empty number")
        if t == "liouville" or t in _NAMED:
            if prec < 64:
                raise DomainError("precision must be at least 64 bits")
            if prec > MAX_PREC:
                raise DomainError(f"precision must be at most {MAX_PREC} bits")
        if t == "liouville":
            return liouville_constant(prec)
        if t in _NAMED:
            return cls(None, _NAMED[t](int(prec)), int(prec))
        from fractions import Fraction

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

    def __float__(self):
        """The stored value rounded once to a double, subnormals included;
        +-inf beyond the largest double."""
        x = self.fraction if self.man_exp is None else bf.fraction(self.man_exp)
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf

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
    from fractions import Fraction

    cutoff = Fraction(1, 1 << (prec + 40))
    total = Fraction(0)
    j = 1
    while True:
        term = Fraction(1, 10 ** math.factorial(j))
        if term < cutoff:
            break
        total += term
        j += 1
    return PrecisionReal(total, None, prec)


# ---------------------------------------------------------------------------
# continued fractions


def continued_fraction(x, depth) -> list[int]:
    """Partial quotients [a0; a1, a2, ...] of x, at most `depth` of them.

    Exact rationals terminate naturally.  An inexact value stands for every
    real within max(1, |x|) 2^-prec of it; the expansion follows both ends
    of that interval exactly, and where they part a PrecisionError is raised
    rather than guessing, so each quotient returned is proved.
    """
    if depth < 1:
        raise DomainError("depth must be positive")
    x = PrecisionReal.coerce(x)
    # the stored value v and its declared resolution eps, both exact (an
    # exact value is the interval of width 0): the endpoints v -+ eps are
    # a/b <= c/d, and each step maps both through y -> 1 / (y - a_j), so a
    # quotient is returned only when every real of the interval has it
    if x.exact_value:
        v, eps = x.fraction, 0
    else:
        v, prec = bf.fraction(x.man_exp), x.prec
        from fractions import Fraction

        eps = Fraction(max(1, abs(v)), 1 << prec)  # a Fraction even when max gives 1
    (a, b), (c, d) = (v - eps).as_integer_ratio(), (v + eps).as_integer_ratio()
    quotients = []
    for _ in range(depth):
        q = a // b
        if q != c // d:
            raise PrecisionError(
                f"continued fraction ambiguous after {len(quotients)} terms "
                f"at {prec} bits; increase the precision"
            )
        quotients.append(q)
        if a == q * b:
            # the exact remainder vanishes: an exact value ends here
            if x.exact_value:
                break
            raise PrecisionError(
                f"cannot certify the expansion beyond {len(quotients)} terms "
                f"at {prec} bits"
            )
        a, b, c, d = d, c - q * d, b, a - q * b
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
