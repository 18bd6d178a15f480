import math
from fractions import Fraction

import mpmath
import pytest

from heisencoh import _bigfloat as bf
from heisencoh.diophantine import _phase_grid
from heisencoh.errors import DomainError, PrecisionError
from heisencoh.precision import (
    PrecisionReal,
    continued_fraction,
    convergents,
    liouville_constant,
)
from test_bigfloat import mpf_real


def test_parse_forms():
    assert PrecisionReal.parse("3/7").fraction == Fraction(3, 7)
    assert PrecisionReal.parse("0.25").fraction == Fraction(1, 4)
    assert PrecisionReal.parse("-2").fraction == -2
    g = PrecisionReal.parse("golden", 128)
    assert not g.exact_value and g.prec == 128
    with mpmath.workprec(130):
        assert abs(mpf_real(g, 130) - (mpmath.sqrt(5) - 1) / 2) < mpmath.mpf(2) ** -120
    with pytest.raises(DomainError):
        PrecisionReal.parse("1/0")
    with pytest.raises(DomainError):
        PrecisionReal.parse("nonsense")


def test_coerce_types():
    assert PrecisionReal.coerce(Fraction(1, 3)).exact_value
    assert PrecisionReal.coerce(5).fraction == 5
    assert PrecisionReal.coerce(0.5).fraction == Fraction(1, 2)
    r = PrecisionReal.coerce(PrecisionReal.exact(2))
    assert r.fraction == 2


def test_phase_grid_is_exact():
    # U_i / L is each stored value exactly: p/q as it is, an mpf as man * 2^exp
    comps = [
        PrecisionReal.exact(Fraction(1, 3)),
        PrecisionReal.parse("golden", 128),
        PrecisionReal.exact(Fraction(-5, 14)),
        PrecisionReal.parse("e", 256),
        liouville_constant(128),
        PrecisionReal.parse("pi", 64),
        PrecisionReal.exact(0),
    ]
    for vec in [[c] for c in comps] + [comps, comps[:2], comps[2:4]]:
        scaled, modulus = _phase_grid(vec)
        for u, c in zip(scaled, vec):
            man, exp = (0, 0) if c.exact_value else mpf_real(c).man_exp
            stored = c.fraction if c.exact_value else man * Fraction(2) ** exp
            assert Fraction(u, modulus) == stored
    assert _phase_grid([comps[0]]) == ([1], 3)
    scaled, modulus = _phase_grid(comps[1:2])
    with mpmath.workprec(260):
        err = abs(mpmath.mpf(scaled[0]) / modulus - (mpmath.sqrt(5) - 1) / 2)
        assert err < mpmath.mpf(2) ** -126


def test_phase_grid_keeps_the_sign_of_an_inexact_value():
    # the float -0.3 is exact at 64 bits; its phase is read as -0.3, not 0.3
    x = mpf_real(mpmath.mpf(-0.3), 64)
    scaled, modulus = _phase_grid([x])
    assert Fraction(scaled[0], modulus) == Fraction(-0.3)


def test_fractional_part():
    assert PrecisionReal.exact(Fraction(7, 4)).fractional_part().fraction == Fraction(3, 4)
    assert PrecisionReal.exact(Fraction(-1, 4)).fractional_part().fraction == Fraction(3, 4)


def test_liouville_constant_truncation():
    t = liouville_constant(128)
    assert t.exact_value
    # 0.110001 + 1e-24 tail head
    assert t.fraction == Fraction(110001000000000000000001, 10**24)
    t2 = liouville_constant(420)
    assert t2.fraction.denominator == 10**120


def test_continued_fraction_golden():
    g = PrecisionReal.parse("golden", 160)
    # (sqrt(5)-1)/2 = [0; 1, 1, 1, ...]
    q = continued_fraction(g, 30)
    assert q[0] == 0 and all(a == 1 for a in q[1:])
    phi = mpf_real(mpmath.mpf(1) + mpf_real(g, 160), 160)
    assert all(a == 1 for a in continued_fraction(phi, 30))


def test_continued_fraction_rational_terminates():
    assert continued_fraction(Fraction(22, 7), 10) == [3, 7]
    assert continued_fraction(Fraction(0), 5) == [0]


def test_continued_fraction_sqrt2():
    x = PrecisionReal.parse("sqrt2", 192)
    q = continued_fraction(x, 40)
    assert q[0] == 1 and all(a == 2 for a in q[1:])
    # convergents approximate to better than 1/q^2
    with mpmath.workprec(250):
        root2 = mpmath.sqrt(2)
        for p, den in convergents(q):
            assert abs(root2 - mpmath.mpf(p) / den) < mpmath.mpf(1) / (den * den)


def test_continued_fraction_precision_exhaustion():
    x = mpf_real(mpmath.mpf(2) ** 0.5, 64)
    with pytest.raises(PrecisionError):
        continued_fraction(x, 200)  # 64 bits cannot certify 200 quotients


def _exact_quotients(v):
    """Every partial quotient of the rational v, by Euclid's algorithm."""
    num, den = v.numerator, v.denominator
    out = []
    while den:
        a, num = divmod(num, den)
        out.append(a)
        num, den = den, num
    return out


@pytest.mark.parametrize("prec", [64, 128, 256])
@pytest.mark.parametrize("name", ["golden", "sqrt2", "sqrt3", "sqrt5", "pi", "e"])
def test_continued_fraction_is_proved(name, prec):
    # x stands for every real within eps = max(1, |x|) 2^-prec of it: each
    # quotient returned is one of both endpoints x -+ eps, and the expansion
    # stops where theirs first part
    x = PrecisionReal.parse(name, prec)
    man, exp = x.man_exp
    v = man * Fraction(2) ** exp
    eps = max(Fraction(1), abs(v)) / 2**prec
    lo, hi = _exact_quotients(v - eps), _exact_quotients(v + eps)
    part = next(i for i, (a, b) in enumerate(zip(lo, hi)) if a != b)
    assert continued_fraction(x, part) == lo[:part] == hi[:part]
    with pytest.raises(PrecisionError, match=f"ambiguous after {part} terms at {prec} bits"):
        continued_fraction(x, part + 1)


def test_float_rounds_once():
    # (5.5 - 2^-60) 2^-1074 is nearest to 5 2^-1074; rounding it to 53 bits
    # first would give the tie 5.5 2^-1074 and then 6 2^-1074
    tiny = PrecisionReal(None, ((11 << 59) - 1, -1134), 64)
    assert float(tiny) == float(PrecisionReal.exact(bf.fraction(tiny.man_exp))) == 5 * 2.0**-1074
    assert float(PrecisionReal(None, (-1, -2000), 64)) == 0.0
    assert math.copysign(1, float(PrecisionReal(None, (-1, -2000), 64))) == -1
    # beyond the largest double both kinds of value give +-inf, as mpmath does
    for text in ("1e400", "-1e400"):
        assert float(PrecisionReal.parse(text)) == float(mpmath.mpf(text))
    assert float(PrecisionReal(None, (-3, 1100), 64)) == -math.inf
    assert float(PrecisionReal(None, ((1 << 53) - 1, 971), 64)) == 1.7976931348623157e308
    for name in ("golden", "sqrt2", "pi", "e"):
        x = PrecisionReal.parse(name, 128)
        assert float(x) == float(mpf_real(x))


def test_liouville_convergents_include_power_denominators():
    t = liouville_constant(128)
    q = continued_fraction(t, 40)
    dens = {den for _, den in convergents(q)}
    assert 100 in dens and 10**6 in dens
    # the 10^6 convergent has error ~1e-24, i.e. approximation exponent 4
    with mpmath.workprec(200):
        tv = mpf_real(t, 200)
        p = min((p for p, d in convergents(q) if d == 10**6), key=lambda p: abs(p))
        err = abs(tv - mpmath.mpf(p) / 10**6)
        assert mpmath.mpf(10) ** -25 < err < mpmath.mpf(10) ** -23


def test_convergents_recurrence():
    q = [2, 1, 3, 5]
    cs = convergents(q)
    assert cs[0] == (2, 1)
    # p_j / q_j reproduces the finite fraction
    val = Fraction(q[-1])
    for a in reversed(q[:-1]):
        val = a + 1 / val
    assert Fraction(*cs[-1]) == val


def test_depth_validation():
    with pytest.raises(DomainError):
        continued_fraction(Fraction(1, 2), 0)
