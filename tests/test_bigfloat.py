"""The integer floating point of ``classify`` against mpmath as the reference.

Each 100-bit value of ``classify`` (the distance, divisor, weight, witness
bound and exponent) is a chain of roundings, and each step must give the
value mpmath's context gives at the same precision.  Steps that mpmath does
exactly or by a fixed procedure (conversion, product, quotient, difference,
square root, integer and half-integer powers) are compared with mpmath's own
function.  sin, log and exp are compared with mpmath's value evaluated with
300 more bits and rounded once: mpmath's own 100-bit sin and exp carry only
10 and 14 guard bits, so they are one unit off the correctly rounded value
for about one argument in 10^3 and 10^4, and this module rounds correctly.
Every comparison is of exact values, Fraction(man) * 2**exp.
"""

import math
import pickle
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import (
    fone, from_float, from_int, from_man_exp, mpf_cos_sin, mpf_div, mpf_exp, mpf_log, mpf_mul,
    mpf_pi, mpf_pow, mpf_shift, mpf_sin, mpf_sub, normalize, round_nearest,
)

from heisencoh import _bigfloat as bf
from heisencoh.diophantine import (
    _CLASSIFY_PREC, _divisor, _exponent, _level_bound, _weighted, WITNESS_TOL_BITS,
)
from heisencoh.precision import PrecisionReal, liouville_constant

P = _CLASSIFY_PREC
RN = round_nearest


def _value(x):
    """The exact value of a raw mpf or of a (man, exp) pair."""
    if len(x) == 4:
        sign, man, exp, _ = x
        man = -man if sign else man
    else:
        man, exp = x
    return man * Fraction(2) ** exp


def _rounded(f, x, prec):
    """mpmath's f(x) correctly rounded at prec bits (one rounding of its
    value at prec + 300 bits)."""
    return normalize(*f(x, prec + 300, RN), prec, RN)


# mpmath's steps of each chain, transcendental steps correctly rounded


def _ref_divisor(rp, modulus):
    d = mpf_div(from_int(rp, P, RN), from_int(modulus), P, RN)
    x = mpf_mul(mpf_pi(P, RN), d, P, RN)
    return d, mpf_shift(_rounded(mpf_sin, x, P), 1)


def _ref_power(norm, s):
    """mpmath's mpf_pow(norm, s) at P bits: its own steps for integer and
    half-integer s, else exp(s log norm) with log at P + 10 bits."""
    b, t = from_int(norm), from_float(s)
    if t[2] >= -1:
        return mpf_pow(b, t, P, RN)
    return _rounded(mpf_exp, mpf_mul(t, _rounded(mpf_log, b, P + 10)), P)


def _ref_weighted(rp, norm, s, modulus):
    return mpf_mul(_ref_power(norm, s), _ref_divisor(rp, modulus)[1], P, RN)


def _ref_level_bound(modulus, norm, s):
    tol = from_float(1 + 2.0**-WITNESS_TOL_BITS)
    v = _value(mpf_mul(_ref_power(norm, -s), tol, P, RN))
    return math.floor(modulus * v)


def _ref_exponent(d, norm):
    ratio = mpf_div(_rounded(mpf_log, d, P), _rounded(mpf_log, from_int(norm), P), P, RN)
    return mpf_sub(fone, ratio, P, RN)


def _cases(seed, count):
    """(r', L, |k|, s): L up to 2**260, r' <= L / 2, |k| to 2**40, integer,
    half-integer and other s; every fifth r' is a tie when rounded to P bits
    (P + 1 odd bits), and |k|**s is a tie at P bits for odd |k| of about
    P / s bits."""
    r = random.Random(seed)
    for i in range(count):
        modulus = r.choice([
            r.randint(2, 10**6), r.getrandbits(128) | 1, r.getrandbits(192),
            113 << r.randint(0, 200), r.getrandbits(r.randint(101, 260)) | 1 << 100,
        ])
        rp = r.randint(1, modulus // 2) if modulus > 1 else 1
        if i % 5 == 0 and modulus > 1 << (P + 2):
            rp = r.getrandbits(P) | 1 << P | 1  # P + 1 bits, the last one set
        s = r.choice([
            float(r.randint(1, 12)), r.randint(1, 24) / 2, r.uniform(0.5, 8),
            r.uniform(0.5, 1024), float(r.randint(1, 1024)),
        ])
        norm = r.choice([
            1, 2, r.randint(2, 64), r.randint(2, 10**6), r.randint(2, 2**40), 1 << r.randint(1, 40),
        ])
        if i % 7 == 0:
            s = float(r.choice([2, 3, 4]))
            bits = -(-(P + 1) // int(s))
            norm = r.getrandbits(bits) | 1 << (bits - 1) | 1
        yield rp, modulus, norm, s


def test_chains_equal_mpmath_steps():
    n_cases = n_ties = 0
    for rp, modulus, norm, s in _cases(7, 2400):
        n_cases += 1
        n_ties += rp.bit_length() == P + 1 and rp & 1
        d, div = _divisor(rp, modulus)
        ref_d, ref_div = _ref_divisor(rp, modulus)
        assert bf.fraction(d) == _value(ref_d), (rp, modulus)
        assert bf.fraction(div) == _value(ref_div), (rp, modulus)
        assert bf.fraction(bf.power(norm, s, P)) == _value(_ref_power(norm, s)), (norm, s)
        case = (rp, modulus, norm, s)
        got = _weighted(rp, norm, s, modulus)
        assert bf.fraction(got) == _value(_ref_weighted(rp, norm, s, modulus)), case
        if not s.is_integer():
            assert _level_bound(modulus, norm, s) == _ref_level_bound(modulus, norm, s), case
        if norm >= 2:
            assert bf.fraction(_exponent(d, norm)) == _value(_ref_exponent(ref_d, norm)), case
    assert n_cases >= 2000 and n_ties >= 100


def test_integer_and_half_integer_powers_are_mpmaths_own():
    # mpf_pow_int powers a mantissa of bc bits exactly while bc * n < 1000
    # and by truncated binary powering above; both paths, both signs
    r = random.Random(3)
    for _ in range(1500):
        norm = r.choice([r.randint(1, 100), r.randint(2, 2**40), 1 << r.randint(0, 40)])
        s = r.choice([float(r.randint(1, 1024)), r.randint(1, 2048) / 2])
        for t in (s, -s):
            want = mpf_pow(from_int(norm), from_float(t), P, RN)
            assert bf.fraction(bf.power(norm, t, P)) == _value(want), (norm, t)


@pytest.mark.parametrize("f, ref", [(bf.sin, mpf_sin), (bf.log, mpf_log), (bf.exp, mpf_exp)])
def test_transcendental_steps_are_correctly_rounded(f, ref):
    r = random.Random(11)
    for _ in range(1500):
        prec = r.choice([64, 100, 110, 200])
        man = r.getrandbits(prec) | 1
        if f is bf.sin:  # 0 < x <= 2
            x = (man, -prec + 1 - r.choice([0, 0, r.randint(1, 300)]))
        elif f is bf.log:
            x = (man, r.randint(-400, 100))
        else:
            x = (man * r.choice([1, -1]), -prec + r.randint(-20, 14))
        want = _rounded(ref, from_man_exp(*x), prec)
        assert bf.fraction(f(x, prec)) == _value(want), (x, prec)


def test_sin_differs_from_mpmath_only_where_mpmath_misrounds():
    # where mpmath's own 100-bit sin differs from this one, it is mpmath's
    # that is off: one unit from the correctly rounded value
    r = random.Random(5)
    misrounded = 0
    for _ in range(3000):
        x = (r.getrandbits(P) | 1, -P + 1)
        own = _value(mpf_sin(from_man_exp(*x), P, RN))
        got = bf.fraction(bf.sin(x, P))
        if own != got:
            misrounded += 1
            assert got == _value(_rounded(mpf_sin, from_man_exp(*x), P))
            assert abs(own - got) <= got * Fraction(2) ** (1 - P)
    assert misrounded < 30


def _cos_sin_arguments(seed, count):
    """(x, prec) with 0 < x <= 2 of at most prec bits: spread over [2**-300, 2],
    on both sides of pi / 2 within a few units, and below 2**-60."""
    r = random.Random(seed)
    for i in range(count):
        prec = r.choice([53, 64, 80, 100, 128])
        man = r.getrandbits(prec) | 1 << (prec - 1) | 1
        kind = i % 4
        if kind == 0:  # [1/2, 2)
            yield (man, 1 - prec - r.randint(0, 1)), prec
        elif kind == 1:  # pi / 2 rounded, and a few units either side
            pm, pe = bf.pi(prec)
            yield bf.normalize(pm + r.randint(-4, 4), pe - 1, prec), prec
        elif kind == 2:  # below 2**-60
            yield (man, -prec - r.randint(60, 300)), prec
        else:
            yield (man, -prec - r.randint(0, 60)), prec


def test_cos_sin_is_correctly_rounded():
    # mpmath's cos and sin at 400 bits rounded once at prec; x of at most
    # prec bits, so that rounding lands on no tie
    negative_cos = tiny = 0
    for x, prec in _cos_sin_arguments(13, 4400):
        want_c, want_s = (_value(normalize(*v, prec, RN))
                          for v in mpf_cos_sin(from_man_exp(*x), 400, RN))
        c, s = bf.cos_sin(x, prec)
        assert (bf.fraction(c), bf.fraction(s)) == (want_c, want_s), (x, prec)
        assert bf.sin(x, prec) == s
        negative_cos += c[0] < 0
        tiny += x[0].bit_length() + x[1] < -60
    assert negative_cos >= 100 and tiny >= 1000
    assert bf.cos_sin((0, 0), 80) == ((1, 0), (0, 0))


@pytest.mark.parametrize("name, expr", [
    ("golden", lambda: (mpmath.sqrt(5) - 1) / 2),
    ("sqrt2", lambda: mpmath.sqrt(2)),
    ("sqrt3", lambda: mpmath.sqrt(3)),
    ("sqrt5", lambda: mpmath.sqrt(5)),
    ("pi", lambda: mpmath.pi + 0),
    ("e", lambda: mpmath.e + 0),
])
def test_named_constants_equal_mpmath(name, expr):
    for prec in [*range(64, 601), 1024, 2048]:
        with mpmath.workprec(prec):
            want = expr()
        x = PrecisionReal.parse(name, prec)
        assert x.man_exp == want.man_exp and x.prec == prec, prec
        assert x.approx == want


def test_fractional_part_equals_mpmath():
    r = random.Random(9)
    for _ in range(2000):
        prec = r.choice([64, 100, 128, 256, 1000])
        value = mpmath.mpf((r.getrandbits(prec) | 1) * r.choice([1, -1]), prec=prec)
        value = mpmath.ldexp(value, r.randint(-prec - 300, 40))
        x = PrecisionReal.from_mpf(value, prec)
        with mpmath.workprec(prec + 8):
            want = x.approx - mpmath.floor(x.approx)
        got = x.fractional_part()
        assert (got.man_exp, got.prec) == (want.man_exp, prec)


def test_equality_hash_and_pickle_are_the_fields():
    g = PrecisionReal.parse("golden", 128)
    q = PrecisionReal.exact(Fraction(1, 3))
    for x in (g, q, liouville_constant(128), g.fractional_part(), PrecisionReal.parse("pi", 64)):
        same = pickle.loads(pickle.dumps(x))
        assert same == x and hash(same) == hash(x)
        # the hash of the old (fraction, mpf, prec) record
        assert hash(x) == hash((x.fraction, x.approx, x.prec))
    assert g == PrecisionReal.parse("golden", 128) != PrecisionReal.parse("golden", 129)
    assert g != q and g != g.approx
    with pytest.raises(AttributeError):
        g.prec = 64
