"""The correctly rounded values of ``classify`` against mpmath as the oracle.

Every value ``classify`` reports (the distance, divisor, weight |k|^s *
divisor, witness bound and exponent) is the correctly rounded double, or
the exact floor, of its exact quantity.  The oracle is mpmath at 400 bits
or more, rounded once to a double through ``rounded_once`` (``float(mpf)``
would round a subnormal twice), with ``sinpi`` so that the phase is taken
exactly; where the value is rational the oracle is exact integers.  Every
comparison is an equality, never a tolerance.  The series of ``_bigfloat``
are checked the same way: rounded by ``ziv`` at any precision, each gives
the value mpmath gives with 300 more bits, rounded once.
"""

import math
import pickle
import random
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from mpmath.libmp import (
    from_man_exp, from_rational, mpf_exp, mpf_log, mpf_sin, normalize, round_nearest,
)

from heisencoh import _bigfloat as bf
from heisencoh.diophantine import (
    WITNESS_TOL_BITS, _divisor, _double, _exponent, _level_bound, _power, _weighted,
)
from heisencoh.precision import PrecisionReal, liouville_constant

RN = round_nearest


def rounded_once(x):
    """The mpf x rounded once to the nearest double (+-inf beyond the largest)."""
    man, exp = x.man_exp
    try:
        return float(man * Fraction(2) ** exp)
    except OverflowError:
        return math.copysign(math.inf, man)


def mpf_real(x, prec=None):
    """The oracles' conversion: a PrecisionReal x as an mpf, exactly or (an
    exact x always) rounded once to prec bits; an mpf x as the inexact
    PrecisionReal rounded once to prec bits, whatever mpmath's precision."""
    if isinstance(x, PrecisionReal):
        if x.exact_value:
            return mpmath.mp.make_mpf(from_rational(*x.fraction.as_integer_ratio(), prec, RN))
        return mpmath.mp.make_mpf(from_man_exp(*x.man_exp, prec, RN))
    sign, man, exp, _ = mpmath.mpf(x, prec=prec, rounding="n")._mpf_
    return PrecisionReal(None, (-man if sign else man, exp), prec)


def _value(x):
    """The exact value of a raw mpf or of a (man, exp) pair."""
    if len(x) == 4:
        sign, man, exp, _ = x
        man = -man if sign else man
    else:
        man, exp = x
    return man * Fraction(2) ** exp


def _cases(seed, count):
    """(r', L, |k|, s): L up to 2**260, r' <= L / 2, |k| to 2**40, integer,
    half-integer and other s; every seventh |k|**s has about 54 bits for
    an odd |k|, and every fourteenth is doubled at r' / L = 1/2, where the
    value is exact and can be a tie of two doubles."""
    r = random.Random(seed)
    for i in range(count):
        modulus = r.choice([
            r.randint(2, 10**6), r.getrandbits(128) | 1, r.getrandbits(192),
            113 << r.randint(0, 200), r.getrandbits(r.randint(101, 260)) | 1 << 100,
        ])
        rp = r.randint(1, modulus // 2)
        s = r.choice([
            float(r.randint(1, 12)), r.randint(1, 24) / 2, r.uniform(0.5, 8),
            r.uniform(0.5, 1024), float(r.randint(1, 1024)),
        ])
        norm = r.choice([
            1, 2, r.randint(2, 64), r.randint(2, 10**6), r.randint(2, 2**40), 1 << r.randint(1, 40),
        ])
        if i % 7 == 0:
            s = float(r.choice([2, 3, 4]))
            bits = -(-54 // int(s))
            norm = r.getrandbits(bits) | 1 << (bits - 1) | 1
            if i % 14 == 0:
                modulus, rp = 2 * modulus, modulus
        yield rp, modulus, norm, s


def _exact_power(norm, s):
    """norm**s as an exact integer where it is one (s = m / 2**j, norm a
    2**j-th power), else None; by integer roots, not by the code under test."""
    m, q = s.as_integer_ratio()
    if norm == 1 or q > norm.bit_length():
        return 1 if norm == 1 else None
    root = round(norm ** (1 / q))
    for c in (root - 1, root, root + 1):
        if c >= 1 and c**q == norm:
            return c**m
    return None


def _oracle_floor(modulus, norm, s):
    """floor(modulus (2**20 + 1) / (2**20 norm**s)): on integers where norm**s
    is one, else from mpmath, which must be far from an integer there."""
    num = modulus * ((1 << WITNESS_TOL_BITS) + 1)
    power = _exact_power(norm, s)
    if power is not None:
        return num // (power << WITNESS_TOL_BITS)
    with mpmath.workprec(modulus.bit_length() + 400):
        v = mpmath.mpf(num) / 2**WITNESS_TOL_BITS * mpmath.power(norm, -mpmath.mpf(s))
        floor = int(mpmath.floor(v))
        assert min(v - floor, floor + 1 - v) > v * mpmath.mpf(2) ** -300
    return floor


def test_classify_values_are_correctly_rounded():
    # the divisor, the weight, the witness bound and the exponent of each
    # case, from one series each, against mpmath at 400 bits rounded once
    n_cases = n_exact = 0
    for rp, modulus, norm, s in _cases(7, 2400):
        n_cases += 1
        case = (rp, modulus, norm, s)
        with mpmath.workprec(400):
            div = 2 * mpmath.sinpi(mpmath.mpf(rp) / modulus)
            assert _divisor(rp, modulus) == rounded_once(div), case
            weighted = _double(partial(_weighted, rp, modulus, norm, s))
            power = _exact_power(norm, s)
            twice_sin = {2: 2, 6: 1}.get(Fraction(rp, modulus).denominator)
            if power is not None and twice_sin:  # at 1/2 and 1/6: exact
                n_exact += 1
                assert weighted == float(twice_sin * power), case
            else:
                assert weighted == rounded_once(mpmath.power(norm, mpmath.mpf(s)) * div), case
            if norm >= 2:
                exponent = 1 - mpmath.log(mpmath.mpf(rp) / modulus) / mpmath.log(norm)
                got = _double(partial(_exponent, rp, modulus, norm))
                assert got == rounded_once(exponent), case
        assert _level_bound(modulus, norm, s) == _oracle_floor(modulus, norm, s), case
    assert n_cases >= 2000 and n_exact >= 1


def test_powers_are_exact_where_rational():
    # norm**s is the exact integer for integer s and at a 2**j-th power with
    # s = m / 2**j; otherwise an interval about w bits wide around it
    r = random.Random(3)
    for _ in range(1500):
        norm = r.choice([r.randint(1, 100), r.randint(2, 2**40), 1 << r.randint(0, 40)])
        s = r.choice([float(r.randint(1, 1024)), r.randint(1, 2048) / 2, r.uniform(0.5, 64)])
        if r.random() < 0.2:  # a perfect square or fourth power, s in halves or quarters
            root, j = r.randint(2, 1000), r.choice([1, 2])
            norm, s = root ** (2**j), r.randint(1, 400) / 2**j
        lo, hi, ex = _power(norm, s, 100)
        exact = _exact_power(norm, s)
        if exact is not None:
            assert (lo, hi, ex) == (exact, exact, 0), (norm, s)
            continue
        with mpmath.workprec(hi.bit_length() + 100):  # finer than the interval
            want = mpmath.power(norm, mpmath.mpf(s))
        assert _value((lo, ex)) <= _value(want.man_exp) <= _value((hi, ex)), (norm, s)
        assert hi - lo <= lo >> 80, (norm, s)


def _reference(f, ref, args, prec):
    """ref (mpmath's f) at prec + 300 bits, rounded once at prec."""
    wp = prec + 300
    if f == "sin":  # of pi p / q
        with mpmath.workprec(wp):
            x = (mpmath.pi * mpmath.mpf(args[0]) / args[1])._mpf_
    elif f == "log":  # of p / q
        x = from_rational(*args, wp, RN)
    else:  # of man 2**exp
        x = from_man_exp(*args)
    return normalize(*ref(x, wp, RN), prec, RN)


def _series(f, args):
    if f == "sin":
        return lambda w: (bf.sin_cos_pi(*args, w)[0],)
    if f == "log":
        return lambda w: (bf.log(*args, w),)
    man, exp = args
    return lambda w: (bf.exp(man, man, exp, w),)


@pytest.mark.parametrize("f, ref", [("sin", mpf_sin), ("log", mpf_log), ("exp", mpf_exp)])
def test_transcendental_steps_are_correctly_rounded(f, ref):
    # each series rounded by ziv at prec bits is mpmath's value (ref at
    # prec + 300 bits) rounded once
    r = random.Random(11)
    for _ in range(1500):
        prec = r.choice([53, 64, 100, 110, 200])
        if f == "sin":  # 0 < p / q <= 1/2, down to 2**-300
            q = r.getrandbits(r.randint(2, 400)) | 1 << 400
            args = r.randint(1, q >> r.choice([1, 2, 3, r.randint(1, 300)])), q
        elif f == "log":
            args = r.getrandbits(r.randint(1, 400)) | 1, r.getrandbits(r.randint(1, 400)) | 1
        else:
            args = (r.getrandbits(prec) | 1) * r.choice([1, -1]), -prec + r.randint(-20, 14)
        want = _reference(f, ref, args, prec)
        got = bf.ziv(_series(f, args), lambda man, exp: bf.normalize(man, exp, prec), prec + 8)[0]
        assert bf.fraction(got) == _value(want), (args, prec)


def _sin_cos_arguments(seed, count):
    """p / q in (0, 1/2]: spread over [2**-200, 1/2], within a few units of
    1/4 on either side, near 1/2, and at 1/6, 1/4, 1/3 and 1/2."""
    r = random.Random(seed)
    for i in range(count):
        q = r.getrandbits(200) | 1 << 200
        kind = i % 5
        if kind == 0:
            yield r.randint(1, q // 2), q
        elif kind == 1:
            yield q + r.randint(-4, 4), 4 * q
        elif kind == 2:
            yield 2 * q - r.randint(1, 8), 4 * q
        elif kind == 3:
            yield r.randint(1, max(1, q >> r.randint(60, 300))), q
        else:
            yield r.choice([(1, 6), (1, 4), (1, 3), (1, 2), (5, 12), (1, 12)])


def test_cos_sin_is_correctly_rounded():
    # sin and cos of pi p / q rounded by ziv at prec bits are mpmath's at
    # 400 bits rounded once; at 1/2 the sine is 1 and the cosine 0 exactly
    for p, q in _sin_cos_arguments(13, 3000):
        prec = random.Random(p).choice([53, 64, 80, 100, 128])
        with mpmath.workprec(400):
            d = mpmath.mpf(p) / q
            want = [rounded_once(mpmath.sinpi(d)), rounded_once(mpmath.cospi(d))]
            want_prec = [_value(normalize(*v._mpf_, prec, RN)) if v else 0
                         for v in (mpmath.sinpi(d), mpmath.cospi(d))]
        assert bf.ziv(lambda w: bf.sin_cos_pi(p, q, w), bf.double, 64) == want, (p, q)
        got = bf.ziv(lambda w: bf.sin_cos_pi(p, q, w), lambda m, e: bf.normalize(m, e, prec), 64)
        assert [bf.fraction(v) for v in got] == want_prec, (p, q, prec)
    assert bf.sin_cos_pi(3, 6, 64) == ((1, 1, 0), (0, 0, 0))


def test_double_rounds_once():
    # gradual underflow rounds once at 2**-1074, ties go to even, and a
    # value beyond the largest double is +-inf
    r = random.Random(17)
    for _ in range(5000):
        man = r.getrandbits(r.randint(1, 120)) * r.choice([1, -1])
        exp = r.randint(-1200, 1000)
        want = man * Fraction(2) ** exp
        try:
            expect = float(want)
        except OverflowError:
            expect = math.inf if man > 0 else -math.inf
        assert bf.double(man, exp) == expect, (man, exp)
    tiny = 2.0**-1074
    assert bf.double(3, -1076) == tiny and bf.double(3, -1075) == 2 * tiny
    assert bf.double(1, -1075) == 0.0  # half a unit: the tie goes to even
    # just above half a unit: rounded first to 53 bits it would be a tie
    assert bf.double(2**55 + 1, -1130) == tiny
    assert bf.double(2**53 + 1, 0) == 2.0**53 and bf.double(2**53 + 3, 0) == 2.0**53 + 4
    assert bf.double(1, 1024) == math.inf and bf.double(-(1 << 5000), -3000) == -math.inf


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
        assert mpf_real(x) == want


def test_fractional_part_equals_mpmath():
    r = random.Random(9)
    for _ in range(2000):
        prec = r.choice([64, 100, 128, 256, 1000])
        value = mpmath.mpf((r.getrandbits(prec) | 1) * r.choice([1, -1]), prec=prec)
        value = mpmath.ldexp(value, r.randint(-prec - 300, 40))
        x = mpf_real(value, prec)
        with mpmath.workprec(prec + 8):
            want = mpf_real(x) - mpmath.floor(mpf_real(x))
        got = x.fractional_part()
        assert (got.man_exp, got.prec) == (want.man_exp, prec)


def test_equality_hash_and_pickle_are_the_fields():
    g = PrecisionReal.parse("golden", 128)
    q = PrecisionReal.exact(Fraction(1, 3))
    for x in (g, q, liouville_constant(128), g.fractional_part(), PrecisionReal.parse("pi", 64)):
        same = pickle.loads(pickle.dumps(x))
        assert same == x and hash(same) == hash(x)
        assert hash(x) == hash((x.fraction, x.man_exp, x.prec))
    assert g == PrecisionReal.parse("golden", 128) != PrecisionReal.parse("golden", 129)
    assert g != q and g != mpf_real(g)
    with pytest.raises(AttributeError):
        g.prec = 64
