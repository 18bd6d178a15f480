"""Binary floating point on Python integers, and correctly rounded values.

A pair (man, exp) stands for man * 2**exp.  ``normalize``, ``sub`` and
``sqrt`` round their exact result once, to nearest with ties to even, at
`prec` bits, and return it in the canonical form, man odd (or (0, 0) for
zero): ``PrecisionReal.__eq__`` compares these pairs, and
``diophantine._phase_grid`` takes its least grid 2**-exp from them.
``precision.parse`` builds the stored values of the named constants from
them and from ``pi`` and ``e``.

Transcendental values come from fixed-point series on integers, each an
interval (lo, hi, exp) with lo 2**exp <= v <= hi 2**exp at about w working
bits: ``pi_fixed``, ``sin_cos_pi`` (the sine and cosine of pi p / q, one
series pass for both), ``log`` and ``exp``.  ``ziv`` rounds such values
once by Ziv's strategy: it evaluates them again with twice the bits while
the interval holds a rounding boundary, so the result is the rounding of the
exact value.  With ``double`` as the rounding that result is the correctly
rounded double, subnormals rounded once at 2**-1074.
"""

import math
from fractions import Fraction
from functools import lru_cache


def normalize(man, exp, prec):
    """man * 2**exp rounded to nearest-even at prec bits, man made odd."""
    if not man:
        return 0, 0
    m = abs(man)
    drop = m.bit_length() - prec
    if drop > 0:
        low = m & ((1 << drop) - 1)
        m >>= drop
        exp += drop
        half = 1 << (drop - 1)
        if low > half or (low == half and m & 1):
            m += 1
    zeros = (m & -m).bit_length() - 1
    m >>= zeros
    return (m if man > 0 else -m), exp + zeros


def fraction(x):
    """The value of the pair x as a Fraction."""
    man, exp = x
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def sub(a, b, prec):
    low = min(a[1], b[1])
    return normalize((a[0] << (a[1] - low)) - (b[0] << (b[1] - low)), low, prec)


def sqrt(a, prec):
    """The square root of a > 0."""
    man, exp = a
    if exp & 1:
        man, exp = man << 1, exp - 1
    shift = max(0, 2 * prec + 4 - man.bit_length())
    shift += shift & 1
    root = math.isqrt(man << shift)
    sticky = root * root != man << shift
    return normalize(root << 1 | sticky, (exp - shift) // 2 - 1, prec)


def double(man, exp):
    """man * 2**exp rounded once to the nearest double, ties to even, with
    gradual underflow; +-inf beyond the largest double.  Integer true
    division and float() of an int round correctly in CPython."""
    try:
        return man / (1 << -exp) if exp < 0 else float(man << exp)
    except OverflowError:
        return math.inf if man > 0 else -math.inf


def ziv(series, rnd, w):
    """The values v rounded by rnd(man, exp), from series(w) = ((lo, hi,
    exp), ...), one interval per value with lo 2**exp <= v <= hi 2**exp at w
    working bits; evaluated again at 2w while rnd(lo, exp) != rnd(hi, exp)
    for any value.  rnd must be monotone, and no v may be a rounding
    boundary unless its interval is exact (lo == hi), or this does not end."""
    while True:
        out = []
        for lo, hi, exp in series(w):
            low = rnd(lo, exp)
            if low != rnd(hi, exp):
                break
            out.append(low)
        else:
            return out
        w *= 2


# fixed-point series on integers at w working bits, each with its error bound


def _atan_inv(x, w):
    """atan(1/x) for an integer x >= 2, within 3 units per term."""
    power, total, j = (1 << w) // x, 0, 0
    while power:
        term = power // (2 * j + 1)
        total += -term if j & 1 else term
        power //= x * x
        j += 1
    return total, 3 * j + 3


@lru_cache(maxsize=64)
def _ln2_fixed(w):
    """ln 2 = 2 atanh(1/3) = 2 sum 3**-(2j + 1) / (2j + 1)."""
    power, total, j = (1 << w) // 3, 0, 0
    while power:
        total += power // (2 * j + 1)
        power //= 9
        j += 1
    return 2 * total, 6 * j + 6


@lru_cache(maxsize=64)
def pi_fixed(w):
    """(lo, hi) with lo <= pi 2**w <= hi, by Machin's formula
    16 atan(1/5) - 4 atan(1/239)."""
    a5, err5 = _atan_inv(5, w)
    a239, err239 = _atan_inv(239, w)
    v, err = 16 * a5 - 4 * a239, 16 * err5 + 4 * err239
    return v - err, v + err


def pi(prec):
    """pi rounded at prec bits."""
    return ziv(lambda w: ((*pi_fixed(w), -w),), lambda m, x: normalize(m, x, prec), prec + 32)[0]


def e(prec):
    """e = exp(1), rounded at prec bits."""
    return ziv(lambda w: (exp(1, 1, 0, w),), lambda m, x: normalize(m, x, prec), prec + 32)[0]


def sin_cos_pi(p, q, w):
    """(sin, cos) of x = pi p / q for integers 0 < p / q <= 1/2, each an
    interval (lo, hi, exp) of about w bits relative to its value.

    Past 1/4 the two swap, cos(pi d) = sin(pi (1/2 - d)), so the series
    runs on x <= pi / 4 and the sine of any small x keeps its relative
    precision: sin x = x S(x**2) and cos x = C(x**2), with S(y) = sum_j
    (-y)**j / (2j + 1)! and C(y) = sum_j (-y)**j / (2j)! summed in one pass.
    sin(pi / 2) = 1 and cos(pi / 2) = 0 are exact."""
    if 4 * p > q:
        if 2 * p == q:
            return (1, 1, 0), (0, 0, 0)
        cos, sin = sin_cos_pi(q - 2 * p, 2 * q, w)
        return sin, cos
    e0 = p.bit_length() - q.bit_length()  # p / q < 2**(e0 + 1) and e0 <= -2
    d = (p << (w - e0)) // q  # d <= p / q 2**(w - e0) < d + 1
    pi_lo, pi_hi = pi_fixed(w)
    x_lo, x_hi = d * pi_lo >> w, ((d + 1) * pi_hi >> w) + 1  # x 2**(w - e0)
    shift = w - 2 * e0
    y = x_lo * x_lo >> shift  # y <= x**2 2**w <= y + dy, and x**2 < 0.62
    dy = (x_hi * x_hi >> shift) + 1 - y
    cos, sinc, even, j = 0, 0, 1 << w, 0  # even = y**j / (2j)!
    while even:
        odd = even // (2 * j + 1)  # y**j / (2j + 1)!
        if j & 1:
            cos, sinc = cos - even, sinc - odd
        else:
            cos, sinc = cos + even, sinc + odd
        j += 1
        even = (odd * y >> w) // (2 * j)
    # each term is within 2 units and so is the tail; |C'|, |S'| <= 1/2
    err = 5 * j + 5 + dy
    return (
        (x_lo * max(sinc - err, 0), x_hi * (sinc + err), e0 - 2 * w),
        (max(cos - err, 0), cos + err, -w),
    )


def log(p, q, w):
    """ln(p / q) for integers p, q > 0 as an interval (lo, hi, exp), exp
    about -w: n ln 2 + 2 atanh(z) with p / q = y 2**n, y in [2/3, 4/3) and
    z = (y - 1) / (y + 1), so |z| <= 1/5."""
    n = p.bit_length() - q.bit_length()
    a, b = p << max(0, -n), q << max(0, n)  # y = a / b in (1/2, 2)
    if 3 * a < 2 * b:
        a, n = a << 1, n - 1
    elif 3 * a >= 4 * b:
        b, n = b << 1, n + 1
    w += abs(n).bit_length()
    z = (abs(a - b) << w) // (a + b)  # |z|, and atanh is odd
    z2 = z * z >> w
    total, power, j = 0, z, 0
    while power:
        total += power // (2 * j + 1)
        power = power * z2 >> w
        j += 1
    ln2, err2 = _ln2_fixed(w)
    v = n * ln2 + (2 * total if a >= b else -2 * total)
    err = abs(n) * err2 + 6 * j + 12
    return v - err, v + err, -w


def exp(lo, hi, ex, w):
    """e**x for x in [lo, hi] 2**ex, hi - lo small, as an interval (lo, hi,
    exp) of about w bits relative: 2**n e**r with r = x - n ln 2,
    |r| <= ln 2 / 2 (about), e**r by its Taylor series, and
    e**(x + delta) <= e**x (1 + 2 delta) for the width delta <= 1/2."""
    w += max(abs(lo).bit_length() + ex + 1, 0)  # the bits of n
    shift = ex + w
    xw = lo << shift if shift >= 0 else lo >> -shift  # xw 2**-w <= x_lo
    width = ((hi - lo) << shift if shift >= 0 else -((lo - hi) >> -shift)) + 1
    ln2, err2 = _ln2_fixed(w)
    n = (2 * xw + ln2) // (2 * ln2)
    r = xw - n * ln2
    total, term, j = 0, 1 << w, 0
    while term:
        total += term
        j += 1
        term = (term * r >> w) // j
    err = 2 * (abs(n) * err2 + 1) + 4 * j + 4
    top = total + err
    return max(total - err, 0), top + (2 * top * width >> w) + 1, n - w
