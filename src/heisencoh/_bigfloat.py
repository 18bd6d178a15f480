"""Binary floating point on Python integers, rounded as mpmath rounds.

A value is a pair (man, exp) for man * 2**exp.  Every function returns it
normalised as mpmath normalises it: man odd, or (0, 0) for zero, so a
pair is mpmath's ``man_exp`` of the same number, with the sign on man.
Each operation rounds its exact result once, to nearest with ties to even,
at `prec` bits, as mpmath's default context does:

- ``normalize``, ``mul``, ``div``, ``sub`` and ``sqrt`` exactly, from
  integers, and the constants ``pi`` and ``e`` from series;
- ``cos_sin`` (cos and sin together), ``log`` and ``exp`` by Ziv's
  strategy: a fixed-point series with guard bits and a bound on its error,
  evaluated again with twice the bits while an error interval holds a
  rounding boundary;
- ``power`` takes the steps of mpmath's ``mpf_pow``, the roundings of
  its intermediate results included.

mpmath evaluates sin, log and exp with 10 to 20 guard bits and no such
retry, so at 100 bits its result is one unit off the correctly rounded one
for about one argument in 10^3 (sin on [1/2, 2]) to 10^5 (log).  Here
each step is the correctly rounded one, whatever mpmath's caches hold.
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


def exact(man, exp=0):
    """man * 2**exp normalised without rounding."""
    return normalize(man, exp, abs(man).bit_length())


def from_float(x):
    """The float x as a pair, exactly."""
    p, q = x.as_integer_ratio()
    return exact(p, 1 - q.bit_length())


def fraction(x):
    """The value of the pair x as a Fraction."""
    man, exp = x
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def to_float(x):
    """float() of the pair x as mpmath gives it: rounded to 53 bits, then
    scaled (gradual underflow rounds again; overflow gives +-inf)."""
    man, exp = normalize(*x, 53)
    try:
        return math.ldexp(man, exp)
    except OverflowError:
        return math.copysign(math.inf, man)


def _ratio(p, q, exp, prec):
    """p / q * 2**exp rounded, q > 0: a nonzero remainder is a sticky bit
    below at least prec + 1 quotient bits."""
    shift = max(0, prec + 2 - abs(p).bit_length() + q.bit_length())
    quot, rem = divmod(abs(p) << shift, q)
    quot = quot << 1 | (rem != 0)
    return normalize(quot if p >= 0 else -quot, exp - shift - 1, prec)


def mul(a, b, prec):
    return normalize(a[0] * b[0], a[1] + b[1], prec)


def div(a, b, prec):
    num = a[0] if b[0] > 0 else -a[0]
    return _ratio(num, abs(b[0]), a[1] - b[1], prec)


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


def _ziv(series, prec):
    """The values v rounded at prec bits, from series(w) = ((a, err, exp),
    ...) with |v - a * 2**exp| <= err * 2**exp at w working bits, one triple
    per value; no v may be a rounding boundary, or this does not end."""
    w = prec + 32
    while True:
        out = []
        for a, err, exp in series(w):
            low = normalize(a - err, exp, prec)
            if low != normalize(a + err, exp, prec):
                break
            out.append(low)
        else:
            return tuple(out)
        w *= 2


# fixed-point series: an integer near value * 2**w and a bound on the error


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


def pi(prec):
    """pi by Machin's formula, 16 atan(1/5) - 4 atan(1/239)."""

    def series(w):
        a5, err5 = _atan_inv(5, w)
        a239, err239 = _atan_inv(239, w)
        return ((16 * a5 - 4 * a239, 16 * err5 + 4 * err239, -w),)

    return _ziv(series, prec)[0]


def e(prec):
    """e = sum_j 1 / j!."""

    def series(w):
        total, term, j = 0, 1 << w, 0
        while term:
            total += term
            j += 1
            term //= j
        return ((total, 2 * j + 2, -w),)

    return _ziv(series, prec)[0]


def cos_sin(x, prec):
    """(cos x, sin x) for 0 <= x <= 2, from sum_j (-x**2)**j / (2j)! and x
    times sum_j (-x**2)**j / (2j + 1)!, both summed in one pass."""
    man, ex = x
    if not man:
        return (1, 0), (0, 0)

    def series(w):
        shift = 2 * ex + w
        x2 = man * man << shift if shift >= 0 else man * man >> -shift
        cos, sin, even, j = 0, 0, 1 << w, 0  # even = x**(2j) / (2j)!
        while even:
            odd = even // (2 * j + 1)  # x**(2j) / (2j + 1)!
            if j & 1:
                cos, sin = cos - even, sin - odd
            else:
                cos, sin = cos + even, sin + odd
            j += 1
            even = (odd * x2 >> w) // (2 * j)
        # each term is within 4.01 units (x**2 <= 4) and so is the tail
        err = 5 * j + 5
        return (cos, err, -w), (man * sin, man * err, ex - w)

    return _ziv(series, prec)


def sin(x, prec):
    """sin x for 0 <= x <= 2."""
    return cos_sin(x, prec)[1]


def log(x, prec):
    """ln x for x > 0: n ln 2 + 2 atanh(z) with x = y 2**n, y in [2/3, 4/3)
    and z = (y - 1) / (y + 1), so |z| <= 1/5."""
    man, ex = exact(*x)
    if man == 1 and not ex:
        return 0, 0
    top = man.bit_length()  # y = man / 2**top is in [1/2, 1)
    if 3 * man < 2 << top:
        top -= 1
    n = ex + top

    def series(w):
        w = max(w, top + 32)
        one = 1 << w
        y = man << (w - top)
        z = (abs(y - one) << w) // (y + one)  # |z|, and atanh is odd
        z2 = z * z >> w
        total, power, j = 0, z, 0
        while power:
            total += power // (2 * j + 1)
            power = power * z2 >> w
            j += 1
        ln2, err2 = _ln2_fixed(w)
        atanh2 = 2 * total if y >= one else -2 * total
        return ((n * ln2 + atanh2, abs(n) * err2 + 6 * j + 12, -w),)

    return _ziv(series, prec)[0]


def exp(x, prec):
    """e**x as 2**n e**r, r = x - n ln 2 with |r| <= ln 2 / 2 (about),
    e**r by its Taylor series."""
    man, ex = x
    if not man:
        return 1, 0
    n = round(math.ldexp(man, ex) / math.log(2))

    def series(w):
        w += abs(n).bit_length()
        shift = ex + w
        xw = man << shift if shift >= 0 else man >> -shift
        ln2, err2 = _ln2_fixed(w)
        r = xw - n * ln2
        total, term, j = 0, 1 << w, 0
        while term:
            total += term
            j += 1
            term = (term * r >> w) // j
        return ((total, 2 * (abs(n) * err2 + 1) + 4 * j + 4, n - w),)

    return _ziv(series, prec)[0]


def pow_int(a, n, prec):
    """a**n for a > 0 and an integer n, step by step as mpmath's
    ``mpf_pow_int``: exact while the mantissa bits times n stay below 1000,
    else by binary powering truncated to prec + 4 bitlen(n) + 4 bits."""
    man, exp = a
    if n == 0:
        return 1, 0
    if n == -1:
        return div((1, 0), a, prec)
    if n < 0:
        return div((1, 0), pow_int(a, -n, prec + 5), prec)
    if n <= 2 or man == 1 or man.bit_length() * n < 1000:
        return normalize(man**n, exp * n, prec)
    work = prec + 4 * n.bit_length() + 4
    pm, pe = 1, 0
    while True:
        if n & 1:
            pm, pe = pm * man, pe + exp
            drop = pm.bit_length() - work
            if drop > 0:
                pm, pe = pm >> drop, pe + drop
            n -= 1
            if not n:
                break
        man, exp = man * man, exp + exp
        drop = man.bit_length() - work
        if drop > 0:
            man, exp = man >> drop, exp + drop
        n //= 2
    return normalize(pm, pe, prec)


def power(base, t, prec):
    """base**t for an integer base >= 1 and a float t, step by step as
    mpmath's ``mpf_pow``: integer t by ``pow_int``, t = m / 2 through the
    square root at prec + 10 bits, any other t as exp(t log base) with the
    logarithm at prec + 10 bits and its product with t exact."""
    b = exact(base)
    tman, texp = from_float(t)
    if texp >= 0:
        return pow_int(b, tman << texp, prec)
    if texp == -1:
        if tman == 1:
            return sqrt(b, prec)
        if tman == -1:
            return div((1, 0), sqrt(b, prec + 10), prec)
        return pow_int(sqrt(b, prec + 10), tman, prec)
    lman, lexp = log(b, prec + 10)
    return exp(exact(tman * lman, texp + lexp), prec)
