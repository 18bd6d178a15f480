"""Small divisors and empirical Diophantine / Liouville classification.

The central quantity is the divisor |1 - exp(2 pi i <k, t>)| = 2 |sin(pi
<k, t>)| for integer frequency vectors k.  ``classify`` scans 0 < |k| <=
Kmax (max-norm), looking for exact zeros (rational t), power-law lower-bound
evidence C |k|^-s <= divisor (Diophantine), or witnesses of abnormally close
approach (Liouville).  Verdicts other than Rational are evidence from a
finite scan, never proof.

``classify`` and ``iter_divisors`` (behind ``solve``) take the phase <k, t>
on one exact integer grid, ``_phase_grid``: <k, U> mod L, t_i = U_i / L for
the stored values.  Scans enumerate it in every rank as a lattice (see
``_scan``).  Every value reported or divided by is the correctly rounded
double of its exact quantity: the distance r / L, the divisors of ``solve``
and ``classify``, the weights |k|^s * divisor and the exponents.  Each is
rounded once from an interval of Python integers (``_bigfloat.ziv``), or
from the exact value where it is rational.  Every decision is taken on
exact integers or on such intervals refined until they separate, so reports
are reproducible bit for bit; none loads mpmath.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import chain, pairwise

from . import _bigfloat as bf
from . import _scan
from .errors import DomainError, PrecisionError
from .precision import MAX_PREC, PrecisionReal

# range minima whose intervals still overlap at this many working bits are
# taken as equal (see ``_least``)
TIE_BITS = 1024

# (2 sin(pi d))**2 at the d = n / 12 where it is rational, keyed by n: by
# Niven's theorem d = 1/6, 1/4, 1/3 and 1/2 are the only such d in (0, 1/2]
_SQUARED_DIVISOR = {2: 1, 3: 2, 4: 3, 6: 4}

# the largest level s: beyond it |k|^s overflows a double for every |k| >= 2
MAX_LEVEL = 1024

# relative tolerance 2**-20 on witness inequalities: wide enough to absorb
# the inputs' own rounding, far too narrow to admit spurious witnesses
WITNESS_TOL_BITS = 20

# records printed, which is also the size of each range's kept list
N_RECORDS = 10

# DiophantineEvidence needs min >= DIO_RATIO * max over the range minima
DIO_RATIO = 0.01


def _coerce_vector(t, dim=None):
    """t as a list of PrecisionReal, a scalar as a vector of length 1; of
    length dim when dim is given."""
    comps = t if isinstance(t, (list, tuple)) else [t]
    if dim is not None and len(comps) != dim:
        raise DomainError(
            f"translation vector has length {len(comps)}, coefficients have dimension {dim}"
        )
    if not comps:
        raise DomainError("translation vector is empty")
    return [PrecisionReal.coerce(c) for c in comps]


def _phase_grid(tvec):
    """(U, L): integers with t_i = U_i / L exactly, for every component.

    An inexact component is read as it is stored, man * 2^exp; an exact one
    is p/q.  L = lcm(q_i) * 2^B, with B the largest -exp (at least 0).
    """
    den, shift = 1, 0
    for c in tvec:
        if c.exact_value:
            den = math.lcm(den, c.fraction.denominator)
        else:
            shift = max(shift, -c.man_exp[1])
    modulus = den << shift
    scaled = []
    for c in tvec:
        if c.exact_value:
            scaled.append(c.fraction.numerator * (modulus // c.fraction.denominator))
        else:
            man, exp = c.man_exp
            scaled.append((man * den) << (exp + shift))
    return scaled, modulus


def _phase(scaled, modulus, k):
    """(r, sign) of the phase <k, t> on the grid (scaled, modulus) of
    ``_phase_grid``: r / modulus is its exact distance to the nearest
    integer, and sign is +1 when frac(<k, t>) <= 1/2, -1 otherwise."""
    phase = sum(map(operator.mul, k, scaled)) % modulus
    return min(phase, modulus - phase), 1 if 2 * phase <= modulus else -1


# working bits of the fixed-point unit that ``iter_divisors`` steps along a
# run of keys; at most 1074, so that no nonzero multiple of 2**-STEP_BITS
# rounds to zero
STEP_BITS = 128


def _twelfths(modulus):
    """{r: n} for the distances r / modulus = n / 12, n = 1..6: the d in
    (0, 1/2] at which a part of the divisor 1 - e^{2 pi i d} is rational
    (Niven's theorem)."""
    return {n * modulus // 12: n for n in range(1, 7) if n * modulus % 12 == 0}


def _divisor_parts(r, modulus, w):
    """The parts 2 sin^2(pi d) and 2 sin(pi d) cos(pi d) of the divisor at
    d = r / modulus, 0 < d <= 1/2, as intervals (lo, hi, exp) from one
    ``_bigfloat.sin_cos_pi`` series at w working bits."""
    (sl, sh, se), (cl, ch, ce) = bf.sin_cos_pi(r, modulus, w)
    return (2 * sl * sl, 2 * sh * sh, 2 * se), (2 * sl * cl, 2 * sh * ch, se + ce)


def _rounded(r, modulus, w):
    """The divisor of sign +1 at distance r, each part correctly rounded by
    Ziv's strategy from w working bits."""
    re, im = bf.ziv(partial(_divisor_parts, r, modulus), bf.double, w)
    return complex(re, -im)


def _seeded(r, modulus, w):
    """(divisor, unit): ``_rounded`` and ``_unit`` at distance r, both
    from one series at w bits where both parts round there."""
    parts = _divisor_parts(r, modulus, w)
    (rlo, rhi, rex), (ilo, ihi, iex) = parts
    re, im = bf.double(rlo, rex), bf.double(ilo, iex)
    if re == bf.double(rhi, rex) and im == bf.double(ihi, iex):
        return complex(re, -im), _unit(parts, w)
    return _rounded(r, modulus, 2 * w), _unit(parts, w)


def _unit(parts, w):
    """(C, S, e): the unit 1 - divisor of sign +1 as (C + i S) 2**-w within
    e 2**-w, from the intervals parts of ``_divisor_parts``: e is the sum of
    their half-widths."""
    (a, ea), (b, eb) = (_fixed(part, w) for part in parts)
    return (1 << w) - a, b, ea + eb


def _fixed(part, w):
    """(m, e) with |v - m 2**-w| <= e 2**-w for the value v of the
    interval part = (lo, hi, exp)."""
    lo, hi, exp = part
    shift = exp + w
    lo, hi = (lo << shift, hi << shift) if shift >= 0 else (lo >> -shift, -(-hi >> -shift))
    mid = (lo + hi) >> 1
    return mid, hi - mid


def iter_divisors(grid, keys):
    """Yield (k, r, divisor) for each k of keys, in their order: the
    divisor 1 - exp(2 pi i <k, t>) and r, with r / L the exact distance of
    <k, t> to the nearest integer on grid = (U, L) = ``_phase_grid(t)``.

    The divisor is 0j when r is 0; otherwise, for d = r / L, it is
    2 sin^2(pi d) - i sign 2 sin(pi d) cos(pi d), with sign as in ``_phase``
    and each part the correctly rounded double of its exact value.  Where a
    part is rational it is that value exactly: at d = 1/2 the divisor is
    2 - 0j, whose imaginary part is -0.0 (sign is +1 there), and at d = 1/4
    it is 1 -+ 1j.  Keys must be integer tuples of the length of t.

    A divisor is found in one of three ways.
    - Known: the divisor of sign +1 depends on r alone, so it is kept by r,
      and k and -k share it, each taking its own sign.
    - Stepped: along a run of keys that differ by one in the last
      coordinate, the exact phase p = <k, U> mod L advances by U_n mod L,
      and the unit z = e^{2 pi i p / L} = 1 - divisor by one product with
      t = e^{2 pi i U_n / L}, both in fixed point on integers at
      w = STEP_BITS bits.  A part is taken from z only where both ends of
      its interval round to the same double.
    - Series: one ``_bigfloat.sin_cos_pi`` series, rounded by Ziv's test,
      where r is new and the divisor is not stepped: where no unit is held,
      at the d = n / 12 of ``_twelfths`` (1/2 among them), and where a
      stepped interval holds a rounding boundary.  Where the run goes on
      and no good unit is held, the series runs at w bits and seeds the
      unit (``_seeded``); elsewhere it starts from ``_bigfloat.START_BITS``.
    So a key costs at most one series (Ziv's retries aside), one more
    makes t, and a key with no neighbour in its run (k = +-10^24) costs
    what it costs without the stepping.

    Error bound of a step.  Let z~ = (C + i S) 2^-w with |z~ - z| <= e 2^-w
    and t~ = (T_c + i T_s) 2^-w with |t~ - t| <= e_t 2^-w, where |z| = |t|
    = 1.  Then z~ t~ - z t = z (t~ - t) + t (z~ - z) + (z~ - z)(t~ - t) has
    modulus at most (e + e_t + e e_t 2^-w) 2^-w, and flooring each part of
    (C + i S)(T_c + i T_s) 2^-w to an integer moves the product by less
    than sqrt(2) 2^-w.  So the stepped unit is within e' 2^-w of z t, for
    e' = e + e_t + floor(e e_t 2^-w) + 3: the bound grows linearly along
    the run.  A unit from the series is within the sum of the half-widths
    of its two intervals, t is seeded the same way, and at r = 0 the unit
    is 1 exactly.  Each part of 1 - z~ is within e 2^-w of its exact value,
    and rounding is monotone, so where both ends of that interval round to
    one double, it is the correctly rounded part.  After a step e >= 3 and
    no nonzero multiple of 2^-w rounds to 0, so a stepped interval around a
    part 0 never rounds: the sign of a zero comes from the series alone.
    """
    scaled, modulus = grid
    w = STEP_BITS
    one = 1 << w
    step = scaled[-1] % modulus
    twelfths = _twelfths(modulus)
    by_distance = {}  # r -> the divisor of sign +1
    turn = None  # (T_c, T_s, e_t), made at the first step
    held = False  # whether (c, s, e) holds the unit of k
    joined = False  # whether k is one past the key before it
    for k, after in pairwise(chain(keys, (None,))):
        if joined:
            phase += step
            if phase >= modulus:
                phase -= modulus
            if held:
                if turn is None:
                    turn = _turn(scaled, modulus, w)
                tc, ts, et = turn
                c, s, e = (c * tc - s * ts) >> w, (c * ts + s * tc) >> w, e + et + (e * et >> w) + 3
        else:
            phase = sum(map(operator.mul, k, scaled)) % modulus
            held = False
        joined = after is not None and after[-1] - 1 == k[-1] and after[:-1] == k[:-1]
        if 2 * phase <= modulus:
            r, sign = phase, 1
        else:
            r, sign = modulus - phase, -1
        if not r:
            c, s, e, held = one, 0, 0, True
            yield k, 0, 0j
            continue
        d = by_distance.get(r)
        if d is None:
            if held and r not in twelfths:
                m = one - c
                re, im = (m - e) / one, (-s - e) / one
                if re == (m + e) / one and im == (e - s) / one:
                    d = complex(re, sign * im)  # the divisor of sign +1
                else:
                    held = False  # too wide here: seed again if the run goes on
            if d is None and joined and not held:
                d, (c, s, e) = _seeded(r, modulus, w)
                s *= sign
                held = True
            elif d is None:
                d = _rounded(r, modulus, bf.START_BITS)
            by_distance[r] = d
        # conjugate() negates the imaginary part exactly: sign -1
        yield k, r, d if sign == 1 else d.conjugate()


def _turn(scaled, modulus, w):
    """(T_c, T_s, e_t): the unit t = e^{2 pi i U_n / L} by which a run steps,
    as (T_c + i T_s) 2**-w within e_t 2**-w."""
    r, sign = _phase(scaled[-1:], modulus, (1,))
    if not r:
        return 1 << w, 0, 0
    tc, ts, et = _unit(_divisor_parts(r, modulus, w), w)
    return tc, sign * ts, et


def _resolved(r, weight, modulus, prec):
    """Whether the distance r / modulus exceeds weight * 2**(2 - prec), the
    most that components resolved to `prec` bits can move a phase <k, t>
    with |k|_1 <= weight; decided on integers."""
    return r << prec > 4 * weight * modulus


def _declared(tvec):
    """(indices, bits): the components that declare a resolution and the
    least one they declare, None when every component is exact as given.
    An exact truncation of a named constant (``liouville``) declares one: a
    phase on it is exact only where k vanishes on it."""
    idx = tuple(i for i, c in enumerate(tvec) if c.prec is not None)
    return idx, min((tvec[i].prec for i in idx), default=None)


def _nonzero_index(t, k):
    """(t as a vector, k as a tuple of its length); k must be nonzero."""
    tvec = _coerce_vector(t)
    k = tuple(int(v) for v in ((k,) if isinstance(k, int) else k))
    if len(k) != len(tvec):
        raise DomainError(f"frequency {k} has length {len(k)}, expected {len(tvec)}")
    if all(v == 0 for v in k):
        raise DomainError("frequency k must be nonzero")
    return tvec, k


def phase_distance(t, k):
    """(dist, sign): distance of <k, t> to the nearest integer and the side.

    sign is +1 when frac(<k, t>) <= 1/2 and -1 otherwise.  dist is the
    exact Fraction r / L on the grid (U, L) of ``_phase_grid``, which holds
    the stored values exactly, for exact and inexact t alike; it is 0 only
    when <k, t> is an integer.
    """
    tvec, k = _nonzero_index(t, k)
    scaled, modulus = _phase_grid(tvec)
    r, sign = _phase(scaled, modulus, k)
    return Fraction(r, modulus), sign


def complex_divisor(t, k) -> complex:
    """1 - exp(2 pi i <k, t>), stable for tiny divisors: one mode of
    ``iter_divisors``, each part correctly rounded (2 - 0j, imaginary part
    -0.0, at a phase of 1/2)."""
    tvec, k = _nonzero_index(t, k)
    return next(iter_divisors(_phase_grid(tvec), [k]))[2]


def small_divisor(t, k) -> float:
    """|1 - exp(2 pi i <k, t>)| = 2 sin(pi dist(<k, t>, Z)), correctly
    rounded; exact 0 iff the phase is an integer."""
    dist = phase_distance(t, k)[0]
    return _divisor(dist.numerator, dist.denominator) if dist else 0.0


# ---------------------------------------------------------------------------
# classification report types


DivisorRecord = namedtuple("DivisorRecord", "k divisor normk")


class WitnessRecord(namedtuple(
    "WitnessRecord", "k normk dist divisor exponent levels significant", defaults=((),)
)):
    """A frequency beating the power-law bound at the listed levels, which
    are the levels above the rank n that it meets.

    exponent is the approximation exponent mu with dist = |k|^-(mu - 1),
    i.e. |t - p/k| ~ |k|^-mu in one dimension.  significant lists the levels
    at which the witness also clears the accident floor (small k satisfy
    dist <= |k|^-s by chance alone too often to count as evidence).
    """

    __slots__ = ()


SLevelRow = namedtuple("SLevelRow", "s c argmin_k shell_min shell_max evidence")


class ClassificationReport(namedtuple("ClassificationReport", (
    "verdict dim kmax precision_bits points_scanned s_table witnesses records "
    "rational_k diophantine_s diophantine_c"
))):
    """What ``classify`` found.  verdict is Rational, DiophantineEvidence,
    LiouvilleEvidence or Inconclusive; precision_bits is None for fully
    exact input."""

    __slots__ = ()

    @property
    def min_divisor(self):
        return self.records[0].divisor if self.records else None

    @property
    def argmin_k(self):
        return self.records[0].k if self.records else None


# ---------------------------------------------------------------------------
# scan orchestration


def _significance_floor(s, n, budget=0.02):
    """Smallest scale at which a level-s witness is informative in rank n.

    Shell |k| = m holds c_n(m) = ((2m+1)^n - (2m-1)^n)/2 = sum over j = n-1,
    n-3, ... >= 0 of C(n, j) 2^j m^j canonical vectors.  For uniformly
    distributed phases about 2 sum_{m >= K} c_n(m) m^-s of them have
    dist(<k,t>, Z) <= |k|^-s (each term summed as its first term plus an
    integral); the floor is the smallest K bringing that under `budget`.
    For s <= n the sum diverges (Dirichlet), so no scale is significant.
    """
    if s <= n:
        return math.inf
    terms = [(j, math.comb(n, j) * 2**j) for j in range(n - 1, -1, -2)]

    def tail(k):
        return 2.0 * sum(
            a * (k ** (j - s) + k ** (j + 1 - s) / (s - j - 1)) for j, a in terms
        )

    lo, hi = 2, 2
    while tail(hi) > budget:
        hi *= 2
        if hi > 10**15:
            return math.inf
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= budget:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _quotient(a, b, shift):
    """floor(a 2**shift / b) for b > 0."""
    return (a << shift) // b if shift >= 0 else a // (b << -shift)


def _rational_power(norm, s):
    """norm**s for s >= 0 when it is rational, as an integer: s = m / 2**j
    and norm a 2**j-th power; None otherwise."""
    m, q = s.as_integer_ratio()
    while q > 1:
        root = math.isqrt(norm)
        if root * root != norm:
            return None
        norm, q = root, q >> 1
    return norm**m


def _power(norm, s, w):
    """norm**s for s >= 0 as an interval (lo, hi, exp) of about w bits: the
    exact integer where it is rational, the integer square root of norm**m
    for s = m / 2, else exp(s ln norm)."""
    p = _rational_power(norm, s)
    if p is not None:
        return p, p, 0
    m, q = s.as_integer_ratio()
    if q == 2:
        v = norm**m
        shift = max(w - v.bit_length() // 2, 0)
        root = math.isqrt(v << 2 * shift)
        return root, root + 1, -shift
    lo, hi, ex = bf.log(norm, 1, w + 16 + int(s).bit_length())
    return bf.exp(m * lo, m * hi, ex + 1 - q.bit_length(), w)


def _level_bound(modulus, norm, s):
    """The largest r' with r' / modulus <= norm**-s (1 + 2**-WITNESS_TOL_BITS):
    the floor of modulus (2**20 + 1) / (2**20 norm**s), exact.

    Where norm**s is rational it is an exact integer and so is the quotient's
    floor; otherwise the quotient is irrational, and its interval is refined
    until both ends have one floor.
    """
    num = modulus * ((1 << WITNESS_TOL_BITS) + 1)

    def series(w):
        lo, hi, ex = _power(norm, s, w)
        shift = -ex - WITNESS_TOL_BITS
        return ((_quotient(num, hi, shift), _quotient(num, lo, shift), 0),)

    bits = max(modulus.bit_length() - int(s * math.log2(norm)), 0) + 32
    return bf.ziv(series, lambda man, exp: man, bits)[0]


def _scan_general(tvec, kmax, keep, s_grid, prec_bits):
    """Scan 0 < |k| <= kmax for the fractional parts tvec, in every rank.

    Returns (ranges, rational_k, modulus): the ``_scan.RangeScan`` of each
    dyadic range, the least exact zero (by |k|, then k) or None, and the
    modulus L of ``_phase_grid``, so an exact p/q has period q and an exact
    zero has r' = 0.  A range's witnesses are its first
    ``_scan.WITNESS_CAP`` points in (|k|, k) order with |k| >= 2 (|k| = 1
    would make every bound dist <= |k|^-s trivial) that meet a level of
    s_grid above the rank n, each with the levels it meets.  Only the points
    with r' <= ``_level_bound(L, lo, s*)``, s* the least such level, are
    tested, since the bound falls as |k| and s grow.  Levels s <= n are left
    out, as Dirichlet's theorem gives them a witness for every t; with no
    level above n there is no witness.
    Raises PrecisionError when a divisor is below the scan resolution, or
    when the smallest one is not resolved at the declared `prec_bits`.
    """
    scaled, modulus = _phase_grid(tvec)
    above = [s for s in s_grid if s > len(tvec)]

    def levels(rp, norm):
        if norm < 2:
            return ()
        return tuple(s for s in above if rp <= _level_bound(modulus, norm, s))

    # past MAX_PREC bits --prec can give no more: say so instead of advising it
    at_most = prec_bits is not None and prec_bits >= MAX_PREC
    try:
        ranges = _scan.scan_unit(
            scaled, modulus, kmax, keep,
            lambda lo: _level_bound(modulus, lo, above[0]) if above else -1,
            levels, s_grid[0], s_grid[-1], _declared(tvec)[0],
        )
    except PrecisionError as exc:
        if not at_most:
            raise
        raise PrecisionError(
            f"divisor at k={exc.k} is below the scan resolution at {prec_bits} input bits, "
            f"and --prec takes at most {MAX_PREC}", exc.k
        ) from None
    # ranges ascend in |k|, so the first zero found is the least
    rational_k = next((rng.zero for rng in ranges if rng.zero), None)
    global_min = min((rng.kept[0][0] for rng in ranges if rng.kept), default=None)
    if prec_bits is not None and global_min is not None and not _resolved(
        global_min, len(tvec) * kmax, modulus, prec_bits
    ):
        raise PrecisionError(
            f"smallest scanned divisor is not resolved at {prec_bits} input bits"
            + (f", and --prec takes at most {MAX_PREC}" if at_most
               else "; increase the working precision")
        )
    return ranges, rational_k, modulus


def _weighted(rp, modulus, norm, s, w):
    """norm**s 2 sin(pi d) for d = rp / modulus in (0, 1/2] as an interval
    (lo, hi, exp) of about w bits, exact where the value is rational.  It is
    rational only where (2 sin(pi d))**2 (``_SQUARED_DIVISOR``) and
    norm**(2 s) are, and their product is the square of an integer: 2 sin(pi
    d) lies in an abelian field, which meets the real field of norm**s in
    degree at most 2.  Such a value can be a tie of two doubles (2 * 3**34 at
    d = 1/2), which no interval would resolve."""
    twelfths, rem = divmod(12 * rp, modulus)
    if not rem and twelfths in _SQUARED_DIVISOR:
        p = _rational_power(norm, 2 * s)
        if p is not None:
            v = p * _SQUARED_DIVISOR[twelfths]
            root = math.isqrt(v)
            if root * root == v:
                return root, root, 0
    (lo, hi, ex), _ = bf.sin_cos_pi(rp, modulus, w)
    plo, phi, pex = _power(norm, s, w)
    return 2 * plo * lo, 2 * phi * hi, pex + ex


def _exponent(rp, modulus, norm, w):
    """1 - ln d / ln norm = 1 + ln(modulus / rp) / ln norm for d = rp /
    modulus <= 1/2 and norm >= 2, as an interval (lo, hi, -w).  It is never
    a tie of two doubles: that would need norm or 1 / d beyond 2**(2**26)."""
    alo, ahi, aex = bf.log(modulus, rp, w)
    blo, bhi, bex = bf.log(norm, 1, w)
    shift, one = aex - bex + w, 1 << w
    return one + _quotient(alo, bhi, shift), one - _quotient(-ahi, blo, shift), -w


def _double(series):
    """The correctly rounded double of the value of series(w) = (lo, hi, exp)."""
    return bf.ziv(lambda w: (series(w),), bf.double, bf.START_BITS)[0]


def _divisor(rp, modulus):
    """2 sin(pi rp / modulus), correctly rounded, for 0 < rp <= modulus / 2."""
    return _double(partial(_weighted, rp, modulus, 1, 0.0))


def _least(points, s, modulus):
    """(u, (r', k, |k|)): the point of points (r', k, |k|) with the least
    |k|^s 2 sin(pi r' / modulus), and u that value correctly rounded.

    Rounding is monotone, so only the points whose doubles equal u can hold
    the minimum; their intervals are refined, at twice the bits each time,
    until one lies below the others.  Points equal in (r', |k|) are exact
    ties, and points whose intervals still overlap at TIE_BITS bits are taken
    as ties too: of ties the least (|k|, k) wins.
    """
    rounded = [
        (_double(partial(_weighted, rp, modulus, norm, s)), (rp, k, norm))
        for rp, k, norm in points
    ]
    u = min(v for v, _ in rounded)
    best = [p for v, p in rounded if v == u]
    w = 128
    while len({(rp, norm) for rp, _, norm in best}) > 1 and w <= TIE_BITS:
        bounds = [_weighted(rp, modulus, norm, s, w) for rp, _, norm in best]
        top = min(bf.fraction((hi, ex)) for _, hi, ex in bounds)
        best = [p for p, (lo, _, ex) in zip(best, bounds) if bf.fraction((lo, ex)) <= top]
        w *= 2
    return u, min(best, key=lambda p: (p[2], p[1]))


def _refine_range_minimum(rng, s, modulus):
    """``_least`` over the range's frontier (``_scan.collect_below``), which
    holds every range minimum."""
    return _least(rng.frontier, s, modulus)


def classify(
    t,
    kmax,
    s_grid=(1.0, 2.0, 3.0),
) -> ClassificationReport:
    """Scan 0 < |k| <= kmax and classify the translation vector t.

    Witnesses are the k with |k| >= 2 and dist(<k,t>, Z) <= |k|^-s
    (relative tolerance 2**-20) at a level s of s_grid above the rank n.
    Levels s <= n are neither scanned nor reported: by Dirichlet's theorem
    every t has such witnesses at every scale, so they are no evidence.

    Rational: an exactly zero divisor was certified.
    LiouvilleEvidence: s_grid has a level above n, every such level has a
    witness, and at the largest s some witness clears the accident floor:
    random phases alone produce small-k coincidences, so a witness only
    counts once fewer than ~0.02 such accidents would be expected at or
    beyond its scale.
    DiophantineEvidence(C, s): the per-dyadic-shell minima of |k|^s * divisor
    stay within DIO_RATIO of each other, giving the empirical constant
    C(s) = min |k|^s * divisor.
    Inconclusive otherwise.
    """
    tvec = [c.fractional_part() for c in _coerce_vector(t)]
    n = len(tvec)
    kmax = int(kmax)
    if kmax < 1:
        raise DomainError("kmax must be at least 1")
    s_grid = sorted({float(s) for s in s_grid})
    if not s_grid:
        raise DomainError("s_grid must be nonempty")
    if not all(map(math.isfinite, s_grid)):
        raise DomainError("s values must be finite")
    if s_grid[0] < 0.5:
        raise DomainError("s values below 1/2 carry no approximation content")
    if s_grid[-1] > MAX_LEVEL:
        raise DomainError(
            f"s values above {MAX_LEVEL} are out of range: |k|^s overflows a double "
            "for every |k| >= 2"
        )
    s_max = s_grid[-1]

    prec_bits = _declared(tvec)[1]
    ranges, rational_k, modulus = _scan_general(tvec, kmax, N_RECORDS, s_grid, prec_bits)

    # per-s table with exact minima
    s_table = []
    dio_s = dio_c = None
    for s in s_grid:
        # rounding is monotone: C and the shell values are the ranges' doubles
        shell = [_refine_range_minimum(rng, s, modulus) for rng in ranges if rng.kept]
        if not shell:
            s_table.append(SLevelRow(s, math.inf, (), math.inf, math.inf, False))
            continue
        c_val, (_, c_k, _) = _least([p for _, p in shell], s, modulus)
        mins = [u for u, _ in shell]
        evidence = (
            len(shell) >= 2
            and min(mins) > 0.0
            and min(mins) >= DIO_RATIO * max(mins)
        )
        s_table.append(SLevelRow(s, c_val, c_k, min(mins), max(mins), evidence))
        if evidence and dio_s is None:
            dio_s, dio_c = s, c_val

    # witness values, each rounded once from its exact value
    wit_records = []
    floors = {s: _significance_floor(s, n) for s in s_grid if s > n}
    for rng in ranges:
        for kvec, rp, normk, levels in rng.witnesses:
            wit_records.append(
                WitnessRecord(
                    k=kvec,
                    normk=normk,
                    dist=rp / modulus,
                    divisor=_divisor(rp, modulus),
                    exponent=_double(partial(_exponent, rp, modulus, normk)),
                    levels=levels,
                    significant=tuple(s for s in levels if normk >= floors[s]),
                )
            )

    # global records: smallest scanned divisors
    merged = sorted(p for rng in ranges for p in rng.kept)[:N_RECORDS]
    records = tuple(
        DivisorRecord(k=kv, divisor=_divisor(rp, modulus), normk=max(map(abs, kv)))
        for rp, kv in merged
    )

    # every requested level above n must have a witness, and the top level
    # one clearing the accident floor: none can when no level is above n
    liouville = all(
        any(s in w.levels for w in wit_records) for s in floors
    ) and any(s_max in w.significant for w in wit_records)
    if rational_k is not None:
        verdict = "Rational"
        dio_s = dio_c = None
    elif liouville:
        verdict = "LiouvilleEvidence"
        dio_s = dio_c = None
    elif dio_s is not None:
        verdict = "DiophantineEvidence"
    else:
        verdict = "Inconclusive"

    return ClassificationReport(
        verdict=verdict,
        dim=n,
        kmax=kmax,
        precision_bits=prec_bits,
        points_scanned=sum(r.n_scanned for r in ranges),
        s_table=tuple(s_table),
        witnesses=tuple(sorted(wit_records, key=lambda w: (w.normk, w.k))),
        records=records,
        rational_k=rational_k,
        diophantine_s=dio_s,
        diophantine_c=dio_c,
    )


# ---------------------------------------------------------------------------
# joint-spectrum fan


def fan_member(lam: int, xi: int, n: int) -> bool:
    """Membership in the fan {(0, xi): xi >= 0} u {(lam, |lam|(2j + n)): j >= 0}."""
    if n < 1:
        raise DomainError("n must be positive")
    lam = int(lam)
    xi = int(xi)
    if lam == 0:
        return xi >= 0
    if xi < 0:
        return False
    a = abs(lam)
    if xi % a:
        return False
    q = xi // a
    return q >= n and (q - n) % 2 == 0
