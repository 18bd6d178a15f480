"""Exact divisor scan by the three-distance theorem, for every rank.

A line is the progression x_k = k T + C mod m over lo <= k < hi, for any
modulus m; ``points`` enumerates it in ascending (r', k) order, r' =
min(x_k, m - x_k), without visiting every k.  Its points x_j, j = k - lo in
[0, N), split the circle into gaps of at most three lengths (Sos 1958;
Swierczkowski 1959): with a and b the indices in [1, N) of the smallest and
of the largest residue of j T, the next point above x_j is x_{j+a} if j + a
< N, else x_{j-b} if j >= b, else x_{j+a-b}.  The walk starts at the line's
point nearest 0 from above and at the one nearest from below, found by a
Euclid descent, and merges the two sides, so it gives the points nearest 0
first and a scan stops as soon as it has what it needs.  Each line costs
O(log m) to start; each point after that costs O(1).

A dyadic range lo <= |k| < hi (max-norm) of the canonical k in Z^n (first
nonzero component > 0) is a set of lines along k_1, one per tail (k_2 ...
k_n) with the offset <tail, T_tail>; ``range_points`` merges them into one
ascending (r', k) stream.  Rank 1 is the one line with the empty tail.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass

from .errors import PrecisionError

# an exact rational upper bound of pi
PI_NUM, PI_DEN = 314159265358979323847, 10**20


@dataclass
class RangeScan:
    lo: int
    hi: int            # exclusive
    n_scanned: int     # points of the range that are not exact zeros
    kept: list         # [(r', k)] ascending by (r', k)
    witnesses: list    # [(k, r', |k|)] ascending by (|k|, k)
    frontier: list     # [(r', k, |k|)], see collect_below
    zero: tuple | None  # the least exact zero, by (|k|, k)


def dyadic_ranges(kmax):
    lo = 1
    while lo <= kmax:
        hi = min(2 * lo, kmax + 1)
        yield lo, hi
        lo = 2 * lo


def period(t, m):
    """The least p >= 1 with p t = 0 mod m."""
    return m // math.gcd(t, m)


def _rise_min(s, c, m, n):
    """(j, x): the j in [0, n) with the least x = (c + s j) mod m, for
    0 <= s, c < m and 1 <= n <= m / gcd(s, m) (distinct residues).

    Climbing by s, the least point is j = 0 or one just past a wrap of m: the
    w-th wrap leaves (c - w m) mod s, which falls by m mod s modulo s.
    Falling by s, it is the last point or one below s, just before a wrap:
    j = (c + i m) // s, leaving (c + i m) mod s, which climbs by m mod s.
    The moduli follow Euclid's algorithm on (m, s): O(log m) steps down, then
    each step's candidate is compared with its endpoint on the way back.
    """
    steps = []
    rising = True
    while True:
        if rising:
            wraps = (c + s * (n - 1)) // m
            if wraps == 0:
                j, x = 0, c
                break
            steps.append((True, s, c, m, 0))
            s, c, m, n = m % s, (c - m) % s, s, wraps
        else:
            last = (c - s * (n - 1)) % m
            if s * n <= c:  # no wrap: the last point is the least
                j, x = n - 1, last
                break
            steps.append((False, s, c, m, n))
            s, c, m, n = m % s, c % s, s, (s * n - c - 1) // m + 1
        rising = not rising
    for rose, s, c, m, n in reversed(steps):
        if rose:  # j counts wraps from the first
            j, x = (0, c) if x >= c else (((j + 1) * m - c + x) // s, x)
        else:
            last = (c - s * (n - 1)) % m
            j, x = (n - 1, last) if last < x else ((c + j * m) // s, x)
    return j, x


@functools.lru_cache(maxsize=64)
def _extremes(t, m, n):
    """(a, x_a, b, m - x_b): indices in [1, n) of the smallest and the largest
    residue k t mod m, for n >= 2 distinct residues.  The largest k t is the
    smallest k (m - t), so both are ``_rise_min`` over k = j + 1."""
    j, xa = _rise_min(t, t, m, n - 1)
    i, yb = _rise_min(m - t, m - t, m, n - 1)
    return j + 1, xa, i + 1, yb


def _line(t, c, m, lo, n):
    """(r', k) for lo <= k < lo + n in ascending (r', k), x_k = (k - lo) t + c
    mod m, for n distinct residues: one walk up from the point nearest 0
    from above, one down from the point nearest from below, merged."""
    if n == 1:
        yield min(c, m - c), lo
        return
    a, xa, b, yb = _extremes(t, m, n)
    j, x = _rise_min(t, c, m, n)  # nearest 0 from above
    # its predecessor on the circle is the largest point, nearest 0 from below
    if j >= a:
        i, y = j - a, xa - x
    elif j + b < n:
        i, y = j + b, yb - x
    else:
        i, y = j + b - a, xa + yb - x
    # up takes the x with 2 x <= m, down the y with 2 y < m: each point once
    half, below, top = m >> 1, (m + 1) >> 1, lo + n
    up, down = (x, lo + j), (y, lo + i)
    while True:
        if up[0] <= half and (up < down or down[0] >= below):
            yield up
            x, k = up
            if k + a < top:
                up = x + xa, k + a
            elif k - b >= lo:
                up = x + yb, k - b
            else:
                up = x + xa + yb, k + a - b
        elif down[0] < below:
            yield down
            y, k = down
            if k - a >= lo:
                down = y + xa, k - a
            elif k + b < top:
                down = y + yb, k + b
            else:
                down = y + xa + yb, k + b - a
        else:
            return


def _expand(base, p, hi):
    """Each point k0 of a walk on [lo, lo + p) as every k0 + j p < hi; the
    points sharing one r' come from at most two residues k0."""
    for rp, group in itertools.groupby(base, key=lambda pt: pt[0]):
        for k in heapq.merge(*(range(k0, hi, p) for _, k0 in group)):
            yield rp, k


def points(t, m, lo, hi, offset=0):
    """An iterator of (r', k) for lo <= k < hi in ascending (r', k), where
    r' = min(x, m - x) and x = k t + offset mod m.

    When t has a period p = m / gcd(t, m) < hi - lo (q for t = p/q on an
    exact grid) the walk runs on [lo, lo + p) and each point k0 stands for
    the whole residue class k0 + j p in the range.
    """
    t %= m
    p = period(t, m)
    base = _line(t, (lo * t + offset) % m, m, lo, min(p, hi - lo))
    return base if p >= hi - lo else _expand(base, p, hi)


def range_points(tvec, m, lo, hi):
    """Yield (r', k) for the canonical k in Z^n with lo <= |k| < hi, in
    ascending (r', k): r' = min(x, m - x), x = <k, tvec> mod m.

    One line along k_1 per tail (k_2 ... k_n) with |tail| < hi.  k_1 runs
    over [lo, hi) when |tail| < lo, else over [1, hi), or over [0, hi) when
    the tail's first nonzero component is positive.
    """
    t1, rest = tvec[0], tvec[1:]
    zero = (0,) * len(rest)
    lines = []
    for tail in itertools.product(range(1 - hi, hi), repeat=len(rest)):
        if max(map(abs, tail), default=0) < lo:
            start = lo
        else:
            start = 0 if tail > zero else 1
        offset = sum(ki * ti for ki, ti in zip(tail, rest)) % m
        lines.append(zip(points(t1, m, start, hi, offset), itertools.repeat(tail)))
    for (rp, k), tail in heapq.merge(*lines):
        yield rp, (k, *tail)


def scan_unit(tvec, m, kmax, keep, witness_bound_fn, s_min, s_max, declared):
    """Scan 0 < |k| <= kmax in dyadic ranges; folded distances are r'/m.

    tvec holds the components as exact integers U_i with t_i = U_i / m;
    `declared` indexes those that stand for a real known only to the
    precision they declare.

    Per range: the `keep` smallest (r', k), every witness candidate r' <=
    witness_bound_fn(lo) in ascending (|k|, k), the frontier
    (``collect_below``) and the least exact zero, all from one walk of the
    range's stream (``_walk``).  The caller picks the witnesses among the
    candidates and caps them.
    """
    n = len(tvec)
    out = []
    for lo, hi in dyadic_ranges(kmax):
        rs = RangeScan(lo, hi, ((2 * hi - 1) ** n - (2 * lo - 1) ** n) // 2, [], [], [], None)
        walk = _walk(rs, tvec, m, keep, witness_bound_fn(lo), s_max, declared)
        rs.frontier = collect_below(walk, s_min)
        rs.witnesses.sort(key=lambda w: (w[2], w[0]))
        out.append(rs)
    return out


def _walk(rs, tvec, m, keep, bound, s_max, declared):
    """Yield (r', k, |k|) for the points of the range rs in ascending (r', k),
    filling rs.kept, rs.witnesses and rs.zero on the way.

    A point with r' = 0 whose k vanishes on every declared component is an
    exact zero: it is counted off rs.n_scanned and skipped.  Any other point
    with r' = 0 is below the scan resolution and raises PrecisionError.

    The walk stops at the first r' past the witness bound, once `keep`
    points are held, that also cannot beat a point f already seen at any
    level s <= s_max: |k|**s sin(pi r'/m) >= 4 lo**s r'/m, and f has at most
    2 pi |k_f|**s r'_f/m, so 2 lo**c r' > pi |k_f|**c r'_f with
    c = ceil(s_max) rules r' and all later points out.
    """
    c_hi = math.ceil(s_max)
    stop_den = 2 * rs.lo**c_hi * PI_DEN
    stop = math.inf  # no later point can beat a point seen once r' > stop
    least = math.inf  # least |k| seen
    zero = (math.inf, None)  # the least exact zero as (|k|, k)
    kept, wit = rs.kept, rs.witnesses
    for rp, k in range_points(tvec, m, rs.lo, rs.hi):
        if rp > stop and rp > bound and len(kept) >= keep:
            return
        if rp == 0:
            if any(map(k.__getitem__, declared)):
                raise PrecisionError(
                    f"divisor at k={k} is below the scan resolution; "
                    "increase the working precision"
                )
            rs.n_scanned -= 1
            z = (max(map(abs, k)), k)
            if z < zero:
                zero = z
                rs.zero = k
            continue
        norm = max(map(abs, k))
        if len(kept) < keep:
            kept.append((rp, k))
        if rp <= bound:
            wit.append((k, rp, norm))
        if norm < least:
            least = norm
            stop = min(stop, PI_NUM * norm**c_hi * rp // stop_den)
        yield rp, k, norm


def collect_below(pts, s_min):
    """The Pareto frontier of a range's points (r', k, |k|), given in
    ascending (r', k): each point whose |k| is below every earlier |k|.
    Every other point has a frontier point with r' and |k| no larger, so it
    never holds a range minimum of |k|**s sin(pi r'/m); of equal (r', |k|)
    the least k is kept.

    A point g that follows f has r'_g >= r'_f and |k_g| < |k_f|, and then
    |k_g|**c r'_g < |k_f|**c r'_f with c = floor(s_min) means g beats f at
    every level s >= s_min (sin(pi x) / x falls as x grows), so f is dropped.
    """
    c_lo = math.floor(s_min)
    front = []
    for rp, k, norm in pts:
        if front and norm >= front[-1][2]:
            continue
        while front and norm**c_lo * rp < front[-1][2] ** c_lo * front[-1][0]:
            front.pop()
        front.append((rp, k, norm))
    return front
