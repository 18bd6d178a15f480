"""Exact rank-1 divisor scan by the three-distance theorem.

For a frequency range [lo, hi) the residues x_k = k T mod M, M = 2**bits, are
enumerated in ascending (r', k) order, r' = min(x_k, M - x_k), without
visiting every k.  The points {x_k : 0 <= k < N} split the circle into gaps
of at most three lengths (Sos 1958; Swierczkowski 1959): with a and b the
indices in [1, N) of the smallest and of the largest residue, the next point
above x_k is x_{k+a} if k + a < N, else x_{k-b} if k >= b, else x_{k+a-b}.
Walking up and down from x_0 = 0 and merging the two sides gives the points
nearest 0 first, so a scan stops as soon as it has what it needs.  Finding a
and b costs O(log M); each point after that costs O(1).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

# lowest-k witnesses retained per range; guards against degenerate
# near-resonant inputs flooding memory
WITNESS_CAP = 10000

# an exact rational upper bound of pi
PI_NUM, PI_DEN = 314159265358979323847, 10**20


@dataclass
class RangeScan:
    lo: int
    hi: int            # exclusive
    kept: list         # [(r', k)] ascending by (r', k)
    witnesses: list    # [(k, r')] ascending k


def dyadic_ranges(kmax):
    lo = 1
    while lo <= kmax:
        hi = min(2 * lo, kmax + 1)
        yield lo, hi
        lo = 2 * lo


def period(t, bits):
    """The least p >= 1 with p t = 0 mod 2**bits."""
    t %= 1 << bits
    if t == 0:
        return 1
    return (1 << bits) // (t & -t)


def _neighbours(t, m, n):
    """(a, x_a, b, M - x_b): indices in [1, n) of the smallest and the largest
    residue k t mod m, for n >= 2 distinct residues.

    Stern-Brocot descent with one division per step: (a, b) only ever moves to
    a mediant a + j b or b + j a, and stops once a + b >= n.
    """
    a, xa = 1, t
    b, yb = 0, m  # x_0 = 0 seen from below, at distance m
    while True:
        if xa < yb:
            j = min((yb - 1) // xa, (n - 1 - b) // a)
            if j == 0:
                return a, xa, b, yb
            b += j * a
            yb -= j * xa
        else:
            j = min((xa - 1) // yb, (n - 1 - a) // b)
            if j == 0:
                return a, xa, b, yb
            a += j * b
            xa -= j * yb


def _up(n, a, xa, b, yb, half):
    """(x_k, k) for 0 <= k < n in ascending x_k, while x_k <= half."""
    k = x = 0
    while True:
        if k + a < n:
            k += a
            x += xa
        elif k >= b:
            k -= b
            x += yb
        else:
            k += a - b
            x += xa + yb
        if x > half:
            return
        yield x, k


def _down(n, a, xa, b, yb, half):
    """(M - x_k, k) for 0 <= k < n in ascending M - x_k, while it is < half."""
    k = y = 0
    while True:
        if k >= a:
            k -= a
            y += xa
        elif k + b < n:
            k += b
            y += yb
        else:
            k += b - a
            y += xa + yb
        if y >= half:
            return
        yield y, k


def _merge(up, down):
    """Merge two ascending streams of (r', k); per point this costs less
    than heapq.merge, which exact rationals call O(Kmax/q) times."""
    end = (math.inf, 0)
    u, d = next(up, end), next(down, end)
    while u is not end or d is not end:
        if u < d:
            yield u
            u = next(up, end)
        else:
            yield d
            d = next(down, end)


def points(t, bits, lo, hi, stride=0):
    """Yield (r', k) for lo <= k < hi in ascending (r', k), where
    r' = min(x, 2**bits - x) and x = k t mod 2**bits.

    Multiples of `stride` (if nonzero) are skipped.  When t has an exact
    period p < hi the walk runs on [0, p) and each point k0 stands for every
    k0 + j p in the range.
    """
    m = 1 << bits
    t %= m
    p = period(t, bits)
    n = min(p, hi)
    base = iter([(0, 0)])  # k = 0 has r' = 0; it matters once k0 + j p is in range
    if n > 1:
        a, xa, b, yb = _neighbours(t, m, n)
        half = m >> 1
        base = itertools.chain(
            base, _merge(_up(n, a, xa, b, yb, half), _down(n, a, xa, b, yb, half))
        )
    if n == hi:  # every point is distinct
        for rp, k in base:
            if k >= lo and not (stride and k % stride == 0):
                yield rp, k
        return
    # the points sharing one r' come from at most two residues k0
    for rp, group in itertools.groupby(base, key=lambda pt: pt[0]):
        first = [k0 + max(0, -((k0 - lo) // p)) * p for _, k0 in group]
        for k in heapq.merge(*(range(f, hi, p) for f in first)):
            if not (stride and k % stride == 0):
                yield rp, k


def scan_unit(t, bits, kmax, keep, witness_bound_fn, stride) -> list[RangeScan]:
    """Scan k = 1..kmax in dyadic ranges; folded distances are r'/2**bits.

    Per range: the `keep` smallest (r', k), and the first WITNESS_CAP k (in
    ascending k) with r' <= witness_bound_fn(lo).  Every zero residue must
    lie on a multiple of `stride`.
    """
    out = []
    for lo, hi in dyadic_ranges(kmax):
        bound = witness_bound_fn(lo)
        kept, wit = [], []
        for rp, k in points(t, bits, lo, hi, stride):
            if rp > bound:
                if len(kept) == keep:
                    break
            else:
                wit.append((k, rp))
            if len(kept) < keep:
                kept.append((rp, k))
        wit.sort()
        out.append(RangeScan(lo, hi, kept, wit[:WITNESS_CAP]))
    return out


def collect_below(t, bits, lo, hi, stride, s_min, s_max):
    """The Pareto frontier of [lo, hi): each (r', k), in ascending r', whose k
    is below every earlier k.  Every other point has a frontier point with
    r' and k no larger, so it never holds a range minimum of k**s sin(pi r'/M).

    A point g that follows f has r'_g >= r'_f and k_g < k_f, and then
    k_g**c r'_g < k_f**c r'_f with c = floor(s_min) means g beats f at every
    level s >= s_min (sin(pi x) / x falls as x grows), so f is dropped.
    The walk stops at the first r' that cannot beat a point f seen at any
    level s <= s_max: k**s sin(pi r'/M) >= 4 lo**s r'/M, and f has at most
    2 pi k_f**s r'_f/M, so 2 lo**c r' > pi k_f**c r'_f with c = ceil(s_max)
    rules r' and all later points out.
    """
    c_lo, c_hi = math.floor(s_min), math.ceil(s_max)
    lo_c = lo**c_hi
    front = []
    stop = None  # PI_NUM * min k_f**c_hi r'_f over the points seen
    for rp, k in points(t, bits, lo, hi, stride):
        if stop is not None and 2 * lo_c * rp * PI_DEN > stop:
            break
        if front and k >= front[-1][1]:
            continue
        while front and k**c_lo * rp < front[-1][1] ** c_lo * front[-1][0]:
            front.pop()
        front.append((rp, k))
        v = PI_NUM * k**c_hi * rp
        if stop is None or v < stop:
            stop = v
    return front
