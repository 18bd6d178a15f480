"""Exact divisor scan by lattice enumeration, for every rank.

A range holds the canonical k in Z^n (first nonzero component > 0) with
lo <= |k| < hi (max-norm), each at r' = min(x, m - x), x = <k, U> mod m, for
exact integers U_i = t_i m.  With e the residue of x in -m < 2 e <= m, r' =
|e| and (k, e) runs over the lattice spanned by the rows (e_i, U_i mod m)
and (0, m): the points at r' <= R are its vectors in a box, a box of k
(one in rank 1, 2n - 1 in rank n, cut to the canonical k) times |e| <=
R.  Per shell R and box, integer weights make the box a cube; the basis
is LLL-reduced under them (Lenstra, Lenstra and Lovasz 1982, on integers
as in Cohen's Algorithm 2.6.7), starting from the basis the last shell
left, which takes a few swaps (O(log m) for the first); rows n .. 1 run
over the ball around the box's center that holds the cube (Fincke and
Pohst 1985), with exact integer bounds at every level; and row 0 runs over
the exact interval that keeps the point in the box.  Along it e is
constant and k monotone (a residue class of an exact rational), or |e|
grows on each side of e = 0, so each interval gives at most two runs that
already ascend in (r', k).  A run of constant e is one line k + t dk at one
r', which the walk reads by arithmetic (``_walk``), whatever its length; any
other run gives one point at a time, and ``heapq.merge`` joins the lines by
their heads and the points lazily.  R starts where about 8 points are
expected and doubles up to m / 2, so a walk costs one ball per box and
shell plus O(log runs) per point or line it reads.  No float takes part in
any decision.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator

from .errors import PrecisionError

# an exact rational upper bound of pi
PI_NUM, PI_DEN = 314159265358979323847, 10**20

# witnesses with a level retained per range, lowest (|k|, k) first; bounds
# the report and the scan's memory on degenerate near-resonant inputs
WITNESS_CAP = 10000


class RangeScan:
    """What the walk of one dyadic range lo <= |k| < hi found."""

    __slots__ = ("lo", "hi", "n_scanned", "kept", "witnesses", "frontier", "zero")

    def __init__(self, lo, hi, n_scanned, kept, witnesses, frontier, zero):
        self.lo = lo
        self.hi = hi                # exclusive
        self.n_scanned = n_scanned  # points of the range that are not exact zeros
        self.kept = kept            # [(r', k)] ascending by (r', k)
        self.witnesses = witnesses  # [(k, r', |k|, levels)] ascending by (|k|, k)
        self.frontier = frontier    # [(r', k, |k|)], see collect_below
        self.zero = zero            # the least exact zero, by (|k|, k), or None


def dyadic_ranges(kmax):
    for j in range(kmax.bit_length()):
        yield 1 << j, min(2 << j, kmax + 1)


def lattice(tvec, m):
    """The rows (unit vector e_i, U_i mod m) and (0, m): a basis of the
    lattice of the scan, (k, e) with e = <k, U> mod m."""
    n = len(tvec)
    rows = [[int(i == j) for j in range(n)] + [u % m] for i, u in enumerate(tvec)]
    return rows + [[0] * n + [m]]


def _gso(b, w):
    """Integral Gram-Schmidt data of the rows b under <u, v> = sum w_c u_c v_c:
    d[j + 1] = lam[j][j] is the Gram determinant of rows 0 .. j and lam[i][j]
    = d[j + 1] mu_ij, all integers (d[j + 1] = 0 once the rows are dependent)."""
    d, lam = [1], [[0] * len(b) for _ in b]
    for i, u in enumerate(b):
        for j in range(i + 1):
            g = sum(map(operator.mul, map(operator.mul, w, u), b[j]))
            for l in range(j):
                g = (d[l + 1] * g - lam[i][l] * lam[j][l]) // d[l]
            lam[i][j] = g
        d.append(lam[i][i])
    return d, lam


def _reduce(b, w):
    """LLL-reduce the rows b in place (delta = 99/100), one ``_gso`` a swap."""
    while True:
        d, lam = _gso(b, w)
        for k in range(1, len(b)):
            for l in reversed(range(k)):
                q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])  # nearest integer
                if q:
                    b[k] = [x - q * y for x, y in zip(b[k], b[l])]
                    for i in range(l + 1):
                        lam[k][i] -= q * lam[l][i]
            if 100 * d[k + 1] * d[k - 1] < 99 * d[k] ** 2 - 100 * lam[k][k - 1] ** 2:
                b[k - 1], b[k] = b[k], b[k - 1]
                break
        else:
            return


def _ball(d, lam, x, j, budget, p=0):
    """Each x with x[j + 1:] as given whose levels j .. 1 keep the squared
    norm of u = sum x_i b_i within budget (``_gso`` data d, lam).  Level j
    adds y^2 / (d[j + 1] d[j]), y = d[j + 1] x_j + sum_{i > j} lam[i][j] x_i,
    to the integer p = d[j + 1] |u projected away from rows 0 .. j|^2, so
    it keeps y^2 <= d[j] (budget d[j + 1] - p)."""
    if j == 0:
        yield x
        return
    t = sum(lam[i][j] * x[i] for i in range(j + 1, len(x)))
    r = math.isqrt(d[j] * (budget * d[j + 1] - p))
    for x[j] in range(-((r + t) // d[j + 1]), (r - t) // d[j + 1] + 1):
        y = d[j + 1] * x[j] + t
        yield from _ball(d, lam, x, j - 1, budget, (d[j] * p + y * y) // d[j + 1])


def _column(a, step, count):
    return range(a, a + count * step, step) if step else itertools.repeat(a, count)


def _norm(k):
    return max(map(abs, k))


def _run(v, b0, bounds):
    """The points v + t b0 with every coordinate in its bounds (low, high)
    and a canonical k, as lines (|e|, k, dk, count), each the points k +
    i dk, i < count, at |e|, ascending in |e|, then in k.

    e is constant along t, and then the run is one line, or |e| grows with
    t on the side of e = 0 that the bounds of e select, and then each point
    is a line of count 1: either way one direction of t ascends.  k is
    monotone in t, so the canonical k (first nonzero component > 0) hold an
    interval of t as well."""
    lows, highs = [], []
    for vc, bc, (low, high) in zip(v, b0, bounds):
        if bc < 0:
            vc, bc, low, high = -vc, -bc, -high, -low
        if bc:
            lows.append(-((vc - low) // bc))
            highs.append((high - vc) // bc)
        elif not low <= vc <= high:
            return ()
    n = len(v) - 1
    if n > 1 and not _canonical(v[:n], b0[:n], lows, highs):  # rank 1: k >= lo > 0
        return ()
    ta, tb = max(lows), min(highs)
    if ta > tb:
        return ()
    e0 = b0[-1]
    if not e0:
        t0, dk = (ta, b0[:n]) if b0 > [0] * n else (tb, [-d for d in b0[:n]])
        head = tuple([a + t0 * d for a, d in zip(v[:n], b0)])
        return [(abs(v[-1]), head, tuple(dk), tb - ta + 1)]
    t0, step = (ta, 1) if (e0 > 0) == (bounds[-1][0] >= 0) else (tb, -1)
    ks = zip(*[_column(a + t0 * d, step * d, tb - ta + 1) for a, d in zip(v[:n], b0)])
    # b0 stands in for the step of k, which a line of count 1 never takes
    es = _column(abs(v[-1] + t0 * e0), abs(e0), tb - ta + 1)
    return zip(es, ks, itertools.repeat(b0), itertools.repeat(1))


def _canonical(k, dk, lows, highs):
    """Add to lows and highs the bound on t that keeps k + t dk canonical
    (first nonzero component > 0); False when no t does.  The first
    component that moves is -rem at t = tz and changes sign there, where
    the components after it decide."""
    for i, (a, d) in enumerate(zip(k, dk)):
        if d:
            tz, rem = divmod(-a, d)
            rest = [c + tz * e for c, e in zip(k[i + 1:], dk[i + 1:])]
            rest = not rem and rest > [0] * len(rest)
            if d > 0:
                lows.append(tz if rest else tz + 1)
            else:
                highs.append(tz if rem or rest else tz - 1)
            return True
        if a:
            return a > 0
    return False


def _box_runs(rows, box, big, sides):
    """The runs of the lattice points in the box of k times each side of e,
    enumerated in the ball around the box's center that holds the box."""
    center = [(a + b) // 2 for a, b in box] + [0]
    half = [max(1, b - c) for (_, b), c in zip(box, center)] + [max(big, 1)]
    cube = math.prod(half)
    w = [(cube // h) ** 2 for h in half]  # the box is a cube of half-side cube
    _reduce(rows, w)
    d, lam = _gso(rows + [center], w)
    for x in _ball(d, lam, [0] * len(rows) + [-1], len(box), len(rows) * cube**2):
        v = [sum(map(operator.mul, x[1:-1], col)) for col in zip(*rows[1:])]
        for side in sides:
            yield _run(v, rows[0], box + [side])


def _members(lines):
    """The k of a group's lines (r', k, dk, count), ascending."""
    if len(lines) == 1:
        _, k, dk, count = lines[0]
        return zip(*map(_column, k, dk, itertools.repeat(count))) if count > 1 else (k,)
    return heapq.merge(*(
        zip(*map(_column, k, dk, itertools.repeat(count))) for _, k, dk, count in lines
    ))


def _shells(rows, m, lo, hi):
    """One iterator per shell R of the groups (r', lines) of the points
    prev < r' <= R, in ascending r'.  Each line (r', k, dk, count) holds the
    points k + i dk, i < count, ascending in k: a run along which e is
    constant is one line, any other run one line of count 1 per point.  The
    lines are merged by their heads, so a run of constant e costs one heap
    entry whatever its length.  Box i: |k_j| < lo for j < i, lo <= |k_i| <
    hi, |k_j| < hi for j > i; e >= 0 and e < 0 run apart."""
    n = len(rows) - 1
    boxes = []
    for i in range(n):
        box = [(1 - lo, lo - 1)] * i + [(lo, hi - 1)] + [(1 - hi, hi - 1)] * (n - 1 - i)
        boxes += [box, box[:i] + [(1 - hi, -lo)] + box[i + 1:]] if i else [box]
    count = ((2 * hi - 1) ** n - (2 * lo - 1) ** n) // 2
    prev, big = -1, min(max(1, 8 * m // count), m // 2)
    while True:
        sides = [(prev + 1, big), (max(-big, -((m - 1) // 2)), -max(prev + 1, 1))]
        runs = [run for box in boxes for run in _box_runs(rows, box, big, sides)]
        yield itertools.groupby(heapq.merge(*runs), operator.itemgetter(0))
        if big >= m // 2:
            return
        prev, big = big, min(2 * big, m // 2)


def _least(k, dk, count):
    """(|k'|, k', t): the member k' = k + t dk of a line of least |k'|, the
    first of them.

    |k + t dk| is the greatest of the |k_i| with dk_i = 0 and, with B_i =
    |dk_i| > 0 and A_i = sign(dk_i) k_i, of the rising lines B_i t + A_i and
    the falling lines -(B_i t + A_i).  So it is convex in t, and its real
    minimum is at t* where the greatest rising line meets the greatest
    falling one: t* = -(A_i + A_j) / (B_i + B_j) for the pair (i, j) of
    greatest value (A_i B_j - A_j B_i) / (B_i + B_j) there.  Its least value
    y over 0 <= t < count is at floor(t*) or the next integer, clamped, and
    the first t at y is the least that keeps every falling line <= y."""
    slopes = [(d, a) if d > 0 else (-d, -a) for a, d in zip(k, dk) if d]
    num, den, at = 0, 1, None
    for bi, ai in slopes:
        for bj, aj in slopes:
            if at is None or (ai * bj - aj * bi) * den > num * (bi + bj):
                num, den, at = ai * bj - aj * bi, bi + bj, -(ai + aj)
    t = min(max(at // den, 0), count - 2)
    y = min(_norm(a + u * d for a, d in zip(k, dk)) for u in (t, t + 1))
    t = max(0, *(-((y + a) // b) for b, a in slopes))
    return y, tuple(a + t * d for a, d in zip(k, dk)), t


def _by_norm(k, dk, count, t):
    """(|k'|, k') for each member k' of a line, ascending, with t the index
    of the first member of least |k'| (``_least``): |k'| falls strictly
    before it and does not fall after it."""
    if count == 1:
        return ((_norm(k), k),)
    sides = (
        zip(*map(_column, [a + (t - 1) * d for a, d in zip(k, dk)], [-d for d in dk],
                 itertools.repeat(t))),
        zip(*map(_column, [a + t * d for a, d in zip(k, dk)], dk, itertools.repeat(count - t))),
    )
    return heapq.merge(*(((_norm(p), p) for p in side) for side in sides))


def _least_inexact(lines, declared):
    """The least k of the lines (r', k, dk, count) that is nonzero on a
    declared component, or None.  Of a line only the first member can be,
    or else the second, since the components step by dk."""
    firsts = []
    for _, k, dk, count in lines:
        if count > 1 and not any(map(k.__getitem__, declared)):
            k = tuple(map(operator.add, k, dk))
        if any(map(k.__getitem__, declared)):
            firsts.append(k)
    return min(firsts, default=None)


def scan_unit(tvec, m, kmax, keep, witness_bound_fn, witness_levels, s_min, s_max, declared):
    """Scan 0 < |k| <= kmax in dyadic ranges; folded distances are r'/m.

    tvec holds the components as exact integers U_i with t_i = U_i / m;
    `declared` indexes those that stand for a real known only to the
    precision they declare.

    Per range: the `keep` smallest (r', k); the witnesses, the first
    WITNESS_CAP in ascending (|k|, k) of the points with r' <=
    witness_bound_fn(lo) for which witness_levels(r', |k|) is not empty,
    each with those levels; the frontier (``collect_below``) and the least
    exact zero, all from one walk of the range's stream (``_walk``).
    witness_levels(r', |k|) may only lose levels as |k| grows from 2.
    """
    n = len(tvec)
    rows = lattice(tvec, m)
    out = []
    for lo, hi in dyadic_ranges(kmax):
        rs = RangeScan(lo, hi, ((2 * hi - 1) ** n - (2 * lo - 1) ** n) // 2, [], [], [], None)
        walk = _walk(rs, rows, m, keep, witness_bound_fn(lo), witness_levels, s_max, declared)
        rs.frontier = collect_below(walk, s_min)
        rs.witnesses = [w[2:] for w in sorted(rs.witnesses, reverse=True)]
        out.append(rs)
    return out


def _walk(rs, rows, m, keep, bound, witness_levels, s_max, declared):
    """Yield (r', k, |k|) for the range rs in ascending r', one point for
    each r': of its points the least (|k|, k).  ``collect_below`` would keep
    no other: at one r' a smaller |k| pops a larger one at every s_min >= 1,
    and at any s > 0 the others hold no range minimum.  On the way fill
    rs.kept and rs.zero, and rs.witnesses with a heap of (-|k|, -k, k, r',
    |k|, levels): the WITNESS_CAP least (|k|, k) among the points with r' <=
    bound and nonempty witness_levels(r', |k|), whose root is the greatest.

    The points at one r' come as lines (``_shells``), each read by
    arithmetic: its member of least |k| in closed form (``_least``), its
    first members for rs.kept, and for the witnesses its members in
    ascending (|k|, k) only until one cannot enter the full heap or, at
    |k| >= 2, has no level, as then none after it has.

    A point with r' = 0 whose k vanishes on every declared component is an
    exact zero: it is counted off rs.n_scanned and skipped.  Any other point
    with r' = 0 is below the scan resolution and raises PrecisionError.

    The walk stops at the first r' past the witness bound, once `keep`
    points are held, that also cannot beat a point f already seen at any
    level s <= s_max: |k|**s sin(pi r'/m) >= 4 lo**s r'/m, and f has at most
    2 pi |k_f|**s r'_f/m, so 2 lo**c r' > pi |k_f|**c r'_f with
    c = ceil(s_max) rules r' and all later points out.  As each point sets
    stop no lower than its own r', only the filling of rs.kept can stop the
    walk inside one r': then the r' gives its first points in k order alone.
    """
    c_hi = math.ceil(s_max)
    stop_den = 2 * rs.lo**c_hi * PI_DEN
    stop = math.inf  # no later point can beat a point seen once r' > stop
    least = math.inf  # least |k| seen
    kept, wit, cap = rs.kept, rs.witnesses, WITNESS_CAP
    for shell in _shells(rows, m, rs.lo, rs.hi):
        for rp, group in shell:
            lines = list(group)
            last = rp > stop and rp > bound
            if last:
                need = keep - len(kept)
                if need <= 0:
                    return
                head = list(itertools.islice(_members(lines), need + 1))
                last = len(head) > need
                lines = [(rp, k, k, 1) for k in head[:need]]
            firsts = [
                (_norm(k), k, 0) if count == 1 else _least(k, dk, count)
                for _, k, dk, count in lines
            ]
            if rp == 0:
                k = _least_inexact(lines, declared)
                if k is not None:
                    raise PrecisionError(
                        f"divisor at k={k} is below the scan resolution; "
                        "increase the working precision", k
                    )
                rs.n_scanned -= sum(line[3] for line in lines)
                rs.zero = min(firsts)[1]
                continue
            if len(kept) < keep:
                if len(lines) == 1 and lines[0][3] == 1:  # one point, the common case
                    kept.append((rp, lines[0][1]))
                else:
                    more = itertools.islice(_members(lines), keep - len(kept))
                    kept.extend(zip(itertools.repeat(rp), more))
            if rp <= bound:
                for (_, k0, dk, count), (_, _, t) in zip(lines, firsts):
                    for norm, k in _by_norm(k0, dk, count, t):
                        if len(wit) >= cap and (norm, k) > (wit[0][4], wit[0][2]):
                            break
                        levels = witness_levels(rp, norm)
                        if not levels:
                            if norm > 1:
                                break
                            continue
                        entry = (-norm, tuple(map(operator.neg, k)), k, rp, norm, levels)
                        if len(wit) < cap:
                            heapq.heappush(wit, entry)
                        else:
                            heapq.heapreplace(wit, entry)
            norm, k, _ = min(firsts)
            if norm < least:
                least = norm
                stop = min(stop, PI_NUM * norm**c_hi * rp // stop_den)
            yield rp, k, norm
            if last:
                return


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
