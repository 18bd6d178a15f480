"""The lattice enumerator against a list of every k.

``every_k`` is the reference of ``range_points``, the scan's stream of a
range point by point: every canonical k of a range, sorted.  ``walk`` is
the reference of ``scan_unit`` in rank 1: it steps x_k = k t + offset mod m
one k at a time, in O(hi - lo), and keeps the points the scan must find;
``capped`` picks the witnesses among them as the scan does.  ``plain_walk``
is its reference in every rank, over ``every_k``.  An exact rational p/q is
put on an exact grid, m = q 2^E and t = p 2^E, as on the grid of
``diophantine._phase_grid``.
"""

import itertools
import math
import operator
import random
import tracemalloc
from bisect import insort
from fractions import Fraction

import mpmath
import pytest

from heisencoh import _scan, diophantine
from heisencoh.errors import PrecisionError
from heisencoh.precision import PrecisionReal

M192 = 1 << 192


def exact_grid(p, q):
    """(t, m): p/q on a grid of 192 bits, t / m = p/q mod 1 exactly."""
    m = q << max(0, 192 - q.bit_length())
    return p * (m // q) % m, m


def walk(t, m, lo, hi, keep, witness_bound, offset=0, skip=None):
    """(kept, witnesses, zeros, all points) over k in [lo, hi), one k at a time.

    kept: the `keep` smallest (r', k); witnesses: (k, r') with 0 < r' <=
    witness_bound, in ascending k; zeros: k with r' = 0;
    all points: every (r', k) sorted.  k with skip(k) true are left out.
    """
    r = ((lo - 1) * t + offset) % m
    kept, witnesses, zeros, pts = [], [], [], []
    for k in range(lo, hi):
        r = (r + t) % m
        if skip and skip(k):
            continue
        rp = min(r, m - r)
        pts.append((rp, k))
        if rp == 0:
            zeros.append(k)
            continue
        if rp <= witness_bound:
            witnesses.append((k, rp))
        if len(kept) < keep:
            insort(kept, (rp, k))
        elif rp < kept[-1][0]:
            kept.pop()
            insort(kept, (rp, k))
    return kept, witnesses, zeros, sorted(pts)


def level_test(m, levels=(1, 2, 3)):
    """A witness test of the kind classify passes to scan_unit: the levels s
    with r' |k|^s <= m, for |k| >= 2."""
    return lambda rp, norm: tuple(s for s in levels if norm >= 2 and rp * norm**s <= m)


def capped(wit, test, cap):
    """The scan's witnesses from walk's (k, r'): the first `cap` in ascending
    k whose levels under test are not empty, as (k, r', |k|, levels)."""
    out = [((k,), rp, k, test(rp, k)) for k, rp in wit]
    return [w for w in out if w[3]][:cap]


def every_k(U, m, lo, hi):
    """Every (r', k) of a range, sorted: the canonical k in Z^n (first nonzero
    component > 0) with lo <= |k| < hi, x = <k, U> mod m, r' = min(x, m - x)."""
    n = len(U)
    pts = []
    for k in itertools.product(range(hi), *[range(1 - hi, hi)] * (n - 1)):
        if k > (0,) * n and max(map(abs, k)) >= lo:
            x = sum(map(operator.mul, k, U)) % m
            pts.append((min(x, m - x), k))
    return sorted(pts)


def range_points(rows, m, lo, hi):
    """(r', k) for the canonical k in Z^n with lo <= |k| < hi in ascending
    (r', k), from the groups of ``_scan._shells`` with rows the basis of
    ``_scan.lattice(U, m)``: r' = min(x, m - x), x = <k, U> mod m."""
    for shell in _scan._shells(rows, m, lo, hi):
        for rp, group in shell:
            for k in _scan._members(list(group)):
                yield rp, k


def check_range(U, m, lo, hi, limit=None):
    """range_points against every_k, whole or its first `limit` points; the
    zeros of the range."""
    got = list(itertools.islice(range_points(_scan.lattice(U, m), m, lo, hi), limit))
    want = every_k(U, m, lo, hi)
    assert got == want[:limit]
    return [k for rp, k in want if rp == 0]


def random_range(rnd, n):
    """(lo, hi) with hi <= 2 lo about half the time, small enough for every_k."""
    lo = rnd.randint(1, (3000, 30, 6, 3)[n - 1])
    return lo, lo + rnd.choice([1, rnd.randint(1, lo), lo])


def test_points_random_192_bit():
    rnd = random.Random(7)
    for _ in range(100):
        n = rnd.randint(1, 3)
        check_range([rnd.getrandbits(192) for _ in range(n)], M192, *random_range(rnd, n), 1500)


def test_points_dyadic_zeros_and_periods():
    # t = M/8: the multiples of 8 are exact zeros
    assert check_range([M192 // 8], M192, 1, 64) == [(k,) for k in range(8, 64, 8)]
    assert check_range([0], M192, 3, 7) == [(3,), (4,), (5,), (6,)]
    assert check_range([M192 // 8, M192 // 16], M192, 1, 3) == [(1, -2)]
    assert check_range([3 * M192 // 8, M192 // 2], M192, 1, 9) == [
        (k1, k2) for k1 in range(9) for k2 in range(-8, 9)
        if (k1, k2) > (0, 0) and (3 * k1 + 4 * k2) % 8 == 0
    ]
    for t in (M192 // 2, 3 * M192 // 8, M192 - M192 // 8, 5 * M192 // 64, 0):
        for lo, hi in ((1, 2), (1, 3), (5, 9), (3, 200), (64, 128), (100, 1000)):
            check_range([t], M192, lo, hi)
        for c in (0, 1, M192 // 8, M192 // 2 + 7, M192 - 1):
            for lo, hi in ((1, 2), (1, 3), (5, 9), (16, 32)):
                check_range([t, c], M192, lo, hi)


def test_points_near_rationals_with_offsets():
    # p/q rounded to 2^-192 (long runs of tiny r'), exactly on its grid (the
    # multiples of q are the zeros), and with a second component on the same
    # grid, exact or not (mixed vectors)
    rnd = random.Random(3)
    for p, q in ((355, 113), (22, 7), (1, 3), (2, 5), (520001, 10**6), (1, 1009)):
        t, m = exact_grid(p, q)
        near = round(p * M192 / q) % M192
        for lo, hi in ((1, 2), (1, 300), (64, 128), (1024, 2048), (4096, 6000)):
            check_range([near], M192, lo, hi)
            assert check_range([t], m, lo, hi) == [(k,) for k in range(lo, hi) if k % q == 0]
        for lo, hi in ((1, 2), (3, 5), (16, 32), (40, 50)):
            check_range([near, round(rnd.randrange(q) * M192 / q) % M192], M192, lo, hi)
            check_range([near, rnd.getrandbits(192)], M192, lo, hi)
            check_range([t, rnd.randrange(q) * (m // q)], m, lo, hi)
            check_range([rnd.randrange(m), t], m, lo, hi)


def test_points_single_point_ranges():
    rnd = random.Random(5)
    for _ in range(100):
        t = rnd.getrandbits(192)
        k = rnd.randint(1, 10**12)
        x = k * t % M192
        got = list(range_points(_scan.lattice([t], M192), M192, k, k + 1))
        assert got == [(min(x, M192 - x), (k,))]
    check_range([M192 // 4], M192, 4, 5)
    # rank n: hi = lo + 1 is the one shell |k| = lo
    for n, lo in ((2, 1), (2, 17), (3, 1), (3, 6), (4, 3)):
        check_range([rnd.getrandbits(192) for _ in range(n)], M192, lo, lo + 1)
        check_range([M192 // 4] * n, M192, lo, lo + 1)


@pytest.mark.parametrize("bits", [8, 13, 64, 193, 320, 512])
def test_points_other_moduli(bits):
    rnd = random.Random(bits)
    for _ in range(20):
        n = rnd.randint(1, 3)
        tvec = []
        for _ in range(n):
            t = rnd.getrandbits(bits)
            if rnd.random() < 0.3:
                j = rnd.randint(max(0, bits - 12), bits)
                t = (t >> j) << j  # period 2**(bits - j) at most
            tvec.append(t)
        check_range(tvec, 1 << bits, *random_range(rnd, n), 1500)


@pytest.mark.parametrize("m", [2, 3, 7, 113, 21 << 187, 3**121, 10**6 << 172, 2**192 + 1])
def test_points_moduli_not_powers_of_two(m):
    rnd = random.Random(m)
    for _ in range(20):
        n = rnd.randint(1, 3)
        tvec = []
        for _ in range(n):
            t = rnd.randrange(m)
            if rnd.random() < 0.3:
                t -= t % (m // math.gcd(m, rnd.choice([2, 3, 5, 7, 21, 113, 1000])))
            tvec.append(t)
        check_range(tvec, m, *random_range(rnd, n), 1500)


@pytest.mark.parametrize("m", [1, 2, 4, 6])
def test_points_small_moduli(m):
    # every point sits at one of m // 2 + 1 distances: long runs of ties
    rnd = random.Random(m)
    for n, kmax in ((1, 300), (2, 40), (3, 12), (4, 5)):
        for _ in range(3):
            tvec = [rnd.randrange(m) for _ in range(n)]
            for lo, hi in _scan.dyadic_ranges(kmax):
                check_range(tvec, m, lo, hi)


def test_points_prefixes_of_large_ranges():
    # the first points of ranges far larger than what a walk reads
    rnd = random.Random(23)
    for n, lo, limit in ((1, 2**14, 5000), (2, 48, 3000), (3, 10, 2000), (4, 4, 2000)):
        for m in (M192, 3 << 150):
            check_range([rnd.randrange(m) for _ in range(n)], m, lo, 2 * lo, limit)
        t, m = exact_grid(355, 113)
        check_range([t] + [rnd.randrange(m) for _ in range(n - 1)], m, lo, 2 * lo, limit)


def test_rank3_scan_memory_is_bounded():
    # a shell holds a few runs of points; one walker per line along k_1 held
    # about 45 MiB here
    tvec = [PrecisionReal.parse(c, 128) for c in ("golden", "sqrt2", "sqrt3")]
    diophantine.classify(tvec, 10)
    tracemalloc.start()
    try:
        diophantine.classify(tvec, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_scan_unit_matches_walk(monkeypatch):
    rnd = random.Random(11)
    cases = [(rnd.getrandbits(192), M192, None) for _ in range(10)]
    # 355/113 on its exact grid: the multiples of 113 are exact zeros
    cases += [(*exact_grid(355, 113), 113), (rnd.getrandbits(320), 1 << 320, None)]
    for t, m, q in cases:
        test = level_test(m)
        for keep, cap in ((1, 10**9), (4, 3), (64, 1)):
            def bound(lo, _m=m):
                return _m // lo

            monkeypatch.setattr(_scan, "WITNESS_CAP", cap)
            ranges = _scan.scan_unit([t], m, 3000, keep, bound, test, 1.0, 3.0, () if q else (0,))
            assert [(r.lo, r.hi) for r in ranges] == list(_scan.dyadic_ranges(3000))
            for r in ranges:
                skip = (lambda k, _q=q: k % _q == 0) if q else None
                kept, wit, zeros, _ = walk(t, m, r.lo, r.hi, keep, bound(r.lo), skip=skip)
                assert zeros == []
                assert r.kept == [(rp, (k,)) for rp, k in kept]
                assert r.witnesses == capped(wit, test, cap)
                multiples = [k for k in range(r.lo, r.hi) if q and k % q == 0]
                assert r.n_scanned == r.hi - r.lo - len(multiples)
                assert r.zero == ((multiples[0],) if multiples else None)


def test_scan_unit_witness_bound_is_inclusive():
    # t = 3/8: every r' is a multiple of M/8, so the bound M/4 is met exactly
    t, m = exact_grid(3, 8)
    test = level_test(m, (1, 2))
    ranges = _scan.scan_unit([t], m, 100, 4, lambda lo: m // 4, test, 1.0, 3.0, ())
    for r in ranges:
        kept, wit, _, _ = walk(t, m, r.lo, r.hi, 4, m // 4, skip=lambda k: k % 8 == 0)
        assert r.kept == [(rp, (k,)) for rp, k in kept]
        assert r.witnesses == capped(wit, test, _scan.WITNESS_CAP)
    assert any(rp == m // 4 for r in ranges for _, rp, _, _ in r.witnesses)


def test_scan_unit_raises_below_the_resolution():
    # k = 8 is a zero of t = M/8; it is exact only when t is exact
    args = (100, 4, lambda lo: M192 // lo, level_test(M192), 1.0, 3.0)
    with pytest.raises(PrecisionError, match=r"k=\(8,\)") as err:
        _scan.scan_unit([M192 // 8], M192, *args, (0,))
    assert err.value.k == (8,)
    ranges = _scan.scan_unit([M192 // 8], M192, *args, ())
    assert [r.zero for r in ranges if r.zero] == [(8,), (16,), (32,), (64,)]
    assert sum(r.n_scanned for r in ranges) == 100 - 100 // 8


def test_scan_unit_keeps_every_witness_candidate(monkeypatch):
    # every point of [2^14, 2^15) is a witness: with a cap above the range's
    # size the scan keeps them all, in ascending k, and with a cap of 100
    # the first 100 of them, in a walk that meets every point
    t = random.Random(2).getrandbits(192)
    wit = walk(t, M192, 2**14, 2**15, 8, M192)[1]
    for cap in (2**15, 100):
        monkeypatch.setattr(_scan, "WITNESS_CAP", cap)
        ranges = _scan.scan_unit(
            [t], M192, 2**15 - 1, 8, lambda lo: M192, lambda rp, norm: (1.0,), 1.0, 3.0, (0,)
        )
        (last,) = [r for r in ranges if r.lo == 2**14]
        assert last.witnesses == [((k,), rp, k, (1.0,)) for k, rp in wit][:cap]
    assert [k for (k,), _, _, _ in ranges[-1].witnesses] == list(range(2**14, 2**14 + 100))


def test_collect_below_holds_every_range_minimum():
    rnd = random.Random(13)
    cases = [(rnd.getrandbits(192), M192, None) for _ in range(10)]
    cases += [(round(p * M192 / q) % M192, M192, None) for p, q in ((355, 113), (22, 7))]
    cases += [(*exact_grid(p, q), q) for p, q in ((355, 113), (22, 7), (3, 8))]
    for t, m, q in cases:
        ranges = _scan.scan_unit(
            [t], m, 4095, 64, lambda lo: m // lo, level_test(m), 1.0, 3.0, () if q else (0,)
        )
        for r in ranges:
            if r.lo not in (1, 64, 2048):
                continue
            pts = walk(t, m, r.lo, r.hi, 1, 0, skip=q and (lambda k: k % q == 0))[3]
            front = r.frontier
            assert front == sorted(front, key=lambda p: (p[0], -p[2]))
            assert {(rp, k) for rp, (k,), _ in front} <= set(pts)
            for s in (1, 2, 3):
                def u(p, _s=s):
                    return p[1] ** _s * mpmath.sin(mpmath.pi * mpmath.mpf(p[0]) / m)

                with mpmath.workprec(100):
                    best = min(pts, key=u)
                    assert min(((rp, k) for rp, (k,), _ in front), key=u) == best


def plain_walk(U, m, lo, hi, keep, bound, test, s_min, s_max, declared, cap):
    """The walk of a range over every k, one point at a time: (kept,
    witnesses, frontier, n_scanned, least zero), or ("raise", k) for the k
    at which the walk meets a zero below the resolution.  The stop test and
    the witness rule are the scan's, as ``_scan._walk`` documents them."""
    c = math.ceil(s_max)
    stop = least = math.inf
    kept, wit, zeros, seen = [], [], [], []
    for rp, k in every_k(U, m, lo, hi):
        if rp > stop and rp > bound and len(kept) >= keep:
            break
        if rp == 0:
            if any(k[i] for i in declared):
                return "raise", k
            zeros.append(k)
            continue
        norm = max(map(abs, k))
        if len(kept) < keep:
            kept.append((rp, k))
        if rp <= bound and test(rp, norm):
            wit.append((k, rp, norm, test(rp, norm)))
        if norm < least:
            least = norm
            stop = min(stop, _scan.PI_NUM * norm**c * rp // (2 * lo**c * _scan.PI_DEN))
        seen.append((rp, k, norm))
    n_scanned = ((2 * hi - 1) ** len(U) - (2 * lo - 1) ** len(U)) // 2 - len(zeros)
    zero = min(zeros, key=lambda k: (max(map(abs, k)), k), default=None)
    wit = sorted(wit, key=lambda w: (w[2], w[0]))[:cap]
    return kept, wit, _scan.collect_below(seen, s_min), n_scanned, zero


def random_exact_or_mixed(rnd, n):
    """(U, m, declared) of a vector of rank n with an exact p/q, q <= 12, in
    every component but at most one, which is golden, sqrt2 or e at 64 bits
    in a mixed vector: the grid of ``diophantine._phase_grid``, on which the
    multiples of q are exact zeros and each residue class a run of constant
    e."""
    comps = [PrecisionReal.exact(Fraction(rnd.randrange(q), q))
             for q in (rnd.randint(1, 12) for _ in range(n))]
    if rnd.random() < 0.4:
        comps[rnd.randrange(n)] = PrecisionReal.parse(rnd.choice(["golden", "sqrt2", "e"]), 64)
    U, m = diophantine._phase_grid(comps)
    return U, m, diophantine._declared(comps)[0]


@pytest.mark.parametrize("n,kmax", [(1, 2000), (2, 40), (3, 7)])
def test_scan_unit_takes_constant_e_runs_as_the_plain_walk_does(monkeypatch, n, kmax):
    # exact and mixed vectors: almost every point lies on a run of constant
    # e, a zero run or a run of one r' longer than keep among them; the
    # kept list, witnesses (capped or not), frontier, count and least zero
    # are those of a walk over every k, also where the walk ends inside the
    # points of one r'
    for case in range(40):
        rnd = random.Random(f"{n}:{case}")
        U, m, declared = random_exact_or_mixed(rnd, n)
        keep = rnd.choice([1, 4, 10, 30, 64, 128])
        cap = rnd.choice([2, 7, 10**9])
        s_min, s_max = rnd.choice([(1.0, 3.0), (1.5, 2.5), (2.0, 2.0), (1.0, 1.0)])
        test = level_test(m, (n + 0.5, n + 1, n + 2))
        scale = rnd.choice([1, 2, 8])

        def bound(lo, _m=m, _scale=scale):
            return _scale * _m // lo**2

        monkeypatch.setattr(_scan, "WITNESS_CAP", cap)
        ranges = _scan.scan_unit(U, m, kmax, keep, bound, test, s_min, s_max, declared)
        assert [(r.lo, r.hi) for r in ranges] == list(_scan.dyadic_ranges(kmax))
        for r in ranges:
            want = plain_walk(U, m, r.lo, r.hi, keep, bound(r.lo), test, s_min, s_max,
                              declared, cap)
            got = (r.kept, r.witnesses, r.frontier, r.n_scanned, r.zero)
            assert got == want, (case, U, m, r.lo)


def test_scan_unit_reports_the_least_zero_below_the_resolution():
    # rank 2 on a dyadic grid with the first component declared: a zero run
    # on k_1 = 0 is exact, any zero with k_1 != 0 is below the resolution,
    # and the scan names the least of those in k order, as a walk over
    # every k meets it
    rnd = random.Random(17)
    m = 1 << 12
    for _ in range(40):
        U = [rnd.randrange(0, m, 1 << rnd.randint(8, 11)), rnd.randrange(0, m, 1 << 10)]
        for lo, hi in _scan.dyadic_ranges(20):
            want = plain_walk(U, m, lo, hi, 4, m // lo, level_test(m), 1.0, 3.0, (0,), 10**9)
            if want[0] != "raise":
                _scan.scan_unit(U, m, hi - 1, 4, lambda lo: m // lo, level_test(m), 1.0, 3.0, (0,))
                continue
            with pytest.raises(PrecisionError) as err:
                _scan.scan_unit(U, m, hi - 1, 4, lambda lo: m // lo, level_test(m), 1.0, 3.0, (0,))
            assert err.value.k == want[1]
            break


def test_the_least_member_of_a_line_in_closed_form():
    # |k + t dk| over 0 <= t < count against every t, and the members in
    # ascending (|k|, k) from there
    rnd = random.Random(41)
    for _ in range(3000):
        n = rnd.randint(1, 4)
        dk = [rnd.randint(-5, 5) for _ in range(n)]
        if not any(dk):
            continue
        if dk < [0] * n:
            dk = [-d for d in dk]
        k = tuple(rnd.randint(-60, 60) for _ in range(n))
        count = rnd.randint(2, 80)
        members = [tuple(a + t * d for a, d in zip(k, dk)) for t in range(count)]
        norms = [max(map(abs, p)) for p in members]
        t = min(range(count), key=lambda i: (norms[i], members[i]))
        assert _scan._least(k, tuple(dk), count) == (norms[t], members[t], t)
        assert list(_scan._by_norm(k, tuple(dk), count, t)) == sorted(zip(norms, members))


def test_the_least_member_nonzero_on_a_declared_component():
    # lines of exact zeros and not: the least member, over every line, that
    # is nonzero on a declared component, against every member
    rnd = random.Random(43)
    for _ in range(2000):
        n = rnd.randint(1, 3)
        declared = tuple(i for i in range(n) if rnd.random() < 0.5)
        lines = []
        for _ in range(rnd.randint(1, 4)):
            k = tuple(rnd.choice([0, 0, rnd.randint(-3, 3)]) for _ in range(n))
            dk = tuple(rnd.choice([0, 0, rnd.randint(0, 3)]) for _ in range(n))
            lines.append((0, k, dk, rnd.randint(1, 4) if any(dk) else 1))
        members = [tuple(a + t * d for a, d in zip(k, dk))
                   for _, k, dk, count in lines for t in range(count)]
        want = min((k for k in members if any(k[i] for i in declared)), default=None)
        assert _scan._least_inexact(lines, declared) == want
