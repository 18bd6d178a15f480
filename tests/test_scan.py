"""The three-distance enumerator against a walk over every k.

``walk`` is the reference: it steps x_k = k t + offset mod m one k at a
time, in O(hi - lo), and keeps the points the scan must find.  An exact
rational p/q is put on an exact grid, m = q 2^E and t = p 2^E, so it keeps
its period q as on the grid of ``diophantine._phase_grid``.
"""

import math
import random
from bisect import insort

import mpmath
import pytest

from heisencoh import _scan
from heisencoh.errors import PrecisionError

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


def check_points(t, m, lo, hi, offset=0):
    _, _, zeros, pts = walk(t, m, lo, hi, 1, 0, offset)
    assert list(_scan.points(t, m, lo, hi, offset)) == pts
    return zeros


def test_points_random_192_bit():
    rnd = random.Random(7)
    for _ in range(300):
        lo = rnd.randint(-300, 500)
        hi = lo + rnd.randint(1, 2000)
        offset = rnd.choice([0, rnd.getrandbits(192), rnd.getrandbits(40)])
        check_points(rnd.getrandbits(192), M192, lo, hi, offset)


def test_points_dyadic_zeros_and_periods():
    # t = M/8: period 8, residues cycle through 0 at every multiple of 8
    assert _scan.period(M192 // 8, M192) == 8
    assert check_points(M192 // 8, M192, 1, 64) == [8, 16, 24, 32, 40, 48, 56]
    assert check_points(M192 // 8, M192, 1, 64, M192 // 16) == []
    assert check_points(M192 // 8, M192, 1, 64, 3 * M192 // 8) == [5, 13, 21, 29, 37, 45, 53, 61]
    for t in (M192 // 2, 3 * M192 // 8, M192 - M192 // 8, 5 * M192 // 64, 0):
        for lo, hi in ((1, 2), (1, 3), (5, 9), (3, 200), (64, 128), (100, 1000), (-40, 30)):
            for offset in (0, 1, M192 // 8, M192 // 2 + 7, M192 - 1):
                check_points(t, M192, lo, hi, offset)
    assert _scan.period(0, M192) == 1
    assert check_points(0, M192, 3, 7) == [3, 4, 5, 6]
    assert check_points(0, M192, 3, 7, 5) == []


def test_points_near_rationals_with_offsets():
    # p/q rounded to 2^-192 (long runs of tiny r'), and exactly on its grid
    # (period q: one walk of q residues stands for every k)
    rnd = random.Random(3)
    for p, q in ((355, 113), (22, 7), (1, 3), (2, 5), (520001, 10**6), (1, 1009)):
        t, m = exact_grid(p, q)
        assert _scan.period(t, m) == q
        near = round(p * M192 / q) % M192
        for lo, hi in ((1, 2), (1, 300), (64, 128), (1024, 2048), (4096, 6000), (-200, 200)):
            check_points(near, M192, lo, hi)
            check_points(near, M192, lo, hi, round(rnd.randrange(q) * M192 / q) % M192)
            check_points(near, M192, lo, hi, rnd.getrandbits(192))
            assert check_points(t, m, lo, hi) == [k for k in range(lo, hi) if k % q == 0]
            check_points(t, m, lo, hi, rnd.randrange(q) * (m // q))
            check_points(t, m, lo, hi, rnd.randrange(m))


def test_points_single_point_ranges():
    rnd = random.Random(5)
    for _ in range(100):
        t, offset = rnd.getrandbits(192), rnd.choice([0, rnd.getrandbits(192)])
        k = rnd.randint(-10**12, 10**12)
        x = (k * t + offset) % M192
        assert list(_scan.points(t, M192, k, k + 1, offset)) == [(min(x, M192 - x), k)]
    check_points(M192 // 4, M192, 4, 5)
    check_points(M192 // 4, M192, 4, 5, M192 // 4)


@pytest.mark.parametrize("bits", [8, 13, 64, 193, 320, 512])
def test_points_other_moduli(bits):
    rnd = random.Random(bits)
    for _ in range(50):
        lo = rnd.randint(-100, 300)
        hi = lo + rnd.randint(1, 1500)
        t = rnd.getrandbits(bits)
        if rnd.random() < 0.3:
            j = rnd.randint(max(0, bits - 12), bits)
            t = (t >> j) << j  # period 2**(bits - j) at most
        offset = rnd.choice([0, rnd.getrandbits(bits)])
        check_points(t % (1 << bits), 1 << bits, lo, hi, offset)


@pytest.mark.parametrize("m", [2, 3, 7, 113, 21 << 187, 3**121, 10**6 << 172, 2**192 + 1])
def test_points_moduli_not_powers_of_two(m):
    rnd = random.Random(m)
    for _ in range(50):
        lo = rnd.randint(-100, 300)
        hi = lo + rnd.randint(1, 1500)
        t = rnd.randrange(m)
        if rnd.random() < 0.3:
            t -= t % (m // math.gcd(m, rnd.choice([2, 3, 5, 7, 21, 113, 1000])))
        check_points(t, m, lo, hi, rnd.choice([0, rnd.randrange(m)]))


def test_rise_min_matches_every_j():
    # the Euclid descent against a scan of every j, distinct residues only
    rnd = random.Random(17)
    for _ in range(3000):
        m = rnd.choice([rnd.randint(2, 2000), 1 << rnd.randint(1, 64), rnd.getrandbits(192) | 1])
        s, c = rnd.randrange(m), rnd.randrange(m)
        n = rnd.randint(1, min(m // math.gcd(s, m), 3000))
        xs = [(c + s * j) % m for j in range(n)]
        assert _scan._rise_min(s, c, m, n) == (xs.index(min(xs)), min(xs))


def test_extremes_match_every_j():
    # (a, x_a, b, m - x_b): the least and the largest of j t mod m over
    # 1 <= j < n, against a scan of every j, distinct residues only
    rnd = random.Random(19)
    for _ in range(3000):
        m = rnd.choice([rnd.randint(2, 2000), 1 << rnd.randint(1, 64), rnd.getrandbits(192) | 1])
        t = rnd.randrange(1, m)
        n = rnd.randint(2, min(m // math.gcd(t, m), 3000))
        xs = [j * t % m for j in range(n)]
        top = max(xs[1:])
        assert _scan._extremes(t, m, n) == (
            xs.index(min(xs[1:])), min(xs[1:]), xs.index(top), m - top
        )


def test_scan_unit_matches_walk():
    rnd = random.Random(11)
    cases = [(rnd.getrandbits(192), M192, None) for _ in range(10)]
    # 355/113 on its exact grid: the multiples of 113 are exact zeros
    cases += [(*exact_grid(355, 113), 113), (rnd.getrandbits(320), 1 << 320, None)]
    for t, m, q in cases:
        for keep in (1, 4, 64):
            def bound(lo, _m=m):
                return _m // lo

            ranges = _scan.scan_unit([t], m, 3000, keep, bound, 1.0, 3.0, () if q else (0,))
            assert [(r.lo, r.hi) for r in ranges] == list(_scan.dyadic_ranges(3000))
            for r in ranges:
                skip = (lambda k, _q=q: k % _q == 0) if q else None
                kept, wit, zeros, _ = walk(t, m, r.lo, r.hi, keep, bound(r.lo), skip=skip)
                assert zeros == []
                assert r.kept == [(rp, (k,)) for rp, k in kept]
                assert r.witnesses == [((k,), rp, k) for k, rp in wit]
                multiples = [k for k in range(r.lo, r.hi) if q and k % q == 0]
                assert r.n_scanned == r.hi - r.lo - len(multiples)
                assert r.zero == ((multiples[0],) if multiples else None)


def test_scan_unit_witness_bound_is_inclusive():
    # t = 3/8: every r' is a multiple of M/8, so the bound M/4 is met exactly
    t, m = exact_grid(3, 8)
    ranges = _scan.scan_unit([t], m, 100, 4, lambda lo: m // 4, 1.0, 3.0, ())
    for r in ranges:
        kept, wit, _, _ = walk(t, m, r.lo, r.hi, 4, m // 4, skip=lambda k: k % 8 == 0)
        assert r.kept == [(rp, (k,)) for rp, k in kept]
        assert r.witnesses == [((k,), rp, k) for k, rp in wit]
    assert any(rp == m // 4 for r in ranges for _, rp, _ in r.witnesses)


def test_scan_unit_raises_below_the_resolution():
    # k = 8 is a zero of t = M/8; it is exact only when t is exact
    with pytest.raises(PrecisionError, match=r"k=\(8,\)"):
        _scan.scan_unit([M192 // 8], M192, 100, 4, lambda lo: M192 // lo, 1.0, 3.0, (0,))
    ranges = _scan.scan_unit([M192 // 8], M192, 100, 4, lambda lo: M192 // lo, 1.0, 3.0, ())
    assert [r.zero for r in ranges if r.zero] == [(8,), (16,), (32,), (64,)]
    assert sum(r.n_scanned for r in ranges) == 100 - 100 // 8


def test_scan_unit_keeps_every_witness_candidate():
    # every point of [2^14, 2^15) is a candidate: the scan keeps them all,
    # in ascending k, and leaves the cap to classify
    t = random.Random(2).getrandbits(192)
    ranges = _scan.scan_unit([t], M192, 2**15 - 1, 8, lambda lo: M192, 1.0, 3.0, (0,))
    (last,) = [r for r in ranges if r.lo == 2**14]
    assert last.witnesses == [((k,), rp, k) for k, rp in walk(t, M192, 2**14, 2**15, 8, M192)[1]]
    assert [k for (k,), _, _ in last.witnesses] == list(range(2**14, 2**15))


def test_collect_below_holds_every_range_minimum():
    rnd = random.Random(13)
    cases = [(rnd.getrandbits(192), M192, None) for _ in range(10)]
    cases += [(round(p * M192 / q) % M192, M192, None) for p, q in ((355, 113), (22, 7))]
    cases += [(*exact_grid(p, q), q) for p, q in ((355, 113), (22, 7), (3, 8))]
    for t, m, q in cases:
        ranges = _scan.scan_unit([t], m, 4095, 64, lambda lo: m // lo, 1.0, 3.0, () if q else (0,))
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
