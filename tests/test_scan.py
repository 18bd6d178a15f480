"""The three-distance enumerator against a walk over every k.

``walk`` is the reference: it steps x_k = k t + offset mod 2**bits one k at
a time, in O(hi - lo), and keeps the points the scan must find.
"""

import math
import random
from bisect import insort

import mpmath
import pytest

from heisencoh import _scan
from heisencoh.errors import PrecisionError

M192 = 1 << 192


def walk(t, bits, lo, hi, keep, witness_bound, offset=0, skip=None):
    """(kept, witnesses, zeros, all points) over k in [lo, hi), one k at a time.

    kept: the `keep` smallest (r', k); witnesses: (k, r') with 0 < r' <=
    witness_bound, first WITNESS_CAP in ascending k; zeros: k with r' = 0;
    all points: every (r', k) sorted.  k with skip(k) true are left out.
    """
    m = 1 << bits
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
        if rp <= witness_bound and len(witnesses) < _scan.WITNESS_CAP:
            witnesses.append((k, rp))
        if len(kept) < keep:
            insort(kept, (rp, k))
        elif rp < kept[-1][0]:
            kept.pop()
            insort(kept, (rp, k))
    return kept, witnesses, zeros, sorted(pts)


def check_points(t, bits, lo, hi, offset=0):
    _, _, zeros, pts = walk(t, bits, lo, hi, 1, 0, offset)
    assert list(_scan.points(t, bits, lo, hi, offset)) == pts
    return zeros


def test_points_random_192_bit():
    rnd = random.Random(7)
    for _ in range(300):
        lo = rnd.randint(-300, 500)
        hi = lo + rnd.randint(1, 2000)
        offset = rnd.choice([0, rnd.getrandbits(192), rnd.getrandbits(40)])
        check_points(rnd.getrandbits(192), 192, lo, hi, offset)


def test_points_dyadic_zeros_and_periods():
    # t = M/8: period 8, residues cycle through 0 at every multiple of 8
    assert _scan.period(M192 // 8, 192) == 8
    assert check_points(M192 // 8, 192, 1, 64) == [8, 16, 24, 32, 40, 48, 56]
    assert check_points(M192 // 8, 192, 1, 64, M192 // 16) == []
    assert check_points(M192 // 8, 192, 1, 64, 3 * M192 // 8) == [5, 13, 21, 29, 37, 45, 53, 61]
    for t in (M192 // 2, 3 * M192 // 8, M192 - M192 // 8, 5 * M192 // 64, 0):
        for lo, hi in ((1, 2), (1, 3), (5, 9), (3, 200), (64, 128), (100, 1000), (-40, 30)):
            for offset in (0, 1, M192 // 8, M192 // 2 + 7, M192 - 1):
                check_points(t, 192, lo, hi, offset)
    assert _scan.period(0, 192) == 1
    assert check_points(0, 192, 3, 7) == [3, 4, 5, 6]
    assert check_points(0, 192, 3, 7, 5) == []


def test_points_near_rationals_with_offsets():
    rnd = random.Random(3)
    for p, q in ((355, 113), (22, 7), (1, 3), (2, 5), (520001, 10**6), (1, 1009)):
        t = round(p * M192 / q) % M192
        for lo, hi in ((1, 2), (1, 300), (64, 128), (1024, 2048), (4096, 6000), (-200, 200)):
            check_points(t, 192, lo, hi)
            check_points(t, 192, lo, hi, round(rnd.randrange(q) * M192 / q) % M192)
            check_points(t, 192, lo, hi, rnd.getrandbits(192))


def test_points_single_point_ranges():
    rnd = random.Random(5)
    for _ in range(100):
        t, offset = rnd.getrandbits(192), rnd.choice([0, rnd.getrandbits(192)])
        k = rnd.randint(-10**12, 10**12)
        x = (k * t + offset) % M192
        assert list(_scan.points(t, 192, k, k + 1, offset)) == [(min(x, M192 - x), k)]
    check_points(M192 // 4, 192, 4, 5)
    check_points(M192 // 4, 192, 4, 5, M192 // 4)


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
        check_points(t % (1 << bits), bits, lo, hi, offset)


def test_rise_min_matches_every_j():
    # the Euclid descent against a scan of every j, distinct residues only
    rnd = random.Random(17)
    for _ in range(3000):
        m = rnd.choice([rnd.randint(2, 2000), 1 << rnd.randint(1, 64), rnd.getrandbits(192) | 1])
        s, c = rnd.randrange(m), rnd.randrange(m)
        n = rnd.randint(1, min(m // math.gcd(s, m), 3000))
        xs = [(c + s * j) % m for j in range(n)]
        assert _scan._rise_min(s, c, m, n) == (xs.index(min(xs)), min(xs))


def test_scan_unit_matches_walk():
    rnd = random.Random(11)
    cases = [(rnd.getrandbits(192), 192, None) for _ in range(10)]
    # 355/113 rounded to the nearest multiple of 2**-192, as exact zeros need
    cases += [((2 * 355 * M192 + 113) // 226 % M192, 192, 113), (rnd.getrandbits(320), 320, None)]
    for t, bits, q in cases:
        for keep in (1, 4, 64):
            def bound(lo, _bits=bits):
                return (1 << _bits) // lo

            is_zero = (lambda k, _q=q: k[0] % _q == 0) if q else None
            ranges = _scan.scan_unit([t], bits, 3000, keep, bound, 1.0, 3.0, is_zero)
            assert [(r.lo, r.hi) for r in ranges] == list(_scan.dyadic_ranges(3000))
            for r in ranges:
                skip = (lambda k, _q=q: k % _q == 0) if q else None
                kept, wit, zeros, _ = walk(t, bits, r.lo, r.hi, keep, bound(r.lo), skip=skip)
                assert zeros == []
                assert r.kept == [(rp, (k,)) for rp, k in kept]
                assert r.witnesses == [((k,), rp, k) for k, rp in wit]
                multiples = [k for k in range(r.lo, r.hi) if q and k % q == 0]
                assert r.n_scanned == r.hi - r.lo - len(multiples)
                assert r.zero == ((multiples[0],) if multiples else None)


def test_scan_unit_witness_bound_is_inclusive():
    # t = 3M/8: every r' is a multiple of M/8, so the bound M/4 is met exactly
    t = 3 * M192 // 8
    ranges = _scan.scan_unit([t], 192, 100, 4, lambda lo: M192 // 4, 1.0, 3.0, lambda k: k[0] % 8 == 0)
    for r in ranges:
        kept, wit, _, _ = walk(t, 192, r.lo, r.hi, 4, M192 // 4, skip=lambda k: k % 8 == 0)
        assert r.kept == [(rp, (k,)) for rp, k in kept]
        assert r.witnesses == [((k,), rp, k) for k, rp in wit]
    assert any(rp == M192 // 4 for r in ranges for _, rp, _ in r.witnesses)


def test_scan_unit_raises_below_the_resolution():
    # k = 8 is a zero of t = M/8 that no exact test certifies
    with pytest.raises(PrecisionError, match=r"k=\(8,\)"):
        _scan.scan_unit([M192 // 8], 192, 100, 4, lambda lo: M192 // lo, 1.0, 3.0)


def test_scan_unit_witness_cap_keeps_lowest_k():
    # every point of [2^14, 2^15) is a witness: the cap keeps the lowest k
    t = random.Random(2).getrandbits(192)
    ranges = _scan.scan_unit([t], 192, 2**15 - 1, 8, lambda lo: M192, 1.0, 3.0)
    (last,) = [r for r in ranges if r.lo == 2**14]
    assert last.witnesses == [((k,), rp, k) for k, rp in walk(t, 192, 2**14, 2**15, 8, M192)[1]]
    assert len(last.witnesses) == _scan.WITNESS_CAP
    assert [k for (k,), _, _ in last.witnesses] == list(range(2**14, 2**14 + _scan.WITNESS_CAP))


def test_collect_below_holds_every_range_minimum():
    rnd = random.Random(13)
    cases = [rnd.getrandbits(192) for _ in range(10)]
    cases += [round(p * M192 / q) % M192 for p, q in ((355, 113), (22, 7), (3, 8))]
    for t in cases:
        is_zero = (lambda k: k[0] % 8 == 0) if t == 3 * M192 // 8 else None
        ranges = _scan.scan_unit([t], 192, 4095, 64, lambda lo: M192 // lo, 1.0, 3.0, is_zero)
        for r in ranges:
            if r.lo not in (1, 64, 2048):
                continue
            pts = walk(t, 192, r.lo, r.hi, 1, 0, skip=is_zero and (lambda k: k % 8 == 0))[3]
            front = r.frontier
            assert front == sorted(front, key=lambda p: (p[0], -p[2]))
            assert {(rp, k) for rp, (k,), _ in front} <= set(pts)
            for s in (1, 2, 3):
                def u(p, _s=s):
                    return p[1] ** _s * mpmath.sin(mpmath.pi * mpmath.mpf(p[0]) / M192)

                with mpmath.workprec(100):
                    best = min(pts, key=u)
                    assert min(((rp, k) for rp, (k,), _ in front), key=u) == best
