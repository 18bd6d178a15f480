"""The three-distance enumerator against a walk over every k.

``walk`` is the reference: it steps r_k = k t mod 2**bits one k at a time,
in O(hi - lo), and keeps the points the scan must find.
"""

import random
from bisect import insort

import mpmath
import pytest

from heisencoh import _scan

M192 = 1 << 192


def walk(t, bits, lo, hi, keep, witness_bound, stride):
    """(kept, witnesses, zeros, all points) over k in [lo, hi), one k at a time.

    kept: the `keep` smallest (r', k); witnesses: (k, r') with 0 < r' <=
    witness_bound, first WITNESS_CAP in ascending k; zeros: k with r' = 0;
    all points: every (r', k) sorted.  Multiples of `stride` are skipped.
    """
    m = 1 << bits
    r = ((lo - 1) * t) % m
    kept, witnesses, zeros, pts = [], [], [], []
    for k in range(lo, hi):
        r = (r + t) % m
        if stride and k % stride == 0:
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


def check_points(t, bits, lo, hi, stride=0):
    _, _, zeros, pts = walk(t, bits, lo, hi, 1, 0, stride)
    assert list(_scan.points(t, bits, lo, hi, stride)) == pts
    return zeros


def test_points_random_192_bit():
    rnd = random.Random(7)
    for _ in range(200):
        lo = rnd.randint(1, 500)
        hi = lo + rnd.randint(1, 2000)
        check_points(rnd.getrandbits(192), 192, lo, hi, rnd.choice([0, 0, 1, 2, 7]))


def test_points_dyadic_zeros_and_periods():
    # t = M/8: period 8, residues cycle through 0 at every multiple of 8
    assert _scan.period(M192 // 8, 192) == 8
    assert check_points(M192 // 8, 192, 1, 64) == [8, 16, 24, 32, 40, 48, 56]
    assert check_points(M192 // 8, 192, 1, 64, 8) == []
    for t in (M192 // 2, 3 * M192 // 8, M192 - M192 // 8, 5 * M192 // 64, 0):
        for lo, hi in ((1, 2), (1, 3), (5, 9), (3, 200), (64, 128), (100, 1000)):
            for stride in (0, 2, 3, 8):
                check_points(t, 192, lo, hi, stride)
    assert _scan.period(0, 192) == 1
    assert check_points(0, 192, 3, 7) == [3, 4, 5, 6]


def test_points_near_rationals_with_stride():
    rnd = random.Random(3)
    for p, q in ((355, 113), (22, 7), (1, 3), (2, 5), (520001, 10**6), (1, 1009)):
        t = round(p * M192 / q) % M192
        for lo, hi in ((1, 2), (1, 300), (64, 128), (1024, 2048), (4096, 6000)):
            check_points(t, 192, lo, hi, q if q < hi else 0)
            check_points(t, 192, lo, hi, rnd.choice([0, 2, q]))


def test_points_single_point_ranges():
    rnd = random.Random(5)
    for _ in range(100):
        t = rnd.getrandbits(192)
        k = rnd.randint(1, 3000)  # the walk covers [0, k + 1): keep k small
        assert list(_scan.points(t, 192, k, k + 1)) == [
            (min(k * t % M192, M192 - k * t % M192), k)
        ]
    check_points(M192 // 4, 192, 4, 5)
    check_points(M192 // 4, 192, 4, 5, 4)


@pytest.mark.parametrize("bits", [8, 13, 64, 193, 320, 512])
def test_points_other_moduli(bits):
    rnd = random.Random(bits)
    for _ in range(50):
        lo = rnd.randint(1, 300)
        hi = lo + rnd.randint(1, 1500)
        t = rnd.getrandbits(bits)
        if rnd.random() < 0.3:
            j = rnd.randint(max(0, bits - 12), bits)
            t = (t >> j) << j  # period 2**(bits - j) at most
        check_points(t % (1 << bits), bits, lo, hi, rnd.choice([0, 0, 3, 8]))


def test_scan_unit_matches_walk():
    rnd = random.Random(11)
    cases = [(rnd.getrandbits(192), 192) for _ in range(10)]
    cases += [(round(355 * M192 / 113), 192), (rnd.getrandbits(320), 320)]
    for t, bits in cases:
        for keep in (1, 4, 64):
            for stride in (0, 113):
                def bound(lo, _bits=bits):
                    return (1 << _bits) // lo

                ranges = _scan.scan_unit(t, bits, 3000, keep, bound, stride)
                assert [(r.lo, r.hi) for r in ranges] == list(_scan.dyadic_ranges(3000))
                for r in ranges:
                    kept, wit, zeros, _ = walk(t, bits, r.lo, r.hi, keep, bound(r.lo), stride)
                    assert zeros == []
                    assert r.kept == kept
                    assert r.witnesses == wit


def test_scan_unit_witness_bound_is_inclusive():
    # t = 3M/8: every r' is a multiple of M/8, so the bound M/4 is met exactly
    t = 3 * M192 // 8
    ranges = _scan.scan_unit(t, 192, 100, 4, lambda lo: M192 // 4, 8)
    for r in ranges:
        assert (r.kept, r.witnesses) == walk(t, 192, r.lo, r.hi, 4, M192 // 4, 8)[:2]
    assert any(rp == M192 // 4 for r in ranges for _, rp in r.witnesses)


def test_scan_unit_witness_cap_keeps_lowest_k():
    # every point of [2^14, 2^15) is a witness: the cap keeps the lowest k
    t = random.Random(2).getrandbits(192)
    (last,) = [r for r in _scan.scan_unit(t, 192, 2**15 - 1, 8, lambda lo: M192, 0) if r.lo == 2**14]
    assert last.witnesses == walk(t, 192, 2**14, 2**15, 8, M192, 0)[1]
    assert len(last.witnesses) == _scan.WITNESS_CAP
    assert [k for k, _ in last.witnesses] == list(range(2**14, 2**14 + _scan.WITNESS_CAP))


def test_collect_below_holds_every_range_minimum():
    rnd = random.Random(13)
    cases = [rnd.getrandbits(192) for _ in range(10)]
    cases += [round(p * M192 / q) % M192 for p, q in ((355, 113), (22, 7), (3, 8))]
    for t in cases:
        for lo, hi in ((1, 2), (64, 128), (2048, 4096)):
            stride = 8 if t == 3 * M192 // 8 else 0
            pts = walk(t, 192, lo, hi, 1, 0, stride)[3]
            front = _scan.collect_below(t, 192, lo, hi, stride, 1.0, 3.0)
            assert front == sorted(front, key=lambda p: (p[0], -p[1]))
            assert set(front) <= set(pts)
            for s in (1, 2, 3):
                def u(p, _s=s):
                    return p[1] ** _s * mpmath.sin(mpmath.pi * mpmath.mpf(p[0]) / M192)

                with mpmath.workprec(100):
                    assert min(front, key=u) == min(pts, key=u)
