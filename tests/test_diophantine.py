import cmath
import itertools
import json
import math
import operator
import random
import re
from bisect import insort
from fractions import Fraction

import mpmath
import pytest

from heisencoh import _scan, cli, diophantine
from heisencoh.diophantine import (
    _level_bound,
    _refine_range_minimum,
    _scan_general,
    _significance_floor,
    classify,
    complex_divisor,
    fan_member,
    phase_distance,
    small_divisor,
)
from heisencoh.errors import DomainError, PrecisionError
from heisencoh.precision import PrecisionReal, liouville_constant
from test_bigfloat import _oracle_floor, mpf_real, rounded_once
from test_golden import CORPUS, GOLDEN

rng = random.Random(55)


def test_small_divisor_examples():
    assert small_divisor(Fraction(1, 2), 2) == 0.0
    assert abs(small_divisor(Fraction(1, 4), 1) - math.sqrt(2)) < 1e-14


def test_small_divisor_matches_complex_modulus():
    # 2|sin(pi <k,t>)| against the direct evaluation |1 - e^{2 pi i <k,t>}|,
    # phase reduced exactly so the double-precision oracle stays sharp
    for _ in range(100):
        t = Fraction(rng.randint(1, 10**6 - 1), 10**6)
        k = rng.randint(1, 50)
        theta = (k * t) % 1
        direct = abs(1 - cmath.exp(2j * cmath.pi * float(theta)))
        assert abs(small_divisor(t, k) - direct) < 1e-14


def test_small_divisor_even():
    t = PrecisionReal.parse("sqrt2", 128)
    for k in (1, 2, 7, 23):
        assert small_divisor(t, k) == small_divisor(t, -k)


def test_small_divisor_rejects_zero_k():
    with pytest.raises(DomainError):
        small_divisor(Fraction(1, 3), 0)
    with pytest.raises(DomainError):
        small_divisor([Fraction(1, 3), Fraction(1, 5)], (0, 0))


def test_rational_zero_structure():
    # zeros exactly at multiples of the denominator, nowhere else
    t = Fraction(3, 7)
    for k in range(1, 30):
        d = small_divisor(t, k)
        if k % 7 == 0:
            assert d == 0.0
        else:
            assert d > 0.1


def test_complex_divisor_matches():
    for _ in range(50):
        t = Fraction(rng.randint(1, 999), 1000)
        k = rng.randint(1, 40)
        expect = 1 - cmath.exp(2j * cmath.pi * float((k * t) % 1))
        got = complex_divisor(t, k)
        assert abs(got - expect) < 1e-12


def test_phase_distance_exact():
    d, sign = phase_distance(Fraction(1, 4), 1)
    assert d == Fraction(1, 4) and sign == 1
    d, sign = phase_distance(Fraction(3, 4), 1)
    assert d == Fraction(1, 4) and sign == -1


def test_classify_rational():
    rep = classify(Fraction(3, 7), 100)
    assert rep.verdict == "Rational"
    assert rep.rational_k == (7,)
    assert rep.precision_bits is None
    # enlarging the scan never un-detects rationality
    rep2 = classify(Fraction(3, 7), 5000)
    assert rep2.verdict == "Rational" and rep2.rational_k == (7,)


def test_classify_rational_out_of_range_is_not_rational():
    rep = classify(Fraction(1, 1009), 100)
    assert rep.verdict != "Rational"


def test_classify_golden():
    golden = PrecisionReal.parse("golden", 128)
    rep = classify(golden, 20000)
    assert rep.verdict == "DiophantineEvidence"
    assert rep.diophantine_s == 1.0
    assert rep.diophantine_c > 1.0
    assert abs(rep.diophantine_c - 1.8640648476264552) < 1e-12
    # C(s) is a true lower bound over the scanned range
    for row in rep.s_table:
        for k in (1, 2, 3, 5, 144, 6765, 10946):
            assert row.c <= k ** row.s * small_divisor(golden, k) * (1 + 1e-12)


def test_classify_liouville():
    rep = classify(liouville_constant(128), 2 * 10**6)
    assert rep.verdict == "LiouvilleEvidence"
    top = [w for w in rep.witnesses if 3.0 in w.significant]
    assert top and top[0].k == (1000000,)
    assert top[0].exponent >= 3.0
    assert abs(top[0].exponent - 4.0) < 1e-12


def test_classify_small_k_accident_is_not_liouville():
    # sqrt(2) - 9/10: dist(2t) = 0.028 <= 2^-3 is a chance coincidence at a
    # tiny scale (badly approximable otherwise); it must not flip the verdict
    import mpmath

    with mpmath.workprec(128):
        t = mpf_real(mpmath.sqrt(2) - mpmath.mpf(9) / 10, 128)
    rep = classify(t, 1000, s_grid=[1, 2, 3])
    assert rep.verdict == "DiophantineEvidence"
    accident = [w for w in rep.witnesses if w.k == (2,)]
    assert accident and 3.0 in accident[0].levels
    assert accident[0].significant == ()


def test_classify_deep_near_rational_is_liouville_evidence_in_range():
    # 13/25 + 1e-6 looks genuinely Liouville within a shallow scan: the
    # frequency 25 approaches an integer to 2.5e-5 ~ 25^-3.3, far beyond
    # chance at that scale; a deeper scan would resolve the structure
    rep = classify(Fraction(520001, 10**6), 1000, s_grid=[1, 2, 3])
    assert rep.verdict == "LiouvilleEvidence"
    w25 = [w for w in rep.witnesses if w.k == (25,)][0]
    assert 3.0 in w25.significant
    rep_deep = classify(Fraction(520001, 10**6), 10**6, s_grid=[1, 2, 3])
    assert rep_deep.verdict == "Rational"  # denominator now inside the scan


def _stored(c):
    """The value c holds, as a Fraction: p/q, or an mpf's man * 2^exp."""
    if c.exact_value:
        return c.fraction
    man, exp = mpf_real(c).man_exp
    return man * Fraction(2) ** exp


def _grid(t):
    """(T, m): the stored value of t mod 1 as T / m, on its own least grid."""
    f = _stored(t)
    return f.numerator % f.denominator, f.denominator


def _u(rp, k, s, modulus):
    """k^s * 2 sin(pi rp / modulus) from mpmath at 400 bits."""
    with mpmath.workprec(400):
        return mpmath.power(k, mpmath.mpf(s)) * 2 * mpmath.sinpi(mpmath.mpf(rp) / modulus)


def _brute_minimum(points, s, modulus):
    """min (k^s divisor, k) over every (r', k), the value at 400 bits;
    floats pick the candidates."""
    approx = {k: k**s * 2 * math.sin(math.pi * (rp / modulus)) for rp, k in points}
    top = min(approx.values())
    return min(
        (_u(rp, k, s, modulus), k) for rp, k in points if approx[k] <= top * (1 + 1e-9)
    )


def _minimum(rng, s, modulus):
    """(the correctly rounded range minimum, its k) of ``_refine_range_minimum``."""
    u, (_, k, _) = _refine_range_minimum(rng, s, modulus)
    return u, k


def _check_against_every_k(t, kmax, s_grid):
    """The report's range minima and records, recomputed from every k."""
    rep = classify(t, kmax, s_grid=s_grid)
    T, modulus = _grid(t)
    pts = [(min(k * T % modulus, modulus - k * T % modulus), k) for k in range(1, kmax + 1)]
    for row in rep.s_table:
        shell = [
            _brute_minimum([p for p in pts if lo <= p[1] < 2 * lo], row.s, modulus)
            for lo in (2**j for j in range(kmax.bit_length()))
        ]
        least = min(shell)
        assert (row.c, row.argmin_k) == (rounded_once(least[0]), (least[1],))
        assert row.shell_min == min(rounded_once(u) for u, _ in shell)
        assert row.shell_max == max(rounded_once(u) for u, _ in shell)
    assert [r.k for r in rep.records] == [(k,) for _, k in sorted(pts)[:10]]
    return rep


def test_classify_matches_every_k_oracle():
    _check_against_every_k(PrecisionReal.parse("golden", 128), 3000, [1, 2, 3])
    _check_against_every_k(liouville_constant(128), 3000, [1, 2.5, 3])


def _levels(modulus, s_grid):
    """The witness test classify hands scan_unit, for every level of s_grid."""
    return lambda rp, norm: tuple(
        s for s in s_grid if norm >= 2 and rp <= _level_bound(modulus, norm, s)
    )


@pytest.mark.parametrize("s_grid", [[1.5, 2.5, 3.0], [1.0, 2.5]])
def test_refine_matches_brute_force_on_random_ranges(s_grid):
    # fractional levels and near-rationals give long frontiers, where the
    # walk's stop at ceil(s) and collect_below's pruning at floor(s) matter
    r = random.Random(21)
    modulus = 1 << 192
    ts = [r.getrandbits(192) for _ in range(12)]
    ts += [(modulus * p // q + r.getrandbits(150)) % modulus for p, q in ((1, 3), (2, 7), (355, 113))]
    for T in ts:
        ranges = _scan.scan_unit(
            [T], modulus, 4095, 64, lambda lo: _level_bound(modulus, lo, s_grid[0]),
            _levels(modulus, s_grid), s_grid[0], s_grid[-1], (0,)
        )
        for rd in ranges[5:]:
            pts = [
                (min(k * T % modulus, modulus - k * T % modulus), k)
                for k in range(rd.lo, rd.hi)
            ]
            for s in s_grid:
                u, k = _brute_minimum(pts, s, modulus)
                assert _minimum(rd, s, modulus) == (rounded_once(u), (k,))


def test_rescue_finds_brute_force_minimum_355_113():
    # [2^16, 2^17) is a range where a rescan capped at 10,000 points cut
    # the candidates short
    modulus = 113 << 185  # 355/113 on its exact grid of 192 bits
    T = 355 * (modulus // 113) % modulus
    lo, hi = 2**16, 2**17
    pts = [
        (min(k * T % modulus, modulus - k * T % modulus), k)
        for k in range(lo, hi)
        if k % 113
    ]
    ranges = _scan.scan_unit(
        [T], modulus, hi - 1, 64, lambda lo: _level_bound(modulus, lo, 1.5),
        _levels(modulus, [1.5, 3.0]), 1.5, 3.0, ()
    )
    (rng,) = [r for r in ranges if r.lo == lo]
    for s in (3.0, 1.5):
        u, k = _brute_minimum(pts, s, modulus)
        assert _minimum(rng, s, modulus) == (rounded_once(u), (k,))


def test_classify_sqrt2_diophantine():
    rep = classify(PrecisionReal.parse("sqrt2", 128), 20000)
    assert rep.verdict == "DiophantineEvidence"


def test_classify_dim2():
    t = [PrecisionReal.parse("sqrt2", 128), PrecisionReal.parse("sqrt3", 128)]
    rep = classify(t, 40)
    assert rep.dim == 2
    assert rep.verdict != "Rational"  # 1, sqrt2, sqrt3 independent over Q
    assert rep.points_scanned > 0
    # the minimum divisor record is reproducible through small_divisor
    rec = rep.records[0]
    assert abs(small_divisor(t, rec.k) - rec.divisor) < 1e-12


def test_classify_dim2_mixed_resonance():
    # first coordinate rational: k = (3, 0) is an exact resonance even though
    # the second coordinate is irrational
    rep = classify([Fraction(1, 3), PrecisionReal.parse("sqrt2", 96)], 40)
    assert rep.verdict == "Rational"
    assert rep.rational_k == (3, 0)


def test_classify_dim2_rational_zero():
    rep = classify([Fraction(1, 3), Fraction(1, 6)], 10)
    # k = (1, -2) or similar hits <k, t> in Z within the scan
    assert rep.verdict == "Rational"
    assert rep.rational_k is not None


def test_classify_precision_guard():
    # 64-bit resolution cannot resolve divisors near 2^-70
    t = mpf_real(
        __import__("mpmath").mpf(1) / 3 + __import__("mpmath").mpf(2) ** -70, 64
    )
    with pytest.raises(PrecisionError):
        classify(t, 3 * 10**5)


def test_classify_kmax_one_inconclusive():
    rep = classify(PrecisionReal.parse("sqrt2", 128), 1)
    assert rep.verdict == "Inconclusive"  # a single shell cannot show flatness
    assert rep.points_scanned == 1


def test_classify_fractional_s_grid():
    golden = PrecisionReal.parse("golden", 128)
    rep = classify(golden, 4000, s_grid=[1.5])
    # level-1.5 witnesses exist at tiny k but never clear the accident floor
    assert rep.verdict != "LiouvilleEvidence"
    assert any(1.5 in w.levels for w in rep.witnesses)
    assert all(1.5 not in w.significant for w in rep.witnesses)
    # the level-1.5 range minima agree with a walk over every k
    assert _check_against_every_k(golden, 4000, [1.5]).to_dict() == rep.to_dict()


def test_classify_validation():
    with pytest.raises(DomainError):
        classify(Fraction(1, 3), 0)
    with pytest.raises(DomainError):
        classify(Fraction(1, 3), 10, s_grid=[])
    with pytest.raises(DomainError):
        classify(Fraction(1, 3), 10, s_grid=[0.1])
    for s in (math.nan, math.inf, 1024.5, 1e300):
        with pytest.raises(DomainError):
            classify(Fraction(1, 3), 10, s_grid=[1.0, s])


def test_fan_member_examples():
    assert fan_member(0, 5, 1)
    assert fan_member(1, 3, 1)
    assert not fan_member(2, 5, 1)


def test_fan_member_brute_force():
    def brute(lam, xi, n):
        if lam == 0:
            return xi >= 0
        return any(xi == abs(lam) * (2 * j + n) for j in range(0, 300))

    for n in (1, 2, 3):
        for lam in range(-20, 21):
            for xi in range(0, 201):
                assert fan_member(lam, xi, n) == brute(lam, xi, n), (lam, xi, n)
    assert not fan_member(0, -1, 1)
    assert not fan_member(3, -6, 2)


def test_fan_member_validation():
    with pytest.raises(DomainError):
        fan_member(1, 1, 0)


def _old_significance_floor(s, budget=0.02):
    """The rank-1 floor as it stood before the rank-n shell counts."""
    if s <= 1.0:
        return math.inf

    def tail(k):
        return 2.0 * (k**-s + k ** (1.0 - s) / (s - 1.0))

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


def test_significance_floor_rank1_is_unchanged():
    grid = [0.5, 1.0, 1.0000001, 1.01, 1.1, 1.25, 4 / 3, 1.5, 2.0, 2.5, 3.0, 3.7, 5.0, 10.0]
    grid += [1 + j / 64 for j in range(1, 200)]
    for s in grid:
        assert _significance_floor(s, 1) == _old_significance_floor(s)


def test_significance_floor_counts_rank_n_shells():
    # shell m holds 4m canonical vectors in rank 2: about 8/K accidents at s = 3
    assert _significance_floor(3.0, 2) == pytest.approx(400, rel=0.02)
    for n in (2, 3, 4):
        assert _significance_floor(float(n), n) == math.inf  # Dirichlet
        assert _significance_floor(n - 0.5, n) == math.inf
        floors = [_significance_floor(n + d, n) for d in (1.0, 1.5, 2.0, 3.0)]
        assert all(math.isfinite(f) for f in floors)
        assert floors == sorted(floors, reverse=True)
    assert _significance_floor(3.0, 3) == math.inf


@pytest.mark.parametrize("n, s", [(2, 2.5), (2, 3.0), (2, 4.0), (2, 7.0), (3, 4.0), (3, 5.0), (3, 8.0)])
def test_significance_floor_against_the_shell_counts(n, s):
    # first term plus integral of 2 c_n(m) m^-s, from the shell counts
    # themselves and numerical quadrature
    def tail(k):
        def c(m):
            return ((2 * m + 1) ** n - (2 * m - 1) ** n) / 2

        return 2 * (c(k) * k**-s + mpmath.quad(lambda m: c(m) * m**-s, [k, mpmath.inf]))

    floor = _significance_floor(s, n)
    assert tail(floor) <= 0.02 < tail(floor - 1)


@pytest.mark.parametrize("names, kmax", [("golden,sqrt2", 100), ("golden,sqrt2,sqrt3", 20)])
def test_rank_n_algebraic_is_not_liouville(names, kmax):
    # Schmidt's subspace theorem: Diophantine for every s > n; level-s
    # witnesses with s <= n are what Dirichlet's theorem promises, and are
    # not reported
    n = len(names.split(","))
    rep = classify([PrecisionReal.parse(v, 128) for v in names.split(",")], kmax)
    assert rep.verdict != "LiouvilleEvidence"
    assert all(min(w.levels) > n for w in rep.witnesses)
    assert any(3.0 in w.levels for w in rep.witnesses) == (n < 3)
    assert all(3.0 not in w.significant for w in rep.witnesses)


# ---------------------------------------------------------------------------
# rank n against the shell loop over every k


def _shell_vectors(n, m):
    """Canonical representatives of max-norm-m vectors: first nonzero > 0."""
    if n == 1:
        yield (m,)
        return
    for v in itertools.product(range(-m, m + 1), repeat=n):
        if max(abs(c) for c in v) != m:
            continue
        lead = next(c for c in v if c != 0)
        if lead > 0:
            yield v


def _shell_scan(tvec, modulus, kmax, keep, wbound):
    """Per dyadic range, every k shell by shell: (lo, hi, kept, witnesses,
    zeros, points).  kept holds the `keep` smallest (r', k); witnesses
    (k, r', |k|) with 0 < r' <= wbound(lo); zeros the k with <k, t> in Z
    exactly; points every (r', k) that is not a zero, with r' / modulus the
    exact distance of the stored values' phase."""
    t_scaled = [_stored(c) * modulus for c in tvec]
    assert all(t.denominator == 1 for t in t_scaled)  # the grid holds t exactly
    t_scaled = [int(t) for t in t_scaled]
    out = []
    for lo, hi in _scan.dyadic_ranges(kmax):
        bound = wbound(lo)
        kept, wits, zeros, pts = [], [], [], []
        for m in range(lo, hi):
            for kvec in _shell_vectors(len(tvec), m):
                if all(c.exact_value or not ki for c, ki in zip(tvec, kvec)):
                    if sum(ki * c.fraction for c, ki in zip(tvec, kvec) if ki).denominator == 1:
                        zeros.append(kvec)
                        continue
                r = sum(ki * ti for ki, ti in zip(kvec, t_scaled)) % modulus
                rp = min(r, modulus - r)
                assert rp > 0
                pts.append((rp, kvec))
                if rp <= bound:
                    wits.append((kvec, rp, m))
                if len(kept) < keep:
                    insort(kept, (rp, kvec))
                elif (rp, kvec) < kept[-1]:
                    kept.pop()
                    insort(kept, (rp, kvec))
        out.append((lo, hi, kept, wits, zeros, pts))
    return out


def _brute_vector_minimum(points, s, modulus):
    """(|k|^s divisor correctly rounded, k) of the least (|k|^s divisor, |k|,
    r', k) over every (r', k), the value at 400 bits: of equal values, which
    exact components make common at equal (|k|, r'), the least k wins.
    Floats pick the candidates."""
    approx = [
        (max(map(abs, k)) ** s * 2 * math.sin(math.pi * (rp / modulus)), rp, k) for rp, k in points
    ]
    top = min(a for a, _, _ in approx)
    best = min(
        (_u(rp, max(map(abs, k)), s, modulus), max(map(abs, k)), rp, k)
        for a, rp, k in approx
        if a <= top * (1 + 1e-9)
    )
    return rounded_once(best[0]), best[3]


@pytest.mark.parametrize(
    "names, kmax",
    [
        ("golden,sqrt2", 100),
        ("golden,sqrt2,sqrt3", 12),
        ("1/3,2/7", 100),
        ("golden,1/3", 100),
        ("1/2,golden", 100),
        ("sqrt2,1/3", 100),
    ],
)
def test_rank_n_scan_matches_every_k(names, kmax):
    tvec = [PrecisionReal.parse(v, 128).fractional_part() for v in names.split(",")]
    s_grid = [1.0, 1.5, 2.0, 3.0]
    keep = 64
    ranges, rational_k, modulus = _scan_general(tvec, kmax, keep, s_grid, None)
    # candidates only for the least level above the rank: s = 3 in rank 2,
    # none in rank 3; the witnesses among them are those with a level
    n = len(tvec)
    s_star = next((s for s in s_grid if s > len(tvec)), None)
    oracle = _shell_scan(
        tvec, modulus, kmax, keep,
        lambda lo: -1 if s_star is None else _level_bound(modulus, lo, s_star),
    )
    assert [(r.lo, r.hi) for r in ranges] == [o[:2] for o in oracle]
    zeros = [k for o in oracle for k in o[4]]
    assert rational_k == min(zeros, key=lambda v: (max(map(abs, v)), v), default=None)
    for rng, (lo, hi, kept, wits, zs, pts) in zip(ranges, oracle):
        assert rng.kept == kept
        want = [(k, rp, m, _exact_levels(rp, modulus, m, s_grid, n)) for k, rp, m in wits]
        want = sorted((w for w in want if w[3]), key=lambda w: (w[2], w[0]))
        assert rng.witnesses == want[:_scan.WITNESS_CAP]
        assert rng.n_scanned == len(pts)
        for s in s_grid:
            assert _minimum(rng, s, modulus) == _brute_vector_minimum(pts, s, modulus)


def test_witness_cap_keeps_the_first_witnesses_with_a_level(monkeypatch):
    # the cap counts only candidates that carry a level: with 20 per range
    # each range keeps the first 20 witnesses of the uncapped run.  Every
    # k >= 2 is a witness of t = 10^-30, k = 1 is not
    t = Fraction(1, 10**30)
    full = classify(t, 100).witnesses
    monkeypatch.setattr(_scan, "WITNESS_CAP", 20)
    capped = classify(t, 100).witnesses
    expect = []
    for lo, hi in _scan.dyadic_ranges(100):
        expect += [w for w in full if lo <= w.normk < hi][:20]
    assert capped == tuple(expect)
    assert len(capped) == 70 < len(full) == 99


@pytest.mark.parametrize(
    "values, kmax, s_grid",
    [
        (["1/1000000000000000000000000000000"], 300, [1.0, 2.0, 3.0]),
        (["0.1428571428571"], 3000, [1.5, 2.0, 3.0]),
        (["333333333334/1000000000000", "2/7"], 30, [2.5, 3.0]),
        (["1/1000000000000", "2/7"], 20, [2.5, 3.0]),
        (["golden", "1/3"], 30, [2.5, 3.0, 4.0]),
        (["333333333334/1000000000000", "sqrt2"], 30, [2.5, 3.0]),
    ],
)
def test_witness_cap_matches_every_k(monkeypatch, values, kmax, s_grid):
    # with a cap of 3 each range prints the 3 least (|k|, k) of the points
    # with a level above the rank, found by a pass over every k; the walk
    # meets far more candidates than it keeps
    monkeypatch.setattr(_scan, "WITNESS_CAP", 3)
    tvec = [PrecisionReal.parse(v, 128).fractional_part() for v in values]
    n = len(tvec)
    rep = classify(tvec, kmax, s_grid)
    stored = [_stored(c) for c in tvec]
    modulus = math.lcm(*(f.denominator for f in stored))
    weights = [int(f * modulus) for f in stored]
    want, cut = [], 0
    for lo, hi in _scan.dyadic_ranges(kmax):
        found = []
        for m in range(lo, hi):
            for k in _shell_vectors(n, m):
                r = sum(map(operator.mul, k, weights)) % modulus
                levels = _exact_levels(min(r, modulus - r), modulus, m, s_grid, n)
                if r and levels:
                    found.append((m, k, levels))
        want += sorted(found)[:3]
        cut += len(found) > 3
    assert [(w.normk, w.k, w.levels) for w in rep.witnesses] == want
    assert cut, "the cap cuts no range"


def test_level_bound_is_the_largest_witness_distance():
    # _level_bound(L, norm, s) is the largest r' with r' / L <= norm^-s
    # (1 + 2^-20), exactly: on integers where norm^s is rational (integer s,
    # and half-integer s at a perfect square), else the exact floor of an
    # irrational value, checked by mpmath far above its precision
    r = random.Random(31)
    for _ in range(300):
        modulus = r.choice([r.randint(1, 10**6), r.getrandbits(192), 113 << r.randint(0, 300)])
        norm = r.choice([1, 2, 4, 113, 12769, r.randint(2, 10**4), r.randint(2, 10**12)])
        s = r.choice([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, r.uniform(0.5, 4)])
        bound = _level_bound(modulus, norm, s)
        assert bound == _oracle_floor(modulus, norm, s), (modulus, norm, s)
        if s.is_integer():
            assert bound == modulus * (2**20 + 1) // (2**20 * norm ** int(s))
    for modulus in (1, 2, 2**21, 3 << 100, 10**30 + 7):
        # 4^0.5 = 2 exactly
        assert _level_bound(modulus, 4, 0.5) == modulus * (2**20 + 1) // 2**21


def test_rank_n_range_minimum_beyond_the_kept_list():
    # in [64, 101) the s = 1 minimiser is (1, -64), the least |k| at
    # distance 1/21
    rep = classify([Fraction(1, 3), Fraction(2, 7)], 100)
    div = 2 * math.sin(math.pi / 21)
    assert rep.s_table[0].shell_max == pytest.approx(64 * div, rel=1e-15)
    assert rep.s_table[2].shell_max == pytest.approx(64**3 * div, rel=1e-15)


# ---------------------------------------------------------------------------
# exact input against every k: exact ties go to the least (dist, k)


def _brute_exact(tvec, kmax):
    """(records, least zero, points) of the exact vector tvec over every
    canonical k with 0 < |k| <= kmax: the first 10 (dist, k) that are not
    zeros, as (k, numerator, denominator) of dist; the least zero by (|k|,
    k); the number of points that are not zeros."""
    den = math.lcm(*(t.denominator for t in tvec))
    weights = [t.numerator * (den // t.denominator) for t in tvec]
    pts, zeros = [], []
    for k in itertools.product(range(-kmax, kmax + 1), repeat=len(tvec)):
        if not any(k) or next(c for c in k if c) < 0:
            continue
        x = sum(map(operator.mul, k, weights)) % den
        if x:
            pts.append((min(x, den - x), k))
        else:
            zeros.append(k)
    records = [(k, x, den) for x, k in sorted(pts)[:10]]
    return records, min(zeros, key=lambda k: (max(map(abs, k)), k), default=None), len(pts)


def _check_exact(tvec, kmax):
    rep = classify(tvec, kmax)
    records, zero, points = _brute_exact(tvec, kmax)
    assert [(r.k, r.divisor) for r in rep.records] == [
        (k, float(_u(x, 1, 1, den))) for k, x, den in records
    ]
    assert rep.argmin_k == (records[0][0] if records else None)
    assert rep.rational_k == zero
    assert rep.points_scanned == points


def test_exact_rank1_matches_every_k():
    r = random.Random(71)
    for _ in range(300):
        q = r.choice([r.randint(1, 40), r.randint(2, 3000)])
        _check_exact([Fraction(r.randint(-3 * q, 3 * q), q)], r.randint(1, 1200))


def test_exact_rank2_matches_every_k():
    r = random.Random(72)
    for _ in range(60):
        tvec = []
        for _ in range(2):
            q = r.randint(1, 40)
            tvec.append(Fraction(r.randint(-q, 2 * q), q))
        _check_exact(tvec, r.randint(1, 24))


# ---------------------------------------------------------------------------
# witnesses only at levels above the rank


def _golden_input(name):
    """(tvec, kmax, s_grid) of the `classify` golden `name`, read by the CLI's
    own parser."""
    args = cli.build_parser().parse_args(["classify", *CORPUS[name].split()])
    tvec = [c.fractional_part() for c in cli._parse_vector(args.vector, args.prec)]
    return tvec, args.kmax, sorted({float(s) for s in args.s_grid.split(",")})


def _old_rule_verdict(tvec, kmax, s_grid, rep):
    """The verdict of the earlier rule, which also asked for a witness at
    every level s <= n, on the report rep.

    That rule: every level of s_grid has a witness with |k| >= 2, s log2|k|
    >= 1 and r' <= _level_bound(L, |k|, s), and some witness at the top
    level clears the accident floor.  Levels above n are read off rep, whose
    witnesses are every point with such a level (see the brute-force tests
    below); each level s <= n is searched over every k in ascending |k| up to
    its first witness.
    """
    n = len(tvec)
    scaled, modulus = diophantine._phase_grid(tvec)
    found = {s for w in rep.witnesses for s in w.levels}

    def low_witness(s):
        for m in range(2, kmax + 1):
            if s * math.log2(m) < 1.0:
                continue
            for k in _shell_vectors(n, m):
                r = sum(map(operator.mul, k, scaled)) % modulus
                if 0 < min(r, modulus - r) <= _level_bound(modulus, m, s):
                    return True
        return False

    liouville = all(s in found if s > n else low_witness(s) for s in s_grid) and any(
        s_grid[-1] in w.significant for w in rep.witnesses
    )
    if rep.rational_k is not None:
        return "Rational"
    if liouville:
        return "LiouvilleEvidence"
    if any(row.evidence for row in rep.s_table):
        return "DiophantineEvidence"
    return "Inconclusive"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_verdict_matches_the_old_rule_on_the_goldens(name):
    tvec, kmax, s_grid = _golden_input(name)
    rep = classify(tvec, kmax, s_grid)
    assert rep.verdict == _old_rule_verdict(tvec, kmax, s_grid, rep)


def _random_component(r):
    kind = r.randrange(4)
    if kind == 0:
        return PrecisionReal.parse(r.choice(["golden", "sqrt2", "sqrt3", "e", "pi", "liouville"]), 128)
    q = r.randint(1, 10**r.randint(1, 8))
    p = Fraction(r.randint(0, q), q)
    if kind == 1:
        return PrecisionReal.coerce(p)
    # near a rational: the witnesses the rule is about
    return PrecisionReal.coerce(p + Fraction(r.choice([-1, 1]), 10 ** r.randint(3, 30)))


def test_verdict_matches_the_old_rule_on_random_vectors():
    # the significant top-level witness, |k| >= 2, is an old-rule witness at
    # every level s >= 1, so grids without a level below 1 agree at any kmax;
    # a level s < 1 also needs a witness with |k| >= 2^(1/s), which every
    # input here has at kmax >= 8 (the next test has none at kmax 3)
    r = random.Random(73)
    grids = [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.5, 5.0], [0.5, 1.0, 6.0], [0.75, 10.0]]
    verdicts = set()
    for n, kmaxes, trials in ((1, (8, 4000), 120), (2, (8, 40), 40), (3, (8, 10), 8)):
        for _ in range(trials):
            tvec = [_random_component(r).fractional_part() for _ in range(n)]
            kmax, s_grid = r.randint(*kmaxes), r.choice(grids)
            rep = classify(tvec, kmax, s_grid)
            assert rep.verdict == _old_rule_verdict(tvec, kmax, s_grid, rep), (tvec, kmax, s_grid)
            verdicts.add(rep.verdict)
    assert verdicts == {"Rational", "LiouvilleEvidence", "DiophantineEvidence", "Inconclusive"}


def test_verdict_differs_from_the_old_rule_below_kmax_8():
    # k = 2 is a significant level-10 witness (floor 2), but the old rule
    # also asked for a level-0.5 witness with 0.5 log2|k| >= 1, |k| >= 4
    t = [PrecisionReal.coerce(Fraction(500000001, 10**9))]
    rep = classify(t, 3, [0.5, 10.0])
    assert rep.verdict == "LiouvilleEvidence"
    assert _old_rule_verdict(t, 3, [0.5, 10.0], rep) == "Inconclusive"
    assert classify(t, 8, [0.5, 10.0]).verdict == "LiouvilleEvidence"


_WITNESS = re.compile(
    r"^witness k=(\S+) dist=(\S+) divisor=\S+ exponent=\S+ levels=(\S+) significant=(\S+)$", re.M
)


def _printed_witnesses(name):
    """(k, dist, levels, significant) of every witness the golden prints."""
    text = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        return [
            (tuple(w["k"]), w["dist"], tuple(w["levels"]), tuple(w["significant"]))
            for w in json.loads(text)["witnesses"]
        ]

    def floats(field):
        return () if field == "-" else tuple(map(float, field.split(",")))

    return [
        (tuple(map(int, k.split(","))), float(d), floats(lv), floats(sig))
        for k, d, lv, sig in _WITNESS.findall(text)
    ]


def _exact_levels(rp, modulus, norm, s_grid, n):
    """The levels s > n of s_grid with r'/L <= norm^-s (1 + 2^-20), decided
    on integers: for s = p/q, (r' 2^20)^q norm^p <= (L (2^20 + 1))^q."""
    out = []
    for s in s_grid:
        if s <= n or norm < 2:
            continue
        if rp / modulus * norm**s > 1.01:  # far from the bound
            continue
        p, q = s.as_integer_ratio()
        if (rp << 20) ** q * norm**p <= (modulus * (2**20 + 1)) ** q:
            out.append(s)
    return tuple(out)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_witnesses_are_the_points_above_the_rank(name):
    # every printed witness has exactly the levels above n it meets and is
    # significant where |k| reaches the floor; where the box |k| <= K holds
    # at most 2 10^5 + 1 points (K = 10^5 in rank 1), a pass over every k
    # finds no other point with such a level
    tvec, kmax, s_grid = _golden_input(name)
    n = len(tvec)
    stored = [_stored(c) for c in tvec]
    modulus = math.lcm(*(f.denominator for f in stored))
    weights = [int(f * modulus) for f in stored]

    def point(k):
        r = sum(map(operator.mul, k, weights)) % modulus
        rp = min(r, modulus - r)
        return rp, _exact_levels(rp, modulus, max(map(abs, k)), s_grid, n)

    printed = _printed_witnesses(name)
    for k, dist, levels, significant in printed:
        rp, want = point(k)
        assert rp > 0 and levels == want, k
        assert dist == pytest.approx(rp / modulus, rel=1e-15)
        assert significant == tuple(s for s in levels if max(map(abs, k)) >= _significance_floor(s, n))
    if (2 * kmax + 1) ** n > 2 * 10**5 + 1:
        return
    every = []
    for k in itertools.product(range(-kmax, kmax + 1), repeat=n):
        if any(k) and next(c for c in k if c) > 0:
            rp, levels = point(k)
            if rp and levels:
                every.append((max(map(abs, k)), k, levels))
    assert [(k, levels) for k, _, levels, _ in printed] == [w[1:] for w in sorted(every)]


# ---------------------------------------------------------------------------
# every printed value is the correctly rounded double of its exact quantity


# d -> (Re, |Im|, |divisor|) of 1 - exp(2 pi i d) at the phases where Niven's
# theorem makes the parts rational or the square roots of rationals
_EXACT_PHASES = {
    Fraction(1, 6): (0.5, math.sqrt(3) / 2, 1.0),
    Fraction(1, 4): (1.0, 1.0, math.sqrt(2)),
    Fraction(1, 3): (1.5, math.sqrt(3) / 2, math.sqrt(3)),
    Fraction(1, 2): (2.0, 0.0, 2.0),
}


@pytest.mark.parametrize("t, k", [
    (Fraction(1, 6), 1), (Fraction(5, 6), 1), (Fraction(1, 4), 1), (Fraction(3, 4), 5),
    (Fraction(1, 3), 1), (Fraction(2, 3), 4), (Fraction(1, 2), 1), (Fraction(1, 2), -3),
    ((Fraction(1, 4), Fraction(1, 3)), (2, 0)), ((Fraction(1, 4), Fraction(1, 3)), (-2, 0)),
    ((Fraction(1, 4), Fraction(1, 3)), (1, 0)), ((Fraction(1, 4), Fraction(1, 3)), (0, -1)),
    ((Fraction(1, 4), Fraction(1, 3)), (2, 1)), ((Fraction(1, 4), Fraction(1, 3)), (1, -6)),
])
def test_exact_phases_are_exact(t, k):
    # each part is its exact value, correctly rounded where irrational; at
    # d = 1/2 the divisor is 2 - 0j, with the imaginary part -0.0
    dist, sign = phase_distance(t, k)
    re, im, size = _EXACT_PHASES[dist]
    got = complex_divisor(t, k)
    assert (got.real, got.imag) == (re, -sign * im)
    assert math.copysign(1.0, got.imag) == -sign
    assert small_divisor(t, k) == size
    tvec = diophantine._coerce_vector(t)
    key = (k,) if isinstance(k, int) else k
    ((_, r, d),) = diophantine.iter_divisors(diophantine._phase_grid(tvec), [key])
    assert (d.real.hex(), d.imag.hex()) == (got.real.hex(), got.imag.hex())
    assert Fraction(r, diophantine._phase_grid(tvec)[1]) == dist


def test_complex_divisor_at_half_is_two():
    d = complex_divisor((Fraction(1, 4), Fraction(1, 3)), (2, 0))
    assert d == 2 and math.copysign(1.0, d.imag) == -1.0


def test_subnormal_witness_values_are_rounded_once():
    # every witness dist and divisor of n / 10^z, z = 300 .. 329, is the one
    # rounding of its exact value (dist) or of its 600-bit value (divisor);
    # a subnormal dist rounded first to 53 bits and then at 2^-1074 can land
    # one unit off
    r = random.Random(309)
    checked = subnormal = 0
    for z in range(300, 330):
        for n in r.sample(range(1, 100), 4):
            t = Fraction(n, 10**z)
            for w in classify(t, 12).witnesses:
                d = w.k[0] * t % 1
                d = min(d, 1 - d)
                assert w.dist == float(d), (n, z, w.k)
                with mpmath.workprec(600):
                    want = rounded_once(2 * mpmath.sinpi(mpmath.mpf(d.numerator) / d.denominator))
                assert w.divisor == want, (n, z, w.k)
                checked += 2
                subnormal += w.dist < 2.2250738585072014e-308
    assert checked == 2640 and subnormal > 50


def _printed_values(name):
    """(witnesses (k, dist, divisor, exponent), records (k, divisor), rows
    (s, C, argmin_k, shell_min, shell_max), min_divisor, diophantine_c) as
    the golden `name` prints them."""
    text = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        doc = json.loads(text)
        wit = [(tuple(w["k"]), w["dist"], w["divisor"], w["exponent"]) for w in doc["witnesses"]]
        rows = [
            (r["s"], r["c"], tuple(r["argmin_k"]), r["shell_min"], r["shell_max"])
            for r in doc["s_table"] if r["argmin_k"]
        ]
        rec = [(tuple(r["k"]), r["divisor"]) for r in doc["records"]]
        return wit, rec, rows, doc["min_divisor"], doc["diophantine_c"]
    wit, rec, rows, top = [], [], [], {}
    for line in text.splitlines():
        kind = line.split(" ", 1)[0]
        if kind not in ("witness", "record") and not kind.startswith("s="):
            key, _, value = line.partition("=")
            top[key] = value
            continue
        f = dict(field.split("=", 1) for field in line.split()[not kind.startswith("s="):])
        k = tuple(map(int, f["k"].split(","))) if "k" in f else None
        if kind == "witness":
            wit.append((k, float(f["dist"]), float(f["divisor"]), float(f["exponent"])))
        elif kind == "record":
            rec.append((k, float(f["divisor"])))
        else:
            argmin = tuple(map(int, f["argmin_k"].split(",")))
            rows.append((float(f["s"]), float(f["C"]), argmin, float(f["shell_min"]),
                         float(f["shell_max"])))
    dio_c = float(top["diophantine_c"]) if "diophantine_c" in top else None
    return wit, rec, rows, float(top["min_divisor"]), dio_c


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_values_are_correctly_rounded(name):
    # every dist, divisor, exponent, C, shell_min and shell_max the golden
    # prints is mpmath's value at 400 bits rounded once (dist: the exact r' / L
    # rounded once); C's argmin and the shell values range over the minima of
    # the ranges' frontiers, which hold every range minimum
    tvec, kmax, s_grid = _golden_input(name)
    ranges, _, modulus = _scan_general(tvec, kmax, diophantine.N_RECORDS, s_grid, None)
    scaled = diophantine._phase_grid(tvec)[0]
    wit, rec, rows, min_divisor, dio_c = _printed_values(name)
    with mpmath.workprec(400):

        def divisor(k):
            rp = diophantine._phase(scaled, modulus, k)[0]
            return rp, 2 * mpmath.sinpi(mpmath.mpf(rp) / modulus)

        for k, dist, div, exponent in wit:
            rp, want = divisor(k)
            assert (dist, div) == (float(Fraction(rp, modulus)), rounded_once(want)), k
            ratio = mpmath.log(mpmath.mpf(rp) / modulus) / mpmath.log(max(map(abs, k)))
            assert exponent == rounded_once(1 - ratio), k
        for k, div in rec:
            assert div == rounded_once(divisor(k)[1]), k
        assert min_divisor == rec[0][1]
        for s, c, argmin_k, shell_min, shell_max in rows:
            minima = [
                min((mpmath.power(norm, mpmath.mpf(s)) * divisor(k)[1], norm, k)
                    for _, k, norm in rng.frontier)
                for rng in ranges if rng.kept
            ]
            least = min(minima)
            assert (c, argmin_k) == (rounded_once(least[0]), least[2]), s
            assert (shell_min, shell_max) == (c, rounded_once(max(minima)[0])), s
    assert dio_c is None or dio_c in [row[1] for row in rows]


def test_range_minima_equal_as_doubles_are_refined():
    # t = 1/2 - delta / L puts the weights of k = 1 and k = 2 at s = 1.5 within
    # about 2^-290 of each other: their doubles are equal, and the interval
    # refinement, not the tie rule, finds the smaller on both sides of the root
    modulus, s = 1 << 300, 1.5
    with mpmath.workprec(1000):
        root = mpmath.findroot(
            lambda x: mpmath.cospi(x) - 2 ** mpmath.mpf(s) * mpmath.sinpi(2 * x), 0.05
        )
        delta = int(mpmath.floor(root * modulus))
    winners = set()
    for dl in (delta, delta + 1):
        row = classify(Fraction(modulus // 2 - dl, modulus), 2, [s]).s_table[0]
        with mpmath.workprec(1000):
            one = 2 * mpmath.cospi(mpmath.mpf(dl) / modulus)
            two = 2 ** mpmath.mpf(s) * 2 * mpmath.sinpi(mpmath.mpf(2 * dl) / modulus)
        assert row.shell_min == row.shell_max == row.c == rounded_once(min(one, two))
        assert row.argmin_k == ((1,) if one < two else (2,))
        winners.add(row.argmin_k)
    assert winners == {(1,), (2,)}


def test_exact_ties_go_to_the_least_norm_then_k():
    # 2 sin(pi / 4) = 2^0.5 * 2 sin(pi / 6) = sqrt 2 exactly: no refinement up
    # to TIE_BITS separates them, and the smaller |k| wins; equal (r', |k|)
    # are the same value, and the smaller k wins
    points = [(2, (2,), 2), (3, (-1,), 1), (3, (1,), 1)]
    assert diophantine._least(points, 0.5, 12) == (math.sqrt(2), (3, (-1,), 1))
    assert diophantine._least(points[:1] + points[2:], 0.5, 12) == (math.sqrt(2), (3, (1,), 1))
