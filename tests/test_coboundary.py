import io
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from heisencoh import _bigfloat as bf
from heisencoh import cli, coboundary, diophantine
from heisencoh.coboundary import (
    CoboundaryProblem,
    coboundary_from,
    obstruction,
    residual,
    sobolev_loss,
    solve,
)
from heisencoh.coefficients import CoefficientField, read_coefficients, write_coefficients
from heisencoh.diophantine import _phase_grid, classify, complex_divisor, phase_distance
from heisencoh.errors import DomainError, NonzeroMeanError, PrecisionError, ResonanceError
from heisencoh.fourier import sobolev_norm
from heisencoh.precision import PrecisionReal, liouville_constant
from test_bigfloat import mpf_real, rounded_once

rng = np.random.default_rng(2024)
GOLDEN = PrecisionReal.parse("golden", 128)


def random_field(radius, dim=1, hermitian=False):
    entries = {}
    if dim == 1:
        for k in range(1, radius + 1):
            c = complex(*rng.standard_normal(2))
            entries[(k,)] = c
            entries[(-k,)] = c.conjugate() if hermitian else complex(*rng.standard_normal(2))
    else:
        for _ in range(3 * radius):
            k = tuple(int(v) for v in rng.integers(-radius, radius + 1, dim))
            if any(k):
                entries[k] = complex(*rng.standard_normal(2))
    return CoefficientField(dim, entries)


def test_obstruction():
    assert obstruction(CoefficientField(1, {(1,): 1.0})) == 0
    assert obstruction(CoefficientField(1, {(0,): 3.0, (1,): 1.0})) == 3.0
    for _ in range(20):
        f = random_field(6)
        g = coboundary_from(f, [GOLDEN])
        assert abs(obstruction(g)) < 1e-14


def test_solve_zero():
    sol = solve(CoboundaryProblem(CoefficientField(1, {}), [Fraction(1, 3)]))
    assert len(sol.f) == 0
    assert sol.residual_sup == 0.0


def test_solve_quarter_rotation():
    # 1 / (1 - e^{i pi/2}) = 1/(1 - i) = (1 + i)/2
    g = CoefficientField(1, {(1,): 1.0})
    sol = solve(CoboundaryProblem(g, [Fraction(1, 4)]))
    assert abs(sol.f.get(1) - (0.5 + 0.5j)) < 1e-14
    assert sol.residual_sup < 1e-12
    assert sol.min_divisor == pytest.approx(math.sqrt(2))


def test_coboundary_from_examples():
    const = CoefficientField(1, {(0,): 7.0})
    assert len(coboundary_from(const, [Fraction(1, 3)])) == 0
    f = CoefficientField(1, {(1,): 1.0})
    g = coboundary_from(f, [Fraction(1, 2)])
    assert abs(g.get(1) - 2.0) < 1e-12


def test_round_trip_golden():
    for _ in range(20):
        f = random_field(20)
        g = coboundary_from(f, [GOLDEN])
        sol = solve(CoboundaryProblem(g, [GOLDEN]))
        for k, v in f.items():
            assert abs(sol.f.get(k) - v) < 1e-10
        # both directions
        g2 = coboundary_from(sol.f, [GOLDEN])
        for k, v in g.items():
            assert abs(g2.get(k) - v) < 1e-12


def test_solve_linearity():
    g1 = random_field(10)
    g2 = random_field(10)
    u = [GOLDEN]
    s1 = solve(CoboundaryProblem(g1, u)).f
    s2 = solve(CoboundaryProblem(g2, u)).f
    s12 = solve(CoboundaryProblem(g1 + g2, u)).f
    for k in set(s1.keys()) | set(s2.keys()):
        assert abs(s12.get(k) - s1.get(k) - s2.get(k)) < 1e-12


def test_solve_equivariance_under_translation():
    # translating g by v multiplies g_k by e^{2 pi i k v}; f translates the same way
    g = random_field(8)
    u = [GOLDEN]
    v = 0.37
    g_shift = CoefficientField(
        1, {k: val * np.exp(2j * np.pi * k[0] * v) for k, val in g.items()}
    )
    f = solve(CoboundaryProblem(g, u)).f
    f_shift = solve(CoboundaryProblem(g_shift, u)).f
    for k, val in f.items():
        assert abs(f_shift.get(k) - val * np.exp(2j * np.pi * k[0] * v)) < 1e-10


def test_nonzero_mean_error():
    g = CoefficientField(1, {(0,): 1e-3, (1,): 1.0})
    with pytest.raises(NonzeroMeanError):
        solve(CoboundaryProblem(g, [Fraction(1, 4)]))


def test_resonance_error_and_negligible_resonance():
    # u = 1/4 exact: k = 4 has an exactly zero divisor
    g = CoefficientField(1, {(4,): 1.0, (1,): 1.0})
    with pytest.raises(ResonanceError) as ei:
        solve(CoboundaryProblem(g, [Fraction(1, 4)]))
    assert ei.value.modes[0][0] == (4,)
    # a negligible coefficient on the resonant mode is dropped, not fatal
    g2 = CoefficientField(1, {(4,): 1e-15, (1,): 1.0})
    sol = solve(CoboundaryProblem(g2, [Fraction(1, 4)]))
    assert sol.f.get(4) == 0


def test_hermitian_symmetry_preserved():
    for _ in range(10):
        g = coboundary_from(random_field(9, hermitian=True), [GOLDEN])
        assert g.is_hermitian(1e-12)
        sol = solve(CoboundaryProblem(g, [GOLDEN]))
        assert sol.f.is_hermitian(1e-12)


def test_residual_zero_and_exact():
    z = CoefficientField(1, {})
    assert residual(z, z, [Fraction(1, 3)]) == 0.0


def test_residual_detects_perturbation():
    g = coboundary_from(random_field(10), [GOLDEN])
    sol = solve(CoboundaryProblem(g, [GOLDEN]))
    base = residual(sol.f, g, [GOLDEN])
    assert base < 1e-12
    # perturb f_1 by 1e-3: residual jumps by about |1 - e^{2 pi i u}| * 1e-3
    bumped = dict(sol.f.items())
    bumped[(1,)] = bumped.get((1,), 0j) + 1e-3
    fb = CoefficientField(1, bumped)
    assert residual(fb, g, [GOLDEN]) >= 1e-4


def test_residual_dim2():
    f = random_field(3, dim=2)
    u = [GOLDEN, Fraction(1, 7)]
    g = coboundary_from(f, u)
    sol = solve(CoboundaryProblem(g, u))
    assert sol.residual_sup < 1e-11
    for k, v in f.items():
        assert abs(sol.f.get(k) - v) < 1e-9


def negated(u):
    """-u, component by component, at the precision each declares."""
    return [PrecisionReal(None if c.fraction is None else -c.fraction,
                          None if c.man_exp is None else (-c.man_exp[0], c.man_exp[1]), c.prec)
            for c in map(PrecisionReal.coerce, u)]


def test_sign_convention_flag():
    # f - f o gamma^-1 = g has the conjugate factor 1 - e^{-2 pi i <k, u>}:
    # it is the problem at -u
    f = random_field(5)
    g_plus = coboundary_from(f, [GOLDEN])
    g_minus = coboundary_from(f, negated([GOLDEN]))
    for k, v in f.items():
        assert g_minus.get(k) == v * complex_divisor([GOLDEN], k).conjugate()
        assert abs(g_plus.get(k) - g_minus.get(tuple(-c for c in k)).conjugate()) > 0  # differ in general
    sol = solve(CoboundaryProblem(g_minus, negated([GOLDEN])))
    for k, v in f.items():
        assert abs(sol.f.get(k) - v) < 1e-10


def test_dimension_mismatch():
    with pytest.raises(DomainError):
        CoboundaryProblem(CoefficientField(2, {(1, 0): 1.0}), [Fraction(1, 3)])


def test_precision_error_on_unresolved_divisor():
    import mpmath

    from heisencoh.errors import PrecisionError

    # u is 1/3 rounded to 64 bits: frac(3u) is a few ulps, far below what 64
    # input bits can certify as nonzero
    with mpmath.workprec(64):
        u = mpf_real(mpmath.mpf(1) / 3, 64)
    g = CoefficientField(1, {(3,): 1.0})
    with pytest.raises(PrecisionError):
        solve(CoboundaryProblem(g, [u]))


def test_formal_flag_for_liouville():
    from heisencoh.precision import liouville_constant

    t = liouville_constant(128)
    rep = classify(t, 10**6)
    g = coboundary_from(random_field(6), [t])
    sol = solve(CoboundaryProblem(g, [t]), classification=rep)
    assert sol.formal
    assert "formal" in sol.formal_note
    assert sol.truncation_norms


def test_sobolev_loss_table_and_bound():
    rep = classify(GOLDEN, 10**4)
    evidence = (rep.diophantine_c, rep.diophantine_s)
    g = coboundary_from(random_field(15), [GOLDEN])
    sol = solve(CoboundaryProblem(g, [GOLDEN]))
    rows, bound = sobolev_loss(sol, g, [0.0, 1.0, 2.0], evidence=evidence)
    assert [r["alpha"] for r in rows] == [0.0, 1.0, 2.0]
    # alpha = 0 f-column equals the plain l2 norm
    assert rows[0]["f_norm"] == pytest.approx(sol.f.norm_l2(), rel=1e-10)
    assert bound["checked"] == len(sol.f)
    assert bound["violations"] == []


def test_sobolev_loss_zero_g():
    sol = solve(CoboundaryProblem(CoefficientField(1, {}), [GOLDEN]))
    rows, bound = sobolev_loss(sol, CoefficientField(1, {}), [0.0, 1.0])
    assert all(r["f_norm"] == 0.0 for r in rows)
    assert bound is None


def test_sobolev_loss_uses_multiplier_norm_dim1():
    g = coboundary_from(random_field(6), [GOLDEN])
    sol = solve(CoboundaryProblem(g, [GOLDEN]))
    rows, _ = sobolev_loss(sol, g, [1.5])
    assert rows[0]["f_norm"] == pytest.approx(sobolev_norm(sol.f, 1.5), rel=1e-12)


def test_sobolev_loss_norm_is_inf_where_a_term_overflows():
    # (1 + 300)^200 overflows a double: on the zero coefficient a file keeps
    # it adds nothing, on a nonzero one the norm is inf
    g = read_coefficients(io.StringIO("dim=2\n1 0 1 0\n300 0 0 0\n"))
    sol = solve(CoboundaryProblem(g, [GOLDEN, GOLDEN]))
    (row,), _ = sobolev_loss(sol, g, [100.0])
    assert row["g_norm_shifted"] == 2.0**100 and math.isfinite(row["f_norm"])
    g = read_coefficients(io.StringIO("dim=2\n1 0 1 0\n300 0 1 0\n"))
    sol = solve(CoboundaryProblem(g, [GOLDEN, GOLDEN]))
    (row,), _ = sobolev_loss(sol, g, [100.0])
    assert row["f_norm"] == row["g_norm_shifted"] == math.inf and math.isnan(row["ratio"])


# ---------------------------------------------------------------------------
# reference implementations: the per-mode mpmath divisor and the direct
# mode-by-mode residual summation that the divisor table and the FFT replace


def reference_phase_distance(tvec, k):
    """dist(<k, t>, Z) and its side, summed in mpmath for each mode."""
    if all(c.exact_value for c in tvec):
        theta = sum((ki * c.fraction for ki, c in zip(k, tvec)), Fraction(0))
        theta -= theta.numerator // theta.denominator
        if theta == 0:
            return Fraction(0), 1
        return (theta, 1) if theta <= Fraction(1, 2) else (1 - theta, -1)
    prec = max((c.prec or 64) for c in tvec) + max(abs(v) for v in k).bit_length() + 16
    with mpmath.workprec(prec):
        s = mpmath.mpf(0)
        for ki, c in zip(k, tvec):
            s += ki * mpf_real(c, prec)
        theta = s - mpmath.floor(s)
        if theta <= mpmath.mpf(1) / 2:
            return theta, 1
        return 1 - theta, -1


def reference_complex_divisor(tvec, k):
    """2 sin^2(pi d) - i sign sin(2 pi d) for the distance d and side of
    ``reference_phase_distance``, each part from mpmath at 600 bits, with
    sinpi taking the phase exactly, rounded once to a double."""
    dist, sign = reference_phase_distance(tvec, k)
    if dist == 0:
        return 0j
    with mpmath.workprec(600):
        if isinstance(dist, Fraction):
            # rounded once: mpf(numerator) would round a long numerator first
            d = mpmath.fdiv(dist.numerator, dist.denominator)
        else:
            d = mpmath.mpf(dist)
        re = rounded_once(2 * mpmath.sinpi(d) ** 2)
        return complex(re, -sign * rounded_once(mpmath.sinpi(2 * d)))


def mp_divisor(u, k):
    """D_k = 1 - e^{2 pi i <k, u>} in mpmath at the working precision, from
    the stored values of u."""
    prec = mpmath.mp.prec
    theta = mpmath.fsum(ki * mpf_real(c, prec) for ki, c in zip(k, u))
    return 1 - mpmath.expjpi(2 * theta)


def mp_residual_terms(f, g, u):
    """{k: r_k = f_k D_k - g_k} over the union of the supports, in mpmath
    at the working precision."""
    u = [PrecisionReal.coerce(c) for c in u]
    terms = {}
    for k, v in f.items():
        if any(k):
            terms[k] = mpmath.mpc(v.real, v.imag) * mp_divisor(u, k)
    for k, v in g.items():
        terms[k] = terms.get(k, mpmath.mpc(0)) - mpmath.mpc(v.real, v.imag)
    return terms


def reference_residual(f, g, u, points=200, seed=0):
    """(the largest |f(x) - f(x + u) - g(x)| over `points` seeded points x
    of the torus, the exact l1 sum of the r_k), each summed mode by mode in
    mpmath at 200 bits."""
    r = random.Random(seed)
    with mpmath.workprec(200):
        terms = mp_residual_terms(f, g, u)
        l1 = mpmath.fsum(abs(t) for t in terms.values())
        sup = mpmath.mpf(0)
        for _ in range(points):
            x = [mpmath.mpf(r.random()) for _ in range(f.dim)]
            value = mpmath.fsum(t * mpmath.expjpi(2 * mpmath.fsum(ki * xi for ki, xi in zip(k, x)))
                                for k, t in terms.items())
            sup = max(sup, abs(value))
        return sup, l1


def rounded_up(value):
    """The least double at or above the mpf or Fraction value."""
    x = float(value)
    return x if x >= value else math.nextafter(x, math.inf)


def parse_u(spec, prec):
    return [PrecisionReal.parse(c, prec) for c in spec.split(",")]


def iter_divisor_table(u, keys):
    """(L, {k: (r, divisor)}) for every k of keys, from ``iter_divisors`` on
    the grid (U, L) of u."""
    grid = _phase_grid(u)
    return grid[1], {k: (r, d) for k, r, d in diophantine.iter_divisors(grid, keys)}


def random_keys(dim, bound, count, seed):
    r = random.Random(seed)
    keys = {tuple(r.randint(-bound, bound) for _ in range(dim)) for _ in range(count)}
    keys |= {k for k in itertools.product(range(-3, 4), repeat=dim)}
    return sorted(k for k in keys if any(k))


@pytest.mark.parametrize(
    "spec,prec",
    [
        ("golden", 64), ("golden", 128), ("golden", 320),
        ("golden,sqrt2", 64), ("golden,sqrt2", 128), ("pi,e,sqrt3", 320),
        ("1/4,1/3", 128), ("355/113", 128), ("7/1000003,-2/9", 128),
        ("golden,1/3", 128), ("1/3,sqrt2,5/7", 64),
    ],
)
def test_divisor_table_matches_reference_bit_for_bit(spec, prec):
    u = parse_u(spec, prec)
    keys = random_keys(len(u), 10**6, 150, spec + str(prec))
    _, table = iter_divisor_table(u, keys)
    for k in keys:
        want = reference_complex_divisor(u, k)
        got = table[k][1]
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), k
        assert complex_divisor(u, k) == got
        dist, side = phase_distance(u, k)
        ref_dist, ref_side = reference_phase_distance(u, k)
        if isinstance(ref_dist, mpmath.mpf):
            man, exp = ref_dist.man_exp  # Fraction(mpf) raises TypeError
            ref_dist = man * Fraction(2) ** exp
        if all(c.exact_value for c in u) or not any(c.exact_value for c in u):
            # exact input, or an inexact sum that mpmath carried exactly
            assert (dist, side) == (ref_dist, ref_side), k
        assert (table[k][0] == 0) == (dist == 0)


def _distance_cases(seed, count):
    """{L: [r, ...]}: count pairs (r, L), L up to 2**260; per L tiny r, r
    within 2 of L / 2 and r anywhere below L."""
    r = random.Random(seed)
    cases = {}
    while sum(map(len, cases.values())) < count:
        modulus = r.choice([
            r.randint(2, 10**6), r.getrandbits(64) | 1, r.getrandbits(128) | 1,
            1 << r.randint(1, 260), r.getrandbits(r.randint(100, 260)) | 1 << 99, 3 << 258,
        ])
        half = modulus // 2
        rs = {1, 2, r.randint(1, 1000), *(half + j for j in range(-2, 3)),
              *(r.randint(1, modulus - 1) for _ in range(4))}
        cases.setdefault(modulus, set()).update(v for v in rs if 0 < v < modulus)
    return cases


def test_divisor_table_matches_reference_on_random_distances():
    # t = 1/L and k = r put the phase at r / L exactly; r within 2 of L / 2
    # puts the imaginary part far below the real one
    n = 0
    for modulus, rs in _distance_cases(17, 20000).items():
        u = [PrecisionReal.exact(Fraction(1, modulus))]
        keys = [(v,) for v in sorted(rs)]
        _, table = iter_divisor_table(u, keys)
        for k in keys:
            want = reference_complex_divisor(u, k)
            got = table[k][1]
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (k, modulus)
            n += 1
    assert n >= 20000


@pytest.mark.parametrize("g_file, spec", [
    ("solve_g_dim2_r8.txt", "golden,sqrt2"), ("solve_g_dim1_r32.txt", "golden"),
    ("solve_g_dim2_r4_exact.txt", "1/4,1/3"), ("solve_g_dim1_r32.txt", "sqrt2"),
])
def test_divisor_table_matches_reference_on_the_solve_goldens(g_file, spec):
    # every (g, u) of the solve commands in tests/golden
    with open(Path(__file__).parent / "golden" / g_file, encoding="utf-8") as fh:
        keys = [k for k in cli.read_coefficients(fh).keys() if any(k)]
    u = parse_u(spec, 128)
    _, table = iter_divisor_table(u, keys)
    for k in keys:
        want = reference_complex_divisor(u, k)
        got = table[k][1]
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), k


@pytest.mark.parametrize("spec", ["1/2", "golden", "1/2,sqrt2", "1/4,1/3", "golden,sqrt2"])
def test_divisor_table_shares_trig_between_k_and_minus_k(spec, monkeypatch):
    # a symmetric box: k and -k share r, and for 1/2 (k odd) and 1/4,1/3
    # some phases are exactly L/2, where k and -k take the same sign
    u = parse_u(spec, 128)
    box = 12 if len(u) == 1 else 4
    keys = [k for k in itertools.product(range(-box, box + 1), repeat=len(u)) if any(k)]
    per_mode = {k: iter_divisor_table(u, [k])[1][k] for k in keys}
    calls = []
    real_sin_cos_pi = bf.sin_cos_pi  # looked up on _bigfloat by iter_divisors on each call
    monkeypatch.setattr(bf, "sin_cos_pi", lambda *a: calls.append(a[:2]) or real_sin_cos_pi(*a))
    modulus, table = iter_divisor_table(u, keys)
    for k in keys:
        (r, got), (r1, want) = table[k], per_mode[k]
        assert r == r1
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), k
    # one series per distinct distance (a distance past 1/4 also calls
    # itself, on the complement over 2L)
    distances = sorted({r for r, _ in table.values() if r})
    assert sorted(r for r, q in calls if q == modulus) == distances
    if spec == "1/2":
        assert table[(1,)] == table[(-1,)] and 2 * table[(1,)][0] == modulus


def test_min_divisor_is_the_least_divisor_rounded_once():
    # argmin_k is the first k in key order with the least distance r, and
    # min_divisor is 2 sin(pi r / L) rounded once, as classify prints it; the
    # modulus of the rounded complex divisor rounds twice, and at k = 1 it
    # is one ulp off for about one p/q in five
    r = random.Random(22)
    moved = 0
    for _ in range(300):
        q = r.randint(3, 10**6)
        u = [Fraction(r.randint(1, q - 1), q)]
        sol = solve(CoboundaryProblem(CoefficientField(1, {(-1,): 1.0, (1,): 1.0, (2,): 1j}), u))
        d1, d2 = phase_distance(u, 1)[0], phase_distance(u, 2)[0]
        assert sol.argmin_k == ((-1,) if d1 <= d2 else (2,))
        least = min(d1, d2)
        with mpmath.workprec(600):
            d = mpmath.fdiv(least.numerator, least.denominator)
            assert sol.min_divisor == rounded_once(2 * mpmath.sinpi(d))
        assert sol.min_divisor == diophantine.small_divisor(u, sol.argmin_k)
        moved += sol.min_divisor != abs(complex_divisor(u, sol.argmin_k))
    assert moved > 0


def test_truncation_norms_equal_the_truncated_fields_norms():
    g = random_field(40, dim=2)
    # explicit zero coefficients: truncate drops them, solve keeps them
    entries = {**dict(g.items()), (3, -7): 0j, (0, 33): 0j}
    g = read_coefficients(["dim=2\n"] + [f"{a} {b} {v.real!r} {v.imag!r}\n"
                                         for (a, b), v in entries.items()])
    sol = solve(CoboundaryProblem(g, [GOLDEN, PrecisionReal.parse("sqrt2", 128)]))
    radii = [r for r, _ in sol.truncation_norms]
    assert radii == [1, 2, 4, 8, 16, 32, sol.f.support_radius()]
    for r, value in sol.truncation_norms:
        assert value == sol.f.truncate(r).norm_l2(), r


def test_divisors_match_reference_for_both_signs():
    u = parse_u("golden,1/3", 128)
    # k_1 != 0 keeps every phase irrational, so no mode is dropped as resonant
    far = [k for k in random_keys(2, 10**6, 60, "far") if k[0]]
    near = [k for k in random_keys(2, 20, 60, "near") if k[0]]
    # at -u each divisor is the conjugate of the divisor at u
    for sign, v in ((1, u), (-1, negated(u))):
        g = coboundary_from(CoefficientField(2, {k: 1.0 for k in far}), v)
        sol = solve(CoboundaryProblem(CoefficientField(2, {k: 1.0 for k in near}), v))
        for k in far:
            want = reference_complex_divisor(u, k)
            assert g.get(k) == (want if sign == 1 else want.conjugate()), k
        # f_k = g_k / d_k = 1 / d_k
        assert sol.f == CoefficientField(2, {
            k: 1 / (reference_complex_divisor(u, k) if sign == 1
                    else reference_complex_divisor(u, k).conjugate())
            for k in near
        })


def test_each_divisor_is_evaluated_once_per_solve_command(tmp_path, monkeypatch, capsys):
    g = random_field(6, dim=2)
    g_path = tmp_path / "g.txt"
    with open(g_path, "w", encoding="utf-8") as fh:
        write_coefficients(g, fh)
    seen = []
    real = diophantine.iter_divisors

    def counting(grid, keys):
        for k, r, d in real(grid, keys):
            seen.append(k)
            yield k, r, d

    # solve, residual and coboundary_from read the generator on coboundary,
    # and complex_divisor reads it on diophantine
    monkeypatch.setattr(coboundary, "iter_divisors", counting)
    monkeypatch.setattr(diophantine, "iter_divisors", counting)
    rc = cli.main(["solve", "--g", str(g_path), "--u", "golden,sqrt2", "--verify",
                   "--out", str(tmp_path / "f.txt")])
    assert rc == 0, capsys.readouterr().err
    assert sorted(seen) == [k for k in g.keys() if any(k)]


@pytest.mark.parametrize("dim,radius,extra", [(1, 12, 0), (1, 7, 9), (2, 5, 0), (2, 4, 6), (3, 2, 3)])
def test_residual_bounds_the_direct_sum_at_seeded_points(dim, radius, extra):
    # g reaches up to extra modes further than f: the bound is at least the
    # exact l1 sum, which is at least |f - f o gamma - g| at every point
    u = [GOLDEN, Fraction(1, 7), PrecisionReal.parse("sqrt2", 128)][:dim]
    f = random_field(radius, dim=dim)
    g = random_field(radius + extra, dim=dim)
    assert any(c < 0 for k in f.keys() for c in k)
    for v in (u, negated(u)):
        sup, l1 = reference_residual(f, g, v)
        bound = residual(f, g, v)
        assert sup <= l1 <= bound <= l1 * (1 + 1e-14)
    # f solves g: the bound is at roundoff level and still above every point
    g = coboundary_from(f, u)
    sol = solve(CoboundaryProblem(g, u))
    sup, l1 = reference_residual(sol.f, g, u)
    assert sup <= l1 <= sol.residual_sup == residual(sol.f, g, u) < 1e-13


def test_residual_bounds_the_direct_sum_on_a_perturbed_solution():
    g = coboundary_from(random_field(10), [GOLDEN])
    sol = solve(CoboundaryProblem(g, [GOLDEN]))
    bumped = dict(sol.f.items())
    bumped[(1,)] = bumped.get((1,), 0j) + 1e-3
    fb = CoefficientField(1, bumped)
    for f in (sol.f, fb):
        sup, l1 = reference_residual(f, g, [GOLDEN])
        assert sup <= l1 <= residual(f, g, [GOLDEN])
    assert residual(fb, g, [GOLDEN]) >= 1e-3 * abs(complex_divisor([GOLDEN], 1))


@pytest.mark.parametrize("spec", ["golden", "golden,sqrt2", "pi,e,sqrt3", "1/7", "1/3,2/5"])
def test_residual_counts_the_rounding_of_the_divisors(spec):
    # g_k = 1 * D~_k exactly, so f = 1 leaves nothing of f D~ - g: what is
    # left is f_k (D_k - D~_k), below half an ulp of each part of D~_k
    u = parse_u(spec, 128)
    keys = random_keys(len(u), 50, 40, spec)
    f = CoefficientField(len(u), dict.fromkeys(keys, 1.0))
    g = coboundary_from(f, u)
    assert all(g.get(k) == complex_divisor(u, k) for k in keys)
    sup, l1 = reference_residual(f, g, u, points=50)
    assert 0 < sup <= l1 <= residual(f, g, u)
    # a part is exact where it is rational: at distances n / 12 (Niven)
    halves = 0.0
    for k in keys:
        d, twelfths = g.get(k), 12 * phase_distance(u, k)[0]
        n = twelfths.numerator if twelfths.denominator == 1 else 0
        halves += 0.0 if n in (2, 3, 4, 6) else math.ulp(d.real) / 2
        halves += 0.0 if n in (1, 3, 5, 6) else math.ulp(d.imag) / 2
    assert residual(f, g, u) <= halves * (1 + 1e-12)


def test_residual_is_the_exact_l1_sum_rounded_up_where_the_divisors_are_exact():
    # at u = 1/2 the divisors are 0 and 2, and f = g / 2 solves g exactly:
    # only the mean and the resonant modes of g count, each as |g_k|
    g = CoefficientField(1, {(k,): complex(*rng.standard_normal(2)) for k in range(-9, 10, 2)})
    sol = solve(CoboundaryProblem(g, [Fraction(1, 2)]))
    assert sol.residual_sup == 0.0
    extra = {(0,): 2.0**-40, (4,): -3e-13, (-6,): 0.1j, (8,): 1e-300}
    g2 = CoefficientField(1, {**dict(g.items()), **extra})
    want = rounded_up(sum(Fraction(abs(v)) for v in extra.values()))
    assert residual(sol.f, g2, [Fraction(1, 2)]) == want
    # at u = (1/4, 1/3) the phases with k_2 = 0 mod 3 are quarters, where the
    # divisors are 0, 1 -+ i and 2; f has few bits, so f D is exact, and g
    # misses it by dyadic real amounts on some modes
    u = [Fraction(1, 4), Fraction(1, 3)]
    r = random.Random(14)
    keys = [(a, b) for a in range(-5, 6) for b in range(-6, 7, 3) if a % 4 or b]
    f = CoefficientField(2, {k: complex(r.randint(-64, 64), r.randint(-64, 64)) / 8 for k in keys})
    misses = {k: r.randint(-99, 99) * 2.0**-60 for k in r.sample(keys, 9)}
    resonant = {(0, 0): 1e-5, (4, 3): -2.0**-33, (-4, -6): 7.0}
    g = coboundary_from(f, u)
    g = CoefficientField(2, {**{k: g.get(k) + misses.get(k, 0) for k in keys}, **resonant})
    with mpmath.workprec(200):
        terms = mp_residual_terms(f, g, u)
        l1 = mpmath.fsum(abs(t) for t in terms.values())
    want = rounded_up(sum(Fraction(abs(v)) for v in [*misses.values(), *resonant.values()]))
    assert rounded_up(l1) == want
    assert residual(f, g, u) == want


def inexact(man, exp, prec=64):
    """man * 2^exp as an inexact prec-bit input (man must fit in prec bits)."""
    with mpmath.workprec(prec):
        return mpf_real(mpmath.mpf((man, exp)), prec)


@pytest.mark.parametrize(
    "u,k,raises",
    [
        # dist(k u) = 2^-62 = |k|_1 2^(2 - 64): unresolved, on the bound
        ([inexact(1, -62)], (1,), True),
        # dist = 2^-61 = 2 * 2^-62 at k = 2: on the bound again
        ([inexact(1, -62)], (2,), True),
        # one 64-bit ulp past the bound (the float of dist is the bound itself)
        ([inexact((1 << 63) + 1, -125)], (1,), False),
        # mixed: dist(<(1, 3), u>) = 2^-60 = |k|_1 2^(2 - 64), and just past it
        ([inexact(1, -60), Fraction(1, 3)], (1, 3), True),
        ([inexact((1 << 63) + 1, -123), Fraction(1, 3)], (1, 3), False),
    ],
)
def test_precision_error_exactly_at_the_resolution_bound(u, k, raises):
    g = CoefficientField(len(k), {k: 1.0})
    problem = CoboundaryProblem(g, u)
    if raises:
        with pytest.raises(PrecisionError):
            solve(problem)
    else:
        sol = solve(problem)
        assert sol.argmin_k == k


def test_declared_precision_is_checked_on_exact_truncations():
    # liouville_constant(128) stops at 10^-24, so k = 10^24 has an integral
    # phase; the 128 declared bits cannot tell that from the true 10^-96
    g = CoefficientField(1, {(10**24,): 1.0, (-(10**24),): 1.0})
    with pytest.raises(PrecisionError, match="not resolved at 128"):
        solve(CoboundaryProblem(g, [liouville_constant(128)]))
    # at 420 bits the phase 10^-96 is resolved and divided, and the bound
    # on the residual needs no grid of 2 * 10^24 + 1 points
    t = liouville_constant(420)
    sol = solve(CoboundaryProblem(g, [t]))
    assert [phase_distance([t], k)[0] for k in g.keys()] == [Fraction(1, 10**96)] * 2
    with mpmath.workprec(800):
        l1 = mpmath.fsum(abs(t) for t in mp_residual_terms(sol.f, g, [t]).values())
    assert l1 <= sol.residual_sup < 1e-14
    # k = 10^6 has the phase 10^-18, resolved at 128 bits, and a divisor of
    # about 6e-18 that is divided like any other
    t = liouville_constant(128)
    ks = [(-(10**6),), (10**6,)]
    assert [phase_distance([t], k)[0] for k in ks] == [Fraction(1, 10**18)] * 2
    sol = solve(CoboundaryProblem(CoefficientField(1, dict.fromkeys(ks, 1.0)), [t]))
    for k in ks:
        assert sol.f.get(k) * complex_divisor([t], k) == pytest.approx(1, rel=1e-15)
    assert sol.residual_sup < 1e-14


def test_mixed_vector_with_a_rational_resonance():
    # u = (golden, 1/3): k = (0, 3) has <k, u> = 1 exactly
    u = [GOLDEN, Fraction(1, 3)]
    with pytest.raises(ResonanceError) as ei:
        solve(CoboundaryProblem(CoefficientField(2, {(0, 3): 1.0, (1, 0): 1.0}), u))
    assert ei.value.modes[0][0] == (0, 3)
    g = CoefficientField(2, {(0, 3): 1e-15, (1, 0): 1.0})
    sol = solve(CoboundaryProblem(g, u))
    assert sol.f.get((0, 3)) == 0 and (0, 3) not in sol.f.keys()
