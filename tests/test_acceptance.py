"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Stated runtime budgets are asserted.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from heisencoh.coboundary import CoboundaryProblem, coboundary_from, sobolev_loss, solve
from heisencoh.coefficients import CoefficientField
from heisencoh.cohomology import cohomology, cohomology_table
from heisencoh.diophantine import classify, fan_member
from heisencoh.errors import NonzeroMeanError, ResonanceError
from heisencoh.fourier import dft, inverse_dft, sobolev_norm
from heisencoh.heisenberg import (
    HeisElement,
    IDENTITY,
    commutator,
    commutator_closed_form_probe,
    normal_form,
    reconstruct,
)
from heisencoh.precision import PrecisionReal, liouville_constant
from heisencoh.representations import IrrepParams, SemidirectElement, character, irrep_matrix

GOLDEN = PrecisionReal.parse("golden", 128)
_cache = {}


def golden_report():
    if "golden" not in _cache:
        _cache["golden"] = classify(GOLDEN, 10**5)
    return _cache["golden"]


def _report(idx, name, t0, budget=None):
    dt = time.perf_counter() - t0
    print(f"\nACCEPTANCE {idx:>2} {name}: PASS ({dt:.2f} s)")
    if budget is not None:
        assert dt < budget, f"criterion {idx} exceeded its {budget} s budget ({dt:.2f} s)"


def grid_coords(radius):
    r = np.arange(-radius, radius + 1)
    x, y, z = np.meshgrid(r, r, r, indexing="ij")
    return x.ravel(), y.ravel(), z.ravel()


def test_c01_group_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    # exhaustive |x|,|y|,|z| <= 5: identity and inverse laws through the API
    xs, ys, zs = grid_coords(5)
    for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist()):
        a = HeisElement(x, y, z)
        assert a * IDENTITY == a and IDENTITY * a == a
        assert a * a.inverse() == IDENTITY and a.inverse() * a == IDENTITY

    # exhaustive pairwise commutator checks, vectorized re-derivation of the
    # group law as the oracle: [a, b] = (0, 0, xa*yb - xb*ya), central
    xa, ya, za = (c[:, None] for c in grid_coords(5))
    xb, yb, zb = (c[None, :] for c in grid_coords(5))
    # a * b
    x1, y1, z1 = xa + xb, ya + yb, za + zb + xa * yb
    # * a^-1
    x2, y2 = x1 - xa, y1 - ya
    z2 = z1 + (-za + xa * ya) + x1 * (-ya)
    # * b^-1
    x3, y3 = x2 - xb, y2 - yb
    z3 = z2 + (-zb + xb * yb) + x2 * (-yb)
    assert not x3.any() and not y3.any()
    assert (z3 == xa * yb - xb * ya).all()

    # class-2 nilpotency: [[a, b], c] = e for sampled triples via the API
    for _ in range(2000):
        a, b, c = (
            HeisElement(*(int(v) for v in rng.integers(-5, 6, 3))) for _ in range(3)
        )
        assert commutator(commutator(a, b), c) == IDENTITY
        assert commutator(a, b).x == 0 and commutator(a, b).y == 0

    # associativity: exhaustive on the |coords| <= 1 subgrid and 10^4 wide
    # random triples
    small = [HeisElement(x, y, z)
             for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)]
    for a in small:
        for b in small:
            for c in small:
                assert (a * b) * c == a * (b * c)
    wide = 10**12
    for _ in range(10**4):
        a, b, c = (
            HeisElement(*(int(v) for v in rng.integers(-wide, wide, 3)))
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)

    _report(1, "group axioms (exhaustive grid + wide random)", t0, budget=5.0)


def test_c02_normal_form():
    t0 = time.perf_counter()
    xs, ys, zs = grid_coords(5)
    for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist()):
        a = HeisElement(x, y, z)
        nf = normal_form(a)
        assert (nf.a, nf.b, nf.c) == (y, x, z)
        assert reconstruct(nf) == a
    _report(2, "normal form g1^y g2^x g3^z round trip", t0)


def test_c03_erratum_probes():
    t0 = time.perf_counter()
    xs, ys, zs = grid_coords(5)
    mismatches = 0
    sample = None
    for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist()):
        a = HeisElement(x, y, z)
        b = HeisElement(z, x, y)  # a second grid sweep, decorrelated
        probe = commutator_closed_form_probe(a, b)
        assert probe.group_law == HeisElement(0, 0, a.x * b.y - b.x * a.y)
        if not probe.agrees:
            mismatches += 1
            sample = sample or (a, b, probe)
    assert mismatches > 0
    a, b, probe = sample
    print(
        f"\n  probe: [{a}, {b}] group law {probe.group_law} vs quoted "
        f"closed form {probe.closed_form} -> {mismatches} mismatches on the grid"
    )
    _report(3, "commutator closed-form erratum probe", t0)


def test_c04_representations():
    t0 = time.perf_counter()
    for p in (2, 3, 5):
        qs = {1, p - 1}
        for q in qs:
            P = IrrepParams(p=p, xi=0.3, eta=Fraction(q, p), alpha=0.7)
            eye = np.eye(p)
            for m in range(-2 * p, 2 * p + 1):
                for k in range(-2 * p, 2 * p + 1):
                    for s in range(-2 * p, 2 * p + 1):
                        a = SemidirectElement(m, k, s)
                        U = irrep_matrix(P, a)
                        assert np.max(np.abs(U.conj().T @ U - eye)) < 1e-12
                        chi = character(P, a)
                        assert abs(chi - np.trace(U)) < 1e-10
                        if s % p or m % p:
                            assert chi == 0
                        else:
                            assert abs(chi) > 0
    _report(4, "irrep unitarity, character = trace, vanishing split", t0, budget=10.0)


def test_c05_dft():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    for n in range(2, 257):
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fwd = dft(h)
        assert np.max(np.abs(inverse_dft(fwd) - h)) < 1e-12
        # O(N^2) direct-sum oracle (exponents reduced mod n keep phases exact)
        i = np.arange(n)
        direct = np.exp(-2j * np.pi * (np.outer(i, i) % n) / n) @ h
        assert np.max(np.abs(fwd - direct)) < 1e-12
        # Plancherel
        assert abs(np.sum(np.abs(fwd) ** 2) - n * np.sum(np.abs(h) ** 2)) < 1e-12 * n * np.sum(np.abs(h) ** 2)
    _report(5, "DFT inverse + direct-sum oracle + Plancherel, N = 2..256", t0)


def test_c06_sobolev():
    t0 = time.perf_counter()
    rng = np.random.default_rng(66)
    for _ in range(100):
        ks = rng.choice(np.arange(-40, 41), size=9, replace=False)
        f = CoefficientField(1, {(int(k),): complex(*rng.standard_normal(2)) for k in ks})
        assert abs(sobolev_norm(f, 0.0) - f.norm_l2()) < 1e-10 * max(1.0, f.norm_l2())
    delta = CoefficientField(1, {(0,): 1.0})
    assert abs(sobolev_norm(delta, 1.0) - math.sqrt(3 + 8 / math.pi)) < 1e-8
    _report(6, "Sobolev norm: alpha=0 Parseval + closed-form delta", t0)


def test_c07_diophantine_scans():
    t0 = time.perf_counter()
    rep = golden_report()
    assert rep.verdict == "DiophantineEvidence"
    row1 = [r for r in rep.s_table if r.s == 1.0][0]
    assert row1.c > 1.0, f"min |k| divisor = {row1.c}"

    liou = classify(liouville_constant(128), 10**7)
    assert liou.verdict == "LiouvilleEvidence"
    assert liou.precision_bits == 128
    top = [w for w in liou.witnesses if max(w.levels) == 3.0]
    assert top, "no witness at the top requested level"
    assert any(w.exponent >= 3.0 for w in top), [w.exponent for w in top]
    print(
        f"\n  golden: C(1) = {row1.c:.6f}; liouville witness k = {top[0].k[0]} "
        f"exponent {top[0].exponent:.2f}"
    )
    _report(7, "golden C(1) > 1 at Kmax 1e5; liouville witness at Kmax 1e7", t0, budget=60.0)


def test_c08_coboundary_solver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    for _ in range(50):
        ks = [int(k) for k in rng.choice(np.arange(1, 21), size=8, replace=False)]
        entries = {}
        for k in ks:
            entries[(k,)] = complex(*rng.standard_normal(2))
            entries[(-k,)] = complex(*rng.standard_normal(2))
        f = CoefficientField(1, entries)
        g = coboundary_from(f, [GOLDEN])
        sol = solve(CoboundaryProblem(g, [GOLDEN]))
        for k, v in f.items():
            assert abs(sol.f.get(k) - v) < 1e-10
        assert sol.residual_sup <= 1e-9 * g.norm_l1()

    with pytest.raises(NonzeroMeanError):
        solve(CoboundaryProblem(CoefficientField(1, {(0,): 1.0, (1,): 1.0}), [Fraction(1, 4)]))
    with pytest.raises(ResonanceError):
        solve(CoboundaryProblem(CoefficientField(1, {(4,): 1.0}), [Fraction(1, 4)]))

    herm = {}
    for k in range(1, 12):
        c = complex(*np.random.default_rng(k).standard_normal(2))
        herm[(k,)] = c
        herm[(-k,)] = c.conjugate()
    g = coboundary_from(CoefficientField(1, herm), [GOLDEN])
    assert g.is_hermitian(1e-13)
    sol = solve(CoboundaryProblem(g, [GOLDEN]))
    assert sol.f.is_hermitian(1e-12)
    _report(8, "coboundary round trips, residual, error paths, Hermitian", t0)


def test_c09_divisor_bound_propagation():
    t0 = time.perf_counter()
    rep = golden_report()
    evidence = (rep.diophantine_c, rep.diophantine_s)
    assert evidence[1] == 1.0
    rng = np.random.default_rng(99)
    for _ in range(10):
        ks = [int(k) for k in rng.choice(np.arange(1, 21), size=10, replace=False)]
        g = CoefficientField(
            1,
            {(sgn * k,): complex(*rng.standard_normal(2)) for k in ks for sgn in (1, -1)},
        )
        sol = solve(CoboundaryProblem(g, [GOLDEN]))
        rows, bound = sobolev_loss(sol, g, [0.0, 1.0], evidence=evidence)
        assert bound["violations"] == [], bound["violations"]
        assert bound["checked"] == len(sol.f)
    _report(9, "per-coefficient bound |f_k| C <= |g_k| |k| from evidence", t0)


def test_c10_cohomology():
    t0 = time.perf_counter()
    t1 = cohomology_table(1)
    assert [g.free_rank for g in t1.groups] == [1, 2, 2, 1, 0]
    assert all(not g.torsion for g in t1.groups)
    # the cross-checks are library fields, and hold on the table's whole domain
    for n in range(1, 31):
        t = cohomology_table(n)
        assert t.euler_characteristic == 0
        assert t.rank_duality_holds
        assert t.warnings == ()
    for n in range(1, 31):
        for k in range(2 * n + 2, 2 * n + 5):
            assert cohomology(n, k).is_trivial()
    _report(10, "cohomology ranks, Euler char, duality, vanishing", t0, budget=5.0)


def test_c11_fan():
    t0 = time.perf_counter()
    assert fan_member(0, 5, 1)
    assert fan_member(1, 3, 1)
    assert not fan_member(2, 5, 1)

    def brute(lam, xi, n):
        if lam == 0:
            return xi >= 0
        return any(xi == abs(lam) * (2 * j + n) for j in range(0, xi + 1))

    for n in (1, 2, 3):
        for lam in range(-20, 21):
            for xi in range(0, 201):
                assert fan_member(lam, xi, n) == brute(lam, xi, n)
    _report(11, "fan membership vs brute-force j-search", t0)


def test_c12_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    g = tmp_path / "g.coef"
    g.write_text("dim=1\n1 1 0\n-1 1 0\n3 0.25 -0.5\n-3 0.25 0.5\n", encoding="utf-8")
    corpus = [
        (("group", "inv"), "1 2 3\n"),
        (("group", "mul"), "1 2 3\n4 5 6\n"),
        (("group", "mul"), "1 0 | 0 1 | 2\n3 1 | 1 0 | 0\n"),
        (("group", "nf"), "3 2 -4\n"),
        (("rep", "character", "--p", "3", "--eta", "1/3", "--alpha", "0.25", "--range", "2"), ""),
        (("rep", "matrix", "--p", "5", "--eta", "2/5", "--xi", "0.1", "--element", "1 2 3"), ""),
        (("classify", "--vector", "golden", "--kmax", "4000", "--prec", "128", "--s-grid", "1,2,3"), ""),
        (("classify", "--vector", "liouville", "--kmax", "1100000"), ""),
        (("classify", "--vector", "3/7", "--kmax", "100"), ""),
        (("solve", "--g", str(g), "--u", "golden", "--alpha-list", "0,1", "--verify"), ""),
        (("fan", "--lambda", "1", "--xi", "3", "--n", "1"), ""),
        (("sobolev", "--f", str(g), "--alpha", "1.5"), ""),
        (("cohomology", "--n", "4"), ""),
        (("cohomology", "--n", "2", "--k", "10"), ""),
    ]
    for args, stdin in corpus:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "heisencoh", *args],
                input=stdin, capture_output=True, text=True, timeout=300,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, (args, runs[0].stderr)
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout, f"stdout differs for {args}"
        assert runs[0].stderr == runs[1].stderr, f"stderr differs for {args}"
    _report(12, "CLI byte-for-byte determinism across the corpus", t0)


def test_c13_rank1_scan_at_kmax_1e12():
    # the three-distance scan visits O(log M + kept + witnesses) points per
    # range, so Kmax 1e12 fits the budget of the Kmax 1e7 criterion 7
    t0 = time.perf_counter()
    rep = classify(GOLDEN, 10**12)
    assert rep.verdict == "DiophantineEvidence"
    assert rep.points_scanned == 10**12
    assert rep.argmin_k == (956722026041,)  # the largest Fibonacci number <= 1e12
    _report(13, "golden at Kmax 1e12", t0, budget=60.0)


def test_c14_rank1_scan_above_192_bits():
    # 256 input bits scan on their own grid of 2^255, the 128-bit input on
    # one widened to 2^192; the results match
    t0 = time.perf_counter()
    wide = classify(PrecisionReal.parse("golden", 256), 20000)
    narrow = classify(GOLDEN, 20000)
    assert [(r.c, r.argmin_k) for r in wide.s_table] == [(r.c, r.argmin_k) for r in narrow.s_table]
    assert [r.k for r in wide.records] == [r.k for r in narrow.records]
    _report(14, "golden at 256 bits, Kmax 20000", t0, budget=5.0)


def test_c15_rank2_scan_at_kmax_1000():
    # rank 2 walks one line along k_1 per tail: O(K log M) to start the lines
    # of a range, O(1) per point kept, where a scan of every k is O(K^2)
    t0 = time.perf_counter()
    rep = classify([GOLDEN, PrecisionReal.parse("sqrt2", 128)], 1000)
    assert rep.verdict == "DiophantineEvidence"
    assert rep.points_scanned == (2001**2 - 1) // 2
    assert rep.argmin_k == (368, 110)
    _report(15, "golden,sqrt2 at Kmax 1000", t0, budget=5.0)


def test_c16_exact_ties_at_kmax_1e6():
    # exact ties share one r', so each tie class puts only its least k on the
    # frontier and the range minima refine a few points, not one per k
    t0 = time.perf_counter()
    rep = classify(Fraction(3, 7), 10**6, s_grid=[0.5, 1.5])
    assert rep.verdict == "Rational" and rep.rational_k == (7,)
    assert rep.points_scanned == 10**6 - 10**6 // 7
    assert rep.argmin_k == (2,)
    assert [row.argmin_k for row in rep.s_table] == [(2,), (1,)]
    _report(16, "3/7 at s = 0.5, Kmax 1e6", t0, budget=3.0)
