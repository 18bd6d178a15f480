"""Byte-exact `classify`, `solve` and `sobolev` output against the files in
tests/golden/.

The expected files are the stdout of each command.  The rank-1 `classify`
cases cover irrationals, named constants, exact rationals (with and without a
denominator inside the scan), a 256-bit input and a fractional level.  The
rank-2 cases are exact (`1/3,2/7`), mixed (`golden,1/3`) and algebraic
(`golden,sqrt2`); their minima, argmins, zeros and point counts were checked
against a brute-force scan of every k when they were generated.

The `solve` cases read the seeded coefficient files `solve_g_*.txt` (c_k =
(x + iy) / (1 + |k|) with x, y standard normal from Python's `random`; the
exact-u file leaves out the modes resonant for (1/4, 1/3)); a `*.f.txt` file
is the `--out` file of the command whose stdout has the same stem.  Every
byte is compared except the values of `residual_sup` and `verify_residual`.
Those are sups over the grid of a residual at roundoff level (about 1e-15),
whose last digits move with the order of the floating-point summation (a
direct mode-by-mode sum or an inverse FFT); they are checked to be at most
1e-12.

The `sobolev` cases take the multiplier Sobolev norm of the dim-1 `solve`
input at alpha 0 and 1.5, in both formats.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

CORPUS = {
    "classify_golden_k1e6.txt": "--vector golden --kmax 1000000",
    "classify_e_k1e6.txt": "--vector e --kmax 1000000",
    "classify_pi_k1e6.txt": "--vector pi --kmax 1000000",
    "classify_liouville_k1e6.txt": "--vector liouville --kmax 1000000",
    "classify_355_113_k1e5.txt": "--vector 355/113 --kmax 100000",
    "classify_22_7_k1e5.txt": "--vector 22/7 --kmax 100000",
    "classify_3_7_k100.txt": "--vector 3/7 --kmax 100",
    "classify_1_2_k100.txt": "--vector 1/2 --kmax 100",
    "classify_golden_prec256_k2000.txt": "--vector golden --prec 256 --kmax 2000",
    "classify_golden_s1.5_k4000.txt": "--vector golden --s-grid 1.5 --kmax 4000 --prec 128",
    "classify_liouville_k1100000.json": "--vector liouville --kmax 1100000 --format json",
    "classify_1_3_2_7_k100.txt": "--vector 1/3,2/7 --kmax 100",
    "classify_golden_1_3_k100.txt": "--vector golden,1/3 --kmax 100",
    "classify_golden_sqrt2_k100.txt": "--vector golden,sqrt2 --kmax 100",
}


# stdout file -> (arguments after `solve`, --out file or None)
SOLVE = {
    "solve_dim2_r8_golden_sqrt2.txt": (
        "--g solve_g_dim2_r8.txt --u golden,sqrt2 --verify",
        "solve_dim2_r8_golden_sqrt2.f.txt",
    ),
    "solve_dim1_r32_golden_alpha.txt": (
        "--g solve_g_dim1_r32.txt --u golden --alpha-list 0,1,1.5 --verify",
        "solve_dim1_r32_golden_alpha.f.txt",
    ),
    "solve_dim2_r4_quarter_third.txt": (
        "--g solve_g_dim2_r4_exact.txt --u 1/4,1/3 --verify",
        "solve_dim2_r4_quarter_third.f.txt",
    ),
    "solve_dim1_r32_sqrt2.json": (
        "--g solve_g_dim1_r32.txt --u sqrt2 --alpha-list 0,2 --verify --format json",
        None,
    ),
}
SOLVE_INPUTS = ["solve_g_dim1_r32.txt", "solve_g_dim2_r4_exact.txt", "solve_g_dim2_r8.txt"]

# stdout file -> arguments after `sobolev --f solve_g_dim1_r32.txt`
SOBOLEV = {
    "sobolev_g_dim1_r32_alpha0.txt": "--alpha 0",
    "sobolev_g_dim1_r32_alpha0.json": "--alpha 0 --format json",
    "sobolev_g_dim1_r32_alpha1.5.txt": "--alpha 1.5",
    "sobolev_g_dim1_r32_alpha1.5.json": "--alpha 1.5 --format json",
}

ROUNDOFF = re.compile(r'^(\s*"?(?:residual_sup|verify_residual)"?[=:] ?)(\S+?)(,?)$', re.M)


def test_corpus_lists_every_file():
    expected = set(CORPUS) | set(SOLVE) | set(SOLVE_INPUTS) | set(SOBOLEV)
    expected |= {out for _, out in SOLVE.values() if out}
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(expected)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_output(name):
    r = subprocess.run(
        [sys.executable, "-m", "heisencoh", "classify", *CORPUS[name].split()],
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / name).read_text(encoding="utf-8")


def split_roundoff(text):
    """(text with the roundoff-level values blanked, those values)."""
    values = [float(m.group(2)) for m in ROUNDOFF.finditer(text)]
    return ROUNDOFF.sub(r"\1*\3", text), values


@pytest.mark.parametrize("name", sorted(SOLVE))
def test_golden_solve(name, tmp_path):
    args, out_name = SOLVE[name]
    argv = [sys.executable, "-m", "heisencoh", "solve"]
    argv += [str(GOLDEN / a) if a in SOLVE_INPUTS else a for a in args.split()]
    if out_name:
        argv += ["--out", str(tmp_path / out_name)]
    r = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    got, got_values = split_roundoff(r.stdout)
    want, want_values = split_roundoff((GOLDEN / name).read_text(encoding="utf-8"))
    assert got == want
    assert len(got_values) == len(want_values) == 2
    assert all(0 <= v <= 1e-12 for v in got_values)
    if out_name:
        assert (tmp_path / out_name).read_bytes() == (GOLDEN / out_name).read_bytes()


@pytest.mark.parametrize("name", sorted(SOBOLEV))
def test_golden_sobolev(name):
    r = subprocess.run(
        [sys.executable, "-m", "heisencoh", "sobolev",
         "--f", str(GOLDEN / "solve_g_dim1_r32.txt"), *SOBOLEV[name].split()],
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / name).read_text(encoding="utf-8")
