"""Byte-exact `classify`, `solve`, `sobolev` and `rep` output against the
files in tests/golden/.

The expected files are the stdout of each command.  The rank-1 `classify`
cases cover irrationals, named constants, exact rationals (with and without a
denominator inside the scan), a 256-bit input and a fractional level.  The
rank-2 cases are exact (`1/3,2/7`), mixed (`golden,1/3`) and algebraic
(`golden,sqrt2`); their minima, argmins, zeros and point counts were checked
against a brute-force scan of every k when they were generated.  The
algebraic `golden,sqrt2` at K = 10^5 and `golden,sqrt2,sqrt3` at K = 300 are
beyond such a scan; they were generated by the rank-1 line walk that the
lattice scan replaced, an independent implementation of the same stream.

The `solve` cases read the seeded coefficient files `solve_g_*.txt` (c_k =
(x + iy) / (1 + |k|) with x, y standard normal from Python's `random`; the
exact-u file leaves out the modes resonant for (1/4, 1/3)); a `*.f.txt` file
is the `--out` file of the command whose stdout has the same stem.  Every
byte is compared except the values of `residual_sup` and `verify_residual`.
Those are proved upper bounds on the residual over the whole torus, the
l1 sum of its coefficients rounded up, at roundoff level (about 1e-15);
their last digits depend on how the bound accounts for rounding, so they
are checked to be at least 0 and at most 1e-12.

The `sobolev` cases take the multiplier Sobolev norm of the dim-1 `solve`
input at alpha 0 and 1.5.

`solve_torus_seed1.blake2b` holds the BLAKE2b digests of the stdout and of
the `--out` file of the two `solve-torus` benchmark commands at seed 1
(`perfbench/workloads.py`), residual lines included: dim 2 at R = 32 (4,224
modes, more than one chunk of the residual sum) and dim 1 at R = 256.

The `rep` case is a character table whose nonzero values are 3 exp(2 pi i k/3)
at m = s = 0, the only support within range 2; each was checked against
mpmath at 300 bits, rounded once, when it was generated.
"""

import hashlib
import importlib
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
    "classify_liouville_k1100000.txt": "--vector liouville --kmax 1100000",
    "classify_1_3_2_7_k100.txt": "--vector 1/3,2/7 --kmax 100",
    "classify_golden_1_3_k100.txt": "--vector golden,1/3 --kmax 100",
    "classify_golden_sqrt2_k100.txt": "--vector golden,sqrt2 --kmax 100",
    "classify_golden_sqrt2_k1e5.txt": "--vector golden,sqrt2 --kmax 100000",
    "classify_golden_sqrt2_sqrt3_k300.txt": "--vector golden,sqrt2,sqrt3 --kmax 300",
}


# stdout file -> (arguments after `solve`, --out file)
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
    "solve_dim1_r32_sqrt2.txt": (
        "--g solve_g_dim1_r32.txt --u sqrt2 --alpha-list 0,2 --verify",
        "solve_dim1_r32_sqrt2.f.txt",
    ),
}
SOLVE_INPUTS = ["solve_g_dim1_r32.txt", "solve_g_dim2_r4_exact.txt", "solve_g_dim2_r8.txt"]

# stdout file -> arguments after `sobolev --f solve_g_dim1_r32.txt`
SOBOLEV = {
    "sobolev_g_dim1_r32_alpha0.txt": "--alpha 0",
    "sobolev_g_dim1_r32_alpha1.5.txt": "--alpha 1.5",
}

# stdout file -> arguments after `rep`
REP = {
    "rep_character_p3_eta1_3_alpha0.25_r2.txt": "character --p 3 --eta 1/3 --alpha 0.25 --range 2",
}

DIGESTS = "solve_torus_seed1.blake2b"
PERFBENCH = Path(__file__).parents[1] / "perfbench"

ROUNDOFF = re.compile(r"^((?:residual_sup|verify_residual)=)(\S+)$", re.M)


def test_corpus_lists_every_file():
    expected = set(CORPUS) | set(SOLVE) | set(SOLVE_INPUTS) | set(SOBOLEV) | set(REP) | {DIGESTS}
    expected |= {out for _, out in SOLVE.values()}
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
    return ROUNDOFF.sub(r"\1*", text), values


@pytest.mark.parametrize("name", sorted(SOLVE))
def test_golden_solve(name, tmp_path):
    args, out_name = SOLVE[name]
    argv = [sys.executable, "-m", "heisencoh", "solve"]
    argv += [str(GOLDEN / a) if a in SOLVE_INPUTS else a for a in args.split()]
    argv += ["--out", str(tmp_path / out_name)]
    r = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    got, got_values = split_roundoff(r.stdout)
    want, want_values = split_roundoff((GOLDEN / name).read_text(encoding="utf-8"))
    assert got == want
    assert len(got_values) == len(want_values) == 2
    assert all(0 <= v <= 1e-12 for v in got_values)
    assert (tmp_path / out_name).read_bytes() == (GOLDEN / out_name).read_bytes()


def test_golden_solve_torus_digests(tmp_path, monkeypatch):
    # the fields and the arguments are the benchmark's own, so this is the
    # output the benchmark checks, byte for byte
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    want = dict(line.rsplit(" ", 1) for line in (GOLDEN / DIGESTS).read_text().splitlines())
    got = {}
    for command in workloads.build("solve-torus", 1, tmp_path):
        name = command.label.split()[0].replace("=", "")  # "dim=2 R=32 ..." -> "dim2"
        r = subprocess.run([sys.executable, "-m", "heisencoh", *command.args],
                           capture_output=True, timeout=120)
        assert r.returncode == 0, r.stderr
        got[f"{name} stdout"] = hashlib.blake2b(r.stdout).hexdigest()
        got[f"{name} out"] = hashlib.blake2b(command.out_file.read_bytes()).hexdigest()
    assert got == want


@pytest.mark.parametrize("name", sorted(SOBOLEV))
def test_golden_sobolev(name):
    r = subprocess.run(
        [sys.executable, "-m", "heisencoh", "sobolev",
         "--f", str(GOLDEN / "solve_g_dim1_r32.txt"), *SOBOLEV[name].split()],
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(REP))
def test_golden_rep(name):
    r = subprocess.run(
        [sys.executable, "-m", "heisencoh", "rep", *REP[name].split()],
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / name).read_text(encoding="utf-8")
