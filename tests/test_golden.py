"""Byte-exact `classify` output against the files in tests/golden/.

The expected files are the stdout of each command.  Every one of them is a
rank-1 scan: irrationals, named constants, exact rationals (with and without
a denominator inside the scan), a 320-bit scan and a fractional level.
"""

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
}


def test_corpus_lists_every_file():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_output(name):
    r = subprocess.run(
        [sys.executable, "-m", "heisencoh", "classify", *CORPUS[name].split()],
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / name).read_text(encoding="utf-8")
