"""Fast self-test of the benchmark's own checks (a few seconds).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Each checker must accept the
program's real output on a small input and reject every deliberately wrong
variant of it; the span accounting of the traced run is checked on a
synthetic trace.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import random
import re
import subprocess
import sys

import checks
import run
import workloads

ENV = run.child_env()
WORK = run.OUT / "selftest"


def heisencoh(*args) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "heisencoh", *args],
        capture_output=True, text=True, env=ENV, cwd=run.ROOT, check=True,
    )
    return proc.stdout


def setkey(text, key, value):
    new, n = re.subn(rf"^{re.escape(key)}=.*$", f"{key}={value}", text, count=1, flags=re.M)
    if n != 1:
        raise SystemExit(f"FAIL {key} is not in the report")
    return new


def scale(text, key, factor):
    value = float(re.search(rf"^{re.escape(key)}=(.*)$", text, flags=re.M).group(1))
    return setkey(text, key, repr(value * factor))


def expect(name, problems, ok):
    if bool(problems) == ok:
        raise SystemExit(f"FAIL {name}: {'accepted' if not ok else 'rejected'}: {problems}")
    print(f"ok   {name}" + ("" if ok else f" -> {problems[0][:90]}"))


def classify_cases():
    cases = {
        ("golden", 1000): {
            "argmin_k": lambda t: setkey(t, "argmin_k", "610"),
            "min_divisor": lambda t: scale(t, "min_divisor", 1 + 1e-9),
            "verdict Liouville": lambda t: setkey(t, "verdict", "LiouvilleEvidence"),
            "verdict Rational": lambda t: setkey(t, "verdict", "Rational"),
        },
        ("liouville", 1_000_000): {
            "verdict": lambda t: setkey(t, "verdict", "DiophantineEvidence"),
        },
        ("355/113", 1000): {
            "rational_k": lambda t: setkey(t, "rational_k", "226"),
            "verdict": lambda t: setkey(t, "verdict", "Inconclusive"),
            "argmin_k": lambda t: setkey(t, "argmin_k", "1"),
            "min_divisor": lambda t: scale(t, "min_divisor", 1 - 1e-9),
        },
        ("golden,sqrt2", 10): {
            "argmin_k": lambda t: setkey(t, "argmin_k", "1,0"),
            "min_divisor": lambda t: scale(t, "min_divisor", 1 + 1e-9),
            "verdict Rational": lambda t: setkey(t, "verdict", "Rational"),
        },
        ("1/3,2/7", 10): {
            "rational_k not least": lambda t: setkey(t, "rational_k", "6,0"),
            "rational_k not integral": lambda t: setkey(t, "rational_k", "1,0"),
            "argmin_k": lambda t: setkey(t, "argmin_k", "1,0"),
            "verdict": lambda t: setkey(t, "verdict", "DiophantineEvidence"),
        },
    }
    for (vector, kmax), mutations in cases.items():
        check = checks.ClassifyCheck(vector, kmax)
        text = heisencoh("classify", "--vector", vector, "--kmax", str(kmax))
        expect(f"classify {vector} K={kmax}", check(text), ok=True)
        for what, mutate in mutations.items():
            expect(f"classify {vector} K={kmax}: wrong {what}", check(mutate(text)), ok=False)

    # the kept fault is recognised as such, and only as such
    check = checks.ClassifyCheck("golden,sqrt2", 10)
    text = heisencoh("classify", "--vector", "golden,sqrt2", "--kmax", "10")
    problems = check(setkey(text, "verdict", "LiouvilleEvidence"))
    if len(problems) != 1 or not problems[0].startswith(checks.KNOWN_FAULT):
        raise SystemExit(f"FAIL known fault not recognised: {problems}")
    print("ok   classify golden,sqrt2: LiouvilleEvidence is the known fault")


def solve_cases():
    WORK.mkdir(parents=True, exist_ok=True)
    g_path, f_path = WORK / "g.txt", WORK / "f.txt"
    workloads.write_field(g_path, 1, 8, random.Random(0))
    diag = heisencoh("solve", "--g", str(g_path), "--u", "golden", "--alpha-list", "0,1",
                     "--verify", "--out", str(f_path))
    f_text = f_path.read_text()
    check = checks.SolveCheck(g_path.read_text(), "golden")
    expect("solve dim=1 R=8", check(f_text, diag), ok=True)

    lines = f_text.splitlines()
    k, re_, im = lines[3].rsplit(" ", 2)
    lines[3] = f"{k} {float(re_) * (1 + 1e-9)!r} {im}"
    expect("solve: wrong f coefficient", check("\n".join(lines) + "\n", diag), ok=False)
    for what, bad in {
        "verify_residual": setkey(diag, "verify_residual", "1e-6"),
        "min_divisor": scale(diag, "min_divisor", 1 + 1e-9),
        "argmin_k": setkey(diag, "argmin_k", "1"),
        "alpha-0 norm": re.sub(r"^(norm alpha=0 f=)(\S+)",
                               lambda m: m.group(1) + repr(float(m.group(2)) * (1 + 1e-8)),
                               diag, flags=re.M),
    }.items():
        expect(f"solve: wrong {what}", check(f_text, bad), ok=False)


def span_accounting():
    # cli [0, 10] > classify [1, 9] > scan [2, 5], refine [5, 8] > rescue [6, 7]
    spans = [["cli", 0, 10, -1], ["classify", 1, 9, 0], ["scan.unit", 2, 5, 1],
             ["refine.minima", 5, 8, 1], ["refine.rescue", 6, 7, 3]]
    selfs = run.self_times(spans)
    want = {"cli": 2, "classify": 2, "scan.unit": 3, "refine.minima": 2, "refine.rescue": 1}
    if selfs != want or sum(selfs.values()) != 10:
        raise SystemExit(f"FAIL span self times {selfs}")
    print("ok   span self times add up to the command span")


def main():
    if not (run.SRC / "heisencoh" / "__init__.py").is_file():
        print(f"no heisencoh source under {run.SRC}", file=sys.stderr)
        return 2
    span_accounting()
    classify_cases()
    solve_cases()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
