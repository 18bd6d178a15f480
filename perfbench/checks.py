"""Independent checks of `heisencoh` classify and solve outputs.

Every expected value here is computed with mpmath, `fractions` or plain
integers; nothing imports `heisencoh`, so a fault in the program cannot also
hide in its check.  Each checker returns a list of problems (empty when the
output is right).  A problem that starts with KNOWN_FAULT comes from the
fault in the program that the benchmark keeps on purpose: rank-n algebraic
vectors that `classify` calls `LiouvilleEvidence`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath

KNOWN_FAULT = "known fault:"

# fixed-point bits of the brute-force scans; far above the program's 192-bit
# scan, so rounding here cannot decide a comparison
FIXED_BITS = 320
CF_BITS = 400
TRIG_BITS = 120

ALGEBRAIC = {"golden", "sqrt2", "sqrt3", "sqrt5"}
IRRATIONAL = ALGEBRAIC | {"pi", "e", "liouville"}
# irrationality measure 2 (e) or algebraic (Roth, Schmidt): never Liouville
NOT_LIOUVILLE = ALGEBRAIC | {"e"}


def constant(name: str, bits: int):
    """The named constant as an mpf at `bits` bits (the true real, untruncated)."""
    with mpmath.workprec(bits + 20):
        if name == "golden":
            return (mpmath.sqrt(5) - 1) / 2
        if name in ("sqrt2", "sqrt3", "sqrt5"):
            return mpmath.sqrt(int(name[4:]))
        if name == "pi":
            return +mpmath.pi
        if name == "e":
            return +mpmath.e
        if name == "liouville":
            total = mpmath.mpf(0)
            j = 1
            while math.factorial(j) * math.log2(10) < bits + 40:
                total += mpmath.mpf(10) ** -math.factorial(j)
                j += 1
            return total
    raise ValueError(f"unknown constant {name!r}")


def parse_component(tok: str):
    """('exact', Fraction) for p/q or decimals, ('named', name) for constants."""
    tok = tok.strip().lower()
    if tok in IRRATIONAL:
        return ("named", tok)
    if "/" in tok:
        num, den = tok.split("/")
        return ("exact", Fraction(int(num), int(den)))
    return ("exact", Fraction(tok))


def parse_report(text: str) -> dict:
    """First value of each `key=value` line of a text report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and " " not in key and key not in out:
            out[key] = value
    return out


def _vec(text: str) -> tuple:
    return tuple(int(c) for c in text.split(","))


def _rel_close(got: float, want, rel: float) -> bool:
    want = float(want)
    return abs(got - want) <= rel * abs(want)


def _fixed(comp, bits: int) -> int:
    """floor(frac(component) * 2**bits)."""
    kind, value = comp
    if kind == "exact":
        frac = value - math.floor(value)
        return (frac.numerator << bits) // frac.denominator
    with mpmath.workprec(bits + 40):
        x = constant(value, bits + 40)
        return int(mpmath.floor(mpmath.ldexp(x - mpmath.floor(x), bits)))


def _divisor_of_fixed(dist: int, bits: int):
    """2 sin(pi dist / 2**bits) for a folded fixed-point distance."""
    with mpmath.workprec(TRIG_BITS):
        return 2 * mpmath.sin(mpmath.pi * mpmath.ldexp(dist, -bits))


# ---------------------------------------------------------------------------
# classify


def _rank1_irrational_best(name: str, kmax: int):
    """(q, 2 sin(pi ||q t||)) for the largest convergent denominator q <= kmax.

    By Lagrange's best-approximation theorem min_{1<=k<=kmax} ||k t|| is taken
    only at that q, so this is the exact argmin of the scan.  The convergents
    come from Euclid's algorithm on floor(t 2**CF_BITS) / 2**CF_BITS, whose
    expansion agrees with t's for denominators far below 2**(CF_BITS/2).
    """
    num = _fixed(("named", name), CF_BITS)
    den = 1 << CF_BITS
    q_prev, q = 0, 1  # q_{-1}, q_0 of a0 = 0 (t is taken mod 1)
    best = 1
    while num:
        a, rem = divmod(den, num)
        den, num = num, rem
        q_prev, q = q, a * q + q_prev
        if q > kmax:
            break
        best = q
    with mpmath.workprec(CF_BITS):
        x = best * constant(name, CF_BITS)
        d = x - mpmath.nint(x)
        div = 2 * mpmath.sin(mpmath.pi * abs(d))
    return best, div


def _box_scan(comps, kmax: int):
    """Brute force over the canonical half of the box 0 < |k| <= kmax.

    Returns (least max-norm of an exact zero or None, minimum folded
    fixed-point distance over nonzero divisors, set of its minimizers).
    The named constants of one vector are taken to be linearly independent
    over Q together with 1, as golden, sqrt2 and sqrt3 are, so only the exact
    entries can make a zero.
    Minimizers are the k within a few units of rounding of the minimum, since
    vectors equal modulo a period of the rational part tie exactly.
    """
    n = len(comps)
    bits = FIXED_BITS
    modulus = 1 << bits
    scaled = [_fixed(c, bits) for c in comps]
    exact = [c[0] == "exact" for c in comps]
    rational = [c[1] if e else None for c, e in zip(comps, exact)]
    zero_norm = None
    best = None
    dists = []
    for k in itertools.product(range(-kmax, kmax + 1), repeat=n):
        lead = next((c for c in k if c), 0)
        if lead <= 0:
            continue
        if all(e or not c for e, c in zip(exact, k)):
            total = sum((c * r for c, r in zip(k, rational) if r is not None), Fraction(0))
            if total.denominator == 1:
                norm = max(abs(c) for c in k)
                zero_norm = norm if zero_norm is None else min(zero_norm, norm)
                continue
        r = sum(c * s for c, s in zip(k, scaled)) % modulus
        d = min(r, modulus - r)
        dists.append((d, k))
        if best is None or d < best:
            best = d
    tol = 4 * n * kmax
    minimizers = {k for d, k in dists if d <= best + tol}
    return zero_norm, best, minimizers


def _rank1_rational(q_frac: Fraction, kmax: int):
    """(least k with k t in Z or None, min over k of the folded numerator of
    k t mod 1, the denominator); k runs over 1..min(kmax, q), which meets
    every residue class the whole range meets."""
    p, q = q_frac.numerator, q_frac.denominator
    zero = q if q <= kmax else None
    folded = {}
    for k in range(1, min(kmax, q) + 1):
        if k == q:
            continue
        r = (k * p) % q
        folded[k] = min(r, q - r)
    return zero, min(folded.values()), q


class ClassifyCheck:
    """Expected properties of `classify --vector V --kmax K` (text format).

    The expensive reference values are computed once, on the first report.
    """

    def __init__(self, vector: str, kmax: int):
        self.vector = vector
        self.kmax = kmax
        self.comps = [parse_component(t) for t in vector.split(",") if t.strip()]
        self._ref = None

    def _reference(self):
        if self._ref is None:
            comps, kmax = self.comps, self.kmax
            if len(comps) == 1 and comps[0][0] == "named":
                q, div = _rank1_irrational_best(comps[0][1], kmax)
                self._ref = ("cf", None, div, q)
            elif len(comps) == 1:
                zero, num, den = _rank1_rational(comps[0][1], kmax)
                with mpmath.workprec(TRIG_BITS):
                    div = 2 * mpmath.sin(mpmath.pi * mpmath.mpf(num) / den)
                self._ref = ("rat1", zero, div, num)
            else:
                zero, best, minimizers = _box_scan(comps, kmax)
                self._ref = (
                    "box", zero, _divisor_of_fixed(best, FIXED_BITS), minimizers
                )
        return self._ref

    def __call__(self, text: str) -> list:
        rep = parse_report(text)
        problems = []
        kind, zero, min_div, arg = self._reference()
        verdict = rep.get("verdict")
        rank = len(self.comps)

        if zero is not None:
            if verdict != "Rational":
                problems.append(f"verdict {verdict}, but an exact zero lies in the box")
            problems += self._check_rational_k(rep.get("rational_k"), zero)
        else:
            if verdict == "Rational":
                problems.append("verdict Rational without an exact zero in the box")
            if "rational_k" in rep:
                problems.append("rational_k printed without an exact zero in the box")
            names = {v for _, v in self.comps}
            all_named = all(kind == "named" for kind, _ in self.comps)
            if names == {"liouville"} and rank == 1:
                if verdict != "LiouvilleEvidence":
                    problems.append(f"verdict {verdict} for the Liouville constant")
            elif all_named and names <= NOT_LIOUVILLE and verdict == "LiouvilleEvidence":
                msg = f"verdict LiouvilleEvidence for {self.vector}"
                if rank >= 2 and names <= ALGEBRAIC:
                    # Schmidt's subspace theorem: Diophantine for every s > n
                    msg = (
                        f"{KNOWN_FAULT} {msg}; the accident floor of "
                        "diophantine._significance_floor uses the rank-1 count"
                    )
                problems.append(msg)

        try:
            got_div = float(rep["min_divisor"])
            got_k = _vec(rep["argmin_k"])
        except (KeyError, ValueError):
            return problems + ["min_divisor or argmin_k missing or malformed"]
        if not _rel_close(got_div, min_div, 1e-12):
            problems.append(f"min_divisor {got_div!r}, expected {float(min_div)!r}")
        if kind == "cf":
            if got_k != (arg,):
                problems.append(f"argmin_k {got_k}, expected convergent {arg}")
        elif kind == "rat1":
            p, q = self.comps[0][1].numerator, self.comps[0][1].denominator
            k = got_k[0]
            r = (k * p) % q
            if not 1 <= k <= self.kmax or min(r, q - r) != arg:
                problems.append(f"argmin_k {got_k} does not attain the minimum")
        elif got_k not in arg:
            problems.append(f"argmin_k {got_k} is not a brute-force minimizer")
        return problems

    def _check_rational_k(self, text, zero_norm) -> list:
        if text is None:
            return ["rational_k missing"]
        k = _vec(text)
        if len(k) != len(self.comps) or not any(k):
            return [f"rational_k {text} is not a nonzero {len(self.comps)}-vector"]
        if any(c and kind == "named" for c, (kind, _) in zip(k, self.comps)):
            return [f"rational_k {text} has a component on an irrational entry"]
        total = sum(
            (c * v for c, (kind, v) in zip(k, self.comps) if kind == "exact"), Fraction(0)
        )
        if total.denominator != 1:
            return [f"<rational_k, t> = {total} is not an integer"]
        if max(abs(c) for c in k) != zero_norm:
            return [f"rational_k {text} is not of least max-norm {zero_norm}"]
        return []


# ---------------------------------------------------------------------------
# solve


def read_field(text: str) -> tuple:
    """(dim, {k: complex}) from the coefficient text format."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    dim = int(lines[0][0].partition("=")[2])
    field = {}
    for toks in lines[1:]:
        field[tuple(int(t) for t in toks[:dim])] = complex(
            float(toks[dim]), float(toks[dim + 1])
        )
    return dim, field


class SolveCheck:
    """Expected properties of `solve --g G --u U --out F [--alpha-list ...]`.

    g is rebuilt from the emitted f as g_k = f_k (1 - e^{2 pi i <k,u>}) at
    TRIG_BITS bits and compared with the input; the divisor table is built
    once, on the first report.
    """

    def __init__(self, g_text: str, u: str):
        self.dim, self.g = read_field(g_text)
        self.u = [parse_component(t) for t in u.split(",")]
        self._divisors = None

    def _divisor_table(self):
        if self._divisors is None:
            table = {}
            with mpmath.workprec(TRIG_BITS):
                u = [
                    mpmath.mpf(v.numerator) / v.denominator if kind == "exact"
                    else constant(v, TRIG_BITS)
                    for kind, v in self.u
                ]
                for k in self.g:
                    if any(k):
                        theta = mpmath.fsum(c * x for c, x in zip(k, u))
                        table[k] = 1 - mpmath.expjpi(2 * theta)
            self._divisors = table
        return self._divisors

    def __call__(self, f_text: str, diag_text: str) -> list:
        problems = []
        dim, f = read_field(f_text)
        if dim != self.dim:
            return [f"f has dimension {dim}, g has {self.dim}"]
        table = self._divisor_table()
        if set(f) - set(table):
            problems.append("f has modes outside the support of g")
        gmax = max(abs(v) for v in self.g.values())
        worst = 0.0
        with mpmath.workprec(TRIG_BITS):
            for k, d in table.items():
                rebuilt = f.get(k, 0j) * d
                err = abs(complex(rebuilt) - self.g[k])
                worst = max(worst, err)
        if worst > 1e-12 * gmax:
            problems.append(f"f (1 - e(<k,u>)) misses g by {worst:.3g} (max |g| {gmax:.3g})")

        rep = parse_report(diag_text)
        for key in ("verify_residual", "residual_sup"):
            try:
                value = float(rep[key])
            except (KeyError, ValueError):
                problems.append(f"{key} missing")
                continue
            if not value <= 1e-9:
                problems.append(f"{key} = {value!r} exceeds 1e-9")

        mags = {k: abs(d) for k, d in table.items()}
        least = min(mags.values())
        try:
            got_div = float(rep["min_divisor"])
            got_k = _vec(rep["argmin_k"])
        except (KeyError, ValueError):
            return problems + ["min_divisor or argmin_k missing or malformed"]
        if not _rel_close(got_div, least, 1e-12):
            problems.append(f"min_divisor {got_div!r}, expected {float(least)!r}")
        if got_k not in mags or not _rel_close(float(mags[got_k]), least, 1e-12):
            problems.append(f"argmin_k {got_k} does not attain the least divisor")

        for line in diag_text.splitlines():
            if line.startswith("norm alpha=0 "):
                printed = float(line.split()[2].partition("=")[2])
                parseval = math.sqrt(math.fsum(abs(v) ** 2 for v in f.values()))
                if not _rel_close(printed, parseval, 1e-10):
                    problems.append(
                        f"alpha-0 norm {printed!r} differs from the l2 norm {parseval!r}"
                    )
        return problems
