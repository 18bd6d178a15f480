"""Integral cohomology of the rank-n integer Heisenberg lattice.

Evaluates the closed-form description of H^k(., Z) for the central extension
of Z^{2n} by Z: four cases in k, with exponents given by binomial
differences and cyclic summands Z_j (Z_0 = Z contributes free rank, Z_1 is
trivial, Z_j = Z/jZ for j >= 2).  Torsion is normalized to invariant-factor
form.  Exponents that would come out negative are clamped to zero and the
event is recorded, never silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


def binom(a: int, b: int) -> int:
    """C(a, b), with value 0 outside 0 <= b <= a; exact integers."""
    if b < 0 or b > a or a < 0:
        return 0
    return math.comb(a, b)


@dataclass(frozen=True)
class AbelianGroupDesc:
    """free_rank copies of Z plus cyclic torsion in invariant-factor form.

    torsion is a tuple of (d, multiplicity) with d >= 2, each d dividing the
    next; Z_0 summands are folded into free_rank and Z_1 summands dropped.
    """

    free_rank: int
    torsion: tuple = ()

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def render(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for d, mult in self.torsion:
            parts.append(f"Z/{d}" + (f"^{mult}" if mult > 1 else ""))
        return " + ".join(parts) if parts else "0"

    def torsion_text(self) -> str:
        if not self.torsion:
            return "-"
        return "+".join(f"{d}^{m}" for d, m in self.torsion)


def _invariant_factors(cyclics):
    """Normalize a multiset {Z_j : multiplicity} (j >= 2) to invariant factors.

    Multiplicities are binomial-sized, so factors are never expanded one by
    one: the i-th invariant factor multiplies the i-th largest prime power of
    each prime, and that map is piecewise constant in i.
    """
    per_prime = {}  # p -> {exponent: count}
    for j, mult in cyclics.items():
        for p, e in _factorize(j).items():
            d = per_prime.setdefault(p, {})
            d[e] = d.get(e, 0) + mult
    if not per_prime:
        return ()
    segments = {}  # p -> [(start, end, exponent)], descending exponent
    depth = 0
    for p, d in per_prime.items():
        segs = []
        pos = 0
        for e in sorted(d, reverse=True):
            segs.append((pos, pos + d[e], e))
            pos += d[e]
        segments[p] = segs
        depth = max(depth, pos)
    cuts = sorted(
        {0, depth}
        | {s for segs in segments.values() for s, _, _ in segs}
        | {t for segs in segments.values() for _, t, _ in segs}
    )
    factors_desc = []  # (value, count) with the largest factor first
    for a, b in zip(cuts, cuts[1:]):
        if a >= depth:
            break
        val = 1
        for p, segs in segments.items():
            for s, t, e in segs:
                if s <= a < t:
                    val *= p**e
                    break
        factors_desc.append((val, b - a))
    factors_desc.reverse()  # ascending divisibility chain d_1 | d_2 | ...
    out = []
    for val, cnt in factors_desc:
        if out and out[-1][0] == val:
            out[-1] = (val, out[-1][1] + cnt)
        else:
            out.append((val, cnt))
    return tuple(out)


def _factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _accumulate(terms, warnings, n, k):
    """terms: iterable of (j, exponent); returns (free_rank, cyclics dict)."""
    free = 0
    cyclics = {}
    for j, expo in terms:
        if expo < 0:
            warnings.append(
                f"clamped negative exponent {expo} for Z_{j} at (n={n}, k={k})"
            )
            expo = 0
        if expo == 0 or j == 1:
            continue
        if j == 0:
            free += expo
        else:
            cyclics[j] = cyclics.get(j, 0) + expo
    return free, cyclics


def cohomology(n: int, k: int, warnings=None) -> AbelianGroupDesc:
    """H^k for the rank-n lattice (2n + 1 generators), coefficients Z.

    Cases: 0 <= k <= n, k = n + 1, n + 2 <= k <= 2n + 1, and 0 for
    k >= 2n + 2.  Pass a list as `warnings` to collect clamp events.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if k < 0:
        raise DomainError("k must be nonnegative")
    if warnings is None:
        warnings = []
    if k >= 2 * n + 2:
        return AbelianGroupDesc(0)
    if k <= n:
        terms = [
            (j, binom(2 * n, k - 2 * j) - binom(2 * n, k - 2 * j - 2))
            for j in range(0, k // 2 + 1)
        ]
    elif k == n + 1:
        terms = [(0, binom(2 * n, n) - binom(2 * n, n - 2))]
        terms += [
            (j, binom(2 * n, n + 1 - 2 * j) - binom(2 * n, n - 1 - 2 * j))
            for j in range(1, (n + 1) // 2 + 1)
        ]
    else:  # n + 2 <= k <= 2n + 1
        terms = [(0, binom(2 * n, k - 1) - binom(2 * n, k + 1))]
        terms += [
            (j, binom(2 * n, k + 2 * j - 1) - binom(2 * n, k + 2 * j))
            for j in range(1, (2 * n - k + 2) // 2 + 1)
        ]
    free, cyclics = _accumulate(terms, warnings, n, k)
    return AbelianGroupDesc(free, _invariant_factors(cyclics))


@dataclass(frozen=True)
class CohomologyTable:
    n: int
    groups: tuple  # AbelianGroupDesc for k = 0 .. 2n + 2
    euler_characteristic: int
    rank_duality_holds: bool
    warnings: tuple


def cohomology_table(n: int) -> CohomologyTable:
    """Groups for k = 0 .. 2n + 2 plus the alternating-rank sum and the
    rank symmetry free_rank(k) = free_rank(2n + 1 - k)."""
    if n > 30:
        raise DomainError("table restricted to n <= 30")
    warnings = []
    groups = tuple(cohomology(n, k, warnings) for k in range(2 * n + 3))
    euler = sum((-1) ** k * g.free_rank for k, g in enumerate(groups))
    duality = all(
        groups[k].free_rank == groups[2 * n + 1 - k].free_rank
        for k in range(2 * n + 2)
    )
    return CohomologyTable(n, groups, euler, duality, tuple(warnings))
