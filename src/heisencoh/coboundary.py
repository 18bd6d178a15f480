"""Fourier-side solver for the difference equation f - f o gamma = g.

gamma is translation by u on the n-torus, f o gamma (x) = f(x + u), so mode
k of f - f o gamma carries the factor (1 - exp(2 pi i <k, u>)).  Solving
divides each coefficient by that factor; the constant mode is the
obstruction (it must vanish) and the solution is normalized with f_0 = 0.
The opposite composition, f - f o gamma^-1 = g, has the conjugate factor
(1 - exp(-2 pi i <k, u>)): it is this problem at -u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientField
# phase_distance and complex_divisor are looked up on this module by
# perfbench/trace_child.py; solve itself goes through iter_divisors
from .diophantine import (  # noqa: F401
    _coerce_vector, _declared, _divisor, _phase_grid, _resolved, complex_divisor, iter_divisors,
    phase_distance,
)
from .errors import DomainError, NonzeroMeanError, PrecisionError, ResonanceError
from .fourier import MAX_POINTS, sobolev_norms

# |g_0|, and |g_k| on a resonant mode, at most this count as zero.  A bound
# on g's float data, not on the phase: a mode is resonant exactly when
# <k, u> is an integer
COEFF_TOL = 1e-12


@dataclass
class CoboundaryProblem:
    g: CoefficientField
    u: list  # translation vector; entries coerced to PrecisionReal

    def __post_init__(self):
        self.u = _coerce_vector(self.u, self.g.dim)


@dataclass
class CoboundarySolution:
    f: CoefficientField
    min_divisor: float | None
    argmin_k: tuple | None
    residual_sup: float | None = None
    formal: bool = False
    formal_note: str = ""
    truncation_norms: list = field(default_factory=list)  # (radius, l2 of f)


def obstruction(g: CoefficientField) -> complex:
    """The mean I(g) = g_0; it must vanish for g to be a difference."""
    return g.get((0,) * g.dim)


def _divisors(u, keys):
    """{k: 1 - exp(2 pi i <k, u>)} for the nonzero k in keys."""
    return {k: d for k, _, d in iter_divisors(_phase_grid(u), (k for k in keys if any(k)))}


def coboundary_from(f: CoefficientField, u) -> CoefficientField:
    """Forward map g_k = (1 - exp(2 pi i <k, u>)) f_k; g_0 = 0 always."""
    divs = _divisors(_coerce_vector(u, f.dim), f.keys())
    return CoefficientField(f.dim, {k: v * divs[k] for k, v in f.items() if any(k)})


def solve(problem: CoboundaryProblem, classification=None) -> CoboundarySolution:
    """Solve f - f o gamma = g coefficientwise.

    A mode is resonant exactly when <k, u> is an integer on the exact
    ``_phase_grid``; there f_k = 0.  Raises NonzeroMeanError when |g_0|
    exceeds COEFF_TOL, ResonanceError when a resonant mode has
    |g_k| > COEFF_TOL, PrecisionError naming k for the least k (in key
    order) whose divisor cannot be resolved, DomainError naming the least k
    whose f_k = g_k / d_k is not finite or has |f_k|^2 past the largest
    double.  With a LiouvilleEvidence classification the solution is
    emitted but flagged formal: truncation-norm growth is reported as
    evidence in either case.
    residual_sup is taken as ``residual`` takes it, with the divisors of
    the division.
    """
    g = problem.g
    u = problem.u

    mean = obstruction(g)
    if abs(mean) > COEFF_TOL:
        raise NonzeroMeanError(mean)

    grid = _phase_grid(u)
    modulus = grid[1]
    declared, prec = _declared(u)
    entries = g._entries
    divs = {}
    resonant = []
    coeffs = {}
    min_r = argmin = None
    # the nonzero keys of g in ascending order, so coeffs is filled in the
    # order of f.items(); each divisor is evaluated, checked and used in turn
    for k, r, denom in iter_divisors(grid, (k for k in g.keys() if any(k))):
        # a phase is exact where k vanishes on every declared component;
        # anywhere else it must be resolved at the least declared precision
        if any(map(k.__getitem__, declared)) and not _resolved(r, sum(map(abs, k)), modulus, prec):
            raise PrecisionError(f"divisor at k={k} is not resolved at {prec} input bits", k)
        divs[k] = denom
        gk = entries[k]
        if r == 0:
            if abs(gk) > COEFF_TOL:
                resonant.append((k, abs(gk)))
            continue  # negligible coefficient on a resonant mode: f_k = 0
        if denom:
            fk = gk / denom
        else:  # r / L is below the least subnormal, so d_k rounds to 0j
            fk = math.inf if gk else 0j
        # |f_k|^2 enters the norms and must be a double; abs() raises where
        # |f_k| itself overflows, so the parts are bounded first
        if not (abs(fk.real) < 2.0**1000 and abs(fk.imag) < 2.0**1000
                and abs(fk) * abs(fk) < math.inf):
            raise DomainError(
                f"f_k = g_k / d_k at k={k} is {fk}, whose |f_k|^2 is not a finite double"
            )
        coeffs[k] = fk
        # 2 sin(pi r / L) grows with r: the least divisor is the first k of
        # the least r, decided on the integer and then rounded once
        if min_r is None or r < min_r:
            min_r, argmin = r, k
    if resonant:
        raise ResonanceError(resonant)

    # every key is one of g's and every value a complex quotient
    f = CoefficientField._from_checked(g.dim, coeffs)

    radius = f.support_radius()
    radii = []
    r = 1
    while r < radius:
        radii.append(r)
        r *= 2
    radii.append(radius)
    # one pass over the entries of f in the order of f.items(): each sum adds
    # the terms of f.truncate(r).norm_l2() in its order, so it is the same float
    sums = [0.0] * len(radii)
    for k, v in coeffs.items():
        n, t = max(map(abs, k)), abs(v) ** 2
        for i, r in enumerate(radii):
            if n <= r:
                sums[i] += t
    trunc = [(r, math.sqrt(s)) for r, s in zip(radii, sums)]

    sol = CoboundarySolution(
        f=f, min_divisor=None if argmin is None else _divisor(min_r, modulus), argmin_k=argmin,
        truncation_norms=trunc,
    )
    if classification is not None and classification.verdict == "LiouvilleEvidence":
        sol.formal = True
        sol.formal_note = (
            "formal solution: Liouville-type divisors; the norm may diverge "
            "as the truncation radius grows (see truncation_norms)"
        )
    sol.residual_sup = _residual(f, g, divs)
    return sol


def residual(f: CoefficientField, g: CoefficientField, u) -> float:
    """sup over the uniform grid of |f(x) - f(x + u) - g(x)|.

    f - f o gamma has the coefficients f_k (1 - e^{2 pi i <k, u>}).
    The coefficients of the difference minus g are placed at index k mod n
    of an n^dim array and summed at every grid point x = j / n by one
    inverse FFT, in O(G log G) for G = n^dim points.  n = max(2R + 1, 3)
    for the support radius R of f and g: then distinct k in the support are
    distinct mod n, so no two modes alias onto one index and the FFT sums
    exactly the trigonometric polynomial.  A grid of more than MAX_POINTS
    points is a DomainError.
    """
    if f.dim != g.dim:
        raise DomainError("dimension mismatch between f and g")
    divs = _divisors(_coerce_vector(u, f.dim), f.keys())
    return _residual(f, g, divs)


def _residual(f, g, divisors):
    radius = max(f.support_radius(), g.support_radius())
    n = max(2 * radius + 1, 3)
    f_keys = [k for k in f._entries if any(k)]
    if not f_keys and not len(g):
        return 0.0
    if n ** f.dim > MAX_POINTS:
        raise DomainError(f"support radius {radius} needs {n}^{f.dim} residual grid points, "
                          "more than 2^26")
    # the coefficients of f - f o gamma - g, placed at k mod n; no two keys
    # share an index, so each slot is f_k d_k - g_k as one difference
    vals = np.zeros((n,) * f.dim, dtype=complex)
    vals[_grid_index(f_keys, f.dim, n)] = np.fromiter(
        (f._entries[k] * divisors[k] for k in f_keys), complex, len(f_keys))
    vals[_grid_index(g._entries, g.dim, n)] -= np.fromiter(g._entries.values(), complex, len(g))
    return float(np.max(np.abs(np.fft.ifftn(vals, norm="forward"))))


def _grid_index(keys, dim, n):
    """The index k mod n of each key in an n^dim array, as one array per axis."""
    idx = np.array(list(keys), dtype=np.int64).reshape(len(keys), dim) % n
    return tuple(idx.T)


def sobolev_loss(sol: CoboundarySolution, g: CoefficientField, alphas,
                 evidence=None):
    """Per-alpha norm table for f against g, plus the divisor-bound check.

    For dimension 1 the multiplier Sobolev norm is used; for higher
    dimensions the weighted-l2 norm with weight (1 + |k|)^alpha (max-norm).
    With classification evidence (C, s) the per-coefficient bound
    |f_k| C <= |g_k| |k|^s is checked (up to floating roundoff) for every
    nonzero mode k of f, whatever range the evidence scanned; without
    evidence the table is emitted alone.
    """
    if not all(map(math.isfinite, alphas)):
        raise DomainError("alpha must be finite")
    f = sol.f
    shift = evidence[1] if evidence else 0.0
    if f.dim == 1:
        nfs = sobolev_norms(f, alphas)
        ngs = sobolev_norms(g, [alpha + shift for alpha in alphas])
    else:
        nfs = [_weighted_l2(f, alpha) for alpha in alphas]
        ngs = [_weighted_l2(g, alpha + shift) for alpha in alphas]
    rows = []
    for alpha, nf, ng in zip(alphas, nfs, ngs):
        rows.append(
            {
                "alpha": float(alpha),
                "f_norm": nf,
                "g_norm_shifted": ng,
                "ratio": nf / ng if ng else math.inf if nf else 0.0,
            }
        )
    bound = None
    if evidence is not None:
        c_val, s_val = float(evidence[0]), float(evidence[1])
        violations = []
        checked = 0
        zero = (0,) * f.dim
        for k, fk in f.items():
            if k == zero:
                continue
            normk = max(abs(c) for c in k)
            gk = g.get(k)
            checked += 1
            lhs = abs(fk) * c_val
            rhs = abs(gk) * normk**s_val
            if lhs > rhs * (1 + 1e-12) + 1e-300:
                violations.append((k, lhs, rhs))
        bound = {"C": c_val, "s": s_val, "checked": checked, "violations": violations}
    return rows, bound


def _weighted_l2(field_: CoefficientField, alpha: float) -> float:
    """(sum_k |f_k|^2 (1 + |k|)^(2 alpha))^(1/2), |k| the max-norm; inf
    where a term overflows a double.  Zero coefficients add nothing."""
    total = 0.0
    for k, v in field_.items():
        if not v:
            continue  # whatever its weight
        normk = max(abs(c) for c in k)
        try:
            total += abs(v) ** 2 * (1.0 + normk) ** (2 * alpha)
        except OverflowError:
            return math.inf
    return math.sqrt(total)
