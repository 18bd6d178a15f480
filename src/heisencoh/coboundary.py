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
from itertools import chain
from math import fsum, hypot, ulp
from operator import attrgetter

from .coefficients import CoefficientField
# nothing here calls phase_distance or complex_divisor: they are imported
# so that perfbench/trace_child.py finds them on this module, and solve,
# residual and coboundary_from take every divisor from iter_divisors
from .diophantine import (  # noqa: F401
    _coerce_vector, _declared, _divisor, _phase_grid, _resolved, _twelfths, complex_divisor,
    iter_divisors, phase_distance,
)
from .errors import DomainError, NonzeroMeanError, PrecisionError, ResonanceError
from .fourier import sobolev_norms

# |g_0|, and |g_k| on a resonant mode, at most this count as zero.  A bound
# on g's float data, not on the phase: a mode is resonant exactly when
# <k, u> is an integer
COEFF_TOL = 1e-12


class CoboundaryProblem:
    """f - f o gamma = g for the field g and the translation u, whose
    entries are coerced to PrecisionReal."""

    __slots__ = ("g", "u")

    def __init__(self, g: CoefficientField, u):
        self.g = g
        self.u = _coerce_vector(u, g.dim)

    def __repr__(self):
        return _fields_repr(self)


class CoboundarySolution:
    """The solution f with its diagnostics; truncation_norms lists
    (radius, l2 norm of f truncated there)."""

    __slots__ = ("f", "min_divisor", "argmin_k", "residual_sup", "formal", "formal_note",
                 "truncation_norms")

    def __init__(self, f: CoefficientField, min_divisor, argmin_k, residual_sup=None,
                 formal=False, formal_note="", truncation_norms=()):
        self.f = f
        self.min_divisor = min_divisor
        self.argmin_k = argmin_k
        self.residual_sup = residual_sup
        self.formal = formal
        self.formal_note = formal_note
        self.truncation_norms = list(truncation_norms)

    def __repr__(self):
        return _fields_repr(self)


def _fields_repr(obj):
    fields = ", ".join(f"{name}={getattr(obj, name)!r}" for name in obj.__slots__)
    return f"{type(obj).__name__}({fields})"


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
    residual_sup is ``residual``'s bound, taken with the divisors of the
    division.
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
    twelfths = _twelfths(modulus)
    terms = _ResidualSum()
    add = terms.add
    resonant = []
    coeffs = {}
    min_r = argmin = None
    # the nonzero keys of g in ascending order, so coeffs is filled in the
    # order of f.items(); each divisor is evaluated, checked and used in
    # turn, and each mode's residual term taken with it
    for k, r, denom in iter_divisors(grid, (k for k in g.keys() if any(k))):
        # a phase is exact where k vanishes on every declared component;
        # anywhere else it must be resolved at the least declared precision
        if any(map(k.__getitem__, declared)) and not _resolved(r, sum(map(abs, k)), modulus, prec):
            raise PrecisionError(f"divisor at k={k} is not resolved at {prec} input bits", k)
        gk = entries[k]
        if r == 0:
            if abs(gk) > COEFF_TOL:
                resonant.append((k, abs(gk)))
            add(0j, gk, 0j, None)  # negligible coefficient on a resonant mode: f_k = 0
            continue
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
        add(fk, gk, denom, twelfths.get(r))
        # 2 sin(pi r / L) grows with r: the least divisor is the first k of
        # the least r, decided on the integer and then rounded once
        if min_r is None or r < min_r:
            min_r, argmin = r, k
    if resonant:
        raise ResonanceError(resonant)
    add(0j, mean, 0j, None)  # k = 0 last, as in residual: f_0 = 0

    # every key is one of g's and every value a complex quotient
    f = CoefficientField._from_checked(g.dim, coeffs)

    norms = [max(map(abs, k)) for k in coeffs]
    radius = max(norms, default=0)
    radii = []
    r = 1
    while r < radius:
        radii.append(r)
        r *= 2
    radii.append(radius)
    # one pass over the entries of f in the order of f.items(): each sum adds
    # the terms of f.truncate(r).norm_l2() in its order, so it is the same
    # float.  radii[i] = 2^i below the last, so |k| = n counts from the
    # first i with 2^i >= n
    sums = [0.0] * len(radii)
    last = len(radii) - 1
    for n, v in zip(norms, coeffs.values()):
        t = abs(v) ** 2
        for i in range(min((n - 1).bit_length(), last), last + 1):
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
    sol.residual_sup = terms.bound(coeffs.values(), len(entries))
    return sol


def residual(f: CoefficientField, g: CoefficientField, u) -> float:
    """A proved upper bound on sup over the torus of |f(x) - f(x + u) - g(x)|:
    the bound of ``_ResidualSum`` over the union of the supports, its terms
    taken in the order ``solve`` takes them, so that for its solution f
    this is ``solve``'s residual_sup."""
    if f.dim != g.dim:
        raise DomainError("dimension mismatch between f and g")
    grid = _phase_grid(_coerce_vector(u, f.dim))
    twelfths = _twelfths(grid[1])
    fe, ge = f._entries, g._entries
    keys = sorted(fe.keys() | ge.keys())
    terms = _ResidualSum()
    for k, r, d in iter_divisors(grid, (k for k in keys if any(k))):
        terms.add(fe.get(k, 0j), ge.get(k, 0j), d, twelfths.get(r))
    zero = (0,) * f.dim
    terms.add(fe.get(zero, 0j), ge.get(zero, 0j), 0j, None)
    return terms.bound(fe.values(), len(keys))


# the distances d = n / 12 at which a part of the divisor 1 - e^{2 pi i d}
# is rational (Niven's theorem), for n = 1..6: whether its real part
# 2 sin^2(pi d) and its imaginary part -+sin(2 pi d) are
_RATIONAL_PARTS = {1: (False, True), 2: (True, False), 3: (True, True), 4: (True, False),
                   5: (False, True), 6: (True, True)}

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves
_TINY = 2.0**-1020  # terms below this may carry an error of the subnormal range
_CHUNK = 2048  # rough terms summed at a time
_LEAST = math.ulp(0.0)


class _ResidualSum:
    """sum_k |r_k| rounded up once: a proved upper bound on the residual
    f - f o gamma - g over the whole torus, for the doubles of f and g.

    ``add(f_k, g_k, D~_k, n)`` takes one mode: D~_k is the correctly rounded
    divisor of k (0j for k = 0 and on a resonant mode), and n the n of
    ``_RATIONAL_PARTS`` where the distance of k is n / 12, else None.
    ``bound(values of f, number of modes)`` is the bound once every mode of
    the union of the supports is added.  The rough terms are summed in
    chunks, so the last bit of the bound depends on the order of the modes:
    ``solve`` and ``residual`` both add the nonzero keys in ascending order
    and then k = 0.

    Proof.  The residual is the trigonometric polynomial with the
    coefficients r_k = f_k D_k - g_k over the union of the supports, D_k =
    1 - e^{2 pi i <k, u>} exact, so its sup is at most sum_k |r_k|.  Where
    f_k = 0 or D~_k = 0 (k = 0 and the resonant modes, where D_k = 0),
    r_k = -g_k.  Elsewhere |r_k| <= |f_k D~_k - g_k| + |f_k| |D_k - D~_k|.
    - Each part of D~_k is its part of D_k correctly rounded, so it is off
      by at most half an ulp of it (2^-1074 where that half is below the
      least double), and by 0 where the part is rational.  The two bounds
      sum to e >= |D_k - D~_k|.
    - f_k D~_k - g_k = X + iY.  Veltkamp's split writes each part of f_k
      and of D~_k exactly as the sum of two halves of at most 26 bits, whose
      products are exact, and math.fsum rounds the sum of 8 products and
      -Re g_k (or -Im g_k) once, to x (or y).  So |X - x| <= u |x| and
      |Y - y| <= u |y|, u = 2^-53, and |X + iY| <= (1 + 2u) h + u (|x| +
      |y|) <= (1 + 4u) h for h = math.hypot(x, y), whose error is below one
      ulp (Python 3.10 and later).
    - |f_k| e <= (1 + 5u) fl(hypot(f_k) e): the same bound for hypot, and
      one rounding each for e and the product.
    So each mode's term is either a double (|g_k| with a part 0) or at most
    (1 + 7u) q for the double q, the rounded sum of those two.  The q are
    summed by math.fsum in chunks and the chunk sums again, two roundings
    of u, to Q; (1 + u)^2 (1 + 7u) < 1 + 16u, so sum_k |r_k| <= E + Q +
    2^-49 Q for E the sum of the exact terms.  That sum is taken exactly
    and rounded up once.

    Below the normal range the products of halves may lose bits (where the
    least nonzero part of f times the least nonzero part of a divisor that
    multiplies an f_k != 0 is below 2^-916), and so may a term q below
    2^-1020 (in a larger q such a loss is below the 7u q the margin
    spares); each loss is under 2^-1068 per mode, and that much per mode
    is added where it can happen.  A divisor part below the normal range
    splits into halves of up to 53 bits, whose products are off by u of at
    most |f_k| 2^-1021 each: 2^-1066 sum_k |f_k| more covers them.  The
    bound is inf where a part of f_k passes 2^996, where the split
    overflows, or where the sum passes the largest double.
    """

    __slots__ = ("sure", "rough", "chunks", "tiny", "low_d", "failed")

    def __init__(self):
        self.sure, self.rough, self.chunks = [], [], []
        self.tiny = False
        self.low_d = math.inf  # the least nonzero part of a divisor of a product
        self.failed = False  # a split overflowed, or inf - inf

    def add(self, fk, gk, d, rational):
        if not (fk and d):
            br, bi = abs(gk.real), abs(gk.imag)
            if br and bi:
                self.rough.append(hypot(br, bi))
            elif br or bi:
                self.sure.append(br + bi)
            return
        ar, ai, dr, di = fk.real, fk.imag, d.real, d.imag
        low = self.low_d
        if dr and abs(dr) < low or di and abs(di) < low:
            self.low_d = min(low, *(abs(p) for p in (dr, di) if p))
        c = ar * _SPLIT
        a1 = c - (c - ar)
        a2 = ar - a1
        c = ai * _SPLIT
        b1 = c - (c - ai)
        b2 = ai - b1
        c = dr * _SPLIT
        d1 = c - (c - dr)
        d2 = dr - d1
        c = di * _SPLIT
        e1 = c - (c - di)
        e2 = di - e1
        if rational:
            exact_re, exact_im = _RATIONAL_PARTS[rational]
            e = ((0.0 if exact_re else ulp(dr) / 2 or _LEAST)
                 + (0.0 if exact_im else ulp(di) / 2 or _LEAST))
        else:
            e = (ulp(dr) / 2 or _LEAST) + (ulp(di) / 2 or _LEAST)
        rough = self.rough
        try:
            x = fsum((a1 * d1, a1 * d2, a2 * d1, a2 * d2,
                      -b1 * e1, -b1 * e2, -b2 * e1, -b2 * e2, -gk.real))
            y = fsum((a1 * e1, a1 * e2, a2 * e1, a2 * e2,
                      b1 * d1, b1 * d2, b2 * d1, b2 * d2, -gk.imag))
            if x or y or e:
                rough.append(hypot(x, y) + hypot(ar, ai) * e)
            if len(rough) >= _CHUNK:
                self.tiny = self.tiny or min(rough) < _TINY
                self.chunks.append(fsum(rough))
                rough.clear()
        except (OverflowError, ValueError):  # a sum past the largest double, or inf - inf
            self.failed = True

    def bound(self, f_values, modes):
        """The bound, for f_values the values of f and modes the number of
        keys in the union of the supports."""
        if self.failed:
            return math.inf
        try:
            tiny = self.tiny or min(self.rough, default=1.0) < _TINY
            rough_sum = fsum(self.chunks + [fsum(self.rough)])
            margin = math.nextafter(rough_sum * 2.0**-49, math.inf) if rough_sum else 0.0
            terms = [*self.sure, rough_sum, margin]
            low_f = min(_nonzero_parts(f_values), default=math.inf)
            if tiny or low_f * self.low_d < 2.0**-916:
                terms.append(modes * 2.0**-1068)
            if self.low_d < 2.0**-1022:
                terms.append(math.nextafter(fsum(map(abs, f_values)) * 2.0**-1066, math.inf))
            total = fsum(terms)
            terms.append(-total)
            if fsum(terms) > 0:  # rounded down: take the next double up
                total = math.nextafter(total, math.inf)
        except (OverflowError, ValueError):  # a sum past the largest double, or inf - inf
            return math.inf
        return total if total < math.inf else math.inf


def _nonzero_parts(values):
    """The absolute values of the nonzero real and imaginary parts of values."""
    return filter(None, chain(map(abs, map(attrgetter("real"), values)),
                              map(abs, map(attrgetter("imag"), values))))


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
        nfs, ngs = sobolev_norms([f, g], [alphas, [alpha + shift for alpha in alphas]])
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
