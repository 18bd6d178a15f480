"""Finite-dimensional unitary representations of the discrete Heisenberg
group in its semidirect form.

The semidirect presentation ((m, k), s) of Z^2 x| Z with the star product
carries the phase-permutation representations and their characters.

The p-dimensional representation is induced from the character
exp(2 pi i (m xi + k eta + sigma alpha)) of the subgroup Z^2 x| pZ; it needs
eta = q/p with gcd(q, p) = 1, which IrrepParams enforces.  Each phase is
taken from its exact exponent: xi and alpha are doubles, so exact binary
rationals, and eta is a Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _bigfloat as bf
from .errors import DomainError


@dataclass(frozen=True, slots=True)
class SemidirectElement:
    """((m, k), s) in Z^2 x| Z with star product
    ((m, k), s) * ((m', k'), s') = ((m + m', k + k' + m' s), s + s'):
    the left factor's s twists the right factor's m."""

    m: int
    k: int
    s: int

    def star(self, other: "SemidirectElement") -> "SemidirectElement":
        return SemidirectElement(
            self.m + other.m,
            self.k + other.k + other.m * self.s,
            self.s + other.s,
        )

    __mul__ = star


@dataclass(frozen=True)
class IrrepParams:
    """Parameters (p, xi, eta, alpha); eta must be a multiple of 1/p.

    The representation has dimension p and is irreducible exactly when eta =
    q/p in lowest terms (the dual-torus orbit then has p points); other eta
    with p eta integral still define representations, just reducible ones.
    """

    p: int
    xi: float
    eta: Fraction
    alpha: float

    def __post_init__(self):
        if self.p < 1:
            raise DomainError("dimension p must be positive")
        if isinstance(self.eta, (Fraction, int)):
            eta = Fraction(self.eta)
        else:
            # floats are snapped to the p-grid they must lie on
            eta = Fraction(round(float(self.eta) * self.p), self.p)
            if abs(float(eta) - float(self.eta)) > 1e-9:
                raise DomainError(f"eta = {self.eta!r} is not a multiple of 1/{self.p}")
        if not (0 <= eta < 1):
            raise DomainError("eta must lie in [0, 1)")
        if (eta * self.p).denominator != 1:
            raise DomainError(f"eta = {eta} must be a multiple of 1/p")
        object.__setattr__(self, "eta", eta)
        if not (0 <= self.xi < 1 and 0 <= self.alpha < 1):
            raise DomainError("xi and alpha must lie in [0, 1)")

    @property
    def eta_numerator(self) -> int:
        """q with eta = q/p (not necessarily reduced)."""
        return int(self.eta * self.p)


def _phase(t: Fraction, scale: int = 1) -> complex:
    """scale exp(2 pi i t) for a rational t, each part the correctly rounded
    double of its exact value (``_bigfloat.sin_cos_pi`` through ``ziv``).

    t is reduced mod 1, then to d = 2 t' in (0, 1/2] by the quadrant
    symmetries, so the sine and cosine of pi d give both parts.  t = 0 and
    t = 1/2 are exact, and sin_cos_pi makes d = 1/2 exact; at the other
    rational values (Niven: cos 2 pi t = +-1/2, sin 2 pi t = +-1/2) scale
    times the value is no rounding boundary, so ``ziv`` ends on them too.
    """
    t -= math.floor(t)
    if not t:
        return complex(scale)
    im_sign = 1
    if 2 * t > 1:
        t, im_sign = 1 - t, -1
    d, re_sign = 2 * t, 1  # t in (0, 1/2], so d in (0, 1]
    if 2 * d > 1:
        d, re_sign = 1 - d, -1
    if not d:
        return complex(-scale, 0.0)

    def series(w):
        (sl, sh, se), (cl, ch, ce) = bf.sin_cos_pi(d.numerator, d.denominator, w)
        return (scale * cl, scale * ch, ce), (scale * sl, scale * sh, se)

    re, im = bf.ziv(series, bf.double, bf.START_BITS)
    return complex(re if re_sign == 1 else -re, im if im_sign == 1 else -im)


def irrep_matrix(P: IrrepParams, a: SemidirectElement) -> list[list[complex]]:
    """Matrix of the induced representation, as a list of rows: basis vector
    e_j goes to phase(j') e_{j'} with j' = (j - s) mod p and
    phase exponent m xi + (k + j' m) eta + floor((j' + s)/p) alpha.

    The phase is evaluated at the target index j'; at the source index j
    the matrices would not be multiplicative for p > 1.
    """
    p = P.p
    xi, alpha = Fraction(P.xi), Fraction(P.alpha)
    U = [[0j] * p for _ in range(p)]
    for j in range(p):
        jp = (j - a.s) % p
        U[jp][j] = _phase(a.m * xi + (a.k + jp * a.m) * P.eta + (jp + a.s) // p * alpha)
    return U


def character(P: IrrepParams, a: SemidirectElement) -> complex:
    """Trace of the representation in closed form:
    p exp(2 pi i (m xi + k eta + (s/p) alpha)) when p | s and p | m q
    (eta = q/p), else 0.  For gcd(q, p) = 1 the support condition is exactly
    p | s and p | m."""
    p = P.p
    if a.s % p or (a.m * P.eta_numerator) % p:
        return 0j
    return _phase(a.m * Fraction(P.xi) + a.k * P.eta + a.s // p * Fraction(P.alpha), p)


def character_table(P: IrrepParams, radius: int):
    """Rows (m, k, s, chi) in lexicographic order over |m|,|k|,|s| <= radius."""
    rows = []
    rng = range(-radius, radius + 1)
    for m in rng:
        for k in rng:
            for s in rng:
                rows.append((m, k, s, character(P, SemidirectElement(m, k, s))))
    return rows
