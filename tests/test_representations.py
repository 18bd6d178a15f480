import cmath
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from heisencoh.errors import DomainError
from heisencoh.representations import (
    IrrepParams,
    SemidirectElement,
    character,
    character_table,
    irrep_matrix,
)

rng = random.Random(91)
IDENTITY = SemidirectElement(0, 0, 0)


def rand_sd(w=6):
    return SemidirectElement(rng.randint(-w, w), rng.randint(-w, w), rng.randint(-w, w))


def inverse(a):
    """a^-1 under the star product."""
    return SemidirectElement(-a.m, -a.k + a.m * a.s, -a.s)


def matrix(P, a):
    return np.array(irrep_matrix(P, a))


# ---------------------------------------------------------------------------
# star product


def test_star_examples():
    assert SemidirectElement(1, 2, 0) * SemidirectElement(0, 0, 3) == SemidirectElement(1, 2, 3)
    b = rand_sd()
    assert IDENTITY * b == b
    # cocycle adds m' * s_left = 1 * 1
    assert SemidirectElement(0, 0, 1) * SemidirectElement(1, 0, 0) == SemidirectElement(1, 1, 1)


def test_star_associative_and_inverse():
    for _ in range(300):
        a, b, c = rand_sd(), rand_sd(), rand_sd()
        assert (a * b) * c == a * (b * c)
        assert a * inverse(a) == IDENTITY
        assert inverse(a) * a == IDENTITY


def test_star_cocycle_variant_pinned():
    """The product takes m' times the left s, so ((m,k),0) * ((0,0),s) =
    ((m,k),s); the reading m times the right s would give ((m,k+ms),s)."""
    a = SemidirectElement(2, 5, 0)
    s = SemidirectElement(0, 0, 3)
    assert a * s == SemidirectElement(2, 5, 3)
    assert s * a == SemidirectElement(2, 11, 3)


# ---------------------------------------------------------------------------
# finite-dimensional representations


def test_irrep_params_validation():
    with pytest.raises(DomainError):
        IrrepParams(p=0, xi=0.0, eta=Fraction(0), alpha=0.0)
    with pytest.raises(DomainError):
        IrrepParams(p=3, xi=0.0, eta=Fraction(1, 2), alpha=0.0)
    with pytest.raises(DomainError):
        IrrepParams(p=2, xi=1.5, eta=Fraction(1, 2), alpha=0.0)
    # eta = 2/4 defines a reducible representation
    assert IrrepParams(p=4, xi=0.0, eta=Fraction(1, 2), alpha=0.0).eta_numerator == 2


def test_irrep_identity_and_swap():
    P = IrrepParams(p=2, xi=0.0, eta=Fraction(0), alpha=0.0)
    assert irrep_matrix(P, IDENTITY) == [[1, 0], [0, 1]]
    assert irrep_matrix(P, SemidirectElement(0, 0, 1)) == [[0, 1], [1, 0]]


def test_irrep_unitary_phase_permutation():
    for p, q in [(2, 1), (3, 2), (5, 3)]:
        P = IrrepParams(p=p, xi=0.31, eta=Fraction(q, p), alpha=0.77)
        for _ in range(50):
            U = matrix(P, rand_sd(2 * p))
            assert np.max(np.abs(U.conj().T @ U - np.eye(p))) < 1e-12
            # exactly one nonzero entry per row and column
            nz = np.abs(U) > 1e-14
            assert (nz.sum(axis=0) == 1).all() and (nz.sum(axis=1) == 1).all()


def test_irrep_homomorphism_and_source_phase_erratum():
    """The target-index phase is multiplicative."""
    P = IrrepParams(p=3, xi=0.0, eta=Fraction(1, 3), alpha=0.25)
    worst = 0.0
    for _ in range(50):
        a, b = rand_sd(), rand_sd()
        lhs = matrix(P, a * b)
        rhs = matrix(P, a) @ matrix(P, b)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-10


def test_character_examples():
    P = IrrepParams(p=3, xi=0.4, eta=Fraction(1, 3), alpha=0.2)
    assert character(P, IDENTITY) == 3
    assert character(P, SemidirectElement(0, 0, 1)) == 0
    P2 = IrrepParams(p=2, xi=0.1, eta=Fraction(1, 2), alpha=0.3)
    expected = 2 * cmath.exp(2j * cmath.pi * (0.2 + 0.5 + 0.3))
    assert abs(character(P2, SemidirectElement(2, 1, 2)) - expected) < 1e-12


def test_character_equals_trace():
    for p, q in [(2, 1), (3, 1), (3, 2), (5, 2), (1, 0)]:
        P = IrrepParams(p=p, xi=0.17, eta=Fraction(q, p) if p > 1 else Fraction(0), alpha=0.59)
        for m in range(-2 * p, 2 * p + 1):
            for s in range(-2 * p, 2 * p + 1):
                for k in (-2 * p, 0, 1, 2 * p):
                    a = SemidirectElement(m, k, s)
                    assert abs(character(P, a) - np.trace(matrix(P, a))) < 1e-10
                    if p > 1 and (s % p or m % p):
                        assert character(P, a) == 0


def test_character_class_function():
    for p in (2, 3, 5):
        P = IrrepParams(p=p, xi=0.21, eta=Fraction(1, p), alpha=0.4)
        for _ in range(60):
            h, a = rand_sd(p), rand_sd(p)
            conj = h * a * inverse(h)
            assert abs(character(P, conj) - character(P, a)) < 1e-10


def test_character_table_order():
    P = IrrepParams(p=2, xi=0.0, eta=Fraction(1, 2), alpha=0.0)
    rows = character_table(P, 1)
    assert len(rows) == 27
    keys = [(m, k, s) for m, k, s, _ in rows]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# each phase rounded once from its exact exponent


def rounded_phase(t, scale=1):
    """scale exp(2 pi i t) for a rational t, each part taken in mpmath at
    300 bits and rounded once to a double."""
    t -= t.numerator // t.denominator
    with mpmath.workprec(300):
        x = 2 * mpmath.mpf(t.numerator) / t.denominator
        return complex(float(scale * mpmath.cospi(x)), float(scale * mpmath.sinpi(x)))


def exponent(P, m, k, jp, s):
    """The exact exponent of the entry at target index jp."""
    return m * Fraction(P.xi) + (k + jp * m) * P.eta + (jp + s) // P.p * Fraction(P.alpha)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_every_value_is_the_exact_phase_rounded_once(p):
    r = random.Random(2100 + p)
    wide = 10**18
    for _ in range(60):
        q = r.choice([q for q in range(p) if math.gcd(q, p) == 1] if p > 1 else [0])
        P = IrrepParams(p=p, xi=r.random(), eta=Fraction(q, p), alpha=r.random())
        m, k, s = (r.randint(-wide, wide) for _ in range(3))
        if r.random() < 0.5:  # inside the character's support
            m, s = m - m % p, s - s % p
        a = SemidirectElement(m, k, s)
        U = irrep_matrix(P, a)
        for j in range(p):
            jp = (j - s) % p
            want = rounded_phase(exponent(P, m, k, jp, s))
            assert U[jp][j] == want, (P, a, jp)
            assert all(U[i][j] == 0 for i in range(p) if i != jp)
        chi = character(P, a)
        if s % p or m % p:
            assert chi == 0
        else:
            assert chi == rounded_phase(exponent(P, m, k, 0, 0) + Fraction(s, p) * Fraction(P.alpha), p)


def test_niven_phases_are_exact():
    # exp(2 pi i n / 12): every part that is rational comes out exactly
    root3 = rounded_phase(Fraction(1, 12)).real  # sqrt(3) / 2 rounded once
    want = [
        (1, 0), (root3, 0.5), (0.5, root3), (0, 1), (-0.5, root3), (-root3, 0.5),
        (-1, 0), (-root3, -0.5), (-0.5, -root3), (0, -1), (0.5, -root3), (root3, -0.5),
    ]
    for n, (re, im) in enumerate(want):
        P = IrrepParams(p=12, xi=0.0, eta=Fraction(n, 12), alpha=0.0)
        U = irrep_matrix(P, SemidirectElement(0, 1, 0))
        assert all(U[j][j] == complex(re, im) for j in range(12)), n
    P = IrrepParams(p=3, xi=0.0, eta=Fraction(1, 3), alpha=0.25)
    assert character(P, SemidirectElement(0, 1, 0)) == rounded_phase(Fraction(1, 3), 3)
    assert character(P, SemidirectElement(0, 1, 0)).real == -1.5
    assert irrep_matrix(P, SemidirectElement(0, 1, 0))[0][0] == complex(-0.5, 0.8660254037844386)
