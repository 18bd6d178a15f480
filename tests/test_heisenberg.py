import random

import numpy as np
import pytest

from heisencoh.errors import DimensionMismatchError, DomainError, ParseError
from heisencoh.heisenberg import (
    G1,
    G2,
    G3,
    IDENTITY,
    HeisElement,
    HeisElementN,
    commutator,
    commutator_closed_form_probe,
    conjugate,
    format_element,
    multiply_n,
    normal_form,
    parse_element,
    reconstruct,
)

rng = random.Random(20240817)


def rand_elt(width=50):
    return HeisElement(
        rng.randint(-width, width), rng.randint(-width, width), rng.randint(-width, width)
    )


def test_multiply_examples():
    assert IDENTITY * HeisElement(5, -2, 7) == HeisElement(5, -2, 7)
    assert HeisElement(1, 0, 0) * HeisElement(0, 1, 0) == HeisElement(1, 1, 1)
    # 3 + 6 + 1*5 = 14
    assert HeisElement(1, 2, 3) * HeisElement(4, 5, 6) == HeisElement(5, 7, 14)


def test_inverse_examples():
    assert IDENTITY.inverse() == IDENTITY
    assert HeisElement(1, 2, 3).inverse() == HeisElement(-1, -2, -1)
    assert HeisElement(-2, 5, 0).inverse() == HeisElement(2, -5, -10)


def test_inverse_round_trip():
    for _ in range(300):
        a = rand_elt()
        assert a * a.inverse() == IDENTITY
        assert a.inverse() * a == IDENTITY


def test_associativity_sampled():
    for _ in range(500):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a * b) * c == a * (b * c)


def test_associativity_wide():
    w = 10**40
    for _ in range(50):
        a = HeisElement(rng.randint(-w, w), rng.randint(-w, w), rng.randint(-w, w))
        b = HeisElement(rng.randint(-w, w), rng.randint(-w, w), rng.randint(-w, w))
        c = HeisElement(rng.randint(-w, w), rng.randint(-w, w), rng.randint(-w, w))
        assert (a * b) * c == a * (b * c)
        assert (a * b).inverse() == b.inverse() * a.inverse()


def test_commutator_examples_and_centrality():
    assert commutator(HeisElement(1, 0, 0), HeisElement(0, 1, 0)) == HeisElement(0, 0, 1)
    assert commutator(HeisElement(2, 3, 7), HeisElement(1, -1, 4)) == HeisElement(0, 0, -5)
    central = HeisElement(0, 0, 5)
    for _ in range(50):
        b = rand_elt()
        assert commutator(central, b) == IDENTITY
        c = commutator(rand_elt(), b)
        assert c.x == c.y == 0


def test_commutator_closed_form():
    for _ in range(200):
        a, b = rand_elt(), rand_elt()
        assert commutator(a, b) == HeisElement(0, 0, a.x * b.y - b.x * a.y)


def test_nilpotency_class_two():
    for _ in range(200):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert commutator(commutator(a, b), c) == IDENTITY


def test_conjugate_examples():
    b = rand_elt()
    assert conjugate(IDENTITY, b) == b
    assert conjugate(HeisElement(1, 0, 0), HeisElement(0, 1, 0)) == HeisElement(0, 1, 1)
    # centre is fixed pointwise
    for _ in range(50):
        a = rand_elt()
        assert conjugate(a, HeisElement(0, 0, 9)) == HeisElement(0, 0, 9)


def test_conjugate_closed_form():
    for _ in range(200):
        a, b = rand_elt(), rand_elt()
        expected = HeisElement(b.x, b.y, b.z + a.x * b.y - b.x * a.y)
        assert conjugate(a, b) == expected


def test_quoted_closed_forms_disagree_generically():
    """The quoted bracket (0,0, y'z - z'y) does not match the group law; the
    probe documents this."""
    a, b = HeisElement(1, 0, 0), HeisElement(0, 1, 0)
    probe = commutator_closed_form_probe(a, b)
    assert probe.group_law == HeisElement(0, 0, 1)
    assert probe.closed_form == HeisElement(0, 0, 0)
    assert not probe.agrees

    mism_comm = sum(
        not commutator_closed_form_probe(rand_elt(5), rand_elt(5)).agrees
        for _ in range(200)
    )
    assert mism_comm > 150  # agreement only on thin coincidence sets


def test_is_central():
    # the centre is x = y = 0: exactly the elements commuting with both
    # generators
    for a in (HeisElement(0, 0, 9), IDENTITY):
        assert commutator(a, G1) == commutator(a, G2) == IDENTITY
    assert commutator(HeisElement(1, 0, 0), G1) != IDENTITY
    for _ in range(100):
        a = rand_elt(5)
        comm_free = commutator(a, G1) == IDENTITY and commutator(a, G2) == IDENTITY
        assert (a.x == a.y == 0) == comm_free


def test_is_central_in_rank_n():
    def rand_n(n, width=20):
        return HeisElementN(tuple(rng.randint(-width, width) for _ in range(n)),
                            tuple(rng.randint(-width, width) for _ in range(n)),
                            rng.randint(-width, width))

    def central(a):
        return not (any(a.x) or any(a.y))

    for n in (1, 2, 3, 5):
        for _ in range(50):
            a, b = rand_n(n), rand_n(n)
            # a commutator is central, and a central element commutes with b
            c = commutator(a, b)
            assert central(c)
            assert commutator(c, b) == HeisElementN((0,) * n, (0,) * n, 0)
            x = list(a.x)
            x[rng.randrange(n)] = rng.choice([-1, 1]) * rng.randint(1, 20)
            assert not central(HeisElementN(x, (0,) * n, a.z))
            assert not central(HeisElementN((0,) * n, x, a.z))


def test_normal_form_examples():
    nf0 = normal_form(IDENTITY)
    assert (nf0.a, nf0.b, nf0.c) == (0, 0, 0)
    nf = normal_form(HeisElement(1, 1, 1))
    assert (nf.a, nf.b, nf.c) == (1, 1, 1)
    assert (G1**1) * (G2**1) * (G3**1) == HeisElement(1, 1, 1)
    nf = normal_form(HeisElement(3, 2, -4))
    assert (nf.a, nf.b, nf.c) == (2, 3, -4)
    assert reconstruct(nf) == HeisElement(3, 2, -4)


def test_normal_form_round_trip():
    for _ in range(300):
        a = rand_elt()
        assert reconstruct(normal_form(a)) == a


def test_normal_form_round_trip_exhaustive_pm50():
    # exhaustive over |x|,|y|,|z| <= 50, vectorized: the word g1^y g2^x g3^z
    # multiplies out to ((x,y,0) then central shift) = (x,y,z) identically
    r = np.arange(-50, 51)
    x, y, z = np.meshgrid(r, r, r, indexing="ij")
    # g1^y = (0,y,0), g2^x = (x,0,0): product (0+x, y+0, 0+0+0*0) = (x,y,0)
    px, py, pz = 0 + x, y + 0, 0 + 0 + 0 * 0
    # * g3^z = (0,0,z): (x, y, 0 + z + x*0)
    qx, qy, qz = px + 0, py + 0, pz + z + px * 0
    assert (qx == x).all() and (qy == y).all() and (qz == z).all()
    # generator powers themselves recheck through the API on the boundary
    for v in (-50, -1, 0, 1, 50):
        assert G1**v == HeisElement(0, v, 0)
        assert G2**v == HeisElement(v, 0, 0)
        assert G3**v == HeisElement(0, 0, v)


def test_generator_relation():
    # g1^y g2^x g3^z = g2^x g1^y g3^(z - xy)
    for _ in range(100):
        x, y, z = (rng.randint(-8, 8) for _ in range(3))
        lhs = (G1**y) * (G2**x) * (G3**z)
        rhs = (G2**x) * (G1**y) * (G3 ** (z - x * y))
        assert lhs == rhs


def test_multiply_n_examples():
    a = HeisElementN((1,), (2,), 3)
    b = HeisElementN((4,), (5,), 6)
    assert multiply_n(a, b) == HeisElementN((5,), (7,), 14)
    # <(1,0), (0,1)> = 0, so the central coordinate stays 0
    a2 = HeisElementN((1, 0), (0, 0), 0)
    b2 = HeisElementN((0, 0), (0, 1), 0)
    brute = sum(u * v for u, v in zip(a2.x, b2.y))
    assert brute == 0
    assert multiply_n(a2, b2) == HeisElementN((1, 0), (0, 1), 0)
    assert HeisElementN((0, 0), (0, 0), 0) * b2 == b2


def test_multiply_n_matches_scalar():
    for _ in range(200):
        a, b = rand_elt(10), rand_elt(10)
        prod = multiply_n(HeisElementN((a.x,), (a.y,), a.z), HeisElementN((b.x,), (b.y,), b.z))
        expect = a * b
        assert prod == HeisElementN((expect.x,), (expect.y,), expect.z)


def test_multiply_n_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        multiply_n(HeisElementN((0, 0), (0, 0), 0), HeisElementN((0, 0, 0), (0, 0, 0), 0))
    with pytest.raises(DimensionMismatchError):
        HeisElementN((1, 2), (3,), 0)


def test_n_inverse():
    for n in (1, 2, 3):
        for _ in range(100):
            a = HeisElementN(
                tuple(rng.randint(-9, 9) for _ in range(n)),
                tuple(rng.randint(-9, 9) for _ in range(n)),
                rng.randint(-9, 9),
            )
            identity = HeisElementN((0,) * n, (0,) * n, 0)
            assert a * a.inverse() == identity
            assert a.inverse() * a == identity


def matrix(a):
    """The unitriangular (n + 2) x (n + 2) integer matrix of a: first row
    (1, x, z), last column (z, y, 1), identity block in between."""
    n = a.n
    m = np.eye(n + 2, dtype=object)
    m[0, 1:n + 1] = a.x
    m[1:n + 1, n + 1] = a.y
    m[0, n + 1] = a.z
    return m


def test_matrix_embed_is_homomorphism():
    # the rank-n law is the product of the unitriangular matrices
    for n in (1, 2, 3):
        for _ in range(60):
            a = HeisElementN(
                tuple(rng.randint(-7, 7) for _ in range(n)),
                tuple(rng.randint(-7, 7) for _ in range(n)),
                rng.randint(-7, 7),
            )
            b = HeisElementN(
                tuple(rng.randint(-7, 7) for _ in range(n)),
                tuple(rng.randint(-7, 7) for _ in range(n)),
                rng.randint(-7, 7),
            )
            lhs = matrix(multiply_n(a, b))
            rhs = matrix(a) @ matrix(b)
            assert lhs.tolist() == rhs.tolist()


def test_parse_format_round_trip():
    for text, elt in [
        ("1 2 3", HeisElement(1, 2, 3)),
        ("-1 -2 -1", HeisElement(-1, -2, -1)),
        ("1 0 | 0 1 | 5", HeisElementN((1, 0), (0, 1), 5)),
    ]:
        assert parse_element(text) == elt
        assert parse_element(format_element(elt)) == elt


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_element("1 2", lineno=3)
    with pytest.raises(ParseError):
        parse_element("a b c")
    with pytest.raises(ParseError):
        parse_element("")
    with pytest.raises(DimensionMismatchError):
        parse_element("1 2 | 3 | 4")
    with pytest.raises((ParseError, DomainError)):
        parse_element("1 | 2 | 3 4")
