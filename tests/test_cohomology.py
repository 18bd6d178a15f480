import pytest

from heisencoh.cohomology import (
    AbelianGroupDesc,
    binom,
    cohomology,
    cohomology_table,
)


def test_binom_basics():
    assert binom(2, -2) == 0
    assert binom(4, 2) == 6
    assert binom(3, 5) == 0
    assert binom(0, 0) == 1


def test_binom_pascal_identity():
    for a in range(1, 41):
        for b in range(0, a + 1):
            assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)


def test_rank1_table():
    t = cohomology_table(1)
    assert [g.free_rank for g in t.groups] == [1, 2, 2, 1, 0]
    assert all(not g.torsion for g in t.groups)
    assert t.euler_characteristic == 0
    assert t.rank_duality_holds
    assert not t.warnings


def test_low_degrees():
    # degree 0 is Z; degree 1 has rank 2n (abelianization Z^2n)
    for n in range(1, 31):
        assert cohomology(n, 0) == AbelianGroupDesc(1)
        assert cohomology(n, 1).free_rank == 2 * n
        assert not cohomology(n, 1).torsion


def test_rank1_examples():
    assert cohomology(1, 0) == AbelianGroupDesc(1)
    assert cohomology(1, 3) == AbelianGroupDesc(1)
    assert cohomology(1, 5).is_trivial()


def test_vanishing_above_top_degree():
    for n in range(1, 31):
        for k in range(2 * n + 2, 2 * n + 6):
            assert cohomology(n, k).is_trivial()


def test_euler_characteristic_and_duality():
    for n in range(1, 11):
        t = cohomology_table(n)
        assert t.euler_characteristic == 0
        assert t.rank_duality_holds


def test_no_clamping_events():
    for n in range(1, 31):
        warnings = []
        for k in range(2 * n + 3):
            cohomology(n, k, warnings)
        assert warnings == []


def test_torsion_appears_and_is_normalized():
    # rank 4, degree 4 carries a Z/2 summand
    g = cohomology(4, 4)
    assert (2, 1) in g.torsion
    # invariant factors form a divisibility chain
    for n in range(1, 13):
        for k in range(2 * n + 3):
            tors = cohomology(n, k).torsion
            ds = [d for d, m in tors for _ in range(m)]
            assert all(ds[i + 1] % ds[i] == 0 for i in range(len(ds) - 1))
            assert all(d >= 2 for d in ds)


def test_render():
    assert AbelianGroupDesc(2, ((2, 1), (6, 2))).torsion_text() == "2^1+6^2"
    assert AbelianGroupDesc(0, ((3, 1),)).torsion_text() == "3^1"
    assert AbelianGroupDesc(1).torsion_text() == "-"


def test_validation():
    with pytest.raises(ValueError):
        cohomology(0, 1)
    with pytest.raises(ValueError):
        cohomology(1, -1)
    with pytest.raises(ValueError):
        cohomology_table(31)
