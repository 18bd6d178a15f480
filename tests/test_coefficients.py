import io
from fractions import Fraction

import numpy as np
import pytest

from heisencoh.coefficients import (
    CoefficientField,
    read_coefficients,
    reads_as,
    write_coefficients,
)
from heisencoh.errors import DimensionMismatchError, DomainError, ParseError


def test_basic_accessors():
    f = CoefficientField(1, {(0,): 1.0, (3,): 2j, (-5,): 1 + 1j})
    assert f.get(3) == 2j
    assert f.get((3,)) == 2j
    assert f.get(100) == 0
    assert f.support_radius() == 5
    assert len(f) == 3
    assert f.keys() == sorted(f.keys())


def _brute_radius(field):
    return max((abs(c) for k in field.keys() for c in k), default=0)


def test_support_radius_of_derived_fields():
    f = CoefficientField(2, {(0, 0): 1.0, (3, -7): 2j, (-5, 1): 1 + 1j, (2, 2): -1.0})
    g = CoefficientField(2, {(-9, 0): 0.5, (3, -7): -2j})
    buf = io.StringIO()
    write_coefficients(f + g, buf)
    buf.seek(0)
    derived = [
        f, f.truncate(5), f.truncate(0), f.truncate(-1), f + g, f - f, g.scale(3j),
        g.scale(0), read_coefficients(buf), CoefficientField(2),
    ]
    for field in derived:
        assert field.support_radius() == _brute_radius(field)
        assert field.support_radius() == _brute_radius(field)  # cached value
    assert [d.support_radius() for d in derived[:5]] == [7, 5, 0, 0, 9]


def test_zero_dropping_and_truncate():
    f = CoefficientField(1, {(0,): 0.0, (1,): 1.0, (9,): 2.0})
    assert len(f) == 2
    assert f.truncate(5).keys() == [(1,)]


def test_arithmetic():
    f = CoefficientField(1, {(0,): 1.0})
    g = CoefficientField(1, {(0,): -1.0, (2,): 3.0})
    assert (f + g).keys() == [(2,)]
    assert (f - f).norm_l1() == 0.0
    assert f.scale(2j).get(0) == 2j


def _bits(field):
    return field.dim, [(k, type(v), repr(v)) for k, v in field.items()]


def test_derived_fields_equal_the_checking_constructor():
    # zeros are stored in the operands, which the results drop
    f = CoefficientField(2, {(0, 0): 1.0, (3, -7): 2j, (-5, 1): 1 + 1j, (2, 2): -1.0,
                             (1, 1): 0j, (4, 0): -0.0 + 2.5e-300j}, drop_zeros=False)
    g = CoefficientField(2, {(-9, 0): 0.5, (3, -7): -2j, (2, 2): 1.0, (0, 4): -0.0},
                         drop_zeros=False)
    for radius in (-1, 0, 1, 2, 5, 9):
        want = {k: v for k, v in f.items() if max(map(abs, k)) <= radius}
        assert _bits(f.truncate(radius)) == _bits(CoefficientField(2, want))
    for c in (0, 1, -1, 3, 2.5, 3j, -0.5 + 1e-300j, np.float64(1.7), Fraction(1, 3)):
        want = {k: c * v for k, v in f.items()}
        assert _bits(f.scale(c)) == _bits(CoefficientField(2, want))
    for a, b in ((f, g), (g, f), (f, f.scale(-1)), (f, f), (f, CoefficientField(2))):
        want = dict(a.items())
        for k, v in b.items():
            want[k] = want.get(k, 0j) + v
        assert _bits(a + b) == _bits(CoefficientField(2, want))
    assert len(f.scale(0)) == len(f + f.scale(-1)) == len(f - f) == 0


def test_norms_and_hermitian():
    f = CoefficientField(1, {(1,): 3 + 4j, (-1,): 3 - 4j})
    assert abs(f.norm_l2() - np.sqrt(50)) < 1e-12
    assert abs(f.norm_l1() - 10) < 1e-12
    assert f.is_hermitian()
    assert not CoefficientField(1, {(1,): 1j}).is_hermitian()


def test_evaluate_dim1_flat_points():
    f = CoefficientField(1, {(2,): 1.0})
    xs = np.array([0.0, 0.25, 0.5])
    vals = f.evaluate(xs)
    assert np.max(np.abs(vals - np.exp(2j * np.pi * 2 * xs))) < 1e-12


def test_evaluate_matches_series():
    f = CoefficientField(2, {(1, 0): 1.0, (0, 2): 2j})
    pts = np.array([[0.25, 0.5], [0.1, 0.9]])
    direct = np.array(
        [
            np.exp(2j * np.pi * x) + 2j * np.exp(2j * np.pi * 2 * y)
            for x, y in pts
        ]
    )
    assert np.max(np.abs(f.evaluate(pts) - direct)) < 1e-12


def test_dim_checks():
    with pytest.raises(DomainError):
        CoefficientField(0, {})
    with pytest.raises(DimensionMismatchError):
        CoefficientField(2, {(1,): 1.0})
    f = CoefficientField(2, {(1, 1): 1.0})
    with pytest.raises(DimensionMismatchError):
        f.get(3)


def test_file_round_trip():
    f = CoefficientField(2, {(1, -2): 0.5 - 0.25j, (0, 0): 3.0, (7, 7): 1e-17j})
    buf = io.StringIO()
    write_coefficients(f, buf)
    buf.seek(0)
    g = read_coefficients(buf)
    assert g.dim == 2
    for k, v in f.items():
        assert abs(g.get(k) - v) < 1e-16


def test_file_format_shape():
    f = CoefficientField(1, {(1,): 1.0, (-2,): 2.0})
    buf = io.StringIO()
    write_coefficients(f, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "dim=1"
    assert lines[1].startswith("-2 ")  # sorted keys
    assert len(lines) == 3


def test_read_errors():
    with pytest.raises(ParseError):
        read_coefficients(io.StringIO("1 1.0 0.0\n"))  # missing header
    with pytest.raises(ParseError) as ei:
        read_coefficients(io.StringIO("dim=1\n1 1.0\n"))
    assert ei.value.line == 2
    with pytest.raises(ParseError) as ei:
        read_coefficients(io.StringIO("dim=1\n1 1.0 0.0\n1 2.0 0.0\n"))
    assert "duplicate" in str(ei.value) and ei.value.line == 3
    with pytest.raises(ParseError):
        read_coefficients(io.StringIO("dim=x\n"))
    with pytest.raises(ParseError):
        read_coefficients(io.StringIO(""))


def test_duplicate_in_constructor():
    with pytest.raises(DomainError):
        CoefficientField(1, [((1,), 1.0), ((1,), 2.0)])


def test_reads_as_accepts_only_texts_that_read_as_the_field():
    field = CoefficientField(2, {(-1, 2): 0.5 - 1e-300j, (0, 0): 0j, (3, -4): -0.0 + 2.5j},
                             drop_zeros=False)
    buf = io.StringIO()
    write_coefficients(field, buf)
    text = buf.getvalue()
    head, *lines = text.splitlines(keepends=True)
    variants = {
        "as written": text,
        "blank lines": "\n" + head + "\n" + "".join(lines) + "  \n",
        "spaced header": " dim=2 \n" + "".join(lines),
        "other digits": head + "-1 2 0.50 -1e-300\n" + "".join(lines[1:]),
        "out of order": head + "".join(reversed(lines)),
        "duplicate": head + lines[0] + "".join(lines),
        "missing line": head + "".join(lines[:-1]),
        "extra line": text + "5 5 1 0\n",
        "other value": text.replace("2.5", "2.4"),
        "other dim": "dim=3\n",
        "bad dim": "dim=two\n" + "".join(lines),
        "no header": "".join(lines),
        "empty": "",
        "short line": head + "-1 2 0.5\n" + "".join(lines[1:]),
        "bad number": head + "-1 2 0.5 x\n" + "".join(lines[1:]),
        "nan": head + "".join(lines) + "4 4 nan 0\n",
    }
    equal = set()
    for name, variant in variants.items():
        try:
            if read_coefficients(io.StringIO(variant)) == field:
                equal.add(name)
        except ParseError:
            pass
    accepted = {name for name, variant in variants.items()
                if reads_as(variant.splitlines(keepends=True), field)}
    # every text that reads as field in the written order, and no other
    assert accepted == equal - {"out of order"}
    assert accepted == {"as written", "blank lines", "spaced header", "other digits"}
    assert reads_as(io.StringIO(text), field)
    nan_field = CoefficientField(1, {(1,): complex(float("nan"), 0)})
    assert not reads_as(["dim=1\n", "1 nan 0\n"], nan_field)
