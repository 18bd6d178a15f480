import hashlib
import io
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from heisencoh.coefficients import (
    CoefficientField,
    file_digest,
    read_coefficients,
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


def _kept(dim, entries):
    """The field of entries with its zero values kept, read as a file holds
    them: the constructor drops zeros, read_coefficients keeps them."""
    return read_coefficients([f"dim={dim}\n"] + [
        f"{' '.join(map(str, k))} {complex(v).real!r} {complex(v).imag!r}\n"
        for k, v in entries.items()
    ])


def test_derived_fields_equal_the_checking_constructor():
    # zeros are stored in the operands, which the results drop
    f = _kept(2, {(0, 0): 1.0, (3, -7): 2j, (-5, 1): 1 + 1j, (2, 2): -1.0,
                  (1, 1): 0j, (4, 0): -0.0 + 2.5e-300j})
    g = _kept(2, {(-9, 0): 0.5, (3, -7): -2j, (2, 2): 1.0, (0, 4): -0.0})
    assert len(f) == 6 and len(g) == 4
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


def test_every_double_reads_back_as_written():
    # each finite double survives its 17-digit text, signed zeros too
    tiny, least_normal, largest = 5e-324, sys.float_info.min, sys.float_info.max
    values = [0.0, tiny, least_normal - tiny, least_normal, 1.0, 1 / 3, 0.1, 1e22,
              2.0**-1022 * (1 - 2**-52), largest]
    values += [math.nextafter(v, to) for v in values for to in (0.0, math.inf) if v != to]
    values = [v for v in values if math.isfinite(v)]
    values = [-v for v in values] + values
    r = random.Random(5)
    while len(values) < 1500:
        v = r.choice([r.random() * 2.0 ** r.randint(-1074, 1023), r.uniform(-1e-300, 1e-300)])
        values.append(-v if r.random() < 0.5 else v)
    field = _kept(2, {(i, -i): complex(a, b)
                      for i, (a, b) in enumerate(zip(values, reversed(values)))})
    assert len(field) == len(values)
    buf = io.StringIO()
    write_coefficients(field, buf)
    back = read_coefficients(io.StringIO(buf.getvalue()))
    assert [(k, v.real.hex(), v.imag.hex()) for k, v in back.items()] == [
        (k, v.real.hex(), v.imag.hex()) for k, v in field.items()
    ]
    # a part that is not finite is refused with its line: +-inf as written
    # or past the largest double, and nan
    for part in ("inf", "-inf", "1e309", "-1e400", "nan", "-nan"):
        for line in (f"3 -3 {part} 0", f"3 -3 0.5 {part}"):
            with pytest.raises(ParseError, match="not finite") as ei:
                read_coefficients(io.StringIO(f"dim=2\n1 -1 1 0\n{line}\n"))
            assert ei.value.line == 3, line


@pytest.mark.parametrize("n", [0, 1, 1024, 1025, 3000])
def test_write_returns_the_blake2b_digest_of_the_bytes_written(tmp_path, n):
    # entries fill one write of 1024 lines, spill into a second, or span
    # three writes and more than one 64 KiB chunk of file_digest
    r = random.Random(n)
    field = CoefficientField(3, {(i, -i, 2 * i): complex(r.gauss(0, 1), r.gauss(0, 1e-300))
                                 for i in range(n)})
    path = tmp_path / "f.txt"
    with open(path, "w", encoding="utf-8") as fh:
        digest = write_coefficients(field, fh)
    data = path.read_bytes()
    assert len(data.splitlines()) == n + 1
    assert digest == hashlib.blake2b(data).digest() == file_digest(path)
    buf = io.StringIO()
    assert write_coefficients(field, buf) == digest
    assert buf.getvalue().encode() == data
