"""Exact integer arithmetic for the discrete Heisenberg group.

Elements are triples (x, y, z) multiplying like the unitriangular matrices

    [[1, x, z],
     [0, 1, y],
     [0, 0, 1]]

so that (x', y', z') (x, y, z) = (x' + x, y' + y, z' + z + x' y).  The rank-n
generalisation carries integer vectors x, y of equal length and the cocycle
<x_left, y_right>.  All arithmetic uses Python integers and is exact for any
width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DimensionMismatchError, DomainError, ParseError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, slots=True)
class HeisElement:
    x: int
    y: int
    z: int

    def __mul__(self, other: "HeisElement") -> "HeisElement":
        return HeisElement(
            self.x + other.x,
            self.y + other.y,
            self.z + other.z + self.x * other.y,
        )

    def inverse(self) -> "HeisElement":
        return HeisElement(-self.x, -self.y, -self.z + self.x * self.y)

    def __pow__(self, n: int) -> "HeisElement":
        # square-and-multiply; exactness is free with Python integers
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        acc = IDENTITY
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def is_identity(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0


IDENTITY = HeisElement(0, 0, 0)
# generators: g1 shifts y, g2 shifts x, g3 shifts the central coordinate
G1 = HeisElement(0, 1, 0)
G2 = HeisElement(1, 0, 0)
G3 = HeisElement(0, 0, 1)


def multiply(a: HeisElement, b: HeisElement) -> HeisElement:
    return a * b


def inverse(a: HeisElement) -> HeisElement:
    return a.inverse()


def conjugate(a: HeisElement, b: HeisElement) -> HeisElement:
    """a b a^-1, always evaluated through the group law, in either rank."""
    return a * b * a.inverse()


def commutator(a: HeisElement, b: HeisElement) -> HeisElement:
    """[a, b] = a b a^-1 b^-1, in either rank; lands in the centre with
    z = <a.x, b.y> - <b.x, a.y>."""
    return a * b * a.inverse() * b.inverse()


def is_central(a: HeisElement) -> bool:
    """True exactly when x and y vanish, in either rank."""
    return not (any(a.x) or any(a.y)) if isinstance(a, HeisElementN) else a.x == a.y == 0


@dataclass(frozen=True, slots=True)
class NormalForm:
    """Exponents (a, b, c) of the word g1^a g2^b g3^c."""

    a: int
    b: int
    c: int


def normal_form(g: HeisElement) -> NormalForm:
    """Write g as g1^a g2^b g3^c.

    With g1 = (0,1,0), g2 = (1,0,0), g3 = (0,0,1) the word g1^y g2^x g3^z
    multiplies out to exactly (x, y, z), so a = y, b = x, c = z.
    """
    return NormalForm(g.y, g.x, g.z)


def reconstruct(nf: NormalForm) -> HeisElement:
    """Evaluate the word g1^a g2^b g3^c by square-and-multiply."""
    return (G1 ** nf.a) * (G2 ** nf.b) * (G3 ** nf.c)


# ---------------------------------------------------------------------------
# rank-n lattice


@dataclass(frozen=True, slots=True)
class HeisElementN:
    x: tuple
    y: tuple
    z: int

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(int(v) for v in self.x))
        object.__setattr__(self, "y", tuple(int(v) for v in self.y))
        if len(self.x) != len(self.y):
            raise DimensionMismatchError(
                f"x has length {len(self.x)} but y has length {len(self.y)}"
            )
        if len(self.x) < 1:
            raise DomainError("rank must be at least 1")

    @property
    def n(self) -> int:
        return len(self.x)

    def __mul__(self, other: "HeisElementN") -> "HeisElementN":
        return multiply_n(self, other)

    def inverse(self) -> "HeisElementN":
        xy = sum(a * b for a, b in zip(self.x, self.y))
        return HeisElementN(
            tuple(-v for v in self.x),
            tuple(-v for v in self.y),
            -self.z + xy,
        )


def identity_n(n: int) -> HeisElementN:
    return HeisElementN((0,) * n, (0,) * n, 0)


def multiply_n(a: HeisElementN, b: HeisElementN) -> HeisElementN:
    """Product with cocycle <a.x, b.y>; for n = 1 this is the scalar law."""
    if a.n != b.n:
        raise DimensionMismatchError(f"rank {a.n} vs rank {b.n}")
    cocycle = sum(u * v for u, v in zip(a.x, b.y))
    return HeisElementN(
        tuple(u + v for u, v in zip(a.x, b.x)),
        tuple(u + v for u, v in zip(a.y, b.y)),
        a.z + b.z + cocycle,
    )


def embed_scalar(a: HeisElement, n: int = 1) -> HeisElementN:
    if n != 1:
        raise DomainError("scalar elements embed at rank 1 only")
    return HeisElementN((a.x,), (a.y,), a.z)


def matrix_embed(a: HeisElementN) -> np.ndarray:
    """Unitriangular (n+2) x (n+2) integer matrix; multiplicative for the
    rank-n law.

    Layout: first row (1, x_1..x_n, z), last column (z, y_1..y_n, 1)^T,
    identity block in between.  Entries are Python integers (object dtype)
    so products stay exact at any width.
    """
    import numpy as np

    n = a.n
    m = np.zeros((n + 2, n + 2), dtype=object)
    for i in range(n + 2):
        m[i, i] = 1
    for i, xi in enumerate(a.x):
        m[0, 1 + i] = xi
    for i, yi in enumerate(a.y):
        m[1 + i, n + 1] = yi
    m[0, n + 1] = a.z
    return m


# ---------------------------------------------------------------------------
# closed-form probes
#
# Two closed forms quoted for conjugation and the bracket disagree with the
# group law; the library only ever uses the group-law expansions above, and
# these probes document the discrepancy.


@dataclass(frozen=True)
class ClosedFormProbe:
    group_law: HeisElement
    closed_form: HeisElement
    agrees: bool


def commutator_closed_form_probe(a: HeisElement, b: HeisElement) -> ClosedFormProbe:
    """Compare [a, b] with the quoted bracket (0, 0, y' z - z' y)."""
    law = commutator(a, b)
    quoted = HeisElement(0, 0, a.y * b.z - a.z * b.y)
    return ClosedFormProbe(law, quoted, law == quoted)


def conjugation_closed_form_probe(a: HeisElement, b: HeisElement):
    """Compare a b a^-1 and b a b^-1 against the quoted (x', y', z + y'x - xy).

    Returns (conj(a, b), conj(b, a), quoted).  The quoted z-coordinate mixes
    coordinates of both factors and matches neither order in general.
    """
    quoted = HeisElement(a.x, a.y, b.z + a.y * b.x - b.x * b.y)
    return conjugate(a, b), conjugate(b, a), quoted


# ---------------------------------------------------------------------------
# element text format: "x y z" at rank 1, "x1 .. xn | y1 .. yn | z" in general


def parse_element(text: str, lineno=None):
    """Parse one element line; returns HeisElement or HeisElementN."""
    text = text.strip()
    if not text:
        raise ParseError("empty element line", lineno)
    try:
        if "|" in text:
            parts = text.split("|")
            if len(parts) != 3:
                raise ValueError("expected 'x.. | y.. | z'")
            xs = tuple(int(t) for t in parts[0].split())
            ys = tuple(int(t) for t in parts[1].split())
            zs = parts[2].split()
            if len(zs) != 1:
                raise ValueError("central coordinate must be a single integer")
            return HeisElementN(xs, ys, int(zs[0]))
        toks = text.split()
        if len(toks) != 3:
            raise ValueError("expected three integers")
        return HeisElement(int(toks[0]), int(toks[1]), int(toks[2]))
    except DimensionMismatchError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def format_element(a) -> str:
    if isinstance(a, HeisElement):
        return f"{a.x} {a.y} {a.z}"
    xs = " ".join(str(v) for v in a.x)
    ys = " ".join(str(v) for v in a.y)
    return f"{xs} | {ys} | {a.z}"
