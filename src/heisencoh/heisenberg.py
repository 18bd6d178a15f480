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

from .errors import DimensionMismatchError, DomainError, ParseError


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


IDENTITY = HeisElement(0, 0, 0)
# generators: g1 shifts y, g2 shifts x, g3 shifts the central coordinate
G1 = HeisElement(0, 1, 0)
G2 = HeisElement(1, 0, 0)
G3 = HeisElement(0, 0, 1)


def conjugate(a: HeisElement, b: HeisElement) -> HeisElement:
    """a b a^-1, always evaluated through the group law, in either rank."""
    return a * b * a.inverse()


def commutator(a: HeisElement, b: HeisElement) -> HeisElement:
    """[a, b] = a b a^-1 b^-1, in either rank; lands in the centre with
    z = <a.x, b.y> - <b.x, a.y>."""
    return a * b * a.inverse() * b.inverse()


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


# ---------------------------------------------------------------------------
# closed-form probe
#
# A closed form quoted for the bracket disagrees with the group law; the
# library only ever uses the group-law expansion above, and this probe
# documents the discrepancy.


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
