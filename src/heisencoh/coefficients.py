"""Finitely supported coefficient fields on Z^d (truncated Fourier series).

A CoefficientField maps integer multi-indices to complex numbers and stands
for the trigonometric polynomial f(x) = sum_k c_k exp(2 pi i <k, x>).  The
shared text format is::

    dim=<d>
    k1 ... kd re im

one line per stored coefficient, unordered, duplicates rejected.
"""

from __future__ import annotations

import math

# _blake2, not hashlib: hashlib loads OpenSSL, a few MiB for one digest
from _blake2 import blake2b

from .errors import DimensionMismatchError, DomainError, ParseError


def _as_key(k, dim):
    if isinstance(k, int):
        if dim != 1:
            raise DimensionMismatchError(f"scalar index for dim={dim} field")
        return (k,)
    key = tuple(int(v) for v in k)
    if len(key) != dim:
        raise DimensionMismatchError(f"index {key} has length {len(key)}, expected {dim}")
    return key


class CoefficientField:
    """Immutable finitely supported map Z^dim -> C.  The constructor drops
    zero values; ``read_coefficients`` keeps them as the text has them."""

    __slots__ = ("dim", "_entries", "_radius")

    def __init__(self, dim, entries=None):
        if dim < 1:
            raise DomainError("dim must be positive")
        self.dim = int(dim)
        data = {}
        if entries:
            for k, v in (entries.items() if hasattr(entries, "items") else entries):
                key = _as_key(k, self.dim)
                if key in data:
                    raise DomainError(f"duplicate index {key}")
                v = complex(v)
                if v != 0:
                    data[key] = v
        self._entries = data
        self._radius = None  # support_radius, computed on first call

    @classmethod
    def _from_checked(cls, dim, data):
        """The field of dim >= 1 whose entries are data, a dict of dim-tuples
        of ints to complex numbers with zeros kept, taken without a copy."""
        field = cls.__new__(cls)
        field.dim, field._entries, field._radius = dim, data, None
        return field

    def get(self, k):
        return self._entries.get(_as_key(k, self.dim), 0j)

    def items(self):
        """Entries in lexicographic index order (deterministic)."""
        return sorted(self._entries.items())

    def keys(self):
        return sorted(self._entries)

    def __len__(self):
        return len(self._entries)

    def __eq__(self, other):
        return (
            isinstance(other, CoefficientField)
            and self.dim == other.dim
            and self._entries == other._entries
        )

    def __repr__(self):
        return f"CoefficientField(dim={self.dim}, n={len(self._entries)})"

    def support_radius(self):
        """Max-norm radius of the support (0 for the zero field)."""
        if self._radius is None:
            self._radius = max((max(map(abs, k)) for k in self._entries), default=0)
        return self._radius

    # truncate, + and scale combine entries that are already checked: each
    # builds its dict directly and drops zeros, as the constructor does

    def truncate(self, radius):
        """Drop all indices with max-norm above radius."""
        return CoefficientField._from_checked(self.dim, {
            k: v for k, v in self._entries.items() if v and max(map(abs, k)) <= radius
        })

    def __add__(self, other):
        if self.dim != other.dim:
            raise DimensionMismatchError("dim mismatch in +")
        data = dict(self._entries)
        for k, v in other._entries.items():
            data[k] = data.get(k, 0j) + v
        return CoefficientField._from_checked(self.dim, {k: v for k, v in data.items() if v})

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = complex(c)
        return CoefficientField._from_checked(self.dim, {
            k: w for k, v in self._entries.items() if (w := c * v)
        })

    def norm_l1(self):
        return float(sum(abs(v) for _, v in self.items()))

    def norm_l2(self):
        return math.sqrt(sum(abs(v) ** 2 for _, v in self.items()))

    def is_hermitian(self, tol=1e-12):
        """True if c_{-k} = conj(c_k) within tol, i.e. the function is real."""
        for k, v in self._entries.items():
            mk = tuple(-c for c in k)
            if abs(self._entries.get(mk, 0j) - v.conjugate()) > tol:
                return False
        return True


def write_coefficients(field: CoefficientField, fh) -> bytes:
    """Write field to fh, an open text file, in the format above: ascending
    keys, each part of each value with 17 significant digits, 1024 lines to
    a write.  Return the BLAKE2b digest of the UTF-8 bytes of the text."""
    digest = blake2b()

    def put(text):
        fh.write(text)
        digest.update(text.encode())

    put(f"dim={field.dim}\n")
    entries = field._entries
    keys = sorted(entries)
    for i in range(0, len(keys), 1024):
        put("".join([_line(k, entries[k]) for k in keys[i:i + 1024]]))
    return digest.digest()


def _line(k, v):
    return f"{' '.join(map(str, k))} {v.real:.17g} {v.imag:.17g}\n"


def read_coefficients(fh) -> CoefficientField:
    """The field written in fh, an open text file or any iterable of its
    lines, read one line at a time.  Zero entries are kept as written.
    Raises ParseError on a malformed header or line, a part that is not a
    finite number, or a repeated index."""
    it = enumerate(fh, start=1)
    dim = None
    for lineno, raw in it:
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("dim="):
            raise ParseError("expected header 'dim=<d>'", lineno)
        try:
            dim = int(line[4:])
        except ValueError:
            raise ParseError(f"bad dimension {line[4:]!r}", lineno) from None
        break
    if dim is None:
        raise ParseError("missing 'dim=' header")
    if dim < 1:
        raise ParseError("dimension must be positive")
    entries = {}
    for lineno, raw in it:
        toks = raw.split()
        if not toks:
            continue
        if len(toks) != dim + 2:
            raise ParseError(
                f"expected {dim} integers and two reals, got {len(toks)} tokens", lineno
            )
        try:
            key = tuple(map(int, toks[:dim]))
            val = complex(float(toks[dim]), float(toks[dim + 1]))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise ParseError(f"coefficient {toks[dim]} {toks[dim + 1]} is not finite", lineno)
        if key in entries:
            raise ParseError(f"duplicate index {key}", lineno)
        entries[key] = val
    # every entry is checked above: the field takes the dict as it is
    return CoefficientField._from_checked(dim, entries)


def file_digest(path) -> bytes:
    """The BLAKE2b digest of the bytes of the file at path, read 64 KiB at a
    time: equal to what ``write_coefficients`` returned for that file when
    the file still holds the bytes it wrote."""
    digest = blake2b()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.digest()
