"""Discrete Fourier transforms, the transform on Z, and Sobolev norms.

Conventions, fixed once:

* forward transform  H_k = sum_{i=0}^{N-1} h_i wbar^{ik},  w = exp(2 pi i/N)
  (unnormalized; the inverse carries the 1/N),
* f_hat(xi) = sum_k f(k) exp(-2 pi i k xi) for finitely supported f on Z,
* the Sobolev multiplier is (1 + |1 - exp(-2 pi i xi)|)^alpha
  = (1 + 2 |sin(pi xi)|)^alpha.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .coefficients import CoefficientField
from .errors import DomainError


def dft(values) -> np.ndarray:
    """Forward transform of one period of an N-periodic sequence."""
    return np.fft.fft(np.asarray(values, dtype=complex))


def inverse_dft(values) -> np.ndarray:
    """Inverse transform; inverse_dft(dft(h)) == h."""
    return np.fft.ifft(np.asarray(values, dtype=complex))


def _as_field1(f) -> CoefficientField:
    if isinstance(f, CoefficientField):
        if f.dim != 1:
            raise DomainError("expected a one-dimensional coefficient field")
        return f
    return CoefficientField(1, f)


def fhat(f, xi) -> np.ndarray:
    """f_hat(xi) = sum_k f(k) exp(-2 pi i k xi) at the given points."""
    f = _as_field1(f)
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape, dtype=complex)
    for (k,), v in f.items():
        out += v * np.exp(-2j * np.pi * k * xi)
    return out


_NODES = 24  # Gauss-Legendre nodes per panel of the Sobolev quadrature

# the most points a Sobolev quadrature or a residual grid may take: as
# complex doubles they fill 1 GiB, and a larger field is a DomainError
MAX_POINTS = 1 << 26

# numpy.polynomial.legendre.leggauss(24) as numpy 2.4.6 gives it, which is
# symmetric: node 23 - i is -(node i), weight 23 - i is weight i.  Stored
# here so the quadrature needs neither numpy.polynomial nor LAPACK.
_HALF_NODES = (
    0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
    0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
    0.7401241915785544, 0.820001985973903, 0.8864155270044011,
    0.9382745520027328, 0.9747285559713095, 0.9951872199970213,
)
_HALF_WEIGHTS = (
    0.12793819534675202, 0.12583745634682825, 0.1216704729278033,
    0.11550566805372552, 0.10744427011596556, 0.09761865210411393,
    0.0861901615319532, 0.07334648141108016, 0.05929858491543636,
    0.04427743881741941, 0.02853138862893356, 0.01234122979998869,
)
_GAUSS_NODES = tuple(-x for x in reversed(_HALF_NODES)) + _HALF_NODES
_GAUSS_WEIGHTS = tuple(reversed(_HALF_WEIGHTS)) + _HALF_WEIGHTS


# complex entries per block of ``_fhat_blocks``: b node rows hold
# b (modes + 2 panels) of them in their twisted and folded coefficients,
# and b is the most rows that fit, or 1.  Blocks of about 1 MiB are long
# enough that numpy's per-call cost does not show.
_BLOCK = 1 << 16


def _panel_nodes(n_panels, rows):
    """(xi, w): the nodes rows (a slice of range(24)) of every one of
    n_panels equal panels of [0, 1] and their weights, arrays of shape
    (len(rows), n_panels) with xi[i, p] the node rows[i] of panel p."""
    nodes, weights = np.array(_GAUSS_NODES[rows]), np.array(_GAUSS_WEIGHTS[rows])
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    return mid + half * nodes[:, None], half * weights[:, None]


def _fhat_blocks(f: CoefficientField, n_panels):
    """Yield (rows, fh) for blocks of node rows that cover range(24):
    fh = fhat(f, xi) at the nodes xi of ``_panel_nodes(n_panels, rows)``,
    in O(R log R) for support radius R <= n_panels (below 2**26).

    Panel p carries node j at y = (2p + 1 + x_j) / (2P), P = n_panels, so
    fhat(y) = sum_m a_j[m] exp(-2 pi i m p / P) with the folded coefficients
    a_j[m] = sum_{k = m mod P} f_k exp(-pi i k (1 + x_j) / P): one length-P
    FFT per node row.  The float node xi sits delta = xi - y away from
    the exact y (below 1 ulp of xi); the same FFTs of -2 pi i k f_k give
    fhat'(y), and fhat(y) + delta fhat'(y) is fhat(xi) up to a term of
    order (2 pi R delta)^2, so the FFT evaluates the same rule as ``fhat``.
    Each value is the same float whatever the block size.
    """
    nodes = np.array(_GAUSS_NODES)
    keys = f.keys()
    k = np.fromiter((key for (key,) in keys), np.int64, len(keys))
    v = np.fromiter(map(f._entries.__getitem__, keys), complex, len(keys))
    # the keys ascend, so each run of one k // P has distinct slots k mod P,
    # and adding the runs in turn adds each slot's terms in key order
    cuts = [0, *(np.flatnonzero(np.diff(k // n_panels)) + 1).tolist(), len(k)]
    slabs = [(slice(a, b), k[a:b] % n_panels) for a, b in zip(cuts, cuts[1:])]
    step = min(_NODES, max(1, _BLOCK // (len(k) + 2 * n_panels)))
    two_p = 2.0 * n_panels
    odd = 2.0 * np.arange(n_panels) + 1.0
    for j in range(0, _NODES, step):
        rows = slice(j, j + step)
        x = nodes[rows, None]
        twisted = v * np.exp(-1j * np.pi * k * (1.0 + x) / n_panels)
        folded = np.zeros((2, len(x), n_panels), dtype=complex)
        for run, slots in slabs:
            folded[0][:, slots] += twisted[:, run]
        twisted *= -2j * np.pi * k
        for run, slots in slabs:
            folded[1][:, slots] += twisted[:, run]
        del twisted
        np.fft.fft(folded, axis=2, out=folded)
        # delta from the split xi = hi + lo (26 bits each): hi * 2P and
        # lo * 2P are exact, and so is the cancellation against 2p + 1
        xi, _ = _panel_nodes(n_panels, rows)
        split = 134217729.0 * xi  # 2**27 + 1
        hi = split - (split - xi)
        lo = xi - hi
        delta = ((hi * two_p - odd - x) + lo * two_p) / two_p
        yield rows, folded[0] + delta * folded[1]


def sobolev_norm(f, alpha) -> float:
    """Multiplier Sobolev norm
    ( int_0^1 |(1 + 2 sin(pi xi))^alpha f_hat(xi)|^2 dxi )^(1/2).

    Composite Gauss-Legendre on max(4, R) equal panels of 24 nodes, R the
    support radius: at least 8 nodes per oscillation of |f_hat|^2; the
    integrand is analytic, so the documented error is below 1e-10 for
    support radii up to 64.  f_hat is evaluated at all 24 max(4, R) nodes
    by 48 FFTs of length max(4, R) (``_fhat_blocks``), O(R log R); the
    direct sum ``fhat`` at the same nodes gives norms within 2 ulp of it on
    seeded fields up to radius 300 (4 ulp are allowed in the tests).  The
    quadrature sum is correctly rounded (math.fsum), so the value does not
    depend on numpy's summation order.  The four-panel rule used up to
    support radius 4 has weights whose correctly rounded sum is 1, so the
    unit delta at alpha = 0 has norm exactly 1, as Parseval says.  The
    weights of the rules for support radii 9, 18, 36, 57, 59 and 103 sum to
    1 ulp off 1, so at alpha = 0 the norm there can sit 1 ulp from the
    Parseval value.
    """
    return sobolev_norms(f, [alpha])[0]


def sobolev_norms(f, alphas) -> list[float]:
    """``sobolev_norm(f, alpha)`` for each alpha, with f_hat evaluated once
    at the quadrature nodes; each value is the same float."""
    if not all(0 <= alpha < math.inf for alpha in alphas):
        raise DomainError("alpha must be finite and nonnegative")
    f = _as_field1(f)
    if not any(f._entries.values()):  # no entries, or zeros as a file keeps them
        return [0.0 for _ in alphas]
    n_panels = max(4, f.support_radius())
    if _NODES * n_panels > MAX_POINTS:
        raise DomainError(f"support radius {n_panels} needs {_NODES * n_panels} quadrature "
                          "nodes, more than 2^26")
    # f_hat is kept, a block at a time; the nodes, weights and multipliers
    # are taken again for each alpha, so no array spans every node
    blocks = list(_fhat_blocks(f, n_panels))

    def terms(rows, fh, alpha):
        xi, w = _panel_nodes(n_panels, rows)
        base = 1.0 + 2.0 * np.sin(np.pi * xi)
        # a term past the largest double is inf, and so is the norm; the
        # weights sum to 1, so finite terms have a finite sum
        with np.errstate(over="ignore"):
            vals = np.abs(base**alpha * fh) ** 2
        return (w * vals).ravel().tolist()

    return [
        math.sqrt(math.fsum(chain.from_iterable(terms(rows, fh, alpha) for rows, fh in blocks)))
        for alpha in alphas
    ]
