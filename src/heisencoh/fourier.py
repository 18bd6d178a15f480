"""Discrete Fourier transforms, the transform on Z, and Sobolev norms.

Conventions, fixed once:

* forward transform  H_k = sum_{i=0}^{N-1} h_i wbar^{ik},  w = exp(2 pi i/N)
  (unnormalized; the inverse carries the 1/N),
* f_hat(xi) = sum_k f(k) exp(-2 pi i k xi) for finitely supported f on Z,
* the Sobolev multiplier is (1 + |1 - exp(-2 pi i xi)|)^alpha
  = (1 + 2 |sin(pi xi)|)^alpha.

The Sobolev norm runs on Python floats alone; numpy is imported only by
``dft``, ``inverse_dft`` and ``fhat``.
"""

from __future__ import annotations

import math
from operator import mul

from .coefficients import CoefficientField
from .errors import DomainError


def dft(values):
    """Forward transform of one period of an N-periodic sequence."""
    import numpy as np

    return np.fft.fft(np.asarray(values, dtype=complex))


def inverse_dft(values):
    """Inverse transform; inverse_dft(dft(h)) == h."""
    import numpy as np

    return np.fft.ifft(np.asarray(values, dtype=complex))


def _as_field1(f) -> CoefficientField:
    if isinstance(f, CoefficientField):
        if f.dim != 1:
            raise DomainError("expected a one-dimensional coefficient field")
        return f
    return CoefficientField(1, f)


def fhat(f, xi):
    """f_hat(xi) = sum_k f(k) exp(-2 pi i k xi) at the given points."""
    import numpy as np

    f = _as_field1(f)
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape, dtype=complex)
    for (k,), v in f.items():
        out += v * np.exp(-2j * np.pi * k * xi)
    return out


# the most points the transform of a Sobolev norm may take, set by
# measurement on a 2-core machine: a transform of 2^20 points takes about
# 3 s, and `sobolev` on a field of radius 262144, which needs it, 8 s and a
# peak of 273 MiB.  A field that needs more is a DomainError
MAX_POINTS = 1 << 20

# numpy.polynomial.legendre.leggauss(24) as numpy 2.4.6 gives it, which is
# symmetric: node 23 - i is -(node i), weight 23 - i is weight i.  Stored
# here so the weights of the norm need neither numpy nor LAPACK.
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

# equal panels of [0, pi/2] for the two integrals that start the weights
_PANELS = 4


def _roots(n):
    """[wbar^j for j < n / 2], wbar = exp(-2 pi i / n), for n a power of two."""
    step = math.tau / n
    return [complex(math.cos(step * j), -math.sin(step * j)) for j in range(n // 2)]


def _fft(x, roots):
    """The forward transform of the list x, whose length n is a power of
    two, with roots = ``_roots(n)``: Stockham's radix-2 form, which reads
    the two halves of the list at every stage and needs no bit reversal.
    Stage s (s = 1, 2, 4, ..., n/2) splits the list into blocks of s; block
    p of the first half meets block p of the second, and their sum and
    their difference times wbar^(p s) become blocks 2p and 2p + 1."""
    n = len(x)
    half = n // 2
    y = [0j] * n
    s = 1
    while s < n:
        m = half // s  # blocks in each half
        a, b = x[:half], x[half:]
        tw = roots[::s]
        if s == 1:
            y[0::2] = [p + q for p, q in zip(a, b)]
            y[1::2] = [(p - q) * t for p, q, t in zip(a, b, tw)]
        elif s < m:  # many short blocks: interleave by strides
            spread = [0j] * half
            for q in range(s):
                spread[q::s] = tw
            total = [p + q for p, q in zip(a, b)]
            diff = [(p - q) * t for p, q, t in zip(a, b, spread)]
            for q in range(s):
                y[q::2 * s] = total[q::s]
                y[q + s::2 * s] = diff[q::s]
        else:  # few long blocks: one slice each
            for p in range(m):
                lo, hi, t = p * s, (p + 1) * s, tw[p]
                y[2 * lo:2 * lo + s] = [u + v for u, v in zip(a[lo:hi], b[lo:hi])]
                y[2 * lo + s:2 * hi] = [(u - v) * t for u, v in zip(a[lo:hi], b[lo:hi])]
        x, y = y, x
        s *= 2
    return x


def _lag_sums(fields, radius):
    """For each of one or two 1-d fields of support radius at most
    radius > 0, the list [S_1, ..., S_2R] (R = radius) of the sums
    S_m = A_m + A_-m = 2 Re A_m of its autocorrelations
    A_m = sum_k f_(k+m) conj(f_k).

    They come from the cyclic autocorrelation of length n, the least power
    of two with n >= 4R: the inverse transform of |F|^2, F the transform of
    f placed at k mod n.  No two lags up to 2R meet mod n, except 2R and -2R
    when n = 4R, and S_2R is their sum.  Two fields share one inverse
    transform, of |F|^2 + i |G|^2: its result is the cyclic autocorrelation
    of f plus i times that of g, both Hermitian, so the real parts at m and
    -m sum to S_m of f and the imaginary parts to S_m of g.  The inverse
    transform is the conjugate of the forward transform of the conjugate,
    over n."""
    n = 1 << (4 * radius - 1).bit_length()
    if n > MAX_POINTS:
        raise DomainError(f"support radius {radius} needs a transform of {n} points, "
                          f"more than 2^{MAX_POINTS.bit_length() - 1}")
    roots = _roots(n)
    powers = []
    for f in fields:
        x = [0j] * n
        for (k,), v in f._entries.items():
            x[k % n] = v
        powers.append([z.real * z.real + z.imag * z.imag for z in _fft(x, roots)])
        del x
    spectrum = powers[0] if len(powers) == 1 else [complex(p, -q) for p, q in zip(*powers)]
    del powers
    c = _fft(spectrum, roots)
    del spectrum
    pairs = [c[m] + c[n - m] if 2 * m < n else c[m] for m in range(1, 2 * radius + 1)]
    del c
    sums = [[z.real / n for z in pairs]]
    if len(fields) == 2:
        sums.append([-z.imag / n for z in pairs])
    return sums


def _weights(alpha, count):
    """[w(0), ..., w(count - 1)] with w(m) = int_0^1 (1 + 2 sin pi xi)^(2 alpha)
    e^(2 pi i m xi) dxi, real and even in m.  OverflowError where the
    multiplier passes the largest double.

    w(m) = c_2m for c_n = (1/pi) int_0^pi F(t) e^(-i n t) dt, F = (1 + 2 sin
    t)^b, b = 2 alpha.  Integrating (1 + 2 sin t) F' = 2 b cos t F by parts
    against e^(-i n t), with F(0) = F(pi) = 1, gives
        (n + 1 + b) c_(n+1) = (n - 1 - b) c_(n-1) + i n c_n + ((-1)^n - 1)/pi.
    F is symmetric about pi/2, so c_n is real for even n and imaginary for
    odd n, c_n = i y_n; the recurrence runs on x_n = c_n (n even) and y_n
    (n odd) from c_0 and y_1 = -(2/pi) int_0^(pi/2) F sin t dt, both taken
    with the 24-node Gauss-Legendre rule on _PANELS panels.  At alpha = 0
    the multiplier is 1 and w is the unit impulse, exactly."""
    beta = 2.0 * alpha
    if beta == 0:
        return [1.0] + [0.0] * (count - 1)
    width = math.pi / 2 / _PANELS
    even, odd = [], []
    for p in range(_PANELS):
        mid = (p + 0.5) * width
        for x, w in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
            t = mid + width / 2 * x
            value = (1.0 + 2.0 * math.sin(t)) ** beta * (w * width / 2)
            even.append(value)
            odd.append(value * math.sin(t))
    x_prev = 2 / math.pi * math.fsum(even)  # x_0
    y = -2 / math.pi * math.fsum(odd)  # y_1
    out = [x_prev]
    for m in range(1, count):
        # n = 2m - 1, odd: x_2m; then n = 2m, even: y_(2m+1)
        x_prev = ((2 * m - 2 - beta) * x_prev - (2 * m - 1) * y - 2 / math.pi) / (2 * m + beta)
        y = ((2 * m - 1 - beta) * y + 2 * m * x_prev) / (2 * m + 1 + beta)
        out.append(x_prev)
    return out


def sobolev_norm(f, alpha) -> float:
    """Multiplier Sobolev norm
    ( int_0^1 |(1 + 2 sin(pi xi))^alpha f_hat(xi)|^2 dxi )^(1/2).

    The integral is the Toeplitz sum sum_(|m| <= 2R) w(m) A_m over the
    autocorrelations A_m of f (``_lag_sums``, R the support radius) and the
    Fourier coefficients w(m) of the squared multiplier (``_weights``),
    with no quadrature error.  A_0 is math.fsum of |f_k|^2 = re^2 + im^2,
    so at alpha = 0 the norm is the square root of that sum exactly;
    otherwise the A_m carry the rounding of the transforms of length
    n >= 4R and the w(m) that of their recurrence.  On seeded fields up to
    radius 64 and alpha up to 3 the value is within 3e-16 relative of
    mpmath's integral at 50 digits.  A field whose transform needs more
    than MAX_POINTS points is a DomainError; the norm is inf where a term
    passes the largest double.
    """
    return sobolev_norms([f], [[alpha]])[0][0]


def sobolev_norms(fields, alphas) -> list[list[float]]:
    """For one or two 1-d fields, and for each a list of alphas, the list
    of ``sobolev_norm(field, alpha)``: one set of transforms for all of
    them, and one set of weights per alpha."""
    if not all(0 <= alpha < math.inf for group in alphas for alpha in group):
        raise DomainError("alpha must be finite and nonnegative")
    fields = [_as_field1(f) for f in fields]
    # a field with no entries, or only the zeros a file keeps, has norm 0
    # at every alpha and sets no size
    nonzero = [any(f._entries.values()) for f in fields]
    radius = max((f.support_radius() for f, z in zip(fields, nonzero) if z), default=0)
    sums = _lag_sums(fields, radius) if radius else [[] for _ in fields]
    weights = {}
    out = []
    for f, s, group, z in zip(fields, sums, alphas, nonzero):
        if not z:
            out.append([0.0] * len(group))
            continue
        # A_0 = math.fsum of |f_k|^2 = re^2 + im^2, then S_1 .. S_2R
        lag = [math.fsum(v.real * v.real + v.imag * v.imag for v in f._entries.values()), *s]
        row = []
        for alpha in group:
            if alpha not in weights:
                try:
                    weights[alpha] = _weights(alpha, 2 * radius + 1)
                except OverflowError:  # the multiplier passes the largest double
                    weights[alpha] = None
            row.append(_toeplitz_norm(lag, weights[alpha]))
        out.append(row)
    return out


def _toeplitz_norm(lags, weights):
    """sqrt(w(0) A_0 + sum_m w(m) S_m), summed once with math.fsum; inf
    where the weights or a term pass the largest double."""
    if weights is None:
        return math.inf
    try:
        total = math.fsum(map(mul, weights, lags))
    except (OverflowError, ValueError):  # a partial sum past the largest double, or inf - inf
        return math.inf
    return math.sqrt(total) if total < math.inf else math.inf
