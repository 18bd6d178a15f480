import math
import random

import mpmath
import numpy as np
import pytest

from heisencoh.coefficients import CoefficientField
from heisencoh.errors import DomainError
from heisencoh.fourier import (
    _GAUSS_NODES,
    _GAUSS_WEIGHTS,
    MAX_POINTS,
    _fft,
    _lag_sums,
    _roots,
    _weights,
    dft,
    fhat,
    inverse_dft,
    sobolev_norm,
    sobolev_norms,
)

rng = np.random.default_rng(1729)


def dft_direct(h):
    """O(N^2) direct-sum oracle: H_k = sum_i h_i conj(w)^(ik)."""
    h = np.asarray(h, dtype=complex)
    n = len(h)
    i = np.arange(n)
    w_bar = np.exp(-2j * np.pi / n)
    return np.array([np.sum(h * w_bar ** (i * k)) for k in range(n)])


def test_dft_constant_and_delta():
    n = 16
    assert np.allclose(dft(np.ones(n)), np.eye(n)[0] * n, atol=1e-12)
    delta = np.zeros(n)
    delta[0] = 1.0
    assert np.allclose(dft(delta), np.ones(n), atol=1e-12)


def test_dft_matches_direct_sum_oracle():
    for n in (2, 3, 8, 17, 64):
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.max(np.abs(dft(h) - dft_direct(h))) < 1e-10


def test_inverse_round_trip():
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.max(np.abs(inverse_dft(dft(h)) - h)) < 1e-12
    assert np.max(np.abs(dft(inverse_dft(h)) - h)) < 1e-12


def test_plancherel():
    for n in (4, 64, 1024):
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.sum(np.abs(dft(h)) ** 2)
        rhs = n * np.sum(np.abs(h) ** 2)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)


# exact cyclotomic model: represent sums of w^j as integer vectors mod x^N - 1


def _dft_poly(h):
    n = len(h)
    out = []
    for k in range(n):
        vec = [0] * n
        for i, hi in enumerate(h):
            vec[(-i * k) % n] += hi
        out.append(vec)
    return out


def _rotate(vec, shift):
    n = len(vec)
    return [vec[(i - shift) % n] for i in range(n)]


def test_difference_symbol_exact_cyclotomic():
    """DFT of the periodic difference equals multiplication by (1 - conj(w)^k),
    verified exactly over Z[i][w]/(w^N - 1)."""
    rnd = np.random.default_rng(5)
    for n in (2, 3, 5, 8, 16, 64):
        h = [complex(a, b) for a, b in zip(rnd.integers(-9, 10, n), rnd.integers(-9, 10, n))]
        dh = [h[i] - h[(i - 1) % n] for i in range(n)]
        lhs = _dft_poly(dh)
        base = _dft_poly(h)
        for k in range(n):
            rot = _rotate(base[k], (-k) % n)  # multiplication by conj(w)^k = w^(n-k)
            rhs = [a - b for a, b in zip(base[k], rot)]
            assert lhs[k] == rhs


def test_difference_fourier_identity():
    # the forward difference (Delta f)(k) = f(k) - f(k - 1) has the symbol
    # 1 - exp(-2 pi i xi), the one in the Sobolev multiplier
    f = CoefficientField(1, {(k,): complex(*rng.standard_normal(2)) for k in range(-6, 7)})
    delta = CoefficientField(1, {(k,): f.get(k) - f.get(k - 1) for k in range(-6, 8)})
    xi = (np.arange(64) + 0.5) / 64
    lhs = fhat(delta, xi)
    rhs = (1 - np.exp(-2j * np.pi * xi)) * fhat(f, xi)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_sobolev_alpha0_is_l2():
    for _ in range(20):
        f = CoefficientField(
            1, {(int(k),): complex(*rng.standard_normal(2)) for k in rng.integers(-30, 31, 9)}
        )
        assert abs(sobolev_norm(f, 0.0) - f.norm_l2()) < 1e-10 * max(1.0, f.norm_l2())


def test_sobolev_delta_closed_form():
    # integral of (1 + 2 sin(pi xi))^2 over [0,1] is 3 + 8/pi
    delta = CoefficientField(1, {(0,): 1.0})
    assert sobolev_norm(delta, 1.0) == math.sqrt(3 + 8 / math.pi)


def test_sobolev_unit_delta_alpha0_is_exactly_one():
    # Parseval: the integrand is exactly 1, and so is the norm
    assert sobolev_norm(CoefficientField(1, {(0,): 1.0}), 0.0) == 1.0


def test_sobolev_monotone_in_alpha():
    f = CoefficientField(1, {(k,): complex(*rng.standard_normal(2)) for k in range(-8, 9)})
    norms = [sobolev_norm(f, a) for a in (0.0, 0.5, 1.0, 2.0)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_sobolev_norm_axioms():
    for _ in range(20):
        f = CoefficientField(1, {(k,): complex(*rng.standard_normal(2)) for k in range(-5, 6)})
        g = CoefficientField(1, {(k,): complex(*rng.standard_normal(2)) for k in range(-5, 6)})
        a = 1.3
        assert abs(sobolev_norm(f.scale(-2.5), a) - 2.5 * sobolev_norm(f, a)) < 1e-10
        assert sobolev_norm(f + g, a) <= sobolev_norm(f, a) + sobolev_norm(g, a) + 1e-10


def seeded_field(radius, sparse):
    """c_k = (x + iy) / (1 + |k|) on [-radius, radius], or on a random fifth
    of it that keeps both ends, with x, y standard normal."""
    r = random.Random(radius * 2 + sparse)
    ks = range(-radius, radius + 1)
    if sparse:
        ks = sorted({-radius, radius} | set(r.sample(ks, (2 * radius + 1) // 5)))
    return CoefficientField(1, {(k,): complex(r.gauss(0, 1), r.gauss(0, 1)) / (1 + abs(k))
                                for k in ks})


def lag_sums_direct(f):
    """[A_0, 2 Re A_1, ..., 2 Re A_2R] for A_m = sum_k f_(k+m) conj(f_k),
    each summed mode by mode with math.fsum: O(R^2), the oracle for the
    transforms."""
    e = {k: v for (k,), v in f.items()}
    radius = f.support_radius()
    out = []
    for m in range(2 * radius + 1):
        terms = [(e[k + m] * v.conjugate()).real for k, v in e.items() if k + m in e]
        out.append(math.fsum(terms) * (2 if m else 1))
    return out


SOBOLEV_RADII = sorted(set(range(1, 41)) | {57, 59, 64, 103, 128, 200, 256, 300})


@pytest.mark.parametrize("radius", SOBOLEV_RADII)
def test_sobolev_fft_matches_direct_sum(radius):
    # the Toeplitz sum over autocorrelations from the transforms, against
    # the same sum over autocorrelations summed mode by mode; 3e-16
    # relative is the most seen on these fields
    alphas = [0.0, 1.0, 1.5, 2.0]
    for sparse in (False, True):
        f = seeded_field(radius, sparse)
        lags = lag_sums_direct(f)
        for alpha, got in zip(alphas, sobolev_norms([f], [alphas])[0]):
            want = math.sqrt(math.fsum(w * a for w, a in zip(_weights(alpha, len(lags)), lags)))
            assert abs(got - want) <= 1e-15 * want, (radius, sparse, alpha, got, want)


def test_sobolev_fft_values_match_direct_sum_at_every_node():
    # the transform of f placed at k mod n is f_hat at the n nodes j / n
    for radius in (4, 9, 33, 256):
        f = seeded_field(radius, False)
        n = 1 << (4 * radius - 1).bit_length()
        x = [0j] * n
        for (k,), v in f.items():
            x[k % n] = v
        got = np.array(_fft(x, _roots(n)))
        scale = sum(abs(v) for _, v in f.items())
        err = np.max(np.abs(got - fhat(f, np.arange(n) / n)))
        assert err <= 1e-14 * scale, radius


@pytest.mark.parametrize("bits", range(12))
def test_fft_matches_the_direct_dft(bits):
    # every length the transform takes is a power of two: lengths up to
    # 2^11 against the O(n^2) direct sum; MAX_POINTS is one more power
    n = 1 << bits
    r = random.Random(bits)
    h = [complex(r.gauss(0, 1), r.gauss(0, 1)) for _ in range(n)]
    i = np.arange(n)
    want = np.exp(-2j * np.pi * (np.outer(i, i) % n) / n) @ np.array(h)
    got = np.array(_fft(list(h), _roots(n)))
    # 3.6e-16 (bits + 1) sqrt(n) is the most seen, against a reference that rounds too
    assert np.max(np.abs(got - want)) <= 4e-16 * (bits + 1) * math.sqrt(n)
    assert MAX_POINTS & (MAX_POINTS - 1) == 0


def mp_weights(alpha, count):
    """w(0..count-1) from the recurrence of ``_weights`` in mpmath at 50
    digits, started from c_0 and y_1 by mpmath.quad."""
    with mpmath.workdps(50):
        beta = 2 * mpmath.mpf(alpha)
        F = lambda t: (1 + 2 * mpmath.sin(t)) ** beta  # noqa: E731
        ends = [0, mpmath.pi / 4, mpmath.pi / 2]
        x = 2 / mpmath.pi * mpmath.quad(F, ends)
        y = -2 / mpmath.pi * mpmath.quad(lambda t: F(t) * mpmath.sin(t), ends)
        out = [x]
        for m in range(1, count):
            x = ((2 * m - 2 - beta) * x - (2 * m - 1) * y - 2 / mpmath.pi) / (2 * m + beta)
            y = ((2 * m - 1 - beta) * y + 2 * m * x) / (2 * m + 1 + beta)
            out.append(x)
        return out


def mp_weight_by_quad(alpha, m):
    """w(m) = (2/pi) int_0^(pi/2) (1 + 2 sin t)^(2 alpha) cos(2 m t) dt by
    mpmath.quad at 50 digits, on a panel per half period."""
    with mpmath.workdps(50):
        ends = [mpmath.pi / 2 * j / (2 * m + 1) for j in range(2 * m + 2)]
        beta = 2 * mpmath.mpf(alpha)
        return 2 / mpmath.pi * mpmath.quad(
            lambda t: (1 + 2 * mpmath.sin(t)) ** beta * mpmath.cos(2 * m * t), ends)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 3.0])
def test_weights_match_mpmath(alpha):
    # the recurrence in mpmath agrees with the integral where both are
    # taken, and the doubles with the recurrence for every m <= 2048 to
    # 4e-16 of the largest weight (1.6e-16 is the most seen)
    want = mp_weights(alpha, 2049)
    for m in (0, 1, 2, 5, 30):
        assert abs(want[m] - mp_weight_by_quad(alpha, m)) < mpmath.mpf(10) ** -40
    got = _weights(alpha, 2049)
    scale = float(max(abs(w) for w in want))
    assert max(abs(g - float(w)) for g, w in zip(got, want)) <= 4e-16 * scale


def mp_sobolev_norm(f, alpha, weights):
    """The integral as the Toeplitz sum, in mpmath at 50 digits: the
    autocorrelations exactly from the doubles of f, the weights of
    ``mp_weights``."""
    with mpmath.workdps(50):
        e = {k: mpmath.mpc(v.real, v.imag) for (k,), v in f.items()}
        total = mpmath.mpf(0)
        for m in range(2 * f.support_radius() + 1):
            a = mpmath.fsum(e[k + m] * mpmath.conj(v) for k, v in e.items() if k + m in e)
            total += weights[m] * (a.real if m == 0 else 2 * a.real)
        return mpmath.sqrt(total)


def test_sobolev_norm_is_the_integral_in_mpmath():
    # the Toeplitz sum is the integral: checked by mpmath.quad on small fields
    with mpmath.workdps(50):
        for radius, alpha in ((1, 0.25), (3, 1.5), (4, 3.0)):
            f = seeded_field(radius, False)
            e = {k: mpmath.mpc(v.real, v.imag) for (k,), v in f.items()}

            def integrand(xi):
                fh = mpmath.fsum(v * mpmath.expjpi(-2 * k * xi) for k, v in e.items())
                return (1 + 2 * mpmath.sinpi(xi)) ** (2 * alpha) * abs(fh) ** 2

            ends = [mpmath.mpf(j) / (4 * radius + 2) for j in range(4 * radius + 3)]
            want = mpmath.sqrt(mpmath.quad(integrand, ends))
            toeplitz = mp_sobolev_norm(f, alpha, mp_weights(alpha, 2 * radius + 1))
            assert abs(toeplitz - want) < mpmath.mpf(10) ** -40 * want
            assert abs(sobolev_norm(f, alpha) - want) <= 1e-13 * want


@pytest.mark.parametrize("radius", [1, 2, 3, 5, 8, 13, 31, 32, 33, 57, 64])
def test_sobolev_norm_matches_mpmath(radius):
    # within 1e-13 relative of mpmath at 50 digits; 3e-16 is the most seen
    for alpha in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
        weights = mp_weights(alpha, 2 * radius + 1) if alpha else [1] + [0] * (2 * radius)
        for sparse in (False, True):
            f = seeded_field(radius, sparse)
            want = mp_sobolev_norm(f, alpha, weights)
            assert abs(sobolev_norm(f, alpha) - want) <= 1e-13 * want, (radius, alpha, sparse)


def test_sobolev_norm_at_alpha0_is_the_l2_norm_bit_for_bit():
    for radius in range(1, 129):
        for sparse in (False, True):
            f = seeded_field(radius, sparse)
            want = math.sqrt(math.fsum(v.real * v.real + v.imag * v.imag for _, v in f.items()))
            assert sobolev_norm(f, 0.0) == want, (radius, sparse)


def test_two_fields_share_their_transforms():
    # the norms of f and g from one inverse transform, against each alone
    f, g = seeded_field(40, False), seeded_field(25, True)
    alphas = [0.0, 0.5, 2.0]
    both = sobolev_norms([f, g], [alphas, alphas])
    alone = [sobolev_norms([h], [alphas])[0] for h in (f, g)]
    for row, want in zip(both, alone):
        for a, b in zip(row, want):
            assert abs(a - b) <= 2e-16 * b


@pytest.mark.parametrize("radius", sorted(set(range(1, 41)) | {57, 64, 100, 103, 255, 256, 257,
                                                                1000, 4096}))
def test_fhat_blocks_and_norms_equal_the_batched_reference(radius):
    # f_hat on the transform grid, the lag sums and the norms against
    # numpy's batched transforms of the same length: the pure-Python
    # transform changes only the rounding.  Most seen: 1.1e-16 log2(n) of
    # sum |f_k| for f_hat, 8e-17 log2(n) of A_0 for the lag sums, 3e-16
    # relative for the norms; at alpha = 0 the norm is bit for bit the same
    alphas = [0.0, 0.5, 1.0, 1.5, 2.0, 3.7]
    for sparse in (False, True):
        f = seeded_field(radius, sparse)
        n = 1 << (4 * radius - 1).bit_length()
        x = np.zeros(n, dtype=complex)
        for (k,), v in f.items():
            x[k % n] = v
        spectrum = np.fft.fft(x)
        scale = sum(abs(v) for _, v in f.items())
        got = np.array(_fft(x.tolist(), _roots(n)))
        assert np.max(np.abs(got - spectrum)) <= 2e-16 * math.log2(n) * scale, (radius, sparse)
        c = np.fft.ifft(np.abs(spectrum) ** 2)
        m = np.arange(1, 2 * radius + 1)
        lags = np.where(2 * m < n, c[m] + c[(n - m) % n], c[m]).real.tolist()
        a0 = math.fsum(v.real * v.real + v.imag * v.imag for _, v in f.items())
        err = max(abs(a - b) for a, b in zip(_lag_sums([f], radius)[0], lags))
        assert err <= 2e-16 * math.log2(n) * a0, (radius, sparse)
        want = [math.sqrt(math.fsum(w * a for w, a in zip(_weights(alpha, 2 * radius + 1),
                                                          [a0, *lags])))
                for alpha in alphas]
        norms = sobolev_norms([f], [alphas])[0]
        assert norms[0] == want[0], (radius, sparse)
        for alpha, a, b in zip(alphas, norms, want):
            assert abs(a - b) <= 1e-15 * b, (radius, sparse, alpha, a, b)


def test_quadrature_constants_are_leggauss_24():
    nodes, weights = np.polynomial.legendre.leggauss(24)
    assert _GAUSS_NODES == tuple(nodes.tolist())
    assert _GAUSS_WEIGHTS == tuple(weights.tolist())


def test_sobolev_rejects_negative_alpha():
    for alpha in (-0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            sobolev_norm(CoefficientField(1, {(0,): 1.0}), alpha)
