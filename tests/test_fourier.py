import math
import random

import numpy as np
import pytest

from heisencoh.coefficients import CoefficientField
from heisencoh.errors import DomainError
from heisencoh.fourier import (
    _NODES,
    _fhat_blocks,
    _GAUSS_NODES,
    _GAUSS_WEIGHTS,
    _panel_nodes,
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
    assert abs(sobolev_norm(delta, 1.0) - math.sqrt(3 + 8 / math.pi)) < 1e-10


def test_sobolev_unit_delta_alpha0_is_exactly_one():
    # Parseval: the integrand is exactly 1, so the correctly rounded
    # quadrature sum must be exactly 1 whatever numpy's summation order.
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


def _gauss_panels(n_panels):
    """Every node and weight of the composite rule, panel by panel: node j
    of panel p at index 24 p + j."""
    nodes, weights = np.array(_GAUSS_NODES), np.array(_GAUSS_WEIGHTS)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    xi = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return xi, w


def batched_fhat_on_panels(f, n_panels, xi):
    """The FFT evaluation of ``_fhat_blocks`` on all 24 node rows at once,
    with np.add.at folding: the reference the blocks must equal bit for bit.
    Values at the nodes xi of ``_gauss_panels(n_panels)``, in their order."""
    nodes = np.array(_GAUSS_NODES)
    items = f.items()
    k = np.array([key for (key,), _ in items], dtype=np.int64)
    v = np.array([val for _, val in items], dtype=complex)
    twisted = v * np.exp(-1j * np.pi * k * (1.0 + nodes[:, None]) / n_panels)
    folded = np.zeros((2, _NODES, n_panels), dtype=complex)
    np.add.at(folded[0], (slice(None), k % n_panels), twisted)
    twisted *= -2j * np.pi * k
    np.add.at(folded[1], (slice(None), k % n_panels), twisted)
    np.fft.fft(folded, axis=2, out=folded)
    value, slope = folded.transpose(0, 2, 1).reshape(2, -1)
    two_p = 2.0 * n_panels
    odd = np.repeat(2.0 * np.arange(n_panels) + 1.0, _NODES)
    split = 134217729.0 * xi
    hi = split - (split - xi)
    lo = xi - hi
    delta = ((hi * two_p - odd - np.tile(nodes, n_panels)) + lo * two_p) / two_p
    return value + delta * slope


def batched_sobolev_norms(f, alphas):
    """``sobolev_norms`` with every node in one array: the reference."""
    n_panels = max(4, f.support_radius())
    xi, w = _gauss_panels(n_panels)
    fh = batched_fhat_on_panels(f, n_panels, xi)
    base = 1.0 + 2.0 * np.sin(np.pi * xi)
    return [math.sqrt(math.fsum((w * np.abs(base**a * fh) ** 2).tolist())) for a in alphas]


def sobolev_norms_direct(f, alphas):
    """The quadrature of ``sobolev_norms`` with f_hat summed mode by mode at
    every node by ``fhat``: O(R^2), the oracle for the FFT evaluation."""
    xi, w = _gauss_panels(max(4, f.support_radius()))
    fh = fhat(f, xi)
    base = 1.0 + 2.0 * np.sin(np.pi * xi)
    return [math.sqrt(math.fsum((w * np.abs(base**a * fh) ** 2).tolist())) for a in alphas]


def seeded_field(radius, sparse):
    """c_k = (x + iy) / (1 + |k|) on [-radius, radius], or on a random fifth
    of it that keeps both ends, with x, y standard normal."""
    r = random.Random(radius * 2 + sparse)
    ks = range(-radius, radius + 1)
    if sparse:
        ks = sorted({-radius, radius} | set(r.sample(ks, (2 * radius + 1) // 5)))
    return CoefficientField(1, {(k,): complex(r.gauss(0, 1), r.gauss(0, 1)) / (1 + abs(k))
                                for k in ks})


SOBOLEV_RADII = sorted(set(range(1, 41)) | {57, 59, 64, 103, 128, 200, 256, 300})


@pytest.mark.parametrize("radius", SOBOLEV_RADII)
def test_sobolev_fft_matches_direct_sum(radius):
    # The FFT and the direct sum round differently; 2 ulp is the most seen on
    # these fields, and 4 ulp is allowed.
    alphas = [0.0, 1.0, 1.5, 2.0]
    for sparse in (False, True):
        f = seeded_field(radius, sparse)
        for got, want in zip(sobolev_norms(f, alphas), sobolev_norms_direct(f, alphas)):
            assert abs(got - want) <= 4 * math.ulp(want), (radius, sparse, got, want)


def test_sobolev_fft_values_match_direct_sum_at_every_node():
    for radius in (4, 9, 33, 256):
        f = seeded_field(radius, False)
        n_panels = max(4, radius)
        scale = sum(abs(v) for _, v in f.items())
        for rows, fh in _fhat_blocks(f, n_panels):
            xi, _ = _panel_nodes(n_panels, rows)
            err = np.max(np.abs(fh - fhat(f, xi)))
            assert err <= 1e-14 * scale, radius  # 3e-15 * scale seen at radius 256


@pytest.mark.parametrize("radius", sorted(set(range(1, 41)) | {57, 64, 100, 103, 255, 256, 257,
                                                                1000, 4096}))
def test_fhat_blocks_and_norms_equal_the_batched_reference(radius):
    # blocks of node rows and in-order slab additions change no bit: every
    # f_hat value and every correctly rounded norm is the batched one's
    alphas = [0.0, 0.5, 1.0, 1.5, 2.0, 3.7]
    for sparse in (False, True):
        f = seeded_field(radius, sparse)
        n_panels = max(4, radius)
        xi, _ = _gauss_panels(n_panels)
        want = batched_fhat_on_panels(f, n_panels, xi).reshape(n_panels, _NODES)
        covered = []
        for rows, fh in _fhat_blocks(f, n_panels):
            covered.extend(range(_NODES)[rows])
            assert fh.tobytes() == np.ascontiguousarray(want[:, rows].T).tobytes(), (radius, rows)
        assert covered == list(range(_NODES))
        if radius >= 1000 and not sparse:
            assert len(list(_fhat_blocks(f, n_panels))) > 1  # the rows come in blocks
        assert sobolev_norms(f, alphas) == batched_sobolev_norms(f, alphas), (radius, sparse)


def test_quadrature_constants_are_leggauss_24():
    nodes, weights = np.polynomial.legendre.leggauss(24)
    assert _GAUSS_NODES == tuple(nodes.tolist())
    assert _GAUSS_WEIGHTS == tuple(weights.tolist())


def test_sobolev_rejects_negative_alpha():
    for alpha in (-0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            sobolev_norm(CoefficientField(1, {(0,): 1.0}), alpha)
