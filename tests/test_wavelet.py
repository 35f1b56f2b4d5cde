from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from despeckle.wavelet import _BANKS, _LOWPASS, Subbands, _diagonal_detail, dwt2, idwt2

from conftest import _edge_padded

BANKS = ("haar", "db2", "db4")


# ---------------------------------------------------------------- taps


def test_db1_is_haar():
    h, _ = _BANKS["haar"]
    assert_allclose(h, [1 / np.sqrt(2)] * 2, rtol=0, atol=1e-15)


@pytest.mark.parametrize("order", [1, 2, 4])
def test_tap_invariants(order):
    h, g = _BANKS[{1: "haar", 2: "db2", 4: "db4"}[order]]
    taps = h.size
    assert taps == 2 * order
    assert np.all(np.isfinite(h)) and np.all(np.isfinite(g))
    assert abs(h.sum() - np.sqrt(2)) <= 1e-10
    assert abs(h @ h - 1.0) <= 1e-10
    signs = (-1.0) ** np.arange(taps)
    assert_array_equal(g, signs * h[::-1])
    # even-shift orthonormality of the quadrature pair
    for lag in range(2, taps, 2):
        assert abs(np.dot(h[:-lag], h[lag:])) <= 1e-10
        assert abs(np.dot(g[:-lag], g[lag:])) <= 1e-10
    for lag in range(0, taps, 2):
        hh = h if lag == 0 else h[:-lag]
        assert abs(np.dot(hh, g[lag:])) <= 1e-10


def test_db2_vanishing_moments():
    _, g = _BANKS["db2"]
    assert abs(g.sum()) <= 1e-10
    assert abs(np.dot(np.arange(g.size), g)) <= 1e-10


@pytest.mark.parametrize("name", BANKS)
def test_banks_are_shared_and_read_only(name):
    h, g = _BANKS[name]
    assert_array_equal(h, _LOWPASS[name])
    for taps in (h, g):
        with pytest.raises(ValueError):
            taps[0] = 0.0


# ---------------------------------------------------------------- one level


def test_haar_constant_image():
    img = np.full((6, 8), 3.5)
    sub = dwt2(img, "haar")
    assert_allclose(sub.ca, 7.0, rtol=0, atol=1e-14)  # analysis gain sqrt(2) per pass
    for block in (sub.chd, sub.cvd, sub.cdd):
        assert_allclose(block, 0.0, rtol=0, atol=1e-14)


def test_haar_2x2_closed_form():
    a, b, c, d = 1.0, 2.0, -3.0, 5.0
    sub = dwt2(np.array([[a, b], [c, d]]), "haar")
    assert sub.ca[0, 0] == pytest.approx((a + b + c + d) / 2, abs=1e-14)
    assert sub.chd[0, 0] == pytest.approx(((a + b) - (c + d)) / 2, abs=1e-14)
    assert sub.cvd[0, 0] == pytest.approx(((a - b) + (c - d)) / 2, abs=1e-14)
    assert sub.cdd[0, 0] == pytest.approx(((a - b) - (c - d)) / 2, abs=1e-14)


def test_idwt2_linearity():
    rng = np.random.default_rng(6)
    bank = "db2"
    sub_a = dwt2(rng.standard_normal((8, 8)), bank)
    sub_b = dwt2(rng.standard_normal((8, 8)), bank)
    alpha, beta = 2.5, -1.25
    mixed = Subbands(
        ca=alpha * sub_a.ca + beta * sub_b.ca,
        chd=alpha * sub_a.chd + beta * sub_b.chd,
        cvd=alpha * sub_a.cvd + beta * sub_b.cvd,
        cdd=alpha * sub_a.cdd + beta * sub_b.cdd,
        shape=sub_a.shape,
    )
    expected = alpha * idwt2(sub_a, bank) + beta * idwt2(sub_b, bank)
    assert_allclose(idwt2(mixed, bank), expected, rtol=0, atol=1e-10)


def test_shift_covariance():
    rng = np.random.default_rng(8)
    bank = "db2"
    img = rng.standard_normal((16, 16))
    base = dwt2(img, bank)
    shifted = dwt2(np.roll(img, 2, axis=1), bank)
    for block, moved in (
        (base.ca, shifted.ca),
        (base.chd, shifted.chd),
        (base.cvd, shifted.cvd),
        (base.cdd, shifted.cdd),
    ):
        assert_allclose(moved, np.roll(block, 1, axis=1), rtol=0, atol=1e-12)


def test_zero_decomposition_reconstructs_zero():
    bank = "db2"
    assert_allclose(idwt2(dwt2(np.zeros((8, 8)), bank), bank), 0.0, rtol=0, atol=1e-14)


def test_zeroing_details_subtracts_their_contribution():
    rng = np.random.default_rng(13)
    bank = "haar"
    img = rng.standard_normal((16, 16))
    sub = dwt2(img, bank)
    zero = np.zeros_like(sub.ca)
    no_details = replace(sub, chd=zero, cvd=zero, cdd=zero)
    only_details = replace(sub, ca=zero)
    assert_allclose(idwt2(no_details, bank) + idwt2(only_details, bank), img, rtol=0, atol=1e-10)


# ---------------------------------------------------------------- oracle


def _gather_analyze_axis(x, h, g, axis):
    """Oracle: gather every tap window by modular index and reduce it."""
    n = x.shape[axis]
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(h.size)[None, :]) % n
    if axis == 1:
        windows = x[:, idx]  # (rows, n/2, taps)
        return windows @ h, windows @ g
    windows = x[idx, :]  # (n/2, taps, cols)
    return np.einsum("ntc,t->nc", windows, h), np.einsum("ntc,t->nc", windows, g)


def _scatter_synthesize_axis(lo, hi, h, g, axis):
    """Oracle: scatter each tap's contribution through modular indices."""
    half = lo.shape[axis]
    n = 2 * half
    shape = (n, lo.shape[1]) if axis == 0 else (lo.shape[0], n)
    out = np.zeros(shape, dtype=np.float64)
    base = 2 * np.arange(half)
    for k in range(h.size):
        target = (base + k) % n
        if axis == 1:
            out[:, target] += lo * h[k] + hi * g[k]
        else:
            out[target, :] += lo * h[k] + hi * g[k]
    return out


def _oracle_dwt2(img, name):
    h, g = _BANKS[name]
    lo, hi = _gather_analyze_axis(_edge_padded(img), h, g, axis=1)
    ca, chd = _gather_analyze_axis(lo, h, g, axis=0)
    cvd, cdd = _gather_analyze_axis(hi, h, g, axis=0)
    return ca, chd, cvd, cdd


def _oracle_idwt2(sub, name):
    h, g = _BANKS[name]
    lo = _scatter_synthesize_axis(sub.ca, sub.chd, h, g, axis=0)
    hi = _scatter_synthesize_axis(sub.cvd, sub.cdd, h, g, axis=0)
    full = _scatter_synthesize_axis(lo, hi, h, g, axis=1)
    return full[: sub.shape[0], : sub.shape[1]]


# Shapes whose padded axes all hold >= 4 samples: the polyphase form adds
# the same products in the same order as the oracle, so results are equal.
# 600x1100 and 1031x515 span several strips in both row passes, so they check
# that strips are cut and written back without changing a coefficient.
# Where a padded axis holds 2 samples every tap wraps onto one coefficient
# and the oracle's matmul/einsum reduction rounds differently (by ~1 ulp).
EXACT_SHAPES = [
    (256, 256), (97, 97), (17, 23), (300, 128), (4, 6), (600, 1100), (1031, 515),
    (255, 256), (256, 255), (3, 5),
]
TWO_SAMPLE_SHAPES = [(1, 9), (9, 1), (2, 2)]


@pytest.mark.parametrize("name", BANKS)
@pytest.mark.parametrize(
    "shape", EXACT_SHAPES + TWO_SAMPLE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}"
)
def test_transform_matches_gather_scatter_oracle(shape, name):
    rng = np.random.default_rng(14)
    img = rng.uniform(0.0, 255.0, size=shape)
    sub = dwt2(img, name)
    blocks = (sub.ca, sub.chd, sub.cvd, sub.cdd)
    # the seed route computes only the diagonal block, with the same
    # products in the same order as the full analysis
    assert_array_equal(_diagonal_detail(img, name), sub.cdd)
    if shape in EXACT_SHAPES:
        for block, expected in zip(blocks, _oracle_dwt2(img, name)):
            assert_array_equal(block, expected)
        assert_array_equal(idwt2(sub, name), _oracle_idwt2(sub, name))
    else:
        for block, expected in zip(blocks, _oracle_dwt2(img, name)):
            assert_allclose(block, expected, rtol=0, atol=1e-12)
        assert_allclose(idwt2(sub, name), _oracle_idwt2(sub, name), rtol=0, atol=1e-12)
