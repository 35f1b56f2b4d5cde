import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import despeckle.pipeline as pipeline_mod
from despeckle.image import log_domain
from despeckle.metrics import nmv_nv_nsd
from despeckle.pipeline import (
    CalibrationResult,
    PipelineConfig,
    calibrate,
    despeckle,
    initial_threshold,
    lee_filter,
    median_filter_homomorphic,
    shrink_once,
    trace_to_csv,
)
from despeckle.speckle import SpeckleSpec, apply_speckle
from despeckle.thresholding import hard_threshold, mad_sigma
from despeckle.wavelet import bank_by_name, dwt2


# ---------------------------------------------------------------- shrink_once


def test_shrink_once_zero_threshold_is_identity():
    rng = np.random.default_rng(30)
    img = rng.uniform(0, 255, size=(32, 32))
    out = shrink_once(img, 0.0)
    assert np.abs(out - img).max() <= 1e-10


def test_shrink_once_zero_threshold_identity_odd_dims():
    rng = np.random.default_rng(31)
    img = rng.uniform(0, 255, size=(15, 21))
    assert np.abs(shrink_once(img, 0.0) - img).max() <= 1e-10


def test_shrink_once_huge_threshold_keeps_approximation_only():
    rng = np.random.default_rng(32)
    cfg = PipelineConfig(wavelet="db2", shrink="soft")
    img = rng.uniform(1, 200, size=(16, 16))
    sub = dwt2(log_domain(img, cfg.bias), cfg.bank())
    lam = max(np.abs(b).max() for b in (sub.chd, sub.cvd, sub.cdd)) + 1.0
    from dataclasses import replace

    zero = np.zeros_like(sub.ca)
    ca_only = replace(sub, chd=zero, cvd=zero, cdd=zero)
    from despeckle.image import exp_domain
    from despeckle.wavelet import idwt2

    expected = np.maximum(exp_domain(idwt2(ca_only, cfg.bank()), cfg.bias), 0.0)
    assert_allclose(shrink_once(img, lam, cfg), expected, rtol=0, atol=1e-10)


def test_shrink_once_smooths_speckled_constant():
    img = np.full((64, 64), 100.0)
    noisy = apply_speckle(img, SpeckleSpec(kind="gamma", looks=3, seed=1))
    out = shrink_once(noisy, 0.5)
    assert nmv_nv_nsd(out)[1] < nmv_nv_nsd(noisy)[1]


def test_shrink_once_preserves_shape_and_nonnegativity():
    rng = np.random.default_rng(33)
    img = rng.uniform(0, 50, size=(17, 19))
    out = shrink_once(img, 3.0)
    assert out.shape == img.shape
    assert np.all(out >= 0.0)


def test_shrink_once_rejects_negative_threshold():
    with pytest.raises(ValueError):
        shrink_once(np.ones((4, 4)), -1.0)


def test_detail_energy_monotone_in_threshold():
    rng = np.random.default_rng(34)
    img = rng.uniform(1, 255, size=(32, 32))
    sub = dwt2(log_domain(img, 1.0), bank_by_name("haar"))

    def retained(lam):
        return sum(
            float(np.sum(hard_threshold(b, lam) ** 2)) for b in (sub.chd, sub.cvd, sub.cdd)
        )

    lams = [0.0, 0.05, 0.1, 0.5, 1.0]
    energies = [retained(lam) for lam in lams]
    assert all(a >= b for a, b in zip(energies, energies[1:]))


# ---------------------------------------------------------------- initial threshold


def test_initial_threshold_subband_selection():
    rng = np.random.default_rng(35)
    img = rng.uniform(1, 255, size=(32, 32))
    cfg = PipelineConfig()
    sub = dwt2(log_domain(img, cfg.bias), cfg.bank())
    chd, cvd, cdd = sub.chd, sub.cvd, sub.cdd
    est = initial_threshold(img, PipelineConfig(seed_subband="cdd"))
    assert est.delta_mad == pytest.approx(mad_sigma(cdd), rel=1e-12)
    assert est.n == cdd.size
    pooled = initial_threshold(img, PipelineConfig(seed_subband="pooled"))
    stacked = np.concatenate([chd.ravel(), cvd.ravel(), cdd.ravel()])
    assert pooled.delta_mad == pytest.approx(mad_sigma(stacked), rel=1e-12)
    assert pooled.n == 3 * cdd.size


def test_initial_threshold_small_for_smooth_image():
    cols = np.linspace(10.0, 20.0, 64)
    smooth = np.tile(cols, (64, 1))
    noisy_est = initial_threshold(
        apply_speckle(smooth, SpeckleSpec(kind="gamma", looks=1, seed=2))
    )
    smooth_est = initial_threshold(smooth)
    assert smooth_est.lam < 0.1 * noisy_est.lam


def test_initial_threshold_tracks_log_noise_level():
    # additive Gaussian noise in the log domain: the subband estimate should
    # land within 5% of the true detail standard deviation
    rng = np.random.default_rng(36)
    sigma = 0.25
    logged = rng.normal(3.0, sigma, size=(256, 256))
    img = np.exp(logged) - 1.0
    est = initial_threshold(img, PipelineConfig(seed_subband="cdd"))
    subband_std = float(dwt2(np.log(img + 1.0), bank_by_name("haar")).cdd.std())
    assert est.delta_mad == pytest.approx(subband_std, rel=0.05)


def test_initial_threshold_rejects_too_small_image():
    with pytest.raises(ValueError, match=r"image \(2, 2\).*'cdd' subband holds 1 coefficient"):
        initial_threshold(np.full((2, 2), 10.0))
    with pytest.raises(ValueError, match=r"image \(2, 2\)"):
        calibrate(np.full((2, 2), 10.0), SpeckleSpec(kind="gamma", looks=3, seed=1))
    # pooling the three detail blocks gives enough coefficients
    assert initial_threshold(np.full((2, 2), 10.0), PipelineConfig(seed_subband="pooled")).n == 3


# ---------------------------------------------------------------- calibration


def _small_phantom():
    img = np.full((64, 64), 128.0)
    img[8:24, 36:52] = 64.0
    img[36:52, 8:24] = 192.0
    return img


def test_calibrate_zero_error_fixed_point(monkeypatch):
    # degenerate unit speckle: the seed threshold is already exact
    monkeypatch.setattr(pipeline_mod, "apply_speckle", lambda img, spec: img.copy())
    result = calibrate(_small_phantom(), SpeckleSpec(seed=0), max_iter=50)
    assert result.converged
    assert result.iterations == 1
    assert abs(result.trace[0].e) <= 1e-9


def test_calibrate_trace_contract():
    result = calibrate(
        _small_phantom(),
        SpeckleSpec(kind="gamma", looks=3, seed=5),
        max_iter=20,
    )
    assert isinstance(result, CalibrationResult)
    assert 1 <= result.iterations <= 20
    assert len(result.trace) == result.iterations
    for t, step in enumerate(result.trace, start=1):
        assert step.iteration == t
        assert step.me == abs(step.e)
    for prev, cur in zip(result.trace, result.trace[1:]):
        assert cur.de == pytest.approx(cur.e - prev.e, rel=1e-12, abs=1e-12)
    assert result.trace[0].de == result.trace[0].e  # historical error starts at zero
    # best-threshold tracking returns the first trace row attaining the
    # smallest error magnitude
    errors = [s.me for s in result.trace]
    assert result.lambda_star == result.trace[int(np.argmin(errors))].lam
    if result.converged:
        assert result.trace[-1].me <= 0.02 * 192.0


def test_calibrate_lambda_never_negative():
    result = calibrate(
        _small_phantom(), SpeckleSpec(kind="gamma", looks=1, seed=9), max_iter=40
    )
    assert all(step.lam >= 0.0 for step in result.trace)
    assert result.lambda_star >= 0.0


def test_calibrate_vacuous_epsilon_converges_immediately():
    result = calibrate(
        _small_phantom(), SpeckleSpec(kind="gamma", looks=3, seed=6), epsilon=1e9
    )
    assert result.converged and result.iterations == 1


def test_calibrate_deterministic():
    args = (_small_phantom(), SpeckleSpec(kind="gamma", looks=3, seed=7))
    a = calibrate(*args, max_iter=15)
    b = calibrate(*args, max_iter=15)
    assert a == b


def test_calibrate_best_lambda_no_mse_regression():
    clean = _small_phantom()
    spec = SpeckleSpec(kind="gamma", looks=3, seed=8)
    result = calibrate(clean, spec, max_iter=30)
    noisy = apply_speckle(clean, spec)
    mse_star = float(((despeckle(noisy, result.lambda_star) - clean) ** 2).mean())
    mse_seed = float(((despeckle(noisy, result.initial_lambda) - clean) ** 2).mean())
    assert mse_star <= mse_seed + 1e-12


def test_calibrate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        calibrate(_small_phantom(), SpeckleSpec(seed=0), max_iter=0)
    with pytest.raises(ValueError):
        calibrate(_small_phantom(), SpeckleSpec(seed=0), epsilon=-1.0)
    with pytest.raises(ValueError):
        calibrate(np.zeros((8, 8)), SpeckleSpec(seed=0))


def test_trace_csv_round_trip():
    result = calibrate(
        _small_phantom(), SpeckleSpec(kind="gamma", looks=3, seed=10), max_iter=5
    )
    text = trace_to_csv(result.trace)
    lines = text.strip().split("\n")
    assert lines[0] == "iter,e,de,dlambda,lambda,me"
    assert len(lines) - 1 == result.iterations
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[4]) == result.trace[0].lam


# ---------------------------------------------------------------- despeckle


def test_despeckle_zero_threshold_identity():
    rng = np.random.default_rng(37)
    img = rng.uniform(0, 255, size=(32, 32))
    assert np.abs(despeckle(img, 0.0) - img).max() <= 1e-10


@pytest.mark.parametrize("shape", [(1, 40), (40, 1)], ids=["1x40", "40x1"])
def test_despeckle_zero_threshold_identity_thin(shape):
    rng = np.random.default_rng(38)
    img = rng.uniform(0, 255, size=shape)
    for wavelet in ("haar", "db2", "db4"):
        out = despeckle(img, 0.0, PipelineConfig(wavelet=wavelet))
        assert out.shape == shape
        assert np.abs(out - img).max() <= 1e-10


def test_despeckle_reduces_variance_on_benchmark():
    clean = _small_phantom()
    spec = SpeckleSpec(kind="gamma", looks=3, seed=11)
    result = calibrate(clean, spec, max_iter=30)
    fresh = apply_speckle(clean, SpeckleSpec(kind="gamma", looks=3, seed=12))
    out = despeckle(fresh, result.lambda_star)
    assert nmv_nv_nsd(out)[1] < nmv_nv_nsd(fresh)[1]


def test_despeckle_deterministic():
    rng = np.random.default_rng(38)
    img = rng.uniform(0, 255, size=(16, 16))
    assert_array_equal(despeckle(img, 1.5), despeckle(img, 1.5))


# ---------------------------------------------------------------- baselines


def test_median_constant_unchanged():
    img = np.full((16, 16), 42.0)
    assert_allclose(median_filter_homomorphic(img, 3), img, rtol=0, atol=1e-10)


def test_median_removes_impulse():
    img = np.full((16, 16), 10.0)
    img[8, 8] = 1000.0
    out = median_filter_homomorphic(img, 3)
    assert out[8, 8] == pytest.approx(10.0, rel=1e-10)


def _window_oracle(img, kernel, reducer):
    half = kernel // 2
    padded = np.pad(img, half, mode="edge")
    out = np.empty_like(img)
    for r in range(img.shape[0]):
        for c in range(img.shape[1]):
            out[r, c] = reducer(padded[r : r + kernel, c : c + kernel])
    return out


def test_median_matches_brute_force_oracle():
    rng = np.random.default_rng(39)
    img = rng.uniform(0, 255, size=(16, 16))
    got = median_filter_homomorphic(img, 3, bias=1.0)
    logged = np.log(img + 1.0)
    want = np.exp(_window_oracle(logged, 3, np.median)) - 1.0
    assert_allclose(got, want, rtol=0, atol=1e-10)


def test_lee_matches_brute_force_oracle():
    rng = np.random.default_rng(40)
    img = rng.uniform(0, 255, size=(16, 16))
    ratio = 1.0 / 3.0
    got = lee_filter(img, 3, ratio)
    mean = _window_oracle(img, 3, np.mean)
    var = _window_oracle(img, 3, lambda w: np.mean((w - np.mean(w)) ** 2))
    gain = np.where(var > 0, np.maximum(var - mean * mean * ratio, 0.0) / np.where(var > 0, var, 1.0), 0.0)
    want = mean + gain * (img - mean)
    assert_allclose(got, want, rtol=0, atol=1e-10)


def test_lee_constant_region_returns_mean():
    img = np.full((12, 12), 77.0)
    assert_allclose(lee_filter(img, 5, 0.5), img, rtol=0, atol=1e-12)


def test_lee_zero_noise_is_identity():
    rng = np.random.default_rng(41)
    img = rng.uniform(0, 255, size=(16, 16))
    assert_allclose(lee_filter(img, 3, 0.0), img, rtol=0, atol=1e-10)


def test_lee_smooths_gamma_speckle():
    img = np.full((64, 64), 100.0)
    noisy = apply_speckle(img, SpeckleSpec(kind="gamma", looks=3, seed=13))
    out = lee_filter(noisy, 5, 1.0 / 3.0)
    assert nmv_nv_nsd(out)[1] < nmv_nv_nsd(noisy)[1]


@pytest.mark.parametrize(
    "func",
    [
        lambda img: median_filter_homomorphic(img, 4),
        lambda img: lee_filter(img, 2),
        lambda img: median_filter_homomorphic(img, 33),
        lambda img: lee_filter(img, 33),
    ],
)
def test_baseline_kernel_validation(func):
    with pytest.raises(ValueError):
        func(np.ones((16, 16)))


def test_filters_preserve_shape_and_nonnegativity():
    rng = np.random.default_rng(43)
    img = rng.uniform(0, 200, size=(21, 17))
    for out in (
        median_filter_homomorphic(img, 3),
        lee_filter(img, 3, 0.3),
        shrink_once(img, 1.0),
    ):
        assert out.shape == img.shape
        assert np.all(out >= 0.0)


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(shrink="firm")
    with pytest.raises(ValueError):
        PipelineConfig(seed_subband="ca")
    with pytest.raises(ValueError):
        PipelineConfig(bias=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(wavelet="db15")
