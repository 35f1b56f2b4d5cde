import json
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import despeckle.pipeline as pipeline_mod
import despeckle.wavelet as wavelet_mod
from despeckle.fuzzy import control_step
from despeckle.image import exp_domain, log_domain
from despeckle.metrics import deflection_ratio, enl_blocked, full_report, msd, nmv_nv_nsd
from despeckle.pipeline import (
    CalibrationResult,
    PipelineConfig,
    calibrate,
    despeckle,
    initial_threshold,
    lee_filter,
    median_filter_homomorphic,
    trace_to_csv,
)
from despeckle.speckle import SpeckleSpec, apply_speckle
from despeckle.thresholding import hard_threshold, mad_sigma, soft_threshold, universal_threshold
from despeckle.wavelet import Subbands, dwt2, idwt2

from conftest import _detail_magnitudes, _reference_calibrate, make_phantom


# ---------------------------------------------------------------- despeckle


def test_shrink_once_zero_threshold_is_identity():
    rng = np.random.default_rng(30)
    img = rng.uniform(0, 255, size=(32, 32))
    out = despeckle(img, 0.0)
    assert np.abs(out - img).max() <= 1e-10


def test_shrink_once_zero_threshold_identity_odd_dims():
    rng = np.random.default_rng(31)
    img = rng.uniform(0, 255, size=(15, 21))
    assert np.abs(despeckle(img, 0.0) - img).max() <= 1e-10


def test_shrink_once_huge_threshold_keeps_approximation_only():
    rng = np.random.default_rng(32)
    cfg = PipelineConfig(wavelet="db2", shrink="soft")
    img = rng.uniform(1, 200, size=(16, 16))
    sub = dwt2(log_domain(img), cfg.wavelet)
    lam = max(np.abs(b).max() for b in (sub.chd, sub.cvd, sub.cdd)) + 1.0
    from dataclasses import replace

    zero = np.zeros_like(sub.ca)
    ca_only = replace(sub, chd=zero, cvd=zero, cdd=zero)
    from despeckle.image import exp_domain
    from despeckle.wavelet import idwt2

    expected = np.maximum(exp_domain(idwt2(ca_only, cfg.wavelet)), 0.0)
    assert_allclose(despeckle(img, lam, cfg), expected, rtol=0, atol=1e-10)


def test_shrink_once_smooths_speckled_constant():
    img = np.full((64, 64), 100.0)
    noisy = apply_speckle(img, SpeckleSpec(kind="gamma", looks=3, seed=1))
    out = despeckle(noisy, 0.5)
    assert nmv_nv_nsd(out)[1] < nmv_nv_nsd(noisy)[1]


def test_shrink_once_preserves_shape_and_nonnegativity():
    rng = np.random.default_rng(33)
    img = rng.uniform(0, 50, size=(17, 19))
    out = despeckle(img, 3.0)
    assert out.shape == img.shape
    assert np.all(out >= 0.0)


def test_shrink_once_rejects_negative_threshold():
    with pytest.raises(ValueError):
        despeckle(np.ones((4, 4)), -1.0)


@pytest.mark.parametrize("shrink", ["hard", "soft"])
def test_despeckle_rejects_nan_threshold(shrink):
    with pytest.raises(ValueError, match="threshold .* got nan"):
        despeckle(np.ones((4, 4)), float("nan"), PipelineConfig(shrink=shrink))


def test_despeckle_rejects_bool_threshold():
    with pytest.raises(ValueError, match="^threshold must be a non-negative number, got True$"):
        despeckle(np.ones((4, 4)), True)


@pytest.mark.parametrize("lambda_star", ["1", None, 1j], ids=["str", "None", "complex"])
def test_despeckle_rejects_non_number_threshold(lambda_star):
    # a string compared with 0 raised TypeError before the message was built
    with pytest.raises(ValueError, match="^threshold must be a non-negative number, got"):
        despeckle(np.ones((4, 4)), lambda_star)


@pytest.mark.parametrize("lam", [float("inf"), 1e400], ids=["inf", "1e400"])
def test_despeckle_rejects_infinite_threshold(lam):
    with pytest.raises(ValueError, match="threshold must be a non-negative number, got inf"):
        despeckle(np.ones((4, 4)), lam)


def test_detail_energy_monotone_in_threshold():
    rng = np.random.default_rng(34)
    img = rng.uniform(1, 255, size=(32, 32))
    sub = dwt2(log_domain(img), "haar")

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
    cdd = dwt2(log_domain(img), cfg.wavelet).cdd
    est = initial_threshold(img, cfg)
    assert est.delta_mad == pytest.approx(mad_sigma(cdd), rel=1e-12)
    # the seed counts the diagonal block's coefficients
    assert est.lam == pytest.approx(universal_threshold(est.delta_mad, cdd.size).lam, rel=1e-12)


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
    est = initial_threshold(img)
    subband_std = float(dwt2(np.log(img + 1.0), "haar").cdd.std())
    assert est.delta_mad == pytest.approx(subband_std, rel=0.05)


@pytest.mark.parametrize(
    "img, message",
    [
        (np.full(9, 10.0), r"^image must be a non-empty 2-D array, got shape \(9,\)$"),
        (np.where(np.eye(4), np.nan, 10.0), "^image contains non-finite pixel values$"),
        (np.where(np.eye(4), -1.0, 10.0), "^log_domain requires non-negative pixels$"),
    ],
    ids=["1-D", "NaN", "negative"],
)
@pytest.mark.parametrize(
    "stage",
    [lambda img: despeckle(img, 1.0), initial_threshold],
    ids=["despeckle", "initial_threshold"],
)
def test_chain_rejects_bad_images(stage, img, message):
    with pytest.raises(ValueError, match=message):
        stage(img)


def test_initial_threshold_rejects_too_small_image():
    with pytest.raises(ValueError, match=r"image \(2, 2\).*'cdd' subband holds 1 coefficient"):
        initial_threshold(np.full((2, 2), 10.0))
    with pytest.raises(ValueError, match=r"image \(2, 2\)"):
        calibrate(np.full((2, 2), 10.0), SpeckleSpec(kind="gamma", looks=3, seed=1))


def test_initial_threshold_runs_no_full_analysis(monkeypatch):
    # The seed reads only the diagonal block, so no dwt2 runs; the estimate
    # equals the one taken from the full analysis.
    img = apply_speckle(_small_phantom(), SpeckleSpec(kind="rayleigh", seed=3))
    cfg = PipelineConfig(wavelet="db4")
    sub = dwt2(log_domain(img), cfg.wavelet)
    expected = universal_threshold(mad_sigma(sub.cdd), sub.cdd.size)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return dwt2(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "dwt2", counted)
    monkeypatch.setattr(wavelet_mod, "dwt2", counted)
    assert initial_threshold(img, cfg) == expected
    assert calls == []


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
    for step in result.trace:
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


@pytest.mark.parametrize("epsilon", [1e9, np.float64(1e9)], ids=["float", "numpy"])
def test_calibrate_vacuous_epsilon_converges_immediately(epsilon):
    result = calibrate(
        _small_phantom(), SpeckleSpec(kind="gamma", looks=3, seed=6), epsilon=epsilon
    )
    # a plain bool, even for a numpy epsilon, so the CLI can serialise it
    assert result.converged is True and result.iterations == 1
    assert json.dumps(result.converged) == "true"


def test_calibrate_zero_seed_steps_at_unit_gain():
    # A zero seed threshold would make a step of 10% of the seed zero, so the
    # step gain falls back to 1: each increment is the normalized controller
    # output itself.
    clean = np.zeros((64, 64))
    clean[8:24, 8:24] = 200.0
    result = calibrate(clean, SpeckleSpec(seed=1))
    assert result.trace[0].lam == 0.0
    # the overshoot raises the threshold by one full unit step; the controller's
    # zero output then leaves it in place, so the loop stalls
    assert [step.dlambda for step in result.trace] == [1.0, -0.0]
    assert [step.lam for step in result.trace] == [0.0, 1.0]
    assert result.stop_reason == "stalled"
    for step in result.trace:
        assert step.dlambda == -control_step(step.e * (1.0 / 200.0), step.de * (1.0 / 200.0))


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
    mse_seed = float(((despeckle(noisy, result.trace[0].lam) - clean) ** 2).mean())
    assert mse_star <= mse_seed + 1e-12


def test_calibrate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        calibrate(_small_phantom(), SpeckleSpec(seed=0), max_iter=0)
    with pytest.raises(ValueError):
        calibrate(_small_phantom(), SpeckleSpec(seed=0), epsilon=-1.0)
    with pytest.raises(ValueError):
        calibrate(np.zeros((8, 8)), SpeckleSpec(seed=0))


@pytest.mark.parametrize(
    "name,value",
    [
        ("max_iter", 2.5),
        ("max_iter", 3.0),
        ("max_iter", True),
        ("max_iter", "3"),
        ("epsilon", True),
        ("epsilon", "1"),
        ("epsilon", np.True_),
    ],
)
def test_calibrate_rejects_bool_and_non_integer_arguments(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be .*, got {re.escape(repr(value))}$"):
        calibrate(_small_phantom(), SpeckleSpec(seed=0), **{name: value})


def test_calibrate_accepts_numpy_integer_max_iter():
    result = calibrate(_small_phantom(), SpeckleSpec(seed=0), max_iter=np.int64(1))
    assert result.iterations == 1


def test_calibrate_stop_reason_decides_converged():
    clean, spec = _small_phantom(), SpeckleSpec(kind="gamma", looks=3, seed=3)
    soft = PipelineConfig(shrink="soft")
    capped = calibrate(clean, spec, soft, max_iter=4)
    assert capped.stop_reason == "max_iter" and capped.iterations == 4
    assert not capped.converged
    assert calibrate(clean, spec, epsilon=1e9).stop_reason == "converged"
    stalled = calibrate(clean, spec)
    assert stalled.stop_reason == "stalled" and not stalled.converged
    # a loop whose next step could not change the output stalled, even at the cap
    assert calibrate(clean, spec, max_iter=stalled.iterations) == stalled


# the 36-input grid: two bank/shrink pairs x three speckle kinds x seeds 0-5
CALIBRATION_GRID = [
    (PipelineConfig(wavelet=wavelet, shrink=shrink), SpeckleSpec(kind=kind, looks=looks, seed=seed))
    for wavelet, shrink in (("haar", "hard"), ("db4", "soft"))
    for kind, looks in (("gamma", 3), ("rayleigh", 1), ("exponential", 1))
    for seed in range(6)
]


def test_calibrate_grid_stops_early_and_never_raises_mse():
    clean = make_phantom(256)
    moved = 0
    for cfg, spec in CALIBRATION_GRID:
        result = calibrate(clean, spec, cfg)
        label = (cfg, spec, result.stop_reason, result.iterations)
        assert result.stop_reason in ("converged", "stalled"), label
        assert result.iterations <= 15, label
        lam0 = result.trace[0].lam
        if result.lambda_star != lam0:
            moved += 1
            noisy = apply_speckle(clean, spec)
            mse_star = msd(clean, despeckle(noisy, result.lambda_star, cfg))
            assert mse_star <= msd(clean, despeckle(noisy, lam0, cfg)), label
    assert moved >= 1


def test_trace_csv_round_trip():
    result = calibrate(
        _small_phantom(), SpeckleSpec(kind="gamma", looks=3, seed=10), max_iter=5
    )
    text = trace_to_csv(result.trace)
    lines = text.strip().split("\n")
    assert lines[0] == "iter,e,de,dlambda,lambda,me"
    assert len(lines) - 1 == result.iterations
    rows = [line.split(",") for line in lines[1:]]
    # a row's number is its 1-based position in the trace
    assert [int(row[0]) for row in rows] == list(range(1, result.iterations + 1))
    assert float(rows[0][4]) == result.trace[0].lam


# (speckle kind, seed, shrink, wavelet, whether lambda touches 0 or max|d| on
# the 64^2 phantom)
CALIBRATION_CASES = [
    ("gamma", 1, "hard", "haar", True),
    ("gamma", 2, "hard", "haar", False),
    ("rayleigh", 4, "hard", "haar", False),
    ("gamma", 4, "soft", "db2", True),
    # the third threshold keeps the second's survivors: the loop stalls there,
    # where telling soft outputs apart by lambda would take two more steps
    ("rayleigh", 5, "soft", "db2", False),
    ("exponential", 1, "soft", "db4", True),
    # every step lowers lambda to a new survivor count and no smaller error:
    # the loop stalls six steps past the seed
    ("gamma", 3, "soft", "haar", False),
]


@pytest.mark.parametrize("kind,seed,shrink,wavelet,clamps", CALIBRATION_CASES)
def test_calibrate_matches_reference_loop(kind, seed, shrink, wavelet, clamps):
    clean = _small_phantom()
    spec = SpeckleSpec(kind=kind, seed=seed)
    cfg = PipelineConfig(wavelet=wavelet, shrink=shrink)
    result = calibrate(clean, spec, cfg)
    best_lam, expected = _reference_calibrate(clean, spec, cfg)
    top = float(_detail_magnitudes(apply_speckle(clean, spec), cfg).max())
    assert any(step.lam in (0.0, top) for step in result.trace) == clamps
    assert trace_to_csv(result.trace) == trace_to_csv(expected.trace)
    assert result == expected
    assert result.lambda_star == best_lam


# Haar soft inputs on which lambda oscillates between ever-new values, so
# the lambda-keyed rule ran them to max_iter: (phantom size, kind, seed)
OSCILLATING_SOFT = [
    (64, "gamma", 3),
    (64, "gamma", 4),
    (64, "rayleigh", 4),
    (64, "rayleigh", 6),
    (64, "rayleigh", 7),
    (97, "rayleigh", 1),
    (97, "rayleigh", 2),
    (97, "rayleigh", 6),
]


@pytest.mark.parametrize("n,kind,seed", OSCILLATING_SOFT)
def test_calibrate_oscillating_soft_loop_stalls(n, kind, seed):
    clean = make_phantom(n)
    spec = SpeckleSpec(kind=kind, seed=seed)
    cfg = PipelineConfig(wavelet="haar", shrink="soft")
    result = calibrate(clean, spec, cfg)
    assert result.stop_reason == "stalled" and result.iterations <= 7
    oracle_lam, oracle = _reference_calibrate(clean, spec, cfg, keyed_by_lambda=True)
    assert oracle.stop_reason == "max_iter"
    assert result.lambda_star == oracle_lam


@pytest.mark.parametrize("kind,seed,shrink,wavelet,clamps", CALIBRATION_CASES)
def test_calibrate_analyses_once_and_synthesises_each_lambda_once(
    monkeypatch, kind, seed, shrink, wavelet, clamps
):
    calls = {"dwt2": 0, "idwt2": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pipeline_mod, "dwt2", counted("dwt2", pipeline_mod.dwt2))
    monkeypatch.setattr(pipeline_mod, "idwt2", counted("idwt2", pipeline_mod.idwt2))
    cfg = PipelineConfig(wavelet=wavelet, shrink=shrink)
    spec = SpeckleSpec(kind=kind, seed=seed)
    result = calibrate(_small_phantom(), spec, cfg)
    assert calls["dwt2"] == 1
    # one synthesis per trace step, and no threshold is evaluated twice
    assert calls["idwt2"] == result.iterations == len({step.lam for step in result.trace})
    if shrink == "hard":
        # thresholds with the same survivor count give the same output, so
        # no survivor count is synthesised twice either
        mags = _detail_magnitudes(apply_speckle(_small_phantom(), spec), cfg)
        counts = {int(np.count_nonzero(mags > step.lam)) for step in result.trace}
        assert len(counts) == result.iterations


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


GAMMA3 = SpeckleSpec(kind="gamma", looks=3, seed=0)


def _report_stage(clean, noisy, cfg):
    out = despeckle(noisy, initial_threshold(noisy, cfg).lam, cfg)
    return lambda: full_report(clean, noisy, out)


# Peak memory allocated during a call at 1024^2 db4 soft, above its inputs,
# in images of the input's size. despeckle peaks in idwt2, with the analysis
# blocks (their details shrunk in place) and the output alive besides the
# block buffers (2.21 measured); the seed holds the log image and its
# diagonal block (1.42). enl_blocked copies and reduces one band of about
# 1 MiB of tile rows at a time, so its peak is two bands: the copy and var's
# deviations (0.345 measured; at 2048^2 as_image's finiteness mask, 0.125,
# is larger). full_report therefore peaks in the FOM's feature transform
# with its chunked gather (1.879 measured); the last two bounds are their
# measured peaks plus 5%.
@pytest.mark.parametrize(
    "spec, stage, images",
    [
        (GAMMA3, lambda clean, noisy, cfg: lambda: despeckle(noisy, 3.06, cfg), 2.35),
        (GAMMA3, lambda clean, noisy, cfg: lambda: initial_threshold(noisy, cfg), 1.6),
        (GAMMA3, lambda clean, noisy, cfg: lambda: enl_blocked(noisy), 0.362),
        (SpeckleSpec(kind="rayleigh", seed=1), _report_stage, 1.97),
    ],
    ids=["despeckle", "initial_threshold", "enl_blocked", "full_report"],
)
def test_working_set_is_bounded(spec, stage, images):
    from scipy import ndimage  # noqa: F401 -- loaded before the measurement

    clean = make_phantom(1024)
    noisy = apply_speckle(clean, spec)
    call = stage(clean, noisy, PipelineConfig(wavelet="db4", shrink="soft"))
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / noisy.nbytes <= images


def test_idwt2_working_set_is_bounded():
    # calibrate's synthesis at 256^2 haar, one block: the output, the block
    # buffers and one pass's two tap products (3.006 output images measured)
    sub = dwt2(log_domain(apply_speckle(make_phantom(256), GAMMA3)), "haar")
    tracemalloc.start()
    try:
        out = idwt2(sub, "haar")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / out.nbytes <= 3.16


@pytest.mark.parametrize("shrink", ["hard", "soft"])
@pytest.mark.parametrize("shape", [(64, 64), (33, 47)])
def test_despeckle_leaves_its_input_unchanged(shape, shrink):
    # despeckle shrinks and exponentiates arrays it created in place
    clean = make_phantom(64)[: shape[0], : shape[1]]
    noisy = apply_speckle(clean, SpeckleSpec(kind="rayleigh", seed=3))
    before = noisy.copy()
    despeckle(noisy, 1.0, PipelineConfig(wavelet="db4", shrink=shrink))
    assert_array_equal(noisy, before)


@pytest.mark.parametrize("shrink", ["hard", "soft"])
def test_calibrate_keeps_its_analysis_across_iterations(monkeypatch, shrink):
    # calibrate shrinks one analysis at every threshold, into buffers of its
    # own; handed the same analysis twice, it must trace the same steps
    spec = SpeckleSpec(kind="rayleigh", seed=1)
    cfg = PipelineConfig(wavelet="haar", shrink=shrink)
    sub = pipeline_mod._analyse(apply_speckle(_small_phantom(), spec), cfg)
    monkeypatch.setattr(pipeline_mod, "_analyse", lambda arr, cfg: sub)
    blocks = [b.copy() for b in (sub.ca, sub.chd, sub.cvd, sub.cdd)]
    first = calibrate(_small_phantom(), spec, cfg)
    second = calibrate(_small_phantom(), spec, cfg)
    assert first.iterations > 1
    assert trace_to_csv(second.trace) == trace_to_csv(first.trace)
    assert second == first
    for block, kept in zip((sub.ca, sub.chd, sub.cvd, sub.cdd), blocks):
        assert_array_equal(block, kept)


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
    # an odd window's np.median is one of its elements, so the two agree
    # bit for bit
    rng = np.random.default_rng(39)
    img = rng.uniform(0, 255, size=(16, 16))
    logged = np.log(img + 1.0)
    for kernel in (3, 5):
        want = np.exp(_window_oracle(logged, kernel, np.median)) - 1.0
        assert median_filter_homomorphic(img, kernel).tobytes() == want.tobytes()


def _ndimage_median_oracle(img, kernel):
    from scipy import ndimage

    return exp_domain(ndimage.median_filter(log_domain(img), size=kernel, mode="nearest"))


@pytest.mark.parametrize(
    "shape, kernel",
    [((1031, 515), 3), ((3, 3), 3), ((3, 40), 3), ((40, 3), 3), ((97, 131), 3), ((1031, 515), 5)],
    ids=lambda v: f"{v[0]}x{v[1]}" if isinstance(v, tuple) else f"k{v}",
)
def test_median_equals_ndimage_bit_for_bit(shape, kernel):
    # 1031x515 spans several strips; quantised levels put ties in most
    # windows, and -0.0 pixels take the log image to +0.0 like 0.0 does
    rng = np.random.default_rng(45)
    smooth = rng.uniform(0.0, 255.0, size=shape)
    signed_zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    for img in (smooth, np.floor(smooth / 64.0), np.where(smooth < 128, signed_zeros, 1.0)):
        got = median_filter_homomorphic(img, kernel)
        assert got.tobytes() == _ndimage_median_oracle(img, kernel).tobytes()


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


@pytest.mark.parametrize(
    "ratio", ["0.3", None, True, np.True_, -0.1, float("inf")],
    ids=["str", "None", "bool", "np_bool", "negative", "inf"],
)
def test_lee_rejects_non_real_noise_var_ratio(ratio):
    img = np.random.default_rng(42).uniform(0, 255, size=(8, 8))
    message = f"^noise_var_ratio must be a non-negative real, got {re.escape(repr(ratio))}$"
    with pytest.raises(ValueError, match=message):
        lee_filter(img, 3, ratio)


def test_lee_accepts_numpy_real_noise_var_ratio():
    img = np.random.default_rng(43).uniform(0, 255, size=(8, 8))
    assert_array_equal(lee_filter(img, 3, np.float32(0.5)), lee_filter(img, 3, 0.5))


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
        lambda img: median_filter_homomorphic(img, 4.5),
        lambda img: lee_filter(img, 4.5),
        lambda img: median_filter_homomorphic(img, 3.0),
        lambda img: lee_filter(img, 3.0),
        lambda img: median_filter_homomorphic(img, True),
        lambda img: lee_filter(img, True),
    ],
)
def test_baseline_kernel_validation(func):
    with pytest.raises(ValueError, match=r"^kernel (must be an odd integer >= 3, got|\d+ larger)"):
        func(np.ones((16, 16)))


def test_baseline_kernel_accepts_numpy_integer():
    img = np.random.default_rng(44).uniform(1, 255, size=(16, 16))
    for filt in (median_filter_homomorphic, lee_filter):
        assert filt(img, np.int64(3)).tobytes() == filt(img, 3).tobytes()


def test_filters_preserve_shape_and_nonnegativity():
    rng = np.random.default_rng(43)
    img = rng.uniform(0, 200, size=(21, 17))
    for out in (
        median_filter_homomorphic(img, 3),
        lee_filter(img, 3, 0.3),
        despeckle(img, 1.0),
    ):
        assert out.shape == img.shape
        assert np.all(out >= 0.0)


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(shrink="firm")
    with pytest.raises(ValueError):
        PipelineConfig(wavelet="db15")


@pytest.mark.parametrize("wavelet", [None, ("haar",), ["haar"]], ids=["None", "tuple", "list"])
def test_pipeline_config_rejects_non_string_wavelet(wavelet):
    message = f"^unknown wavelet {re.escape(repr(wavelet))}; supported: haar, db2, db4$"
    with pytest.raises(ValueError, match=message):
        PipelineConfig(wavelet=wavelet)


@pytest.mark.parametrize("shrink", [None, ("hard",), ["hard"]], ids=["None", "tuple", "list"])
def test_pipeline_config_rejects_non_string_shrink(shrink):
    message = f"^shrink must be one of \\('hard', 'soft'\\), got {re.escape(repr(shrink))}$"
    with pytest.raises(ValueError, match=message):
        PipelineConfig(shrink=shrink)


# ---------------------------------------------------------------- caller memory


CALLER_INPUT_CASES = [
    "log_domain",
    "exp_domain",
    "apply_speckle",
    "initial_threshold",
    "calibrate",
    "despeckle",
    "msd",
    "deflection_ratio",
    "full_report",
    "mad_sigma",
    "hard_threshold",
    "soft_threshold",
    "dwt2",
    "idwt2",
]


def _arrays(values) -> list:
    """The arrays among ``values``, a ``Subbands`` counting as its four blocks."""
    arrays = []
    for v in values:
        if isinstance(v, Subbands):
            arrays += [v.ca, v.chd, v.cvd, v.cdd]
        elif isinstance(v, np.ndarray):
            arrays.append(v)
    return arrays


@pytest.mark.parametrize("name", CALLER_INPUT_CASES)
def test_results_never_reuse_caller_memory(name):
    # Fresh intermediates are reused in place; arrays the caller passed in
    # are not. Read-only inputs make any write into them raise.
    spec = SpeckleSpec(kind="rayleigh", seed=5)
    cfg = PipelineConfig(wavelet="db4", shrink="soft")
    clean = _small_phantom()
    noisy = apply_speckle(clean, spec)
    out = despeckle(noisy, 1.0, cfg)
    band = dwt2(log_domain(noisy), cfg.wavelet).cdd
    haar = "haar"  # no halo: the transforms' windows view their inputs
    fn, *args = {
        "log_domain": (log_domain, noisy),
        "exp_domain": (exp_domain, log_domain(noisy)),
        "apply_speckle": (apply_speckle, clean, spec),
        "initial_threshold": (initial_threshold, noisy, cfg),
        "calibrate": (calibrate, clean, spec, cfg, None, 3),
        "despeckle": (despeckle, noisy, 1.0, cfg),
        "msd": (msd, noisy, out),
        "deflection_ratio": (deflection_ratio, out, noisy),
        "full_report": (full_report, clean, noisy, out),
        "mad_sigma": (mad_sigma, band),
        "hard_threshold": (hard_threshold, band, 0.5),
        "soft_threshold": (soft_threshold, band, 0.5),
        "dwt2": (dwt2, noisy, haar),
        "idwt2": (idwt2, dwt2(noisy, haar), haar),
    }[name]
    inputs = _arrays(args)
    before = [a.copy() for a in inputs]
    for a in inputs:
        a.flags.writeable = False
    result = fn(*args)
    for a, b in zip(inputs, before):
        assert a.tobytes() == b.tobytes()
    for r in _arrays([result]):
        assert not any(np.shares_memory(r, a) for a in inputs)
