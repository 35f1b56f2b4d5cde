import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import ndimage

import despeckle.pipeline as pipeline_mod
import despeckle.wavelet as wavelet_mod
from despeckle.fuzzy import control_step
from despeckle.image import exp_domain, log_domain, read_pgm, write_pgm
from despeckle.metrics import (
    deflection_ratio,
    detect_edges,
    enl_blocked,
    full_report,
    msd,
    nearest_edge_distances,
    nmv_nv_nsd,
)
from despeckle.pipeline import (
    PipelineConfig,
    calibrate,
    despeckle,
    initial_threshold,
    lee_filter,
    median_filter_homomorphic,
    trace_to_csv,
)
from despeckle.speckle import SpeckleSpec, apply_speckle, generate_speckle
from despeckle.thresholding import hard_threshold, mad_sigma, soft_threshold, universal_threshold
from despeckle.wavelet import Subbands, dwt2, idwt2

from conftest import _detail_magnitudes, _ndimage_median_oracle, _reference_calibrate, make_phantom


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


@pytest.mark.parametrize("epsilon", [1e9, np.float64(1e9)], ids=["float", "numpy"])
def test_calibrate_vacuous_epsilon_converges_immediately(epsilon):
    result = calibrate(
        _small_phantom(), SpeckleSpec(kind="gamma", looks=3, seed=6), epsilon=epsilon
    )
    # a plain bool, even for a numpy epsilon, so the CLI can serialise it
    assert result.converged is True and result.iterations == 1
    assert json.dumps(result.converged) == "true"


def test_calibrate_compares_errors_with_epsilon_in_double_precision():
    # a np.float32 epsilon just below the seed's error magnitude: compared in
    # single precision, the error would round down onto it and converge
    clean, spec = make_phantom(64), SpeckleSpec(kind="gamma", looks=3, seed=0)
    error = abs(calibrate(clean, spec, epsilon=1e-9).trace[0].e)
    epsilon = np.float32(error)
    assert float(epsilon) < error
    assert calibrate(clean, spec, epsilon=epsilon) == calibrate(clean, spec, epsilon=float(epsilon))


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


def test_calibrate_best_lambda_no_mse_regression():
    clean = _small_phantom()
    spec = SpeckleSpec(kind="gamma", looks=3, seed=8)
    result = calibrate(clean, spec, max_iter=30)
    noisy = apply_speckle(clean, spec)
    mse_star = float(((despeckle(noisy, result.lambda_star) - clean) ** 2).mean())
    mse_seed = float(((despeckle(noisy, result.trace[0].lam) - clean) ** 2).mean())
    assert mse_star <= mse_seed + 1e-12


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


def test_despeckle_huge_threshold_keeps_approximation_only():
    rng = np.random.default_rng(32)
    cfg = PipelineConfig(wavelet="db2", shrink="soft")
    img = rng.uniform(1, 200, size=(16, 16))
    sub = dwt2(log_domain(img), cfg.wavelet)
    lam = max(np.abs(b).max() for b in (sub.chd, sub.cvd, sub.cdd)) + 1.0
    zero = np.zeros_like(sub.ca)
    ca_only = replace(sub, chd=zero, cvd=zero, cdd=zero)
    expected = np.maximum(exp_domain(idwt2(ca_only, cfg.wavelet)), 0.0)
    assert_allclose(despeckle(img, lam, cfg), expected, rtol=0, atol=1e-10)


@pytest.mark.parametrize("shape", [(1, 40), (40, 1), (15, 21)], ids=["1x40", "40x1", "15x21"])
def test_despeckle_zero_threshold_identity_thin(shape):
    rng = np.random.default_rng(38)
    img = rng.uniform(0, 255, size=shape)
    for wavelet in ("haar", "db2", "db4"):
        out = despeckle(img, 0.0, PipelineConfig(wavelet=wavelet))
        assert out.shape == shape
        assert np.abs(out - img).max() <= 1e-10


def test_despeckle_reduces_variance_on_benchmark():
    # a speckled constant image at a fixed threshold, then the phantom at
    # the threshold calibrated on another speckle field
    flat = np.full((64, 64), 100.0)
    noisy = apply_speckle(flat, SpeckleSpec(kind="gamma", looks=3, seed=1))
    assert nmv_nv_nsd(despeckle(noisy, 0.5))[1] < nmv_nv_nsd(noisy)[1]
    clean = _small_phantom()
    spec = SpeckleSpec(kind="gamma", looks=3, seed=11)
    result = calibrate(clean, spec, max_iter=30)
    fresh = apply_speckle(clean, SpeckleSpec(kind="gamma", looks=3, seed=12))
    out = despeckle(fresh, result.lambda_star)
    assert nmv_nv_nsd(out)[1] < nmv_nv_nsd(fresh)[1]


GAMMA3 = SpeckleSpec(kind="gamma", looks=3, seed=0)
DB4_SOFT = PipelineConfig(wavelet="db4", shrink="soft")


def _on_noisy(func, *args):
    return lambda clean, noisy: lambda: func(noisy, *args)


def _despeckled(noisy):
    return despeckle(noisy, initial_threshold(noisy, DB4_SOFT).lam, DB4_SOFT)


def _report_stage(clean, noisy):
    out = _despeckled(noisy)
    return lambda: full_report(clean, noisy, out)


def _edges_stage(clean, noisy):
    out = _despeckled(noisy)
    return lambda: detect_edges(out)


def _distances_stage(clean, noisy):
    # full_report's FOM pair: the output's edges against the clean image's
    detected, ideal = detect_edges(_despeckled(noisy)), detect_edges(clean)
    return lambda: nearest_edge_distances(detected, ideal)


def _read_pgm_stage(clean, noisy):
    data = write_pgm(noisy, 65535)
    return lambda: read_pgm(data)


def _idwt2_stage(clean, noisy):
    sub = dwt2(log_domain(noisy), "haar")
    return lambda: idwt2(sub, "haar")


def _calibrate_stage(clean, noisy):
    return lambda: calibrate(clean, GAMMA3)


def _field_stage(looks):
    spec = SpeckleSpec(kind="gamma", looks=looks, seed=0)
    return lambda clean, noisy: lambda: generate_speckle(*noisy.shape, spec)


_DESPECKLE = _on_noisy(despeckle, 3.06, DB4_SOFT)
_SEED = _on_noisy(initial_threshold, DB4_SOFT)
_DWT2 = _on_noisy(dwt2, "db4")


# Peak memory allocated during a call at 1024^2 db4 soft, above its inputs,
# in images of the input's size. despeckle peaks in idwt2, with the
# approximation block, the shrunk details (the raw details are freed once
# shrunk) and the output alive besides the block buffers (2.21 measured);
# the seed holds the log image and its diagonal block (1.42). An odd axis
# is analysed through the replicated sample that _window reads, with no
# padded copy, so odd shapes keep the even shapes' bounds (2.210 and 1.533
# measured at 1023^2). enl_blocked copies and reduces one band of about
# 1 MiB of tile rows at a time, so its peak is two bands: the copy and
# var's deviations (0.345 measured; at 2048^2 as_image's finiteness mask,
# 0.125, is larger). full_report
# therefore peaks in the FOM's feature transform with its chunked gather
# (1.879 measured). dwt2 holds its four blocks and its block buffers
# (1.210 measured at 1023^2); lee_filter the local mean, the local
# variance, one scratch array and a mask (3.125); 16-bit write_pgm its
# clip copy, the big-endian samples and their bytes (1.500), 8-bit write_pgm
# the same with one-byte samples (1.250). The 3x3 median holds the log image,
# the median and its strip buffers (2.533); log_domain its output (1.000);
# 16-bit read_pgm the payload's copy of the bytes and the float64 image
# (1.250; the bytes are built outside the call); detect_edges the squares and
# two boolean maps (1.375); nearest_edge_distances the feature transform, two
# int32 images, and the detected pixels' indices and distances (1.628 on the
# Rayleigh pair, 26% of whose pixels are detected; 1.409 at 15% on gamma).
# The last eleven bounds are their measured peaks plus 5%. Four rows run at
# other sizes: calibrate's synthesis at 256^2 haar holds the output, the block
# buffers and one pass's two tap products (3.005 measured); calibrate itself
# at 256^2 haar hard peaks in that synthesis, its one-block buffers and
# output alive beside the analysis and the shrunk details (4.763 measured,
# 4.766 on Rayleigh and 4.761 on exponential speckle; bounded at gamma's
# plus 5%); a 2048^2 gamma field, allocated by the call and so counted, is
# the field plus one strip buffer of about 1 MiB and the per-row states
# (1.043 at 3 looks, 1.047 at 20), bounded at the field plus 2.5 MiB.
@pytest.mark.parametrize(
    "spec, shape, stage, images",
    [
        pytest.param(GAMMA3, (1024, 1024), _DESPECKLE, 2.35, id="despeckle"),
        pytest.param(GAMMA3, (1023, 1023), _DESPECKLE, 2.35, id="despeckle-1023x1023"),
        pytest.param(GAMMA3, (1023, 1024), _DESPECKLE, 2.35, id="despeckle-1023x1024"),
        pytest.param(GAMMA3, (1024, 1024), _SEED, 1.6, id="initial_threshold"),
        pytest.param(GAMMA3, (1023, 1023), _SEED, 1.6, id="initial_threshold-1023x1023"),
        pytest.param(GAMMA3, (1023, 1024), _SEED, 1.6, id="initial_threshold-1023x1024"),
        pytest.param(GAMMA3, (1024, 1024), _on_noisy(enl_blocked), 0.362, id="enl_blocked"),
        pytest.param(
            SpeckleSpec(kind="rayleigh", seed=1), (1024, 1024), _report_stage, 1.97,
            id="full_report",
        ),
        pytest.param(GAMMA3, (1024, 1024), _DWT2, 1.27, id="dwt2"),
        pytest.param(GAMMA3, (1023, 1023), _DWT2, 1.27, id="dwt2-1023x1023"),
        pytest.param(GAMMA3, (256, 256), _idwt2_stage, 3.16, id="idwt2"),
        pytest.param(GAMMA3, (256, 256), _calibrate_stage, 5.0, id="calibrate"),
        pytest.param(GAMMA3, (2048, 2048), _field_stage(3), 1.078125, id="generate_speckle"),
        pytest.param(
            GAMMA3, (2048, 2048), _field_stage(20), 1.078125, id="generate_speckle-looks20"
        ),
        pytest.param(
            GAMMA3, (1024, 1024), _on_noisy(lee_filter, 5, 1.0 / 3.0), 3.28, id="lee_filter"
        ),
        pytest.param(GAMMA3, (1024, 1024), _on_noisy(write_pgm, 65535), 1.58, id="write_pgm"),
        pytest.param(GAMMA3, (1024, 1024), _on_noisy(write_pgm, 255), 1.31, id="write_pgm-8bit"),
        pytest.param(GAMMA3, (1024, 1024), _read_pgm_stage, 1.31, id="read_pgm"),
        pytest.param(
            GAMMA3, (1024, 1024), _on_noisy(median_filter_homomorphic, 3), 2.66,
            id="median_filter_homomorphic",
        ),
        pytest.param(GAMMA3, (1024, 1024), _on_noisy(log_domain), 1.05, id="log_domain"),
        pytest.param(GAMMA3, (1024, 1024), _edges_stage, 1.44, id="detect_edges"),
        pytest.param(
            SpeckleSpec(kind="rayleigh", seed=1), (1024, 1024), _distances_stage, 1.71,
            id="nearest_edge_distances",
        ),
    ],
)
def test_working_set_is_bounded(spec, shape, stage, images):
    from scipy import ndimage  # noqa: F401 -- loaded before the measurement

    clean = make_phantom(max(shape))[: shape[0], : shape[1]]
    noisy = apply_speckle(clean, spec)
    call = stage(clean, noisy)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / noisy.nbytes <= images


def _read_only_analysis(monkeypatch, noisy, cfg):
    """Make every later ``_analyse`` call return one analysis of ``noisy``
    whose blocks are read-only, so that any write to them raises."""
    sub = pipeline_mod._analyse(noisy, cfg)
    for block in (sub.ca, sub.chd, sub.cvd, sub.cdd):
        block.flags.writeable = False
    monkeypatch.setattr(pipeline_mod, "_analyse", lambda arr, cfg: sub)


@pytest.mark.parametrize("shrink", ["hard", "soft"])
def test_calibrate_keeps_its_analysis_across_iterations(monkeypatch, shrink):
    # calibrate shrinks one analysis at every threshold and never writes it;
    # handed the same analysis twice, it must trace the same steps
    spec = SpeckleSpec(kind="rayleigh", seed=1)
    cfg = PipelineConfig(wavelet="haar", shrink=shrink)
    _read_only_analysis(monkeypatch, apply_speckle(_small_phantom(), spec), cfg)
    first = calibrate(_small_phantom(), spec, cfg)
    second = calibrate(_small_phantom(), spec, cfg)
    assert first.iterations > 1
    assert trace_to_csv(second.trace) == trace_to_csv(first.trace)
    assert second == first


@pytest.mark.parametrize("shrink", ["hard", "soft"])
def test_despeckle_only_reads_its_analysis(monkeypatch, shrink):
    # despeckle shrinks its analysis into fresh blocks, as calibrate does
    noisy = apply_speckle(_small_phantom(), SpeckleSpec(kind="rayleigh", seed=1))
    cfg = PipelineConfig(wavelet="db2", shrink=shrink)
    want = despeckle(noisy, 0.5, cfg)
    _read_only_analysis(monkeypatch, noisy, cfg)
    assert despeckle(noisy, 0.5, cfg).tobytes() == want.tobytes()


# ---------------------------------------------------------------- baselines


def test_median_constant_unchanged():
    img = np.full((16, 16), 42.0)
    assert_allclose(median_filter_homomorphic(img, 3), img, rtol=0, atol=1e-10)


def test_median_removes_impulse():
    img = np.full((16, 16), 10.0)
    img[8, 8] = 1000.0
    out = median_filter_homomorphic(img, 3)
    assert out[8, 8] == pytest.approx(10.0, rel=1e-10)


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


def test_lee_constant_region_returns_mean():
    img = np.full((12, 12), 77.0)
    assert_allclose(lee_filter(img, 5, 0.5), img, rtol=0, atol=1e-12)


def test_lee_zero_noise_is_identity():
    rng = np.random.default_rng(41)
    img = rng.uniform(0, 255, size=(16, 16))
    assert_allclose(lee_filter(img, 3, 0.0), img, rtol=0, atol=1e-10)


def test_lee_huge_ratio_returns_the_local_mean():
    # mean^2 * ratio overflows to inf, whose gain is 0, without a warning
    img = np.random.default_rng(42).uniform(0, 255, size=(16, 16))
    mean = ndimage.uniform_filter(img, size=3, mode="nearest")
    assert lee_filter(img, 3, 1e308).tobytes() == mean.tobytes()


def test_lee_smooths_gamma_speckle():
    img = np.full((64, 64), 100.0)
    noisy = apply_speckle(img, SpeckleSpec(kind="gamma", looks=3, seed=13))
    out = lee_filter(noisy, 5, 1.0 / 3.0)
    assert nmv_nv_nsd(out)[1] < nmv_nv_nsd(noisy)[1]


def test_filters_preserve_shape_and_nonnegativity():
    rng = np.random.default_rng(43)
    img = rng.uniform(0, 200, size=(21, 17))
    for out in (
        median_filter_homomorphic(img, 3),
        lee_filter(img, 3, 0.3),
        despeckle(img, 1.0),
        despeckle(img, 3.0),
    ):
        assert out.shape == img.shape
        assert np.all(out >= 0.0)


# ---------------------------------------------------------------- caller memory


CALLER_INPUT_CASES = [
    "log_domain",
    "exp_domain",
    "apply_speckle",
    "initial_threshold",
    "calibrate",
    "despeckle",
    "despeckle-hard",
    "despeckle-33x47",
    "despeckle-hard-33x47",
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
    odd = apply_speckle(clean[:33, :47], spec)
    hard = replace(cfg, shrink="hard")
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
        "despeckle-hard": (despeckle, noisy, 1.0, hard),
        "despeckle-33x47": (despeckle, odd, 1.0, cfg),
        "despeckle-hard-33x47": (despeckle, odd, 1.0, hard),
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
