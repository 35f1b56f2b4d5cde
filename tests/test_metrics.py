import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import ndimage

from despeckle.metrics import (
    MetricsConfig,
    MetricsReport,
    deflection_ratio,
    detect_edges,
    enl_blocked,
    full_report,
    msd,
    nearest_edge_distances,
    nmv_nv_nsd,
    pratt_fom,
    _sobel_magnitude,
)
from despeckle.pipeline import despeckle
from despeckle.speckle import SpeckleSpec, apply_speckle, generate_speckle

from conftest import make_phantom


# ---------------------------------------------------------------- moments


def test_nmv_nv_nsd_constant():
    assert nmv_nv_nsd(np.full((4, 4), 7.0)) == (7.0, 0.0, 0.0)


def test_nmv_nv_nsd_direct():
    mean, var, sd = nmv_nv_nsd(np.array([[0.0, 2.0]]))
    assert (mean, var, sd) == (1.0, 1.0, 1.0)


def test_nmv_nv_nsd_against_two_pass_oracle():
    rng = np.random.default_rng(21)
    img = rng.uniform(0, 255, size=(17, 13))
    mean, var, sd = nmv_nv_nsd(img)
    oracle_mean = img.sum() / img.size
    oracle_var = ((img - oracle_mean) ** 2).sum() / img.size
    assert mean == pytest.approx(oracle_mean, abs=1e-10)
    assert var == pytest.approx(oracle_var, abs=1e-10)
    assert sd * sd == pytest.approx(var, rel=1e-12)


def test_msd():
    assert msd(np.array([[0.0]]), np.array([[3.0]])) == 9.0
    img = np.arange(12.0).reshape(3, 4)
    assert msd(img, img) == 0.0
    rng = np.random.default_rng(22)
    a, b = rng.uniform(0, 255, (2, 9, 9))
    assert msd(a, b) == pytest.approx(((a - b) ** 2).sum() / a.size, rel=1e-12)
    assert msd(a, b) == msd(b, a)
    with pytest.raises(ValueError):
        msd(np.zeros((2, 2)), np.zeros((3, 2)))


# ---------------------------------------------------------------- ENL


@pytest.mark.parametrize("looks", [1, 3, 8])
def test_enl_blocked_recovers_look_count(looks):
    field = generate_speckle(512, 512, SpeckleSpec(kind="gamma", looks=looks, seed=looks))
    assert enl_blocked(field, 25) == pytest.approx(looks, rel=0.10)


def test_enl_blocked_discards_partial_tiles():
    rng = np.random.default_rng(23)
    img = rng.uniform(1, 2, size=(55, 60))
    # only the 2x2 grid of full 25x25 tiles participates
    tiles = [
        img[i * 25 : (i + 1) * 25, j * 25 : (j + 1) * 25] for i in range(2) for j in range(2)
    ]
    oracle = np.mean([t.mean() ** 2 / t.var() for t in tiles])
    assert enl_blocked(img, 25) == pytest.approx(oracle, rel=1e-12)


def test_enl_blocked_constant_image_raises():
    with pytest.raises(ValueError, match="constant"):
        enl_blocked(np.full((50, 50), 3.0), 25)


def test_enl_blocked_block_larger_than_image():
    with pytest.raises(ValueError, match="smaller"):
        enl_blocked(np.zeros((10, 10)), 25)


def test_enl_blocked_skips_constant_tiles():
    img = np.ones((4, 8))
    img[:, 4:] = [[1.0, 2.0, 1.0, 2.0]] * 4
    value = enl_blocked(img, 4)
    tile = img[:, 4:]
    assert value == pytest.approx(tile.mean() ** 2 / tile.var(), rel=1e-12)


# ---------------------------------------------------------------- DR


def test_deflection_ratio_self_is_zero():
    rng = np.random.default_rng(24)
    img = rng.uniform(0, 255, size=(20, 20))
    assert abs(deflection_ratio(img, img)) <= 1e-12


def test_deflection_ratio_shift():
    rng = np.random.default_rng(25)
    img = rng.uniform(0, 255, size=(20, 20))
    _, _, sd = nmv_nv_nsd(img)
    assert deflection_ratio(img + 5.0, img) == pytest.approx(5.0 / sd, rel=1e-10)


def test_deflection_ratio_rejects_constant_source():
    with pytest.raises(ValueError):
        deflection_ratio(np.ones((4, 4)), np.ones((4, 4)))


# ---------------------------------------------------------------- edges


def test_detect_edges_constant_is_empty():
    assert not detect_edges(np.full((8, 8), 5.0)).any()


def test_detect_edges_vertical_step():
    img = np.zeros((8, 8))
    img[:, 4:] = 100.0
    edges = detect_edges(img, 0.2)
    assert edges[:, 3:5].all()
    assert not edges[:, :2].any() and not edges[:, 6:].any()


def test_detect_edges_deterministic():
    rng = np.random.default_rng(26)
    img = rng.uniform(0, 9, size=(12, 12))
    assert np.array_equal(detect_edges(img, 0.3), detect_edges(img, 0.3))


def test_detect_edges_tau_range():
    with pytest.raises(ValueError):
        detect_edges(np.zeros((4, 4)), 0.0)


def _sobel_magnitude_oracle(img):
    """Oracle: scipy's Sobel pair and its magnitude over the whole image."""
    return np.hypot(
        ndimage.sobel(img, axis=1, mode="nearest"), ndimage.sobel(img, axis=0, mode="nearest")
    )


def _sobel_edges(img, tau):
    magnitude = _sobel_magnitude_oracle(img)
    peak = magnitude.max()
    return magnitude >= tau * peak if peak > 0.0 else np.zeros(img.shape, dtype=bool)


@pytest.mark.parametrize(
    "shape",
    [(1, 1), (1, 9), (9, 1), (2, 2), (3, 3), (17, 23), (1031, 515)],
    ids=lambda s: f"{s[0]}x{s[1]}",
)
def test_detect_edges_matches_sobel_oracle(shape):
    # Quantised stripes put many magnitudes exactly on 0.5 * peak, where a
    # magnitude one ulp off would flip a pixel; 1031x515 spans several strips.
    rng = np.random.default_rng(30)
    smooth = rng.uniform(0.0, 255.0, size=shape)
    levels = np.floor(smooth / 86.0)
    stripes = (np.broadcast_to(levels[:1], shape), np.broadcast_to(levels[:, :1], shape))
    for img in (smooth, np.floor(smooth / 128.0), *stripes):
        assert_array_equal(_sobel_magnitude(img), _sobel_magnitude_oracle(img))
        for tau in (0.2, 0.25, 0.5):
            assert_array_equal(detect_edges(img, tau), _sobel_edges(img, tau))


# ---------------------------------------------------------------- FOM


def test_fom_identical_maps_is_exactly_one():
    ideal = np.zeros((16, 16), dtype=bool)
    ideal[4, :] = True
    assert pratt_fom(ideal, ideal) == 1.0


def test_fom_empty_detected_is_zero():
    ideal = np.zeros((8, 8), dtype=bool)
    ideal[2, 2] = True
    assert pratt_fom(np.zeros((8, 8), dtype=bool), ideal) == 0.0


def test_fom_single_pixel_at_distance_three():
    ideal = np.zeros((8, 8), dtype=bool)
    detected = np.zeros((8, 8), dtype=bool)
    ideal[0, 0] = True
    detected[0, 3] = True
    assert pratt_fom(detected, ideal, alpha=1.0 / 9.0) == pytest.approx(0.5, rel=1e-12)


def test_fom_empty_maps_raise():
    empty = np.zeros((4, 4), dtype=bool)
    with pytest.raises(ValueError):
        pratt_fom(empty, empty)
    detected = empty.copy()
    detected[0, 0] = True
    with pytest.raises(ValueError):
        pratt_fom(detected, empty)


def test_fom_bounded_by_one():
    rng = np.random.default_rng(27)
    for _ in range(20):
        detected = rng.random((16, 16)) < 0.2
        ideal = rng.random((16, 16)) < 0.2
        if not ideal.any():
            continue
        assert 0.0 <= pratt_fom(detected, ideal) <= 1.0


def _brute_distances(detected, ideal):
    """Oracle: exact pairwise distance from each detected pixel to every
    ideal pixel, minimized, in chunks that bound the distance matrix."""
    det_pts = np.argwhere(detected).astype(np.float64)
    ideal_pts = np.argwhere(ideal).astype(np.float64)
    out = np.empty(det_pts.shape[0], dtype=np.float64)
    chunk = 1024
    for start in range(0, det_pts.shape[0], chunk):
        block = det_pts[start : start + chunk]
        d2 = ((block[:, None, :] - ideal_pts[None, :, :]) ** 2).sum(axis=2)
        out[start : start + chunk] = np.sqrt(d2.min(axis=1))
    return out


def test_nearest_distance_routes_agree(phantom):
    rng = np.random.default_rng(28)
    pairs = [(rng.random((24, 24)) < 0.15, rng.random((24, 24)) < 0.15) for _ in range(10)]
    for shape in ((17, 40), (40, 17)):
        pairs.append((rng.random(shape) < 0.15, rng.random(shape) < 0.15))
    # the benchmark triple's edge maps: about 2k ideal edge pixels on 256^2
    noisy = apply_speckle(phantom, SpeckleSpec(kind="gamma", looks=3, seed=42))
    pairs.append((detect_edges(despeckle(noisy, 2.68)), detect_edges(phantom)))
    # the 1024^2 phantom's edges against its shifted edges plus scattered
    # pixels: few enough detected pixels for the brute oracle
    big = make_phantom(1024)
    shifted = detect_edges(np.roll(big, (3, -5), axis=(0, 1)))
    pairs.append((shifted | (rng.random(big.shape) < 0.002), detect_edges(big)))
    for detected, ideal in pairs:
        if not (ideal.any() and detected.any()):
            continue
        distances = nearest_edge_distances(detected, ideal)
        assert_array_equal(distances, ndimage.distance_transform_edt(~ideal)[detected])
        assert_array_equal(distances, _brute_distances(detected, ideal))


def test_nearest_distance_brute_matches_loop_oracle():
    rng = np.random.default_rng(29)
    detected = rng.random((10, 10)) < 0.3
    ideal = rng.random((10, 10)) < 0.2
    ideal[5, 5] = True
    det_pts = np.argwhere(detected)
    ideal_pts = np.argwhere(ideal)
    want = [
        min(np.hypot(r - ir, c - ic) for ir, ic in ideal_pts) for r, c in det_pts
    ]
    assert_allclose(_brute_distances(detected, ideal), want, rtol=0, atol=1e-12)
    assert_allclose(nearest_edge_distances(detected, ideal), want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- report


def test_full_report_no_noise_identity(phantom):
    report = full_report(phantom, phantom, phantom)
    assert report.msd == 0.0
    assert report.fom == 1.0
    assert report.nsd**2 == pytest.approx(report.nv, rel=1e-12)


def test_full_report_table_order():
    assert MetricsReport.CSV_HEADER == "NV,MSD,NMV,NSD,ENL,DR,FOM"
    report = MetricsReport(nmv=3.0, nv=4.0, nsd=2.0, msd=1.0, enl=5.0, dr=0.25, fom=0.5)
    assert report.to_csv_row() == "4.0,1.0,3.0,2.0,5.0,0.25,0.5"
    table = report.to_table()
    header, row = table.split("\n")
    assert header.split() == ["NV", "MSD", "NMV", "NSD", "ENL", "DR", "FOM"]
    assert "0.2500" in row  # DR printed to four decimals
    assert len(header.split()) == len(row.split()) == 7


def test_full_report_shape_mismatch():
    with pytest.raises(ValueError):
        full_report(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 5)))


def test_metrics_config_validation():
    with pytest.raises(ValueError):
        MetricsConfig(block=1)
    with pytest.raises(ValueError):
        MetricsConfig(tau=1.5)
    with pytest.raises(ValueError):
        MetricsConfig(alpha=0.0)
