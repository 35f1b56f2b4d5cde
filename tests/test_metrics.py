import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import ndimage

from despeckle import metrics
from despeckle.metrics import (
    MetricsReport,
    deflection_ratio,
    detect_edges,
    enl_blocked,
    full_report,
    msd,
    nearest_edge_distances,
    nmv_nv_nsd,
    pratt_fom,
)
from despeckle.pipeline import despeckle
from despeckle.speckle import SpeckleSpec, apply_speckle, generate_speckle

from conftest import (
    _brute_distances,
    _pointwise_magnitude,
    _sobel_edges,
    _sobel_magnitude_oracle,
    make_phantom,
)


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


# ---------------------------------------------------------------- edges


def test_detect_edges_constant_is_empty():
    assert not detect_edges(np.full((8, 8), 5.0)).any()


def test_detect_edges_vertical_step():
    img = np.zeros((8, 8))
    img[:, 4:] = 100.0
    edges = detect_edges(img, 0.2)
    assert edges[:, 3:5].all()
    assert not edges[:, :2].any() and not edges[:, 6:].any()


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
        assert_array_equal(_pointwise_magnitude(img), _sobel_magnitude_oracle(img))
        for tau in (0.2, 0.25, 0.5):
            assert_array_equal(detect_edges(img, tau), _sobel_edges(img, tau))


def _scaled_levels(scale, low=0, high=4):
    rng = np.random.default_rng(33)
    return rng.integers(low, high, size=(23, 29)) * scale


def _top_square_just_normal():
    """Levels scaled so that the largest square lies in the one range where
    the peak's candidates differ between a floor of ``top * (1 - _BAND)``
    and a floor of 0: [_TINY, _TINY / (1 - _BAND)). The scale steps through
    adjacent floats from ``sqrt(_TINY / top)``."""
    levels = _scaled_levels(1.0)
    scale = float(np.sqrt(metrics._TINY / metrics._sobel_squares(levels).max()))
    for _ in range(1000):
        top = metrics._sobel_squares(levels * scale).max()
        if metrics._TINY <= top < metrics._TINY / (1.0 - metrics._BAND):
            return levels * scale
        scale = float(np.nextafter(scale, np.inf if top < metrics._TINY else -np.inf))
    raise AssertionError("no scale puts the largest square just above _TINY")


@pytest.mark.parametrize(
    "img",
    [
        # squares below the normal range (about 1e-320) or infinite (about
        # 1e320), and gradients whose square only just stays normal
        _scaled_levels(1e-160),
        _scaled_levels(1e160),
        _scaled_levels(1e-154),
        _scaled_levels(1e154),
        # the largest square just above the smallest normal
        _top_square_just_normal(),
        # gradients that overflow to +-inf and NaN in the Sobel sums
        _scaled_levels(1.5e308, -1, 2),
        # stripes whose every edge pixel ties at the peak, and a peak tied
        # between one step and its mirror image
        np.repeat([[0.0, 0.0, 3.0, 3.0, 0.0, 0.0, 3.0]], 9, axis=0),
        np.repeat([[0.0, 1.0, 2.0, 1.0, 0.0]], 5, axis=0).T,
        # a constant image, and a diagonal whose every square underflows to
        # zero while its hypot does not
        np.full((6, 7), 5.0),
        np.eye(8) * 1e-300,
    ],
    ids=[
        "1e-160",
        "1e160",
        "1e-154",
        "1e154",
        "tiny-top",
        "1e308",
        "stripes",
        "tent",
        "constant",
        "subnormal",
    ],
)
@pytest.mark.parametrize("tau", [1e-300, 0.2, 0.5, 0.999])
def test_detect_edges_at_extreme_levels_matches_oracle(img, tau):
    # the pointwise helper decides every square that the band cannot
    with np.errstate(over="ignore", invalid="ignore"):
        assert_array_equal(_pointwise_magnitude(img), _sobel_magnitude_oracle(img))
        assert_array_equal(detect_edges(img, tau), _sobel_edges(img, tau))


def test_detect_edges_with_squares_below_the_normal_range_matches_oracle():
    # Sobel pairs near 1e-161 square to subnormals, whose relative error is
    # unbounded, and so does the threshold: hypot must decide them.
    rng = np.random.default_rng(5)
    for _ in range(1500):
        scale = 10.0 ** rng.uniform(-166, -155)
        img = rng.integers(0, 5, (5, 5)) * scale * rng.choice([1.0, 1.0001, 0.9999], (5, 5))
        tau = float(rng.choice([0.2, 0.25, 0.5, 0.3, 0.7, 0.999]))
        assert_array_equal(detect_edges(img, tau), _sobel_edges(img, tau))


def test_detect_edges_peak_is_hypot_not_largest_square():
    # A 3x3 patch, a zero column and its mirror image, one pixel of which is
    # three ulps lower: the largest square lies at (2, 0) and the largest
    # magnitude at (2, 6), one ulp larger.
    patch = np.array(
        [
            [0.9951703927724493, 0.4592745643293781, 0.7929340596071114],
            [0.5975786665544254, 0.08948464957194391, 0.1280238789471766],
            [0.9772838868634961, 0.3511317683017021, 0.37780358301625494],
        ]
    )
    img = np.hstack([patch, np.zeros((3, 1)), np.fliplr(patch)])
    img[1, 6] -= 3 * np.spacing(img[1, 6])
    squares = metrics._sobel_squares(img)
    assert squares.argmax() == np.ravel_multi_index((2, 0), img.shape)
    magnitude = _sobel_magnitude_oracle(img)
    assert magnitude[2, 6] == np.nextafter(magnitude[2, 0], np.inf) == magnitude.max()
    for tau in (0.18052455947911714, 0.3000293666461979, 0.4927688446263145):
        assert_array_equal(detect_edges(img, tau), _sobel_edges(img, tau))


# ---------------------------------------------------------------- FOM


def test_fom_single_pixel_at_distance_three():
    ideal = np.zeros((8, 8), dtype=bool)
    detected = np.zeros((8, 8), dtype=bool)
    ideal[0, 0] = True
    detected[0, 3] = True
    assert pratt_fom(detected, ideal, alpha=1.0 / 9.0) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("figure", [nearest_edge_distances, pratt_fom])
def test_edge_map_of_0_and_1_gives_the_boolean_bytes(figure):
    clean = make_phantom(64)
    detected, ideal = detect_edges(apply_speckle(clean, SpeckleSpec())), detect_edges(clean)
    numeric = figure(detected.astype(np.uint8), ideal.astype(np.float64))
    assert pickle.dumps(numeric) == pickle.dumps(figure(detected, ideal))


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
    report = MetricsReport(nmv=3.0, nv=4.0, msd=1.0, enl=5.0, dr=0.25, fom=0.5)
    assert report.to_csv_row() == "4.0,1.0,3.0,2.0,5.0,0.25,0.5"
    table = report.to_table()
    header, row = table.split("\n")
    assert header.split() == ["NV", "MSD", "NMV", "NSD", "ENL", "DR", "FOM"]
    assert "0.2500" in row  # DR printed to four decimals
    assert len(header.split()) == len(row.split()) == 7


_FIGURES = ("nmv_nv_nsd", "msd", "enl_blocked", "deflection_ratio", "detect_edges", "pratt_fom")


def _spy_on_figures(monkeypatch):
    """Wrap the module's public figure functions; returns the list of the
    names called, in call order."""
    calls = []
    for name in _FIGURES:

        def spy(*args, _name=name, _fn=getattr(metrics, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(metrics, name, spy)
    return calls


def _triple(shape, seed):
    clean = make_phantom(max(shape))[: shape[0], : shape[1]]
    noisy = apply_speckle(clean, SpeckleSpec(kind="gamma", looks=3, seed=seed))
    return clean, noisy, despeckle(noisy, 2.0)


def test_full_report_composes_public_figures(monkeypatch):
    calls = _spy_on_figures(monkeypatch)
    full_report(*_triple((64, 64), 5))
    # deflection_ratio reads its statistics through nmv_nv_nsd
    assert calls == [
        "nmv_nv_nsd",
        "msd",
        "enl_blocked",
        "deflection_ratio",
        "nmv_nv_nsd",
        "detect_edges",
        "detect_edges",
        "pratt_fom",
    ]


@pytest.mark.parametrize("shape", [(256, 256), (97, 131)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_full_report_equals_composition(shape):
    clean, noisy, out = _triple(shape, 11)
    nmv, nv, nsd = nmv_nv_nsd(out)
    report = full_report(clean, noisy, out, block=16, tau=0.3, alpha=0.5)
    assert report.nsd == nsd
    assert report == MetricsReport(
        nmv=nmv,
        nv=nv,
        msd=msd(noisy, out),
        enl=enl_blocked(out, 16),
        dr=deflection_ratio(out, noisy),
        fom=pratt_fom(detect_edges(out, 0.3), detect_edges(clean, 0.3), alpha=0.5),
    )


TEXTURED = (np.random.default_rng(31).uniform(1.0, 255.0, size=(50, 50)),) * 3


@pytest.mark.parametrize(
    "images, bad, message",
    [
        ((np.zeros((4, 4)),) * 2 + (np.zeros((4, 5)),), {}, "shape mismatch: (4, 4), (4, 4), (4, 5)"),
        (TEXTURED, {"block": 2.5}, "block must be >= 2, got 2.5"),
        (TEXTURED, {"block": 1}, "block must be >= 2, got 1"),
        (TEXTURED, {"tau": 1.5}, "tau must lie in (0, 1), got 1.5"),
        (TEXTURED, {"alpha": float("inf")}, "alpha must be positive and finite, got inf"),
    ],
    ids=["shapes", "block-2.5", "block-1", "tau", "alpha"],
)
def test_full_report_checks_arguments_before_any_figure(monkeypatch, images, bad, message):
    calls = _spy_on_figures(monkeypatch)
    with pytest.raises(ValueError) as raised:
        full_report(*images, **bad)
    assert (str(raised.value), calls) == (message, [])
