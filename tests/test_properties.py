"""Property tests over arbitrary image shapes, even and odd, from single
pixels to images that span several strips, over arbitrary edge maps, over
the calibration loop's inputs, and over arbitrary file bytes."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy import ndimage

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from conftest import _brute_distances, _detail_magnitudes, _reference_calibrate  # noqa: E402
from despeckle import _strips, metrics  # noqa: E402
from despeckle.fuzzy import scalarize  # noqa: E402
from despeckle.image import PgmError, log_domain, read_f64, read_pgm, write_f64, write_pgm  # noqa: E402
from despeckle.metrics import (  # noqa: E402
    _sobel_hypot,
    detect_edges,
    enl_blocked,
    nearest_edge_distances,
    pratt_fom,
)
from despeckle.pipeline import (  # noqa: E402
    PipelineConfig,
    calibrate,
    despeckle,
    initial_threshold,
    median_filter_homomorphic,
    trace_to_csv,
)
from despeckle.speckle import (  # noqa: E402
    _RAYLEIGH_SCALE,
    KINDS,
    SpeckleSpec,
    apply_speckle,
    generate_speckle,
)
from despeckle.thresholding import hard_threshold, soft_threshold  # noqa: E402
from despeckle.wavelet import _diagonal_detail, dwt2, idwt2  # noqa: E402

# Small shapes, and shapes of 2.2-4.3 MiB whose row passes cut into 2-4 strips.
shapes = st.one_of(
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
    st.tuples(st.integers(500, 700), st.integers(560, 800)),
)
images = st.builds(
    lambda shape, seed, levels: _image(shape, seed, levels),
    shapes,
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 2, 3]),
)


def _image(shape, seed, levels):
    """Uniform gray levels in [0, 255); ``levels`` > 0 quantises them to
    that many values, which makes equal gradient magnitudes common."""
    img = np.random.default_rng(seed).uniform(0.0, 255.0, size=shape)
    return np.floor(img * levels / 255.0) if levels else img


@settings(deadline=2000)
@given(img=images, name=st.sampled_from(["haar", "db2", "db4"]))
def test_dwt_perfect_reconstruction_and_parseval(img, name):
    sub = dwt2(img, name)
    rec = idwt2(sub, name)
    assert rec.shape == img.shape
    assert np.abs(rec - img).max() <= 1e-10 * max(np.abs(img).max(), 1.0)
    # Odd sizes are padded by edge replication; the transform is orthonormal
    # on the padded image.
    rows, cols = img.shape
    padded = np.pad(img, ((0, rows % 2), (0, cols % 2)), mode="edge")
    energy = sum(float(np.sum(b * b)) for b in (sub.ca, sub.chd, sub.cvd, sub.cdd))
    assert energy == pytest.approx(float(np.sum(padded * padded)), rel=1e-10, abs=1e-10)


@settings(deadline=2000)
@given(img=images, name=st.sampled_from(["haar", "db2", "db4"]))
def test_diagonal_detail_equals_dwt2_cdd(img, name):
    assert_array_equal(_diagonal_detail(img, name), dwt2(img, name).cdd)


@settings(deadline=2000)
@given(
    img=images,
    name=st.sampled_from(["haar", "db2", "db4"]),
    shrink=st.sampled_from([hard_threshold, soft_threshold]),
    lams=st.lists(st.floats(0.0, 8.0), min_size=2, max_size=6),
)
def test_detail_energy_non_increasing_in_threshold(img, name, shrink, lams):
    sub = dwt2(log_domain(img), name)
    energies = [
        sum(float(np.sum(shrink(band, lam) ** 2)) for band in (sub.chd, sub.cvd, sub.cdd))
        for lam in sorted(lams)
    ]
    assert all(later <= earlier for earlier, later in zip(energies, energies[1:]))


@settings(deadline=2000)
@given(
    rows=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    cols=st.integers(1, 40),
    kind=st.sampled_from(KINDS),
    looks=st.integers(1, 4),
    seed=st.integers(0, 2**64 - 1),
)
def test_speckle_row_is_independent_of_row_count(rows, cols, kind, looks, seed):
    spec = SpeckleSpec(kind=kind, looks=looks, seed=seed)
    a, b = (generate_speckle(n, cols, spec) for n in rows)
    common = min(rows)
    assert a[:common].tobytes() == b[:common].tobytes()


def _per_row_speckle(rows, cols, spec):
    """The field as one spawned generator per row and one transform per
    row: the reference that generate_speckle must match byte for byte."""
    field = np.empty((rows, cols), dtype=np.float64)
    children = np.random.SeedSequence(spec.seed).spawn(rows)
    for r, child in enumerate(children):
        gen = np.random.Generator(np.random.PCG64(child))
        if spec.kind == "rayleigh":
            u = gen.random(cols)
            field[r] = _RAYLEIGH_SCALE * np.sqrt(-2.0 * np.log1p(-u))
        elif spec.kind == "exponential":
            field[r] = -np.log1p(-gen.random(cols))
        else:
            u = gen.random((spec.looks, cols))
            field[r] = -np.log1p(-u).sum(axis=0) / spec.looks
    return field


@settings(deadline=2000)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    kind=st.sampled_from(KINDS),
    looks=st.integers(1, 20),
    seed=st.integers(0, 2**64 - 1),
)
def test_speckle_equals_per_row_oracle(rows, cols, kind, looks, seed):
    spec = SpeckleSpec(kind=kind, looks=looks, seed=seed)
    expected = _per_row_speckle(rows, cols, spec).tobytes()
    assert generate_speckle(rows, cols, spec).tobytes() == expected


# Strips far below the default size: three 7-column rows per strip cut 10
# rows into strips of 3, 3 and 4 (the first two fill only part of the strip
# buffer), and a 7-column gamma-20 row is larger than a whole strip.
@pytest.mark.parametrize(
    "kind, looks, strip_bytes, rows, strips",
    [
        ("gamma", 3, 3 * 8 * 3 * 7, 10, [3, 3, 4]),
        ("gamma", 20, 64, 5, [1] * 5),
        ("rayleigh", 3, 3 * 8 * 7, 10, [3, 3, 4]),
        ("exponential", 3, 3 * 8 * 7, 10, [3, 3, 4]),
    ],
    ids=["gamma-uneven-strips", "gamma-row-over-strip", "rayleigh", "exponential"],
)
def test_speckle_strips_equal_per_row_oracle(monkeypatch, kind, looks, strip_bytes, rows, strips):
    monkeypatch.setattr(_strips, "_STRIP_BYTES", strip_bytes)
    line_bytes = 8 * (looks if kind == "gamma" else 1) * 7
    assert [b.stop - b.start for b in _strips._bounds(rows, line_bytes)] == strips
    for seed in (0, 2**64 - 1):
        spec = SpeckleSpec(kind=kind, looks=looks, seed=seed)
        expected = _per_row_speckle(rows, 7, spec).tobytes()
        assert generate_speckle(rows, 7, spec).tobytes() == expected


@settings(deadline=2000)
@given(img=images, tau=st.sampled_from([0.1, 0.2, 0.25, 0.5, 0.75]))
def test_detect_edges_equals_sobel_oracle(img, tau):
    magnitude = np.hypot(
        ndimage.sobel(img, axis=1, mode="nearest"), ndimage.sobel(img, axis=0, mode="nearest")
    )
    pointwise = _sobel_hypot(img, np.arange(img.size)).reshape(img.shape)
    assert_array_equal(pointwise, magnitude)
    peak = magnitude.max()
    expected = magnitude >= tau * peak if peak > 0.0 else np.zeros(img.shape, dtype=bool)
    assert_array_equal(detect_edges(img, tau), expected)


@settings(deadline=2000)
@given(img=images)
def test_median_equals_ndimage_oracle(img):
    assume(min(img.shape) >= 3)
    logged = log_domain(img)
    expected = np.exp(ndimage.median_filter(logged, size=3, mode="nearest")) - 1.0
    assert median_filter_homomorphic(img, 3).tobytes() == expected.tobytes()


def _enl_or_error(img, block):
    """ENL, or the error message when every tile is constant."""
    try:
        return enl_blocked(img, block)
    except ValueError as exc:
        if "constant" not in str(exc):
            raise
        return str(exc)


# block, full tile rows and full tile columns
tile_grids = st.tuples(st.integers(2, 9), st.integers(1, 12), st.integers(1, 12))


@settings(deadline=2000)
@given(
    grid=tile_grids,
    band_rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    levels=st.sampled_from([0, 2, 3]),
)
def test_enl_bands_equal_one_band(grid, band_rows, seed, levels):
    block, n_r, n_c = grid
    tile_row_bytes = n_c * block * block * 8
    assume(n_r >= 2 * band_rows)
    img = _image((n_r * block + block // 2, n_c * block + 1), seed, levels)
    assert len(_strips._bounds(n_r, tile_row_bytes)) == 1
    expected = _enl_or_error(img, block)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_strips, "_STRIP_BYTES", band_rows * tile_row_bytes)
        assert len(_strips._bounds(n_r, tile_row_bytes)) > 1
        assert _enl_or_error(img, block) == expected


@settings(deadline=2000)
@given(
    grid=tile_grids,
    extra=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    levels=st.sampled_from([0, 2, 3]),
)
def test_enl_ignores_partial_tiles(grid, extra, seeds, levels):
    block, n_r, n_c = grid
    full = _image((n_r * block, n_c * block), seeds[0], levels)
    rows, cols = (n_r * block + extra[0] % block, n_c * block + extra[1] % block)
    padded = _image((rows, cols), seeds[1], levels)
    padded[: full.shape[0], : full.shape[1]] = full
    assert _enl_or_error(padded, block) == _enl_or_error(full, block)


# Edge maps of one shape, single rows and single columns included.
edge_maps = st.one_of(
    st.tuples(st.integers(1, 30), st.integers(1, 30)),
    st.tuples(st.just(1), st.integers(1, 200)),
    st.tuples(st.integers(1, 200), st.just(1)),
).flatmap(lambda shape: st.tuples(hnp.arrays(bool, shape), hnp.arrays(bool, shape)))


@settings(deadline=2000)
@given(maps=edge_maps, points=st.integers(1, 8))
def test_nearest_edge_distances_equal_brute_oracle(maps, points):
    detected, ideal = maps
    assume(ideal.any())
    # chunks of a few detected pixels: several per map, the last one partial
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_POINTS", points)
        distances = nearest_edge_distances(detected, ideal)
    assert_array_equal(distances, _brute_distances(detected, ideal))


@settings(deadline=2000)
@given(maps=edge_maps, alpha=st.floats(1e-3, 1e3))
def test_pratt_fom_lies_in_unit_interval(maps, alpha):
    detected, ideal = maps
    assume(ideal.any())
    assert 0.0 <= pratt_fom(detected, ideal, alpha) <= 1.0
    assert pratt_fom(ideal, ideal, alpha) == 1.0
    assert pratt_fom(np.zeros_like(ideal), ideal, alpha) == 0.0


# Clean references 2-40 px a side whose diagonal detail block holds at least
# the two coefficients the seed needs (one side of 3 or more); not constant,
# so the peak is positive.
clean_references = st.builds(
    lambda shape, seed, levels: _image(shape, seed, levels),
    st.tuples(st.integers(2, 40), st.integers(3, 40)).flatmap(
        lambda shape: st.sampled_from([shape, shape[::-1]])
    ),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 2, 3]),
).filter(lambda img: img.min() < img.max())


@settings(deadline=2000)
@given(
    clean=clean_references,
    kind=st.sampled_from(KINDS),
    looks=st.integers(1, 4),
    seed=st.integers(0, 2**64 - 1),
    cfg=st.builds(
        PipelineConfig, st.sampled_from(["haar", "db2", "db4"]), st.sampled_from(["hard", "soft"])
    ),
    # a multiple of the peak, or the default 2%; above about 1 the loop
    # converges at the seed
    epsilon=st.one_of(st.none(), st.floats(1e-4, 2.0)),
    max_iter=st.integers(1, 30),
)
def test_calibrate_equals_reference_loop(clean, kind, looks, seed, cfg, epsilon, max_iter):
    spec = SpeckleSpec(kind=kind, looks=looks, seed=seed)
    if epsilon is not None:
        epsilon *= float(clean.max())
    result = calibrate(clean, spec, cfg, epsilon, max_iter)
    best_lam, expected = _reference_calibrate(clean, spec, cfg, max_iter, epsilon)
    assert trace_to_csv(result.trace) == trace_to_csv(expected.trace)
    assert result.stop_reason == expected.stop_reason
    assert result.lambda_star == best_lam

    noisy = apply_speckle(clean, spec)
    lam0 = initial_threshold(noisy, cfg).lam
    top = float(_detail_magnitudes(noisy, cfg).max())
    # the seed is the universal threshold, which may lie above max|d| on
    # small images; every later threshold is clamped to [0, max|d|]
    assert result.trace[0].lam == lam0 >= 0.0
    assert all(0.0 <= step.lam <= top for step in result.trace[1:])

    def error(lam):
        return abs(scalarize(clean - despeckle(noisy, lam, cfg)).e)

    assert error(result.lambda_star) <= error(lam0)
    epsilon = 0.02 * float(clean.max()) if epsilon is None else epsilon
    assert result.iterations <= max_iter
    assert result.converged == (result.trace[-1].me <= epsilon)
    assert result.stop_reason != "max_iter" or result.iterations == max_iter


file_shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24)


def _gray_levels(maxval):
    return hnp.arrays(np.float64, file_shapes, elements=st.integers(0, maxval).map(float))


finite_images = hnp.arrays(
    np.float64, file_shapes, elements=st.floats(allow_nan=False, allow_infinity=False)
)


@settings(deadline=2000)
@given(maxval=st.sampled_from([255, 65535]), data=st.data())
def test_pgm_round_trip(maxval, data):
    img = data.draw(_gray_levels(maxval))
    assert_array_equal(read_pgm(write_pgm(img, maxval)), img)


@settings(deadline=2000)
@given(img=finite_images)
def test_f64_round_trip_is_bit_exact(img):
    out = read_f64(write_f64(img))
    assert out.shape == img.shape
    assert out.tobytes() == img.tobytes()


def _encoded(images, reader, write, sample_bytes):
    """(reader, file bytes, header length) of each drawn image."""

    def encode(img):
        data = write(img)
        return reader, data, len(data) - img.size * sample_bytes

    return images.map(encode)


encoded_files = st.one_of(
    _encoded(_gray_levels(255), read_pgm, lambda img: write_pgm(img, 255), 1),
    _encoded(_gray_levels(65535), read_pgm, lambda img: write_pgm(img, 65535), 2),
    _encoded(finite_images, read_f64, write_f64, 8),
)

# One edit of an encoded file: overwrite, insert or delete a byte, or cut the
# file short, at an offset in the header or anywhere in the file, with a byte
# that favours header syntax.
edits = st.tuples(
    st.sampled_from(["set", "insert", "delete", "truncate"]),
    st.booleans(),
    st.integers(0, 1 << 16),
    st.one_of(st.sampled_from(b"-0123456789 \n#"), st.integers(0, 255)),
)


def _mutate(data, header_bytes, changes):
    buf = bytearray(data)
    for kind, in_header, offset, value in changes:
        span = min(header_bytes, len(buf)) if in_header else len(buf)
        i = offset % (span + 1)
        if kind == "set" and i < len(buf):
            buf[i] = value
        elif kind == "insert":
            buf[i:i] = bytes([value])
        elif kind == "delete":
            del buf[i : i + 1]
        elif kind == "truncate":
            del buf[i:]
    return bytes(buf)


@settings(deadline=2000)
@given(encoded=encoded_files, changes=st.lists(edits, min_size=1, max_size=8))
def test_mutated_files_fail_only_with_pgm_error(encoded, changes):
    reader, data, header_bytes = encoded
    try:
        img = reader(_mutate(data, header_bytes, changes))
    except PgmError:
        return
    assert img.ndim == 2 and img.dtype == np.float64
    assert np.all(np.isfinite(img))
