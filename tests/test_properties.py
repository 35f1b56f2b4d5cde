"""Property tests over arbitrary image shapes, even and odd, from single
pixels to images that span several strips."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy import ndimage

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from despeckle.metrics import _sobel_magnitude, detect_edges  # noqa: E402
from despeckle.wavelet import bank_by_name, dwt2, idwt2  # noqa: E402

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
    bank = bank_by_name(name)
    sub = dwt2(img, bank)
    rec = idwt2(sub, bank)
    assert rec.shape == img.shape
    assert np.abs(rec - img).max() <= 1e-10 * max(np.abs(img).max(), 1.0)
    # Odd sizes are padded by edge replication; the transform is orthonormal
    # on the padded image.
    rows, cols = img.shape
    padded = np.pad(img, ((0, rows % 2), (0, cols % 2)), mode="edge")
    energy = sum(float(np.sum(b * b)) for b in (sub.ca, sub.chd, sub.cvd, sub.cdd))
    assert energy == pytest.approx(float(np.sum(padded * padded)), rel=1e-10, abs=1e-10)


@settings(deadline=2000)
@given(img=images, tau=st.sampled_from([0.1, 0.2, 0.25, 0.5, 0.75]))
def test_detect_edges_equals_sobel_oracle(img, tau):
    magnitude = np.hypot(
        ndimage.sobel(img, axis=1, mode="nearest"), ndimage.sobel(img, axis=0, mode="nearest")
    )
    assert_array_equal(_sobel_magnitude(img), magnitude)
    peak = magnitude.max()
    expected = magnitude >= tau * peak if peak > 0.0 else np.zeros(img.shape, dtype=bool)
    assert_array_equal(detect_edges(img, tau), expected)
