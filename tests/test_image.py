import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from despeckle.image import exp_domain, log_domain, read_pgm, subtract, write_pgm


def test_read_pgm_8bit():
    data = b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])
    img = read_pgm(data)
    assert_array_equal(img, [[0.0, 128.0], [255.0, 64.0]])


def test_read_pgm_16bit_big_endian():
    img = read_pgm(b"P5\n1 1\n65535\n" + bytes([0x01, 0x00]))
    assert_array_equal(img, [[256.0]])


def test_read_pgm_header_comments():
    data = b"P5\n# a comment\n2 1 # trailing\n255\n" + bytes([7, 9])
    assert_array_equal(read_pgm(data), [[7.0, 9.0]])


@pytest.mark.parametrize(
    "data",
    [b"P5#c\n2 1\n255\n" + bytes([7, 9]), b"P5 2#c\n1 255\n" + bytes([7, 9])],
    ids=["comment-after-magic", "comment-ends-token"],
)
def test_read_pgm_comment_boundaries(data):
    assert_array_equal(read_pgm(data), [[7.0, 9.0]])


def test_write_pgm_clamps():
    out = write_pgm(np.array([[256.0]]), 255)
    assert out == b"P5\n1 1\n255\n" + bytes([255])


def test_write_pgm_16bit_big_endian():
    out = write_pgm(np.array([[0.0], [65535.0]]), 65535)
    assert out == b"P5\n1 2\n65535\n" + bytes([0x00, 0x00, 0xFF, 0xFF])


@pytest.mark.parametrize(
    "maxval", [255.0, 65535.0, np.float64(255)], ids=["255.0", "65535.0", "np.float64(255)"]
)
def test_write_pgm_float_maxval_writes_integer_header(maxval):
    img = np.array([[0.0, 17.0], [200.0, 255.0]])
    data = write_pgm(img, maxval)
    assert data == write_pgm(img, int(maxval))
    assert_array_equal(read_pgm(data), img)


def test_log_domain_values():
    assert log_domain(np.array([[0.0]]))[0, 0] == 0.0
    assert log_domain(np.array([[math.e - 1.0]]))[0, 0] == pytest.approx(1.0, rel=1e-15)


def test_exp_domain_values():
    assert exp_domain(np.array([[0.0]]))[0, 0] == 0.0
    assert exp_domain(np.array([[1.0]]))[0, 0] == pytest.approx(math.e - 1.0, rel=1e-15)


def test_log_exp_mutual_inverses():
    rng = np.random.default_rng(3)
    img = rng.uniform(0.0, 65535.0, size=(16, 16))
    back = exp_domain(log_domain(img))
    assert_allclose(back, img, rtol=1e-12)
    # exp output must stay in log_domain's domain (pixels >= 0)
    logged = rng.uniform(0.0, 11.0, size=(16, 16))
    assert_allclose(log_domain(exp_domain(logged)), logged, rtol=0, atol=1e-12)


def test_subtract():
    a = np.array([[3.0]])
    b = np.array([[1.0]])
    assert_array_equal(subtract(a, b), [[2.0]])
    assert_array_equal(subtract(a, a), [[0.0]])


