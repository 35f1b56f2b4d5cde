import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from despeckle.image import (
    PgmError,
    as_image,
    exp_domain,
    log_domain,
    read_f64,
    read_pgm,
    subtract,
    write_f64,
    write_pgm,
)


def test_read_pgm_8bit():
    data = b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])
    img = read_pgm(data)
    assert_array_equal(img, [[0.0, 128.0], [255.0, 64.0]])


def test_read_pgm_16bit_big_endian():
    img = read_pgm(b"P5\n1 1\n65535\n" + bytes([0x01, 0x00]))
    assert_array_equal(img, [[256.0]])


def test_read_pgm_wrong_magic():
    with pytest.raises(PgmError, match="P5"):
        read_pgm(b"P4\n2 2\n255\n" + bytes(4))


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


def test_read_pgm_header_ending_in_comment_names_offset():
    with pytest.raises(PgmError, match="^unexpected end of header at byte 9$"):
        read_pgm(b"P5 2 1 #c")


def test_read_pgm_truncated_payload_names_offset():
    data = b"P5\n2 2\n255\n" + bytes([1, 2, 3])
    with pytest.raises(PgmError, match="byte 14"):
        read_pgm(data)


def test_read_pgm_maxval_out_of_range():
    with pytest.raises(PgmError, match="out of range"):
        read_pgm(b"P5\n1 1\n65536\n" + bytes(2))


def test_read_pgm_malformed_dimension_names_offset():
    with pytest.raises(PgmError, match="byte 3"):
        read_pgm(b"P5\nxy 2\n255\n" + bytes(4))


# Header fields are ASCII decimal: int()'s signs and digit separators are
# not, so each of these names its field instead of parsing.
@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5\n1_0 1\n255\n" + bytes(10), "invalid width b'1_0' at byte 3"),
        (b"P5\n+2 1\n255\n" + bytes(2), "invalid width b'+2' at byte 3"),
        (b"P5\n2 -1\n255\n" + bytes(2), "invalid height b'-1' at byte 5"),
        (b"P5\n2 1\n2_55\n" + bytes(2), "invalid maxval b'2_55' at byte 7"),
    ],
    ids=["underscore", "plus", "minus", "maxval"],
)
def test_read_pgm_non_decimal_field_names_offset(data, message):
    with pytest.raises(PgmError, match=f"^{re.escape(message)}$"):
        read_pgm(data)


@pytest.mark.parametrize(
    "data, offset",
    [
        (b"P5\n2 2\n200\n" + bytes([0, 200, 201, 7]), 13),  # 8-bit, third sample
        (b"P5\n2 1\n1000\n" + bytes([0x03, 0xE8, 0x03, 0xE9]), 14),  # 16-bit, second
    ],
    ids=["8bit", "16bit"],
)
def test_read_pgm_sample_above_maxval_names_offset(data, offset):
    with pytest.raises(PgmError, match=f"exceeds maxval .* at byte {offset}$"):
        read_pgm(data)


def test_read_pgm_trailing_payload_names_offset():
    data = b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4, 5])
    with pytest.raises(PgmError, match="1 unexpected byte.* at byte 15$"):
        read_pgm(data)


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


def test_f64_rejects_bad_magic_and_truncation():
    with pytest.raises(PgmError, match="byte 0"):
        read_f64(b"F32\n1 1\n" + bytes(8))
    with pytest.raises(PgmError, match="truncated"):
        read_f64(b"F64\n2 2\n" + bytes(8))


def test_f64_rejects_trailing_bytes_names_offset():
    data = write_f64(np.zeros((1, 2))) + b"\n"
    with pytest.raises(PgmError, match="1 unexpected byte.* at byte 24$"):
        read_f64(data)


@pytest.mark.parametrize("index, value", [(5, np.nan), (0, np.inf)])
def test_f64_rejects_nonfinite_sample_names_offset(index, value):
    samples = np.arange(6.0)
    samples[index] = value
    data = b"F64\n2 3\n" + samples.astype("<f8").tobytes()
    with pytest.raises(PgmError, match=f"non-finite sample {value} at byte {8 + 8 * index}$"):
        read_f64(data)


@pytest.mark.parametrize(
    "data, dims",
    [
        (b"F64\n+1 0_1\n" + bytes(8), b"+1 0_1"),
        (b"F64\n1_0 1\n" + bytes(80), b"1_0 1"),
        (b"F64\n-1 1\n" + bytes(8), b"-1 1"),
    ],
    ids=["plus-underscore", "underscore", "minus"],
)
def test_read_f64_non_decimal_dimensions_names_offset(data, dims):
    message = f"invalid F64 dimensions {dims!r} at byte 4"
    with pytest.raises(PgmError, match=f"^{re.escape(message)}$"):
        read_f64(data)


@pytest.mark.parametrize(
    "read, data, message",
    [
        (read_pgm, b"P5 0 1 255\n", "width must be positive, got 0 at byte 3"),
        (read_pgm, b"P5 1 1 255#x\n\x00", "missing whitespace before samples at byte 10"),
        (read_f64, b"F64\n1 1", "unterminated F64 dimension line at byte 7"),
        (read_f64, b"F64\n1\n" + bytes(8), "expected '<rows> <cols>' at byte 4, got b'1'"),
        (read_f64, b"F64\n0 1\n", "F64 dimensions must be positive, got 0x1 at byte 4"),
    ],
    ids=["pgm-zero-width", "pgm-no-whitespace", "f64-unterminated", "f64-one-field", "f64-zero"],
)
def test_malformed_header_names_problem_and_offset(read, data, message):
    with pytest.raises(PgmError, match=f"^{re.escape(message)}$"):
        read(data)


def test_log_domain_values():
    assert log_domain(np.array([[0.0]]))[0, 0] == 0.0
    assert log_domain(np.array([[math.e - 1.0]]))[0, 0] == pytest.approx(1.0, rel=1e-15)


def test_log_domain_rejects_negative():
    with pytest.raises(ValueError):
        log_domain(np.array([[-1.0]]))


def test_exp_domain_values():
    assert exp_domain(np.array([[0.0]]))[0, 0] == 0.0
    assert exp_domain(np.array([[1.0]]))[0, 0] == pytest.approx(math.e - 1.0, rel=1e-15)


def test_exp_domain_overflow():
    with pytest.raises(OverflowError):
        exp_domain(np.array([[1e4]]))


@pytest.mark.parametrize(
    "img, message",
    [
        (np.zeros(4), r"^image must be a non-empty 2-D array, got shape \(4,\)$"),
        (np.array([[np.nan]]), "^image contains non-finite pixel values$"),
    ],
    ids=["1-D", "NaN"],
)
def test_exp_domain_validates_its_input(img, message):
    with pytest.raises(ValueError, match=message):
        exp_domain(img)


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
    with pytest.raises(ValueError):
        subtract(np.zeros((2, 2)), np.zeros((2, 3)))


def test_as_image_rejects_nonfinite_and_wrong_shape():
    with pytest.raises(ValueError):
        as_image(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        as_image(np.zeros(4))
    with pytest.raises(ValueError):
        as_image(np.zeros((0, 3)))
