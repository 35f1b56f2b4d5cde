"""Gray-level images, bit-exact file I/O, and homomorphic primitives.

An image is a 2-D ``float64`` array of finite gray levels. Everything in
this package keeps pixels in double precision end to end; quantization to
integer gray levels happens only in :func:`write_pgm`.

Two on-disk formats:

* binary PGM (magic ``P5``), 8-bit samples for ``maxval <= 255`` and
  big-endian 16-bit samples otherwise (Netpbm convention);
* a raw exchange format (magic ``F64``) storing row-major little-endian
  IEEE-754 doubles, for lossless persistence of real-valued intermediates
  such as log-domain images.

The homomorphic primitives convert between the pixel domain and the log
domain: 1 is added before the logarithm so zero-valued pixels stay
finite, and subtracted again after exponentiation.
"""

import math
import numbers
import re
import sys

import numpy as np

__all__ = [
    "PgmError",
    "as_image",
    "read_pgm",
    "write_pgm",
    "read_f64",
    "write_f64",
    "log_domain",
    "exp_domain",
    "subtract",
]

_WHITESPACE = b" \t\r\n"
# A header token after any whitespace and '#' comments (a comment runs to
# the end of its line); the token is empty only at the end of the data.
_TOKEN = re.compile(rb"(?:[ \t\r\n]|#[^\r\n]*)*([^ \t\r\n#]*)")


class PgmError(ValueError):
    """Malformed PGM/F64 data; the message names the failing byte offset."""


def as_image(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D float64 array, validating dtype, shape
    and values. Integer and floating images convert; an object array
    converts when each element is a real number that float64 holds. Bool,
    complex, string, date and time images and masked arrays are rejected."""
    # numpy.ma is imported by whoever made a masked array, not by numpy
    ma = sys.modules.get("numpy.ma")
    if ma is not None and isinstance(a, ma.MaskedArray):
        raise ValueError("image must not be a masked array; fill its masked pixels first")
    arr = np.asarray(a)
    if arr.dtype == object:
        if not all(_is_real(v) for v in arr.flat):
            raise ValueError("image of dtype object must hold only reals that float64 holds")
    elif arr.dtype.kind not in "iuf":
        raise ValueError(f"image must hold integers or floats, got dtype {arr.dtype}")
    try:
        with np.errstate(over="raise"):
            arr = arr.astype(np.float64, copy=False)
    except FloatingPointError:
        raise ValueError("image pixel values lie beyond float64's range") from None
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"image must be a non-empty 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("image contains non-finite pixel values")
    return arr


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # np.floating is registered as numbers.Real and np.bool_ is not; a Python
    # int beyond float range is a real that no float holds
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _check_size(what: str, shape: tuple) -> None:
    """Raise a ``ValueError`` naming ``what`` when a float64 array of
    ``shape`` has more bytes than numpy can index, where numpy's own error
    names no argument. A size that numpy indexes but memory cannot hold
    still raises numpy's ``MemoryError``."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"{what} = {shape} is larger than a float64 array that numpy can index")


def _finite(figure: str, values):
    """``values`` if all of them are finite; otherwise raise. The pixels are
    finite, so only an overflow makes a figure infinite or NaN."""
    if not np.all(np.isfinite(values)):
        raise OverflowError(f"{figure} overflowed to a non-finite value")
    return values


def _payload(data: bytes, start: int, need: int) -> bytes:
    """The ``need`` sample bytes at ``start``, which must end ``data`` exactly."""
    payload = data[start : start + need]
    if len(payload) < need:
        raise PgmError(
            f"truncated payload at byte {start + len(payload)}: "
            f"expected {need} bytes, got {len(payload)}"
        )
    if len(data) > start + need:
        raise PgmError(
            f"{len(data) - start - need} unexpected byte(s) after the last sample "
            f"at byte {start + need}"
        )
    return payload


def read_pgm(data: bytes) -> np.ndarray:
    """Parse a binary PGM (``P5``) byte string into a float64 image.

    8-bit payloads use one byte per pixel; 16-bit payloads (maxval > 255)
    use two bytes per pixel, big-endian. Header comments are allowed.
    """
    if data[:2] != b"P5":
        raise PgmError(f"expected magic 'P5' at byte 0, got {data[:2]!r}")
    pos = 2
    values = []
    for name in ("width", "height", "maxval"):
        match = _TOKEN.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise PgmError(f"unexpected end of header at byte {pos}")
        if not token.isdigit():  # ASCII decimal only, not int()'s signs and underscores
            raise PgmError(f"invalid {name} {token!r} at byte {pos - len(token)}")
        value = int(token)
        if value <= 0:
            raise PgmError(f"{name} must be positive, got {value} at byte {pos - len(token)}")
        values.append(value)
    cols, rows, maxval = values
    if maxval > 65535:
        raise PgmError(f"maxval {maxval} out of range (> 65535) in header ending at byte {pos}")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PgmError(f"missing whitespace before samples at byte {pos}")
    pos += 1
    sample_bytes = 2 if maxval > 255 else 1
    payload = _payload(data, pos, rows * cols * sample_bytes)
    samples = np.frombuffer(payload, dtype=">u2" if sample_bytes == 2 else "u1")
    above = np.flatnonzero(samples > maxval)
    if above.size:
        first = int(above[0])
        raise PgmError(
            f"sample {int(samples[first])} exceeds maxval {maxval} "
            f"at byte {pos + first * sample_bytes}"
        )
    return samples.astype(np.float64).reshape(rows, cols)


def write_pgm(img, maxval: int = 255) -> bytes:
    """Serialize an image as binary PGM, clamping then rounding to [0, maxval]."""
    if maxval not in (255, 65535):
        raise ValueError(f"maxval must be 255 or 65535, got {maxval!r}")
    arr = as_image(img)
    quantized = np.clip(arr, 0.0, float(maxval))
    np.rint(quantized, out=quantized)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{int(maxval)}\n".encode("ascii")
    dtype = "u1" if maxval == 255 else ">u2"
    return header + quantized.astype(dtype).tobytes()


def read_f64(data: bytes) -> np.ndarray:
    """Parse the raw float64 exchange format (``F64`` magic); every sample
    must be finite."""
    if data[:4] != b"F64\n":
        raise PgmError(f"expected magic 'F64\\n' at byte 0, got {data[:4]!r}")
    end = data.find(b"\n", 4)
    if end < 0:
        raise PgmError(f"unterminated F64 dimension line at byte {len(data)}")
    parts = data[4:end].split()
    if len(parts) != 2:
        raise PgmError(f"expected '<rows> <cols>' at byte 4, got {data[4:end]!r}")
    if not all(part.isdigit() for part in parts):
        raise PgmError(f"invalid F64 dimensions {data[4:end]!r} at byte 4")
    rows, cols = (int(part) for part in parts)
    if rows <= 0 or cols <= 0:
        raise PgmError(f"F64 dimensions must be positive, got {rows}x{cols} at byte 4")
    samples = np.frombuffer(_payload(data, end + 1, rows * cols * 8), dtype="<f8")
    nonfinite = np.flatnonzero(~np.isfinite(samples))
    if nonfinite.size:
        first = int(nonfinite[0])
        raise PgmError(f"non-finite sample {samples[first]} at byte {end + 1 + first * 8}")
    return samples.reshape(rows, cols).astype(np.float64)


def write_f64(img) -> bytes:
    """Serialize an image losslessly as row-major little-endian doubles."""
    arr = as_image(img)
    header = f"F64\n{arr.shape[0]} {arr.shape[1]}\n".encode("ascii")
    return header + arr.astype("<f8").tobytes()


def log_domain(img) -> np.ndarray:
    """Elementwise ``ln(pixel + 1)``; requires non-negative pixels."""
    arr = as_image(img)
    if np.any(arr < 0.0):
        raise ValueError("log_domain requires non-negative pixels")
    out = arr + 1.0
    return np.log(out, out=out)


def exp_domain(img) -> np.ndarray:
    """Elementwise ``exp(pixel) - 1`` of a checked image, the inverse of :func:`log_domain`."""
    return _exp_domain(as_image(img), None)


def _exp_domain(arr: np.ndarray, out) -> np.ndarray:
    """:func:`exp_domain` of an image that the caller checked or built,
    written to ``out``: a new array when ``out`` is None, or ``arr`` itself
    when the caller created ``arr``."""
    with np.errstate(over="ignore"):
        out = np.exp(arr, out=out)
    out -= 1.0
    return _finite("exp_domain", out)


def subtract(a, b) -> np.ndarray:
    """Elementwise difference ``a - b`` of two equally sized images."""
    a = as_image(a)
    b = as_image(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a - b
