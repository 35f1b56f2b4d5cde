"""Single-level separable 2-D discrete wavelet transform with orthogonal
filter banks, named by string: :func:`dwt2` and :func:`idwt2` take
``"haar"``, ``"db2"`` or ``"db4"`` (:data:`SUPPORTED_BANKS`).

Analysis filters the rows first, then the columns; synthesis runs the
transpose order (columns, then rows). Boundaries are handled by periodic
extension, which makes every supported bank an orthonormal change of
basis: round trips are exact to float precision and coefficient energy
equals pixel energy.

Analysis splits an image into four half-size blocks:

* ``ca``  -- approximation (low/low),
* ``chd`` -- horizontal detail (row-lowpass, column-highpass),
* ``cvd`` -- vertical detail (row-highpass, column-lowpass),
* ``cdd`` -- diagonal detail (high/high).

An odd axis (a single row or column included) is analysed as if one
replicated edge sample made it even: :func:`_window` reads the last
sample in its place, with no padded copy of the image. Synthesis crops
the extra sample off again; :class:`Subbands` records the image's shape.

Each axis is filtered in polyphase form: with periodic extension,
lowpass output ``i`` is ``sum_k h[k] * x[(2i + k) mod n]``, so tap ``k``
is one strided slice of the axis, multiplied into one buffer and added
in place. Synthesis adds tap ``k``'s ``lo * h[k] + hi * g[k]`` into
phase ``k % 2`` shifted by ``k // 2``. The form is exact, not an
approximation: it computes the same products and adds them in the same
tap order as the direct periodic convolution, so coefficients round
identically.

Each transform is one loop over blocks of half-size rows, so it
allocates its output and a few block-sized buffers but no full-height
intermediate: two buffers between a block's passes, allocated once per
transform, and each pass's tap products (one buffer in analysis, two in
synthesis). Analysis filters the rows of a block's input window (its
rows plus the ``taps - 2`` rows after them) into the buffers, then their
columns into the block's rows of ``ca``/``chd``/``cvd``/``cdd``; the
next block filters the shared halo rows again. Synthesis filters the
columns of the block's rows of the four blocks (plus the
``taps // 2 - 1`` rows before them) into the buffers, then their rows
into the block's rows of the output. :func:`_window` owns the boundary:
it hands a pass its samples plus the halo its taps reach, a view when
they lie inside the array and a wrapped copy otherwise (also on axes
shorter than the halo). A block is an eighth of a cache-sized
strip (see ``_strips``), so its input, products and outputs stay in
cache across all taps where a whole-array pass streams 8-16 MiB arrays
through memory once per tap. Each block writes a disjoint part of a
preallocated output with the same operations in the same order, so
results do not depend on the block size.

:func:`_diagonal_detail` is the analysis restricted to the diagonal
block ``cdd``, the only one the universal-threshold seed reads: the same
loop with the lowpass outputs skipped, so its output equals
``dwt2(x, wavelet).cdd`` bit for bit at about half the cost.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._strips import _bounds
from .image import as_image

__all__ = [
    "Subbands",
    "dwt2",
    "idwt2",
    "SUPPORTED_BANKS",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

# Scaling (lowpass analysis) taps. db2 is exact in closed form; db4 taps
# are standard published constants. The test suite checks every bank's
# sum, energy, even-shift orthonormality and perfect reconstruction.
_LOWPASS = {
    "haar": (1.0 / _SQRT2, 1.0 / _SQRT2),
    "db2": (
        (1.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 - _SQRT3) / (4.0 * _SQRT2),
        (1.0 - _SQRT3) / (4.0 * _SQRT2),
    ),
    "db4": (
        0.2303778133088965,
        0.7148465705529156,
        0.6308807679298589,
        -0.027983769416859854,
        -0.18703481171909308,
        0.030841381835560764,
        0.0328830116668852,
        -0.010597401785069032,
    ),
}


def _bank(taps: tuple) -> tuple:
    """Orthogonal analysis pair ``(h, g)``: lowpass taps and their alternating-sign flip."""
    h = np.array(taps, dtype=np.float64)
    g = ((-1.0) ** np.arange(h.size)) * h[::-1]
    h.flags.writeable = g.flags.writeable = False  # one pair per name is shared
    return h, g


_BANKS = {name: _bank(taps) for name, taps in _LOWPASS.items()}
SUPPORTED_BANKS = tuple(_BANKS)


def _check_wavelet(name) -> tuple:
    """The shared, read-only ``(h, g)`` of the wavelet ``name``: haar, db2, or db4."""
    if not isinstance(name, str) or name not in _BANKS:  # no hashing of other types
        raise ValueError(f"unknown wavelet {name!r}; supported: {', '.join(SUPPORTED_BANKS)}")
    return _BANKS[name]


@dataclass(frozen=True)
class Subbands:
    """Four equally sized coefficient blocks and the analysed image's shape."""

    ca: np.ndarray
    chd: np.ndarray
    cvd: np.ndarray
    cdd: np.ndarray
    shape: tuple

    def __post_init__(self):
        if not self.ca.shape == self.chd.shape == self.cvd.shape == self.cdd.shape:
            got = ", ".join(f"{n} {getattr(self, n).shape}" for n in ("ca", "chd", "cvd", "cdd"))
            raise ValueError(f"subband blocks must share dimensions, got {got}")
        rows, cols = self.shape
        if ((rows + 1) // 2, (cols + 1) // 2) != self.ca.shape:
            raise ValueError(
                f"image shape {self.shape} does not match subband blocks {self.ca.shape}"
            )


def _along(axis: int, index) -> tuple:
    """Index tuple that applies ``index`` along ``axis`` of a 2-D array."""
    return (index, slice(None)) if axis == 0 else (slice(None), index)


def _window(x: np.ndarray, axis: int, start: int, stop: int, even: bool = False) -> np.ndarray:
    """Samples ``start`` to ``stop - 1`` along ``axis`` of the periodic
    extension of ``x``: a view when they lie inside ``x``, else a copy.
    With ``even`` (analysis), an odd axis wraps over ``n + 1`` samples,
    and the index ``n``, one past the end, reads the edge sample ``n - 1``."""
    n = x.shape[axis]
    if 0 <= start and stop <= n:
        return x[_along(axis, slice(start, stop))]
    index = np.arange(start, stop) % (n + n % 2 if even else n)
    return np.take(x, index, axis=axis, mode="clip")


def _analyze_axis(
    w: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int, lo: np.ndarray | None, hi: np.ndarray
) -> None:
    # lo[i] = sum_k h[k] * w[2i + k] on a window carrying the taps - 2
    # samples after the block. Taps accumulate in order, so sums round as
    # a dot product. ``lo`` None skips the lowpass.
    half = hi.shape[axis]
    bands = ((hi, g),) if lo is None else ((lo, h), (hi, g))
    buf = np.empty(hi.shape)
    for k in range(h.size):
        src = w[_along(axis, slice(k, k + 2 * half, 2))]
        for acc, taps in bands:
            np.multiply(src, taps[k], out=buf if k else acc)  # tap 0 starts the sum
            if k:
                acc += buf


def _synthesize_axis(
    lo: np.ndarray, hi: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int, out: np.ndarray
) -> None:
    # out[2i + k] += lo[i] * h[k] + hi[i] * g[k] on windows carrying the
    # taps // 2 - 1 samples before the block: tap k adds to phase k % 2
    # the window shifted by k // 2, in tap order. The two tap products are
    # allocated per pass, as analysis allocates its ``buf``.
    half = out.shape[axis] // 2
    halo = lo.shape[axis] - half
    out.fill(0.0)
    term, buf = np.empty(lo.shape), np.empty(lo.shape)
    for k in range(h.size):
        np.multiply(lo, h[k], out=term)
        np.multiply(hi, g[k], out=buf)
        term += buf
        shift = halo - k // 2
        out[_along(axis, slice(k % 2, None, 2))] += term[_along(axis, slice(shift, shift + half))]


# Blocks of half-size rows hold an eighth of a strip each (see the module
# docstring): at 2048x2048 db4 on a shared 2-CPU machine, dwt2 took a
# median 119 ms against 140 ms with quarter-strip and 137 ms with
# sixteenth-strip blocks, and idwt2 123 ms against 135 and 124 ms.
_BLOCKS_PER_STRIP = 8


def _analyze(x: np.ndarray, bank: tuple, lowpass: bool) -> tuple:
    """Blocks ``(ca, chd, cvd, cdd)`` of an image (odd axes extended by one
    replicated sample); half-size rows ``s`` read input rows ``2 * s.start``
    to ``2 * s.stop + taps - 3``. With ``lowpass`` False only ``cdd`` is
    computed, and the others are None."""
    h, g = bank
    half_rows, half_cols = (x.shape[0] + 1) // 2, (x.shape[1] + 1) // 2
    blocks = _bounds(half_rows, _BLOCKS_PER_STRIP * half_cols * x.itemsize)
    span = 2 * max(s.stop - s.start for s in blocks) + h.size - 2
    # Here and in idwt2 the buffers come before the outputs and serve every
    # block: allocated per block after the outputs, they raised the minor
    # page faults of a 256x256 calibrate call from 576 to 5438.
    lo = np.empty((span, half_cols)) if lowpass else None
    hi = np.empty((span, half_cols))
    cdd = np.empty((half_rows, half_cols))
    ca, chd, cvd = (np.empty((half_rows, half_cols)) if lowpass else None for _ in range(3))
    cols = 2 * half_cols + h.size - 2
    for s in blocks:
        r0, rows = 2 * s.start, 2 * (s.stop - s.start) + h.size - 2
        # Rows past the last one (after an odd image's replicated edge row)
        # wrap to the first. Filtering them apart keeps the copy halo-sized,
        # which sets dwt2's peak: one window per block, copied again for the
        # column halo, gives the same bytes with no page faults and, on a
        # shared 2-CPU machine, ran 256x256 db4 calls in 1.63-1.67 ms against
        # 1.72-1.74 ms, but it raised the 1024x1024 db4 peak from 1.207 to
        # 1.276 images.
        inside = min(rows, x.shape[0] - r0)
        for a, b in ((0, inside), (inside, rows)):
            if a < b:
                w = _window(_window(x, 0, r0 + a, r0 + b, even=True), 1, 0, cols, even=True)
                _analyze_axis(w, h, g, 1, lo if lo is None else lo[a:b], hi[a:b])
        if lowpass:
            _analyze_axis(lo[:rows], h, g, 0, ca[s], chd[s])
            _analyze_axis(hi[:rows], h, g, 0, cvd[s], cdd[s])
        else:
            _analyze_axis(hi[:rows], h, g, 0, None, cdd[s])
    return ca, chd, cvd, cdd


def dwt2(img, wavelet: str) -> Subbands:
    """One separable analysis level of the named ``wavelet`` with periodic
    extension; an odd axis is extended by one replicated edge sample."""
    x = as_image(img)
    ca, chd, cvd, cdd = _analyze(x, _check_wavelet(wavelet), lowpass=True)
    return Subbands(ca=ca, chd=chd, cvd=cvd, cdd=cdd, shape=x.shape)


def _diagonal_detail(x: np.ndarray, wavelet: str) -> np.ndarray:
    """``dwt2(x, wavelet).cdd`` of a validated image and a supported
    wavelet name, without the other three blocks."""
    return _analyze(x, _BANKS[wavelet], lowpass=False)[3]


def idwt2(sub: Subbands, wavelet: str) -> np.ndarray:
    """Exact synthesis inverse of :func:`dwt2` with the same ``wavelet``,
    cropped to ``sub.shape``. Half-size rows ``s`` of the blocks, read with
    the ``taps // 2 - 1`` rows before them, make output rows
    ``2 * s.start`` to ``2 * s.stop - 1``. On an odd shape the result is
    a view of the even-sized synthesis, one row or column larger, which
    saves an exact-size copy."""
    h, g = _check_wavelet(wavelet)
    half_rows, half_cols = sub.ca.shape
    halo = h.size // 2 - 1
    blocks = _bounds(half_rows, _BLOCKS_PER_STRIP * sub.ca[0].nbytes)
    span = 2 * max(s.stop - s.start for s in blocks)
    lo, hi = np.empty((span, half_cols)), np.empty((span, half_cols))
    full = np.empty((2 * half_rows, 2 * half_cols))
    for s in blocks:
        rows = 2 * (s.stop - s.start)
        for pair, out in (((sub.ca, sub.chd), lo), ((sub.cvd, sub.cdd), hi)):
            windows = (_window(band, 0, s.start - halo, s.stop) for band in pair)
            _synthesize_axis(*windows, h, g, 0, out[:rows])
        windows = (_window(band[:rows], 1, -halo, half_cols) for band in (lo, hi))
        _synthesize_axis(*windows, h, g, 1, full[2 * s.start : 2 * s.stop])
    rows, cols = sub.shape
    return full[:rows, :cols]
