"""Single-level separable 2-D discrete wavelet transform with orthogonal
filter banks.

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

Odd-sized inputs (including single rows and columns) are padded by edge
replication to the next even size and cropped back on synthesis; the
pre-pad shape is recorded in :class:`Subbands`.

Each axis is filtered in polyphase form. With periodic extension, output
``i`` of tap ``k`` reads sample ``(2i + k) mod n``, which is sample
``i + k // 2`` (mod ``n / 2``) of the even (``k`` even) or odd (``k`` odd)
phase. Every tap is therefore a strided slice of the axis rotated by a
whole number of samples (or, on a block that carries its halo, shifted
without wrapping): slice-wise multiplies into one buffer, then an
in-place add. Synthesis adds tap ``k``'s ``lo * h[k] + hi * g[k]`` into
phase ``k % 2`` rotated the other way. No index arrays or tap-window
copies are built. The form is exact, not an approximation: it computes
the same products and adds them in the same tap order as the direct
periodic convolution, so coefficients round identically.

The axis-1 passes run in cache-sized strips of rows that filter
independently, each written into a preallocated output (see
``_strips``); every coefficient is computed by the same operations in the
same order as in one whole-array pass, so results do not depend on the
strip count.

The axis-0 analysis passes run in blocks of output rows. Each block
gathers its input rows plus the periodic halo of ``taps - 2`` rows that
follows them (wrapping past the end of the axis, several times over on
axes shorter than the halo) into one contiguous array, and filters it
with the same products added in the same tap order, so coefficients do
not depend on the block size either. A block's input, product buffer and
outputs then stay in cache across all taps, where a whole-array pass
streams 8-16 MiB arrays through memory once per tap: at 2048x2048 db4
one half pass measured about 21-24 ms in blocks against 25-32 ms whole,
and column strips, which cut every row into short segments, about twice
the whole-array time. Synthesis stays whole-array. A row-blocked
synthesis (inputs gathered with their periodic halo) is byte-identical
and measured 143-164 ms against 186-220 ms at 2048x2048 db4, but no
faster at 256x256 haar, the size at which calibration synthesises once
per distinct threshold. The large-image gain belongs with a bounded
working set for the whole despeckle chain, not with synthesis alone.

:func:`_diagonal_detail` is the analysis restricted to the diagonal
block ``cdd``, the only one the universal-threshold seed reads: the
highpass row pass, then the highpass column pass on it. It runs the
same passes as :func:`dwt2` with the lowpass outputs skipped, so its
output equals ``dwt2(x, bank).cdd`` bit for bit at about half the cost.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._strips import _bounds
from .image import as_image

__all__ = [
    "FilterBank",
    "Subbands",
    "bank_by_name",
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


@dataclass(frozen=True)
class FilterBank:
    """Orthogonal analysis pair; highpass is the alternating-sign flip of lowpass."""

    lowpass: np.ndarray
    highpass: np.ndarray


def _bank(taps: tuple) -> FilterBank:
    h = np.array(taps, dtype=np.float64)
    g = ((-1.0) ** np.arange(h.size)) * h[::-1]
    h.flags.writeable = g.flags.writeable = False  # one instance per name is shared
    return FilterBank(lowpass=h, highpass=g)


_BANKS = {name: _bank(taps) for name, taps in _LOWPASS.items()}
SUPPORTED_BANKS = tuple(_BANKS)


def bank_by_name(name: str) -> FilterBank:
    """The shared, read-only filter bank of the given name: haar, db2, or db4."""
    if name not in _BANKS:
        raise ValueError(f"unknown wavelet {name!r}; supported: {', '.join(SUPPORTED_BANKS)}")
    return _BANKS[name]


@dataclass(frozen=True)
class Subbands:
    """Four equally sized coefficient blocks and the pre-pad image shape."""

    ca: np.ndarray
    chd: np.ndarray
    cvd: np.ndarray
    cdd: np.ndarray
    shape: tuple

    def __post_init__(self):
        shapes = {self.ca.shape, self.chd.shape, self.cvd.shape, self.cdd.shape}
        if len(shapes) != 1:
            raise ValueError(f"subband blocks must share dimensions, got {shapes}")
        rows, cols = self.shape
        if ((rows + 1) // 2, (cols + 1) // 2) != self.ca.shape:
            raise ValueError(
                f"image shape {self.shape} does not match subband blocks {self.ca.shape}"
            )


def _along(axis: int, index) -> tuple:
    """Index tuple that applies ``index`` along ``axis`` of a 2-D array."""
    return (index, slice(None)) if axis == 0 else (slice(None), index)


def _rotation(axis: int, half: int, length: int, shift: int):
    """(destination, source) index pairs that read samples ``shift`` to
    ``shift + half - 1`` of a length-``length`` axis, wrapping past its end:
    ``out[dst] = x[src]`` for both pairs. With ``length == half`` this
    rotates the axis left by ``shift``; with ``length >= half + shift`` the
    second pair is empty."""
    cut = min(half, length - shift)
    return (
        (_along(axis, slice(0, cut)), _along(axis, slice(shift, shift + cut))),
        (_along(axis, slice(cut, None)), _along(axis, slice(0, half - cut))),
    )


def _phases(x: np.ndarray, axis: int):
    """Even and odd samples along ``axis`` (views)."""
    return x[_along(axis, slice(0, None, 2))], x[_along(axis, slice(1, None, 2))]


def _analyze_axis(
    x: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int, lo: np.ndarray | None, hi: np.ndarray
) -> None:
    # lo[i] = sum_k h[k] * x[2i + k], indices wrapping at the end of x:
    # tap k reads phase k % 2 from sample k // 2 on. Taps accumulate in
    # order, so sums round as a dot product. ``lo`` None skips the lowpass.
    phases = _phases(x, axis)
    half, length = hi.shape[axis], phases[0].shape[axis]
    bands = ((hi, g),) if lo is None else ((lo, h), (hi, g))
    buf = np.empty(hi.shape)
    for k in range(h.size):
        reads = _rotation(axis, half, length, (k // 2) % length)
        for acc, taps in bands:
            product = buf if k else acc  # tap 0 starts the sum
            for dst, src in reads:
                np.multiply(phases[k % 2][src], taps[k], out=product[dst])
            if k:
                acc += buf


def _analyze_rows(
    x: np.ndarray, h: np.ndarray, g: np.ndarray, lo: np.ndarray | None, hi: np.ndarray
) -> None:
    """Axis-1 pass (each row filtered), in strips of rows."""
    for s in _bounds(x.shape[0], x[0].nbytes):
        _analyze_axis(x[s], h, g, 1, None if lo is None else lo[s], hi[s])


def _analyze_columns(
    x: np.ndarray, h: np.ndarray, g: np.ndarray, lo: np.ndarray | None, hi: np.ndarray
) -> None:
    """Axis-0 pass (each column filtered), in blocks of output rows.

    Output rows ``start:stop`` read input rows ``2 * start`` to
    ``2 * stop + taps - 3``, wrapping at the end of the axis; a block
    gathers them into one contiguous array. Per output row a block holds
    two input rows, a product row and up to two output rows, so blocks of
    a quarter strip of output rows keep that working set near one strip
    (at 2048x2048, the fastest of the block sizes tried)."""
    n = x.shape[0]
    for s in _bounds(hi.shape[0], 4 * hi[0].nbytes):
        rows = np.arange(2 * s.start, 2 * s.stop + h.size - 2) % n
        _analyze_axis(x[rows], h, g, 0, None if lo is None else lo[s], hi[s])


def _synthesize_axis(
    lo: np.ndarray, hi: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int, out: np.ndarray
) -> None:
    # out[(2i + k) % n] += lo[i] * h[k] + hi[i] * g[k]: tap k adds to phase
    # k % 2 rotated right by k // 2, in tap order.
    half = lo.shape[axis]
    out.fill(0.0)
    phases = _phases(out, axis)
    term, buf = np.empty(lo.shape), np.empty(lo.shape)
    for k in range(h.size):
        np.multiply(lo, h[k], out=term)
        np.multiply(hi, g[k], out=buf)
        term += buf
        for dst, src in _rotation(axis, half, half, (k // 2) % half):
            phases[k % 2][src] += term[dst]


def _even(x: np.ndarray) -> np.ndarray:
    """``x`` padded by edge replication to even dimensions."""
    rows, cols = x.shape
    if rows % 2 or cols % 2:
        x = np.pad(x, ((0, rows % 2), (0, cols % 2)), mode="edge")
    return x


def dwt2(img, bank: FilterBank) -> Subbands:
    """One separable analysis level with periodic extension; odd sizes are
    padded by edge replication."""
    x = as_image(img)
    shape = x.shape
    x = _even(x)
    h, g = bank.lowpass, bank.highpass
    lo, hi = (np.empty((x.shape[0], x.shape[1] // 2)) for _ in range(2))
    _analyze_rows(x, h, g, lo, hi)
    ca, chd, cvd, cdd = (np.empty((x.shape[0] // 2, x.shape[1] // 2)) for _ in range(4))
    _analyze_columns(lo, h, g, ca, chd)
    _analyze_columns(hi, h, g, cvd, cdd)
    return Subbands(ca=ca, chd=chd, cvd=cvd, cdd=cdd, shape=shape)


def _diagonal_detail(x: np.ndarray, bank: FilterBank) -> np.ndarray:
    """``dwt2(x, bank).cdd`` of a validated image, without the other three
    blocks: the highpass row pass, then the highpass column pass on it."""
    x = _even(x)
    h, g = bank.lowpass, bank.highpass
    hi = np.empty((x.shape[0], x.shape[1] // 2))
    _analyze_rows(x, h, g, None, hi)
    cdd = np.empty((x.shape[0] // 2, x.shape[1] // 2))
    _analyze_columns(hi, h, g, None, cdd)
    return cdd


def idwt2(sub: Subbands, bank: FilterBank) -> np.ndarray:
    """Exact synthesis inverse of :func:`dwt2` (columns, then rows), cropped
    back to the pre-pad shape."""
    h, g = bank.lowpass, bank.highpass
    half_rows, half_cols = sub.ca.shape
    lo, hi = (np.empty((2 * half_rows, half_cols)) for _ in range(2))
    _synthesize_axis(sub.ca, sub.chd, h, g, 0, lo)
    _synthesize_axis(sub.cvd, sub.cdd, h, g, 0, hi)
    full = np.empty((2 * half_rows, 2 * half_cols))
    for s in _bounds(full.shape[0], full[0].nbytes):
        _synthesize_axis(lo[s], hi[s], h, g, 1, full[s])
    rows, cols = sub.shape
    return full[:rows, :cols]
