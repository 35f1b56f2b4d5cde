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
whole number of samples: two slice-wise multiplies into one buffer, then
an in-place add. Synthesis adds tap ``k``'s ``lo * h[k] + hi * g[k]`` into
phase ``k % 2`` rotated the other way. No index arrays or tap-window
copies are built. The form is exact, not an approximation: it computes
the same products and adds them in the same tap order as the direct
periodic convolution, so coefficients round identically.

The axis-1 passes run in cache-sized strips of rows that filter
independently, each written into a preallocated output (see
``_strips``); every coefficient is computed by the same operations in the
same order as in one whole-array pass, so results do not depend on the
strip count. The axis-0 passes run over whole arrays: their taps are
whole rows, which the hardware streams well, while column strips cut
every row into short segments and measured about twice as slow at
2048x2048.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._strips import _for_each_strip
from .image import as_image

__all__ = [
    "FilterBank",
    "Subbands",
    "daubechies_taps",
    "bank_by_name",
    "dwt2",
    "idwt2",
    "SUPPORTED_BANKS",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

# Scaling (lowpass analysis) taps. db2 is exact in closed form; db4 taps
# are standard published constants, validated against the orthonormality
# and perfect-reconstruction invariants by the test suite.
_DB2_LOWPASS = (
    (1.0 + _SQRT3) / (4.0 * _SQRT2),
    (3.0 + _SQRT3) / (4.0 * _SQRT2),
    (3.0 - _SQRT3) / (4.0 * _SQRT2),
    (1.0 - _SQRT3) / (4.0 * _SQRT2),
)
_DB4_LOWPASS = (
    0.2303778133088965,
    0.7148465705529156,
    0.6308807679298589,
    -0.027983769416859854,
    -0.18703481171909308,
    0.030841381835560764,
    0.0328830116668852,
    -0.010597401785069032,
)


@dataclass(frozen=True)
class FilterBank:
    """Orthogonal analysis pair; highpass is the alternating-sign flip of lowpass."""

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray

    @classmethod
    def from_lowpass(cls, name: str, taps) -> "FilterBank":
        h = np.asarray(taps, dtype=np.float64)
        if h.ndim != 1 or h.size < 2 or h.size % 2:
            raise ValueError(f"{name}: lowpass must be a 1-D even-length tap sequence")
        if not np.all(np.isfinite(h)):
            raise ValueError(f"{name}: non-finite tap values")
        if abs(h.sum() - _SQRT2) > 1e-10:
            raise ValueError(f"{name}: lowpass taps must sum to sqrt(2), got {h.sum()!r}")
        if abs(np.dot(h, h) - 1.0) > 1e-10:
            raise ValueError(f"{name}: lowpass taps must have unit energy, got {np.dot(h, h)!r}")
        g = ((-1.0) ** np.arange(h.size)) * h[::-1]
        return cls(name=name, lowpass=h, highpass=g)


def daubechies_taps(order: int) -> FilterBank:
    """Return the orthogonal Daubechies bank of the given order (1, 2, or 4)."""
    if order == 1:
        return FilterBank.from_lowpass("haar", (1.0 / _SQRT2, 1.0 / _SQRT2))
    if order == 2:
        return FilterBank.from_lowpass("db2", _DB2_LOWPASS)
    if order == 4:
        return FilterBank.from_lowpass("db4", _DB4_LOWPASS)
    raise ValueError(f"unsupported Daubechies order {order}; supported orders: 1, 2, 4")


SUPPORTED_BANKS = ("haar", "db1", "db2", "db4")


def bank_by_name(name: str) -> FilterBank:
    """Look up a filter bank by name: haar/db1, db2, or db4."""
    orders = {"haar": 1, "db1": 1, "db2": 2, "db4": 4}
    if name not in orders:
        raise ValueError(f"unknown wavelet {name!r}; supported: {', '.join(SUPPORTED_BANKS)}")
    return daubechies_taps(orders[name])


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


def _rotation(axis: int, half: int, shift: int):
    """(destination, source) index pairs that rotate a length-``half`` axis
    left by ``shift``: ``rotated[dst] = x[src]`` for both pairs."""
    cut = half - shift
    return (
        (_along(axis, slice(0, cut)), _along(axis, slice(shift, None))),
        (_along(axis, slice(cut, None)), _along(axis, slice(0, shift))),
    )


def _phases(x: np.ndarray, axis: int):
    """Even and odd samples along ``axis`` (views)."""
    return x[_along(axis, slice(0, None, 2))], x[_along(axis, slice(1, None, 2))]


def _analyze_axis(
    x: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int, lo: np.ndarray, hi: np.ndarray
) -> None:
    # lo[i] = sum_k h[k] * x[(2i + k) % n]: tap k reads phase k % 2 rotated
    # left by k // 2. Taps accumulate in order, so sums round as a dot product.
    phases = _phases(x, axis)
    half = lo.shape[axis]
    buf = np.empty(lo.shape)
    for k in range(h.size):
        rotation = _rotation(axis, half, (k // 2) % half)
        for acc, taps in ((lo, h), (hi, g)):
            product = buf if k else acc  # tap 0 starts the sum
            for dst, src in rotation:
                np.multiply(phases[k % 2][src], taps[k], out=product[dst])
            if k:
                acc += buf


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
        for dst, src in _rotation(axis, half, (k // 2) % half):
            phases[k % 2][src] += term[dst]


def dwt2(img, bank: FilterBank) -> Subbands:
    """One separable analysis level with periodic extension; odd sizes are
    padded by edge replication."""
    x = as_image(img)
    rows, cols = x.shape
    if rows % 2 or cols % 2:
        x = np.pad(x, ((0, rows % 2), (0, cols % 2)), mode="edge")
    h, g = bank.lowpass, bank.highpass
    lo, hi = (np.empty((x.shape[0], x.shape[1] // 2)) for _ in range(2))

    def _analyze_rows(s):
        _analyze_axis(x[s], h, g, 1, lo[s], hi[s])

    _for_each_strip(_analyze_rows, x.shape[0], x[0].nbytes)
    ca, chd, cvd, cdd = (np.empty((x.shape[0] // 2, x.shape[1] // 2)) for _ in range(4))
    _analyze_axis(lo, h, g, 0, ca, chd)
    _analyze_axis(hi, h, g, 0, cvd, cdd)
    return Subbands(ca=ca, chd=chd, cvd=cvd, cdd=cdd, shape=(rows, cols))


def idwt2(sub: Subbands, bank: FilterBank) -> np.ndarray:
    """Exact synthesis inverse of :func:`dwt2` (columns, then rows), cropped
    back to the pre-pad shape."""
    h, g = bank.lowpass, bank.highpass
    half_rows, half_cols = sub.ca.shape
    lo, hi = (np.empty((2 * half_rows, half_cols)) for _ in range(2))
    _synthesize_axis(sub.ca, sub.chd, h, g, 0, lo)
    _synthesize_axis(sub.cvd, sub.cdd, h, g, 0, hi)
    full = np.empty((2 * half_rows, 2 * half_cols))

    def _synthesize_rows(s):
        _synthesize_axis(lo[s], hi[s], h, g, 1, full[s])

    _for_each_strip(_synthesize_rows, full.shape[0], full[0].nbytes)
    rows, cols = sub.shape
    return full[:rows, :cols]
