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
"""

import math
from dataclasses import dataclass

import numpy as np

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


def _analyze_axis(x: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int):
    n = x.shape[axis]
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(h.size)[None, :]) % n
    if axis == 1:
        windows = x[:, idx]  # (rows, n/2, taps)
        return windows @ h, windows @ g
    windows = x[idx, :]  # (n/2, taps, cols)
    return np.einsum("ntc,t->nc", windows, h), np.einsum("ntc,t->nc", windows, g)


def _synthesize_axis(lo: np.ndarray, hi: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int):
    half = lo.shape[axis]
    n = 2 * half
    shape = (n, lo.shape[1]) if axis == 0 else (lo.shape[0], n)
    out = np.zeros(shape, dtype=np.float64)
    base = 2 * np.arange(half)
    for k in range(h.size):
        target = (base + k) % n
        if axis == 1:
            out[:, target] += lo * h[k] + hi * g[k]
        else:
            out[target, :] += lo * h[k] + hi * g[k]
    return out


def dwt2(img, bank: FilterBank) -> Subbands:
    """One separable analysis level with periodic extension; odd sizes are
    padded by edge replication."""
    x = as_image(img)
    rows, cols = x.shape
    if rows % 2 or cols % 2:
        x = np.pad(x, ((0, rows % 2), (0, cols % 2)), mode="edge")
    lo, hi = _analyze_axis(x, bank.lowpass, bank.highpass, axis=1)
    ca, chd = _analyze_axis(lo, bank.lowpass, bank.highpass, axis=0)
    cvd, cdd = _analyze_axis(hi, bank.lowpass, bank.highpass, axis=0)
    return Subbands(ca=ca, chd=chd, cvd=cvd, cdd=cdd, shape=(rows, cols))


def idwt2(sub: Subbands, bank: FilterBank) -> np.ndarray:
    """Exact synthesis inverse of :func:`dwt2` (columns, then rows), cropped
    back to the pre-pad shape."""
    lo = _synthesize_axis(sub.ca, sub.chd, bank.lowpass, bank.highpass, axis=0)
    hi = _synthesize_axis(sub.cvd, sub.cdd, bank.lowpass, bank.highpass, axis=0)
    full = _synthesize_axis(lo, hi, bank.lowpass, bank.highpass, axis=1)
    rows, cols = sub.shape
    return full[:rows, :cols]
