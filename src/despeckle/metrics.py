"""Quality statistics for despeckling results.

Seven assessment figures for a (clean, noisy, despeckled) triple:

* NMV / NV / NSD -- population mean, variance, and standard deviation of
  the despeckled image; lower variance means more speckle removed.
* MSD -- mean squared difference between two images (the standard pairing
  is noisy vs despeckled).
* ENL -- equivalent number of looks ``NMV^2 / NSD^2`` averaged over
  non-overlapping square tiles, a proxy for multilook averaging over
  homogeneous regions.
* DR -- deflection ratio: the mean of the candidate image standardized by
  another image's mean and standard deviation (here the noisy input, so
  the figure is nonzero and comparable across filters).
* FOM -- Pratt's figure of merit in [0, 1] between detected and ideal
  edge maps, penalizing detected-edge displacement by ``1/(1 + alpha d^2)``.

Edge maps are plain boolean arrays produced by a Sobel magnitude detector
thresholded at a fraction of its maximum. The Sobel pair is computed in
cache-sized row strips in ``scipy.ndimage.sobel``'s order -- the
difference along the gradient axis, then ``2 * centre + (previous +
next)`` across it, on edge-replicated borders -- and kept as the squared
magnitude ``gx*gx + gy*gy``. ``np.hypot`` of that pair is evaluated only
where a square lies too close to the peak's or the threshold's to decide
the comparison, so every edge map equals the one thresholded from
``np.hypot(ndimage.sobel(...), ndimage.sobel(...))`` bit for bit. FOM
distances come from the feature transform of the ideal map (the nearest
ideal pixel of every pixel), evaluated as ``sqrt(dr^2 + dc^2)`` at the
detected pixels only, a chunk of them at a time.

ENL copies and reduces one band of tile rows at a time, each band at
least a strip's bytes (see ``_strips``), into per-tile means and
variances allocated once; a tile's figures do not depend on the band
that holds it. A figure that overflows on finite pixels (a variance of
gray levels above about 1e154, say) raises ``OverflowError`` naming the
figure instead of returning inf, NaN or a wrong finite value.

:func:`full_report` composes the public figures. It checks ``block``,
``tau`` and ``alpha`` before the first figure runs, with the same checks
the figures make.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._strips import _bounds, _halo_strips
from .image import _is_integer, _is_real, as_image, subtract

__all__ = [
    "MetricsReport",
    "nmv_nv_nsd",
    "msd",
    "enl_blocked",
    "deflection_ratio",
    "detect_edges",
    "nearest_edge_distances",
    "pratt_fom",
    "full_report",
]

@dataclass(frozen=True)
class MetricsReport:
    """One row of assessment figures for a (reference, candidate) pair."""

    nmv: float
    nv: float
    msd: float
    enl: float
    dr: float
    fom: float

    CSV_HEADER = "NV,MSD,NMV,NSD,ENL,DR,FOM"

    @property
    def nsd(self) -> float:
        """Standard deviation ``sqrt(nv)``, as :func:`nmv_nv_nsd` returns it."""
        return math.sqrt(self.nv)

    def to_csv_row(self) -> str:
        values = (self.nv, self.msd, self.nmv, self.nsd, self.enl, self.dr, self.fom)
        return ",".join(repr(v) for v in values)

    def to_table(self) -> str:
        """Aligned two-line text table in the CSV column order."""
        header = f"{'NV':>14} {'MSD':>12} {'NMV':>10} {'NSD':>10} {'ENL':>10} {'DR':>10} {'FOM':>8}"
        row = (
            f"{self.nv:>14.5e} {self.msd:>12.4f} {self.nmv:>10.2f} "
            f"{self.nsd:>10.2f} {self.enl:>10.4f} {self.dr:>10.4f} {self.fom:>8.4f}"
        )
        return header + "\n" + row


def _finite(figure: str, values):
    """``values`` if all of them are finite; otherwise raise. The pixels are
    finite, so only an overflow makes a figure infinite or NaN."""
    if not np.all(np.isfinite(values)):
        raise OverflowError(f"{figure} overflowed to a non-finite value")
    return values


def nmv_nv_nsd(img) -> tuple:
    """Population mean, variance, and standard deviation of an image."""
    arr = as_image(img)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _finite("NMV", float(arr.mean()))
        var = _finite("NV", float(arr.var()))
    return mean, var, math.sqrt(var)


def msd(reference, candidate) -> float:
    """Mean squared difference between two equally sized images."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = subtract(reference, candidate)
        diff *= diff
        return _finite("MSD", float(diff.mean()))


def _check_block(block) -> None:
    if not _is_integer(block) or block < 2:
        raise ValueError(f"block must be >= 2, got {block}")


def enl_blocked(img, block: int = 25) -> float:
    """Mean of per-tile ``mean^2 / var`` over full non-overlapping tiles.

    Partial edge tiles are discarded; constant tiles (zero variance) are
    excluded from the average. Raises if the image holds no full tile or
    if every tile is constant.
    """
    arr = as_image(img)
    _check_block(block)
    n_r = arr.shape[0] // block
    n_c = arr.shape[1] // block
    if n_r == 0 or n_c == 0:
        raise ValueError(f"image {arr.shape} smaller than one {block}x{block} block")
    # numpy reduces each row of an axis=1 mean or var on its own, so a
    # tile's figures are the same in every band
    means = np.empty(n_r * n_c)
    variances = np.empty(n_r * n_c)
    with np.errstate(over="ignore", invalid="ignore"):
        for band in _bounds(n_r, n_c * block * block * arr.itemsize):
            tiles = arr[band.start * block : band.stop * block, : n_c * block]
            tiles = tiles.reshape(-1, block, n_c, block).swapaxes(1, 2).reshape(-1, block * block)
            per_tile = slice(band.start * n_c, band.stop * n_c)
            tiles.mean(axis=1, out=means[per_tile])
            tiles.var(axis=1, out=variances[per_tile])
        # an overflowed variance would drop its tile or turn its ratio into 0
        _finite("ENL", variances)
        valid = variances > 0.0
        if not valid.any():
            raise ValueError(f"all {valid.size} tiles are constant; ENL undefined")
        return _finite("ENL", float((means[valid] ** 2 / variances[valid]).mean()))


def deflection_ratio(candidate, stats_source) -> float:
    """Mean of ``(candidate - NMV) / NSD`` with the statistics taken from
    ``stats_source`` (conventionally the unfiltered noisy image)."""
    cand = as_image(candidate)
    mean, _, sd = nmv_nv_nsd(stats_source)
    if cand.shape != np.shape(stats_source):
        raise ValueError(f"shape mismatch: {cand.shape} vs {np.shape(stats_source)}")
    if sd <= 0.0:
        raise ValueError("stats source has zero standard deviation")
    with np.errstate(over="ignore", invalid="ignore"):
        z = cand - mean
        z /= sd
        return _finite("DR", float(z.mean()))


# Relative half-width of the band of squared Sobel magnitudes that np.hypot
# decides. With eps = 2^-52, a normal square gx*gx + gy*gy lies within 3 eps
# of the exact sum of squares (three roundings of at most eps/2 each, and
# under eps more where one component's square falls below the normal range),
# and libm's hypot within 1 ulp (eps relative) of the exact magnitude, so
# within 2 eps once squared. A pixel's square and its hypot's square thus
# differ by under 5 eps, two pixels' by under 10 eps, and rounding the
# squared threshold and the band's ends adds under 2 eps: all below 2^-48.
# The band is 16 times that.
_BAND = 2.0**-44
_TINY = float(np.finfo(np.float64).tiny)
_HUGE = float(np.finfo(np.float64).max)


def _band_floor(v: float) -> float:
    # below the normal range a square's relative error is unbounded
    lo = min(v, _HUGE) * (1.0 - _BAND)
    return lo if lo >= _TINY else 0.0


def _check_tau(tau) -> None:
    if not _is_real(tau) or not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau!r}")


def detect_edges(img, tau: float = 0.2) -> np.ndarray:
    """Boolean edge map: Sobel gradient magnitude >= ``tau`` times its
    maximum, with edge-replicated borders."""
    _check_tau(tau)
    arr = as_image(img)
    squares = _sobel_squares(arr)
    top = squares.max()
    if top == 0.0 and arr.min() == arr.max():
        # every gradient of a constant image is exactly zero; this spares it
        # np.hypot at every pixel below
        return np.zeros(arr.shape, dtype=bool)
    # The peak is the largest hypot among the pixels whose square is not below
    # the top square's band: every pixel when no square is normal. NaN squares
    # (from gradients that overflowed both ways) are never ruled out.
    peak = _sobel_hypot(arr, np.flatnonzero(~(squares < _band_floor(top)))).max()
    if peak == 0.0:
        return np.zeros(arr.shape, dtype=bool)
    # Squares above ``hi`` are edges and squares below the band are not; hypot
    # decides the rest, which holds the infinite squares and those below the
    # normal range wherever the threshold leaves them either way.
    threshold = float(tau * peak)
    t2 = threshold * threshold  # Python floats overflow to inf silently
    hi = max(t2, _TINY) * (1.0 + _BAND)
    edges = squares > hi
    decided = squares < _band_floor(t2)
    decided |= edges
    band = np.flatnonzero(~decided)
    edges.flat[band] = _sobel_hypot(arr, band) >= threshold
    return edges


def _sobel_squares(arr: np.ndarray) -> np.ndarray:
    """``gx*gx + gy*gy`` of the Sobel pair at every pixel, strip by strip.

    ndimage.sobel's order: the difference along the gradient axis, then
    ``2 * centre + (previous + next)`` across it (summed here as
    ``(previous + next) + 2 * centre``, which leaves every bit the same).
    """
    squares = np.empty(arr.shape)
    for s, x, (d,) in _halo_strips(arr, 1):
        gx = squares[s]
        rows, cols = gx.shape
        dx = d[:, :cols]
        np.subtract(x[:, 2:], x[:, :-2], out=dx)
        np.add(dx[:-2], dx[2:], out=gx)
        dx = dx[1:-1]
        dx *= 2.0
        gx += dx
        dy = d[:rows]
        np.subtract(x[2:], x[:-2], out=dy)
        gy = x[:rows, :cols]  # x is read in full by now
        np.add(dy[:, :-2], dy[:, 2:], out=gy)
        dy = dy[:, 1:-1]
        dy *= 2.0
        gy += dy
        # a square that overflows to inf is left to np.hypot, like every
        # square that the band cannot decide
        with np.errstate(over="ignore"):
            gx *= gx
            gy *= gy
            gx += gy
    return squares


# Pixels per chunk of the pointwise Sobel magnitude, which holds about twenty
# temporaries of this length, and of the FOM distance gather, which holds
# about six: both stay far below an image's size however many pixels a map
# holds.
_POINTS = 1 << 14


def _sobel_hypot(arr: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """``np.hypot`` of the Sobel pair at the flat indices ``flat`` of
    ``arr``, with ndimage.sobel's operations in its order."""
    rows, cols = arr.shape
    out = np.empty(flat.size)
    for start in range(0, flat.size, _POINTS):
        r, c = np.divmod(flat[start : start + _POINTS], cols)
        r = (np.maximum(r - 1, 0), r, np.minimum(r + 1, rows - 1))
        c = (np.maximum(c - 1, 0), c, np.minimum(c + 1, cols - 1))
        dx = [arr[ri, c[2]] - arr[ri, c[0]] for ri in r]
        dy = [arr[r[2], ci] - arr[r[0], ci] for ci in c]
        np.hypot(
            2.0 * dx[1] + (dx[0] + dx[2]),
            2.0 * dy[1] + (dy[0] + dy[2]),
            out=out[start : start + _POINTS],
        )
    return out


def _edge_maps(detected, ideal) -> tuple:
    """``detected`` and ``ideal`` as boolean edge maps of one 2-D shape."""
    detected = np.asarray(detected, dtype=bool)
    ideal = np.asarray(ideal, dtype=bool)
    if detected.shape != ideal.shape:
        raise ValueError(f"shape mismatch: {detected.shape} vs {ideal.shape}")
    if detected.ndim != 2:
        raise ValueError(f"edge maps must be 2-D, got shape {detected.shape}")
    return detected, ideal


def nearest_edge_distances(detected: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """Euclidean distance from each detected pixel to the nearest ideal pixel,
    from the feature transform (nearest ideal pixel of every pixel) of the
    ideal map."""
    detected, ideal = _edge_maps(detected, ideal)
    if not ideal.any():
        raise ValueError("ideal edge map is empty")
    from scipy import ndimage  # deferred, see pipeline.median_filter_homomorphic

    nearest = ndimage.distance_transform_edt(
        ~ideal, return_distances=False, return_indices=True
    )
    flat = np.flatnonzero(detected)
    out = np.empty(flat.size)
    for start in range(0, flat.size, _POINTS):
        chunk = flat[start : start + _POINTS]
        dr, dc = (
            (coordinate.ravel()[chunk] - own).astype(np.float64)
            for coordinate, own in zip(nearest, np.divmod(chunk, detected.shape[1]))
        )
        np.sqrt(dr * dr + dc * dc, out=out[start : start + _POINTS])
    return out


def _check_alpha(alpha) -> None:
    if not _is_real(alpha) or not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")


def pratt_fom(detected: np.ndarray, ideal: np.ndarray, alpha: float = 1.0 / 9.0) -> float:
    """Pratt's figure of merit between detected and ideal edge maps.

    ``sum_i 1 / (1 + alpha d_i^2) / max(n_detected, n_ideal)`` over the
    detected pixels; equals 1 exactly when the maps coincide, and 0 when
    nothing is detected.
    """
    detected, ideal = _edge_maps(detected, ideal)
    _check_alpha(alpha)
    n_detected = int(detected.sum())
    n_ideal = int(ideal.sum())
    if n_ideal == 0:
        if n_detected == 0:
            raise ValueError("both edge maps are empty")
        raise ValueError("ideal edge map is empty")
    if n_detected == 0:
        return 0.0
    d = nearest_edge_distances(detected, ideal)
    return float((1.0 / (1.0 + alpha * d * d)).sum() / max(n_detected, n_ideal))


def full_report(
    clean, noisy, despeckled, block: int = 25, tau: float = 0.2, alpha: float = 1.0 / 9.0
) -> MetricsReport:
    """Composite report for a (clean, noisy, despeckled) triple.

    NMV/NV/NSD and ENL (``block``-sized tiles) are computed on the
    despeckled image, MSD pairs the noisy input with the despeckled output,
    DR standardizes the despeckled image by the noisy input's statistics,
    and FOM (distance constant ``alpha``) compares the despeckled image's
    edges against the clean image's edges, both detected at ``tau``.
    """
    shapes = np.shape(clean), np.shape(noisy), np.shape(despeckled)
    if not shapes[0] == shapes[1] == shapes[2]:
        raise ValueError("shape mismatch: {}, {}, {}".format(*shapes))
    _check_block(block)
    _check_tau(tau)
    _check_alpha(alpha)
    nmv, nv, _ = nmv_nv_nsd(despeckled)
    return MetricsReport(
        nmv=nmv,
        nv=nv,
        msd=msd(noisy, despeckled),
        enl=enl_blocked(despeckled, block),
        dr=deflection_ratio(despeckled, noisy),
        fom=pratt_fom(detect_edges(despeckled, tau), detect_edges(clean, tau), alpha),
    )
