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
cache-sized row strips in ``scipy.ndimage.sobel``'s
order -- the difference along the gradient axis, then ``2 * centre +
(previous + next)`` across it, on edge-replicated borders -- so
magnitudes equal scipy's bit for bit. FOM distances come from the
feature transform of the ideal map (the nearest ideal pixel of every
pixel), evaluated as ``sqrt(dr^2 + dc^2)`` at the detected pixels only.

:func:`full_report` validates each of its three images once and passes
them to the same private bodies that the public metric functions call
after their own validation.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ._strips import _for_each_strip
from .image import as_image

__all__ = [
    "MetricsConfig",
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
class MetricsConfig:
    """Knobs for the composite report: ENL tile size, edge-detector
    threshold fraction, and the FOM distance constant."""

    block: int = 25
    tau: float = 0.2
    alpha: float = 1.0 / 9.0

    def __post_init__(self):
        if self.block < 2:
            raise ValueError(f"block must be >= 2, got {self.block}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class MetricsReport:
    """One row of assessment figures for a (reference, candidate) pair."""

    nmv: float
    nv: float
    nsd: float
    msd: float
    enl: float
    dr: float
    fom: float

    CSV_HEADER = "NV,MSD,NMV,NSD,ENL,DR,FOM"

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


def nmv_nv_nsd(img) -> tuple:
    """Population mean, variance, and standard deviation of an image."""
    return _moments(as_image(img))


def _moments(arr: np.ndarray) -> tuple:
    mean = float(arr.mean())
    var = float(arr.var())
    return mean, var, math.sqrt(var)


def msd(reference, candidate) -> float:
    """Mean squared difference between two equally sized images."""
    return _msd(as_image(reference), as_image(candidate))


def _msd(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return float((diff * diff).mean())


def enl_blocked(img, block: int = 25) -> float:
    """Mean of per-tile ``mean^2 / var`` over full non-overlapping tiles.

    Partial edge tiles are discarded; constant tiles (zero variance) are
    excluded from the average. Raises if the image holds no full tile or
    if every tile is constant.
    """
    return _enl_blocked(as_image(img), block)


def _enl_blocked(arr: np.ndarray, block: int) -> float:
    if block < 2:
        raise ValueError(f"block must be >= 2, got {block}")
    n_r = arr.shape[0] // block
    n_c = arr.shape[1] // block
    if n_r == 0 or n_c == 0:
        raise ValueError(f"image {arr.shape} smaller than one {block}x{block} block")
    tiles = arr[: n_r * block, : n_c * block].reshape(n_r, block, n_c, block)
    tiles = tiles.swapaxes(1, 2).reshape(n_r * n_c, block * block)
    means = tiles.mean(axis=1)
    variances = tiles.var(axis=1)
    valid = variances > 0.0
    if not valid.any():
        raise ValueError(f"all {valid.size} tiles are constant; ENL undefined")
    return float((means[valid] ** 2 / variances[valid]).mean())


def deflection_ratio(candidate, stats_source) -> float:
    """Mean of ``(candidate - NMV) / NSD`` with the statistics taken from
    ``stats_source`` (conventionally the unfiltered noisy image)."""
    return _deflection_ratio(as_image(candidate), as_image(stats_source))


def _deflection_ratio(cand: np.ndarray, src: np.ndarray) -> float:
    if cand.shape != src.shape:
        raise ValueError(f"shape mismatch: {cand.shape} vs {src.shape}")
    mean, _, sd = _moments(src)
    if sd <= 0.0:
        raise ValueError("stats source has zero standard deviation")
    return float(((cand - mean) / sd).mean())


def detect_edges(img, tau: float = 0.2) -> np.ndarray:
    """Boolean edge map: Sobel gradient magnitude >= ``tau`` times its
    maximum, with edge-replicated borders."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    return _detect_edges(as_image(img), tau)


def _detect_edges(arr: np.ndarray, tau: float) -> np.ndarray:
    magnitude = _sobel_magnitude(arr)
    peak = magnitude.max()
    if peak == 0.0:
        return np.zeros(arr.shape, dtype=bool)
    return magnitude >= tau * peak


def _sobel_magnitude(arr: np.ndarray) -> np.ndarray:
    magnitude = np.empty(arr.shape)
    rows = arr.shape[0]

    def _sobel_rows(s):
        # This strip's rows plus one row above and below, and one column
        # either side, replicated at the image border ("nearest" mode).
        top, bottom = max(s.start - 1, 0), min(s.stop + 1, rows)
        pad = ((top - (s.start - 1), s.stop + 1 - bottom), (1, 1))
        x = np.pad(arr[top:bottom], pad, mode="edge")
        # ndimage.sobel's order: difference along the gradient axis, then
        # smooth across it as 2 * centre + (previous + next).
        gx = x[:, 2:] - x[:, :-2]
        gx = 2.0 * gx[1:-1] + (gx[:-2] + gx[2:])
        gy = x[2:] - x[:-2]
        gy = 2.0 * gy[:, 1:-1] + (gy[:, :-2] + gy[:, 2:])
        np.hypot(gx, gy, out=magnitude[s])

    _for_each_strip(_sobel_rows, rows, arr[0].nbytes)
    return magnitude


def nearest_edge_distances(detected: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """Euclidean distance from each detected pixel to the nearest ideal pixel,
    from the feature transform (nearest ideal pixel of every pixel) of the
    ideal map."""
    detected = np.asarray(detected, dtype=bool)
    ideal = np.asarray(ideal, dtype=bool)
    if detected.shape != ideal.shape:
        raise ValueError(f"shape mismatch: {detected.shape} vs {ideal.shape}")
    if not ideal.any():
        raise ValueError("ideal edge map is empty")
    nearest = ndimage.distance_transform_edt(
        ~ideal, return_distances=False, return_indices=True
    )
    flat = np.flatnonzero(detected)
    dr, dc = (
        (coordinate.ravel()[flat] - own).astype(np.float64)
        for coordinate, own in zip(nearest, np.divmod(flat, detected.shape[1]))
    )
    return np.sqrt(dr * dr + dc * dc)


def pratt_fom(detected: np.ndarray, ideal: np.ndarray, alpha: float = 1.0 / 9.0) -> float:
    """Pratt's figure of merit between detected and ideal edge maps.

    ``sum_i 1 / (1 + alpha d_i^2) / max(n_detected, n_ideal)`` over the
    detected pixels; equals 1 exactly when the maps coincide, and 0 when
    nothing is detected.
    """
    detected = np.asarray(detected, dtype=bool)
    ideal = np.asarray(ideal, dtype=bool)
    if detected.shape != ideal.shape:
        raise ValueError(f"shape mismatch: {detected.shape} vs {ideal.shape}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
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


def full_report(clean, noisy, despeckled, cfg: MetricsConfig | None = None) -> MetricsReport:
    """Composite report for a (clean, noisy, despeckled) triple.

    NMV/NV/NSD and ENL are computed on the despeckled image, MSD pairs the
    noisy input with the despeckled output, DR standardizes the despeckled
    image by the noisy input's statistics, and FOM compares the despeckled
    image's edges against the clean image's edges.
    """
    cfg = cfg or MetricsConfig()
    clean = as_image(clean)
    noisy = as_image(noisy)
    despeckled = as_image(despeckled)
    if not (clean.shape == noisy.shape == despeckled.shape):
        raise ValueError(
            f"shape mismatch: {clean.shape}, {noisy.shape}, {despeckled.shape}"
        )
    nmv, nv, nsd = _moments(despeckled)
    return MetricsReport(
        nmv=nmv,
        nv=nv,
        nsd=nsd,
        msd=_msd(noisy, despeckled),
        enl=_enl_blocked(despeckled, cfg.block),
        dr=_deflection_ratio(despeckled, noisy),
        fom=pratt_fom(
            _detect_edges(despeckled, cfg.tau), _detect_edges(clean, cfg.tau), cfg.alpha
        ),
    )
