"""Noise-level estimation and wavelet-coefficient shrinkage.

The noise standard deviation of a detail subband is estimated as
``median(|coeffs|) / 0.6745`` (the Gaussian-consistent median absolute
deviation), and the shrinkage threshold is the universal threshold
``sigma * sqrt(2 ln N)``. Hard shrinkage zeroes coefficients with
``|x| <= lambda``; soft shrinkage additionally pulls survivors toward
zero by ``lambda`` while preserving sign.
"""

import math
from dataclasses import dataclass

import numpy as np

from .image import _finite, _is_integer, _is_real

__all__ = [
    "MAD_SCALE",
    "ThresholdEstimate",
    "mad_sigma",
    "universal_threshold",
    "hard_threshold",
    "soft_threshold",
]

# Rescales the median absolute deviation into a standard-deviation
# estimate for Gaussian noise.
MAD_SCALE = 0.6745


@dataclass(frozen=True)
class ThresholdEstimate:
    """Noise estimate ``delta_mad`` and threshold ``lam``."""

    delta_mad: float
    lam: float


def mad_sigma(coeffs) -> float:
    """Median absolute deviation of ``coeffs`` rescaled by 1/0.6745."""
    a = np.abs(np.asarray(coeffs, dtype=np.float64)).ravel()
    if a.size == 0:
        raise ValueError("mad_sigma requires a non-empty coefficient sequence")
    if not np.all(np.isfinite(a)):
        raise ValueError("mad_sigma requires finite coefficients")
    return float(np.median(a, overwrite_input=True)) / MAD_SCALE  # ``a`` is our own copy


def universal_threshold(delta_mad: float, n: int) -> ThresholdEstimate:
    """Universal threshold ``delta_mad * sqrt(2 ln n)`` over ``n`` samples;
    raises ``OverflowError`` when the product overflows."""
    if not _is_integer(n) or n < 2:
        raise ValueError(f"n must be >= 2, got {n!r}")
    if not _is_real(delta_mad) or not 0 <= delta_mad < math.inf:
        raise ValueError(f"delta_mad must be a non-negative finite real, got {delta_mad!r}")
    delta_mad = float(delta_mad)
    # Python floats overflow to inf silently
    lam = _finite("universal threshold", delta_mad * math.sqrt(2.0 * math.log(n)))
    return ThresholdEstimate(delta_mad=delta_mad, lam=lam)


def _check_threshold(lam) -> None:
    if not _is_real(lam) or not 0 <= lam < math.inf:
        raise ValueError(f"threshold must be a non-negative number, got {lam!r}")


def hard_threshold(sub, lam: float) -> np.ndarray:
    """Zero every coefficient with ``|x| <= lam``; keep the rest verbatim."""
    _check_threshold(lam)
    x = np.asarray(sub, dtype=np.float64)
    return np.where(np.abs(x) <= lam, 0.0, x)


def soft_threshold(sub, lam: float) -> np.ndarray:
    """Shrink magnitudes toward zero: ``sign(x) * max(|x| - lam, 0)``."""
    _check_threshold(lam)
    x = np.asarray(sub, dtype=np.float64)
    out = np.abs(x)
    out -= lam
    np.maximum(out, 0.0, out=out)
    return np.multiply(np.sign(x), out, out=out)
