"""End-to-end despeckling chains and threshold calibration.

The shrinkage path is homomorphic: add 1, take the natural logarithm
(turning multiplicative speckle into additive noise), run a single-level
2-D wavelet analysis, shrink the three detail subbands at a threshold
(the approximation is untouched), reconstruct, exponentiate, and
subtract 1. :func:`despeckle` runs it once at a given threshold.

Calibration closes a feedback loop around that chain: synthetic speckle
with a chosen distribution is applied to a clean reference, the threshold
is seeded from the universal threshold of the diagonal detail
coefficients, and a fuzzy PI controller nudges it around that seed, within
zero and the largest detail-coefficient magnitude, from the signed
worst-pixel error of each despeckling attempt. The loop stops once the
next threshold keeps the same coefficients as one already evaluated, or
six steps bring no smaller error, and keeps the first threshold with the
smallest observed error magnitude, so it never returns a larger
worst-pixel error than the seed's. That is no clean-image MSE guarantee,
although no MSE regression was seen on the 256x256 phantom's 36-input
grid that the tests run. The calibrated threshold is then applied
open-loop to new images.

Two baseline filters are included for comparison: a homomorphic windowed
median, and the Lee local-statistics filter operating directly in the
intensity domain (a log transform is wrong for filters derived from the
multiplicative model).
"""

import io
import math
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from ._strips import _halo_strips
from .fuzzy import control_step, scalarize
from .image import _exp_domain, _finite, _is_integer, _is_real, as_image, exp_domain, log_domain
from .speckle import SpeckleSpec, apply_speckle
from .thresholding import (
    ThresholdEstimate,
    _check_threshold,
    hard_threshold,
    mad_sigma,
    soft_threshold,
    universal_threshold,
)
from .wavelet import Subbands, _check_wavelet, _diagonal_detail, dwt2, idwt2

__all__ = [
    "SHRINKERS",
    "PipelineConfig",
    "TraceStep",
    "CalibrationResult",
    "trace_to_csv",
    "initial_threshold",
    "calibrate",
    "despeckle",
    "median_filter_homomorphic",
    "lee_filter",
]

SHRINKERS = {"hard": hard_threshold, "soft": soft_threshold}

# Steps past the first smallest error magnitude after which calibrate stops
# as stalled: a loop whose threshold oscillates can keep finding new survivor
# counts without coming closer. Over 432 runs (64^2, 97^2 and 256^2 phantoms
# x gamma L=3/Rayleigh/exponential speckle x seeds 0-7 x haar/db2/db4 x
# hard/soft), 6 ends every soft run within 7 iterations and changes no hard
# trace and no lambda* against the loop without this rule. 5 is the smallest
# value that does so, and 6 keeps a step in hand; at 4, three hard traces are
# cut short and one lambda* moves.
_PATIENCE = 6


@dataclass(frozen=True)
class PipelineConfig:
    """Shrinkage-chain configuration: wavelet name and shrinkage rule."""

    wavelet: str = "haar"
    shrink: str = "hard"

    def __post_init__(self):
        # no hashing of other types
        if not isinstance(self.shrink, str) or self.shrink not in SHRINKERS:
            raise ValueError(f"shrink must be one of {tuple(SHRINKERS)}, got {self.shrink!r}")
        _check_wavelet(self.wavelet)  # reject unknown names eagerly


@dataclass(frozen=True)
class TraceStep:
    """One calibration iteration: the threshold evaluated and its outcome."""

    e: float
    de: float
    dlambda: float
    lam: float

    @property
    def me(self) -> float:
        """Error magnitude ``|e|``."""
        return abs(self.e)


@dataclass(frozen=True)
class CalibrationResult:
    """Calibration outcome: why the loop stopped (``converged``, ``stalled``
    or ``max_iter``), and the full trace, which holds the best threshold."""

    stop_reason: str
    trace: tuple

    @property
    def lambda_star(self) -> float:
        """The first threshold with the smallest error magnitude ``|e|``
        (min keeps the first of equal magnitudes: the earliest best threshold)."""
        return min(self.trace, key=attrgetter("me")).lam

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def iterations(self) -> int:
        return len(self.trace)


def trace_to_csv(trace) -> str:
    """CSV export of a calibration trace: one row per iteration, numbered
    from 1 by its position in the trace."""
    buf = io.StringIO()
    buf.write("iter,e,de,dlambda,lambda,me\n")
    for iteration, step in enumerate(trace, 1):
        buf.write(
            f"{iteration},{step.e!r},{step.de!r},{step.dlambda!r},"
            f"{step.lam!r},{step.me!r}\n"
        )
    return buf.getvalue()


def _analyse(img, cfg: PipelineConfig) -> Subbands:
    """Log-domain wavelet coefficients of ``img``, which log_domain checks."""
    return dwt2(log_domain(img), cfg.wavelet)


def _synthesise(sub: Subbands, lam: float, cfg: PipelineConfig, shrunk: tuple) -> np.ndarray:
    """Shrink the detail subbands of ``sub`` at ``lam`` into ``shrunk``,
    reconstruct and leave the log domain.

    ``shrunk`` is three arrays of the blocks' shape: ``sub``'s own ``chd``,
    ``cvd`` and ``cdd``, which are then overwritten, or buffers that keep
    ``sub`` for another threshold. Either way only one block's shrinkage
    temporaries are alive at a time, and idwt2's fresh output, finite by
    construction, is exponentiated in place without an image check.
    """
    shrink = SHRINKERS[cfg.shrink]
    for block, dst in zip((sub.chd, sub.cvd, sub.cdd), shrunk):
        np.copyto(dst, shrink(block, lam))
    chd, cvd, cdd = shrunk
    log_out = idwt2(replace(sub, chd=chd, cvd=cvd, cdd=cdd), cfg.wavelet)
    out = _exp_domain(log_out, log_out)
    return np.maximum(out, 0.0, out=out)


def _seed_threshold(cdd: np.ndarray, shape: tuple) -> ThresholdEstimate:
    """Universal threshold of the diagonal detail block ``cdd`` of an image of ``shape``."""
    coeffs = cdd.ravel()
    if coeffs.size < 2:
        raise ValueError(
            f"image {shape} is too small to seed the threshold: the "
            f"'cdd' subband holds {coeffs.size} coefficient(s), need at least 2"
        )
    return universal_threshold(mad_sigma(coeffs), coeffs.size)


def initial_threshold(img, cfg: PipelineConfig | None = None) -> ThresholdEstimate:
    """Universal-threshold seed from the log-domain diagonal detail coefficients.

    Only that block is computed: the highpass row pass of the log image,
    then the highpass column pass of its output. The coefficients equal
    ``dwt2(log_domain(img), cfg.wavelet).cdd`` bit for bit,
    at about half the cost of the full analysis.
    """
    cfg = cfg or PipelineConfig()
    log = log_domain(img)
    return _seed_threshold(_diagonal_detail(log, cfg.wavelet), log.shape)


def calibrate(
    clean,
    spec: SpeckleSpec,
    cfg: PipelineConfig | None = None,
    epsilon: float | None = None,
    max_iter: int = 100,
) -> CalibrationResult:
    """Calibrate the shrinkage threshold against a clean reference image.

    Applies synthetic speckle to ``clean``, seeds the threshold from the
    universal threshold of the speckled image, then iterates: despeckle,
    take the signed worst-pixel error against ``clean``, and let the fuzzy
    controller adjust the threshold within ``[0, top]``, where ``top`` is
    the largest detail-coefficient magnitude (every threshold at or above
    it zeroes all details and gives the same output). The
    controller's gains are fixed: the clean image's peak maps to a
    normalized error of 1, and one step moves the threshold by at most 10%
    of its seed. ``epsilon`` is in raw gray levels; the default is 2% of
    the clean image's peak.

    The controller's output is negated: a negative error (the output
    overshoots the clean image) raises the threshold. The paper's fuzzy
    stage sets "the rate threshold level around the ... initial threshold".
    The seed leaves an overshoot on most inputs, and with the rule table's
    sign taken as is, the loop would step the threshold down to zero, away
    from the seed, while the error grows.

    The loop stops with a reason: ``converged`` once the error magnitude
    drops to ``epsilon``; ``stalled`` once the next threshold keeps the
    coefficients of a threshold already evaluated, or six steps have passed
    since the first smallest error magnitude; and ``max_iter`` otherwise.
    The survivor sets ``{|d| > lam}`` are nested, so equal counts
    ``#(|d| > lam)`` mean the same surviving coefficients: under hard
    shrinkage the same output, under soft shrinkage the same support. Each
    trace step is one synthesis.
    Returns the first threshold with the smallest observed error magnitude
    together with the full trace; trace and result are the same as running
    :func:`despeckle` on every iteration.
    """
    cfg = cfg or PipelineConfig()
    clean = as_image(clean)
    if not _is_integer(max_iter) or max_iter < 1:
        raise ValueError(f"max_iter must be a positive integer, got {max_iter!r}")
    peak = float(np.abs(clean).max())
    if peak == 0.0:
        raise ValueError("clean reference is identically zero")
    if epsilon is None:
        epsilon = 0.02 * peak
    if not _is_real(epsilon) or not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    # compared with a np.float32, a Python float error would be rounded to
    # single precision first
    epsilon = float(epsilon)

    sub = _analyse(apply_speckle(clean, spec), cfg)
    lam0 = _seed_threshold(sub.cdd, sub.shape).lam
    # Full-scale pixel error maps to +-1; one step is capped at 10% of the
    # seed threshold (the step must be positive, hence the lam0 == 0 fallback).
    scale = 1.0 / peak
    step = 0.1 * lam0 if lam0 > 0 else 1.0
    details = (sub.chd, sub.cvd, sub.cdd)
    top = float(max(max(d.max(), -d.min()) for d in details))
    # every iteration shrinks the same analysis, so the shrunk details go to
    # buffers allocated once per call
    shrunk = tuple(np.empty_like(d) for d in details)

    def survivors(lam):  # #(|d| > lam), counted without a full-size temporary
        return sum(np.count_nonzero(d > lam) + np.count_nonzero(d < -lam) for d in details)

    lam = lam0
    seen = {survivors(lam0)}  # survivor counts of the thresholds evaluated so far
    trace = []
    best = 0  # index of the first step with the smallest |e| so far
    for i in range(max_iter):
        # clean is validated above and _synthesise checks its output
        e = scalarize(clean - _synthesise(sub, lam, cfg, shrunk)).e
        de = e - (trace[-1].e if trace else 0.0)
        dlam = -step * control_step(e * scale, de * scale)
        trace.append(TraceStep(e=e, de=de, dlambda=dlam, lam=lam))
        if abs(e) <= epsilon:
            stop_reason = "converged"
            break
        if trace[i].me < trace[best].me:
            best = i
        lam = min(max(lam + dlam, 0.0), top)
        k = survivors(lam)
        if k in seen or i - best >= _PATIENCE:
            stop_reason = "stalled"
            break
        seen.add(k)
    else:
        stop_reason = "max_iter"
    return CalibrationResult(stop_reason=stop_reason, trace=tuple(trace))


def despeckle(noisy, lambda_star: float, cfg: PipelineConfig | None = None) -> np.ndarray:
    """One pass of the homomorphic shrinkage chain at threshold
    ``lambda_star``: apply a calibrated threshold open-loop to a new image."""
    cfg = cfg or PipelineConfig()
    _check_threshold(lambda_star)
    sub = _analyse(noisy, cfg)
    # the analysis is this call's own, so its details are shrunk in place
    return _synthesise(sub, lambda_star, cfg, (sub.chd, sub.cvd, sub.cdd))


def _check_kernel(kernel: int, shape) -> None:
    if not _is_integer(kernel) or kernel < 3 or kernel % 2 == 0:
        raise ValueError(f"kernel must be an odd integer >= 3, got {kernel!r}")
    if kernel > min(shape):
        raise ValueError(f"kernel {kernel} larger than image {shape}")


def median_filter_homomorphic(noisy, kernel: int = 3) -> np.ndarray:
    """Windowed median in the log domain with edge-replicated borders.

    ``log(x + 1)`` is monotone and the median only selects, so the median of
    the log image is the log of the plain median bit for bit: the output is
    ``exp_domain(log_domain(plain median))``, the plain median up to the
    rounding of exp after log.

    The 3x3 median is a min/max network (Paeth, "Median finding on a 3x3
    grid", Graphics Gems, 1990) over cache-sized row strips; larger kernels
    run ``scipy.ndimage.median_filter``. The network only selects elements,
    so it equals ``ndimage.median_filter(size=3, mode="nearest")`` bit for
    bit, except that it may return the other zero of a window that holds
    both +0.0 and -0.0. The log image holds no -0.0: ``ln(pixel + 1)`` of a
    pixel >= 0 (-0.0 included) is +0.0 or positive.
    """
    arr = as_image(noisy)
    _check_kernel(kernel, arr.shape)
    if kernel == 3:
        return exp_domain(_median3(log_domain(arr)))
    # scipy.ndimage is imported where it is used (here, in lee_filter and in
    # metrics.nearest_edge_distances): loading it roughly triples the time
    # `import despeckle` takes, and most commands never call these functions.
    from scipy import ndimage

    return exp_domain(ndimage.median_filter(log_domain(arr), size=kernel, mode="nearest"))


def _median3(arr: np.ndarray) -> np.ndarray:
    """3x3 median of a 2-D array with edge-replicated borders.

    Each strip sorts every vertical triple of its rows once: with
    ``med3(a, b, c) = max(min(a, b), min(max(a, b), c))``, the triple
    ``(a, b, c)`` sorts into ``min(min(a, b), c)``, ``med3(a, b, c)`` and
    ``max(max(a, b), c)``. A sorted triple serves the three windows that
    share its column, and a window's median is ``med3(max of lows, med3 of
    mids, min of highs)`` over its three columns.
    """
    out = np.empty(arr.shape)
    for s, x, (lo, mid, hi) in _halo_strips(arr, 3):
        med = out[s]
        rows, cols = med.shape
        lo, mid, hi = lo[:rows], mid[:rows], hi[:rows]
        above, centre, below = x[:-2], x[1:-1], x[2:]
        np.minimum(above, centre, out=lo)
        np.maximum(above, centre, out=hi)
        np.minimum(hi, below, out=mid)
        np.maximum(hi, below, out=hi)
        np.maximum(lo, mid, out=mid)
        np.minimum(lo, below, out=lo)
        # x, then lo, then hi are free once read: the column maximum of the
        # lows goes to x, the column minimum of the highs to lo, and the
        # column med3 of the mids to hi
        lows, highs, mids = x[:rows, :cols], lo[:, :cols], hi[:, :cols]
        np.maximum(lo[:, :-2], lo[:, 1:-1], out=lows)
        np.maximum(lows, lo[:, 2:], out=lows)
        np.minimum(hi[:, :-2], hi[:, 1:-1], out=highs)
        np.minimum(highs, hi[:, 2:], out=highs)
        np.maximum(mid[:, :-2], mid[:, 1:-1], out=med)
        np.minimum(med, mid[:, 2:], out=med)
        np.minimum(mid[:, :-2], mid[:, 1:-1], out=mids)
        np.maximum(mids, med, out=mids)
        np.minimum(lows, mids, out=med)
        np.maximum(lows, mids, out=lows)
        np.minimum(lows, highs, out=lows)
        np.maximum(med, lows, out=med)
    return out


def lee_filter(noisy, kernel: int = 5, noise_var_ratio: float = 1.0 / 3.0) -> np.ndarray:
    """Lee local-statistics filter in the intensity domain.

    ``noise_var_ratio`` is the speckle variance (1/L for L-look gamma
    speckle). Per pixel, with local window mean ``m`` and variance ``v``:
    ``gain = max(v - m^2 * ratio, 0) / v`` (0 where ``v`` is 0) and
    ``out = m + gain * (x - m)``. Raises ``OverflowError`` when a local
    statistic overflows.
    """
    from scipy import ndimage

    arr = as_image(noisy)
    _check_kernel(kernel, arr.shape)
    if not _is_real(noise_var_ratio) or not 0 <= noise_var_ratio < math.inf:
        raise ValueError(f"noise_var_ratio must be a non-negative real, got {noise_var_ratio!r}")
    mean = ndimage.uniform_filter(arr, size=kernel, mode="nearest")
    # one scratch array holds arr^2, then mean^2, the numerator and the gain
    with np.errstate(over="ignore", invalid="ignore"):
        scratch = np.multiply(arr, arr)
        var = ndimage.uniform_filter(scratch, size=kernel, mode="nearest")
        np.multiply(mean, mean, out=scratch)
        var -= scratch
        # an overflowed local mean or mean of squares leaves a non-finite
        # variance, whose gain would silently read 0 or NaN
        _finite("Lee local variance", var)
        # an overflowed mean^2 * ratio is inf, whose gain is 0: the local
        # mean, the filter's limit as the ratio grows
        scratch *= noise_var_ratio
    np.maximum(var, 0.0, out=var)
    np.subtract(var, scratch, out=scratch)
    np.maximum(scratch, 0.0, out=scratch)
    # where var is 0 the numerator is +0.0 already, the gain there
    np.divide(scratch, var, out=scratch, where=var > 0.0)
    np.subtract(arr, mean, out=var)
    scratch *= var
    mean += scratch
    return mean
