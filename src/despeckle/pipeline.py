"""End-to-end despeckling chains and threshold calibration.

The shrinkage path is homomorphic: add a positive bias, take the natural
logarithm (turning multiplicative speckle into additive noise), run a
single-level 2-D wavelet analysis, shrink the three detail subbands at a
threshold (the approximation is untouched), reconstruct, exponentiate,
and remove the bias.

Calibration closes a feedback loop around that chain: synthetic speckle
with a chosen distribution is applied to a clean reference, the threshold
is seeded from the universal threshold of the detail coefficients, and a
fuzzy PI controller nudges it from the signed worst-pixel error of each
despeckling attempt. The loop keeps the threshold with the smallest
observed error magnitude, so a wandering trajectory can never return a
threshold worse than the seed. The calibrated threshold is then applied
open-loop to new images.

Two baseline filters are included for comparison: a homomorphic windowed
median, and the Lee local-statistics filter operating directly in the
intensity domain (a log transform is wrong for filters derived from the
multiplicative model).
"""

import io
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .fuzzy import ControllerConfig, control_step, scalarize
from .image import as_image, exp_domain, log_domain, subtract
from .speckle import SpeckleSpec, apply_speckle
from .thresholding import (
    ThresholdEstimate,
    hard_threshold,
    mad_sigma,
    soft_threshold,
    universal_threshold,
)
from .wavelet import FilterBank, bank_by_name, dwt2, idwt2

__all__ = [
    "SHRINKERS",
    "SEED_SUBBANDS",
    "PipelineConfig",
    "CalibrationState",
    "TraceStep",
    "CalibrationResult",
    "trace_to_csv",
    "shrink_once",
    "initial_threshold",
    "calibrate",
    "despeckle",
    "median_filter_homomorphic",
    "lee_filter",
]

SHRINKERS = {"hard": hard_threshold, "soft": soft_threshold}
SEED_SUBBANDS = ("chd", "cvd", "cdd", "pooled")


@dataclass(frozen=True)
class PipelineConfig:
    """Shrinkage-chain configuration.

    ``seed_subband`` selects which detail block feeds the initial noise
    estimate ("pooled" concatenates all three).
    """

    wavelet: str = "haar"
    shrink: str = "hard"
    bias: float = 1.0
    seed_subband: str = "cdd"

    def __post_init__(self):
        if self.shrink not in SHRINKERS:
            raise ValueError(f"shrink must be one of {tuple(SHRINKERS)}, got {self.shrink!r}")
        if self.seed_subband not in SEED_SUBBANDS:
            raise ValueError(
                f"seed_subband must be one of {SEED_SUBBANDS}, got {self.seed_subband!r}"
            )
        if self.bias <= 0 or not np.isfinite(self.bias):
            raise ValueError(f"bias must be positive and finite, got {self.bias}")
        bank_by_name(self.wavelet)  # reject unknown names eagerly

    def bank(self) -> FilterBank:
        return bank_by_name(self.wavelet)


@dataclass
class CalibrationState:
    """Mutable loop state: current threshold, previous error, best-so-far."""

    lam: float
    eh: float = 0.0
    best_lam: float = 0.0
    best_me: float = float("inf")


@dataclass(frozen=True)
class TraceStep:
    """One calibration iteration: the threshold evaluated and its outcome."""

    iteration: int
    e: float
    de: float
    dlambda: float
    lam: float
    me: float


@dataclass(frozen=True)
class CalibrationResult:
    """Calibration outcome: best threshold, iteration count, and full trace."""

    lambda_star: float
    iterations: int
    converged: bool
    trace: tuple

    @property
    def initial_lambda(self) -> float:
        return self.trace[0].lam


def trace_to_csv(trace) -> str:
    """CSV export of a calibration trace (one row per iteration)."""
    buf = io.StringIO()
    buf.write("iter,e,de,dlambda,lambda,me\n")
    for step in trace:
        buf.write(
            f"{step.iteration},{step.e!r},{step.de!r},{step.dlambda!r},"
            f"{step.lam!r},{step.me!r}\n"
        )
    return buf.getvalue()


def shrink_once(img, lam: float, cfg: PipelineConfig | None = None) -> np.ndarray:
    """One pass of the homomorphic shrinkage chain at threshold ``lam``."""
    cfg = cfg or PipelineConfig()
    if lam < 0:
        raise ValueError(f"threshold must be non-negative, got {lam}")
    arr = as_image(img)
    bank = cfg.bank()
    sub = dwt2(log_domain(arr, cfg.bias), bank)
    shrink = SHRINKERS[cfg.shrink]
    thresholded = replace(
        sub, chd=shrink(sub.chd, lam), cvd=shrink(sub.cvd, lam), cdd=shrink(sub.cdd, lam)
    )
    out = exp_domain(idwt2(thresholded, bank), cfg.bias)
    return np.maximum(out, 0.0)


def initial_threshold(img, cfg: PipelineConfig | None = None) -> ThresholdEstimate:
    """Universal-threshold seed from the log-domain detail coefficients."""
    cfg = cfg or PipelineConfig()
    arr = as_image(img)
    sub = dwt2(log_domain(arr, cfg.bias), cfg.bank())
    if cfg.seed_subband == "pooled":
        coeffs = np.concatenate([sub.chd.ravel(), sub.cvd.ravel(), sub.cdd.ravel()])
    else:
        coeffs = getattr(sub, cfg.seed_subband).ravel()
    if coeffs.size < 2:
        raise ValueError(
            f"image {arr.shape} is too small to seed the threshold: the "
            f"{cfg.seed_subband!r} subband holds {coeffs.size} coefficient(s), need at least 2"
        )
    return universal_threshold(mad_sigma(coeffs), coeffs.size)


def _default_controller(peak: float, lam0: float) -> ControllerConfig:
    # Full-scale pixel error maps to +-1; one step is capped at 10% of the
    # seed threshold (gains must be positive, hence the lam0 == 0 fallback).
    return ControllerConfig(
        e_scale=1.0 / peak,
        de_scale=1.0 / peak,
        dlambda_scale=0.1 * lam0 if lam0 > 0 else 1.0,
        k_p=1.0,
    )


def calibrate(
    clean,
    spec: SpeckleSpec,
    cfg: PipelineConfig | None = None,
    ctl: ControllerConfig | None = None,
    epsilon: float | None = None,
    max_iter: int = 100,
) -> CalibrationResult:
    """Calibrate the shrinkage threshold against a clean reference image.

    Applies synthetic speckle to ``clean``, seeds the threshold from the
    universal threshold of the speckled image, then iterates: despeckle,
    take the signed worst-pixel error against ``clean``, let the fuzzy
    controller adjust the threshold (clamped at zero), and stop once the
    error magnitude drops to ``epsilon`` or ``max_iter`` is reached.
    ``epsilon`` is in raw gray levels; the default is 2% of the clean
    image's peak. Returns the threshold with the smallest observed error
    magnitude together with the full per-iteration trace.
    """
    cfg = cfg or PipelineConfig()
    clean = as_image(clean)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    peak = float(np.abs(clean).max())
    if peak == 0.0:
        raise ValueError("clean reference is identically zero")
    if epsilon is None:
        epsilon = 0.02 * peak
    if epsilon <= 0 or not np.isfinite(epsilon):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")

    noisy = apply_speckle(clean, spec)
    lam0 = initial_threshold(noisy, cfg).lam
    if ctl is None:
        ctl = _default_controller(peak, lam0)

    state = CalibrationState(lam=lam0, best_lam=lam0)
    trace = []
    converged = False
    for iteration in range(1, max_iter + 1):
        despeckled = shrink_once(noisy, state.lam, cfg)
        err = scalarize(subtract(clean, despeckled), state.eh)
        dlam = control_step(err, ctl)
        me = abs(err.e)
        trace.append(
            TraceStep(
                iteration=iteration,
                e=err.e,
                de=err.de,
                dlambda=dlam,
                lam=state.lam,
                me=me,
            )
        )
        if me < state.best_me:
            state.best_me = me
            state.best_lam = state.lam
        state.eh = err.e
        if me <= epsilon:
            converged = True
            break
        state.lam = max(state.lam + dlam, 0.0)
    return CalibrationResult(
        lambda_star=state.best_lam,
        iterations=len(trace),
        converged=converged,
        trace=tuple(trace),
    )


def despeckle(noisy, lambda_star: float, cfg: PipelineConfig | None = None) -> np.ndarray:
    """Apply a calibrated threshold open-loop to a new image."""
    return shrink_once(noisy, lambda_star, cfg)


def _check_kernel(kernel: int, shape) -> int:
    if kernel < 3 or kernel % 2 == 0:
        raise ValueError(f"kernel must be an odd integer >= 3, got {kernel}")
    if kernel > min(shape):
        raise ValueError(f"kernel {kernel} larger than image {shape}")
    return kernel


def median_filter_homomorphic(noisy, kernel: int = 3, bias: float = 1.0) -> np.ndarray:
    """Windowed median in the log domain with edge-replicated borders."""
    arr = as_image(noisy)
    _check_kernel(kernel, arr.shape)
    filtered = ndimage.median_filter(log_domain(arr, bias), size=kernel, mode="nearest")
    return exp_domain(filtered, bias)


def lee_filter(noisy, kernel: int = 5, noise_var_ratio: float = 1.0 / 3.0) -> np.ndarray:
    """Lee local-statistics filter in the intensity domain.

    ``noise_var_ratio`` is the speckle variance (1/L for L-look gamma
    speckle). Per pixel, with local window mean ``m`` and variance ``v``:
    ``gain = max(v - m^2 * ratio, 0) / v`` (0 where ``v`` is 0) and
    ``out = m + gain * (x - m)``.
    """
    arr = as_image(noisy)
    _check_kernel(kernel, arr.shape)
    if noise_var_ratio < 0 or not np.isfinite(noise_var_ratio):
        raise ValueError(f"noise_var_ratio must be a non-negative real, got {noise_var_ratio}")
    mean = ndimage.uniform_filter(arr, size=kernel, mode="nearest")
    mean_sq = ndimage.uniform_filter(arr * arr, size=kernel, mode="nearest")
    var = np.maximum(mean_sq - mean * mean, 0.0)
    numerator = np.maximum(var - mean * mean * noise_var_ratio, 0.0)
    gain = np.divide(numerator, var, out=np.zeros_like(var), where=var > 0.0)
    return mean + gain * (arr - mean)
