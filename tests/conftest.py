import math
import os
from pathlib import Path

import numpy as np
import pytest

from despeckle.fuzzy import control_step, scalarize
from despeckle.image import log_domain, subtract
from despeckle.pipeline import CalibrationResult, TraceStep, despeckle, initial_threshold
from despeckle.speckle import apply_speckle
from despeckle.wavelet import dwt2

_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session", autouse=True)
def _subprocess_imports_src():
    """CLI tests start ``python -m despeckle`` in a subprocess; put ``src`` on
    its path so it imports the same package as the tests, installed or not."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", _SRC, prepend=os.pathsep)
        yield


def make_phantom(n: int = 256) -> np.ndarray:
    """Piecewise-constant benchmark scene: gray levels 64/128/192, two
    axis-aligned squares and one diagonal edge across a corner."""
    img = np.full((n, n), 128.0)
    img[n // 8 : 3 * n // 8, 9 * n // 16 : 13 * n // 16] = 64.0
    img[9 * n // 16 : 13 * n // 16, n // 8 : 3 * n // 8] = 192.0
    rows, cols = np.ogrid[:n, :n]
    img[rows + cols >= 3 * n // 2] = 192.0
    return img


def _brute_distances(detected, ideal):
    """Oracle: exact pairwise distance from each detected pixel to every
    ideal pixel, minimized, in chunks that bound the distance matrix."""
    det_pts = np.argwhere(detected).astype(np.float64)
    ideal_pts = np.argwhere(ideal).astype(np.float64)
    out = np.empty(det_pts.shape[0], dtype=np.float64)
    chunk = 1024
    for start in range(0, det_pts.shape[0], chunk):
        block = det_pts[start : start + chunk]
        d2 = ((block[:, None, :] - ideal_pts[None, :, :]) ** 2).sum(axis=2)
        out[start : start + chunk] = np.sqrt(d2.min(axis=1))
    return out


def _detail_magnitudes(noisy, cfg):
    """|d| over the three detail blocks of the log image, computed apart from calibrate."""
    sub = dwt2(log_domain(noisy), cfg.wavelet)
    return np.abs(np.concatenate([sub.chd.ravel(), sub.cvd.ravel(), sub.cdd.ravel()]))


def _reference_calibrate(clean, spec, cfg, max_iter=100, epsilon=None, keyed_by_lambda=False):
    """Reference loop: the whole chain through despeckle on every
    iteration, with calibrate's gains, ``epsilon`` (None: calibrate's
    default, 2% of the peak), negated controller output and clamp to
    [0, max|d|], and its own bookkeeping of the previous error, the best
    threshold, the stop reason and which outputs were evaluated (the mask
    of surviving coefficients, under either shrinkage).
    It also stalls six steps past its best error magnitude.

    ``keyed_by_lambda`` runs the rule calibrate had before: soft outputs
    told apart by the threshold itself, and no patience, so an oscillating
    soft loop runs to max_iter. It is kept as an oracle for lambda*."""
    peak = float(np.abs(clean).max())
    epsilon = 0.02 * peak if epsilon is None else epsilon
    noisy = apply_speckle(clean, spec)
    lam0 = initial_threshold(noisy, cfg).lam
    mags = _detail_magnitudes(noisy, cfg)
    top = float(mags.max())

    def output_key(lam):
        return lam if keyed_by_lambda and cfg.shrink == "soft" else (mags > lam).tobytes()

    patience = math.inf if keyed_by_lambda else 6
    scale = 1.0 / peak
    step = 0.1 * lam0 if lam0 > 0 else 1.0
    lam, eh, best_lam, best_me, since_best = lam0, 0.0, lam0, float("inf"), 0
    trace = []
    evaluated = []
    stop_reason = "max_iter"
    for _ in range(max_iter):
        evaluated.append(output_key(lam))
        e = scalarize(subtract(clean, despeckle(noisy, lam, cfg))).e
        de = e - eh
        dlam = -(step * control_step(e * scale, de * scale))
        me = abs(e)
        trace.append(TraceStep(e, de, dlam, lam))
        if me < best_me:
            best_me, best_lam, since_best = me, lam, 0
        else:
            since_best += 1
        eh = e
        if me <= epsilon:
            stop_reason = "converged"
            break
        next_lam = min(max(lam + dlam, 0.0), top)
        if next_lam == lam or output_key(next_lam) in evaluated or since_best >= patience:
            stop_reason = "stalled"
            break
        lam = next_lam
    return best_lam, CalibrationResult(stop_reason, tuple(trace))




@pytest.fixture(scope="session")
def phantom() -> np.ndarray:
    return make_phantom()
