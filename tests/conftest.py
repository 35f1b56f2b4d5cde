import os
from pathlib import Path

import numpy as np
import pytest

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


@pytest.fixture(scope="session")
def phantom() -> np.ndarray:
    return make_phantom()
