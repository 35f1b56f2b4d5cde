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


@pytest.fixture(scope="session")
def phantom() -> np.ndarray:
    return make_phantom()
