"""Fuzzy PI controller that turns a scalar image error into a threshold step.

The controller is the paper's fixed design, held in module constants:
five triangular membership labels (NB, NS, AZ, PS, PB) centred at
:data:`LABEL_CENTERS` with half-width 0.5 over the normalized universe
[-1, 1], the 5x5 antisymmetric rule table :data:`RULES` mixing the error
and its change (the diagonal band of zeros gives the loose PI-style
tuning), min as the AND operator, and center-average defuzzification onto
the label centers. :func:`control_step` is a pure function of the
normalized error and its change; the caller scales raw errors into the
universe and the output in [-1, 1] into a raw threshold increment.

Scalarization reduces an error image to a signed scalar: the value of the
pixel with the largest magnitude (ties broken toward the smallest row,
then column). The calibration loop pairs it with its change against the
previous iteration's value.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .image import _check_size, _is_integer, _is_real, as_image

__all__ = [
    "LABEL_CENTERS",
    "RULES",
    "ScalarError",
    "scalarize",
    "fuzzify",
    "infer",
    "control_step",
    "output_surface",
    "surface_to_csv",
]

LABEL_CENTERS = {"NB": -1.0, "NS": -0.5, "AZ": 0.0, "PS": 0.5, "PB": 1.0}
_HALF_WIDTH = 0.5

# Output label of each rule: rows are the change-in-error label, columns the
# error label, both in LABEL_CENTERS order. Negating both inputs negates the output.
RULES = (
    ("NB", "NS", "NS", "AZ", "AZ"),
    ("NB", "NS", "AZ", "AZ", "PS"),
    ("NS", "NS", "AZ", "PS", "PS"),
    ("NS", "AZ", "AZ", "PS", "PB"),
    ("AZ", "AZ", "PS", "PS", "PB"),
)


@dataclass(frozen=True)
class ScalarError:
    """Signed peak error ``e`` of an error image."""

    e: float


def scalarize(error_image) -> ScalarError:
    """Reduce an error image to its signed extreme value ``e``.

    The calibration loop takes the change in error against the previous
    iteration's ``e``, read from its trace.
    """
    arr = as_image(error_image)
    flat = int(np.argmax(np.abs(arr)))  # first occurrence: smallest row, then column
    return ScalarError(e=float(arr.flat[flat]))


def fuzzify(u: float) -> dict:
    """Grades of all five labels at ``u``, clamped into [-1, 1] (so +-inf
    grade as +-1); NaN and non-real values are rejected."""
    if not _is_real(u) or math.isnan(u):
        raise ValueError(f"membership input must be a number, got {u!r}")
    u = min(1.0, max(-1.0, float(u)))
    return {
        label: max(0.0, 1.0 - abs(u - center) / _HALF_WIDTH)
        for label, center in LABEL_CENTERS.items()
    }


def infer(e_grades: dict, de_grades: dict) -> float:
    """Min-AND rule firing with center-average defuzzification, in [-1, 1]."""
    numerator = 0.0
    total = 0.0
    for de_label, row in zip(LABEL_CENTERS, RULES):
        for e_label, out_label in zip(LABEL_CENTERS, row):
            weight = min(e_grades[e_label], de_grades[de_label])
            numerator += weight * LABEL_CENTERS[out_label]
            total += weight
    return numerator / total if total > 0.0 else 0.0


def control_step(e: float, de: float) -> float:
    """Normalized controller output in [-1, 1] for a normalized error
    ``e`` and change in error ``de``; either input NaN is a ValueError."""
    return infer(fuzzify(e), fuzzify(de))


def output_surface(grid_n: int) -> np.ndarray:
    """Normalized controller output on a grid over [-1, 1]^2.

    Entry ``[i, j]`` is the inferred output at change-in-error ``u[i]`` and
    error ``u[j]`` for ``u = linspace(-1, 1, grid_n)``, mirroring the rule
    table layout.
    """
    if not _is_integer(grid_n) or not 2 <= grid_n < 2**63:
        raise ValueError(f"grid_n must be >= 2 and below 2**63, got {grid_n!r}")
    _check_size("surface (grid_n, grid_n)", (int(grid_n),) * 2)
    grades = [fuzzify(u) for u in np.linspace(-1.0, 1.0, grid_n)]
    return np.array([[infer(e, de) for e in grades] for de in grades])


def surface_to_csv(surface: np.ndarray) -> str:
    """CSV export of an :func:`output_surface` grid: a two-line header
    (names, then the span ``-1.0,1.0`` over which the surface is always
    sampled, and n) and the grid values row-major."""
    surface = np.asarray(surface, dtype=np.float64)
    buf = io.StringIO()
    buf.write("e_min,e_max,n\n")
    buf.write(f"-1.0,1.0,{surface.shape[0]}\n")
    for row in surface.tolist():
        buf.write(",".join(repr(v) for v in row))
        buf.write("\n")
    return buf.getvalue()
