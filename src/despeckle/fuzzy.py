"""Fuzzy PI controller that turns a scalar image error into a threshold step.

The controller is table-driven: five triangular membership labels (NB,
NS, AZ, PS, PB) over the normalized universe [-1, 1], a 5x5 antisymmetric
rule table mixing the error and its change (the diagonal band of zeros
gives the loose PI-style tuning), min as the AND operator, and
center-average defuzzification onto the label centers. The normalized
output in [-1, 1] is rescaled by the caller's gains into a raw threshold
increment.

Scalarization reduces an error image to a signed scalar: the value of the
pixel with the largest magnitude (ties broken toward the smallest row,
then column), plus its change against the previous value.
"""

import io
from dataclasses import dataclass

import numpy as np

from .image import as_image

__all__ = [
    "LABELS",
    "LABEL_CENTERS",
    "MembershipBank",
    "RuleBase",
    "ControllerConfig",
    "ScalarError",
    "DEFAULT_BANK",
    "DEFAULT_RULES",
    "scalarize",
    "fuzzify",
    "infer",
    "control_step",
    "output_surface",
    "surface_to_csv",
]

LABELS = ("NB", "NS", "AZ", "PS", "PB")
LABEL_CENTERS = {"NB": -1.0, "NS": -0.5, "AZ": 0.0, "PS": 0.5, "PB": 1.0}

_NEGATE = {"NB": "PB", "NS": "PS", "AZ": "AZ", "PS": "NS", "PB": "NB"}


@dataclass(frozen=True)
class MembershipBank:
    """Triangular memberships: centers at -1, -0.5, 0, 0.5, 1, half-width 0.5."""

    centers: tuple = (-1.0, -0.5, 0.0, 0.5, 1.0)
    half_width: float = 0.5

    def __post_init__(self):
        if len(self.centers) != len(LABELS):
            raise ValueError("one center per label required")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")


DEFAULT_BANK = MembershipBank()


@dataclass(frozen=True)
class RuleBase:
    """5x5 output-label table; rows are change-in-error, columns are error.

    Both indices run NB, NS, AZ, PS, PB. The table must be antisymmetric:
    negating both inputs negates the output label.
    """

    rows: tuple = (
        ("NB", "NS", "NS", "AZ", "AZ"),
        ("NB", "NS", "AZ", "AZ", "PS"),
        ("NS", "NS", "AZ", "PS", "PS"),
        ("NS", "AZ", "AZ", "PS", "PB"),
        ("AZ", "AZ", "PS", "PS", "PB"),
    )

    def __post_init__(self):
        if len(self.rows) != 5 or any(len(r) != 5 for r in self.rows):
            raise ValueError("rule table must be 5x5")
        for i, row in enumerate(self.rows):
            for j, cell in enumerate(row):
                if cell not in LABELS:
                    raise ValueError(f"unknown output label {cell!r}")
                mirrored = self.rows[4 - i][4 - j]
                if _NEGATE[cell] != mirrored:
                    raise ValueError(
                        f"rule table is not antisymmetric at ({LABELS[i]}, {LABELS[j]})"
                    )

    def output(self, de_label: str, e_label: str) -> str:
        return self.rows[LABELS.index(de_label)][LABELS.index(e_label)]


DEFAULT_RULES = RuleBase()


@dataclass(frozen=True)
class ControllerConfig:
    """Gains around the normalized controller.

    ``e_scale``/``de_scale`` map raw errors into [-1, 1]; ``dlambda_scale``
    maps the normalized output to a raw threshold increment; ``k_p`` is an
    outer proportional gain. There is no integral-time gain: the rule table
    embodies the PI mixing.
    """

    e_scale: float
    de_scale: float
    dlambda_scale: float
    k_p: float = 1.0

    def __post_init__(self):
        for name in ("e_scale", "de_scale", "dlambda_scale", "k_p"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class ScalarError:
    """Signed peak error ``e``, its change ``de``, and the previous error ``eh``."""

    e: float = 0.0
    de: float = 0.0
    eh: float = 0.0


def scalarize(error_image, eh: float = 0.0) -> ScalarError:
    """Reduce an error image to its signed extreme value and change vs ``eh``."""
    arr = as_image(error_image)
    flat = int(np.argmax(np.abs(arr)))  # first occurrence: smallest row, then column
    e = float(arr.flat[flat])
    return ScalarError(e=e, de=e - float(eh), eh=float(eh))


def fuzzify(u: float, bank: MembershipBank = DEFAULT_BANK) -> dict:
    """Grades of all five labels at ``u``, clamped into [-1, 1]."""
    u = min(1.0, max(-1.0, float(u)))
    return {
        label: max(0.0, 1.0 - abs(u - center) / bank.half_width)
        for label, center in zip(LABELS, bank.centers)
    }


def infer(e_grades: dict, de_grades: dict, rules: RuleBase = DEFAULT_RULES) -> float:
    """Min-AND rule firing with center-average defuzzification, in [-1, 1]."""
    numerator = 0.0
    total = 0.0
    for de_label in LABELS:
        de_grade = de_grades[de_label]
        if de_grade == 0.0:
            continue
        for e_label in LABELS:
            weight = min(e_grades[e_label], de_grade)
            if weight == 0.0:
                continue
            numerator += weight * LABEL_CENTERS[rules.output(de_label, e_label)]
            total += weight
    return numerator / total if total > 0.0 else 0.0


def control_step(
    err: ScalarError,
    cfg: ControllerConfig,
    bank: MembershipBank = DEFAULT_BANK,
    rules: RuleBase = DEFAULT_RULES,
) -> float:
    """Raw threshold increment for one controller evaluation."""
    e_grades = fuzzify(err.e * cfg.e_scale, bank)
    de_grades = fuzzify(err.de * cfg.de_scale, bank)
    return cfg.dlambda_scale * cfg.k_p * infer(e_grades, de_grades, rules)


def output_surface(
    grid_n: int,
    bank: MembershipBank = DEFAULT_BANK,
    rules: RuleBase = DEFAULT_RULES,
) -> np.ndarray:
    """Normalized controller output on a grid over [-1, 1]^2.

    Entry ``[i, j]`` is the inferred output at change-in-error ``u[i]`` and
    error ``u[j]`` for ``u = linspace(-1, 1, grid_n)``, mirroring the rule
    table layout.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    u = np.linspace(-1.0, 1.0, grid_n)
    surface = np.empty((grid_n, grid_n), dtype=np.float64)
    for i, de in enumerate(u):
        de_grades = fuzzify(de, bank)
        for j, e in enumerate(u):
            surface[i, j] = infer(fuzzify(e, bank), de_grades, rules)
    return surface


def surface_to_csv(surface: np.ndarray, e_min: float = -1.0, e_max: float = 1.0) -> str:
    """CSV export: a two-line header (names, then e_min/e_max/n) and the
    grid values row-major."""
    surface = np.asarray(surface, dtype=np.float64)
    buf = io.StringIO()
    buf.write("e_min,e_max,n\n")
    buf.write(f"{e_min!r},{e_max!r},{surface.shape[0]}\n")
    for row in surface.tolist():
        buf.write(",".join(repr(v) for v in row))
        buf.write("\n")
    return buf.getvalue()
