"""Speckle-reduction toolkit.

Homomorphic wavelet-shrinkage despeckling whose threshold is calibrated
by a fuzzy PI controller against a clean reference, plus multiplicative
speckle simulation, median/Lee baseline filters, and a quality-metric
suite (NMV/NV/NSD, MSD, ENL, DR, Pratt FOM).

The package namespace re-exports the documented API; everything else is
imported from its submodule (``despeckle.wavelet``, ``despeckle.fuzzy``, ...).
"""

from .fuzzy import scalarize
from .image import read_pgm, subtract, write_pgm
from .metrics import MetricsReport, enl_blocked, full_report, msd
from .pipeline import (
    CalibrationResult,
    PipelineConfig,
    calibrate,
    despeckle,
    initial_threshold,
    trace_to_csv,
)
from .speckle import SpeckleSpec, apply_speckle

__version__ = "0.1.0"

__all__ = [
    "SpeckleSpec",
    "apply_speckle",
    "calibrate",
    "CalibrationResult",
    "trace_to_csv",
    "despeckle",
    "full_report",
    "MetricsReport",
    "PipelineConfig",
    "initial_threshold",
    "scalarize",
    "subtract",
    "msd",
    "enl_blocked",
    "read_pgm",
    "write_pgm",
    "__version__",
]
