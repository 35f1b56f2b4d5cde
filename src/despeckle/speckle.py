"""Synthetic multiplicative speckle with seeded determinism.

A speckle field S is an i.i.d. mean-one random field multiplied into a
clean image: rayleigh (single-look amplitude), exponential (single-look
intensity), or gamma with shape L (L-look intensity, variance 1/L).

Sampling is by inverse-CDF transforms of PCG64 uniforms, one spawned
substream per image row, so a field is a pure function of
(rows, cols, spec) no matter how rows are produced.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .image import as_image

__all__ = ["KINDS", "SpeckleSpec", "generate_speckle", "apply_speckle"]

KINDS = ("rayleigh", "exponential", "gamma")

# Rayleigh scale giving a unit mean.
_RAYLEIGH_SCALE = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class SpeckleSpec:
    """Speckle distribution: kind, look count (gamma only), and RNG seed."""

    kind: str = "gamma"
    looks: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown speckle kind {self.kind!r}; supported: {KINDS}")
        if not _is_integer(self.looks) or self.looks < 1:
            raise ValueError(f"looks must be a positive integer, got {self.looks!r}")
        if not _is_integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        # numpy integers are stored as Python ints, so reprs and JSON stay plain
        object.__setattr__(self, "looks", int(self.looks))
        object.__setattr__(self, "seed", int(self.seed))


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def generate_speckle(rows: int, cols: int, spec: SpeckleSpec) -> np.ndarray:
    """Mean-one i.i.d. speckle field, deterministic given (rows, cols, spec)."""
    if rows < 1 or cols < 1:
        raise ValueError(f"field dimensions must be positive, got {rows}x{cols}")
    field = np.empty((rows, cols), dtype=np.float64)
    children = np.random.SeedSequence(spec.seed).spawn(rows)
    for r, child in enumerate(children):
        gen = np.random.Generator(np.random.PCG64(child))
        if spec.kind == "rayleigh":
            u = gen.random(cols)
            field[r] = _RAYLEIGH_SCALE * np.sqrt(-2.0 * np.log1p(-u))
        elif spec.kind == "exponential":
            field[r] = -np.log1p(-gen.random(cols))
        else:  # gamma(L, 1/L) as the mean of L unit exponentials
            u = gen.random((spec.looks, cols))
            field[r] = -np.log1p(-u).sum(axis=0) / spec.looks
    return field


def apply_speckle(img, spec: SpeckleSpec) -> np.ndarray:
    """Multiply a non-negative image by a freshly generated speckle field."""
    arr = as_image(img)
    if np.any(arr < 0.0):
        raise ValueError("apply_speckle requires non-negative pixels")
    field = generate_speckle(arr.shape[0], arr.shape[1], spec)
    return np.multiply(arr, field, out=field)
