"""Synthetic multiplicative speckle with seeded determinism.

A speckle field S is an i.i.d. mean-one random field multiplied into a
clean image: rayleigh (single-look amplitude), exponential (single-look
intensity), or gamma with shape L (L-look intensity, variance 1/L).

Sampling is by inverse-CDF transforms of PCG64 uniforms, one spawned
substream per image row, so a field is a pure function of
(rows, cols, spec) no matter how rows are produced. Row r's generator
state equals ``PCG64(SeedSequence(seed).spawn(rows)[r])``, but
:func:`_row_states` derives every row's state in one vectorised pass of
numpy's ``SeedSequence`` mixing (O'Neill's ``seed_seq`` scheme from "PCG:
A Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation", 2014) instead of spawning a child and building
a generator per row. Under NEP 19 (numpy.org/neps/nep-0019-rng-policy.html)
the ``SeedSequence`` and ``PCG64`` streams are stable, and a tier-1 test
compares the derived states with numpy's own.

One generator is re-seeded per row and draws the row's uniforms, L per
pixel for gamma and one for the other kinds, into a strip-sized buffer;
the inverse-CDF transform then runs once per cache-sized strip of rows,
its last operation writing into the output, with the same elementwise
operations in the same order as a per-row transform, so every byte
matches.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _strips
from .image import _is_integer, as_image

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
        # no hashing of other types
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ValueError(f"unknown speckle kind {self.kind!r}; supported: {KINDS}")
        if not _is_integer(self.looks) or self.looks < 1:
            raise ValueError(f"looks must be a positive integer, got {self.looks!r}")
        if not _is_integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        # numpy integers are stored as Python ints, so reprs and JSON stay plain
        object.__setattr__(self, "looks", int(self.looks))
        object.__setattr__(self, "seed", int(self.seed))


def _row_states(seed: int, rows: int) -> list:
    """``(state, inc)`` of ``PCG64(child)`` for each ``child`` of
    ``SeedSequence(seed).spawn(rows)``, derived for all rows in one pass.

    A child's entropy is the seed's 32-bit words, zero-padded to the
    4-word pool, then its spawn key r. Hashing the seed words into the
    pool and cross-mixing it is the same for every row; only the last
    step, which mixes r into each pool word, differs, so it runs in uint32
    arithmetic over all r at once. Scalars stay masked Python ints, so no
    numpy overflow warning fires.
    """
    mask = (1 << 32) - 1
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * 0x931E8875) & mask
        value = (value * hash_const) & mask
        return value ^ (value >> 16)

    def mix(x, y):
        result = (((0xCA01F9DD * x) & mask) - ((0x4973F715 * y) & mask)) & mask
        return result ^ (result >> 16)

    pool = [hashmix(w) for w in (seed & mask, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # the hash constant advances once per pool word, so r is hashed afresh
    # for each of them
    r = np.arange(rows, dtype=np.uint32)
    pool = [mix(word, hashmix(r)) for word in pool]

    # generate_state(4, uint64): eight 32-bit words, paired little-endian
    hash_const = 0x8B51F9DD
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & mask
        value = value * hash_const
        halves.append((value ^ (value >> 16)).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (
        (halves[i] | (halves[i + 1] << 32)).tolist() for i in range(0, 8, 2)
    )

    # PCG64's seeding: inc = 2*initseq + 1, then state = inc, add
    # initstate, and one more LCG step
    mask128 = (1 << 128) - 1
    multiplier = 0x2360ED051FC65DA44385DF649FCCF645
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & mask128
        state = ((inc + ((s_hi << 64) | s_lo)) * multiplier + inc) & mask128
        states.append((state, inc))
    return states


def generate_speckle(rows: int, cols: int, spec: SpeckleSpec) -> np.ndarray:
    """Mean-one i.i.d. speckle field, deterministic given (rows, cols, spec)."""
    for name, value in (("rows", rows), ("cols", cols)):
        if not _is_integer(value) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    rows, cols = int(rows), int(cols)
    field = np.empty((rows, cols), dtype=np.float64)
    bitgen = np.random.PCG64()
    gen = np.random.Generator(bitgen)
    states = _row_states(spec.seed, rows)
    looks = spec.looks if spec.kind == "gamma" else 1
    strips = _strips._bounds(rows, 8 * looks * cols)
    # Every kind draws its L uniforms per pixel (L = 1 but for gamma) into
    # this strip buffer. An array smaller than two strips is one strip, so
    # at 256x256 gamma L=3 it is 1.5 MiB, three times the field. Smaller
    # buffers were measured slower: strips capped at 1 MiB took 640 minor
    # faults per 256x256 `calibrate` call (0 with this buffer) and 8.1-8.3
    # instead of 6.6 ms per call, and one 128 KiB strip size for every loop
    # took 576 faults and raised the `calibrate` op_p50 from 5.50 to 6.76 ms
    # for 0.15 MB less peak RSS. A likely cause, not instrumented, is glibc's
    # dynamic mmap threshold: once this buffer is freed, later 0.5 MiB arrays
    # come from the heap instead of fresh mappings.
    buf = np.empty((max(s.stop - s.start for s in strips), looks, cols))
    for strip in strips:
        u = buf[: strip.stop - strip.start]
        for i, (state, inc) in enumerate(states[strip]):
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            gen.random(out=u[i])
        np.negative(u, out=u)
        np.log1p(u, out=u)
        out = field[strip]
        if spec.kind == "rayleigh":
            np.multiply(u[:, 0], -2.0, out=out)
            np.sqrt(out, out=out)
            np.multiply(out, _RAYLEIGH_SCALE, out=out)
        elif spec.kind == "exponential":
            np.negative(u[:, 0], out=out)
        else:  # gamma(L, 1/L) as the mean of L unit exponentials
            # negating the sum equals summing the negated terms, bit for bit
            np.sum(u, axis=1, out=out)
            np.negative(out, out=out)
            np.divide(out, looks, out=out)
    return field


def apply_speckle(img, spec: SpeckleSpec) -> np.ndarray:
    """Multiply a non-negative image by a freshly generated speckle field."""
    arr = as_image(img)
    if np.any(arr < 0.0):
        raise ValueError("apply_speckle requires non-negative pixels")
    field = generate_speckle(arr.shape[0], arr.shape[1], spec)
    return np.multiply(arr, field, out=field)
