"""Quarter-wave-symmetric multilevel switching patterns and waveform synthesis.

A pattern is described entirely by its first quadrant: K switching angles in
[0, pi/2], each tagged with a transition direction (+1 level step up, -1 step
down). The second quadrant mirrors the first about pi/2 and the second
half-period is the negation of the first, so the full period is fixed by the
quadrant data. With s series cells the output level always stays within
[0, s] on the first quadrant, giving a (2s+1)-level waveform overall. The
full period, as constant segments, is built from the quadrant data once per
pattern (``SwitchingPattern.segments``) and shared by synthesis and the
segment-integration route.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import (ShePwmError, apply_rules, check_count, check_plan, check_real,
                     check_reals, check_sequence)

HALF_PI = math.pi / 2

# Default transition signs for the six-angle, two-cell configuration: the
# waveform rises, notches back to zero, climbs to the full level, then steps
# back down to zero before pi/2.
DEFAULT_SIGNS_K6 = (1, -1, 1, 1, -1, -1)
# The bytes one sample holds at peak: synthesize's arrays and the phases that
# waveform_csv reads, about 26 B by tracemalloc at K = 1 and K = 12.
SAMPLE_BYTES = 32
# The bytes one default sign holds at peak: tracemalloc read 8 B per sign of
# the returned tuple, and 16 B with one cell, whose block is built twice.
SIGN_BYTES = 16


class SegmentTable(NamedTuple):
    """One period of a pattern's waveform as constant segments; arrays read-only.

    breakpoints: the 4K+3 phases 0, theta_1..theta_K, pi-theta_K..pi-theta_1,
        pi, pi+theta_1..pi+theta_K, 2*pi-theta_K..2*pi-theta_1, 2*pi.
    volts: the level in volts on each of the 4K+2 segments between them. The
        first K+1 are the first quadrant's levels after 0..K transitions.
    """

    breakpoints: np.ndarray
    volts: np.ndarray


def check_vdc(value, name: str) -> float:
    """value as a float, refused unless finite, > 0 and normal: the DC-voltage rule."""
    value = check_real(value, name)
    if not 0.0 < value < math.inf:
        raise ShePwmError(f"{name} must be finite and > 0, got {value!r}")
    if value < sys.float_info.min:
        raise ShePwmError(
            f"{name} must be at least {sys.float_info.min!r} (not subnormal), got {value!r}"
        )
    return value


def _check_sign(s, name: str) -> int:
    # an array has no one truth value, so it is refused before it is compared
    if not getattr(s, "ndim", 0):
        if s == 1:
            return 1
        if s == -1:
            return -1
    raise ShePwmError(f"transition sign must be +1 or -1, got {s!r}")


def check_signs(signs, name: str = "signs") -> tuple[int, ...]:
    """signs as ints, each refused unless it equals +1 or -1 (1.0 passes, "1" not)."""
    return check_sequence(signs, name, _check_sign)


def check_angles(angles, name: str = "angles") -> tuple[float, ...]:
    """angles as floats, refused unless nondecreasing within [0, pi/2], naming the first."""
    angles = check_sequence(angles, name, check_real)
    prev = 0.0
    for a in angles:
        if not 0.0 <= a <= HALF_PI:
            raise ShePwmError(f"angle {a!r} outside [0, pi/2]")
        if a < prev:
            raise ShePwmError(f"angles not nondecreasing at {a!r} after {prev!r}")
        prev = a
    return angles


@dataclass(frozen=True)
class SwitchingPattern:
    """Ordered switching angles with per-transition signs.

    angles: K angles in radians, nondecreasing, each within [0, pi/2].
    signs: K transition directions, +1 or -1.
    cells: number of series H-bridge cells s (output has 2s+1 levels).
    vdc_per_cell: DC-link voltage of each cell in volts, > 0.

    Equal adjacent angles are allowed; a pair of coincident angles with
    opposite signs is a zero-width pulse that cancels exactly.

    After the field rules the constructor checks the structure: K > 0 signs
    for K angles, K a multiple of the cells, every level within [0, cells],
    and a V_dc whose closed-form amplitudes stay finite.
    """

    angles: tuple[float, ...]
    signs: tuple[int, ...]
    cells: int
    vdc_per_cell: float

    RULES = (("angles", check_angles), ("signs", check_signs), ("cells", check_count),
             ("vdc_per_cell", check_vdc))

    def __post_init__(self):
        apply_rules(self, self.RULES)
        k = len(self.angles)
        if k == 0 or len(self.signs) != k:
            raise ShePwmError(
                f"need matching non-empty angles/signs, got {k} angles "
                f"and {len(self.signs)} signs"
            )
        if k % self.cells != 0:
            raise ShePwmError(
                f"angle count {k} is not a multiple of the cell count {self.cells}"
            )
        for j, level in enumerate(levels(self.signs)):
            if level < 0 or level > self.cells:
                raise ShePwmError(
                    f"level {level} after transition {j + 1} outside [0, {self.cells}]"
                )
        # the fundamental's bound, in the order _odd_volts takes it
        if not math.isfinite(4.0 * self.vdc_per_cell / math.pi * k):
            raise ShePwmError(
                f"vdc_per_cell {self.vdc_per_cell!r} is too large for K = {k} angles: "
                f"4 * vdc_per_cell / pi * K overflows"
            )

    @property
    def n_angles(self) -> int:
        return len(self.angles)

    @property
    def base_volts(self) -> float:
        """Total DC base s * V_dc used for per-unit normalization."""
        return self.cells * self.vdc_per_cell

    @cached_property
    def segments(self) -> SegmentTable:
        """The full-period segment table, built on first use and kept.

        Derived from the fields alone, so it takes no part in equality,
        hashing or pickling; ``dataclasses.replace`` builds a new one.
        """
        th = np.asarray(self.angles, dtype=np.float64)
        pi = np.pi
        breakpoints = np.concatenate(
            ([0.0], th, (pi - th)[::-1], [pi], pi + th, (2 * pi - th)[::-1], [2 * pi])
        )
        prefix = np.array([0, *levels(self.signs)], dtype=np.float64)
        # [0,th1),...,[thK, pi-thK), then the mirror back down to [pi-th1, pi)
        half = np.concatenate((prefix, prefix[:-1][::-1]))
        volts = np.concatenate((half, -half)) * self.vdc_per_cell
        breakpoints.flags.writeable = False
        volts.flags.writeable = False
        return SegmentTable(breakpoints, volts)

    def __getstate__(self):
        # An unpickled array is writable again, so the copy builds its own table.
        state = dict(self.__dict__)
        state.pop("segments", None)
        return state


@dataclass(frozen=True, eq=False)
class WaveformSamples:
    """Uniform samples of one fundamental period of the output voltage.

    Holds an array, so instances compare by identity. The samples must be
    one-dimensional, finite, an even count of at least 4, and odd half-wave
    symmetric.
    """

    samples: np.ndarray

    def __post_init__(self):
        apply_rules(self, [("samples", check_reals)])
        if self.samples.ndim != 1:
            raise ShePwmError(f"waveform samples must be one-dimensional, got shape "
                              f"{self.samples.shape}")
        n = self.samples.size
        if n < 4 or n % 2 != 0:
            raise ShePwmError(f"need an even sample count >= 4, got {n}")
        half = n // 2
        peak = float(np.max(np.abs(self.samples)))
        if not math.isfinite(peak):
            raise ShePwmError("waveform samples must be finite")
        skew = float(np.max(np.abs(self.samples[half:] + self.samples[:half])))
        if skew > 1e-9 * max(peak, 1.0):
            raise ShePwmError(
                "samples violate odd half-wave symmetry "
                f"(max |v[i]+v[i+N/2]| = {skew:g})"
            )

    @property
    def n_samples(self) -> int:
        return self.samples.size

    @property
    def phases(self) -> np.ndarray:
        """Sample phases 2*pi*i/N in radians."""
        n = self.samples.size
        return 2.0 * np.pi * np.arange(n) / n


def levels(signs) -> list[int]:
    """Waveform level (in units of V_dc) after each transition, in order."""
    return list(accumulate(signs))


def default_sign_pattern(cells: int, per_cell: int) -> tuple[int, ...]:
    """Default transition signs for a given cell count and switches-per-level.

    The two-cell, three-per-level case uses DEFAULT_SIGNS_K6. For other odd
    per_cell values each level contributes one net rise plus (per_cell-1)/2
    notch pairs. Even per_cell has no canonical default; pass signs explicitly.
    """
    cells, per_cell = check_count(cells, "cells"), check_count(per_cell, "per_cell")
    if cells == 2 and per_cell == 3:
        return DEFAULT_SIGNS_K6
    if per_cell % 2 == 1:
        check_plan(SIGN_BYTES * cells * per_cell, "the sign pattern", cells=cells,
                   per_cell=per_cell)
        block = (1,) + (-1, 1) * ((per_cell - 1) // 2)
        return block * cells
    raise ShePwmError(
        f"no default sign pattern for even per_cell={per_cell}; supply signs"
    )


def synthesize(pattern: SwitchingPattern, n_samples: int) -> WaveformSamples:
    """Sample one period of the pattern's ideal piecewise-constant waveform.

    Sample i holds the voltage at phase 2*pi*i/N. The first quadrant follows
    the running level sum, the second quadrant is its mirror (v(pi-phi) =
    v(phi)), and the second half-period is the exact negation of the first,
    so v[i + N/2] == -v[i] bit-for-bit.
    """
    if not isinstance(n_samples, (int, np.integer)):  # integers keep the rule below
        check_count(n_samples, "sample count")
    if n_samples < 4 or n_samples % 4 != 0:
        raise ShePwmError(
            f"sample count must be a positive multiple of 4, got {n_samples}"
        )
    check_plan(SAMPLE_BYTES * int(n_samples), "the waveform", n_samples=n_samples)
    quarter = n_samples // 4
    phases = 2.0 * np.pi * np.arange(quarter + 1) / n_samples
    breakpoints, volts = pattern.segments
    # Left-closed segments: at an exact angle coincidence the post-transition
    # level is taken. Indices stay within 0..K, the first quadrant's levels.
    idx = np.searchsorted(breakpoints[1 : pattern.n_angles + 1], phases, side="right")
    quarter_v = volts[idx]
    first_half = np.concatenate((quarter_v[:quarter], quarter_v[1:][::-1]))
    return WaveformSamples(samples=np.concatenate((first_half, -first_half)))


def waveform_csv(samples: WaveformSamples):
    """CSV text `phase_rad,voltage_v`, one line per sample."""
    yield "phase_rad,voltage_v\n"
    for phi, v in zip(samples.phases, samples.samples):
        yield f"{float(phi)!r},{float(v)!r}\n"
