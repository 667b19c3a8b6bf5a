"""Quarter-wave-symmetric multilevel switching patterns and waveform synthesis.

A pattern is described entirely by its first quadrant: K switching angles in
[0, pi/2], each tagged with a transition direction (+1 level step up, -1 step
down). The second quadrant mirrors the first about pi/2 and the second
half-period is the negation of the first, so the full period is fixed by the
quadrant data. With s series cells the output level always stays within
[0, s] on the first quadrant, giving a (2s+1)-level waveform overall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ShePwmError

HALF_PI = math.pi / 2

# Default transition signs for the six-angle, two-cell configuration: the
# waveform rises, notches back to zero, climbs to the full level, then steps
# back down to zero before pi/2.
DEFAULT_SIGNS_K6 = (1, -1, 1, 1, -1, -1)


@dataclass(frozen=True)
class SwitchingPattern:
    """Ordered switching angles with per-transition signs.

    angles: K angles in radians, nondecreasing, each within [0, pi/2].
    signs: K transition directions, +1 or -1.
    cells: number of series H-bridge cells s (output has 2s+1 levels).
    vdc_per_cell: DC-link voltage of each cell in volts, > 0.

    Equal adjacent angles are allowed; a pair of coincident angles with
    opposite signs is a zero-width pulse that cancels exactly.
    """

    angles: tuple[float, ...]
    signs: tuple[int, ...]
    cells: int
    vdc_per_cell: float

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        object.__setattr__(self, "signs", tuple(int(s) for s in self.signs))
        validate(self)

    @property
    def n_angles(self) -> int:
        return len(self.angles)

    @property
    def base_volts(self) -> float:
        """Total DC base s * V_dc used for per-unit normalization."""
        return self.cells * self.vdc_per_cell


@dataclass(frozen=True, eq=False)
class WaveformSamples:
    """Uniform samples of one fundamental period of the output voltage.

    Holds an array, so instances compare by identity.
    """

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "samples", np.asarray(self.samples, dtype=np.float64)
        )
        n = self.samples.size
        if n < 4 or n % 2 != 0:
            raise ShePwmError(f"need an even sample count >= 4, got {n}")
        half = n // 2
        peak = float(np.max(np.abs(self.samples)))
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


def validate(pattern: SwitchingPattern) -> SwitchingPattern:
    """Check all structural invariants; return the pattern unchanged if valid.

    Raises ShePwmError naming the first broken invariant: cell count, DC
    voltage, angle/sign counts, a sign, an angle's range or order, or a level.
    """
    if not isinstance(pattern.cells, int) or pattern.cells < 1:
        raise ShePwmError(f"cells must be a positive integer, got {pattern.cells!r}")
    if not (math.isfinite(pattern.vdc_per_cell) and pattern.vdc_per_cell > 0):
        raise ShePwmError(
            f"vdc_per_cell must be finite and > 0, got {pattern.vdc_per_cell!r}"
        )
    k = len(pattern.angles)
    if k == 0 or len(pattern.signs) != k:
        raise ShePwmError(
            f"need matching non-empty angles/signs, got {k} angles "
            f"and {len(pattern.signs)} signs"
        )
    for sg in pattern.signs:
        if sg not in (1, -1):
            raise ShePwmError(f"transition sign must be +1 or -1, got {sg!r}")
    if k % pattern.cells != 0:
        raise ShePwmError(
            f"angle count {k} is not a multiple of the cell count {pattern.cells}"
        )
    prev = 0.0
    for a in pattern.angles:
        if not (math.isfinite(a) and 0.0 <= a <= HALF_PI):
            raise ShePwmError(f"angle {a!r} outside [0, pi/2]")
        if a < prev:
            raise ShePwmError(f"angles not nondecreasing at {a!r} after {prev!r}")
        prev = a
    for j, level in enumerate(levels(pattern.signs)):
        if level < 0 or level > pattern.cells:
            raise ShePwmError(
                f"level {level} after transition {j + 1} outside [0, {pattern.cells}]"
            )
    return pattern


def levels(signs) -> list[int]:
    """Waveform level (in units of V_dc) after each transition, in order."""
    return list(accumulate(signs))


def level_trajectory(pattern: SwitchingPattern) -> list[tuple[float, int]]:
    """(angle, level) after each first-quadrant transition, in order."""
    return list(zip(pattern.angles, levels(pattern.signs)))


def default_sign_pattern(cells: int, per_cell: int) -> tuple[int, ...]:
    """Default transition signs for a given cell count and switches-per-level.

    The two-cell, three-per-level case uses DEFAULT_SIGNS_K6. For other odd
    per_cell values each level contributes one net rise plus (per_cell-1)/2
    notch pairs. Even per_cell has no canonical default; pass signs explicitly.
    """
    if cells == 2 and per_cell == 3:
        return DEFAULT_SIGNS_K6
    if per_cell % 2 == 1:
        block = (1,) + (-1, 1) * ((per_cell - 1) // 2)
        return block * cells
    raise ShePwmError(
        f"no default sign pattern for even per_cell={per_cell}; supply signs"
    )


def _quarter_levels(pattern: SwitchingPattern, phases: np.ndarray) -> np.ndarray:
    """Waveform level (integer multiples of V_dc) at first-quadrant phases.

    At an exact angle coincidence the post-transition level is taken
    (left-closed intervals).
    """
    angles = np.asarray(pattern.angles, dtype=np.float64)
    prefix = np.array([0, *levels(pattern.signs)])
    idx = np.searchsorted(angles, phases, side="right")
    return prefix[idx]


def synthesize(pattern: SwitchingPattern, n_samples: int) -> WaveformSamples:
    """Sample one period of the pattern's ideal piecewise-constant waveform.

    Sample i holds the voltage at phase 2*pi*i/N. The first quadrant follows
    the running level sum, the second quadrant is its mirror (v(pi-phi) =
    v(phi)), and the second half-period is the exact negation of the first,
    so v[i + N/2] == -v[i] bit-for-bit.
    """
    if n_samples < 4 or n_samples % 4 != 0:
        raise ShePwmError(
            f"sample count must be a positive multiple of 4, got {n_samples}"
        )
    quarter = n_samples // 4
    phases = 2.0 * np.pi * np.arange(quarter + 1) / n_samples
    levels = _quarter_levels(pattern, phases).astype(np.float64)
    first_half = np.concatenate((levels[:quarter], levels[1:][::-1]))
    samples = np.concatenate((first_half, -first_half)) * pattern.vdc_per_cell
    return WaveformSamples(samples=samples)


def waveform_csv(samples: WaveformSamples):
    """CSV text `phase_rad,voltage_v`, one line per sample."""
    yield "phase_rad,voltage_v\n"
    for phi, v in zip(samples.phases, samples.samples):
        yield f"{float(phi)!r},{float(v)!r}\n"
