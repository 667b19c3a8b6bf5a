"""Harmonic magnitudes and THD of multilevel switching patterns.

Three independent routes to the same spectrum:

* ``analytic_harmonic`` evaluates the closed form for quarter-wave-symmetric
  waveforms: odd harmonics are (4*V_dc)/(n*pi) * sum_i sign_i*cos(n*theta_i),
  even harmonics are exactly zero. This is the path the solver iterates on.
* ``segment_integral_harmonic`` integrates v(phi)*sin(n*phi) in closed form
  over every constant segment of the full period. It never uses quarter-wave
  shortcuts, which makes it a genuinely independent cross-check.
* ``dft_spectrum`` takes the DFT of a sampled waveform; used for exporting
  spectrum data and as a third consistency route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShePwmError, ZeroFundamental
from .pattern import SwitchingPattern, WaveformSamples, levels

DEFAULT_MAX_ORDER = 49


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Harmonic magnitudes |V_n| indexed by order, plus the per-unit base."""

    magnitudes: dict[int, float]
    max_order: int
    base_volts: float

    def __post_init__(self):
        if self.max_order < 1:
            raise ShePwmError(f"max_order must be >= 1, got {self.max_order}")
        missing = [n for n in range(1, self.max_order + 1) if n not in self.magnitudes]
        if missing:
            raise ShePwmError(f"spectrum missing orders {missing[:5]}...")
        bad = [n for n, m in self.magnitudes.items() if m < 0 or not math.isfinite(m)]
        if bad:
            raise ShePwmError(f"negative or non-finite magnitudes at orders {bad[:5]}")

    @property
    def fundamental(self) -> float:
        return self.magnitudes[1]


def analytic_harmonic(pattern: SwitchingPattern, n: int) -> float:
    """Signed n-th harmonic amplitude in volts from the closed form.

    Even orders return exactly 0.0 (forced by quarter-wave symmetry; the
    odd-order sum below does not apply to them).
    """
    if n < 1:
        raise ShePwmError(f"harmonic order must be >= 1, got {n}")
    if n % 2 == 0:
        return 0.0
    acc = 0.0
    for theta, sg in zip(pattern.angles, pattern.signs):
        acc += sg * math.cos(n * theta)
    return (4.0 * pattern.vdc_per_cell) / (n * math.pi) * acc


def segment_breakpoints(pattern: SwitchingPattern) -> np.ndarray:
    """Phase breakpoints of all constant segments across the full period."""
    th = np.asarray(pattern.angles, dtype=np.float64)
    pi = np.pi
    return np.concatenate(
        (
            [0.0],
            th,
            (pi - th)[::-1],
            [pi],
            pi + th,
            (2 * pi - th)[::-1],
            [2 * pi],
        )
    )


def _segment_levels(pattern: SwitchingPattern) -> np.ndarray:
    """Constant level (in volts) on each interval between breakpoints."""
    prefix = np.array([0, *levels(pattern.signs)], dtype=np.float64)
    # levels on [0,th1),...,[thK, pi-thK) then the mirror back down to [pi-th1, pi)
    half = np.concatenate((prefix, prefix[:-1][::-1]))
    return np.concatenate((half, -half)) * pattern.vdc_per_cell


def segment_integral_coefficients(
    pattern: SwitchingPattern, n: int
) -> tuple[float, float]:
    """Exact Fourier coefficients (a_n, b_n) by per-segment integration.

    a_n = (1/pi) * integral of v(phi)*cos(n*phi) over [0, 2*pi)
    b_n = (1/pi) * integral of v(phi)*sin(n*phi) over [0, 2*pi)

    Both integrals are sums of closed forms over the constant segments of the
    full-period waveform; zero-width segments contribute nothing.
    """
    if n < 1:
        raise ShePwmError(f"harmonic order must be >= 1, got {n}")
    bp = segment_breakpoints(pattern)
    levels = _segment_levels(pattern)
    lo, hi = bp[:-1], bp[1:]
    b_n = float(np.sum(levels * (np.cos(n * lo) - np.cos(n * hi))) / (n * math.pi))
    a_n = float(np.sum(levels * (np.sin(n * hi) - np.sin(n * lo))) / (n * math.pi))
    return a_n, b_n


def segment_integral_harmonic(pattern: SwitchingPattern, n: int) -> float:
    """Signed n-th harmonic amplitude via full-period segment integration.

    Verifies on the way that the cosine coefficient vanishes (it must, for
    any valid pattern: the waveform is odd about phase 0 by construction).
    """
    a_n, b_n = segment_integral_coefficients(pattern, n)
    bound = 1e-9 * pattern.cells * pattern.vdc_per_cell
    if abs(a_n) > bound:
        raise ShePwmError(
            f"cosine coefficient a_{n} = {a_n:g} exceeds rounding bound {bound:g}"
        )
    return b_n


def analytic_spectrum(
    pattern: SwitchingPattern, max_order: int = DEFAULT_MAX_ORDER
) -> HarmonicSpectrum:
    """Magnitude spectrum from the closed form, orders 1..max_order."""
    mags = {n: abs(analytic_harmonic(pattern, n)) for n in range(1, max_order + 1)}
    return HarmonicSpectrum(
        magnitudes=mags, max_order=max_order, base_volts=pattern.base_volts
    )


def dft_spectrum(
    samples: WaveformSamples,
    max_order: int,
    base_volts: float | None = None,
) -> HarmonicSpectrum:
    """Magnitude spectrum of a sampled waveform via the DFT.

    Bin n carries |(2/N) * sum_i v[i] * exp(-2j*pi*n*i/N)|. When base_volts
    is not given, the waveform's peak value is used as the per-unit base
    (exact for patterns that reach the full level).
    """
    n_samp = samples.n_samples
    if max_order >= n_samp // 2:
        raise ShePwmError(
            f"max_order {max_order} needs at least {2 * (max_order + 1)} samples, "
            f"got {n_samp}"
        )
    bins = np.fft.rfft(samples.samples)
    mags = (2.0 / n_samp) * np.abs(bins[1 : max_order + 1])
    if base_volts is None:
        base_volts = float(np.max(np.abs(samples.samples)))
    return HarmonicSpectrum(
        magnitudes={n: float(mags[n - 1]) for n in range(1, max_order + 1)},
        max_order=max_order,
        base_volts=float(base_volts),
    )


def thd(spectrum: HarmonicSpectrum) -> float:
    """Total harmonic distortion sqrt(sum_{n=2..max} V_n^2) / |V_1| as a ratio."""
    v1 = spectrum.fundamental
    if v1 <= 1e-12 * spectrum.base_volts:
        raise ZeroFundamental(
            f"fundamental {v1:g} V is below 1e-12 of base {spectrum.base_volts:g} V"
        )
    acc = 0.0
    for n in range(2, spectrum.max_order + 1):
        acc += spectrum.magnitudes[n] ** 2
    return math.sqrt(acc) / v1


def pattern_thd(
    pattern: SwitchingPattern, max_order: int = DEFAULT_MAX_ORDER
) -> float:
    """THD of a pattern's analytic spectrum (solver-internal convenience)."""
    return thd(analytic_spectrum(pattern, max_order))


def spectrum_csv(spectrum: HarmonicSpectrum):
    """CSV text `order,magnitude_v,magnitude_pct_of_fundamental`, line by line."""
    v1 = spectrum.fundamental
    yield "order,magnitude_v,magnitude_pct_of_fundamental\n"
    for n in range(1, spectrum.max_order + 1):
        m = spectrum.magnitudes[n]
        pct = 100.0 * m / v1 if v1 > 0 else float("inf")
        yield f"{n},{m!r},{pct!r}\n"
