"""Harmonic magnitudes and THD of multilevel switching patterns.

Three independent routes to the same spectrum:

* ``analytic_harmonic`` evaluates the closed form for quarter-wave-symmetric
  waveforms: odd harmonics are (4*V_dc)/(n*pi) * sum_i sign_i*cos(n*theta_i),
  even harmonics are exactly zero. The sum is ``odd_harmonic_sums``, the
  library's one copy of it, which the solver's cost runs on too.
* ``segment_integral_harmonic`` integrates v(phi)*sin(n*phi) in closed form
  over every constant segment of the full period. The segments come from the
  pattern's segment table, built once per pattern; each order takes one
  cosine and one sine per breakpoint. It never uses quarter-wave shortcuts or
  the closed form's sum, which makes it a genuinely independent cross-check.
* ``dft_spectrum`` takes the DFT of a sampled waveform; used for exporting
  spectrum data and as a third consistency route.

``analytic_harmonic`` keeps nothing between calls. The segment route
answers from an order table: orders 1..M of one pattern, built in one
vectorized pass, with the bits the per-order arithmetic gives. Asked for
order n, it builds the table with M = max(n, DEFAULT_MAX_ORDER) for a new
pattern and M = max(n, 2 * M) when the same pattern asks past its M, so a
loop over orders 1..n builds O(log n) tables. It keeps the table of the last
pattern asked, matched by identity (equal patterns may differ in the sign of
a zero angle), in one module-level slot. The slot is read and replaced as
one tuple, so a caller always indexes a table built for the pattern it asked
about, whatever other threads do. The memo serves only per-order segment
callers (perfbench's timed ``route_batch``) until the benchmark takes one
spectrum per pattern. Every closed-form call plans its peak by
``plan_spectrum`` (in ``_odd_volts``), and every order table its blocks by
``SEGMENT_BYTES``, before it builds anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ShePwmError, ZeroFundamental, apply_rules, check_count,
                     check_nonnegative, check_plan, check_real, check_sequence)
from .pattern import SwitchingPattern, WaveformSamples

DEFAULT_MAX_ORDER = 49


def check_magnitudes(values, name: str) -> tuple[float, ...]:
    """values as a tuple of floats |V_n|, n = 0..M with M >= 1, each finite and >= 0."""
    values = check_sequence(values, name, check_real)
    if len(values) < 2:
        raise ShePwmError(f"{name} must hold orders 0..M with M >= 1, got {values!r}")
    bad = [n for n, m in enumerate(values) if not 0.0 <= m < math.inf]
    if bad:
        raise ShePwmError(f"negative or non-finite magnitudes at orders {bad[:5]}")
    return values


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Magnitudes |V_n| at magnitudes[n], n = 0..max_order, and the per-unit base >= 0."""

    magnitudes: tuple[float, ...]
    base_volts: float

    RULES = (("magnitudes", check_magnitudes), ("base_volts", check_nonnegative))

    def __post_init__(self):
        apply_rules(self, self.RULES)

    @property
    def max_order(self) -> int:
        return len(self.magnitudes) - 1

    @property
    def fundamental(self) -> float:
        return self.magnitudes[1]


def signed_cosines(angles: np.ndarray, signs) -> np.ndarray:
    """signs[i]*cos(theta_i) over a (K, B) block of angles, written in place.

    Each column holds one pattern's angles in ascending order, theta_i the
    i-th least, since each transition's sign belongs to its place in that
    order; nothing here sorts. signs: K values, as a sequence or as a (K, 1)
    float64 column. The block takes one np.cos over its B * K angles and is
    returned holding the signed cosines.
    """
    np.cos(angles, out=angles)
    angles *= np.asarray(signs, dtype=np.float64).reshape(-1, 1)
    return angles


def odd_harmonic_sums(
    signed_cos: np.ndarray, max_order: int, columns: np.ndarray | None = None
) -> np.ndarray:
    """(n_odd, B) sums sum_i signs[i]*cos(n*theta_i), n = 1, 3, ..., max_order.

    From the (K, B) block of ``signed_cosines``, by the Chebyshev step
    cos((n+2)t) = (4c^2 - 2)*cos(nt) - cos((n-2)t), cos(-t) = cos(t), into one
    (n_odd, K, B) stack whose K rows ``add_rows`` adds in turn, so a column's
    bits do not depend on its batch. The fundamental alone (max_order 1)
    needs no recurrence and adds the K rows of the block directly, so the
    block must be C-ordered, as every caller's is. columns,
    when given, picks the block's columns to sum (B = len(columns)); they
    are gathered straight into the stack. Against math.cos (K <= 12; angles
    near 0 or pi/2 are the worst), a sum was off by at most 8e-13 up to
    order 49 and 2.2e-10 up to order 999, 3e-13 * V_dc in
    analytic_harmonic's volts (the tests allow 1e-12 * V_dc).
    """
    if max_order == 1 and columns is None:
        # the fundamental alone: no recurrence, the block's rows in order
        layers = signed_cos[:, None]
    else:
        k = signed_cos.shape[0]
        rows = signed_cos.shape[1] if columns is None else len(columns)
        stack = np.empty(((max_order + 1) // 2, k, rows))
        c = stack[0]
        if columns is None:
            c[...] = signed_cos
        else:
            signed_cos.take(columns, axis=1, out=c, mode="clip")
        two_cos2 = np.multiply(c, 4.0)
        two_cos2 *= c
        two_cos2 -= 2.0
        terms = list(stack)
        for prev, cur, nxt in zip(terms[:1] + terms, terms, terms[1:]):
            np.multiply(two_cos2, cur, out=nxt)
            nxt -= prev
        layers = stack.swapaxes(0, 1)
    return add_rows(layers)


def add_rows(layers: np.ndarray) -> np.ndarray:
    """layers[0] + layers[1] + ... in row order, each sum's bits its own.

    layers' last axis holds the columns, with the least stride. Two or more
    columns take one np.add.reduce: the columns are its inner loop, so each
    adds its rows in turn. It starts from -0.0, add's exact identity
    (numpy's default +0.0 makes a sum of -0.0 rows +0.0). A single column
    keeps the row loop: numpy drops its length-1 axis and would reduce along
    the rows, pairwise from 8 of them.
    """
    if layers.shape[-1] > 1:
        return np.add.reduce(layers, axis=0, initial=-0.0)
    sums = layers[0].copy()
    for layer in layers[1:]:
        sums += layer
    return sums


# tracemalloc read 8 B per angle and layer of odd_harmonic_sums' stack (7.9-9.3 B
# in a solve's kernel) and 84 B per order of analytic_spectrum's magnitudes.
LAYER_BYTES = 10
MAGNITUDE_BYTES = 88


def plan_spectrum(k: int, max_order: int) -> None:
    """Refuse a spectrum of k angles through max_order planned past the budget."""
    check_plan(k * LAYER_BYTES * ((max_order + 1) // 2) + MAGNITUDE_BYTES * (max_order + 1),
               "the spectrum", K=k, max_order=max_order)


def _odd_volts(pattern: SwitchingPattern, max_order: int) -> np.ndarray:
    """Signed amplitudes in volts of orders 1, 3, ..., max_order, planned first."""
    plan_spectrum(len(pattern.angles), max_order)
    block = signed_cosines(np.array(pattern.angles)[:, None], pattern.signs)
    sums = odd_harmonic_sums(block, max_order)[:, 0]
    n = np.arange(1, max_order + 1, 2)
    return (4.0 * pattern.vdc_per_cell) / (n * np.pi) * sums


def analytic_harmonic(pattern: SwitchingPattern, n: int) -> float:
    """Signed n-th harmonic amplitude in volts from the closed form.

    Even orders return exactly 0.0 (forced by quarter-wave symmetry; the
    odd-order sum does not apply to them). An odd order is the last entry
    of ``_odd_volts(pattern, n)``. One call costs one cosine per angle and
    the recurrence through n, (n - 1) / 2 steps over the K angles (at
    K = 12 on a 2-core Xeon, about 30 us at n = 1 and 0.6 ms at n = 999),
    and keeps nothing; a caller that wants many orders of one pattern should
    take ``analytic_spectrum`` once.
    """
    n = check_count(n, "harmonic order")
    if n % 2 == 0:
        return 0.0
    return float(_odd_volts(pattern, n)[-1])


def _segment_coefficients(
    pattern: SwitchingPattern, max_order: int
) -> tuple[list[float], list[float]]:
    """(a_n, b_n) of orders 1..max_order, as two lists, in one pass.

    Row n-1 of each (max_order, 4K+3) block does what one order alone would:
    the same products n*breakpoint, the same cosines and sines, each row
    reduced on its own in the same order, divided by the same n*pi.
    """
    breakpoints, volts = pattern.segments
    orders = np.arange(1, max_order + 1)
    phase = np.multiply.outer(orders, breakpoints)
    c = np.cos(phase)
    s = np.sin(phase)
    scale = orders * math.pi
    b = np.add.reduce(volts * (c[:, :-1] - c[:, 1:]), axis=1) / scale
    a = np.add.reduce(volts * (s[:, 1:] - s[:, :-1]), axis=1) / scale
    return a.tolist(), b.tolist()


# tracemalloc read 40 B per order and breakpoint of _segment_coefficients'
# blocks plus 8 B per order, 41.1 B per order and breakpoint at K = 1.
SEGMENT_BYTES = 48
# (pattern, M, _segment_coefficients(pattern, M)) of the last pattern asked
_segment_slot = (None, 0, None)


def _segment_table(pattern: SwitchingPattern, n: int) -> tuple[list[float], list[float]]:
    """(a_n, b_n) of orders 1..M >= n of pattern, from the slot or a new pass."""
    global _segment_slot
    held, max_order, table = _segment_slot
    if held is not pattern or n > max_order:
        grown = 2 * max_order if held is pattern else 0
        max_order = max(n, DEFAULT_MAX_ORDER, grown)
        check_plan(max_order * len(pattern.segments.breakpoints) * SEGMENT_BYTES,
                   "the segment table", K=len(pattern.angles), max_order=max_order)
        table = _segment_coefficients(pattern, max_order)
        _segment_slot = (pattern, max_order, table)
    return table


def segment_integral_harmonic(pattern: SwitchingPattern, n: int) -> float:
    """Signed n-th harmonic amplitude b_n via full-period segment integration.

    a_n = (1/pi) * integral of v(phi)*cos(n*phi) over [0, 2*pi)
    b_n = (1/pi) * integral of v(phi)*sin(n*phi) over [0, 2*pi)

    Both integrals are sums of closed forms over the constant segments of the
    full-period waveform; zero-width segments contribute nothing. A segment
    [lo, hi) takes cos/sin at lo and at hi, and each inner breakpoint is the
    hi of one segment and the lo of the next. The values are read from the
    pattern's order table (module docstring), so a lone call at a high order
    builds the whole table: at n = 999, 999 rows, about 4 ms at K=12, where
    that order alone took 15 us. Verifies on the way that a_n vanishes (it
    must: a valid pattern's waveform is odd about phase 0 by construction).
    """
    n = check_count(n, "harmonic order")
    a, b = _segment_table(pattern, n)
    a_n = a[n - 1]
    bound = 1e-9 * pattern.cells * pattern.vdc_per_cell
    if abs(a_n) > bound:
        raise ShePwmError(
            f"cosine coefficient a_{n} = {a_n:g} exceeds rounding bound {bound:g}"
        )
    return b[n - 1]


def analytic_spectrum(
    pattern: SwitchingPattern, max_order: int = DEFAULT_MAX_ORDER
) -> HarmonicSpectrum:
    """Magnitude spectrum from the closed form, orders 0..max_order."""
    max_order = check_count(max_order, "max_order")
    odd = np.abs(_odd_volts(pattern, max_order))  # the plan comes before any array
    mags = np.zeros(max_order + 1)
    mags[1::2] = odd
    return HarmonicSpectrum(mags.tolist(), pattern.base_volts)


def dft_spectrum(
    samples: WaveformSamples,
    max_order: int,
    base_volts: float | None = None,
) -> HarmonicSpectrum:
    """Magnitude spectrum of a sampled waveform via the DFT.

    Order n carries |(2/N) * sum_i v[i] * exp(-2j*pi*n*i/N)|, order 0 half
    that (the mean). When base_volts is not given, the waveform's peak value
    is used as the per-unit base (exact for patterns that reach the full level).
    """
    max_order = check_count(max_order, "max_order")
    n_samp = samples.n_samples
    if max_order >= n_samp // 2:
        raise ShePwmError(
            f"max_order {max_order} needs at least {2 * (max_order + 1)} samples, "
            f"got {n_samp}"
        )
    bins = np.fft.rfft(samples.samples)
    mags = (2.0 / n_samp) * np.abs(bins[: max_order + 1])
    mags[0] *= 0.5
    if base_volts is None:
        base_volts = np.max(np.abs(samples.samples))
    return HarmonicSpectrum(mags.tolist(), base_volts)


def thd(spectrum: HarmonicSpectrum) -> float:
    """Total harmonic distortion sqrt(sum_{n=2..max} V_n^2) / |V_1| as a ratio, each
    V_n first scaled exactly by the power of two that puts V_1 in [0.5, 1)."""
    v1 = spectrum.fundamental
    if v1 <= 1e-12 * spectrum.base_volts:
        raise ZeroFundamental(
            f"fundamental {v1:g} V is below 1e-12 of base {spectrum.base_volts:g} V"
        )
    shift = -math.frexp(v1)[1]
    acc = 0.0
    for m in spectrum.magnitudes[2:]:
        m = math.ldexp(m, shift)
        acc += m * m
    return math.sqrt(acc) / math.ldexp(v1, shift)


def pattern_thd(
    pattern: SwitchingPattern, max_order: int = DEFAULT_MAX_ORDER
) -> float:
    """THD of a pattern's analytic spectrum (solver-internal convenience)."""
    return thd(analytic_spectrum(pattern, max_order))


def spectrum_csv(spectrum: HarmonicSpectrum):
    """CSV text `order,magnitude_v,magnitude_pct_of_fundamental`, line by line."""
    v1 = spectrum.fundamental
    yield "order,magnitude_v,magnitude_pct_of_fundamental\n"
    for n, m in enumerate(spectrum.magnitudes[1:], 1):
        pct = 100.0 * m / v1 if v1 > 0 else float("inf")
        yield f"{n},{m!r},{pct!r}\n"
