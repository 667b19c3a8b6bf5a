import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shepwm import (
    DEFAULT_SIGNS_K6,
    HarmonicSpectrum,
    SwitchingPattern,
    WaveformSamples,
    analytic_harmonic,
    analytic_spectrum,
    dft_spectrum,
    pattern_thd,
    segment_integral_harmonic,
    synthesize,
    thd,
)
from shepwm.errors import ShePwmError, ZeroFundamental
from shepwm.harmonics import segment_integral_coefficients, spectrum_csv

from conftest import random_valid_pattern

SQUARE = SwitchingPattern((0.0,), (1,), 1, 200.0)
SQUARE_FUNDAMENTAL = 4 * 200.0 / math.pi  # 254.64790894703253
DEFAULT_PATTERN = SwitchingPattern(
    tuple(np.radians([5, 15, 25, 35, 45, 55])), DEFAULT_SIGNS_K6, 2, 200.0
)


class TestAnalytic:
    def test_square_wave_fundamental(self):
        assert analytic_harmonic(SQUARE, 1) == pytest.approx(
            SQUARE_FUNDAMENTAL, rel=1e-15
        )

    def test_even_orders_are_exactly_zero(self, rng):
        for _ in range(10):
            p = random_valid_pattern(rng)
            for n in (2, 4, 10, 48):
                assert analytic_harmonic(p, n) == 0.0

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ShePwmError, match="order must be >= 1"):
            analytic_harmonic(SQUARE, 0)

    def test_linearity_in_vdc(self, rng):
        for _ in range(10):
            p = random_valid_pattern(rng)
            for alpha in (0.25, 2.0, 7.5):
                scaled = SwitchingPattern(
                    p.angles, p.signs, p.cells, alpha * p.vdc_per_cell
                )
                for n in (1, 3, 7):
                    a = analytic_harmonic(scaled, n)
                    b = alpha * analytic_harmonic(p, n)
                    assert a == pytest.approx(b, rel=4e-16, abs=0.0) or a == b


class TestSegmentIntegral:
    def test_square_wave_fundamental(self):
        assert segment_integral_harmonic(SQUARE, 1) == pytest.approx(
            SQUARE_FUNDAMENTAL, rel=1e-12
        )

    def test_square_wave_second_harmonic_vanishes(self):
        assert abs(segment_integral_harmonic(SQUARE, 2)) <= 1e-12 * 200.0

    def test_cosine_coefficient_vanishes(self, rng):
        for _ in range(10):
            p = random_valid_pattern(rng)
            for n in (1, 2, 5, 12):
                a_n, _ = segment_integral_coefficients(p, n)
                assert abs(a_n) <= 1e-9 * p.cells * p.vdc_per_cell

    def test_matches_analytic_on_default_pattern(self):
        for n in range(1, 50):
            a = analytic_harmonic(DEFAULT_PATTERN, n)
            b = segment_integral_harmonic(DEFAULT_PATTERN, n)
            if n % 2 == 0:
                assert a == 0.0
                assert abs(b) <= 1e-9 * 200.0
            else:
                assert b == pytest.approx(a, rel=1e-10, abs=1e-12 * 200.0)

    def test_matches_analytic_on_random_patterns(self, rng):
        for _ in range(100):
            p = random_valid_pattern(rng)
            for n in (1, 3, 9, 25, 49):
                a = analytic_harmonic(p, n)
                b = segment_integral_harmonic(p, n)
                assert b == pytest.approx(a, rel=1e-10, abs=1e-12 * p.vdc_per_cell)


class TestDft:
    def test_pure_sine(self):
        n = 4096
        amp = 3.5
        v = amp * np.sin(2 * np.pi * np.arange(n) / n)
        spec = dft_spectrum(WaveformSamples(samples=v), 20, base_volts=amp)
        assert spec.magnitudes[1] == pytest.approx(amp, rel=1e-12)
        for order in range(2, 21):
            assert spec.magnitudes[order] <= 1e-10 * amp

    def test_square_wave_fundamental(self):
        w = synthesize(SQUARE, 2**16)
        spec = dft_spectrum(w, 5)
        assert spec.magnitudes[1] == pytest.approx(SQUARE_FUNDAMENTAL, rel=1e-3)

    def test_matches_analytic_on_default_pattern(self):
        w = synthesize(DEFAULT_PATTERN, 2**16)
        spec = dft_spectrum(w, 49, base_volts=DEFAULT_PATTERN.base_volts)
        for n in range(1, 50):
            expected = abs(analytic_harmonic(DEFAULT_PATTERN, n))
            if expected > 1e-3 * 200.0:
                assert spec.magnitudes[n] == pytest.approx(expected, rel=1e-2)

    def test_nyquist_guard(self):
        w = synthesize(SQUARE, 64)
        with pytest.raises(ShePwmError, match="needs at least"):
            dft_spectrum(w, 32)
        dft_spectrum(w, 31)


class TestThd:
    def test_fundamental_only(self):
        spec = HarmonicSpectrum(
            magnitudes={1: 10.0, 2: 0.0, 3: 0.0}, max_order=3, base_volts=10.0
        )
        assert thd(spec) == 0.0

    def test_zero_fundamental(self):
        spec = HarmonicSpectrum(
            magnitudes={1: 0.0, 2: 0.0, 3: 5.0}, max_order=3, base_volts=10.0
        )
        with pytest.raises(ZeroFundamental):
            thd(spec)

    def test_square_wave_limit(self):
        # sum over odd n >= 3 of 1/n^2 equals pi^2/8 - 1
        value = pattern_thd(SQUARE, 100001)
        assert value == pytest.approx(math.sqrt(math.pi**2 / 8 - 1), abs=1e-4)

    def test_square_wave_truncated(self):
        # equivalently pi^2/8 - 1 minus the tail beyond 49
        expected = math.sqrt(sum(1.0 / n**2 for n in range(3, 50, 2)))
        assert pattern_thd(SQUARE, 49) == pytest.approx(expected, rel=1e-12)

    @given(alpha=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, alpha):
        scaled = SwitchingPattern(
            DEFAULT_PATTERN.angles,
            DEFAULT_PATTERN.signs,
            DEFAULT_PATTERN.cells,
            alpha * DEFAULT_PATTERN.vdc_per_cell,
        )
        assert abs(pattern_thd(scaled, 49) - pattern_thd(DEFAULT_PATTERN, 49)) <= 1e-12


class TestSpectrumType:
    def test_orders_must_be_complete(self):
        with pytest.raises(ShePwmError, match="missing orders"):
            HarmonicSpectrum(magnitudes={1: 1.0, 3: 0.5}, max_order=3, base_volts=1.0)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ShePwmError, match="negative or non-finite"):
            HarmonicSpectrum(
                magnitudes={1: 1.0, 2: -0.5}, max_order=2, base_volts=1.0
            )

    def test_analytic_spectrum_fields(self):
        spec = analytic_spectrum(DEFAULT_PATTERN, 49)
        assert spec.max_order == 49
        assert spec.base_volts == 400.0
        assert set(spec.magnitudes) == set(range(1, 50))
        assert all(m >= 0 for m in spec.magnitudes.values())


def test_spectrum_csv():
    spec = analytic_spectrum(SQUARE, 5)
    lines = "".join(spectrum_csv(spec)).splitlines()
    assert lines[0] == "order,magnitude_v,magnitude_pct_of_fundamental"
    assert len(lines) == 6
    order, mag, pct = lines[1].split(",")
    assert order == "1"
    assert float(mag) == spec.magnitudes[1]
    assert float(pct) == 100.0
    order3 = lines[3].split(",")
    assert float(order3[2]) == pytest.approx(100.0 / 3.0, rel=1e-12)
