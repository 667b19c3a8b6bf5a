import gc
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shepwm import (
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
from shepwm import harmonics
from shepwm.errors import ShePwmError
from shepwm.harmonics import (
    _segment_coefficients,
    _segment_table,
    odd_harmonic_sums,
    signed_cosines,
    spectrum_csv,
)
from shepwm.pattern import levels

from conftest import closed_form_oracle, random_valid_pattern, reference_sums

SQUARE = SwitchingPattern((0.0,), (1,), 1, 200.0)
SQUARE_FUNDAMENTAL = 4 * 200.0 / math.pi  # 254.64790894703253
# A valid two-cell, six-angle sign pattern whose quarter wave rises, notches
# back to level 0, climbs to level 2 and steps back down to 0 before pi/2.
NOTCHED_SIGNS_K6 = (1, -1, 1, 1, -1, -1)
NOTCHED_PATTERN = SwitchingPattern(
    tuple(np.radians([5, 15, 25, 35, 45, 55])), NOTCHED_SIGNS_K6, 2, 200.0
)
# the README's `shepwm analyze` example: its angles with the default signs
README_PATTERN = SwitchingPattern(
    (0.087, 0.26, 0.44, 0.61, 0.79, 0.96), (1, -1, 1, 1, -1, 1), 2, 200.0
)


@st.composite
def valid_patterns(draw):
    """K in 1..12, a cell count dividing K, a sign path within [0, cells], and
    angles drawn from a small pool, so coincidences and exact 0 and pi/2 are
    common."""
    k = draw(st.integers(min_value=1, max_value=12))
    cells = draw(st.sampled_from([s for s in range(1, k + 1) if k % s == 0]))
    signs, level = [], 0
    for _ in range(k):
        sg = draw(st.sampled_from([s for s in (1, -1) if 0 <= level + s <= cells]))
        signs.append(sg)
        level += sg
    angle = st.one_of(
        st.just(0.0), st.just(math.pi / 2), st.floats(0.0, math.pi / 2)
    )
    pool = draw(st.lists(angle, min_size=1, max_size=k))
    angles = sorted(draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k)))
    vdc = draw(st.floats(min_value=1.0, max_value=1000.0))
    return SwitchingPattern(tuple(angles), tuple(signs), cells, vdc)


def reference_segment_coefficients(p, n):
    """Segment integration as it stood before the segment table: breakpoints
    and levels rebuilt per call, cos and sin taken at both ends of every
    segment, summed with np.sum."""
    th = np.asarray(p.angles, dtype=np.float64)
    pi = np.pi
    bp = np.concatenate(
        ([0.0], th, (pi - th)[::-1], [pi], pi + th, (2 * pi - th)[::-1], [2 * pi])
    )
    prefix = np.array([0, *levels(p.signs)], dtype=np.float64)
    half = np.concatenate((prefix, prefix[:-1][::-1]))
    volts = np.concatenate((half, -half)) * p.vdc_per_cell
    lo, hi = bp[:-1], bp[1:]
    b_n = float(np.sum(volts * (np.cos(n * lo) - np.cos(n * hi))) / (n * math.pi))
    a_n = float(np.sum(volts * (np.sin(n * hi) - np.sin(n * lo))) / (n * math.pi))
    return a_n, b_n


def segment_coefficients(p, n):
    """(a_n, b_n) as segment_integral_harmonic reads them from the order table."""
    a, b = _segment_table(p, n)
    return a[n - 1], b[n - 1]


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

    def test_rejects_non_integral_order(self):
        with pytest.raises(ShePwmError, match="order must be an integer, got 2.5"):
            analytic_harmonic(README_PATTERN, 2.5)

    def test_accepts_numpy_integer_order(self):
        for n in range(1, 10):
            assert analytic_harmonic(NOTCHED_PATTERN, np.int64(n)) == (
                analytic_harmonic(NOTCHED_PATTERN, n)
            )

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


def reference_closed_form(p, n):
    """analytic_harmonic as it stood before its order table: the recurrence
    run through order n for this call alone, its last sum scaled."""
    if n % 2 == 0:
        return 0.0
    block = signed_cosines(np.array(p.angles)[:, None], p.signs)
    last = odd_harmonic_sums(block, n)[-1, 0]
    return float((4.0 * p.vdc_per_cell) / (n * np.pi) * last)


def flip_zeros(p):
    """A pattern equal to p whose zero angles have the other sign."""
    angles = tuple(-a if a == 0.0 else a for a in p.angles)
    return SwitchingPattern(angles, p.signs, p.cells, p.vdc_per_cell)


@st.composite
def table_calls(draw):
    """Calls (pattern, order) on two patterns and an equal twin of the first,
    interleaved, with orders up to 999 taken rising, falling or in any
    order. K runs to 40; angles are often 0, -0.0, pi/2 or coincident."""

    def pattern():
        k = draw(st.integers(min_value=1, max_value=40))
        cells = draw(st.sampled_from([s for s in range(1, k + 1) if k % s == 0]))
        signs, level = [], 0
        for _ in range(k):
            sg = draw(st.sampled_from(
                [s for s in (1, -1) if 0 <= level + s <= cells]))
            signs.append(sg)
            level += sg
        angle = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2]),
                          st.floats(0.0, math.pi / 2))
        pool = draw(st.lists(angle, min_size=1, max_size=k))
        angles = sorted(draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k)))
        vdc = draw(st.floats(min_value=1.0, max_value=1000.0))
        return SwitchingPattern(tuple(angles), tuple(signs), cells, vdc)

    first = pattern()
    patterns = [first, pattern(), flip_zeros(first)]
    order = st.one_of(st.integers(1, 60), st.integers(1, 999))
    calls = draw(st.lists(st.tuples(st.sampled_from(patterns), order),
                          min_size=1, max_size=12))
    direction = draw(st.sampled_from(["rising", "falling", "any"]))
    if direction != "any":
        calls.sort(key=lambda call: call[1], reverse=direction == "falling")
    return calls


class TestOrderTables:
    """The segment route answers from a one-pattern order table, and the
    closed form from a recurrence run for each call; each answer keeps the
    bits of the per-order arithmetic."""

    @given(calls=table_calls())
    @settings(max_examples=60, deadline=None)
    def test_bits_match_per_order_arithmetic(self, calls):
        for p, n in calls:
            got = np.array(segment_coefficients(p, n))
            want = np.array(reference_segment_coefficients(p, n))
            assert got.tobytes() == want.tobytes(), n
            assert np.array(segment_integral_harmonic(p, n)).tobytes() == want[1].tobytes()
            got = np.array(analytic_harmonic(p, n))
            assert got.tobytes() == np.array(reference_closed_form(p, n)).tobytes(), n

    def test_rising_loop_to_999_builds_six_tables(self, monkeypatch):
        # M = max(n, 49) for a new pattern, at least doubling as the same
        # pattern asks past it: 49, 98, 196, 392, 784, 1568
        p = forty_angle_pattern()
        builds = count_cosines(monkeypatch)
        got = [segment_coefficients(p, n) for n in range(1, 1000)]
        # one cosine call per table, over its (M, 4K+3) phases
        assert len(builds) == 6, builds
        builds.clear()
        assert [segment_coefficients(p, n) for n in range(999, 0, -1)] == got[::-1]
        assert len(builds) == 0
        monkeypatch.undo()
        for n in range(1, 1000):
            want = reference_segment_coefficients(p, n)
            got = segment_coefficients(p, n)
            assert np.array(got).tobytes() == np.array(want).tobytes(), n

    def test_closed_form_takes_one_cosine_call_per_call(self, monkeypatch):
        # no table: every odd order's call takes the K angles' cosines again
        # and runs the recurrence through n; an even order takes none
        p = forty_angle_pattern()
        builds = count_cosines(monkeypatch)
        got = [analytic_harmonic(p, n) for n in range(1, 1000)]
        assert builds == [(40, 1)] * 500
        monkeypatch.undo()
        for n, value in zip(range(1, 1000), got):
            want = np.array(reference_closed_form(p, n)).tobytes()
            assert np.array(value).tobytes() == want, n

    @pytest.mark.parametrize("route", [segment_integral_harmonic])
    def test_keeps_only_the_last_pattern_asked(self, route):
        # the last two are equal patterns (a zero of either sign); the table
        # is keyed by identity, so the first of them is let go as well
        refs = ask_four_patterns(route)
        assert [r() is None for r in refs[:-1]] == [True] * 3

    def test_closed_form_keeps_no_pattern(self):
        refs = ask_four_patterns(analytic_harmonic)
        assert [r() is None for r in refs] == [True] * 4


def forty_angle_pattern():
    """K = 40, three angles at 0 and one at pi/2."""
    rng = np.random.default_rng(40)
    angles = np.sort(rng.random(40) * (math.pi / 2))
    angles[:3] = 0.0
    angles[-1] = math.pi / 2
    return SwitchingPattern(tuple(angles), (1, -1) * 20, 1, 200.0)


def count_cosines(monkeypatch):
    """The shapes of the np.cos calls that harmonics makes from now on."""
    shapes = []

    class CountingNumpy:
        def __getattr__(self, attr):
            return getattr(np, attr)

        def cos(self, x, *args, **kwargs):
            shapes.append(np.shape(x))
            return np.cos(x, *args, **kwargs)

    monkeypatch.setattr(harmonics, "np", CountingNumpy())
    return shapes


def ask_four_patterns(route):
    """Weak references to four patterns after route asked each for order 5;
    the last two are equal, with a zero of either sign."""
    patterns = [
        SwitchingPattern((0.0, 0.2 + 0.1 * i), (1, -1), 1, 200.0)
        for i in range(3)
    ]
    patterns.append(flip_zeros(patterns[-1]))
    assert patterns[-1] == patterns[-2] and patterns[-1] is not patterns[-2]
    refs = [weakref.ref(p) for p in patterns]
    for p in patterns:
        route(p, 5)
    del p, patterns
    gc.collect()
    return refs


class TestClosedFormOracle:
    """The recurrence behind analytic_harmonic and analytic_spectrum against
    one math.cos per angle and order."""

    @given(p=valid_patterns())
    @settings(max_examples=200, deadline=None)
    def test_matches_math_cos_to_order_49(self, p):
        spec = analytic_spectrum(p, 49)
        for n in range(1, 50):
            want = closed_form_oracle(p, n)
            tol = dict(rel=1e-12, abs=1e-12 * p.vdc_per_cell)
            assert analytic_harmonic(p, n) == pytest.approx(want, **tol), n
            assert spec.magnitudes[n] == pytest.approx(abs(want), **tol), n

    def test_matches_math_cos_to_order_999(self):
        # angles within 1e-3 of 0 and pi/2 are where the recurrence drifts
        # most; odd_harmonic_sums states the measured 3e-13 * V_dc worst case
        rng = np.random.default_rng(999)
        near_edges = np.sort(np.concatenate(
            [rng.uniform(0.0, 1e-3, 6), math.pi / 2 - rng.uniform(0.0, 1e-3, 6)]
        ))
        patterns = [
            SwitchingPattern(tuple(near_edges), (1, -1) * 6, 1, 200.0),
            SwitchingPattern(tuple(near_edges), (1,) * 12, 12, 200.0),
            README_PATTERN,
        ]
        for p in patterns:
            spec = analytic_spectrum(p, 999)
            for n in range(1, 1000, 2):
                want = closed_form_oracle(p, n)
                assert abs(spec.magnitudes[n] - abs(want)) <= 1e-12 * p.vdc_per_cell
            for n in (1, 3, 499, 999):
                err = abs(analytic_harmonic(p, n) - closed_form_oracle(p, n))
                assert err <= 1e-12 * p.vdc_per_cell


class TestOddHarmonicSums:
    """odd_harmonic_sums gives the bits of the plain row loop."""

    @staticmethod
    def _block(rng, k, rows):
        block = signed_cosines(rng.random((k, rows)) * (math.pi / 2),
                               rng.choice([-1.0, 1.0], k))
        block[rng.random((k, rows)) < 0.25] = -0.0
        block[k // 2, 0] = -0.0
        if rows > 1:
            block[:, -1] = -0.0
        return block

    @pytest.mark.parametrize("rows", [1, 2, 3, 250])
    @pytest.mark.parametrize("k", [1, 2, 6, 8, 12, 16])
    def test_sums_have_the_row_loops_bits(self, rng, k, rows):
        # each column adds its K rows in turn, whether the block is reduced
        # in one call (two or more columns) or row by row (one column, which
        # numpy would reduce pairwise from 8 rows); a column of -0.0 sums
        # to -0.0, so the reduce must start from -0.0, not numpy's +0.0
        self._assert_row_loop_bits(self._block(rng, k, rows))

    @pytest.mark.parametrize("rows", [2, 3, 250])
    @pytest.mark.parametrize("k", [8, 12, 16])
    def test_a_fortran_ordered_block_has_the_row_loops_bits(self, rng, k, rows):
        # the block's memory order changes no bit: a reduce along a
        # contiguous first axis would add 8 or more rows pairwise
        self._assert_row_loop_bits(np.asfortranarray(self._block(rng, k, rows)))

    @staticmethod
    def _assert_row_loop_bits(block):
        rows = block.shape[1]
        for max_order in (1, 3, 11, 49):
            for columns in (None, np.array([rows // 2]), np.arange(0, rows, 2)):
                picked = block if columns is None else block[:, columns]
                got = odd_harmonic_sums(block, max_order, columns)
                want = reference_sums(picked, max_order)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (max_order, columns)


class TestSegmentIntegral:
    @given(p=valid_patterns())
    @settings(max_examples=200, deadline=None)
    def test_bits_match_reference(self, p):
        a, b = _segment_coefficients(p, 49)
        for n in range(1, 50):
            want = np.array(reference_segment_coefficients(p, n))
            assert np.array((a[n - 1], b[n - 1])).tobytes() == want.tobytes(), n
            assert np.array(segment_integral_harmonic(p, n)).tobytes() == want[1].tobytes()

    def test_rejects_non_integral_order(self):
        with pytest.raises(ShePwmError, match="order must be an integer, got 2.5"):
            segment_integral_harmonic(README_PATTERN, 2.5)
        with pytest.raises(ShePwmError, match="order must be >= 1"):
            segment_integral_harmonic(README_PATTERN, 0)

    def test_accepts_numpy_integer_order(self):
        for n in range(1, 10):
            assert segment_integral_harmonic(NOTCHED_PATTERN, np.int64(n)) == (
                segment_integral_harmonic(NOTCHED_PATTERN, n)
            )

    def test_square_wave_fundamental(self):
        assert segment_integral_harmonic(SQUARE, 1) == pytest.approx(
            SQUARE_FUNDAMENTAL, rel=1e-12
        )

    def test_square_wave_second_harmonic_vanishes(self):
        assert abs(segment_integral_harmonic(SQUARE, 2)) <= 1e-12 * 200.0

    def test_cosine_coefficient_vanishes(self, rng):
        for _ in range(10):
            p = random_valid_pattern(rng)
            a, _ = _segment_coefficients(p, 12)
            for n in (1, 2, 5, 12):
                assert abs(a[n - 1]) <= 1e-9 * p.cells * p.vdc_per_cell

    def test_matches_analytic_on_default_pattern(self):
        for n in range(1, 50):
            a = analytic_harmonic(NOTCHED_PATTERN, n)
            b = segment_integral_harmonic(NOTCHED_PATTERN, n)
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
        w = synthesize(NOTCHED_PATTERN, 2**16)
        spec = dft_spectrum(w, 49, base_volts=NOTCHED_PATTERN.base_volts)
        for n in range(1, 50):
            expected = abs(analytic_harmonic(NOTCHED_PATTERN, n))
            if expected > 1e-3 * 200.0:
                assert spec.magnitudes[n] == pytest.approx(expected, rel=1e-2)

    def test_rejects_non_integral_max_order(self):
        w = synthesize(SQUARE, 64)
        with pytest.raises(ShePwmError, match="max_order must be an integer"):
            dft_spectrum(w, 4.5)

    def test_nyquist_guard(self):
        w = synthesize(SQUARE, 64)
        with pytest.raises(ShePwmError, match="needs at least"):
            dft_spectrum(w, 32)
        dft_spectrum(w, 31)


class TestThd:
    def test_fundamental_only(self):
        spec = HarmonicSpectrum(magnitudes=(0.0, 10.0, 0.0, 0.0), base_volts=10.0)
        assert thd(spec) == 0.0

    def test_zero_fundamental(self):
        # no THD is defined on a zero fundamental: NaN, not an error
        spec = HarmonicSpectrum(magnitudes=(0.0, 0.0, 0.0, 5.0), base_volts=10.0)
        assert math.isnan(thd(spec))

    @pytest.mark.parametrize("volts", [1e300, 1e-300, 2.0**-1000, sys.float_info.max])
    def test_squares_neither_overflow_nor_underflow(self, volts):
        # squared, these magnitudes overflow to inf or underflow to 0.0; the
        # ratio of each to the fundamental is what counts
        spec = HarmonicSpectrum((0.0, volts, 0.0, volts / 2, volts / 4), volts)
        assert thd(spec) == math.sqrt(0.25 + 0.0625)
        # the mean is not a harmonic
        assert thd(HarmonicSpectrum((volts, volts, 0.0), volts)) == 0.0

    def test_a_base_that_cannot_bound_the_fundamental_is_refused(self):
        # thd compares the fundamental with 1e-12 of the base; a NaN or
        # negative base let a zero fundamental through to a division by zero
        for base in (math.nan, -1.0, math.inf):
            with pytest.raises(ShePwmError) as info:
                thd(HarmonicSpectrum((0.0, 0.0, 0.0), base))
            assert str(info.value) == f"base_volts must be finite and >= 0, got {base!r}"
            assert type(info.value) is ShePwmError
        # a zero base stays: a silent waveform's DFT spectrum takes its peak
        spec = dft_spectrum(WaveformSamples(np.zeros(64)), 9)
        assert spec.base_volts == 0.0
        assert math.isnan(thd(spec))

    def test_square_wave_limit(self):
        # sum over odd n >= 3 of 1/n^2 equals pi^2/8 - 1
        value = thd(analytic_spectrum(SQUARE, 100001))
        assert value == pytest.approx(math.sqrt(math.pi**2 / 8 - 1), abs=1e-4)

    def test_square_wave_truncated(self):
        # equivalently pi^2/8 - 1 minus the tail beyond 49
        expected = math.sqrt(sum(1.0 / n**2 for n in range(3, 50, 2)))
        assert pattern_thd(SQUARE) == pytest.approx(expected, rel=1e-12)

    # every V_dc check_vdc admits whose closed form stays finite
    @given(vdc=st.floats(min_value=sys.float_info.min, max_value=1e307))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, vdc):
        scaled = SwitchingPattern(
            NOTCHED_PATTERN.angles, NOTCHED_PATTERN.signs, NOTCHED_PATTERN.cells, vdc
        )
        assert abs(pattern_thd(scaled) - pattern_thd(NOTCHED_PATTERN)) <= 1e-12

    # 200 V times 2**e: every magnitude of the pattern stays a normal double
    @given(e=st.integers(min_value=-1020, max_value=1009))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance_is_exact_for_powers_of_two(self, e):
        scaled = SwitchingPattern(
            NOTCHED_PATTERN.angles, NOTCHED_PATTERN.signs, NOTCHED_PATTERN.cells,
            math.ldexp(NOTCHED_PATTERN.vdc_per_cell, e),
        )
        assert pattern_thd(scaled) == pattern_thd(NOTCHED_PATTERN)


class TestSpectrumType:
    def test_max_order_must_be_a_positive_integer(self):
        # max_order is the length less one: orders 0 and 1 at the least
        for short in ((1.0,), ()):
            with pytest.raises(ShePwmError) as info:
                HarmonicSpectrum(magnitudes=short, base_volts=1.0)
            assert str(info.value) == (
                f"magnitudes must hold orders 0..M with M >= 1, got {short!r}")

    def test_max_order_is_the_length_less_one(self):
        w = synthesize(NOTCHED_PATTERN, 256)
        for m in (1, 2, 49):
            for spec in (analytic_spectrum(NOTCHED_PATTERN, m), dft_spectrum(w, m)):
                assert spec.max_order == m
                assert len(spec.magnitudes) == m + 1
        assert HarmonicSpectrum((0.0, 1.0), 1.0).max_order == 1

    def test_negative_magnitude_rejected(self):
        message = r"negative or non-finite magnitudes at orders \[2\]"
        with pytest.raises(ShePwmError, match=message):
            HarmonicSpectrum(magnitudes=(0.0, 1.0, -0.5), base_volts=1.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_an_array_is_stored_as_a_tuple_of_floats(self, dtype):
        spec = HarmonicSpectrum(np.array([0.0, 2.0, 0.5], dtype=dtype), 2.0)
        assert spec.magnitudes == (0.0, 2.0, 0.5)
        assert type(spec.magnitudes) is tuple
        assert [type(m) for m in spec.magnitudes] == [float] * 3
        assert spec == HarmonicSpectrum((0.0, 2.0, 0.5), 2.0)

    def test_order_zero_is_the_mean(self, rng):
        # exactly 0.0 on the closed form; the DFT's bin 0 is the sampled
        # waveform's mean, which quarter-wave symmetry makes 0 to rounding
        for _ in range(50):
            p = random_valid_pattern(rng)
            assert analytic_spectrum(p, 49).magnitudes[0] == 0.0
            w = synthesize(p, 1024)
            peak = np.max(np.abs(w.samples))
            assert dft_spectrum(w, 49).magnitudes[0] <= 1e-9 * peak

    def test_dft_orders_keep_the_scaled_bins(self):
        # orders >= 1 are (2/N)|bin n| with the bits of the one vector
        # product, and order 0 is |bin 0| / N (exact for N a power of two)
        w = synthesize(README_PATTERN, 512)
        bins = np.abs(np.fft.rfft(w.samples))
        spec = dft_spectrum(w, 49)
        assert spec.magnitudes[1:] == tuple(((2.0 / 512) * bins)[1:50].tolist())
        assert spec.magnitudes[0] == bins[0] / 512

    def test_analytic_spectrum_rejects_non_integral_max_order(self):
        with pytest.raises(ShePwmError, match="max_order must be an integer"):
            analytic_spectrum(README_PATTERN, 4.5)
        with pytest.raises(ShePwmError, match="max_order must be >= 1"):
            analytic_spectrum(README_PATTERN, 0)
        assert analytic_spectrum(README_PATTERN, np.int64(7)) == (
            analytic_spectrum(README_PATTERN, 7)
        )

    def test_analytic_spectrum_fields(self):
        spec = analytic_spectrum(NOTCHED_PATTERN, 49)
        assert spec.max_order == 49
        assert spec.base_volts == 400.0
        assert len(spec.magnitudes) == 50
        assert spec.magnitudes[0] == 0.0
        assert spec.magnitudes[2::2] == (0.0,) * 24
        assert all(type(m) is float and m >= 0 for m in spec.magnitudes)


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
