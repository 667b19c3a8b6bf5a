import dataclasses
import math
import pickle
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shepwm import (
    DEFAULT_SIGNS_K6,
    PsoConfig,
    SheProblem,
    SwitchingPattern,
    WaveformSamples,
    analytic_spectrum,
    build_lookup,
    compare_methods,
    default_sign_pattern,
    solve,
    synthesize,
)
from shepwm.errors import ShePwmError
from shepwm.harmonics import _segment_coefficients
from shepwm.pattern import levels, waveform_csv

from conftest import random_valid_pattern

HALF_PI = math.pi / 2


class TestValidate:
    def test_plain_staircase_is_valid(self):
        SwitchingPattern((0.1, 0.3), (1, 1), 2, 200.0)

    def test_first_step_down_hits_level_bound(self):
        with pytest.raises(ShePwmError, match=r"level -1 after transition 1 outside"):
            SwitchingPattern((0.1, 0.3), (-1, 1), 2, 200.0)

    def test_default_six_angle_pattern_is_valid(self):
        angles = tuple(np.radians([5, 15, 25, 35, 45, 55]))
        SwitchingPattern(angles, DEFAULT_SIGNS_K6, 2, 200.0)

    def test_angle_above_quarter_period(self):
        with pytest.raises(ShePwmError, match=r"outside \[0, pi/2\]"):
            SwitchingPattern((0.1, 1.6), (1, 1), 2, 200.0)

    def test_negative_angle(self):
        with pytest.raises(ShePwmError, match=r"outside \[0, pi/2\]"):
            SwitchingPattern((-0.1,), (1,), 1, 200.0)

    def test_unordered_angles(self):
        with pytest.raises(ShePwmError, match="not nondecreasing"):
            SwitchingPattern((0.3, 0.1), (1, 1), 2, 200.0)

    def test_equal_angles_allowed(self):
        SwitchingPattern((0.3, 0.3), (1, -1), 1, 200.0)

    def test_bad_sign(self):
        with pytest.raises(ShePwmError, match="sign must be"):
            SwitchingPattern((0.1, 0.3), (1, 2), 2, 200.0)

    def test_level_exceeds_cells(self):
        with pytest.raises(ShePwmError, match=r"level 2 after transition 2 outside"):
            SwitchingPattern((0.1, 0.3), (1, 1), 1, 200.0)

    def test_angle_count_not_multiple_of_cells(self):
        with pytest.raises(ShePwmError, match="not a multiple of the cell count"):
            SwitchingPattern((0.1, 0.2, 0.3), (1, 1, -1), 2, 200.0)

    def test_nonpositive_vdc(self):
        with pytest.raises(ShePwmError, match="vdc_per_cell must be"):
            SwitchingPattern((0.1,), (1,), 1, 0.0)

    def test_boundary_angles_allowed(self):
        SwitchingPattern((0.0, HALF_PI), (1, 1), 2, 200.0)

    def test_angle_and_sign_counts_must_match(self):
        with pytest.raises(ShePwmError, match="need matching non-empty angles/signs, "
                                              "got 2 angles and 1 signs"):
            SwitchingPattern((0.1, 0.3), (1,), 2, 200.0)

    @pytest.mark.parametrize("k", [2, 6, 12])
    def test_largest_admitted_vdc_keeps_the_closed_form_finite(self, k):
        # K rising steps at angle 0 on K cells: the fundamental's sum is K itself
        def admitted(vdc):
            try:
                return SwitchingPattern((0.0,) * k, (1,) * k, k, vdc)
            except ShePwmError:
                return None

        # bisect the bit patterns of the positive doubles, 1.0 admitted
        low, high = np.array([1.0, sys.float_info.max]).view(np.int64).tolist()
        while high - low > 1:
            mid = (low + high) // 2
            if admitted(float(np.int64(mid).view(np.float64))):
                low = mid
            else:
                high = mid
        vdc = float(np.int64(low).view(np.float64))
        assert vdc == pytest.approx(min(sys.float_info.max / 4,
                                        sys.float_info.max / (4 * k) * math.pi))
        spectrum = analytic_spectrum(admitted(vdc), 49)
        assert all(map(math.isfinite, spectrum.magnitudes))
        assert spectrum.fundamental == pytest.approx(4 * vdc / math.pi * k)
        above = math.nextafter(vdc, math.inf)
        with pytest.raises(ShePwmError, match=re.escape(
                f"vdc_per_cell {above!r} is too large for K = {k} angles")):
            SwitchingPattern((0.0,) * k, (1,) * k, k, above)


class TestLevelTrajectory:
    def test_staircase(self):
        p = SwitchingPattern((0.1, 0.3), (1, 1), 2, 200.0)
        assert levels(p.signs) == [1, 2]

    def test_default_pattern(self):
        angles = tuple(np.radians([5, 15, 25, 35, 45, 55]))
        p = SwitchingPattern(angles, DEFAULT_SIGNS_K6, 2, 200.0)
        assert levels(p.signs) == [1, 0, 1, 2, 1, 0]

    def test_full_amplitude_variant(self):
        angles = tuple(np.radians([5, 15, 25, 35, 45, 55]))
        p = SwitchingPattern(angles, (1, -1, 1, 1, -1, 1), 2, 200.0)
        assert levels(p.signs) == [1, 0, 1, 2, 1, 2]


class TestSegmentTable:
    def test_arrays_are_read_only(self, rng):
        for _ in range(10):
            breakpoints, volts = random_valid_pattern(rng).segments
            for arr in (breakpoints, volts):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1.0

    def test_built_once_on_first_use(self):
        p = SwitchingPattern((0.1, 0.3), (1, 1), 2, 200.0)
        assert "segments" not in vars(p)
        table = p.segments
        assert p.segments is table
        assert table.breakpoints.size == 4 * 2 + 3
        assert table.volts.tolist() == [0.0, 200.0, 400.0, 200.0, 0.0,
                                        -0.0, -200.0, -400.0, -200.0, -0.0]

    def test_equality_and_hash_ignore_the_table(self, rng):
        for _ in range(10):
            p = random_valid_pattern(rng)
            twin = SwitchingPattern(p.angles, p.signs, p.cells, p.vdc_per_cell)
            before = hash(p)
            p.segments
            assert p == twin and hash(p) == before == hash(twin)

    def test_replace_builds_a_fresh_table(self, rng):
        p = random_valid_pattern(rng)
        p.segments
        same = dataclasses.replace(p)
        assert "segments" not in vars(same)
        scaled = dataclasses.replace(p, vdc_per_cell=2.0 * p.vdc_per_cell)
        assert np.array_equal(scaled.segments.volts, 2.0 * p.segments.volts)

    def test_pickle_round_trip(self, rng):
        for _ in range(10):
            p = random_valid_pattern(rng)
            p.segments
            copy = pickle.loads(pickle.dumps(p))
            assert copy == p and "segments" not in vars(copy)
            assert not copy.segments.volts.flags.writeable
            assert (np.array(_segment_coefficients(copy, 49)).tobytes()
                    == np.array(_segment_coefficients(p, 49)).tobytes())

    def test_solve_paths_never_build_it(self, monkeypatch):
        def refuse(pattern):
            raise AssertionError("segment table built")

        monkeypatch.setattr(SwitchingPattern, "segments", property(refuse))
        pso = PsoConfig(seed=3, iterations=20, restarts=1, swarm_size=10)
        problem = SheProblem(target_m=0.8)
        solve(problem, pso)
        build_lookup([0.5, 1.0], pso, problem)
        compare_methods([0.5, 1.0], pso, problem)


class TestDefaultSigns:
    def test_two_cells_three_per_level(self):
        assert default_sign_pattern(2, 3) == DEFAULT_SIGNS_K6

    def test_plain_staircase_for_single_switch(self):
        assert default_sign_pattern(3, 1) == (1, 1, 1)

    def test_odd_per_cell(self):
        signs = default_sign_pattern(1, 5)
        assert signs == (1, -1, 1, -1, 1)
        SwitchingPattern((0.1, 0.2, 0.3, 0.4, 0.5), signs, 1, 100.0)

    def test_even_per_cell_has_no_default(self):
        with pytest.raises(ShePwmError, match="no default sign pattern"):
            default_sign_pattern(2, 4)


class TestSynthesize:
    def test_square_wave(self):
        p = SwitchingPattern((0.0,), (1,), 1, 200.0)
        w = synthesize(p, 8)
        assert w.samples.tolist() == [200.0] * 4 + [-200.0] * 4

    def test_single_angle_at_eighth_period(self):
        # phases 0, pi/4, ... with the transition exactly on a sample: the
        # post-transition level is taken, and the mirror copies it forward
        p = SwitchingPattern((math.pi / 4,), (1,), 1, 1.0)
        w = synthesize(p, 8)
        assert w.samples.tolist() == [0.0, 1.0, 1.0, 1.0, 0.0, -1.0, -1.0, -1.0]

    @pytest.mark.parametrize("n", [0, 2, 6, 10, -4])
    def test_bad_sample_counts(self, n):
        p = SwitchingPattern((0.0,), (1,), 1, 200.0)
        with pytest.raises(ShePwmError, match="positive multiple of 4"):
            synthesize(p, n)

    def test_zero_mean(self, rng):
        for _ in range(20):
            p = random_valid_pattern(rng)
            w = synthesize(p, 4096)
            assert abs(float(np.mean(w.samples))) <= 1e-12 * p.vdc_per_cell

    def test_half_wave_antisymmetry_is_exact(self, rng):
        for _ in range(20):
            p = random_valid_pattern(rng)
            v = synthesize(p, 256).samples
            assert np.array_equal(v[128:], -v[:128])

    def test_quarter_mirror_is_exact(self, rng):
        # v(pi - phi_i) lands on sample N/2 - i and must equal sample i
        for _ in range(20):
            p = random_valid_pattern(rng)
            v = synthesize(p, 256).samples
            for i in range(1, 64):
                assert v[128 - i] == v[i]

    def test_level_bound(self, rng):
        for _ in range(20):
            p = random_valid_pattern(rng)
            v = synthesize(p, 512).samples
            assert np.max(np.abs(v)) <= p.cells * p.vdc_per_cell + 1e-12

    @given(
        raw=st.lists(
            st.floats(min_value=0.0, max_value=HALF_PI), min_size=6, max_size=6
        ),
        log_n=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_properties_hold_for_default_signs(self, raw, log_n):
        angles = tuple(sorted(raw))
        p = SwitchingPattern(angles, DEFAULT_SIGNS_K6, 2, 200.0)
        n = 4 * 2**log_n
        v = synthesize(p, n).samples
        assert v.size == n
        assert np.array_equal(v[n // 2 :], -v[: n // 2])
        assert np.max(np.abs(v)) <= 2 * 200.0


class TestWaveformSamples:
    def test_rejects_odd_count(self):
        with pytest.raises(ShePwmError, match="even sample count"):
            WaveformSamples(samples=np.array([1.0, -1.0, 0.5]))

    def test_rejects_asymmetric_data(self):
        with pytest.raises(ShePwmError, match="half-wave symmetry"):
            WaveformSamples(samples=np.array([1.0, 1.0, -1.0, 0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_samples(self, bad):
        # the symmetry check cannot see these: NaN fails every comparison,
        # and an infinite peak makes its tolerance infinite
        with pytest.raises(ShePwmError, match="must be finite"):
            WaveformSamples(samples=np.array([bad, 1.0, bad, -1.0]))

    @pytest.mark.parametrize("shape", [(8, 1), (2, 4), (1, 8), ()])
    def test_rejects_samples_not_one_dimensional(self, shape):
        # a column of samples would pass the count and symmetry checks and
        # then break dft_spectrum and waveform_csv
        message = f"waveform samples must be one-dimensional, got shape {shape}"
        with pytest.raises(ShePwmError, match=f"^{re.escape(message)}$"):
            WaveformSamples(samples=np.zeros(shape))

    @pytest.mark.parametrize("bad", ["abcd", ["a", "b", "c", "d"], np.full(4, 1j),
                                     [0.0, 1.0 + 1j, 0.0, -1.0 - 1j], [None] * 4], ids=repr)
    def test_rejects_samples_that_are_not_real(self, bad):
        # refused by name, not cast: a complex sample would lose its
        # imaginary part
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShePwmError, match="^samples must be (a )?real number"):
                WaveformSamples(samples=bad)

    def test_takes_integer_samples_by_value(self):
        # numpy keeps a list holding 2**70 as objects; each is a real
        w = WaveformSamples(samples=[0, 2**70, 0, -(2**70)])
        assert w.samples.dtype == np.float64
        assert w.samples.tolist() == [0.0, 2.0**70, 0.0, -(2.0**70)]

    def test_accepts_numerically_symmetric_sine(self):
        n = 64
        v = np.sin(2 * np.pi * np.arange(n) / n)
        WaveformSamples(samples=v)

    def test_phases(self):
        p = SwitchingPattern((0.0,), (1,), 1, 1.0)
        w = synthesize(p, 8)
        assert np.allclose(w.phases, 2 * np.pi * np.arange(8) / 8)


def test_waveform_csv():
    p = SwitchingPattern((0.0,), (1,), 1, 200.0)
    w = synthesize(p, 8)
    lines = "".join(waveform_csv(w)).splitlines()
    assert lines[0] == "phase_rad,voltage_v"
    assert len(lines) == 9
    phi, v = lines[1].split(",")
    assert float(phi) == 0.0 and float(v) == 200.0
