import json
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shepwm import (
    LookupTable,
    PsoConfig,
    SheProblem,
    SwitchingPattern,
    analytic_harmonic,
    analytic_spectrum,
    build_lookup,
    compare_methods,
    derive_seed,
    pattern_thd,
    solve,
)
from shepwm import dclink
from shepwm.dclink import comparison_csv, lookup_csv, lookup_json, read_lookup_csv
from shepwm.errors import ShePwmError

GRID10 = [round(0.1 * i, 12) for i in range(1, 11)]
FAST = dict(iterations=60, restarts=2, swarm_size=20)
K8_SIGNS = (1, -1, 1, 1, -1, 1, -1, -1)


@pytest.fixture(scope="module")
def small_compare():
    return compare_methods(
        GRID10, PsoConfig(seed=4, **FAST), SheProblem(target_m=1.0)
    )


@pytest.fixture(scope="module")
def base_solution():
    return solve(SheProblem(target_m=1.0), PsoConfig(seed=4, **FAST))


class TestBuildLookup:
    def test_shared_angles_and_duties(self):
        table = build_lookup(
            GRID10, PsoConfig(seed=4, **FAST), SheProblem(target_m=1.0)
        )
        assert len(table.rows) == 10
        assert [r.v_pu for r in table.rows] == GRID10
        first = table.rows[0].angles
        for r in table.rows:
            assert r.angles == first
            assert r.duty == r.v_pu
            assert r.method == "proposed"

    def test_thd_constant_across_rows(self):
        table = build_lookup(
            GRID10, PsoConfig(seed=4, **FAST), SheProblem(target_m=1.0)
        )
        anchor = table.rows[-1].thd
        for r in table.rows:
            assert r.thd == anchor

    def test_rows_match_per_row_analysis_of_scaled_pattern(self, base_solution):
        # oracle: each row against the analysis of the base pattern with
        # every cell's DC link scaled by the duty
        pat = base_solution.pattern
        table = build_lookup(
            GRID10,
            PsoConfig(seed=4, **FAST),
            SheProblem(target_m=1.0),
            base_solution=base_solution,
        )
        for r in table.rows:
            scaled = SwitchingPattern(
                r.angles, pat.signs, pat.cells, pat.vdc_per_cell * r.v_pu
            )
            assert abs(r.thd - pattern_thd(scaled, 49)) <= 1e-12
            expected = abs(analytic_harmonic(scaled, 1))
            assert r.fundamental_v == pytest.approx(expected, rel=4e-16)

    def test_one_spectrum_gives_thd_and_fundamental(self, base_solution, monkeypatch):
        calls = []

        def counting_spectrum(pattern, max_order):
            calls.append(max_order)
            return analytic_spectrum(pattern, max_order)

        monkeypatch.setattr(dclink, "analytic_spectrum", counting_spectrum)
        table = build_lookup(GRID10, PsoConfig(seed=4, **FAST), SheProblem(target_m=1.0),
                             thd_max_order=31, base_solution=base_solution)
        assert calls == [31]
        pat = base_solution.pattern
        assert table.thd == pattern_thd(pat, 31)
        assert table.fundamental_v == abs(analytic_harmonic(pat, 1))

    def test_thd_survives_tiny_duty(self, base_solution):
        # per-row analysis of a pattern scaled to 1e-170 would underflow the
        # squared harmonic magnitudes and read a THD of 0
        table = build_lookup(
            [1e-170, 1.0],
            PsoConfig(seed=4, **FAST),
            SheProblem(target_m=1.0),
            base_solution=base_solution,
        )
        assert table.rows[0].thd == table.rows[1].thd > 0.0

    def test_single_point_grid(self):
        pso = PsoConfig(seed=4, **FAST)
        problem = SheProblem(target_m=1.0)
        table = build_lookup([1.0], pso, problem)
        base = solve(problem, pso)
        assert len(table.rows) == 1
        assert table.rows[0].duty == 1.0
        assert table.rows[0].thd == pattern_thd(base.pattern, 49)

    def test_rows_sorted_regardless_of_input_order(self):
        table = build_lookup(
            [0.9, 0.2, 0.5], PsoConfig(seed=4, **FAST), SheProblem(target_m=1.0)
        )
        assert [r.v_pu for r in table.rows] == [0.2, 0.5, 0.9]

    def test_zero_grid_value_rejected(self):
        with pytest.raises(ShePwmError, match=r"grid value 0.0 outside \(0, 1\]"):
            build_lookup([0.0, 0.5], PsoConfig(seed=4, **FAST), SheProblem(target_m=1.0))

    @pytest.mark.parametrize("v", [-0.1, 1.0000001, 2.0])
    def test_out_of_range_grid_rejected(self, v):
        with pytest.raises(ShePwmError, match=r"outside \(0, 1\]"):
            build_lookup([v], PsoConfig(seed=4, **FAST), SheProblem(target_m=1.0))

    def test_empty_grid_rejected(self):
        with pytest.raises(ShePwmError, match="empty per-unit voltage grid"):
            build_lookup([], PsoConfig(seed=4, **FAST), SheProblem(target_m=1.0))

    def test_feasible_base_fundamental_tracks_command(self):
        problem = SheProblem(
            target_m=1.0, cells=2, angles_per_cell=4, sign_pattern=K8_SIGNS
        )
        table = build_lookup(GRID10, PsoConfig(seed=1, iterations=2000), problem)
        for r in table.rows:
            assert r.feasible
            assert abs(r.fundamental_v / 400.0 - r.v_pu) <= 1.1e-3


class TestCompare:
    def test_full_modulation_row_shared(self, small_compare):
        last = small_compare.rows[-1]
        assert last.v_pu == 1.0
        assert last.improvement is None
        assert last.thd_conventional == last.thd_proposed
        assert (
            small_compare.conventional[-1].pattern.angles
            == small_compare.base_solution.pattern.angles
        )

    def test_improvement_formula(self, small_compare):
        for r in small_compare.rows[:-1]:
            expected = (r.thd_conventional - r.thd_proposed) / r.thd_conventional
            assert r.improvement == expected

    def test_proposed_column_constant(self, small_compare):
        anchor = small_compare.rows[-1].thd_proposed
        for r in small_compare.rows:
            assert abs(r.thd_proposed - anchor) <= 1e-12

    def test_deterministic(self):
        a = compare_methods(
            [0.3, 1.0], PsoConfig(seed=8, **FAST), SheProblem(target_m=1.0)
        )
        b = compare_methods(
            [0.3, 1.0], PsoConfig(seed=8, **FAST), SheProblem(target_m=1.0)
        )
        assert a.rows == b.rows

    def test_parallel_matches_serial(self):
        a = compare_methods(
            [0.2, 0.6, 1.0], PsoConfig(seed=8, **FAST), SheProblem(target_m=1.0)
        )
        b = compare_methods(
            [0.2, 0.6, 1.0],
            PsoConfig(seed=8, **FAST),
            SheProblem(target_m=1.0),
            jobs=2,
        )
        assert a.rows == b.rows

    def test_conventional_seeds_follow_sorted_grid(self):
        # conventional solve i runs under derive_seed(S, i) over the sorted
        # grid; the shared 1.0 point sorts last and takes no index
        pso = PsoConfig(seed=8, **FAST)
        problem = SheProblem(target_m=1.0)
        table = compare_methods([0.7, 1.0, 0.3], pso, problem)
        for i, v in enumerate([0.3, 0.7]):
            expected = solve(
                replace(problem, target_m=v), replace(pso, seed=derive_seed(8, i))
            )
            assert table.conventional[i] == expected
        assert table.conventional[2] is table.base_solution
        # the base solve rides in the same stacked batch under the base seed
        assert table.base_solution == solve(replace(problem, target_m=1.0), pso)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_full_modulation_only_grid(self, jobs):
        # no conventional re-solve is left to run at all
        table = compare_methods(
            [1.0], PsoConfig(seed=8, **FAST), SheProblem(target_m=1.0), jobs=jobs
        )
        assert table.conventional == (table.base_solution,)
        assert len(table.rows) == 1
        assert table.rows[0].improvement is None


LOOKUP_HEADER = "v_pu,method,duty,thd_pct,feasible,fundamental_v,theta_1,theta_2,theta_3"
HALF_ROW = "0.5,proposed,0.5,12.0,true,200.0,0.1,0.2,0.3"


def positive_floats(top_exponent):
    """Floats in (0, 10**top_exponent]: Hypothesis's own draws, which favour
    edge values, and log-uniform ones, which reach every binade, the
    subnormals included."""
    return st.one_of(
        st.floats(0.0, 10.0 ** top_exponent, exclude_min=True),
        st.floats(-323.3, top_exponent).map(lambda e: 10.0 ** e),
    )


class TestIo:
    def test_lookup_csv_roundtrip(self, tmp_path):
        table = build_lookup(
            [0.25, 0.5, 1.0], PsoConfig(seed=4, **FAST), SheProblem(target_m=1.0)
        )
        path = tmp_path / "table.csv"
        path.write_text("".join(lookup_csv(table)))
        back = read_lookup_csv(path)
        assert back == table

    def test_lookup_csv_formats_shared_angles_once(self, monkeypatch):
        table = build_lookup(
            [0.25, 0.5, 0.75, 1.0], PsoConfig(seed=4, **FAST), SheProblem(target_m=1.0)
        )
        expected = "".join(lookup_csv(table))
        calls = []

        def counting_format(value, spec):
            calls.append(value)
            return format(value, spec)

        monkeypatch.setattr(dclink, "format", counting_format, raising=False)
        assert "".join(lookup_csv(table)) == expected
        assert calls == list(table.rows[0].angles)

    def test_lookup_csv_keeps_the_sign_of_a_zero_angle(self, tmp_path):
        table = LookupTable((0.5, 1.0), (-0.0, 0.2, 0.3), 0.2, True, 100.0,
                            200.0, 1, 49)
        text = "".join(lookup_csv(table))
        assert [line.split(",")[6:] for line in text.splitlines()[1:]] == [
            ["-0", "0.20000000000000001", "0.29999999999999999"],
        ] * 2
        path = tmp_path / "table.csv"
        path.write_text(text)
        assert "".join(lookup_csv(read_lookup_csv(path))) == text

    @pytest.mark.parametrize(
        "grid", [[0.03, 0.3, 0.7], [round(0.001 * i, 12) for i in range(1, 1001)]],
        ids=["no-full-modulation", "fine"],
    )
    def test_read_lookup_csv_renders_the_same_bytes(self, tmp_path, base_solution, grid):
        # without v_pu = 1.0 the base fundamental is recovered from a product
        table = build_lookup(grid, PsoConfig(seed=4, **FAST), SheProblem(target_m=1.0),
                             base_solution=base_solution)
        text = "".join(lookup_csv(table))
        path = tmp_path / "table.csv"
        path.write_text(text)
        assert "".join(lookup_csv(read_lookup_csv(path))) == text

    @given(
        grid=st.one_of(
            st.lists(positive_floats(0), min_size=1, max_size=8),
            # subnormal grids, where v_pu * F is most often subnormal
            st.lists(st.integers(1, 2**52 - 1).map(lambda k: k * 5e-324),
                     min_size=1, max_size=8),
        ),
        # and fundamentals of 1 mV to 1 MV, the range a converter has
        fundamental=st.one_of(positive_floats(308),
                              st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e)),
        thd=st.floats(0.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_table_reads_back_to_its_bytes(self, tmp_path_factory, grid,
                                               fundamental, thd):
        # a table is refused when a row's v_pu * F is subnormal; every other
        # v_pu * F is zero or a normal float rounded once
        grid = tuple(sorted(grid))
        try:
            table = LookupTable(grid, (0.1, 0.2, 0.3), thd, False,
                                fundamental, 200.0, 1, 49)
        except ShePwmError as exc:
            assert "is subnormal" in str(exc)
            assert any(0.0 < v * fundamental < sys.float_info.min for v in grid)
            return
        text = "".join(lookup_csv(table))
        path = tmp_path_factory.mktemp("lookup") / "table.csv"
        path.write_text(text)
        back = read_lookup_csv(path, 200.0, 1)
        assert "".join(lookup_csv(back)) == text
        if table.grid[-1] == 1.0:
            assert back.fundamental_v == fundamental

    @pytest.mark.parametrize(
        "header, rows, line",
        [
            (LOOKUP_HEADER, "0.5,proposed,0.5,12.0,true,200.0,0.1,0.2", 2),
            (LOOKUP_HEADER, "0.5,proposed,0.5,12.0,yes,200.0,0.1,0.2,0.3", 2),
            (LOOKUP_HEADER, "0.5,proposed,0.5,abc,true,200.0,0.1,0.2,0.3", 2),
            ("v_pu,method", "0.5,proposed", 1),
            (LOOKUP_HEADER, "0.5,proposed,0.5,-3.0,true,200.0,0.1,0.2,0.3", 2),
            (LOOKUP_HEADER, "0.5,proposed,0.5,inf,true,200.0,0.1,0.2,0.3", 2),
            (LOOKUP_HEADER, "0.5,proposed,0.5,12.0,true,nan,0.1,0.2,0.3", 2),
            (LOOKUP_HEADER, "0.5,proposed,0.5,12.0,true,-200.0,0.1,0.2,0.3", 2),
            (LOOKUP_HEADER, "0.5,proposed,0.5,12.0,true,200.0,0.1,7.0,inf", 2),
            (LOOKUP_HEADER, "0.5,proposed,0.5,12.0,true,200.0,0.1,0.2,nan", 2),
            (LOOKUP_HEADER, "0.5,proposed,0.5,12.0,true,200.0,-0.1,0.2,0.3", 2),
            (LOOKUP_HEADER, "0.5,proposed,0.5,12.0,true,200.0,0.1,0.2,1.6", 2),
            (LOOKUP_HEADER, "0.5,proposed,0.5,12.0,true,200.0,0.3,0.2,0.4", 2),
            (LOOKUP_HEADER, f"{HALF_ROW}\n1.0,proposed,1.0,12.0,true,400.0,0.1,0.2,0.4", 3),
            (LOOKUP_HEADER, f"{HALF_ROW}\n1.0,proposed,1.0,12.5,true,400.0,0.1,0.2,0.3", 3),
            (LOOKUP_HEADER, f"{HALF_ROW}\n1.0,proposed,1.0,12.0,false,400.0,0.1,0.2,0.3", 3),
            (LOOKUP_HEADER, "0.5,proposed,0.7,12.0,true,200.0,0.1,0.2,0.3", 2),
            (LOOKUP_HEADER, "0.5,conventional,0.5,12.0,true,200.0,0.1,0.2,0.3", 2),
            (LOOKUP_HEADER, "0.5,proposed,0.5,12.0,true,200.5,0.1,0.2,0.3\n"
                            "1.0,proposed,1.0,12.0,true,400.0,0.1,0.2,0.3", 2),
            (LOOKUP_HEADER, "", 1),
            (LOOKUP_HEADER, "0.0,proposed,0.0,12.0,true,0.0,0.1,0.2,0.3", 2),
            (LOOKUP_HEADER, f"{HALF_ROW}\n0.25,proposed,0.25,12.0,true,100.0,0.1,0.2,0.3", 3),
        ],
        ids=["short-row", "bad-flag", "bad-number", "foreign-header",
             "negative-thd", "infinite-thd", "nan-fundamental",
             "negative-fundamental", "infinite-angle", "nan-angle",
             "negative-angle", "angle-above-half-pi", "decreasing-angles",
             "other-angles", "other-thd", "other-flag", "duty-not-v_pu",
             "conventional-method", "fundamental-not-scaled", "header-only",
             "zero-v_pu", "descending-v_pu"],
    )
    def test_read_lookup_csv_rejects_malformed_file(self, tmp_path, header, rows, line):
        path = tmp_path / "table.csv"
        path.write_text("\n".join([header, *rows.splitlines()]) + "\n")
        with pytest.raises(ShePwmError, match=f", line {line}: "):
            read_lookup_csv(path)

    def test_lookup_csv_header(self):
        table = build_lookup(
            [0.5], PsoConfig(seed=4, **FAST), SheProblem(target_m=1.0)
        )
        header = "".join(lookup_csv(table)).splitlines()[0]
        assert header == (
            "v_pu,method,duty,thd_pct,feasible,fundamental_v,"
            "theta_1,theta_2,theta_3,theta_4,theta_5,theta_6"
        )

    def test_lookup_json_mirrors_csv(self):
        table = build_lookup(
            [0.5, 1.0], PsoConfig(seed=4, **FAST), SheProblem(target_m=1.0)
        )
        doc = json.loads("".join(lookup_json(table)))
        assert doc["cells"] == 2
        assert doc["base_vdc_per_cell"] == 200.0
        assert len(doc["rows"]) == 2
        assert doc["rows"][0]["v_pu"] == 0.5
        assert doc["rows"][0]["angles_rad"] == list(table.rows[0].angles)
        assert doc["rows"][0]["thd_pct"] == 100.0 * table.rows[0].thd

    def test_comparison_csv(self, small_compare):
        lines = "".join(comparison_csv(small_compare)).splitlines()
        assert lines[0] == (
            "v_pu,thd_conventional_pct,thd_proposed_pct,improvement_pct,"
            "feasible_conventional,feasible_proposed"
        )
        assert len(lines) == 11
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert last[3] == "-"
        for line in lines[1:-1]:
            parts = line.split(",")
            imp = float(parts[3])
            c, p = float(parts[1]), float(parts[2])
            assert imp == pytest.approx(100.0 * (c - p) / c, rel=1e-12)

    @pytest.mark.parametrize(
        "grid, message",
        [((0.5, 0.4), "sorted ascending"), ((0.0, 0.5), r"outside \(0, 1\]"),
         ((0.5, 1.5), r"outside \(0, 1\]"), ((), "empty")],
        ids=["unsorted", "zero", "above-one", "empty"],
    )
    def test_table_type_rejects_bad_grid(self, grid, message):
        with pytest.raises(ShePwmError, match=message):
            LookupTable(grid, (0.1,), 0.2, True, 400.0, 200.0, 1, 49)

    @pytest.mark.parametrize(
        "grid, fundamental, product",
        [((1e-307,), 1e-3, "1e-310"),
         # the first row's product underflows to zero, the second's is subnormal
         ((1.38e-321, 7.614e-321), 0.0017299607635390445, "1.5e-323")],
        ids=["first-row", "after-a-zero-row"],
    )
    def test_table_type_refuses_a_subnormal_row_fundamental(self, grid, fundamental,
                                                            product):
        with pytest.raises(ShePwmError, match=f"row fundamental {product} V .* subnormal"):
            LookupTable(grid, (0.1,), 0.2, True, fundamental, 200.0, 1, 49)
