import json
from dataclasses import replace

import pytest

from shepwm import (
    LookupRow,
    LookupTable,
    PsoConfig,
    SheProblem,
    SwitchingPattern,
    analytic_harmonic,
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

    def test_lookup_csv_renders_each_rows_own_angles(self):
        # rows that do not share the base's tuple, one of them equal in value
        # to its neighbour but for the sign of a zero
        angles = [(0.0, 0.2, 0.3), (-0.0, 0.2, 0.3), (0.1, 0.2, 0.3), (0.1, 0.2, 0.3)]
        rows = tuple(
            LookupRow(v, "proposed", v, 0.2, True, 100.0 * v, a)
            for v, a in zip([0.25, 0.5, 0.75, 1.0], angles)
        )
        lines = "".join(lookup_csv(LookupTable(rows, 200.0, 1, 49))).splitlines()
        assert [line.split(",")[6:] for line in lines[1:]] == [
            ["0", "0.20000000000000001", "0.29999999999999999"],
            ["-0", "0.20000000000000001", "0.29999999999999999"],
            ["0.10000000000000001", "0.20000000000000001", "0.29999999999999999"],
            ["0.10000000000000001", "0.20000000000000001", "0.29999999999999999"],
        ]

    @pytest.mark.parametrize(
        "header, row, line",
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
        ],
        ids=["short-row", "bad-flag", "bad-number", "foreign-header",
             "negative-thd", "infinite-thd", "nan-fundamental",
             "negative-fundamental", "infinite-angle", "nan-angle",
             "negative-angle", "angle-above-half-pi", "decreasing-angles"],
    )
    def test_read_lookup_csv_rejects_malformed_file(self, tmp_path, header, row, line):
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(ShePwmError, match=f"line {line}"):
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

    def test_table_type_rejects_unsorted_rows(self):
        row = LookupRow(0.5, "proposed", 0.5, 0.2, True, 200.0, (0.1,))
        row2 = LookupRow(0.4, "proposed", 0.4, 0.2, True, 160.0, (0.1,))
        with pytest.raises(ShePwmError, match="sorted ascending"):
            LookupTable(
                rows=(row, row2), base_vdc_per_cell=200.0, cells=1, thd_max_order=49
            )

    def test_table_type_enforces_duty_rules(self):
        bad_proposed = LookupRow(0.5, "proposed", 0.7, 0.2, True, 200.0, (0.1,))
        with pytest.raises(ShePwmError, match="must have duty=v_pu"):
            LookupTable((bad_proposed,), 200.0, 1, 49)
        bad_conventional = LookupRow(0.5, "conventional", 0.5, 0.2, True, 200.0, (0.1,))
        with pytest.raises(ShePwmError, match="unknown method"):
            LookupTable((bad_conventional,), 200.0, 1, 49)
        # no lookup row runs at full DC link: a conventional row is refused
        conventional = LookupRow(0.5, "conventional", 1.0, 0.2, True, 200.0, (0.1,))
        with pytest.raises(ShePwmError, match="unknown method"):
            LookupTable((conventional,), 200.0, 1, 49)
        with pytest.raises(ShePwmError, match="unknown method"):
            LookupTable(
                (LookupRow(0.5, "hybrid", 0.5, 0.2, True, 200.0, (0.1,)),),
                200.0, 1, 49,
            )
