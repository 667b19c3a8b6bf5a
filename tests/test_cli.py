import json
import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shepwm
from shepwm import PsoConfig, SheProblem, build_lookup, cli, cost, errors, pattern, solve
from shepwm.dclink import read_lookup_csv
from shepwm.errors import ShePwmError
from shepwm.harmonics import DEFAULT_MAX_ORDER

from conftest import run_cli

FAST = ["--swarm", "12", "--iterations", "30", "--restarts", "1"]
K8_SIGNS = "1,-1,1,1,-1,1,-1,-1"


def test_launch_from_foreign_cwd(tmp_path):
    # the child must import the same package from a directory that holds
    # no `src`, as every file-writing test below runs it there
    out = run_cli(["--version"], cwd=tmp_path)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout.decode().strip() == shepwm.__version__


class TestSolve:
    def test_deterministic_stdout(self):
        args = ["solve", "--pu", "1.0", "--seed", "42", *FAST]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        doc = json.loads(a.stdout)
        assert doc["target_pu"] == 1.0
        assert set(doc["residuals_pu"]) == {"3", "5", "7", "9", "11"}
        assert len(doc["angles_rad"]) == 6

    def test_diagnostics_report_every_restart(self):
        out = run_cli(["solve", "--pu", "0.6", "--seed", "4", "--swarm", "8",
                       "--iterations", "20", "--restarts", "3"])
        assert out.returncode == 0, out.stderr.decode()
        diag = json.loads(out.stdout)["diagnostics"]
        values = diag["restart_values"]
        assert len(values) == len(diag["restart_converged"]) == 3
        assert diag["winning_restart"] == values.index(min(values))
        assert diag["best_value"] == values[diag["winning_restart"]]
        assert diag["converged_iteration"] == (
            diag["restart_converged"][diag["winning_restart"]]
        )

    @pytest.mark.parametrize(
        "pu, seed, layout",
        [(0.8, 1, []), (0.8, 7, []), (0.3, 42, []),
         (0.8, 5, ["--cells", "2", "--angles-per-cell", "4", "--signs", K8_SIGNS])],
        ids=["m0.8-seed1", "m0.8-seed7", "m0.3-seed42", "k8-seed5"],
    )
    def test_reported_cost_is_the_best_value(self, pu, seed, layout):
        # one arithmetic for the swarm and the report: a solve states one cost
        problem = SheProblem(target_m=pu)
        if layout:
            problem = SheProblem(target_m=pu, cells=2, angles_per_cell=4,
                                 sign_pattern=tuple(int(s) for s in K8_SIGNS.split(",")))
        sol = solve(problem, PsoConfig(seed=seed))
        best = sol.diagnostics.best_value
        assert sol.cost == best
        assert cost(sol.pattern.angles, problem) == best
        out = run_cli(["solve", "--pu", str(pu), "--seed", str(seed), *layout])
        assert out.returncode == 0, out.stderr.decode()
        doc = json.loads(out.stdout)
        assert doc["cost"] == doc["diagnostics"]["best_value"] == best

    def test_degrees_flag(self):
        out = run_cli(["solve", "--pu", "0.5", "--seed", "1", *FAST, "--degrees"])
        assert out.returncode == 0, out.stderr.decode()
        doc = json.loads(out.stdout)
        assert "angles_deg" in doc and "angles_rad" not in doc
        assert all(0.0 <= a <= 90.0 for a in doc["angles_deg"])

    def test_zero_target_reports_null_thd(self):
        # exact zero output is reachable (coincident angles cancel pairwise),
        # and THD is undefined there rather than an error
        out = run_cli(
            ["solve", "--pu", "0", "--seed", "3", "--swarm", "30",
             "--iterations", "800", "--restarts", "2"]
        )
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["fundamental_pu"] == 0.0
        assert doc["thd_pct"] is None
        assert doc["feasible"] is True

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_fundamental_v_is_the_table_figure(self, seed, tmp_path, capsys):
        # one closed-form spectrum gives both: the same text, not one ulp off
        flags = ["--seed", str(seed), "--iterations", "40", "--restarts", "2"]
        assert cli.main(["solve", "--pu", "1.0", *flags]) == 0
        solved = json.loads(capsys.readouterr().out, parse_float=str)
        out = tmp_path / "t.csv"
        assert cli.main(["table", "--pu-grid", "1.0", *flags, "--out", str(out)]) in (0, 1)
        header, row = out.read_text().splitlines()
        column = header.split(",").index("fundamental_v")
        assert solved["fundamental_v"] == row.split(",")[column]

    def test_out_file_matches_stdout_and_has_manifest(self, tmp_path):
        out = run_cli(
            ["solve", "--pu", "0.8", "--seed", "7", *FAST, "--out", "sol.json"],
            cwd=tmp_path,
        )
        assert out.returncode == 0
        assert (tmp_path / "sol.json").read_bytes() == out.stdout
        manifest = json.loads((tmp_path / "sol.json.manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["seed"] == 7
        assert set(manifest) == {"command", "config", "seed", "version", "timestamp"}
        assert manifest["config"]["pso"]["swarm_size"] == 12
        assert manifest["config"]["problem"]["vdc_per_cell"] == 200.0
        assert "timestamp" in manifest and "version" in manifest


# 30,000 angles at the analysis plan's largest order: a recurrence stack of
# over 100 GB, which only the spectrum's plan refuses before it is built
WIDE_SPECTRUM = ["analyze", "--angles", ",".join(["0"] * 30000),
                 "--signs", ",".join(["1", "-1"] * 15000), "--max-order", "894784"]
# counts the library refuses, not argparse: one error line and no usage block
ONE_LINE = [
    ["solve", "--pu", "0.5", "--seed", "1", "--max-order", "0"],
    ["table", "--pu-grid", "0.5,1.0", "--seed", "1", "--out", "t.csv",
     "--max-order", "0"],
    ["analyze", "--angles", "0.1", "--signs", "1", "--samples", "0"],
    # counts past their plans, refused before anything is allocated
    ["solve", "--pu", "0.5", "--seed", "1", "--max-order", "1000000000"],
    ["analyze", "--angles", "0.1", "--signs", "1", "--max-order", "1000000000"],
    ["analyze", "--angles", "0.1", "--signs", "1", "--samples", "4000000000",
     "--emit-waveform", "w.csv"],
    # a swarm larger than any address space, refused by the swarm's plan
    ["solve", "--pu", "0.5", "--seed", "1", "--swarm", "1000000000000000",
     "--iterations", "1"],
    # a subnormal V_dc holds too few bits for a THD
    ["solve", "--pu", "0.5", "--seed", "1", "--vdc", "1e-320"],
    ["analyze", "--angles", "0.1", "--signs", "1", "--vdc", "1e-320"],
    # counts past a particle row's or a swarm's plan, refused before anything
    # is built
    *(["solve", "--pu", "0.5", "--seed", "1", flag, value] for flag, value in (
        ("--swarm", "100000000000000000000"),
        ("--restarts", "100000000000000000000"),
        ("--iterations", "100000000000000000000"),
        ("--cells", "100000000000000000000"),
        ("--angles-per-cell", "100000000000000000001"),
        ("--eliminate", "3,5,7,9,100000000000000000001"),
    )),
    # a V_dc whose closed form overflows, refused before any swarm runs
    ["solve", "--pu", "0.5", "--seed", "1", "--vdc", "1e308", "--iterations", "10",
     "--restarts", "1"],
    ["analyze", "--angles", "0.1,0.3", "--signs", "1,1", "--vdc", "1e308"],
    WIDE_SPECTRUM,
]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--pu", "1.5", "--seed", "1"],
            ["solve", "--pu", "abc", "--seed", "1"],
            ["solve", "--pu", "0.5", "--seed", "abc"],
            ["solve", "--pu", "0.5"],
            ["solve", "--pu", "0.5", "--seed", "-3"],
            ["sweep", "--pu-grid", "0.5:0.1:0.1", "--seed", "1"],
            ["sweep", "--pu-grid", "0.1:0.5:0", "--seed", "1"],
            ["table", "--pu-grid", "1.5:2.0:0.5", "--seed", "1", "--out", "x.csv"],
            ["frobnicate"],
            ["solve", "--pu", "0.5", "--seed", "1", "--weights", "nan,10"],
            ["solve", "--pu", "0.5", "--seed", "1", "--weights=-1,10"],
            ["solve", "--pu", "0.5", "--seed", "1", "--cognitive", "inf"],
            ["solve", "--pu", "0.5", "--seed", "1", "--social", "nan"],
            ["sweep", "--pu-grid", "nan:1.0:0.1", "--seed", "1"],
            ["sweep", "--pu-grid", "0.1:inf:0.1", "--seed", "1"],
            ["sweep", "--pu-grid", "0.1:1.0:nan", "--seed", "1"],
            ["sweep", "--pu-grid", "0:1:1e-9", "--seed", "1"],
            ["solve", "--pu", "0.5", "--seed", "1", "--swarm", "0"],
            ["solve", "--pu", "0.5", "--seed", "1", "--swarm", "1"],
            ["solve", "--pu", "0.5", "--seed", "1", "--cells", "0"],
            ["solve", "--pu", "0.5", "--seed", "1", "--angles-per-cell", "0"],
            ["solve", "--pu", "0.5", "--seed", "18446744073709551616"],
            ["solve", "--pu", "0.5", "--seed", "1", "--signs", "1,2,1,1,-1,-1"],
            ["analyze", "--angles", "0.1,0.2,0.3,0.4,0.5,0.6",
             "--signs", "1,2,1,1,-1,-1"],
            ["solve", "--pu", "0.5", "--seed", "1", "--iterations", "5",
             "--restarts", "1", "--out", "missing/x.json"],
            ["analyze", "--angles", "0.1,0.2", "--signs", "1,-1",
             "--emit-spectrum", "missing/sp.csv"],
            ["analyze", "--angles", "", "--signs", ""],
            ["sweep", "--pu-grid", "0.5", "--seed", "1", "--jobs", "0"],
            *ONE_LINE,
        ],
    )
    def test_exit_code_2(self, args, tmp_path):
        out = run_cli(args, cwd=tmp_path)
        assert out.returncode == 2
        stderr = out.stderr.decode()
        assert "Traceback" not in stderr
        assert sum("error:" in line for line in stderr.splitlines()) == 1, stderr
        if args in ONE_LINE:
            assert stderr.startswith("shepwm: error: ")
            assert "out of memory" not in stderr
            assert len(stderr.splitlines()) == 1, stderr
        if args is WIDE_SPECTRUM:
            assert stderr.startswith("shepwm: error: the spectrum plans "), stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--pu", "0.5", "--seed", "1", *FAST, "--out", "missing/x.json"],
            ["analyze", "--angles", "0.1,0.2", "--signs", "1,-1",
             "--emit-waveform", "ok.csv", "--emit-spectrum", "missing/sp.csv"],
            ["table", "--pu-grid", "0.5,1.0", "--seed", "1", *FAST,
             "--out", "t.csv", "--json-out", "missing/t.json"],
            # the waveform cannot be rendered: 6 samples is not a multiple of 4
            ["analyze", "--angles", "0.1,0.2", "--signs", "1,-1",
             "--samples", "6", "--emit-waveform", "wf.csv"],
            # two outputs that name the same file
            ["table", "--pu-grid", "0.5,1.0", "--seed", "1", *FAST,
             "--out", "t.csv", "--json-out", "t.csv"],
            ["table", "--pu-grid", "0.5,1.0", "--seed", "1", *FAST,
             "--out", "t.csv", "--json-out", "t.csv.manifest.json"],
            ["analyze", "--angles", "0.1,0.2", "--signs", "1,-1",
             "--emit-waveform", "x.csv", "--emit-spectrum", "./x.csv"],
        ],
    )
    def test_failed_output_leaves_nothing(self, args, tmp_path):
        out = run_cli(args, cwd=tmp_path)
        assert out.returncode == 2
        assert out.stdout == b""
        stderr = out.stderr.decode()
        assert sum("error:" in line for line in stderr.splitlines()) == 1, stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (["--max-order", "894785"],
         "the analysis plans 1073742000 bytes, over the budget of 1073741824: "
         "max_order 894785"),
        (["--samples", "33554436", "--emit-waveform", "w.csv"],
         "the waveform plans 1073741952 bytes, over the budget of 1073741824: "
         "n_samples 33554436"),
    ], ids=["max-order", "samples"])
    def test_analyze_refuses_one_past_its_thresholds(self, monkeypatch, capsys, tmp_path,
                                                     flags, message):
        # 1200 B per order and 32 B per sample against 2^30: order 894,784
        # and 33,554,432 samples (a multiple of 4) are the last admitted
        assert cli.ORDER_BYTES * 894_784 <= errors.COUNT_BUDGET_BYTES
        assert pattern.SAMPLE_BYTES * 33_554_432 <= errors.COUNT_BUDGET_BYTES
        monkeypatch.chdir(tmp_path)
        assert cli.main(["analyze", "--angles", "0.1", "--signs", "1", *flags]) == 2
        assert capsys.readouterr().err == f"shepwm: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("budget, flags, admitted, refused, message", [
        (1200 * 60, ["--max-order"], "60", "61",
         "the analysis plans 73200 bytes, over the budget of 72000: max_order 61"),
        # the next count synthesize takes is 4 samples on
        (32 * 1024, ["--max-order", "9", "--emit-waveform", "w.csv", "--samples"], "1024",
         "1028", "the waveform plans 32896 bytes, over the budget of 32768: n_samples 1028"),
    ], ids=["max-order", "samples"])
    def test_analyze_admits_up_to_its_plans(self, monkeypatch, capsys, tmp_path, budget,
                                            flags, admitted, refused, message):
        # the thresholds above, scaled down with the budget so that the
        # admitted count runs end to end
        monkeypatch.setattr(errors, "COUNT_BUDGET_BYTES", budget)
        monkeypatch.chdir(tmp_path)
        command = ["analyze", "--angles", "0.1", "--signs", "1", *flags]
        assert cli.main([*command, admitted]) == 0
        capsys.readouterr()
        assert cli.main([*command, refused]) == 2
        assert capsys.readouterr().err == f"shepwm: error: {message}\n"

    @pytest.mark.parametrize("command", ["solve", "sweep", "table", "compare"])
    def test_spectrum_is_planned_before_any_swarm(self, monkeypatch, capsys, tmp_path,
                                                  command):
        # K = 230 solves within budget, but its spectrum at order 894,784 plans
        # past it; the solver commands refuse that before the swarm runs
        def no_swarm(*args, **kwargs):
            raise AssertionError("a swarm ran before the spectrum was planned")

        monkeypatch.setattr(shepwm.she, "minimize_stacked", no_swarm)
        target = ["--pu", "0.5"] if command == "solve" else ["--pu-grid", "0.5,1.0"]
        out = [] if command in ("solve", "sweep") else ["--out", str(tmp_path / "o.csv")]
        assert cli.main([command, *target, *out, "--seed", "1", "--cells", "230",
                         "--angles-per-cell", "1", "--max-order", "894784"]) == 2
        assert capsys.readouterr().err == (
            "shepwm: error: the spectrum plans 1107742680 bytes, over the budget of "
            "1073741824: K 230, max_order 894784\n")

    def test_runtime_domain_error_is_exit_2(self, tmp_path):
        # grid value 0 parses but has no defined THD row
        out = run_cli(
            ["table", "--pu-grid", "0,0.5", "--seed", "1", *FAST, "--out", "t.csv"],
            cwd=tmp_path,
        )
        assert out.returncode == 2
        assert b"error" in out.stderr

    def test_subnormal_row_fundamental_is_exit_2(self, tmp_path):
        # v_pu * the base fundamental would lose bits, and the CSV could not
        # be read back; the table is refused before anything is written
        out = run_cli(
            ["table", "--pu-grid", "3.40313263e-315,8.255770465e-315", "--seed", "1",
             *FAST, "--out", "t.csv", "--json-out", "t.json"],
            cwd=tmp_path,
        )
        assert out.returncode == 2
        assert out.stdout == b""
        stderr = out.stderr.decode()
        assert "is subnormal" in stderr and len(stderr.splitlines()) == 1, stderr
        assert list(tmp_path.iterdir()) == []

    def test_subnormal_compare_row_is_exit_2(self, tmp_path):
        # compare's proposed side is the lookup table, held to the same rule
        out = run_cli(
            ["compare", "--pu-grid", "3.40313263e-315,8.255770465e-315", "--seed", "1",
             *FAST, "--out", "c.csv"],
            cwd=tmp_path,
        )
        assert out.returncode == 2
        assert out.stdout == b""
        stderr = out.stderr.decode()
        assert "is subnormal" in stderr and len(stderr.splitlines()) == 1, stderr
        assert list(tmp_path.iterdir()) == []


class TestSolverConfig:
    @pytest.mark.parametrize(
        "argv, target_m, extra",
        [
            (["solve", "--pu", "0.7"], 0.7, {"max_order", "degrees", "out"}),
            (["sweep", "--pu-grid", "0.5"], 1.0, {"pu_grid", "max_order", "jobs", "out"}),
            (["table", "--pu-grid", "0.5", "--out", "t.csv"], 1.0,
             {"pu_grid", "max_order", "out", "json_out"}),
            (["compare", "--pu-grid", "0.5", "--out", "c.csv"], 1.0,
             {"pu_grid", "max_order", "jobs", "out"}),
        ],
    )
    def test_defaults_are_the_dataclass_defaults(self, argv, target_m, extra):
        args = cli.build_parser().parse_args([*argv, "--seed", "5"])
        problem, pso, config = cli._configs(args, target_m)
        assert problem == SheProblem(target_m=target_m)
        assert pso == PsoConfig(seed=5)
        assert set(config) == {"problem", "pso", *extra}
        assert config["problem"] == asdict(problem)
        assert config["pso"] == asdict(pso)
        assert config["max_order"] == DEFAULT_MAX_ORDER

    def test_analyze_vdc_default_is_the_problem_default(self):
        args = cli.build_parser().parse_args(["analyze", "--angles", "0", "--signs", "1"])
        assert args.vdc == SheProblem(target_m=1.0).vdc_per_cell
        assert args.max_order == DEFAULT_MAX_ORDER


# Fragments for the in-process argv property: valid values next to broken
# ones (non-finite grid parts, NaN or negative weights, non-finite swarm
# coefficients, empty, inverted or oversized grids, out-of-range targets and
# seeds).
GRIDS = ["0.5", "0.2,1.0", "0.1:1.0:0.3", "1.0", "", ",", "0,0.5",
         "nan:1.0:0.1", "0.1:inf:0.1", "0.1:1.0:nan", "-inf:1:0.5", "0.1:1.0:-0.1",
         "0.5:0.1:0.1", "0.1:0.5:0", "nan,0.5", "inf", "-0.1,0.5", "a:b:c", "1:2",
         "0:1:1e-9"]
TARGETS = ["0.5", "1.0", "0", "nan", "inf", "1.5", "-0.1", "x"]
SEEDS = ["1", "0", "18446744073709551615", "18446744073709551616", "-3", "x"]
WEIGHTS = ["100,10", "0,0", "nan,10", "10,nan", "-1,10", "10,-0.5", "inf,1", "1",
           "a,b", ""]
COEFFICIENTS = ["2.0", "0", "0.5", "1e300", "nan", "inf", "-inf", "-1"]
SWARM_FLAGS = ["--cognitive", "--social", "--inertia-start", "--inertia-end",
               "--velocity-clamp"]
TINY_SOLVE = ["--iterations", "2", "--restarts", "1", "--swarm", "3"]


@st.composite
def solver_argv(draw):
    command = draw(st.sampled_from(["solve", "sweep", "table", "compare"]))
    if command == "solve":
        argv = [command, f"--pu={draw(st.sampled_from(TARGETS))}"]
    else:
        argv = [command, f"--pu-grid={draw(st.sampled_from(GRIDS))}"]
    argv += [f"--seed={draw(st.sampled_from(SEEDS))}", *TINY_SOLVE]
    if draw(st.booleans()):
        argv.append(f"--weights={draw(st.sampled_from(WEIGHTS))}")
    for flag in draw(st.lists(st.sampled_from(SWARM_FLAGS), unique=True, max_size=3)):
        argv.append(f"{flag}={draw(st.sampled_from(COEFFICIENTS))}")
    return argv


@given(argv=solver_argv())
@settings(max_examples=150, deadline=None)
def test_any_solver_argv_exits_0_1_or_2(argv, tmp_path_factory):
    # in-process, so a traceback surfaces as the exception that caused it
    if argv[0] != "solve":
        out = tmp_path_factory.mktemp("argv") / "out.csv"
        argv = [*argv, "--out", str(out)]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), argv


class TestAnalyze:
    def test_square_wave_thd(self):
        out = run_cli(
            ["analyze", "--angles", "0", "--signs", "1", "--vdc", "200",
             "--max-order", "49"]
        )
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        expected = math.sqrt(sum(1.0 / n**2 for n in range(3, 50, 2)))
        assert doc["thd"] == pytest.approx(expected, rel=1e-12)
        assert doc["fundamental_v"] == pytest.approx(4 * 200 / math.pi, rel=1e-12)
        assert doc["cells"] == 1

    def test_degrees_input(self):
        rad = run_cli(["analyze", "--angles", str(math.pi / 4), "--signs", "1"])
        deg = run_cli(["analyze", "--angles", "45", "--signs", "1", "--degrees"])
        assert rad.returncode == 0, rad.stderr.decode()
        assert deg.returncode == 0, deg.stderr.decode()
        assert (
            json.loads(rad.stdout)["thd"] == json.loads(deg.stdout)["thd"]
        )

    def test_emits_waveform_and_spectrum(self, tmp_path):
        out = run_cli(
            ["analyze", "--angles", "0.2,0.5", "--signs", "1,1", "--vdc", "100",
             "--samples", "64", "--max-order", "9",
             "--emit-waveform", "wf.csv", "--emit-spectrum", "sp.csv"],
            cwd=tmp_path,
        )
        assert out.returncode == 0
        wf = (tmp_path / "wf.csv").read_text().splitlines()
        assert wf[0] == "phase_rad,voltage_v"
        assert len(wf) == 65
        sp = (tmp_path / "sp.csv").read_text().splitlines()
        assert sp[0] == "order,magnitude_v,magnitude_pct_of_fundamental"
        assert len(sp) == 10
        assert (tmp_path / "wf.csv.manifest.json").exists()
        assert (tmp_path / "sp.csv.manifest.json").exists()

    def test_cells_inferred_from_signs(self):
        out = run_cli(["analyze", "--angles", "0.1,0.4", "--signs", "1,1"])
        assert out.returncode == 0, out.stderr.decode()
        assert json.loads(out.stdout)["cells"] == 2

    def test_invalid_pattern_is_exit_2(self):
        out = run_cli(["analyze", "--angles", "0.5,0.1", "--signs", "1,1"])
        assert out.returncode == 2


# the THD at any admissible V_dc is the THD at 200 V, to rounding
EXTREME_VDC = {
    "analyze": ["analyze", "--angles", "0.1,0.3", "--signs", "1,1", "--max-order", "3"],
    "solve": ["solve", "--pu", "0.5", "--seed", "1", *FAST],
}


@pytest.mark.parametrize("vdc", ["1e300", "1e-300"])
@pytest.mark.parametrize("command", EXTREME_VDC)
def test_thd_at_an_extreme_vdc_is_the_thd_at_200_v(command, vdc):
    docs = []
    for volts in ("200", vdc):
        out = run_cli([*EXTREME_VDC[command], "--vdc", volts])
        assert out.returncode == 0, out.stderr.decode()
        docs.append(json.loads(out.stdout))
    assert docs[1]["thd_pct"] == pytest.approx(docs[0]["thd_pct"], rel=1e-14)
    assert docs[1]["thd_pct"] > 0.0


class TestTable:
    def test_roundtrip_matches_library(self, tmp_path):
        out = run_cli(
            ["table", "--pu-grid", "0.2:1.0:0.2", "--seed", "11", *FAST,
             "--out", "t.csv"],
            cwd=tmp_path,
        )
        assert out.returncode == 1  # six-angle base point cannot be feasible
        parsed = read_lookup_csv(tmp_path / "t.csv")
        expected = build_lookup(
            [0.2, 0.4, 0.6, 0.8, 1.0],
            PsoConfig(seed=11, swarm_size=12, iterations=30, restarts=1),
            SheProblem(target_m=1.0),
        )
        assert parsed == expected

    def test_feasible_base_exits_zero(self, tmp_path):
        out = run_cli(
            ["table", "--pu-grid", "0.5,1.0", "--seed", "1",
             "--angles-per-cell", "4", "--signs", K8_SIGNS,
             "--iterations", "2000", "--out", "t.csv"],
            cwd=tmp_path,
        )
        assert out.returncode == 0
        rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
        assert all(r.split(",")[4] == "true" for r in rows)

    def test_json_mirror(self, tmp_path):
        out = run_cli(
            ["table", "--pu-grid", "0.5,1.0", "--seed", "2", *FAST,
             "--out", "t.csv", "--json-out", "t.json"],
            cwd=tmp_path,
        )
        assert out.returncode == 1, out.stderr.decode()  # infeasible base
        assert (tmp_path / "t.json").exists(), out.stderr.decode()
        doc = json.loads((tmp_path / "t.json").read_text())
        parsed = read_lookup_csv(tmp_path / "t.csv")
        assert [r["v_pu"] for r in doc["rows"]] == [r.v_pu for r in parsed.rows]
        assert doc["rows"][0]["angles_rad"] == list(parsed.rows[0].angles)


class TestCompare:
    def test_grid_and_shared_row(self, tmp_path):
        out = run_cli(
            ["compare", "--pu-grid", "0.1:1.0:0.1", "--seed", "42", *FAST,
             "--out", "cmp.csv"],
            cwd=tmp_path,
        )
        # six-angle base point is infeasible; the table is still written
        assert out.returncode == 1, out.stderr.decode()
        assert (tmp_path / "cmp.csv").exists(), out.stderr.decode()
        lines = (tmp_path / "cmp.csv").read_text().splitlines()
        assert len(lines) == 11
        v_pus = [float(l.split(",")[0]) for l in lines[1:]]
        assert v_pus == [round(0.1 * i, 12) for i in range(1, 11)]
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert last[3] == "-"
        assert last[1] == last[2]

    def test_rerun_and_parallel_byte_identical(self, tmp_path):
        base = ["compare", "--pu-grid", "0.3:1.0:0.35", "--seed", "9", *FAST]
        for extra in (["--out", "a.csv"], ["--out", "b.csv"],
                      ["--jobs", "3", "--out", "c.csv"]):
            out = run_cli([*base, *extra], cwd=tmp_path)
            assert out.returncode == 1, out.stderr.decode()  # infeasible base
            assert (tmp_path / extra[-1]).exists(), out.stderr.decode()
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        assert a == (tmp_path / "c.csv").read_bytes()


class TestSweep:
    def test_stdout_csv(self):
        out = run_cli(["sweep", "--pu-grid", "0.2,0.8", "--seed", "6", *FAST])
        assert out.returncode == 0
        lines = out.stdout.decode().splitlines()
        assert lines[0].startswith("target_pu,feasible,cost,fundamental_pu,thd_pct")
        assert len(lines) == 3
        assert [float(l.split(",")[0]) for l in lines[1:]] == [0.2, 0.8]

    def test_grid_colon_syntax(self):
        out = run_cli(["sweep", "--pu-grid", "0.1:0.3:0.1", "--seed", "6", *FAST])
        assert out.returncode == 0, out.stderr.decode()
        lines = out.stdout.decode().splitlines()
        assert [float(l.split(",")[0]) for l in lines[1:]] == [0.1, 0.2, 0.3]

    def test_parallel_byte_identical(self, tmp_path):
        base = ["sweep", "--pu-grid", "0.25,0.5,0.75", "--seed", "8", *FAST]
        for extra in (["--out", "s1.csv"], ["--jobs", "2", "--out", "s2.csv"]):
            out = run_cli([*base, *extra], cwd=tmp_path)
            assert out.returncode == 0, out.stderr.decode()
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
        assert (tmp_path / "s1.csv.manifest.json").exists()
