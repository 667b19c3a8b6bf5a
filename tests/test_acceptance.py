"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria with stochastic solves pin their seeds; determinism of the solver
makes every run of this suite identical on a fixed platform.
"""

import json
import math
import time

import numpy as np
import pytest

from shepwm import (
    PsoConfig,
    SheProblem,
    SwitchingPattern,
    analytic_harmonic,
    analytic_spectrum,
    dft_spectrum,
    minimize,
    segment_integral_harmonic,
    solve,
    synthesize,
    thd,
)

from shepwm.harmonics import _odd_volts, _segment_coefficients

from conftest import random_valid_pattern, run_cli

GRID_ARGS = ["--pu-grid", "0.1:1.0:0.1"]
# Eight angles admit an exact full-modulation solution for this pattern;
# seed 1 is a verified convergent run (max residual 5.6e-05 pu).
K8_SIGNS = (1, -1, 1, 1, -1, 1, -1, -1)


def _report(criterion, ok, detail=""):
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def compare_csv(tmp_path_factory):
    """One full-default comparison run over the 0.1..1.0 grid (criteria 4+5).

    Exit status 1 is expected: with six angles the full-modulation base point
    cannot meet the 1e-3 pu thresholds, and the run flags that while still
    producing the table.
    """
    out = tmp_path_factory.mktemp("acc") / "compare.csv"
    t0 = time.monotonic()
    proc = run_cli(["compare", *GRID_ARGS, "--seed", "9", "--out", str(out)])
    elapsed = time.monotonic() - t0
    assert proc.returncode == 1, proc.stderr.decode()
    assert out.exists(), proc.stderr.decode()
    rows = []
    lines = out.read_text().splitlines()
    for line in lines[1:]:
        v_pu, thd_c, thd_p, imp, _, _ = line.split(",")
        rows.append((float(v_pu), float(thd_c), float(thd_p), imp))
    return rows, elapsed


def test_criterion_1_oracle_equivalence(rng):
    t0 = time.monotonic()
    worst_rel = 0.0
    worst_even = 0.0
    for i in range(1000):
        pat = random_valid_pattern(rng)
        vdc = pat.vdc_per_cell
        # each exact route's orders in one pass, the closed form's 1, 3, ...,
        # 49 and the segment route's 1..49; each is the value its per-order
        # function returns, checked bit for bit at one order
        odd = _odd_volts(pat, 49).tolist()
        assert odd[i % 25] == analytic_harmonic(pat, 2 * (i % 25) + 1)
        cos_coef, sin_coef = _segment_coefficients(pat, 49)
        assert sin_coef[i % 49] == segment_integral_harmonic(pat, i % 49 + 1)
        for n in range(1, 50):
            seg = sin_coef[n - 1]
            assert abs(cos_coef[n - 1]) <= 1e-9 * pat.cells * vdc
            if n % 2 == 0:
                assert analytic_harmonic(pat, n) == 0.0
                worst_even = max(worst_even, abs(seg) / vdc)
                assert abs(seg) <= 1e-9 * vdc
            else:
                ana = odd[n // 2]
                err = abs(seg - ana)
                tol = 1e-10 * max(abs(seg), abs(ana)) + 1e-12 * vdc
                if max(abs(seg), abs(ana)) > 1e-12 * vdc:
                    worst_rel = max(worst_rel, err / max(abs(seg), abs(ana)))
                assert err <= tol
    elapsed = time.monotonic() - t0
    _report(
        1,
        elapsed < 10.0,
        f"1000 patterns x 49 orders, worst odd rel {worst_rel:.1e}, "
        f"worst even {worst_even:.1e} pu, {elapsed:.1f}s",
    )


def test_criterion_2_dft_cross_check(rng):
    # Pointwise sampling of a step waveform folds out-of-band harmonics into
    # every bin; the folded coefficients are bounded by the total variation
    # over 2*pi divided by pi*N. The comparison therefore allows the 1e-2
    # relative tolerance plus that aliasing term (measured worst case is
    # 2.6x TV/(pi*N); 4x leaves headroom). Above a few volts the aliasing
    # term is negligible and this is a pure relative check.
    n_samples = 2**16
    t0 = time.monotonic()
    checked = 0
    worst = 0.0
    for _ in range(100):
        pat = random_valid_pattern(rng)
        total_variation = 4 * len(pat.signs) * pat.vdc_per_cell
        aliasing = 4.0 * total_variation / (math.pi * n_samples)
        spec = dft_spectrum(
            synthesize(pat, n_samples), 49, base_volts=pat.base_volts
        )
        for n in range(1, 50):
            expected = abs(analytic_harmonic(pat, n))
            if expected > 1e-3 * pat.vdc_per_cell:
                err = abs(spec.magnitudes[n] - expected)
                assert err <= 1e-2 * expected + aliasing
                worst = max(worst, err / expected)
                checked += 1
    elapsed = time.monotonic() - t0
    _report(
        2,
        elapsed < 30.0,
        f"{checked} magnitudes checked, worst rel {worst:.1e}, {elapsed:.1f}s",
    )


def test_criterion_3_square_wave_thd_limit():
    square = SwitchingPattern((0.0,), (1,), 1, 200.0)
    value = thd(analytic_spectrum(square, 100001))
    target = math.sqrt(math.pi**2 / 8 - 1)
    err = abs(value - target)
    _report(3, err <= 1e-3, f"thd {value:.6f} vs {target:.6f}, err {err:.1e}")


def test_criterion_4_proposed_thd_invariance(compare_csv):
    rows, _ = compare_csv
    anchor = next(thd_p for v, _, thd_p, _ in rows if v == 1.0)
    spread = max(abs(thd_p - anchor) for _, _, thd_p, _ in rows)
    _report(4, spread <= 1e-12 * 100.0, f"max |thd - anchor| {spread:.2e} pct points")


def test_criterion_5_comparison_trends(compare_csv):
    rows, elapsed = compare_csv
    by_pu = {v: (thd_c, thd_p, imp) for v, thd_c, thd_p, imp in rows}
    low_conv = [by_pu[v][0] for v in (0.1, 0.2, 0.3)]
    cond_a = all(c > 80.0 for c in low_conv)
    imps = []
    for v in (0.1, 0.2, 0.3, 0.4):
        thd_c, thd_p, _ = by_pu[v]
        imps.append(100.0 * (thd_c - thd_p) / thd_c)
    cond_b = all(i >= 60.0 for i in imps)
    cond_c = by_pu[1.0][2] == "-"
    cond_t = elapsed < 300.0
    _report(
        5,
        cond_a and cond_b and cond_c and cond_t,
        f"conv@0.1-0.3 {['%.1f' % c for c in low_conv]}%, "
        f"improvements {['%.1f' % i for i in imps]}%, "
        f"full-modulation improvement "
        f"{'undefined' if cond_c else by_pu[1.0][2]}, {elapsed:.0f}s",
    )


def test_criterion_6_feasible_full_modulation_solve():
    t0 = time.monotonic()
    problem = SheProblem(
        target_m=1.0, cells=2, angles_per_cell=4, sign_pattern=K8_SIGNS
    )
    sol = solve(problem, PsoConfig(seed=1, iterations=2000))
    elapsed = time.monotonic() - t0
    worst = max(sol.residuals_pu.values())
    fund_err = abs(sol.fundamental_pu - 1.0)
    ok = (
        sol.feasible
        and worst <= 1e-3
        and fund_err <= 1e-3
        and elapsed < 60.0
    )
    _report(
        6,
        ok,
        f"feasible={sol.feasible}, worst residual {worst:.1e} pu, "
        f"fundamental err {fund_err:.1e} pu, {elapsed:.1f}s, 5 restarts",
    )


def test_criterion_7_cli_determinism(tmp_path):
    fast = ["--swarm", "12", "--iterations", "30", "--restarts", "1"]

    def run(args, code=0):
        # README exit status: table and compare exit 1 on the infeasible
        # six-angle base point but still write their output; the rest exit 0
        proc = run_cli(args, cwd=tmp_path)
        assert proc.returncode == code, proc.stderr.decode()
        if code == 1:
            out = tmp_path / args[args.index("--out") + 1]
            assert out.exists(), proc.stderr.decode()
        return proc.stdout

    checks = []

    solve_args = ["solve", "--pu", "0.7", "--seed", "21", *fast]
    checks.append(("solve stdout", run(solve_args) == run(solve_args)))

    sweep_args = ["sweep", "--pu-grid", "0.2,0.5,1.0", "--seed", "22", *fast]
    run([*sweep_args, "--out", "s1.csv"])
    run([*sweep_args, "--out", "s2.csv"])
    run([*sweep_args, "--jobs", "3", "--out", "s3.csv"])
    s1 = (tmp_path / "s1.csv").read_bytes()
    checks.append(("sweep rerun", s1 == (tmp_path / "s2.csv").read_bytes()))
    checks.append(("sweep parallel", s1 == (tmp_path / "s3.csv").read_bytes()))

    table_args = ["table", "--pu-grid", "0.5,1.0", "--seed", "23", *fast]
    run([*table_args, "--out", "t1.csv", "--json-out", "t1.json"], code=1)
    run([*table_args, "--out", "t2.csv", "--json-out", "t2.json"], code=1)
    checks.append(
        ("table csv",
         (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes())
    )
    checks.append(
        ("table json",
         (tmp_path / "t1.json").read_bytes() == (tmp_path / "t2.json").read_bytes())
    )

    cmp_args = ["compare", "--pu-grid", "0.4,1.0", "--seed", "24", *fast]
    run([*cmp_args, "--out", "c1.csv"], code=1)
    run([*cmp_args, "--jobs", "2", "--out", "c2.csv"], code=1)
    checks.append(
        ("compare rerun+parallel",
         (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes())
    )

    an_args = ["analyze", "--angles", "0.3,0.8", "--signs", "1,1",
               "--samples", "128", "--emit-waveform", "w.csv",
               "--emit-spectrum", "p.csv"]
    out_a = run([*an_args])
    w1, p1 = (tmp_path / "w.csv").read_bytes(), (tmp_path / "p.csv").read_bytes()
    out_b = run([*an_args])
    checks.append(("analyze stdout", out_a == out_b))
    checks.append(("analyze waveform", w1 == (tmp_path / "w.csv").read_bytes()))
    checks.append(("analyze spectrum", p1 == (tmp_path / "p.csv").read_bytes()))

    manifest = json.loads((tmp_path / "s1.csv.manifest.json").read_text())
    checks.append(
        ("manifest materialized",
         manifest["config"]["pso"]["iterations"] == 30
         and manifest["config"]["problem"]["target_m"] == 1.0
         and manifest["seed"] == 22),
    )

    failed = [name for name, ok in checks if not ok]
    _report(7, not failed, f"{len(checks)} byte-identity checks"
            + (f"; failed: {failed}" if failed else ""))


def test_criterion_8_pso_sanity():
    res = minimize(
        lambda pts, cutoff: np.sum((pts - 0.5) ** 2, axis=1),
        6,
        PsoConfig(seed=2024),
    )
    monotone = bool(np.all(np.diff(res.gbest_history) <= 0.0))
    _report(
        8,
        res.best_value <= 1e-6 and monotone,
        f"best {res.best_value:.2e}, gbest trace nonincreasing={monotone}",
    )
