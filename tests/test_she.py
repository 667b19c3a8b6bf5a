import concurrent.futures
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shepwm import (
    DEFAULT_SIGNS_K6,
    PsoConfig,
    SheProblem,
    analytic_harmonic,
    cost,
    cost_batch,
    segment_integral_harmonic,
    solve,
    sweep,
)
from shepwm import harmonics, she
from shepwm.errors import ShePwmError
from shepwm.optimizer import derive_seed
from shepwm.she import FUNDAMENTAL_THRESHOLD_PU, RESIDUAL_THRESHOLD_PU

HALF_PI = math.pi / 2

# Eight angles admit an exact solution at full modulation for this sign
# pattern (the six-angle default does not; see the solve tests below).
K8_SIGNS = (1, -1, 1, 1, -1, 1, -1, -1)


def k8_problem(m=1.0):
    return SheProblem(
        target_m=m, cells=2, angles_per_cell=4, sign_pattern=K8_SIGNS
    )


# Problems the batched kernel is checked on: the two paper layouts, a 3-cell
# K=15 layout eliminating orders up to 35, orders that skip values, and no
# orders at all.
KERNEL_PROBLEMS = {
    "k6": SheProblem,
    "k8": k8_problem,
    "k15-to-35": lambda m: SheProblem(
        target_m=m, eliminate_orders=tuple(range(9, 37, 2)), cells=3, angles_per_cell=5
    ),
    "skipped-orders": lambda m: SheProblem(target_m=m, eliminate_orders=(5, 7, 11, 13)),
    "no-orders": lambda m: SheProblem(target_m=m, eliminate_orders=()),
}


def kernel_points(rng, k, rows):
    """Random rows in the box, then rows holding exact 0 and exact pi/2."""
    pts = rng.random((rows, k)) * HALF_PI
    mixed = [0.0, HALF_PI] * (k // 2) + [0.0] * (k % 2)
    edges = np.array([[0.0] * k, [HALF_PI] * k, mixed])
    return np.vstack([pts, edges])


class TestProblemValidation:
    def test_defaults(self):
        p = SheProblem(target_m=0.8)
        assert p.n_angles == 6
        assert p.sign_pattern == DEFAULT_SIGNS_K6
        assert p.eliminate_orders == (3, 5, 7, 9, 11)
        assert p.base_volts == 400.0

    def test_target_out_of_range(self):
        with pytest.raises(ShePwmError, match=r"target_m must be in \[0, 1\]"):
            SheProblem(target_m=1.2)

    def test_too_many_orders(self):
        with pytest.raises(ShePwmError, match="at most 5 eliminations"):
            SheProblem(target_m=0.5, eliminate_orders=(3, 5, 7, 9, 11, 13))

    def test_even_order_rejected(self):
        with pytest.raises(ShePwmError, match="odd and > 1"):
            SheProblem(target_m=0.5, eliminate_orders=(2, 3))

    def test_duplicate_orders_rejected(self):
        with pytest.raises(ShePwmError, match="distinct"):
            SheProblem(target_m=0.5, eliminate_orders=(3, 3, 5))

    def test_sign_pattern_wrong_length(self):
        with pytest.raises(ShePwmError, match="sign pattern length 2"):
            SheProblem(target_m=0.5, sign_pattern=(1, -1))

    def test_sign_pattern_level_violation(self):
        with pytest.raises(ShePwmError, match="level 3 after transition 3 outside"):
            SheProblem(target_m=0.5, sign_pattern=(1, 1, 1, -1, -1, -1))

    @pytest.mark.parametrize("field", ["weight_fundamental", "weight_harmonics"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_weights_must_be_finite_and_nonnegative(self, field, value):
        with pytest.raises(ShePwmError, match=field):
            SheProblem(target_m=0.5, **{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -5.0, 0.0])
    def test_vdc_per_cell_is_a_problem_error_not_a_sign_error(self, value):
        with pytest.raises(ShePwmError, match="vdc_per_cell") as info:
            SheProblem(target_m=0.5, vdc_per_cell=value)
        assert type(info.value) is ShePwmError


class TestKernelConstants:
    """cost_batch's per-problem constants are built once per problem and are
    no part of its identity: equality, hash, replace and pickles are the
    fields'."""

    def test_built_once_per_problem(self, monkeypatch, rng):
        # SheProblem._kernel is the one maker of the constants
        built = []
        real = she._KernelColumns
        monkeypatch.setattr(
            she, "_KernelColumns", lambda **columns: built.append(1) or real(**columns))
        problem = k8_problem(0.7)
        pts = rng.random((20, 8)) * HALF_PI
        for _ in range(3):
            cost_batch(pts, problem)
        assert len(built) == 1
        cost_batch(pts, replace(problem, target_m=0.6))
        assert len(built) == 2
        # packaging each solve reads the problem's constants and makes none
        sweep(k8_problem(0.7), [0.5, 0.7, 0.9],
              PsoConfig(seed=3, swarm_size=8, iterations=5, restarts=1))
        assert len(built) == 3

    def test_not_part_of_equality_hash_or_pickle(self, rng):
        problem = k8_problem(0.7)
        before = pickle.dumps(problem)
        hashed = hash(problem)
        pts = rng.random((20, 8)) * HALF_PI
        want = cost_batch(pts, problem)
        assert "_kernel" in vars(problem)
        assert pickle.dumps(problem) == before and hash(problem) == hashed
        assert problem == replace(problem) == k8_problem(0.7)
        assert "_kernel" not in vars(replace(problem))
        copy = pickle.loads(before)
        assert copy == problem and "_kernel" not in vars(copy)
        assert cost_batch(pts, copy).tobytes() == want.tobytes()
        assert not copy._kernel.scale.flags.writeable


class TestCost:
    def test_two_angle_staircase_frozen_value(self):
        # direct evaluation of the cost formula, cross-checked against the
        # segment-integration oracle when the value was frozen
        problem = SheProblem(
            target_m=0.8,
            eliminate_orders=(3,),
            cells=2,
            angles_per_cell=1,
            sign_pattern=(1, 1),
        )
        assert cost([0.2, 0.8], problem) == pytest.approx(
            26.808909009034167, abs=1e-12
        )
        pat = problem.make_pattern((0.2, 0.8))
        v3 = segment_integral_harmonic(pat, 3) / 400.0
        assert abs(v3) == pytest.approx(0.018661850652501498, rel=1e-10)

    def test_zero_target_all_angles_at_quarter(self):
        problem = SheProblem(target_m=0.0)
        assert cost([HALF_PI] * 6, problem) == 0.0

    def test_nonnegative(self, rng):
        problem = SheProblem(target_m=0.37)
        for _ in range(50):
            x = rng.random(6) * HALF_PI
            assert cost(x, problem) >= 0.0

    @given(
        raw=st.lists(
            st.floats(min_value=0.0, max_value=HALF_PI), min_size=6, max_size=6
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_repair_invariance(self, raw):
        problem = SheProblem(target_m=0.62)
        assert cost(raw, problem) == cost(sorted(raw), problem)

    def test_wrong_length(self):
        with pytest.raises(ShePwmError, match="expected 6 angles"):
            cost([0.1, 0.2], SheProblem(target_m=0.5))

    def test_out_of_box(self):
        with pytest.raises(ShePwmError, match="angles must lie within"):
            cost([0.1, 0.2, 0.3, 0.4, 0.5, 1.7], SheProblem(target_m=0.5))

    @pytest.mark.parametrize("bad", [math.nan, -math.nan, math.inf, -math.inf])
    def test_non_finite_angle_refused(self, bad):
        with pytest.raises(ShePwmError, match="angles must lie within"):
            cost([0.1, 0.2, bad, 0.4, 0.5, 0.6], SheProblem(target_m=0.5))
        with pytest.raises(ShePwmError, match="angles must lie within"):
            cost([bad] * 6, SheProblem(target_m=0.5))

    @pytest.mark.parametrize("name", KERNEL_PROBLEMS)
    def test_batch_matches_scalar(self, rng, name):
        # one arithmetic: the scalar cost is the batch's bits, so a solution
        # reports its optimizer's best value (the closed form itself is held
        # to a math.cos oracle in test_harmonics)
        problem = KERNEL_PROBLEMS[name](0.45)
        pts = kernel_points(rng, problem.n_angles, 40)
        batch = cost_batch(pts, problem)
        for x, b in zip(pts, batch):
            assert cost(x, problem) == b

    @pytest.mark.parametrize("name", KERNEL_PROBLEMS)
    def test_batch_row_bits_independent_of_batching(self, rng, name):
        # the determinism contract needs each row's cost to be the same bits
        # whatever batch it is evaluated in, and whatever its column order
        problem = KERNEL_PROBLEMS[name](0.7)
        pts = kernel_points(rng, problem.n_angles, 25)
        targets = rng.random(len(pts))
        batch = cost_batch(pts, problem, target_m=targets)
        for i in range(len(pts)):
            alone = cost_batch(pts[i : i + 1], problem, target_m=targets[i : i + 1])
            assert alone[0] == batch[i]
        reversed_cols = cost_batch(pts[:, ::-1], problem, target_m=targets)
        assert np.array_equal(reversed_cols, batch)

    @pytest.mark.parametrize("name", KERNEL_PROBLEMS)
    def test_batch_cutoff_skips_only_rows_that_cannot_improve(self, rng, name):
        problem = KERNEL_PROBLEMS[name](0.6)
        pts = kernel_points(rng, problem.n_angles, 60)
        targets = rng.random(len(pts))
        full = cost_batch(pts, problem, target_m=targets)
        levels = [-np.inf, np.inf, *np.quantile(full, [0.1, 0.5, 0.9])]
        cutoffs = [np.full(len(pts), level) for level in levels]
        cutoffs.append(rng.choice(levels, len(pts)))
        skipped = np.zeros(len(pts), dtype=bool)
        for cutoff in cutoffs:
            out = cost_batch(pts, problem, target_m=targets, cutoff=cutoff)
            kept = full < cutoff
            assert np.array_equal(out < cutoff, kept)
            assert out[kept].tobytes() == full[kept].tobytes()
            assert np.all(cutoff[~kept] <= out[~kept])
            assert np.all(out[~kept] <= full[~kept])
            skipped |= out != full
        # only a problem with orders to eliminate has terms left to skip
        assert skipped.any() == bool(problem.eliminate_orders)

    @pytest.mark.parametrize("name", KERNEL_PROBLEMS)
    def test_batch_makes_one_cosine_per_angle(self, rng, monkeypatch, name):
        problem = KERNEL_PROBLEMS[name](0.5)
        pts = rng.random((30, problem.n_angles)) * HALF_PI
        expected = cost_batch(pts, problem)
        cutoff = np.full(len(pts), np.median(expected))
        expected_cut = cost_batch(pts, problem, cutoff=cutoff)
        cosines = []

        class CountingNumpy:
            def __getattr__(self, attr):
                if attr in ("sin", "tan", "arccos", "arcsin", "arctan"):
                    raise AssertionError(f"cost_batch called np.{attr}")
                return getattr(np, attr)

            def cos(self, x, *args, **kwargs):
                cosines.append(np.size(x))
                return np.cos(x, *args, **kwargs)

        # the cosines are taken in harmonics, the kernel's one closed form
        monkeypatch.setattr(she, "np", CountingNumpy())
        monkeypatch.setattr(harmonics, "np", CountingNumpy())
        assert np.array_equal(cost_batch(pts, problem), expected)
        assert np.array_equal(cost_batch(pts, problem, cutoff=cutoff), expected_cut)
        assert cosines == [pts.size, pts.size]

    @pytest.mark.parametrize("cols", [4, 9])
    def test_batch_wrong_column_count(self, rng, cols):
        pts = rng.random((2, cols)) * HALF_PI
        with pytest.raises(ShePwmError, match="expected 6 angles per row"):
            cost_batch(pts, SheProblem(target_m=0.5))

    @pytest.mark.parametrize("make_problem", [SheProblem, k8_problem], ids=["k6", "k8"])
    def test_per_row_targets_match_one_problem_per_row(self, rng, make_problem):
        problem = make_problem(0.7)
        pts = rng.random((30, problem.n_angles)) * HALF_PI
        targets = rng.random(30)
        targets[:3] = (0.0, 1.0, 0.7)
        batch = cost_batch(pts, problem, target_m=targets)
        for i in range(len(pts)):
            alone = replace(problem, target_m=float(targets[i]))
            assert cost_batch(pts[i : i + 1], alone)[0] == batch[i]

    @pytest.mark.parametrize("shape", [(29,), (31,), (30, 1), ()])
    def test_per_row_targets_need_one_per_row(self, rng, shape):
        # the per-row cutoff is held to the same rule
        pts = rng.random((30, 6)) * HALF_PI
        problem = SheProblem(target_m=0.5)
        for name in ("target_m", "cutoff"):
            with pytest.raises(ShePwmError, match=f"{name} must hold one value"):
                cost_batch(pts, problem, **{name: np.full(shape, 0.5)})


def reference_sums(signed_cos, max_order):
    """The recurrence in its plainest form: the whole (n_odd, K, B) stack,
    4c^2 - 2 taken whatever the order, K rows added in turn."""
    k, rows = signed_cos.shape
    stack = np.empty(((max_order + 1) // 2, k, rows))
    stack[0] = signed_cos
    two_cos2 = 4.0 * signed_cos * signed_cos - 2.0
    for j in range(1, len(stack)):
        stack[j] = two_cos2 * stack[j - 1] - stack[max(j - 2, 0)]
    sums = stack[:, 0].copy()
    for i in range(1, k):
        sums += stack[:, i]
    return sums


def reference_magnitudes(block, orders, cells):
    """One (B,) per-unit magnitude per order, each scaled on its own."""
    sums = reference_sums(block, max(orders, default=1))
    scale = 4.0 / (np.pi * cells)
    return [np.abs(scale / n * sums[n // 2]) for n in orders]


def reference_cost_batch(positions, problem, target_m=None, cutoff=None):
    """cost_batch's arithmetic written out one order at a time."""
    arr = np.sort(np.asarray(positions, dtype=np.float64), axis=1)
    rows, k = arr.shape
    block = np.cos(arr.T, out=np.empty((k, rows)))
    block *= np.array(problem.sign_pattern, dtype=np.float64)[:, None]
    if target_m is None:
        target_m = problem.target_m
    fund = reference_magnitudes(block, (1,), problem.cells)[0]
    total = problem.weight_fundamental * np.abs(target_m - fund)
    keep = slice(None) if cutoff is None else np.flatnonzero(~(total >= cutoff))
    kept = total[keep]
    orders = problem.eliminate_orders
    for n, pu in zip(orders, reference_magnitudes(block[:, keep], orders, problem.cells)):
        kept += problem.weight_harmonics / n * pu
    total[keep] = kept
    return total


@st.composite
def kernel_cases(draw):
    """A problem, a batch and per-row inputs for the batched kernel."""
    k = draw(st.integers(1, 12))
    cells = draw(st.sampled_from([s for s in range(1, k + 1) if k % s == 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signs, level = [], 0
    for _ in range(k):
        options = [sg for sg in (1, -1) if 0 <= level + sg <= cells]
        signs.append(int(rng.choice(options)))
        level += signs[-1]
    # drawn in any order: the order the terms are added in is part of the bits
    orders = draw(st.lists(st.sampled_from(range(3, 42, 2)), unique=True,
                           max_size=k - 1))
    weights = st.sampled_from([0.0, 1.0, 10.0, 100.0, 0.37, 1e-3, 2.5e3])
    problem = SheProblem(
        target_m=draw(st.sampled_from([0.0, 1.0, 0.5, 0.8123])),
        eliminate_orders=tuple(orders), cells=cells, angles_per_cell=k // cells,
        sign_pattern=tuple(signs), weight_fundamental=draw(weights),
        weight_harmonics=draw(weights),
    )
    rows = draw(st.sampled_from([1, 7, 250, 2500]))
    # random angles, exact 0 and pi/2, and values repeated within a row
    pool = np.concatenate([rng.random(2 * k) * HALF_PI, [0.0, HALF_PI]])
    pts = rng.choice(pool, (rows, k))
    pts[rng.random((rows, k)) < 0.5] = rng.random() * HALF_PI
    targets = None
    if draw(st.booleans()):
        targets = rng.choice([0.0, 1.0, *rng.random(5)], rows)
    cutoff = draw(st.sampled_from(
        [None, "-inf", "inf", "nan", "quantile", "quantile", "mixed", "mixed"]))
    if cutoff in ("-inf", "inf", "nan"):
        cutoff = np.full(rows, float(cutoff))
    elif cutoff is not None:
        full = reference_cost_batch(pts, problem, target_m=targets)
        levels = np.quantile(full, rng.random(3))
        if cutoff == "mixed":
            levels = [-np.inf, np.inf, np.nan, *levels]
        cutoff = rng.choice(levels, rows)
    return problem, pts, targets, cutoff


class TestKernelBits:
    @given(case=kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_arithmetic(self, case):
        # the kernel groups its numpy calls differently from the reference;
        # every output must keep the reference's bits, since they fix every
        # swarm trajectory and so every solve's output
        problem, pts, targets, cutoff = case
        got = cost_batch(pts, problem, target_m=targets, cutoff=cutoff)
        want = reference_cost_batch(pts, problem, target_m=targets, cutoff=cutoff)
        assert got.tobytes() == want.tobytes()


class TestSolve:
    def test_determinism(self):
        problem = SheProblem(target_m=0.5)
        cfg = PsoConfig(seed=77, iterations=60, restarts=2)
        a = solve(problem, cfg)
        b = solve(problem, cfg)
        assert a == b
        assert a.pattern.angles == b.pattern.angles

    def test_solution_bookkeeping(self):
        problem = SheProblem(target_m=1.0)
        sol = solve(problem, PsoConfig(seed=42, iterations=120))
        assert set(sol.residuals_pu) == set(problem.eliminate_orders)
        assert sol.pattern.signs == DEFAULT_SIGNS_K6
        # residuals are reproducible from the pattern alone, bit for bit, by
        # the kernel's arithmetic: per-unit scale 4/(pi*cells*n) times the sum
        pat = sol.pattern
        block = harmonics.signed_cosines(np.array([pat.angles]), pat.signs)
        sums = harmonics.odd_harmonic_sums(block, 11)[:, 0]
        for n, r in sol.residuals_pu.items():
            assert abs(4.0 / (math.pi * 2) / n * sums[n // 2]) == r
        assert sol.fundamental_pu == abs(4.0 / (math.pi * 2) * sums[0])
        assert cost(pat.angles, problem) == sol.cost
        # and they are analytic_harmonic's volts over the base to a few ulps:
        # the same sums, scaled in another order
        for n, r in sol.residuals_pu.items():
            volts = abs(analytic_harmonic(sol.pattern, n))
            assert r == pytest.approx(volts / 400.0, rel=1e-15)
        assert sol.fundamental_pu == pytest.approx(
            abs(analytic_harmonic(sol.pattern, 1)) / 400.0, rel=1e-15
        )
        assert 0.0 <= min(sol.pattern.angles)
        assert max(sol.pattern.angles) <= HALF_PI
        assert list(sol.pattern.angles) == sorted(sol.pattern.angles)

    def test_feasibility_flag_obeys_thresholds(self):
        sol = solve(k8_problem(), PsoConfig(seed=1, iterations=2000))
        assert sol.feasible
        assert all(r <= RESIDUAL_THRESHOLD_PU for r in sol.residuals_pu.values())
        assert abs(sol.fundamental_pu - 1.0) <= FUNDAMENTAL_THRESHOLD_PU

    def test_feasible_solution_passes_independent_oracle(self):
        sol = solve(k8_problem(), PsoConfig(seed=1, iterations=2000))
        for n in sol.residuals_pu:
            oracle = abs(segment_integral_harmonic(sol.pattern, n)) / 400.0
            assert oracle <= 1.1 * RESIDUAL_THRESHOLD_PU

    def test_low_target_default_pattern_is_poor(self):
        # the six-angle default cannot null 3..11 at low fundamental; the
        # solver must come back infeasible or with heavy distortion
        from shepwm import pattern_thd

        sol = solve(SheProblem(target_m=0.2), PsoConfig(seed=5))
        assert (not sol.feasible) or pattern_thd(sol.pattern, 49) >= 0.80


def assert_same_solution(a, b):
    """Solution equality plus the optimizer diagnostics it leaves out."""
    assert a == b
    assert a.pattern.angles == b.pattern.angles
    da, db = a.diagnostics, b.diagnostics
    assert da.best_position.tobytes() == db.best_position.tobytes()
    assert da.gbest_history.tobytes() == db.gbest_history.tobytes()
    for name in ("best_value", "evaluations", "converged_iteration",
                 "winning_restart", "restart_values", "restart_converged"):
        assert getattr(da, name) == getattr(db, name), name


class InlinePool:
    """Stand-in for the process pool: records its size and the targets of
    each chunk, and runs the chunks in this process."""

    sizes: list = []
    chunks: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        for args in zip(*iterables):
            self.chunks.append([m for m, _ in args[1]])
            yield fn(*args)


class TestSweep:
    def test_order_and_length(self):
        problem = SheProblem(target_m=1.0)
        cfg = PsoConfig(seed=3, iterations=40, restarts=1, swarm_size=15)
        sols = sweep(problem, [0.4, 0.9, 0.6], cfg)
        assert [s.target_m for s in sols] == [0.4, 0.9, 0.6]

    def test_singleton_matches_solve_with_derived_seed(self):
        problem = SheProblem(target_m=1.0)
        cfg = PsoConfig(seed=17, iterations=40, restarts=1, swarm_size=15)
        single = sweep(problem, [1.0], cfg)[0]
        import dataclasses

        direct = solve(
            dataclasses.replace(problem, target_m=1.0),
            dataclasses.replace(cfg, seed=derive_seed(17, 0)),
        )
        assert single == direct

    def test_stacked_targets_match_separate_solves(self):
        problem = k8_problem()
        cfg = PsoConfig(seed=29, iterations=40, restarts=3, swarm_size=10)
        targets = [0.35, 1.0, 0.8]
        sols = sweep(problem, targets, cfg)
        for i, (m, sol) in enumerate(zip(targets, sols)):
            direct = solve(replace(problem, target_m=m),
                           replace(cfg, seed=derive_seed(29, i)))
            assert_same_solution(sol, direct)

    def test_pool_is_capped_at_the_work(self, monkeypatch):
        # a fork pool starts every worker up front; never ask for more
        # workers than there are chunks of targets to hand out
        targets = [0.3, 0.8]
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        problem = SheProblem(target_m=1.0)
        cfg = PsoConfig(seed=11, iterations=10, restarts=2, swarm_size=6)
        serial = sweep(problem, targets, cfg)
        InlinePool.sizes.clear()
        for jobs in (2, 3, 500):
            chunked = sweep(problem, targets, cfg, jobs=jobs)
            for a, b in zip(serial, chunked):
                assert_same_solution(a, b)
        assert InlinePool.sizes == [2, 2, 2]

    def test_chunks_are_contiguous_and_in_order(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        InlinePool.chunks.clear()
        targets = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        cfg = PsoConfig(seed=2, iterations=3, restarts=1, swarm_size=3)
        sols = sweep(SheProblem(target_m=1.0), targets, cfg, jobs=3)
        assert [s.target_m for s in sols] == targets
        chunks = InlinePool.chunks
        assert len(chunks) == 3 and sum(chunks, []) == targets

    def test_empty(self):
        with pytest.raises(ShePwmError, match="no target values"):
            sweep(SheProblem(target_m=1.0), [], PsoConfig(seed=1))

    def test_out_of_range_target(self):
        with pytest.raises(ShePwmError, match="target 1.3 outside"):
            sweep(SheProblem(target_m=1.0), [0.5, 1.3], PsoConfig(seed=1))

    @pytest.mark.parametrize(
        "pair, message",
        [((1.5, 3), "target 1.5 outside"), ((math.nan, 3), "target nan outside"),
         ((-0.1, 3), "target -0.1 outside"), ((0.5, -1), "seed must be"),
         ((0.5, 2**64), "seed must be"), ((0.5, 1.0), "seed must be")],
        ids=["target-above-one", "nan-target", "negative-target",
             "negative-seed", "seed-above-u64", "float-seed"],
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_solve_pairs_checks_every_pair_first(self, monkeypatch, pair, message, jobs):
        # the bad pair comes last, and no swarm may run before it is refused
        def no_swarm(*args, **kwargs):
            raise AssertionError("a swarm ran before the pairs were checked")

        monkeypatch.setattr(she, "minimize_stacked", no_swarm)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_swarm)
        with pytest.raises(ShePwmError, match=message) as info:
            she.solve_pairs(SheProblem(target_m=1.0), [(0.5, 3), pair],
                            PsoConfig(seed=1), jobs=jobs)
        assert "\n" not in str(info.value)

    def test_nonpositive_jobs(self):
        with pytest.raises(ShePwmError, match="jobs"):
            sweep(SheProblem(target_m=1.0), [0.5], PsoConfig(seed=1), jobs=0)

    def test_parallel_matches_serial(self):
        problem = SheProblem(target_m=1.0)
        cfg = PsoConfig(seed=11, iterations=30, restarts=1, swarm_size=12)
        serial = sweep(problem, [0.3, 0.7, 1.0], cfg, jobs=1)
        parallel = sweep(problem, [0.3, 0.7, 1.0], cfg, jobs=2)
        assert serial == parallel
        for a, b in zip(serial, parallel):
            assert a.pattern.angles == b.pattern.angles
