import concurrent.futures
import itertools
import math
import os
import pickle
import statistics
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shepwm import (
    PsoConfig,
    SheProblem,
    SwitchingPattern,
    analytic_harmonic,
    cost,
    cost_batch,
    default_sign_pattern,
    pattern_thd,
    segment_integral_harmonic,
    solve,
    sweep,
    synthesize,
)
from shepwm import dclink, errors, harmonics, she
from shepwm.errors import ShePwmError
from shepwm.optimizer import derive_seed, minimize
from shepwm.pattern import waveform_csv
from shepwm.she import FUNDAMENTAL_THRESHOLD_PU, RESIDUAL_THRESHOLD_PU

from conftest import reference_sums

HALF_PI = math.pi / 2
# she.check_target's refusal, shared by SheProblem and solve_pairs
TARGET_RANGE = r"^target_m must be in \[0, 1\], got "

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
        assert p.sign_pattern == default_sign_pattern(2, 3) == (1, -1, 1, 1, -1, 1)
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
        kernel = copy._kernel
        for name in ("signs", "exponents", "layers", "scale", "weight"):
            assert not getattr(kernel, name).flags.writeable, name
        assert kernel.layers.dtype == np.intp


def count_kernel_calls(monkeypatch, run):
    """Sizes of the np.cos, np.sort, np.log and np.exp calls that run()
    makes, whose value must not change when counted."""
    expected = run()
    calls = {"cos": [], "sort": [], "log": [], "exp": []}

    class CountingNumpy:
        def __getattr__(self, attr):
            if attr in ("sin", "tan", "arccos", "arcsin", "arctan", "power"):
                raise AssertionError(f"the kernel called np.{attr}")
            if attr not in calls:
                return getattr(np, attr)

            def counted(x, *args, **kwargs):
                calls[attr].append(np.size(x))
                return getattr(np, attr)(x, *args, **kwargs)

            return counted

    # the cosines are taken in harmonics, the kernel's one closed form
    monkeypatch.setattr(she, "np", CountingNumpy())
    monkeypatch.setattr(harmonics, "np", CountingNumpy())
    assert np.array_equal(run(), expected)
    return calls


def sorted_cost(pts, problem, targets=None, cutoff=None):
    """she._ordered_cost, the swarm's kernel, on pts' rows sorted, with
    per-row targets and cutoffs."""
    return she._ordered_cost(np.sort(pts, axis=1).T.copy(), problem, targets, cutoff)


def raw_costs(problem, pts):
    """A run for count_kernel_calls: cost_batch on pts, then sorted_cost with
    a cutoff, whose sort is the test's and so is not counted."""
    cutoff = np.full(len(pts), np.median(cost_batch(pts, problem)))
    return lambda: [cost_batch(pts, problem), sorted_cost(pts, problem, None, cutoff)]


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
        # every transition at pi/2 leaves a zero waveform. Signs that sum to 0
        # cancel exactly; the default's sum to 2 (the quarter wave ends at
        # level 2), so each term keeps the rounding of cos(pi/2), about 6e-17
        notched = SheProblem(target_m=0.0, sign_pattern=(1, -1, 1, 1, -1, -1))
        assert cost([HALF_PI] * 6, notched) == 0.0
        problem = SheProblem(target_m=0.0)
        value = cost([HALF_PI] * 6, problem)
        assert value == reference_cost_batch([[HALF_PI] * 6], problem)[0]
        assert 0.0 < value < 1e-14

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

    def test_out_of_box(self, rng):
        # cost and cost_batch hold one box rule, wherever the row sits
        problem = SheProblem(target_m=0.5)
        for bad in (1.7, 3.0, -1.0):
            row = [0.1, 0.2, 0.3, 0.4, 0.5, bad]
            with pytest.raises(ShePwmError, match=r"^angles must lie within \[0, pi/2\]$"):
                cost(row, problem)
            for batch in ([row] * 6, np.vstack([rng.random((5, 6)), row])):
                with pytest.raises(ShePwmError, match=r"^angles must lie within \[0, pi/2\]$"):
                    cost_batch(batch, problem)

    @pytest.mark.parametrize("bad", [math.nan, -math.nan, math.inf, -math.inf])
    def test_non_finite_angle_refused(self, bad):
        problem = SheProblem(target_m=0.5)
        for row in ([0.1, 0.2, bad, 0.4, 0.5, 0.6], [bad] * 6):
            with pytest.raises(ShePwmError, match="angles must lie within"):
                cost(row, problem)
            with pytest.raises(ShePwmError, match="angles must lie within"):
                cost_batch([[0.1] * 6, row], problem)

    @pytest.mark.parametrize("bad", ["x", [0.1] * 5 + ["x"], [0.1j] * 6,
                                     np.full(6, 0.1 + 0j), [None] * 6, b"abcdef"],
                             ids=repr)
    def test_non_real_angles_refused_by_name(self, bad):
        problem = SheProblem(target_m=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShePwmError, match="^angles must be (a )?real number"):
                cost(bad, problem)
            with pytest.raises(ShePwmError, match="^positions must be (a )?real number"):
                cost_batch(bad, problem)
            with pytest.raises(ShePwmError, match="^positions must be (a )?real number"):
                cost_batch([[0.1] * 6, bad], problem)

    def test_integer_angles_are_reals(self):
        # an integer row, even one numpy keeps as objects, is taken by value
        problem = SheProblem(target_m=0.5)
        assert cost([0, 0, 0, 1, 1, 1], problem) == cost([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], problem)
        with pytest.raises(ShePwmError, match=r"^angles must lie within \[0, pi/2\]$"):
            cost_batch([[0, 0, 0, 0, 0, 2**70]], problem)

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
        batch = sorted_cost(pts, problem, targets)
        for i in range(len(pts)):
            alone = sorted_cost(pts[i : i + 1], problem, targets[i : i + 1])
            assert alone[0] == batch[i]
        assert np.array_equal(cost_batch(pts[:, ::-1], problem), cost_batch(pts, problem))

    @pytest.mark.parametrize("name", KERNEL_PROBLEMS)
    def test_batch_cutoff_skips_only_rows_that_cannot_improve(self, rng, name):
        problem = KERNEL_PROBLEMS[name](0.6)
        pts = kernel_points(rng, problem.n_angles, 60)
        targets = rng.random(len(pts))
        full = sorted_cost(pts, problem, targets)
        levels = [-np.inf, np.inf, *np.quantile(full, [0.1, 0.5, 0.9])]
        cutoffs = [np.full(len(pts), level) for level in levels]
        cutoffs.append(rng.choice(levels, len(pts)))
        skipped = np.zeros(len(pts), dtype=bool)
        for cutoff in cutoffs:
            out = sorted_cost(pts, problem, targets, cutoff)
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
        # and raw rows take one np.sort each cost_batch call, and no map
        problem = KERNEL_PROBLEMS[name](0.5)
        pts = rng.random((30, problem.n_angles)) * HALF_PI
        calls = count_kernel_calls(monkeypatch, raw_costs(problem, pts))
        assert calls == {"cos": [pts.size] * 2, "sort": [pts.size], "log": [], "exp": []}

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
        batch = sorted_cost(pts, problem, targets)
        for i in range(len(pts)):
            alone = replace(problem, target_m=float(targets[i]))
            assert cost_batch(pts[i : i + 1], alone)[0] == batch[i]


def reference_magnitudes(block, orders, cells):
    """One (B,) per-unit magnitude per order, each scaled on its own."""
    sums = reference_sums(block, max(orders, default=1))
    scale = 4.0 / (np.pi * cells)
    return [np.abs(scale / n * sums[n // 2]) for n in orders]


def reference_cost_batch(positions, problem, target_m=None, cutoff=None):
    """The kernel's arithmetic on sorted rows, written out one order at a time,
    with the cost's weights as numbers: 100 on the fundamental term and 10/n
    on order n's."""
    arr = np.sort(np.asarray(positions, dtype=np.float64), axis=1)
    rows, k = arr.shape
    block = np.cos(arr.T, out=np.empty((k, rows)))
    block *= np.array(problem.sign_pattern, dtype=np.float64)[:, None]
    if target_m is None:
        target_m = problem.target_m
    fund = reference_magnitudes(block, (1,), problem.cells)[0]
    total = 100.0 * np.abs(target_m - fund)
    keep = slice(None) if cutoff is None else np.flatnonzero(~(total >= cutoff))
    kept = total[keep]
    orders = problem.eliminate_orders
    for n, pu in zip(orders, reference_magnitudes(block[:, keep], orders, problem.cells)):
        kept += 10.0 / n * pu
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
    problem = SheProblem(
        target_m=draw(st.sampled_from([0.0, 1.0, 0.5, 0.8123])),
        eliminate_orders=tuple(orders), cells=cells, angles_per_cell=k // cells,
        sign_pattern=tuple(signs),
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
        # swarm trajectory and so every solve's output; the public face
        # takes the problem's target and no cutoff
        problem, pts, targets, cutoff = case
        got = sorted_cost(pts, problem, targets, cutoff)
        want = reference_cost_batch(pts, problem, target_m=targets, cutoff=cutoff)
        assert got.tobytes() == want.tobytes()
        assert cost_batch(pts, problem).tobytes() == reference_cost_batch(pts, problem).tobytes()


def zero_one_rows(k):
    """Every row of k zeros and ones, 2**k rows."""
    return np.array(list(itertools.product((0.0, 1.0), repeat=k))).reshape(-1, k)


def map_problem(k):
    """A k-angle problem, for the map's exponents."""
    return SheProblem(0.5, eliminate_orders=(), cells=k, angles_per_cell=1)


def unit_points(rng, k, rows):
    """Random points of [0, 1]^k, then points with coordinates at 0 and 1,
    tied within a row, and within a few ulps of 1."""
    pts = rng.random((rows, k))
    near_one = 1.0 - rng.integers(0, 4, (8, k)) * 2.0**-53
    tied = np.repeat(rng.random((8, 1)), k, axis=1)
    return np.vstack([pts, zero_one_rows(k)[:rows], near_one, tied])


def assert_ordered(theta):
    """Each column ascends within [0, pi/2], exactly."""
    assert np.all(theta[:-1] <= theta[1:])
    assert np.all(theta >= 0.0) and np.all(theta <= HALF_PI)


class TestKernelSort:
    @pytest.mark.parametrize("rows", [999, 1000], ids=["below", "at"])
    @pytest.mark.parametrize("name", KERNEL_PROBLEMS)
    def test_network_batch_makes_one_cosine_per_angle(self, rng, monkeypatch, name, rows):
        # raw rows are sorted by one np.sort whatever the batch's size: a
        # large batch, edge rows included, takes one np.cos and one np.sort
        # over all its angles, as a small one does
        problem = KERNEL_PROBLEMS[name](0.5)
        pts = kernel_points(rng, problem.n_angles, rows - 3)  # + 3 edge rows
        calls = count_kernel_calls(monkeypatch, raw_costs(problem, pts))
        assert calls == {"cos": [pts.size] * 2, "sort": [pts.size], "log": [], "exp": []}


class TestOrderedMap:
    """she._ordered_angles, the swarm's one map from [0, 1]^K to ascending
    angles, and the objective it feeds."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_map_orders_zero_one_points(self, k):
        # u = 0 gives all zeros, u = 1 all pi/2, and every mix ascends
        theta = she._ordered_angles(zero_one_rows(k), map_problem(k))
        assert theta.shape == (k, 2**k)
        assert_ordered(theta)
        assert np.all(theta[:, 0] == 0.0) and np.all(theta[:, -1] == HALF_PI)

    @pytest.mark.parametrize("k", [1, 2, 6, 8, 12])
    def test_map_orders_a_large_batch(self, rng, k):
        pts = unit_points(rng, k, 100_000)
        assert_ordered(she._ordered_angles(pts, map_problem(k)))

    def test_map_is_the_order_statistic_construction(self, rng):
        # theta_K = (pi/2)*u_K^(1/K), theta_k = theta_(k+1)*u_k^(1/k): the
        # sorted uniforms' law, so the top angle's median is (pi/2)*0.5^(1/K)
        pts = rng.random((20, 3))
        theta = she._ordered_angles(pts, map_problem(3))
        for row, col in zip(pts, theta.T):
            t3 = HALF_PI * row[2] ** (1 / 3)
            t2 = t3 * row[1] ** 0.5
            assert col.tolist() == pytest.approx([t2 * row[0], t2, t3], rel=1e-15)
        top = she._ordered_angles(rng.random((20000, 3)), map_problem(3))[-1]
        assert np.median(top) == pytest.approx(HALF_PI * 0.5 ** (1 / 3), rel=0.02)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8, 12, 14])
    def test_batch_rows_match_one_row_calls(self, rng, k):
        # a row's angles and cost have the same bits alone as inside a
        # 2,500-row batch, as the stacked swarm needs. The batch costs the
        # map's own block, as the swarm does, so a block in another memory
        # order, which numpy would reduce pairwise past 8 rows, shows here
        problem = SheProblem(0.7, eliminate_orders=tuple(range(3, 2 * k, 2)), cells=k,
                             angles_per_cell=1)
        pts = unit_points(rng, k, max(2500 - 16 - 2**k, (2500 - 16) // 2))
        assert len(pts) == 2500
        block = she._ordered_angles(pts, problem)
        theta = block.copy()
        costs = she._ordered_cost(block, problem)
        for i in range(len(pts)):
            alone = she._ordered_angles(pts[i : i + 1], problem)
            assert alone[:, 0].tobytes() == theta[:, i].tobytes()
            assert she._ordered_cost(alone, problem)[0] == costs[i]

    def test_ordered_rows_cost_what_cost_batch_gives(self, rng):
        # the swarm's kernel is cost_batch's, less the sort
        problem = k8_problem(0.6)
        theta = she._ordered_angles(rng.random((300, 8)), problem)
        want = cost_batch(theta.T, problem)
        assert she._ordered_cost(theta.copy(), problem).tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [1, 2500], ids=["one-row", "batch"])
    @pytest.mark.parametrize("name", KERNEL_PROBLEMS)
    def test_swarm_batch_makes_one_log_exp_and_cosine_per_angle(
            self, rng, monkeypatch, name, rows):
        # the swarm's objective maps and costs its points with one np.log,
        # one np.exp and one np.cos over all their coordinates, and sorts
        # nothing
        problem = KERNEL_PROBLEMS[name](0.5)
        pts = rng.random((rows, problem.n_angles))
        cutoff = np.full(rows, 0.5)
        calls = count_kernel_calls(monkeypatch, lambda: she._ordered_cost(
            she._ordered_angles(pts, problem), problem, cutoff=cutoff))
        assert calls == {"cos": [pts.size], "sort": [], "log": [pts.size], "exp": [pts.size]}


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
        assert sol.pattern.signs == default_sign_pattern(2, 3)
        # residuals are reproducible from the pattern alone, bit for bit, by
        # the kernel's arithmetic: per-unit scale 4/(pi*cells*n) times the sum
        pat = sol.pattern
        block = harmonics.signed_cosines(np.array(pat.angles)[:, None], pat.signs)
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

    def test_ordered_swarm_finds_an_exact_alternating_solution(self):
        # K = 6 with alternating signs has an exact solution at m = 0.3, which
        # a raw-angle swarm did not find at any seed; the ordered one does
        problem = SheProblem(0.3, sign_pattern=(1, -1, 1, -1, 1, -1))
        sol = solve(problem, PsoConfig(seed=7, iterations=500))
        assert sol.feasible
        assert cost(sol.pattern.angles, problem) == sol.cost

    def test_default_budget_keeps_the_median_cost(self):
        # the default problem over the paper grid at seeds 1-3: the median
        # cost at the default budget stays below 0.2968, the raw-angle
        # swarm's median at 500 iterations on the same solves
        grid = [round(0.1 * i, 12) for i in range(1, 11)]
        costs = [sol.cost for seed in (1, 2, 3)
                 for sol in sweep(SheProblem(1.0), grid, PsoConfig(seed))]
        assert statistics.median(costs) < 0.2968

    def test_low_target_default_pattern_is_poor(self):
        # the six-angle default cannot null 3..11 at low fundamental; the
        # solver must come back infeasible or with heavy distortion
        from shepwm import pattern_thd

        sol = solve(SheProblem(target_m=0.2), PsoConfig(seed=5))
        assert (not sol.feasible) or pattern_thd(sol.pattern) >= 0.80


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
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
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

    @pytest.mark.parametrize("cpus, sizes", [(3, [3]), (1, []), (None, [])],
                             ids=["three-cpus", "one-cpu", "unknown"])
    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch, cpus, sizes):
        # never more workers than CPUs, and none when the count is unknown
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        InlinePool.sizes.clear()
        InlinePool.chunks.clear()
        targets = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        cfg = PsoConfig(seed=4, iterations=3, restarts=1, swarm_size=3)
        sols = sweep(SheProblem(target_m=1.0), targets, cfg, jobs=1000)
        assert [s.target_m for s in sols] == targets
        assert InlinePool.sizes == sizes
        assert len(InlinePool.chunks) == sum(sizes)

    def test_chunks_are_contiguous_and_in_order(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_pairs_give_no_solutions(self, monkeypatch, jobs):
        # returned before any swarm or pool is built
        def no_swarm(*args, **kwargs):
            raise AssertionError("a swarm ran with no pairs")

        monkeypatch.setattr(she, "minimize_stacked", no_swarm)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_swarm)
        assert she.solve_pairs(SheProblem(0.5), [], PsoConfig(1, iterations=2), jobs) == []

    def test_out_of_range_target(self):
        with pytest.raises(ShePwmError, match=TARGET_RANGE + "1.3$"):
            sweep(SheProblem(target_m=1.0), [0.5, 1.3], PsoConfig(seed=1))

    @pytest.mark.parametrize(
        "pair, message",
        [((1.5, 3), TARGET_RANGE + "1.5$"), ((math.nan, 3), TARGET_RANGE + "nan$"),
         ((-0.1, 3), TARGET_RANGE + "-0.1$"), ((0.5, -1), "seed must be"),
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

    def test_parallel_matches_serial(self, monkeypatch):
        # two CPUs, so that a real two-worker pool starts on any host
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        problem = SheProblem(target_m=1.0)
        cfg = PsoConfig(seed=11, iterations=30, restarts=1, swarm_size=12)
        serial = sweep(problem, [0.3, 0.7, 1.0], cfg, jobs=1)
        parallel = sweep(problem, [0.3, 0.7, 1.0], cfg, jobs=2)
        assert serial == parallel
        for a, b in zip(serial, parallel):
            assert a.pattern.angles == b.pattern.angles


# library calls whose counts no array could hold, refused by a plan
OVERSIZE = {
    "swarm_size": lambda: solve(SheProblem(0.5),
                                PsoConfig(1, swarm_size=10**20, iterations=1, restarts=1)),
    "cells": lambda: SheProblem(0.5, cells=10**20),
    "eliminate_orders": lambda: SheProblem(0.5, eliminate_orders=(3, 5, 7, 9, 10**20 + 1)),
    "max_order": lambda: harmonics.analytic_spectrum(
        SheProblem(0.5).make_pattern([0.1] * 6), 10**20 + 1),
    "segment_order": lambda: segment_integral_harmonic(
        SwitchingPattern((0.1, 0.2), (1, -1), 1, 200.0), 10**20),
    "n_samples": lambda: synthesize(SwitchingPattern((0.1, 0.2), (1, -1), 1, 200.0),
                                    4 * 10**15),
    "minimize": lambda: minimize(lambda p, c: p[:, 0], 1,
                                 PsoConfig(1, swarm_size=10**20, iterations=1, restarts=1)),
    "minimize_iterations": lambda: minimize(lambda p, c: p[:, 0], 1,
                                            PsoConfig(1, swarm_size=2, iterations=10**18)),
    "default_signs_cells": lambda: default_sign_pattern(2**70, 3),
    "default_signs_per_cell": lambda: default_sign_pattern(1, 2**70 + 1),
}


def improving(points, cutoff):
    """An objective under which every row improves at every call."""
    values = np.minimum(cutoff, 0.0)
    return np.nextafter(values, -np.inf, out=values)


class TestMemoryPlans:
    def test_solve_budget(self, monkeypatch):
        # the benchmark's shapes with a swarm 100 times larger pass the plan:
        # compare's 10 grid targets and its base at K = 6, and table's one
        # target at K = 8 with 2,001 history entries per swarm
        monkeypatch.setattr(she, "_solve_stacked", lambda problem, pairs, pso: pairs)
        big = PsoConfig(seed=1, swarm_size=5000)
        pairs = [(round(0.1 * i, 12), i) for i in range(1, 11)] + [(1.0, 0)]
        assert she.solve_pairs(SheProblem(1.0), pairs, big) == tuple(pairs)
        assert she.solve_pairs(k8_problem(), [(1.0, 1)], replace(big, iterations=2000))
        # four times that swarm at compare's shape does not
        with pytest.raises(ShePwmError, match=(
                r"^the solve plans \d+ bytes, over the budget of 1073741824: pairs 11, "
                r"restarts 5, swarm_size 20000, K 6, top_order 11, iterations 200$")):
            she.solve_pairs(SheProblem(1.0), pairs, replace(big, swarm_size=20000))

        # a billion cells is refused by its row, before any sign is built
        def no_signs(*args):
            raise AssertionError("a sign pattern was built")

        monkeypatch.setattr(she, "default_sign_pattern", no_signs)
        with pytest.raises(ShePwmError, match=(
                r"^a particle row plans 62000000028 bytes, over the budget of "
                r"1073741824: K 1000000000, top_order 11$")):
            SheProblem(0.5, cells=10**9, angles_per_cell=1)

    @pytest.mark.parametrize("call", OVERSIZE)
    def test_oversize_counts_are_refused_before_any_array(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(ShePwmError, match=" plans \\d+ bytes, over the budget") as info:
                OVERSIZE[call]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(info.value) is ShePwmError
        assert "\n" not in str(info.value)
        assert peak < 1 << 20

    @pytest.mark.parametrize("k, max_order", [(1, 100001), (12, 20001)])
    def test_the_spectrum_plan_covers_its_peak(self, monkeypatch, k, max_order):
        # a budget one byte under the measured peak refuses the plan
        pattern = SheProblem(0.5, eliminate_orders=(), cells=k, angles_per_cell=1
                             ).make_pattern([0.1] * k)
        tracemalloc.start()
        try:
            harmonics.analytic_spectrum(pattern, max_order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        harmonics.plan_spectrum(k, max_order)
        monkeypatch.setattr(errors, "COUNT_BUDGET_BYTES", peak - 1)
        with pytest.raises(ShePwmError, match="^the spectrum plans "):
            harmonics.plan_spectrum(k, max_order)

    @pytest.mark.parametrize("k, n_samples", [(1, 1 << 16), (12, 1 << 16)])
    def test_the_samples_plan_covers_its_peak(self, monkeypatch, k, n_samples):
        # synthesize plus the phases waveform_csv reads as it streams the text;
        # a budget one byte under their measured peak refuses the plan
        wave = SheProblem(0.5, eliminate_orders=(), cells=k, angles_per_cell=1
                          ).make_pattern(np.linspace(0.1, 1.5, k))
        tracemalloc.start()
        try:
            for _ in waveform_csv(synthesize(wave, n_samples)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(errors, "COUNT_BUDGET_BYTES", peak - 1)
        with pytest.raises(ShePwmError, match="^the waveform plans "):
            synthesize(wave, n_samples)

    @pytest.mark.parametrize("build", ["build_lookup", "compare_methods"])
    def test_the_thd_spectrum_is_planned_before_any_solve(self, monkeypatch, build):
        # every solve reports its THD through order 49: a budget under that
        # spectrum's plan, though over a particle row's, refuses the problem
        # itself, so neither build starts a swarm
        def no_swarm(*args, **kwargs):
            raise AssertionError("a swarm ran before the spectrum was planned")

        monkeypatch.setattr(she, "minimize_stacked", no_swarm)
        planned = 6 * harmonics.LAYER_BYTES * 25 + harmonics.MAGNITUDE_BYTES * 50
        assert she._row_bytes(6, 11) < planned - 1
        SheProblem(1.0)
        monkeypatch.setattr(errors, "COUNT_BUDGET_BYTES", planned - 1)
        with pytest.raises(ShePwmError, match=(
                rf"^the spectrum plans {planned} bytes, over the budget of {planned - 1}: "
                r"K 6, max_order 49$")):
            getattr(dclink, build)([0.5, 1.0], PsoConfig(1), SheProblem(1.0))

    @pytest.mark.parametrize("k, orders", [(1, ()), (6, (3, 5, 7, 9, 11)),
                                           (8, (3, 5, 7, 9, 11, 13, 15)),
                                           (12, tuple(range(3, 25, 2)))])
    def test_the_row_plan_covers_a_solves_peak(self, monkeypatch, k, orders):
        # the swarm's plan plus the kernel's rows; a budget one byte under a
        # solve's measured peak refuses the solve. At 120,000 row angles the
        # draws hold one iteration, as near the budget
        problem = SheProblem(0.5, eliminate_orders=orders, cells=k, angles_per_cell=1)
        pso = PsoConfig(1, swarm_size=120_000 // k, iterations=3, restarts=1)
        tracemalloc.start()
        try:
            she.solve_pairs(problem, [(0.5, 1)], pso)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(errors, "COUNT_BUDGET_BYTES", peak - 1)
        with pytest.raises(ShePwmError, match="^the solve plans "):
            she.solve_pairs(problem, [(0.5, 1)], pso)

    @pytest.mark.parametrize("dim", [1, 6, 12])
    def test_the_swarm_plan_covers_its_peak(self, monkeypatch, dim):
        # one swarm with every row improving at every iteration; a budget
        # one byte under its measured peak refuses the swarm before it runs
        pso = PsoConfig(1, swarm_size=120_000 // dim, iterations=3, restarts=1)
        tracemalloc.start()
        try:
            minimize(improving, dim, pso)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(errors, "COUNT_BUDGET_BYTES", peak - 1)
        with pytest.raises(ShePwmError, match=(
                rf"^the swarm plans \d+ bytes, over the budget of {peak - 1}: seeds 1, "
                rf"restarts 1, swarm_size {120_000 // dim}, dimensions {dim}, iterations 3$")):
            minimize(improving, dim, pso)

    @pytest.mark.parametrize("k, max_order", [(1, 20001), (12, 2001)])
    def test_the_segment_plan_covers_its_peak(self, monkeypatch, k, max_order):
        # a budget one byte under the order table's measured peak refuses it
        pattern = SheProblem(0.5, eliminate_orders=(), cells=k, angles_per_cell=1
                             ).make_pattern(np.linspace(0.1, 1.5, k))
        pattern.segments
        monkeypatch.setattr(harmonics, "_segment_slot", (None, 0, None))
        tracemalloc.start()
        try:
            segment_integral_harmonic(pattern, max_order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(harmonics, "_segment_slot", (None, 0, None))
        monkeypatch.setattr(errors, "COUNT_BUDGET_BYTES", peak - 1)
        with pytest.raises(ShePwmError, match="^the segment table plans "):
            segment_integral_harmonic(pattern, max_order)

    def test_a_bad_pair_is_refused_before_the_plan(self):
        # the swarm plans past the budget, but the pair rule speaks first
        with pytest.raises(ShePwmError, match=TARGET_RANGE + "1.5$"):
            she.solve_pairs(SheProblem(1.0), [(0.5, 1), (1.5, 2)],
                            PsoConfig(1, swarm_size=10**20))

