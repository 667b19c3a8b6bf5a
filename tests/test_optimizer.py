from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shepwm import (OptimizerResult, PsoConfig, SheProblem, derive_seed, minimize, optimizer,
                    she, solve)
from shepwm.errors import ShePwmError
from shepwm.optimizer import _check_bounds, minimize_stacked


def pointwise(f):
    """Batch objective that evaluates a scalar objective row by row and
    ignores the cutoff."""
    return lambda pts, cutoff: np.array([float(f(p)) for p in pts])


def pruned(batch):
    """A batch objective that uses all the room the cutoff contract gives: a
    row whose value reaches its cutoff comes back as the cutoff itself."""
    return lambda pts, cutoff: np.minimum(batch(pts, cutoff), cutoff)


def sphere(x):
    return float(np.sum((x - 0.5) ** 2))


def sphere_batch(pts, cutoff):
    return np.sum((pts - 0.5) ** 2, axis=1)


def _reference_minimize(objective, bounds, config):
    """One swarm per restart, run one after another in the unit box: the loop
    the stacked optimizer replaced, kept as its bit-for-bit oracle. It clamps
    with np.clip, maps each point u to min(low + span*u, high) before the
    objective sees it, and gives every row a cutoff of +inf, so an objective
    always returns its full values here."""
    lo, hi = _check_bounds(bounds)
    dim = lo.size
    span = hi - lo
    vmax = config.velocity_clamp_fraction
    batch = lambda pts: np.asarray(
        objective(np.minimum(lo + span * pts, hi), np.full(len(pts), np.inf)),
        dtype=np.float64,
    )

    best_val = np.inf
    best_pos = None
    best_hist = None
    best_conv = 0
    best_restart = 0
    evals = 0
    values, convs = [], []

    for r in range(config.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((int(config.seed), r)))
        x = rng.random((config.swarm_size, dim))
        v = np.zeros_like(x)
        fx = batch(x)
        evals += config.swarm_size
        pbest = x.copy()
        fp = fx.copy()
        g = int(np.argmin(fp))
        gpos, gval = pbest[g].copy(), float(fp[g])
        hist = np.empty(config.iterations + 1)
        hist[0] = gval
        conv = 0

        for t in range(config.iterations):
            if config.iterations > 1:
                w = config.inertia_start + (
                    config.inertia_end - config.inertia_start
                ) * (t / (config.iterations - 1))
            else:
                w = config.inertia_start
            r1 = rng.random((config.swarm_size, dim))
            r2 = rng.random((config.swarm_size, dim))
            v = w * v + config.cognitive * r1 * (pbest - x) + config.social * r2 * (
                gpos - x
            )
            np.clip(v, -vmax, vmax, out=v)
            x = x + v
            clamped = (x < 0.0) | (x > 1.0)
            np.clip(x, 0.0, 1.0, out=x)
            v[clamped] = 0.0
            fx = batch(x)
            evals += config.swarm_size
            improved = fx < fp
            pbest[improved] = x[improved]
            fp[improved] = fx[improved]
            g = int(np.argmin(fp))
            if fp[g] < gval:
                gpos, gval = pbest[g].copy(), float(fp[g])
                conv = t + 1
            hist[t + 1] = gval

        values.append(gval)
        convs.append(conv)
        if gval < best_val:
            best_val = gval
            best_pos = gpos
            best_hist = hist
            best_conv = conv
            best_restart = r

    return OptimizerResult(
        best_position=np.minimum(lo + span * best_pos, hi),
        best_value=best_val,
        evaluations=evals,
        converged_iteration=best_conv,
        gbest_history=best_hist,
        winning_restart=best_restart,
        restart_values=tuple(values),
        restart_converged=tuple(convs),
    )


def assert_bit_equal(a: OptimizerResult, b: OptimizerResult):
    assert a.best_position.tobytes() == b.best_position.tobytes()
    assert a.gbest_history.tobytes() == b.gbest_history.tobytes()
    for name in ("best_value", "evaluations", "converged_iteration",
                 "winning_restart", "restart_values", "restart_converged"):
        assert getattr(a, name) == getattr(b, name), name
    assert np.array(a.restart_values).tobytes() == np.array(b.restart_values).tobytes()


def wavy(x):
    return float(np.sum((x - 0.3) ** 2 * (1.5 + np.cos(7.0 * x))))


def wavy_batch(pts, cutoff):
    return np.sum((pts - 0.3) ** 2 * (1.5 + np.cos(7.0 * pts)), axis=1)


class TestConfig:
    def test_defaults(self):
        cfg = PsoConfig(seed=1)
        assert cfg.swarm_size == 50
        assert cfg.iterations == 200
        assert cfg.inertia_start == 0.9
        assert cfg.inertia_end == 0.4
        assert cfg.cognitive == 2.0
        assert cfg.social == 2.0
        assert cfg.velocity_clamp_fraction == 0.2
        assert cfg.restarts == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=-1),
            dict(seed=2**64),
            dict(seed=1, swarm_size=0),
            dict(seed=1, swarm_size=1),
            dict(seed=1, iterations=0),
            dict(seed=1, restarts=0),
            dict(seed=1, inertia_start=0.3, inertia_end=0.5),
            dict(seed=1, inertia_end=-0.1),
            dict(seed=1, cognitive=-1.0),
            dict(seed=1, velocity_clamp_fraction=0.0),
            dict(seed=1, velocity_clamp_fraction=1.5),
            dict(seed=1, cognitive=float("inf")),
            dict(seed=1, social=float("nan")),
            dict(seed=1, inertia_start=float("inf")),
            dict(seed=1, inertia_end=float("nan")),
            dict(seed=1, velocity_clamp_fraction=float("nan")),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ShePwmError):
            PsoConfig(**kwargs)


class TestMinimize:
    def test_sphere_reaches_tolerance(self):
        res = minimize(pointwise(sphere), [(0.0, 1.0)] * 6, PsoConfig(seed=7))
        assert res.best_value <= 1e-6

    def test_determinism(self):
        cfg = PsoConfig(seed=123, iterations=80, restarts=2)
        a = minimize(pointwise(sphere), [(0.0, 1.0)] * 4, cfg)
        b = minimize(pointwise(sphere), [(0.0, 1.0)] * 4, cfg)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_position, b.best_position)
        assert a.evaluations == b.evaluations
        assert a.converged_iteration == b.converged_iteration
        assert np.array_equal(a.gbest_history, b.gbest_history)

    def test_corner_optimum(self):
        res = minimize(
            pointwise(lambda x: float(np.sum(x**2))), [(0.0, 1.0)] * 4,
            PsoConfig(seed=3),
        )
        assert np.all(np.abs(res.best_position) <= 1e-3)

    def test_positions_respect_bounds(self):
        # every point the objective sees is the swarm's, mapped onto the box
        seen = []

        def objective(pts, cutoff):
            assert not pts.flags.writeable
            seen.append(pts.copy())
            return np.sum(np.abs(pts), axis=1)

        bounds = [(-2.0, -1.0), (3.0, 4.0), (0.0, 0.0)]
        res = minimize(objective, bounds, PsoConfig(seed=5, iterations=40))
        for pts in seen + [res.best_position[None]]:
            for (lo, hi), column in zip(bounds, pts.T):
                assert np.all((lo <= column) & (column <= hi))
        assert res.best_value == float(np.sum(np.abs(res.best_position)))

    def test_gbest_history_nonincreasing(self):
        res = minimize(pointwise(sphere), [(0.0, 1.0)] * 6,
                       PsoConfig(seed=11, iterations=120))
        assert res.gbest_history.size == 121
        assert np.all(np.diff(res.gbest_history) <= 0.0)

    def test_best_value_matches_reevaluation(self):
        res = minimize(pointwise(sphere), [(0.0, 1.0)] * 5,
                       PsoConfig(seed=9, iterations=60))
        assert sphere(res.best_position) == res.best_value

    def test_vectorized_path_identical_to_scalar(self):
        cfg = PsoConfig(seed=42, iterations=50, restarts=2)
        a = minimize(pointwise(sphere), [(0.0, 1.0)] * 3, cfg)
        b = minimize(sphere_batch, [(0.0, 1.0)] * 3, cfg)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_position, b.best_position)

    def test_evaluation_count(self):
        cfg = PsoConfig(seed=2, swarm_size=10, iterations=20, restarts=3)
        res = minimize(pointwise(sphere), [(0.0, 1.0)] * 2, cfg)
        assert res.evaluations == 3 * 10 * (20 + 1)

    def test_single_iteration(self):
        res = minimize(pointwise(sphere), [(0.0, 1.0)] * 2,
                       PsoConfig(seed=1, iterations=1))
        assert isinstance(res, OptimizerResult)
        assert res.gbest_history.size == 2

    @pytest.mark.parametrize(
        "bounds", [[], [(1.0, 0.0)], [(0.0, float("inf"))], [(float("nan"), 1.0)],
                   [(0.0,)], None, [(-1e308, 1e308)]]
    )
    def test_invalid_bounds(self, bounds):
        # a box whose width overflows would hand the objective inf and nan
        def objective(pts, cutoff):
            raise AssertionError("a swarm ran before the bounds were checked")

        with pytest.raises(ShePwmError, match="bound"):
            minimize(objective, bounds, PsoConfig(seed=1))

    @pytest.mark.parametrize("dim", [0, -1, 1.5, 2.0, "3", None, [(0.0, 1.0)]], ids=repr)
    def test_stacked_dim_is_a_count(self, dim):
        with pytest.raises(ShePwmError, match="^dim must be "):
            minimize_stacked(sphere_batch, dim, PsoConfig(seed=1), [1])

    def test_no_seeds_give_no_results(self):
        def objective(pts, cutoff):
            raise AssertionError("a swarm ran with no seeds")

        assert minimize_stacked(objective, 3, PsoConfig(1, iterations=2), []) == []
        assert minimize_stacked(objective, 3, PsoConfig(1, iterations=2), ()) == []

    @pytest.mark.parametrize("dim", [1, 2, 6])
    def test_unit_box_matches_the_stacked_swarm(self, dim):
        # on [0, 1]^D the map low + span*u, capped at high, is u bit for bit
        cfg = PsoConfig(seed=17, swarm_size=6, iterations=30, restarts=3)
        assert_bit_equal(minimize(signed_wavy_batch, [(0.0, 1.0)] * dim, cfg),
                         minimize_stacked(signed_wavy_batch, dim, cfg, [17])[0])

    @pytest.mark.parametrize("seeds", [None, 5], ids=repr)
    def test_stacked_seeds_must_be_a_sequence(self, seeds):
        with pytest.raises(ShePwmError, match=f"^seeds must be a sequence, got {seeds}$"):
            minimize_stacked(sphere_batch, 1, PsoConfig(seed=1), seeds)

    def test_scalar_objective_raises(self):
        # a scalar objective returns one value for the whole batch
        with pytest.raises(ShePwmError, match="one value per row"):
            minimize(lambda pts, cutoff: sphere(pts), [(0.0, 1.0)] * 2,
                     PsoConfig(seed=1, iterations=2))

    def test_objective_cannot_write_the_swarm(self):
        # the points and cutoffs are the swarm's own positions and bests
        def objective(pts, cutoff):
            values = np.sum(pts**2, axis=1)
            pts[:] = 5.0
            return values

        with pytest.raises(ValueError, match="read-only"):
            minimize(objective, [(0.0, 1.0)] * 2, PsoConfig(seed=1, iterations=2))

        def lower_cutoff(pts, cutoff):
            cutoff[:] = -1.0
            return np.sum(pts**2, axis=1)

        with pytest.raises(ValueError, match="read-only"):
            minimize(lower_cutoff, [(0.0, 1.0)] * 2, PsoConfig(seed=1, iterations=2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_non_finite_objective_raises(self, bad, vectorized):
        # non-finite on a slice of the box only
        def objective(pts, cutoff=None):
            values = np.where(pts[..., 0] > 0.9, bad, np.sum(pts**2, axis=-1))
            return values if vectorized else float(values)

        with pytest.raises(ShePwmError, match="non-finite"):
            minimize(
                objective if vectorized else pointwise(objective),
                [(0.0, 1.0)] * 2, PsoConfig(seed=4, iterations=50),
            )


def signed_wavy_batch(pts, cutoff):
    """wavy_batch plus a term that tells -0.0 from +0.0, so that a clamp
    returning a zero of the other sign changes the result."""
    return wavy_batch(pts, cutoff) + 0.1 * np.sum(np.copysign(1.0, pts), axis=1)


# Objectives the oracle runs: row by row, batched, batched with every row
# that reaches its cutoff cut down to the cutoff, and sign-of-zero aware.
OBJECTIVES = {
    "pointwise": pointwise(wavy),
    "batch": wavy_batch,
    "pruned": pruned(wavy_batch),
    "signed-zero": signed_wavy_batch,
}

# Per-dimension bounds the oracle draws from. The swarm runs in the unit box
# and minimize maps it onto these; zero-width boxes and zeros of either sign
# are where the map could change the sign of a zero.
ORACLE_BOUNDS = [
    (-0.5, 1.25),
    (-1.0, 1.5),
    (0.0, 1.0),
    (-0.0, 1.0),
    (0.3, 0.3),
    (0.0, 0.0),
    (-0.0, 0.0),
    (0.0, -0.0),
]


class TestStackedOracle:
    """The stacked swarm against the per-restart loop, bit for bit."""

    @given(
        restarts=st.integers(1, 4),
        swarm=st.integers(2, 7),
        iterations=st.integers(1, 30),
        bounds=st.lists(st.sampled_from(ORACLE_BOUNDS), min_size=1, max_size=8),
        seed=st.integers(0, 2**64 - 1),
        inertia_end=st.sampled_from([0.4, 0.0]),
        clamp=st.sampled_from([0.2, 1.0]),
        kind=st.sampled_from(sorted(OBJECTIVES)),
    )
    @settings(max_examples=80, deadline=None)
    def test_minimize_matches_reference(
        self, restarts, swarm, iterations, bounds, seed, inertia_end, clamp, kind
    ):
        cfg = PsoConfig(seed=seed, swarm_size=swarm, iterations=iterations,
                        restarts=restarts, cognitive=1.7, social=2.3,
                        inertia_end=inertia_end, velocity_clamp_fraction=clamp)
        objective = OBJECTIVES[kind]
        assert_bit_equal(
            minimize(objective, bounds, cfg),
            _reference_minimize(objective, bounds, cfg),
        )

    @pytest.mark.parametrize(
        "bounds", [[b] for b in ORACLE_BOUNDS] + [ORACLE_BOUNDS], ids=str
    )
    def test_zero_signs_match_reference(self, bounds):
        # a zero of either sign in the map, each drawn bound alone and all
        # of them together
        cfg = PsoConfig(seed=6, swarm_size=4, iterations=25, restarts=2,
                        inertia_end=0.0, velocity_clamp_fraction=1.0)
        assert_bit_equal(
            minimize(signed_wavy_batch, bounds, cfg),
            _reference_minimize(signed_wavy_batch, bounds, cfg),
        )

    @pytest.mark.parametrize("chunk", [1, 3, 40])
    def test_draw_buffer_refills_match_reference(self, monkeypatch, chunk):
        # A draw budget of `chunk` iterations' bytes makes every swarm's
        # stream refill the buffer mid-run (23 is no multiple of 3), or, at
        # 40, fill all 23 iterations at once.
        cfg = PsoConfig(seed=0, swarm_size=4, iterations=23, restarts=2,
                        inertia_end=0.0, velocity_clamp_fraction=1.0)
        seeds = [5, derive_seed(5, 0), 2**64 - 1]
        dim = 8
        refs = [_reference_minimize(signed_wavy_batch, [(0.0, 1.0)] * dim,
                                    replace(cfg, seed=seed)) for seed in seeds]
        rows = len(seeds) * cfg.restarts * cfg.swarm_size
        per_iteration = 2 * rows * dim * 8
        monkeypatch.setattr(optimizer, "DRAW_BUDGET_BYTES", chunk * per_iteration)
        fills = []
        default_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def random(self, *, out):
                if out.ndim == 4:  # (iterations, 2, swarm_size, dim) of pulls
                    fills.append(len(out))
                return self.rng.random(out=out)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        stacked = minimize_stacked(signed_wavy_batch, dim, cfg, seeds)
        for res, ref in zip(stacked, refs):
            assert_bit_equal(res, ref)
        # each refill takes every swarm's stream in turn
        step = min(chunk, cfg.iterations)
        refills = [min(step, cfg.iterations - t) for t in range(0, cfg.iterations, step)]
        assert fills == [n for n in refills for _ in range(len(seeds) * cfg.restarts)]

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0, "7"])
    def test_stacked_seeds_are_unsigned_64_bit(self, seed):
        def objective(pts, cutoff):
            raise AssertionError("a swarm ran before the seeds were checked")

        with pytest.raises(ShePwmError, match="seed must be an unsigned 64-bit"):
            minimize_stacked(objective, 1, PsoConfig(seed=1), [3, seed])

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_stacked_seeds_match_reference(self, vectorized):
        cfg = PsoConfig(seed=0, swarm_size=6, iterations=25, restarts=3)
        seeds = [5, derive_seed(5, 0), derive_seed(5, 1), 2**64 - 1]
        objective = wavy_batch if vectorized else pointwise(wavy)
        stacked = minimize_stacked(objective, 4, cfg, seeds)
        assert len(stacked) == len(seeds)
        for seed, res in zip(seeds, stacked):
            ref = _reference_minimize(objective, [(0.0, 1.0)] * 4,
                                      replace(cfg, seed=seed))
            assert_bit_equal(res, ref)

    @pytest.mark.parametrize("target", [0.0, 0.5, 1.0])
    def test_one_angle_solve_matches_reference(self, target):
        # a K = 1 solve runs the one-dimension swarm, whose clamps once took
        # their operands in their own order; its best is a full cost
        problem = SheProblem(target, eliminate_orders=(), cells=1, angles_per_cell=1)
        pso = PsoConfig(seed=2, swarm_size=5, iterations=30, restarts=3)

        def kernel(pts, cutoff):
            return she._ordered_cost(she._ordered_angles(pts, problem), problem)

        assert_bit_equal(solve(problem, pso).diagnostics,
                         _reference_minimize(kernel, [(0.0, 1.0)], pso))

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_constant_objective_ties_every_restart(self, vectorized):
        cfg = PsoConfig(seed=3, swarm_size=5, iterations=10, restarts=4)
        objective = ((lambda pts, cutoff: np.ones(len(pts))) if vectorized
                     else pointwise(lambda p: 1.0))
        res = minimize(objective, [(0.0, 1.0)] * 3, cfg)
        assert_bit_equal(res, _reference_minimize(objective, [(0.0, 1.0)] * 3, cfg))
        assert res.winning_restart == 0
        assert res.restart_values == (1.0,) * 4
        assert res.restart_converged == (0,) * 4


class TestRestartTelemetry:
    def test_one_entry_per_restart(self):
        res = minimize(pointwise(wavy), [(0.0, 1.0)] * 3,
                       PsoConfig(seed=8, iterations=40, restarts=4))
        assert len(res.restart_values) == len(res.restart_converged) == 4
        assert all(0 <= c <= 40 for c in res.restart_converged)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_winner_is_first_argmin(self, seed):
        res = minimize(wavy_batch, [(0.0, 1.0)] * 2,
                       PsoConfig(seed=seed, swarm_size=4, iterations=5, restarts=5))
        values = res.restart_values
        assert res.best_value == values[res.winning_restart]
        assert res.winning_restart == values.index(min(values))
        assert res.converged_iteration == res.restart_converged[res.winning_restart]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_distinct_across_indices(self):
        seeds = {derive_seed(42, i) for i in range(100)}
        assert len(seeds) == 100

    def test_u64_range(self):
        for i in range(10):
            s = derive_seed(2**63, i)
            assert 0 <= s < 2**64

    def test_known_values(self):
        # the derivation is part of the reproducibility contract
        assert derive_seed(42, 3) == 18141372322412330060
        assert derive_seed(0, 0) == 15793235383387715774
        assert derive_seed(2**64 - 1, 2**64 - 1) == 9481509295970325001
        assert derive_seed(np.uint64(7), np.int64(2)) == 18279110831140952437

    @pytest.mark.parametrize("seed, index, name", [
        (-1, 0, "seed"), (2**64, 0, "seed"), (2**70, 0, "seed"), (1.5, 0, "seed"),
        ("1", 0, "seed"), (None, 0, "seed"), (1, -1, "index"), (1, 2**70, "index"),
        (1, 2.0, "index"), (1, 1j, "index")], ids=repr)
    def test_refuses_what_is_not_an_unsigned_64_bit_integer(self, seed, index, name):
        with pytest.raises(ShePwmError, match=f"^{name} must be an unsigned 64-bit integer, "):
            derive_seed(seed, index)
