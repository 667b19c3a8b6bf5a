import numpy as np
import pytest

from shepwm import OptimizerResult, PsoConfig, derive_seed, minimize
from shepwm.errors import InvalidBounds, ShePwmError


def sphere(x):
    return float(np.sum((x - 0.5) ** 2))


def sphere_batch(pts):
    return np.sum((pts - 0.5) ** 2, axis=1)


class TestConfig:
    def test_defaults(self):
        cfg = PsoConfig(seed=1)
        assert cfg.swarm_size == 50
        assert cfg.iterations == 500
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
        res = minimize(sphere, [(0.0, 1.0)] * 6, PsoConfig(seed=7))
        assert res.best_value <= 1e-6

    def test_determinism(self):
        cfg = PsoConfig(seed=123, iterations=80, restarts=2)
        a = minimize(sphere, [(0.0, 1.0)] * 4, cfg)
        b = minimize(sphere, [(0.0, 1.0)] * 4, cfg)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_position, b.best_position)
        assert a.evaluations == b.evaluations
        assert a.converged_iteration == b.converged_iteration
        assert np.array_equal(a.gbest_history, b.gbest_history)

    def test_corner_optimum(self):
        res = minimize(
            lambda x: float(np.sum(x**2)), [(0.0, 1.0)] * 4, PsoConfig(seed=3)
        )
        assert np.all(np.abs(res.best_position) <= 1e-3)

    def test_positions_respect_bounds(self):
        bounds = [(-2.0, -1.0), (3.0, 4.0), (0.0, 0.0)]
        res = minimize(
            lambda x: float(np.sum(np.abs(x))), bounds, PsoConfig(seed=5, iterations=40)
        )
        for (lo, hi), v in zip(bounds, res.best_position):
            assert lo <= v <= hi

    def test_gbest_history_nonincreasing(self):
        res = minimize(sphere, [(0.0, 1.0)] * 6, PsoConfig(seed=11, iterations=120))
        assert res.gbest_history.size == 121
        assert np.all(np.diff(res.gbest_history) <= 0.0)

    def test_best_value_matches_reevaluation(self):
        res = minimize(sphere, [(0.0, 1.0)] * 5, PsoConfig(seed=9, iterations=60))
        assert sphere(res.best_position) == res.best_value

    def test_vectorized_path_identical_to_scalar(self):
        cfg = PsoConfig(seed=42, iterations=50, restarts=2)
        a = minimize(sphere, [(0.0, 1.0)] * 3, cfg)
        b = minimize(sphere_batch, [(0.0, 1.0)] * 3, cfg, vectorized=True)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_position, b.best_position)

    def test_evaluation_count(self):
        cfg = PsoConfig(seed=2, swarm_size=10, iterations=20, restarts=3)
        res = minimize(sphere, [(0.0, 1.0)] * 2, cfg)
        assert res.evaluations == 3 * 10 * (20 + 1)

    def test_single_iteration(self):
        res = minimize(sphere, [(0.0, 1.0)] * 2, PsoConfig(seed=1, iterations=1))
        assert isinstance(res, OptimizerResult)
        assert res.gbest_history.size == 2

    @pytest.mark.parametrize(
        "bounds", [[], [(1.0, 0.0)], [(0.0, float("inf"))], [(float("nan"), 1.0)]]
    )
    def test_invalid_bounds(self, bounds):
        with pytest.raises(InvalidBounds):
            minimize(sphere, bounds, PsoConfig(seed=1))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_non_finite_objective_raises(self, bad, vectorized):
        # non-finite on a slice of the box only
        def objective(pts):
            values = np.where(pts[..., 0] > 0.9, bad, np.sum(pts**2, axis=-1))
            return values if vectorized else float(values)

        with pytest.raises(ShePwmError, match="non-finite"):
            minimize(
                objective, [(0.0, 1.0)] * 2, PsoConfig(seed=4, iterations=50),
                vectorized=vectorized,
            )


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
