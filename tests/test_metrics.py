import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pagecast as pc
from pagecast.errors import DegenerateTruth, IncompleteGrid, LengthMismatch


class TestNrmse:
    def test_identity_is_zero(self):
        x = np.array([1.0, 2.0, 5.0])
        assert pc.nrmse(x, x) == 0.0

    def test_hand_case(self):
        # truth [0,2]: mean 1, std 1 -> standardized truth [-1,1], pred [0,0]
        assert pc.nrmse(np.array([1.0, 1.0]), np.array([0.0, 2.0])) == pytest.approx(1.0)

    def test_constant_shift(self):
        rng = np.random.default_rng(0)
        truth = rng.normal(size=300)
        c = 0.73
        assert pc.nrmse(truth + c, truth) == pytest.approx(c / truth.std())

    def test_degenerate_truth(self):
        with pytest.raises(DegenerateTruth):
            pc.nrmse(np.array([1.0, 2.0]), np.array([3.0, 3.0]))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pc.nrmse(np.zeros(3), np.zeros(4))
        with pytest.raises(LengthMismatch, match="at least 2"):
            pc.nrmse(np.array([1.0]), np.array([2.0]))

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=100, deadline=None)
    def test_affine_invariance(self, scale, shift):
        rng = np.random.default_rng(42)
        truth = rng.normal(size=64)
        pred = truth + rng.normal(size=64)
        base = pc.nrmse(pred, truth)
        moved = pc.nrmse(scale * pred + shift, scale * truth + shift)
        assert moved == pytest.approx(base, rel=1e-9)


class TestRSquared:
    def test_perfect(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pc.r_squared(x, x) == 1.0

    def test_mean_prediction_scores_zero(self):
        truth = np.array([1.0, 2.0, 3.0, 6.0])
        pred = np.full(4, truth.mean())
        assert pc.r_squared(pred, truth) == pytest.approx(0.0)

    def test_anticorrelated_negative(self):
        truth = np.array([-1.0, 0.0, 1.0])
        assert pc.r_squared(-truth, truth) < 0.0

    def test_shape_mismatch(self):
        with pytest.raises(LengthMismatch):
            pc.r_squared(np.zeros(3), np.zeros(4))
        with pytest.raises(LengthMismatch):
            pc.r_squared(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_constant_truth_refused(self):
        with pytest.raises(DegenerateTruth):
            pc.r_squared(np.array([1.0, 2.0]), np.array([3.0, 3.0]))


class TestWbc:
    def test_identical_errors_split(self):
        grid = pc.ExperimentGrid(["a", "b"], ["x1", "x2"],
                                 np.array([[1.0, 2.0], [1.0, 2.0]]))
        scores = pc.wbc(grid)
        assert scores["a"] == pytest.approx(0.5)
        assert scores["b"] == pytest.approx(0.5)

    def test_zero_error_dominates(self):
        grid = pc.ExperimentGrid(["a", "b"], ["x"],
                                 np.array([[0.0], [0.3]]))
        scores = pc.wbc(grid)
        assert scores["a"] == pytest.approx(1.0)
        assert scores["b"] == pytest.approx(0.0)

    def test_both_zero_is_half(self):
        grid = pc.ExperimentGrid(["a", "b"], ["x"],
                                 np.array([[0.0], [0.0]]))
        scores = pc.wbc(grid)
        assert scores["a"] == pytest.approx(0.5)

    def test_pair_sums_to_one(self):
        rng = np.random.default_rng(1)
        grid = pc.ExperimentGrid(["a", "b"], [f"x{i}" for i in range(5)],
                                 rng.uniform(0.01, 2.0, size=(2, 5)))
        scores = pc.wbc(grid)
        assert scores["a"] + scores["b"] == pytest.approx(1.0)

    def test_incomplete_grid_rejected(self):
        with pytest.raises(IncompleteGrid):
            pc.ExperimentGrid(["a", "b"], ["x"], np.array([[1.0], [np.nan]]))
        with pytest.raises(IncompleteGrid):
            pc.ExperimentGrid(["a"], ["x"], np.array([[1.0]]))
        with pytest.raises(IncompleteGrid, match="shape"):
            pc.ExperimentGrid(["a", "b"], ["x", "y"], np.ones((2, 3)))

    def test_per_experiment_scale_invariance(self):
        rng = np.random.default_rng(2)
        e = rng.uniform(0.1, 3.0, size=(4, 6))
        base = pc.wbc(pc.ExperimentGrid(list("abcd"), [f"x{i}" for i in range(6)], e))
        scaled = e * rng.uniform(0.5, 10.0, size=(1, 6))
        moved = pc.wbc(pc.ExperimentGrid(list("abcd"), [f"x{i}" for i in range(6)],
                                         scaled))
        for k in base:
            assert moved[k] == pytest.approx(base[k], rel=1e-12)


class TestPooled:
    def test_matches_single_series(self):
        rng = np.random.default_rng(3)
        truth = rng.normal(size=50)
        pred = truth + rng.normal(size=50)
        assert pc.nrmse_pooled(pred[None, :], truth[None, :]) == pytest.approx(
            pc.nrmse(pred, truth))

    def test_shape_mismatch(self):
        with pytest.raises(LengthMismatch):
            pc.nrmse_pooled(np.zeros((2, 5)), np.zeros((3, 5)))


class TestRollingNrmse:
    def test_matches_a_step_by_step_loop(self):
        # 110 steps after training: four whole 25-step horizons, and 10
        # steps that start no origin
        rng = np.random.default_rng(0)
        t = np.arange(710.0)
        latent = np.vstack([np.cos(t / 9), np.sin(t / 13)])
        values = latent + 0.1 * rng.normal(size=latent.shape)
        hp = pc.HyperParams(T0=100, Tprime=1000)

        def trained():
            return pc.create_model(
                pc.TimeSeriesBatch(["a", "b"], values[:, :600]), hp)

        model = trained()
        got = pc.rolling_nrmse(model, values, latent[[1]], [1], 25)
        assert model.n_steps == 700
        reference, pred = trained(), []
        for origin in range(600, 700, 25):
            pred += [r.mean for r in pc.predict_range(
                reference, 1, origin + 1, origin + 25, with_uq=False)]
            for j in range(origin, origin + 25):
                reference.insert(values[:, j])
        assert got.tolist() == [pc.nrmse(np.array(pred), latent[1, 600:700])]
