"""Exact LP fit of the band-insensitive loss against brute-force grid oracles."""

import numpy as np
import pytest

from censored_newsvendor.data import Dataset, generate, scale, split_chronological
from censored_newsvendor.linear import fit_gd, fit_lp, training_loss
from censored_newsvendor.losses import LossSpec
from censored_newsvendor.training import TrainConfig


def _grid_values_1d(X, s, spec, grid):
    preds = np.outer(grid, X[:, 0])
    from censored_newsvendor.losses import evaluate

    values = np.asarray(evaluate(s[None, :], preds, spec).value)
    return values.mean(axis=1)


def grid_minimum(dataset, spec, lo=-2.0, hi=3.0, step=1e-4):
    """Brute-force loss minimum over a theta grid (oracle, p <= 2).

    p == 1 scans the full fine grid; p == 2 scans a coarse full grid and
    refines around its argmin (safe here: the objective is convex)."""
    from censored_newsvendor.losses import evaluate

    X, s = dataset.features, dataset.sales
    if X.shape[1] == 1:
        grid = np.arange(lo, hi + step, step)
        return float(_grid_values_1d(X, s, spec, grid).min())

    def scan(ga, gb):
        best, arg = np.inf, (ga[0], gb[0])
        for a in ga:
            preds = a * X[:, 0][None, :] + np.outer(gb, X[:, 1])
            values = np.asarray(evaluate(s[None, :], preds, spec).value).mean(axis=1)
            k = int(values.argmin())
            if values[k] < best:
                best, arg = float(values[k]), (a, gb[k])
        return best, arg

    coarse = 2e-3
    best, (a0, b0) = scan(
        np.arange(lo, hi + coarse, coarse), np.arange(lo, hi + coarse, coarse)
    )
    fine, _ = scan(
        np.arange(a0 - 3 * coarse, a0 + 3 * coarse, step),
        np.arange(b0 - 3 * coarse, b0 + 3 * coarse, step),
    )
    return min(best, fine)


class TestBandRegressionLP:
    def test_single_point_inside_band_costs_nothing(self):
        ds = Dataset(np.array([[1.0]]), np.array([1.0]))
        spec = LossSpec.eps_nv(0.5, 0.2, 0.0)
        model = fit_lp(ds, spec)
        assert training_loss(model, ds, spec) == pytest.approx(0.0, abs=1e-12)
        assert 1.0 - 1e-9 <= model.theta[0] <= 1.2 + 1e-9

    def test_two_point_instance_matches_grid(self):
        ds = Dataset(np.array([[1.0], [1.0]]), np.array([0.0, 1.0]))
        spec = LossSpec.eps_nv(0.5, 0.2, 0.0)
        value = training_loss(fit_lp(ds, spec), ds, spec)
        oracle = grid_minimum(ds, spec, lo=-1.0, hi=2.0, step=1e-4)
        assert value == pytest.approx(oracle, abs=1e-4)
        assert value == pytest.approx(0.2, abs=1e-9)  # hand evaluation

    def test_objective_identity(self):
        # training_loss of the fitted coefficients equals the LP objective
        # (1/n) sum[(1-a) o_i + a u_i] written out at the tightest slacks
        rng = np.random.default_rng(5)
        X = np.hstack([np.ones((12, 1)), rng.normal(size=(12, 1))])
        s = rng.uniform(0, 1, 12)
        spec = LossSpec.eps_nv(0.7, 0.15, 0.03)
        ds = Dataset(X, s)
        model = fit_lp(ds, spec)
        y = X @ model.theta
        by_hand = np.mean(
            0.3 * np.clip(y - s - 0.15, 0.0, None) + 0.7 * np.clip(s + 0.03 - y, 0.0, None)
        )
        assert training_loss(model, ds, spec) == pytest.approx(by_hand, abs=1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_lp(Dataset(np.zeros((0, 1)), np.zeros(0)), LossSpec.eps_nv(0.5, 0.1))

    @pytest.mark.parametrize("column", ["sales", "features"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, column, bad):
        X, s = np.ones((3, 2)), np.array([0.2, 0.5, 0.9])
        if column == "sales":
            s[1] = bad
        else:
            X[1, 1] = bad
        with pytest.raises(ValueError):
            fit_lp(Dataset(X, s), LossSpec.eps_nv(0.5, 0.1, 0.01))

    def test_oracle_agreement_many_instances(self):
        rng = np.random.default_rng(123)
        for trial in range(50):
            n = int(rng.integers(2, 21))
            p = int(rng.integers(1, 3))
            X = np.hstack([np.ones((n, 1)), rng.uniform(-1, 1, (n, p - 1))])
            s = rng.uniform(0, 1, n)
            ds = Dataset(X, s)
            alpha = float(rng.uniform(0.2, 0.9))
            spec = LossSpec.eps_nv(alpha, float(rng.uniform(0.05, 0.3)), 0.01)
            value = training_loss(fit_lp(ds, spec), ds, spec)
            oracle = grid_minimum(ds, spec)
            assert value <= oracle + 1e-6, f"trial {trial}"
            assert value >= oracle - 1e-3, f"trial {trial}"

    def test_full_training_panel_beats_descent(self):
        # the exact fit at production size: all 3294 scaled training rows
        train, _, _ = scale(*split_chronological(generate(seed=0)))
        spec = LossSpec.eps_nv(0.85, 0.1976, 0.0022)
        lp_loss = training_loss(fit_lp(train, spec), train, spec)
        config = TrainConfig(eta=0.015, batch_size=98, seed=0, max_epochs=100)
        gd_model, _ = fit_gd(train, spec, config)
        assert lp_loss <= training_loss(gd_model, train, spec) + 1e-9
