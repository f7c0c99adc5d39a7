"""Linear model training paths: descent, closed form, and exact LP."""

import numpy as np
import pytest

from censored_newsvendor.data import Dataset
from censored_newsvendor.linear import (
    LinearModel,
    fit_gd,
    fit_lp,
    fit_mse_closed_form,
    from_text,
    predict,
    to_text,
    training_loss,
)
from censored_newsvendor.losses import LossSpec, batch_loss
from censored_newsvendor.neural import fit_sgd
from censored_newsvendor.training import DivergenceError, TrainConfig


def make_dataset(n, p, seed, noise=0.0, coefs=None):
    rng = np.random.default_rng(seed)
    X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, p - 1))])
    if coefs is None:
        coefs = rng.uniform(-1, 1, p)
    s = X @ coefs + noise * rng.normal(size=n)
    return Dataset(X, s), np.asarray(coefs)


class TestPredict:
    def test_zero_model(self):
        model = LinearModel(np.zeros(3))
        assert predict(model, np.array([5.0, -2.0, 7.0])) == 0.0

    def test_dot_product(self):
        model = LinearModel(np.array([1.0, 2.0]))
        assert predict(model, np.array([1.0, 3.0])) == pytest.approx(7.0)

    def test_intercept_passthrough(self):
        model = LinearModel(np.array([1.0, 0.0]))
        assert predict(model, np.array([1.0, 9.0])) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict(LinearModel(np.ones(2)), np.ones(3))


class TestClosedForm:
    def test_intercept_only(self):
        ds = Dataset(np.ones((10, 1)), np.full(10, 5.0))
        model = fit_mse_closed_form(ds)
        assert model.theta == pytest.approx([5.0])

    def test_exact_recovery(self):
        ds, coefs = make_dataset(50, 4, seed=2)
        model = fit_mse_closed_form(ds)
        assert model.theta == pytest.approx(coefs, abs=1e-8)

    def test_rank_deficient_rejected(self):
        X = np.ones((10, 2))  # duplicated constant column
        with pytest.raises(ValueError, match="rank-deficient"):
            fit_mse_closed_form(Dataset(X, np.arange(10.0)))


class TestGradientDescent:
    def test_noiseless_mse_recovery(self):
        ds, coefs = make_dataset(200, 2, seed=1, coefs=np.array([0.0, 2.0]))
        config = TrainConfig(eta=0.05, batch_size=32, seed=0, max_epochs=400, patience=400)
        model, trace = fit_gd(ds, LossSpec.mse(), config)
        assert abs(model.theta[1] - 2.0) < 1e-3
        assert trace.epochs_run <= 400
        assert trace.fit_seconds > 0

    def test_median_balance_for_pinball(self):
        # one feature, half the targets at 1 and half at 3: any value in [1, 3]
        # zeroes the pinball subgradient at alpha = 0.5
        X = np.ones((100, 1))
        s = np.concatenate([np.ones(50), np.full(50, 3.0)])
        ds = Dataset(X, s)
        config = TrainConfig(eta=0.05, batch_size=75, seed=3, max_epochs=300, patience=300)
        model, _ = fit_gd(ds, LossSpec.nvc(0.5), config)
        assert 1.0 - 0.06 <= model.theta[0] <= 3.0 + 0.06

    def test_gd_reaches_lp_optimum(self):
        # the descent path's final training loss lands on the exact LP
        # optimum of the split it trained on
        from censored_newsvendor.training import train_val_split

        spec = LossSpec.eps_nv(0.55, 0.2, 0.05)
        for trial in range(3):
            ds, _ = make_dataset(100, 3, seed=20 + trial, noise=0.5)
            ds = Dataset(ds.features, ds.sales - ds.sales.min())  # keep targets nonneg
            config = TrainConfig(
                eta=0.01, batch_size=75, seed=trial, max_epochs=3000, patience=3000
            )
            rng = np.random.default_rng(config.seed)
            train_idx, _ = train_val_split(ds.n, config, rng)
            sub = ds.take(train_idx)
            lp_loss = training_loss(fit_lp(sub, spec), sub, spec)
            _, trace = fit_gd(ds, spec, config)
            assert trace.train_loss <= lp_loss * 1.01 + 1e-12, f"trial {trial}"
            assert trace.train_loss >= lp_loss - 1e-9  # LP is the exact minimizer

    def test_batch_size_cap(self):
        ds, _ = make_dataset(20, 2, seed=0)
        with pytest.raises(ValueError, match="batch size"):
            fit_gd(ds, LossSpec.mse(), TrainConfig(batch_size=50))

    def test_divergence_reports_epoch(self):
        # both trainers run the shared descent loop and its divergence checks
        ds, _ = make_dataset(50, 2, seed=4, noise=1.0)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="epoch"):
            fit_gd(ds, LossSpec.mse(), TrainConfig(eta=1e6, batch_size=10))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match="epoch"
        ):
            fit_sgd(ds, LossSpec.mse(), [2, 4, 3, 1], TrainConfig(eta=1e6, batch_size=10))

    def test_best_validation_snapshot_returned(self):
        ds, _ = make_dataset(120, 2, seed=5, noise=0.3)
        config = TrainConfig(eta=0.02, batch_size=30, seed=6, max_epochs=50, patience=50)
        model, trace = fit_gd(ds, LossSpec.nvc(0.7), config)
        assert trace.best_epoch >= 1
        assert min(trace.val_loss) == pytest.approx(trace.val_loss[trace.best_epoch - 1])

    def test_weight_decay_shrinks_coefficients(self):
        # the decayed coordinates (intercept exempt) shrink monotonically in
        # the decay strength, on fixed data and seed
        ds, _ = make_dataset(150, 3, seed=7, noise=0.2)
        ds = Dataset(ds.features, ds.sales - ds.sales.min())
        spec = LossSpec.eps_nv(0.55, 0.1, 0.02)
        for seed in (8, 9):
            norms = []
            for l2 in (0.0, 0.003, 0.03, 0.3):
                config = TrainConfig(
                    eta=0.02, batch_size=112, seed=seed, l2=l2,
                    max_epochs=2500, patience=2500,
                )
                model, _ = fit_gd(ds, spec, config)
                norms.append(float(np.linalg.norm(model.theta[1:])))
            for small, large in zip(norms, norms[1:]):
                assert large <= small + 1e-6


class TestLPPath:
    def test_single_band_point(self):
        ds = Dataset(np.array([[1.0]]), np.array([1.0]))
        model = fit_lp(ds, LossSpec.eps_nv(0.5, 0.2, 0.0))
        assert training_loss(model, ds, LossSpec.eps_nv(0.5, 0.2, 0.0)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_lp_never_worse_than_gd(self):
        ds, _ = make_dataset(50, 3, seed=11, noise=0.4)
        ds = Dataset(ds.features, ds.sales - ds.sales.min())
        spec = LossSpec.eps_nv(0.6, 0.15, 0.03)
        lp_loss = training_loss(fit_lp(ds, spec), ds, spec)
        gd_model, _ = fit_gd(
            ds, spec, TrainConfig(eta=0.005, batch_size=37, seed=12, max_epochs=500)
        )
        assert lp_loss <= training_loss(gd_model, ds, spec) + 1e-9

    def test_zero_width_band_limit_is_median(self):
        # eps1 -> 0+ at alpha = 0.5 on an intercept-only design is a sample median
        rng = np.random.default_rng(13)
        s = rng.uniform(0, 1, 31)
        ds = Dataset(np.ones((31, 1)), s)
        model = fit_lp(ds, LossSpec.eps_nv(0.5, 1e-9, 0.0))
        med = np.sort(s)[15]  # middle order statistic of 31 values
        assert model.theta[0] == pytest.approx(med, abs=1e-6)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(15)
        model = LinearModel(rng.normal(size=7) * np.pi)
        again = from_text(to_text(model))
        assert again.theta.tobytes() == model.theta.tobytes()

    def test_text_format(self):
        text = to_text(LinearModel(np.array([1.5, -2.0])))
        lines = text.strip().splitlines()
        assert lines[0] == "2"
        assert len(lines) == 3

    def test_malformed_record(self):
        with pytest.raises(ValueError):
            from_text("3\n1.0\n2.0\n")
