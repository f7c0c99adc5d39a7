"""Stability probes against their closed-form bounds, plus generalization checks."""

import numpy as np
import pytest

from censored_newsvendor.data import Dataset
from censored_newsvendor.linear import fit_lp, training_loss
from censored_newsvendor.losses import LossSpec, batch_loss, evaluate
from censored_newsvendor.stability import (
    loo_stability_probe,
    lr_generalization_bound,
    nn_generalization_bracket,
    probe_grid,
    random_band_dataset,
    stability_parameter,
    uas_probe_sweep,
)
from censored_newsvendor.training import TrainConfig

# The one-row-swap probe has an order-of-magnitude margin at any ratio; the
# leave-one-out bound's constant is tightest near 1/2, so that guarantee is
# probed at a high ratio where it holds with a clear margin (see ledgered
# measurements in the acceptance suite).
UAS_SPEC = LossSpec.eps_nv(0.55, 0.1976, 0.0022)
LOO_SPEC = LossSpec.eps_nv(0.85, 0.1976, 0.0022)


class TestBoundFormulas:
    def test_stability_parameter_example(self):
        # (5/100) * (0.55^2 / 0.45) * 1.0022
        assert stability_parameter(5, 100, 0.55, 1.0, 0.0022) == pytest.approx(
            0.03369, abs=5e-5
        )

    def test_doubling_n_halves_the_parameter(self):
        a = stability_parameter(2, 50, 0.55, 1.0, 0.0022)
        b = stability_parameter(2, 100, 0.55, 1.0, 0.0022)
        assert a == pytest.approx(2 * b)

    def test_generalization_bound_positive_and_shrinking(self):
        b1 = lr_generalization_bound(2, 50, 0.55, 1.0, 0.0022, 0.05)
        b2 = lr_generalization_bound(2, 200, 0.55, 1.0, 0.0022, 0.05)
        assert 0 < b2 < b1


class TestLooProbe:
    def test_probe_grid_shapes(self):
        X, s = probe_grid(2)
        assert X.shape == (200, 2)
        assert np.all(X[:, 0] == 1.0)
        assert s.shape == (200,)
        X5, s5 = probe_grid(5)
        assert X5.shape == (200, 5)

    def test_bound_holds_on_small_instances(self):
        X_probe, s_probe = probe_grid(2)
        for seed in range(3):
            ds = random_band_dataset(50, 2, seed=seed)
            result = loo_stability_probe(ds, LOO_SPEC, X_probe, s_probe)
            assert result.holds, (seed, result)
            assert result.empirical_sup >= 0.0

    def test_sup_shrinks_with_n(self):
        X_probe, s_probe = probe_grid(2)
        sups = {}
        for n in (50, 100):
            values = []
            for seed in range(3):
                ds = random_band_dataset(n, 2, seed=10 + seed)
                values.append(loo_stability_probe(ds, LOO_SPEC, X_probe, s_probe).empirical_sup)
            sups[n] = np.mean(values)
        assert sups[100] < sups[50]


class TestUasSweep:
    def test_distances_below_bound(self):
        ds = random_band_dataset(60, 3, seed=5)
        results = uas_probe_sweep(ds, UAS_SPEC, [3, 4, 3, 1], 1e-3, 2, [0, 7, 33], seed=1)
        assert len(results) == 3
        for r in results:
            assert r.holds
            assert r.distance > 0.0


class TestGeneralizationGap:
    def test_lr_gap_below_theorem_bound(self):
        # exact-LP training on unit-scaled targets; the measured test-train
        # gap stays under the high-probability bound in every run
        delta = 0.05
        rng = np.random.default_rng(42)
        for run in range(20):
            n = int(rng.integers(40, 120))
            # one jointly scaled pool, split so train and test share a law
            pool = random_band_dataset(n + 4000, 2, seed=100 + run, coefs=np.array([0.2, 0.5]))
            train, test = pool.take(np.arange(n)), pool.take(np.arange(n, n + 4000))
            model = fit_lp(train, LOO_SPEC)
            gap = training_loss(model, test, LOO_SPEC) - training_loss(model, train, LOO_SPEC)
            bound = lr_generalization_bound(2, n, LOO_SPEC.alpha, 1.0, LOO_SPEC.eps2, delta)
            assert gap <= bound, (run, gap, bound)

    def test_nn_bracket_calibration_transfers(self):
        # the absolute constant is unknown, so calibrate it on pilot runs at
        # one sample size and check the bound keeps holding, with the same
        # constant, on subsequent runs at larger sizes: that is the uniform-c
        # content of the guarantee (the bracket loosens with n while true
        # gaps shrink)
        from censored_newsvendor.neural import fit_sgd, forward

        eta, k_passes, rho = 5e-3, 3, 0.05
        coefs = np.array([0.2, 0.3, 0.2])

        def gap_for(seed, n):
            pool = random_band_dataset(n + 2000, 3, seed=seed, coefs=coefs)
            train, test = pool.take(np.arange(n)), pool.take(np.arange(n, n + 2000))
            # single-sample SGD for exactly k passes over one fixed permutation
            config = TrainConfig(
                eta=eta, batch_size=1, max_epochs=k_passes, patience=k_passes,
                val_fraction=0.0, seed=seed,
            )
            model, _ = fit_sgd(train, UAS_SPEC, [3, 4, 3, 1], config)
            train_loss = batch_loss(train.sales, forward(model, train.features)[0], UAS_SPEC)
            test_loss = batch_loss(test.sales, forward(model, test.features)[0], UAS_SPEC)
            return abs(test_loss - train_loss)

        def bracket(n):
            return nn_generalization_bracket(UAS_SPEC.alpha, eta, n, k_passes, 1.0, rho)

        c = max(gap_for(seed, 80) for seed in range(6)) / bracket(80)
        assert c > 0
        for n in (160, 320):
            for seed in range(6):
                assert gap_for(seed, n) <= c * bracket(n) + 1e-12, (n, seed)


def test_loo_probe_runtime_budget():
    # one n=200 probe must stay well within the sweep's per-instance budget
    import time

    X_probe, s_probe = probe_grid(2)
    ds = random_band_dataset(200, 2, seed=0)
    t0 = time.perf_counter()
    result = loo_stability_probe(ds, LOO_SPEC, X_probe, s_probe)
    elapsed = time.perf_counter() - t0
    assert result.holds
    assert elapsed < 60.0
