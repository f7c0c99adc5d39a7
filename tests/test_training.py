"""The shared descent loop against a written-out reference, and masked decay."""

import numpy as np
import pytest
from scipy.special import expit

from censored_newsvendor.data import Dataset
from censored_newsvendor.linear import fit_gd
from censored_newsvendor.losses import LossSpec, batch_loss, evaluate
from censored_newsvendor.neural import MLPModel, backward, fit_sgd, forward, init_mlp
from censored_newsvendor.training import TrainConfig, descend


# ---------------------------------------------------------------------------
# Reference: the two trainers written out separately, per-layer arrays, no
# shared code with the package's loop.


def ref_split(n, config, rng):
    idx = rng.permutation(n)
    n_val = min(max(int(round(config.val_fraction * n)), 1), n - 1)
    return idx[n_val:], idx[:n_val]


class RefStopper:
    """A strike is an epoch that fails to beat the previous one by tolerance."""

    def __init__(self, config):
        self.config = config
        self.best, self.best_epoch, self.prev, self.streak = np.inf, 0, np.inf, 0

    def update(self, val_loss, epoch):
        self.streak = 0 if val_loss < self.prev - self.config.tolerance else self.streak + 1
        self.prev = val_loss
        if val_loss < self.best:
            self.best, self.best_epoch = val_loss, epoch
            return True
        return False


def ref_epochs(config, stopper, losses, on_best):
    """Run epochs via `losses(epoch) -> (train, val)`; returns the trace fields."""
    train_losses, val_losses, reason = [], [], "max_epochs"
    for epoch in range(1, config.max_epochs + 1):
        train_loss, val_loss = losses(epoch)
        train_losses.append(train_loss)
        val_losses.append(val_loss)
        if stopper.update(val_loss, epoch):
            on_best()
        if val_loss < 1e-6:
            reason = "baseline"
            break
        if stopper.streak >= config.patience:
            reason = "patience"
            break
    return train_losses, val_losses, stopper.best_epoch, reason


def ref_fit_gd(X, s, spec, config):
    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = ref_split(X.shape[0], config, rng)
    state = {"theta": np.zeros(X.shape[1])}
    best = {}

    def losses(epoch):
        theta = state["theta"]
        order = rng.permutation(train_idx)  # a fresh order every epoch
        for start in range(0, order.shape[0], config.batch_size):
            rows = order[start : start + config.batch_size]
            g = np.asarray(evaluate(s[rows], X[rows] @ theta, spec).subgrad)
            grad = X[rows].T @ g / rows.shape[0]
            decay = 2.0 * config.l2 * theta
            decay[0] = 0.0  # the intercept is exempt
            theta = theta - config.eta * (grad + decay if config.l2 > 0.0 else grad)
        state["theta"] = theta
        return (
            batch_loss(s[train_idx], X[train_idx] @ theta, spec),
            batch_loss(s[val_idx], X[val_idx] @ theta, spec),
        )

    def on_best():
        best["theta"] = state["theta"].copy()

    trace = ref_epochs(config, RefStopper(config), losses, on_best)
    return best["theta"], trace


def ref_forward(weights, biases, x):
    acts = [x]
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w.T + b
        acts.append(z if l == len(weights) - 1 else expit(z))
    return acts


def ref_fit_sgd(X, s, spec, arch, config, optimizer):
    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = ref_split(X.shape[0], config, rng)
    order = rng.permutation(train_idx)  # one permutation per run
    init = np.random.default_rng(config.seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(init.uniform(-r, r, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    params = weights + biases
    m = [np.zeros_like(q) for q in params]
    v = [np.zeros_like(q) for q in params]
    step = [0]
    best = {}

    def predict(rows):
        return ref_forward(weights, biases, X[rows])[-1][:, 0]

    def losses(epoch):
        for start in range(0, order.shape[0], config.batch_size):
            rows = order[start : start + config.batch_size]
            acts = ref_forward(weights, biases, X[rows])
            n = rows.shape[0]
            delta = np.asarray(evaluate(s[rows], acts[-1][:, 0], spec).subgrad).reshape(n, 1)
            gw, gb = [None] * len(weights), [None] * len(weights)
            for l in range(len(weights) - 1, -1, -1):
                gw[l] = delta.T @ acts[l] / n
                gb[l] = delta.mean(axis=0)
                if l > 0:
                    delta = (delta @ weights[l]) * (acts[l] * (1.0 - acts[l]))
            step[0] += 1
            for k, (q, g) in enumerate(zip(params, gw + gb)):
                if config.l2 > 0.0 and k < len(weights):  # biases are exempt
                    g = g + 2.0 * config.l2 * q
                if optimizer == "sgd":
                    q -= config.eta * g
                    continue
                m[k] = 0.9 * m[k] + (1 - 0.9) * g
                v[k] = 0.999 * v[k] + (1 - 0.999) * g * g
                m_hat = m[k] / (1 - 0.9 ** step[0])
                v_hat = v[k] / (1 - 0.999 ** step[0])
                q -= config.eta * m_hat / (np.sqrt(v_hat) + 1e-8)
        return (
            batch_loss(s[train_idx], predict(train_idx), spec),
            batch_loss(s[val_idx], predict(val_idx), spec),
        )

    def on_best():
        best["flat"] = np.concatenate(
            [part for w, b in zip(weights, biases) for part in (w.ravel(), b.copy())]
        )

    trace = ref_epochs(config, RefStopper(config), losses, on_best)
    return best["flat"], trace


def panel(n, p, seed):
    rng = np.random.default_rng(seed)
    X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, p - 1))])
    s = np.clip(X @ rng.uniform(-0.5, 0.5, p) + 0.5 + 0.2 * rng.normal(size=n), 0.0, None)
    return Dataset(X, s)


def assert_same_trace(trace, ref_trace):
    train_losses, val_losses, best_epoch, reason = ref_trace
    assert trace.train_loss == train_losses
    assert trace.val_loss == val_losses
    assert trace.best_epoch == best_epoch
    assert trace.stop_reason == reason
    assert trace.epochs_run == len(train_losses)


# "coarse" stops on patience after a few epochs; under "strict" the runs
# differ in when (and whether) they stop
CONFIGS = {
    "coarse": dict(max_epochs=40, patience=4, tolerance=1e-3),
    "strict": dict(max_epochs=40, patience=3, tolerance=0.0),
}


class TestMatchesReference:
    @pytest.mark.parametrize("l2", [0.0, 2e-3])
    @pytest.mark.parametrize("stop", sorted(CONFIGS))
    def test_fit_gd(self, l2, stop):
        ds = panel(90, 3, seed=1)
        spec = LossSpec.eps_nv(0.7, 0.15, 0.02)
        config = TrainConfig(eta=0.05, batch_size=16, l2=l2, seed=2, **CONFIGS[stop])
        model, trace = fit_gd(ds, spec, config)
        theta, ref_trace = ref_fit_gd(ds.features, ds.sales, spec, config)
        assert model.theta.tobytes() == theta.tobytes()
        assert_same_trace(trace, ref_trace)

    def test_strikes_count_against_previous_epoch(self):
        # the validation loss misses the best epoch for more than `patience`
        # epochs in a row, yet every dip below the previous epoch resets the
        # count, so the run reaches the epoch cap
        ds = panel(90, 3, seed=1)
        config = TrainConfig(eta=0.05, batch_size=16, seed=2, **CONFIGS["strict"])
        _, trace = fit_gd(ds, LossSpec.eps_nv(0.7, 0.15, 0.02), config)
        assert trace.stop_reason == "max_epochs"
        longest = behind = 0
        for loss, best in zip(trace.val_loss, np.minimum.accumulate(trace.val_loss)):
            behind = behind + 1 if loss > best else 0
            longest = max(longest, behind)
        assert longest > config.patience

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("l2", [0.0, 2e-3])
    @pytest.mark.parametrize("stop", sorted(CONFIGS))
    def test_fit_sgd(self, optimizer, l2, stop):
        ds = panel(90, 3, seed=3)
        spec = LossSpec.nvc(0.8)
        eta = 0.1 if optimizer == "sgd" else 0.01
        config = TrainConfig(eta=eta, batch_size=16, l2=l2, seed=4, **CONFIGS[stop])
        arch = [3, 5, 4, 1]
        model, trace = fit_sgd(ds, spec, arch, config, optimizer=optimizer)
        flat, ref_trace = ref_fit_sgd(ds.features, ds.sales, spec, arch, config, optimizer)
        assert model.params.tobytes() == flat.tobytes()
        assert_same_trace(trace, ref_trace)


class TestMaskedDecay:
    """Inside the band the loss subgradient is 0, so one epoch of SGD only
    applies weight decay: penalized entries shrink by (1 - 2 eta l2) per
    batch and exempt entries stay exactly where they were."""

    ETA, L2, BATCH = 0.05, 0.01, 10

    def run_one_epoch(self, params, predict, gradient, X, mask):
        # band [s, s + 1] around every starting decision
        s = predict(X) - 0.5
        spec = LossSpec.eps_nv(0.55, 1.0, 0.0)
        config = TrainConfig(
            eta=self.ETA, batch_size=self.BATCH, l2=self.L2, seed=0, max_epochs=1, patience=1
        )
        start = params.copy()
        descend(params, predict, gradient, X, s, spec, config, mask)
        batches = -(-(X.shape[0] - round(config.val_fraction * X.shape[0])) // self.BATCH)
        return start, (1.0 - 2.0 * self.ETA * self.L2) ** batches

    def test_linear_intercept_exempt(self):
        rng = np.random.default_rng(0)
        X = np.hstack([np.ones((40, 1)), rng.normal(size=(40, 2))])
        theta = np.array([0.7, -0.4, 0.2])
        spec = LossSpec.eps_nv(0.55, 1.0, 0.0)
        mask = np.array([0.0, 1.0, 1.0])

        def gradient(Xb, sb):
            g = np.asarray(evaluate(sb, Xb @ theta, spec).subgrad)
            assert np.all(g == 0.0)
            return Xb.T @ g / Xb.shape[0]

        start, factor = self.run_one_epoch(theta, lambda rows: rows @ theta, gradient, X, mask)
        assert theta[0] == start[0]
        assert theta[1:] == pytest.approx(start[1:] * factor, rel=1e-13)
        assert not np.allclose(theta[1:], start[1:])

    def test_network_biases_exempt(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 2))
        model = init_mlp([2, 4, 3, 1], seed=2)
        for b in model.biases:
            b[...] = 0.3
        spec = LossSpec.eps_nv(0.55, 1.0, 0.0)
        mask = MLPModel.from_params(model.layer_sizes, np.ones_like(model.params))
        for b in mask.biases:
            b[...] = 0.0

        def gradient(Xb, sb):
            flat = backward(model, forward(model, Xb)[1], sb, spec).flat
            assert np.all(flat == 0.0)
            return flat

        start, factor = self.run_one_epoch(
            model.params, lambda rows: forward(model, rows)[0], gradient, X, mask.params
        )
        exempt = mask.params == 0.0
        assert np.array_equal(model.params[exempt], start[exempt])
        assert model.params[~exempt] == pytest.approx(start[~exempt] * factor, rel=1e-13)
        assert not np.allclose(model.params[~exempt], start[~exempt])
