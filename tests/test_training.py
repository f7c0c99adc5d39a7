"""The shared descent loop against a written-out reference, the no-hold-out
path of the stability probes, and masked decay."""

import functools

import numpy as np
import pytest
from scipy.special import expit

from censored_newsvendor import linear, neural
from censored_newsvendor.data import Dataset
from censored_newsvendor.linear import fit_gd
from censored_newsvendor.losses import LossSpec, batch_loss, evaluate
from censored_newsvendor.neural import MLPModel, backward, fit_sgd, forward, init_mlp, uas_probe
from censored_newsvendor.stability import random_band_dataset, uas_probe_sweep
from censored_newsvendor.training import (
    DivergenceError,
    Member,
    TrainConfig,
    descend,
    validation_size,
)


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


def ref_plain_sgd(X, s, spec, arch, eta, k_passes, seed):
    """Single-sample SGD for exactly k passes over one fixed permutation."""
    model = init_mlp(list(arch), seed=seed)
    order = np.random.default_rng(seed).permutation(X.shape[0])
    for _ in range(k_passes):
        for i in order:
            _, state = forward(model, X[i : i + 1])
            model.params -= eta * backward(model, state, s[i : i + 1], spec).flat
    return model


def panel(n, p, seed):
    rng = np.random.default_rng(seed)
    X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, p - 1))])
    s = np.clip(X @ rng.uniform(-0.5, 0.5, p) + 0.5 + 0.2 * rng.normal(size=n), 0.0, None)
    return Dataset(X, s)


def assert_same_trace(trace, ref_trace):
    train_losses, val_losses, best_epoch, reason = ref_trace
    assert trace.train_loss == train_losses[-1]
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


class TestNoHoldOut:
    """val_fraction = 0: every row trains in one fixed order, no stop rule
    fires and the last iterate is returned, which is the probes' SGD."""

    ARCH = [3, 4, 3, 1]
    SPEC = LossSpec.eps_nv(0.55, 0.1976, 0.0022)

    @pytest.mark.parametrize(
        "spec", [SPEC, LossSpec.nvc(0.7), LossSpec.mse()], ids=["eps_nv", "nvc", "mse"]
    )
    def test_fit_sgd_is_single_sample_loop(self, spec):
        ds = panel(40, 3, seed=8)
        k = 3
        config = TrainConfig(
            eta=0.02, batch_size=1, max_epochs=k, patience=k, val_fraction=0.0, seed=5
        )
        model, trace = fit_sgd(ds, spec, self.ARCH, config)
        ref = ref_plain_sgd(ds.features, ds.sales, spec, self.ARCH, config.eta, k, config.seed)
        assert model.params.tobytes() == ref.params.tobytes()
        assert trace.val_loss == []
        assert (trace.epochs_run, trace.best_epoch, trace.stop_reason) == (k, k, "max_epochs")
        assert trace.train_loss == batch_loss(ds.sales, forward(ref, ds.features)[0], spec)

    def test_swap_sweep_is_base_and_swap_pairs(self):
        ds = random_band_dataset(50, 3, seed=9)
        eta, k, seed, swaps = 1e-3, 2, 4, [0, 17, 49]
        results = uas_probe_sweep(ds, self.SPEC, self.ARCH, eta, k, swaps, seed=seed)
        base = ref_plain_sgd(ds.features, ds.sales, self.SPEC, self.ARCH, eta, k, seed)
        rng = np.random.default_rng(seed + 77_000)  # the sweep's replacement draws
        for result, index in zip(results, swaps):
            X, s = ds.features.copy(), ds.sales.copy()
            X[index] = np.concatenate([[1.0], rng.uniform(0.0, 1.0, 2)])
            s[index] = rng.uniform(0.0, 1.0)
            other = ref_plain_sgd(X, s, self.SPEC, self.ARCH, eta, k, seed)
            assert result.swap_index == index
            assert result.distance == np.linalg.norm(base.params - other.params)
            assert result.distance > 0.0

    def test_diverging_probe_raises(self):
        ds = random_band_dataset(20, 3, seed=2)
        config = TrainConfig(eta=1e30, batch_size=1, seed=0)
        replacement = (np.array([1.0, 0.5, 0.5]), 0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="non-finite parameters at epoch 1"):
                uas_probe(ds, LossSpec.mse(), self.ARCH, config, 3, 2, replacement)

    def test_split_sizes(self):
        assert [validation_size(n, 0.0) for n in (1, 2, 90)] == [0, 0, 0]
        assert validation_size(90, 0.25) == 22
        for fraction in (1.0, -0.1):
            with pytest.raises(ValueError, match="validation fraction"):
                TrainConfig(val_fraction=fraction)


class TestMaskedDecay:
    """Inside the band the loss subgradient is 0, so one epoch of SGD only
    applies weight decay: penalized entries shrink by (1 - 2 eta l2) per
    batch and exempt entries stay exactly where they were."""

    ETA, L2, BATCH = 0.05, 0.01, 10

    def run_one_epoch(self, params, forward, backward, X, mask):
        # band [s, s + 1] around every starting decision
        s = forward(params[None], X[None])[0][0] - 0.5
        spec = LossSpec.eps_nv(0.55, 1.0, 0.0)
        config = TrainConfig(
            eta=self.ETA, batch_size=self.BATCH, l2=self.L2, seed=0, max_epochs=1, patience=1
        )

        def zero_gradient(P, cache, dy):
            assert np.all(dy == 0.0)
            grad = backward(P, cache, dy)
            assert np.all(grad == 0.0)
            return grad

        start = params.copy()
        member = Member(np.arange(X.shape[0]), spec, config)
        # params[None] is a view, so the population's last iterate lands in params
        descend(params[None], forward, zero_gradient, X, s, [member], mask)
        batches = -(-(X.shape[0] - round(config.val_fraction * X.shape[0])) // self.BATCH)
        return start, (1.0 - 2.0 * self.ETA * self.L2) ** batches

    def test_linear_intercept_exempt(self):
        rng = np.random.default_rng(0)
        X = np.hstack([np.ones((40, 1)), rng.normal(size=(40, 2))])
        theta = np.array([0.7, -0.4, 0.2])
        mask = np.array([0.0, 1.0, 1.0])

        start, factor = self.run_one_epoch(theta, linear._forward, linear._backward, X, mask)
        assert theta[0] == start[0]
        assert theta[1:] == pytest.approx(start[1:] * factor, rel=1e-13)
        assert not np.allclose(theta[1:], start[1:])

    def test_network_biases_exempt(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 2))
        model = init_mlp([2, 4, 3, 1], seed=2)
        for b in model.biases:
            b[...] = 0.3
        mask = MLPModel.from_params(model.layer_sizes, np.ones_like(model.params))
        for b in mask.biases:
            b[...] = 0.0

        sizes = tuple(model.layer_sizes)
        start, factor = self.run_one_epoch(
            model.params,
            functools.partial(neural._stacked_forward, sizes),
            neural._stacked_backward,
            X,
            mask.params,
        )
        exempt = mask.params == 0.0
        assert np.array_equal(model.params[exempt], start[exempt])
        assert model.params[~exempt] == pytest.approx(start[~exempt] * factor, rel=1e-13)
        assert not np.allclose(model.params[~exempt], start[~exempt])


# ---------------------------------------------------------------------------
# Populations: every member must end exactly where its own K = 1 fit ends.


def mixed_members(stop, n=150, eta_scale=1.0):
    """Rows, seeds, rates, decay and bands differ; the stop rule is shared."""
    settings = [  # (spec, eta, l2)
        (LossSpec.nvc(0.7), 0.05, 0.0),
        (LossSpec.eps_nv(0.7, 0.15, 0.02), 0.03, 2e-3),
        (LossSpec.eps_nv(0.9, 0.3, 0.1), 0.08, 0.0),
        (LossSpec.nvc(0.55), 0.02, 1e-3),
        (LossSpec.eps_nv(0.95, 50.0, 0.0), 0.1, 0.0),  # the band swallows every row
    ]
    members = []
    for seed, (spec, eta, l2) in enumerate(settings):
        rows = np.random.default_rng(seed).choice(n, size=2 * n // 3, replace=False)
        config = TrainConfig(eta=eta * eta_scale, batch_size=16, l2=l2, seed=seed, **CONFIGS[stop])
        members.append(Member(rows, spec, config))
    return members


def assert_same_fit(params, trace, own_params, own_trace):
    assert params.tobytes() == own_params.tobytes()
    assert trace.train_loss == own_trace.train_loss
    assert trace.val_loss == own_trace.val_loss
    assert trace.best_epoch == own_trace.best_epoch
    assert trace.epochs_run == own_trace.epochs_run
    assert trace.stop_reason == own_trace.stop_reason


def assert_mixed_stops(traces):
    assert len({(t.epochs_run, t.stop_reason) for t in traces}) > 1


class TestPopulation:
    # 26 features as in the demand panel: products over rows this wide round
    # differently when a row sits elsewhere in the matrix, which these
    # tests must see

    @pytest.mark.parametrize("stop", sorted(CONFIGS))
    def test_linear_members_match_own_fits(self, stop):
        ds = panel(600, 26, seed=5)
        members = mixed_members(stop, n=600)
        models, traces = linear.fit_gd_population(ds, members)
        for m, model, trace in zip(members, models, traces):
            own_model, own_trace = fit_gd(ds.take(m.rows), m.spec, m.config)
            assert_same_fit(model.theta, trace, own_model.theta, own_trace)
        assert_mixed_stops(traces)

    def test_member_at_baseline_leaves_early(self):
        # on three features the widest band swallows every row: that member
        # stops on the loss floor while the others train on
        ds = panel(150, 3, seed=5)
        members = mixed_members("strict")
        models, traces = linear.fit_gd_population(ds, members)
        for m, model, trace in zip(members, models, traces):
            own_model, own_trace = fit_gd(ds.take(m.rows), m.spec, m.config)
            assert_same_fit(model.theta, trace, own_model.theta, own_trace)
        assert traces[-1].stop_reason == "baseline"
        assert traces[-1].epochs_run < max(t.epochs_run for t in traces)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("stop", sorted(CONFIGS))
    def test_network_members_match_own_fits(self, stop, optimizer):
        ds = panel(600, 26, seed=6)
        arch = [26, 5, 4, 1]
        members = mixed_members(stop, n=600, eta_scale=2.0 if optimizer == "sgd" else 0.2)
        models, traces = neural.fit_sgd_population(ds, arch, members, optimizer)
        for m, model, trace in zip(members, models, traces):
            own_model, own_trace = fit_sgd(ds.take(m.rows), m.spec, arch, m.config, optimizer)
            assert_same_fit(model.params, trace, own_model.params, own_trace)
        assert_mixed_stops(traces)

    @staticmethod
    def mse_members(etas):
        members = []
        for seed, eta in enumerate(etas):
            rows = np.random.default_rng(seed).choice(150, size=100, replace=False)
            config = TrainConfig(eta=eta, batch_size=16, seed=seed, **CONFIGS["strict"])
            members.append(Member(rows, LossSpec.mse(), config))
        return members

    def test_stopped_member_is_frozen(self):
        # member 1 grows by orders of magnitude every epoch and stops on
        # patience while still finite; trained on to the shared epoch cap it
        # would overflow, so only a frozen member keeps the population clean
        ds = panel(150, 3, seed=7)
        members = self.mse_members([0.01, 1e5, 0.02])
        with np.errstate(over="ignore", invalid="ignore"):
            models, traces = linear.fit_gd_population(ds, members)
            for m, model, trace in zip(members, models, traces):
                own_model, own_trace = fit_gd(ds.take(m.rows), m.spec, m.config)
                assert_same_fit(model.theta, trace, own_model.theta, own_trace)
        assert traces[1].stop_reason == "patience"
        # past its stop, member 1 overflows before the others finish
        longest = max(t.epochs_run for t in traces)
        unstopped = members[1].config.updated(patience=longest, max_epochs=longest)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            fit_gd(ds.take(members[1].rows), members[1].spec, unstopped)

    def test_diverged_members_end_as_their_lone_fits(self):
        # members 1 and 3 diverge (3 at epoch 1, 1 later); each leaves with
        # its own fit's error and the others train on as if alone
        ds = panel(150, 3, seed=7)
        members = self.mse_members([0.01, 1e20, 0.02, 1e60, 0.03])
        with np.errstate(over="ignore", invalid="ignore"):
            models, traces = linear.fit_gd_population(ds, members)
            for k, (m, model, trace) in enumerate(zip(members, models, traces)):
                if k in (1, 3):
                    with pytest.raises(DivergenceError) as own:
                        fit_gd(ds.take(m.rows), m.spec, m.config)
                    assert (trace.stop_reason, trace.error) == ("diverged", str(own.value))
                else:
                    own_model, own_trace = fit_gd(ds.take(m.rows), m.spec, m.config)
                    assert_same_fit(model.theta, trace, own_model.theta, own_trace)
                    assert trace.error is None
        assert traces[3].error.endswith("at epoch 1")
        assert traces[1].epochs_run > 1
        assert max(t.epochs_run for t in traces) > traces[1].epochs_run

    def test_members_must_share_batch_shape(self):
        ds = panel(150, 3, seed=5)
        members = mixed_members("coarse")
        members[2] = Member(members[2].rows, members[2].spec, members[2].config.updated(batch_size=17))
        with pytest.raises(ValueError, match="population members differ"):
            linear.fit_gd_population(ds, members)
