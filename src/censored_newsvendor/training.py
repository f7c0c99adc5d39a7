"""The mini-batch descent loop: the only code that updates model parameters,
shared by the linear learners, the network learners and the network's
one-row-swap stability probe.  A sweep's fits, CV folds and final fits alike,
reach it through learners.fit_population.

`descend` trains a population of K models at once.  Each model's parameters
are one row of a (K, n_params) array, and each member (`Member`) fits its own
rows of one shared panel with its own seed, and so its own validation split
and batch order, learning rate, weight decay and band.  A batch step gathers
every member's batch into one contiguous (K, b, p) stack, takes the loss
subgradient of all members with one set of array operations and hands it to
the caller's stacked backward pass.  Stacked products make one BLAS call per
member, the same call a lone fit makes, so each member ends bit for bit where
its K = 1 fit ends; that is why a population must never share rows across
members in one matrix product.  Per member, the loop owns the validation
split, the batch order, the SGD or Adam update with masked weight decay, the
divergence checks, the per-epoch trace, the best-validation snapshot and the
stopping rules; a member that stops or diverges leaves the population, and
the others train on exactly as their lone fits would.  Each epoch prices
only the validation rows, which is all the stop rules read; a member's
training split is priced once, on its last iterate, when it leaves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .losses import EPS_NV, NVC, LossSpec, band_cost, band_subgrad, evaluate

# Training halts outright once the monitored loss drops below this floor.
BASELINE_LOSS = 1e-6
# Adam moment decay rates and denominator guard (Kingma & Ba defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Loss kinds that train through the band cost's stacked form (the plain
# newsvendor cost is the band cost with eps1 = eps2 = 0).
BAND_KINDS = (EPS_NV, NVC)


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or parameter."""


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the mini-batch descent loops.

    eta is the constant learning rate, l2 the weight-decay coefficient
    (0 disables it; the intercept / biases are never penalized).  A fraction
    val_fraction of the data is held out for early stopping: training stops
    after `patience` consecutive epochs whose validation loss fails to drop
    below the *previous* epoch's by more than `tolerance` (any such drop
    resets the count, whether or not it beats the best epoch), or once the
    validation loss falls below BASELINE_LOSS.  The best-validation snapshot
    is what gets returned.  val_fraction = 0 holds nothing out: the batch
    order is a permutation of all rows in their given order, no stop rule
    can fire, every one of max_epochs passes runs and the last iterate is
    returned (the fixed-permutation SGD of the stability probes).
    """

    eta: float = 0.015
    batch_size: int = 128
    max_epochs: int = 500
    val_fraction: float = 0.25
    patience: int = 30
    tolerance: float = 1e-7
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"learning rate must be positive, got {self.eta}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(
                f"validation fraction must lie in [0, 1), got {self.val_fraction}"
            )
        if self.patience > self.max_epochs:
            raise ValueError(
                f"patience {self.patience} exceeds max_epochs {self.max_epochs}"
            )
        if self.l2 < 0:
            raise ValueError(f"l2 coefficient must be nonnegative, got {self.l2}")

    def updated(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)


@dataclass
class TrainTrace:
    """Per-epoch validation losses (none without a hold-out), the mean
    training loss of the last iterate, priced once when the fit ends, and
    wall-clock fitting time: from the start of the population until the
    member left it.  A diverged fit stops with reason "diverged" and error
    set to what went non-finite, and when."""

    train_loss: float = float("nan")
    val_loss: list[float] = field(default_factory=list)
    fit_seconds: float = 0.0
    best_epoch: int = 0
    epochs_run: int = 0
    stop_reason: str = "max_epochs"
    error: str | None = None


def raise_divergence(traces) -> None:
    """Raise the DivergenceError of the first diverged trace, if any."""
    for trace in traces:
        if trace.error:
            raise DivergenceError(trace.error)


@dataclass(frozen=True)
class Member:
    """One model of a population: the rows of the shared panel it fits (an
    index array), its training loss and its descent settings."""

    rows: np.ndarray
    spec: LossSpec
    config: TrainConfig


def batch_shape(member: Member) -> tuple:
    """What the members of one population share: the row count, every config
    field but seed, eta and l2, and the loss family (all band kinds count as
    one; any other loss must be the same spec)."""
    spec = member.spec
    return (
        member.rows.shape[0],
        replace(member.config, seed=0, eta=1.0, l2=0.0),
        "band" if spec.kind in BAND_KINDS else spec,
    )


def _column(values) -> np.ndarray:
    return np.array(values, dtype=float)[:, None]


def validation_size(n: int, val_fraction: float) -> int:
    """Rows of n held out for validation: none when val_fraction is 0, else
    round(val_fraction n), at least 1 and at most n - 1."""
    return min(max(int(round(val_fraction * n)), 1), n - 1) if val_fraction else 0


def train_val_split(
    n: int, config: TrainConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle indices and split them into train/validation.  Without a
    hold-out every row trains, in order, and rng is left untouched."""
    n_val = validation_size(n, config.val_fraction)
    idx = rng.permutation(n) if n_val else np.arange(n)
    return idx[n_val:], idx[:n_val]


def descend(
    params: np.ndarray,
    forward,
    backward,
    X: np.ndarray,
    s: np.ndarray,
    members: list[Member],
    decay_mask: np.ndarray,
    optimizer: str = "sgd",
    reshuffle: bool = True,
) -> tuple[np.ndarray, list[TrainTrace]]:
    """Mini-batch descent of a population of models over the shared panel (X, s).

    params is (K, n_params), one row per member, updated in place; each row
    ends at its member's last iterate.  forward(P, Xb) takes parameter rows P
    and their batches Xb stacked as (k, b, p) and returns the decisions
    (k, b) with a cache; backward(P, cache, dy) returns the batch-mean
    gradients (k, n_params) for decision subgradients dy.  With l2 > 0 the
    decay term 2 l2 params is added where decay_mask is 1.  optimizer is
    "sgd" (constant rate) or "adam".  reshuffle draws a fresh batch order
    every epoch; otherwise one permutation is drawn per run and reused on
    every pass.

    Members must agree on batch_shape.  Returns the best-validation snapshot
    (without a hold-out, the last iterate) of every member as a (K, n_params)
    array, and the traces.  A member that diverges leaves the population with
    its best snapshot so far and the reason on its trace (raise_divergence
    turns it into the lone fit's error); the others train on as if alone.
    """
    if optimizer not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer {optimizer!r}")
    shape = batch_shape(members[0])
    if any(batch_shape(m) != shape for m in members):
        raise ValueError("population members differ in row count, loss family or shared config")
    n, config, band = shape[0], members[0].config, shape[2] == "band"
    if config.val_fraction and n < 2:
        raise ValueError("need at least two rows to hold out a validation split")
    n_train = n - validation_size(n, config.val_fraction)
    if config.batch_size > n_train:
        raise ValueError(
            f"batch size {config.batch_size} exceeds training split size {n_train}"
        )

    K = len(members)
    rngs = [np.random.default_rng(m.config.seed) for m in members]
    splits = [train_val_split(n, m.config, rng) for m, rng in zip(members, rngs)]
    train_rows = np.stack([m.rows[t] for m, (t, _) in zip(members, splits)])
    val_rows = np.stack([m.rows[v] for m, (_, v) in zip(members, splits)])
    held_out = val_rows.shape[1] > 0
    l2 = _column([m.config.l2 for m in members])
    # one row per member still training; a member's rows leave when it stops
    live = SimpleNamespace(
        ids=np.arange(K),
        rngs=np.array(rngs, dtype=object),
        params=params.copy(),
        eta=_column([m.config.eta for m in members]),
        decay=2.0 * l2 * decay_mask if np.any(l2 > 0.0) else None,
        train_rows=train_rows,
        val_rows=val_rows,
        order=None if reshuffle else np.stack(
            [rng.permutation(rows) for rng, rows in zip(rngs, train_rows)]
        ),
        s_train=s[train_rows],
        s_val=s[val_rows],
    )
    if band:
        live.alpha = _column([m.spec.alpha for m in members])
        live.eps1 = _column([m.spec.eps1 for m in members])
        live.eps2 = _column([m.spec.eps2 for m in members])
    spec = members[0].spec
    if optimizer == "adam":
        live.m, live.v = np.zeros_like(live.params), np.zeros_like(live.params)
    steps = 0

    def batch_pass(live):
        """One pass over every live member's training rows."""
        nonlocal steps
        if reshuffle:
            order = np.stack([rng.permutation(r) for rng, r in zip(live.rngs, live.train_rows)])
        else:
            order = live.order
        P, targets = live.params, s[order]
        if band:  # the band edges of the epoch's rows, formed once for all batches
            upper, lower = targets + live.eps1, targets + live.eps2
        for start in range(0, n_train, config.batch_size):
            cols = slice(start, start + config.batch_size)
            y, cache = forward(P, X.take(order[:, cols], axis=0))
            if band:
                dy = band_subgrad(y, lower[:, cols], upper[:, cols], live.alpha)
            else:
                dy = evaluate(targets[:, cols], y, spec).subgrad
            grad = backward(P, cache, dy)
            if live.decay is not None:
                grad = grad + live.decay * P
            if optimizer == "sgd":
                P -= live.eta * grad
            else:
                steps += 1
                live.m = ADAM_BETA1 * live.m + (1 - ADAM_BETA1) * grad
                live.v = ADAM_BETA2 * live.v + (1 - ADAM_BETA2) * grad * grad
                P -= (
                    live.eta * (live.m / (1 - ADAM_BETA1**steps))
                    / (np.sqrt(live.v / (1 - ADAM_BETA2**steps)) + ADAM_EPS)
                )

    def mean_loss(live, rows, targets) -> list[float]:
        """Mean loss of every live member on its rows (k, m), whose targets
        are (k, m).  Each member's rows are gathered contiguously, as a lone
        fit holds them, so that the products round alike."""
        y = np.empty_like(targets)
        for i in range(y.shape[0]):
            y[i] = forward(live.params[i : i + 1], X.take(rows[i][None], axis=0))[0][0]
        if band:
            loss = band_cost(targets, y, live.alpha, live.eps1, live.eps2)
        else:
            loss = evaluate(targets, y, spec).value
        return loss.mean(axis=1).tolist()

    def subset(live, keep):
        return SimpleNamespace(
            **{name: None if a is None else a[keep] for name, a in vars(live).items()}
        )

    best = params.copy()
    traces = [TrainTrace() for _ in members]
    best_loss, prev_loss, strikes = np.full(K, np.inf), np.full(K, np.inf), np.zeros(K, int)
    started = time.perf_counter()

    for epoch in range(1, config.max_epochs + 1):
        batch_pass(live)
        P = live.params
        finite = np.isfinite(P).all(axis=1)
        val_losses = mean_loss(live, live.val_rows, live.s_val) if held_out else [0.0] * len(P)

        done = np.zeros(P.shape[0], bool)
        for i, (k, val_loss) in enumerate(zip(live.ids.tolist(), val_losses)):
            trace = traces[k]
            trace.epochs_run = epoch
            if not finite[i] or not np.isfinite(val_loss):
                what = "parameters" if not finite[i] else "loss"
                trace.stop_reason, trace.error = "diverged", f"non-finite {what} at epoch {epoch}"
                done[i] = True
                continue
            if not held_out:  # no stop rule can fire; the last iterate is returned
                trace.best_epoch, best[k] = epoch, P[i]
                continue
            trace.val_loss.append(val_loss)
            # a strike is an epoch that fails to beat the previous one (not the best)
            strikes[k] = 0 if val_loss < prev_loss[k] - config.tolerance else strikes[k] + 1
            prev_loss[k] = val_loss
            if val_loss < best_loss[k]:
                best_loss[k], trace.best_epoch, best[k] = val_loss, epoch, P[i]
            if val_loss < BASELINE_LOSS:
                trace.stop_reason, done[i] = "baseline", True
            elif strikes[k] >= config.patience:
                trace.stop_reason, done[i] = "patience", True
        if epoch == config.max_epochs:
            done[:] = True
        if done.any():
            leaving = subset(live, done)
            train_losses = mean_loss(leaving, leaving.train_rows, leaving.s_train)
            elapsed = time.perf_counter() - started
            for i, k in enumerate(leaving.ids.tolist()):
                params[k], traces[k].train_loss = leaving.params[i], train_losses[i]
                traces[k].fit_seconds = elapsed
            live = subset(live, ~done)
            if not live.ids.size:
                break

    return best, traces
