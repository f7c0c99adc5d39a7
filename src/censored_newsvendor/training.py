"""The mini-batch descent loop shared by the linear and network learners.

`descend` trains any model whose parameters live in one flat vector: the
caller supplies a prediction and a batch-gradient closure over that vector,
and the loop owns the validation split, the batch order, the SGD or Adam
update with masked weight decay, divergence checks, the per-epoch trace, the
best-validation snapshot and the stopping rules.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .losses import LossSpec, batch_loss

# Training halts outright once the monitored loss drops below this floor.
BASELINE_LOSS = 1e-6
# Adam moment decay rates and denominator guard (Kingma & Ba defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
    is what gets returned.
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
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(
                f"validation fraction must lie in (0, 1), got {self.val_fraction}"
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
    """Per-epoch train/validation losses plus wall-clock fitting time."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    fit_seconds: float = 0.0
    best_epoch: int = 0
    epochs_run: int = 0
    stop_reason: str = "max_epochs"


def train_val_split(
    n: int, config: TrainConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle indices and split them into train/validation."""
    idx = rng.permutation(n)
    n_val = int(round(config.val_fraction * n))
    n_val = min(max(n_val, 1), n - 1)
    return idx[n_val:], idx[:n_val]


def batches(order: np.ndarray, batch_size: int):
    for start in range(0, order.shape[0], batch_size):
        yield order[start : start + batch_size]


def descend(
    params: np.ndarray,
    predict,
    gradient,
    X: np.ndarray,
    s: np.ndarray,
    spec: LossSpec,
    config: TrainConfig,
    decay_mask: np.ndarray,
    optimizer: str = "sgd",
    reshuffle: bool = True,
) -> tuple[np.ndarray, TrainTrace]:
    """Mini-batch descent on `params` in place; returns the best snapshot.

    predict(X) gives the model's decisions for rows X and gradient(Xb, sb)
    the batch-mean loss gradient as a flat vector, both reading `params`.
    With config.l2 > 0 the decay term 2 l2 params is added to the gradient
    where decay_mask is 1.  optimizer is "sgd" (constant rate) or "adam".
    reshuffle draws a fresh batch order every epoch; otherwise one
    permutation is drawn per run and reused on every pass.  Returns a copy of
    the parameters at the best validation epoch and the trace.
    """
    if optimizer not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer {optimizer!r}")
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least two rows to hold out a validation split")
    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = train_val_split(n, config, rng)
    if config.batch_size > train_idx.shape[0]:
        raise ValueError(
            f"batch size {config.batch_size} exceeds training split size "
            f"{train_idx.shape[0]}"
        )
    X_train, s_train = X[train_idx], s[train_idx]
    X_val, s_val = X[val_idx], s[val_idx]
    order = None if reshuffle else rng.permutation(train_idx)

    if optimizer == "adam":
        m, v, t = np.zeros_like(params), np.zeros_like(params), 0
    best = params.copy()
    best_loss, prev_loss, strikes = np.inf, np.inf, 0
    trace = TrainTrace()
    started = time.perf_counter()

    for epoch in range(1, config.max_epochs + 1):
        epoch_order = rng.permutation(train_idx) if reshuffle else order
        for batch in batches(epoch_order, config.batch_size):
            grad = gradient(X[batch], s[batch])
            if config.l2 > 0.0:
                grad = grad + 2.0 * config.l2 * params * decay_mask
            if optimizer == "sgd":
                params -= config.eta * grad
            else:
                t += 1
                m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
                v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad * grad
                params -= (
                    config.eta * (m / (1 - ADAM_BETA1**t))
                    / (np.sqrt(v / (1 - ADAM_BETA2**t)) + ADAM_EPS)
                )
        if not np.all(np.isfinite(params)):
            raise DivergenceError(f"non-finite parameters at epoch {epoch}")

        train_loss = batch_loss(s_train, predict(X_train), spec)
        val_loss = batch_loss(s_val, predict(X_val), spec)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        trace.train_loss.append(train_loss)
        trace.val_loss.append(val_loss)
        trace.epochs_run = epoch

        # a strike is an epoch that fails to beat the previous one (not the best)
        strikes = 0 if val_loss < prev_loss - config.tolerance else strikes + 1
        prev_loss = val_loss
        if val_loss < best_loss:
            best_loss, trace.best_epoch, best = val_loss, epoch, params.copy()
        if val_loss < BASELINE_LOSS:
            trace.stop_reason = "baseline"
            break
        if strikes >= config.patience:
            trace.stop_reason = "patience"
            break

    trace.fit_seconds = time.perf_counter() - started
    return best, trace
