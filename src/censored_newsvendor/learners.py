"""Registry of the seven trainable decision learners.

Kind names are the external identifiers used by the tuning protocol, the
experiment driver, and the CLI:

  LR-MSE      least squares in closed form, prediction used as the decision
  LR-NVC      linear model trained on the plain newsvendor cost
  LR-eNVC     linear model trained on the band-insensitive cost (no decay)
  LR-eNVC-R   band-insensitive linear model with L2 weight decay
  NN-MSE / NN-NVC / NN-eNVC   the network counterparts

Every fit goes through fit_population, which takes a list of jobs of any
kinds and trains the descent fits that can share a step as one population;
fit_learner is its one-job case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import linear, neural
from .losses import LossSpec
from .training import (
    DivergenceError,
    Member,
    TrainConfig,
    TrainTrace,
    batch_shape,
    validation_size,
)

LINEAR_KINDS = ("LR-MSE", "LR-NVC", "LR-eNVC", "LR-eNVC-R")
NEURAL_KINDS = ("NN-MSE", "NN-NVC", "NN-eNVC")
LEARNER_KINDS = LINEAR_KINDS + NEURAL_KINDS
BANDED_KINDS = ("LR-eNVC", "LR-eNVC-R", "NN-eNVC")
# The descent-trained newsvendor linear models share one weight-decay knob.
DECAYED_KINDS = ("LR-NVC", "LR-eNVC-R")

# Untuned fallbacks; the two-stage protocol overrides what it searches.
DEFAULT_HYPERPARAMS = {
    "eta": 0.015,
    "nn_eta": 0.002,  # adaptive-moment steps want a smaller rate
    "batch_size": 128,
    "l2": 0.0,
    "units1": 9,
    "units2": 5,
    "eps1": 0.0,
    "eps2": 0.0,
}


@dataclass
class FittedLearner:
    kind: str
    model: object
    fit_seconds: float
    trace: TrainTrace | None

    def predict(self, features) -> np.ndarray:
        return predict(self.model, features)


def predict(model, features) -> float | np.ndarray:
    """Decisions of a linear or network model for one feature row or many."""
    if isinstance(model, linear.LinearModel):
        return linear.predict(model, features)
    return neural.forward(model, features)[0]


def loss_for(kind: str, alpha: float, eps1: float = 0.0, eps2: float = 0.0) -> LossSpec:
    """Training loss of a learner kind; a zero-width band degrades to the
    plain newsvendor cost (used by stage 1 of the tuning protocol)."""
    if kind not in LEARNER_KINDS:
        raise ValueError(f"unknown learner kind {kind!r}")
    if kind.endswith("MSE"):
        return LossSpec.mse()
    if kind in BANDED_KINDS and eps1 > 0.0:
        return LossSpec.eps_nv(alpha, eps1, eps2)
    return LossSpec.nvc(alpha)


def _plan(kind: str, n: int, p: int, alpha: float, hyperparams: dict | None, seed: int):
    """Training loss, descent settings and network architecture (None for a
    linear model) of a descent fit on n rows of p features."""
    hp = {**DEFAULT_HYPERPARAMS, **(hyperparams or {})}
    spec = loss_for(kind, alpha, hp["eps1"], hp["eps2"])
    l2 = hp["l2"] if kind in DECAYED_KINDS else 0.0
    eta = hp["eta"] if kind in LINEAR_KINDS else hp["nn_eta"]
    config = TrainConfig(eta=eta, batch_size=int(hp["batch_size"]), l2=l2, seed=seed)
    if config.batch_size > n - validation_size(n, config.val_fraction):
        config = config.updated(batch_size=max(1, n // 2))
    arch = None if kind in LINEAR_KINDS else (p, int(hp["units1"]), int(hp["units2"]), 1)
    return spec, config, arch


def fit_learner(
    kind: str,
    dataset,
    alpha: float,
    hyperparams: dict | None = None,
    seed: int = 0,
    nn_optimizer: str = "adam",
) -> FittedLearner:
    """Fit one learner on (already scaled) training data and time the fit:
    the one-job case of fit_population.

    Network fits default to the adaptive-moment optimizer; pass
    nn_optimizer="sgd" for plain constant-rate SGD (the stability probes
    train through neural.swap_distances, with single-sample SGD).
    """
    job = (kind, np.arange(dataset.n), alpha, hyperparams, seed)
    (fitted,) = fit_population(dataset, [job], nn_optimizer)
    if isinstance(fitted, Exception):
        raise fitted
    return fitted


def fit_population(dataset, jobs, nn_optimizer: str = "adam") -> list:
    """Fit one learner per job (kind, rows, alpha, hyperparams, seed) on those
    rows of dataset.

    Result j is the FittedLearner that fit_learner(kind, dataset.take(rows),
    alpha, hyperparams, seed, nn_optimizer) returns, bit for bit, or the
    exception it raises: every job is tried, and a failing job fails alone.
    LR-MSE is solved in closed form.  Descent fits that share an
    architecture and a batch shape (training.batch_shape) train as one
    population through training.descend, whatever their kinds, seeds, rows,
    learning rates, weight decay and bands.
    """
    results: list = [None] * len(jobs)
    groups: dict = {}
    for j, (kind, rows, alpha, hyperparams, seed) in enumerate(jobs):
        rows = np.asarray(rows)
        try:
            if kind == "LR-MSE":
                started = time.perf_counter()
                model = linear.fit_mse_closed_form(dataset.take(rows))
                results[j] = FittedLearner(kind, model, time.perf_counter() - started, None)
                continue
            spec, config, arch = _plan(kind, rows.shape[0], dataset.p, alpha, hyperparams, seed)
        except Exception as exc:
            results[j] = exc
            continue
        member = Member(rows, spec, config)
        groups.setdefault((arch, batch_shape(member)), []).append((j, kind, member))

    for (arch, _), group in groups.items():
        members = [member for _, _, member in group]
        try:
            if arch is None:
                models, traces = linear.fit_gd_population(dataset, members)
            else:
                models, traces = neural.fit_sgd_population(dataset, arch, members, nn_optimizer)
        except Exception as exc:  # raised before training, so every member's own fit raises it
            for j, _, _ in group:
                results[j] = exc
            continue
        for (j, kind, _), model, trace in zip(group, models, traces):
            results[j] = (
                DivergenceError(trace.error) if trace.error
                else FittedLearner(kind, model, trace.fit_seconds, trace)
            )
    return results
