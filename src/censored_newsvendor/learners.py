"""Registry of the seven trainable decision learners.

Kind names are the external identifiers used by the tuning protocol, the
experiment driver, and the CLI:

  LR-MSE      least squares in closed form, prediction used as the decision
  LR-NVC      linear model trained on the plain newsvendor cost
  LR-eNVC     linear model trained on the band-insensitive cost (no decay)
  LR-eNVC-R   band-insensitive linear model with L2 weight decay
  NN-MSE / NN-NVC / NN-eNVC   the network counterparts
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import linear, neural
from .losses import LossSpec
from .training import TrainConfig, TrainTrace

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


def fit_learner(
    kind: str,
    dataset,
    alpha: float,
    hyperparams: dict | None = None,
    seed: int = 0,
    nn_optimizer: str = "adam",
) -> FittedLearner:
    """Fit one learner on (already scaled) training data and time the fit.

    Network fits default to the adaptive-moment optimizer; pass
    nn_optimizer="sgd" for plain constant-rate SGD (the stability probes
    call the network trainer directly and always use SGD).
    """
    if kind not in LEARNER_KINDS:
        raise ValueError(f"unknown learner kind {kind!r}")
    hp = {**DEFAULT_HYPERPARAMS, **(hyperparams or {})}
    spec = loss_for(kind, alpha, hp["eps1"], hp["eps2"])

    if kind == "LR-MSE":
        started = time.perf_counter()
        model = linear.fit_mse_closed_form(dataset)
        return FittedLearner(kind, model, time.perf_counter() - started, None)

    l2 = hp["l2"] if kind in DECAYED_KINDS else 0.0
    eta = hp["eta"] if kind in LINEAR_KINDS else hp["nn_eta"]
    config = TrainConfig(
        eta=eta, batch_size=int(hp["batch_size"]), l2=l2, seed=seed
    )
    if config.batch_size > dataset.n - max(1, round(config.val_fraction * dataset.n)):
        config = config.updated(batch_size=max(1, dataset.n // 2))

    if kind in LINEAR_KINDS:
        model, trace = linear.fit_gd(dataset, spec, config)
    else:
        arch = [dataset.p, int(hp["units1"]), int(hp["units2"]), 1]
        model, trace = neural.fit_sgd(dataset, spec, arch, config, optimizer=nn_optimizer)
    return FittedLearner(kind, model, trace.fit_seconds, trace)
