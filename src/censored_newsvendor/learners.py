"""Registry of the seven trainable decision learners.

Kind names are the external identifiers used by the tuning protocol, the
experiment driver, and the CLI:

  LR-MSE      least squares in closed form, prediction used as the decision
  LR-NVC      linear model trained on the plain newsvendor cost
  LR-eNVC     linear model trained on the band-insensitive cost (no decay)
  LR-eNVC-R   band-insensitive linear model with L2 weight decay
  NN-MSE / NN-NVC / NN-eNVC   the network counterparts

Every fit goes through fit_population, which takes a list of jobs of any
kinds, trains jobs with equal planned fits once, and trains the descent fits
that can share a step as populations, split across the usable CPUs by
forked worker processes, each fit bit for bit what it would be alone;
fit_learner is its one-job case and never starts a process.
"""

from __future__ import annotations

import os
import threading
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
CLOSED_FORM = "closed form"  # the architecture _plan gives a least-squares fit

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


def _plan(kind: str, rows: np.ndarray, p: int, alpha: float, hyperparams: dict | None, seed: int):
    """The planned fit of a job on those rows of p features: its architecture
    (CLOSED_FORM for least squares, None for a descent-trained linear model,
    else the network's layer sizes) and its Member (rows, training loss,
    descent settings).  Jobs with equal plans fit the same model."""
    if kind == "LR-MSE":
        return CLOSED_FORM, Member(rows, LossSpec.mse(), None)
    hp = {**DEFAULT_HYPERPARAMS, **(hyperparams or {})}
    spec = loss_for(kind, alpha, hp["eps1"], hp["eps2"])
    l2 = hp["l2"] if kind in DECAYED_KINDS else 0.0
    eta = hp["eta"] if kind in LINEAR_KINDS else hp["nn_eta"]
    config = TrainConfig(eta=eta, batch_size=int(hp["batch_size"]), l2=l2, seed=seed)
    n = rows.shape[0]
    if config.batch_size > n - validation_size(n, config.val_fraction):
        config = config.updated(batch_size=max(1, n // 2))
    arch = None if kind in LINEAR_KINDS else (p, int(hp["units1"]), int(hp["units2"]), 1)
    return arch, Member(rows, spec, config)


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
    Jobs with equal planned fits (_plan) train once, and each gets its own
    FittedLearner, with its own kind; LR-MSE is solved in closed form.
    Descent fits that share an architecture and a batch shape
    (training.batch_shape) form a group, whatever their kinds, seeds, rows,
    learning rates, weight decay and bands.  Each group is dealt into up to
    one interleaved chunk per usable CPU, and every chunk trains as one
    population through training.descend, in a pool of forked worker
    processes, largest chunks first, closed before the call returns.  With
    one chunk, one usable CPU, no fork, or other threads running, the chunks
    train in this process.  A fit's time runs from the start of its chunk's
    population.
    """
    results: list = [None] * len(jobs)
    planned: dict = {}  # planned fit -> (arch, member, its jobs)
    for j, (kind, rows, alpha, hyperparams, seed) in enumerate(jobs):
        rows = np.asarray(rows)
        try:
            arch, member = _plan(kind, rows, dataset.p, alpha, hyperparams, seed)
        except Exception as exc:
            results[j] = exc
            continue
        key = (arch, rows.dtype.str, rows.tobytes(), member.spec, member.config)
        planned.setdefault(key, (arch, member, []))[2].append(j)

    def settle(owners, outcome):  # each job of a planned fit gets its own result
        for j in owners:
            results[j] = (
                outcome if isinstance(outcome, Exception) else FittedLearner(jobs[j][0], *outcome)
            )

    groups: dict = {}
    for arch, member, owners in planned.values():
        if arch != CLOSED_FORM:
            groups.setdefault((arch, batch_shape(member)), []).append((owners, member))
            continue
        try:
            started = time.perf_counter()
            model = linear.fit_mse_closed_form(dataset.take(member.rows))
            settle(owners, (model, time.perf_counter() - started, None))
        except Exception as exc:
            settle(owners, exc)

    # a fork copies every lock another thread may hold, so a process running
    # other threads trains in-process
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    workers = _usable_cpus() if forkable else 1
    chunks = [
        (arch, group[w::workers])
        for (arch, _), group in groups.items()
        for w in range(min(workers, len(group)))
    ]
    chunks.sort(key=lambda chunk: -_work(dataset, *chunk))
    for (_, chunk), trained in zip(chunks, _train_all(dataset, chunks, nn_optimizer, workers)):
        for (owners, _), outcome in zip(chunk, trained):
            settle(owners, outcome)
    return results


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _work(dataset, arch, chunk) -> int:
    """Multiply-adds of one pass over a chunk's rows: members x rows x
    parameters per model."""
    sizes = (dataset.p, 1) if arch is None else arch
    n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    return sum(member.rows.shape[0] for _, member in chunk) * n_params


def _train_all(dataset, chunks, optimizer: str, workers: int) -> list:
    """_train of every (arch, [(jobs, member), ...]) chunk, in order:
    in a pool of up to `workers` forked processes when there are several
    chunks, else in this process."""
    tasks = [(dataset, arch, [m for _, m in chunk], optimizer) for arch, chunk in chunks]
    if len(tasks) < 2 or workers < 2:
        return [_train(*task) for task in tasks]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    outcomes = []
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(min(workers, len(tasks)), mp_context=context) as pool:
        futures = [pool.submit(_train, *task) for task in tasks]
        for future, (_, _, members, _) in zip(futures, tasks):
            try:
                outcomes.append(future.result())
            except Exception as exc:  # the worker died or its result did not pickle
                outcomes.append([exc] * len(members))
    return outcomes


def _train(dataset, arch, members, optimizer: str) -> list:
    """(model, fit seconds, trace) of every member, trained as one
    population, or the exception of each member whose lone fit raises one
    (DivergenceError if it diverged).  When the population raises, each
    member trains alone, so that a failing member fails alone and the others
    end as their lone fits do."""
    try:
        if arch is None:
            models, traces = linear.fit_gd_population(dataset, members)
        else:
            models, traces = neural.fit_sgd_population(dataset, arch, members, optimizer)
    except Exception as exc:
        if len(members) == 1:
            return [exc]
        return [out for member in members for out in _train(dataset, arch, [member], optimizer)]
    return [
        DivergenceError(t.error) if t.error else (m, t.fit_seconds, t)
        for m, t in zip(models, traces)
    ]
