"""Two-stage hyperparameter protocol with seeded random search.

Stage 1 tunes model hyperparameters at critical ratio 0.55 with a zero-width
band; stage 2 fixes those and tunes the band edges (eps1, eps2) per alpha.
Both stages score candidates by repeated 75/25 cross-validation splits of
the training set, evaluating on the held out part the loss each candidate's
fits trained.  Candidates are drawn sequentially from one seeded stream, so
the winner with a larger budget can only improve for the same seed.

tune_all tunes several kinds in one pass per stage: every kind's stage-1
candidates x folds train in one learners.fit_population call, every banded
kind's stage-2 candidates of every ratio in a second.  Scores, winners and
errors equal those of tuning each kind alone (two_stage_protocol, the
one-kind case) and fitting each fold in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

# fit_learner is not called here; perfbench's tracer checks that this module binds it
from .learners import (  # noqa: F401
    BANDED_KINDS,
    LEARNER_KINDS,
    fit_learner,
    fit_population,
    loss_for,
)
from .losses import batch_loss

STAGE1_ALPHA = 0.55


@dataclass(frozen=True)
class SearchSpace:
    """Named parameter distributions: ("uniform", lo, hi) or ("int", lo, hi).

    Integer ranges are inclusive.  When both band edges are present, sampled
    pairs violating eps1 > eps2 are rejected and redrawn.
    """

    params: dict = field(default_factory=dict)

    def sample(self, rng: np.random.Generator) -> dict:
        if not self.params:
            raise ValueError("cannot sample from an empty search space")
        out = {}
        for name, dist in self.params.items():
            out[name] = self._draw(dist, rng)
        if "eps1" in out and "eps2" in out:
            while not out["eps1"] > out["eps2"]:
                out["eps1"] = self._draw(self.params["eps1"], rng)
                out["eps2"] = self._draw(self.params["eps2"], rng)
        return out

    @staticmethod
    def _draw(dist, rng):
        kind, lo, hi = dist
        if kind == "uniform":
            return float(rng.uniform(lo, hi))
        if kind == "int":
            return int(rng.integers(lo, hi + 1))
        raise ValueError(f"unknown distribution kind {kind!r}")

    @classmethod
    def model_space(cls, learner_kind: str) -> "SearchSpace":
        """Stage-1 space: descent knobs for linear models, width knobs for nets."""
        if learner_kind == "LR-MSE":
            return cls({})
        if learner_kind.startswith("LR"):
            params = {
                "eta": ("uniform", 0.005, 0.025),
                "batch_size": ("int", 64, 256),
            }
            if learner_kind in ("LR-NVC", "LR-eNVC-R"):
                params["l2"] = ("uniform", 0.0, 0.001)
            return cls(params)
        return cls(
            {
                "units1": ("int", 4, 10),
                "units2": ("int", 3, 8),
                "batch_size": ("int", 64, 256),
            }
        )

    @classmethod
    def band_space(cls) -> "SearchSpace":
        return cls({"eps1": ("uniform", 0.0, 0.20), "eps2": ("uniform", 0.0, 0.15)})


@dataclass(frozen=True)
class CVPlan:
    """Repeated fresh 75/25 splits (not disjoint folds), seeded, and the
    number of candidates a search draws."""

    folds: int = 4
    seed: int = 0
    budget: int = 50

    def __post_init__(self):
        if self.folds < 1:
            raise ValueError(f"folds must be at least 1, got {self.folds}")
        if self.budget < 1:
            raise ValueError(f"budget must be at least 1, got {self.budget}")


def _folds(n: int, plan: CVPlan) -> list[tuple[np.ndarray, np.ndarray]]:
    """The plan's splits of n rows as (fit rows, held-out rows) per fold."""
    rng = np.random.default_rng(plan.seed)
    n_val = max(1, int(round(0.25 * n)))
    folds = []
    for _ in range(plan.folds):
        idx = rng.permutation(n)
        folds.append((idx[n_val:], idx[:n_val]))
    return folds


def cv_scores(train, candidates) -> list:
    """Mean held-out loss over the plan's splits of every (kind, alpha,
    hyperparams, plan) candidate, priced with the loss its fits trained
    (learners.loss_for), or `fold j failed: ...` for its first failing fold.

    The folds of all candidates train in one learners.fit_population call;
    scores and errors equal those of fitting each fold in turn with
    fit_learner, on any number of CPUs.
    """
    jobs, held_out = [], []  # held_out: (candidate, fold, held-out rows) per job
    for c, (kind, alpha, hyperparams, plan) in enumerate(candidates):
        for j, (fit_idx, val_idx) in enumerate(_folds(train.n, plan)):
            jobs.append((kind, fit_idx, alpha, hyperparams, plan.seed + j))
            held_out.append((c, j, val_idx))
    fitted = fit_population(train, jobs)
    scores: list = [[] for _ in candidates]
    for (c, j, val_idx), fit in zip(held_out, fitted):
        if isinstance(scores[c], Exception):
            continue
        if isinstance(fit, Exception):
            scores[c] = RuntimeError(f"fold {j} failed: {fit}")
            scores[c].__cause__ = fit
            continue
        kind, alpha, hp, _ = candidates[c]
        spec = loss_for(kind, alpha, hp.get("eps1", 0.0), hp.get("eps2", 0.0))
        fold_val = train.take(val_idx)
        scores[c].append(batch_loss(fold_val.sales, fit.predict(fold_val.features), spec))
    return [s if isinstance(s, Exception) else float(np.mean(s)) for s in scores]


def search(train, learner_kind: str, alpha: float, space: SearchSpace, plan: CVPlan,
           fixed: dict | None = None) -> tuple[dict, list]:
    """Score `budget` sampled configurations at critical ratio alpha; return
    the argmin and the table.

    `fixed` holds hyperparameters pinned from an earlier stage; they are
    merged into every candidate before scoring.
    """
    (result,) = _searches(train, [(learner_kind, alpha, space, plan, fixed)])
    if isinstance(result, Exception):
        raise result
    return result


def _searches(train, problems) -> list:
    """search of each (kind, alpha, space, plan, fixed) problem, with the
    candidates of all problems scored by one cv_scores call; a problem with
    a failing candidate gets the error of the first."""
    drawn = []
    for kind, alpha, space, plan, fixed in problems:
        rng = np.random.default_rng(plan.seed)
        candidates = [space.sample(rng) for _ in range(plan.budget)]
        drawn.append([(kind, alpha, {**(fixed or {}), **cand}, plan) for cand in candidates])
    scores = iter(cv_scores(train, [c for batch in drawn for c in batch]))
    results = []
    for batch in drawn:
        table = [(merged, next(scores)) for _, _, merged, _ in batch]
        failed = [score for _, score in table if isinstance(score, Exception)]
        if failed:
            results.append(failed[0])
            continue
        best, best_score = None, np.inf
        for merged, score in table:
            if score < best_score:
                best, best_score = merged, score
        results.append((dict(best), table))
    return results


def tune_all(train, kinds, alphas, plan: CVPlan | None = None) -> dict:
    """The tuning protocol of every kind; returns {kind: {alpha:
    hyperparameter dict}}, or for a kind whose tuning failed the error its
    lone two_stage_protocol raises.

    One cv_scores call scores stage 1 of every kind, a second stage 2 of
    every banded kind that passed stage 1.  Models without a band skip
    stage 2, so their per-alpha configurations are identical; the
    closed-form least-squares learner has nothing to tune at all.
    """
    unknown = [kind for kind in kinds if kind not in LEARNER_KINDS]
    if unknown:
        raise ValueError(f"unknown learner kind {unknown[0]!r}")
    if not alphas:
        raise ValueError("need at least one alpha")
    plan = plan or CVPlan()

    tuned = {kind: {} for kind in kinds}  # the stage-1 winner, or the error
    searched = [kind for kind in tuned if SearchSpace.model_space(kind).params]
    stage1 = [(kind, STAGE1_ALPHA, SearchSpace.model_space(kind), plan, None) for kind in searched]
    for kind, result in zip(searched, _searches(train, stage1)):
        tuned[kind] = result if isinstance(result, Exception) else result[0]

    # one search per banded kind and ratio; a kind's searches train as one population
    banded = [k for k in tuned if k in BANDED_KINDS and not isinstance(tuned[k], Exception)]
    stage2 = iter(_searches(train, [
        (kind, alpha, SearchSpace.band_space(),
         replace(plan, seed=plan.seed + 1000 * (k + 1)), tuned[kind])
        for kind in banded
        for k, alpha in enumerate(alphas)
    ]))
    for kind in tuned:
        if isinstance(tuned[kind], Exception):
            continue
        results = [next(stage2) if kind in banded else (tuned[kind], None) for _ in alphas]
        failed = [result for result in results if isinstance(result, Exception)]
        tuned[kind] = failed[0] if failed else {
            alpha: dict(best) for alpha, (best, _) in zip(alphas, results)
        }
    return tuned


def two_stage_protocol(train, learner_kind: str, alphas, plan: CVPlan | None = None) -> dict:
    """Full tuning protocol of one learner kind; returns {alpha: hyperparameter
    dict}: the one-kind case of tune_all."""
    tuned = tune_all(train, (learner_kind,), alphas, plan)[learner_kind]
    if isinstance(tuned, Exception):
        raise tuned
    return tuned
