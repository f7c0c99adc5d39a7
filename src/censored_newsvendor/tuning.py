"""Two-stage hyperparameter protocol with seeded random search.

Stage 1 tunes model hyperparameters at critical ratio 0.55 with a zero-width
band; stage 2 fixes those and tunes the band edges (eps1, eps2) per alpha.
Both stages score candidates by repeated 75/25 cross-validation splits of
the training set, evaluating each candidate's own training loss on the held
out part.  Candidates are drawn sequentially from one seeded stream, so the
winner with a larger budget can only improve for the same seed.

A search fits all its candidates x folds at once through cv_scores: fits
that share a batch shape train as one population (training.descend), and
stage 2 pools the searches of every ratio, so a banded learner's stage-2
fits all train together.  Scores, winners and fold errors equal those of
fitting each fold in turn.
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
from .losses import LossSpec, batch_loss

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


def cv_scores(train, learner_kind: str, candidates) -> list[float]:
    """Mean held-out loss (the spec's own loss) over the plan's splits, of
    every (spec, hyperparams, plan) candidate.

    The folds of all candidates go to one learners.fit_population call,
    which trains fits that share a batch shape as one population.  Scores,
    and the error raised when a fold fails (`fold j failed: ...` for the
    first failing fit in candidate and fold order), equal those of fitting
    each fold in turn with fit_learner.
    """
    jobs, held_out = [], []  # held_out: (candidate, fold, held-out rows) per job
    for c, (spec, hyperparams, plan) in enumerate(candidates):
        for j, (fit_idx, val_idx) in enumerate(_folds(train.n, plan)):
            jobs.append((learner_kind, fit_idx, spec.alpha, hyperparams, plan.seed + j))
            held_out.append((c, j, val_idx))
    fitted = fit_population(train, jobs)
    fold_scores = [[] for _ in candidates]
    for (c, j, val_idx), fit in zip(held_out, fitted):
        if isinstance(fit, Exception):
            raise RuntimeError(f"fold {j} failed: {fit}") from fit
        fold_val = train.take(val_idx)
        preds = fit.predict(fold_val.features)
        fold_scores[c].append(batch_loss(fold_val.sales, preds, candidates[c][0]))
    return [float(np.mean(scores)) for scores in fold_scores]


def search(
    train,
    learner_kind: str,
    spec_template: LossSpec,
    space: SearchSpace,
    plan: CVPlan,
    fixed: dict | None = None,
) -> tuple[dict, list]:
    """Score `budget` sampled configurations; return the argmin and the table.

    `fixed` holds hyperparameters pinned from an earlier stage; they are
    merged into every candidate before scoring.
    """
    (result,) = _searches(train, learner_kind, space, [(spec_template, plan)], fixed)
    return result


def _searches(train, learner_kind, space, problems, fixed) -> list[tuple[dict, list]]:
    """search for each (spec_template, plan) problem, with the candidates of
    all problems scored by one cv_scores call."""
    drawn = []
    for template, plan in problems:
        rng = np.random.default_rng(plan.seed)
        candidates = [space.sample(rng) for _ in range(plan.budget)]
        merged = [{**(fixed or {}), **cand} for cand in candidates]
        drawn.append([(_apply_band(template, m), m, plan) for m in merged])
    scores = iter(cv_scores(train, learner_kind, [c for batch in drawn for c in batch]))
    results = []
    for batch in drawn:
        table = [(merged, next(scores)) for _, merged, _ in batch]
        best, best_score = None, np.inf
        for merged, score in table:
            if score < best_score:
                best, best_score = merged, score
        results.append((dict(best), table))
    return results


def _apply_band(spec: LossSpec, candidate: dict) -> LossSpec:
    if "eps1" not in candidate and "eps2" not in candidate:
        return spec
    eps1 = candidate.get("eps1", spec.eps1)
    eps2 = candidate.get("eps2", spec.eps2)
    if eps1 > 0.0:
        return LossSpec.eps_nv(spec.alpha, eps1, eps2)
    return LossSpec.nvc(spec.alpha)


def two_stage_protocol(
    train,
    learner_kind: str,
    alphas,
    plan: CVPlan | None = None,
    stage1_cache: dict | None = None,
) -> dict:
    """Full tuning protocol; returns {alpha: hyperparameter dict}.

    Models without a band skip stage 2, so their per-alpha configurations
    are identical; the closed-form least-squares learner has nothing to tune
    at all.  Learner kinds whose stage-1 problem coincides (same search
    space, same zero-band loss) share results through stage1_cache, since
    the searches would be identical computations.
    """
    if learner_kind not in LEARNER_KINDS:
        raise ValueError(f"unknown learner kind {learner_kind!r}")
    if not alphas:
        raise ValueError("need at least one alpha")
    plan = plan or CVPlan()

    stage1_space = SearchSpace.model_space(learner_kind)
    if stage1_space.params:
        spec1 = loss_for(learner_kind, STAGE1_ALPHA, 0.0, 0.0)
        is_neural = learner_kind.startswith("NN")
        cache_key = (
            tuple(sorted(stage1_space.params.items())),
            spec1.kind, spec1.alpha, is_neural,
            plan.seed, plan.budget, plan.folds,
        )
        if stage1_cache is not None and cache_key in stage1_cache:
            stage1 = stage1_cache[cache_key]
        else:
            stage1, _ = search(train, learner_kind, spec1, stage1_space, plan)
            if stage1_cache is not None:
                stage1_cache[cache_key] = stage1
    else:
        stage1 = {}

    if learner_kind not in BANDED_KINDS:
        return {alpha: dict(stage1) for alpha in alphas}

    # one search per ratio, all scored together: every stage-2 fit of a
    # learner shares its batch shape, so they train as one population
    problems = [
        (LossSpec.nvc(alpha), replace(plan, seed=plan.seed + 1000 * (k + 1)))
        for k, alpha in enumerate(alphas)
    ]  # band applied per candidate
    results = _searches(train, learner_kind, SearchSpace.band_space(), problems, stage1)
    return {alpha: best for alpha, (best, _) in zip(alphas, results)}
