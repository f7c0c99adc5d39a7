"""Random-search tuning protocol: determinism, constraints, budgets."""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from censored_newsvendor import learners, linear
from censored_newsvendor.data import Dataset
from censored_newsvendor.learners import fit_learner, fit_population
from censored_newsvendor.losses import LossSpec, batch_loss
from censored_newsvendor.tuning import (
    CVPlan,
    SearchSpace,
    _folds,
    cv_scores,
    search,
    tune_all,
    two_stage_protocol,
)


@pytest.fixture(scope="module")
def small_train():
    rng = np.random.default_rng(0)
    X = np.hstack([np.ones((120, 1)), rng.normal(size=(120, 2))])
    s = X @ np.array([0.4, 0.15, -0.1]) + 0.05 * rng.normal(size=120)
    return Dataset(X, np.clip(s, 0.0, None))


FAST = {"eta": 0.02, "batch_size": 30}


def cv_score(train, learner_kind, spec, hyperparams, plan):
    """The sequential reference of cv_scores: the plan's folds fitted one
    after another, each on its own rows, and their held-out losses averaged."""
    scores = []
    for j, (fit_idx, val_idx) in enumerate(_folds(train.n, plan)):
        fold_val = train.take(val_idx)
        try:
            fitted = fit_learner(
                learner_kind, train.take(fit_idx), spec.alpha, hyperparams, seed=plan.seed + j
            )
        except Exception as exc:
            raise RuntimeError(f"fold {j} failed: {exc}") from exc
        scores.append(batch_loss(fold_val.sales, fitted.predict(fold_val.features), spec))
    return float(np.mean(scores))


class TestSearchSpace:
    def test_band_pairs_respect_ordering(self):
        space = SearchSpace.band_space()
        rng = np.random.default_rng(1)
        for _ in range(500):
            sample = space.sample(rng)
            assert sample["eps1"] > sample["eps2"] >= 0.0

    def test_integer_ranges_inclusive(self):
        space = SearchSpace({"batch_size": ("int", 64, 256)})
        rng = np.random.default_rng(2)
        draws = [space.sample(rng)["batch_size"] for _ in range(2000)]
        assert min(draws) >= 64 and max(draws) <= 256
        assert 256 in draws  # upper endpoint reachable

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace({}).sample(np.random.default_rng(0))

    def test_least_squares_has_nothing_to_tune(self):
        assert SearchSpace.model_space("LR-MSE").params == {}

    def test_linear_newsvendor_space_carries_decay(self):
        assert "l2" in SearchSpace.model_space("LR-NVC").params
        assert "l2" in SearchSpace.model_space("LR-eNVC-R").params
        assert "l2" not in SearchSpace.model_space("LR-eNVC").params


class TestCvScore:
    def test_single_fold_equals_heldout_loss(self, small_train):
        plan = CVPlan(folds=1, seed=3, budget=1)
        spec = LossSpec.nvc(0.55)
        score = cv_score(small_train, "LR-NVC", spec, FAST, plan)
        assert np.isfinite(score) and score >= 0.0

    def test_huge_band_scores_zero(self):
        # constant targets with a band covering the whole range: the fit
        # settles inside the zero-loss region and every held-out point is free
        ds = Dataset(np.ones((80, 1)), np.full(80, 0.5))
        plan = CVPlan(folds=2, seed=4, budget=1)
        spec = LossSpec.eps_nv(0.55, 50.0, 0.0)
        hp = {"eta": 0.02, "batch_size": 60, "eps1": 50.0, "eps2": 0.0}
        assert cv_score(ds, "LR-eNVC", spec, hp, plan) == 0.0

    def test_duplication_invariance(self, small_train):
        plan = CVPlan(folds=2, seed=5, budget=1)
        spec = LossSpec.mse()
        doubled = Dataset(
            np.vstack([small_train.features, small_train.features]),
            np.concatenate([small_train.sales, small_train.sales]),
        )
        a = cv_score(small_train, "LR-MSE", spec, {}, plan)
        b = cv_score(doubled, "LR-MSE", spec, {}, plan)
        assert b == pytest.approx(a, abs=0.02)


class TestCVPlan:
    @pytest.mark.parametrize("field", ["folds", "budget"])
    def test_rejects_fewer_than_one(self, field):
        with pytest.raises(ValueError, match=f"{field} must be at least 1, got 0"):
            CVPlan(**{field: 0})


class TestSearch:
    def test_budget_one_returns_the_sample(self, small_train):
        space = SearchSpace({"eta": ("uniform", 0.01, 0.02), "batch_size": ("int", 20, 40)})
        plan = CVPlan(folds=1, seed=6, budget=1)
        best, table = search(small_train, "LR-NVC", 0.55, space, plan)
        assert len(table) == 1
        assert best == table[0][0]

    def test_pinned_space_returns_the_point(self, small_train):
        space = SearchSpace({"eta": ("uniform", 0.015, 0.015), "batch_size": ("int", 25, 25)})
        plan = CVPlan(folds=1, seed=7, budget=3)
        best, _ = search(small_train, "LR-NVC", 0.55, space, plan)
        assert best["eta"] == 0.015
        assert best["batch_size"] == 25

    def test_deterministic_for_fixed_seed(self, small_train):
        space = SearchSpace.model_space("LR-eNVC")
        plan = CVPlan(folds=1, seed=8, budget=4)
        b1, t1 = search(small_train, "LR-eNVC", 0.55, space, plan)
        b2, t2 = search(small_train, "LR-eNVC", 0.55, space, plan)
        assert b1 == b2
        assert [c for c, _ in t1] == [c for c, _ in t2]

    def test_budget_prefix_monotonicity(self, small_train):
        space = SearchSpace.model_space("LR-eNVC")
        small = search(small_train, "LR-eNVC", 0.55, space, CVPlan(folds=1, seed=9, budget=3))
        large = search(small_train, "LR-eNVC", 0.55, space, CVPlan(folds=1, seed=9, budget=6))
        assert [c for c, _ in large[1][:3]] == [c for c, _ in small[1]]
        assert min(s for _, s in large[1]) <= min(s for _, s in small[1])


class TestTwoStage:
    def test_least_squares_skips_both_stages(self, small_train):
        tuned = two_stage_protocol(small_train, "LR-MSE", (0.55, 0.95))
        assert tuned == {0.55: {}, 0.95: {}}

    def test_plain_newsvendor_shares_config_across_alpha(self, small_train):
        plan = CVPlan(folds=1, seed=10, budget=2)
        tuned = two_stage_protocol(small_train, "LR-NVC", (0.55, 0.75, 0.95), plan)
        configs = list(tuned.values())
        assert configs[0] == configs[1] == configs[2]
        assert "eps1" not in configs[0]

    def test_banded_learner_gets_per_alpha_band(self, small_train):
        plan = CVPlan(folds=1, seed=11, budget=2)
        tuned = two_stage_protocol(small_train, "LR-eNVC-R", (0.55, 0.95), plan)
        for alpha, config in tuned.items():
            assert config["eps1"] > config["eps2"] >= 0.0
            assert {"eta", "batch_size", "l2"} <= set(config)
        # stage-1 part identical across alphas within the run
        assert tuned[0.55]["eta"] == tuned[0.95]["eta"]
        assert tuned[0.55]["batch_size"] == tuned[0.95]["batch_size"]

    def test_twin_kinds_train_stage1_once(self, small_train, monkeypatch):
        plan = CVPlan(folds=1, seed=12, budget=2)
        trained = count_trained(monkeypatch)
        tuned = tune_all(small_train, ("LR-NVC", "LR-eNVC-R"), (0.55,), plan)
        # stage 1: one set of budget x folds fits serves both kinds; stage 2: LR-eNVC-R's own
        assert trained == [plan.budget * plan.folds] * 2
        assert tuned["LR-NVC"][0.55]["eta"] == tuned["LR-eNVC-R"][0.55]["eta"]

    def test_empty_alpha_list_rejected(self, small_train):
        with pytest.raises(ValueError):
            two_stage_protocol(small_train, "LR-NVC", ())


# ---------------------------------------------------------------------------
# Pooled scoring against a sequential reference: one cv_score call per
# candidate, the candidates drawn and merged as the protocol documents.


def sequential_search(train, kind, alpha, space, plan, fixed=None):
    rng = np.random.default_rng(plan.seed)
    candidates = [space.sample(rng) for _ in range(plan.budget)]
    table = []
    for cand in candidates:
        merged = {**(fixed or {}), **cand}
        spec = LossSpec.nvc(alpha)
        if merged.get("eps1", 0.0) > 0.0:
            spec = LossSpec.eps_nv(alpha, merged["eps1"], merged["eps2"])
        table.append((merged, cv_score(train, kind, spec, merged, plan)))
    best = min(table, key=lambda row: row[1])[0]  # the first of equal scores
    return dict(best), table


def sequential_protocol(train, kind, alphas, plan):
    space = SearchSpace.model_space(kind)
    stage1, _ = sequential_search(train, kind, 0.55, space, plan)
    return {
        alpha: sequential_search(
            train, kind, alpha, SearchSpace.band_space(),
            CVPlan(plan.folds, plan.seed + 1000 * (k + 1), plan.budget), fixed=stage1,
        )[0]
        for k, alpha in enumerate(alphas)
    }


def assert_same_search(result, reference):
    (best, table), (ref_best, ref_table) = result, reference
    assert best == ref_best
    assert [c for c, _ in table] == [c for c, _ in ref_table]
    assert np.array([s for _, s in table]).tobytes() == np.array([s for _, s in ref_table]).tobytes()


# candidates draw different batch sizes, so each trains in a population of its own folds
SPREAD_BATCHES = SearchSpace(
    {"eta": ("uniform", 0.01, 0.03), "batch_size": ("int", 10, 40), "l2": ("uniform", 0.0, 1e-3)}
)


class TestPooledScoring:
    PLAN = CVPlan(folds=2, seed=13, budget=3)

    @pytest.mark.parametrize("kind", ["LR-eNVC-R", "NN-eNVC"])
    def test_band_search_matches_sequential(self, small_train, kind):
        fixed = {"eta": 0.02, "batch_size": 30, "l2": 5e-4, "units1": 4, "units2": 3}
        for alpha in (0.6, 0.9):
            args = (small_train, kind, alpha, SearchSpace.band_space(), self.PLAN)
            assert_same_search(search(*args, fixed=fixed), sequential_search(*args, fixed=fixed))

    def test_groups_of_one_match_sequential(self, small_train):
        args = (small_train, "LR-eNVC-R", 0.55, SPREAD_BATCHES, self.PLAN)
        result = search(*args)
        assert len({c["batch_size"] for c, _ in result[1]}) == self.PLAN.budget
        assert_same_search(result, sequential_search(*args))

    @pytest.mark.parametrize("kind", ["LR-eNVC-R", "NN-eNVC"])
    def test_protocol_matches_sequential(self, small_train, kind):
        alphas = (0.6, 0.9)
        tuned = two_stage_protocol(small_train, kind, alphas, self.PLAN)
        assert tuned == sequential_protocol(small_train, kind, alphas, self.PLAN)

    def test_failure_names_the_sequential_fold(self, small_train):
        # a NaN sale held out by fold 0 but fitted by fold 1 fails fold 1 of
        # every candidate during training; the last candidate fails sooner,
        # in fold 0 before any training; the third repeats the first, so it
        # trains once; the pooled path must give each candidate the failure
        # its sequential folds meet first
        plan = CVPlan(folds=2, seed=14, budget=3)
        (_, held_out_0), (fit_1, _) = _folds(small_train.n, plan)
        row = np.intersect1d(held_out_0, fit_1)[0]
        sales = small_train.sales.copy()
        sales[row] = np.nan
        poisoned = Dataset(small_train.features, sales)
        candidates = [
            ("LR-NVC", 0.6, {"eta": 0.02, "batch_size": b}, plan) for b in (20, 30, 20, 0)
        ]
        sequential = []
        for kind, alpha, hp, p in candidates:
            with pytest.raises(RuntimeError) as failed:
                cv_score(poisoned, kind, LossSpec.nvc(alpha), hp, p)
            sequential.append(failed.value)
        pooled = cv_scores(poisoned, candidates)
        assert str(sequential[0]).startswith("fold 1 failed: ")
        assert str(sequential[3]).startswith("fold 0 failed: ")
        assert [str(e) for e in pooled] == [str(e) for e in sequential]
        for got, want in zip(pooled, sequential):
            assert type(got) is RuntimeError
            assert type(got.__cause__) is type(want.__cause__)


# ---------------------------------------------------------------------------
# Worker processes: fit_population deals each group into one chunk per
# usable CPU and trains the chunks in forked workers; every job must end as
# it ends in this process, and no worker may outlive the call.

NET = {"batch_size": 30, "units1": 4, "units2": 3}


def mixed_jobs(n):
    """LR and NN groups of two row counts, with differing seeds, ratios,
    rates, decay and bands; the 120-row network group holds three jobs, so
    with two CPUs one chunk trains two of them."""
    part = np.sort(np.random.default_rng(3).choice(n, size=90, replace=False))
    every = np.arange(n)
    return [
        ("LR-NVC", every, 0.7, {**FAST, "l2": 5e-4}, 0),
        ("LR-eNVC-R", part, 0.9, {**FAST, "l2": 1e-3, "eps1": 0.1, "eps2": 0.02}, 1),
        ("NN-eNVC", every, 0.8, {**NET, "eps1": 0.15, "eps2": 0.05}, 2),
        ("NN-MSE", part, 0.5, NET, 3),
        ("LR-MSE", part, 0.5, None, 4),
        ("NN-NVC", every, 0.6, NET, 5),
        ("LR-eNVC", every, 0.6, {**FAST, "eps1": 0.05, "eps2": 0.0}, 6),
        ("NN-NVC", every, 0.95, NET, 7),
        ("LR-NVC", part, 0.95, {"eta": 0.01, "batch_size": 30}, 8),
    ]


def outcome(fit):
    """Everything of a result but its wall time."""
    if isinstance(fit, Exception):
        return type(fit), str(fit)
    model = getattr(fit.model, "theta", None)
    params = fit.model.params if model is None else model
    trace = fit.trace and (
        fit.trace.train_loss, fit.trace.val_loss, fit.trace.best_epoch,
        fit.trace.epochs_run, fit.trace.stop_reason,
    )
    return fit.kind, params.tobytes(), trace


def fit_with_cpus(monkeypatch, cpus, dataset, jobs):
    """fit_population as if `cpus` CPUs were usable; returns the outcomes
    and the number of worker processes forked."""
    forks, real_fork = [], os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(learners, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counting_fork)
    with np.errstate(over="ignore", invalid="ignore"):
        results = fit_population(dataset, jobs)
    assert multiprocessing.active_children() == []
    return [outcome(fit) for fit in results], len(forks)


class TestWorkerPool:
    def test_pooled_equals_in_process(self, small_train, monkeypatch):
        jobs = mixed_jobs(small_train.n)
        alone, alone_forks = fit_with_cpus(monkeypatch, 1, small_train, jobs)
        pooled, pooled_forks = fit_with_cpus(monkeypatch, 2, small_train, jobs)
        assert (alone_forks, pooled_forks) == (0, 2)
        assert pooled == alone
        assert not any(isinstance(kind, type) for kind, *_ in alone)

    def test_failing_jobs_fail_alone_in_workers(self, small_train, monkeypatch):
        # with two CPUs, job 10 diverges at epoch 1 in a chunk with job 3, and
        # job 11's seed is refused before training in a chunk with job 5
        jobs = mixed_jobs(small_train.n)
        part = jobs[3][1]
        jobs += [
            ("NN-MSE", part, 0.5, NET, 9),
            ("NN-MSE", part, 0.5, {**NET, "nn_eta": 1e300}, 10),
            ("NN-NVC", np.arange(small_train.n), 0.7, NET, -1),
        ]
        pooled, _ = fit_with_cpus(monkeypatch, 2, small_train, jobs)
        alone, _ = fit_with_cpus(monkeypatch, 1, small_train, jobs)
        assert pooled == alone
        assert pooled[:10] == fit_with_cpus(monkeypatch, 2, small_train, jobs[:10])[0]
        for (kind, rows, alpha, hp, seed), got in zip(jobs[10:], pooled[10:]):
            with pytest.raises(Exception) as lone, np.errstate(over="ignore", invalid="ignore"):
                fit_learner(kind, small_train.take(rows), alpha, hp, seed)
            assert got == (type(lone.value), str(lone.value))

    def test_failing_fold_is_reported_from_workers(self, small_train, monkeypatch):
        plan = CVPlan(folds=2, seed=15, budget=1)
        candidates = [("NN-MSE", 0.6, {**NET, "batch_size": b}, plan) for b in (20, 30)]
        candidates.append(("NN-MSE", 0.5, {**NET, "nn_eta": 1e300}, plan))
        scores = []
        for cpus in (1, 2):
            monkeypatch.setattr(learners, "_usable_cpus", lambda: cpus)
            with np.errstate(all="ignore"):
                scores.append([str(s) for s in cv_scores(small_train, candidates)])
            assert multiprocessing.active_children() == []
        assert scores[0] == scores[1]
        assert scores[0][2] == "fold 0 failed: non-finite parameters at epoch 1"
        assert all(np.isfinite(float(s)) for s in scores[0][:2])

    def test_one_job_starts_no_process(self, small_train, monkeypatch):
        def refuse():
            raise AssertionError("fit_learner forked a process")

        monkeypatch.setattr(learners, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", refuse)
        fitted = fit_learner("NN-eNVC", small_train, 0.8, {**NET, "eps1": 0.1, "eps2": 0.0}, seed=2)
        assert fitted.trace.error is None

    def test_threaded_process_forks_nothing(self, small_train, monkeypatch):
        jobs = mixed_jobs(small_train.n)[:2]  # two groups, so two chunks
        release = threading.Event()
        helper = threading.Thread(target=release.wait, args=(60,))
        helper.start()
        try:
            threaded, forks = fit_with_cpus(monkeypatch, 2, small_train, jobs)
        finally:
            release.set()
            helper.join(timeout=60)
        assert not helper.is_alive()
        assert forks == 0
        assert threaded == fit_with_cpus(monkeypatch, 2, small_train, jobs)[0]


# ---------------------------------------------------------------------------
# Repeated work: fit_population trains jobs with equal planned fits once, and
# tune_all tunes several kinds with one fit_population call per stage.


def count_trained(monkeypatch):
    """Record, per fit_population call, how many descent fits it trains."""
    trained, real = [], learners._train_all

    def train_all(dataset, chunks, *args):
        trained.append(sum(len(chunk) for _, chunk in chunks))
        return real(dataset, chunks, *args)

    monkeypatch.setattr(learners, "_train_all", train_all)
    return trained


class TestRepeatedWork:
    def test_equal_plans_train_once(self, small_train, monkeypatch):
        # stage-1 twins (the zero band makes LR-eNVC-R's loss LR-NVC's), an
        # alpha-free network at two ratios, least squares at two, and a
        # banded fit that repeats none of them: three descent fits, one solve
        part = np.sort(np.random.default_rng(4).choice(small_train.n, size=90, replace=False))
        twin = {**FAST, "l2": 5e-4}
        jobs = [
            ("LR-NVC", part, 0.55, twin, 1),
            ("NN-MSE", part, 0.6, NET, 2),
            ("LR-eNVC-R", part, 0.55, twin, 1),
            ("NN-MSE", part, 0.9, NET, 2),
            ("LR-MSE", part, 0.6, None, 0),
            ("LR-MSE", part, 0.9, None, 0),
            ("LR-eNVC-R", part, 0.55, {**twin, "eps1": 0.1, "eps2": 0.0}, 1),
        ]
        trained, solves, real_solve = count_trained(monkeypatch), [], linear.fit_mse_closed_form

        def solve(ds):
            solves.append(ds.n)
            return real_solve(ds)

        monkeypatch.setattr(linear, "fit_mse_closed_form", solve)
        pooled = [outcome(fit) for fit in fit_population(small_train, jobs)]
        assert trained == [3] and solves == [part.size]
        assert [kind for kind, *_ in pooled] == [job[0] for job in jobs]
        for (kind, rows, alpha, hp, seed), got in zip(jobs, pooled):
            assert got == outcome(fit_learner(kind, small_train.take(rows), alpha, hp, seed))
        fits = fit_population(small_train, jobs)
        assert fits[0] is not fits[2] and fits[0].fit_seconds == fits[2].fit_seconds

    def test_tune_all_equals_each_kind_alone(self, small_train, monkeypatch):
        # LR-NVC's stage-1 space only draws a refused batch size, so it fails
        # in stage 1; stage 2 draws a weight decay that makes every LR-eNVC-R
        # fit diverge, at an epoch that differs per ratio, and that no
        # network uses; every other kind is tuned as if alone
        real_space, real_band = SearchSpace.model_space, SearchSpace.band_space

        def space(kind):
            if kind == "LR-NVC":
                return SearchSpace({"eta": ("uniform", 0.01, 0.02), "batch_size": ("int", 0, 0)})
            return real_space(kind)

        monkeypatch.setattr(SearchSpace, "model_space", staticmethod(space))
        monkeypatch.setattr(SearchSpace, "band_space", staticmethod(
            lambda: SearchSpace({**real_band().params, "l2": ("uniform", 0.0, 1e8)})
        ))
        kinds = ("LR-MSE", "LR-NVC", "LR-eNVC-R", "NN-MSE", "NN-eNVC")
        alphas, plan = (0.6, 0.75), CVPlan(folds=2, seed=16, budget=2)
        trained = count_trained(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            tuned = tune_all(small_train, kinds, alphas, plan)
            assert len(trained) == 2  # one fit_population call per stage
            with pytest.raises(RuntimeError) as diverged:
                sequential_protocol(small_train, "LR-eNVC-R", alphas, plan)
        assert str(diverged.value).startswith("fold 0 failed: non-finite parameters at epoch")
        assert type(tuned["LR-eNVC-R"]) is RuntimeError
        assert str(tuned["LR-eNVC-R"]) == str(diverged.value)
        for kind in kinds:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    alone = two_stage_protocol(small_train, kind, alphas, plan)
            except RuntimeError as exc:
                alone = exc
            if isinstance(alone, Exception):
                assert type(tuned[kind]) is RuntimeError and str(tuned[kind]) == str(alone)
            else:
                assert tuned[kind] == alone, kind
        assert str(tuned["LR-NVC"]) == "fold 0 failed: batch size must be >= 1, got 0"
