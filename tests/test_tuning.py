"""Random-search tuning protocol: determinism, constraints, budgets."""

import numpy as np
import pytest

from censored_newsvendor.data import Dataset
from censored_newsvendor.learners import fit_learner
from censored_newsvendor.losses import LossSpec, batch_loss
from censored_newsvendor.tuning import (
    CVPlan,
    SearchSpace,
    _folds,
    cv_scores,
    search,
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
        best, table = search(small_train, "LR-NVC", LossSpec.nvc(0.55), space, plan)
        assert len(table) == 1
        assert best == table[0][0]

    def test_pinned_space_returns_the_point(self, small_train):
        space = SearchSpace({"eta": ("uniform", 0.015, 0.015), "batch_size": ("int", 25, 25)})
        plan = CVPlan(folds=1, seed=7, budget=3)
        best, _ = search(small_train, "LR-NVC", LossSpec.nvc(0.55), space, plan)
        assert best["eta"] == 0.015
        assert best["batch_size"] == 25

    def test_deterministic_for_fixed_seed(self, small_train):
        space = SearchSpace.model_space("LR-eNVC")
        plan = CVPlan(folds=1, seed=8, budget=4)
        b1, t1 = search(small_train, "LR-eNVC", LossSpec.nvc(0.55), space, plan)
        b2, t2 = search(small_train, "LR-eNVC", LossSpec.nvc(0.55), space, plan)
        assert b1 == b2
        assert [c for c, _ in t1] == [c for c, _ in t2]

    def test_budget_prefix_monotonicity(self, small_train):
        space = SearchSpace.model_space("LR-eNVC")
        spec = LossSpec.nvc(0.55)
        small = search(small_train, "LR-eNVC", spec, space, CVPlan(folds=1, seed=9, budget=3))
        large = search(small_train, "LR-eNVC", spec, space, CVPlan(folds=1, seed=9, budget=6))
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

    def test_stage1_cache_shared_between_twin_kinds(self, small_train):
        plan = CVPlan(folds=1, seed=12, budget=2)
        cache = {}
        nvc = two_stage_protocol(small_train, "LR-NVC", (0.55,), plan, stage1_cache=cache)
        assert len(cache) == 1
        banded = two_stage_protocol(
            small_train, "LR-eNVC-R", (0.55,), plan, stage1_cache=cache
        )
        assert len(cache) == 1  # identical stage-1 problem reused
        assert nvc[0.55]["eta"] == banded[0.55]["eta"]

    def test_empty_alpha_list_rejected(self, small_train):
        with pytest.raises(ValueError):
            two_stage_protocol(small_train, "LR-NVC", ())


# ---------------------------------------------------------------------------
# Pooled scoring against a sequential reference: one cv_score call per
# candidate, the candidates drawn and merged as the protocol documents.


def sequential_search(train, kind, template, space, plan, fixed=None):
    rng = np.random.default_rng(plan.seed)
    candidates = [space.sample(rng) for _ in range(plan.budget)]
    table = []
    for cand in candidates:
        merged = {**(fixed or {}), **cand}
        spec = template
        if "eps1" in merged:
            spec = (
                LossSpec.eps_nv(template.alpha, merged["eps1"], merged["eps2"])
                if merged["eps1"] > 0.0 else LossSpec.nvc(template.alpha)
            )
        table.append((merged, cv_score(train, kind, spec, merged, plan)))
    best = min(table, key=lambda row: row[1])[0]  # the first of equal scores
    return dict(best), table


def sequential_protocol(train, kind, alphas, plan):
    space = SearchSpace.model_space(kind)
    stage1, _ = sequential_search(train, kind, LossSpec.nvc(0.55), space, plan)
    return {
        alpha: sequential_search(
            train, kind, LossSpec.nvc(alpha), SearchSpace.band_space(),
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
            args = (small_train, kind, LossSpec.nvc(alpha), SearchSpace.band_space(), self.PLAN)
            assert_same_search(search(*args, fixed=fixed), sequential_search(*args, fixed=fixed))

    def test_groups_of_one_match_sequential(self, small_train):
        args = (small_train, "LR-eNVC-R", LossSpec.nvc(0.55), SPREAD_BATCHES, self.PLAN)
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
        # in fold 0 before any training; the pooled path must report the
        # failure the sequential path meets first
        plan = CVPlan(folds=2, seed=14, budget=3)
        (_, held_out_0), (fit_1, _) = _folds(small_train.n, plan)
        row = np.intersect1d(held_out_0, fit_1)[0]
        sales = small_train.sales.copy()
        sales[row] = np.nan
        poisoned = Dataset(small_train.features, sales)
        candidates = [
            (LossSpec.nvc(0.6), {"eta": 0.02, "batch_size": b}, plan) for b in (20, 30, 20, 0)
        ]
        with pytest.raises(RuntimeError) as sequential:
            for spec, hp, p in candidates:
                cv_score(poisoned, "LR-NVC", spec, hp, p)
        with pytest.raises(RuntimeError) as pooled:
            cv_scores(poisoned, "LR-NVC", candidates)
        assert str(sequential.value).startswith("fold 1 failed: ")
        assert str(pooled.value) == str(sequential.value)
        assert type(pooled.value.__cause__) is type(sequential.value.__cause__)
