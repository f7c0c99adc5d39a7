"""Experiment driver integration: report tree, determinism, failure handling."""

import json
import warnings

import numpy as np
import pytest

from censored_newsvendor import experiment, linear
from censored_newsvendor.data import (
    DemandModelParams,
    generate,
    scale,
    split_chronological,
    with_q_star,
)
from censored_newsvendor.experiment import (
    DEFAULT_ALGORITHMS,
    ExperimentConfig,
    run_experiment,
    write_reports,
)
from censored_newsvendor.learners import fit_learner
from censored_newsvendor.metrics import evaluate_predictions
from censored_newsvendor.tuning import SearchSpace
from censored_newsvendor.training import DivergenceError

QUIET = lambda msg: None  # noqa: E731


@pytest.fixture(scope="module")
def tiny_result():
    config = ExperimentConfig(
        alphas=(0.85,),
        seeds=(0,),
        algorithms=("LR-MSE", "LR-NVC", "LR-eNVC-R"),
        tuning_budget=2,
        cv_folds=1,
    )
    return run_experiment(config, log=QUIET)


class TestRunExperiment:
    def test_all_runs_present(self, tiny_result):
        assert len(tiny_result.runs) == 3
        assert not tiny_result.failures

    def test_metrics_sane(self, tiny_result):
        for run in tiny_result.runs:
            assert run.nv_cost > 0
            assert run.rmse_q > 0
            assert 0.0 <= run.service_level <= 1.0
            assert run.abs_errors.shape == (1629,)

    def test_alpha_free_learner_fitted_once_per_seed(self, monkeypatch):
        calls, solves = [], []
        real, real_solve = experiment.fit_population, linear.fit_mse_closed_form

        def counting(dataset, jobs, *args, **kwargs):
            calls.append([job[0] for job in jobs])
            return real(dataset, jobs, *args, **kwargs)

        def solve(dataset):
            solves.append(len(calls))
            return real_solve(dataset)

        monkeypatch.setattr(experiment, "fit_population", counting)
        monkeypatch.setattr(linear, "fit_mse_closed_form", solve)
        config = ExperimentConfig(
            alphas=(0.75, 0.85), seeds=(0, 1), algorithms=("LR-MSE", "LR-NVC"),
            tuning_budget=1, cv_folds=1,
        )
        result = run_experiment(config, log=QUIET)
        assert len(calls) == 2  # one final call per seed
        for kinds in calls:
            assert kinds.count("LR-MSE") == 2  # one job per ratio...
            assert kinds.count("LR-NVC") == 2  # its loss depends on the ratio
        assert solves == [1, 2]  # ...solved once per seed, in that seed's call
        # the reused fit places the same orders at both ratios, and its record
        # at the second ratio matches a sweep that fits at that ratio alone
        alone = run_experiment(
            ExperimentConfig(alphas=(0.85,), seeds=(0, 1), algorithms=("LR-MSE",),
                             tuning_budget=1, cv_folds=1),
            log=QUIET,
        )
        for seed in config.seeds:
            low, high = (result.run("LR-MSE", a, seed) for a in config.alphas)
            assert low.fit_seconds == high.fit_seconds
            assert low.service_level == high.service_level
            fresh = alone.run("LR-MSE", 0.85, seed)
            assert (high.nv_cost, high.rmse_q) == (fresh.nv_cost, fresh.rmse_q)
            assert np.array_equal(high.abs_errors, fresh.abs_errors)

    def test_pooled_final_fits_equal_lone_fits(self):
        config = ExperimentConfig(
            alphas=(0.85, 0.95), seeds=(0,), algorithms=DEFAULT_ALGORITHMS,
            tuning_budget=1, cv_folds=1,
        )
        result = run_experiment(config, log=QUIET)
        assert not result.failures
        assert [(r.algorithm, r.alpha) for r in result.runs] == [
            (a, alpha) for a in config.algorithms for alpha in config.alphas
        ]
        params = DemandModelParams()
        train_raw, test_raw = split_chronological(generate(params, seed=0))
        train_s, test_s, record = scale(train_raw, test_raw)
        for run in result.runs:
            hp = result.tuned[(run.algorithm, 0)][run.alpha]
            fitted = fit_learner(run.algorithm, train_s, run.alpha, hp, seed=0)
            preds = record.unscale_target(fitted.predict(test_s.features))
            test = with_q_star(test_raw, params, run.alpha)
            lone = evaluate_predictions(test, preds, run.alpha, fitted.fit_seconds)
            assert (run.nv_cost, run.rmse_q, run.service_level, run.service_gap) == (
                lone.nv_cost, lone.rmse_q, lone.service_level, lone.service_gap
            ), (run.algorithm, run.alpha)
            assert np.array_equal(run.abs_errors, lone.abs_errors)

    def test_one_failing_final_fit_fails_alone(self, monkeypatch):
        # weight decay this strong makes every step grow LR-NVC's coefficients
        # (|1 - 2 eta l2| > 1), so its fit at 0.85 overflows; nothing else does
        real = experiment.tune_all

        def tuned(train, kinds, alphas, plan):
            out = real(train, kinds, alphas, plan)
            out["LR-NVC"][0.85] = {**out["LR-NVC"][0.85], "l2": 1e3}
            return out

        monkeypatch.setattr(experiment, "tune_all", tuned)
        config = ExperimentConfig(
            alphas=(0.75, 0.85), seeds=(0,), algorithms=("LR-MSE", "LR-NVC", "LR-eNVC-R"),
            tuning_budget=1, cv_folds=1,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_experiment(config, log=QUIET)
        train_s = scale(*split_chronological(generate(DemandModelParams(), seed=0)))[0]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as lone:
            fit_learner("LR-NVC", train_s, 0.85, result.tuned[("LR-NVC", 0)][0.85], seed=0)
        assert result.failures == [
            {"algorithm": "LR-NVC", "alpha": 0.85, "seed": 0, "stage": "fit",
             "error": str(lone.value)}
        ]
        assert [(r.algorithm, r.alpha) for r in result.runs] == [
            ("LR-MSE", 0.75), ("LR-MSE", 0.85), ("LR-NVC", 0.75),
            ("LR-eNVC-R", 0.75), ("LR-eNVC-R", 0.85),
        ]

    def test_failed_tuning_fails_its_algorithm_alone(self, monkeypatch):
        # LR-NVC's stage-1 space only draws a refused batch size, so every one
        # of its runs fails at the tuning stage; LR-eNVC-R, which shares
        # LR-NVC's stage-1 fits otherwise, is tuned and fitted as if alone
        real_space = SearchSpace.model_space

        def space(kind):
            if kind == "LR-NVC":
                return SearchSpace({"eta": ("uniform", 0.01, 0.02), "batch_size": ("int", 0, 0)})
            return real_space(kind)

        monkeypatch.setattr(SearchSpace, "model_space", staticmethod(space))
        config = ExperimentConfig(
            alphas=(0.75, 0.85), seeds=(0,), algorithms=("LR-MSE", "LR-NVC", "LR-eNVC-R"),
            tuning_budget=1, cv_folds=1,
        )
        result = run_experiment(config, log=QUIET)
        error = "fold 0 failed: batch size must be >= 1, got 0"
        assert result.failures == [
            {"algorithm": "LR-NVC", "alpha": alpha, "seed": 0, "stage": "tune", "error": error}
            for alpha in config.alphas
        ]
        assert [(r.algorithm, r.alpha) for r in result.runs] == [
            ("LR-MSE", 0.75), ("LR-MSE", 0.85), ("LR-eNVC-R", 0.75), ("LR-eNVC-R", 0.85),
        ]
        alone = run_experiment(
            ExperimentConfig(alphas=config.alphas, seeds=(0,), algorithms=("LR-eNVC-R",),
                             tuning_budget=1, cv_folds=1),
            log=QUIET,
        )
        assert result.tuned[("LR-eNVC-R", 0)] == alone.tuned[("LR-eNVC-R", 0)]
        assert [r.nv_cost for r in result.runs[2:]] == [r.nv_cost for r in alone.runs]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown algorithms"):
            ExperimentConfig(algorithms=("LR-QUANTUM",))
        with pytest.raises(ValueError, match="empty"):
            ExperimentConfig(algorithms=())
        with pytest.raises(ValueError, match="distinct"):
            ExperimentConfig(seeds=(1, 1))
        with pytest.raises(ValueError, match="budget must be at least 1"):
            ExperimentConfig(tuning_budget=0)
        with pytest.raises(ValueError, match="folds must be at least 1"):
            ExperimentConfig(cv_folds=0)


class TestReportTree(object):
    def test_files_written_and_deterministic(self, tiny_result, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        write_reports(tiny_result, first)
        write_reports(tiny_result, second)
        for name in ("runs.csv", "summary.json", "savings.csv", "wilcoxon.csv",
                     "service_improvement.csv", "manifest.json", "tuned.json"):
            assert (first / name).exists(), name
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        assert (first / "fit_times.csv").exists()

    def test_runs_csv_shape(self, tiny_result, tmp_path):
        write_reports(tiny_result, tmp_path)
        lines = (tmp_path / "runs.csv").read_text().strip().splitlines()
        assert lines[0] == "algorithm,alpha,seed,nv_cost,rmse_q,service_level,service_gap"
        assert len(lines) == 4

    def test_manifest_records_config(self, tiny_result, tmp_path):
        write_reports(tiny_result, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["alphas"] == [0.85]
        assert manifest["config"]["algorithms"] == ["LR-MSE", "LR-NVC", "LR-eNVC-R"]
        assert "numpy_version" in manifest

    def test_savings_row_present(self, tiny_result, tmp_path):
        write_reports(tiny_result, tmp_path)
        lines = (tmp_path / "savings.csv").read_text().strip().splitlines()
        assert lines[0].startswith("banded,baseline,alpha,mean_savings_pct")
        cells = lines[1].split(",")
        assert cells[0] == "LR-eNVC-R" and cells[1] == "LR-NVC"

    def test_rerun_is_bit_identical(self, tiny_result, tmp_path):
        config = tiny_result.config
        again = run_experiment(config, log=QUIET)
        for a, b in zip(tiny_result.runs, again.runs):
            assert a.algorithm == b.algorithm
            assert a.nv_cost == b.nv_cost
            assert a.rmse_q == b.rmse_q
            assert np.array_equal(a.abs_errors, b.abs_errors)


def _record(algorithm, alpha, seed, nv_cost, service_gap):
    errors = np.linspace(0.1, 1.0, 30) * nv_cost
    return experiment.RunRecord(
        algorithm, alpha, seed, nv_cost, 1.0, 0.5, service_gap, 0.0, errors
    )


class TestReportGaps:
    """Reports of a sweep where some runs are missing (they failed)."""

    CONFIG = ExperimentConfig(
        alphas=(0.65, 0.75, 0.85, 0.95), seeds=(3, 4),
        algorithms=("LR-MSE", "LR-NVC", "LR-eNVC-R"), tuning_budget=1, cv_folds=1,
    )
    COSTS = {"LR-MSE": 120.0, "LR-NVC": 100.0, "LR-eNVC-R": 90.0}
    GAPS = {"LR-MSE": 0.4, "LR-NVC": 0.2, "LR-eNVC-R": 0.1}
    # (algorithm, alpha, seed) without a run: LR-eNVC-R at 0.65, LR-NVC at
    # 0.95, and LR-NVC of seed 4 at 0.85
    MISSING = {("LR-eNVC-R", 0.65), ("LR-NVC", 0.95), ("LR-NVC", 0.85, 4)}

    def write(self, tmp_path):
        runs = [
            _record(a, alpha, seed, self.COSTS[a] + seed, self.GAPS[a])
            for a in self.CONFIG.algorithms
            for alpha in self.CONFIG.alphas
            for seed in self.CONFIG.seeds
            if (a, alpha) not in self.MISSING and (a, alpha, seed) not in self.MISSING
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "Mean of empty slice"
            write_reports(experiment.ExperimentResult(self.CONFIG, runs, [], {}), tmp_path)
        return lambda name: (tmp_path / name).read_text().splitlines()

    def test_service_rows_skip_absent_learners(self, tmp_path):
        lines = self.write(tmp_path)("service_improvement.csv")
        assert lines == [
            "banded,alpha,mean_gap,improvement_vs_mse_pct,improvement_vs_nvc_pct",
            "LR-eNVC-R,0.75,0.1,75,50",
            "LR-eNVC-R,0.85,0.1,75,50",
            "LR-eNVC-R,0.95,0.1,75,",
        ]

    def test_savings_columns_name_their_seeds(self, tmp_path):
        lines = self.write(tmp_path)("savings.csv")
        s3, s4 = 100.0 * 10 / 103, 100.0 * 10 / 104
        assert lines == [
            "banded,baseline,alpha,mean_savings_pct,seed_3,seed_4",
            f"LR-eNVC-R,LR-NVC,0.75,{(s3 + s4) / 2:.10g},{s3:.10g},{s4:.10g}",
            f"LR-eNVC-R,LR-NVC,0.85,{s3:.10g},{s3:.10g},",
        ]
