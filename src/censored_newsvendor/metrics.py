"""Out-of-sample metrics and the paired signed-rank test.

All headline numbers are computed in original demand units; callers invert
any target scaling on the predictions first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata, wilcoxon


@dataclass
class EvalReport:
    """Test-set summary for one fitted model at one critical ratio."""

    nv_cost: float
    rmse_q: float | None
    service_level: float
    service_gap: float
    abs_errors: np.ndarray | None
    fit_seconds: float


@dataclass
class WilcoxonResult:
    statistic: float
    p_value: float
    median_diff: float
    q1_diff: float
    q3_diff: float
    n_effective: int


def nv_cost(test, predictions, alpha: float) -> float:
    """Mean newsvendor cost a(d-y)^+ + (1-a)(y-d)^+ against realized demand."""
    d = _demand_or_raise(test)
    y = np.asarray(predictions, dtype=float)
    if y.shape != d.shape:
        raise ValueError(f"{y.shape[0]} predictions for {d.shape[0]} test rows")
    return float(
        np.mean(alpha * np.maximum(d - y, 0.0) + (1 - alpha) * np.maximum(y - d, 0.0))
    )


def rmse_q(test, predictions) -> float:
    """Root mean squared distance to the distribution-optimal quantities."""
    if test.q_star is None:
        raise ValueError(
            "decision RMSE requires per-row optimal quantities from the "
            "generative model; real datasets do not carry them"
        )
    y = np.asarray(predictions, dtype=float)
    return float(np.sqrt(np.mean((test.q_star - y) ** 2)))


def service_level(test, predictions) -> float:
    """Fraction of test rows where the order strictly exceeds demand."""
    d = _demand_or_raise(test)
    return float(np.mean(np.asarray(predictions, dtype=float) > d))


def savings_percent(cost_base: float, cost_new: float) -> float:
    """Percent cost reduction of cost_new relative to cost_base."""
    if cost_base <= 0:
        raise ValueError(f"baseline cost must be positive, got {cost_base}")
    return 100.0 * (cost_base - cost_new) / cost_base


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) with inclusive linear interpolation."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("quartiles of an empty vector")
    q1, med, q3 = np.quantile(v, [0.25, 0.5, 0.75])
    return float(q1), float(med), float(q3)


def _demand_or_raise(test) -> np.ndarray:
    if test.demand is None or np.isnan(test.demand).any():
        raise ValueError("evaluation requires demand on every test row")
    return test.demand


def _exact_signed_rank_cdf(ranks2: np.ndarray) -> np.ndarray:
    """Counts of positive-rank sums over all sign assignments (ranks doubled
    to integers so tied average ranks stay exact)."""
    total = int(ranks2.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in ranks2:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total + 1 - r]
        counts = counts + shifted
    return counts


def wilcoxon_paired(a, b) -> WilcoxonResult:
    """Two-sided paired signed-rank test on d = a - b.

    Zero differences are dropped, tied magnitudes get average ranks, and the
    statistic is min(W+, W-).  Small samples (up to 25 nonzero differences)
    are tested exactly against the conditional permutation distribution;
    larger ones use scipy's normal approximation with tie and continuity
    corrections.  The quartile fields describe all differences, zeros
    included.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"paired vectors differ in length: {a.shape} vs {b.shape}")
    if a.shape[0] < 10:
        raise ValueError("paired test needs at least 10 pairs")
    d = a - b
    q1, med, q3 = quartiles(d)

    nz = d[d != 0.0]
    n = nz.shape[0]
    if n == 0:
        return WilcoxonResult(0.0, 1.0, med, q1, q3, 0)

    ranks = rankdata(np.abs(nz))
    w_plus = float(ranks[nz > 0].sum())
    total = float(ranks.sum())
    w_minus = total - w_plus
    statistic = min(w_plus, w_minus)

    if n <= 25:
        ranks2 = np.rint(2.0 * ranks).astype(int)
        counts = _exact_signed_rank_cdf(ranks2)
        denom = counts.sum()
        w2 = int(round(2.0 * w_plus))
        p_le = counts[: w2 + 1].sum() / denom
        p_ge = counts[w2:].sum() / denom
        p = min(1.0, 2.0 * min(p_le, p_ge))
    else:
        p = float(wilcoxon(nz, correction=True, method="approx").pvalue)

    return WilcoxonResult(statistic, p, med, q1, q3, n)


def evaluate_predictions(test, predictions, alpha: float, fit_seconds: float) -> EvalReport:
    """Assemble the full report; decision-error fields need q_star on the test set."""
    y = np.asarray(predictions, dtype=float)
    level = service_level(test, y)
    if test.q_star is not None:
        rq = rmse_q(test, y)
        abs_errors = np.abs(y - test.q_star)
    else:
        rq, abs_errors = None, None
    return EvalReport(
        nv_cost=nv_cost(test, y, alpha),
        rmse_q=rq,
        service_level=level,
        service_gap=abs(level - alpha),
        abs_errors=abs_errors,
        fit_seconds=fit_seconds,
    )
