"""Linear decision models y = x.theta under any supported training loss.

Feature column 0 is the constant 1 by convention; the weight-decay penalty
skips it.  Three training paths: mini-batch subgradient descent (any loss),
ordinary least squares in closed form (squared error), and the exact LP
solve of the band-insensitive loss by HiGHS, at any number of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .losses import EPS_NV, ConfigurationError, LossSpec, batch_loss
from .training import Member, TrainConfig, TrainTrace, descend, raise_divergence


@dataclass
class LinearModel:
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.ndim != 1:
            raise ValueError("coefficient vector must be one-dimensional")
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("coefficient vector must be finite")

    @property
    def p(self) -> int:
        return self.theta.shape[0]


def predict(model: LinearModel, features) -> float | np.ndarray:
    """x.theta for a single feature vector or a matrix of rows."""
    X = np.asarray(features, dtype=float)
    if X.shape[-1] != model.p:
        raise ValueError(
            f"feature dimension {X.shape[-1]} does not match model dimension {model.p}"
        )
    out = X @ model.theta
    return float(out) if out.ndim == 0 else out


def _forward(theta: np.ndarray, Xb: np.ndarray):
    """Decisions (k, b) of coefficient rows theta (k, p) on batches (k, b, p)."""
    return np.matmul(Xb, theta[:, :, None])[:, :, 0], Xb


def _backward(theta: np.ndarray, Xb: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Batch-mean gradients (k, p): each row is Xb[k].T @ dy[k] / b."""
    return np.matmul(dy[:, None, :], Xb)[:, 0, :] / Xb.shape[1]


def fit_gd_population(
    dataset, members: list[Member]
) -> tuple[list[LinearModel], list[TrainTrace]]:
    """fit_gd of every member on its rows of dataset, trained as one population.

    Each model and trace equals fit_gd(dataset.take(m.rows), m.spec,
    m.config) bit for bit; the members must agree on training.batch_shape.
    """
    X = np.asarray(dataset.features, dtype=float)
    s = np.asarray(dataset.sales, dtype=float)
    theta = np.zeros((len(members), X.shape[1]))
    decay_mask = np.ones(X.shape[1])
    decay_mask[0] = 0.0  # intercept carries no weight decay
    best, traces = descend(theta, _forward, _backward, X, s, members, decay_mask)
    return [LinearModel(row) for row in best], traces


def fit_gd(
    dataset, spec: LossSpec, config: TrainConfig
) -> tuple[LinearModel, TrainTrace]:
    """Mini-batch subgradient descent from theta = 0.

    Updates theta <- theta - (eta/batch) sum_i dL_i/dtheta, plus the
    2*l2*theta decay term (intercept exempt) when config.l2 > 0, over a batch
    order redrawn every epoch.  Returns the best-validation snapshot, not the
    last iterate; raises DivergenceError if training diverges.
    """
    rows = np.arange(np.asarray(dataset.sales).shape[0])
    (model,), (trace,) = fit_gd_population(dataset, [Member(rows, spec, config)])
    raise_divergence([trace])
    return model, trace


def fit_mse_closed_form(dataset) -> LinearModel:
    """Ordinary least squares via a stable least-squares factorization."""
    X = np.asarray(dataset.features, dtype=float)
    s = np.asarray(dataset.sales, dtype=float)
    gram = X.T @ X
    if np.linalg.cond(gram) > 1e12:
        raise ValueError(
            "design matrix is rank-deficient (condition number above 1e12)"
        )
    theta, *_ = np.linalg.lstsq(X, s, rcond=None)
    return LinearModel(theta)


def fit_lp(dataset, spec: LossSpec) -> LinearModel:
    """Exact minimizer of the band-insensitive loss, solved by HiGHS.

    The LP has variables [theta (p, free), o (n), u (n)]: o_i is the
    overage excess (x_i.theta - s_i - eps1)^+ and u_i the underage shortfall
    (s_i + eps2 - x_i.theta)^+.  Its 2n inequality rows are
    x_i.theta - o_i <= s_i + eps1 and -x_i.theta - u_i <= -(s_i + eps2), and
    the objective is (1/n) sum[(1-a) o_i + a u_i].  The constraint matrix
    stays sparse, so memory grows linearly in n and no row count is refused.
    Non-finite features or sales raise ValueError.
    """
    if spec.kind != EPS_NV:
        raise ConfigurationError(f"LP construction requires an {EPS_NV} spec")
    X = np.asarray(dataset.features, dtype=float)
    s = np.asarray(dataset.sales, dtype=float)
    n, p = X.shape
    if n < 1 or p < 1:
        raise ValueError("dataset must have at least one row and one feature")

    eye = sparse.identity(n)
    A = sparse.bmat([[X, -eye, None], [-X, None, -eye]], format="csc")
    b = np.concatenate([s + spec.eps1, -(s + spec.eps2)])
    c = np.concatenate(
        [np.zeros(p), np.full(n, (1.0 - spec.alpha) / n), np.full(n, spec.alpha / n)]
    )
    bounds = [(None, None)] * p + [(0.0, None)] * (2 * n)
    result = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    if result.status != 0:
        raise RuntimeError(f"LP solve failed: {result.message}")
    return LinearModel(result.x[:p])


def training_loss(model: LinearModel, dataset, spec: LossSpec) -> float:
    """Mean loss of the model over a dataset (handy for LP/GD comparisons)."""
    return batch_loss(dataset.sales, predict(model, dataset.features), spec)


# Serialization: dimension on the first line, then one coefficient per line
# at 17 significant digits, which round-trips float64 exactly.


def to_text(model: LinearModel) -> str:
    lines = [str(model.p)]
    lines.extend(f"{v:.17g}" for v in model.theta)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> LinearModel:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty linear model record")
    p = int(tokens[0])
    if len(tokens) != p + 1:
        raise ValueError(f"expected {p} coefficients, found {len(tokens) - 1}")
    return LinearModel(np.array([float(t) for t in tokens[1:]]))


def save_model(model: LinearModel, path) -> None:
    Path(path).write_text(to_text(model))


def load_model(path) -> LinearModel:
    return from_text(Path(path).read_text())
