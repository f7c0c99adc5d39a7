"""Reference computations made apart from the package, for the output checks.

Nothing here calls the package's fitting, loss or bound code; each function
restates the formula or solves the problem another way.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


def newsvendor_cost(demand, orders, alpha: float) -> float:
    """Mean of alpha (d - y)^+ + (1 - alpha) (y - d)^+."""
    d = np.asarray(demand, dtype=float)
    y = np.asarray(orders, dtype=float)
    return float(np.mean(alpha * np.clip(d - y, 0.0, None) + (1.0 - alpha) * np.clip(y - d, 0.0, None)))


def least_squares_orders(train_features, train_sales, test_features) -> np.ndarray:
    """Ordinary least squares by the normal equations, on unscaled data."""
    X = np.asarray(train_features, dtype=float)
    theta = np.linalg.solve(X.T @ X, X.T @ np.asarray(train_sales, dtype=float))
    return np.asarray(test_features, dtype=float) @ theta


def band_loss(features, sales, theta, alpha: float, eps1: float, eps2: float) -> float:
    """Mean band-insensitive cost (1-a)(y - s - eps1)^+ + a(s + eps2 - y)^+."""
    y = np.asarray(features, dtype=float) @ np.asarray(theta, dtype=float)
    s = np.asarray(sales, dtype=float)
    over = np.clip(y - s - eps1, 0.0, None)
    under = np.clip(s + eps2 - y, 0.0, None)
    return float(np.mean((1.0 - alpha) * over + alpha * under))


def band_lp_fit(features, sales, alpha: float, eps1: float, eps2: float):
    """Exact band-insensitive regression by HiGHS on a sparse LP.

    Variables are [theta (free), o (n), u (n)] with
    x.theta - o_i <= s_i + eps1 and -x.theta - u_i <= -(s_i + eps2);
    the objective is (1/n) sum (1-a) o_i + a u_i.  With eps1 = eps2 = 0 this
    is the plain newsvendor (quantile) regression.  Returns (theta, optimum).
    """
    X = sparse.csr_matrix(np.asarray(features, dtype=float))
    s = np.asarray(sales, dtype=float)
    n, p = X.shape
    eye = sparse.identity(n, format="csr")
    A = sparse.bmat([[X, -eye, None], [-X, None, -eye]], format="csr")
    b = np.concatenate([s + eps1, -(s + eps2)])
    c = np.concatenate([np.zeros(p), np.full(n, (1.0 - alpha) / n), np.full(n, alpha / n)])
    bounds = [(None, None)] * p + [(0.0, None)] * (2 * n)
    res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP did not solve: {res.message}")
    return res.x[:p], float(res.fun)


def loo_bound(p: int, n: int, alpha: float, d_max: float, eps2: float) -> float:
    """Leave-one-out loss-stability bound (p/n)(peak^2/trough)(d_max + eps2)."""
    peak, trough = max(alpha, 1.0 - alpha), min(alpha, 1.0 - alpha)
    return p / n * peak * peak / trough * (d_max + eps2)


def swap_bound(alpha: float, eta: float, n: int, k_passes: int) -> float:
    """One-row-swap SGD bound 2 max(a, 1-a) (eta sqrt(n K) + 2 eta K)."""
    return 2.0 * max(alpha, 1.0 - alpha) * (eta * np.sqrt(n * k_passes) + 2.0 * eta * k_passes)


def relative_gap(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)
