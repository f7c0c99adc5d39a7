"""Empirical probes of the stability and generalization guarantees.

The linear probe retrains the exact LP path with each training row deleted
and measures the worst per-point loss change against the closed-form
stability parameter.  The network probe measures parameter movement under
one-row swaps against the SGD argument-stability bound.  Bound helpers are
ordinary formulas so reports can print them next to the measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .linear import fit_lp, predict
from .losses import LossSpec, evaluate
from .neural import swap_distances, uas_bound


def stability_parameter(
    p: int, n: int, alpha: float, d_max: float, eps2: float
) -> float:
    """Leave-one-out loss stability (p/n) (peak^2 / trough) (d_max + eps2),
    with peak = max(a, 1-a) and trough = min(a, 1-a)."""
    peak = max(alpha, 1.0 - alpha)
    trough = min(alpha, 1.0 - alpha)
    return (p / n) * (peak**2 / trough) * (d_max + eps2)


def lr_generalization_bound(
    p: int, n: int, alpha: float, d_max: float, eps2: float, delta: float
) -> float:
    """High-probability bound on (true risk - training risk) for the exact
    linear path, in absolute loss units."""
    peak = max(alpha, 1.0 - alpha)
    ratio = peak / min(alpha, 1.0 - alpha)
    scale = peak * (d_max + eps2)
    tail = np.sqrt(np.log(1.0 / delta) / (2.0 * n))
    return scale * (2.0 * p / n * ratio + (4.0 * p * ratio + 1.0) * tail)


def nn_generalization_bracket(
    alpha: float, eta: float, n: int, k_passes: int, d_max: float, rho: float
) -> float:
    """The c = 1 value of the network generalization bound; the absolute
    constant is calibrated empirically by the caller."""
    peak = max(alpha, 1.0 - alpha)
    uas_term = peak**2 * (eta * np.sqrt(n * k_passes) + 2.0 * k_passes * eta)
    return float(
        uas_term * np.log(n) * np.log(n / rho)
        + peak * d_max * np.sqrt(np.log(1.0 / rho) / n)
    )


def probe_grid(p: int, n_points: int = 200, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Probe points (x, s) in [0,1]: a mesh for p == 2, random otherwise.

    Returns (features with intercept column, targets)."""
    if p == 2:
        side_x = 20
        side_s = n_points // side_x
        xs, ss = np.meshgrid(np.linspace(0, 1, side_x), np.linspace(0, 1, side_s))
        raw = xs.ravel()[:, None]
        s = ss.ravel()
    else:
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.0, 1.0, size=(n_points, p - 1))
        s = rng.uniform(0.0, 1.0, n_points)
    X = np.hstack([np.ones((raw.shape[0], 1)), raw])
    return X, s


@dataclass
class LooStabilityResult:
    n: int
    p: int
    empirical_sup: float
    bound: float

    @property
    def holds(self) -> bool:
        return self.empirical_sup <= self.bound


def loo_stability_probe(
    dataset: Dataset,
    spec: LossSpec,
    probe_features: np.ndarray,
    probe_targets: np.ndarray,
    d_max: float = 1.0,
) -> LooStabilityResult:
    """sup over deleted rows and probe points of the per-point loss change
    between the LP fit on the full data and on the data minus that row."""
    full = fit_lp(dataset, spec)
    full_losses = np.asarray(
        evaluate(probe_targets, predict(full, probe_features), spec).value
    )
    sup = 0.0
    n = dataset.n
    for i in range(n):
        keep = np.delete(np.arange(n), i)
        reduced = fit_lp(dataset.take(keep), spec)
        losses = np.asarray(
            evaluate(probe_targets, predict(reduced, probe_features), spec).value
        )
        sup = max(sup, float(np.abs(losses - full_losses).max()))
    bound = stability_parameter(dataset.p, n, spec.alpha, d_max, spec.eps2)
    return LooStabilityResult(n, dataset.p, sup, bound)


def random_band_dataset(
    n: int, p: int, seed: int, coefs: np.ndarray | None = None, noise: float = 0.1
) -> Dataset:
    """Features (1, U(0,1)^{p-1}); targets min-max scaled into [0, 1].

    Scaling by the sample range (rather than clipping) keeps the target
    distribution atom-free, which keeps the exact-LP fits nondegenerate."""
    rng = np.random.default_rng(seed)
    X = np.hstack([np.ones((n, 1)), rng.uniform(0.0, 1.0, size=(n, p - 1))])
    if coefs is None:
        coefs = np.concatenate([[0.2], rng.uniform(0.2, 0.6, p - 1)])
    raw = X @ coefs + rng.normal(0.0, noise, n)
    s = (raw - raw.min()) / (raw.max() - raw.min())
    return Dataset(X, s)


@dataclass
class UasProbeResult:
    n: int
    k_passes: int
    eta: float
    swap_index: int
    distance: float
    bound: float

    @property
    def holds(self) -> bool:
        return self.distance <= self.bound


def uas_probe_sweep(
    dataset: Dataset,
    spec: LossSpec,
    arch,
    eta: float,
    k_passes: int,
    swap_indices,
    seed: int,
) -> list[UasProbeResult]:
    """One-row-swap parameter distances for several swap positions.

    Replacement rows are fresh draws from the same recipe as
    random_band_dataset.  The base run and every swapped run train together
    as one population (neural.swap_distances)."""
    rng = np.random.default_rng(seed + 77_000)
    swaps = []
    for idx in swap_indices:
        row = np.concatenate([[1.0], rng.uniform(0.0, 1.0, dataset.p - 1)])
        swaps.append((int(idx), row, float(rng.uniform(0.0, 1.0))))
    distances = swap_distances(dataset, spec, arch, eta, seed, k_passes, swaps)
    bound = uas_bound(spec.alpha, eta, dataset.n, k_passes)
    return [
        UasProbeResult(dataset.n, k_passes, eta, idx, dist, bound)
        for (idx, _, _), dist in zip(swaps, distances)
    ]
