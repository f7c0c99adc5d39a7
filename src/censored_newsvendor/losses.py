"""Operational cost functions and their subgradients with respect to the decision.

All losses are per-sample costs c(y; s) of ordering/choosing y when the
(possibly censored) observation is s.  Batch losses are means over samples.
Every function accepts scalars or numpy arrays and broadcasts.

The band-insensitive newsvendor cost charges nothing for decisions inside
[s + eps2, s + eps1]; overage beyond the upper edge costs (1 - alpha) per
unit and underage below the lower edge costs alpha per unit, where
alpha = c_u / (c_u + c_o) is the critical ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Loss family identifiers.
EPS_NV = "eps_nv"  # band-insensitive newsvendor cost
NVC = "nvc"  # plain newsvendor (pinball) cost
MSE = "mse"  # squared error
EPS_CP = "eps_cp"  # custom pricing cost
EPS_RP = "eps_rp"  # preventive replacement cost

KINDS = (EPS_NV, NVC, MSE, EPS_CP, EPS_RP)


class ConfigurationError(ValueError):
    """A loss specification violates its parameter constraints."""


class LossEval(NamedTuple):
    """Per-sample loss value and its derivative with respect to the decision y."""

    value: float | np.ndarray
    subgrad: float | np.ndarray


@dataclass(frozen=True)
class LossSpec:
    """Which loss family to use, with its parameters.

    alpha is the newsvendor critical ratio (used by eps_nv / nvc), eps1/eps2
    are the band edges (eps1 doubles as the single band width for eps_cp and
    eps_rp), and c1/c2 are the unit costs of the pricing and replacement
    variants.
    """

    kind: str
    alpha: float = 0.5
    eps1: float = 0.0
    eps2: float = 0.0
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown loss kind {self.kind!r}")
        if self.kind in (EPS_NV, NVC) and not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(
                f"alpha must lie strictly inside (0, 1), got {self.alpha}"
            )
        if self.kind == EPS_NV:
            if not (self.eps1 > self.eps2 >= 0.0):
                raise ConfigurationError(
                    f"band edges need eps1 > eps2 >= 0, got "
                    f"eps1={self.eps1}, eps2={self.eps2}"
                )
        elif self.kind in (NVC, MSE):
            if self.eps1 != 0.0 or self.eps2 != 0.0:
                raise ConfigurationError(f"{self.kind} does not take band parameters")
        elif self.kind == EPS_CP:
            if self.eps1 <= 0.0 or self.c1 <= 0.0 or self.c2 <= 0.0:
                raise ConfigurationError(
                    "pricing loss needs eps1 > 0 and positive unit costs"
                )
        elif self.kind == EPS_RP:
            if self.eps1 <= 0.0 or not self.c2 > self.c1 > 0.0:
                raise ConfigurationError(
                    "replacement loss needs eps1 > 0 and c2 > c1 > 0"
                )

    # Convenience constructors -------------------------------------------------

    @classmethod
    def eps_nv(cls, alpha: float, eps1: float, eps2: float = 0.0) -> "LossSpec":
        return cls(kind=EPS_NV, alpha=alpha, eps1=eps1, eps2=eps2)

    @classmethod
    def nvc(cls, alpha: float) -> "LossSpec":
        return cls(kind=NVC, alpha=alpha)

    @classmethod
    def mse(cls) -> "LossSpec":
        return cls(kind=MSE)

    @classmethod
    def pricing(cls, c1: float, c2: float, eps: float) -> "LossSpec":
        return cls(kind=EPS_CP, c1=c1, c2=c2, eps1=eps)

    @classmethod
    def replacement(cls, c1: float, c2: float, eps: float) -> "LossSpec":
        return cls(kind=EPS_RP, c1=c1, c2=c2, eps1=eps)


def _pos(x):
    return np.maximum(x, 0.0)


def eval_eps_nv(s, y, spec: LossSpec) -> LossEval:
    """Band-insensitive newsvendor cost.

    value = (1-a)(y - s - eps1)^+ + a(s + eps2 - y)^+, zero exactly on the
    band [s+eps2, s+eps1].  The subgradient is (1-a) above the band, -a below
    it, and 0 on the band including both edges, so iterates already inside
    the zero-loss band stay put.
    """
    if spec.kind != EPS_NV:
        raise ConfigurationError(f"expected an {EPS_NV} spec, got {spec.kind}")
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    value = band_cost(s, y, spec.alpha, spec.eps1, spec.eps2)
    subgrad = band_subgrad(y, s + spec.eps2, s + spec.eps1, spec.alpha)
    return LossEval(value[()], subgrad[()])


def band_cost(s, y, alpha, eps1, eps2):
    """Per-sample band-insensitive cost (eval_eps_nv's value).

    alpha, eps1 and eps2 may be arrays that broadcast against s and y, so
    one (K, 1) column each prices K models' decisions (K, n) at once; with
    eps1 = eps2 = 0 the values are eval_nvc's.
    """
    return (1.0 - alpha) * _pos(y - s - eps1) + alpha * _pos(s + eps2 - y)


def band_subgrad(y, lower, upper, alpha):
    """Subgradient of the band cost in y, given the band edges
    lower = s + eps2 and upper = s + eps1, which a caller may form once and
    reuse; with eps1 = eps2 = 0 the values are eval_nvc's."""
    return np.where(y > upper, 1.0 - alpha, np.where(y < lower, -alpha, 0.0))


def eval_nvc(s, y, alpha: float) -> LossEval:
    """Plain newsvendor (pinball) cost a(s-y)^+ + (1-a)(y-s)^+."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    value = alpha * _pos(s - y) + (1.0 - alpha) * _pos(y - s)
    subgrad = np.where(y > s, 1.0 - alpha, np.where(y < s, -alpha, 0.0))
    return LossEval(value[()], subgrad[()])


def eval_mse(s, y) -> LossEval:
    """Squared error (y - s)^2 with derivative 2(y - s)."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = y - s
    return LossEval((diff * diff)[()], (2.0 * diff)[()])


def eval_eps_cp(s, y, spec: LossSpec) -> LossEval:
    """Pricing cost: c2 per unit below the observed price, c1 above s + eps."""
    if spec.kind != EPS_CP:
        raise ConfigurationError(f"expected an {EPS_CP} spec, got {spec.kind}")
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    value = spec.c2 * _pos(s - y) + spec.c1 * _pos(y - s - spec.eps1)
    subgrad = np.where(y < s, -spec.c2, np.where(y > s + spec.eps1, spec.c1, 0.0))
    return LossEval(value[()], subgrad[()])


def eval_eps_rp(s, y, spec: LossSpec) -> LossEval:
    """Replacement cost: c2 e^{-s} past the band, c1 e^{-s} before it.

    Piecewise constant in y, so the subgradient is 0 everywhere; this loss is
    for evaluation only and cannot drive gradient training.
    """
    if spec.kind != EPS_RP:
        raise ConfigurationError(f"expected an {EPS_RP} spec, got {spec.kind}")
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    decay = np.exp(-s)
    late = (y - s - spec.eps1 > 0).astype(float)
    early = (s + spec.eps1 - y > 0).astype(float)
    value = spec.c2 * decay * late + spec.c1 * decay * early
    return LossEval(value[()], np.zeros_like(value)[()])


def evaluate(s, y, spec: LossSpec) -> LossEval:
    """Dispatch to the spec's loss family."""
    if spec.kind == EPS_NV:
        return eval_eps_nv(s, y, spec)
    if spec.kind == NVC:
        return eval_nvc(s, y, spec.alpha)
    if spec.kind == MSE:
        return eval_mse(s, y)
    if spec.kind == EPS_CP:
        return eval_eps_cp(s, y, spec)
    return eval_eps_rp(s, y, spec)


def batch_loss(s, y, spec: LossSpec) -> float:
    """Mean per-sample loss over a batch."""
    return float(np.mean(evaluate(s, y, spec).value))


def uniform_bound(spec: LossSpec, d_max: float) -> float:
    """Tight upper bound of the band-insensitive cost over s, y in [0, d_max].

    Equals max(alpha, 1-alpha) * (d_max + eps2) and is attained at
    (s = d_max, y = 0), where the cost is exactly alpha * (d_max + eps2).
    """
    if spec.kind != EPS_NV:
        raise ConfigurationError(f"uniform bound is defined for {EPS_NV} only")
    if d_max <= 0:
        raise ConfigurationError(f"d_max must be positive, got {d_max}")
    return max(spec.alpha, 1.0 - spec.alpha) * (d_max + spec.eps2)


def lipschitz_constant(spec: LossSpec) -> float:
    """Lipschitz constant of the loss in y: max(alpha, 1-alpha)."""
    if spec.kind not in (EPS_NV, NVC):
        raise ConfigurationError(
            f"Lipschitz constant is defined for {EPS_NV} and {NVC} only"
        )
    return max(spec.alpha, 1.0 - spec.alpha)
