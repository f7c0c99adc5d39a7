"""Small fully-connected network with sigmoid hidden layers and a linear output.

Forward/backward passes are hand-rolled so any of the supported loss
subgradients can drive the output delta.  All parameters live in one flat
vector with per-layer views, and every fit runs the descent loop shared with
the linear learners: plain mini-batch SGD with one permutation drawn per run
and reused every pass, or an adaptive-moment optimizer behind a flag.  The
one-row-swap stability probe is that loop too, with no hold-out and one
sample per batch: the base run and its swapped runs train as one population.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .data import Dataset
from .losses import LossSpec, evaluate
from .training import Member, TrainConfig, TrainTrace, descend, raise_divergence


@functools.lru_cache(maxsize=None)
def _layout(layer_sizes: tuple) -> tuple:
    """(weights start, biases start, biases end, fan_out, fan_in) of each layer
    in the flat [W0, b0, W1, b1, ...] vector, computed once per layer sizes."""
    spans, pos = [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        split = pos + fan_out * fan_in
        spans.append((pos, split, split + fan_out, fan_out, fan_in))
        pos = split + fan_out
    return tuple(spans)


def _views(layer_sizes, flat: np.ndarray) -> tuple[list, list]:
    """Per-layer (weights, biases) views into flat parameter vectors
    [..., n_params], each W^l row-major of shape (..., size of layer l+1,
    size of layer l); leading axes (one row per model) carry through."""
    lead = flat.shape[:-1]
    spans = _layout(tuple(layer_sizes))
    weights = [flat[..., a:b].reshape(*lead, o, i) for a, b, _, o, i in spans]
    biases = [flat[..., b:c] for _, b, c, _, _ in spans]
    return weights, biases


def _n_params(layer_sizes) -> int:
    return _layout(tuple(layer_sizes))[-1][2]


class MLPModel:
    """Layer sizes [p, h1, ..., 1] and one flat parameter vector.

    params is laid out [W0, b0, W1, b1, ...]; weights[l] (shape (size of
    layer l+1, size of layer l)) and biases[l] are views into it, so writing
    through them writes the vector.  The output layer is a single identity
    node.  The constructor copies per-layer arrays into a fresh vector;
    from_params wraps an existing vector without copying.
    """

    def __init__(self, layer_sizes, weights, biases):
        sizes = list(layer_sizes)
        for l, (w, b) in enumerate(zip(weights, biases)):
            expected = (sizes[l + 1], sizes[l])
            if w.shape != expected:
                raise ValueError(f"weight matrix {l} has shape {w.shape}, expected {expected}")
            if b.shape != (sizes[l + 1],):
                raise ValueError(f"bias vector {l} has length {b.shape}")
        parts = [part for w, b in zip(weights, biases) for part in (w.ravel(), b)]
        self._bind(sizes, np.concatenate(parts, dtype=float))

    @classmethod
    def from_params(cls, layer_sizes, params: np.ndarray) -> "MLPModel":
        model = cls.__new__(cls)
        model._bind(list(layer_sizes), params)
        return model

    def _bind(self, layer_sizes: list[int], params: np.ndarray) -> None:
        if layer_sizes[-1] != 1:
            raise ValueError("the output layer must hold exactly one node")
        if params.shape != (_n_params(layer_sizes),):
            raise ValueError(f"layer sizes {layer_sizes} do not fit {params.shape} parameters")
        self.layer_sizes = layer_sizes
        self.params = params
        self.weights, self.biases = _views(layer_sizes, params)

    @property
    def p(self) -> int:
        return self.layer_sizes[0]


class BackpropState(NamedTuple):
    """Cached activations (a^0 is the input) and pre-activations per layer."""

    activations: list[np.ndarray]
    pre_activations: list[np.ndarray]


class GradientSet:
    """Flat gradient in the model's parameter layout; weights and biases are
    per-layer views into it, made on first use."""

    def __init__(self, layer_sizes, flat: np.ndarray):
        self.layer_sizes = layer_sizes
        self.flat = flat

    @functools.cached_property
    def _layers(self) -> tuple[list, list]:
        return _views(self.layer_sizes, self.flat)

    @property
    def weights(self) -> list[np.ndarray]:
        return self._layers[0]

    @property
    def biases(self) -> list[np.ndarray]:
        return self._layers[1]


def init_mlp(layer_sizes, seed: int = 0) -> MLPModel:
    """Symmetric uniform init with r = sqrt(6 / (fan_in + fan_out)), zero biases."""
    rng = np.random.default_rng(seed)
    model = MLPModel.from_params(layer_sizes, np.zeros(_n_params(layer_sizes)))
    for w in model.weights:
        fan_out, fan_in = w.shape
        r = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-r, r, size=(fan_out, fan_in))
    return model


def _propagate(weights, biases, a: np.ndarray) -> BackpropState:
    """Activations of inputs a (..., b, p) through layers with weights
    (..., out, in) and biases (..., out); a leading model axis carries through."""
    activations, pre_activations = [a], []
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.swapaxes(-1, -2) + b[..., None, :]
        pre_activations.append(z)
        a = z if l == last else expit(z)
        activations.append(a)
    return BackpropState(activations, pre_activations)


def _backprop(weights, state: BackpropState, dy: np.ndarray) -> np.ndarray:
    """Batch-mean gradient (..., n_params), laid out like the parameters, for
    decision subgradients dy (..., b)."""
    delta = dy[..., None]
    n = delta.shape[-2]
    parts = []  # last layer first: b^L, W^L, b^{L-1}, ...
    for l in range(len(weights) - 1, -1, -1):
        a_prev = state.activations[l]
        gw = delta.swapaxes(-1, -2) @ a_prev / n
        # add.reduce / n is delta.mean, without mean's per-call overhead
        parts += [np.add.reduce(delta, axis=-2) / n, gw.reshape(*gw.shape[:-2], -1)]
        if l > 0:
            delta = (delta @ weights[l]) * (a_prev * (1.0 - a_prev))
    return np.concatenate(parts[::-1], axis=-1)


def forward(model: MLPModel, features) -> tuple[float | np.ndarray, BackpropState]:
    """Sigmoid hidden layers, identity output; caches state for backward."""
    x = np.asarray(features, dtype=float)
    single = x.ndim == 1
    a = x.reshape(1, -1) if single else x
    if a.shape[1] != model.p:
        raise ValueError(
            f"feature dimension {a.shape[1]} does not match input layer {model.p}"
        )
    state = _propagate(model.weights, model.biases, a)
    y = state.activations[-1][:, 0]
    return (float(y[0]) if single else y), state


def backward(model: MLPModel, state: BackpropState, s, spec: LossSpec) -> GradientSet:
    """Backpropagate the loss subgradient; returns gradients averaged over the batch.

    The output delta is dL/dy from the loss family; hidden deltas recurse as
    delta^{l-1} = (delta^l . W^l) * a^{l-1} (1 - a^{l-1}), using the sigmoid
    derivative in activation form.
    """
    a_out = state.activations[-1]
    if a_out.shape[1] != 1 or len(state.activations) != len(model.weights) + 1:
        raise ValueError("backprop state does not match the model")
    n = a_out.shape[0]
    s_arr = np.asarray(s, dtype=float).reshape(-1)
    if s_arr.shape[0] != n:
        raise ValueError(f"{s_arr.shape[0]} targets for a state of {n} samples")

    dy = np.asarray(evaluate(s_arr, a_out[:, 0], spec).subgrad)
    return GradientSet(model.layer_sizes, _backprop(model.weights, state, dy))


def _stacked_forward(layer_sizes: tuple, P: np.ndarray, Xb: np.ndarray):
    """Decisions (k, b) of parameter rows P (k, n_params) on batches (k, b, p)."""
    weights, biases = _views(layer_sizes, P)
    state = _propagate(weights, biases, Xb)
    return state.activations[-1][..., 0], (weights, state)


def _stacked_backward(P: np.ndarray, cache, dy: np.ndarray) -> np.ndarray:
    """Batch-mean gradients (k, n_params) for decision subgradients dy (k, b)."""
    return _backprop(*cache, dy)


def fit_sgd_population(
    dataset, arch, members: list[Member], optimizer: str = "sgd"
) -> tuple[list[MLPModel], list[TrainTrace]]:
    """fit_sgd of every member on its rows of dataset, trained as one population.

    Each model and trace equals fit_sgd(dataset.take(m.rows), m.spec, arch,
    m.config, optimizer) bit for bit; the members must agree on
    training.batch_shape.
    """
    X = np.asarray(dataset.features, dtype=float)
    s = np.asarray(dataset.sales, dtype=float)
    sizes = tuple(arch)
    if sizes[0] != X.shape[1]:
        raise ValueError(f"architecture expects {sizes[0]} inputs, data has {X.shape[1]}")

    params = np.stack([init_mlp(sizes, seed=m.config.seed).params for m in members])
    decay_mask = np.zeros(params.shape[1])
    for w in _views(sizes, decay_mask)[0]:
        w[...] = 1.0  # biases carry no weight decay

    best, traces = descend(
        params, functools.partial(_stacked_forward, sizes), _stacked_backward,
        X, s, members, decay_mask,
        optimizer=optimizer, reshuffle=False,
    )
    return [MLPModel.from_params(list(sizes), row) for row in best], traces


def fit_sgd(
    dataset,
    spec: LossSpec,
    arch,
    config: TrainConfig,
    optimizer: str = "sgd",
) -> tuple[MLPModel, TrainTrace]:
    """Mini-batch training with a per-run fixed permutation and early stopping.

    arch is the full layer-size list [p, h1, h2, 1].  The loop, its stopping
    rules and the best-validation snapshot are the linear trainer's; weight
    decay exempts the biases.  Raises DivergenceError if training diverges.
    """
    rows = np.arange(np.asarray(dataset.sales).shape[0])
    (model,), (trace,) = fit_sgd_population(
        dataset, arch, [Member(rows, spec, config)], optimizer
    )
    raise_divergence([trace])
    return model, trace


def parameter_distance(a: MLPModel, b: MLPModel) -> float:
    """Euclidean distance between two parameter vectors of identical shape."""
    return float(np.linalg.norm(a.params - b.params))


def uas_bound(alpha: float, eta: float, n: int, k_passes: int) -> float:
    """Parameter-distance bound 2 max(a, 1-a) (eta sqrt(nK) + 2 eta K)."""
    peak = max(alpha, 1.0 - alpha)
    return 2.0 * peak * (eta * np.sqrt(n * k_passes) + 2.0 * eta * k_passes)


def swap_distances(dataset, spec: LossSpec, arch, eta: float, seed: int, k_passes: int, swaps):
    """Parameter distances between the run on dataset and, per swap
    (index, features, sale), the run on dataset with that row replaced.

    Every run is single-sample SGD at rate eta from seed for exactly
    k_passes passes with no hold-out, so all share the initialization and
    the permutation.  They train as one population: the fresh rows are
    appended to the panel, and member j + 1 fits the base rows with swap j's
    index pointed at its fresh row.  If runs diverge, the first one's
    DivergenceError is raised.
    """
    n = len(dataset.sales)
    rows = np.tile(np.arange(n), (1 + len(swaps), 1))
    for j, (index, _, _) in enumerate(swaps, start=1):
        if not 0 <= index < n:
            raise IndexError(f"swap index {index} outside dataset of {n} rows")
        rows[j, index] = n + j - 1
    panel = Dataset(
        np.vstack([dataset.features] + [row for _, row, _ in swaps]),
        np.concatenate([dataset.sales, [sale for _, _, sale in swaps]]),
    )
    plain = TrainConfig(
        eta=eta, batch_size=1, max_epochs=k_passes, val_fraction=0.0, patience=k_passes, seed=seed
    )
    models, traces = fit_sgd_population(panel, arch, [Member(r, spec, plain) for r in rows])
    raise_divergence(traces)
    return [parameter_distance(models[0], other) for other in models[1:]]


def uas_probe(
    dataset,
    spec: LossSpec,
    arch,
    config: TrainConfig,
    swap_index: int,
    k_passes: int,
    replacement=None,
) -> float:
    """Parameter distance between runs on S and on S with one row replaced
    by replacement, the fresh (features, sale) row, trained as in
    swap_distances at config's eta and seed (no other field is read).  None
    leaves the dataset unchanged, in which case the distance is exactly zero.
    """
    if replacement is None:  # swap the row for itself
        replacement = (dataset.features[swap_index], dataset.sales[swap_index])
    (distance,) = swap_distances(
        dataset, spec, arch, config.eta, config.seed, k_passes, [(swap_index, *replacement)]
    )
    return distance


# Serialization: layer sizes on the first line, then the flat parameter
# vector (each layer's weight matrix in row-major order followed by its bias
# vector), one value per line.


def to_text(model: MLPModel) -> str:
    lines = [" ".join(str(k) for k in model.layer_sizes)]
    lines.extend(f"{v:.17g}" for v in model.params)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> MLPModel:
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("empty network record")
    sizes = [int(tok) for tok in lines[0].split()]
    values = np.array([float(tok) for line in lines[1:] for tok in line.split()])
    if values.shape[0] != _n_params(sizes):
        raise ValueError(f"record holds {values.shape[0]} values, expected {_n_params(sizes)}")
    return MLPModel.from_params(sizes, values)


def save_model(model: MLPModel, path) -> None:
    Path(path).write_text(to_text(model))


def load_model(path) -> MLPModel:
    return from_text(Path(path).read_text())
