"""Per-layer metrics of one traced round.

The layers are the package's modules.  `LayerProbe` installs a `Tracer`
and a few hooks that read what wrapped functions return (LP iterations,
training traces, tuning tables, learner fits); `metrics` turns the spans
and hook counters into the fixed per-layer metric names of BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from collections import Counter

import numpy as np

from spans import Tracer, aggregate

PACKAGE = "censored_newsvendor"
MODULES = (
    "data", "losses", "simplex", "linear", "neural", "training",
    "learners", "tuning", "metrics", "stability", "experiment", "cli",
)
LEARNER_KINDS = ("LR-MSE", "LR-NVC", "LR-eNVC", "LR-eNVC-R", "NN-MSE", "NN-NVC", "NN-eNVC")
STOP_REASONS = ("max_epochs", "patience", "baseline")

# (function, field, unit) read from the span aggregate.
FUNCTION_METRICS = (
    ("simplex.solve_simplex", "calls", "count"),
    ("simplex.solve_simplex", "busy_s", "s"),
    ("linear.fit_lp", "busy_s", "s"),
    ("linear.fit_gd", "calls", "count"),
    ("linear.fit_gd", "busy_s", "s"),
    ("neural.fit_sgd", "busy_s", "s"),
    ("neural.forward", "calls", "count"),
    ("neural.forward", "busy_s", "s"),
    ("neural.backward", "calls", "count"),
    ("neural.backward", "busy_s", "s"),
    ("neural.uas_probe", "busy_s", "s"),
    ("tuning.two_stage_protocol", "calls", "count"),
    ("tuning.two_stage_protocol", "busy_s", "s"),
    ("tuning.two_stage_protocol", "self_s", "s"),
    ("tuning.search", "calls", "count"),
    ("tuning.search", "self_s", "s"),
    ("tuning.cv_score", "calls", "count"),
    ("tuning.cv_score", "self_s", "s"),
    ("learners.fit_learner", "calls", "count"),
    ("learners.fit_learner", "busy_s", "s"),
    ("losses.evaluate", "calls", "count"),
    ("losses.evaluate", "busy_s", "s"),
    ("data.generate", "busy_s", "s"),
    ("data.split_chronological", "busy_s", "s"),
    ("data.scale", "busy_s", "s"),
    ("metrics.evaluate_predictions", "busy_s", "s"),
    ("metrics.wilcoxon_paired", "busy_s", "s"),
    ("experiment.write_reports", "busy_s", "s"),
    ("stability.loo_stability_probe", "busy_s", "s"),
)

# (name, unit) of values the hooks count.
COUNTER_METRICS = (
    ("simplex.iterations", "count"),
    ("simplex.tableau_mb_computed", "MB"),
    ("linear.fit_lp.rows", "count"),
    ("linear.fit_gd.epochs", "count"),
    ("neural.fit_sgd.epochs", "count"),
    ("training.useful_epoch_share", "ratio"),
    *((f"training.stop.{reason}", "count") for reason in STOP_REASONS),
    ("training.stop.other", "count"),
    ("tuning.candidates", "count"),
    *((f"learners.fit_learner.{kind}.{field}", unit)
      for kind in LEARNER_KINDS for field, unit in (("calls", "count"), ("busy_s", "s"))),
    ("learners.distinct_fit_share", "ratio"),
)

PER_LAYER = (
    tuple((f"layer.{m}.{field}", "s") for m in MODULES for field in ("busy_s", "self_s"))
    + tuple((f"{fn}.{field}", unit) for fn, field, unit in FUNCTION_METRICS)
    + COUNTER_METRICS
    + (("trace_overhead_s", "s"),)
)


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()


class LayerProbe:
    """A tracer over the package plus hooks that read wrapped results."""

    def __init__(self):
        self.tracer = Tracer(PACKAGE)
        self.counts: Counter = Counter()
        self.tableau_mb = 0.0
        self.fit_keys: set = set()
        hooks = self.tracer.hooks
        hooks["simplex.solve_simplex"] = self._on_simplex
        hooks["linear.fit_lp"] = self._on_fit_lp
        hooks["linear.fit_gd"] = self._on_training("linear.fit_gd")
        hooks["neural.fit_sgd"] = self._on_training("neural.fit_sgd")
        hooks["tuning.search"] = self._on_search
        hooks["learners.fit_learner"] = self._on_fit_learner

    def install(self) -> None:
        self.tracer.install()
        original = self.tracer.originals["learners.fit_learner"]
        self._fit_signature = inspect.signature(original)
        self._loss_for = self.tracer.originals["learners.loss_for"]

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def _on_simplex(self, args, kwargs, result, seconds):
        lp = args[0] if args else kwargs["lp"]
        self.counts["simplex.iterations"] += int(result.iterations)
        m, n = lp.n_constraints, lp.n_vars
        # the dense tableau holds (m + 1) x (n + m + 1) float64 before any
        # phase-1 artificial columns
        self.tableau_mb = max(self.tableau_mb, (m + 1) * (n + m + 1) * 8 / 2**20)

    def _on_fit_lp(self, args, kwargs, result, seconds):
        dataset = args[0] if args else kwargs["dataset"]
        self.counts["linear.fit_lp.rows"] += int(dataset.sales.shape[0])

    def _on_training(self, name):
        def hook(args, kwargs, result, seconds):
            trace = result[1]
            self.counts[f"{name}.epochs"] += trace.epochs_run
            self.counts["training.epochs_run"] += trace.epochs_run
            self.counts["training.best_epoch"] += trace.best_epoch
            reason = trace.stop_reason if trace.stop_reason in STOP_REASONS else "other"
            self.counts[f"training.stop.{reason}"] += 1
        return hook

    def _on_search(self, args, kwargs, result, seconds):
        self.counts["tuning.candidates"] += len(result[1])

    def _on_fit_learner(self, args, kwargs, result, seconds):
        bound = self._fit_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        kind = a["kind"]
        self.counts[f"learners.fit_learner.{kind}.calls"] += 1
        self.counts[f"learners.fit_learner.{kind}.busy_s"] += seconds
        hp = a["hyperparams"] or {}
        spec = self._loss_for(kind, a["alpha"], hp.get("eps1", 0.0), hp.get("eps2", 0.0))
        dataset = a["dataset"]
        # A fit repeats earlier work when kind, effective loss, hyperparameters,
        # seed, optimizer and data are all equal: the critical ratio only
        # matters through the loss it builds.
        key = (
            kind, repr(spec), json.dumps(hp, sort_keys=True), a["seed"], a["nn_optimizer"],
            _digest(dataset.features, dataset.sales),
        )
        self.fit_keys.add(key)

    def metrics(self, overhead_s: float) -> dict:
        """Every PER_LAYER metric as {name: {"value", "unit"}}."""
        table = aggregate(self.tracer.names, self.tracer.arrays())
        functions, modules = table["functions"], table["modules"]
        empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        values = {}
        for m in MODULES:
            entry = modules.get(m, empty)
            values[f"layer.{m}.busy_s"] = entry["busy_s"]
            values[f"layer.{m}.self_s"] = entry["self_s"]
        for fn, field, _ in FUNCTION_METRICS:
            values[f"{fn}.{field}"] = functions.get(fn, empty)[field]
        for name, _ in COUNTER_METRICS:
            values[name] = self.counts.get(name, 0)
        values["simplex.tableau_mb_computed"] = self.tableau_mb
        epochs = self.counts["training.epochs_run"]
        values["training.useful_epoch_share"] = (
            self.counts["training.best_epoch"] / epochs if epochs else 0.0
        )
        fits = functions.get("learners.fit_learner", empty)["calls"]
        values["learners.distinct_fit_share"] = len(self.fit_keys) / fits if fits else 0.0
        values["trace_overhead_s"] = overhead_s
        units = dict(PER_LAYER)
        return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}

    def table(self) -> list[tuple]:
        """(function, calls, busy_s, self_s) rows, largest self time first."""
        functions = aggregate(self.tracer.names, self.tracer.arrays())["functions"]
        rows = [(n, f["calls"], f["busy_s"], f["self_s"]) for n, f in functions.items()]
        return sorted(rows, key=lambda r: -r[3])
