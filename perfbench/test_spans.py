"""Fast self-tests of the benchmark harness (no workload runs here)."""

import ast
import json
from pathlib import Path

import numpy as np

from layers import PACKAGE, PER_LAYER
from spans import Tracer, aggregate

HERE = Path(__file__).resolve().parent


def test_self_and_busy_time_from_spans():
    # a(0..10) calls b(1..4) and b(5..9); the second b calls a(6..8)
    names = ["m.a", "m.b"]
    spans = {
        "name_id": np.array([0, 1, 1, 0]),
        "parent": np.array([-1, 0, 0, 2]),
        "start": np.array([0.0, 1.0, 5.0, 6.0]),
        "end": np.array([10.0, 4.0, 9.0, 8.0]),
        "outer_fn": np.array([1, 1, 1, 0]),
        "outer_mod": np.array([1, 0, 0, 0]),
    }
    table = aggregate(names, spans)
    a, b = table["functions"]["m.a"], table["functions"]["m.b"]
    assert (a["calls"], b["calls"]) == (2, 2)
    assert a["busy_s"] == 10.0  # the nested call is not counted twice
    assert b["busy_s"] == 7.0
    assert a["self_s"] == 10.0 - 3.0 - 4.0 + 2.0
    assert b["self_s"] == 3.0 + 4.0 - 2.0
    assert table["modules"]["m"]["busy_s"] == 10.0
    assert table["modules"]["m"]["self_s"] == 10.0


def test_wrappers_sit_where_names_are_looked_up_and_come_off():
    import censored_newsvendor.experiment as experiment
    import censored_newsvendor.learners as learners
    import censored_newsvendor.losses as losses
    import censored_newsvendor.tuning as tuning

    original = learners.fit_learner
    tracer = Tracer(PACKAGE)
    tracer.install()
    try:
        assert tuning.fit_learner is learners.fit_learner is experiment.fit_learner
        assert learners.fit_learner is not original
        losses.batch_loss(np.array([0.2, 0.4]), np.array([0.3, 0.3]), losses.LossSpec.nvc(0.7))
    finally:
        tracer.uninstall()
    assert learners.fit_learner is original and tuning.fit_learner is original
    recorded = [tracer.names[i] for i in tracer.name_id]
    assert recorded == ["losses.batch_loss", "losses.evaluate", "losses.eval_nvc"]
    assert list(tracer.parent) == [-1, 0, 1]


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)
    tree = ast.parse((HERE / "run.py").read_text())
    end_to_end = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "END_TO_END"
    )
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(end_to_end)
    workloads = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "WORKLOADS"
    )
    assert [w["name"] for w in bench["workloads"]] == list(workloads)
