"""Command-line entry point.

Subcommands: gen-data, tune, train, eval, experiment, stability-probe,
report.  Options can come from a JSON config file (--config) with the same
names as the long flags (dashes become underscores); explicit flags win.

Exit codes: 0 success, 1 usage error, 2 partial run failures, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import data, learners, linear, metrics, neural
from .experiment import (
    DEFAULT_ALGORITHMS,
    DEFAULT_ALPHAS,
    ExperimentConfig,
    _write_csv,
    linear_stability_report,
    nn_stability_report,
    run_experiment,
    write_reports,
)
from .tuning import CVPlan, two_stage_protocol

USAGE_ERROR = 1
PARTIAL_FAILURE = 2
IO_ERROR = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); map onto our contract
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="censored-newsvendor")
    parser.add_argument("--config", type=Path, help="JSON file with default options")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-data", help="write synthetic train/test CSVs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, help="output directory")

    p = sub.add_parser("tune", help="two-stage hyperparameter search")
    p.add_argument("--train", type=Path)
    p.add_argument("--learner", choices=learners.LEARNER_KINDS)
    p.add_argument("--alphas", default="0.55,0.65,0.75,0.85,0.95")
    p.add_argument("--budget", type=int, default=30)
    p.add_argument("--folds", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, help="output JSON path")

    p = sub.add_parser("train", help="fit one model and write its parameter file")
    p.add_argument("--train", type=Path)
    p.add_argument("--learner", choices=learners.LEARNER_KINDS)
    p.add_argument("--alpha", type=float)
    p.add_argument("--hyperparams", type=Path, help="JSON from the tune step")
    p.add_argument("--eps1", type=float)
    p.add_argument("--eps2", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, help="model file path")

    p = sub.add_parser("eval", help="evaluate a model file on a test CSV")
    p.add_argument("--model", type=Path)
    p.add_argument("--test", type=Path)
    p.add_argument("--alpha", type=float)
    p.add_argument("--out", type=Path, help="report CSV path")
    p.add_argument("--predictions", type=Path, help="optional per-row output CSV")

    p = sub.add_parser("experiment", help="full sweep reproducing the study tables")
    p.add_argument("--out", type=Path)
    p.add_argument("--alphas", default=",".join(str(a) for a in DEFAULT_ALPHAS))
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--algorithms", default=",".join(DEFAULT_ALGORITHMS))
    p.add_argument("--budget", type=int, default=30)
    p.add_argument("--folds", type=int, default=4)
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("stability-probe", help="stability measurements vs bounds")
    p.add_argument("--out", type=Path)
    p.add_argument("--kind", choices=("linear", "nn", "both"), default="both")
    p.add_argument("--sizes", default="50,100,200")
    p.add_argument("--datasets", type=int, default=20)
    p.add_argument("--alpha", type=float, default=0.85)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("report", help="re-aggregate an experiment output tree")
    p.add_argument("--runs", type=Path, help="experiment output directory")
    p.add_argument("--out", type=Path)
    return parser


def _apply_config_file(args: argparse.Namespace, argv) -> None:
    """Fill options from the JSON config; flags given on the command line win."""
    if not getattr(args, "config", None):
        return
    config_path = Path(args.config)
    try:
        defaults = json.loads(config_path.read_text())
    except OSError as exc:
        raise OSError(f"cannot read config file: {exc}") from exc
    given = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
    for key, value in defaults.items():
        attr = key.replace("-", "_")
        flag = "--" + key.replace("_", "-")
        if hasattr(args, attr) and flag not in given:
            if isinstance(getattr(args, attr), Path) or attr in ("out", "train", "test", "model"):
                value = Path(value)
            setattr(args, attr, value)


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in str(text).split(",") if tok != "")


def _parse_ints(text: str) -> tuple:
    return tuple(int(tok) for tok in str(text).split(",") if tok != "")


def _cmd_gen_data(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    raw = data.generate(seed=args.seed)
    train_raw, test_raw = data.split_chronological(raw)
    train_s, test_s, record = data.scale(train_raw, test_raw)
    data.save_csv(train_s, out / "train.csv")
    data.save_csv(test_s, out / "test.csv")
    data.save_scaling(record, out / "scaling.txt")
    print(f"wrote {out / 'train.csv'} ({train_s.n} rows), "
          f"{out / 'test.csv'} ({test_s.n} rows)")
    return 0


def _cmd_tune(args) -> int:
    train = data.load_csv(args.train)
    plan = CVPlan(folds=args.folds, seed=args.seed, budget=args.budget)
    tuned = two_stage_protocol(train, args.learner, _parse_floats(args.alphas), plan)
    payload = {
        "learner": args.learner,
        "seed": args.seed,
        "per_alpha": {f"{alpha:g}": hp for alpha, hp in tuned.items()},
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_train(args) -> int:
    train = data.load_csv(args.train)
    hp = {}
    if args.hyperparams:
        payload = json.loads(args.hyperparams.read_text())
        per_alpha = payload.get("per_alpha", payload)
        key = f"{args.alpha:g}"
        if key not in per_alpha:
            raise _UsageError(f"hyperparameter file has no entry for alpha {key}")
        hp = dict(per_alpha[key])
    if args.eps1 is not None:
        hp["eps1"] = args.eps1
    if args.eps2 is not None:
        hp["eps2"] = args.eps2
    fitted = learners.fit_learner(args.learner, train, args.alpha, hp, seed=args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(fitted.model, linear.LinearModel):
        linear.save_model(fitted.model, args.out)
    else:
        neural.save_model(fitted.model, args.out)
    print(f"wrote {args.out} (fit took {fitted.fit_seconds:.10g}s)")
    return 0


def _load_any_model(path: Path):
    header = path.read_text().split("\n", 1)[0].split()
    if len(header) == 1:
        return linear.load_model(path)
    return neural.load_model(path)


def _cmd_eval(args) -> int:
    test = data.load_csv(args.test)
    model = _load_any_model(args.model)
    if test.p != model.p:
        raise ValueError(
            f"test file has {test.p} feature columns, model expects {model.p}"
        )
    preds_scaled = learners.predict(model, test.features)
    record = test.scaling
    preds = record.unscale_target(preds_scaled) if record else np.asarray(preds_scaled)

    has_demand = test.demand is not None and not np.isnan(test.demand).any()
    if has_demand:
        demand = record.unscale_target(test.demand) if record else test.demand
        raw_test = data.Dataset(
            test.features, record.unscale_target(test.sales) if record else test.sales,
            demand=demand, dates=test.dates, categories=test.categories,
        )
        cost = metrics.nv_cost(raw_test, preds, args.alpha)
        level = metrics.service_level(raw_test, preds)
        rows = [
            ("nv_cost", cost),
            ("service_level", level),
            ("service_gap", abs(level - args.alpha)),
        ]
    else:
        rows = [("nv_cost", "unavailable"), ("service_level", "unavailable"),
                ("service_gap", "unavailable")]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(args.out, ["metric", "value"], rows)
    if args.predictions:
        _write_csv(
            args.predictions,
            ["row", "prediction"],
            [(i, float(p)) for i, p in enumerate(preds)],
        )
    print(f"wrote {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig(
        alphas=_parse_floats(args.alphas),
        seeds=_parse_ints(args.seeds),
        algorithms=tuple(str(args.algorithms).split(",")),
        tuning_budget=args.budget,
        cv_folds=args.folds,
    )
    log = (lambda msg: None) if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    result = run_experiment(config, log=log)
    write_reports(result, args.out)
    print(f"wrote report tree under {args.out} "
          f"({len(result.runs)} runs, {len(result.failures)} failures)")
    return PARTIAL_FAILURE if result.failures else 0


def _cmd_stability_probe(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log = (lambda msg: None) if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    failures = 0
    if args.kind in ("linear", "both"):
        rows = linear_stability_report(
            sizes=_parse_ints(args.sizes), n_datasets=args.datasets,
            alpha=args.alpha, seed=args.seed, log=log,
        )
        _write_csv(
            out / "linear_stability.csv",
            ["n", "p", "seed", "empirical_sup", "bound", "holds"],
            [tuple(r.values()) for r in rows],
        )
        failures += sum(not r["holds"] for r in rows)
    if args.kind in ("nn", "both"):
        rows = nn_stability_report(alpha=args.alpha, log=log)
        _write_csv(
            out / "nn_stability.csv",
            ["n", "k_passes", "eta", "seed", "swap_index", "distance", "bound", "holds"],
            [tuple(r.values()) for r in rows],
        )
        failures += sum(not r["holds"] for r in rows)
    print(f"wrote probes under {out}; {failures} bound violations")
    return PARTIAL_FAILURE if failures else 0


def _cmd_report(args) -> int:
    runs_csv = Path(args.runs) / "runs.csv"
    if not runs_csv.exists():
        raise OSError(f"no runs.csv under {args.runs}")
    lines = runs_csv.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    by_key: dict = {}
    for row in rows:
        rec = dict(zip(header, row))
        key = (rec["algorithm"], rec["alpha"])
        by_key.setdefault(key, []).append(float(rec["nv_cost"]))
    agg = [
        (alg, alpha, float(np.mean(costs)), float(np.std(costs)), len(costs))
        for (alg, alpha), costs in sorted(by_key.items())
    ]
    _write_csv(
        out / "nv_cost_summary.csv",
        ["algorithm", "alpha", "mean_nv_cost", "std_nv_cost", "n_runs"],
        agg,
    )
    print(f"wrote {out / 'nv_cost_summary.csv'}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "tune": _cmd_tune,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "experiment": _cmd_experiment,
    "stability-probe": _cmd_stability_probe,
    "report": _cmd_report,
}

# Options that must be present after merging flags with the config file.
_REQUIRED = {
    "gen-data": ("out",),
    "tune": ("train", "learner", "out"),
    "train": ("train", "learner", "alpha", "out"),
    "eval": ("model", "test", "alpha", "out"),
    "experiment": ("out",),
    "stability-probe": ("out",),
    "report": ("runs", "out"),
}


def _check_required(args) -> None:
    missing = [name for name in _REQUIRED[args.command] if getattr(args, name) is None]
    if missing:
        raise _UsageError(
            "missing required option(s): " + ", ".join(f"--{m}" for m in missing)
        )


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args, argv)
        _check_required(args)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_ERROR
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
