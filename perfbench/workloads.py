"""The benchmark's three workloads: inputs from the seed, a timed round, checks.

Each workload builds its inputs once (`__init__`, part of set-up), then runs
whole rounds (`run_round`, the timed body).  `collect` turns one round's
raw output into operation counts, and `check` and `quality` read all rounds
outside the timed region.  Every check compares against `reference`, which
does not call the package's fitting, loss or bound code, or against a
property the method must have.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from dataclasses import dataclass

import numpy as np

import reference as ref
from censored_newsvendor import cli, data, linear, stability
from censored_newsvendor.losses import LossSpec

# The panel is fixed; the seed draws everything else.  A sweep's work follows
# the batch sizes that stage-1 tuning picks on its panel, and a dense simplex
# solve of 1000 panel rows takes 2384 to 4951 pivots depending on which rows
# are drawn, so over panel seeds the LR sweep's wall time spread 28% and the
# 1000-row fit's time 2x.  With the panel fixed, sweeps draw their critical
# ratios from the seed and the stability workload its probe datasets.
PANEL_SEED = 0
RATIO_JITTER = 0.005
# The cost ordering is claimed for the high ratios only (acceptance criterion 6).
ORDERED_FROM = 0.75

BAND = (0.1976, 0.0022)  # (eps1, eps2) of the README's tuned LR-eNVC-R example
LOO_ALPHA, SWAP_ALPHA = 0.85, 0.55
LOO_SIZES = (50, 100, 200)
PANEL_ROWS = (250, 500, 1000)
QUALITY_ROWS = 1000  # the panel fit whose decisions are scored
SWAP_ROWS, SWAP_PASSES, SWAP_ETA, SWAP_ARCH = 100, 3, 1e-3, (3, 4, 3, 1)
SWAP_DATASETS, SWAPS_PER_DATASET = 3, 10
REL_TOLERANCE = 1e-8


@dataclass
class Round:
    """One round's operations: how many ran, which failed and why, and the
    outputs that the checks read."""

    attempted: int
    failures: list  # (operation, reason)
    outputs: object


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class Sweep:
    """The CLI `experiment` subcommand for one learner family, in-process."""

    def __init__(self, name, algorithms, grid, budget, folds, seed, out_root):
        rng = np.random.default_rng(seed)
        self.eas, self.plain, self.banded = algorithms
        self.algorithms = algorithms
        self.grid = grid
        self.ratios = tuple(round(g + rng.uniform(0.0, RATIO_JITTER), 4) for g in grid)
        self.budget, self.folds = budget, folds
        self.out = out_root / f"{name}-seed{seed}"
        shutil.rmtree(self.out, ignore_errors=True)

    def describe(self) -> str:
        return (
            f"panel_seed={PANEL_SEED} ratios={','.join(f'{a:.4f}' for a in self.ratios)} "
            f"algorithms={','.join(self.algorithms)} budget={self.budget} folds={self.folds}"
        )

    def run_round(self, index: int):
        out = self.out / f"round{index}"
        argv = [
            "experiment", "--out", str(out), "--seeds", str(PANEL_SEED),
            "--alphas", ",".join(f"{a:.4f}" for a in self.ratios),
            "--algorithms", ",".join(self.algorithms),
            "--budget", str(self.budget), "--folds", str(self.folds), "--quiet",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, out

    def collect(self, raw) -> Round:
        code, out = raw
        if code not in (cli.PARTIAL_FAILURE, 0):
            raise RuntimeError(f"experiment subcommand exited with code {code}")
        text = (out / "runs.csv").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        failures = [
            (f"{f['algorithm']}@{f['alpha']:g}", f"{f['stage']}: {f['error']}")
            for f in manifest["failures"]
        ]
        rows = {
            (r["algorithm"], float(r["alpha"])): r for r in csv.DictReader(io.StringIO(text))
        }
        return Round(len(self.ratios) * len(self.algorithms), failures, (text, rows))

    def _cost(self, rows, algorithm, alpha) -> float:
        return float(rows[(algorithm, alpha)]["nv_cost"])

    def quality(self, rounds) -> dict:
        """banded_cost_pct and rmse_q from the first round, mean over ratios."""
        _, rows = rounds[0].outputs
        pct, rmse = [], []
        for a in self.ratios:
            if {(self.banded, a), (self.plain, a)} <= rows.keys():
                pct.append(100.0 * self._cost(rows, self.banded, a) / self._cost(rows, self.plain, a))
                rmse.append(float(rows[(self.banded, a)]["rmse_q"]))
        if len(pct) < len(self.ratios):
            return {"banded_cost_pct": None, "rmse_q": None}
        return {"banded_cost_pct": float(np.mean(pct)), "rmse_q": float(np.mean(rmse))}

    def check(self, rounds) -> list[Check]:
        checks = [_repeat_check([r.outputs[0] for r in rounds])]
        _, rows = rounds[0].outputs
        counted = len(rows) + len(rounds[0].failures)
        checks.append(Check(
            "accounting", counted == rounds[0].attempted,
            f"{len(rows)} runs + {len(rounds[0].failures)} failures of {rounds[0].attempted}",
        ))

        bad = []
        for g, a in zip(self.grid, self.ratios):
            if g < ORDERED_FROM or not {(k, a) for k in self.algorithms} <= rows.keys():
                continue
            costs = [self._cost(rows, k, a) for k in (self.banded, self.plain, self.eas)]
            if not costs[0] < costs[1] < costs[2]:
                bad.append(f"{a:g}: {costs[0]:.4g}/{costs[1]:.4g}/{costs[2]:.4g}")
        checks.append(Check(
            "cost_ordering", not bad,
            "banded < plain < EAS at ratios >= 0.75" + (f"; broken at {bad}" if bad else ""),
        ))

        # The least-squares learner's loss does not involve the ratio, so it
        # must place the same orders, hence reach the same service level, at
        # every ratio.
        levels = {rows[k]["service_level"] for k in rows if k[0] == self.eas}
        checks.append(Check(
            "alpha_free_orders", len(levels) <= 1,
            f"{self.eas} service levels across ratios: {sorted(levels)}",
        ))

        worst = max(
            (abs(abs(float(r["service_level"]) - k[1]) - float(r["service_gap"])) for k, r in rows.items()),
            default=0.0,
        )
        checks.append(Check("service_gap", worst <= 1e-9, f"worst |level - ratio| mismatch {worst:.2g}"))

        if self.eas == "LR-MSE":
            checks.append(self._least_squares_check(rows))
        return checks

    def _least_squares_check(self, rows) -> Check:
        """LR-MSE test cost against normal equations on the unscaled panel."""
        train, test = data.split_chronological(data.generate(seed=PANEL_SEED))
        orders = ref.least_squares_orders(train.features, train.sales, test.features)
        worst = 0.0
        for a in self.ratios:
            if (self.eas, a) in rows:
                expected = ref.newsvendor_cost(test.demand, orders, a)
                worst = max(worst, ref.relative_gap(self._cost(rows, self.eas, a), expected))
        return Check("lr_mse_cost", worst <= REL_TOLERANCE, f"worst relative gap {worst:.2g}")


class Stability:
    """LOO and one-row-swap stability probes plus exact LP fits of the panel."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.loo_spec = LossSpec.eps_nv(LOO_ALPHA, *BAND)
        self.swap_spec = LossSpec.eps_nv(SWAP_ALPHA, *BAND)
        self.probe = stability.probe_grid(2)
        self.loo = [
            stability.random_band_dataset(n, 2, seed=int(rng.integers(2**31))) for n in LOO_SIZES
        ]
        self.swaps = [
            (
                stability.random_band_dataset(SWAP_ROWS, 3, seed=int(rng.integers(2**31))),
                rng.choice(SWAP_ROWS, size=SWAPS_PER_DATASET, replace=False),
                int(rng.integers(2**31)),
            )
            for _ in range(SWAP_DATASETS)
        ]
        train_raw, self.test_raw = data.split_chronological(data.generate(seed=PANEL_SEED))
        train, self.test, self.scaling = data.scale(train_raw, self.test_raw)
        rows = np.random.default_rng(PANEL_SEED)
        self.panels = [
            train.take(np.sort(rows.choice(train.n, size=n, replace=False))) for n in PANEL_ROWS
        ] + [train]

    def describe(self) -> str:
        return (
            f"loo_rows={','.join(map(str, LOO_SIZES))} swap_probes={SWAP_DATASETS}x{SWAPS_PER_DATASET} "
            f"panel_seed={PANEL_SEED} panel_rows={','.join(str(p.n) for p in self.panels)}"
        )

    def run_round(self, index: int) -> list:
        """(operation, output or None, failure reason or None) per operation."""
        records = []
        for ds in self.loo:
            op = f"loo-probe n={ds.n}"
            try:
                res = stability.loo_stability_probe(ds, self.loo_spec, *self.probe)
            except Exception as exc:  # a failed operation is counted, not fatal
                records.append((op, None, _reason(exc)))
                continue
            records.append((op, (res.empirical_sup, res.bound), None))
        for ds, rows, probe_seed in self.swaps:
            try:
                results = stability.uas_probe_sweep(
                    ds, self.swap_spec, list(SWAP_ARCH), SWAP_ETA, SWAP_PASSES, rows, seed=probe_seed
                )
            except Exception as exc:
                records.extend((f"swap-probe seed={probe_seed} row={r}", None, _reason(exc)) for r in rows)
                continue
            records.extend(
                (f"swap-probe seed={probe_seed} row={r.swap_index}", (r.distance, r.bound), None)
                for r in results
            )
        for ds in self.panels:
            op = f"panel-lp n={ds.n}"
            try:
                model = linear.fit_lp(ds, self.loo_spec)
            except Exception as exc:
                records.append((op, None, _reason(exc)))
                continue
            records.append((op, model.theta, None))
        return records

    def collect(self, records) -> Round:
        failures = [(op, reason) for op, _, reason in records if reason is not None]
        return Round(len(records), failures, records)

    def _fits(self, records):
        return [
            (ds, out) for ds, (op, out, reason) in zip(self.panels, records[-len(self.panels):])
            if reason is None
        ]

    def quality(self, rounds) -> dict:
        """Decisions of the exact QUALITY_ROWS-row LR-eNVC fit on the test window."""
        fit = [(ds, theta) for ds, theta in self._fits(rounds[0].outputs) if ds.n == QUALITY_ROWS]
        if not fit:
            return {"banded_cost_pct": None, "rmse_q": None}
        ds, theta = fit[0]
        plain, _ = ref.band_lp_fit(ds.features, ds.sales, LOO_ALPHA, 0.0, 0.0)
        demand = self.test_raw.demand
        orders = self.scaling.unscale_target(self.test.features @ theta)
        plain_orders = self.scaling.unscale_target(self.test.features @ plain)
        q_star = data.with_q_star(self.test_raw, data.DemandModelParams(), LOO_ALPHA).q_star
        return {
            "banded_cost_pct": 100.0 * ref.newsvendor_cost(demand, orders, LOO_ALPHA)
            / ref.newsvendor_cost(demand, plain_orders, LOO_ALPHA),
            "rmse_q": float(np.sqrt(np.mean((orders - q_star) ** 2))),
        }

    def check(self, rounds) -> list[Check]:
        records = rounds[0].outputs
        checks = [_repeat_check([[(op, _plain(out), reason) for op, out, reason in r.outputs] for r in rounds])]

        worst_lp = 0.0
        fits = self._fits(records)
        for ds, theta in fits:
            _, optimum = ref.band_lp_fit(ds.features, ds.sales, LOO_ALPHA, *BAND)
            value = ref.band_loss(ds.features, ds.sales, theta, LOO_ALPHA, *BAND)
            worst_lp = max(worst_lp, ref.relative_gap(value, optimum))
        checks.append(Check(
            "lp_objectives", worst_lp <= REL_TOLERANCE,
            f"{len(fits)} panel fits vs HiGHS, worst relative gap {worst_lp:.2g}",
        ))

        over, probes = [], 0
        for ds, (op, out, reason) in zip(self.loo, records):
            if reason is not None:
                continue
            probes += 1
            bound = ref.loo_bound(ds.p, ds.n, LOO_ALPHA, 1.0, BAND[1])
            if out[0] > bound:
                over.append(f"n={ds.n}: sup {out[0]:.4g} > {bound:.4g}")
        checks.append(Check("loo_bound", not over, f"{probes} probes" + (f"; {over}" if over else "")))

        bound = ref.swap_bound(SWAP_ALPHA, SWAP_ETA, SWAP_ROWS, SWAP_PASSES)
        distances = [out[0] for op, out, reason in records if op.startswith("swap") and reason is None]
        worst = max(distances, default=0.0)
        checks.append(Check(
            "swap_bound", worst <= bound,
            f"{len(distances)} probes, max distance {worst:.4g} vs bound {bound:.4g}",
        ))
        return checks


def _plain(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def _repeat_check(outputs) -> Check:
    """Every round of a run produced exactly the same outputs."""
    same = all(o == outputs[0] for o in outputs[1:])
    return Check("rounds_identical", same, f"{len(outputs)} round(s)")


LR_FAMILY = ("LR-MSE", "LR-NVC", "LR-eNVC-R")
NN_FAMILY = ("NN-MSE", "NN-NVC", "NN-eNVC")


def build(name: str, seed: int, out_root):
    if name == "sweep-lr":
        return Sweep(name, LR_FAMILY, (0.65, 0.75, 0.85, 0.95), 2, 2, seed, out_root)
    if name == "sweep-nn":
        return Sweep(name, NN_FAMILY, (0.85, 0.95), 1, 1, seed, out_root)
    if name == "stability":
        return Stability(seed)
    raise ValueError(f"unknown workload {name!r}")

