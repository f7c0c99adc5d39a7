"""Benchmark entry point: one workload in a closed loop, metrics as JSON.

    python3 perfbench/run.py --workload sweep-lr --seed 0 --seconds 32 --trace 0

Runs whole rounds of the workload back to back, each starting when the one
before it ends, for at most --seconds (at least one round), then checks the
outputs and prints one line per metric and, last, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 1 it runs one
untraced and one traced round instead and reports the per-layer metrics.
See perfbench/README.md.
"""

import os
import sys
import time

_STARTED = time.perf_counter()
# BLAS and OpenMP read these once, when NumPy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep-lr", "sweep-nn", "stability")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("banded_cost_pct", "%"),
    ("rmse_q", "demand_units"),
)


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _STARTED


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(workload, seconds: float, first: int = 0, limit: int | None = None):
    """Whole rounds back to back; stop before a round that would end past
    `seconds`, judged by the median round so far.  Returns (times, raws)."""
    times, raws = [], []
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        raws.append(workload.run_round(first + len(times)))
        times.append(time.perf_counter() - t0)
        if limit is not None and len(times) >= limit:
            break
        if time.perf_counter() - began + statistics.median(times) > seconds:
            break
    return times, raws


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "censored_newsvendor").is_dir():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    probe = None
    if args.trace:
        import layers

        probe = layers.LayerProbe()
        probe.install()
    workload = workloads.build(args.workload, args.seed, OUT)
    setup_s = process_age()

    OUT.mkdir(parents=True, exist_ok=True)
    if probe is None:
        times, raws = run_rounds(workload, args.seconds)
    else:
        probe.uninstall()
        times, raws = run_rounds(workload, args.seconds, limit=1)
        probe.install()
        traced, traced_raws = run_rounds(workload, args.seconds, first=1, limit=1)
        probe.uninstall()
        raws += traced_raws
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = [workload.collect(raw) for raw in raws]
    checks = workload.check(rounds)
    env = environment()
    lines = [
        f"workload {args.workload} seed={args.seed} trace={args.trace} rounds={len(raws)}",
        "inputs " + workload.describe(),
        "env " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    lines += [f"round {k} {t:.4f} s" for k, t in enumerate(times)]
    lines += [f"check {c.name} {'pass' if c.passed else 'FAIL'}: {c.detail}" for c in checks]
    failures = [f for r in rounds for f in r.failures]
    lines += [f"failed {op}: {reason}" for op, reason in dict(failures).items()]

    quality = workload.quality(rounds)
    correct = all(c.passed for c in checks) and None not in quality.values()
    if probe is None:
        values = {"setup_s": setup_s, "wall_s": statistics.median(times), "peak_rss_mb": peak_rss_mb, **quality}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = probe.metrics(overhead_s=traced[0] - times[0])
        stem = f"{args.workload}-seed{args.seed}"
        probe.tracer.save(OUT / f"{stem}.spans.npz")
        table = probe.table()
        lines.append(f"layer table: {len(table)} functions, traced round {traced[0]:.4f} s")
        lines.append(f"{'function':36s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}")
        lines += [f"{n:36s} {c:9d} {b:10.4f} {s:10.4f}" for n, c, b, s in table if c]
    lines += [f"metric {name} = {m['value']} {m['unit']}" for name, m in metrics.items()]
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "round_seconds": times, "lines": lines, **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
