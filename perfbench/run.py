"""The supertorus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

Load model: a closed loop with one client.  This script starts one fresh
worker process per run of the workload's item list and runs them one at a
time, so every run starts cold, as a command-line call or a newly started
notebook kernel does.  It keeps starting runs while another fits in ``--seconds``,
and always makes at least one.

With ``--trace 0`` it prints the end-to-end metrics: the median wall time
of a run's item list, the median peak RSS of a worker, the share of items
whose output passed every check, and the median set-up time (a fresh
interpreter importing the package and building the CLI parser, measured in
separate processes before and after the runs, and in every worker).  With
``--trace 1`` it alternates untraced and traced runs and prints the
per-layer metrics of the traced ones, plus ``trace.overhead_s``, the traced
minus the untraced wall time; each traced run sits between two untraced
ones.  ``pass_rate`` stands for one minus the error rate, because a gated
metric must never read 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every item passed.  ``--out FILE`` appends the run's full record
as one JSON line: the environment and size record, every sample, each
item's median time, and ``host_ref_s``, a fixed loop timed in each set-up
probe that shows how fast the shared host ran.  ``--compare`` reads two
such files (see compare.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("exterior", "linalg", "cohomology", "matchings", "verify", "cli")
SETUP_PROBES = 4  # before the runs, and as many after
WORKER_TIMEOUT_S = 150
# Workers keep compiled bytecode next to the sources, as an installed package
# does, whatever the caller's environment says; the first, uncounted set-up
# probe writes it.
WORKER_ENV = {k: v for k, v in os.environ.items()
              if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}


def run_worker(args: list[str]) -> dict | None:
    """Run one worker to completion; None when it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {' '.join(args)}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-800:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def sloc(module: str) -> int:
    lines = (ROOT / "src" / "supertorus" / f"{module}.py").read_text().splitlines()
    return sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))


def git_commit() -> str:
    """The checked-out commit, read without running git; the benchmark's
    checkout may not be a repository at all."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "platform": platform.platform(),
        "sloc": {m: sloc(m) for m in MODULES},
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Runs:
    """Results of the worker runs made by one invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.items: dict[str, list[float]] = {}

    def add(self, result: dict | None, label: str) -> dict | None:
        if result is None:
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{label}: the worker did not finish")
            return None
        for record in result["items"]:
            self.attempted += 1
            self.items.setdefault(record["key"], []).append(record["seconds"])
            if record["errors"]:
                self.failed += 1
                self.failures.append(f"{label}: {record['key']}: {'; '.join(record['errors'])}")
        return result


def measure(opts, bench: dict) -> tuple[Runs, dict, dict]:
    worker_args = ["--workload", opts.workload, "--seed", str(opts.seed)]
    if opts.corrupt_item is not None:
        worker_args += ["--corrupt-item", str(opts.corrupt_item)]
    runs = Runs()
    samples: dict[str, list[float]] = {
        "wall_s": [], "peak_rss_mb": [], "setup_s": [], "host_ref_s": []}
    extra: dict = {}

    def probe_setup(times: int) -> None:
        for _ in range(times):
            probe = run_worker(["--setup-only"])
            if probe is not None:
                samples["setup_s"].append(probe["setup_s"])
                samples["host_ref_s"].append(probe["host_ref_s"])

    if not opts.trace:
        run_worker(["--setup-only"])  # writes bytecode; not counted
        probe_setup(SETUP_PROBES)

    def untraced_run() -> None:
        result = runs.add(run_worker(worker_args), "untraced run")
        if result is not None:
            samples["wall_s"].append(result["wall_s"])
            samples["peak_rss_mb"].append(result["peak_rss_mb"])
            samples["setup_s"].append(result["setup_s"])

    traced: list[dict] = []
    start = time.monotonic()
    durations: list[float] = []
    while True:
        began = time.monotonic()
        untraced_run()
        if opts.trace:
            result = runs.add(run_worker(worker_args + ["--trace"]), "traced run")
            if result is not None:
                traced.append(result)
        durations.append(time.monotonic() - began)
        if time.monotonic() - start + median(durations) > opts.seconds:
            break

    # This host's speed drifts, so set-up is probed at both ends of the run
    # and every traced run sits between two untraced ones.
    if not opts.trace:
        probe_setup(SETUP_PROBES)
    else:
        untraced_run()
        names = [m["name"] for m in bench["per_layer"]]
        layers: dict[str, list[float]] = {}
        for result in traced:
            for name, value in result["layers"].items():
                layers.setdefault(name, []).append(value)
        values = {name: median(v) for name, v in layers.items()}
        traced_walls = [r["wall_s"] for r in traced]
        values["trace.overhead_s"] = median(traced_walls) - median(samples["wall_s"])
        for module in MODULES:
            values[f"{module}.sloc"] = sloc(module)
        extra["missing_from_trace"] = sorted(n for n in names if n not in values)
        extra["layers"] = values
        extra["probe"] = {k: median([r["probe"][k] for r in traced if k in r["probe"]])
                          for k in {k for r in traced for k in r["probe"]}}
        extra["traced_wall_s"] = traced_walls
    return runs, samples, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this JSON-lines file")
    parser.add_argument("--corrupt-item", type=int, dest="corrupt_item",
                        help="flip one byte of this item's output (negative control)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    opts = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "supertorus" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: no supertorus source or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())

    if opts.compare:
        import compare

        return compare.main(*opts.compare, bench)

    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workload not in workloads:
        print(f"error: --workload must be one of {', '.join(workloads)}", file=sys.stderr)
        return 2

    runs, samples, extra = measure(opts, bench)
    pass_rate = (runs.attempted - runs.failed) / runs.attempted
    if opts.trace:
        wanted = bench["per_layer"]
        values = extra["layers"]
    else:
        wanted = bench["end_to_end"]
        values = {
            "wall_s": median(samples["wall_s"]),
            "peak_rss_mb": median(samples["peak_rss_mb"]),
            "pass_rate": pass_rate,
            "setup_s": median(samples["setup_s"]),
        }
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    env = environment()

    print(f"workload {opts.workload}, seed {opts.seed}, trace {opts.trace}: "
          f"{len(samples['wall_s'])} untraced runs, {runs.attempted} items attempted, "
          f"{runs.failed} failed (error_rate {runs.failed / runs.attempted:.4f})")
    for name, series in samples.items():
        if series:
            print(f"  {name:<12} median {median(series):.4f} over {len(series)} samples "
                  f"(min {min(series):.4f}, max {max(series):.4f})")
    for key, seconds in runs.items.items():
        print(f"  item {median(seconds):9.4f} s  {key[:90]}")
    if opts.trace:
        layers = extra["layers"]
        print(f"  traced wall_s {extra['traced_wall_s']}, trace.overhead_s "
              f"{layers['trace.overhead_s']:.4f}, trace.gap_s {layers.get('trace.gap_s', 0):.4f}")
        print("  self_s by layer: " + ", ".join(
            f"{m} {layers.get(m + '.self_s', 0):.4f}" for m in MODULES))
    for name, value in extra.get("probe", {}).items():
        print(f"  probe {name} {value:.4f} s")
    if extra.get("missing_from_trace"):
        print(f"  not produced by the trace (reported as 0): {extra['missing_from_trace']}")
    for line in runs.failures[:20]:
        print(f"  FAILED {line[:300]}")
    print(f"env {json.dumps(env, sort_keys=True)}")

    if opts.out:
        record = {
            "workload": opts.workload,
            "seed": opts.seed,
            "seconds": opts.seconds,
            "trace": opts.trace,
            "env": env,
            "attempted": runs.attempted,
            "failed": runs.failed,
            "metrics": metrics,
            "samples": samples,
            "items": {k: median(v) for k, v in runs.items.items()},
            **extra,
        }
        with open(opts.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": metrics,
    }))
    return 0 if runs.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
