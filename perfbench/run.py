#!/usr/bin/env python3
"""Layered benchmark of the meanfield batch job.

    python3 perfbench/run.py --workload gmm_full --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``. The workload's inputs are made from ``--seed`` and written as
JSON under ``perfbench/work/`` before any timing starts.

``--trace 0`` measures the end-to-end metrics. Jobs run one at a time
(a closed loop with one client, as a batch tool is used), each in a fresh
single-threaded process, until ``--seconds`` have passed; every metric is
the median over the jobs. Times are in reference seconds: each stage's
wall time scaled by the speed of a fixed task timed around it in the same
process (see calibration.py); the raw wall times are kept in the results
file.

``--trace 1`` measures the per-layer metrics: one untraced job, then one
traced job that records spans around calls into each module, times every
layer on its own at the fitted parameters and runs ``meanfield.cli.main``
on the same files. Tracing overhead is traced minus untraced ``run_s``.

Every job checks its outputs (support of every draw, finite scores, the
fixed iteration budget, a numpy oracle of the log joint and central
differences of the gradient), and the deterministic counts and the
samples CSV must repeat exactly across jobs. A human-readable report goes
to standard output; its last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
# a run ends within this many seconds of its start, whatever its jobs do
RUN_LIMIT_S = 170
RUN_START = time.monotonic()
# untraced jobs in a traced run: their median fit_s is the base of the time
# shares, and their median run_s the base of the tracing overhead
PLAIN_JOBS_TRACED = 3

END_TO_END = {  # name -> unit; the medians over the run's jobs
    "run_s": "s", "setup_s": "s", "fit_s": "s", "posterior_s": "s",
    "peak_rss_mb": "MiB", "final_elbo": "nats", "heldout_lpd": "nats/point",
}
# must repeat exactly from job to job of one code version and seed
DETERMINISTIC = ("iterations", "work_nodes", "evals", "samples_sha256")
SELF_TIME_LAYERS = ("engine", "model", "transforms", "autodiff", "evaluate",
                    "io", "zoo")


def environment(root: Path) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu, "l2": caches.get("l2", "unknown"),
            "l3": caches.get("l3", "unknown"),
            "commit": git_commit(root), **THREAD_PINS}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_job(root: Path, name: str, inputs: Path, out: Path,
            spans: Path | None = None, probe_budget: float = 0.5) -> dict:
    """Start one job process, wait for it, return its JSON record."""
    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(root / "src"),
           "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", name,
           "--inputs", str(inputs), "--out", str(out),
           "--src", str(root / "src")]
    if spans is not None:
        cmd += ["--spans", str(spans), "--probe-budget", str(probe_budget)]
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    timeout = max(1.0, RUN_START + RUN_LIMIT_S - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout, cwd=root)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1,
                "failures": [f"job stopped after {timeout:.0f} s, at the "
                             "run's time limit"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1,
                "failures": [f"job exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-500:]}"]}
    return json.loads(lines[-1])


def compare_repeats(records: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for DETERMINISTIC across records."""
    done = [r for r in records if "samples_sha256" in r]
    attempted = failed = 0
    messages = []
    for r in done[1:]:
        for key in DETERMINISTIC:
            attempted += 1
            if r[key] != done[0][key]:
                failed += 1
                messages.append(f"{key} differs across repeats: "
                                f"{done[0][key]} vs {r[key]}")
    return attempted, failed, messages


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def measure(root, name, seconds, inputs, out):
    records = []
    deadline = time.monotonic() + seconds
    while not records or time.monotonic() < deadline:
        records.append(run_job(root, name, inputs, out))
    done = [r for r in records if "run_s" in r]
    if not done:
        return records, {}
    metrics = {}
    print(f"{'metric':<14} {'unit':<11} {'median':>12} {'min':>12} "
          f"{'max':>12}  n")
    for metric, unit in END_TO_END.items():
        values = [r[metric] for r in done]
        metrics[metric] = {"value": statistics.median(values), "unit": unit}
        print(f"{metric:<14} {unit:<11} {_fmt(metrics[metric]['value']):>12}"
              f" {_fmt(min(values)):>12} {_fmt(max(values)):>12}"
              f"  {len(values)}")
    return records, metrics


def measure_traced(root, name, seconds, inputs, out):
    plain_runs = [run_job(root, name, inputs, out / "plain")
                  for _ in range(PLAIN_JOBS_TRACED)]
    traced = run_job(root, name, inputs, out / "traced",
                     spans=out / "spans.json", probe_budget=seconds / 40.0)
    records = plain_runs + [traced]
    if any("run_s" not in r for r in records) or "layers" not in traced:
        return records, {}
    plain = {key: statistics.median(r[key] for r in plain_runs)
             for key in ("run_s", "import_s", "fit_s")}
    w = workloads.WORKLOADS[name]
    layers = dict(traced["layers"])

    def count(metric, value, unit="count"):
        layers[metric] = {"value": value, "unit": unit}

    count("setup.import_s", plain["import_s"], "s")
    count("io.bytes_in", sum(
        (inputs / f).stat().st_size
        for f in (workloads.TRAIN_FILE, workloads.HELDOUT_FILE)), "bytes")
    count("io.bytes_out", traced["bytes_out"], "bytes")
    for key in ("iterations", "work_nodes", "clamp_events"):
        count(f"engine.{key}", traced[key])
    fit_s = plain["fit_s"]
    count("engine.grad_share",
          traced["iterations"] * layers["engine.grad_ms"]["value"] / 1e3
          / fit_s, "ratio")
    count("engine.elbo_share",
          w.elbo_evaluations * layers["engine.elbo_ms"]["value"] / 1e3
          / fit_s, "ratio")
    count("cli.overhead_s", traced["cli"]["overhead_s"], "s")
    count("trace.overhead_s", traced["run_s"] - plain["run_s"], "s")
    for layer in SELF_TIME_LAYERS:
        count(f"{layer}.self_s", traced["self_s"].get(layer, 0.0), "s")

    print(f"{'per-layer metric':<32} {'unit':<6} {'median':>12} "
          f"{'tail':>18}  n")
    for metric in sorted(layers):
        entry = layers[metric]
        tail = entry.get("tail")
        tail_text = "-" if not tail else f"p{tail[0]:g}={_fmt(tail[1])}"
        print(f"{metric:<32} {entry['unit']:<6} {_fmt(entry['value']):>12} "
              f"{tail_text:>18}  {entry.get('n', '')}")
    metrics = {m: {"value": e["value"], "unit": e["unit"]}
               for m, e in layers.items()}
    return records, metrics


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "meanfield" / "__init__.py").is_file():
        print(f"run.py: no src/meanfield under {root}; run from the root of "
              "a meanfield checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(root / "src"))

    work = HERE / "work" / args.workload
    inputs = work / "inputs"
    digests = workloads.write_inputs(args.workload, args.seed, inputs)
    env = environment(root)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{workloads.WORKLOADS[args.workload].why}")
    print("environment " + json.dumps(env, sort_keys=True))
    for filename, (size, digest) in digests.items():
        print(f"input {filename}: {size} bytes, sha256 {digest}")

    measure_fn = measure_traced if args.trace else measure
    records, metrics = measure_fn(root, args.workload, args.seconds, inputs,
                                  work / "out")
    rep_attempted, rep_failed, rep_messages = compare_repeats(records)
    attempted = sum(r["attempted"] for r in records) + rep_attempted
    failed = sum(r["failed"] for r in records) + rep_failed
    for message in [m for r in records for m in r["failures"]] + rep_messages:
        print(f"FAILED: {message}")
    print(f"failed_frac ratio {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} public calls and output checks)")
    (work / ("trace.json" if args.trace else "result.json")).write_text(
        json.dumps({"environment": env, "inputs": digests,
                    "records": records, "metrics": metrics}, indent=1))
    if not metrics:
        print("run.py: no job completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
