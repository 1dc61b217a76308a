"""One benchmark job in a fresh, single-threaded process.

Runs the command line's batch job through the package's public calls -
``load_dataset`` (train and held-out), ``model_for_data``, ``fit``,
``draw_posterior``, ``heldout_log_predictive``, ``write_outputs`` - on
inputs already written by ``run.py``, then checks the outputs and prints
one JSON record as its last line of standard output.

With ``--spans PATH`` the job is traced: selected public functions are
wrapped (see ``tracing.py``), each layer is then timed on its own at the
fitted parameters, ``meanfield.cli.main`` runs the same job, and all spans
are written to PATH at the end.

Not meant to be run by hand; ``run.py`` starts it with the thread pins and
``PYTHONPATH`` it needs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io as _io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
import tracing
import workloads

SEED = workloads.FIT_SEED
# spawn_key of the substream that draws the traced zeta from the fitted q;
# the engine's own streams use keys 0-4
TRACE_STREAM = 99
GRAD_CHECK_TOL = 1e-5  # the gradient acceptance tolerance, relative
ORACLE_TOL = 1e-9
FD_STEP = 1e-5


class JobFailure(Exception):
    """A public call of the package raised; the job cannot go on."""


def _call(counts: dict, fn, *args):
    counts["attempted"] += 1
    try:
        return fn(*args)
    except Exception as exc:  # any failure of the program under test
        counts["failed"] += 1
        raise JobFailure(f"{getattr(fn, '__name__', fn)}: "
                         f"{type(exc).__name__}: {exc}") from exc


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_job(w, inputs: Path, out: Path, src: Path, counts: dict, stages,
            tracer, traced: bool):
    """The batch job in three stages: setup (import, load, model), fit and
    posterior (draw, score, write). The caller ends the last stage.
    Returns (package, raw import seconds, objects for the checks)."""
    span = tracer.begin("job.setup")
    t0 = time.perf_counter()
    import meanfield as mf
    import_s = time.perf_counter() - t0
    if Path(mf.__file__).resolve().parent != (src / "meanfield").resolve():
        sys.exit(f"job: imported meanfield from {mf.__file__}, not {src}")
    from meanfield.engine import STREAM_DRAW

    if traced:
        tracer.install(mf)
    train = _call(counts, mf.load_dataset, inputs / workloads.TRAIN_FILE)
    held = _call(counts, mf.load_dataset, inputs / workloads.HELDOUT_FILE)
    model = _call(counts, mf.model_for_data, w.model, train, w.settings)
    tracer.end(span)
    stages.end("setup")

    span = tracer.begin("job.fit")
    config = mf.FitConfig(seed=SEED, **w.config)
    params, trace = _call(counts, mf.fit, model, train, config)
    tracer.end(span)
    stages.end("fit")

    span = tracer.begin("job.posterior")
    draws = _call(counts, mf.draw_posterior, model, params, w.draws,
                  mf.substream(SEED, STREAM_DRAW))
    report = _call(counts, mf.heldout_log_predictive, model, draws, held)
    paths = {"samples": out / "samples.csv", "diagnostics": out / "trace.csv",
             "manifest": out / "samples.manifest.json"}
    manifest = mf.RunManifest(
        model=w.model, hyperparams=dict(model.hyperparams),
        config=dataclasses.asdict(config), seed=SEED,
        input_paths={"data": str(inputs / workloads.TRAIN_FILE),
                     "heldout": str(inputs / workloads.HELDOUT_FILE)},
        output_paths={k: str(v) for k, v in paths.items()},
        timings={"optimize_wall_seconds": trace.wall_time_s})
    _call(counts, mf.write_outputs, draws, trace, manifest,
          paths["samples"], paths["diagnostics"], paths["manifest"])
    tracer.end(span)
    if traced:
        tracer.uninstall()
    return mf, import_s, (train, held, model, config, params, trace, draws,
                          report, paths)


def traced_zeta(mf, params):
    gen = mf.substream(SEED, TRACE_STREAM)
    return mf.inverse_standardize(params, gen.standard_normal(params.dim))


def check_outputs(mf, objs, counts: dict) -> list[str]:
    """Output checks; each one counts as attempted, and as failed if it
    does not hold. Returns a message per failed check."""
    import numpy as np
    import reference
    from meanfield import autodiff as ad
    from meanfield.errors import DomainError

    train, _, model, config, params, trace, draws, report, _ = objs
    failures = []

    def check(ok, message):
        counts["attempted"] += 1
        if not ok:
            counts["failed"] += 1
            failures.append(message)

    for b in model.blocks:
        rows = draws.samples[b.name].reshape(draws.size, b.rows or 1, -1)
        bad = 0
        for row in rows.reshape(-1, rows.shape[-1]):
            try:
                mf.transforms.check_value(b.kind, row.tolist())
            except DomainError:
                bad += 1
        check(bad == 0, f"{bad} draws of block {b.name} outside support")
    final_elbo = trace.rows[-1][2] if trace.rows else math.nan
    check(math.isfinite(final_elbo), f"final ELBO {final_elbo}")
    check(math.isfinite(report.mean_log_predictive),
          f"held-out score {report.mean_log_predictive}")
    check(report.failed_index is None,
          f"held-out point {report.failed_index} has zero likelihood")
    iterations = trace.rows[-1][0] if trace.rows else 0
    check(iterations == config.max_iterations,
          f"fit stopped at {iterations} of {config.max_iterations}")

    zeta = traced_zeta(mf, params)
    joint = mf.log_joint_unconstrained(model, train, zeta)
    ref = reference.prepare(model, train)(np.asarray(zeta))
    check(abs(joint - ref) <= ORACLE_TOL * abs(ref),
          f"float joint {joint!r} vs numpy reference {ref!r}")

    g = ad.Graph()
    leaves = [g.leaf(z) for z in zeta]
    grad = ad.gradient(mf.log_joint_unconstrained(model, train, leaves),
                       leaves)
    dim = model.dim
    for k in sorted({0, dim // 3, (2 * dim) // 3, dim - 1}):
        hi, lo = zeta.copy(), zeta.copy()
        hi[k] += FD_STEP
        lo[k] -= FD_STEP
        fd = (mf.log_joint_unconstrained(model, train, hi)
              - mf.log_joint_unconstrained(model, train, lo)) / (2 * FD_STEP)
        check(abs(grad[k] - fd) <= GRAD_CHECK_TOL * max(1.0, abs(fd)),
              f"gradient[{k}] {grad[k]!r} vs central difference {fd!r}")
    return failures


# -- per-layer probes (traced job only) ---------------------------------------

def _percentile_tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when that would not lie above the median."""
    n = len(samples)
    if n < 21:
        return None
    rank = n - 11
    return round(100.0 * (rank + 1) / n, 1), sorted(samples)[rank]


class Probes:
    """Times single layers, recording each sample as a span."""

    def __init__(self, tracer, budget_s):
        self.tracer = tracer
        self.budget_s = budget_s
        self.stats: dict[str, dict] = {}

    def time(self, name, unit, fn, setup=None, calls=1, min_n=3,
             max_n=200):
        """Median time of ``fn`` (``fn(setup())`` when ``setup`` is given,
        untimed), divided by the ``calls`` operations one ``fn`` makes, in
        reference units (see calibration.py)."""
        scale = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}[unit] / calls
        samples = []
        task_before_s = calibration.task_seconds()
        start = time.perf_counter()
        while len(samples) < max_n and (
                len(samples) < min_n
                or time.perf_counter() - start < self.budget_s):
            arg = setup() if setup is not None else None
            idx = self.tracer.begin(name)
            fn() if setup is None else fn(arg)
            self.tracer.end(idx)
            span = self.tracer.spans[idx]
            samples.append((span[2] - span[1]) * scale)
        factor = calibration.speed_factor(task_before_s,
                                          calibration.task_seconds())
        samples = [t * factor for t in samples]
        self.stats[name] = {"value": statistics.median(samples),
                            "unit": unit, "n": len(samples),
                            "tail": _percentile_tail(samples)}
        return self.stats[name]["value"]

    def count(self, name, value, unit="count"):
        self.stats[name] = {"value": value, "unit": unit}


def run_probes(mf, w, objs, inputs: Path, out: Path, probes: Probes):
    import numpy as np
    import reference
    from meanfield import autodiff as ad
    from meanfield.engine import STREAM_BATCH, STREAM_DRAW, STREAM_ELBO, \
        STREAM_GRAD
    from meanfield.model import constrain_blocks

    train, held, model, config, params, trace, draws, _, _ = objs
    zeta = traced_zeta(mf, params)
    zeta_list = [float(z) for z in zeta]
    batch = None
    if config.minibatch is not None:
        gen = mf.substream(SEED, STREAM_BATCH, 0)
        chosen = gen.choice(model.num_observations(train),
                            size=config.minibatch, replace=False)
        batch = [int(v) for v in np.sort(chosen)]

    def tape_joint(leaves):
        if batch is None:
            return mf.log_joint_unconstrained(model, train, leaves)
        return mf.minibatch_log_joint(model, train, batch, leaves)

    def leaves():
        g = ad.Graph()
        return g, [g.leaf(z) for z in zeta_list]

    g, lv = leaves()
    out_var = tape_joint(lv)
    probes.count("autodiff.nodes", len(g))
    build_ms = probes.time("model.joint_tape_ms", "ms",
                           lambda a: tape_joint(a[1]), setup=leaves)
    sweep_ms = probes.time("autodiff.sweep_ms", "ms",
                           lambda: ad.gradient(out_var, lv))
    probes.count("autodiff.ns_per_node",
                 (build_ms + sweep_ms) * 1e6 / len(g), "ns")

    g, lv = leaves()
    constrain_blocks(model, lv)
    probes.count("transforms.tape_nodes", len(g))  # leaves included, as above
    probes.time("transforms.constrain_tape_ms", "ms",
                lambda a: constrain_blocks(model, a[1]), setup=leaves)
    probes.time("transforms.constrain_float_us", "us",
                lambda: constrain_blocks(model, zeta_list))
    values, _ = constrain_blocks(model, zeta_list)
    probes.time("densities.log_prior_float_us", "us",
                lambda: model.log_prior(values, train))
    points = range(min(100, model.num_observations(train)))
    probes.time("densities.loglik_term_float_us", "us",
                lambda: [model.loglik_term(values, train, n)
                         for n in points], calls=len(points))
    probes.time("model.joint_float_ms", "ms",
                lambda: mf.log_joint_unconstrained(model, train, zeta))
    ref = reference.prepare(model, train)
    probes.time("ref.numpy_joint_ms", "ms", lambda: ref(zeta))

    grad_seed = np.random.SeedSequence(SEED, spawn_key=(STREAM_GRAD, 0))
    probes.time("engine.grad_ms", "ms",
                lambda: mf.estimate_gradients(model, train, params,
                                              config.grad_samples, grad_seed,
                                              batch))
    probes.time("engine.elbo_ms", "ms",
                lambda: mf.estimate_elbo(model, train, params,
                                         config.elbo_samples,
                                         mf.substream(SEED, STREAM_ELBO, 0)),
                max_n=20)
    state = mf.OptState(model.dim, config.window)
    step_grad = np.linspace(-1.0, 1.0, model.dim)
    for _ in range(config.window):
        mf.adagrad_step(state, step_grad, config)
    probes.time("engine.step_us", "us",
                lambda: [mf.adagrad_step(state, step_grad, config)
                         for _ in range(20)], calls=20)
    probes.time("engine.draw_ms", "ms",
                lambda: mf.draw_posterior(model, params, w.draws,
                                          mf.substream(SEED, STREAM_DRAW)),
                max_n=50)
    score_s = probes.time("evaluate.score_s", "s",
                          lambda: mf.heldout_log_predictive(model, draws,
                                                            held),
                          max_n=20)
    evals = model.num_observations(held) * draws.size
    probes.count("evaluate.evals", evals)
    probes.count("evaluate.ns_per_eval", score_s * 1e9 / evals, "ns")
    probes.time("io.load_ms", "ms",
                lambda: [mf.load_dataset(inputs / f) for f in
                         (workloads.TRAIN_FILE, workloads.HELDOUT_FILE)],
                max_n=50)
    probe_out = out / "probe"
    probe_out.mkdir(exist_ok=True)
    manifest = mf.RunManifest(model=w.model, hyperparams={}, config={},
                              seed=SEED, input_paths={}, output_paths={},
                              timings={})
    probes.time("io.write_ms", "ms",
                lambda: mf.write_outputs(draws, trace, manifest,
                                         probe_out / "samples.csv",
                                         probe_out / "trace.csv",
                                         probe_out / "manifest.json"),
                max_n=50)


def run_cli(w, inputs: Path, out: Path, tracer) -> dict:
    """``cli.main`` on the same files and settings, traced; its self time
    is the command line's overhead over the stages it calls."""
    import meanfield.cli

    cli_out = out / "cli"
    cli_out.mkdir(exist_ok=True)
    tracer.run = "cli"
    first = len(tracer.spans)
    task_before_s = calibration.task_seconds()
    with contextlib.redirect_stdout(_io.StringIO()):
        status = meanfield.cli.main(w.cli_args(inputs, cli_out))
    factor = calibration.speed_factor(task_before_s,
                                      calibration.task_seconds())
    spans = tracer.spans[first:]
    main_idx = next(i for i, s in enumerate(spans, first)
                    if s[0] == "cli.main")
    main = tracer.spans[main_idx]
    child_ns = sum(s[2] - s[1] for s in spans if s[3] == main_idx)
    return {"status": status,
            "overhead_s": (main[2] - main[1] - child_ns) / 1e9 * factor,
            "samples_sha256": _sha256(cli_out / "samples.csv")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--src", required=True, type=Path,
                    help="the package's source directory under test")
    ap.add_argument("--spawn-ns", required=True, type=int,
                    help="time.monotonic_ns() when the job was started")
    ap.add_argument("--spans", type=Path, default=None,
                    help="trace the job and write its spans here")
    ap.add_argument("--probe-budget", type=float, default=0.5,
                    help="seconds to spend timing each layer when traced")
    args = ap.parse_args()
    w = workloads.WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    counts = {"attempted": 0, "failed": 0}
    traced = args.spans is not None

    stages = calibration.Stages(args.spawn_ns)
    try:
        mf, import_s, objs = run_job(w, args.inputs, args.out, args.src,
                                     counts, stages, tracer, traced)
    except JobFailure as exc:
        print(json.dumps({**counts, "failures": [str(exc)]}))
        return 0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stages.end("posterior")
    raw, scaled = stages.raw_s, stages.scaled_s()
    speed = sum(scaled.values()) / sum(raw.values())
    _, held, model, _, _, trace, draws, report, paths = objs
    record = {
        "run_s": sum(scaled.values()),
        "setup_s": scaled["setup"],
        "import_s": import_s * scaled["setup"] / raw["setup"],
        "fit_s": scaled["fit"],
        "posterior_s": scaled["posterior"],
        "raw_s": raw,
        "calibration_task_s": stages.tasks_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "final_elbo": trace.rows[-1][2] if trace.rows else math.nan,
        "heldout_lpd": report.mean_log_predictive,
        "iterations": trace.rows[-1][0] if trace.rows else 0,
        "work_nodes": round(trace.rows[-1][1] * 1000) if trace.rows else 0,
        "clamp_events": trace.clamp_events,
        "evals": report.num_points * report.num_draws,
        "samples_sha256": _sha256(paths["samples"]),
        "bytes_out": sum(p.stat().st_size for p in paths.values()),
    }
    tracer.run = "checks"
    failures = check_outputs(mf, objs, counts)

    if traced:
        record["self_s"] = {layer: t * speed for layer, t
                            in tracer.self_seconds("job").items()}
        tracer.run = "probe"
        probes = Probes(tracer, args.probe_budget)
        run_probes(mf, w, objs, args.inputs, args.out, probes)
        record["layers"] = probes.stats
        tracer.install(mf)
        cli = run_cli(w, args.inputs, args.out, tracer)
        tracer.uninstall()
        record["cli"] = cli
        counts["attempted"] += 2
        if cli["status"] != 0:
            counts["failed"] += 1
            failures.append(f"cli.main exited {cli['status']}")
        if cli["samples_sha256"] != record["samples_sha256"]:
            counts["failed"] += 1
            failures.append("cli.main samples differ from the job's")
        args.spans.write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "run"],
             "spans": tracer.spans}))
    print(json.dumps({**record, **counts, "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
