"""Batch command line: fit a zoo model to a JSON dataset and write results.

Example:

    meanfield --model poisson_exponential --data counts.json \\
        --output samples.csv --diagnostic trace.csv --seed 42

Exit codes: 0 on success (convergence or budget exhaustion with finite
parameters), 2 on configuration errors, 3 on evaluation failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

from .engine import STREAM_DRAW, FitConfig, PosteriorDraws, draw_posterior, \
    fit, substream
from .errors import ConfigurationError, DomainError, EvaluationFailure, \
    ShapeError
from .evaluate import heldout_log_predictive, num_points
from .io import RunManifest, load_dataset, write_outputs
from .model import constrain_blocks
from .zoo import ZOO_NAMES, model_for_data

CONFIG_ERROR = 2
EVALUATION_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="meanfield",
        description="Fit a mean-field Gaussian approximation to a built-in "
                    "model and write posterior samples, an optimization "
                    "trace, and a run manifest.")
    p.add_argument("--model", required=True,
                   help=f"model name, one of: {', '.join(ZOO_NAMES)}")
    p.add_argument("--data", required=True, help="JSON dataset path")
    p.add_argument("--heldout", default=None,
                   help="optional held-out JSON dataset to score")
    p.add_argument("--output", required=True,
                   help="posterior samples CSV path")
    p.add_argument("--diagnostic", required=True,
                   help="optimization trace CSV path")
    p.add_argument("--grad-samples", type=int, metavar="M",
                   help="Monte Carlo samples per gradient estimate")
    p.add_argument("--elbo-samples", type=int,
                   help="Monte Carlo samples per objective estimate")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iters", dest="max_iterations", type=int)
    p.add_argument("--threshold", type=float,
                   help="relative objective change that counts as converged")
    p.add_argument("--eval-every", dest="eval_interval", type=int,
                   help="iterations between objective estimates")
    p.add_argument("--minibatch", type=int, metavar="B",
                   help="subsample B observations per iteration")
    p.add_argument("--draws", type=int, default=1000, metavar="S",
                   help="posterior draws to write")
    p.add_argument("--init", choices=("zero", "gaussian"),
                   help="zero start or a standard-Gaussian draw for mu")
    p.add_argument("--hyper", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="model hyperparameter or dimension (repeatable), "
                        "e.g. --hyper K=3 --hyper alpha0=10")
    # each FitConfig field is a destination, with FitConfig's default
    p.set_defaults(**asdict(FitConfig()))
    return p


def _parse_hypers(pairs: list[str]) -> dict:
    settings = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise ConfigurationError(
                f"--hyper expects NAME=VALUE, got {pair!r}")
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                raise ConfigurationError(
                    f"--hyper {name}: {raw!r} is not a number") from None
        settings[name] = value
    return settings


def _check_file(model, draws, dataset, path, may_be_empty=False):
    """Score ``dataset`` under ``draws``, unless it has no points and
    ``may_be_empty``; bad data raises a :class:`ConfigurationError` that
    names its file."""
    try:
        if not may_be_empty or num_points(model, dataset):
            heldout_log_predictive(model, draws, dataset)
    except (ConfigurationError, ShapeError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    manifest_path = Path(args.output).with_suffix(".manifest.json")
    try:
        settings = _parse_hypers(args.hyper)
        data = load_dataset(args.data)
        model = model_for_data(args.model, data, settings)
        config = FitConfig(**{f.name: getattr(args, f.name)
                              for f in fields(FitConfig)})
        if args.draws < 1:
            raise ConfigurationError(
                f"--draws must be >= 1, got {args.draws}")
        heldout = load_dataset(args.heldout) if args.heldout else None
    except (ConfigurationError, ShapeError, DomainError) as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR

    wall_start = time.perf_counter()
    try:
        # one draw at the origin scores each dataset once, so that data
        # the model cannot take exits before fit
        values, _ = constrain_blocks(model, [[0.0] * model.dim])
        origin = PosteriorDraws(values, 1)
        # training data with no points is a prior-only fit
        _check_file(model, origin, data, args.data, may_be_empty=True)
        if heldout is not None:
            _check_file(model, origin, heldout, args.heldout)
        params, trace = fit(model, data, config)
        draws = draw_posterior(model, params, args.draws,
                               substream(args.seed, STREAM_DRAW))
        report = None
        if heldout is not None:
            report = heldout_log_predictive(model, draws, heldout)
        wall_seconds = time.perf_counter() - wall_start
        details = {
            "iterations_run": trace.rows[-1][0] if trace.rows else 0,
            "omega_clamp_events": trace.clamp_events,
            "elbo_draws_dropped": trace.elbo_draws_dropped,
            "gradient_redraws": trace.gradient_redraws,
            "posterior_draws": args.draws,
            "unconstrained_dim": model.dim,
        }
        if report is not None:
            details["heldout"] = asdict(report)
        manifest = RunManifest(
            model=args.model,
            hyperparams=dict(model.hyperparams),
            config=asdict(config),
            seed=args.seed,
            input_paths={"data": str(args.data),
                         "heldout": str(args.heldout) if args.heldout
                         else None},
            output_paths={"samples": str(args.output),
                          "diagnostics": str(args.diagnostic),
                          "manifest": str(manifest_path)},
            timings={"wall_seconds": wall_seconds,
                     "optimize_wall_seconds": trace.wall_time_s},
            details=details,
        )
        write_outputs(draws, trace, manifest, args.output, args.diagnostic,
                      manifest_path)
    except EvaluationFailure as exc:
        print(f"evaluation failure: {exc}", file=sys.stderr)
        return EVALUATION_ERROR
    except (ConfigurationError, ShapeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR

    last = trace.rows[-1] if trace.rows else None
    status = (f"final objective {last[2]:.6g} at iteration {last[0]}"
              if last else "no objective evaluations recorded")
    print(f"{args.model}: {status}; wrote {args.output}, "
          f"{args.diagnostic}, {manifest_path}")
    if report is not None:
        print(f"held-out mean log predictive: "
              f"{report.mean_log_predictive:.6g} "
              f"({report.num_points} points, {report.num_draws} draws)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
