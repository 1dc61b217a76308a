#!/usr/bin/env python3
"""Sparse-regression experiment: relevance determination at desk scale.

Half of the simulated regressors carry zero true coefficient. The
per-coefficient precision hyperpriors should shrink exactly those to zero
while the held-out RMSE stays on par with a ridge baseline.

    python scripts/ard_regression.py --n 2000 --d 50 --heldout 200
"""

import argparse
import time

import numpy as np

from meanfield import Dataset, FitConfig, draw_posterior, fit, substream
from meanfield.zoo import model_for_data, simulate_linreg_ard


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--d", type=int, default=50)
    ap.add_argument("--heldout", type=int, default=200)
    ap.add_argument("--minibatch", type=int, default=250)
    ap.add_argument("--iters", type=int, default=2500)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    data, truth = simulate_linreg_ard(rng, args.n + args.heldout, args.d)
    x, y = data["x"], data["y"]
    train = Dataset({"N": args.n, "D": args.d,
                     "x": x[:args.n], "y": y[:args.n]})
    ho_x, ho_y = x[args.n:], y[args.n:]
    active = truth["active"]

    model = model_for_data("linreg_ard", train, {})
    config = FitConfig(max_iterations=args.iters, seed=0,
                       minibatch=args.minibatch, threshold=1e-8,
                       eval_interval=500, elbo_samples=10)
    start = time.perf_counter()
    params, trace = fit(model, train, config)
    wall = time.perf_counter() - start

    draws = draw_posterior(model, params, 400, substream(0, 900))
    w_mean = draws.samples["w"].mean(axis=0)
    abs_w = np.abs(w_mean)

    xtr, ytr = train["x"], train["y"]
    w_ridge = np.linalg.solve(xtr.T @ xtr + np.eye(args.d), xtr.T @ ytr)
    rmse_vi = np.sqrt(np.mean((ho_x @ w_mean - ho_y) ** 2))
    rmse_ridge = np.sqrt(np.mean((ho_x @ w_ridge - ho_y) ** 2))

    status = (f"final objective {trace.rows[-1][2]:.1f}" if trace.rows
              else "no objective evaluations recorded")
    print(f"fit: {wall:.1f}s wall, {status}")
    print(f"mean |w|: active {abs_w[:active].mean():.4f}, "
          f"null {abs_w[active:].mean():.4f} "
          f"(ratio {abs_w[active:].mean() / abs_w[:active].mean():.4f})")
    print(f"held-out RMSE: {rmse_vi:.4f} (ridge baseline {rmse_ridge:.4f}, "
          f"noise floor {truth['noise']:.2f})")


if __name__ == "__main__":
    main()
