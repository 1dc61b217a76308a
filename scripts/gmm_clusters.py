#!/usr/bin/env python3
"""Desk-scale mixture experiment: recover well-separated 2-D clusters.

Simulates N points from three Gaussian clusters, fits the diagonal mixture
model with subsampled gradient steps, and reports the fitted component
locations against the truth after label alignment.

    python scripts/gmm_clusters.py --n 1000 --minibatch 250 --iters 3000
"""

import argparse
import itertools
import time

import numpy as np

from meanfield import FitConfig, draw_posterior, fit, substream
from meanfield.zoo import model_for_data, simulate_gmm

TRUE_MEANS = [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--sigma", type=float, default=0.5)
    ap.add_argument("--minibatch", type=int, default=250)
    ap.add_argument("--iters", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    data, truth = simulate_gmm(rng, args.n, TRUE_MEANS, sigma=args.sigma)
    model = model_for_data("gmm", data, {"K": 3, "mu_sigma0": 10.0,
                                         "sigma_sigma0": 1.0})
    config = FitConfig(max_iterations=args.iters, seed=args.seed,
                       minibatch=args.minibatch, init="gaussian",
                       eval_interval=500, elbo_samples=10, threshold=1e-8)
    start = time.perf_counter()
    params, trace = fit(model, data, config)
    wall = time.perf_counter() - start

    draws = draw_posterior(model, params, 1000, substream(args.seed, 700))
    fitted = draws.samples["mu"].mean(axis=0)
    weights = draws.samples["theta"].mean(axis=0)
    scales = draws.samples["sigma"].mean(axis=0)

    best = min(
        itertools.permutations(range(3)),
        key=lambda perm: sum(
            np.linalg.norm(fitted[p] - np.asarray(TRUE_MEANS[k]))
            for k, p in enumerate(perm)))
    status = (f"{len(trace)} objective evaluations, final objective "
              f"{trace.rows[-1][2]:.1f}" if trace.rows
              else "no objective evaluations recorded")
    print(f"fit: {wall:.1f}s wall, {status}")
    for k, p in enumerate(best):
        err = np.linalg.norm(fitted[p] - np.asarray(TRUE_MEANS[k]))
        print(f"component {k}: true {TRUE_MEANS[k]} -> fitted "
              f"{np.round(fitted[p], 3).tolist()} (err {err:.3f}), "
              f"weight {weights[p]:.3f}, scales "
              f"{np.round(scales[p], 3).tolist()}")


if __name__ == "__main__":
    main()
