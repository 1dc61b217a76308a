"""Workload definitions and input generation for the benchmark.

Each workload is one zoo model at a fixed size, with a fixed fit budget
(``threshold`` is so small that ``fit`` never stops early, so every run
does the same number of iterations). Inputs are made from the workload
seed with ``meanfield.zoo.simulate_*`` and written as JSON before any
timing starts; the program under test only reads those files.

Why each workload exists:

* ``gmm_full`` - full-batch mixture: the per-observation likelihood on the
  scalar tape dominates ``fit``. An array tape must win here.
* ``nmf_minibatch`` - dim 360 with a small batch: the tape is mostly
  prior and transform nodes, and held-out scoring is 240k (draw, point)
  likelihood evaluations. A faster likelihood alone barely moves ``fit``.
* ``hier_elbo`` - large full-data ELBO estimates on the tape-free float
  path dominate ``fit``. A change that speeds the tape but slows float
  evaluation shows here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

TRAIN_FILE = "train.json"
HELDOUT_FILE = "heldout.json"

GMM_MEANS = [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]
POPULATION_SEED = 1506  # generating parameters of nmf and hier workloads
HIER_POOL = 20000  # population the hier workload's observations come from
# The program's own --seed: fixed, so that init and Monte Carlo draws are
# the same for every input and fit quality compares across seeds.
FIT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    settings: dict
    config: dict  # FitConfig fields besides the seed
    draws: int
    why: str

    @property
    def elbo_evaluations(self) -> int:
        return self.config["max_iterations"] // self.config["eval_interval"]

    def cli_args(self, inputs: Path, out: Path) -> list[str]:
        """``meanfield`` command-line arguments for the same job."""
        c = self.config
        args = ["--model", self.model,
                "--data", str(inputs / TRAIN_FILE),
                "--heldout", str(inputs / HELDOUT_FILE),
                "--output", str(out / "samples.csv"),
                "--diagnostic", str(out / "trace.csv"),
                "--grad-samples", str(c["grad_samples"]),
                "--elbo-samples", str(c["elbo_samples"]),
                "--seed", str(FIT_SEED),
                "--max-iters", str(c["max_iterations"]),
                "--threshold", repr(c["threshold"]),
                "--eval-every", str(c["eval_interval"]),
                "--draws", str(self.draws),
                "--init", c["init"]]
        if c["minibatch"] is not None:
            args += ["--minibatch", str(c["minibatch"])]
        for key, value in self.settings.items():
            args += ["--hyper", f"{key}={value}"]
        return args


# Never reached by a relative ELBO change, so fit always runs its budget.
NEVER_CONVERGE = 1e-12

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="gmm_full", model="gmm",
            settings={"K": 3, "mu_sigma0": 10.0, "sigma_sigma0": 1.0},
            config=dict(grad_samples=1, elbo_samples=20, eval_interval=10,
                        max_iterations=30, minibatch=None, init="gaussian",
                        threshold=NEVER_CONVERGE),
            draws=200,
            why="full-batch mixture; the per-observation likelihood on the "
                "scalar tape is most of fit"),
        Workload(
            name="nmf_minibatch", model="dirichlet_exponential_nmf",
            settings={"K": 4},
            config=dict(grad_samples=2, elbo_samples=10, eval_interval=50,
                        max_iterations=100, minibatch=50, init="zero",
                        threshold=NEVER_CONVERGE),
            draws=100,
            why="dim 360, batch 50: the tape is prior plus transforms, and "
                "held-out scoring is 240k likelihood evaluations"),
        Workload(
            name="hier_elbo", model="hier_logistic",
            settings={},
            config=dict(grad_samples=1, elbo_samples=100, eval_interval=100,
                        max_iterations=200, minibatch=100, init="zero",
                        threshold=NEVER_CONVERGE),
            draws=400,
            why="full-data ELBO estimates on the tape-free float path "
                "dominate fit; largest JSON input"),
    )
}


def _split_rows(entries: dict, n: int, first: int) -> tuple[dict, dict]:
    """Split every length-``n`` list entry at ``first``; copy scalars."""
    head, tail = {}, {}
    for key, value in entries.items():
        if isinstance(value, list) and len(value) == n:
            head[key], tail[key] = value[:first], value[first:]
        else:
            head[key] = tail[key] = value
    if "N" in entries:
        head["N"], tail["N"] = first, n - first
    return head, tail


def simulate(name: str, seed: int) -> tuple[dict, dict]:
    """(train entries, held-out entries) for a workload and seed.

    The generating parameters are fixed per workload (drawn from
    POPULATION_SEED); ``seed`` draws the observations. The fit quality
    metrics then vary from seed to seed by sampling noise only, not by how
    hard a freshly drawn truth happens to be.
    """
    import numpy as np
    from meanfield import zoo

    rng = np.random.default_rng(seed)
    if name == "gmm_full":
        data, _ = zoo.simulate_gmm(rng, 1100, GMM_MEANS, sigma=0.5)
        return _split_rows(dict(data.entries), 1100, 1000)
    if name == "nmf_minibatch":
        population = np.random.default_rng(POPULATION_SEED)
        data, truth = zoo.simulate_nmf_counts(population, 40, 60, 4)
        rates = np.asarray(truth["theta"]) @ np.asarray(truth["beta"]).T
        train, heldout = dict(data.entries), dict(data.entries)
        train["y"] = rng.poisson(rates).tolist()
        heldout["y"] = rng.poisson(rates).tolist()
        return train, heldout
    if name == "hier_elbo":
        population = np.random.default_rng(POPULATION_SEED)
        pool, _ = zoo.simulate_hier_logistic(population, HIER_POOL)
        rows = rng.choice(HIER_POOL, size=4400, replace=False)
        entries = {k: [v[i] for i in rows] if isinstance(v, list) else v
                   for k, v in pool.entries.items()}
        entries["N"] = 4400
        return _split_rows(entries, 4400, 4000)
    raise KeyError(name)


def write_inputs(name: str, seed: int, directory: Path) -> dict:
    """Write the workload's JSON inputs; return {file: (bytes, sha256)}."""
    directory.mkdir(parents=True, exist_ok=True)
    train, heldout = simulate(name, seed)
    digests = {}
    for filename, entries in ((TRAIN_FILE, train), (HELDOUT_FILE, heldout)):
        raw = json.dumps(entries).encode()
        (directory / filename).write_bytes(raw)
        digests[filename] = (len(raw), hashlib.sha256(raw).hexdigest())
    return digests
