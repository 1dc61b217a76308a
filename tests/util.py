"""Shared test helpers: independent numeric oracles and small instances."""

import zlib

import numpy as np

from meanfield import densities as dens
from meanfield import zoo
from meanfield.model import Dataset, ModelDefinition
from meanfield.transforms import BlockSpec, Identity


def central_diff(f, x, h=1e-5):
    """Central finite differences of a scalar function of a float vector."""
    x = [float(v) for v in x]
    grads = []
    for i in range(len(x)):
        hi = list(x)
        lo = list(x)
        hi[i] += h
        lo[i] -= h
        grads.append((f(hi) - f(lo)) / (2.0 * h))
    return grads


def numeric_jacobian(f, x, h=1e-6):
    """Numeric Jacobian of a vector-valued function (rows = outputs)."""
    x = [float(v) for v in x]
    cols = []
    for i in range(len(x)):
        hi = list(x)
        lo = list(x)
        hi[i] += h
        lo[i] -= h
        cols.append((np.asarray(f(hi)) - np.asarray(f(lo))) / (2.0 * h))
    return np.stack(cols, axis=1)


def gaussian_toy() -> ModelDefinition:
    """Standard-normal prior on one unconstrained coordinate, no data.

    Its objective has the closed form -(mu^2 + e^{2*omega})/2 + omega + 1/2
    with gradients (-mu, 1 - e^{2*omega}) and optimum (0, 0)."""
    return ModelDefinition(
        name="gaussian_toy",
        blocks=(BlockSpec("z", Identity(1), scalar=True),),
        log_prior=lambda v, data: dens.normal(v["z"], 0.0, 1.0),
        loglik_term=lambda v, data, n: 0.0,
        num_observations=lambda data: 0,
    )


EMPTY_DATA = Dataset({})


def toy_elbo(mu, omega):
    """Closed-form objective of the gaussian toy model."""
    return -0.5 * (mu * mu + np.exp(2.0 * omega)) + omega + 0.5


def small_zoo_instance(name):
    """A deliberately small dataset + model for gradient checking."""
    # crc32, not hash(): str hashes are salted per process
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    if name == "poisson_exponential":
        data, _ = zoo.simulate_poisson_exponential(rng, n=5)
        return zoo.model_for_data(name, data, {}), data
    if name == "linreg_ard":
        data, _ = zoo.simulate_linreg_ard(rng, n=20, d=4)
        return zoo.model_for_data(name, data, {}), data
    if name == "hier_logistic":
        data, _ = zoo.simulate_hier_logistic(rng, n=30, n_age=3, n_edu=3,
                                             n_state=4, n_region=2)
        return zoo.model_for_data(name, data, {}), data
    if name in ("gamma_poisson_nmf", "dirichlet_exponential_nmf"):
        data, _ = zoo.simulate_nmf_counts(rng, u=3, i=4, k=2)
        settings = {"K": 2}
        if name == "dirichlet_exponential_nmf":
            settings["alpha0"] = 3.0
        return zoo.model_for_data(name, data, settings), data
    if name in ("gmm", "gmm_minibatch"):
        data, _ = zoo.simulate_gmm(rng, 12, [[-2.0, 0.0], [2.0, 1.0]],
                                   sigma=0.8)
        settings = {"K": 2, "mu_sigma0": 3.0, "sigma_sigma0": 1.0,
                    "alpha0": 5.0}
        return zoo.model_for_data(name, data, settings), data
    raise AssertionError(name)
