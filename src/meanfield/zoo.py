"""Built-in model collection and synthetic data generators.

Six ready-made models under seven names, each returning a
:class:`ModelDefinition` whose log joint is an array expression,
differentiable through the tape; a batch of observations is one
likelihood call:

* ``poisson_exponential`` - Poisson counts with an Exponential(rate) prior
  on the rate; the smallest nonconjugate example.
* ``linreg_ard`` - linear regression with automatic relevance
  determination: per-coefficient Gamma precision hyperpriors and an
  inverse-Gamma noise variance.
* ``hier_logistic`` - hierarchical logistic regression with five grouped
  coefficient vectors, five fixed effects, and Interval(0,100) group
  scales.
* ``gamma_poisson_nmf`` - nonnegative matrix factorization with Gamma
  factors; the per-user loadings are constrained positive ordered to pin
  the scaling/permutation ambiguity.
* ``dirichlet_exponential_nmf`` - nonnegative matrix factorization with
  simplex user loadings and Exponential item factors.
* ``gmm`` - diagonal Gaussian mixture with Dirichlet weights, Gaussian
  location priors, and lognormal scale priors; mixture assignments are
  marginalized with log_sum_exp.
* ``gmm_minibatch`` - another name for ``gmm``, kept for subsampled runs
  where each iteration scales a random batch's likelihood by N/B.

Dimensions that define the block layout (K, D, U, I, group counts) are
passed via ``dims``; real-valued prior settings via ``hyperparams``.
:func:`model_for_data` infers the data-determined dimensions from a
dataset, which is what the command line uses. The ``simulate_*`` functions
return a :class:`Dataset` of the numpy arrays they draw (its ``entries``
is the JSON form) and the generating values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import autodiff as ad
from . import densities as dens
from .errors import ConfigurationError
from .model import Dataset, ModelDefinition
from .transforms import BlockSpec, Identity, Interval, LowerBound, \
    PositiveOrdered, Simplex

__all__ = ["ZOO_NAMES", "make_model", "model_for_data",
           "simulate_poisson_exponential", "simulate_linreg_ard",
           "simulate_hier_logistic", "simulate_nmf_counts", "simulate_gmm"]


def _build_poisson_exponential(hypers, dims):
    rate = hypers["rate"]

    def log_prior(v, data):
        return dens.exponential(v["lam"], rate)

    def loglik(v, data, idx):
        return dens.poisson(data["x"][idx], v["lam"])

    return ModelDefinition(
        name="poisson_exponential",
        blocks=(BlockSpec("lam", LowerBound(0.0), scalar=True),),
        log_prior=log_prior,
        loglik_term=loglik,
        num_observations=lambda data: len(data["x"]),
        hyperparams=dict(hypers),
    )


def _build_linreg_ard(hypers, dims):
    d = dims["D"]
    a0, b0, c0, d0 = (hypers[k] for k in ("a0", "b0", "c0", "d0"))

    def log_prior(v, data):
        w, sigma2, alpha = v["w"], v["sigma2"], v["alpha"]
        return (dens.inverse_gamma(sigma2, a0, b0)
                + ad.sum(dens.gamma(alpha, c0, d0))
                + ad.sum(dens.normal(w, 0.0,
                                     ad.sqrt(sigma2) / ad.sqrt(alpha))))

    def loglik(v, data, idx):
        mean = ad.dot(data["x"][idx], v["w"])
        return dens.normal(data["y"][idx], mean, ad.sqrt(v["sigma2"]))

    return ModelDefinition(
        name="linreg_ard",
        blocks=(
            BlockSpec("w", Identity(d)),
            BlockSpec("sigma2", LowerBound(0.0), scalar=True),
            BlockSpec("alpha", LowerBound(0.0, d)),
        ),
        log_prior=log_prior,
        loglik_term=loglik,
        num_observations=lambda data: len(data["y"]),
        hyperparams=dict(hypers),
    )


_HIER_GROUPS = ("a", "b", "c", "d", "e")
_HIER_INDEX = {"a": "age", "b": "edu", "c": "age_edu", "d": "state",
               "e": "region_full"}
_HIER_DIMS = ("n_age", "n_edu", "n_age_edu", "n_state", "n_region_full")


def _build_hier_logistic(hypers, dims):
    sizes = {g: dims[n] for g, n in zip(_HIER_GROUPS, _HIER_DIMS)}

    def log_prior(v, data):
        out = ad.sum(dens.normal(v["beta"], 0.0, 100.0))
        for g in _HIER_GROUPS:
            scale = v[f"sigma_{g}"]
            out = (out + dens.uniform(scale, 0.0, 100.0)
                   + ad.sum(dens.normal(v[g], 0.0, scale)))
        return out

    def loglik(v, data, idx):
        beta = v["beta"]
        female = data["female"][idx]
        black = data["black"][idx]
        yhat = (beta[0]
                + beta[1] * black
                + beta[2] * female
                + beta[4] * (female * black)
                + beta[3] * data["v_prev_full"][idx])
        for g in _HIER_GROUPS:
            yhat = yhat + v[g][data[_HIER_INDEX[g]][idx]]
        return dens.bernoulli_logit(data["y"][idx], yhat)

    blocks = tuple(BlockSpec(g, Identity(sizes[g])) for g in _HIER_GROUPS)
    blocks = blocks + (BlockSpec("beta", Identity(5)),)
    blocks = blocks + tuple(
        BlockSpec(f"sigma_{g}", Interval(0.0, 100.0), scalar=True)
        for g in _HIER_GROUPS)
    return ModelDefinition(
        name="hier_logistic",
        blocks=blocks,
        log_prior=log_prior,
        loglik_term=loglik,
        num_observations=lambda data: len(data["y"]),
        hyperparams=dict(hypers),
    )


def _single_number(data, name):
    # not int(): make_model rejects a size that is not integral
    if data[name].ndim != 0:
        raise TypeError(f"{name} must be one integer, got shape "
                        f"{data[name].shape}")
    return data[name].item()


def _nmf_num_observations(data):
    return data["y"].size


def _nmf_loglik(v, data, idx):
    # observation idx is cell divmod(idx, I) of the U x I count matrix
    y = data["y"]
    u, i = np.divmod(idx, y.shape[1])
    return dens.poisson(y[u, i], ad.dot(v["theta"][u], v["beta"][i]))


def _build_gamma_poisson_nmf(hypers, dims):
    u, i, k = dims["U"], dims["I"], dims["K"]
    a, b, c, d = (hypers[key] for key in ("a", "b", "c", "d"))

    def log_prior(v, data):
        return (ad.sum(dens.gamma(v["theta"], a, b))
                + ad.sum(dens.gamma(v["beta"], c, d)))

    return ModelDefinition(
        name="gamma_poisson_nmf",
        blocks=(
            BlockSpec("theta", PositiveOrdered(k), rows=u),
            BlockSpec("beta", LowerBound(0.0, k), rows=i),
        ),
        log_prior=log_prior,
        loglik_term=_nmf_loglik,
        num_observations=_nmf_num_observations,
        hyperparams=dict(hypers),
    )


def _build_dirichlet_exponential_nmf(hypers, dims):
    u, i, k = dims["U"], dims["I"], dims["K"]
    alpha0, lambda0 = hypers["alpha0"], hypers["lambda0"]
    alpha_vec = np.full(k, alpha0)

    def log_prior(v, data):
        return (ad.sum(dens.dirichlet(v["theta"], alpha_vec))
                + ad.sum(dens.exponential(v["beta"], lambda0)))

    return ModelDefinition(
        name="dirichlet_exponential_nmf",
        blocks=(
            BlockSpec("theta", Simplex(k), rows=u),
            BlockSpec("beta", LowerBound(0.0, k), rows=i),
        ),
        log_prior=log_prior,
        loglik_term=_nmf_loglik,
        num_observations=_nmf_num_observations,
        hyperparams=dict(hypers),
    )


def _build_gmm(hypers, dims):
    k, d = dims["K"], dims["D"]
    alpha0 = hypers["alpha0"]
    mu_sigma0 = hypers["mu_sigma0"]
    sigma_sigma0 = hypers["sigma_sigma0"]
    alpha_vec = np.full(k, alpha0)

    def log_prior(v, data):
        return (dens.dirichlet(v["theta"], alpha_vec)
                + ad.sum(dens.normal(v["mu"], 0.0, mu_sigma0))
                + ad.sum(dens.lognormal(v["sigma"], 0.0, sigma_sigma0)))

    def loglik(v, data, idx):
        # (..., 1, D) points against (K, D) components: log theta_k plus
        # the diagonal normal density, log-sum-exp over k
        y = data["y"][idx][..., None, :]
        comps = (ad.log(v["theta"])
                 + ad.sum(dens.normal(y, v["mu"], v["sigma"]), axis=-1))
        return ad.log_sum_exp(comps, axis=-1)

    return ModelDefinition(
        name="gmm",
        blocks=(
            BlockSpec("theta", Simplex(k)),
            BlockSpec("mu", Identity(d), rows=k),
            BlockSpec("sigma", LowerBound(0.0, d), rows=k),
        ),
        log_prior=log_prior,
        loglik_term=loglik,
        num_observations=lambda data: len(data["y"]),
        hyperparams=dict(hypers),
    )


@dataclass(frozen=True)
class _ZooEntry:
    builder: Callable[[dict, dict], ModelDefinition]
    hyper_defaults: Mapping[str, float]
    dim_names: tuple[str, ...]
    dim_defaults: Mapping[str, int]
    infer_dims: Callable[[Dataset], dict]


_ZOO: dict[str, _ZooEntry] = {
    "poisson_exponential": _ZooEntry(
        _build_poisson_exponential,
        {"rate": 1.0}, (), {}, lambda data: {}),
    "linreg_ard": _ZooEntry(
        _build_linreg_ard,
        {"a0": 1.0, "b0": 1.0, "c0": 1.0, "d0": 1.0},
        ("D",), {},
        lambda data: {"D": data["x"].shape[1]}),
    "hier_logistic": _ZooEntry(
        _build_hier_logistic,
        {}, _HIER_DIMS, {},
        lambda data: {n: _single_number(data, n) for n in _HIER_DIMS}),
    "gamma_poisson_nmf": _ZooEntry(
        _build_gamma_poisson_nmf,
        {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
        ("U", "I", "K"), {"K": 10},
        lambda data: {"U": data["y"].shape[0], "I": data["y"].shape[1]}),
    "dirichlet_exponential_nmf": _ZooEntry(
        _build_dirichlet_exponential_nmf,
        {"alpha0": 1000.0, "lambda0": 0.1},
        ("U", "I", "K"), {"K": 10},
        lambda data: {"U": data["y"].shape[0], "I": data["y"].shape[1]}),
    "gmm": _ZooEntry(
        _build_gmm,
        {"alpha0": 10000.0, "mu_sigma0": 0.1, "sigma_sigma0": 0.1},
        ("K", "D"), {"K": 10},
        lambda data: {"D": data["y"].shape[1]}),
}
_ZOO["gmm_minibatch"] = _ZOO["gmm"]  # the name subsampled runs use

ZOO_NAMES = tuple(_ZOO)


def make_model(name: str, hyperparams: Mapping[str, float] | None = None,
               dims: Mapping[str, int] | None = None) -> ModelDefinition:
    """Instantiate a zoo model by name.

    ``dims`` supplies the block-layout dimensions the model requires
    (missing ones fall back to defaults where a default exists); each
    must be an integer >= 1 (an integral float such as 3.0 is taken).
    ``hyperparams`` overrides prior settings, each finite and > 0.
    Unknown names in either mapping are rejected.
    """
    try:
        entry = _ZOO[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown model {name!r}; available: {', '.join(ZOO_NAMES)}"
        ) from None
    hypers = dict(entry.hyper_defaults)
    for key, value in (hyperparams or {}).items():
        if key not in entry.hyper_defaults:
            raise ConfigurationError(
                f"model {name}: unknown hyperparameter {key!r}; "
                f"accepts {sorted(entry.hyper_defaults) or 'none'}")
        value = float(value)
        # every zoo hyperparameter is a scale, rate, shape or concentration
        if not 0.0 < value < math.inf:
            raise ConfigurationError(
                f"model {name}: hyperparameter {key} must be finite and "
                f"> 0, got {value}")
        hypers[key] = value
    resolved = dict(entry.dim_defaults)
    for key, value in (dims or {}).items():
        if key not in entry.dim_names:
            raise ConfigurationError(
                f"model {name}: unknown dimension {key!r}; "
                f"accepts {list(entry.dim_names) or 'none'}")
        if not float(value).is_integer():
            raise ConfigurationError(
                f"model {name}: dimension {key} must be an integer, "
                f"got {value}")
        resolved[key] = int(value)
    missing = [k for k in entry.dim_names if k not in resolved]
    if missing:
        raise ConfigurationError(
            f"model {name}: missing dimensions {missing}")
    for key, value in resolved.items():
        if value < 1:
            raise ConfigurationError(
                f"model {name}: dimension {key} must be >= 1, got {value}")
    return entry.builder(hypers, resolved)


def model_for_data(name: str, data: Dataset,
                   settings: Mapping[str, float] | None = None
                   ) -> ModelDefinition:
    """Build a zoo model around a dataset, inferring data-bound dimensions.

    ``settings`` mixes hyperparameters and explicit dimensions (e.g. K);
    keys are routed by name. Explicit settings win over inferred values.
    """
    if name not in _ZOO:
        raise ConfigurationError(
            f"unknown model {name!r}; available: {', '.join(ZOO_NAMES)}")
    entry = _ZOO[name]
    try:
        dims = dict(entry.infer_dims(data))
    except (IndexError, TypeError) as exc:
        raise ConfigurationError(
            f"model {name}: could not infer dimensions from dataset "
            f"({exc})") from exc
    hypers = {}
    for key, value in (settings or {}).items():
        if key in entry.dim_names:
            dims[key] = value
        else:
            hypers[key] = value
    return make_model(name, hypers, dims)


# -- synthetic data -----------------------------------------------------------

def simulate_poisson_exponential(rng: np.random.Generator, n: int = 20,
                                 rate: float = 2.0):
    """Poisson counts at a rate drawn from Exponential(1)-ish scale."""
    lam = float(rng.exponential(rate))
    x = rng.poisson(lam, size=n)
    return Dataset({"N": n, "x": x}), {"lam": lam}


def simulate_linreg_ard(rng: np.random.Generator, n: int, d: int,
                        noise: float = 1.0):
    """Regression data where only the first half of the coefficients act."""
    active = d // 2
    w = np.zeros(d)
    w[:active] = rng.uniform(1.0, 3.0, size=active) * \
        rng.choice([-1.0, 1.0], size=active)
    x = rng.standard_normal((n, d))
    y = x @ w + noise * rng.standard_normal(n)
    data = Dataset({"N": n, "D": d, "x": x, "y": y})
    return data, {"w": w.tolist(), "noise": noise, "active": active}


def simulate_hier_logistic(rng: np.random.Generator, n: int,
                           n_age: int = 4, n_edu: int = 4,
                           n_state: int = 8, n_region: int = 4):
    """Grouped binary outcomes with the model's own covariate structure."""
    n_age_edu = n_age * n_edu
    scales = {g: float(rng.uniform(0.3, 1.0)) for g in _HIER_GROUPS}
    sizes = dict(zip(_HIER_GROUPS, (n_age, n_edu, n_age_edu, n_state,
                                    n_region)))
    effects = {g: rng.normal(0.0, scales[g], size=sizes[g])
               for g in _HIER_GROUPS}
    beta = rng.normal(0.0, 1.0, size=5)
    age = rng.integers(0, n_age, size=n)
    edu = rng.integers(0, n_edu, size=n)
    age_edu = age * n_edu + edu
    state = rng.integers(0, n_state, size=n)
    region = rng.integers(0, n_region, size=n)
    female = rng.integers(0, 2, size=n).astype(float)
    black = rng.integers(0, 2, size=n).astype(float)
    v_prev = rng.standard_normal(n)
    yhat = (beta[0] + beta[1] * black + beta[2] * female
            + beta[4] * female * black + beta[3] * v_prev
            + effects["a"][age] + effects["b"][edu]
            + effects["c"][age_edu] + effects["d"][state]
            + effects["e"][region])
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-yhat))).astype(int)
    data = Dataset({
        "N": n, "n_age": n_age, "n_edu": n_edu, "n_age_edu": n_age_edu,
        "n_state": n_state, "n_region_full": n_region,
        "age": age, "edu": edu, "age_edu": age_edu, "state": state,
        "region_full": region, "female": female, "black": black,
        "v_prev_full": v_prev, "y": y,
    })
    truth = {"beta": beta.tolist(), "scales": scales}
    return data, truth


def simulate_nmf_counts(rng: np.random.Generator, u: int, i: int, k: int,
                        scale: float = 1.0):
    """Low-rank Poisson count matrix shared by both factorization models."""
    theta = np.sort(rng.gamma(1.0, scale, size=(u, k)), axis=1)
    beta = rng.gamma(1.0, scale, size=(i, k))
    y = rng.poisson(theta @ beta.T)
    data = Dataset({"U": u, "I": i, "y": y})
    return data, {"theta": theta.tolist(), "beta": beta.tolist()}


def simulate_gmm(rng: np.random.Generator, n: int, means, sigma: float = 0.5,
                 weights=None):
    """Well-separated diagonal Gaussian clusters around given means."""
    means = np.asarray(means, dtype=float)
    k, d = means.shape
    if weights is None:
        weights = np.full(k, 1.0 / k)
    weights = np.asarray(weights, dtype=float)
    z = rng.choice(k, size=n, p=weights / weights.sum())
    y = means[z] + sigma * rng.standard_normal((n, d))
    data = Dataset({"N": n, "y": y})
    truth = {"means": means.tolist(), "sigma": sigma,
             "weights": weights.tolist(), "assignments": z.tolist()}
    return data, truth
