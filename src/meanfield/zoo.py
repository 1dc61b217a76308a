"""Built-in model collection and synthetic data generators.

Six ready-made models under seven names, each returning a
:class:`ModelDefinition` whose log joint is an array expression,
differentiable through the tape; a batch of observations is one
likelihood call, and so is a chunk of draws on a leading axis, on the
float path and on the tape:

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

Each model's builder declares its settings, and their defaults, in its
keyword-only signature, the one place they are written: a parameter with
a float default is a real-valued prior setting, which :func:`make_model`
takes in ``hyperparams``; any other parameter is a dimension of the block
layout (K, D, U, I, group counts), which it takes in ``dims``.
:func:`model_for_data` infers the data-determined dimensions from a
dataset, which is what the command line uses. The ``simulate_*`` functions
return a :class:`Dataset` of the numpy arrays they draw (its ``entries``
is the JSON form) and the generating values.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import replace
from typing import Mapping

import numpy as np

from . import autodiff as ad
from . import densities as dens
from .errors import ConfigurationError, ShapeError
from .model import Dataset, ModelDefinition
from .transforms import BlockSpec, Identity, Interval, LowerBound, \
    PositiveOrdered, Simplex

__all__ = ["ZOO_NAMES", "make_model", "model_for_data",
           "simulate_poisson_exponential", "simulate_linreg_ard",
           "simulate_hier_logistic", "simulate_nmf_counts", "simulate_gmm"]


def _each_point(x, core=0):
    """Block value ``x``, with ``core`` axes of its own, given an axis of
    length 1 after its leading draw axes, so that a per-draw value
    broadcasts against per-point data (or a per-draw scalar against a
    per-draw vector). Without draw axes it broadcasts already and is
    returned as it is: a one-draw tape gains no node."""
    shape = getattr(x, "shape", ())  # a Var's too; a float has none
    lead = len(shape) - core
    if lead == 0:
        return x
    return x.reshape(shape[:lead] + (1,) + shape[lead:])


def _shared_length(data, *names):
    """The length of the per-point entries ``names``, which must agree: a
    likelihood reads them at ``slice(None)``, which takes a short entry
    whole, and numpy broadcasts a one-row entry against the others."""
    n = len(data[names[0]])
    for name in names[1:]:
        if len(data[name]) != n:
            raise ShapeError(f"dataset entry {name!r} has length "
                             f"{len(data[name])}, {names[0]!r} has {n}")
    return n


def _build_poisson_exponential(*, rate=1.0):
    def log_prior(v, data):
        return dens.exponential(v["lam"], rate)

    def loglik(v, data, idx):
        return dens.poisson(data["x"][idx], _each_point(v["lam"]))

    return ModelDefinition(
        name="poisson_exponential",
        blocks=(BlockSpec("lam", LowerBound(0.0), scalar=True),),
        log_prior=log_prior,
        loglik_term=loglik,
        num_observations=lambda data: len(data["x"]),
    )


def _build_linreg_ard(*, D, a0=1.0, b0=1.0, c0=1.0, d0=1.0):
    def log_prior(v, data):
        w, sigma2, alpha = v["w"], v["sigma2"], v["alpha"]
        return (dens.inverse_gamma(sigma2, a0, b0)
                + ad.sum(dens.gamma(alpha, c0, d0), -1)
                + ad.sum(dens.normal(w, 0.0, ad.sqrt(_each_point(sigma2))
                                     / ad.sqrt(alpha)), -1))

    def loglik(v, data, idx):
        mean = ad.dot(data["x"][idx], _each_point(v["w"], 1))
        return dens.normal(data["y"][idx], mean,
                           ad.sqrt(_each_point(v["sigma2"])))

    return ModelDefinition(
        name="linreg_ard",
        blocks=(
            BlockSpec("w", Identity(D)),
            BlockSpec("sigma2", LowerBound(0.0), scalar=True),
            BlockSpec("alpha", LowerBound(0.0, D)),
        ),
        log_prior=log_prior,
        loglik_term=loglik,
        num_observations=lambda data: _shared_length(data, "y", "x"),
    )


_HIER_GROUPS = ("a", "b", "c", "d", "e")
_HIER_INDEX = {"a": "age", "b": "edu", "c": "age_edu", "d": "state",
               "e": "region_full"}


def _build_hier_logistic(*, n_age, n_edu, n_age_edu, n_state, n_region_full):
    sizes = dict(zip(_HIER_GROUPS,
                     (n_age, n_edu, n_age_edu, n_state, n_region_full)))

    def log_prior(v, data):
        terms = [ad.sum(dens.normal(v["beta"], 0.0, 100.0), -1)]
        for g in _HIER_GROUPS:
            scale = v[f"sigma_{g}"]
            terms += [dens.uniform(scale, 0.0, 100.0),
                      ad.sum(dens.normal(v[g], 0.0, _each_point(scale)), -1)]
        return ad.add(*terms)

    def loglik(v, data, idx):
        beta = _each_point(v["beta"], 1)
        female = data["female"][idx]
        black = data["black"][idx]
        yhat = ad.add(ad.take(beta, 0),
                      ad.take(beta, 1) * black,
                      ad.take(beta, 2) * female,
                      ad.take(beta, 4) * (female * black),
                      ad.take(beta, 3) * data["v_prev_full"][idx],
                      *(ad.take(v[g], data[_HIER_INDEX[g]][idx])
                        for g in _HIER_GROUPS))
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
        num_observations=lambda data: _shared_length(
            data, "y", "female", "black", "v_prev_full",
            *_HIER_INDEX.values()),
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
    # observation n is cell divmod(n, I) of the U x I count matrix; an int
    # or an index array holds the n already, a slice becomes them
    y = data["y"]
    cells = np.arange(y.size)[idx] if type(idx) is slice else idx
    u, i = np.divmod(cells, y.shape[1])
    rate = ad.dot(ad.take(v["theta"], u, -2), ad.take(v["beta"], i, -2))
    return dens.poisson(y[u, i], rate)


def _build_gamma_poisson_nmf(*, U, I, K=10, a=1.0, b=1.0, c=1.0, d=1.0):
    def log_prior(v, data):
        return (ad.sum(dens.gamma(v["theta"], a, b), (-2, -1))
                + ad.sum(dens.gamma(v["beta"], c, d), (-2, -1)))

    return ModelDefinition(
        name="gamma_poisson_nmf",
        blocks=(
            BlockSpec("theta", PositiveOrdered(K), rows=U),
            BlockSpec("beta", LowerBound(0.0, K), rows=I),
        ),
        log_prior=log_prior,
        loglik_term=_nmf_loglik,
        num_observations=_nmf_num_observations,
    )


def _build_dirichlet_exponential_nmf(*, U, I, K=10, alpha0=1000.0,
                                     lambda0=0.1):
    alpha_vec = np.full(K, alpha0)

    def log_prior(v, data):
        return (ad.sum(dens.dirichlet(v["theta"], alpha_vec), -1)
                + ad.sum(dens.exponential(v["beta"], lambda0), (-2, -1)))

    return ModelDefinition(
        name="dirichlet_exponential_nmf",
        blocks=(
            BlockSpec("theta", Simplex(K), rows=U),
            BlockSpec("beta", LowerBound(0.0, K), rows=I),
        ),
        log_prior=log_prior,
        loglik_term=_nmf_loglik,
        num_observations=_nmf_num_observations,
    )


def _build_gmm(*, K=10, D, alpha0=10000.0, mu_sigma0=0.1,
               sigma_sigma0=0.1):
    alpha_vec = np.full(K, alpha0)

    def log_prior(v, data):
        return (dens.dirichlet(v["theta"], alpha_vec)
                + ad.sum(dens.normal(v["mu"], 0.0, mu_sigma0), (-2, -1))
                + ad.sum(dens.lognormal(v["sigma"], 0.0, sigma_sigma0),
                         (-2, -1)))

    def loglik(v, data, idx):
        # (points, 1, D) against (draws, 1, K, D) components: log theta_k
        # plus the diagonal normal density, log-sum-exp over k. numpy runs
        # a ufunc's inner loop along its operands' innermost memory axis,
        # so with y in Fortran order the normal and both reductions loop
        # over the points, not over D entries. autodiff reduces such a
        # layout in C order, so the bits are those of C-ordered data
        y = np.asfortranarray(data["y"][idx])[..., None, :]
        comps = (ad.log(_each_point(v["theta"], 1))
                 + ad.sum(dens.normal(y, _each_point(v["mu"], 2),
                                      _each_point(v["sigma"], 2)), axis=-1))
        return ad.log_sum_exp(comps, axis=-1)

    return ModelDefinition(
        name="gmm",
        blocks=(
            BlockSpec("theta", Simplex(K)),
            BlockSpec("mu", Identity(D), rows=K),
            BlockSpec("sigma", LowerBound(0.0, D), rows=K),
        ),
        log_prior=log_prior,
        loglik_term=loglik,
        num_observations=lambda data: len(data["y"]),
    )


def _settings(builder):
    """A builder's hyperparameters and dimensions, each a dict from name to
    default in signature order (a dimension without a default maps to
    ``inspect.Parameter.empty``)."""
    # a parameter with a float default is a hyperparameter; any other
    # parameter is a dimension
    hypers, dims = {}, {}
    for p in inspect.signature(builder).parameters.values():
        (hypers if isinstance(p.default, float) else dims)[p.name] = p.default
    return hypers, dims


def _hier_dims(data):
    # each group count is the data entry of its name
    return {n: _single_number(data, n)
            for n in _settings(_build_hier_logistic)[1]}


def _matrix_dims(data):
    return {"U": data["y"].shape[0], "I": data["y"].shape[1]}


# name -> (builder, the dimensions it infers from a dataset)
_ZOO = {
    "poisson_exponential": (_build_poisson_exponential, lambda data: {}),
    "linreg_ard": (_build_linreg_ard,
                   lambda data: {"D": data["x"].shape[1]}),
    "hier_logistic": (_build_hier_logistic, _hier_dims),
    "gamma_poisson_nmf": (_build_gamma_poisson_nmf, _matrix_dims),
    "dirichlet_exponential_nmf": (_build_dirichlet_exponential_nmf,
                                  _matrix_dims),
    "gmm": (_build_gmm, lambda data: {"D": data["y"].shape[1]}),
}
_ZOO["gmm_minibatch"] = _ZOO["gmm"]  # the name subsampled runs use

ZOO_NAMES = tuple(_ZOO)


def _entry(name):
    try:
        return _ZOO[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown model {name!r}; available: {', '.join(ZOO_NAMES)}"
        ) from None


def make_model(name: str, hyperparams: Mapping[str, float] | None = None,
               dims: Mapping[str, int] | None = None) -> ModelDefinition:
    """Instantiate a zoo model by name.

    ``dims`` supplies the block-layout dimensions the model requires
    (missing ones fall back to defaults where a default exists); each
    must be an integer >= 1 (an integral float such as 3.0 is taken).
    ``hyperparams`` overrides prior settings, each finite and > 0.
    Unknown names in either mapping are rejected, and so are a value
    that is not a number (a bool or a string, say) and a dimension the
    model's transform kinds cannot take (K = 1 for a simplex).
    """
    def number(what, value):  # float() takes True as 1.0 and "3" as 3.0
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigurationError(
                f"model {name}: {what} must be a number, got {value!r}")
        return float(value)

    builder, _ = _entry(name)
    hypers, dim_defaults = _settings(builder)
    for key, value in (hyperparams or {}).items():
        if key not in hypers:
            raise ConfigurationError(
                f"model {name}: unknown hyperparameter {key!r}; "
                f"accepts {sorted(hypers) or 'none'}")
        value = number(f"hyperparameter {key}", value)
        # every zoo hyperparameter is a scale, rate, shape or concentration
        if not 0.0 < value < math.inf:
            raise ConfigurationError(
                f"model {name}: hyperparameter {key} must be finite and "
                f"> 0, got {value}")
        hypers[key] = value
    resolved = {k: v for k, v in dim_defaults.items()
                if v is not inspect.Parameter.empty}
    for key, value in (dims or {}).items():
        if key not in dim_defaults:
            raise ConfigurationError(
                f"model {name}: unknown dimension {key!r}; "
                f"accepts {list(dim_defaults) or 'none'}")
        if not number(f"dimension {key}", value).is_integer():
            raise ConfigurationError(
                f"model {name}: dimension {key} must be an integer, "
                f"got {value}")
        resolved[key] = int(value)
    missing = [k for k in dim_defaults if k not in resolved]
    if missing:
        raise ConfigurationError(
            f"model {name}: missing dimensions {missing}")
    for key, value in resolved.items():
        if value < 1:
            raise ConfigurationError(
                f"model {name}: dimension {key} must be >= 1, got {value}")
    try:
        model = builder(**hypers, **resolved)
    except ValueError as exc:  # a kind that cannot take a dimension
        raise ConfigurationError(f"model {name}: {exc}") from exc
    return replace(model, hyperparams=hypers)


def model_for_data(name: str, data: Dataset,
                   settings: Mapping[str, float] | None = None
                   ) -> ModelDefinition:
    """Build a zoo model around a dataset, inferring data-bound dimensions.

    ``settings`` mixes hyperparameters and explicit dimensions (e.g. K);
    keys are routed by name. Explicit settings win over inferred values.
    """
    builder, infer_dims = _entry(name)
    try:
        dims = dict(infer_dims(data))
    except (IndexError, TypeError) as exc:
        raise ConfigurationError(
            f"model {name}: could not infer dimensions from dataset "
            f"({exc})") from exc
    dim_names = _settings(builder)[1]
    hypers = {}
    for key, value in (settings or {}).items():
        if key in dim_names:
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
