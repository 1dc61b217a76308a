"""Log densities and log masses with full normalizing constants.

Every function returns log p(value | parameters) including all constants,
so objective values and held-out predictive scores are absolute, not merely
comparable up to shifts. Arguments may be floats, arrays or tape values and
broadcast as numpy does; the result holds one log density per element (per
row of the last axis for :func:`dirichlet`), and summing is the caller's
business. An out-of-domain element raises :class:`DomainError` naming the
distribution.

A density whose partial derivatives are elementary is one tape node with
closed-form partials (:func:`autodiff.node`), whatever the size of its
arguments. The gamma, inverse-gamma and Dirichlet densities are composed of
tape primitives instead: their partials in the shape or concentration need
the digamma function, which only the ``log_gamma`` primitive brings in.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import DomainError

__all__ = [
    "normal", "lognormal", "gamma", "inverse_gamma", "exponential",
    "dirichlet", "poisson", "bernoulli_logit", "uniform",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _holds(cond) -> bool:
    """Whether every element of a comparison result holds."""
    if type(cond) is np.ndarray:
        return np.count_nonzero(cond) == cond.size
    return bool(cond)


def _positive(x, dist: str, what: str):
    v = ad.value(x)
    if not _holds(v > 0.0):
        raise DomainError(f"{dist}: {what} must be > 0, got {np.min(v)}")


def normal(x, loc, scale):
    _positive(scale, "normal", "scale")
    xv, mv, sv = ad.value(x), ad.value(loc), ad.value(scale)
    z = (xv - mv) / sv
    return ad.node("normal", (x, loc, scale),
                   -_HALF_LOG_2PI - np.log(sv) - 0.5 * (z * z),
                   (lambda g: -g * z / sv,
                    lambda g: g * z / sv,
                    lambda g: g * (z * z - 1.0) / sv))


def lognormal(x, loc, scale):
    _positive(scale, "lognormal", "scale")
    _positive(x, "lognormal", "value")
    xv, mv, sv = ad.value(x), ad.value(loc), ad.value(scale)
    lx = np.log(xv)
    z = (lx - mv) / sv
    return ad.node("lognormal", (x, loc, scale),
                   -lx - np.log(sv) - _HALF_LOG_2PI - 0.5 * (z * z),
                   (lambda g: -g * (1.0 + z / sv) / xv,
                    lambda g: g * z / sv,
                    lambda g: g * (z * z - 1.0) / sv))


def gamma(x, shape, rate):
    """Shape/rate parameterization: mean = shape/rate."""
    _positive(shape, "gamma", "shape")
    _positive(rate, "gamma", "rate")
    _positive(x, "gamma", "value")
    return (shape * ad.log(rate) - ad.log_gamma(shape)
            + (shape - 1.0) * ad.log(x) - rate * x)


def inverse_gamma(x, shape, scale):
    _positive(shape, "inverse_gamma", "shape")
    _positive(scale, "inverse_gamma", "scale")
    _positive(x, "inverse_gamma", "value")
    return (shape * ad.log(scale) - ad.log_gamma(shape)
            - (shape + 1.0) * ad.log(x) - scale / x)


def exponential(x, rate):
    _positive(rate, "exponential", "rate")
    v = ad.value(x)
    if not _holds(v >= 0.0):
        raise DomainError(f"exponential: value must be >= 0, got {np.min(v)}")
    r = ad.value(rate)
    return ad.node("exponential", (x, rate), np.log(r) - r * v,
                   (lambda g: -g * r, lambda g: g * (1.0 / r - v)))


def dirichlet(x, alpha):
    """Log density of each row of ``x`` (last axis) on the open simplex
    under the concentration vector ``alpha``."""
    x, alpha = ad.as_array(x), ad.as_array(alpha)
    xv, av = ad.value(x), ad.value(alpha)
    k = np.shape(xv)[-1] if np.ndim(xv) else 0
    if k < 2 or np.shape(av)[-1:] != (k,):
        raise DomainError(f"dirichlet: need matching vectors of length >= 2,"
                          f" got {np.shape(xv)}/{np.shape(av)}")
    total = np.sum(xv, axis=-1)
    if not _holds(np.abs(total - 1.0) <= 1e-8):
        raise DomainError(f"dirichlet: value sums to {total}, not 1")
    _positive(alpha, "dirichlet", "concentration")
    _positive(x, "dirichlet", "component")
    return (ad.sum((alpha - 1.0) * ad.log(x), axis=-1)
            - ad.sum(ad.log_gamma(alpha), axis=-1)
            + ad.log_gamma(ad.sum(alpha, axis=-1)))


def poisson(k, rate):
    k = np.asarray(k)
    if not (_holds(k >= 0) and (k.dtype.kind in "iu"
                                or _holds(np.floor(k) == k))):
        raise DomainError(
            f"poisson: count must be a nonnegative integer, got {k!r}")
    _positive(rate, "poisson", "rate")
    r = ad.value(rate)
    return ad.node("poisson", (rate,),
                   k * np.log(r) - r - ad.log_gamma(k + 1.0),
                   (lambda g: g * (k / r - 1.0),))


def bernoulli_logit(y, logit_p):
    """log mass of y in {0,1} under success probability logistic(logit_p)."""
    y = np.asarray(y)
    if not _holds((y == 0) | (y == 1)):
        raise DomainError(f"bernoulli_logit: outcome must be 0 or 1, "
                          f"got {y!r}")
    # log sigma(t) = -softplus(-t) with t = logit_p for y = 1 and -logit_p
    # for y = 0, stable at large |t|
    sign = 1.0 - 2.0 * y
    u = sign * ad.value(logit_p)
    return ad.node("bernoulli_logit", (logit_p,), -ad.softplus(u),
                   (lambda g: -g * sign * ad.logistic(u),))


def uniform(x, lower, upper):
    if not lower < upper:
        raise DomainError(f"uniform: need lower < upper, got {lower}, {upper}")
    v = ad.value(x)
    if not _holds((lower <= v) & (v <= upper)):
        raise DomainError(f"uniform: value {v} outside [{lower}, {upper}]")
    density = -math.log(upper - lower)
    return density if np.ndim(v) == 0 else np.full(np.shape(v), density)
