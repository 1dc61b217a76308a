"""Log densities and log masses with full normalizing constants.

Every function returns log p(value | parameters) including all constants,
so objective values and held-out predictive scores are absolute, not merely
comparable up to shifts. Arguments may be floats, arrays or tape values and
broadcast as numpy does; the result holds one log density per element (per
row of the last axis for :func:`dirichlet`), and summing is the caller's
business. A parameter outside its domain raises :class:`DomainError`
naming the distribution; a Poisson count or a Bernoulli outcome outside its
support is bad data, not a bad draw, and raises :class:`ShapeError` naming
the first such value.

A count's ``log k!`` is read from a table of ``math.lgamma(i + 1.0)`` that
is built once per process and grown on demand; counts at or above 2**16
take ``log_gamma(k + 1.0)`` on each call, with the same bits.

Every density is one tape node with closed-form partials
(:func:`autodiff.node`), whatever the size of its arguments. The partials
in a gamma or inverse-gamma shape and a Dirichlet concentration need the
digamma function, which loads scipy; it is imported when such a partial is
first taken, so only a tape with a shape or concentration among its values
loads it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import autodiff as ad
from .errors import DomainError, ShapeError

__all__ = [
    "normal", "lognormal", "gamma", "inverse_gamma", "exponential",
    "dirichlet", "poisson", "bernoulli_logit", "uniform",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_FACTORIAL_CAP = 2 ** 16
_LOG_FACTORIALS = np.zeros(1)  # log 0! = math.lgamma(1.0) = 0.0


def _holds(cond) -> bool:
    """Whether every element of a comparison result holds."""
    if type(cond) is np.ndarray:
        return np.count_nonzero(cond) == cond.size
    return bool(cond)


def _log_factorial(k: np.ndarray):
    """log k! of integral counts ``k``, from the table while it covers them."""
    global _LOG_FACTORIALS
    top = int(k.max()) if k.size else 0
    if top >= _LOG_FACTORIAL_CAP:
        return ad.log_gamma(k + 1.0)
    # read once: a rebuild in another thread cannot leave this call short
    table = _LOG_FACTORIALS
    if top >= len(table):
        n = min(max(2 * len(table), top + 1), _LOG_FACTORIAL_CAP)
        table = np.array([math.lgamma(i + 1.0) for i in range(n)])
        _LOG_FACTORIALS = table
    return table[k.astype(np.intp, copy=False)]


def _positive(x, dist: str, what: str):
    v = ad.value(x)
    if not _holds(v > 0.0):
        raise DomainError(f"{dist}: {what} must be > 0, got {np.min(v)}")


def normal(x, loc, scale):
    _positive(scale, "normal", "scale")
    xv, mv, sv = ad.value(x), ad.value(loc), ad.value(scale)
    z = (xv - mv) / sv
    return ad.node((x, loc, scale),
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
    return ad.node((x, loc, scale),
                   -lx - np.log(sv) - _HALF_LOG_2PI - 0.5 * (z * z),
                   (lambda g: -g * (1.0 + z / sv) / xv,
                    lambda g: g * z / sv,
                    lambda g: g * (z * z - 1.0) / sv))


def gamma(x, shape, rate):
    """Shape/rate parameterization: mean = shape/rate."""
    _positive(shape, "gamma", "shape")
    _positive(rate, "gamma", "rate")
    _positive(x, "gamma", "value")
    xv, av, rv = ad.value(x), ad.value(shape), ad.value(rate)
    lx, lr = np.log(xv), np.log(rv)
    return ad.node((x, shape, rate),
                   av * lr - ad.log_gamma(av) + (av - 1.0) * lx - rv * xv,
                   (lambda g: g * ((av - 1.0) / xv - rv),
                    lambda g: g * (lr - ad._digamma(av) + lx),
                    lambda g: g * (av / rv - xv)))


def inverse_gamma(x, shape, scale):
    _positive(shape, "inverse_gamma", "shape")
    _positive(scale, "inverse_gamma", "scale")
    _positive(x, "inverse_gamma", "value")
    xv, av, bv = ad.value(x), ad.value(shape), ad.value(scale)
    lx, lb = np.log(xv), np.log(bv)
    return ad.node((x, shape, scale),
                   av * lb - ad.log_gamma(av) - (av + 1.0) * lx - bv / xv,
                   (lambda g: g * ((bv / xv - (av + 1.0)) / xv),
                    lambda g: g * (lb - ad._digamma(av) - lx),
                    lambda g: g * (av / bv - 1.0 / xv)))


def exponential(x, rate):
    _positive(rate, "exponential", "rate")
    v = ad.value(x)
    if not _holds(v >= 0.0):
        raise DomainError(f"exponential: value must be >= 0, got {np.min(v)}")
    r = ad.value(rate)
    return ad.node((x, rate), np.log(r) - r * v,
                   (lambda g: -g * r, lambda g: g * (1.0 / r - v)))


def _concentration(av):
    """The sum of concentration ``av`` over its last axis, the sum of its
    log-gammas and the log-gamma of its sum."""
    a0 = ad.sum(av, -1)
    return a0, ad.sum(ad.log_gamma(av), -1), ad.log_gamma(a0)


@functools.lru_cache(maxsize=64)
def _constant_concentration(shape, raw):
    # _concentration of a constant, once per distinct value: a zoo prior
    # passes the same one on every call; the results are shared, so
    # read-only
    parts = _concentration(np.frombuffer(raw).reshape(shape))
    for p in parts:
        if type(p) is np.ndarray:
            p.flags.writeable = False
    return parts


def dirichlet(x, alpha):
    """Log density of each row of ``x`` (last axis) on the open simplex
    under the concentration vector ``alpha``."""
    x, alpha = ad.as_array(x), ad.as_array(alpha)
    xv, av = ad.value(x), ad.value(alpha)
    k = np.shape(xv)[-1] if np.ndim(xv) else 0
    if k < 2 or np.shape(av)[-1:] != (k,):
        raise DomainError(f"dirichlet: need matching vectors of length >= 2,"
                          f" got {np.shape(xv)}/{np.shape(av)}")
    total = ad.sum(xv, -1)
    if not _holds(np.abs(total - 1.0) <= 1e-8):
        raise DomainError(f"dirichlet: value sums to {total}, not 1")
    _positive(alpha, "dirichlet", "concentration")
    _positive(x, "dirichlet", "component")
    lx = np.log(xv)
    if type(alpha) is ad.Var:
        a0, lg, lg0 = _concentration(av)
    else:
        a0, lg, lg0 = _constant_concentration(av.shape, av.tobytes())
    out = ad.sum((av - 1.0) * lx, -1) - lg + lg0
    keep = np.shape(out) + (1,)

    def rows(g):  # a row's adjoint, to broadcast over its components
        return np.asarray(g).reshape(keep)

    return ad.node((x, alpha), out,
                   (lambda g: rows(g) * ((av - 1.0) / xv),
                    lambda g: rows(g) * (lx - ad._digamma(av)
                                         + ad._digamma(a0)[..., None])))


def poisson(k, rate):
    """Log mass of count ``k`` at a rate in [0, inf]: at rate 0 all the
    mass is on count 0, at rate inf no count has any."""
    k = np.asarray(k)
    ok = k >= 0
    if k.dtype.kind not in "iu":
        ok &= np.isfinite(k) & (np.floor(k) == k)
    if not _holds(ok):
        raise ShapeError(f"poisson: count must be a nonnegative integer, "
                         f"got {k[~ok][0]}")
    r = ad.value(rate)
    if not _holds(r >= 0.0):
        raise DomainError(f"poisson: rate must be >= 0, got {np.min(r)}")
    inside = (0.0 < r) & (r < math.inf)
    if _holds(inside):  # every rate interior: the same bits, no where
        out = k * np.log(r) - r
    else:
        safe = np.where(inside, r, 1.0)
        edge = np.where((r == 0.0) & (k == 0), 0.0, -math.inf)
        out = np.where(inside, k * np.log(safe) - safe, edge)
    # k / r - 1, with 0 / 0 read as 0 at count 0
    return ad.node((rate,), out - _log_factorial(k),
                   (lambda g: g * (k / np.where(k == 0, 1.0, r) - 1.0),))


def bernoulli_logit(y, logit_p):
    """log mass of y in {0,1} under success probability logistic(logit_p)."""
    y = np.asarray(y)
    ok = (y == 0) | (y == 1)
    if not _holds(ok):
        raise ShapeError(f"bernoulli_logit: outcome must be 0 or 1, "
                         f"got {y[~ok][0]}")
    # log sigma(t) = -softplus(-t) with t = logit_p for y = 1 and -logit_p
    # for y = 0, stable at large |t|
    sign = 1.0 - 2.0 * y
    u = sign * ad.value(logit_p)
    return ad.node((logit_p,), -ad.softplus(u),
                   (lambda g: -g * sign * ad.logistic(u),))


def uniform(x, lower, upper):
    if not lower < upper:
        raise DomainError(f"uniform: need lower < upper, got {lower}, {upper}")
    v = ad.value(x)
    if not _holds((lower <= v) & (v <= upper)):
        raise DomainError(f"uniform: value {v} outside [{lower}, {upper}]")
    density = -math.log(upper - lower)
    return density if np.ndim(v) == 0 else np.full(np.shape(v), density)
