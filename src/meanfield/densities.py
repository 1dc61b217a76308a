"""Log densities and log masses with full normalizing constants.

Every function returns log p(value | parameters) including all constants,
so objective values and held-out predictive scores are absolute, not merely
comparable up to shifts. Arguments may be plain floats or tape variables;
out-of-domain arguments raise :class:`DomainError` naming the distribution.
"""

from __future__ import annotations

import math

from . import autodiff as ad
from .errors import DomainError

__all__ = [
    "normal", "lognormal", "gamma", "inverse_gamma", "exponential",
    "dirichlet", "poisson", "bernoulli_logit", "uniform",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _num(x) -> float:
    """Numeric value of a float or tape variable (for domain checks)."""
    return x.val if type(x) is ad.Var else float(x)


def _require(cond: bool, dist: str, message: str):
    if not cond:
        raise DomainError(f"{dist}: {message}")


def normal(x, loc, scale):
    _require(_num(scale) > 0.0, "normal", f"scale must be > 0, got {_num(scale)}")
    z = (x - loc) / scale
    return -_HALF_LOG_2PI - ad.log(scale) - 0.5 * (z * z)


def lognormal(x, loc, scale):
    _require(_num(scale) > 0.0, "lognormal",
             f"scale must be > 0, got {_num(scale)}")
    _require(_num(x) > 0.0, "lognormal", f"value must be > 0, got {_num(x)}")
    lx = ad.log(x)
    z = (lx - loc) / scale
    return -lx - ad.log(scale) - _HALF_LOG_2PI - 0.5 * (z * z)


def gamma(x, shape, rate):
    """Shape/rate parameterization: mean = shape/rate."""
    _require(_num(shape) > 0.0, "gamma", f"shape must be > 0, got {_num(shape)}")
    _require(_num(rate) > 0.0, "gamma", f"rate must be > 0, got {_num(rate)}")
    _require(_num(x) > 0.0, "gamma", f"value must be > 0, got {_num(x)}")
    return (shape * ad.log(rate) - ad.log_gamma(shape)
            + (shape - 1.0) * ad.log(x) - rate * x)


def inverse_gamma(x, shape, scale):
    _require(_num(shape) > 0.0, "inverse_gamma",
             f"shape must be > 0, got {_num(shape)}")
    _require(_num(scale) > 0.0, "inverse_gamma",
             f"scale must be > 0, got {_num(scale)}")
    _require(_num(x) > 0.0, "inverse_gamma",
             f"value must be > 0, got {_num(x)}")
    return (shape * ad.log(scale) - ad.log_gamma(shape)
            - (shape + 1.0) * ad.log(x) - scale / x)


def exponential(x, rate):
    _require(_num(rate) > 0.0, "exponential",
             f"rate must be > 0, got {_num(rate)}")
    _require(_num(x) >= 0.0, "exponential",
             f"value must be >= 0, got {_num(x)}")
    return ad.log(rate) - rate * x


def dirichlet(x, alpha):
    """``x`` on the open simplex, ``alpha`` a concentration vector."""
    _require(len(x) == len(alpha) and len(x) >= 2, "dirichlet",
             f"need matching vectors of length >= 2, got {len(x)}/{len(alpha)}")
    total = math.fsum(_num(v) for v in x)
    _require(abs(total - 1.0) <= 1e-8, "dirichlet",
             f"value sums to {total}, not 1")
    alpha_sum = 0.0
    out = 0.0
    for xk, ak in zip(x, alpha):
        _require(_num(ak) > 0.0, "dirichlet",
                 f"concentration must be > 0, got {_num(ak)}")
        _require(_num(xk) > 0.0, "dirichlet",
                 f"component must be > 0, got {_num(xk)}")
        out = out + (ak - 1.0) * ad.log(xk) - ad.log_gamma(ak)
        alpha_sum = alpha_sum + ak
    return out + ad.log_gamma(alpha_sum)


def poisson(k, rate):
    _require(float(k) == int(k) and k >= 0, "poisson",
             f"count must be a nonnegative integer, got {k!r}")
    _require(_num(rate) > 0.0, "poisson",
             f"rate must be > 0, got {_num(rate)}")
    k = int(k)
    return k * ad.log(rate) - rate - math.lgamma(k + 1.0)


def bernoulli_logit(y, logit_p):
    """log mass of y in {0,1} under success probability logistic(logit_p)."""
    _require(y in (0, 1), "bernoulli_logit",
             f"outcome must be 0 or 1, got {y!r}")
    # log sigma(t) = -log(1 + exp(-t)), computed via log_sum_exp for
    # stability at large |t|
    t = logit_p if y == 1 else -logit_p
    return -ad.log_sum_exp([0.0, -t])


def uniform(x, lower, upper):
    _require(lower < upper, "uniform",
             f"need lower < upper, got {lower}, {upper}")
    _require(lower <= _num(x) <= upper, "uniform",
             f"value {_num(x)} outside [{lower}, {upper}]")
    return -math.log(upper - lower)

