"""Plain numpy log joints in unconstrained coordinates.

Each function reproduces ``meanfield.log_joint_unconstrained`` for one zoo
model - transforms with their log-Jacobian terms, prior and full-data
likelihood - as whole-array numpy expressions. They serve as an oracle
(the package's float path must agree to 1e-9 relative) and as a floor:
the time of one call is what a single-threaded vectorized evaluation of the
same joint costs on this machine.

``prepare(model, data)`` converts the dataset to arrays once and returns a
function of ``zeta`` alone, so the timed call does no conversion.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _logistic(t):
    # the package's branch-wise formula, for bit-level agreement at |t| large
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(t):
    return np.logaddexp(0.0, t)


def _simplex(z):
    """Stick-breaking over the last axis: (..., K-1) -> ((..., K), log_det)."""
    k = z.shape[-1] + 1
    rem = np.ones(z.shape[:-1])
    parts = []
    log_det = 0.0
    for i in range(k - 1):
        t = z[..., i] - math.log(float(k - 1 - i))
        part = rem * _logistic(t)
        log_det = log_det + np.sum(np.log(rem) + t - 2.0 * _softplus(t))
        parts.append(part)
        rem = rem - part
    parts.append(rem)
    return np.stack(parts, axis=-1), log_det


def _dirichlet(x, alpha):
    """Symmetric Dirichlet(alpha) log density of each row of ``x``."""
    k = x.shape[-1]
    return (np.sum((alpha - 1.0) * np.log(x) - gammaln(alpha))
            + x[..., 0].size * gammaln(k * alpha))


def _gmm(model, data):
    k, d = model.block("mu").rows, model.block("mu").kind.dim
    h = model.hyperparams
    alpha0, mu_s0, sig_s0 = h["alpha0"], h["mu_sigma0"], h["sigma_sigma0"]
    y = np.asarray(data["y"], dtype=float)

    def joint(zeta):
        theta, log_det = _simplex(zeta[:k - 1])
        mu = zeta[k - 1:k - 1 + k * d].reshape(k, d)
        log_sigma = zeta[k - 1 + k * d:].reshape(k, d)
        sigma = np.exp(log_sigma)
        log_det = log_det + np.sum(log_sigma)
        lsig = np.log(sigma)
        prior = (_dirichlet(theta, alpha0)
                 + np.sum(-_HALF_LOG_2PI - math.log(mu_s0)
                          - 0.5 * (mu / mu_s0) ** 2)
                 + np.sum(-lsig - math.log(sig_s0) - _HALF_LOG_2PI
                          - 0.5 * (lsig / sig_s0) ** 2))
        z = (y[:, None, :] - mu) / sigma
        comps = (np.log(theta) - d * _HALF_LOG_2PI - np.sum(lsig, axis=1)
                 - 0.5 * np.sum(z * z, axis=2))
        top = comps.max(axis=1)
        loglik = top + np.log(np.sum(np.exp(comps - top[:, None]), axis=1))
        return float(prior + log_det + np.sum(loglik))

    return joint


_HIER_GROUPS = (("a", "age"), ("b", "edu"), ("c", "age_edu"),
                ("d", "state"), ("e", "region_full"))


def _hier_logistic(model, data):
    sizes = [model.block(g).kind.dim for g, _ in _HIER_GROUPS]
    index = [np.asarray(data[col]) for _, col in _HIER_GROUPS]
    female = np.asarray(data["female"], dtype=float)
    black = np.asarray(data["black"], dtype=float)
    v_prev = np.asarray(data["v_prev_full"], dtype=float)
    sign = np.where(np.asarray(data["y"]) == 1, 1.0, -1.0)
    bounds = np.cumsum([0] + sizes + [5, len(_HIER_GROUPS)])

    def joint(zeta):
        effects = [zeta[bounds[j]:bounds[j + 1]]
                   for j in range(len(_HIER_GROUPS))]
        beta = zeta[bounds[-3]:bounds[-2]]
        z_scale = zeta[bounds[-2]:bounds[-1]]
        scales = 100.0 * _logistic(z_scale)
        log_det = np.sum(math.log(100.0) + z_scale - 2.0 * _softplus(z_scale))
        prior = -len(scales) * math.log(100.0)
        for eff, scale in zip(effects, scales):
            prior += np.sum(-_HALF_LOG_2PI - math.log(scale)
                            - 0.5 * (eff / scale) ** 2)
        prior += np.sum(-_HALF_LOG_2PI - math.log(100.0)
                        - 0.5 * (beta / 100.0) ** 2)
        yhat = (beta[0] + beta[1] * black + beta[2] * female
                + beta[4] * (female * black) + beta[3] * v_prev)
        for eff, idx in zip(effects, index):
            yhat = yhat + eff[idx]
        loglik = -np.logaddexp(0.0, -sign * yhat)
        return float(prior + log_det + np.sum(loglik))

    return joint


def _dirichlet_exponential_nmf(model, data):
    theta_block, beta_block = model.block("theta"), model.block("beta")
    u, k = theta_block.rows, theta_block.kind.size
    i = beta_block.rows
    alpha0, lambda0 = model.hyperparams["alpha0"], model.hyperparams["lambda0"]
    y = np.asarray(data["y"], dtype=float)
    log_fact = gammaln(y + 1.0)
    split = u * (k - 1)

    def joint(zeta):
        theta, log_det = _simplex(zeta[:split].reshape(u, k - 1))
        log_beta = zeta[split:].reshape(i, k)
        beta = np.exp(log_beta)
        log_det = log_det + np.sum(log_beta)
        prior = (_dirichlet(theta, alpha0)
                 + np.sum(math.log(lambda0) - lambda0 * beta))
        rate = theta @ beta.T
        loglik = y * np.log(rate) - rate - log_fact
        return float(prior + log_det + np.sum(loglik))

    return joint


_BUILDERS = {
    "gmm": _gmm,
    "hier_logistic": _hier_logistic,
    "dirichlet_exponential_nmf": _dirichlet_exponential_nmf,
}


def prepare(model, data):
    """Reference joint ``f(zeta) -> float`` for ``model`` on ``data``."""
    return _BUILDERS[model.name](model, data)
