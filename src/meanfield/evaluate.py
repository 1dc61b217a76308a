"""Held-out predictive scoring of fitted approximations.

The score is the average over held-out points of the log posterior
predictive density, approximated by Monte Carlo over posterior draws:
mean_n log( mean_s p(x_n | theta_s) ). The inner mean is computed with
log-mean-exp and exact (fsum) accumulation, so the result is invariant to
the order of draws and of held-out points.

A (draw, point) pair outside the likelihood's support (a Poisson rate of
exactly 0 in one cell, say) scores a log likelihood of -inf: that pair
only, not the whole draw. A NaN log likelihood is an evaluation failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import PosteriorDraws
from .errors import ConfigurationError, DomainError, EvaluationFailure
from .model import Dataset, ModelDefinition

__all__ = ["EvalReport", "heldout_log_predictive"]

# (draw, point) log likelihoods held at once: 512 KiB of float64
_SCORES_AT_ONCE = 1 << 16


@dataclass(frozen=True)
class EvalReport:
    mean_log_predictive: float
    num_points: int
    num_draws: int
    # Index of the first held-out point to which every draw assigned zero
    # likelihood; the score is -inf in that case.
    failed_index: int | None = None


def _log_mean_exp(values: list[float]) -> float:
    m = max(values)
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(math.exp(v - m) for v in values)
                        / len(values))


def _draw_logliks(model, values, heldout, idx):
    """Log likelihood of each point in ``idx`` under one draw."""
    try:
        return model.loglik_term(values, heldout, idx)
    except DomainError:
        # The failure may belong to some points only (one cell's Poisson
        # rate is exactly 0, say): score the points one at a time, so that
        # only the pairs out of the support get a -inf log term.
        return [_point_loglik(model, values, heldout, n)
                for n in idx.tolist()]


def _point_loglik(model, values, heldout, n):
    try:
        return model.loglik_term(values, heldout, n)
    except DomainError:
        # zero likelihood: a draw on the edge of the support
        return -math.inf


def heldout_log_predictive(model: ModelDefinition, draws: PosteriorDraws,
                           heldout: Dataset) -> EvalReport:
    """Score held-out data under the posterior predictive of ``draws``.

    Loops over draws; each draw scores a chunk of points as one array
    expression. At most ``_SCORES_AT_ONCE`` (draw, point) scores are held at
    a time.
    """
    if draws.size < 1:
        raise ConfigurationError("need at least one posterior draw")
    num_points = model.num_observations(heldout)
    if num_points < 1:
        raise ConfigurationError("held-out dataset has no observations")
    per_draw = [{name: arr[s] for name, arr in draws.samples.items()}
                for s in range(draws.size)]
    step = max(1, _SCORES_AT_ONCE // draws.size)
    point_scores = []
    failed_index = None
    for start in range(0, num_points, step):
        idx = np.arange(start, min(start + step, num_points))
        logliks = np.empty((draws.size, len(idx)))
        try:
            with np.errstate(all="ignore"):
                for s, values in enumerate(per_draw):
                    logliks[s] = _draw_logliks(model, values, heldout, idx)
        except (IndexError, TypeError, KeyError, ValueError) as exc:
            raise ConfigurationError(
                f"held-out data is not shape-compatible with model "
                f"{model.name} at points {start}..{idx[-1]}: {exc}") from exc
        nan = np.isnan(logliks).any(axis=0)
        if nan.any():
            raise EvaluationFailure(
                f"NaN likelihood at held-out point {idx[nan.argmax()]}")
        for j, n in enumerate(idx.tolist()):
            score = _log_mean_exp(logliks[:, j].tolist())
            if score == -math.inf and failed_index is None:
                failed_index = n
            point_scores.append(score)
    if failed_index is not None:
        mean = -math.inf
    else:
        mean = math.fsum(point_scores) / num_points
    return EvalReport(mean_log_predictive=mean, num_points=num_points,
                      num_draws=draws.size, failed_index=failed_index)
