"""Held-out predictive scoring of fitted approximations.

The score is the average over held-out points of the log posterior
predictive density, approximated by Monte Carlo over posterior draws:
mean_n log( mean_s p(x_n | theta_s) ). The inner mean is a log-mean-exp
whose sum runs over each point's draws in sorted order, so it does not
depend on the order of the draws; the outer mean is an exact (fsum) sum
over points, so it does not depend on their order either.

Each draw scores a chunk of points with one ``loglik_term`` call, and the
contract with the model is this: a :class:`DomainError` from
``loglik_term`` concerns the whole draw, which then scores log 0 (-inf) at
every point of the chunk, and a point the draw gives zero probability (a
count above 0 at a Poisson rate of exactly 0, say) scores -inf by value,
that pair only. The zoo keeps it with one known exception: a NaN cell rate
in the two factorization models (inf times 0, which needs ``exp`` to
overflow and underflow in one draw) zeroes that draw on its chunk, not
only that (draw, cell) pair. A NaN log likelihood is an evaluation
failure, and held-out data outside the likelihood's support raises
:class:`ShapeError`, as training data does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import PosteriorDraws
from .errors import ConfigurationError, DomainError, EvaluationFailure, \
    ShapeError
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


def heldout_log_predictive(model: ModelDefinition, draws: PosteriorDraws,
                           heldout: Dataset) -> EvalReport:
    """Score held-out data under the posterior predictive of ``draws``.

    Loops over draws; each draw scores a chunk of points as one array
    expression. At most ``_SCORES_AT_ONCE`` (draw, point) scores are held at
    a time. A draw whose call raises :class:`DomainError` scores log 0
    on that chunk.
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
        # one row per point: each point's draws are contiguous, so every
        # point's sum runs the same way whatever the chunk's width
        logliks = np.empty((len(idx), draws.size))
        try:
            with np.errstate(all="ignore"):
                for s, values in enumerate(per_draw):
                    try:
                        logliks[:, s] = model.loglik_term(values, heldout,
                                                          idx)
                    except DomainError:  # the draw is out of the domain
                        logliks[:, s] = -math.inf
        except ShapeError:  # data outside the likelihood's support
            raise
        except (IndexError, TypeError, KeyError, ValueError) as exc:
            raise ConfigurationError(
                f"held-out data is not shape-compatible with model "
                f"{model.name} at points {start}..{idx[-1]}: {exc}") from exc
        # sorted, the sum does not depend on the order of the draws, and a
        # NaN sorts last: the last column is each point's max or its NaN
        logliks.sort(axis=1)
        top = logliks[:, -1]
        nan = np.isnan(top)
        if nan.any():
            raise EvaluationFailure(
                f"NaN likelihood at held-out point {idx[nan.argmax()]}")
        # log-mean-exp in place; a point whose draws all score -inf keeps
        # a shift of 0 and scores log(0) = -inf
        shift = np.where(np.isfinite(top), top, 0.0)
        logliks -= shift[:, None]
        with np.errstate(divide="ignore"):
            np.exp(logliks, out=logliks)
            scores = shift + np.log(np.add.reduce(logliks, axis=1)
                                    / draws.size)
        zero = scores == -math.inf
        if failed_index is None and zero.any():
            failed_index = int(idx[zero.argmax()])
        point_scores.extend(scores.tolist())
    if failed_index is not None:
        mean = -math.inf
    else:
        mean = math.fsum(point_scores) / num_points
    return EvalReport(mean_log_predictive=mean, num_points=num_points,
                      num_draws=draws.size, failed_index=failed_index)
