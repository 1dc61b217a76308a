"""Held-out predictive scoring of fitted approximations.

The score is the average over held-out points of the log posterior
predictive density, approximated by Monte Carlo over posterior draws:
mean_n log( mean_s p(x_n | theta_s) ). The inner mean is computed with
log-mean-exp and exact (fsum) accumulation, so the result is invariant to
the order of draws and of held-out points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import PosteriorDraws
from .errors import ConfigurationError, DomainError, EvaluationFailure
from .model import Dataset, ModelDefinition

__all__ = ["EvalReport", "heldout_log_predictive"]


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


def heldout_log_predictive(model: ModelDefinition, draws: PosteriorDraws,
                           heldout: Dataset) -> EvalReport:
    """Score held-out data under the posterior predictive of ``draws``."""
    if draws.size < 1:
        raise ConfigurationError("need at least one posterior draw")
    num_points = model.num_observations(heldout)
    if num_points < 1:
        raise ConfigurationError("held-out dataset has no observations")
    columns = {name: arr.tolist() for name, arr in draws.samples.items()}
    values_per_draw = [{name: col[s] for name, col in columns.items()}
                       for s in range(draws.size)]
    point_scores = []
    failed_index = None
    for n in range(num_points):
        logliks = []
        for values in values_per_draw:
            try:
                ll = model.loglik_term(values, heldout, n)
            except DomainError:
                # A draw on the edge of the support can give the point
                # exactly zero likelihood; that is a -inf log term.
                ll = -math.inf
            except (IndexError, TypeError, KeyError, ValueError) as exc:
                raise ConfigurationError(
                    f"held-out data is not shape-compatible with model "
                    f"{model.name} at point {n}: {exc}") from exc
            if ll != ll:
                raise EvaluationFailure(
                    f"NaN likelihood at held-out point {n}")
            logliks.append(ll)
        score = _log_mean_exp(logliks)
        if score == -math.inf and failed_index is None:
            failed_index = n
        point_scores.append(score)
    if failed_index is not None:
        mean = -math.inf
    else:
        mean = math.fsum(point_scores) / num_points
    return EvalReport(mean_log_predictive=mean, num_points=num_points,
                      num_draws=draws.size, failed_index=failed_index)
