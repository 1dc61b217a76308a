"""Differentiable probability models over named parameter blocks.

A :class:`ModelDefinition` couples an ordered list of constrained parameter
blocks with two pure functions: a log prior over the constrained values and
a per-observation log likelihood term. The packed unconstrained vector of
length ``model.dim`` is the coordinate system the optimizer works in;
:func:`log_joint_unconstrained` adds the block Jacobian corrections so the
result is the log joint density in those coordinates.

Evaluators must be deterministic given (dataset, values) and accept either
floats or tape variables, which is what makes the same model definition
usable for gradient evaluation, tape-free objective estimates, and held-out
scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from . import autodiff as ad
from .errors import ConfigurationError, ShapeError
from .transforms import BlockSpec

__all__ = [
    "Dataset",
    "ModelDefinition",
    "constrain_blocks",
    "log_joint_unconstrained",
    "minibatch_log_joint",
]


@dataclass(frozen=True)
class Dataset:
    """Named data entries: scalars, flat lists, or row-major nested lists."""

    entries: Mapping[str, Any]

    def __getitem__(self, name: str):
        try:
            return self.entries[name]
        except KeyError:
            raise ConfigurationError(
                f"dataset is missing entry {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def get(self, name: str, default=None):
        return self.entries.get(name, default)

    def names(self) -> list[str]:
        return list(self.entries)


@dataclass(frozen=True)
class ModelDefinition:
    """Parameter blocks plus a differentiable log joint, split into a prior
    part and per-observation likelihood terms.

    ``log_prior(values, data)`` and ``loglik_term(values, data, n)`` receive
    the constrained block values keyed by block name. ``subsample_ok`` marks
    models whose likelihood factorizes over the observation index, which is
    what minibatch scaling requires.
    """

    name: str
    blocks: tuple[BlockSpec, ...]
    log_prior: Callable[[Mapping[str, Any], Dataset], Any]
    loglik_term: Callable[[Mapping[str, Any], Dataset, int], Any]
    num_observations: Callable[[Dataset], int]
    subsample_ok: bool = True
    hyperparams: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"model {self.name}: duplicate block names in {names}")

    @property
    def dim(self) -> int:
        """Total unconstrained dimension (sum over blocks)."""
        return sum(b.unconstrained_size for b in self.blocks)

    def block(self, name: str) -> BlockSpec:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(name)


def constrain_blocks(model: ModelDefinition, zeta: Sequence[ad.Scalar]):
    """Split a packed unconstrained vector into named constrained values.

    Returns ``(values, log_det)`` where ``log_det`` is the summed Jacobian
    correction over all blocks.
    """
    if len(zeta) != model.dim:
        raise ShapeError(
            f"model {model.name}: expected {model.dim} unconstrained "
            f"coordinates, got {len(zeta)}")
    if len(zeta) and type(zeta[0]) is not ad.Var:
        zeta = [float(z) for z in zeta]
    values: dict[str, Any] = {}
    log_det = 0.0
    offset = 0
    for b in model.blocks:
        n = b.unconstrained_size
        value, ld = b.constrain(zeta[offset:offset + n])
        values[b.name] = value
        log_det = log_det + ld
        offset += n
    return values, log_det


def _joint(model, data, zeta, batch, scale):
    values, log_det = constrain_blocks(model, zeta)
    base = model.log_prior(values, data) + log_det
    total = None
    for n in batch:
        t = model.loglik_term(values, data, n)
        total = t if total is None else total + t
    if total is None:
        return base
    if scale is not None:
        total = scale * total
    return base + total


def log_joint_unconstrained(model: ModelDefinition, data: Dataset,
                            zeta: Sequence[ad.Scalar]):
    """log p(data, theta) + log|det J| at theta = constrain(zeta).

    Pass tape variables to obtain gradients via :func:`autodiff.gradient`;
    pass floats for a tape-free evaluation. A non-finite result is returned
    as-is: policy on failed evaluations belongs to the caller.
    """
    return _joint(model, data, zeta,
                  range(model.num_observations(data)), None)


def minibatch_log_joint(model: ModelDefinition, data: Dataset,
                        batch: Sequence[int], zeta: Sequence[ad.Scalar]):
    """Subsampled joint: prior + Jacobian + (N/B) * sum of batch terms.

    Scaling the batch likelihood by N/B makes the result an unbiased
    estimate of the full-data log joint under uniformly drawn batches.
    """
    if not model.subsample_ok:
        raise ConfigurationError(
            f"model {model.name}: likelihood does not factorize over "
            "observations; subsampling is not valid")
    total = model.num_observations(data)
    if len(batch) == 0:
        raise ConfigurationError("minibatch is empty")
    if len(batch) > total:
        raise ConfigurationError(
            f"minibatch size {len(batch)} exceeds {total} observations")
    for n in batch:
        if not 0 <= n < total:
            raise ConfigurationError(
                f"minibatch index {n} outside [0, {total})")
    scale = total / len(batch)
    return _joint(model, data, zeta, batch, scale)
