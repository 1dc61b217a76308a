"""Differentiable probability models over named parameter blocks.

A :class:`ModelDefinition` couples an ordered list of constrained parameter
blocks with two pure functions: a log prior over the constrained values and
the log likelihood terms of a set of observations. The packed unconstrained
vector of length ``model.dim`` is the coordinate system the optimizer works
in; :func:`log_joint_unconstrained` adds the block Jacobian corrections so
the result is the log joint density in those coordinates.

Evaluators must be deterministic given (dataset, values) and be array
expressions that accept float arrays or tape values alike, which is what
makes the same model definition usable for gradient evaluation, tape-free
objective estimates, and held-out scoring. The likelihood of a whole batch
is one call: ``loglik_term(values, data, idx)`` with ``idx`` a 1-D integer
index array (``arange(N)`` for the full data, the batch for a minibatch)
returns one term per index; with an int ``idx`` it returns that single
term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence

import numpy as np

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
    _arrays: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def array(self, name: str) -> np.ndarray:
        """Entry ``name`` as a numpy array, converted once per dataset."""
        arr = self._arrays.get(name)
        if arr is None:
            arr = self._arrays[name] = np.asarray(self[name])
        return arr

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

    ``log_prior(values, data)`` and ``loglik_term(values, data, idx)``
    receive the constrained block values keyed by block name. ``idx`` is an
    int or a 1-D integer array of observation indices; the result is the
    term of that observation, or an array of one term per index.
    ``subsample_ok`` marks models whose likelihood factorizes over the
    observation index, which is what minibatch scaling requires.
    """

    name: str
    blocks: tuple[BlockSpec, ...]
    log_prior: Callable[[Mapping[str, Any], Dataset], Any]
    loglik_term: Callable[[Mapping[str, Any], Dataset, Any], Any]
    num_observations: Callable[[Dataset], int]
    subsample_ok: bool = True
    hyperparams: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"model {self.name}: duplicate block names in {names}")

    @cached_property
    def dim(self) -> int:
        """Total unconstrained dimension (sum over blocks)."""
        return sum(b.unconstrained_size for b in self.blocks)

    def block(self, name: str) -> BlockSpec:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(name)


def constrain_blocks(model: ModelDefinition, zeta):
    """Split a packed unconstrained vector into named constrained values.

    ``zeta`` is a float array, a Var or a sequence of scalars (scalar tape
    leaves are stacked into one vector), with ``model.dim`` coordinates on
    its last axis; a leading axis, one row per posterior draw, is carried
    into every value. Returns ``(values, log_det)`` where ``log_det`` is
    the summed Jacobian correction over all blocks (and rows).
    """
    zeta = ad.as_array(zeta)
    dims = zeta.shape
    dim = model.dim
    if not dims or dims[-1] != dim:
        raise ShapeError(
            f"model {model.name}: expected {dim} unconstrained "
            f"coordinates, got {dims[-1] if dims else None}")
    values: dict[str, Any] = {}
    log_det = None
    offset = 0
    for b in model.blocks:
        n = b.unconstrained_size
        part = zeta if n == dim else zeta[..., offset:offset + n]
        values[b.name], ld = b.constrain(part)
        log_det = ld if log_det is None else log_det + ld
        offset += n
    return values, log_det


def _joint(model, data, zeta, idx, scale):
    values, log_det = constrain_blocks(model, zeta)
    out = model.log_prior(values, data) + log_det
    if len(idx):
        lik = ad.sum(model.loglik_term(values, data, idx))
        if scale is not None:
            lik = scale * lik
        out = out + lik
    return out


def log_joint_unconstrained(model: ModelDefinition, data: Dataset, zeta):
    """log p(data, theta) + log|det J| at theta = constrain(zeta).

    Pass a Var (or a list of scalar leaves) to obtain gradients via
    :func:`autodiff.gradient`; pass floats for a tape-free evaluation. A
    non-finite result is returned as-is (numpy may warn of the overflow):
    policy on failed evaluations belongs to the caller.
    """
    return _joint(model, data, zeta,
                  np.arange(model.num_observations(data)), None)


def minibatch_log_joint(model: ModelDefinition, data: Dataset,
                        batch: Sequence[int], zeta):
    """Subsampled joint: prior + Jacobian + (N/B) * sum of batch terms.

    Scaling the batch likelihood by N/B makes the result an unbiased
    estimate of the full-data log joint under uniformly drawn batches.
    """
    if not model.subsample_ok:
        raise ConfigurationError(
            f"model {model.name}: likelihood does not factorize over "
            "observations; subsampling is not valid")
    total = model.num_observations(data)
    idx = np.asarray(batch)
    if idx.size == 0:
        raise ConfigurationError("minibatch is empty")
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ConfigurationError(
            f"minibatch must be a list of indices, got {batch!r}")
    if len(idx) > total:
        raise ConfigurationError(
            f"minibatch size {len(idx)} exceeds {total} observations")
    outside = idx[(idx < 0) | (idx >= total)]
    if outside.size:
        raise ConfigurationError(
            f"minibatch index {outside[0]} outside [0, {total})")
    return _joint(model, data, zeta, idx, total / len(idx))
