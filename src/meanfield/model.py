"""Differentiable probability models over named parameter blocks.

A :class:`ModelDefinition` couples an ordered list of constrained parameter
blocks with two pure functions: a log prior over the constrained values and
the log likelihood terms of a set of observations. The packed unconstrained
vector of length ``model.dim`` is the coordinate system the optimizer works
in. A block is layout data (a name, a transform kind, rows, scalar);
:func:`constrain_blocks` alone reads that layout, and
:func:`log_joint_unconstrained` adds the block Jacobian corrections so the
result is the log joint density in those coordinates.

Evaluators must be deterministic given (dataset, values) and be array
expressions that accept float arrays or tape values alike, which is what
makes the same model definition usable for gradient evaluation, tape-free
objective estimates, and held-out scoring. The likelihood of a whole batch
is one call: ``loglik_term(values, data, idx)`` with ``idx`` a 1-D integer
index array (``arange(N)`` for the full data, the batch for a minibatch)
returns one term per index; with an int ``idx`` it returns that single
term. The likelihood is the sum of those terms, so
:func:`minibatch_log_joint` can subsample any model.

A :class:`Dataset` checks and converts each entry to a numpy array once,
when it is built, whether it comes from JSON or from code; evaluators read
``data[name]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import transforms as tr
from .errors import ConfigurationError, ShapeError

__all__ = [
    "Dataset",
    "ModelDefinition",
    "constrain_blocks",
    "log_joint_unconstrained",
    "minibatch_log_joint",
]


def _entry_array(name: str, value) -> np.ndarray:
    """``value`` as a numpy array of ints or floats with at most 2 axes."""
    def error(problem):
        return ShapeError(f"dataset entry {name!r}: {problem}")

    try:
        arr = np.asarray(value)
    except ValueError:  # what numpy raises for rows that do not stack
        if all(isinstance(row, (list, tuple, np.ndarray)) for row in value):
            raise error("ragged rows") from None
        raise error("mixes scalars and rows") from None
    if arr.ndim > 2:
        raise error(f"nested {arr.ndim} deep; at most 2 levels are allowed")
    if not isinstance(value, np.ndarray):
        # one pass in C over the elements: numpy would read a bool as 1,
        # and an int beyond int64 as a float or an object
        flat = (chain.from_iterable(value) if arr.ndim == 2
                else value if arr.ndim else (value,))
        types = set(map(type, flat))
        for t in types - {int, float}:
            if not issubclass(t, (np.integer, np.floating)):
                raise error(f"element of type {t.__name__} is not a number")
        if types == {int} and arr.dtype != np.int64:
            raise error("integer outside the int64 range")
    if arr.dtype.kind not in "iuf":
        raise error(f"{arr.dtype} elements are not ints or floats")
    return arr


@dataclass(frozen=True)
class Dataset:
    """Named numeric data, checked and converted once, when it is built.

    ``entries`` maps names to numbers, flat lists, lists of equal-length
    rows, or int or float numpy arrays of at most two axes, and is kept as
    given. ``data[name]`` is the entry as a numpy array; a list of ints
    becomes int64, any other list float64. A ragged entry, one that mixes
    scalars with rows or nests deeper, or one holding a bool, a string or
    an int beyond int64 raises :class:`ShapeError` naming it.
    """

    entries: Mapping[str, Any]
    _arrays: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_arrays", {
            name: _entry_array(name, value)
            for name, value in self.entries.items()})

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise ConfigurationError(
                f"dataset is missing entry {name!r}") from None

    def __contains__(self, name: str) -> bool:
        # without it, ``in`` would fall back to ``self[0]``, which raises
        return name in self._arrays


@dataclass(frozen=True)
class ModelDefinition:
    """Parameter blocks plus a differentiable log joint, split into a prior
    part and per-observation likelihood terms.

    ``log_prior(values, data)`` and ``loglik_term(values, data, idx)``
    receive the constrained block values keyed by block name. ``idx`` is an
    int or a 1-D integer array of observation indices; the result is the
    term of that observation, or an array of one term per index.
    The likelihood is the sum of the terms over all observations, so
    scaling the sum over a uniformly drawn batch by N/B is unbiased for
    every model: any model can be subsampled.
    """

    name: str
    blocks: tuple[tr.BlockSpec, ...]
    log_prior: Callable[[Mapping[str, Any], Dataset], Any]
    loglik_term: Callable[[Mapping[str, Any], Dataset, Any], Any]
    num_observations: Callable[[Dataset], int]
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

    def block(self, name: str) -> tr.BlockSpec:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(name)


def constrain_blocks(model: ModelDefinition, zeta):
    """Split a packed unconstrained vector into named constrained values.

    ``zeta`` is a float array, a Var or a sequence of scalars (scalar tape
    leaves are stacked into one vector), with ``model.dim`` coordinates on
    its last axis; a leading axis, one row per posterior draw, is carried
    into every value. This is the one place the packed layout is read:
    each block's slice is reshaped to ``(..., rows, k)`` for a per-row
    block, mapped by :func:`transforms.constrain`, and reshaped to the
    leading shape for a scalar block. Returns ``(values, log_det)`` where
    ``log_det`` is the summed Jacobian correction over all blocks (and
    rows), or None when every block is Identity, which has none.
    """
    zeta = ad.as_array(zeta)
    dims = zeta.shape
    dim = model.dim
    if not dims or dims[-1] != dim:
        raise ShapeError(
            f"model {model.name}: expected {dim} unconstrained "
            f"coordinates, got {dims[-1] if dims else None}")
    lead = dims[:-1]
    values: dict[str, Any] = {}
    log_det = None
    offset = 0
    for b in model.blocks:
        n = b.unconstrained_size
        part = zeta if n == dim else zeta[..., offset:offset + n]
        offset += n
        if b.rows is not None:
            part = part.reshape(lead + (b.rows, tr.unconstrained_dim(b.kind)))
        theta, ld = tr.constrain(b.kind, part)
        values[b.name] = theta.reshape(lead) if b.scalar else theta
        if not isinstance(b.kind, tr.Identity):  # its log_det is 0
            log_det = ld if log_det is None else log_det + ld
    return values, log_det


def _joint(model, data, zeta, idx, scale):
    values, log_det = constrain_blocks(model, zeta)
    out = model.log_prior(values, data)
    if log_det is not None:
        out = out + log_det
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
