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
is one call: ``loglik_term(values, data, idx)`` with ``idx`` a slice or a
1-D integer index array returns one term per observation it picks; with an
int ``idx`` it returns that single term. ``_observations`` picks them for
every joint: the full data is ``slice(None)``, at which a model reads
views of its data, not copies; a minibatch is its index array, the
likelihood scaled by N/B. A model that needs integer positions converts
with ``np.arange(n)[idx]``, which takes an int, a slice and an array.
(Held-out scoring passes ``arange`` blocks of points, which it reports by
position.) The likelihood is the sum of those terms, so
:func:`minibatch_log_joint` can subsample any model. Both call one joint,
``_joint(model, data, zeta, idx, scale)``, which the engine's gradient
tapes call directly. ``_joint`` adds the likelihood to
``_prior_part(model, data, zeta)``, the values and their log prior +
log-det, which objective estimates call on all their draws at once.

Values may carry leading draw axes, one draw per index, on the tape-free
float path and on the tape alike: :func:`constrain_blocks` carries them
from the rows of ``zeta`` into every value and returns the log-det per
draw, ``log_prior`` returns one value per draw, ``loglik_term`` returns
shape ``(..., n)`` for the n observations ``idx`` picks, and the joint
sums the likelihood over the last axis. Objective estimates score the
prior of all their draws in one call; their likelihood, held-out scoring
and the gradient draws of an iteration take a chunk of draws per call
(:func:`draw_chunks`; a chunk of gradient draws is one tape, whose sweep
gives each draw its own gradient because no operation mixes draws); a
chunk of one draw has no draw axis. A :class:`DomainError` from a call
concerns the draws of the call: a call that raises is rerun one draw at
a time (after an estimate's prior call raises, each chunk's whole joint
is scored per call), and a draw that raises alone is out of the domain
(the engine drops or redraws it, held-out scoring gives it log 0); a
point the draw gives zero probability scores -inf; data outside the
likelihood's support raises :class:`ShapeError`.

A :class:`Dataset` checks and converts each entry to a numpy array once,
when it is built, whether it comes from JSON or from code, and holds only
those arrays; evaluators read ``data[name]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import transforms as tr
from .errors import ConfigurationError, DomainError, ShapeError

__all__ = [
    "Dataset",
    "ModelDefinition",
    "constrain_blocks",
    "draw_chunks",
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
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise error(f"value {arr[~np.isfinite(arr)][0]} is not finite")
    return arr


class Dataset:
    """Named numeric data, checked and converted once, when it is built.

    It is built from a mapping of names to numbers, flat lists, lists of
    equal-length rows, or int or float numpy arrays of at most two axes.
    ``data[name]`` is the entry as a numpy array; a list of ints becomes
    int64, any other list float64, and an array is kept as it is. Only
    the arrays are held, not the mapping. A ragged entry, one that mixes
    scalars with rows or nests deeper, one holding a bool, a string or an
    int beyond int64, or a float that is NaN or infinite raises
    :class:`ShapeError` naming it.
    """

    def __init__(self, entries: Mapping[str, Any]):
        self._arrays = {name: _entry_array(name, value)
                        for name, value in entries.items()}

    @property
    def entries(self) -> dict:
        """The JSON form, ``{name: array.tolist()}``, built on each access."""
        return {name: arr.tolist() for name, arr in self._arrays.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise ConfigurationError(
                f"dataset is missing entry {name!r}") from None

    def __contains__(self, name: str) -> bool:
        # without it, ``in`` would fall back to ``self[0]``, which raises
        return name in self._arrays


# (draw, point) pairs a model call of draw_chunks scores at most, unless
# a single draw has more points
_PAIRS_PER_CALL = 4096

# kinds whose adjacent blocks share one transform call when their bounds
# are equal: each maps every coordinate on its own
_MERGEABLE = (tr.LowerBound, tr.UpperBound, tr.Interval)


@dataclass(frozen=True)
class ModelDefinition:
    """Parameter blocks plus a differentiable log joint, split into a prior
    part and per-observation likelihood terms.

    ``log_prior(values, data)`` and ``loglik_term(values, data, idx)``
    receive the constrained block values keyed by block name, with any
    leading draw axes. ``idx`` is an int, a slice or a 1-D integer array
    of observation indices; the result is the term of that observation,
    or an array of one term per observation picked on the last axis, per
    draw. The full data is ``slice(None)``; a model that needs integer
    positions converts with ``np.arange(n)[idx]``.
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

    @cached_property
    def runs(self) -> tuple:
        """The blocks in packed order, grouped for :func:`constrain_blocks`.

        A run is a maximal sequence of adjacent LowerBound, UpperBound or
        Interval blocks of one kind with equal bounds (their dims may
        differ), or a single block of another kind: an Identity run would
        add a slice and save none. A run is ``(kind, cut, rows,
        members)``: the kind over the run's coordinates ``zeta[..., cut]``
        (``cut`` None for all of them), the ``(rows, k)`` shape they take
        first for a single per-row block, and one ``(name, key, shape)``
        per block: its value is the run's value at ``[..., key]`` (all of
        it if None), reshaped to ``(..., *shape)`` if shape is not None.
        """
        groups = []
        for b in self.blocks:
            last = groups[-1][-1].kind if groups else None
            if (isinstance(b.kind, _MERGEABLE) and type(last) is type(b.kind)
                    and replace(last, dim=b.kind.dim) == b.kind):
                groups[-1].append(b)
            else:
                groups.append([b])
        runs, start = [], 0
        for group in groups:
            size = sum(b.unconstrained_size for b in group)
            cut = None if size == self.dim else slice(start, start + size)
            start += size
            if len(group) == 1:
                b, = group
                rows = (None if b.rows is None
                        else (b.rows, tr.unconstrained_dim(b.kind)))
                shape = () if b.scalar else None
                runs.append((b.kind, cut, rows, ((b.name, None, shape),)))
                continue
            members, at = [], 0
            for b in group:
                n = b.unconstrained_size
                key = at if b.scalar else slice(at, at + n)
                shape = None if b.rows is None else (b.rows, b.kind.dim)
                members.append((b.name, key, shape))
                at += n
            kind = replace(group[0].kind, dim=size)
            runs.append((kind, cut, None, tuple(members)))
        return tuple(runs)

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
    into every value. This is the one place the packed layout is read. It
    walks ``model.runs``: each run's coordinates are sliced once and mapped
    by one :func:`transforms.constrain` call, then each block's value is
    cut out of the run's by :func:`autodiff.take`, at an int for a scalar
    block, else at a slice (reshaped to ``(..., rows, k)`` if per-row).
    Returns ``(values, log_det)`` where ``log_det`` is the Jacobian
    correction per draw, summed over all runs (and rows), or None when
    every block is Identity, which has none.
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
    for kind, cut, rows, members in model.runs:
        part = zeta if cut is None else zeta[..., cut]
        if rows is not None:
            part = part.reshape(lead + rows)
        theta, ld = tr.constrain(kind, part, len(lead))
        for name, key, shape in members:
            value = theta if key is None else ad.take(theta, key)
            values[name] = value if shape is None \
                else value.reshape(lead + shape)
        if not isinstance(kind, tr.Identity):  # its log_det is 0
            log_det = ld if log_det is None else log_det + ld
    return values, log_det


def _prior_part(model, data, zeta):
    """The values at ``zeta`` and the joint's prior part, log prior +
    log-det."""
    values, log_det = constrain_blocks(model, zeta)
    out = model.log_prior(values, data)
    return values, out if log_det is None else out + log_det


def _observations(model: ModelDefinition, data: Dataset, batch=None):
    """``(idx, points, scale)`` of the observations an evaluation reads:
    ``slice(None)`` (None if there are none), their count and no scale, or
    the checked index array of ``batch``, its length and N/B."""
    total = model.num_observations(data)
    if batch is None:
        return slice(None) if total else None, total, None
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
    return idx, len(idx), total / len(idx)


def _joint(model, data, zeta, idx, scale):
    """The joint at ``zeta`` over the observations ``idx`` (a slice or a
    1-D index array; None for no observations, and the joint is its
    prior part), the likelihood scaled by ``scale`` unless it is None."""
    values, out = _prior_part(model, data, zeta)
    if idx is not None:
        lik = ad.sum(model.loglik_term(values, data, idx), -1)
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
    idx, _, scale = _observations(model, data)
    return _joint(model, data, zeta, idx, scale)


def minibatch_log_joint(model: ModelDefinition, data: Dataset,
                        batch: Sequence[int], zeta):
    """Subsampled joint: prior + Jacobian + (N/B) * sum of batch terms.

    Scaling the batch likelihood by N/B makes the result an unbiased
    estimate of the full-data log joint under uniformly drawn batches.
    """
    idx, _, scale = _observations(model, data, batch)
    return _joint(model, data, zeta, idx, scale)


def draw_chunks(score: Callable[[Any], Any], num_draws: int, points: int):
    """Evaluate ``score`` over ``num_draws`` draws, one call per chunk.

    ``score(key)`` evaluates the draws at ``key``: a slice of two or more
    draws, and the result has a leading draw axis, or one draw's int
    index, and the result has none (the one-draw path). A chunk holds
    ``_PAIRS_PER_CALL // points`` draws (at least one), so that a call
    scores a bounded number of (draw, point) pairs. A chunk that raises
    :class:`DomainError` is rerun one draw at a time: the error is charged
    to the draws that raise it alone. Yields ``(key, result)`` in draw
    order, with result None for a draw that raised.
    """
    size = max(1, _PAIRS_PER_CALL // max(points, 1))
    for start in range(0, num_draws, size):
        stop = min(start + size, num_draws)
        if stop - start > 1:
            key = slice(start, stop)
            try:
                result = score(key)
            except DomainError:
                pass
            else:
                yield key, result
                continue
        for s in range(start, stop):
            try:
                result = score(s)
            except DomainError:
                result = None
            yield s, result
