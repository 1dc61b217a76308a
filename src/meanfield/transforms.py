"""Bijections between constrained parameter supports and unconstrained reals.

Each transform kind maps a constrained vector theta to an unconstrained
vector zeta and back, and reports log|det J| of the constraining direction
(unconstrained -> constrained) so densities can be corrected for the change
of variables. :func:`constrain` is an array expression over the last axis,
on float arrays or tape values alike, so gradients flow through the
transform and its Jacobian term. :func:`unconstrain` and
:func:`check_value` are float array expressions over the same axes (they
initialize from or inspect constrained values, never differentiated).

Formulas:

* LowerBound(a):  theta = a + exp(zeta),            log_det = sum(zeta)
* UpperBound(b):  theta = b - exp(zeta),            log_det = sum(zeta)
* Interval(a,b):  theta = a + (b-a)*logistic(zeta),
                  log_det = sum(log(b-a) + log s + log(1-s))
* Simplex(K):     stick-breaking with a log(1/(K-k)) offset so zeta = 0
                  maps to the uniform simplex; every component is the exp
                  of its log, so no component rounds to 0
* Ordered(K):     theta_1 = zeta_1, theta_k = theta_{k-1} + exp(zeta_k)
* PositiveOrdered(K): like Ordered but theta_1 = exp(zeta_1)
* Identity:       theta = zeta, log_det = 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from . import autodiff as ad
from .errors import DomainError, ShapeError

__all__ = [
    "Identity", "LowerBound", "UpperBound", "Interval",
    "Simplex", "Ordered", "PositiveOrdered",
    "TransformKind", "BlockSpec",
    "unconstrained_dim", "constrained_dim", "constrain", "unconstrain",
    "check_value",
]


@dataclass(frozen=True)
class Identity:
    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("Identity: dim must be >= 1")


@dataclass(frozen=True)
class LowerBound:
    bound: float
    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("LowerBound: dim must be >= 1")


@dataclass(frozen=True)
class UpperBound:
    bound: float
    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("UpperBound: dim must be >= 1")


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float
    dim: int = 1

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("Interval: requires lower < upper")
        if self.dim < 1:
            raise ValueError("Interval: dim must be >= 1")


@dataclass(frozen=True)
class Simplex:
    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("Simplex: size must be >= 2")


@dataclass(frozen=True)
class Ordered:
    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("Ordered: size must be >= 2")


@dataclass(frozen=True)
class PositiveOrdered:
    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("PositiveOrdered: size must be >= 2")


TransformKind = Union[
    Identity, LowerBound, UpperBound, Interval, Simplex, Ordered,
    PositiveOrdered,
]


def unconstrained_dim(kind: TransformKind) -> int:
    """Number of free coordinates; a K-simplex has K-1."""
    if isinstance(kind, Simplex):
        return kind.size - 1
    if isinstance(kind, (Ordered, PositiveOrdered)):
        return kind.size
    return kind.dim


def constrained_dim(kind: TransformKind) -> int:
    if isinstance(kind, (Simplex, Ordered, PositiveOrdered)):
        return kind.size
    return kind.dim


def _check_len(kind, got, expected):
    if got != expected:
        raise ShapeError(
            f"{type(kind).__name__}: expected length {expected}, got {got}")


def _stick_offsets(k: int) -> np.ndarray:
    # log(K-1-i) for i = 0..K-2: zeta = 0 maps to the uniform simplex
    return np.log(np.arange(k - 1, 0, -1, dtype=float))


def constrain(kind: TransformKind, zeta):
    """Map unconstrained ``zeta`` into the support of ``kind``.

    ``zeta`` is a float array, a Var or a sequence of scalars, with the
    kind's unconstrained dimension as its last axis; leading axes (rows of
    a block, posterior draws) are mapped independently. Returns
    ``(theta, log_det)``: ``theta`` has the constrained dimension as its
    last axis and ``log_det`` is log|det J| of the map, summed over every
    leading index.
    """
    zeta = ad.as_array(zeta)
    dims = zeta.shape
    _check_len(kind, dims[-1] if dims else None, unconstrained_dim(kind))
    if isinstance(kind, Identity):
        return zeta, 0.0
    if isinstance(kind, LowerBound):
        return kind.bound + ad.exp(zeta), ad.sum(zeta)
    if isinstance(kind, UpperBound):
        return kind.bound - ad.exp(zeta), ad.sum(zeta)
    if isinstance(kind, Interval):
        width = kind.upper - kind.lower
        theta = kind.lower + width * ad.logistic(zeta)
        # log s + log(1-s) == z - 2*softplus(z)
        log_det = ad.sum(math.log(width) + zeta - 2.0 * ad.softplus(zeta))
        return theta, log_det
    if isinstance(kind, Simplex):
        # With t = zeta - offsets and c the running sum of softplus(t), the
        # stick left before piece i is exp(-(c_i - softplus(t_i))) and the
        # piece takes its share logistic(t_i) = exp(t_i - softplus(t_i)):
        # log theta_i = t_i - c_i, and the last piece is exp(-c_{K-1}). No
        # piece is the difference of two rounded sticks, so none rounds
        # to 0 when another saturates.
        t = zeta - _stick_offsets(kind.size)
        sp = ad.softplus(t)
        c = ad.cumsum(sp)
        log_head = t - c
        theta = ad.exp(ad.concat([log_head, -c[..., -1:]]))
        # sum of log(stick) + log s + log(1 - s) over the pieces
        return theta, ad.sum(log_head - sp)
    if isinstance(kind, Ordered):
        steps = ad.concat([zeta[..., :1], ad.exp(zeta[..., 1:])])
        return ad.cumsum(steps), ad.sum(zeta[..., 1:])
    if isinstance(kind, PositiveOrdered):
        return ad.cumsum(ad.exp(zeta)), ad.sum(zeta)
    raise TypeError(f"unknown transform kind {kind!r}")


def _require(kind, inside, values, message):
    """Raise :class:`DomainError` unless ``inside`` holds everywhere; the
    first of ``values`` where it fails, in row order, fills ``message``."""
    if not inside.all():
        raise DomainError(
            f"{kind!r}: " + message.format(values[~inside][0]))


def check_value(kind: TransformKind, theta) -> None:
    """Raise :class:`DomainError` unless ``theta`` is finite and lies
    strictly inside the support of ``kind`` (boundaries are rejected).

    ``theta`` has the kind's constrained dimension as its last axis;
    leading axes are rows, each checked on its own.
    """
    theta = np.asarray(theta, dtype=float)
    _check_len(kind, theta.shape[-1] if theta.ndim else None,
               constrained_dim(kind))
    _require(kind, np.isfinite(theta), theta, "value {} not finite")
    if isinstance(kind, Identity):
        return
    if isinstance(kind, LowerBound):
        _require(kind, theta > kind.bound, theta,
                 "value {} not above the bound")
    elif isinstance(kind, UpperBound):
        _require(kind, theta < kind.bound, theta,
                 "value {} not below the bound")
    elif isinstance(kind, Interval):
        _require(kind, (kind.lower < theta) & (theta < kind.upper), theta,
                 "value {} not strictly inside")
    elif isinstance(kind, Simplex):
        total = np.add.reduce(theta, axis=-1)
        _require(kind, abs(total - 1.0) <= 1e-8, total,
                 "components sum to {}, not 1")
        _require(kind, theta > 0.0, theta, "component {} not positive")
    elif isinstance(kind, (Ordered, PositiveOrdered)):
        if isinstance(kind, PositiveOrdered):
            _require(kind, theta[..., 0] > 0.0, theta[..., 0],
                     "first component {} not positive")
        _require(kind, theta[..., 1:] > theta[..., :-1], theta[..., 1:],
                 "component {} not above the one before it")
    else:
        raise TypeError(f"unknown transform kind {kind!r}")


def unconstrain(kind: TransformKind, theta) -> list[float]:
    """Invert :func:`constrain` for strictly in-support float values.

    ``theta`` has the kind's constrained dimension as its last axis;
    leading axes are rows. Returns the unconstrained coordinates as one
    flat list, row after row: the packed layout of a block.
    """
    theta = np.asarray(theta, dtype=float)
    check_value(kind, theta)
    if isinstance(kind, Identity):
        zeta = theta
    elif isinstance(kind, LowerBound):
        zeta = np.log(theta - kind.bound)
    elif isinstance(kind, UpperBound):
        zeta = np.log(kind.bound - theta)
    elif isinstance(kind, Interval):
        zeta = np.log(theta - kind.lower) - np.log(kind.upper - theta)
    elif isinstance(kind, Simplex):
        # The stick left after component i is the sum of the later ones,
        # accumulated from the end: one minus a prefix sum cancels when the
        # later components are tiny.
        rest = np.cumsum(theta[..., :0:-1], axis=-1)[..., ::-1]
        zeta = (np.log(theta[..., :-1]) - np.log(rest)
                + _stick_offsets(kind.size))
    elif isinstance(kind, Ordered):
        zeta = np.concatenate(
            [theta[..., :1], np.log(np.diff(theta, axis=-1))], axis=-1)
    elif isinstance(kind, PositiveOrdered):
        zeta = np.log(np.diff(theta, axis=-1, prepend=0.0))
    else:
        raise TypeError(f"unknown transform kind {kind!r}")
    return zeta.ravel().tolist()


@dataclass(frozen=True)
class BlockSpec:
    """One named parameter block: a transform kind plus its layout.

    ``rows=None`` means the kind is applied once (a scalar or a single
    vector); ``rows=r`` applies the kind independently to each of ``r``
    rows. ``scalar=True`` marks a one-dimensional block whose constrained
    value is exposed as a bare scalar instead of a length-1 list.
    """

    name: str
    kind: TransformKind
    rows: int | None = None
    scalar: bool = False

    def __post_init__(self):
        if self.rows is not None and self.rows < 1:
            raise ValueError(f"block {self.name}: rows must be >= 1")
        if self.scalar and (self.rows is not None
                            or constrained_dim(self.kind) != 1):
            raise ValueError(
                f"block {self.name}: scalar layout needs a 1-dim kind")

    @cached_property
    def unconstrained_size(self) -> int:
        per_row = unconstrained_dim(self.kind)
        return per_row * (self.rows if self.rows is not None else 1)

    def column_names(self) -> list[str]:
        """Flattened 1-based column labels for the constrained value."""
        d = constrained_dim(self.kind)
        if self.rows is None:
            return [f"{self.name}.{j}" for j in range(1, d + 1)]
        return [f"{self.name}.{r}.{j}"
                for r in range(1, self.rows + 1)
                for j in range(1, d + 1)]

    def constrain(self, zeta):
        """Constrain a packed slice; returns ``(value, log_det)``.

        The last axis of ``zeta`` holds the block's unconstrained
        coordinates; a leading axis (one per posterior draw, say) is
        carried through to the value.
        """
        zeta = ad.as_array(zeta)
        dims = zeta.shape
        if not dims or dims[-1] != self.unconstrained_size:
            raise ShapeError(
                f"block {self.name}: expected {self.unconstrained_size} "
                f"unconstrained coordinates, got {dims[-1] if dims else None}")
        if self.rows is not None:
            zeta = zeta.reshape(dims[:-1] + (self.rows,
                                             unconstrained_dim(self.kind)))
        theta, log_det = constrain(self.kind, zeta)
        if self.scalar:
            theta = theta.reshape(dims[:-1])
        return theta, log_det

    def unconstrain(self, value) -> list[float]:
        """Pack a constrained value back into unconstrained coordinates."""
        d = constrained_dim(self.kind)
        shape = (d,) if self.rows is None else (self.rows, d)
        if self.scalar:
            shape = ()
        theta = np.asarray(value, dtype=float)
        if theta.shape != shape:
            raise ShapeError(
                f"block {self.name}: expected a value of shape {shape}, "
                f"got {theta.shape}")
        return unconstrain(self.kind, theta.reshape(-1, d))
