"""Bijections between constrained parameter supports and unconstrained reals.

Each transform kind maps a constrained vector theta to an unconstrained
vector zeta and back, and reports log|det J| of the constraining direction
(unconstrained -> constrained) so densities can be corrected for the change
of variables. :func:`constrain` is an array expression over the last axis,
on float arrays or tape values alike, so gradients flow through the
transform and its Jacobian term. An elementwise kind (LowerBound,
UpperBound, Interval) and Simplex record their value and their log-det as
one tape node each, with closed-form partials. :func:`unconstrain` and
:func:`check_value` are float array expressions over the same axes (they
initialize from or inspect constrained values, never differentiated).

A kind is checked when it is built (``dim`` an integer >= 1, ``size`` one
>= 2, every bound finite; else ``ValueError``), one check per family of
kinds; anything else passed as a kind raises ``TypeError``.

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

import functools
import math
import numbers
from dataclasses import dataclass, fields
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


def _check_count(owner: str, field: str, value, least: int) -> None:
    """ValueError unless ``value`` is an int (not a bool) >= ``least``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError(
            f"{owner}: {field} must be an integer >= {least}, got {value!r}")


class _Elementwise:
    """Kinds that map each of ``dim`` coordinates between finite bounds."""

    def __post_init__(self):
        name = type(self).__name__
        _check_count(name, "dim", self.dim, 1)
        for f in fields(self)[:-1]:  # the bounds; dim comes last
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{name}: {f.name} must be finite, "
                                 f"got {value!r}")


class _Sequence:
    """Kinds that map ``size`` coupled components."""

    def __post_init__(self):
        _check_count(type(self).__name__, "size", self.size, 2)


@dataclass(frozen=True)
class Identity(_Elementwise):
    dim: int = 1


@dataclass(frozen=True)
class LowerBound(_Elementwise):
    bound: float
    dim: int = 1


@dataclass(frozen=True)
class UpperBound(_Elementwise):
    bound: float
    dim: int = 1


@dataclass(frozen=True)
class Interval(_Elementwise):
    lower: float
    upper: float
    dim: int = 1

    def __post_init__(self):
        super().__post_init__()
        if not self.lower < self.upper:
            raise ValueError("Interval: requires lower < upper")


@dataclass(frozen=True)
class Simplex(_Sequence):
    size: int


@dataclass(frozen=True)
class Ordered(_Sequence):
    size: int


@dataclass(frozen=True)
class PositiveOrdered(_Sequence):
    size: int


TransformKind = Union[
    Identity, LowerBound, UpperBound, Interval, Simplex, Ordered,
    PositiveOrdered,
]


def constrained_dim(kind: TransformKind) -> int:
    """Length of a value; raises TypeError for anything but a kind."""
    if isinstance(kind, _Elementwise):
        return kind.dim
    if isinstance(kind, _Sequence):
        return kind.size
    raise TypeError(f"unknown transform kind {kind!r}")


def unconstrained_dim(kind: TransformKind) -> int:
    """Number of free coordinates; a K-simplex has K-1."""
    d = constrained_dim(kind)
    return d - 1 if isinstance(kind, Simplex) else d


def _check_len(kind, got, expected):
    if got != expected:
        raise ShapeError(
            f"{type(kind).__name__}: expected length {expected}, got {got}")


@functools.lru_cache(maxsize=64)
def _stick_offsets(k: int) -> np.ndarray:
    # log(K-1-i) for i = 0..K-2: zeta = 0 maps to the uniform simplex;
    # built once per K and shared, so read-only
    offsets = np.log(np.arange(k - 1, 0, -1, dtype=float))
    offsets.flags.writeable = False
    return offsets


def constrain(kind: TransformKind, zeta, draws: int = 0):
    """Map unconstrained ``zeta`` into the support of ``kind``.

    ``zeta`` is a float array, a Var or a sequence of scalars, with the
    kind's unconstrained dimension as its last axis; leading axes (posterior
    draws, then rows of a block) are mapped independently. The first
    ``draws`` axes are draws. Returns ``(theta, log_det)``: ``theta`` has
    the constrained dimension as its last axis and ``log_det`` is log|det
    J| of the map per draw, summed over the other axes (a scalar when
    ``draws`` is 0).
    """
    zeta = ad.as_array(zeta)
    dims = zeta.shape
    _check_len(kind, dims[-1] if dims else None, unconstrained_dim(kind))
    if isinstance(kind, Identity):
        return zeta, 0.0
    axes = tuple(range(draws, len(dims))) if draws else None
    keep = dims[:draws] + (1,) * (len(dims) - draws)

    def per_draw(g):  # a log-det's adjoint, to broadcast over block axes
        return g if axes is None else g.reshape(keep)

    v = ad.value(zeta)
    if isinstance(kind, (LowerBound, UpperBound)):
        e = np.exp(v)
        if isinstance(kind, LowerBound):
            theta = ad.node((zeta,), kind.bound + e, (lambda g: g * e,))
        else:
            theta = ad.node((zeta,), kind.bound - e, (lambda g: -g * e,))
        return theta, ad.sum(zeta, axes)
    if isinstance(kind, Interval):
        width = kind.upper - kind.lower
        s = ad.logistic(v)
        theta = ad.node((zeta,), kind.lower + width * s,
                        (lambda g: g * width * s * (1.0 - s),))
        # log s + log(1-s) == z - 2*softplus(z)
        log_det = ad.node(
            (zeta,),
            ad.sum(math.log(width) + v - 2.0 * ad.softplus(v), axes),
            (lambda g: per_draw(g) * (1.0 - 2.0 * s),))
        return theta, log_det
    if isinstance(kind, Simplex):
        # With t = zeta - offsets and c the running sum of softplus(t), the
        # stick left before piece i is exp(-(c_i - softplus(t_i))) and the
        # piece takes its share logistic(t_i) = exp(t_i - softplus(t_i)):
        # log theta_i = t_i - c_i, and the last piece is exp(-c_{K-1}). No
        # piece is the difference of two rounded sticks, so none rounds
        # to 0 when another saturates.
        size = kind.size
        t = v - _stick_offsets(size)
        # np.logaddexp, not ad.softplus: the stick values, and through
        # them the fits of the simplex models, keep their bits
        sp = np.logaddexp(0.0, t)
        c = ad.cumsum(sp)
        log_head = t - c
        out = np.exp(np.concatenate([log_head, -c[..., -1:]], axis=-1))
        # sum of log(stick) + log s + log(1 - s) over the pieces
        log_det = np.add.reduce(log_head - sp, axis=axes)
        if type(zeta) is not ad.Var:
            return out, log_det
        s = ad.logistic(t)

        def d_theta(g):
            # d log theta_i / d t_m is [i == m] - s_m [i >= m]; the
            # adjoint of log theta is g * theta
            gl = g * out
            tail = ad.cumsum(gl[..., ::-1])[..., :0:-1]
            return gl[..., :-1] - s * tail

        # d log_det / d t_m = 1 - (K - m) s_m: t_m enters c_i for the
        # K - 1 - m sticks i >= m, and its own log(1 - s)
        slope = 1.0 - np.arange(size, 1, -1) * s
        return (ad.node((zeta,), out, (d_theta,)),
                ad.node((zeta,), log_det, (lambda g: per_draw(g) * slope,)))
    if isinstance(kind, Ordered):
        steps = ad.concat([zeta[..., :1], ad.exp(zeta[..., 1:])])
        return ad.cumsum(steps), ad.sum(zeta[..., 1:], axes)
    # PositiveOrdered
    return ad.cumsum(ad.exp(zeta)), ad.sum(zeta, axes)


def _require(kind, inside, values, message):
    """Raise :class:`DomainError` unless ``inside`` holds everywhere; the
    first of ``values`` where it fails, in row order, fills ``message``."""
    if not inside.all():
        raise DomainError(
            f"{kind!r}: " + message.format(values[~inside][0]))


def check_value(kind: TransformKind, theta) -> None:
    """Raise :class:`DomainError` unless ``theta`` is finite and lies
    strictly inside the support of ``kind`` (boundaries are rejected).

    ``theta`` has the kind's constrained dimension as its last axis, or is
    a bare scalar for a 1-dim kind; leading axes are rows, each checked on
    its own.
    """
    dim = constrained_dim(kind)
    theta = np.array(theta, dtype=float, ndmin=int(dim == 1))
    _check_len(kind, theta.shape[-1] if theta.ndim else None, dim)
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
    else:  # Ordered or PositiveOrdered
        if isinstance(kind, PositiveOrdered):
            _require(kind, theta[..., 0] > 0.0, theta[..., 0],
                     "first component {} not positive")
        _require(kind, theta[..., 1:] > theta[..., :-1], theta[..., 1:],
                 "component {} not above the one before it")


def unconstrain(kind: TransformKind, theta) -> list[float]:
    """Invert :func:`constrain` for strictly in-support float values.

    ``theta`` has the kind's constrained dimension as its last axis, or is
    a bare scalar for a 1-dim kind; leading axes are rows. Returns the
    unconstrained coordinates as one flat list, row after row: the packed
    layout of a block.
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
        rest = ad.cumsum(theta[..., :0:-1])[..., ::-1]
        zeta = (np.log(theta[..., :-1]) - np.log(rest)
                + _stick_offsets(kind.size))
    elif isinstance(kind, Ordered):
        zeta = np.concatenate(
            [theta[..., :1], np.log(np.diff(theta, axis=-1))], axis=-1)
    else:  # PositiveOrdered
        zeta = np.log(np.diff(theta, axis=-1, prepend=0.0))
    return zeta.ravel().tolist()


@dataclass(frozen=True)
class BlockSpec:
    """One named parameter block: a transform kind plus its layout, as
    data. ``model.constrain_blocks`` applies it; a value's packed
    coordinates are ``unconstrain(block.kind, value)``.

    ``rows=None`` means the kind is applied once (a scalar or a single
    vector); ``rows=r`` applies the kind independently to each of ``r``
    rows. ``scalar=True`` marks a one-dimensional block whose constrained
    value is exposed as a bare scalar instead of a length-1 vector.
    """

    name: str
    kind: TransformKind
    rows: int | None = None
    scalar: bool = False

    def __post_init__(self):
        if self.rows is not None:
            _check_count(f"block {self.name}", "rows", self.rows, 1)
        if self.scalar and (self.rows is not None
                            or constrained_dim(self.kind) != 1):
            raise ValueError(
                f"block {self.name}: scalar layout needs a 1-dim kind")

    @cached_property
    def unconstrained_size(self) -> int:
        per_row = unconstrained_dim(self.kind)
        return per_row * (self.rows if self.rows is not None else 1)
