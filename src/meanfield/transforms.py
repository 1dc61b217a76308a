"""Bijections between constrained parameter supports and unconstrained reals.

Each transform kind maps a constrained vector theta to an unconstrained
vector zeta and back, and reports log|det J| of the constraining direction
(unconstrained -> constrained) so densities can be corrected for the change
of variables. :func:`constrain` runs on plain floats or on tape variables,
so gradients flow through the transform and its Jacobian term;
:func:`unconstrain` is float-only (it is used to initialize from or inspect
constrained values, never differentiated).

Formulas:

* LowerBound(a):  theta = a + exp(zeta),            log_det = sum(zeta)
* UpperBound(b):  theta = b - exp(zeta),            log_det = sum(zeta)
* Interval(a,b):  theta = a + (b-a)*logistic(zeta),
                  log_det = sum(log(b-a) + log s + log(1-s))
* Simplex(K):     stick-breaking with a log(1/(K-k)) offset so zeta = 0
                  maps to the uniform simplex; the remaining stick is kept
                  in log space so no component rounds to 0
* Ordered(K):     theta_1 = zeta_1, theta_k = theta_{k-1} + exp(zeta_k)
* PositiveOrdered(K): like Ordered but theta_1 = exp(zeta_1)
* Identity:       theta = zeta, log_det = 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

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


def _softplus(t):
    # log(1 + exp(t)), overflow-safe for floats and tape variables alike
    return ad.log_sum_exp([0.0, t])


def _check_len(kind, values, expected):
    if len(values) != expected:
        raise ShapeError(
            f"{type(kind).__name__}: expected length {expected}, "
            f"got {len(values)}"
        )


def constrain(kind: TransformKind, zeta: Sequence[ad.Scalar]):
    """Map unconstrained ``zeta`` into the support of ``kind``.

    Returns ``(theta, log_det)`` where ``theta`` is a list of scalars
    satisfying the constraint and ``log_det`` is log|det J| of the map
    evaluated at ``zeta``.
    """
    _check_len(kind, zeta, unconstrained_dim(kind))
    if isinstance(kind, Identity):
        return list(zeta), 0.0
    if isinstance(kind, LowerBound):
        theta = [kind.bound + ad.exp(z) for z in zeta]
        return theta, _sum(zeta)
    if isinstance(kind, UpperBound):
        theta = [kind.bound - ad.exp(z) for z in zeta]
        return theta, _sum(zeta)
    if isinstance(kind, Interval):
        a, b = kind.lower, kind.upper
        width = b - a
        log_width = math.log(width)
        theta = []
        log_det = 0.0
        for z in zeta:
            s = ad.logistic(z)
            theta.append(a + width * s)
            # log s + log(1-s) == z - 2*softplus(z)
            log_det = log_det + (log_width + z - 2.0 * _softplus(z))
        return theta, log_det
    if isinstance(kind, Simplex):
        # The remaining stick is carried as its log, since
        # log(1 - logistic(t)) = -softplus(t): subtracting the broken-off
        # piece from the stick would round it to 0 once a piece saturates.
        k = kind.size
        log_rem = 0.0
        theta = []
        log_det = 0.0
        for i in range(k - 1):
            t = zeta[i] - math.log(float(k - 1 - i))
            sp = _softplus(t)
            theta.append(ad.exp(log_rem) * ad.logistic(t))
            log_det = log_det + (log_rem + t - 2.0 * sp)
            log_rem = log_rem - sp
        theta.append(ad.exp(log_rem))
        return theta, log_det
    if isinstance(kind, Ordered):
        theta = [zeta[0]]
        log_det = 0.0
        for z in zeta[1:]:
            theta.append(theta[-1] + ad.exp(z))
            log_det = log_det + z
        return theta, log_det
    if isinstance(kind, PositiveOrdered):
        theta = [ad.exp(zeta[0])]
        log_det = zeta[0]
        for z in zeta[1:]:
            theta.append(theta[-1] + ad.exp(z))
            log_det = log_det + z
        return theta, log_det
    raise TypeError(f"unknown transform kind {kind!r}")


def _sum(values):
    total = 0.0
    for v in values:
        total = total + v
    return total


def check_value(kind: TransformKind, theta: Sequence[float]) -> None:
    """Raise :class:`DomainError` unless ``theta`` lies strictly inside
    the support of ``kind`` (boundaries are rejected)."""
    _check_len(kind, theta, constrained_dim(kind))
    if isinstance(kind, Identity):
        return
    if isinstance(kind, LowerBound):
        for x in theta:
            if not x > kind.bound:
                raise DomainError(
                    f"LowerBound({kind.bound}): value {x} not above bound")
        return
    if isinstance(kind, UpperBound):
        for x in theta:
            if not x < kind.bound:
                raise DomainError(
                    f"UpperBound({kind.bound}): value {x} not below bound")
        return
    if isinstance(kind, Interval):
        for x in theta:
            if not (kind.lower < x < kind.upper):
                raise DomainError(
                    f"Interval({kind.lower},{kind.upper}): value {x} "
                    "not strictly inside")
        return
    if isinstance(kind, Simplex):
        total = math.fsum(theta)
        if abs(total - 1.0) > 1e-8:
            raise DomainError(f"Simplex: components sum to {total}, not 1")
        for x in theta:
            if not x > 0.0:
                raise DomainError(f"Simplex: component {x} not positive")
        return
    if isinstance(kind, Ordered):
        for lo, hi in zip(theta, theta[1:]):
            if not hi > lo:
                raise DomainError(
                    f"Ordered: components {lo}, {hi} not strictly increasing")
        return
    if isinstance(kind, PositiveOrdered):
        if not theta[0] > 0.0:
            raise DomainError(
                f"PositiveOrdered: first component {theta[0]} not positive")
        for lo, hi in zip(theta, theta[1:]):
            if not hi > lo:
                raise DomainError(
                    f"PositiveOrdered: components {lo}, {hi} "
                    "not strictly increasing")
        return
    raise TypeError(f"unknown transform kind {kind!r}")


def unconstrain(kind: TransformKind, theta: Sequence[float]) -> list[float]:
    """Invert :func:`constrain` for a strictly in-support float vector."""
    check_value(kind, theta)
    if isinstance(kind, Identity):
        return [float(x) for x in theta]
    if isinstance(kind, LowerBound):
        return [math.log(x - kind.bound) for x in theta]
    if isinstance(kind, UpperBound):
        return [math.log(kind.bound - x) for x in theta]
    if isinstance(kind, Interval):
        return [math.log(x - kind.lower) - math.log(kind.upper - x)
                for x in theta]
    if isinstance(kind, Simplex):
        # The stick left after component i is the sum of the later ones,
        # accumulated from the end: one minus a prefix sum cancels when the
        # later components are tiny.
        k = kind.size
        rest = [0.0] * k
        for i in range(k - 2, -1, -1):
            rest[i] = rest[i + 1] + theta[i + 1]
        return [math.log(theta[i]) - math.log(rest[i])
                + math.log(float(k - 1 - i)) for i in range(k - 1)]
    if isinstance(kind, Ordered):
        zeta = [float(theta[0])]
        for lo, hi in zip(theta, theta[1:]):
            zeta.append(math.log(hi - lo))
        return zeta
    if isinstance(kind, PositiveOrdered):
        zeta = [math.log(theta[0])]
        for lo, hi in zip(theta, theta[1:]):
            zeta.append(math.log(hi - lo))
        return zeta
    raise TypeError(f"unknown transform kind {kind!r}")


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

    @property
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

    def constrain(self, zeta: Sequence[ad.Scalar]):
        """Constrain a packed slice; returns ``(value, log_det)``."""
        if self.rows is None:
            theta, log_det = constrain(self.kind, zeta)
            if self.scalar:
                return theta[0], log_det
            return theta, log_det
        per = unconstrained_dim(self.kind)
        _check_len(self.kind, zeta, per * self.rows)
        value = []
        log_det = 0.0
        for r in range(self.rows):
            row, ld = constrain(self.kind, zeta[r * per:(r + 1) * per])
            value.append(row)
            log_det = log_det + ld
        return value, log_det

    def unconstrain(self, value) -> list[float]:
        """Pack a constrained value back into unconstrained coordinates."""
        if self.rows is None:
            theta = [value] if self.scalar else value
            return unconstrain(self.kind, theta)
        if len(value) != self.rows:
            raise ShapeError(
                f"block {self.name}: expected {self.rows} rows, "
                f"got {len(value)}")
        zeta: list[float] = []
        for row in value:
            zeta.extend(unconstrain(self.kind, row))
        return zeta
