"""Reverse-mode automatic differentiation on an append-only tape of arrays.

A :class:`Graph` records one node per array operation. A node's value is a
numpy array (a float is a 0-d value), so an operation over N observations
is one node, not N. Nodes are stored in topological order (every operand
index is strictly smaller than the node's own index), so a single reverse
sweep propagates adjoints. A node is one tuple in ``Graph.nodes``: its
value, its operand indices and its vjp. It holds no :class:`Var`, so a Var
refers to its graph but never the reverse, and a dropped tape is freed by
reference counting, not left to the cyclic collector. Graphs are cheap to
build and are rebuilt for every evaluation; nothing is retained or reused
between evaluations.

Primitives broadcast as numpy does: arithmetic (the :class:`Var`
operators), the elementwise :func:`exp`, :func:`log`, :func:`sqrt`,
:func:`logistic`, :func:`softplus`, :func:`log_gamma` and :func:`power`,
the reductions :func:`sum` and :func:`log_sum_exp` over an axis, indexing
(``x[key]``, integer-array lookups included), :func:`cumsum`,
:func:`concat`, :func:`stack` and ``Var.reshape``; :func:`dot` contracts
the last axis. An operand that is not a Var is a constant: it is captured
inside the node that uses it and never becomes a node of its own.

Each primitive is defined once. Given no Var operand it computes the value
with numpy and records nothing, which is the tape-free path of objective
estimates and held-out scoring. Given Vars it appends one node through
``Graph._push``, with a function that maps the node's adjoint to those of
its Var operands, summed over the axes broadcasting added.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "Graph",
    "Var",
    "gradient",
    "value",
    "as_array",
    "exp",
    "log",
    "sqrt",
    "logistic",
    "softplus",
    "log_gamma",
    "power",
    "node",
    "sum",
    "log_sum_exp",
    "cumsum",
    "concat",
    "stack",
    "dot",
]

class Graph:
    """Append-only record of array operations (the tape).

    A graph is single-owner: it is mutated only by the code building it and
    is never shared mid-build. Parallel evaluation means one graph per
    worker, not a shared one. Node ``i`` is the tuple ``nodes[i]`` of its
    value, its operand node indices and its vjp, which maps the node's
    adjoint to one adjoint per operand; a leaf has no operands and a vjp of
    None. Nodes other than leaves are appended by the primitives.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[tuple] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def elements(self) -> int:
        """Array elements held by the nodes: the size of the work a build
        and a sweep do, which a node count is not, since one node may
        hold one value or N."""
        total = 0
        for v, _, _ in self.nodes:
            total += getattr(v, "size", 1)
        return total

    def _push(self, args: tuple, val, vjp) -> "Var":
        nodes = self.nodes
        nodes.append((val, args, vjp))
        return Var(self, len(nodes) - 1, val)

    def leaf(self, value) -> "Var":
        """Append a leaf node holding ``value``, a finite float or array."""
        value = np.array(value, dtype=float)
        if np.count_nonzero(np.isfinite(value)) != value.size:
            raise DomainError(f"leaf value must be finite, got {value!r}")
        return self._push((), float(value) if value.ndim == 0 else value, None)

    # -- reverse sweep --------------------------------------------------

    def adjoints(self, output: "Var") -> list:
        """Adjoint of every node w.r.t. ``output``; None for a node the
        output does not depend on."""
        if output.graph is not self:
            raise ValueError("output does not belong to this graph")
        nodes = self.nodes
        adj: list = [None] * len(nodes)
        adj[output.i] = np.ones(output.shape) if output.shape else 1.0
        for i in range(output.i, -1, -1):
            a = adj[i]
            _, args, vjp = nodes[i]
            if a is None or vjp is None:
                continue
            for j, d in zip(args, vjp(a)):
                prev = adj[j]
                adj[j] = d if prev is None else prev + d
        return adj


class Var:
    """A value (float or array) bound to a node of a :class:`Graph`."""

    __slots__ = ("graph", "i", "val")
    # numpy defers to Var's reflected operators: array + Var is Var.__radd__
    __array_ufunc__ = None

    def __init__(self, graph: Graph, i: int, val):
        self.graph = graph
        self.i = i
        self.val = val

    def __repr__(self):
        return f"Var(node={self.i}, val={self.val!r})"

    @property
    def shape(self) -> tuple:
        return getattr(self.val, "shape", ())  # a Python float has none


    def __getitem__(self, key):
        x = self.val
        # an integer-array index may repeat an element; a basic one cannot
        fancy = any(isinstance(k, (np.ndarray, list))
                    for k in (key if type(key) is tuple else (key,)))

        def vjp(g):
            out = np.zeros(x.shape)
            if fancy:
                np.add.at(out, key, g)  # repeated indices add up
            else:
                out[key] = g
            return (out,)

        return self.graph._push((self.i,), x[key], vjp)

    def reshape(self, *new_shape):
        if len(new_shape) == 1:
            new_shape = new_shape[0]
        src = self.shape
        # [()] makes a 0-d result a numpy scalar, which computes faster
        return self.graph._push((self.i,), self.val.reshape(new_shape)[()],
                                lambda g: (np.asarray(g).reshape(src),))

    def __add__(self, other):
        return _add(self, other)

    def __radd__(self, other):
        return _add(other, self)

    def __sub__(self, other):
        return _sub(self, other)

    def __rsub__(self, other):
        return _sub(other, self)

    def __mul__(self, other):
        return _mul(self, other)

    def __rmul__(self, other):
        return _mul(other, self)

    def __truediv__(self, other):
        return _div(self, other)

    def __rtruediv__(self, other):
        return _div(other, self)

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        return power(other, self)

    def __neg__(self):
        return self.graph._push((self.i,), -self.val, lambda g: (-g,))


def value(x):
    """The numeric value of a Var, or ``x`` itself."""
    return x.val if type(x) is Var else x


def as_array(x):
    """A Var as it is; a sequence holding Vars stacked into one Var (for
    scalar leaves, say); anything else as a float array."""
    if type(x) is Var:
        return x
    if isinstance(x, (list, tuple)) and any(type(v) is Var for v in x):
        return stack(x)
    return np.asarray(x, dtype=float)


def gradient(output: Var, wrt: Sequence[Var]) -> list:
    """Derivatives of ``output`` w.r.t. the given leaves (one sweep): a
    float per scalar leaf, an array per array leaf."""
    adj = output.graph.adjoints(output)
    out = []
    for v in wrt:
        a = adj[v.i]
        if np.ndim(v.val) == 0:
            out.append(0.0 if a is None else float(a))
        else:
            out.append(np.zeros(np.shape(v.val)) if a is None
                       else np.array(a, dtype=float))
    return out


# -- broadcasting arithmetic ------------------------------------------------

def _any(cond) -> bool:
    """Whether any element of a comparison result holds (count_nonzero is
    the cheapest reduction for the small arrays of a tiny model)."""
    if type(cond) is np.ndarray:
        return np.count_nonzero(cond) > 0
    return bool(cond)


def _unbroadcast(g, like):
    """Sum adjoint ``g`` over the axes that broadcasting added to the
    shape of operand value ``like``."""
    target = getattr(like, "shape", ())  # a Python float has none
    have = getattr(g, "shape", ())
    if have == target:
        return g
    extra = len(have) - len(target)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(k for k, n in enumerate(target)
                 if n == 1 and g.shape[k] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def node(operands: Sequence, out, partials: Sequence):
    """``out``, the value of a function of ``operands``, recorded as one
    node when an operand is a Var (and returned as it is otherwise).

    ``partials[k](g)`` maps the node's adjoint ``g`` to the adjoint of
    operand k in the broadcast shape of ``out``. The sweep calls it for Var
    operands only and sums the result back to the operand's shape; other
    operands are constants captured by the partials, never nodes. This is
    how a density over a whole array becomes one node with closed-form
    partials.
    """
    graph = None
    parents = []
    rules = []
    for x, partial in zip(operands, partials):
        if type(x) is Var:
            if graph is None:
                graph = x.graph
            elif x.graph is not graph:
                raise ValueError("operands belong to different graphs")
            parents.append(x.i)
            rules.append((partial, x.val))
    if graph is None:
        return out
    return graph._push(tuple(parents), out,
                       lambda g: [_unbroadcast(d(g), v) for d, v in rules])


def _add(x, y):
    return node((x, y), value(x) + value(y), (_same, _same))


def _sub(x, y):
    return node((x, y), value(x) - value(y), (_same, np.negative))


def _mul(x, y):
    vx, vy = value(x), value(y)
    return node((x, y), vx * vy, (lambda g: g * vy, lambda g: g * vx))


def _div(x, y):
    vx, vy = value(x), value(y)
    if _any(vy == 0.0):
        raise DomainError("div: divisor is 0")
    out = vx / vy
    return node((x, y), out, (lambda g: g / vy, lambda g: -g * out / vy))


def _same(g):
    return g


def power(x, y):
    vx, vy = value(x), value(y)
    if _any(vx <= 0.0):
        raise DomainError(f"pow: base must be > 0, got {np.min(vx)}")
    out = np.power(vx, vy)
    return node((x, y), out, (lambda g: g * vy * out / vx,
                              lambda g: g * out * np.log(vx)))


# -- elementwise functions ----------------------------------------------------
#
# A unary primitive tests ``type(x) is Var`` once: a Var operand appends a
# node to its graph, anything else is computed directly.

def _unary(x, out, partial):
    return x.graph._push((x.i,), out, lambda g: (partial(g),))


def exp(x):
    if type(x) is not Var:
        return np.exp(x)
    out = np.exp(x.val)
    return _unary(x, out, lambda g: g * out)


def _check_positive(op, v):
    if _any(v <= 0.0):
        raise DomainError(f"{op}: argument must be > 0, got {np.min(v)}")


def log(x):
    v = value(x)
    _check_positive("log", v)
    if type(x) is not Var:
        return np.log(v)
    return _unary(x, np.log(v), lambda g: g / v)


def sqrt(x):
    v = value(x)
    if _any(v < 0.0):
        raise DomainError(f"sqrt: argument must be >= 0, got {np.min(v)}")
    if type(x) is not Var:
        return np.sqrt(v)
    out = np.sqrt(v)
    return _unary(x, out, lambda g: 0.5 * g / out)


def _logistic(v):
    # branch-wise so neither side overflows: 1/(1+e^-v) or e^v/(1+e^v)
    e = np.exp(-np.abs(v))
    out = np.where(np.greater_equal(v, 0.0), 1.0 / (1.0 + e), e / (1.0 + e))
    return out[()]


def logistic(x):
    if type(x) is not Var:
        return _logistic(x)
    out = _logistic(x.val)
    return _unary(x, out, lambda g: g * out * (1.0 - out))


def softplus(x):
    """log(1 + exp(x)) without overflow."""
    if type(x) is not Var:
        return np.logaddexp(0.0, x)
    v = x.val
    return _unary(x, np.logaddexp(0.0, v), lambda g: g * _logistic(v))


def _lgamma1(v: float) -> float:
    try:
        return math.lgamma(v)
    except OverflowError:
        return math.inf


def _lgamma(v):
    # math.lgamma per element: data and hyperparameter constants take this
    # path too, and it keeps scipy out of the import
    _check_positive("log_gamma", v)
    if not getattr(v, "shape", ()):
        return _lgamma1(float(v))
    return np.array([_lgamma1(t) for t in v.ravel().tolist()]).reshape(v.shape)


def log_gamma(x):
    if type(x) is not Var:
        return _lgamma(x)
    v = x.val

    def partial(g):
        # imported here: zoo models apply log_gamma only to constants, so
        # a batch job never loads scipy
        from scipy.special import digamma
        return g * digamma(v)

    return _unary(x, _lgamma(v), partial)


# -- reductions and structure -------------------------------------------------

def sum(x, axis=None):  # noqa: A001 - the tape's sum, as ``ad.sum``
    """Sum over ``axis`` (all axes when None)."""
    # np.add.reduce is what np.sum calls, without its Python-level wrapper
    if type(x) is not Var:
        return np.add.reduce(x, axis=axis)
    src = x.shape

    def vjp(g):
        if axis is None:
            return (np.full(src, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), src),)

    return x.graph._push((x.i,), np.add.reduce(x.val, axis=axis), vjp)


def _lse(v, axis):
    top = np.max(v, axis=axis, keepdims=True)
    # a non-finite maximum (-inf, +inf or nan) dominates the sum: shifting
    # by 0 instead keeps it as the result
    top = np.where(np.isfinite(top), top, 0.0)
    out = np.log(np.sum(np.exp(v - top), axis=axis, keepdims=True)) + top
    return np.squeeze(out, axis=axis)[()]


def log_sum_exp(x, axis=-1):
    """Overflow-safe log(sum(exp(x))) over ``axis``; ``x`` may also be a
    sequence of scalars and Vars."""
    x = as_array(x)
    if type(x) is not Var:
        return _lse(x, axis)
    v = x.val
    out = _lse(v, axis)

    def vjp(g):
        o = np.expand_dims(out, axis)
        w = np.where(np.isfinite(o), np.exp(v - o), 0.0)
        return (np.expand_dims(g, axis) * w,)

    return x.graph._push((x.i,), out, vjp)


def cumsum(x, axis=-1):
    if type(x) is not Var:
        return np.cumsum(x, axis=axis)

    def vjp(g):
        return (np.flip(np.cumsum(np.flip(g, axis), axis=axis), axis),)

    return x.graph._push((x.i,), np.cumsum(x.val, axis=axis), vjp)


def concat(xs: Sequence, axis=-1):
    """Join arrays and Vars along an existing axis."""
    vals = [value(x) for x in xs]
    cuts = np.cumsum([v.shape[axis] for v in vals])[:-1]
    return node(xs, np.concatenate(vals, axis=axis),
                [lambda g, k=k: np.split(g, cuts, axis=axis)[k]
                 for k in range(len(xs))])


def stack(xs: Sequence):
    """Stack equal-shape values along a new leading axis."""
    return node(xs, np.stack([value(x) for x in xs]),
                [lambda g, k=k: g[k] for k in range(len(xs))])


def dot(xs, ys):
    """Inner product over the last axis (broadcast over leading axes)."""
    return sum(as_array(xs) * as_array(ys), axis=-1)
