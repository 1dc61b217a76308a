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
operators, and :func:`add` for a sum of many terms), the elementwise
:func:`exp`, :func:`log`, :func:`sqrt`, :func:`logistic`,
:func:`softplus` and :func:`log_gamma`, the reductions
:func:`sum` and :func:`log_sum_exp` over an axis, indexing (``x[key]``,
integer-array lookups included, and :func:`take` along an axis),
:func:`cumsum`, :func:`concat`, :func:`stack` and ``Var.reshape``;
:func:`dot` contracts the last axis. An operand that is not a Var is a
constant: it is captured inside the node that uses it and never becomes a
node of its own.

Each primitive is defined once and records by one of two rules. A value
primitive (arithmetic, the elementwise functions, :func:`log_sum_exp`,
:func:`cumsum`, :func:`concat`, :func:`stack`, and the densities and
transforms built on it) computes its value with numpy and hands it with
closed-form partials to :func:`node`. Given no Var operand, ``node``
returns the value and records nothing, which is the tape-free path of
objective estimates and held-out scoring; given Vars it appends one node.
The structural operations on every tape's hot path, indexing,
``Var.reshape`` and :func:`sum`, push their own vjp through
``Graph._push``, without ``node``'s operand loop and unbroadcasting.

A sum or maximum over a last axis of 2 to 7 entries (in :func:`sum`,
:func:`dot` and :func:`log_sum_exp`, over 256 rows or more) combines the
slices left to right, which is numpy's own order there, so the bits are
``np.add.reduce``'s on a C array; a longer axis uses ``np.add.reduce``.
A value whose last axis is not its innermost memory axis (Fortran order,
a transpose) is reduced, and an adjoint of that layout is summed over
broadcast axes, as its C-contiguous copy (see :func:`_c_order`), so in
C order. A model may therefore put another axis innermost in memory, so
that its broadcasts loop over that axis, without changing a bit. A
:func:`cumsum` over such a short axis adds its slices the same way, with
``np.cumsum``'s bits (a cumulative sum is sequential in any layout).
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
    "add",
    "exp",
    "log",
    "sqrt",
    "logistic",
    "softplus",
    "log_gamma",
    "node",
    "sum",
    "log_sum_exp",
    "take",
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
        # a 0-d value as a numpy scalar, which has a shape and reshapes
        return self._push((), value if value.ndim else value[()], None)

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
        if type(key) is tuple:
            fancy = any(isinstance(k, (np.ndarray, list)) for k in key)
        else:
            fancy = isinstance(key, (np.ndarray, list))

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

    def __neg__(self):
        return node((self,), -self.val, (np.negative,))


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
    shape of operand value ``like``.

    The sum runs in C order when another axis of ``g`` is innermost in
    memory (see :func:`_c_order`), so that layout does not change the
    bits."""
    target = getattr(like, "shape", ())  # a Python float has none
    have = getattr(g, "shape", ())
    if have == target:
        return g
    g = _c_order(g)
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
    operand k in the broadcast shape of ``out`` (or in the operand's own
    shape, for a reduction such as a log-det). The sweep calls it for Var
    operands only and sums the result back to the operand's shape; other
    operands are constants captured by the partials, never nodes. This is
    how a density over a whole array becomes one node with closed-form
    partials.
    """
    for x in operands:
        if type(x) is Var:
            graph = x.graph
            break
    else:
        return out  # no Var: the float path, which records nothing
    parents = []
    rules = []
    for x, partial in zip(operands, partials):
        if type(x) is Var:
            if x.graph is not graph:
                raise ValueError("operands belong to different graphs")
            parents.append(x.i)
            rules.append((partial, x.val))
    return graph._push(tuple(parents), out,
                       lambda g: [_unbroadcast(d(g), v) for d, v in rules])


def _add(x, y):
    return node((x, y), value(x) + value(y), (_same, _same))


def add(*terms):
    """The sum of ``terms``, added left to right as a chain of ``+`` adds
    them, recorded as one node: each Var term's adjoint is the node's,
    summed over the axes broadcasting added.

    From the third term on, a term that keeps the running total's shape
    and dtype is added into the total in place: the total is then an
    array this call made, never an operand, and the bits are the chain's.
    """
    out = value(terms[0])
    for k, t in enumerate(terms[1:]):
        v = value(t)
        if k and type(out) is np.ndarray and _keeps(out, v):
            np.add(out, v, out=out)
        else:
            out = out + v
    return node(terms, out, (_same,) * len(terms))


def _keeps(total: np.ndarray, v) -> bool:
    """Whether ``total + v`` has the shape and dtype of ``total``."""
    shape = getattr(v, "shape", ())  # a Python number has none
    if shape != total.shape and (len(shape) > total.ndim or any(
            n not in (1, m) for n, m in zip(shape[::-1], total.shape[::-1]))):
        return False
    # a float64 array or scalar: the hot path, without result_type's cost
    return (getattr(v, "dtype", None) == total.dtype
            or np.result_type(total, v) == total.dtype)


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


# -- elementwise functions ----------------------------------------------------

def exp(x):
    out = np.exp(value(x))
    return node((x,), out, (lambda g: g * out,))


def _check_positive(op, v):
    if _any(v <= 0.0):
        raise DomainError(f"{op}: argument must be > 0, got {np.min(v)}")


def log(x):
    v = value(x)
    _check_positive("log", v)
    return node((x,), np.log(v), (lambda g: g / v,))


def sqrt(x):
    v = value(x)
    if _any(v < 0.0):
        raise DomainError(f"sqrt: argument must be >= 0, got {np.min(v)}")
    out = np.sqrt(v)
    return node((x,), out, (lambda g: 0.5 * g / out,))


def logistic(x):
    v = value(x)
    # branch-wise so neither side overflows: 1/(1+e^-v) or e^v/(1+e^v)
    e = np.exp(-np.abs(v))
    out = np.where(np.greater_equal(v, 0.0), 1.0 / (1.0 + e),
                   e / (1.0 + e))[()]
    return node((x,), out, (lambda g: g * out * (1.0 - out),))


def softplus(x):
    """log(1 + exp(x)) without overflow."""
    v = value(x)
    # max(v, 0) + log1p(exp(-|v|)) is np.logaddexp(0, v)'s formula on
    # ufuncs that have SIMD loops, which logaddexp lacks; both are
    # faithfully rounded, so they differ by at most 2 ulps. The second
    # term is computed in one fresh float buffer
    tail = np.abs(v)
    if type(tail) is not np.ndarray or tail.dtype.kind != "f":
        # a 0-d or an int input: a buffer of the dtype exp would return
        tail = np.array(tail, dtype=np.result_type(tail, 1.0))
    for f in (np.negative, np.exp, np.log1p):
        f(tail, out=tail)
    out = np.maximum(v, 0.0)
    out += tail  # in place on an array; a scalar becomes a new scalar
    return node((x,), out, (lambda g: g * logistic(v),))


def _lgamma1(v: float) -> float:
    try:
        return math.lgamma(v)
    except OverflowError:
        return math.inf


def _digamma(v):
    # imported here: zoo models take log_gamma, a gamma shape and a
    # Dirichlet concentration only of constants, so a batch job never
    # loads scipy
    from scipy.special import digamma
    return digamma(v)


def log_gamma(x):
    v = value(x)
    _check_positive("log_gamma", v)
    # math.lgamma per element: data and hyperparameter constants take this
    # path too, and it keeps scipy out of the import
    if getattr(v, "shape", ()):
        out = np.array([_lgamma1(t) for t in v.ravel().tolist()])
        out = out.reshape(v.shape)
    else:
        out = _lgamma1(float(v))
    return node((x,), out, (lambda g: g * _digamma(v),))


# -- reductions and structure -------------------------------------------------

def _short_rows(x, axis) -> bool:
    """Whether ``axis`` is the last axis of a float64 array of 2 or more
    axes, and it holds 2 to 7 entries in each of 256 rows or more.

    numpy runs a separate loop for every row of so short an axis; a ufunc
    call per 1-D slice of the axis costs less, in the same order. Below
    256 rows numpy's loops cost less than a call per slice."""
    return (axis == -1 and type(x) is np.ndarray and x.ndim > 1
            and 2 <= x.shape[-1] < 8 and x.size >= 256 * x.shape[-1]
            and x.dtype == np.float64)


def _c_order(x):
    """``x``, or a C-contiguous copy of it when it is an array of 2 or more
    axes whose last axis steps over more than one entry in memory.

    numpy reduces along the innermost memory axis: pairwise from 8
    entries on, and by adding whole slices one after another across an
    outer axis. On an array with another axis innermost (Fortran order, a
    transpose) that is a different order from C's, so such an array is
    reduced as its C copy. A C array, a view of one with a step of 1 or
    -1 along its last axis, and a broadcast view reduce as numpy reduces
    them."""
    if type(x) is np.ndarray and x.ndim > 1 and x.strides[-1] > x.itemsize:
        return np.ascontiguousarray(x)
    return x


def _reduce(ufunc, x, axis):
    """``ufunc.reduce(x, axis=axis)`` for np.add or np.maximum, in C order
    when another axis of ``x`` is innermost (see :func:`_c_order`),
    combining the slices left to right on the short rows of
    :func:`_short_rows`.

    numpy reduces so short an axis of a C array in the same order (a sum
    from 0.0, so that a row of -0.0 sums to +0.0), so the bits are the
    same; from 8 entries on numpy sums pairwise. The slices are views in
    the layout of ``x``, so each ufunc call runs along its innermost
    memory axis, and the result keeps that layout."""
    if _short_rows(x, axis):
        out = x[..., 0] + 0.0 if ufunc is np.add else x[..., 0].copy("K")
        for k in range(1, x.shape[-1]):
            ufunc(out, x[..., k], out=out)
        return out
    # np.add.reduce is what np.sum calls, without its Python-level wrapper
    return ufunc.reduce(_c_order(x), axis=axis)


def sum(x, axis=None):  # noqa: A001 - the tape's sum, as ``ad.sum``
    """Sum over ``axis``, an int or a tuple of ints (all axes when None)."""
    if type(x) is not Var:
        return _reduce(np.add, x, axis)
    src = x.shape
    if axis is not None and len(src) <= (
            len(axis) if type(axis) is tuple else 1):
        axis = None  # the axes cover x (or x is 0-d): the vjp of a total
    keep = None if axis is None else _kept(src, axis)

    def vjp(g):
        out = np.empty(src)
        if keep is None:
            out.fill(g)
        else:
            out[...] = g.reshape(keep)
        return (out,)

    return x.graph._push((x.i,), _reduce(np.add, x.val, axis), vjp)


def _kept(shape: tuple, axis) -> tuple:
    """``shape`` with the reduced ``axis`` (an int or a tuple) as length 1:
    the shape a reduction's adjoint is reshaped to, to broadcast back over
    the operand without numpy's Python-level ``expand_dims``."""
    keep = list(shape)
    for a in axis if type(axis) is tuple else (axis,):
        keep[a] = 1
    return tuple(keep)


def log_sum_exp(x, axis=-1):
    """Overflow-safe log(sum(exp(x))) over ``axis``; ``x`` may also be a
    sequence of scalars and Vars."""
    x = as_array(x)
    v = value(x)
    keep = _kept(v.shape, axis) if np.ndim(v) else ()  # 0-d: the value
    top = _reduce(np.maximum, v, axis)
    # a non-finite maximum (-inf, +inf or nan) dominates the sum: shifting
    # by 0 instead keeps it as the result
    top = np.where(np.isfinite(top), top, 0.0)
    out = (np.log(_reduce(np.add, np.exp(v - top.reshape(keep)), axis))
           + top)[()]

    def partial(g):
        o = out.reshape(keep)
        w = np.where(np.isfinite(o), np.exp(v - o), 0.0)
        return np.asarray(g).reshape(keep) * w

    return node((x,), out, (partial,))


def take(x, idx, axis=-1):
    """``x`` at ``idx`` along ``axis``: an index array gathers, as np.take
    does, and an int or a slice indexes as ``x[..., idx]`` would.

    A model reads a block's entries with it, counting ``axis`` from the
    end, so that a value's leading draw axes pass through, on the float
    path and on the tape."""
    if type(x) is np.ndarray:
        if not isinstance(idx, (int, np.integer, slice)):
            return x.take(idx, axis=axis)  # without np.take's Python wrapper
    elif type(x) is not Var:
        return np.take(x, idx, axis=axis)
    # a Var, or an array at an int or a slice: basic indexing, a fraction
    # of the cost of take with the same value and type (x[..., idx] would
    # make the entry of a 1-D array 0-d, not a numpy scalar)
    lead = len(x.shape) + axis if axis < 0 else axis
    return x[idx if lead == 0 else (slice(None),) * lead + (idx,)]


def _cumsum(x, axis):
    """``np.cumsum(x, axis=axis)``, adding the slices left to right on the
    short rows of :func:`_short_rows`: numpy accumulates sequentially at
    every length, so the bits are the same."""
    if not _short_rows(x, axis):
        return np.asarray(x).cumsum(axis)  # without np.cumsum's wrapper
    cols = x.reshape(-1, x.shape[-1])
    out = np.empty(cols.shape)
    out[:, 0] = cols[:, 0]
    for k in range(1, cols.shape[1]):
        np.add(out[:, k - 1], cols[:, k], out=out[:, k])
    return out.reshape(x.shape)


def cumsum(x, axis=-1):
    if type(x) is not Var:
        return _cumsum(x, axis)  # the float path, without node's loop

    def partial(g):
        return np.flip(_cumsum(np.flip(g, axis), axis), axis)

    return node((x,), _cumsum(value(x), axis), (partial,))


def concat(xs: Sequence, axis=-1):
    """Join arrays and Vars along an existing axis."""
    vals = [value(x) for x in xs]
    # operand k's slice of the adjoint is edges[k]:edges[k + 1] on axis
    edges = np.cumsum([0] + [v.shape[axis] for v in vals]).tolist()
    lead = (slice(None),) * (axis % vals[0].ndim)
    return node(xs, np.concatenate(vals, axis=axis),
                [lambda g, key=lead + (slice(a, b),): g[key]
                 for a, b in zip(edges, edges[1:])])


def stack(xs: Sequence):
    """Stack equal-shape values along a new leading axis."""
    return node(xs, np.stack([value(x) for x in xs]),
                [lambda g, k=k: g[k] for k in range(len(xs))])


def dot(xs, ys):
    """Inner product over the last axis (broadcast over leading axes)."""
    return sum(as_array(xs) * as_array(ys), axis=-1)
