"""Scalar reverse-mode automatic differentiation on an append-only tape.

A :class:`Graph` records one node per scalar operation. Nodes are stored in
topological order (every operand index is strictly smaller than the node's
own index), so a single reverse sweep propagates adjoints. Graphs are cheap
to build and are rebuilt for every evaluation; nothing is retained or reused
between evaluations.

The primitive set is deliberately small: add, sub, mul, div, neg, log, exp,
sqrt, pow, logistic, log_gamma, plus the n-ary reductions log_sum_exp and
dot. Each primitive is defined once: the arithmetic ones as :class:`Var`
operators, the rest as module functions (:func:`exp`, :func:`log`,
:func:`dot`, ...). A primitive accepts plain floats or :class:`Var`
operands, so the same model code can run tape-free when no gradient is
needed; on a Var it appends one node through ``Graph._push``, and its
partial derivatives live in the matching branch of :meth:`Graph.adjoints`.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

from .errors import DomainError

__all__ = [
    "Graph",
    "Var",
    "Scalar",
    "gradient",
    "exp",
    "log",
    "sqrt",
    "logistic",
    "log_gamma",
    "power",
    "log_sum_exp",
    "dot",
]

# Node kinds. args holds operand indices: () for LEAF, (x,) unary,
# (x, y) binary, n-ary tuple for LSE, flat (x1..xn, y1..yn) for DOT.
LEAF = 0
ADD = 1
SUB = 2
MUL = 3
DIV = 4
NEG = 5
LOG = 6
EXP = 7
SQRT = 8
POW = 9
LOGISTIC = 10
LGAMMA = 11
LSE = 12
DOT = 13

_INF = math.inf


def _fexp(x: float) -> float:
    # IEEE semantics: overflow saturates to +inf instead of raising, so a
    # single wild Monte Carlo draw degrades to a non-finite value the engine
    # can detect rather than an exception that aborts the evaluation.
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


def _flgamma(x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"log_gamma: argument must be > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return _INF


def _fpow(x: float, y: float) -> float:
    if x <= 0.0:
        raise DomainError(f"pow: base must be > 0, got {x}")
    try:
        return x ** y
    except OverflowError:
        return _INF


def _flogistic(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + _fexp(-x))
    t = _fexp(x)
    return t / (1.0 + t)


def _flse(values) -> float:
    m = max(values)
    if not math.isfinite(m):  # -inf, +inf, or nan dominate the sum
        return m
    s = 0.0
    for v in values:
        s += _fexp(v - m)
    return m + math.log(s)


class Graph:
    """Append-only record of scalar operations (the tape).

    A graph is single-owner: it is mutated only by the code building it and
    is never shared mid-build. Parallel evaluation means one graph per
    worker, not a shared one. Nodes other than leaves are appended by the
    primitives (the module functions and :class:`Var`'s operators).
    """

    __slots__ = ("ops", "args", "vals", "_ap_op", "_ap_arg", "_ap_val")

    def __init__(self):
        self.ops: list[int] = []
        self.args: list[tuple] = []
        self.vals: list[float] = []
        # bound appends: graph building is the hot path of every gradient
        self._ap_op = self.ops.append
        self._ap_arg = self.args.append
        self._ap_val = self.vals.append

    def __len__(self) -> int:
        return len(self.vals)

    def _push(self, op: int, arg: tuple, val: float) -> "Var":
        i = len(self.vals)
        self._ap_op(op)
        self._ap_arg(arg)
        self._ap_val(val)
        return Var(self, i, val)

    def leaf(self, value: float) -> "Var":
        """Append a leaf node holding ``value`` (must be finite)."""
        value = float(value)
        if not math.isfinite(value):
            raise DomainError(f"leaf value must be finite, got {value!r}")
        i = len(self.vals)
        self._ap_op(LEAF)
        self._ap_arg(())
        self._ap_val(value)
        return Var(self, i, value)

    def _lift(self, x) -> "Var":
        if type(x) is Var:
            if x.graph is not self:
                raise ValueError("operands belong to different graphs")
            return x
        return self.leaf(x)

    # -- reverse sweep --------------------------------------------------

    def adjoints(self, output: "Var") -> list[float]:
        """Adjoint of every node w.r.t. ``output`` (zeros past it)."""
        if output.graph is not self:
            raise ValueError("output does not belong to this graph")
        ops, args, vals = self.ops, self.args, self.vals
        adj = [0.0] * len(vals)
        adj[output.i] = 1.0
        for i in range(output.i, -1, -1):
            a = adj[i]
            if a == 0.0:
                continue
            op = ops[i]
            if op == LEAF:
                continue
            ar = args[i]
            if op == MUL:
                x, y = ar
                adj[x] += a * vals[y]
                adj[y] += a * vals[x]
            elif op == ADD:
                adj[ar[0]] += a
                adj[ar[1]] += a
            elif op == SUB:
                adj[ar[0]] += a
                adj[ar[1]] -= a
            elif op == DIV:
                x, y = ar
                vy = vals[y]
                adj[x] += a / vy
                adj[y] -= a * vals[i] / vy
            elif op == NEG:
                adj[ar[0]] -= a
            elif op == EXP:
                adj[ar[0]] += a * vals[i]
            elif op == LOG:
                adj[ar[0]] += a / vals[ar[0]]
            elif op == DOT:
                n = len(ar) // 2
                for j in range(n):
                    adj[ar[j]] += a * vals[ar[n + j]]
                    adj[ar[n + j]] += a * vals[ar[j]]
            elif op == LSE:
                out = vals[i]
                if math.isfinite(out):
                    for j in ar:
                        adj[j] += a * _fexp(vals[j] - out)
            elif op == LOGISTIC:
                s = vals[i]
                adj[ar[0]] += a * s * (1.0 - s)
            elif op == SQRT:
                v = vals[i]
                adj[ar[0]] += a * 0.5 / v if v != 0.0 else math.copysign(_INF, a)
            elif op == LGAMMA:
                # imported here: zoo models apply log_gamma only to float
                # hyperparameters, so a batch job never loads scipy
                from scipy.special import digamma
                adj[ar[0]] += a * float(digamma(vals[ar[0]]))
            elif op == POW:
                x, y = ar
                vx, vy = vals[x], vals[y]
                adj[x] += a * vy * vals[i] / vx
                adj[y] += a * vals[i] * math.log(vx)
            else:  # pragma: no cover
                raise AssertionError(f"unknown op code {op}")
        return adj


class Var:
    """A scalar value bound to a node of a :class:`Graph`."""

    __slots__ = ("graph", "i", "val")

    def __init__(self, graph: Graph, i: int, val: float):
        self.graph = graph
        self.i = i
        self.val = val

    def __repr__(self):
        return f"Var(node={self.i}, val={self.val!r})"

    # Arithmetic primitives; a plain-number operand is lifted to a leaf node
    # first, so it gets a node index below the result's.
    def __add__(self, other):
        g = self.graph
        if type(other) is not Var:
            other = g.leaf(other)
        return g._push(ADD, (self.i, other.i), self.val + other.val)

    def __radd__(self, other):
        g = self.graph
        a = g.leaf(other)
        return g._push(ADD, (a.i, self.i), a.val + self.val)

    def __sub__(self, other):
        g = self.graph
        if type(other) is not Var:
            other = g.leaf(other)
        return g._push(SUB, (self.i, other.i), self.val - other.val)

    def __rsub__(self, other):
        g = self.graph
        a = g.leaf(other)
        return g._push(SUB, (a.i, self.i), a.val - self.val)

    def __mul__(self, other):
        g = self.graph
        if type(other) is not Var:
            other = g.leaf(other)
        return g._push(MUL, (self.i, other.i), self.val * other.val)

    def __rmul__(self, other):
        g = self.graph
        a = g.leaf(other)
        return g._push(MUL, (a.i, self.i), a.val * self.val)

    def __truediv__(self, other):
        g = self.graph
        if type(other) is not Var:
            other = g.leaf(other)
        if other.val == 0.0:
            raise DomainError("div: divisor is 0")
        return g._push(DIV, (self.i, other.i), self.val / other.val)

    def __rtruediv__(self, other):
        g = self.graph
        a = g.leaf(other)
        if self.val == 0.0:
            raise DomainError("div: divisor is 0")
        return g._push(DIV, (a.i, self.i), a.val / self.val)

    def __neg__(self):
        return self.graph._push(NEG, (self.i,), -self.val)

    def __pow__(self, other):
        return power(self, other)


Scalar = Union[float, Var]


def gradient(output: Var, wrt: Sequence[Var]) -> list[float]:
    """Derivatives of ``output`` w.r.t. the given variables (one sweep)."""
    adj = output.graph.adjoints(output)
    return [adj[v.i] for v in wrt]


# -- primitives: one definition each, on floats and on Vars ------------------
#
# A unary primitive tests ``type(x) is Var`` once: a Var operand appends a
# node to its graph, a float is computed directly (the tape-free path of
# objective estimates and held-out scoring, where one more test per call
# shows in the run time).

def exp(x: Scalar) -> Scalar:
    if type(x) is Var:
        return x.graph._push(EXP, (x.i,), _fexp(x.val))
    return _fexp(x)


def log(x: Scalar) -> Scalar:
    if type(x) is Var:
        v = x.val
        if v <= 0.0:
            raise DomainError(f"log: argument must be > 0, got {v}")
        return x.graph._push(LOG, (x.i,), math.log(v))
    if x <= 0.0:
        raise DomainError(f"log: argument must be > 0, got {x}")
    return math.log(x)


def sqrt(x: Scalar) -> Scalar:
    if type(x) is Var:
        v = x.val
        if v < 0.0:
            raise DomainError(f"sqrt: argument must be >= 0, got {v}")
        return x.graph._push(SQRT, (x.i,), math.sqrt(v))
    if x < 0.0:
        raise DomainError(f"sqrt: argument must be >= 0, got {x}")
    return math.sqrt(x)


def logistic(x: Scalar) -> Scalar:
    if type(x) is Var:
        return x.graph._push(LOGISTIC, (x.i,), _flogistic(x.val))
    return _flogistic(x)


def log_gamma(x: Scalar) -> Scalar:
    if type(x) is Var:
        return x.graph._push(LGAMMA, (x.i,), _flgamma(x.val))
    return _flgamma(x)


def power(x: Scalar, y: Scalar) -> Scalar:
    if type(x) is Var:
        g = x.graph
    elif type(y) is Var:
        g = y.graph
    else:
        return _fpow(x, y)
    x, y = g._lift(x), g._lift(y)
    return g._push(POW, (x.i, y.i), _fpow(x.val, y.val))


def _find_graph(values) -> Graph | None:
    for v in values:
        if type(v) is Var:
            return v.graph
    return None


def log_sum_exp(xs: Sequence[Scalar]) -> Scalar:
    """Overflow-safe log(sum(exp(x_i))) over one or more scalars."""
    g = _find_graph(xs)
    if g is None:
        return _flse(xs)
    xs = [g._lift(x) for x in xs]
    return g._push(LSE, tuple(x.i for x in xs), _flse([x.val for x in xs]))


def dot(xs: Sequence[Scalar], ys: Sequence[Scalar]) -> Scalar:
    """Inner product of two equal-length scalar sequences as one node."""
    if len(xs) != len(ys) or not len(xs):
        raise ValueError("dot needs two equal-length nonempty lists")
    g = _find_graph(xs) or _find_graph(ys)
    s = 0.0
    if g is None:
        for x, y in zip(xs, ys):
            s += x * y
        return s
    xs = [g._lift(x) for x in xs]
    ys = [g._lift(y) for y in ys]
    for x, y in zip(xs, ys):
        s += x.val * y.val
    return g._push(DOT, tuple(x.i for x in xs) + tuple(y.i for y in ys), s)
