import ast
import decimal
import math
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanfield
from meanfield import autodiff as ad
from meanfield.errors import DomainError
from util import central_diff


def test_build_variable_values():
    g = ad.Graph()
    assert g.leaf(2.5).val == 2.5
    assert g.leaf(0.0).val == 0.0


def test_build_variable_rejects_non_finite():
    g = ad.Graph()
    with pytest.raises(DomainError):
        g.leaf(float("nan"))
    with pytest.raises(DomainError):
        g.leaf(float("inf"))


def test_primitive_values():
    g = ad.Graph()
    one = g.leaf(1.0)
    assert ad.log(one).val == 0.0
    assert ad.log_sum_exp([g.leaf(0.0), g.leaf(0.0)]).val == \
        pytest.approx(0.6931472, abs=1e-7)
    assert ad.log_gamma(one).val == 0.0


def test_backward_product_rule():
    g = ad.Graph()
    x = g.leaf(3.0)
    y = g.leaf(4.0)
    assert ad.gradient(x * y, [x, y]) == [4.0, 3.0]


def test_backward_log():
    g = ad.Graph()
    x = g.leaf(2.0)
    assert ad.gradient(ad.log(x), [x]) == [0.5]


def test_backward_seed_is_one():
    g = ad.Graph()
    x = g.leaf(7.0)
    assert ad.gradient(x, [x]) == [1.0]


def test_log_sum_exp_gradient_matches_finite_differences():
    # independent oracle: central differences of the float implementation
    fd = central_diff(lambda v: ad.log_sum_exp(v), [0.0, 0.0], h=1e-5)
    assert fd == pytest.approx([0.5, 0.5], abs=1e-9)
    g = ad.Graph()
    xs = [g.leaf(0.0), g.leaf(0.0)]
    grads = ad.gradient(ad.log_sum_exp(xs), xs)
    assert grads == pytest.approx(fd, abs=1e-9)


# (name, tape builder, float oracle, input sampler)
def _sample_unconstrained(rng, n):
    return list(rng.normal(0.0, 2.0, n))


_PRIMITIVES = [
    ("add", lambda g, v: v[0] + v[1],
     lambda v: v[0] + v[1],
     lambda rng: _sample_unconstrained(rng, 2)),
    ("sub", lambda g, v: v[0] - v[1],
     lambda v: v[0] - v[1],
     lambda rng: _sample_unconstrained(rng, 2)),
    ("mul", lambda g, v: v[0] * v[1],
     lambda v: v[0] * v[1],
     lambda rng: _sample_unconstrained(rng, 2)),
    ("div", lambda g, v: v[0] / v[1],
     lambda v: v[0] / v[1],
     lambda rng: [rng.normal(0, 2),
                  rng.choice([-1, 1]) * rng.uniform(0.2, 3.0)]),
    ("neg", lambda g, v: -v[0],
     lambda v: -v[0],
     lambda rng: _sample_unconstrained(rng, 1)),
    ("log", lambda g, v: ad.log(v[0]),
     lambda v: math.log(v[0]),
     lambda rng: [rng.uniform(0.1, 5.0)]),
    ("exp", lambda g, v: ad.exp(v[0]),
     lambda v: math.exp(v[0]),
     lambda rng: [rng.normal(0, 1.5)]),
    ("sqrt", lambda g, v: ad.sqrt(v[0]),
     lambda v: math.sqrt(v[0]),
     lambda rng: [rng.uniform(0.1, 6.0)]),
    ("logistic", lambda g, v: ad.logistic(v[0]),
     lambda v: 1.0 / (1.0 + math.exp(-v[0])),
     lambda rng: [rng.normal(0, 3)]),
    ("log_gamma", lambda g, v: ad.log_gamma(v[0]),
     lambda v: math.lgamma(v[0]),
     lambda rng: [rng.uniform(0.2, 6.0)]),
    ("log_sum_exp", lambda g, v: ad.log_sum_exp(v),
     lambda v: math.log(sum(math.exp(x) for x in v)),
     lambda rng: _sample_unconstrained(rng, 3)),
    ("dot", lambda g, v: ad.dot(v[:3], v[3:]),
     lambda v: sum(a * b for a, b in zip(v[:3], v[3:])),
     lambda rng: _sample_unconstrained(rng, 6)),
]


@pytest.mark.parametrize("name,build,oracle,sample",
                         _PRIMITIVES, ids=[p[0] for p in _PRIMITIVES])
def test_primitive_gradients_match_finite_differences(name, build, oracle,
                                                      sample):
    # crc32, not hash(): str hashes are salted per process
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(100):
        x = sample(rng)
        g = ad.Graph()
        leaves = [g.leaf(v) for v in x]
        out = build(g, leaves)
        assert out.val == pytest.approx(oracle(x), rel=1e-12, abs=1e-12)
        grads = ad.gradient(out, leaves)
        fd = central_diff(lambda v: oracle(v), x, h=1e-5)
        for gv, fv in zip(grads, fd):
            assert abs(gv - fv) <= 1e-6 * max(1.0, abs(fv))


def test_log_sum_exp_shift_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        xs = list(rng.normal(0, 1, rng.integers(1, 6)))
        base = ad.log_sum_exp(xs)
        for c in (-700.0, -100.0, -1.0, 0.0, 1.0, 100.0, 700.0):
            shifted = ad.log_sum_exp([x + c for x in xs])
            assert abs(shifted - (base + c)) <= \
                1e-12 * max(1.0, abs(base + c))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=6),
       st.floats(-700, 700))
def test_log_sum_exp_shift_invariance_property(xs, c):
    base = ad.log_sum_exp(xs)
    shifted = ad.log_sum_exp([x + c for x in xs])
    assert abs(shifted - (base + c)) <= 1e-12 * max(1.0, abs(base + c))


def _random_program(seed):
    """A fixed little expression over 4 leaves exercising most primitives."""
    rng = np.random.default_rng(seed)
    x = list(rng.uniform(0.5, 2.0, 4))
    g = ad.Graph()
    leaves = [g.leaf(v) for v in x]
    a = leaves[0] * leaves[1] + ad.exp(leaves[2])
    b = ad.log(leaves[3]) - leaves[0] / leaves[3]
    c = ad.log_sum_exp([a, b, a * b])
    out = c + ad.sqrt(leaves[1]) * ad.logistic(b) + ad.log_gamma(leaves[2])
    return out.val, ad.gradient(out, leaves)


def test_rebuilding_graph_is_bit_identical():
    v1, g1 = _random_program(123)
    v2, g2 = _random_program(123)
    assert v1 == v2
    assert g1 == g2


def test_domain_errors():
    g = ad.Graph()
    with pytest.raises(DomainError, match="log"):
        ad.log(g.leaf(0.0))
    with pytest.raises(DomainError, match="log"):
        ad.log(g.leaf(-1.0))
    with pytest.raises(DomainError, match="sqrt"):
        ad.sqrt(g.leaf(-1.0))
    with pytest.raises(DomainError, match="div"):
        g.leaf(1.0) / g.leaf(0.0)
    with pytest.raises(DomainError, match="log_gamma"):
        ad.log_gamma(g.leaf(0.0))


def test_exp_overflow_saturates_to_inf():
    g = ad.Graph()
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert ad.exp(g.leaf(800.0)).val == math.inf
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert ad.exp(800.0) == math.inf


def test_mixed_graph_operands_rejected():
    g1, g2 = ad.Graph(), ad.Graph()
    with pytest.raises(ValueError, match="different graphs"):
        g1.leaf(3.0) * g2.leaf(2.0)
    with pytest.raises(ValueError, match="different graphs"):
        g1.leaf(3.0) - g2.leaf(2.0)
    with pytest.raises(ValueError, match="graph"):
        ad.dot([g1.leaf(1.0)], [g2.leaf(2.0)])
    with pytest.raises(ValueError, match="graph"):
        ad.log_sum_exp([g1.leaf(1.0), g2.leaf(2.0)])


def test_backward_covers_every_leaf():
    g = ad.Graph()
    x = g.leaf(1.0)
    y = g.leaf(2.0)
    unused = g.leaf(3.0)
    assert ad.gradient(x + y, [x, y, unused]) == [1.0, 1.0, 0.0]


def test_import_does_not_load_scipy():
    # scipy is needed only for the log_gamma adjoint of a tape variable
    env = dict(os.environ,
               PYTHONPATH=str(Path(meanfield.__file__).parents[1]))
    code = "import sys, meanfield; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_dot_matches_elementwise_sum_exactly():
    rng = np.random.default_rng(11)
    for _ in range(20):
        xs = list(rng.normal(0, 2, 5))
        ys = list(rng.normal(0, 2, 5))
        manual = 0.0
        for a, b in zip(xs, ys):
            manual += a * b
        assert ad.dot(xs, ys) == manual


def test_graph_topological_invariant():
    _, _ = _random_program(5)
    g = ad.Graph()
    leaves = [g.leaf(v) for v in (0.5, 1.5)]
    out = ad.log_sum_exp([leaves[0] * leaves[1], ad.exp(leaves[0])])
    for i, (_, args, _) in enumerate(out.graph.nodes):
        for j in args:
            assert j < i


def test_sum_over_every_axis_records_the_total():
    # axes that cover the value record what axis=None records: the same
    # value and an adjoint made by np.full, not a broadcast view
    x = np.arange(12.0).reshape(3, 4)
    for axis in ((0, 1), (-2, -1)):
        g = ad.Graph()
        leaf = g.leaf(x)
        total, covered = ad.sum(leaf), ad.sum(leaf, axis)
        assert covered.val == total.val
        d = g.nodes[covered.i][2](2.0)[0]
        assert d.flags.writeable and d.tolist() == [[2.0] * 4] * 3
    g = ad.Graph()
    row = ad.sum(g.leaf(x[0]), -1)
    assert g.nodes[row.i][2](1.0)[0].flags.writeable
    g = ad.Graph()
    leaf = g.leaf(x)
    part = ad.sum(leaf, -1)  # a partial sum keeps its own adjoint
    assert part.val.tolist() == [6.0, 22.0, 38.0]
    assert ad.gradient(ad.sum(part), [leaf])[0].tolist() == [[1.0] * 4] * 3


def test_take_gathers_along_an_axis_of_floats_and_tape_values():
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1.0, (4, 3))
    idx = np.array([2, 0, 2, 3])
    draws = np.stack([x, 2.0 * x])
    assert np.array_equal(ad.take(draws, idx, -2), draws[:, idx])
    assert np.array_equal(ad.take(x[:, 0], idx), x[idx, 0])
    g = ad.Graph()
    leaf = g.leaf(x)
    rows = ad.take(leaf, idx, -2)  # the first axis: recorded as x[idx]
    assert np.array_equal(rows.val, x[idx])
    grad = ad.gradient(ad.sum(rows), [leaf])[0]
    assert grad[:, 0].tolist() == [1.0, 0.0, 2.0, 1.0]  # repeats add up
    cols = ad.take(leaf, np.array([1, 1]), -1)
    grad = ad.gradient(ad.sum(cols), [leaf])[0]
    assert grad.tolist() == [[0.0, 2.0, 0.0]] * 4
    # an int or a slice indexes the last axis past the draw axes, as
    # x[..., key], but an int on a 1-D value gives a numpy scalar
    for key in (1, slice(1, 3)):
        for val in (x[0], x):
            want = val[..., key]
            got = ad.take(val, key)
            assert np.array_equal(got, want)
            g = ad.Graph()
            leaf = g.leaf(val)
            taped = ad.take(leaf, key)
            assert np.array_equal(taped.val, want)
            if val.ndim == 1 and key == 1:
                assert type(got) is np.float64
                assert type(taped.val) is np.float64
            grad = ad.gradient(ad.sum(taped), [leaf])[0]
            hit = np.zeros(val.shape)
            hit[..., key] = 1.0
            assert np.array_equal(grad, hit)


def _ulps(a, b):
    """Units in the last place between float arrays of one sign."""
    return np.abs(np.asarray(a, dtype=float).view(np.int64)
                  - np.asarray(b, dtype=float).view(np.int64))


def _softplus_exact(x: float) -> float:
    """log(1 + e^x) correctly rounded: decimal exp and ln are, and the
    digits are enough that 1 + e^x keeps e^x's leading 40."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40 + max(0, int(-x / 2.3))
        return float((1 + decimal.Decimal(x).exp()).ln())


def test_softplus_is_faithfully_rounded_on_floats_and_the_tape():
    # the SIMD formula and np.logaddexp are each within 1 ulp of the
    # correctly rounded value, so within 2 ulps of each other
    rng = np.random.default_rng(17)
    x = np.concatenate([rng.uniform(-800.0, 800.0, 100),
                        rng.normal(0.0, 5.0, 300), [-708.5, -1.0, 36.0]])
    out = ad.softplus(x)
    g = ad.Graph()
    assert ad.softplus(g.leaf(x)).val.tobytes() == out.tobytes()
    exact = np.array([_softplus_exact(v) for v in x.tolist()])
    assert _ulps(out, exact).max() <= 1
    assert _ulps(np.logaddexp(0.0, x), exact).max() <= 1
    assert _ulps(out, np.logaddexp(0.0, x)).max() <= 2


def test_softplus_keeps_logaddexps_special_values():
    specials = [0.0, -0.0, 745.0, -745.0, math.inf, -math.inf, math.nan]
    with np.errstate(invalid="ignore"):  # logaddexp's, at NaN
        expected = np.logaddexp(0.0, specials)
    got = ad.softplus(np.array(specials))
    assert np.array_equal(got, expected, equal_nan=True)
    for v, want in zip(specials, expected.tolist()):
        assert np.array_equal(ad.softplus(v), want, equal_nan=True)
        if math.isfinite(v):  # a leaf must be finite
            assert ad.softplus(ad.Graph().leaf(v)).val == want


def test_add_keeps_the_bits_of_a_chain_of_plus():
    rng = np.random.default_rng(5)
    terms = [rng.normal(0.0, 10.0 ** k, 6) for k in range(-3, 5)]
    chain = terms[0]
    for t in terms[1:]:
        chain = chain + t
    assert ad.add(*terms).tobytes() == chain.tobytes()
    g = ad.Graph()
    leaves = [g.leaf(t) for t in terms]
    assert ad.add(*leaves).val.tobytes() == chain.tobytes()


def test_add_passes_its_adjoint_to_each_term_unbroadcast():
    rng = np.random.default_rng(6)
    w = rng.normal(0.0, 1.0, (3, 4))
    g = ad.Graph()
    s = g.leaf(0.5)
    v = g.leaf(rng.normal(0.0, 1.0, 4))
    m = g.leaf(rng.normal(0.0, 1.0, (3, 1)))
    out = ad.add(s, v, 2.0, m, np.ones((3, 4)), v)  # v twice
    assert out.val.shape == (3, 4)
    d_s, d_v, d_m = ad.gradient(ad.sum(out * w), [s, v, m])
    assert d_s == pytest.approx(w.sum(), rel=1e-12)
    assert d_v.tolist() == pytest.approx((2.0 * w.sum(axis=0)).tolist(),
                                         rel=1e-12)
    assert d_m.shape == (3, 1)
    assert d_m.ravel().tolist() == pytest.approx(w.sum(axis=1).tolist(),
                                                 rel=1e-12)


def test_add_records_one_node_and_no_constants():
    g = ad.Graph()
    a, b = g.leaf(1.0), g.leaf(np.arange(3.0))
    out = ad.add(a, 2.0, np.ones(3), b)
    assert len(g) == 3 and out.i == 2
    assert g.nodes[out.i][1] == (a.i, b.i)
    assert out.val.tolist() == [4.0, 5.0, 6.0]
    floats = ad.add(1.0, np.ones(2))  # no Var: a value, no node
    assert type(floats) is np.ndarray and floats.tolist() == [2.0, 2.0]
    assert len(g) == 3


# Each value primitive: the numpy expression its float path computes (on
# the positive inputs below), and the type it returns for each of
# _FLOAT_INPUTS. Unary minus on a value that is not a Var is numpy's own.
_FLOAT_INPUTS = {"numpy_scalar": np.float64(0.7), "0d": np.array(0.7),
                 "array": np.array([0.3, 1.7, 2.9])}
_F64, _ARRAY = np.float64, np.ndarray
_VALUE_PRIMITIVES = {
    "exp": (ad.exp, np.exp, (_F64, _F64, _ARRAY)),
    "log": (ad.log, np.log, (_F64, _F64, _ARRAY)),
    "sqrt": (ad.sqrt, np.sqrt, (_F64, _F64, _ARRAY)),
    "logistic": (ad.logistic, lambda v: 1.0 / (1.0 + np.exp(-v)),
                 (_F64, _F64, _ARRAY)),
    "softplus": (ad.softplus, lambda v: v + np.log1p(np.exp(-v)),
                 (_F64, _F64, _ARRAY)),
    "log_gamma": (ad.log_gamma,
                  lambda v: np.reshape([math.lgamma(t) for t in
                                        np.ravel(v).tolist()], np.shape(v)),
                  (float, float, _ARRAY)),
    "log_sum_exp": (ad.log_sum_exp,
                    lambda v: np.log(np.sum(np.exp(v - np.max(v, -1)), -1))
                    + np.max(v, -1),
                    (_F64, _F64, _F64)),
    "cumsum": (ad.cumsum, lambda v: np.cumsum(v, -1),
               (_ARRAY, _ARRAY, _ARRAY)),
    "neg": (lambda x: -x, np.negative, (_F64, _F64, _ARRAY)),
}


def _same_bits(a, b):
    return (np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


@pytest.mark.parametrize("name", _VALUE_PRIMITIVES)
def test_value_primitive_records_one_node_with_the_float_paths_bits(name):
    f, numpy_expr, types = _VALUE_PRIMITIVES[name]
    for x, want_type in zip(_FLOAT_INPUTS.values(), types):
        got = f(x)  # no Var: a value of the same type, and no node
        assert type(got) is want_type, (x, type(got))
        assert _same_bits(got, numpy_expr(x)), x
    leaves = [np.array([0.3, 1.7, 2.9]), np.array([[0.3, 1.7], [2.9, 0.5]])]
    if name not in ("log_sum_exp", "cumsum"):  # these need an axis
        leaves.insert(0, 0.7)
    for x in leaves:
        g = ad.Graph()
        leaf = g.leaf(x)
        out = f(leaf)
        assert len(g) == 2 and out.i == 1 and g.nodes[1][1] == (leaf.i,)
        want = f(leaf.val)
        assert type(out.val) is type(want) and _same_bits(out.val, want)


# the only code that may append to a tape without ad.node: a leaf, node
# itself, and the structural operations on every tape's hot path
_PUSHERS = {"Graph.leaf", "node", "Var.__getitem__", "Var.reshape", "sum"}


def test_only_leaf_node_and_structural_operations_use_push():
    tree = ast.parse(Path(ad.__file__).read_text())
    defs = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            defs += [(f"{stmt.name}.{d.name}", d) for d in stmt.body
                     if isinstance(d, ast.FunctionDef)]
        elif isinstance(stmt, ast.FunctionDef):
            defs.append((stmt.name, stmt))
    users = {name for name, d in defs for n in ast.walk(d)
             if isinstance(n, ast.Attribute) and n.attr == "_push"}
    assert users == _PUSHERS


# each value primitive, called on floats
_FLOAT_CALLS = {
    "exp": lambda: ad.exp(0.7),
    "log": lambda: ad.log(0.7),
    "sqrt": lambda: ad.sqrt(0.7),
    "logistic": lambda: ad.logistic(0.7),
    "softplus": lambda: ad.softplus(0.7),
    "log_gamma": lambda: ad.log_gamma(0.7),
    "log_sum_exp": lambda: ad.log_sum_exp(np.array([0.3, 1.7])),
    "cumsum": lambda: ad.cumsum(np.array([0.3, 1.7])),
    "concat": lambda: ad.concat([np.array([0.3]), np.array([1.7])]),
    "stack": lambda: ad.stack([0.3, 1.7]),
    "add": lambda: ad.add(0.3, 1.7, 2.9),
}


@pytest.mark.parametrize("name", _FLOAT_CALLS)
def test_value_primitives_on_floats_return_through_node(name, monkeypatch):
    # one recording rule: a value primitive hands its value to node even
    # on floats, where node returns it and records nothing
    calls = []
    record = ad.node

    def counted(*args):
        calls.append(args)
        return record(*args)

    monkeypatch.setattr(ad, "node", counted)
    _FLOAT_CALLS[name]()
    assert len(calls) == 1


@pytest.mark.parametrize("outer", [(255,), (256,), (600,), (2, 300)],
                         ids=str)
@pytest.mark.parametrize("n", range(2, 10))
def test_cumsum_does_not_depend_on_memory_layout(outer, n):
    # a cumulative sum is sequential in every layout: the value and the
    # partial of a Fortran-order array, or of one with any axis innermost,
    # keep the bytes of np.cumsum on its C copy
    rng = np.random.default_rng(n * 1000 + len(outer))
    x, w = (_rows(rng, outer, n, special=False) for _ in "xw")
    want = np.cumsum(x, axis=-1)
    want_d = np.flip(np.cumsum(np.flip(w, -1), axis=-1), -1)
    for xl, wl in zip(_layouts(x), _layouts(w)):
        assert not xl.flags.c_contiguous
        assert _same_bits(ad.cumsum(xl), want)
        leaf = ad.Graph().leaf(xl)
        out = ad.cumsum(leaf)
        assert _same_bits(out.val, want)
        d_x, = ad.gradient(ad.sum(wl * out), [leaf])
        assert _same_bits(d_x, want_d)


@pytest.mark.parametrize("op, grad", [
    (lambda x: x.reshape((1,)), 1.0),
    (lambda x: ad.sum(x, -1), 1.0),
    (lambda x: ad.dot(x, x), 1.4),
    (ad.log_sum_exp, 1.0),
])
def test_a_scalar_leaf_takes_what_a_float_takes(op, grad):
    # a 0-d tape value reshapes, sums over an axis and sweeps through
    # log_sum_exp as the float path's 0.7 does
    x = ad.Graph().leaf(0.7)
    out = op(x)
    assert _same_bits(out.val, op(np.float64(0.7)))
    assert ad.gradient(out, [x]) == [grad]


# a reduction over a last axis of 2 to 7 entries, in 256 rows or more,
# combines the slices left to right; these shapes and lengths cover both
# sides of the row count and of numpy's switch to pairwise summation at 8
# entries, which the slices must leave to numpy
_OUTER_SHAPES = [(), (0,), (1,), (7,), (3, 5), (255,), (256,), (4, 1000)]
_LAST_AXIS = range(1, 18)


def _rows(rng, outer, n, special=True):
    """Floats of shape ``outer + (n,)`` spanning 24 orders of magnitude;
    with ``special``, the first rows hold only -0.0, only +inf, +inf with
    -inf, -inf with finite values, a NaN, and mixed signed zeros."""
    x = rng.normal(0.0, 1.0, outer + (n,)) * 10.0 ** rng.integers(
        -12, 13, outer + (n,))
    rows = x.reshape(-1, n)  # a view: writes reach x
    if special:
        for row, fill in zip(rows, [(-0.0,), (np.inf,), (np.inf, -np.inf),
                                    (-np.inf, 1.5), (2.0, np.nan),
                                    (0.0, -0.0)]):
            row[:] = np.resize(fill, n)
    return x


def _tape_value(x):
    """A tape value with the bits of ``x``, non-finite entries included,
    which a leaf refuses."""
    return ad.Graph().leaf(np.ones(np.shape(x))) * x


def _reduction_cases():
    rng = np.random.default_rng(31)
    for outer in _OUTER_SHAPES:
        for n in _LAST_AXIS:
            yield outer, n, _rows(rng, outer, n)


def test_sum_over_the_last_axis_keeps_numpys_bits():
    with np.errstate(invalid="ignore"):  # inf - inf
        for outer, n, x in _reduction_cases():
            want = np.add.reduce(x, axis=-1)
            got = ad.sum(x, -1)
            assert type(got) is type(want) and _same_bits(got, want), \
                (outer, n)
            v = _tape_value(x)
            assert _same_bits(ad.sum(v, -1).val,
                              np.add.reduce(v.val, axis=-1)), (outer, n)
    ints = np.arange(60).reshape(3, 4, 5)
    assert ad.sum(ints, -1).dtype == np.int64
    assert ad.sum(ints, -1).tolist() == ints.sum(-1).tolist()


def test_dot_over_a_last_axis_keeps_numpys_bits():
    rng = np.random.default_rng(37)
    for outer in _OUTER_SHAPES:
        for n in _LAST_AXIS:
            x, y = (_rows(rng, outer, n, special=False) for _ in "xy")
            want = np.add.reduce(x * y, axis=-1)
            got = ad.dot(x, y)
            assert type(got) is type(want) and _same_bits(got, want), \
                (outer, n)
            g = ad.Graph()
            assert _same_bits(ad.dot(g.leaf(x), y).val, want), (outer, n)


def _keepdims_log_sum_exp(v):
    top = np.max(v, axis=-1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    out = np.log(np.sum(np.exp(v - top), axis=-1, keepdims=True)) + top
    return np.squeeze(out, axis=-1)[()]


def test_log_sum_exp_over_the_last_axis_keeps_numpys_bits():
    with np.errstate(invalid="ignore", divide="ignore"):
        for outer, n, x in _reduction_cases():
            want = _keepdims_log_sum_exp(x)
            got = ad.log_sum_exp(x, -1)
            assert type(got) is type(want) and _same_bits(got, want), \
                (outer, n)
            v = _tape_value(x)
            assert _same_bits(ad.log_sum_exp(v, -1).val,
                              _keepdims_log_sum_exp(v.val)), (outer, n)


def test_short_axis_reductions_keep_their_gradients():
    # finite leaves: the adjoint of a sum spreads the row's weight over
    # its entries, and that of log_sum_exp weights them by exp(x - lse)
    rng = np.random.default_rng(41)
    for outer in [(7,), (3, 5), (2, 300)]:
        for n in _LAST_AXIS:
            x = rng.normal(0.0, 3.0, outer + (n,))
            u = rng.normal(0.0, 1.0, outer)
            leaf = ad.Graph().leaf(x)
            d_sum, = ad.gradient(ad.sum(u * ad.sum(leaf, -1)), [leaf])
            assert _same_bits(d_sum, np.broadcast_to(u[..., None], x.shape))
            leaf = ad.Graph().leaf(x)
            d_lse, = ad.gradient(ad.sum(u * ad.log_sum_exp(leaf, -1)),
                                 [leaf])
            lse = _keepdims_log_sum_exp(x)[..., None]
            assert _same_bits(d_lse, u[..., None] * np.exp(x - lse))


def test_cumsum_over_the_last_axis_keeps_numpys_bits():
    # numpy accumulates in order at every length, so the sums by slices
    # over a short last axis give its bytes, on reversed views too
    with np.errstate(invalid="ignore"):  # inf - inf
        for outer, n, x in _reduction_cases():
            for y in (x, x[..., ::-1]):
                want = np.cumsum(y, axis=-1)
                got = ad.cumsum(y)
                assert type(got) is type(want) and _same_bits(got, want), \
                    (outer, n)
                assert _same_bits(ad.cumsum(_tape_value(y)).val, want), \
                    (outer, n)


def test_cumsum_partial_keeps_numpys_bits():
    # the adjoint of a cumulative sum is the reversed cumulative sum of
    # the node's adjoint, here w
    rng = np.random.default_rng(43)
    for outer in [(7,), (255,), (256,), (2, 300)]:
        for n in _LAST_AXIS:
            x = rng.normal(0.0, 3.0, outer + (n,))
            w = _rows(rng, outer, n, special=False)
            leaf = ad.Graph().leaf(x)
            d_x, = ad.gradient(ad.sum(w * ad.cumsum(leaf)), [leaf])
            want = np.flip(np.cumsum(np.flip(w, -1), axis=-1), -1)
            assert _same_bits(d_x, want), (outer, n)


def _chained(terms):
    out = ad.value(terms[0])
    for t in terms[1:]:
        out = out + ad.value(t)
    return out


def _sum_cases():
    rng = np.random.default_rng(47)
    x = rng.normal(0.0, 1.0, (3, 4)) * 10.0 ** rng.integers(-8, 9, (3, 4))
    y = rng.normal(0.0, 1.0, 4)
    ints = rng.integers(-5, 6, (3, 4))
    return {
        "a term passed thrice": (x, x, x),
        "a term passed twice after the first": (y, x, x, y),
        "an int array term": (x, 0.5, ints, x),
        "an int total": (ints, ints, 3, ints, x),
        "a term that broadcasts the total": (y, y, x, y),
        "0-d arrays": (np.array(0.1), np.array(0.2), np.array(0.3)),
        "numpy scalars": (np.float64(0.1), np.float64(0.2), np.float64(0.3)),
        "floats": (0.1, 0.2, 0.3, 0.4),
        "a float first": (0.5, y, y, 2, y),
    }


@pytest.mark.parametrize("case", list(_sum_cases()))
def test_add_into_its_own_total_keeps_the_chains_result(case):
    terms = _sum_cases()[case]
    before = [np.copy(t) for t in terms]
    want = _chained(terms)
    got = ad.add(*terms)
    assert type(got) is type(want)
    assert np.result_type(got) == np.result_type(want)
    assert _same_bits(got, want)
    for t, b in zip(terms, before):  # no operand is written to
        assert _same_bits(t, b)


def test_add_into_its_own_total_leaves_var_operands_as_they_are():
    x = _sum_cases()["a term passed thrice"][0]
    g = ad.Graph()
    leaf = g.leaf(x)
    twice = leaf * 2.0
    before = [np.copy(leaf.val), np.copy(twice.val)]
    terms = (leaf, twice, leaf, x, twice)
    out = ad.add(*terms)
    assert _same_bits(out.val, _chained(terms))
    assert _same_bits(leaf.val, before[0]) and \
        _same_bits(g.nodes[leaf.i][0], before[0])
    assert _same_bits(twice.val, before[1])
    d_x, = ad.gradient(ad.sum(out), [leaf])
    assert d_x.tolist() == np.full(x.shape, 6.0).tolist()


def _chained_softplus(v):
    return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))


@pytest.mark.parametrize("v", [
    np.array([-800.0, -3.5, -0.0, 0.0, 1e-300, 2.5, 40.0, 800.0]),
    np.array([[-2.0, 0.5], [3.0, -7.25]]),
    np.arange(-4, 5),
    np.int64(-3), 3, 0.25, np.float64(-1.5), np.array(2.0),
], ids=["floats", "rows", "ints", "numpy_int", "int", "float",
        "numpy_float", "0d"])
def test_softplus_keeps_the_chains_result(v):
    before = np.copy(v)
    want = _chained_softplus(v)
    got = ad.softplus(v)
    assert type(got) is type(want) and got.dtype == want.dtype
    assert _same_bits(got, want)
    assert _same_bits(v, before)


def _layouts(x):
    """The values of C array ``x`` in other memory orders: Fortran order,
    and each axis in turn innermost."""
    yield np.asfortranarray(x)
    for a in range(x.ndim - 1):
        inner = np.ascontiguousarray(np.moveaxis(x, a, -1))
        yield np.moveaxis(inner, -1, a)


# last axes on both sides of numpy's 8-entry switch to pairwise sums, rows
# on both sides of the 256-row floor of the sums by slices; an axis of 1
# entry leaves a C array C-contiguous in every layout
_LAYOUT_OUTER = [(7,), (255,), (256,), (3, 5), (4, 300), (2, 3, 50)]
_LAYOUT_LAST_AXIS = range(2, 18)


def _layout_reductions(x, y):
    return [ad.sum(x, -1), ad.sum(x, 0), ad.sum(x, (-2, -1)), ad.sum(x),
            ad.dot(x, y), ad.log_sum_exp(x, -1), ad.log_sum_exp(x, 0)]


def test_reductions_do_not_depend_on_memory_layout():
    # every reduction runs in C order, so a Fortran-order array, or one
    # with any axis innermost, gives the bytes of its C copy
    rng = np.random.default_rng(53)
    with np.errstate(all="ignore"):  # inf - inf, exp of a NaN row's shift
        for outer in _LAYOUT_OUTER:
            for n in _LAYOUT_LAST_AXIS:
                x = _rows(rng, outer, n)
                y = _rows(rng, outer, n, special=False)
                want = _layout_reductions(x, y)
                for xl, yl in zip(_layouts(x), _layouts(y)):
                    assert not xl.flags.c_contiguous
                    for k, got in enumerate(_layout_reductions(xl, yl)):
                        assert type(got) is type(want[k]) and \
                            _same_bits(got, want[k]), (outer, n, k)


def _taped_reductions(x, y):
    """The values of a sum, a dot and a log-sum-exp of tape leaf ``x``,
    and the gradient of a weighted total of all three."""
    leaf = ad.Graph().leaf(x)
    outs = [ad.sum(leaf, -1), ad.dot(leaf, y), ad.log_sum_exp(leaf, -1)]
    d_x, = ad.gradient(ad.sum(ad.add(*[w * o for w, o in zip(
        (1.0, -0.5, 2.0), outs)])), [leaf])
    return [o.val for o in outs] + [d_x]


def test_tape_reductions_do_not_depend_on_memory_layout():
    # a leaf keeps the layout of its value
    rng = np.random.default_rng(57)
    for outer in _LAYOUT_OUTER:
        for n in _LAYOUT_LAST_AXIS:
            x, y = (_rows(rng, outer, n, special=False) for _ in "xy")
            want = _taped_reductions(x, y)
            for xl, yl in zip(_layouts(x), _layouts(y)):
                assert not ad.Graph().leaf(xl).val.flags.c_contiguous
                for k, got in enumerate(_taped_reductions(xl, yl)):
                    assert _same_bits(got, want[k]), (outer, n, k)


def _operand_shapes(shape):
    """Shapes that broadcast to ``shape``: leading axes dropped, and each
    axis of length 1."""
    yield shape[1:]
    yield shape[-1:]
    for k in range(len(shape)):
        yield shape[:k] + (1,) + shape[k + 1:]


def test_unbroadcast_does_not_depend_on_memory_layout():
    # an adjoint summed back to an operand's shape, over added axes and
    # over axes of length 1, gives the same bytes in every layout
    rng = np.random.default_rng(59)
    for outer in _LAYOUT_OUTER:
        for n in _LAYOUT_LAST_AXIS:
            g = _rows(rng, outer, n, special=False)
            for shape in _operand_shapes(g.shape):
                like = np.zeros(shape)
                want = ad._unbroadcast(g, like)
                for gl in _layouts(g):
                    assert _same_bits(ad._unbroadcast(gl, like), want), \
                        (outer, n, shape)


def test_broadcast_gradients_do_not_depend_on_the_datas_layout():
    # a leaf broadcast against data, then reduced over the last axis by a
    # log-sum-exp: the adjoint the node sums back to the leaf takes the
    # data's layout, and the sum runs in C order
    rng = np.random.default_rng(61)
    for outer in _LAYOUT_OUTER:
        for n in _LAYOUT_LAST_AXIS:
            data = _rows(rng, outer, n, special=False)
            for shape in _operand_shapes(data.shape):
                w = rng.normal(0.0, 1.0, shape)

                def grad(d):
                    leaf = ad.Graph().leaf(w)
                    out = ad.sum(ad.log_sum_exp(leaf + d, -1))
                    return ad.gradient(out, [leaf])[0]

                want = grad(data)
                for dl in _layouts(data):
                    assert _same_bits(grad(dl), want), (outer, n, shape)


def _adjacent_last_axis_views(x):
    """Views of C array ``x`` whose last axis keeps its entries adjacent or
    repeated in memory: slices, reversed and broadcast views, and, with 3
    or more axes, the outer two axes swapped in memory."""
    yield x[1:]
    yield x[..., 1:]
    yield x[::-1]
    yield x[..., ::-1]
    yield np.broadcast_to(x[:1], x.shape)
    yield np.broadcast_to(x[..., :1], x.shape)
    if x.ndim > 2:
        yield np.swapaxes(np.ascontiguousarray(np.swapaxes(x, 0, 1)), 0, 1)


def test_views_with_an_adjacent_last_axis_reduce_as_numpy_does():
    # only a layout with another axis innermost is reduced as a C copy: a
    # view that keeps its last axis adjacent keeps the bytes of numpy's
    # own reduction of it, which a C copy would change for some of them
    rng = np.random.default_rng(67)
    for outer in _LAYOUT_OUTER:
        for n in _LAYOUT_LAST_AXIS:
            x = _rows(rng, outer, n, special=False)
            for v in _adjacent_last_axis_views(x):
                every = tuple(range(v.ndim))
                for axis in [None, 0, -1, (-2, -1), every[1:], every]:
                    want = np.add.reduce(v, axis=axis)
                    assert _same_bits(ad.sum(v, axis), want), \
                        (outer, n, v.strides, axis)
                for shape in _operand_shapes(v.shape):
                    extra = v.ndim - len(shape)
                    want = v.sum(axis=tuple(range(extra)))
                    axes = tuple(k for k, m in enumerate(shape)
                                 if m == 1 and want.shape[k] != 1)
                    if axes:
                        want = want.sum(axis=axes, keepdims=True)
                    got = ad._unbroadcast(v, np.zeros(shape))
                    assert _same_bits(got, want), (outer, n, shape)


def test_adjoints_reject_an_output_of_another_graph():
    out = ad.Graph().leaf(np.array([1.0, 2.0])) * 2.0
    with pytest.raises(ValueError, match="does not belong to this graph"):
        ad.Graph().adjoints(out)


@pytest.mark.parametrize("op, value, grad", [
    (lambda c, x: c - x, -1.0, -1.0),
    (lambda c, x: c / x, 2.0 / 3.0, -2.0 / 9.0),
], ids=["float_minus_var", "float_over_var"])
def test_a_float_on_the_left_of_a_var(op, value, grad):
    g = ad.Graph()
    x = g.leaf(3.0)
    out = op(2.0, x)
    assert out.val == pytest.approx(value, rel=1e-15)
    assert g.adjoints(out)[x.i] == pytest.approx(grad, rel=1e-15)


def test_take_of_a_list_indexes_it_as_numpy_does():
    assert ad.take([[1.0, 2.0], [3.0, 4.0]], 1).tolist() == [2.0, 4.0]
    assert ad.take([5.0, 6.0, 7.0], [2, 0]).tolist() == [7.0, 5.0]


def test_var_repr_names_its_node_and_value():
    g = ad.Graph()
    g.leaf(1.0)
    assert repr(g.leaf(2.5) + 1.0) == f"Var(node=2, val={np.float64(3.5)!r})"
