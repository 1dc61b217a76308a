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
    ("pow", lambda g, v: v[0] ** v[1],
     lambda v: v[0] ** v[1],
     lambda rng: [rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0)]),
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
    with pytest.raises(DomainError, match="pow"):
        g.leaf(-2.0) ** g.leaf(2.0)
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
