import math

import numpy as np
import pytest

from meanfield import autodiff as ad
from meanfield import densities as dens
from meanfield.errors import DomainError, ShapeError
from util import central_diff


def test_normal_standard_at_zero():
    assert dens.normal(0.0, 0.0, 1.0) == pytest.approx(-0.9189385, abs=1e-7)


def test_poisson_two_at_rate_one():
    assert dens.poisson(2, 1.0) == pytest.approx(-1.6931472, abs=1e-7)


def test_gamma_unit():
    assert dens.gamma(1.0, 1.0, 1.0) == pytest.approx(-1.0, abs=1e-12)


def test_bernoulli_logit_balanced():
    assert dens.bernoulli_logit(1, 0.0) == \
        pytest.approx(math.log(0.5), abs=1e-12)
    assert dens.bernoulli_logit(0, 0.0) == \
        pytest.approx(math.log(0.5), abs=1e-12)


def test_dirichlet_uniform_density():
    # log Gamma(3) = log 2: density of the flat Dirichlet on the 2-simplex
    oracle = math.lgamma(3.0)
    assert oracle == pytest.approx(0.6931472, abs=1e-7)
    value = dens.dirichlet([1 / 3, 1 / 3, 1 / 3], [1.0, 1.0, 1.0])
    assert value == pytest.approx(oracle, abs=1e-12)


def test_uniform_value():
    assert dens.uniform(3.0, -1.0, 4.0) == pytest.approx(-math.log(5.0))
    with pytest.raises(DomainError, match="uniform"):
        dens.uniform(5.0, -1.0, 4.0)


def _midpoint_integral(f, lo, hi, n):
    h = (hi - lo) / n
    xs = lo + h * (np.arange(n) + 0.5)
    return h * math.fsum(math.exp(f(float(x))) for x in xs)


@pytest.mark.parametrize("name,f,lo,hi", [
    ("normal", lambda x: dens.normal(x, 0.3, 1.2), -15.0, 15.0),
    ("lognormal", lambda x: dens.lognormal(x, 0.2, 0.8), 1e-9, 80.0),
    ("gamma", lambda x: dens.gamma(x, 2.5, 1.5), 1e-9, 40.0),
    ("inverse_gamma", lambda x: dens.inverse_gamma(x, 3.0, 2.0), 1e-6, 80.0),
    ("exponential", lambda x: dens.exponential(x, 0.7), 0.0, 80.0),
    ("uniform", lambda x: dens.uniform(x, -1.0, 4.0), -1.0, 4.0),
])
def test_continuous_densities_integrate_to_one(name, f, lo, hi):
    assert _midpoint_integral(f, lo, hi, 20000) == \
        pytest.approx(1.0, abs=1e-3)


def test_dirichlet_integrates_to_one():
    alpha = [2.0, 3.0, 4.0]
    n = 400
    h = 1.0 / n
    total = 0.0
    for i in range(n):
        x1 = (i + 0.5) * h
        for j in range(n - i - 1):
            x2 = (j + 0.5) * h
            x3 = 1.0 - x1 - x2
            if x3 <= 0.0:
                continue
            total += math.exp(dens.dirichlet([x1, x2, x3], alpha))
    assert total * h * h == pytest.approx(1.0, abs=1e-3)


def test_poisson_mass_sums_to_one():
    for rate in (0.5, 3.0, 11.0):
        total = math.fsum(math.exp(dens.poisson(k, rate))
                          for k in range(200))
        assert abs(total - 1.0) <= 1e-12


def test_poisson_at_infinite_rate_is_minus_inf():
    # every count has probability 0 there, k = 0 included; the finite
    # rates beside an infinite one keep their bits
    k = np.array([0, 2, 0, 5])
    rates = np.array([0.5, math.inf, math.inf, 3.0])
    out = dens.poisson(k, rates)
    assert out[1] == out[2] == -math.inf
    finite = dens.poisson(k[[0, 3]], rates[[0, 3]])
    assert out[[0, 3]].tolist() == finite.tolist()
    assert dens.poisson(0, math.inf) == -math.inf


def test_poisson_at_rate_zero():
    # all the mass is on count 0, as in Stan Math's poisson_lpmf; no
    # RuntimeWarning either, which the test settings make an error
    assert dens.poisson(0, 0.0) == 0.0
    assert dens.poisson(3, 0.0) == -math.inf
    out = dens.poisson(np.array([0, 3, 2]), np.array([0.0, 0.0, 1.5]))
    assert out[:2].tolist() == [0.0, -math.inf]
    assert out[2] == dens.poisson(2, 1.5)
    g = ad.Graph()
    leaf = g.leaf(0.0)
    assert ad.gradient(dens.poisson(0, leaf), [leaf]) == [-1.0]


def test_bernoulli_mass_sums_to_one():
    for logit in (-30.0, -2.0, 0.0, 1.5, 30.0):
        total = math.exp(dens.bernoulli_logit(0, logit)) + \
            math.exp(dens.bernoulli_logit(1, logit))
        assert abs(total - 1.0) <= 1e-12


# (name, argument count, float oracle over the full argument vector,
#  in-domain sampler)
_GRAD_CASES = [
    ("normal", dens.normal,
     lambda rng: [rng.normal(0, 2), rng.normal(0, 2), rng.uniform(0.3, 3)]),
    ("lognormal", dens.lognormal,
     lambda rng: [rng.uniform(0.2, 5), rng.normal(0, 1),
                  rng.uniform(0.3, 2)]),
    ("gamma", dens.gamma,
     lambda rng: [rng.uniform(0.3, 5), rng.uniform(0.5, 4),
                  rng.uniform(0.5, 3)]),
    ("inverse_gamma", dens.inverse_gamma,
     lambda rng: [rng.uniform(0.3, 5), rng.uniform(0.5, 4),
                  rng.uniform(0.5, 3)]),
    ("exponential", dens.exponential,
     lambda rng: [rng.uniform(0.1, 6), rng.uniform(0.2, 3)]),
]


@pytest.mark.parametrize("name,fn,sample", _GRAD_CASES,
                         ids=[c[0] for c in _GRAD_CASES])
def test_density_gradients_match_finite_differences(name, fn, sample):
    rng = np.random.default_rng(17)
    for _ in range(30):
        args = sample(rng)
        g = ad.Graph()
        leaves = [g.leaf(v) for v in args]
        out = fn(*leaves)
        grads = ad.gradient(out, leaves)
        fd = central_diff(lambda v: fn(*v), args, h=1e-6)
        for gv, fv in zip(grads, fd):
            assert abs(gv - fv) <= 1e-6 * max(1.0, abs(fv))


def test_poisson_gradient_wrt_rate():
    rng = np.random.default_rng(5)
    for _ in range(30):
        k = int(rng.integers(0, 9))
        rate = float(rng.uniform(0.3, 6.0))
        g = ad.Graph()
        leaf = g.leaf(rate)
        grads = ad.gradient(dens.poisson(k, leaf), [leaf])
        fd = central_diff(lambda v: dens.poisson(k, v[0]), [rate], h=1e-6)
        assert abs(grads[0] - fd[0]) <= 1e-6 * max(1.0, abs(fd[0]))


def test_bernoulli_logit_gradient():
    rng = np.random.default_rng(6)
    for _ in range(30):
        y = int(rng.integers(0, 2))
        t = float(rng.normal(0, 4))
        g = ad.Graph()
        leaf = g.leaf(t)
        grads = ad.gradient(dens.bernoulli_logit(y, leaf), [leaf])
        fd = central_diff(lambda v: dens.bernoulli_logit(y, v[0]), [t],
                          h=1e-6)
        assert abs(grads[0] - fd[0]) <= 1e-6 * max(1.0, abs(fd[0]))


def test_dirichlet_gradient_wrt_value():
    rng = np.random.default_rng(8)
    alpha = [2.0, 3.0, 1.5]
    for _ in range(20):
        raw = rng.uniform(0.2, 1.0, 3)
        x = list(raw / raw.sum())
        g = ad.Graph()
        leaves = [g.leaf(v) for v in x]
        grads = ad.gradient(dens.dirichlet(leaves, alpha), leaves)
        # vary one coordinate at a time; renormalization is the caller's
        # business, the density is a function of the raw coordinates
        fd = central_diff(
            lambda v: math.fsum((a - 1.0) * math.log(vi)
                                for vi, a in zip(v, alpha)), x, h=1e-7)
        for gv, fv in zip(grads, fd):
            assert abs(gv - fv) <= 1e-5 * max(1.0, abs(fv))


def test_domain_errors_name_the_distribution():
    with pytest.raises(DomainError, match="normal"):
        dens.normal(0.0, 0.0, -1.0)
    with pytest.raises(DomainError, match="lognormal"):
        dens.lognormal(-1.0, 0.0, 1.0)
    with pytest.raises(DomainError, match="gamma"):
        dens.gamma(-1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="inverse_gamma"):
        dens.inverse_gamma(1.0, -1.0, 1.0)
    with pytest.raises(DomainError, match="exponential"):
        dens.exponential(-0.5, 1.0)
    with pytest.raises(DomainError, match="dirichlet"):
        dens.dirichlet([0.5, 0.5], [1.0, -1.0])
    with pytest.raises(DomainError, match="dirichlet"):
        dens.dirichlet([0.7, 0.7], [1.0, 1.0])
    with pytest.raises(DomainError, match="poisson: rate"):
        dens.poisson(1, -0.5)
    # a count or outcome outside the support is bad data, not a bad draw:
    # a ShapeError naming the first such value, not the whole array
    with pytest.raises(ShapeError, match=r"^poisson: .* got -1$"):
        dens.poisson(np.array([3, -1, -2]), 1.0)
    with pytest.raises(ShapeError, match=r"^poisson: .* got 2\.5$"):
        dens.poisson(np.array([1.0, 2.5, 3.5]), 1.0)
    with pytest.raises(ShapeError, match=r"^bernoulli_logit: .* got 2$"):
        dens.bernoulli_logit(np.array([0, 2, 3]), 0.0)
    with pytest.raises(ShapeError, match=r"^poisson: .* got -1$"):
        dens.poisson(-1, 1.0)


def test_bernoulli_logit_extreme_values_are_finite():
    assert math.isfinite(dens.bernoulli_logit(1, -700.0))
    assert math.isfinite(dens.bernoulli_logit(0, 700.0))
