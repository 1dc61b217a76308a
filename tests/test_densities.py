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


def _poisson_by_where(k, r):
    # the boundary path: every rate through where, 0 and inf included
    k = np.asarray(k)
    inside = (0.0 < r) & (r < math.inf)
    safe = np.where(inside, r, 1.0)
    edge = np.where((r == 0.0) & (k == 0), 0.0, -math.inf)
    out = np.where(inside, k * np.log(safe) - safe, edge)
    return out - dens._log_factorial(k)


def _same_bytes(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


def test_poisson_interior_rates_keep_the_boundary_paths_bits():
    # all rates in (0, inf) take the direct formula, any 0 or inf the
    # where path; both give the same bytes on the interior
    rng = np.random.default_rng(7)
    k = rng.integers(0, 40, (3, 50))
    r = rng.gamma(0.5, 4.0, (3, 50)) + 1e-300
    cases = [(k, r), (k[0], r), (k, r[0]), (np.asarray(4), 2.5),
             (np.asarray(0), np.float64(1e-300)), (7.0, 1e300)]
    for kk, rr in cases:
        assert _same_bytes(dens.poisson(kk, rr), _poisson_by_where(kk, rr))
    edges = r.copy()
    edges[0, :5] = 0.0
    edges[1, :5] = math.inf
    k[0, :2] = 0  # rate 0 at count 0 and at counts above 0
    mixed = dens.poisson(k, edges)
    assert _same_bytes(mixed, _poisson_by_where(k, edges))
    inner = np.s_[:, 5:]
    assert _same_bytes(mixed[inner], dens.poisson(k[inner], edges[inner]))
    assert mixed[0, :2].tolist() == [0.0, 0.0]
    assert (mixed[0, 2:5] == -math.inf).all()
    assert (mixed[1, :5] == -math.inf).all()
    for kk, rr in [(0, 0.0), (3, 0.0), (0, math.inf), (2, math.inf)]:
        assert _same_bytes(dens.poisson(kk, rr), _poisson_by_where(kk, rr))
    # the partial is the same on both paths: k / r - 1, and -1 at rate 0
    # and count 0
    zeros = r.copy()
    zeros[0, :2] = 0.0
    for rates in (r, zeros):
        leaf = ad.Graph().leaf(rates)
        d, = ad.gradient(ad.sum(dens.poisson(k, leaf)), [leaf])
        assert _same_bytes(d, k / np.where(k == 0, 1.0, leaf.val) - 1.0)


def _poisson_reference(k, rate):
    # the log mass term by term, log k! from math.lgamma of each count
    log_rate = np.log(rate)
    return np.array([kk * log_rate - rate - math.lgamma(kk + 1.0)
                     for kk in np.ravel(k).tolist()]).reshape(np.shape(k))


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_poisson_counts_match_lgamma_bits(dtype):
    counts = np.arange(301, dtype=dtype)
    for rate in (0.5, 3.7, 120.0):
        ref = _poisson_reference(counts, rate)
        for k in counts:
            out = dens.poisson(np.asarray(k), rate)
            assert np.ndim(out) == 0 and out == ref[int(k)]
        assert dens.poisson(counts, rate).tobytes() == ref.tobytes()
        grid = counts.reshape(7, 43)
        assert (dens.poisson(grid, rate).tobytes()
                == ref.reshape(7, 43).tobytes())


def test_poisson_empty_counts_give_an_empty_result():
    for dtype in (np.int64, np.float64):
        out = dens.poisson(np.array([], dtype=dtype), 2.0)
        assert out.shape == (0,)


def test_poisson_large_counts_match_lgamma_bits():
    for k in (65_535, 65_536, 10**12):
        for counts in (k, np.array([3, k]), np.array([3.0, float(k)])):
            assert (np.asarray(dens.poisson(counts, 40.0)).tobytes()
                    == _poisson_reference(counts, 40.0).tobytes())
    assert len(dens._LOG_FACTORIALS) <= 2**16


def test_poisson_small_counts_keep_their_bits_after_large_ones():
    small = np.array([0, 4, 9, 2])
    before = dens.poisson(small, 1.5)
    size = len(dens._LOG_FACTORIALS)
    dens.poisson(np.array([1, 5000]), 1.5)
    assert len(dens._LOG_FACTORIALS) >= max(size, 5001)
    assert dens.poisson(small, 1.5).tobytes() == before.tobytes()
    assert before.tobytes() == _poisson_reference(small, 1.5).tobytes()


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


def _dirichlet_formula(x, alpha):
    """Dirichlet log density per row, from scipy's log-gamma."""
    from scipy.special import gammaln
    return (np.sum((alpha - 1.0) * np.log(x), axis=-1)
            - np.sum(gammaln(alpha), axis=-1) + gammaln(np.sum(alpha, -1)))


def _simplex_rows(rng, shape):
    raw = rng.uniform(0.2, 1.0, shape)
    return raw / raw.sum(axis=-1, keepdims=True)


# (name, density on tape values, float oracle, operand sampler): operands
# of different shapes, so that each adjoint is summed over broadcast axes
_ARRAY_GRAD_CASES = [
    ("gamma", dens.gamma, dens.gamma,
     lambda rng: [rng.uniform(0.3, 5, (3, 4)), rng.uniform(0.5, 4, 4),
                  rng.uniform(0.5, 3, (3, 1))]),
    ("inverse_gamma", dens.inverse_gamma, dens.inverse_gamma,
     lambda rng: [rng.uniform(0.3, 5, (3, 4)), rng.uniform(0.5, 4, (3, 1)),
                  rng.uniform(0.5, 3, 4)]),
    # the value's rows move off the simplex under a finite difference, so
    # the oracle is the formula, which does not check the sum
    ("dirichlet", dens.dirichlet, _dirichlet_formula,
     lambda rng: [_simplex_rows(rng, (2, 3, 4)), rng.uniform(0.5, 4, 4)]),
]


@pytest.mark.parametrize("name,fn,oracle,sample", _ARRAY_GRAD_CASES,
                         ids=[c[0] for c in _ARRAY_GRAD_CASES])
def test_density_partials_on_arrays_match_central_differences(
        name, fn, oracle, sample):
    # every operand a tape value, a shape or concentration included
    rng = np.random.default_rng(23)
    for _ in range(5):
        args = sample(rng)
        w = rng.normal(0.0, 1.0, np.shape(oracle(*args)))
        g = ad.Graph()
        leaves = [g.leaf(a) for a in args]
        out = fn(*leaves)
        assert len(g) == len(leaves) + 1  # the density is one node
        grads = ad.gradient(ad.sum(w * out), leaves)
        cuts = np.cumsum([a.size for a in args])[:-1]

        def weighted(flat):
            parts = np.split(np.asarray(flat), cuts)
            return float(np.sum(w * oracle(*[
                p.reshape(a.shape) for p, a in zip(parts, args)])))

        fd = central_diff(weighted, np.concatenate([a.ravel() for a in args]),
                          h=1e-6)
        for gv, fv in zip(np.concatenate([d.ravel() for d in grads]), fd):
            assert abs(gv - fv) <= 1e-6 * max(1.0, abs(fv)), (name, gv, fv)


def test_dirichlet_float_path_keeps_the_composed_bits():
    # the log-gammas of a constant concentration are computed once per
    # distinct value: each value, a per-row one too, keeps the composed
    # bits, also when it comes back after another
    rng = np.random.default_rng(4)
    x = _simplex_rows(rng, (2, 3, 4))
    alphas = [rng.uniform(0.5, 4.0, 4), rng.uniform(0.5, 4.0, 4),
              rng.uniform(0.5, 4.0, (3, 4))]
    lgamma = np.vectorize(math.lgamma)
    for alpha in alphas + alphas:
        expected = (np.sum((alpha - 1.0) * np.log(x), axis=-1)
                    - np.sum(lgamma(alpha), axis=-1)
                    + lgamma(np.sum(alpha, axis=-1)))
        assert dens.dirichlet(x, alpha).tobytes() == expected.tobytes()
        taped = dens.dirichlet(ad.Graph().leaf(x), alpha)
        assert taped.val.tobytes() == expected.tobytes()


def test_dirichlet_row_sums_keep_numpys_bits():
    # 256 or more rows of 2 to 7 components are summed slice by slice,
    # longer ones by numpy: both give the composed bits of np.add.reduce,
    # for a constant or tape concentration of one row or one per row
    rng = np.random.default_rng(43)
    lgamma = np.vectorize(math.lgamma, otypes=[float])
    for k in range(2, 18):
        raw = 10.0 ** rng.uniform(-6.0, 0.0, (3, 300, k))
        x = raw / np.add.reduce(raw, axis=-1)[..., None]
        for alpha in (rng.uniform(0.5, 4.0, k),
                      rng.uniform(0.5, 4.0, (300, k))):
            want = (np.add.reduce((alpha - 1.0) * np.log(x), axis=-1)
                    - np.add.reduce(lgamma(alpha), axis=-1)
                    + lgamma(np.add.reduce(alpha, axis=-1)))
            assert dens.dirichlet(x, alpha).tobytes() == want.tobytes(), k
            g = ad.Graph()
            taped = dens.dirichlet(g.leaf(x), g.leaf(alpha))
            assert taped.val.tobytes() == want.tobytes(), k


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
    # floor(inf) == inf, so integrality alone would let inf through
    with pytest.raises(ShapeError, match=r"^poisson: .* got inf$"):
        dens.poisson(np.inf, 2.0)
    with pytest.raises(ShapeError, match=r"^poisson: .* got inf$"):
        dens.poisson(np.array([1.0, np.inf]), 2.0)


def test_bernoulli_logit_extreme_values_are_finite():
    assert math.isfinite(dens.bernoulli_logit(1, -700.0))
    assert math.isfinite(dens.bernoulli_logit(0, 700.0))


@pytest.mark.parametrize("y, logit", [
    (np.array([0, 1, 1, 0, 1]), np.array([-40.0, -2.5, 0.0, 3.0, 800.0])),
    (np.array([[0, 1], [1, 1]]), np.array([0.5, -1.5])),
    (1, np.float64(-2.0)),
    (0, 0.75),
], ids=["points", "broadcast", "numpy_scalar", "float"])
def test_bernoulli_logit_negates_its_own_softplus(y, logit):
    # the mass is -softplus((1 - 2y) * logit): the operands are not
    # written to, and a scalar gives a numpy scalar
    before = np.copy(logit)
    want = -ad.softplus((1.0 - 2.0 * np.asarray(y)) * logit)
    got = dens.bernoulli_logit(y, logit)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert np.asarray(logit).tobytes() == before.tobytes()


@pytest.mark.parametrize("call, message", [
    (lambda: dens.dirichlet([0.5, 0.5], [1.0, 1.0, 1.0]),
     r"dirichlet: need matching vectors of length >= 2, got \(2,\)/\(3,\)"),
    (lambda: dens.uniform(0.5, 1.0, 1.0),
     "uniform: need lower < upper, got 1.0, 1.0"),
    (lambda: dens.uniform(0.5, 2.0, 1.0),
     "uniform: need lower < upper, got 2.0, 1.0"),
], ids=["dirichlet_lengths", "uniform_equal_bounds", "uniform_reversed"])
def test_arguments_that_do_not_fit_the_density_are_rejected(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()
