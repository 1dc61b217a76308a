import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from meanfield import autodiff as ad
from meanfield import densities as dens
from meanfield import engine
from meanfield import model as model_module
from meanfield import zoo
from meanfield.engine import ElboTrace, FitConfig, OptState, \
    VariationalParams, adagrad_step, draw_posterior, estimate_elbo, estimate_gradients, fit, \
    inverse_standardize, substream
from meanfield.errors import ConfigurationError, DomainError, \
    EvaluationFailure, ShapeError
from meanfield.evaluate import heldout_log_predictive
from meanfield.io import write_samples_csv
from meanfield.model import Dataset, ModelDefinition, \
    log_joint_unconstrained, minibatch_log_joint
from meanfield.transforms import BlockSpec, Identity
from util import EMPTY_DATA, gaussian_toy, small_zoo_instance, toy_elbo


def _flat_model(value=0.0):
    """One-coordinate model whose log joint is a constant."""
    return ModelDefinition(
        name="flat",
        blocks=(BlockSpec("z", Identity(1), scalar=True),),
        log_prior=lambda v, data: value + 0.0 * v["z"],
        loglik_term=lambda v, data, n: 0.0,
        num_observations=lambda data: 0,
    )


def _half_failing_model():
    """Flat joint, out of domain wherever z > 0. Its gradient is 0, so mu
    stays 0 and a draw fails exactly when its standard normal eta is > 0:
    on half of the draws. A chunk of draws fails when any of them does."""
    def log_prior(v, data):
        if np.any(ad.value(v["z"]) > 0.0):
            raise DomainError("z > 0")
        return 0.0 * v["z"]

    return ModelDefinition(
        name="half_failing",
        blocks=(BlockSpec("z", Identity(1), scalar=True),),
        log_prior=log_prior,
        loglik_term=lambda v, data, n: 0.0,
        num_observations=lambda data: 0,
    )


def _region_failing_model():
    """Standard-normal prior on one coordinate that fails for draws in
    three known regions, each in its own way: z > 2 is out of domain (and
    takes its chunk of draws with it), z < -1.5 has a joint of -inf, and
    0.5 < z < 0.7 has a finite joint but an infinite gradient."""
    def log_prior(v, data):
        z = v["z"]
        zv = ad.value(z)
        if np.any(zv > 2.0):
            raise DomainError("z > 2")
        kink = np.where((0.5 < zv) & (zv < 0.7), np.inf, 1.0)
        same = ad.node((z,), zv, (lambda g: g * kink,))  # z, kinked
        floor = np.where(zv < -1.5, -np.inf, 0.0)
        return dens.normal(same, 0.0, 1.0) + floor

    return ModelDefinition(
        name="region_failing",
        blocks=(BlockSpec("z", Identity(1), scalar=True),),
        log_prior=log_prior,
        loglik_term=lambda v, data, n: 0.0,
        num_observations=lambda data: 0,
    )


def _one_tape_per_draw(model, data, params, m, seed, path, batch=None):
    """The gradient estimate built by hand, one tape per draw: draw k
    takes its etas from substream(seed, *path, k) until its joint and its
    gradient are finite. Returns (g_mu, g_omega, redraws)."""
    sigma = np.exp(params.omega)
    sum_mu = sum_omega = 0.0
    redraws = 0
    for k in range(m):
        gen = substream(seed, *path, k)
        while True:
            eta = gen.standard_normal(params.dim)
            g = ad.Graph()
            z = g.leaf(sigma * eta + params.mu)
            try:
                out = (log_joint_unconstrained(model, data, z)
                       if batch is None
                       else minibatch_log_joint(model, data, batch, z))
            except DomainError:
                out = None
            if out is not None and math.isfinite(out.val):
                d_zeta = g.adjoints(out)[z.i]
                if np.isfinite(d_zeta).all():
                    break
            redraws += 1
        sum_mu = sum_mu + d_zeta
        sum_omega = sum_omega + d_zeta * eta * sigma
    return sum_mu / m, sum_omega / m + 1.0, redraws


class TestInverseStandardize:
    def test_identity(self):
        p = VariationalParams([0.0], [0.0])
        assert inverse_standardize(p, [1.5]).tolist() == [1.5]

    def test_affine(self):
        p = VariationalParams([2.0], [math.log(3.0)])
        assert inverse_standardize(p, [1.0])[0] == pytest.approx(5.0,
                                                                 rel=1e-14)

    def test_eta_zero_gives_mu(self):
        p = VariationalParams([3.0, -1.0], [0.7, -0.2])
        assert inverse_standardize(p, [0.0, 0.0]).tolist() == [3.0, -1.0]

    def test_length_checked(self):
        p = VariationalParams([0.0], [0.0])
        with pytest.raises(ShapeError):
            inverse_standardize(p, [0.0, 0.0])
        with pytest.raises(ShapeError):
            inverse_standardize(p, 0.0)

    def test_rows_equal_row_calls_bit_for_bit(self):
        rng = np.random.default_rng(3)
        p = VariationalParams(rng.normal(0.0, 2.0, 4), rng.normal(0.0, 1.0, 4))
        eta = rng.standard_normal((5, 4))
        rows = inverse_standardize(p, eta)
        assert rows.shape == (5, 4)
        for row, e in zip(rows, eta):
            assert row.tolist() == inverse_standardize(p, e).tolist()


class TestEstimateElbo:
    def test_entropy_only(self):
        # flat joint: the estimate reduces to the closed-form entropy
        value = estimate_elbo(_flat_model(), EMPTY_DATA,
                              VariationalParams([0.0], [0.0]), 5, 0)
        assert value == pytest.approx(1.4189385, abs=1e-7)

    def test_toy_at_optimum(self):
        toy = gaussian_toy()
        value = estimate_elbo(toy, EMPTY_DATA,
                              VariationalParams([0.0], [0.0]), 100_000,
                              substream(0, 99))
        assert abs(value - 0.0) < 0.02

    def test_toy_off_optimum(self):
        toy = gaussian_toy()
        value = estimate_elbo(toy, EMPTY_DATA,
                              VariationalParams([1.0], [0.0]), 100_000,
                              substream(0, 99))
        assert abs(value - (-0.5)) < 0.02

    def test_equals_draw_by_draw_loop(self):
        # the reference is the loop the estimate replaced: one draw of dim
        # standard normals at a time, standardized and scored on its own;
        # the estimate scores the 4 draws as one chunk
        for name in zoo.ZOO_NAMES:
            model, data = small_zoo_instance(name)
            rng = np.random.default_rng(8)
            p = VariationalParams(rng.normal(0.0, 0.5, model.dim),
                                  rng.normal(-0.5, 0.3, model.dim))
            entropy = (0.5 * model.dim * (1.0 + math.log(2.0 * math.pi))
                       + float(np.sum(p.omega)))
            for seed in range(50):
                gen = np.random.default_rng(seed)
                values = [log_joint_unconstrained(
                    model, data,
                    inverse_standardize(p, gen.standard_normal(model.dim)))
                    for _ in range(4)]
                expected = math.fsum(values) / 4 + entropy
                assert estimate_elbo(model, data, p, 4, seed) == expected

    def test_deterministic_given_seed(self):
        toy = gaussian_toy()
        p = VariationalParams([0.3], [-0.2])
        a = estimate_elbo(toy, EMPTY_DATA, p, 50, 123)
        b = estimate_elbo(toy, EMPTY_DATA, p, 50, 123)
        assert a == b

    def test_error_decays_with_sample_size(self):
        toy = gaussian_toy()
        p = VariationalParams([0.7], [0.1])
        exact = toy_elbo(0.7, 0.1)
        small = [estimate_elbo(toy, EMPTY_DATA, p, 50, seed)
                 for seed in range(40)]
        large = [estimate_elbo(toy, EMPTY_DATA, p, 800, seed)
                 for seed in range(40)]
        rms_small = np.sqrt(np.mean((np.array(small) - exact) ** 2))
        rms_large = np.sqrt(np.mean((np.array(large) - exact) ** 2))
        # 16x the samples should shrink the error about 4x
        assert rms_large < rms_small / 2.0

    def test_all_non_finite_fails(self):
        bad = _flat_model(float("nan"))
        with pytest.raises(EvaluationFailure):
            estimate_elbo(bad, EMPTY_DATA, VariationalParams([0.0], [0.0]),
                          10, 0)

    def test_optimum_beats_perturbations(self):
        toy = gaussian_toy()
        rng = np.random.default_rng(21)
        at_opt = estimate_elbo(toy, EMPTY_DATA,
                               VariationalParams([0.0], [0.0]), 400, 7)
        for _ in range(10):
            mu = float(rng.uniform(-1.5, 1.5))
            omega = float(rng.uniform(-1.0, 1.0))
            if abs(mu) < 0.05 and abs(omega) < 0.05:
                continue
            perturbed = estimate_elbo(toy, EMPTY_DATA,
                                      VariationalParams([mu], [omega]),
                                      400, 7)
            assert at_opt >= perturbed


def _entropy(p):
    return (0.5 * p.dim * (1.0 + math.log(2.0 * math.pi))
            + float(np.sum(p.omega)))


@pytest.mark.parametrize("pairs", ["1", "3N"])
@pytest.mark.parametrize("n_samples", [1, 3, 100])
@pytest.mark.parametrize("name", zoo.ZOO_NAMES)
def test_estimate_is_the_fsum_of_per_draw_joints(name, n_samples, pairs,
                                                 monkeypatch):
    # the estimate scores the transforms and the prior of all its draws
    # in one call, then the likelihood a chunk per call: every draw keeps
    # the bits of its own joint, at one draw per call and at three
    model, data = small_zoo_instance(name)
    n = model.num_observations(data)
    monkeypatch.setattr(model_module, "_PAIRS_PER_CALL",
                        1 if pairs == "1" else 3 * n)
    gen = np.random.default_rng(4)
    p = VariationalParams(gen.normal(0.0, 0.5, model.dim),
                          gen.normal(-0.5, 0.3, model.dim))
    zetas = inverse_standardize(p, np.random.default_rng(9).standard_normal(
        (n_samples, model.dim)))
    joints = [log_joint_unconstrained(model, data, z) for z in zetas]
    expected = math.fsum(joints) / n_samples + _entropy(p)
    assert float(estimate_elbo(model, data, p, n_samples, 9)).hex() == \
        float(expected).hex()


def test_a_prior_constant_over_the_draws_is_each_draws():
    model = ModelDefinition(
        name="flat_prior", blocks=(BlockSpec("z", Identity(1), scalar=True),),
        log_prior=lambda v, data: 0.0,
        loglik_term=lambda v, data, idx: dens.normal(
            data["x"][idx], zoo._each_point(v["z"]), 1.0),
        num_observations=lambda data: len(data["x"]))
    data = Dataset({"x": [0.5, -1.0, 2.0]})
    p = VariationalParams([0.3], [-0.2])
    zetas = inverse_standardize(
        p, np.random.default_rng(1).standard_normal((8, 1)))
    joints = [log_joint_unconstrained(model, data, z) for z in zetas]
    assert estimate_elbo(model, data, p, 8, 1) == \
        math.fsum(joints) / 8 + _entropy(p)


@pytest.mark.parametrize("n_samples, pairs", [(100, None), (5000, None),
                                              (100, 1)])
def test_an_estimate_scores_the_prior_of_all_its_draws_in_one_call(
        n_samples, pairs, monkeypatch):
    # at any draw count and chunk size, not once per block or chunk
    if pairs is not None:
        monkeypatch.setattr(model_module, "_PAIRS_PER_CALL", pairs)
    model, data = small_zoo_instance("gmm")
    calls = []

    def counted(values, data):
        calls.append(1)
        return model.log_prior(values, data)

    p = VariationalParams(np.zeros(model.dim), np.full(model.dim, -1.0))
    estimate_elbo(replace(model, log_prior=counted), data, p, n_samples, 3)
    assert len(calls) == 1


def _bounded(part, limit, calls=None):
    """A one-coordinate normal model on 10 points whose prior or likelihood
    (``part``) raises DomainError for a draw at or above ``limit[0]``;
    each ``log_prior`` call is appended to ``calls``."""
    data = Dataset({"x": np.linspace(-1.0, 2.0, 10)})

    def check(z):
        if np.any(ad.value(z) >= limit[0]):
            raise DomainError("z at or above the limit")

    def log_prior(v, data):
        if calls is not None:
            calls.append(1)
        if part == "prior":
            check(v["z"])
        return dens.normal(v["z"], 0.0, 1.0)

    def loglik(v, data, idx):
        if part == "likelihood":
            check(v["z"])
        return dens.normal(data["x"][idx], zoo._each_point(v["z"]), 1.0)

    model = ModelDefinition(
        name="bounded", blocks=(BlockSpec("z", Identity(1), scalar=True),),
        log_prior=log_prior, loglik_term=loglik,
        num_observations=lambda data: len(data["x"]))
    return model, data


@pytest.mark.parametrize("part", ["prior", "likelihood"])
def test_a_draw_out_of_the_domain_is_dropped_alone(part, monkeypatch):
    # the prior of all 100 draws in one call, the likelihood 4 draws a
    # call: the one draw at or above the limit takes the prior call (or
    # its chunk) down, and is the only draw dropped when the draws are
    # rerun one at a time
    monkeypatch.setattr(model_module, "_PAIRS_PER_CALL", 40)
    limit = [math.inf]
    model, data = _bounded(part, limit)
    cfg = FitConfig(max_iterations=1, eval_interval=1, elbo_samples=100,
                    seed=2)
    params, trace = fit(model, data, cfg)
    assert trace.elbo_draws_dropped == 0
    zetas = inverse_standardize(params, substream(
        2, engine.STREAM_ELBO, 0).standard_normal((100, 1)))
    limit[0] = zetas.max()
    again, trace = fit(model, data, cfg)
    assert (again.mu.tolist(), again.omega.tolist()) == \
        (params.mu.tolist(), params.omega.tolist())
    assert trace.gradient_redraws == 0
    assert trace.elbo_draws_dropped == 1
    kept = [log_joint_unconstrained(model, data, z)
            for z in zetas if z[0] < limit[0]]
    assert len(kept) == 99
    expected = math.fsum(kept) / 99 + _entropy(params)
    assert float(trace.rows[0][2]).hex() == float(expected).hex()


def test_a_failed_prior_call_reruns_through_draw_chunks(monkeypatch):
    # 10 points at 40 pairs a call: after the prior call of all 100 draws
    # fails, 25 chunks of 4 draws each score their whole joint, and only
    # the chunk that holds the largest draw is rerun one draw at a time
    monkeypatch.setattr(model_module, "_PAIRS_PER_CALL", 40)
    limit, calls = [math.inf], []
    model, data = _bounded("prior", limit, calls)
    p = VariationalParams([0.3], [-0.5])
    zetas = inverse_standardize(
        p, np.random.default_rng(6).standard_normal((100, 1)))
    limit[0] = zetas.max()
    estimate = estimate_elbo(model, data, p, 100, 6)
    assert len(calls) == 1 + 25 + 4
    kept = [log_joint_unconstrained(model, data, z)
            for z in zetas if z[0] < limit[0]]
    assert len(kept) == 99
    expected = math.fsum(kept) / 99 + _entropy(p)
    assert float(estimate).hex() == float(expected).hex()


# estimate_elbo(model, data, p, 50, 5) and the mean held-out score of
# draw_posterior(model, p, 30, substream(0, 500)) on a model's own small
# instance, p drawn from default_rng(3), as float.hex. Both run on the
# tape-free float path, whose bits a change to the tape's nodes keeps.
_FLOAT_PATH_BITS = {
    "gmm": ("-0x1.da88d2a6effc6p+5", "-0x1.dcabe9682e4afp+1"),
    "dirichlet_exponential_nmf": ("-0x1.2f313a7a9d741p+6",
                                  "-0x1.1818df500077dp+2"),
}


@pytest.mark.parametrize("name", sorted(_FLOAT_PATH_BITS))
def test_float_path_estimates_keep_their_bits(name):
    model, data = small_zoo_instance(name)
    gen = np.random.default_rng(3)
    p = VariationalParams(gen.normal(0.0, 0.3, model.dim),
                          gen.normal(-1.0, 0.2, model.dim))
    with np.errstate(all="ignore"):
        elbo = estimate_elbo(model, data, p, 50, 5)
        draws = draw_posterior(model, p, 30, substream(0, 500))
        score = heldout_log_predictive(model, draws, data)
    assert (float(elbo).hex(), float(score.mean_log_predictive).hex()) == \
        _FLOAT_PATH_BITS[name]


class TestEstimateGradients:
    def test_toy_gradient_sign_and_scale(self):
        toy = gaussian_toy()
        p = VariationalParams([1.0], [0.0])
        g_mu, g_omega = estimate_gradients(toy, EMPTY_DATA, p, 20_000, 0)
        assert g_mu[0] == pytest.approx(-1.0, abs=0.05)
        assert g_omega[0] == pytest.approx(0.0, abs=0.05)

    def test_deterministic_given_seed(self):
        toy = gaussian_toy()
        p = VariationalParams([0.4], [-0.3])
        a = estimate_gradients(toy, EMPTY_DATA, p, 7, 99)
        b = estimate_gradients(toy, EMPTY_DATA, p, 7, 99)
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()

    def test_persistent_failure_raises(self):
        bad = _flat_model(float("nan"))
        p = VariationalParams([0.0], [0.0])
        with pytest.raises(EvaluationFailure, match="redraws"):
            estimate_gradients(bad, EMPTY_DATA, p, 1, 0)

    def test_batch_full_is_bit_identical_to_unbatched(self):
        rng = np.random.default_rng(0)
        data, _ = zoo.simulate_gmm(rng, 8, [[0.0], [3.0]], sigma=0.6)
        model = zoo.model_for_data("gmm", data, {"K": 2, "mu_sigma0": 3.0,
                                                 "sigma_sigma0": 1.0,
                                                 "alpha0": 5.0})
        p = VariationalParams(np.zeros(model.dim), np.zeros(model.dim))
        seed = np.random.SeedSequence(5, spawn_key=(engine.STREAM_GRAD, 0))
        full = estimate_gradients(model, data, p, 2, seed)
        batched = estimate_gradients(model, data, p, 2, seed,
                                     batch=list(range(8)))
        assert full[0].tolist() == batched[0].tolist()
        assert full[1].tolist() == batched[1].tolist()

    @pytest.mark.parametrize("batched", [False, True],
                             ids=["full", "minibatch"])
    @pytest.mark.parametrize("name", zoo.ZOO_NAMES)
    @pytest.mark.parametrize("rng, path", [
        (np.random.SeedSequence(11, spawn_key=(engine.STREAM_GRAD, 4)),
         (engine.STREAM_GRAD, 4)),
        (11, ())], ids=["seed_sequence", "int"])
    def test_draw_k_comes_from_its_substream(self, rng, path, name,
                                             batched):
        # the mean of m draws, built by hand with one tape per draw:
        # draw k's eta is the first of substream(seed, *path, k). The
        # estimate puts the m draws on one tape, and each row's gradient
        # must be its draw's, bit for bit, through every node the model
        # records (the fused simplex and Dirichlet nodes of the gmm and
        # Dirichlet models, the gamma node of the ARD and gamma models)
        model, data = small_zoo_instance(name)
        n = model.num_observations(data)
        batch = [0, n // 2, n - 1] if batched else None
        gen = np.random.default_rng(3)
        p = VariationalParams(gen.normal(0.0, 0.3, model.dim),
                              gen.normal(-1.0, 0.2, model.dim))
        for m in (2, 3, 5):
            mean_mu, mean_omega, redraws = _one_tape_per_draw(
                model, data, p, m, 11, path, batch)
            assert redraws == 0
            g_mu, g_omega = estimate_gradients(model, data, p, m, rng, batch)
            assert g_mu.tolist() == mean_mu.tolist()
            assert g_omega.tolist() == mean_omega.tolist()

    @pytest.mark.parametrize("m", [1, 2, 3, 40])
    def test_failed_draws_are_redrawn_as_one_tape_per_draw(self, m):
        # out of domain, a non-finite joint and a finite joint with a
        # non-finite gradient all fail a draw, which is redrawn from its
        # own stream, whether it was tried alone or in a chunk of draws
        model = _region_failing_model()
        p = VariationalParams([0.0], [0.0])
        for seed in range(5):
            path = (engine.STREAM_GRAD, seed)
            with np.errstate(all="ignore"):  # as fit evaluates draws
                expected = _one_tape_per_draw(model, EMPTY_DATA, p, m, seed,
                                              path)
                g_mu, g_omega, _, redraws = engine._counted_gradients(
                    model, EMPTY_DATA, p, m, seed, path, None, 0, None)
            assert (g_mu.tolist(), g_omega.tolist(), redraws) == \
                (expected[0].tolist(), expected[1].tolist(), expected[2])
        if m == 40:  # each region holds 2-7% of the first draws
            first = np.array([substream(seed, engine.STREAM_GRAD, seed, k)
                              .standard_normal() for seed in range(5)
                              for k in range(m)])
            assert (first > 2.0).any() and (first < -1.5).any()
            assert ((0.5 < first) & (first < 0.7)).any()

    def test_a_failed_chunk_counts_on_the_work_clock(self):
        # the toy, out of domain whenever its value has a draw axis: the
        # chunk of 4 draws raises and is rerun one draw at a time
        def log_prior(v, data):
            if np.ndim(ad.value(v["z"])):
                raise DomainError("a draw axis")
            return dens.normal(v["z"], 0.0, 1.0)

        toy = gaussian_toy()
        p = VariationalParams([0.3], [-0.5])
        g_mu, g_omega, elements, redraws = engine._counted_gradients(
            replace(toy, log_prior=log_prior), EMPTY_DATA, p, 4, 9, (),
            None, 0, None)
        ref = engine._counted_gradients(toy, EMPTY_DATA, p, 4, 9, (),
                                        None, 0, None)
        assert (g_mu.tolist(), g_omega.tolist(), redraws) == \
            (ref[0].tolist(), ref[1].tolist(), 0)
        # a tape holds the leaf, the block's value and the density, one
        # element each per draw. The failed chunk's tape got as far as the
        # block's value; then come four one-draw tapes
        assert ref[2] == 4 * 3
        assert elements == 4 * 2 + 4 * 3

    @pytest.mark.parametrize("m", [1, 3])
    def test_finite_joint_with_non_finite_gradient_is_redrawn(self, m):
        # near zeta = -709.59 the rate exp(zeta) is subnormal: the joint is
        # finite but d/d rate of log(rate) overflows. Every draw lands
        # there, so every draw fails and the estimate does too
        model, data = small_zoo_instance("poisson_exponential")
        p = VariationalParams([-709.59], [-20.0])
        with np.errstate(all="ignore"):
            assert math.isfinite(log_joint_unconstrained(model, data,
                                                         p.mu))
            with pytest.raises(EvaluationFailure, match="10 redraws"):
                estimate_gradients(model, data, p, m, 0)

    def test_draws_beyond_one_call_run_in_chunks(self):
        # 5 points: a chunk holds _PAIRS_PER_CALL // 5 draws, so one more
        # draw runs a second chunk, of one draw, on the one-draw path
        model, data = small_zoo_instance("poisson_exponential")
        n = model.num_observations(data)
        size = model_module._PAIRS_PER_CALL // n
        m = size + 1
        assert m * n > model_module._PAIRS_PER_CALL
        shapes = []

        def log_prior(v, d):
            shapes.append(np.shape(ad.value(v["lam"])))
            return model.log_prior(v, d)

        counted = replace(model, log_prior=log_prior)
        p = VariationalParams([1.0], [-1.0])
        g_mu, g_omega = estimate_gradients(counted, data, p, m, 8)
        assert shapes == [(size,), ()]
        mean_mu, mean_omega, redraws = _one_tape_per_draw(model, data, p, m,
                                                         8, ())
        assert redraws == 0
        assert g_mu.tolist() == mean_mu.tolist()
        assert g_omega.tolist() == mean_omega.tolist()


class TestAdagradStep:
    def test_first_step(self):
        state = OptState(1, 10)
        rho = adagrad_step(state, np.array([1.0]), FitConfig())
        assert rho.tolist() == [0.05]

    def test_zero_gradients(self):
        state = OptState(1, 10)
        for _ in range(5):
            rho = adagrad_step(state, np.array([0.0]), FitConfig())
        assert rho.tolist() == [0.1]

    def test_window_eviction_by_hand(self):
        # eleven unit gradients then one zero: the buffer holds nine ones
        # and one zero, so s = 9 and rho = 0.1 / (1 + 3)
        state = OptState(1, 10)
        for _ in range(11):
            adagrad_step(state, np.array([1.0]), FitConfig())
        rho = adagrad_step(state, np.array([0.0]), FitConfig())
        assert rho.tolist() == [0.025]

    def test_window_sum_matches_brute_force_exactly(self):
        rng = np.random.default_rng(31)
        config = FitConfig()
        for _ in range(1000):
            dim = int(rng.integers(1, 4))
            window = int(rng.integers(1, 6))
            steps = int(rng.integers(1, 20))
            state = OptState(dim, window)
            history = []
            for _ in range(steps):
                g = rng.normal(0.0, 2.0, dim)
                history.append(g * g)
                rho = adagrad_step(state, g, config)
            expected = np.zeros(dim)
            for sq in history[-min(len(history), window):]:
                expected = expected + sq
            assert rho.tolist() == (
                config.step_scale / (config.step_offset +
                                     np.sqrt(expected))).tolist()

    def test_one_coordinate_window_sum_is_oldest_first(self):
        # a full window of one coordinate: summed pairwise, as numpy sums
        # a single column, it would round differently
        rng = np.random.default_rng(8)
        for _ in range(50):
            state = OptState(1, 10)
            history = [rng.uniform(0.0, 1.0, 1) * 10.0 ** rng.integers(-6, 6)
                       for _ in range(12)]
            for sq in history:
                total = state.update(sq)
            expected = np.zeros(1)
            for sq in history[-10:]:
                expected = expected + sq
            assert total.tolist() == expected.tolist()

    def test_shape_checked(self):
        state = OptState(2, 10)
        with pytest.raises(ShapeError):
            adagrad_step(state, np.array([1.0]), FitConfig())


class TestFitConfig:
    def test_defaults(self):
        c = FitConfig()
        assert (c.grad_samples, c.elbo_samples, c.step_scale,
                c.step_offset, c.window, c.threshold, c.eval_interval) == \
            (1, 100, 0.1, 1.0, 10, 0.01, 100)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FitConfig(grad_samples=0)
        with pytest.raises(ConfigurationError):
            FitConfig(threshold=0.0)
        with pytest.raises(ConfigurationError):
            FitConfig(init="warm")
        with pytest.raises(ConfigurationError):
            FitConfig(max_iterations=-1)
        # each float check is written so that NaN fails it
        with pytest.raises(ConfigurationError, match="threshold.*nan"):
            FitConfig(threshold=math.nan)
        with pytest.raises(ConfigurationError, match="step_scale.*nan"):
            FitConfig(step_scale=math.nan)
        with pytest.raises(ConfigurationError, match="step_scale"):
            FitConfig(step_scale=0.0)
        with pytest.raises(ConfigurationError, match="seed.*-1"):
            FitConfig(seed=-1)
        # a float seed failed inside fit, and a bool one ran as 0 or 1
        for value in (1.5, True):
            with pytest.raises(ConfigurationError,
                               match=f"seed must be an integer, got {value}"):
                FitConfig(seed=value)
        assert FitConfig(seed=np.int64(3)).seed == 3
        # counts are integers, not bools or floats that fail later or round
        for name, value in [
                ("eval_interval", 2.5), ("grad_samples", 1.5),
                ("max_iterations", 3.0), ("elbo_samples", 10.0),
                ("minibatch", 2.0), ("grad_samples", True),
                ("minibatch", True), ("minibatch", 0)]:
            with pytest.raises(ConfigurationError,
                               match=f"{name} must be an integer.*{value}"):
                FitConfig(**{name: value})
        # an infinite step_scale constructed, and fit failed at iteration 0
        with pytest.raises(ConfigurationError,
                           match="step_scale must be finite and > 0, got inf"):
            FitConfig(step_scale=math.inf)
        c = FitConfig(grad_samples=np.int64(2), minibatch=5)
        assert (c.grad_samples, c.minibatch) == (2, 5)

    @pytest.mark.parametrize("value", [True, False, "0.1", None])
    @pytest.mark.parametrize("name", ["step_scale", "threshold"])
    def test_float_settings_are_real_numbers(self, name, value):
        # a bool was accepted (and a manifest would record true), and a
        # string or None failed the range check with a bare TypeError
        with pytest.raises(ConfigurationError, match=name):
            FitConfig(**{name: value})

    def test_settable_surface(self):
        assert [f.name for f in fields(FitConfig)] == [
            "grad_samples", "elbo_samples", "step_scale", "threshold",
            "eval_interval", "max_iterations", "seed", "minibatch", "init"]
        # the step offset tau and the window length are constants
        for name, value in (("window", 5), ("step_offset", 0.5)):
            with pytest.raises(TypeError, match=name):
                FitConfig(**{name: value})
        assert FitConfig.window == 10
        assert FitConfig().step_offset == 1.0


class TestFit:
    def test_zero_budget_returns_init(self):
        toy = gaussian_toy()
        params, trace = fit(toy, EMPTY_DATA, FitConfig(max_iterations=0))
        assert params.mu.tolist() == [0.0]
        assert params.omega.tolist() == [0.0]
        assert len(trace) == 0

    def test_gaussian_init_draws_mu(self):
        toy = gaussian_toy()
        params, _ = fit(toy, EMPTY_DATA,
                        FitConfig(max_iterations=0, init="gaussian", seed=8))
        assert params.mu[0] != 0.0
        assert params.omega.tolist() == [0.0]

    def test_toy_converges_near_optimum(self):
        toy = gaussian_toy()
        params, trace = fit(toy, EMPTY_DATA,
                            FitConfig(max_iterations=2000, seed=3))
        assert abs(params.mu[0]) < 0.05
        assert abs(params.omega[0]) < 0.05
        assert len(trace) == 20

    def test_reproducible_bitwise(self):
        toy = gaussian_toy()
        cfg = FitConfig(max_iterations=300, seed=11)
        p1, t1 = fit(toy, EMPTY_DATA, cfg)
        p2, t2 = fit(toy, EMPTY_DATA, cfg)
        assert p1.mu.tolist() == p2.mu.tolist()
        assert p1.omega.tolist() == p2.omega.tolist()
        assert t1.rows == t2.rows

    def test_trace_iterations_increase(self):
        toy = gaussian_toy()
        _, trace = fit(toy, EMPTY_DATA,
                       FitConfig(max_iterations=500, seed=2,
                                 eval_interval=100))
        iterations = [r[0] for r in trace.rows]
        assert iterations == [100, 200, 300, 400, 500]
        elapsed = [r[1] for r in trace.rows]
        assert all(b > a for a, b in zip(elapsed, elapsed[1:]))

    def test_convergence_stop(self):
        toy = gaussian_toy()
        _, trace = fit(toy, EMPTY_DATA,
                       FitConfig(max_iterations=5000, seed=2,
                                 threshold=1e9))
        assert len(trace) == 2  # second evaluation triggers the stop

    def test_minibatch_equals_full_batch_when_b_is_n(self):
        rng = np.random.default_rng(1)
        data, _ = zoo.simulate_gmm(rng, 6, [[0.0], [2.5]], sigma=0.7)
        model = zoo.model_for_data("gmm", data, {"K": 2, "mu_sigma0": 3.0,
                                                 "sigma_sigma0": 1.0,
                                                 "alpha0": 5.0})
        cfg_full = FitConfig(max_iterations=40, seed=5, eval_interval=20,
                             elbo_samples=5)
        cfg_batch = FitConfig(max_iterations=40, seed=5, eval_interval=20,
                              elbo_samples=5, minibatch=6)
        p_full, t_full = fit(model, data, cfg_full)
        p_batch, t_batch = fit(model, data, cfg_batch)
        assert p_full.mu.tolist() == p_batch.mu.tolist()
        assert p_full.omega.tolist() == p_batch.omega.tolist()
        # elapsed_ms differs (the scaled path adds one node per gradient);
        # iteration indices and objective values must match exactly
        assert [(r[0], r[2]) for r in t_full.rows] == \
            [(r[0], r[2]) for r in t_batch.rows]

    def test_work_clock_repeats_and_grows_with_data(self):
        # elapsed_ms counts the array elements of the gradient tapes: the
        # same for one seed, larger for more observations
        def clock(n):
            rng = np.random.default_rng(2)
            data, _ = zoo.simulate_gmm(rng, n, [[0.0], [3.0]], sigma=0.6)
            model = zoo.model_for_data(
                "gmm", data, {"K": 2, "mu_sigma0": 3.0,
                              "sigma_sigma0": 1.0, "alpha0": 5.0})
            cfg = FitConfig(max_iterations=20, seed=4, eval_interval=5,
                            elbo_samples=3)
            return [r[1] for r in fit(model, data, cfg)[1].rows]

        small = clock(12)
        assert clock(12) == small
        large = clock(48)
        assert len(small) == len(large) == 4
        assert all(b > a for a, b in zip(small, large))

    def test_failed_draws_are_counted(self):
        model = _half_failing_model()
        cfg = FitConfig(max_iterations=30, seed=6, eval_interval=10,
                        elbo_samples=40)
        params, trace = fit(model, EMPTY_DATA, cfg)
        assert params.mu.tolist() == [0.0]
        # replay the draws: an ELBO draw is dropped and a gradient draw
        # redrawn exactly when its eta is positive
        dropped = 0
        for i in (9, 19, 29):
            gen = substream(6, engine.STREAM_ELBO, i)
            dropped += sum(gen.standard_normal(1)[0] > 0.0
                           for _ in range(40))
        redraws = 0
        for i in range(30):
            gen = np.random.default_rng(np.random.SeedSequence(
                6, spawn_key=(engine.STREAM_GRAD, i, 0)))
            while gen.standard_normal(1)[0] > 0.0:
                redraws += 1
        assert trace.elbo_draws_dropped == dropped
        assert trace.gradient_redraws == redraws
        assert 0.35 < dropped / 120 < 0.65  # the known share, 1/2
        assert 0.5 < redraws / 30 < 1.5  # one redraw per draw on average

    def test_minibatch_too_large_rejected(self):
        model = zoo.make_model("poisson_exponential")
        data = Dataset({"x": [1, 2]})
        with pytest.raises(ConfigurationError, match="exceeds"):
            fit(model, data, FitConfig(minibatch=5, max_iterations=1))

    def test_evaluation_failure_reports_iteration(self):
        bad = _flat_model(float("nan"))
        with pytest.raises(EvaluationFailure, match="iteration 0"):
            fit(bad, EMPTY_DATA, FitConfig(max_iterations=5))

    def test_omega_clamped(self):
        toy = gaussian_toy()
        params, trace = fit(toy, EMPTY_DATA,
                            FitConfig(max_iterations=3, seed=0,
                                      step_scale=1e9))
        assert trace.clamp_events >= 1
        assert np.all(np.abs(params.omega) <= 20.0)

    def test_an_overflowing_step_is_not_a_warning(self):
        # the joint (about -1e200) and its gradient (about 1e200) are
        # finite, but the step squares the gradient: the square overflowed
        # outside fit's silenced region and warned
        narrow = replace(gaussian_toy(), log_prior=lambda v, data:
                         dens.normal(v["z"], 0.0, 1e-100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params, trace = fit(narrow, EMPTY_DATA,
                                FitConfig(max_iterations=3, eval_interval=1))
        assert len(trace) == 3
        assert np.isfinite(params.mu).all()

    @pytest.mark.parametrize("settings", [
        {}, {"grad_samples": 3}, {"minibatch": 2}], ids=["full", "m3", "b2"])
    def test_observations_are_counted_once_per_fit(self, settings):
        # the full index is built once per fit and a batch once per
        # iteration, not once per tape or per objective estimate
        model, data = small_zoo_instance("poisson_exponential")
        calls = []

        def num_observations(d):
            calls.append(d)
            return model.num_observations(d)

        counted = replace(model, num_observations=num_observations)
        for iterations in (4, 40):
            calls.clear()
            fit(counted, data, FitConfig(max_iterations=iterations,
                                         eval_interval=2, elbo_samples=5,
                                         **settings))
            assert len(calls) == 1

    @pytest.mark.parametrize("m", [1, 3])
    def test_the_full_data_is_read_at_slice_none(self, m):
        # every call over all observations passes slice(None), so a
        # model reads views of its data; a minibatch is a sorted array
        model, data = small_zoo_instance("poisson_exponential")
        seen = []

        def loglik_term(values, d, idx):
            seen.append(idx)
            return model.loglik_term(values, d, idx)

        recording = replace(model, loglik_term=loglik_term)
        params = VariationalParams([0.2], [-0.4])
        estimate_elbo(recording, data, params, 5, 0)
        estimate_gradients(recording, data, params, m, 0)
        log_joint_unconstrained(recording, data, [0.2])
        fit(recording, data, FitConfig(max_iterations=2, eval_interval=1,
                                       elbo_samples=3, grad_samples=m))
        assert seen and all(type(idx) is slice and idx == slice(None)
                            for idx in seen)
        seen.clear()
        fit(recording, data, FitConfig(max_iterations=2, eval_interval=2,
                                       elbo_samples=3, grad_samples=m,
                                       minibatch=2))
        full = [idx for idx in seen if type(idx) is slice]
        batches = [idx for idx in seen if type(idx) is not slice]
        assert full == [slice(None)]  # the one objective estimate
        assert len(batches) >= 2 and all(
            len(idx) == 2 and idx[0] < idx[1] for idx in batches)


class TestDrawPosterior:
    def test_near_degenerate_draws(self):
        model = zoo.make_model("poisson_exponential")
        params = VariationalParams([0.0], [-20.0])
        draws = draw_posterior(model, params, 3, 0)
        assert np.allclose(draws.samples["lam"], 1.0, atol=1e-8)

    def test_simplex_draws_sum_to_one(self):
        model = zoo.make_model("gmm", dims={"K": 4, "D": 1})
        rng = np.random.default_rng(2)
        params = VariationalParams(rng.normal(0, 1, model.dim),
                                   rng.normal(0, 0.3, model.dim))
        draws = draw_posterior(model, params, 200, 1)
        sums = draws.samples["theta"].sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_single_draw_repeatable(self):
        model = zoo.make_model("poisson_exponential")
        params = VariationalParams([0.3], [-0.5])
        a = draw_posterior(model, params, 1, 77)
        b = draw_posterior(model, params, 1, 77)
        assert a.samples["lam"].tolist() == b.samples["lam"].tolist()

    def test_row_values_shapes(self):
        # scalar blocks give (S,), vector blocks (S, d), per-row blocks
        # (S, rows, d)
        for name, dims, shapes in (
                ("linreg_ard", {"D": 3}, {"w": (4, 3), "sigma2": (4,),
                                          "alpha": (4, 3)}),
                ("gmm", {"K": 2, "D": 3}, {"theta": (4, 2), "mu": (4, 2, 3),
                                           "sigma": (4, 2, 3)})):
            model = zoo.make_model(name, dims=dims)
            params = VariationalParams(np.zeros(model.dim),
                                       np.zeros(model.dim))
            draws = draw_posterior(model, params, 4, 0)
            assert {k: v.shape for k, v in draws.samples.items()} == shapes

    def test_column_names_and_flatten(self, tmp_path):
        # the samples CSV lays the draws out one row each, in block order
        model = zoo.make_model("gmm", dims={"K": 2, "D": 1})
        params = VariationalParams(np.zeros(model.dim), np.zeros(model.dim))
        draws = draw_posterior(model, params, 3, 0)
        path = tmp_path / "s.csv"
        write_samples_csv(draws, path)
        header, *rows = path.read_text().splitlines()
        assert header.split(",") == [
            "theta.1", "theta.2", "mu.1.1", "mu.2.1", "sigma.1.1",
            "sigma.2.1"]
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert table.shape == (3, 6)
        assert table.tolist() == np.concatenate(
            [draws.samples[name].reshape(3, -1)
             for name in ("theta", "mu", "sigma")], axis=1).tolist()


def test_gradient_estimator_unbiased_light():
    # light version of the estimator-unbiasedness check (the acceptance
    # suite runs the full 1e5-sample version at five points)
    toy = gaussian_toy()
    mu, omega = 0.8, -0.4
    p = VariationalParams([mu], [omega])
    n = 20_000
    g_mu, g_omega = estimate_gradients(toy, EMPTY_DATA, p, n, 42)
    se_mu = math.exp(omega) / math.sqrt(n)
    assert abs(g_mu[0] - (-mu)) < 4 * se_mu
    # analytic omega gradient: 1 - e^{2 omega}
    assert abs(g_omega[0] - (1.0 - math.exp(2 * omega))) < 0.05


@pytest.mark.parametrize("value, message", [
    (1.5, "rng must be an integer, got 1.5"),
    (True, "rng must be an integer, got True"),
    (np.float64(2.0), r"rng must be an integer, got .*2\.0"),
    (-1, "rng must be >= 0, got -1")], ids=["float", "bool", "np_float",
                                          "negative"])
@pytest.mark.parametrize("call", [
    lambda p, rng: estimate_gradients(gaussian_toy(), EMPTY_DATA, p, 2, rng),
    lambda p, rng: estimate_elbo(gaussian_toy(), EMPTY_DATA, p, 2, rng),
    lambda p, rng: draw_posterior(gaussian_toy(), p, 2, rng),
], ids=["estimate_gradients", "estimate_elbo", "draw_posterior"])
def test_a_number_as_rng_is_checked_as_fit_config_seed(call, value, message):
    # a float or a bool ran as seed 1 or raised a TypeError, and -1 a bare
    # ValueError
    p = VariationalParams([0.0], [0.0])
    with pytest.raises(ConfigurationError, match=message):
        call(p, value)
    for good in (np.int64(3), np.random.SeedSequence(3)):
        call(p, good)


@pytest.mark.parametrize("call, name", [
    (lambda model, p, n: estimate_gradients(model, EMPTY_DATA, p, n, 0), "m"),
    (lambda model, p, n: estimate_elbo(model, EMPTY_DATA, p, n, 0),
     "n_samples"),
    (lambda model, p, n: draw_posterior(model, p, n, 0), "size"),
], ids=["estimate_gradients", "estimate_elbo", "draw_posterior"])
def test_draw_counts_are_checked_as_fit_config_counts(call, name):
    # True ran as one draw, and a float raised a bare TypeError
    toy = gaussian_toy()
    p = VariationalParams([0.0], [0.0])
    for value in (True, 2.5, 2.0, 0):
        with pytest.raises(ConfigurationError,
                           match=f"{name} must be an integer >= 1, "
                                 f"got {value!r}"):
            call(toy, p, value)
    call(toy, p, np.int64(2))


def _trace_after_iteration_3():
    trace = ElboTrace()
    trace.append(3, 0.0, -1.0)
    return trace


@pytest.mark.parametrize("call, error, message", [
    (lambda: VariationalParams([0.0, 1.0], [0.0]), ShapeError,
     "mu and omega must be equal-length vectors"),
    (lambda: VariationalParams([0.0, math.inf], [0.0, 0.0]), ValueError,
     "variational parameters must be finite"),
    (lambda: VariationalParams([0.0], [math.nan]), ValueError,
     "variational parameters must be finite"),
    (lambda: _trace_after_iteration_3().append(3, 1.0, -0.5), ValueError,
     "trace iterations must be strictly increasing"),
    (lambda: _trace_after_iteration_3().append(2, 1.0, -0.5), ValueError,
     "trace iterations must be strictly increasing"),
    (lambda: draw_posterior(gaussian_toy(), VariationalParams(
        [0.0, 0.0], [0.0, 0.0]), 3, 0), ShapeError,
     "params have dim 2, model needs 1"),
], ids=["params_lengths", "params_inf", "params_nan", "trace_repeat",
        "trace_back", "posterior_dim"])
def test_inputs_the_engine_cannot_take_are_rejected(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
