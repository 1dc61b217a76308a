import math

import numpy as np
import pytest

from meanfield import autodiff as ad
from meanfield import engine
from meanfield import zoo
from meanfield.engine import FitConfig, OptState, VariationalParams, \
    adagrad_step, draw_posterior, estimate_elbo, estimate_gradients, fit, \
    inverse_standardize, substream
from meanfield.errors import ConfigurationError, DomainError, \
    EvaluationFailure, ShapeError
from meanfield.io import write_samples_csv
from meanfield.model import Dataset, ModelDefinition, \
    log_joint_unconstrained
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
    on half of the draws."""
    def log_prior(v, data):
        if ad.value(v["z"]) > 0.0:
            raise DomainError("z > 0")
        return 0.0 * v["z"]

    return ModelDefinition(
        name="half_failing",
        blocks=(BlockSpec("z", Identity(1), scalar=True),),
        log_prior=log_prior,
        loglik_term=lambda v, data, n: 0.0,
        num_observations=lambda data: 0,
    )


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
        # standard normals at a time, standardized and scored on its own
        for name in ("poisson_exponential", "linreg_ard", "gmm"):
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
