import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanfield import zoo
from meanfield.engine import PosteriorDraws, VariationalParams, \
    draw_posterior, ElboTrace
from meanfield.errors import ConfigurationError, ShapeError
from meanfield.evaluate import heldout_log_predictive
from meanfield.io import RunManifest, load_dataset, write_diagnostics_csv, \
    write_manifest, write_samples_csv
from meanfield.model import Dataset


def _poisson_draws(rates):
    model = zoo.make_model("poisson_exponential")
    return model, PosteriorDraws(
        blocks=model.blocks,
        samples={"lam": np.asarray(rates, dtype=float)},
        size=len(rates))


def _poisson_lpmf(k, rate):
    return k * math.log(rate) - rate - math.lgamma(k + 1)


class TestHeldoutLogPredictive:
    def test_single_draw_is_log_likelihood(self):
        model, draws = _poisson_draws([1.0])
        report = heldout_log_predictive(model, draws, Dataset({"x": [2]}))
        assert report.mean_log_predictive == pytest.approx(-1.6931472,
                                                           abs=1e-7)
        assert report.num_points == 1 and report.num_draws == 1

    def test_identical_draws_collapse(self):
        model, one = _poisson_draws([1.0])
        model, two = _poisson_draws([1.0, 1.0])
        data = Dataset({"x": [2]})
        assert heldout_log_predictive(model, one, data).mean_log_predictive \
            == heldout_log_predictive(model, two, data).mean_log_predictive

    def test_two_draw_mixture(self):
        # hand-computed oracle: log of the average of the two Poisson masses
        l1 = _poisson_lpmf(2, 1.0)
        l2 = _poisson_lpmf(2, 2.0)
        oracle = math.log(0.5 * (math.exp(l1) + math.exp(l2)))
        model, draws = _poisson_draws([1.0, 2.0])
        report = heldout_log_predictive(model, draws, Dataset({"x": [2]}))
        assert report.mean_log_predictive == pytest.approx(oracle, abs=1e-12)

    def test_zero_likelihood_reports_offending_index(self):
        # a draw exactly on the support boundary gives zero mass everywhere
        model, draws = _poisson_draws([0.0])
        report = heldout_log_predictive(model, draws,
                                        Dataset({"x": [1, 2]}))
        assert report.mean_log_predictive == -math.inf
        assert report.failed_index == 0

    def test_point_dependent_domain_error_scores_that_pair_only(self):
        # draw 0 gives held-out cell (0, 0) a Poisson rate of exactly 0,
        # and every other (draw, cell) pair a positive rate: only that
        # pair scores -inf, draw 0 still counts for cell (0, 1)
        model = zoo.make_model("dirichlet_exponential_nmf",
                               dims={"U": 1, "I": 2, "K": 2})
        theta = np.array([[[0.5, 0.5]], [[0.3, 0.7]]])  # (draws, U, K)
        beta = np.array([[[0.0, 0.0], [1.0, 2.0]],
                         [[1.5, 0.5], [0.5, 1.0]]])  # (draws, I, K)
        draws = PosteriorDraws(blocks=model.blocks,
                               samples={"theta": theta, "beta": beta},
                               size=2)
        rates = np.einsum("suk,sik->sui", theta, beta)[:, 0, :]
        assert rates[0, 0] == 0.0 and (np.delete(rates, 0) > 0.0).all()
        report = heldout_log_predictive(
            model, draws, Dataset({"U": 1, "I": 2, "y": [[1, 2]]}))
        cell0 = math.log(0.5 * math.exp(_poisson_lpmf(1, rates[1, 0])))
        cell1 = math.log(0.5 * (math.exp(_poisson_lpmf(2, rates[0, 1]))
                                + math.exp(_poisson_lpmf(2, rates[1, 1]))))
        assert report.failed_index is None
        assert report.mean_log_predictive == \
            pytest.approx(0.5 * (cell0 + cell1), abs=1e-12)

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(3)
        rates = list(rng.uniform(0.5, 4.0, 17))
        x = [int(v) for v in rng.poisson(2.0, 9)]
        model, draws_a = _poisson_draws(rates)
        model, draws_b = _poisson_draws(rates[::-1])
        a = heldout_log_predictive(model, draws_a, Dataset({"x": x}))
        b = heldout_log_predictive(model, draws_b, Dataset({"x": x}))
        c = heldout_log_predictive(model, draws_a, Dataset({"x": x[::-1]}))
        assert a.mean_log_predictive == b.mean_log_predictive
        assert a.mean_log_predictive == c.mean_log_predictive

    def test_shape_mismatch_is_config_error(self):
        rng = np.random.default_rng(0)
        data, _ = zoo.simulate_linreg_ard(rng, n=10, d=3)
        model = zoo.model_for_data("linreg_ard", data, {})
        params = VariationalParams(np.zeros(model.dim), np.zeros(model.dim))
        draws = draw_posterior(model, params, 3, 0)
        bad = Dataset({"x": [[1.0, 2.0]], "y": [0.5]})  # wrong row width
        with pytest.raises(ConfigurationError):
            heldout_log_predictive(model, draws, bad)

    def test_empty_draws_rejected(self):
        model, draws = _poisson_draws([1.0])
        with pytest.raises(ConfigurationError):
            heldout_log_predictive(model, draws, Dataset({"x": []}))


class TestLoadDataset:
    def test_scalars_and_arrays(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text('{"N": 2, "x": [3, 5]}')
        data = load_dataset(p)
        assert data["N"] == 2 and isinstance(data["N"], int)
        assert data["x"] == [3, 5]
        assert all(isinstance(v, int) for v in data["x"])

    def test_matrix(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text('{"y": [[1.0, 2.0], [3.0, 4.0]]}')
        data = load_dataset(p)
        assert data["y"] == [[1.0, 2.0], [3.0, 4.0]]

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text('{"y": [[1], [2, 3]]}')
        with pytest.raises(ShapeError, match="ragged"):
            load_dataset(p)

    def test_parse_error_reports_position(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text('{"y": [1,\n 2,,]}')
        with pytest.raises(ConfigurationError, match=r"line 2, column"):
            load_dataset(p)

    def test_mixed_numeric_list_becomes_float(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text('{"x": [1, 2.5]}')
        data = load_dataset(p)
        assert data["x"] == [1.0, 2.5]
        assert all(isinstance(v, float) for v in data["x"])

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text('{"x": ["a"]}')
        with pytest.raises(ShapeError, match="not a number"):
            load_dataset(p)
        p.write_text('{"x": true}')
        with pytest.raises(ShapeError):
            load_dataset(p)

    def test_top_level_must_be_object(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text('[1, 2]')
        with pytest.raises(ShapeError, match="object"):
            load_dataset(p)


class TestWriteOutputs:
    def test_gmm_header_layout(self, tmp_path):
        model = zoo.make_model("gmm", dims={"K": 2, "D": 1})
        params = VariationalParams(np.zeros(model.dim), np.zeros(model.dim))
        draws = draw_posterior(model, params, 2, 0)
        path = tmp_path / "s.csv"
        write_samples_csv(draws, path)
        header = path.read_text().splitlines()[0]
        assert header == "theta.1,theta.2,mu.1.1,mu.2.1,sigma.1.1,sigma.2.1"

    def test_scalar_value_full_precision(self, tmp_path):
        model, draws = _poisson_draws([1.0])
        path = tmp_path / "s.csv"
        write_samples_csv(draws, path)
        assert path.read_text() == "lam.1\n1\n"

    def test_empty_trace_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        write_diagnostics_csv(ElboTrace(), path)
        assert path.read_text() == "iteration,elapsed_ms,elbo\n"

    def test_samples_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        model, draws = _poisson_draws(list(rng.lognormal(0, 2, 50)))
        path = tmp_path / "s.csv"
        write_samples_csv(draws, path)
        lines = path.read_text().splitlines()
        values = [float(line) for line in lines[1:]]
        assert values == draws.samples["lam"].tolist()

    def test_diagnostics_round_trip(self, tmp_path):
        trace = ElboTrace()
        trace.append(100, 12.25, -1234.567890123456789)
        trace.append(200, 24.5, -1200.0000000001)
        path = tmp_path / "e.csv"
        write_diagnostics_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,elapsed_ms,elbo"
        parsed = [line.split(",") for line in lines[1:]]
        assert [(int(r[0]), float(r[1]), float(r[2])) for r in parsed] == \
            trace.rows

    def test_manifest_round_trips_as_json(self, tmp_path):
        manifest = RunManifest(
            model="gmm", hyperparams={"alpha0": 1.0}, config={"seed": 3},
            seed=3, input_paths={"data": "d.json"},
            output_paths={"samples": "s.csv"},
            timings={"wall_seconds": 1.25}, details={"iterations_run": 10})
        path = tmp_path / "m.json"
        write_manifest(manifest, path)
        parsed = json.loads(path.read_text())
        assert parsed["model"] == "gmm"
        assert parsed["timings"]["wall_seconds"] == 1.25

    def test_unwritable_path_raises_with_path(self, tmp_path):
        model, draws = _poisson_draws([1.0])
        bad = tmp_path / "nodir" / "s.csv"
        with pytest.raises(ConfigurationError, match="nodir"):
            write_samples_csv(draws, bad)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.floats(min_value=-1e300, max_value=1e300,
                                 allow_nan=False), min_size=1, max_size=8))
def test_17_digit_format_round_trips(tmp_path_factory, values):
    tmp = tmp_path_factory.mktemp("fmt")
    model = zoo.make_model("poisson_exponential")
    draws = PosteriorDraws(blocks=model.blocks,
                           samples={"lam": np.asarray(values)},
                           size=len(values))
    path = tmp / "s.csv"
    write_samples_csv(draws, path)
    parsed = [float(line) for line in path.read_text().splitlines()[1:]]
    assert parsed == list(np.asarray(values))
