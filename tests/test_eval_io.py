import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanfield
from meanfield import densities as dens
from meanfield import evaluate, model as model_module, zoo
from meanfield.engine import PosteriorDraws, VariationalParams, \
    draw_posterior, ElboTrace
from meanfield.errors import ConfigurationError, DomainError, \
    EvaluationFailure, ShapeError
from meanfield.evaluate import heldout_log_predictive
from meanfield.io import RunManifest, load_dataset, write_diagnostics_csv, \
    write_manifest, write_samples_csv
from meanfield.model import Dataset
from meanfield.transforms import constrained_dim
from util import small_zoo_instance


def _poisson_draws(rates):
    model = zoo.make_model("poisson_exponential")
    return model, PosteriorDraws(
        samples={"lam": np.asarray(rates, dtype=float)},
        size=len(rates))


def _poisson_lpmf(k, rate):
    return k * math.log(rate) - rate - math.lgamma(k + 1)


def _log_mean_exp(values):
    # the per-point scalar reduction that held-out scoring used before it
    # became one array expression, kept as an oracle
    m = max(values)
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(math.exp(v - m) for v in values)
                        / len(values))


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

    def test_infinite_rate_scores_zero_likelihood(self):
        # lam = exp(zeta) overflows to inf above zeta 709.78: every count
        # has probability 0 there, so only the finite draw contributes
        model, draws = _poisson_draws([1.0, math.inf])
        report = heldout_log_predictive(model, draws, Dataset({"x": [2]}))
        oracle = math.log(0.5) + _poisson_lpmf(2, 1.0)
        assert report.mean_log_predictive == pytest.approx(oracle, abs=1e-12)
        assert round(oracle, 4) == -2.3863

    def test_point_dependent_domain_error_scores_that_pair_only(self):
        # draw 0 gives held-out cell (0, 0) a Poisson rate of exactly 0,
        # and every other (draw, cell) pair a positive rate: only that
        # pair scores -inf, draw 0 still counts for cell (0, 1)
        model = zoo.make_model("dirichlet_exponential_nmf",
                               dims={"U": 1, "I": 2, "K": 2})
        theta = np.array([[[0.5, 0.5]], [[0.3, 0.7]]])  # (draws, U, K)
        beta = np.array([[[0.0, 0.0], [1.0, 2.0]],
                         [[1.5, 0.5], [0.5, 1.0]]])  # (draws, I, K)
        draws = PosteriorDraws(samples={"theta": theta, "beta": beta}, size=2)
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

    def test_draw_raising_domain_error_scores_log_zero(self):
        # a draw above 5 makes the whole call raise: the chunk of both
        # draws is rerun one draw at a time, the draw above 5 scores log 0
        # at every point and the other draw still counts
        calls = []

        def loglik(v, data, idx):
            calls.append(idx)
            if np.any(v["lam"] > 5.0):
                raise DomainError("lam > 5")
            return dens.poisson(data["x"][idx], v["lam"])

        model, draws = _poisson_draws([1.0, 10.0])
        model = dataclasses.replace(model, loglik_term=loglik)
        report = heldout_log_predictive(model, draws,
                                        Dataset({"x": [2, 0, 3]}))
        oracle = sum(math.log(0.5) + _poisson_lpmf(k, 1.0)
                     for k in (2, 0, 3)) / 3
        assert report.failed_index is None
        assert report.mean_log_predictive == pytest.approx(oracle,
                                                           abs=1e-12)
        assert [c.tolist() for c in calls] == [[0, 1, 2]] * 3

    def test_count_outside_support_is_shape_error(self):
        model, draws = _poisson_draws([1.0, 2.0])
        with pytest.raises(ShapeError, match="got -1"):
            heldout_log_predictive(model, draws,
                                   Dataset({"x": [4, -1, 2.5]}))

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

    def test_matches_scalar_log_mean_exp_across_chunks(self):
        # 300 draws x 300 cells is more (draw, point) pairs than one chunk
        # holds; draw 0 gives cell 5 a Poisson rate of exactly 0, the one
        # -inf pair
        rng = np.random.default_rng(4)
        draws_n, items = 300, 300
        model = zoo.make_model("dirichlet_exponential_nmf",
                               dims={"U": 1, "I": items, "K": 2})
        theta = rng.dirichlet([2.0, 2.0], size=(draws_n, 1))
        beta = rng.exponential(1.0, size=(draws_n, items, 2))
        beta[0, 5] = 0.0
        y = rng.poisson(1.5, size=items)
        y[5] = 3
        draws = PosteriorDraws(samples={"theta": theta, "beta": beta},
                               size=draws_n)
        assert draws_n * items > evaluate._SCORES_AT_ONCE
        report = heldout_log_predictive(
            model, draws, Dataset({"U": 1, "I": items, "y": [y.tolist()]}))
        rates = np.einsum("suk,sik->si", theta, beta)
        lgam = np.array([math.lgamma(k + 1.0) for k in y.tolist()])
        with np.errstate(divide="ignore"):
            logliks = y * np.log(rates) - rates - lgam
        assert np.isneginf(logliks).sum() == 1
        oracle = math.fsum(_log_mean_exp(logliks[:, n].tolist())
                           for n in range(items)) / items
        assert report.failed_index is None
        assert report.mean_log_predictive == pytest.approx(oracle,
                                                           rel=1e-12)

    def test_permutation_invariance_exact_across_chunks(self):
        # the points fill one full chunk and one of a single point, so a
        # permutation moves points across the chunk boundary; with few
        # points per chunk, a per-point sum that ran differently in a
        # chunk of one point would show in the mean
        rng = np.random.default_rng(6)
        draws_n = 8000
        step = evaluate._SCORES_AT_ONCE // draws_n
        rates = rng.uniform(0.5, 4.0, draws_n).tolist()
        x = rng.poisson(2.0, step + 1).tolist()
        model, draws = _poisson_draws(rates)
        base = heldout_log_predictive(model, draws, Dataset({"x": x}))
        for _ in range(3):
            _, shuffled = _poisson_draws(rng.permutation(rates))
            moved = rng.permutation(x).tolist()
            assert heldout_log_predictive(
                model, shuffled, Dataset({"x": x})).mean_log_predictive \
                == base.mean_log_predictive
            assert heldout_log_predictive(
                model, draws, Dataset({"x": moved})).mean_log_predictive \
                == base.mean_log_predictive

    @pytest.mark.parametrize("name", zoo.ZOO_NAMES)
    def test_chunked_scores_equal_per_draw_oracle(self, name, monkeypatch):
        # 10 draws in chunks of 3 (the last chunk holds one) against the
        # one-draw path, which calls loglik_term once per draw, and against
        # per-draw loglik_term calls reduced by an independent oracle
        model, data = small_zoo_instance(name)
        n = model.num_observations(data)
        rng = np.random.default_rng(12)
        params = VariationalParams(rng.normal(0.0, 0.5, model.dim),
                                   rng.normal(-1.0, 0.3, model.dim))
        draws = draw_posterior(model, params, 10, 5)
        monkeypatch.setattr(model_module, "_PAIRS_PER_CALL", 3 * n)
        chunked = heldout_log_predictive(model, draws, data)
        monkeypatch.setattr(model_module, "_PAIRS_PER_CALL", 1)
        one_by_one = heldout_log_predictive(model, draws, data)
        assert chunked == one_by_one
        idx = np.arange(n)
        logliks = np.array([
            model.loglik_term({k: v[s] for k, v in draws.samples.items()},
                              data, idx) for s in range(10)])
        oracle = math.fsum(_log_mean_exp(logliks[:, i].tolist())
                           for i in range(n)) / n
        assert chunked.mean_log_predictive == pytest.approx(oracle,
                                                            rel=1e-12)

    def test_calls_are_bounded_score_each_pair_once_and_rerun_a_failing_chunk(
            self, monkeypatch):
        # draw s has rate s + 1, so a call's draws read off its rates; the
        # draw of rate 5 raises. 4 points per chunk of points (40 scores
        # held over 10 draws), 12 (draw, point) pairs per call: draws go in
        # chunks of 3 over the first 4 points and of 4 over the last 3
        monkeypatch.setattr(evaluate, "_SCORES_AT_ONCE", 40)
        monkeypatch.setattr(model_module, "_PAIRS_PER_CALL", 12)
        calls = []

        def loglik(v, data, idx):
            rates = np.atleast_1d(v["lam"])
            ok = not (rates == 5.0).any()
            calls.append(((rates - 1).astype(int).tolist(), idx.tolist(), ok))
            if not ok:
                raise DomainError("rate 5")
            return dens.poisson(data["x"][idx], v["lam"][..., None]
                                if np.ndim(v["lam"]) else v["lam"])

        rates = np.arange(1.0, 11.0)
        model, draws = _poisson_draws(rates)
        model = dataclasses.replace(model, loglik_term=loglik)
        x = [2, 0, 3, 1, 4, 2, 5]
        report = heldout_log_predictive(model, draws, Dataset({"x": x}))
        assert [c[:2] for c in calls] == [
            ([0, 1, 2], [0, 1, 2, 3]), ([3, 4, 5], [0, 1, 2, 3]),
            ([3], [0, 1, 2, 3]), ([4], [0, 1, 2, 3]), ([5], [0, 1, 2, 3]),
            ([6, 7, 8], [0, 1, 2, 3]), ([9], [0, 1, 2, 3]),
            ([0, 1, 2, 3], [4, 5, 6]), ([4, 5, 6, 7], [4, 5, 6]),
            ([4], [4, 5, 6]), ([5], [4, 5, 6]), ([6], [4, 5, 6]),
            ([7], [4, 5, 6]), ([8, 9], [4, 5, 6])]
        assert all(len(d) * len(i) <= 12 for d, i, _ in calls)
        scored = [(s, i) for d, idx, ok in calls if ok for s in d
                  for i in idx]
        assert sorted(scored) == [(s, i) for s in range(10) if s != 4
                                  for i in range(7)]
        # the draw of rate 5 scores log 0 at every point
        oracle = math.fsum(
            math.log(math.fsum(math.exp(_poisson_lpmf(k, r))
                               for r in rates if r != 5.0) / 10)
            for k in x) / len(x)
        assert report.failed_index is None
        assert report.mean_log_predictive == pytest.approx(oracle,
                                                           rel=1e-12)

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

    def test_zero_draws_rejected(self):
        model, draws = _poisson_draws([])
        with pytest.raises(ConfigurationError,
                           match="^need at least one posterior draw$"):
            heldout_log_predictive(model, draws, Dataset({"x": [2]}))

    @pytest.mark.parametrize("rates", [[1.0], [1.0, 2.0, 0.5]],
                             ids=["one_draw", "three_draws"])
    def test_a_nan_likelihood_is_an_evaluation_failure(self, rates):
        model, draws = _poisson_draws(rates)

        def loglik(values, data, idx):
            terms = model.loglik_term(values, data, idx)
            return np.where(data["x"][idx] == 7, math.nan, terms)

        nan_at_7 = dataclasses.replace(model, loglik_term=loglik)
        with pytest.raises(EvaluationFailure,
                           match="^NaN likelihood at point 2$"):
            heldout_log_predictive(nan_at_7, draws,
                                   Dataset({"x": [2, 3, 7, 1]}))


# entries that are not int or float arrays of at most two axes, with the
# words of the error each raises
_BAD_ENTRIES = [
    ([[1], [2, 3]], "ragged rows"),
    ([[1, 2], 3], "mixes scalars and rows"),
    ([1, True, 3], "bool is not a number"),
    (True, "bool is not a number"),
    (["a"], "not a number"),
    ([2 ** 63], "int64 range"),
    ([-1, 2 ** 63], "int64 range"),
    ([[[1.0]]], "nested 3 deep"),
    ([1.0, float("inf")], "inf is not finite"),
    (np.array([[0.5, np.nan]]), "nan is not finite"),
]
_BAD_IDS = ["ragged", "mixed", "bool_in_ints", "bool", "string",
            "beyond_int64", "beyond_int64_signed", "three_levels",
            "inf_in_floats", "nan_in_array"]


class TestDataset:
    @pytest.mark.parametrize("value,match", _BAD_ENTRIES, ids=_BAD_IDS)
    def test_bad_entry_built_in_code_rejected(self, value, match):
        with pytest.raises(ShapeError, match=f"'bad'.*{match}"):
            Dataset({"N": 2, "bad": value})

    def test_integer_entries_are_int64_others_float64(self):
        data = Dataset({"N": 2, "x": [3, 5], "y": [1, 2.5],
                        "z": [[1.0, 2.0]], "e": []})
        assert data["N"].dtype == np.int64 and data["N"].shape == ()
        assert data["x"].dtype == np.int64 and data["x"].tolist() == [3, 5]
        assert data["y"].dtype == np.float64
        assert data["z"].shape == (1, 2) and data["e"].shape == (0,)

    def test_numpy_entries_accepted(self):
        # a slice of another dataset's entry, as in C09
        x = Dataset({"x": np.arange(6.0).reshape(3, 2)})["x"][:2]
        k = np.array([1, 2], dtype=np.uint8)
        data = Dataset({"x": x, "k": k})
        assert data["x"] is x and data["k"] is k
        for value in (np.array([True, False]), np.array(["a"])):
            with pytest.raises(ShapeError, match="'b'.*not ints or floats"):
                Dataset({"b": value})

    def test_entries_kept_as_given(self):
        entries = {"N": 2, "x": [3, 5], "y": [[1.0, 2.5]]}
        data = Dataset(entries)
        assert data.entries == entries and "x" in data and "y" in data
        assert "z" not in data

    def test_simulated_entries_round_trip_through_json(self):
        rng = np.random.default_rng(3)
        for data, _ in (zoo.simulate_poisson_exponential(rng),
                        zoo.simulate_linreg_ard(rng, 6, 3),
                        zoo.simulate_hier_logistic(rng, 12),
                        zoo.simulate_nmf_counts(rng, 3, 4, 2),
                        zoo.simulate_gmm(rng, 8, [[0.0, 1.0], [2.0, 3.0]])):
            entries = data.entries
            again = Dataset(json.loads(json.dumps(entries)))
            assert again.entries.keys() == entries.keys()
            for name in entries:
                assert again[name].dtype == data[name].dtype
                assert np.array_equal(again[name], data[name])


class TestLoadDataset:
    def test_scalars_and_arrays(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text('{"N": 2, "x": [3, 5]}')
        data = load_dataset(p)
        assert data["N"].shape == () and data["N"] == 2
        assert data["N"].dtype == np.int64
        assert data["x"].tolist() == [3, 5] and data["x"].dtype == np.int64

    def test_matrix(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text('{"y": [[1.0, 2.0], [3.0, 4.0]]}')
        data = load_dataset(p)
        assert data["y"].tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert data["y"].dtype == np.float64

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
        assert data["x"].tolist() == [1.0, 2.5]
        assert data["x"].dtype == np.float64

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

    def test_non_finite_literals_rejected(self, tmp_path):
        p = tmp_path / "d.json"
        for text, name, value in (('{"x": [3, Infinity]}', "x", "inf"),
                                  ('{"y": [[NaN, 1.0]]}', "y", "nan"),
                                  ('{"s": -Infinity}', "s", "-inf")):
            p.write_text(text)
            with pytest.raises(ShapeError,
                               match=f"'{name}': value {value} is not finite"):
                load_dataset(p)

    def test_non_utf8_file_is_a_configuration_error(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_bytes(b'\xff\xfe{"x": [1]}')
        with pytest.raises(ConfigurationError,
                           match="cannot read .*d.json.*utf-8"):
            load_dataset(p)

    def test_only_the_arrays_are_retained(self, tmp_path):
        p = tmp_path / "d.json"
        rng = np.random.default_rng(11)
        p.write_text(json.dumps(
            {"N": 20_000, "y": rng.standard_normal((20_000, 10)).tolist()}))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            data = load_dataset(p)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1.5 * data["y"].nbytes

    @pytest.mark.parametrize("value,match", _BAD_ENTRIES, ids=_BAD_IDS)
    def test_bad_entry_rejected(self, tmp_path, value, match):
        p = tmp_path / "d.json"
        p.write_text(json.dumps({"N": 2, "bad": value},
                                default=np.ndarray.tolist))
        with pytest.raises(ShapeError, match=f"'bad'.*{match}"):
            load_dataset(p)


def _block_columns(block):
    """The samples-CSV columns of ``block`` by the rule the blocks once
    carried themselves, kept here as the oracle of the header that
    ``write_samples_csv`` derives from the shapes of the samples."""
    d = constrained_dim(block.kind)
    if block.rows is None:
        return [f"{block.name}.{j}" for j in range(1, d + 1)]
    return [f"{block.name}.{r}.{j}"
            for r in range(1, block.rows + 1)
            for j in range(1, d + 1)]


class TestWriteOutputs:
    @pytest.mark.parametrize("name", zoo.ZOO_NAMES)
    def test_header_follows_block_layout(self, tmp_path, name):
        model, _ = small_zoo_instance(name)
        params = VariationalParams(np.zeros(model.dim), np.zeros(model.dim))
        path = tmp_path / "s.csv"
        write_samples_csv(draw_posterior(model, params, 2, 0), path)
        header, *rows = path.read_text().splitlines()
        expected = [c for b in model.blocks for c in _block_columns(b)]
        assert header.split(",") == expected
        assert [len(row.split(",")) for row in rows] == [len(expected)] * 2

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
    draws = PosteriorDraws(samples={"lam": np.asarray(values)},
                           size=len(values))
    path = tmp / "s.csv"
    write_samples_csv(draws, path)
    parsed = [float(line) for line in path.read_text().splitlines()[1:]]
    assert parsed == list(np.asarray(values))


_FIT_AND_SCORE = """
import sys
import numpy as np
from meanfield import FitConfig, draw_posterior, fit, zoo
from meanfield.evaluate import heldout_log_predictive

rng = np.random.default_rng(5)
for name, (data, _) in [
        ("dirichlet_exponential_nmf", zoo.simulate_nmf_counts(rng, 3, 4, 2)),
        ("poisson_exponential", zoo.simulate_poisson_exponential(rng, 5))]:
    model = zoo.model_for_data(name, data, {"K": 2} if "nmf" in name else {})
    params, _ = fit(model, data, FitConfig(max_iterations=20, seed=0))
    draws = draw_posterior(model, params, 10, rng)
    heldout_log_predictive(model, draws, data)
assert 'scipy' not in sys.modules
"""


def test_fitting_and_scoring_a_zoo_model_does_not_load_scipy():
    # only log_gamma of a tape variable needs scipy (its digamma), and no
    # zoo model takes one; a scipy log k! would load it
    env = dict(os.environ,
               PYTHONPATH=str(Path(meanfield.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", _FIT_AND_SCORE], env=env,
                   check=True)
