import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meanfield
from meanfield import autodiff as ad
from meanfield import densities as dens
from meanfield import transforms as tr
from meanfield import zoo
from meanfield.engine import FitConfig, VariationalParams, estimate_elbo, \
    estimate_gradients, fit
from meanfield.errors import ConfigurationError, ShapeError
from meanfield.model import Dataset, ModelDefinition, _joint, \
    log_joint_unconstrained, minibatch_log_joint, constrain_blocks
from meanfield.transforms import BlockSpec, Identity, Interval, LowerBound, \
    PositiveOrdered, Simplex, UpperBound
from util import central_diff, gaussian_toy, EMPTY_DATA, \
    small_zoo_instance as _small_instance


def test_zoo_names():
    assert set(zoo.ZOO_NAMES) == {
        "poisson_exponential", "linreg_ard", "hier_logistic",
        "gamma_poisson_nmf", "dirichlet_exponential_nmf", "gmm",
        "gmm_minibatch"}


def test_unknown_model_rejected():
    with pytest.raises(ConfigurationError, match="unknown model"):
        zoo.make_model("nosuch")


def test_missing_dims_rejected():
    with pytest.raises(ConfigurationError, match="missing dimensions"):
        zoo.make_model("linreg_ard")
    with pytest.raises(ConfigurationError, match="missing dimensions"):
        zoo.make_model("gmm")  # K has a default but D does not


def test_unknown_hyper_rejected():
    with pytest.raises(ConfigurationError, match="unknown hyperparameter"):
        zoo.make_model("poisson_exponential", {"zeta": 1.0})
    with pytest.raises(ConfigurationError, match="unknown dimension"):
        zoo.make_model("poisson_exponential", None, {"K": 3})


@pytest.mark.parametrize("value", [math.nan, -1.0, 0.0, math.inf])
def test_hyperparameter_must_be_finite_and_positive(value):
    with pytest.raises(ConfigurationError,
                       match=f"hyperparameter rate must be finite.*{value}"):
        zoo.make_model("poisson_exponential", {"rate": value})


def test_dimension_must_be_an_integer():
    with pytest.raises(ConfigurationError,
                       match="dimension K must be an integer, got 2.5"):
        zoo.make_model("gmm", dims={"K": 2.5, "D": 2})
    data = Dataset({"y": [[0.0, 1.0], [1.0, 0.0]]})
    with pytest.raises(ConfigurationError, match="dimension K .* 2.7"):
        zoo.model_for_data("gmm", data, {"K": 2.7})
    rng = np.random.default_rng(5)
    hier, _ = zoo.simulate_hier_logistic(rng, 25)
    entries = dict(hier.entries, n_state=8.5)
    with pytest.raises(ConfigurationError, match="dimension n_state"):
        zoo.model_for_data("hier_logistic", Dataset(entries), {})
    # an integral float is taken as the integer
    assert zoo.make_model("gmm", dims={"K": 3.0, "D": 2}).dim == \
        zoo.make_model("gmm", dims={"K": 3, "D": 2}).dim


@pytest.mark.parametrize("name, hypers, dims", [
    ("gmm", None, {"D": True, "K": 2}),
    ("linreg_ard", None, {"D": "3"}),
    ("poisson_exponential", {"rate": True}, None),
    ("poisson_exponential", {"rate": "2.0"}, None),
])
def test_a_bool_or_a_string_is_not_a_setting(name, hypers, dims):
    # float() would read True as 1.0 and "3" as 3.0
    with pytest.raises(ConfigurationError, match="must be a number, got"):
        zoo.make_model(name, hypers, dims)


def test_hyper_defaults():
    m = zoo.make_model("dirichlet_exponential_nmf", dims={"U": 2, "I": 2})
    assert m.hyperparams == {"alpha0": 1000.0, "lambda0": 0.1}
    m = zoo.make_model("gmm", dims={"D": 2})
    assert m.hyperparams == {"alpha0": 10000.0, "mu_sigma0": 0.1,
                             "sigma_sigma0": 0.1}
    m = zoo.make_model("linreg_ard", dims={"D": 3})
    assert m.hyperparams == {"a0": 1.0, "b0": 1.0, "c0": 1.0, "d0": 1.0}


# per model: hyperparameter defaults, dimension names in order, dimension
# defaults
_GMM_SETTINGS = ({"alpha0": 10000.0, "mu_sigma0": 0.1, "sigma_sigma0": 0.1},
                 ("K", "D"), {"K": 10})
ZOO_SETTINGS = {
    "poisson_exponential": ({"rate": 1.0}, (), {}),
    "linreg_ard": ({"a0": 1.0, "b0": 1.0, "c0": 1.0, "d0": 1.0},
                   ("D",), {}),
    "hier_logistic": ({}, ("n_age", "n_edu", "n_age_edu", "n_state",
                           "n_region_full"), {}),
    "gamma_poisson_nmf": ({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
                          ("U", "I", "K"), {"K": 10}),
    "dirichlet_exponential_nmf": ({"alpha0": 1000.0, "lambda0": 0.1},
                                  ("U", "I", "K"), {"K": 10}),
    "gmm": _GMM_SETTINGS,
    "gmm_minibatch": _GMM_SETTINGS,
}


@pytest.mark.parametrize("name", zoo.ZOO_NAMES)
def test_zoo_settings(name):
    hypers, dim_names, dim_defaults = ZOO_SETTINGS[name]
    # the errors list the dimension names in order
    accepts = f"accepts {list(dim_names) or 'none'}"
    with pytest.raises(ConfigurationError, match=re.escape(accepts)):
        zoo.make_model(name, dims={"nosuch": 1})
    required = [k for k in dim_names if k not in dim_defaults]
    if required:
        missing = f"missing dimensions {required}"
        with pytest.raises(ConfigurationError, match=re.escape(missing)):
            zoo.make_model(name)
    sizes = {k: 2 for k in required}
    m = zoo.make_model(name, dims=sizes)
    assert list(m.hyperparams.items()) == list(hypers.items())
    # an omitted dimension takes its default
    assert m.blocks == zoo.make_model(name, dims={**sizes,
                                                 **dim_defaults}).blocks
    if dim_defaults:
        changed = {k: v + 1 for k, v in dim_defaults.items()}
        assert m.blocks != zoo.make_model(name, dims={**sizes,
                                                     **changed}).blocks


def test_poisson_exponential_layout():
    m = zoo.make_model("poisson_exponential")
    assert m.dim == 1
    assert len(m.blocks) == 1
    assert m.blocks[0].kind == LowerBound(0.0)
    assert m.blocks[0].scalar


def test_gmm_layout():
    m = zoo.make_model("gmm", dims={"K": 3, "D": 2})
    names = [b.name for b in m.blocks]
    assert names == ["theta", "mu", "sigma"]
    assert m.blocks[0].kind == Simplex(3)
    assert m.blocks[1].rows == 3
    assert m.dim == 2 + 6 + 6


def test_nmf_layout():
    m = zoo.make_model("gamma_poisson_nmf", dims={"U": 3, "I": 4, "K": 2})
    assert m.blocks[0].kind == PositiveOrdered(2)
    assert m.blocks[0].rows == 3
    assert m.blocks[1].kind == LowerBound(0.0, 2)
    assert m.blocks[1].rows == 4
    assert m.dim == 3 * 2 + 4 * 2


def test_hier_logistic_layout():
    m = zoo.make_model("hier_logistic", dims={
        "n_age": 3, "n_edu": 3, "n_age_edu": 9, "n_state": 4,
        "n_region_full": 2})
    names = [b.name for b in m.blocks]
    assert names == ["a", "b", "c", "d", "e", "beta", "sigma_a", "sigma_b",
                     "sigma_c", "sigma_d", "sigma_e"]
    assert m.dim == 3 + 3 + 9 + 4 + 2 + 5 + 5


def test_poisson_exponential_log_joint_values():
    m = zoo.make_model("poisson_exponential")
    assert log_joint_unconstrained(m, Dataset({"x": []}), [0.0]) == \
        pytest.approx(-1.0, abs=1e-12)
    assert log_joint_unconstrained(m, Dataset({"x": [2]}), [0.0]) == \
        pytest.approx(-2.6931472, abs=1e-7)


def test_gaussian_toy_value():
    toy = gaussian_toy()
    assert log_joint_unconstrained(toy, EMPTY_DATA, [0.0]) == \
        pytest.approx(-0.9189385, abs=1e-7)


def test_zeta_length_checked():
    m = zoo.make_model("poisson_exponential")
    with pytest.raises(ShapeError):
        log_joint_unconstrained(m, Dataset({"x": []}), [0.0, 0.0])


@pytest.mark.parametrize("name", zoo.ZOO_NAMES)
def test_zoo_gradients_match_finite_differences(name):
    model, data = _small_instance(name)
    rng = np.random.default_rng(1234)
    for _ in range(5):
        zeta = list(rng.normal(0.0, 1.0, model.dim))
        g = ad.Graph()
        leaves = [g.leaf(z) for z in zeta]
        out = log_joint_unconstrained(model, data, leaves)
        assert math.isfinite(out.val)
        grads = ad.gradient(out, leaves)
        fd = central_diff(
            lambda z: log_joint_unconstrained(model, data, z), zeta, h=1e-5)
        for gv, fv in zip(grads, fd):
            assert abs(gv - fv) <= 1e-5 * max(1.0, abs(fv))


def test_taped_and_plain_joint_agree():
    model, data = _small_instance("gmm")
    rng = np.random.default_rng(0)
    zeta = list(rng.normal(0.0, 1.0, model.dim))
    plain = log_joint_unconstrained(model, data, zeta)
    g = ad.Graph()
    taped = log_joint_unconstrained(model, data, [g.leaf(z) for z in zeta])
    assert taped.val == pytest.approx(plain, rel=1e-12)


def test_gmm_matches_assignment_enumeration():
    # brute-force oracle: sum the joint over all K^N component assignments
    rng = np.random.default_rng(7)
    for n, k in [(1, 2), (3, 2), (4, 3), (2, 3)]:
        data = Dataset({"y": [[float(v)] for v in rng.normal(0, 2, n)]})
        model = zoo.model_for_data(
            "gmm", data, {"K": k, "alpha0": 2.0, "mu_sigma0": 2.0,
                          "sigma_sigma0": 1.0})
        zeta = list(rng.normal(0.0, 0.8, model.dim))
        values, _ = constrain_blocks(model, zeta)
        theta, mu, sigma = values["theta"], values["mu"], values["sigma"]

        def point_lpdf(y, kk):
            return (math.log(theta[kk])
                    - 0.5 * math.log(2 * math.pi) - math.log(sigma[kk][0])
                    - 0.5 * ((y - mu[kk][0]) / sigma[kk][0]) ** 2)

        mixture = math.fsum(
            model.loglik_term(values, data, i) for i in range(n))
        total = 0.0
        for assignment in np.ndindex(*(k,) * n):
            total += math.exp(math.fsum(
                point_lpdf(data["y"][i][0], z)
                for i, z in enumerate(assignment)))
        assert mixture == pytest.approx(math.log(total), abs=1e-10)


def test_gmm_tape_does_not_grow_with_data():
    # one node per array operation, and data, hyperparameters and other
    # constants live inside the nodes that use them: the only leaves are
    # the zeta leaves, and N = 1000 builds the tape that N = 12 does
    model, data = _small_instance("gmm")
    rng = np.random.default_rng(12)
    big, _ = zoo.simulate_gmm(rng, 1000, [[-2.0, 0.0], [2.0, 1.0]],
                              sigma=0.8)
    zeta = list(rng.normal(0.0, 1.0, model.dim))
    sizes = []
    for d in (data, big):
        g = ad.Graph()
        leaves = [g.leaf(z) for z in zeta]
        log_joint_unconstrained(model, d, leaves)
        assert [i for i, (_, _, vjp) in enumerate(g.nodes)
                if vjp is None] == [v.i for v in leaves]
        sizes.append(len(g))
    assert model.num_observations(data) == 12
    assert sizes[0] == sizes[1]


def _two_block_model(blocks):
    return ModelDefinition(
        name="two_blocks", blocks=blocks,
        log_prior=lambda v, data: ad.sum(v["s"]) + ad.sum(v["w"]),
        loglik_term=lambda v, data, idx: 0.0,
        num_observations=lambda data: 0)


def test_identity_block_pushes_no_log_det_node():
    model = _two_block_model((BlockSpec("s", LowerBound(0.0, 2)),
                              BlockSpec("w", Identity(2))))
    g = ad.Graph()
    z = g.leaf([0.1, -0.2, 0.3, 0.4])
    values, log_det = constrain_blocks(model, z)
    # the Identity block's slice is the last node: the log-det is the
    # LowerBound block's own sum, with no "+ 0.0" pushed after it
    assert values["w"].i == len(g) - 1
    assert log_det.i < values["w"].i
    assert log_det.val == pytest.approx(-0.1, abs=1e-15)


def test_all_identity_model_has_no_log_det():
    model = _two_block_model((BlockSpec("s", Identity(2)),
                              BlockSpec("w", Identity(2))))
    zeta = [0.1, -0.2, 0.3, 0.4]
    values, log_det = constrain_blocks(model, zeta)
    assert log_det is None
    assert values["s"].tolist() == [0.1, -0.2]
    assert log_joint_unconstrained(model, EMPTY_DATA, zeta) == \
        pytest.approx(0.6, abs=1e-15)
    g = ad.Graph()
    z = g.leaf(zeta)
    out = log_joint_unconstrained(model, EMPTY_DATA, z)
    # leaf, two slices, two sums and the prior's add: no log-det node
    assert len(g) == 6
    assert ad.gradient(out, [z])[0].tolist() == [1.0] * 4


# Nodes per gradient of each small instance on one array leaf, of one draw
# (dim,) and of two draws (2, dim). The counts are deterministic; a change
# that grows a tape must update this table.
_TAPE_NODES = {
    "poisson_exponential": (9, 10), "linreg_ard": (24, 27),
    "hier_logistic": (47, 53), "gamma_poisson_nmf": (24, 24),
    "dirichlet_exponential_nmf": (23, 23), "gmm": (26, 29),
    "gmm_minibatch": (26, 29),
}


@pytest.mark.parametrize("name", zoo.ZOO_NAMES)
def test_tape_nodes_per_gradient(name):
    model, data = _small_instance(name)
    counts = []
    for shape in [(model.dim,), (2, model.dim)]:
        g = ad.Graph()
        z = g.leaf(np.full(shape, 0.1))
        ad.gradient(log_joint_unconstrained(model, data, z), [z])
        counts.append(len(g))
    assert tuple(counts) == _TAPE_NODES[name]


@pytest.mark.parametrize("name", zoo.ZOO_NAMES)
def test_every_block_value_unconstrains_to_its_coordinates(name):
    # a scalar block's value is 0-d, and unconstrain takes it as it is
    model, _ = _small_instance(name)
    zeta = np.random.default_rng(8).normal(0.0, 1.0, model.dim)
    values, _ = constrain_blocks(model, zeta)
    at = 0
    for b in model.blocks:
        value = values[b.name]
        if b.scalar:
            assert np.ndim(value) == 0
        tr.check_value(b.kind, value)
        back = tr.unconstrain(b.kind, value)
        assert back == pytest.approx(
            zeta[at:at + b.unconstrained_size].tolist(), abs=1e-12), b.name
        at += b.unconstrained_size
    assert at == model.dim


_MIXED_BLOCKS = (
    BlockSpec("a", LowerBound(0.0), scalar=True),
    BlockSpec("b", LowerBound(0.0, 2), rows=3),  # one run with a
    BlockSpec("c", LowerBound(1.0, 2)),  # another bound: a new run
    BlockSpec("d", Simplex(3)),
    BlockSpec("e", LowerBound(0.0, 2)),
    BlockSpec("f", Interval(0.0, 100.0), scalar=True),
    BlockSpec("g", Interval(0.0, 100.0, 2), rows=2),  # one run with f
    BlockSpec("h", Interval(0.0, 1.0), scalar=True),
    BlockSpec("i", Identity(2)),
    BlockSpec("j", Identity(1), scalar=True),
    BlockSpec("k", UpperBound(2.0, 2), rows=2),
    BlockSpec("l", UpperBound(2.0), scalar=True),
    BlockSpec("m", PositiveOrdered(3), rows=2),
)


def _per_block_constrain(blocks, zeta):
    """One transforms.constrain call per block, as the layout reads; the
    log-det has one value per leading draw."""
    lead = zeta.shape[:-1]
    values, log_det, offset = {}, 0.0, 0
    for b in blocks:
        part = zeta[..., offset:offset + b.unconstrained_size]
        offset += b.unconstrained_size
        if b.rows is not None:
            part = part.reshape(lead + (b.rows, tr.unconstrained_dim(b.kind)))
        theta, ld = tr.constrain(b.kind, part, len(lead))
        values[b.name] = theta.reshape(lead) if b.scalar else theta
        log_det += ld
    return values, log_det


def _mixed_model():
    return ModelDefinition("mixed", _MIXED_BLOCKS, log_prior=None,
                           loglik_term=None, num_observations=None)


def test_runs_merge_only_equal_elementwise_kinds():
    model = _mixed_model()
    assert [kind for kind, *_ in model.runs] == [
        LowerBound(0.0, 7), LowerBound(1.0, 2), Simplex(3),
        LowerBound(0.0, 2), Interval(0.0, 100.0, 5), Interval(0.0, 1.0),
        Identity(2), Identity(1), UpperBound(2.0, 5), PositiveOrdered(3)]


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "draws"])
def test_run_layout_equals_per_block_constrain(lead):
    model = _mixed_model()
    rng = np.random.default_rng(21)
    zeta = rng.normal(0.0, 1.5, lead + (model.dim,))
    values, log_det = constrain_blocks(model, zeta)
    ref, ref_log_det = _per_block_constrain(model.blocks, zeta)
    assert list(values) == list(ref)
    for name, want in ref.items():
        got = np.asarray(values[name])
        assert got.shape == np.shape(want)
        assert np.array_equal(got, want), name
    # a run's log-det is one sum over its coordinates, so it is added in
    # another order than the sum of per-block sums
    assert log_det == pytest.approx(ref_log_det,
                                    rel=64 * np.finfo(float).eps)

    g = ad.Graph()
    z = g.leaf(zeta)
    values, log_det = constrain_blocks(model, z)
    for name, want in ref.items():
        assert np.array_equal(values[name].val, want), name
    weights = {name: rng.normal(0.0, 1.0, np.shape(v))
               for name, v in ref.items()}

    def total(vals, ld):
        return ad.sum(ld) + sum(ad.sum(weights[n] * v)
                                for n, v in vals.items())

    grad = ad.gradient(total(values, log_det), [z])[0]
    fd = central_diff(
        lambda flat: total(*_per_block_constrain(
            model.blocks, np.reshape(flat, zeta.shape))),
        zeta.ravel(), h=1e-5)
    assert grad.ravel() == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_scalar_run_log_det_is_bit_identical_to_per_block():
    # hier_logistic's scales are five one-coordinate Interval blocks:
    # summed in one run or block by block, the log-det has the same bits
    model, _ = _small_instance("hier_logistic")
    zeta = np.random.default_rng(5).normal(0.0, 1.5, model.dim)
    values, log_det = constrain_blocks(model, zeta)
    ref, ref_log_det = _per_block_constrain(model.blocks, zeta)
    assert log_det == ref_log_det
    for name, want in ref.items():
        assert np.array_equal(values[name], want)


@pytest.mark.parametrize("name", zoo.ZOO_NAMES)
def test_draw_axis_equals_per_draw_calls(name):
    # the float path's contract: with a leading draw axis, every value,
    # the log-det, the prior, each likelihood term and the joint of draw
    # s have the bits of the one-draw call on row s
    model, data = _small_instance(name)
    zeta = np.random.default_rng(9).normal(0.0, 0.8, (5, model.dim))
    idx = np.arange(model.num_observations(data))
    values, log_det = constrain_blocks(model, zeta)
    prior = model.log_prior(values, data)
    lik = model.loglik_term(values, data, idx)
    joint = log_joint_unconstrained(model, data, zeta)
    assert np.shape(log_det) == prior.shape == joint.shape == (5,)
    assert lik.shape == (5, len(idx))
    for s in range(5):
        one, one_log_det = constrain_blocks(model, zeta[s])
        for b in model.blocks:
            assert np.array_equal(values[b.name][s], one[b.name]), b.name
        assert log_det[s] == one_log_det
        assert prior[s] == model.log_prior(one, data)
        assert np.array_equal(lik[s], model.loglik_term(one, data, idx))
        assert joint[s] == log_joint_unconstrained(model, data, zeta[s])


def _same_result(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@pytest.mark.parametrize("name", zoo.ZOO_NAMES)
def test_a_slice_index_gives_the_terms_of_its_index_array(name):
    # the full data is slice(None): the terms, on 0, 1 and 2 draw axes,
    # and the tape gradient of the joint have the bytes they have at
    # arange(N), and slice(a, b) those at arange(a, b)
    model, data = _small_instance(name)
    n = model.num_observations(data)
    keys = [(slice(None), np.arange(n)),
            (slice(1, n - 2), np.arange(1, n - 2))]
    rng = np.random.default_rng(11)
    for lead in [(), (3,), (2, 3)]:
        zeta = rng.normal(0.0, 0.8, lead + (model.dim,))
        values, _ = constrain_blocks(model, zeta)
        for key, idx in keys:
            assert _same_result(model.loglik_term(values, data, key),
                                model.loglik_term(values, data, idx)), \
                (lead, key)
        for key, idx in keys:
            taped = []
            for index in (key, idx):
                g = ad.Graph()
                leaf = g.leaf(zeta)
                out = _joint(model, data, leaf, index, None)
                taped.append((out.val, g.adjoints(out)[leaf.i]))
            for got, want in zip(*taped):
                assert _same_result(got, want), (lead, key)


def _c_order_gmm_loglik(v, data, idx):
    # gmm's likelihood over its data in C order, as numpy lays it out
    y = data["y"][idx][..., None, :]
    comps = (ad.log(zoo._each_point(v["theta"], 1))
             + ad.sum(dens.normal(y, zoo._each_point(v["mu"], 2),
                                  zoo._each_point(v["sigma"], 2)), axis=-1))
    return ad.log_sum_exp(comps, axis=-1)


@pytest.mark.parametrize("K, D", [(3, 2), (3, 9), (10, 2), (10, 9)])
def test_gmm_likelihood_has_the_bits_of_c_ordered_data(K, D):
    # whatever layout gmm gives its points, the terms on 0, 1 and 2 draw
    # axes and the tape gradient of the joint keep the bytes of the
    # C-order expression; 300 points put the sums by slices past their
    # row floor, 5 points and one point leave them on numpy's reduce
    rng = np.random.default_rng(100 * K + D)
    data, _ = zoo.simulate_gmm(rng, 300, rng.normal(0.0, 2.0, (K, D)),
                               sigma=0.7)
    # a weak Dirichlet prior, so that the likelihood's share of the
    # weights' gradient is not rounded away
    model = zoo.model_for_data("gmm", data, {"K": K, "alpha0": 1.0,
                                             "mu_sigma0": 2.0,
                                             "sigma_sigma0": 1.0})
    c_order = dataclasses.replace(model, loglik_term=_c_order_gmm_loglik)
    keys = [slice(None), slice(7, 250), np.array([0, 3, 3, 120, 299]), 5]
    for lead in [(), (3,), (2, 3)]:
        zeta = rng.normal(0.0, 0.8, lead + (model.dim,))
        values, _ = constrain_blocks(model, zeta)
        for idx in keys:
            assert _same_result(model.loglik_term(values, data, idx),
                                c_order.loglik_term(values, data, idx)), \
                (lead, idx)
            taped = []
            for m in (model, c_order):
                g = ad.Graph()
                leaf = g.leaf(zeta)
                out = _joint(m, data, leaf, idx, None)
                taped.append((out.val, g.adjoints(out)[leaf.i]))
            for got, want in zip(*taped):
                assert _same_result(got, want), (lead, idx)


@pytest.mark.parametrize("name", zoo.ZOO_NAMES)
def test_partition_average_equals_full_joint(name):
    model, data = _small_instance(name)
    n = model.num_observations(data)
    rng = np.random.default_rng(3)
    zeta = list(rng.normal(0.0, 0.7, model.dim))
    full = log_joint_unconstrained(model, data, zeta)
    b = 2 if n % 2 == 0 else 1
    batches = [list(range(i, i + b)) for i in range(0, n, b)]
    scaled = [minibatch_log_joint(model, data, batch, zeta)
              for batch in batches]
    mean = math.fsum(scaled) / len(scaled)
    assert abs(mean - full) <= 1e-12 * max(1.0, abs(full))


def test_full_batch_is_bit_identical():
    model, data = _small_instance("gmm")
    n = model.num_observations(data)
    rng = np.random.default_rng(4)
    zeta = list(rng.normal(0.0, 0.7, model.dim))
    assert minibatch_log_joint(model, data, list(range(n)), zeta) == \
        log_joint_unconstrained(model, data, zeta)


def test_minibatch_scaled_example():
    m = zoo.make_model("poisson_exponential")
    data = Dataset({"x": [2, 2]})
    value = minibatch_log_joint(m, data, [0], [0.0])
    assert value == pytest.approx(-4.3862944, abs=1e-7)


@pytest.mark.parametrize("batch, message", [
    ([], "minibatch is empty"),
    ([[0], [1]], "minibatch must be a list of indices"),
    ([0.0, 1.0], "minibatch must be a list of indices"),
    ([0, 1, 0], "minibatch size 3 exceeds 2 observations"),
    ([5], r"minibatch index 5 outside \[0, 2\)"),
    ([1, 2], r"minibatch index 2 outside \[0, 2\)"),
    ([-1], r"minibatch index -1 outside \[0, 2\)")])
@pytest.mark.parametrize("call", [
    lambda m, data, batch: minibatch_log_joint(m, data, batch, [0.0]),
    lambda m, data, batch: estimate_gradients(
        m, data, VariationalParams([0.0], [0.0]), 2, 0, batch=batch),
], ids=["minibatch_log_joint", "estimate_gradients"])
def test_minibatch_validation(call, batch, message):
    # both calls share one batch check, so they give the same message
    m = zoo.make_model("poisson_exponential")
    data = Dataset({"x": [2, 2]})
    with pytest.raises(ConfigurationError, match=f"^{message}"):
        call(m, data, batch)


# the entries with one row per observation, after the one that counts them
_PER_POINT = {
    "linreg_ard": ("x",),
    "hier_logistic": ("female", "black", "v_prev_full", "age", "edu",
                      "age_edu", "state", "region_full"),
}


@pytest.mark.parametrize("name, entry", [
    (name, entry) for name, entries in _PER_POINT.items()
    for entry in entries])
@pytest.mark.parametrize("call", [
    lambda m, data: log_joint_unconstrained(m, data, np.full(m.dim, 0.3)),
    lambda m, data: estimate_elbo(m, data, VariationalParams(
        np.zeros(m.dim), np.zeros(m.dim)), 3, 0),
    lambda m, data: fit(m, data, FitConfig(max_iterations=20,
                                           eval_interval=10)),
], ids=["log_joint_unconstrained", "estimate_elbo", "fit"])
def test_a_short_per_point_entry_is_rejected(call, name, entry):
    # the full data is read at slice(None), which takes a one-row entry
    # whole, and numpy would broadcast it against the other entries
    model, data = _small_instance(name)
    short = Dataset({**data.entries, entry: data[entry][:1]})
    n = len(data["y"])
    with pytest.raises(ShapeError, match=(
            f"^dataset entry '{entry}' has length 1, 'y' has {n}$")):
        call(model, short)


def test_log_joint_invariant_to_block_order():
    model, data = _small_instance("gmm")
    rng = np.random.default_rng(11)
    zeta = list(rng.normal(0.0, 0.8, model.dim))
    parts, offset = [], 0
    for b in model.blocks:
        parts.append(zeta[offset:offset + b.unconstrained_size])
        offset += b.unconstrained_size
    permuted = dataclasses.replace(model, blocks=model.blocks[::-1])
    permuted_zeta = [z for part in parts[::-1] for z in part]
    assert log_joint_unconstrained(permuted, data, permuted_zeta) == \
        pytest.approx(log_joint_unconstrained(model, data, zeta),
                      rel=1e-12)


def test_small_instances_do_not_depend_on_the_hash_seed():
    # two processes with different str-hash salts build the same data
    path = os.pathsep.join([str(Path(meanfield.__file__).parents[1]),
                            str(Path(__file__).parent)])
    code = ("import json, util; from meanfield import zoo; "
            "print(json.dumps([util.small_zoo_instance(n)[1].entries "
            "for n in zoo.ZOO_NAMES]))")
    outs = [subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=path,
                                    PYTHONHASHSEED=salt)).stdout
            for salt in ("1", "2")]
    assert outs[0] == outs[1]


def test_non_finite_joint_is_returned_not_raised():
    m = zoo.make_model("poisson_exponential")
    data = Dataset({"x": [2]})
    with pytest.warns(RuntimeWarning):
        value = log_joint_unconstrained(m, data, [800.0])
    assert not math.isfinite(value)


def test_model_for_data_infers_dims():
    rng = np.random.default_rng(0)
    data, _ = zoo.simulate_gmm(rng, 10, [[0.0, 0.0], [3.0, 3.0]])
    m = zoo.model_for_data("gmm", data, {"K": 2})
    assert m.dim == 1 + 4 + 4
    data, _ = zoo.simulate_linreg_ard(rng, n=8, d=3)
    m = zoo.model_for_data("linreg_ard", data, {})
    assert m.block("w").kind.dim == 3


def test_hier_logistic_size_given_as_a_row_rejected():
    rng = np.random.default_rng(5)
    data, _ = zoo.simulate_hier_logistic(rng, 25)
    entries = dict(data.entries, n_state=[data.entries["n_state"]])
    with pytest.raises(ConfigurationError,
                       match="n_state must be one integer"):
        zoo.model_for_data("hier_logistic", Dataset(entries), {})


def test_block_of_an_unknown_name_is_a_key_error():
    model = zoo.make_model("poisson_exponential")
    assert model.block("lam").name == "lam"
    with pytest.raises(KeyError, match="nosuch"):
        model.block("nosuch")


def test_make_model_rejects_a_dimension_below_1():
    with pytest.raises(ConfigurationError,
                       match="^model gmm: dimension K must be >= 1, got 0$"):
        zoo.make_model("gmm", dims={"K": 0, "D": 2})


def test_duplicate_block_names_rejected():
    m = zoo.make_model("poisson_exponential")
    with pytest.raises(ConfigurationError, match="duplicate"):
        dataclasses.replace(m, blocks=m.blocks + m.blocks)


def test_simulators_produce_model_compatible_data():
    rng = np.random.default_rng(5)
    data, truth = zoo.simulate_hier_logistic(rng, 25)
    m = zoo.model_for_data("hier_logistic", data, {})
    value = log_joint_unconstrained(m, data, [0.1] * m.dim)
    assert math.isfinite(value)
    data, truth = zoo.simulate_nmf_counts(rng, 3, 3, 2)
    m = zoo.model_for_data("dirichlet_exponential_nmf", data,
                           {"K": 2, "alpha0": 2.0})
    assert math.isfinite(log_joint_unconstrained(m, data, [0.2] * m.dim))
