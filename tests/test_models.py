import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meanfield
from meanfield import autodiff as ad
from meanfield import zoo
from meanfield.errors import ConfigurationError, ShapeError
from meanfield.model import Dataset, ModelDefinition, \
    log_joint_unconstrained, minibatch_log_joint, constrain_blocks
from meanfield.transforms import BlockSpec, Identity, LowerBound, \
    PositiveOrdered, Simplex
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


def test_hyper_defaults():
    m = zoo.make_model("dirichlet_exponential_nmf", dims={"U": 2, "I": 2})
    assert m.hyperparams == {"alpha0": 1000.0, "lambda0": 0.1}
    m = zoo.make_model("gmm", dims={"D": 2})
    assert m.hyperparams == {"alpha0": 10000.0, "mu_sigma0": 0.1,
                             "sigma_sigma0": 0.1}
    m = zoo.make_model("linreg_ard", dims={"D": 3})
    assert m.hyperparams == {"a0": 1.0, "b0": 1.0, "c0": 1.0, "d0": 1.0}


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


def test_minibatch_validation():
    m = zoo.make_model("poisson_exponential")
    data = Dataset({"x": [2, 2]})
    with pytest.raises(ConfigurationError, match="empty"):
        minibatch_log_joint(m, data, [], [0.0])
    with pytest.raises(ConfigurationError, match="exceeds"):
        minibatch_log_joint(m, data, [0, 1, 0], [0.0])
    with pytest.raises(ConfigurationError, match="outside"):
        minibatch_log_joint(m, data, [5], [0.0])


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
