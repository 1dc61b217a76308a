import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath as _umath

import meanfield
from meanfield import cli, zoo
from meanfield.cli import main
from util import small_zoo_instance


@pytest.fixture
def poisson_files(tmp_path):
    data = tmp_path / "d.json"
    data.write_text('{"N": 4, "x": [3, 5, 2, 4]}')
    return {
        "data": data,
        "output": tmp_path / "s.csv",
        "diagnostic": tmp_path / "e.csv",
        "manifest": tmp_path / "s.manifest.json",
    }


def _argv(files, *extra):
    return ["--model", "poisson_exponential",
            "--data", str(files["data"]),
            "--output", str(files["output"]),
            "--diagnostic", str(files["diagnostic"]),
            "--seed", "42", "--max-iters", "300", "--draws", "50",
            *extra]


def test_happy_path(poisson_files, capsys):
    assert main(_argv(poisson_files)) == 0
    out = capsys.readouterr().out
    assert "poisson_exponential" in out
    assert poisson_files["output"].exists()
    assert poisson_files["diagnostic"].exists()
    assert poisson_files["manifest"].exists()
    header = poisson_files["diagnostic"].read_text().splitlines()[0]
    assert header == "iteration,elapsed_ms,elbo"
    samples = poisson_files["output"].read_text().splitlines()
    assert samples[0] == "lam.1"
    assert len(samples) == 51
    manifest = json.loads(poisson_files["manifest"].read_text())
    assert manifest["model"] == "poisson_exponential"
    assert manifest["seed"] == 42
    assert manifest["config"]["max_iterations"] == 300
    # the nine FitConfig settings, and no constant
    assert sorted(manifest["config"]) == [
        "elbo_samples", "eval_interval", "grad_samples", "init",
        "max_iterations", "minibatch", "seed", "step_scale", "threshold"]
    assert manifest["timings"]["wall_seconds"] > 0


def test_manifest_reports_failed_draw_counts(poisson_files):
    assert main(_argv(poisson_files)) == 0
    details = json.loads(poisson_files["manifest"].read_text())["details"]
    assert details["elbo_draws_dropped"] == 0
    assert details["gradient_redraws"] == 0


def test_unknown_model_exits_2(poisson_files, capsys):
    argv = _argv(poisson_files)
    argv[1] = "nosuch"
    assert main(argv) == 2
    assert "unknown model" in capsys.readouterr().err


def test_unknown_flag_exits_2(poisson_files, capsys):
    assert main(_argv(poisson_files, "--frobnicate")) == 2


def test_missing_required_flag_exits_2(capsys):
    assert main(["--model", "gmm"]) == 2


def test_bad_hyper_exits_2(poisson_files, capsys):
    assert main(_argv(poisson_files, "--hyper", "rate")) == 2
    assert main(_argv(poisson_files, "--hyper", "rate=abc")) == 2
    assert main(_argv(poisson_files, "--hyper", "K=3")) == 2  # not a dim here


def test_missing_data_file_exits_2(poisson_files, capsys):
    argv = _argv(poisson_files)
    argv[3] = str(poisson_files["data"].parent / "absent.json")
    assert main(argv) == 2
    assert "absent.json" in capsys.readouterr().err


def test_byte_identical_reruns(tmp_path, poisson_files):
    first = _argv(poisson_files)
    assert main(first) == 0
    second_out = tmp_path / "s2.csv"
    second_diag = tmp_path / "e2.csv"
    second = _argv(poisson_files)
    second[5] = str(second_out)
    second[7] = str(second_diag)
    assert main(second) == 0
    assert poisson_files["output"].read_bytes() == second_out.read_bytes()
    assert poisson_files["diagnostic"].read_bytes() == \
        second_diag.read_bytes()


def test_heldout_scoring(tmp_path, poisson_files, capsys):
    heldout = tmp_path / "h.json"
    heldout.write_text('{"x": [4, 1]}')
    assert main(_argv(poisson_files, "--heldout", str(heldout))) == 0
    out = capsys.readouterr().out
    assert "held-out mean log predictive" in out
    manifest = json.loads(poisson_files["manifest"].read_text())
    score = manifest["details"]["heldout"]["mean_log_predictive"]
    assert np.isfinite(score)
    assert manifest["details"]["heldout"]["num_points"] == 2


def test_minibatch_run(tmp_path):
    rng = np.random.default_rng(0)
    data, _ = zoo.simulate_gmm(rng, 40, [[-2.0], [2.0]], sigma=0.6)
    data_path = tmp_path / "g.json"
    data_path.write_text(json.dumps(data.entries))
    argv = ["--model", "gmm_minibatch", "--data", str(data_path),
            "--output", str(tmp_path / "s.csv"),
            "--diagnostic", str(tmp_path / "e.csv"),
            "--seed", "1", "--max-iters", "150", "--minibatch", "10",
            "--draws", "20", "--init", "gaussian",
            "--hyper", "K=2", "--hyper", "mu_sigma0=3.0",
            "--hyper", "sigma_sigma0=1.0", "--hyper", "alpha0=5.0"]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "s.manifest.json").read_text())
    assert manifest["config"]["minibatch"] == 10
    assert manifest["hyperparams"]["alpha0"] == 5.0


def test_minibatch_larger_than_data_exits_2(poisson_files, capsys):
    assert main(_argv(poisson_files, "--minibatch", "99")) == 2


def test_output_in_a_missing_directory_exits_2(poisson_files, capsys):
    poisson_files["output"] = poisson_files["data"].parent / "no" / "s.csv"
    assert main(_argv(poisson_files, "--max-iters", "5")) == 2
    assert "error: cannot write" in capsys.readouterr().err


def test_evaluation_failure_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(0)
    data, _ = zoo.simulate_gmm(rng, 10, [[0.0], [1.0]], sigma=0.6)
    data_path = tmp_path / "g.json"
    data_path.write_text(json.dumps(data.entries))
    argv = ["--model", "gmm", "--data", str(data_path),
            "--output", str(tmp_path / "s.csv"),
            "--diagnostic", str(tmp_path / "e.csv"),
            "--seed", "0", "--max-iters", "10",
            "--hyper", "K=2", "--hyper", "alpha0=1e308"]
    assert main(argv) == 3
    assert "evaluation failure" in capsys.readouterr().err


def test_ragged_data_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"y": [[1], [2, 3]]}')
    argv = ["--model", "gmm", "--data", str(bad),
            "--output", str(tmp_path / "s.csv"),
            "--diagnostic", str(tmp_path / "e.csv")]
    assert main(argv) == 2
    assert "ragged" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"N": 2, "x": [3, Infinity]}',
                                  '{"N": 1, "x": [NaN]}'],
                         ids=["infinity", "nan"])
def test_non_finite_data_exits_2(poisson_files, capsys, text):
    poisson_files["data"].write_text(text)
    assert main(_argv(poisson_files)) == 2
    assert "'x'" in capsys.readouterr().err


def test_non_utf8_data_exits_2(poisson_files, capsys):
    poisson_files["data"].write_bytes(b'\xff\xfe{"N": 1, "x": [3]}')
    assert main(_argv(poisson_files)) == 2
    err = capsys.readouterr().err
    assert "d.json" in err and "utf-8" in err


def test_count_outside_support_exits_2(poisson_files, capsys):
    # bad data stops fit at its first evaluation with the density's
    # message, instead of being redrawn as if the draw were at fault
    poisson_files["data"].write_text('{"x": [4, -1]}')
    assert main(_argv(poisson_files)) == 2
    assert "count must be a nonnegative integer, got -1" in \
        capsys.readouterr().err


def test_heldout_count_outside_support_exits_2(tmp_path, poisson_files,
                                               capsys):
    heldout = tmp_path / "h.json"
    heldout.write_text('{"x": [4, -1, 2.5]}')
    assert main(_argv(poisson_files, "--heldout", str(heldout))) == 2
    assert "count must be a nonnegative integer, got -1" in \
        capsys.readouterr().err


@pytest.mark.parametrize("text, words", [
    ('{"x": [4, -1, 2.5]}', "count must be a nonnegative integer, got -1"),
    ('{"y": [4]}', "dataset is missing entry 'x'"),
    # len() of a 0-d entry raised a bare TypeError, outside any handler
    ('{"x": 3}', "h.json: data is not shape-compatible with model "
                 "poisson_exponential: len() of unsized object"),
], ids=["count_outside_support", "missing_entry", "zero_dimensional_entry"])
def test_bad_heldout_exits_2_before_fitting(tmp_path, poisson_files, capsys,
                                            monkeypatch, text, words):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit was called")

    monkeypatch.setattr(cli, "fit", no_fit)
    heldout = tmp_path / "h.json"
    heldout.write_text(text)
    assert main(_argv(poisson_files, "--heldout", str(heldout))) == 2
    assert words in capsys.readouterr().err


def test_outcome_outside_support_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(2)
    data, _ = zoo.simulate_hier_logistic(rng, 20)
    entries = data.entries
    entries["y"][3] = 2
    data_path = tmp_path / "h.json"
    data_path.write_text(json.dumps(entries))
    argv = ["--model", "hier_logistic", "--data", str(data_path),
            "--output", str(tmp_path / "s.csv"),
            "--diagnostic", str(tmp_path / "e.csv"), "--max-iters", "5"]
    assert main(argv) == 2
    assert "outcome must be 0 or 1, got 2" in capsys.readouterr().err


@pytest.mark.parametrize("extra, words", [
    (("--hyper", "rate=nan"), "rate must be finite and > 0, got nan"),
    (("--hyper", "rate=-1"), "rate must be finite and > 0, got -1.0"),
    (("--hyper", "rate=inf"), "rate must be finite and > 0, got inf"),
    (("--threshold", "nan"), "threshold must be > 0, got nan"),
    (("--draws", "0"), "--draws must be >= 1, got 0"),
    (("--seed", "-1"), "seed must be >= 0, got -1"),
], ids=["rate_nan", "rate_negative", "rate_inf", "threshold_nan",
        "draws_0", "seed_negative"])
def test_bad_setting_exits_2_before_fitting(poisson_files, capsys,
                                            monkeypatch, extra, words):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit was called")

    monkeypatch.setattr(cli, "fit", no_fit)
    assert main(_argv(poisson_files, *extra)) == 2
    assert words in capsys.readouterr().err


def test_non_integral_dimension_exits_2(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit was called")

    monkeypatch.setattr(cli, "fit", no_fit)
    data_path = tmp_path / "g.json"
    data_path.write_text('{"y": [[0.0, 1.0], [1.0, 0.0]]}')
    argv = ["--model", "gmm", "--data", str(data_path),
            "--output", str(tmp_path / "s.csv"),
            "--diagnostic", str(tmp_path / "e.csv"), "--hyper", "K=2.7"]
    assert main(argv) == 2
    assert "dimension K must be an integer, got 2.7" in \
        capsys.readouterr().err


def _no_fit(*args, **kwargs):
    raise AssertionError("fit was called")


def _run(tmp_path, model, entries, *extra):
    data_path = tmp_path / "train.json"
    data_path.write_text(json.dumps(entries))
    return main(["--model", model, "--data", str(data_path),
                 "--output", str(tmp_path / "s.csv"),
                 "--diagnostic", str(tmp_path / "e.csv"), *extra])


@pytest.mark.parametrize("model, kind", [
    ("gmm", "Simplex"), ("gamma_poisson_nmf", "PositiveOrdered"),
    ("dirichlet_exponential_nmf", "Simplex")])
def test_dimension_its_kind_cannot_take_exits_2_before_fitting(
        tmp_path, capsys, monkeypatch, model, kind):
    monkeypatch.setattr(cli, "fit", _no_fit)
    entries = {"y": [[1, 0], [0, 2]]}
    assert _run(tmp_path, model, entries, "--hyper", "K=1") == 2
    assert f"model {model}: {kind}: size must be an integer >= 2, got 1" \
        in capsys.readouterr().err


def _hier_age_out_of_range():
    data, _ = zoo.simulate_hier_logistic(np.random.default_rng(2), 20)
    entries = data.entries
    entries["age"][3] = entries["n_age"]
    return entries


@pytest.mark.parametrize("model, entries, extra", [
    ("linreg_ard", {"x": [[1.0, 2.0], [0.5, 1.0]], "y": [1.0, 2.0]},
     ("--hyper", "D=3")),
    ("hier_logistic", _hier_age_out_of_range(), ()),
    ("linreg_ard", {"x": [[1.0, 2.0]], "y": 3.0}, ()),
    ("linreg_ard", {"x": [[1.0, 2.0]], "y": [1.0, 2.0]}, ()),
], ids=["linreg_ard_too_few_columns", "hier_logistic_index_out_of_range",
        "linreg_ard_zero_dimensional_y", "linreg_ard_one_row_x"])
def test_training_data_the_model_cannot_take_exits_2_before_fitting(
        tmp_path, capsys, monkeypatch, model, entries, extra):
    monkeypatch.setattr(cli, "fit", _no_fit)
    assert _run(tmp_path, model, entries, *extra) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'train.json'}: data is not shape-compatible " \
           f"with model {model}" in err


# SHA-256 prefixes of (samples.csv, trace.csv) from a short CLI run on
# each model's small instance, with numpy's baseline loops (X86_V2): numpy's
# exp, log, log1p and expm1 round differently at each SIMD dispatch level,
# so the runs disable every target above the baseline. A change that moves
# output bits edits this table and says so in CHANGES.md.
_OUTPUT_BITS = {
    "poisson_exponential": ("5b90e42d", "1cd18cd8"),
    "linreg_ard": ("f8e844e6", "d97acfc1"),
    "hier_logistic": ("25e9fb19", "3fd48581"),
    "gamma_poisson_nmf": ("f9001333", "82fc4453"),
    "dirichlet_exponential_nmf": ("2e446359", "edec658d"),
    "gmm": ("815cec6c", "cc20b700"),
    "gmm_minibatch": ("f93950b5", "65f9e70a"),
    "gmm_K10": ("5be69164", "86b293b4"),
}
_BITS_BASELINE = ["X86_V2"]

# each run's name and model: every model's small instance, and gmm's at
# the zoo default K=10 as well, whose sums over 10 components are numpy's
# pairwise ones, where an axis of fewer than 8 is summed slice by slice
_RUNS = [(name, name) for name in zoo.ZOO_NAMES] + [("gmm_K10", "gmm")]

# the flags each run adds: the small instance's K, and on one model each
# a chunked gradient tape (two draws) and the batch path; gmm at K=10
# takes 24 gradient draws, so that the 24 x 12 (draw, point) rows of its
# tape reach the row count at which short axes are reduced slice by slice
_RUN_FLAGS = {
    "gamma_poisson_nmf": ["--hyper", "K=2"],
    "dirichlet_exponential_nmf": ["--hyper", "K=2"],
    "gmm": ["--hyper", "K=2", "--grad-samples", "2"],
    "gmm_minibatch": ["--hyper", "K=2", "--minibatch", "4"],
    "gmm_K10": ["--hyper", "K=10", "--grad-samples", "24"],
}

_RUN_ALL = """
import json, sys
from meanfield.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


def _baseline_env():
    """The environment of a child process that runs numpy's baseline
    loops: every dispatch target enabled here is disabled, as well as
    those that NPY_DISABLE_CPU_FEATURES already names."""
    off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ")
    off = off.split() + [t for t in _umath.__cpu_dispatch__
                         if _umath.__cpu_features__.get(t)]
    return dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off),
                PYTHONPATH=str(Path(meanfield.__file__).parents[1]))


# numpy refuses NPY_ENABLE_CPU_FEATURES beside NPY_DISABLE_CPU_FEATURES
@pytest.mark.skipif(_umath.__cpu_baseline__ != _BITS_BASELINE
                    or "NPY_ENABLE_CPU_FEATURES" in os.environ,
                    reason="the table holds for numpy's X86_V2 baseline "
                           "loops, which the runs select by disabling "
                           "every target above it")
def test_outputs_keep_their_bits(tmp_path):
    runs, files = [], {}
    for name, model_name in _RUNS:
        model, data = small_zoo_instance(model_name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data.entries))
        hypers = [a for k, v in model.hyperparams.items()
                  for a in ("--hyper", f"{k}={v!r}")]
        files[name] = [tmp_path / f"{name}_samples.csv",
                       tmp_path / f"{name}_trace.csv"]
        runs.append(["--model", model_name, "--data", str(path),
                     "--output", str(files[name][0]),
                     "--diagnostic", str(files[name][1]),
                     "--max-iters", "20", "--eval-every", "10",
                     "--elbo-samples", "10", "--draws", "20", "--seed", "0",
                     *hypers, *_RUN_FLAGS.get(name, [])])
    # all the runs in one child, so that numpy is imported once at the
    # baseline level
    subprocess.run([sys.executable, "-c", _RUN_ALL, json.dumps(runs)],
                   env=_baseline_env(), check=True, capture_output=True)
    got = {name: tuple(hashlib.sha256(f.read_bytes()).hexdigest()[:8]
                       for f in pair) for name, pair in files.items()}
    assert got == _OUTPUT_BITS
