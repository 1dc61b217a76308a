import json

import numpy as np
import pytest

from meanfield import cli, zoo
from meanfield.cli import main


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
], ids=["count_outside_support", "missing_entry"])
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
