"""README states the settings and defaults that the code declares."""

import inspect
import re
from pathlib import Path

import pytest

from meanfield import cli, zoo
from meanfield.engine import FitConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# a `name ...` code span followed by a parenthesis whose last number is
# the default of every name in the span
_STATED = re.compile(r"`([^`]+)` \(([^)]*)\)")
_NUMBER = re.compile(r"\d+(?:\.\d+)?")


def _stated_defaults(text):
    stated = {}
    for names, note in _STATED.findall(text):
        numbers = _NUMBER.findall(note)
        for name in names.split():
            stated[name] = float(numbers[-1]) if numbers else None
    return stated


def _zoo_row(name):
    row, = [line for line in README.splitlines()
            if line.startswith(f"| `{name}` |")]
    return row.split("|")[-2]


# the first name of each builder: an alias shares its builder, and its
# row refers to the model it names
_FIRST_NAMES = {}
for _name, (_builder, _) in zoo._ZOO.items():
    _FIRST_NAMES.setdefault(_builder, _name)
_MODELS = list(_FIRST_NAMES.values())


@pytest.mark.parametrize("name", _MODELS)
def test_zoo_table_states_every_setting_default(name):
    hypers, dims = zoo._settings(zoo._ZOO[name][0])
    declared = {key: float(value) for key, value in {**hypers, **dims}.items()
                if value is not inspect.Parameter.empty}
    assert _stated_defaults(_zoo_row(name)) == declared


def test_zoo_table_skips_only_aliases():
    assert zoo.ZOO_NAMES == (*_MODELS, "gmm_minibatch")


# the flags that set a FitConfig field
_FIT_FLAGS = {"--grad-samples": "grad_samples",
              "--elbo-samples": "elbo_samples", "--seed": "seed",
              "--max-iters": "max_iterations", "--threshold": "threshold",
              "--eval-every": "eval_interval"}


def test_flag_list_states_the_defaults_fit_config_declares():
    flags = " ".join(README.split("Flags:", 1)[1].split("\n\n", 1)[0].split())
    stated = {name.split()[0]: value
              for name, value in _stated_defaults(flags).items()
              if name.startswith("--")}
    defaults = {action.option_strings[0]: action.default
                for action in cli.build_parser()._actions
                if action.option_strings}
    for flag, field in _FIT_FLAGS.items():
        assert defaults[flag] == getattr(FitConfig, field), flag
        assert stated[flag] == getattr(FitConfig, field), flag
    # the one default the CLI declares itself
    assert stated["--draws"] == defaults["--draws"]


def test_step_size_constants_match_fit_config():
    # README states tau and the window length once each
    tau, = re.findall(r"τ = (\d+(?:\.\d+)?)", README)
    window, = re.findall(r"(\d+)-step window", README)
    assert float(tau) == FitConfig.step_offset
    assert int(window) == FitConfig.window
