"""The package names that the benchmark under ``perfbench/`` calls exist,
and a traced benchmark run passes its own output checks.

The benchmark reaches the package by name: ``tracing.TRACED`` lists the
functions it wraps, and ``job.py`` calls attributes of its imported
modules (``mf.fit``, ``ad.Graph``) and imports names from them. A name
deleted or renamed in the package breaks only a benchmark run, so these
tests read the names from the benchmark's own files and look each one up.
A changed signature or a failed output check shows only when the
benchmark runs, so one test runs it.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import meanfield

_BENCH = Path(__file__).parents[1] / "perfbench"


def _module(name):
    spec = importlib.util.spec_from_file_location(name, _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(obj, path):
    """``obj`` followed along the dotted ``path``, or None where a name is
    missing."""
    for attr in path:
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj


def _job_names():
    """Each package name ``job.py`` reads, as (written form, object or
    None if it is missing)."""
    tree = ast.parse((_BENCH / "job.py").read_text())
    bound, found = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "meanfield":
                    importlib.import_module(alias.name)
                    top = alias.asname or "meanfield"
                    bound[top] = importlib.import_module(
                        alias.name if alias.asname else "meanfield")
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "meanfield":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = _lookup(module, [alias.name])
                found[f"{node.module}.{alias.name}"] = value
                bound[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        path = []
        while isinstance(node, ast.Attribute):
            path.insert(0, node.attr)
            node = node.value
        if path and isinstance(node, ast.Name) and node.id in bound:
            found[".".join([node.id, *path])] = _lookup(bound[node.id], path)
    return found


def test_every_function_the_tracer_wraps_exists():
    traced = _module("tracing").TRACED
    missing = [f"{short}.{name}" for short, names in traced.items()
               for name in names
               if not callable(_lookup(
                   importlib.import_module(f"meanfield.{short}"), [name]))]
    assert not missing
    assert callable(meanfield.autodiff.Graph.adjoints)


def test_every_package_name_the_job_reads_exists():
    found = _job_names()
    # the parse reaches each kind of use
    assert {"mf.fit", "mf.transforms.check_value", "ad.Graph",
            "ad.gradient", "meanfield.model.constrain_blocks",
            "meanfield.cli.main"} <= set(found)
    assert not [name for name, value in found.items() if value is None]


def test_a_traced_benchmark_run_passes_its_checks():
    # nmf_minibatch reaches the Simplex cumulative sums, the minibatch
    # probes and the chunked gradient tape; outputs go to perfbench/work/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nmf_minibatch",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=_BENCH.parent, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stdout[-2000:]
