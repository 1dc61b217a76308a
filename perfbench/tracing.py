"""Spans recorded around calls into the package, from outside it.

``Tracer.install`` replaces selected public functions of the package's
modules (and ``Graph.adjoints``) with wrappers that record a span per
call. Calls the package makes internally go through module globals, so
they are traced too, which nests spans: ``engine.fit`` contains
``engine.estimate_elbo``, which contains ``model.log_joint_unconstrained``,
and so on. The per-operation tape and density functions are left alone:
they run millions of times per job and a wrapper would swamp them.

Spans stay in memory as ``[name, start_ns, end_ns, parent, run]`` and are
written once, by the caller, when the job ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# module -> public functions wrapped, those the batch job reaches; the span
# name is "<module>.<function>". Graph.adjoints is wrapped as well.
TRACED = {
    "io": ("load_dataset", "write_outputs", "write_samples_csv",
           "write_diagnostics_csv", "write_manifest"),
    "zoo": ("model_for_data", "make_model"),
    "engine": ("fit", "estimate_elbo", "adagrad_step", "draw_posterior"),
    "model": ("log_joint_unconstrained", "minibatch_log_joint",
              "constrain_blocks"),
    "transforms": ("constrain",),
    "evaluate": ("heldout_log_predictive",),
    "cli": ("main",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = "job"
        self._stack = [-1]
        self._undo: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self._stack[-1], self.run])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return traced

    def install(self, package) -> None:
        """Wrap every function in TRACED wherever the package binds it."""
        mods = {short: importlib.import_module(f"{package.__name__}.{short}")
                for short in TRACED}
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__
                   or n.startswith(package.__name__ + ".")]
        for short, names in TRACED.items():
            mod = mods[short]
            for fname in names:
                fn = getattr(mod, fname)
                wrapped = self.wrap(f"{short}.{fname}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, attr, wrapped)
        graph = package.autodiff.Graph
        self._patch(graph, "adjoints",
                    self.wrap("autodiff.adjoints", graph.adjoints))

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back every function ``install`` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_seconds(self, run: str) -> dict[str, float]:
        """Per-layer self time: span durations minus their direct children,
        summed by the span name's first component."""
        child_ns = defaultdict(int)
        for _, start, end, parent, span_run in self.spans:
            if span_run == run and parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, _, span_run) in enumerate(self.spans):
            if span_run == run:
                layer = name.split(".", 1)[0]
                out[layer] += (end - start - child_ns[idx]) / 1e9
        return dict(out)
