"""Dataset ingestion and result serialization.

Datasets are UTF-8 JSON objects mapping names to numbers, flat arrays, or
row-major arrays-of-arrays; :class:`Dataset` turns each entry into a numpy
array, int64 when every element is an integer, and keeps only the arrays
(``Dataset.entries`` rebuilds this JSON form from them).
Results are written as two CSV files (posterior samples and the
optimization trace) plus a JSON manifest that echoes everything needed to
reproduce the run; the samples' columns are laid out here alone. Floats
are printed with 17 significant digits, which round-trips IEEE doubles
exactly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import ElboTrace, PosteriorDraws
from .errors import ConfigurationError, ShapeError
from .model import Dataset

__all__ = ["load_dataset", "RunManifest", "write_samples_csv",
           "write_diagnostics_csv", "write_manifest", "write_outputs"]


def load_dataset(path) -> Dataset:
    """Read a UTF-8 JSON dataset; :class:`Dataset` checks and converts it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    del text  # freed before the arrays are built
    if not isinstance(raw, dict):
        raise ShapeError(f"{path}: top level must be a JSON object")
    return Dataset(raw)


def write_samples_csv(draws: PosteriorDraws, path) -> None:
    """A header row, then one row per draw. A block's columns follow from
    the shape of its samples, 1-based and row-major: ``name.1`` for a
    scalar, ``name.j`` for a vector, ``name.r.j`` for rows."""
    names, parts = [], []
    for name, values in draws.samples.items():
        names += [".".join([name, *(str(i + 1) for i in index)])
                  for index in np.ndindex(values.shape[1:] or (1,))]
        parts.append(values.reshape(draws.size, -1))
    flat = np.concatenate(parts, axis=1)
    row = ",".join(["%.17g"] * flat.shape[1])
    lines = [",".join(names)]
    # one row of Python floats at a time, not the whole table at once
    lines += [row % tuple(draw.tolist()) for draw in flat]
    _write_text(path, "\n".join(lines) + "\n")


def write_diagnostics_csv(trace: ElboTrace, path) -> None:
    lines = ["iteration,elapsed_ms,elbo"]
    lines += ["%d,%.17g,%.17g" % row for row in trace]
    _write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run, plus its wall-clock timings."""

    model: str
    hyperparams: dict
    config: dict
    seed: int
    input_paths: dict
    output_paths: dict
    timings: dict
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def write_manifest(manifest: RunManifest, path) -> None:
    _write_text(path, manifest.to_json() + "\n")


def write_outputs(draws: PosteriorDraws, trace: ElboTrace,
                  manifest: RunManifest, samples_path, diagnostics_path,
                  manifest_path) -> None:
    write_samples_csv(draws, samples_path)
    write_diagnostics_csv(trace, diagnostics_path)
    write_manifest(manifest, manifest_path)


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc
