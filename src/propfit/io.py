"""CSV input tables, read from files.

The format is a headed CSV with columns ``curve`` (optional label,
default "1"), ``x`` and ``y``.  Rows with the same curve label form one
dataset, in file order; duplicate (curve, x) pairs are replicates and kept.
Parsing is strict: the header is mandatory, no extra columns are allowed,
and every x/y cell must parse as a finite number.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .models import Dataset


@dataclass(frozen=True)
class InputTable:
    """Ordered mapping of curve label to dataset."""

    curves: dict[str, Dataset]

    def __post_init__(self):
        if not self.curves:
            raise ConfigError("input table contains no rows")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.curves)

    def single(self) -> Dataset:
        if len(self.curves) != 1:
            raise ConfigError(f"expected one curve, found {len(self.curves)}: {self.labels}")
        return next(iter(self.curves.values()))


def _parse_cell(value: str, column: str, line: int) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"line {line}: column {column!r} is not numeric: {value!r}") from None
    if not np.isfinite(out):
        raise ConfigError(f"line {line}: column {column!r} must be finite, got {value!r}")
    return out


def read_input_table(path) -> InputTable:
    """Parse the CSV file at ``path`` into an input table; a leading UTF-8
    byte-order mark, as spreadsheets write, is dropped."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            return _read(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read input table: {exc}") from None


def _read(handle) -> InputTable:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError("empty input: missing CSV header") from None
    header = [h.strip() for h in header]
    allowed = {"curve", "x", "y"}
    if not set(header) <= allowed or len(set(header)) != len(header):
        raise ConfigError(f"header must be unique columns from {sorted(allowed)}, got {header}")
    if "x" not in header or "y" not in header:
        raise ConfigError(f"header must contain 'x' and 'y', got {header}")
    idx = {name: header.index(name) for name in header}

    rows: dict[str, list[tuple[float, float]]] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ConfigError(f"line {lineno}: expected {len(header)} cells, got {len(row)}")
        label = row[idx["curve"]].strip() if "curve" in idx else "1"
        if not label:
            raise ConfigError(f"line {lineno}: empty curve label")
        x = _parse_cell(row[idx["x"]].strip(), "x", lineno)
        y = _parse_cell(row[idx["y"]].strip(), "y", lineno)
        rows.setdefault(label, []).append((x, y))

    curves = {
        label: Dataset(np.array([r[0] for r in pairs]), np.array([r[1] for r in pairs]))
        for label, pairs in rows.items()
    }
    return InputTable(curves=curves)

