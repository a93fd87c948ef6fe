"""Dataset container, train/test splitting, and the CSV wire format.

CSV layout: header ``f0,...,f{d-1},l[,y]``; features are written with 17
significant digits so a round trip reproduces the exact float64 bits; the
annotation flag l and the optional ground-truth class y are 0/1 integers.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .models import PsychmParams

__all__ = ["Dataset", "split", "write_csv", "read_csv"]


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with annotation flags and optional ground-truth classes.

    When y is present, no row may be annotated without belonging to the
    positive class (l <= y): annotated examples are always true positives.
    """

    x: np.ndarray
    l: np.ndarray
    y: np.ndarray | None = None
    true_params: PsychmParams | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        l = np.asarray(self.l)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("x must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(x)):
            raise ValueError("x must be finite")
        if l.shape != (x.shape[0],):
            raise ValueError("l must have one flag per row of x")
        if not np.isin(l, (0, 1)).all():
            raise ValueError("l must be binary")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "l", l.astype(np.int64))
        if self.y is not None:
            y = np.asarray(self.y)
            if y.shape != (x.shape[0],):
                raise ValueError("y must have one class per row of x")
            if not np.isin(y, (0, 1)).all():
                raise ValueError("y must be binary")
            y = y.astype(np.int64)
            if np.any(self.l > y):
                raise ValueError("annotated rows must be positive (l <= y)")
            object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def subset(self, indices) -> "Dataset":
        """Row selection; keeps y and generator provenance."""
        indices = np.asarray(indices)
        return replace(
            self,
            x=self.x[indices],
            l=self.l[indices],
            y=None if self.y is None else self.y[indices],
        )


def _rng(seed: int, *key: int) -> np.random.Generator:
    """Philox stream of ``seed`` under the spawn key ``key``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _derive_seed(seed: int, *key: int) -> int:
    """A child seed of ``seed`` under the spawn key ``key``."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, dtype=np.uint64)[0])


def split(data: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint row partition after a seeded shuffle.

    The first part holds floor(n * fraction) rows.  Both parts keep y and
    the generator provenance.  The same seed always yields the same
    partition.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    n_first = int(data.n * fraction)
    if n_first < 1 or data.n - n_first < 1:
        raise ValueError(f"split of {data.n} rows at fraction {fraction} leaves an empty part")
    perm = _rng(seed).permutation(data.n)
    return data.subset(perm[:n_first]), data.subset(perm[n_first:])


def write_csv(data: Dataset, path) -> None:
    flags = ["l"] if data.y is None else ["l", "y"]
    header = ",".join([f"f{j}" for j in range(data.dim)] + flags)
    rows = np.column_stack([data.x] + [getattr(data, f) for f in flags])
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, rows, ["%.17g"] * data.dim + ["%d"] * len(flags), delimiter=",",
                   newline="\r\n", header=header, comments="")


def _parse_rows(lines, dtype) -> np.ndarray:
    """Data rows as structured records: numpy's C loader, flags as integers."""
    with warnings.catch_warnings():  # numpy warns on no rows, old numpy on "1.0" as int
        warnings.simplefilter("error")
        return np.loadtxt(lines, dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)


def _as_dataset(rows: np.ndarray) -> Dataset:
    y = rows["y"] if "y" in rows.dtype.names else None
    return Dataset(np.ascontiguousarray(rows["x"]), rows["l"], y)


def _first_fault(path, width: int, dtype) -> str | None:
    """Why the rows are rejected: the first line that has another field
    count, that `_parse_rows` rejects on its own, or that the rules of a
    one-row ``Dataset`` reject; "no data rows", or None."""
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        lines = list(enumerate(fh, start=1))[1:]
    rows = [(n, line, fields) for n, line in lines if (fields := next(csv.reader([line]), []))]
    for lineno, line, fields in rows:
        if len(fields) != width:
            return f"line {lineno}: expected {width} fields, got {len(fields)}"
        try:
            row = _parse_rows([line], dtype)
        except (ValueError, Warning):
            return f"line {lineno}: unparseable value"
        try:
            _as_dataset(row)
        except ValueError as exc:
            return f"line {lineno}: {exc}"
    return None if rows else "no data rows"


def read_csv(path) -> Dataset:
    """Parse a dataset CSV; malformed content reports the offending line number.

    `_parse_rows` parses the rows; if it or ``Dataset`` refuses them, a
    rescan line by line, with the same parser, names the first bad line.
    The file is read as UTF-8 after one leading byte-order mark; a byte
    that does not decode reads as U+FFFD, which no header or field accepts."""
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        has_y = header[-1:] == ["y"]
        d = len(header) - 1 - has_y
        expected = [f"f{j}" for j in range(d)] + ["l"] + (["y"] if has_y else [])
        if d < 1 or header != expected:
            raise ValueError(
                f"{path}: line 1: expected header f0,...,f{{d-1}},l[,y], got {','.join(header)}"
            )
        dtype = [("x", float, (d,)), ("l", np.int64)] + [("y", np.int64)] * has_y
        try:
            rows = _parse_rows(fh, dtype)
        except (ValueError, Warning) as exc:
            raise ValueError(f"{path}: {_first_fault(path, len(header), dtype) or exc}") from None
    try:
        return _as_dataset(rows)
    except ValueError as exc:
        raise ValueError(f"{path}: {_first_fault(path, len(header), dtype) or exc}") from None
