"""Synthetic domain-shift datasets and the one text format cgdm writes.

Target labels, when present, are carried for evaluation only; training code
consumes :meth:`DomainSet.unlabeled` views so ground truth can never leak
into an update.

Every CSV file cgdm writes (datasets, metrics, the summary, pseudo labels,
embeddings) goes through :func:`write_csv`, and every one it reads through
:func:`read_csv`.  A field is written by :func:`cell`: floats with 17
significant digits, so they read back exactly, anything else as ``str``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DomainSet",
    "ParseError",
    "cell",
    "write_csv",
    "read_csv",
    "make_two_moons_pair",
    "make_shifted_blobs",
    "rotate2d",
    "save_dataset_csv",
    "load_dataset_csv",
    "unsafe_rows",
]


_INT64 = np.iinfo(np.int64)


class ParseError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass
class DomainSet:
    features: np.ndarray  # n-by-d
    labels: np.ndarray | None  # int labels, or None for unlabeled data
    domain: str = "source"

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "DomainSet":
        idx = np.asarray(indices)
        labels = None if self.labels is None else self.labels[idx]
        return DomainSet(self.features[idx], labels, self.domain)

    def unlabeled(self) -> "DomainSet":
        return replace(self, labels=None)


def rotate2d(points: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate 2-D points about the origin."""
    theta = np.deg2rad(degrees)
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    return points @ rot.T


def _moons(n: int, noise: float, rng) -> tuple[np.ndarray, np.ndarray]:
    n_out = n // 2
    n_in = n - n_out
    t_out = rng.uniform(0.0, np.pi, n_out)
    t_in = rng.uniform(0.0, np.pi, n_in)
    outer = np.column_stack([np.cos(t_out), np.sin(t_out)])
    inner = np.column_stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)])
    x = np.vstack([outer, inner])
    if noise > 0:
        x = x + rng.normal(scale=noise, size=x.shape)
    y = np.concatenate([np.zeros(n_out, dtype=np.int64), np.ones(n_in, dtype=np.int64)])
    return x, y


def make_two_moons_pair(
    n: int, noise: float, rotation_deg: float, seed: int
) -> tuple[DomainSet, DomainSet]:
    """Two interleaved half circles; target is a fresh draw rotated about the
    origin by ``rotation_deg``.  Deterministic per seed."""
    ss = np.random.SeedSequence(seed)
    rng_src, rng_tgt = [np.random.default_rng(c) for c in ss.spawn(2)]
    xs, ys = _moons(n, noise, rng_src)
    xt, yt = _moons(n, noise, rng_tgt)
    xt = rotate2d(xt, rotation_deg)
    return DomainSet(xs, ys, "source"), DomainSet(xt, yt, "target")


def make_shifted_blobs(
    num_classes: int,
    dim: int,
    separation: float,
    shift,
    cov_scale: float,
    n_per_class: int,
    seed: int,
) -> tuple[DomainSet, DomainSet]:
    """Gaussian clusters; the target translates every cluster by ``shift``
    and rescales the within-cluster spread by ``cov_scale``.

    ``shift`` may be a d-vector or a scalar, in which case it is spread
    evenly over all coordinates with total Euclidean length ``shift``.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    shift = np.asarray(shift, dtype=np.float64)
    if shift.ndim == 0:
        shift = np.full(dim, float(shift) / np.sqrt(dim))
    ss = np.random.SeedSequence(seed)
    rng_c, rng_s, rng_t = [np.random.default_rng(c) for c in ss.spawn(3)]
    centers = rng_c.normal(size=(num_classes, dim))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)

    def sample(rng, offset, scale):
        xs, ys = [], []
        for k in range(num_classes):
            pts = centers[k] + offset + scale * rng.normal(size=(n_per_class, dim))
            xs.append(pts)
            ys.append(np.full(n_per_class, k, dtype=np.int64))
        return np.vstack(xs), np.concatenate(ys)

    xs, ys = sample(rng_s, 0.0, 1.0)
    xt, yt = sample(rng_t, shift, cov_scale)
    return DomainSet(xs, ys, "source"), DomainSet(xt, yt, "target")


def cell(v) -> str:
    """A float with 17 significant digits (it reads back exactly), else ``str``."""
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def write_csv(path, header, rows) -> None:
    """Write the column names, then one line of :func:`cell` fields per row."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(cell, row)) + "\n")


def read_csv(path) -> tuple[list, list]:
    """The header's fields and one ``(line number, fields)`` pair per data row.

    Blank lines hold no record and are skipped.  A row whose field count
    differs from the header's raises :class:`ParseError` naming its line.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path} is empty", line=1)
    header = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, found {len(fields)}", line=lineno
            )
        rows.append((lineno, fields))
    return header, rows


def save_dataset_csv(dset: DomainSet, path) -> None:
    """Columns ``f0..f{d-1}``, plus ``label`` for a labeled set."""
    header = [f"f{i}" for i in range(dset.dim)]
    rows = dset.features
    if dset.labels is not None:
        header.append("label")
        rows = ((*x, y) for x, y in zip(dset.features, dset.labels))
    write_csv(path, header, rows)


def unsafe_rows(features: np.ndarray) -> np.ndarray:
    """Indices of the rows whose squared norm is not finite: a row with a
    non-finite feature, or one whose finite features overflow float64 when
    squared.  No loss is finite on such a row."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.flatnonzero(~np.isfinite((features * features).sum(axis=1)))


def load_dataset_csv(path, domain: str = "source") -> DomainSet:
    """Read a :func:`save_dataset_csv` file.  A malformed row raises
    :class:`ParseError` naming its line; so, once every row has parsed, does
    the first of :func:`unsafe_rows`, and a header with no data row names
    line 2, where the first row would be."""
    header, rows = read_csv(path)
    labeled = header[-1] == "label"
    n_feat = len(header) - labeled
    if n_feat < 1:
        raise ParseError("header declares no feature columns", line=1)
    feats, labels = [], []
    for lineno, fields in rows:
        try:
            feats.append([float(v) for v in fields[:n_feat]])
            if labeled:
                labels.append(int(fields[-1]))
        except ValueError as err:
            raise ParseError(f"non-numeric field ({err})", line=lineno) from None
        if labeled and not _INT64.min <= labels[-1] <= _INT64.max:
            raise ParseError(f"label {labels[-1]} is outside int64", line=lineno)
    if not feats:
        raise ParseError(f"{path} has a header but no data rows", line=2)
    features = np.asarray(feats, dtype=np.float64)
    bad = unsafe_rows(features)
    if len(bad):
        why = ("squared norm overflows float64" if np.isfinite(features[bad[0]]).all()
               else "non-finite feature")
        raise ParseError(why, line=rows[bad[0]][0])
    label_arr = np.asarray(labels, dtype=np.int64) if labeled else None
    return DomainSet(features, label_arr, domain)
