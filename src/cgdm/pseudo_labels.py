"""Clustering-based pseudo labels for the unlabeled target set.

Once per epoch, from the one inference pass over the target set that the
trainer shares with its evaluation (:func:`predict`): softmax-weighted class
centroids in generator-feature space, nearest-centroid assignment under
cosine distance, and a per-sample confidence weight from prediction entropy
(:func:`entropy_weights`), which the target rows' cross-entropy reads.
The pass gives the two classifier heads' softmax rows as one 2-by-n-by-K
stack, and centroids and weights read the sum of its two heads.  Everything
here is plain numpy computed outside the graph.

That pass runs in blocks of :data:`BLOCK_ROWS` rows into result arrays
allocated once, so its memory is bounded by the block size, not by the set
size; its values are those of one whole-set pass, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import write_csv
from .tensor import LOG_FLOOR, ContractError, Tensor, class_reduce, no_grad

__all__ = [
    "CentroidSet",
    "PseudoLabelSet",
    "compute_centroids",
    "cosine_distances",
    "assign_pseudo_labels",
    "entropy_weights",
    "predict",
    "row_blocks",
    "pseudo_label_epoch",
    "save_pseudo_csv",
    "softmax_rows",
]

EPS = 1e-12
# rows per block of the full-set pass: the largest training batch of the
# benchmark workloads, so a block's activations are no bigger than a step's
BLOCK_ROWS = 256
_EMPTY_SUPPORT = 1e-8


def _as_array(x) -> np.ndarray:
    return x.values if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def softmax_rows(logits) -> np.ndarray:
    """Numerically stable row softmax of a matrix or a stack of them (numpy,
    inference use), its row max and sum taken as ``log_softmax`` takes them."""
    z = _as_array(logits)
    z = z - class_reduce(np.maximum, z)
    p = np.exp(z)
    return p / class_reduce(np.add, p)


@dataclass
class CentroidSet:
    centroids: np.ndarray  # K-by-d_feat
    support_mass: np.ndarray  # per-class total softmax mass (both classifiers)


@dataclass
class PseudoLabelSet:
    """Per-target-sample pseudo label, confidence weight, and distance.

    ``epoch`` tags when the labels were computed so the trainer can reject a
    stale set.  Rows align with the target-set sample order.
    """

    labels: np.ndarray  # int, in [0, K)
    weights: np.ndarray  # in (1, 2]
    distances: np.ndarray  # cosine distance to the assigned centroid
    epoch: int | None = None

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, indices) -> "PseudoLabelSet":
        idx = np.asarray(indices)
        return PseudoLabelSet(
            self.labels[idx], self.weights[idx], self.distances[idx], self.epoch
        )


def compute_centroids(features, probs) -> CentroidSet:
    """Softmax-weighted class centroids over the target features.

    c_k = sum over samples and both classifiers of (class-k probability *
    feature) / total class-k probability, with ``probs`` the classifiers'
    2-by-n-by-K softmax rows.  A class with vanishing support borrows the
    feature of its single strongest sample so it stays assignable instead
    of going NaN.
    """
    feats = _as_array(features)
    probs = _as_array(probs)
    w = probs[0] + probs[1]  # n-by-K
    mass = w.sum(axis=0)
    safe = np.where(mass > _EMPTY_SUPPORT, mass, 1.0)
    centroids = (w.T @ feats) / safe[:, None]
    for k in np.flatnonzero(mass <= _EMPTY_SUPPORT):
        centroids[k] = feats[np.argmax(w[:, k])]
    return CentroidSet(centroids, mass)


def cosine_distances(features, centroids) -> np.ndarray:
    """n-by-K matrix of 1 - cos(feature row, centroid row), in [0, 2];
    epsilon-guarded against zero vectors.  The feature norms are taken per
    :func:`row_blocks` block and the n-by-K arithmetic is done in place, so
    no temporary is the size of the set."""
    feats = _as_array(features)
    c = _as_array(centroids)
    norms = np.empty(len(feats))
    for rows in row_blocks(len(feats)):
        norms[rows] = np.linalg.norm(feats[rows], axis=1)
    denom = norms[:, None] * np.linalg.norm(c, axis=1)[None, :]
    denom += EPS
    dist = feats @ c.T
    dist /= denom
    return np.subtract(1.0, dist, out=dist)


def assign_pseudo_labels(features, centroids: CentroidSet, probs) -> PseudoLabelSet:
    """Nearest centroid under cosine distance; ties go to the lowest class.

    The confidence weight of each sample is 1 + exp(-H) of the mean of the
    two classifiers' probability rows, ``probs`` 2-by-n-by-K
    (:func:`entropy_weights`).
    """
    dist = cosine_distances(features, centroids.centroids)
    labels = np.argmin(dist, axis=1)  # argmin takes the first (lowest) index
    probs = _as_array(probs)
    weights = entropy_weights(0.5 * (probs[0] + probs[1]))
    picked = dist[np.arange(len(labels)), labels]
    return PseudoLabelSet(labels.astype(np.int64), weights, picked)


def entropy_weights(probs) -> np.ndarray:
    """Confidence weight 1 + exp(-H(p)) in (1, 2] of each probability row p.

    H is in nats with 0*log0 := 0; every row must be nonnegative and sum to 1.
    """
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < 0):
        raise ContractError("probabilities must be nonnegative")
    off = np.abs(p.sum(axis=1) - 1.0)
    if np.any(off > 1e-8):
        raise ContractError(f"probability rows must sum to 1, one is off by {off.max()}")
    plogp = np.where(p > 0, p * np.log(np.maximum(p, LOG_FLOOR)), 0.0)
    entropy = -plogp.sum(axis=1)
    return 1.0 + np.exp(-entropy)


def row_blocks(n: int) -> list:
    """Row slices of :data:`BLOCK_ROWS` rows over n rows.  A last row joins the
    block before it: alone it would take numpy's matrix-vector product, whose
    sums can differ in the last bit from the one-pass matrix product's."""
    starts = range(0, max(n - 1, 1), BLOCK_ROWS)
    return [slice(start, stop) for start, stop in zip(starts, [*starts[1:], n])]


def predict(gen, pair, features):
    """One no-grad pass over a whole set: ``(features, probs)``, the
    generator features (n-by-d) and the softmax rows of the pair's two
    stacked heads (2-by-n-by-K) as numpy arrays.

    The set is run in :func:`row_blocks`, each written into the two result
    arrays, which are allocated once: the pass holds one block's activations,
    never the whole set's, and no block list to concatenate."""
    n = len(features)
    if n == 0:
        raise ContractError("prediction needs a non-empty set")
    feats = np.empty((n, gen.out_dim))
    probs = np.empty((2, n, pair.out_dim))
    with no_grad():
        for rows in row_blocks(n):
            h = nn.forward(gen, Tensor(features[rows]))
            feats[rows] = h.values
            probs[:, rows] = softmax_rows(nn.forward(pair, h))
    return feats, probs


def pseudo_label_epoch(prediction, epoch: int | None = None) -> PseudoLabelSet:
    """Cluster a :func:`predict` result over the target set and assign."""
    feats, probs = prediction
    centroids = compute_centroids(feats, probs)
    pseudo = assign_pseudo_labels(feats, centroids, probs)
    pseudo.epoch = epoch
    return pseudo


def save_pseudo_csv(pseudo: PseudoLabelSet, path) -> None:
    """Diagnostic export: one row per target sample."""
    write_csv(path, ["sample_id", "pseudo_label", "weight", "distance"],
              zip(range(len(pseudo)), pseudo.labels, pseudo.weights, pseudo.distances))
