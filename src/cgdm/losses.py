"""Scalar training losses.

A "loss value" is simply a one-element graph-attached :class:`Tensor`.
Cross-entropy is always computed from log-softmax (never softmax-then-log)
for numerical stability, so every CE-family loss is >= 0 by construction;
:func:`pair_cross_entropy` is the one CE, a fused
:func:`~cgdm.tensor.softmax_pair_cross_entropy` node with row weights.

Each computation is made once.  A batch's labels are encoded once per
training iteration, as :class:`Targets` (one-hot, row weights and the CE's
row scale), and every cross-entropy on that batch reads them.  The two
classifier heads are one network of stacked heads (:func:`~cgdm.nn.stack`),
so a batch's logits are one 2-by-b-by-K tensor, and it gets one
log-softmax, made by the caller (:func:`log_probs`): it feeds the pair's
cross-entropies and, through ``exp``, the stacked softmax that the L1
discrepancy and class balance ops of :mod:`cgdm.tensor` read.  Entropies
are in nats throughout.

A training iteration is one joint batch, the source rows over the target
rows, so each of those losses reads a range of its input's rows, given by
its first row ``start``: :func:`pair_cross_entropy` the source rows from 0
for the source loss and the target rows from the source batch's size for
the pseudo-label loss, the L1 discrepancy and the class balance loss the
target rows, from that row to the last.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .tensor import (
    LOG_FLOOR,
    ContractError,
    RowGroups,
    Tensor,
    log_softmax,
    softmax_pair_cross_entropy,
)

__all__ = [
    "Targets",
    "log_probs",
    "pair_cross_entropy",
    "entropy_weights",
]


def _onehot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


@dataclass(frozen=True)
class Targets:
    """A batch's labels as every cross-entropy on it reads them.

    ``onehot`` is b-by-K, ``weights`` the b row weights (all ones for plain
    labels) and ``scale`` the b-by-1 column ``weights / b`` that scales row i
    of the cross-entropy's vjp, broadcast across its K columns.
    :meth:`joined` gives the alignment loss's encoding of both domains' rows
    one after the other, each keeping its own batch's ``scale``, with their
    row ``groups`` (see :func:`~cgdm.tensor.class_affine_gradient`) and, by
    class, the ``classes`` of the groups; otherwise ``groups`` is 1, one
    group of all rows, and ``classes`` None.
    """

    labels: np.ndarray
    onehot: np.ndarray
    weights: np.ndarray
    scale: np.ndarray
    groups: int | RowGroups = 1
    classes: tuple | None = None

    @classmethod
    def of(cls, labels, num_classes: int, weights=None) -> "Targets":
        """Encode b labels in [0, num_classes); ``weights`` (one per row)
        defaults to all ones, and pseudo-labelled target rows pass their
        entropy confidence weights."""
        if labels is None:
            raise ContractError("cross-entropy targets need labels")
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ContractError(f"labels must be 1-D, got shape {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ContractError(
                f"labels must lie in [0, {num_classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        if weights is None:
            weights = np.ones(labels.size)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != labels.shape:
                raise ContractError(f"{weights.size} weights for {labels.size} labels")
        return cls(labels, _onehot(labels, num_classes), weights,
                   (weights / labels.size)[:, None])

    def by_class(self) -> "Targets":
        """These targets with each row weighted by its class's mean ``b / n_k``:
        one whole-batch cross-entropy then gives every row its class-mean
        cotangent."""
        labels = self.labels
        weights = self.weights * (labels.size / np.bincount(labels)[labels])
        return Targets(labels, self.onehot, weights, (weights / labels.size)[:, None])

    @classmethod
    def joined(cls, parts, groups, classes=None) -> "Targets":
        """The rows of ``parts`` one after the other, each row encoded as in
        its part, with the row ``groups`` and ``classes`` given."""
        return cls(*(np.concatenate([getattr(t, name) for t in parts])
                     for name in ("labels", "onehot", "weights", "scale")), groups, classes)


def log_probs(pair: nn.Mlp, feats: Tensor) -> Tensor:
    """``log_softmax(forward(pair, feats))``: the one log-softmax of the
    heads' stacked logits."""
    return log_softmax(nn.forward(pair, feats))


def pair_cross_entropy(ls: Tensor, targets: Targets, start: int | None = None) -> Tensor:
    """Mean of the two classifier heads' cross-entropies on the same rows,
    from the pair's stacked log-softmax: half the sum of the two, one
    :func:`~cgdm.tensor.softmax_pair_cross_entropy` node.  The rows are all
    of ``ls``, or with ``start`` as many as ``targets`` encodes from that row
    on: of a joint batch, the source rows from 0 and the target rows from
    the source batch's size."""
    return softmax_pair_cross_entropy(ls, targets.onehot, targets.weights, targets.scale,
                                      start)


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

