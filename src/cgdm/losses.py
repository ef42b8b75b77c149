"""Scalar training losses.

A "loss value" is simply a one-element graph-attached :class:`Tensor`.
Cross-entropy is always computed from log-softmax (never softmax-then-log)
for numerical stability, so every CE-family loss is >= 0 by construction;
:func:`cross_entropy` is the one CE, a fused
:func:`~cgdm.tensor.softmax_cross_entropy` node with row weights.

Each computation is made once.  A batch's labels are encoded once per
training iteration, as :class:`Targets` (one-hot, row weights and the CE's
row scale), and every cross-entropy on that batch reads them.  A logits
tensor gets one log-softmax, made by the caller (:func:`log_probs`): it
feeds the cross-entropy and, through ``exp``, the softmax that the
discrepancy and class balance losses read.  Entropies are in nats
throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .tensor import (
    ContractError,
    ShapeError,
    Tensor,
    absolute,
    add,
    cross_entropy_grad,
    log,
    log_softmax,
    mul,
    neg,
    softmax_cross_entropy,
    sub,
    tsum,
)

__all__ = [
    "Targets",
    "log_probs",
    "cross_entropy",
    "cross_entropy_cotangent",
    "pair_cross_entropy",
    "source_classification_loss",
    "entropy_weights",
    "l1_discrepancy",
    "class_balance_loss",
]

# additive cushion keeping p*log(p) defined at p == 0 without moving it at
# representable positive p
_LOG_FLOOR = 1e-300


def _onehot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _row_scale(weights: np.ndarray, num_classes: int) -> np.ndarray:
    b = weights.size
    return np.repeat(weights / b, num_classes).reshape(b, num_classes)


@dataclass(frozen=True)
class Targets:
    """A batch's labels as every cross-entropy on it reads them.

    ``onehot`` is b-by-K, ``weights`` the b row weights (all ones for plain
    labels) and ``scale`` the b-by-K row scale ``weights[i] / b`` of the
    cross-entropy's vjp.  :meth:`by_class` gives the conditional alignment's
    encoding, whose ``members`` (b-by-C, 0/1) put each row in at most one of
    C classes; otherwise ``members`` is None, one class of all rows.
    """

    labels: np.ndarray
    onehot: np.ndarray
    weights: np.ndarray
    scale: np.ndarray
    members: np.ndarray | None = None

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
                   _row_scale(weights, num_classes))

    def by_class(self, classes) -> "Targets":
        """These targets with each row weighted by its class's mean ``b / n_k``
        and ``members`` of ``classes``: one whole-batch cross-entropy then gives
        every row its class-mean cotangent."""
        labels = self.labels
        weights = self.weights * (labels.size / np.bincount(labels)[labels])
        members = (labels[:, None] == np.asarray(classes)).astype(np.float64)
        return Targets(labels, self.onehot, weights,
                       _row_scale(weights, self.onehot.shape[1]), members)


def log_probs(heads, feats: Tensor) -> tuple:
    """``log_softmax(forward(f, feats))`` of each head ``f``: the one
    log-softmax of each head's logits."""
    return tuple(log_softmax(nn.forward(f, feats)) for f in heads)


def _check_batch(ls: Tensor, targets: Targets) -> None:
    b = ls.shape[0]
    if b == 0:
        raise ContractError("cross-entropy needs a non-empty batch")
    if targets.labels.size != b:
        raise ContractError(f"{targets.labels.size} labels for a batch of {b}")


def cross_entropy(ls: Tensor, targets: Targets) -> Tensor:
    """Mean over the batch of -weights[i] * ls[i, labels[i]], where ``ls`` is
    the recorded ``log_softmax(logits)`` and ``targets`` the batch's encoding."""
    _check_batch(ls, targets)
    return softmax_cross_entropy(ls, targets.onehot, targets.weights, targets.scale)


def cross_entropy_cotangent(ls: Tensor, targets: Targets, g: float) -> Tensor:
    """The logits' cotangent of ``cross_entropy(ls, targets)`` when the loss's
    cotangent is the constant ``g``, with the cross-entropy's checks of the
    batch: one recorded :func:`~cgdm.tensor.cross_entropy_grad` node, the
    first step of a head's backward recurrence."""
    _check_batch(ls, targets)
    return cross_entropy_grad(ls, g, targets.onehot, targets.scale)


def pair_cross_entropy(ls_pair: tuple, targets: Targets) -> Tensor:
    """Mean of the two classifier heads' cross-entropies on the same rows,
    from the heads' log-softmax pair."""
    ls1, ls2 = ls_pair
    return mul(add(cross_entropy(ls1, targets), cross_entropy(ls2, targets)), 0.5)


def source_classification_loss(gen, f1, f2, features, targets: Targets) -> Tensor:
    """Mean of the two classifier cross-entropies on a labeled batch's
    ``features``, whose labels ``targets`` encodes."""
    return pair_cross_entropy(
        log_probs((f1, f2), nn.forward(gen, Tensor(features))), targets)


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
    plogp = np.where(p > 0, p * np.log(np.maximum(p, _LOG_FLOOR)), 0.0)
    entropy = -plogp.sum(axis=1)
    return 1.0 + np.exp(-entropy)


def l1_discrepancy(p1: Tensor, p2: Tensor) -> Tensor:
    """Mean absolute difference of two row-stochastic matrices; in [0, 2]."""
    if p1.shape != p2.shape:
        raise ShapeError(f"discrepancy operands differ: {p1.shape} vs {p2.shape}")
    b, k = p1.shape
    return mul(tsum(absolute(sub(p1, p2))), 1.0 / (b * k))


def class_balance_loss(p1: Tensor, p2: Tensor) -> Tensor:
    """ln K - H(mean prediction); zero iff the mean prediction is uniform."""
    if p1.shape != p2.shape:
        raise ShapeError(f"class balance operands differ: {p1.shape} vs {p2.shape}")
    b, k = p1.shape
    pbar = mul(add(tsum(p1, axis=0), tsum(p2, axis=0)), 1.0 / (2 * b))
    ent = neg(tsum(mul(pbar, log(add(pbar, _LOG_FLOOR)))))
    return sub(float(np.log(k)), ent)
