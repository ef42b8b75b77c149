"""Scalar training losses.

A "loss value" is simply a one-element graph-attached :class:`Tensor`.
Cross-entropy is always computed from log-softmax (never softmax-then-log)
for numerical stability, so every CE-family loss is >= 0 by construction;
both CE losses are one fused :func:`~cgdm.tensor.softmax_cross_entropy`
node.  Entropies are in nats throughout.
"""
from __future__ import annotations

import numpy as np

from . import nn
from .tensor import (
    ContractError,
    ShapeError,
    Tensor,
    absolute,
    add,
    log,
    mul,
    neg,
    softmax_cross_entropy,
    sub,
    tsum,
)

__all__ = [
    "cross_entropy",
    "source_classification_loss",
    "entropy_weight",
    "weighted_cross_entropy",
    "l1_discrepancy",
    "class_balance_loss",
]

# additive cushion keeping p*log(p) defined at p == 0 without moving it at
# representable positive p
_LOG_FLOOR = 1e-300


def _onehot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ContractError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ContractError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log_softmax(logits)[i, labels[i]]."""
    b, k = logits.shape
    hot = _onehot(labels, k)
    if hot.shape[0] != b:
        raise ContractError(f"{hot.shape[0]} labels for a batch of {b}")
    return softmax_cross_entropy(logits, hot)


def source_classification_loss(gen, f1, f2, batch) -> Tensor:
    """Mean of the two classifier cross-entropies on a labeled batch."""
    if batch.labels is None:
        raise ContractError("source classification loss needs a labeled batch")
    feats = nn.forward(gen, Tensor(batch.features))
    ce1 = cross_entropy(nn.forward(f1, feats), batch.labels)
    ce2 = cross_entropy(nn.forward(f2, feats), batch.labels)
    return mul(add(ce1, ce2), 0.5)


def entropy_weight(probs) -> float:
    """Confidence weight 1 + exp(-H(probs)) in (1, 2]; H in nats, 0*log0 := 0."""
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < 0):
        raise ContractError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-8:
        raise ContractError(f"probabilities must sum to 1, got {p.sum()!r}")
    h = -np.sum(np.where(p > 0, p * np.log(np.maximum(p, _LOG_FLOOR)), 0.0))
    return float(1.0 + np.exp(-h))


def weighted_cross_entropy(logits: Tensor, pseudo) -> Tensor:
    """Mean over the batch of w_i * CE_i against pseudo labels.

    ``pseudo`` must carry one (label, weight) pair per batch row, in row
    order (a :class:`~cgdm.pseudo_labels.PseudoLabelSet` or compatible).
    """
    b, k = logits.shape
    if len(pseudo.labels) != b:
        raise ContractError(
            f"pseudo labels cover {len(pseudo.labels)} rows, batch has {b}"
        )
    return softmax_cross_entropy(logits, _onehot(pseudo.labels, k), pseudo.weights)


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
