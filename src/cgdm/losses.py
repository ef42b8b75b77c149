"""Scalar training losses.

A "loss value" is simply a one-element graph-attached :class:`Tensor`.
Cross-entropy is always computed from log-softmax (never softmax-then-log)
for numerical stability, so every CE-family loss is >= 0 by construction;
:func:`cross_entropy` is the one CE, a fused
:func:`~cgdm.tensor.softmax_cross_entropy` node with optional row weights.
Entropies are in nats throughout.
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
    "pair_cross_entropy",
    "source_classification_loss",
    "entropy_weights",
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


def cross_entropy(logits: Tensor, labels, weights=None) -> Tensor:
    """Mean over the batch of -weights[i] * log_softmax(logits)[i, labels[i]].

    ``weights`` (one per row) defaults to all ones; pseudo-labelled target
    rows pass their entropy confidence weights.
    """
    b, k = logits.shape
    if b == 0:
        raise ContractError("cross-entropy needs a non-empty batch")
    hot = _onehot(labels, k)
    if hot.shape[0] != b:
        raise ContractError(f"{hot.shape[0]} labels for a batch of {b}")
    return softmax_cross_entropy(logits, hot, weights)


def pair_cross_entropy(logits1: Tensor, logits2: Tensor, labels, weights=None) -> Tensor:
    """Mean of the two classifier heads' cross-entropies on the same rows."""
    return mul(
        add(cross_entropy(logits1, labels, weights),
            cross_entropy(logits2, labels, weights)),
        0.5,
    )


def source_classification_loss(gen, f1, f2, batch) -> Tensor:
    """Mean of the two classifier cross-entropies on a labeled batch."""
    if batch.labels is None:
        raise ContractError("source classification loss needs a labeled batch")
    feats = nn.forward(gen, Tensor(batch.features))
    return pair_cross_entropy(nn.forward(f1, feats), nn.forward(f2, feats), batch.labels)


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
