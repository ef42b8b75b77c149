"""Expected classifier-parameter gradients per domain and their cosine gap.

The source gradient is the gradient of the mean two-classifier cross-entropy
on labeled source samples with respect to all classifier parameters; the
target gradient is the same with entropy-weighted cross-entropy against
pseudo labels.  Both are flattened in a fixed order (all of classifier 1,
then all of classifier 2, layer by layer, weight before bias) so cosine
comparisons are reproducible.  :func:`source_gradient`/:func:`target_gradient`
define them with one backward pass to the parameters per domain.

Training uses :func:`class_gradients`: one create-graph backward, for both
domains, to each head layer's affine output gives the per-row cotangent
``delta`` there, and with the layer's input ``H`` a weight gradient is
``delta^T H`` and a bias gradient the column sum of ``delta``.  Masking
``delta`` to one class's rows gives that class's gradient, so row r of a
domain's K-by-P **class-gradient matrix** is its gradient on the rows of class
r, whatever the row order; the plain variant is the one-row case.  The
recorded graph keeps the gradients differentiable, through the logits and the
generator features under them, with respect to the generator parameters:
the alignment loss is minimized by the generator via double backward.
"""
from __future__ import annotations

import logging

import numpy as np

from . import losses, nn
from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat,
    flatten,
    matmul,
    mul,
    pow_const,
    reshape,
    sub,
    transpose,
    tsum,
    backward,
)

__all__ = [
    "classifier_parameters",
    "source_gradient",
    "target_gradient",
    "class_gradients",
    "gradient_discrepancy_loss",
    "conditional_gradient_loss",
]

logger = logging.getLogger(__name__)

EPS = 1e-12


def classifier_parameters(f1: nn.Mlp, f2: nn.Mlp) -> list:
    """Fixed flattening order for gradient vectors."""
    return f1.parameters() + f2.parameters()


def _flat_gradient(loss: Tensor, params: list, create_graph: bool) -> Tensor:
    grads = backward(loss, params, create_graph=create_graph)
    return concat([flatten(grads[p]) for p in params], axis=0)


def source_gradient(f1, f2, logits1: Tensor, logits2: Tensor, labels,
                    create_graph: bool = False) -> Tensor:
    """Classifier-parameter gradient of the mean two-head cross-entropy on
    source rows; ``logits1``/``logits2`` are the heads' outputs on them."""
    loss = losses.pair_cross_entropy(logits1, logits2, labels)
    return _flat_gradient(loss, classifier_parameters(f1, f2), create_graph)


def target_gradient(f1, f2, logits1: Tensor, logits2: Tensor, pseudo,
                    create_graph: bool = False) -> Tensor:
    """Classifier-parameter gradient of the weighted pseudo-label loss on
    target rows (aligned with ``pseudo``); logits as in :func:`source_gradient`."""
    loss = losses.pair_cross_entropy(logits1, logits2, pseudo.labels, pseudo.weights)
    return _flat_gradient(loss, classifier_parameters(f1, f2), create_graph)


def class_gradients(f1, f2, logits_s, labels_s, logits_t, pseudo,
                    classes=None) -> tuple:
    """Source and target K-by-P class-gradient matrices, one create-graph backward.

    ``logits_s``/``logits_t`` are ``(forward(f1, x), forward(f2, x))`` on each
    domain's rows.  Row r is :func:`source_gradient`/:func:`target_gradient` on
    the rows of class ``classes[r]`` (``None``: one row, the whole batch).  Row
    weights carry each class's mean (``b / n_k``), so one whole-batch CE per
    head gives every row's class-mean cotangent."""
    terms, domains = [], []
    for (out1, out2), labels, weights in (
        (logits_s, labels_s, None), (logits_t, pseudo.labels, pseudo.weights)
    ):
        members = None
        if classes is not None:
            labels = np.asarray(labels)
            scale = labels.size / np.bincount(labels)[labels]
            weights = scale if weights is None else weights * scale
            members = (labels[:, None] == classes).astype(np.float64)
        terms.append(losses.pair_cross_entropy(out1, out2, labels, weights))
        domains.append((nn.layer_taps(f1, out1) + nn.layer_taps(f2, out2), members))
    affine = [z for taps, _ in domains for _, z in taps]
    deltas = backward(add(*terms), affine, create_graph=True)
    rows = 1 if classes is None else len(classes)
    matrices = []
    for taps, members in domains:
        blocks = []
        for h, z in taps:
            delta = deltas[z]
            if members is not None:  # column block r: the rows of class r
                width = delta.shape[1]
                delta = mul(concat([delta] * rows, axis=1),
                            np.repeat(members, width, axis=1))
            blocks.append(reshape(matmul(transpose(delta), h), (rows, -1)))
            blocks.append(reshape(tsum(delta, axis=0), (rows, -1)))
        matrices.append(concat(blocks, axis=1))
    return tuple(matrices)


def gradient_discrepancy_loss(gs: Tensor, gt: Tensor) -> Tensor:
    """Mean over rows of 1 - cos(gs[r], gt[r]), in [0, 2]; 1-D gs, gt are one row.

    A row where either norm is ~0 adds a constant 0 (a vanished gradient has no
    alignment direction to push against) but counts in the mean; if every row
    does, the result is a constant 0 (no gradient signal)."""
    if gs.shape != gt.shape or gs.values.ndim not in (1, 2):
        raise ShapeError(
            f"gradients must be equal-shape 1-D or 2-D, got {gs.shape}, {gt.shape}"
        )
    rows = 1 if gs.values.ndim == 1 else gs.shape[0]
    live = ((np.linalg.norm(gs.values, axis=-1) >= EPS)
            & (np.linalg.norm(gt.values, axis=-1) >= EPS))
    if not live.any():
        return Tensor(0.0)
    if not live.all():  # keep the live rows; the selection is exact
        keep = np.eye(rows)[live]
        gs, gt = matmul(keep, gs), matmul(keep, gt)
    norm_s = pow_const(tsum(mul(gs, gs), axis=1), 0.5)
    norm_t = pow_const(tsum(mul(gt, gt), axis=1), 0.5)
    cos = tsum(mul(gs, gt), axis=1) / (mul(norm_s, norm_t) + EPS)
    return mul(tsum(sub(1.0, cos)), 1.0 / rows)


def conditional_gradient_loss(f1, f2, logits_s, labels_s, logits_t, pseudo) -> Tensor:
    """Per-category gradient alignment, averaged over classes present in both
    the source batch (true labels) and the target batch (pseudo labels); logits
    as in :func:`class_gradients`.  No shared class: a constant 0 and a warning."""
    shared = sorted(set(np.asarray(labels_s).tolist())
                    & set(np.asarray(pseudo.labels).tolist()))
    if not shared:
        logger.warning("conditional gradient loss: no shared classes in batch")
        return Tensor(0.0)
    return gradient_discrepancy_loss(*class_gradients(
        f1, f2, logits_s, labels_s, logits_t, pseudo, np.array(shared)
    ))
