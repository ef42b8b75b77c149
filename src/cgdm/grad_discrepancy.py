"""Expected classifier-parameter gradients per domain and their cosine gap.

The source gradient is the gradient of the mean two-classifier cross-entropy
on labeled source samples with respect to all classifier parameters; the
target gradient is the same with entropy-weighted cross-entropy against
pseudo labels.  Both are flattened in a fixed order (all of classifier 1,
then all of classifier 2, layer by layer, weight before bias) so cosine
comparisons are reproducible.

Both take the two heads' logits rather than raw batches, so a caller that
has already run the heads on a batch (the trainer's discrepancy term has, on
the target batch) reuses that forward.  Building the gradients with
``create_graph=True`` keeps them differentiable through those logits, and
the generator features under them, with respect to the generator
parameters, which is what lets the alignment loss be minimized by the
generator via double backward.  The conditional loss takes features instead
and runs the heads on each class block.
"""
from __future__ import annotations

import logging

import numpy as np

from . import losses, nn
from .tensor import (
    ContractError,
    ShapeError,
    Tensor,
    concat,
    dot,
    flatten,
    mul,
    narrow,
    pow_const,
    sub,
    tsum,
    backward,
)

__all__ = [
    "classifier_parameters",
    "source_gradient",
    "target_gradient",
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


def gradient_discrepancy_loss(gs: Tensor, gt: Tensor) -> Tensor:
    """1 - cos(gs, gt), in [0, 2]; returns 0 when either norm is ~0.

    The zero-norm fallback is a constant (no gradient signal): a vanished
    gradient vector carries no alignment direction to push against.
    """
    if gs.shape != gt.shape or gs.values.ndim != 1:
        raise ShapeError(
            f"gradient vectors must be equal-length 1-D, got {gs.shape}, {gt.shape}"
        )
    ns = float(np.linalg.norm(gs.values))
    nt = float(np.linalg.norm(gt.values))
    if ns < EPS or nt < EPS:
        return Tensor(0.0)
    norm_s = pow_const(tsum(mul(gs, gs)), 0.5)
    norm_t = pow_const(tsum(mul(gt, gt)), 0.5)
    cos = dot(gs, gt) / (mul(norm_s, norm_t) + EPS)
    return sub(1.0, cos)


def _class_blocks(labels) -> dict:
    """Class -> (start, length) of its rows; ``labels`` must be sorted."""
    if np.any(labels[1:] < labels[:-1]):
        raise ContractError("conditional gradient loss needs rows sorted by class")
    classes, starts, counts = np.unique(labels, return_index=True, return_counts=True)
    return {int(k): (int(s), int(c)) for k, s, c in zip(classes, starts, counts)}


def conditional_gradient_loss(
    f1, f2, feats_s: Tensor, labels_s, feats_t: Tensor, pseudo,
    create_graph: bool = False,
) -> Tensor:
    """Per-category gradient alignment, averaged over classes present in both
    the source batch (true labels) and the target batch (pseudo labels).

    Both batches must have their rows sorted by class (a stable sort keeps
    each class's rows in batch order), so each class is one contiguous block
    of the shared features.  Returns a constant 0 with a logged warning when
    no class is shared.
    """
    labels_s = np.asarray(labels_s)
    src_blocks = _class_blocks(labels_s)
    tgt_blocks = _class_blocks(np.asarray(pseudo.labels))
    shared = sorted(src_blocks.keys() & tgt_blocks.keys())
    if not shared:
        logger.warning("conditional gradient loss: no shared classes in batch")
        return Tensor(0.0)
    total = None
    for k in shared:
        s0, ns = src_blocks[k]
        t0, nt = tgt_blocks[k]
        fs = narrow(feats_s, 0, s0, ns)
        gs = source_gradient(
            f1, f2, nn.forward(f1, fs), nn.forward(f2, fs),
            labels_s[s0:s0 + ns], create_graph,
        )
        ft = narrow(feats_t, 0, t0, nt)
        gt = target_gradient(
            f1, f2, nn.forward(f1, ft), nn.forward(f2, ft),
            pseudo.take(np.arange(t0, t0 + nt)), create_graph,
        )
        term = gradient_discrepancy_loss(gs, gt)
        total = term if total is None else total + term
    return mul(total, 1.0 / len(shared))
