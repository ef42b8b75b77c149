"""Dense float64 tensors with first-order reverse-mode autodiff.

The computation graph is implicit: every op executed while recording is
enabled produces a tensor that references its parent tensors (``parents``),
names its op (``op``) and keeps a small saved context.  Node ids grow
monotonically with creation order, so iterating reachable nodes by descending
id is a valid reverse topological order.

The module holds the ops that the package records.  The primitives that
the tests compose the fused ops from, and that training never records, are
defined with the tests (``tests/compositions.py``), which register their
formulas in ``_VJPS`` on import.

Each op's backward is written once, in the table ``_VJPS``: one
vector-Jacobian-product callable per op, ``vjp(g, args, out, ctx, needed)
-> tuple``, which returns one cotangent per parent from the cotangent ``g``,
the parents' values ``args``, the node's output values ``out`` and its saved
context ``ctx``: the ReLU flag of ``linear``, ``relu_mask``'s layer output,
the pair cross-entropy's ``(log-softmax rows, onehot, scale, first row)``,
``cross_entropy_grad``'s ``scale`` (the b-by-1 column of row scales),
``class_affine_gradient``'s row groups, the forward
arrays, scales and first rows of the fused losses (and ``cosine_gap``'s
mask of live rows) and the weights of ``weighted_sum``.
``needed[i]`` says whether parent ``i`` lies on a path to a ``wrt`` tensor;
where it does not, the tuple holds None.  ``backward`` calls a node's
formula once.  The formula first makes what its parents' cotangents share,
then each needed parent's cotangent in parent order.  Formulas are plain
numpy on arrays, so a backward pass records nothing and creates no tensor
but the returned gradients.  A transpose is a view, so ``linear``, its
weight vjp ``g^T x`` and the other matmuls pass transposed views to BLAS,
which reads them in place.  A node holds no closure and no reference to
itself (exp and log_softmax get their output as ``out``), so a graph is
freed by reference counting alone.

``backward`` has one mode, first order.  CGDM differentiates a gradient
once: the alignment loss's backward into the generator.  That gradient is
recorded as forward ops, the heads' backward recurrence
(:func:`~cgdm.grad_discrepancy.class_gradients`), which is double
backpropagation as first written: the first backward written out as a
network, the second run by ``backward``.  The gradient ops,
``cross_entropy_grad``, ``relu_mask`` and ``class_affine_gradient``, are the
pieces of that recurrence, and ``cosine_gap`` is the alignment loss; each
node of the recurrence holds both heads, and, in training, the rows of both
domains, source rows first.

Training runs each iteration as one joint batch, source rows over target
rows, one ``linear`` node per layer for both domains.  A joint batch is one
batch: the forward, the input cotangent and the weight and bias cotangents
are each one product or column sum over all rows, so the parameter
gradients agree with those of one node per domain to float summation order
(the tests hold them to 1e-12 of their largest entry).  A loss that reads
one domain's rows (the pair's cross-entropy, ``mean_abs_difference``,
``balance_gap``) takes their first row, ``start``, and its vjp writes their
cotangent into zeros.

The cross-entropy ops read a batch's labels as one :class:`Targets`
(one-hot, row weights and row scales), which checks its arrays' shapes
once, when it is made.  The ops check only its fit to their rows
(``_check_rows``): an empty batch, or labels that do not fit the rows, raise
ContractError, and a class count other than the log-softmax's columns
ShapeError.  A joint batch's row groups, which ``class_affine_gradient``
reads, are a :class:`RowGroups` (or an int count of equal groups).  The
one value the program gives each constant of a fused loss is a module
constant: ``PAIR_MEAN``, ``LOG_FLOOR`` and ``COSINE_EPS``.

All arithmetic is float64.  Broadcasting is deliberately restricted to
scalar-vs-tensor and row-vs-matrix (a 1-D vector of length K against a b-by-K
matrix), and to one leading **head axis**.  The two classifier heads run as
one network whose parameters are stacked on that axis (H-by-out-by-in
weights, H-by-out biases); ``linear``, ``matmul``, ``log_softmax``, the
cross-entropy ops and ``class_affine_gradient`` take such stacks and give
each head's slice the 2-D op's numpy operations, ``np.matmul`` running each
slice through the 2-D product's BLAS call, so each head has the 2-D op's
bits (the tests check them head by head).  ``linear`` and
``class_affine_gradient`` also take a b-by-in layer input that the heads
share, whose cotangent is theirs summed in head order (``linear`` adds each
head's product into one array, making no H-by-b-by-in stack), and
``mean_abs_difference`` and ``balance_gap`` take a stack of two heads.
Anything else, an elementwise op of a stack with a matrix or a row
included, raises :class:`ShapeError`.  A tensor and the graph it belongs to
are confined to a single thread; the recording switch is thread-local so
independent runs can execute concurrently.

Fused ops stand for compositions of primitive ops, one node each.  Their
forward values come from the composition's numpy operations in its order,
and their vjps replay its cotangents in the order it adds a parent's
contributions, so gradients are bit-identical to it (the tests check each
against its composition):

* ``linear(x, w, b)``: ``x w^T + b``, and ``linear(x, w, b, relu=True)``:
  the max of that with 0, taken in place, so no pre-activation array
  outlives the call; its vjp masks ``g`` by ``out > 0`` once for all three
  parents;
* ``relu_mask(g, out)``: ``mul(g, out > 0)`` for the constant output ``out``
  of a ReLU layer, the mask made from ``out`` when needed, not kept;
* ``softmax_pair_cross_entropy(ls, targets, start=None)``:
  ``PAIR_MEAN`` times the sum of a pair of heads' means of ``-w_i * ls[i,
  y_i]`` for the log-softmax node ``ls`` its caller made, which also serves
  the softmax ``exp(ls)``; its parent is the logits, its vjp ``(exp(ls) -
  onehot) * (g * PAIR_MEAN * scale)``;
* ``cross_entropy_grad(ls, targets)``: ``(exp(ls) - onehot) *
  (PAIR_MEAN * scale)``, each head's logits cotangent in the pair's mean
  at loss cotangent 1, as a node whose parent is ``ls``;
* ``class_affine_gradient(layers, groups)``: each affine layer's weight and
  bias gradient ``[vec(delta_r^T h_r) | column sums of delta_r]`` per row
  group r, the layers side by side, head after head: ``concat`` of one
  block per head and layer, each layer's product and sum made for all heads
  and groups at once.  A group of rows is a reshaped view (G equal groups
  of consecutive rows) or a :class:`RowGroups` gather with zero ``delta`` on
  its pads, which equals the composition's masked K-fold copy of
  ``delta``: the masked rows add exact zeros to each sum.  A row of no
  class gets +0.0 cotangents, where the composition's sum of its K masked
  blocks may be -0.0: the one place a fused op's bits differ from its
  composition's, and no parameter can see it, since a zero added to a
  nonzero value leaves it as it was and SGD moves no parameter bit for a
  zero gradient of either sign;
* the losses, each a scalar node: ``mean_abs_difference(p, start=0)``,
  the L1 discrepancy, the mean of ``|p[0] - p[1]|`` over the rows from
  ``start`` on; ``balance_gap(p, start=0)``, the nine-node class balance
  loss on those rows; and ``cosine_gap(g)``, the mean of ``1 - (gs . gt) /
  (|gs| |gt| + COSINE_EPS)`` over the row pairs of the two row halves
  ``gs`` and ``gt`` of ``g``, with the rows of a vanished gradient left
  out;
* ``weighted_sum(terms)``: a step's objective, the chain of additions,
  subtractions and multiplications by a weight that sums its losses.
"""
from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "DomainError",
    "ContractError",
    "no_grad",
    "add",
    "mul",
    "matmul",
    "linear",
    "relu_mask",
    "exp",
    "log_softmax",
    "softmax_pair_cross_entropy",
    "cross_entropy_grad",
    "Targets",
    "RowGroups",
    "class_affine_gradient",
    "mean_abs_difference",
    "balance_gap",
    "cosine_gap",
    "weighted_sum",
    "backward",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class DomainError(ValueError):
    """Input outside the mathematical domain of the op (e.g. log of <= 0)."""


class ContractError(ValueError):
    """A documented precondition was violated."""


# the fused losses' constants, each the one value the program gives it
PAIR_MEAN = 0.5  # a pair's cross-entropy is this times the sum of its two heads'
LOG_FLOOR = 1e-300  # added inside balance_gap's log: m log(m + floor) is 0 at m == 0
COSINE_EPS = 1e-12  # cosine_gap's denominator shift and its vanished-gradient norm


class _GradState(threading.local):
    enabled = True  # class default: every new thread starts recording


_ids = itertools.count()
_state = _GradState()


def _set_grad(flag: bool) -> bool:
    prev = _state.enabled
    _state.enabled = flag
    return prev


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        self._prev = _set_grad(False)
        return self

    def __exit__(self, *exc):
        _set_grad(self._prev)
        return False


class Tensor:
    """A dense float64 array, optionally a node of the implicit graph.

    A tensor built here is a leaf (a constant or a parameter): ``parents``
    and ``op`` are empty.  Graph nodes are made by the ops only, so each has
    a ``_VJPS`` entry.  Tensor arithmetic is written with those op functions
    (``add``, ``mul``, ``matmul``, ...); a tensor defines no operators.
    Identity semantics are deliberate: tensors hash by object identity so
    they can key gradient maps.
    """

    __slots__ = ("values", "_id", "parents", "op", "_ctx")

    def __init__(self, values):
        if isinstance(values, np.ndarray):
            if values.dtype != np.float64:
                values = values.astype(np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
        self.values = values
        self._id = next(_ids)
        self.parents, self.op, self._ctx = (), None, None

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of size {self.values.size}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        tag = f" op={self.op}" if self.op else ""
        return f"Tensor(shape={self.shape}{tag}, values={self.values!r})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(values, parents, op, ctx=None) -> Tensor:
    """Record an op result; plain tensor when recording is off.

    ``values`` comes from numpy arithmetic on float64 operands, so only the
    numpy scalar that a ufunc returns for 0-d inputs needs wrapping.
    """
    if type(values) is not np.ndarray:
        values = np.asarray(values, dtype=np.float64)
    out = object.__new__(Tensor)
    out.values = values
    out._id = next(_ids)
    if _state.enabled:
        out.parents, out.op, out._ctx = parents, op, ctx
    else:
        out.parents, out.op, out._ctx = (), None, None
    return out


def _check_broadcast(sa, sb, op) -> None:
    """Raise ShapeError unless the restricted broadcast rules allow sa with sb."""
    if math.prod(sa) == 1 or math.prod(sb) == 1:
        return
    if (len(sa) == 2 and sb == (sa[1],)) or (len(sb) == 2 and sa == (sb[1],)):
        return
    raise ShapeError(f"{op}: shapes {sa} and {sb} are not broadcast-compatible")


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        _check_broadcast(a.shape, b.shape, "add")
    return _node(a.values + b.values, (a, b), "add")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        _check_broadcast(a.shape, b.shape, "mul")
    return _node(a.values * b.values, (a, b), "mul")


def _swap(a: np.ndarray) -> np.ndarray:
    """The transpose of a matrix, or of each matrix of a stack: a view."""
    return a.swapaxes(-1, -2)


def matmul(a, b) -> Tensor:
    """The product of two matrices, or of two stacks of as many heads, head
    by head."""
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim not in (2, 3) or b.values.ndim != a.values.ndim or (
            a.shape[:-2] != b.shape[:-2]):
        raise ShapeError(f"matmul needs 2-D operands or stacks of as many heads, "
                         f"got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    return _node(a.values @ b.values, (a, b), "matmul")


def linear(x, w, b, relu: bool = False) -> Tensor:
    """Affine map ``x @ w.T + b`` of a batch x (b-by-in), weight w (out-by-in)
    and bias b (out); with ``relu``, its max with 0.  Stacked heads: w is
    H-by-out-by-in, b H-by-out and x the b-by-in batch the heads share or
    their H-by-b-by-in stack; head h's b-by-out slice of the output is the
    map of its slices.  The bias is added and the max taken in place in the
    fresh matmul output, so no second output array is made and no
    pre-activation outlives the call; the values are the same.  The w and
    b cotangents are one product and one column sum over all rows."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.values.ndim not in (2, 3) or x.values.ndim not in (2, w.values.ndim):
        raise ShapeError(f"linear needs a 2-D or stacked x and w, got {x.shape} "
                         f"and {w.shape}")
    if x.shape[-1] != w.shape[-1] or b.shape != w.shape[:-1] or (
            x.shape[:-2] not in ((), w.shape[:-2])):
        raise ShapeError(
            f"linear: x {x.shape}, w {w.shape} and b {b.shape} do not fit"
        )
    out = x.values @ _swap(w.values)
    out += b.values[..., None, :]
    if relu:
        np.maximum(out, 0.0, out=out)
    return _node(out, (x, w, b), "linear", relu)


def relu_mask(g, out: np.ndarray) -> Tensor:
    """``g`` times the 0/1 mask of ``out > 0``: the cotangent that a ReLU
    layer whose output is the constant ``out`` passes to its input, as a
    node whose one parent is ``g``.  Its context is ``out`` itself, no mask
    array: the forward and the vjp make the mask when they run."""
    g = as_tensor(g)
    if out.shape != g.shape:
        raise ShapeError(f"relu_mask: cotangent {g.shape} and output {out.shape}")
    return _node(_where_positive(g.values, out), (g,), "relu_mask", out)


def exp(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.exp(a.values), (a,), "exp")


def log_softmax(a) -> Tensor:
    """Row-wise log-softmax of a b-by-K matrix or a stack of them, stabilised
    by max subtraction."""
    a = as_tensor(a)
    if a.values.ndim not in (2, 3):
        raise ShapeError(f"log_softmax needs a b-by-K tensor or a stack, got {a.shape}")
    if not np.all(np.isfinite(a.values)):
        raise DomainError("log_softmax requires finite logits")
    shifted = a.values - a.values.max(axis=-1, keepdims=True)
    vals = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return _node(vals, (a,), "log_softmax")


def _check_rows(ls: Tensor, targets: Targets, start: int | None) -> None:
    """A cross-entropy's rows of ``ls``: all of them, one per label of
    ``targets``, or with ``start`` as many as it has from that row on; never
    none; and one column per class."""
    if ls.values.ndim not in (2, 3):
        raise ShapeError(f"cross-entropy of a log-softmax of shape {ls.shape}")
    n, (b, k) = ls.shape[-2], targets.onehot.shape
    if b == 0:
        raise ContractError("cross-entropy needs a non-empty batch")
    if start is None and b != n:
        raise ContractError(f"{b} labels for a batch of {n}")
    if start is not None and not 0 <= start <= n - b:
        raise ContractError(f"{b} labels from row {start} of a batch of {n}")
    if ls.shape[-1] != k:
        raise ShapeError(f"{k} classes do not match log-softmax {ls.shape}")


def _heads_cross_entropy(ls: Tensor, targets: Targets, start=None) -> tuple:
    """The heads' cross-entropies on the rows of ``ls`` that
    :func:`_check_rows` takes, and the log-softmax values of those rows."""
    if _state.enabled and ls.op != "log_softmax":
        raise ContractError("cross-entropy takes a recorded log_softmax node")
    _check_rows(ls, targets, start)
    b = len(targets.onehot)
    start = start or 0
    rows = ls.values[..., start:start + b, :]
    picked = -(rows * targets.onehot).sum(axis=-1) * targets.weights
    return picked.sum(axis=-1) * (1.0 / b), rows


def softmax_pair_cross_entropy(ls: Tensor, targets: Targets,
                               start: int | None = None) -> Tensor:
    """The mean of a pair of heads' cross-entropies, each the mean of
    ``-weights[i] * ls[i, y_i]`` over the rows of the caller's stacked
    ``ls = log_softmax(logits)`` that the b labels y of ``targets`` encode:
    all of them, or with ``start`` its b rows from that row on.  One node
    whose parent is the logits; the vjp reads the targets' b-by-1 ``scale``.
    The context keeps those rows' values."""
    loss, rows = _heads_cross_entropy(ls, targets, start)
    return _node(loss.sum() * PAIR_MEAN, ls.parents, "pair_cross_entropy",
                 (rows, targets.onehot, targets.scale, start or 0))


def _ce_grad(ls, g, onehot, scale) -> np.ndarray:
    return (np.exp(ls) - onehot) * (g * scale)


def cross_entropy_grad(ls, targets: Targets) -> Tensor:
    """``(exp(ls) - onehot) * (PAIR_MEAN * scale)``: the logits' cotangent
    of each head's cross-entropy in the pair's mean, for all rows of
    log-softmax ``ls`` (b-by-K or a stack of heads) and the one-hot and
    b-by-1 row scales of ``targets``, as one node whose one parent is
    ``ls``."""
    _check_rows(ls, targets, None)
    return _node(_ce_grad(ls.values, PAIR_MEAN, targets.onehot, targets.scale), (ls,),
                 "cross_entropy_grad", targets.scale)


def _onehot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


@dataclass(frozen=True)
class Targets:
    """A batch's labels as the cross-entropy ops read them; made once per
    batch and checked once, when made.

    ``onehot`` is b-by-K, ``weights`` the b row weights (all ones for plain
    labels) and ``scale`` the b-by-1 column ``weights / b`` that scales row i
    of the cross-entropy's vjp, broadcast across its K columns; other shapes
    raise :class:`ShapeError`.  :meth:`joined` gives the alignment loss's
    encoding of both domains' rows one after the other, each keeping its own
    batch's ``scale``, with their row ``groups`` (see
    :func:`class_affine_gradient`) and, by class, the ``classes`` of the
    groups; otherwise ``groups`` is 1, one group of all rows, and
    ``classes`` None.
    """

    labels: np.ndarray
    onehot: np.ndarray
    weights: np.ndarray
    scale: np.ndarray
    groups: int | RowGroups = 1
    classes: tuple | None = None

    def __post_init__(self):
        b = self.labels.size
        if (self.onehot.ndim != 2 or len(self.onehot) != b or self.weights.shape != (b,)
                or self.scale.shape != (b, 1)):
            raise ShapeError(f"one-hot {self.onehot.shape}, weights {self.weights.shape} "
                             f"and scale {self.scale.shape} for {b} labels")

    @classmethod
    def of(cls, labels, num_classes: int, weights=None) -> Targets:
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

    def by_class(self) -> Targets:
        """These targets with each row weighted by its class's mean ``b / n_k``:
        one whole-batch cross-entropy then gives every row its class-mean
        cotangent."""
        labels = self.labels
        weights = self.weights * (labels.size / np.bincount(labels)[labels])
        return Targets(labels, self.onehot, weights, (weights / labels.size)[:, None])

    @classmethod
    def joined(cls, parts, groups, classes=None) -> Targets:
        """The rows of ``parts`` one after the other, each row encoded as in
        its part, with the row ``groups`` and ``classes`` given."""
        return cls(*(np.concatenate([getattr(t, name) for t in parts])
                     for name in ("labels", "onehot", "weights", "scale")), groups, classes)


class RowGroups:
    """The rows of a joint batch of several domains, grouped by (domain,
    class) for :func:`class_affine_gradient`; made once per batch.

    ``classes[d]`` gives the class in [0, count) of each row of domain d, or
    -1 for a row of no class; domain d's rows follow domain d-1's.  Group
    ``d * count + r`` is domain d's rows of class r in row order.  ``index``
    (G-by-m) lists each group's own rows, then pads of row 0 up to ``m``,
    the largest group rounded up to a multiple of 8; ``pad`` marks the pads,
    whose ``delta`` the op zeroes.  ``slot`` is each row's flat position in
    ``index``; a row of no class (``none``) is in no group."""

    def __init__(self, classes, count: int):
        sizes = [len(c) for c in classes]
        labels = np.concatenate(classes).astype(np.intp)
        group = np.repeat(np.arange(len(sizes)), sizes) * count + labels
        self.rows, self.none = labels.size, np.flatnonzero(labels < 0)
        group[self.none] = -1
        members = np.bincount(group[group >= 0], minlength=len(sizes) * count)
        # whole panels of 8 columns: BLAS then sums each column of a group's
        # products in the order it uses for a batch of a multiple of 8 rows
        m = -(-max(members.tolist(), default=1) // 8) * 8
        ranked = np.argsort(group, kind="stable")[self.none.size:]  # by group, in row order
        self.slot = np.zeros(self.rows, dtype=np.intp)
        self.slot[ranked] = (group[ranked] * m + np.arange(ranked.size)
                             - (np.cumsum(members) - members)[group[ranked]])
        self.index = np.zeros((len(members), m), dtype=np.intp)
        self.pad = np.ones(self.index.shape, dtype=bool)
        self.index.flat[self.slot[ranked]] = ranked
        self.pad.flat[self.slot[ranked]] = False


def class_affine_gradient(layers, groups=1) -> Tensor:
    """Row r is, for each affine layer ``(delta, h)`` of ``layers`` in turn,
    ``[vec(d_r^T h_r) | column sums of d_r]``: the layers' weight and bias
    gradients on the rows of group r, side by side.  ``d_r`` and ``h_r``
    are ``delta`` and ``h`` on those rows.  ``groups`` is an int G, G equal
    groups of consecutive rows (1: one group of all rows), each a reshaped
    view, or a :class:`RowGroups`, each group gathered by its padded index
    with zero ``delta`` on the pads.  For stacked heads each ``delta`` is
    H-by-b-by-out and each ``h`` the b-by-in input the heads share or their
    H-by-b-by-in stack, and row r is head 1's layers, then head 2's, and so
    on, each head's block made from its slices as above.  Each layer's
    product and sum run once for all heads and groups."""
    layers = [(as_tensor(delta), as_tensor(h)) for delta, h in layers]
    if not layers:
        raise ContractError("class_affine_gradient of no layers")
    heads = layers[0][0].shape[:-2]
    n = layers[0][1].shape[-2]
    for delta, h in layers:
        if (delta.values.ndim not in (2, 3) or delta.shape[:-2] != heads
                or h.values.ndim not in (2, delta.values.ndim)
                or h.shape[:-2] not in ((), heads) or {delta.shape[-2], h.shape[-2]} != {n}):
            raise ShapeError(f"class_affine_gradient: delta {delta.shape}, h {h.shape}")
    grouped = isinstance(groups, RowGroups)
    rows = len(groups.index) if grouped else groups
    if rows < 1 or (groups.rows != n if grouped else n % rows):
        raise ShapeError(f"{n} rows do not split into {rows} row groups")
    columns = sum(delta.shape[-1] * (h.shape[-1] + 1) for delta, h in layers)
    out = np.empty((rows, math.prod(heads), columns))  # group, head, column
    start = 0
    for delta, h in layers:
        d = _grouped(_stacked(delta.values), groups, zero_pads=True)
        for block in (np.matmul(_swap(d), _grouped(h.values, groups)), d.sum(axis=2)):
            block = block.reshape(len(d), rows, -1)
            out[:, :, start:start + block.shape[2]] = block.transpose(1, 0, 2)
            start += block.shape[2]
    parents = tuple(t for layer in layers for t in layer)
    return _node(out.reshape(rows, -1), parents, "class_affine_gradient", groups)


def _two_heads(p, op: str) -> Tensor:
    p = as_tensor(p)
    if p.values.ndim != 3 or p.shape[0] != 2:
        raise ShapeError(f"{op} takes a stack of two heads' b-by-K rows, got {p.shape}")
    return p


def mean_abs_difference(p, start: int = 0) -> Tensor:
    """The mean of ``|p[0] - p[1]|`` for a stack ``p`` of two heads, on
    their rows from ``start`` on, as one node."""
    p = _two_heads(p, "mean_abs_difference")
    diff = p.values[0, start:] - p.values[1, start:]
    scale = 1.0 / diff.size
    return _node(np.abs(diff).sum() * scale, (p,), "mean_abs_difference",
                 (diff, scale, start))


def balance_gap(p, start: int = 0) -> Tensor:
    """``ln K - H(m)`` for the mean row ``m`` of a stack ``p`` of two
    b-by-K heads, on their rows from ``start`` on, with ``LOG_FLOOR`` added
    inside the log, as one node: ``H(m) = -sum(m log(m + LOG_FLOOR))``,
    ``m`` the mean of both heads' rows."""
    p = _two_heads(p, "balance_gap")
    rows = p.values[:, start:]
    scale = 1.0 / (2 * rows.shape[1])
    mean = rows.sum(axis=1).sum(axis=0) * scale
    shifted = mean + LOG_FLOOR
    if np.any(shifted <= 0.0):
        raise DomainError("log requires strictly positive inputs")
    log_shifted = np.log(shifted)
    entropy = -(mean * log_shifted).sum()
    return _node(float(np.log(p.shape[2])) - entropy, (p,), "balance_gap",
                 (mean, shifted, log_shifted, scale, start))


def weighted_sum(terms) -> Tensor:
    """``t0 w0 + t1 w1 + ...`` of one-element tensors, added left to right,
    for the ``(t, w)`` pairs of ``terms``, as one node: a weight of 1 or -1
    multiplies exactly, so the bits are those of the chain of additions,
    subtractions and multiplications by the other weights.  One term of
    weight 1 is itself: no node."""
    tensors = tuple(as_tensor(t) for t, _ in terms)
    weights = tuple(float(w) for _, w in terms)
    if not tensors:
        raise ContractError("weighted_sum of no terms")
    if any(t.shape != () for t in tensors):
        raise ShapeError(f"weighted_sum of shapes {[t.shape for t in tensors]}")
    if weights == (1.0,):
        return tensors[0]
    total = tensors[0].values * weights[0]
    for t, w in zip(tensors[1:], weights[1:]):
        total = total + t.values * w
    return _node(total, tensors, "weighted_sum", weights)


def _cosine_parts(gs, gt):
    """Row sums s.s, t.t and s.t, the norms, d = |s||t| + COSINE_EPS and 1/d."""
    ss, tt, st = (np.add.reduce(a * b, 1) for a, b in ((gs, gs), (gt, gt), (gs, gt)))
    norm_s, norm_t = ss**0.5, tt**0.5
    denom = norm_s * norm_t + COSINE_EPS
    return ss, tt, st, norm_s, norm_t, denom, denom**-1.0


def cosine_gap(g) -> Tensor:
    """Mean over the r row pairs of a 2r-by-P matrix ``g``, the rows ``gs =
    g[:r]`` over ``gt = g[r:]``, of ``1 - cos(gs[i], gt[i])`` as one node,
    where ``cos`` is ``(gs . gt) / (|gs| |gt| + COSINE_EPS)`` per row.  A
    pair where |gs| or |gt| is below ``COSINE_EPS`` (a vanished gradient)
    adds a constant 0 but counts in the mean: its rows are dropped from the
    row sums by a boolean index, and get zero cotangents.  If every pair
    does, the result is the constant 0, a leaf."""
    g = as_tensor(g)
    if g.values.ndim != 2 or g.shape[0] % 2:
        raise ShapeError(f"cosine_gap takes a 2r-by-P matrix, got {g.shape}")
    rows = g.shape[0] // 2
    parts = _cosine_parts(g.values[:rows], g.values[rows:])
    live = (parts[3] >= COSINE_EPS) & (parts[4] >= COSINE_EPS)
    if not live.any():
        return Tensor(0.0)
    if live.all():
        live = None
    else:
        parts = tuple(part[live] for part in parts)
    scale = 1.0 / rows
    return _node((1.0 - parts[2] * parts[6]).sum() * scale, (g,), "cosine_gap",
                 (parts, scale, live))


# -- array helpers of the vjp formulas ------------------------------------------

def _stacked(values) -> np.ndarray:
    """A stack of heads as itself, a matrix as a stack of one: a view."""
    return values.reshape((-1,) + values.shape[-2:])


def _where_positive(g, out) -> np.ndarray:
    """``g`` times the 0/1 mask of ``out > 0``, made in the mask's buffer."""
    mask = (out > 0.0).astype(np.float64)
    return np.multiply(g, mask, out=mask)


def _grouped(a, groups, zero_pads=False) -> np.ndarray:
    """The rows of ``a`` (b-by-c, or a stack of heads) by group, G-by-m-by-c
    (or a stack): a reshaped view for an int G, else the gather of the
    padded index, with its pads set to 0 if ``zero_pads``."""
    if not isinstance(groups, RowGroups):
        return a.reshape(a.shape[:-2] + (groups, -1, a.shape[-1]))
    out = np.take(a, groups.index, axis=-2)
    if zero_pads:
        out[..., groups.pad, :] = 0.0
    return out


def _ungrouped(a, groups) -> np.ndarray:
    """Each row's cotangent from a C-ordered G-by-m-by-c cotangent of its
    groups (or a stack): the reshaped view for an int G, else the gather of
    each row's slot, with +0.0 on the rows of no class."""
    flat = a.reshape(a.shape[:-3] + (-1, a.shape[-1]))
    if not isinstance(groups, RowGroups):
        return flat
    out = np.take(flat, groups.slot, axis=-2)
    out[..., groups.none, :] = 0.0
    return out


# -- vjp formulas: vjp(g, args, out, ctx, needed) -> parent cotangents ---------

def _unbroadcast(g, shape):
    """Reduce a cotangent back to an operand's shape."""
    if g.shape == shape:
        return g
    if math.prod(shape) == 1:
        return np.add.reduce(g, None).reshape(shape)
    # row operand (K,) against matrix (b, K)
    return np.add.reduce(g, 0)


def _add_vjp(g, args, out, ctx, needed):
    a, b = args
    return (_unbroadcast(g, a.shape) if needed[0] else None,
            _unbroadcast(g, b.shape) if needed[1] else None)


def _mul_vjp(g, args, out, ctx, needed):
    a, b = args
    return (_unbroadcast(g * b, a.shape) if needed[0] else None,
            _unbroadcast(g * a, b.shape) if needed[1] else None)


def _matmul_vjp(g, args, out, ctx, needed):
    a, b = args
    return (g @ _swap(b) if needed[0] else None,
            _swap(a) @ g if needed[1] else None)


def _linear_vjp(g, args, out, ctx, needed):
    """x: ``g w``, summed over the heads in head order for an input they
    share; w: ``g^T x``; b: the column sums of ``g``, head by head.  A fused
    ReLU first masks ``g`` by ``out > 0``, once for all three, as the relu
    vjp would."""
    if ctx:  # relu
        g = _where_positive(g, out)
    x, w, _ = args
    g_x = None
    if needed[0] and x.ndim < w.ndim:  # each head's product added in head order
        g_x = g[0] @ w[0]
        for head in range(1, len(w)):
            g_x += g[head] @ w[head]
    elif needed[0]:
        g_x = g @ w
    return (g_x,
            _swap(g) @ x if needed[1] else None,
            np.add.reduce(g, -2) if needed[2] else None)


def _log_softmax_vjp(g, args, out, ctx, needed):
    return (g - np.exp(out) * np.add.reduce(g, -1)[..., None],)


def _pair_cross_entropy_vjp(g, args, out, ctx, needed):
    """The pair's cotangent ``g * PAIR_MEAN`` through the cross-entropy's
    vjp on its rows, written into zeros when they are a range of the
    logits' rows."""
    rows, onehot, scale, start = ctx
    cot = _ce_grad(rows, g * PAIR_MEAN, onehot, scale)
    if cot.shape == args[0].shape:
        return (cot,)
    full = np.zeros(args[0].shape)
    full[..., start:start + len(onehot), :] = cot
    return (full,)


def _cross_entropy_grad_vjp(g, args, out, ctx, needed):
    """``(g * (PAIR_MEAN * scale)) * exp(ls)``."""
    return (g * (PAIR_MEAN * ctx) * np.exp(args[0]),)


def _delta_cotangent(g_weight, g_bias, h, groups):
    """A layer's ``delta`` cotangent from its weight and bias blocks, group
    by group, C-ordered as the later vjps' sums read it."""
    # a C-ordered h^T per group, freed once multiplied: BLAS reads a
    # transposed view in another summation order when the weight cotangent
    # has few rows, and these sums keep the bits of the composition's
    product = np.matmul(g_weight, np.ascontiguousarray(_swap(_grouped(h, groups))))
    return _ungrouped(np.add(_swap(product), g_bias[:, :, None], order="C"), groups)


def _h_cotangent(delta, g_weight, h, groups):
    """A layer's ``h`` cotangent from its weight blocks, group by group; an
    ``h`` the heads share gets theirs summed in head order."""
    g_h = _ungrouped(np.matmul(_grouped(delta, groups, zero_pads=True), g_weight), groups)
    return g_h if h.ndim == 3 else np.add.reduce(g_h, 0)


def _class_affine_vjp(g, args, out, groups, needed):
    """One walk over the layers ``(delta, h)``: each layer's block of ``g``,
    then its ``delta``'s and its ``h``'s cotangents as needed, each product
    or sum one numpy call for all heads and groups, from each group's own
    rows; an ``h`` the heads share gets theirs summed in head order.  Every
    cotangent is C-ordered."""
    rows = out.shape[0]
    heads = len(_stacked(args[0]))
    g = g.reshape(rows, heads, -1).transpose(1, 0, 2)  # head, group, column
    cots, start = [None] * len(args), 0
    for j in range(0, len(args), 2):
        delta, h = _stacked(args[j]), args[j + 1]
        width, n_in = delta.shape[2], h.shape[-1]
        g_weight = g[:, :, start:start + width * n_in].reshape(heads, rows, width, n_in)
        g_bias = g[:, :, start + width * n_in:start + width * (n_in + 1)]
        start += width * (n_in + 1)
        if needed[j]:
            cots[j] = _delta_cotangent(g_weight, g_bias, h, groups).reshape(args[j].shape)
        if needed[j + 1]:
            cots[j + 1] = _h_cotangent(delta, g_weight, h, groups)
    return tuple(cots)


def _absolute_vjp(g, args, out, ctx, needed):
    """The composition's two branches in its order: ``-(g on a < 0)`` through
    ``relu(neg(a))``, then ``g on a > 0`` through ``relu(a)``."""
    a = args[0]
    return (-(g * (a < 0.0)) + g * (a > 0.0),)


def _mean_abs_difference_vjp(g, args, out, ctx, needed):
    """The absolute value's vjp of the heads' difference at ``g / n``; the
    first head gets it, the second its negation, and the rows before
    ``start`` 0."""
    diff, scale, start = ctx
    g_diff = _absolute_vjp(g * scale, [diff], None, None, needed)[0]
    cot = np.zeros(args[0].shape) if start else np.empty(args[0].shape)
    cot[0, start:] = g_diff
    np.negative(g_diff, out=cot[1, start:])
    return (cot,)


def _balance_gap_vjp(g, args, out, ctx, needed):
    """The mean row's cotangent through ``m log(m + LOG_FLOOR)``, first as the
    factor ``m``, then through the log, scaled to every row of every head."""
    mean, shifted, log_shifted, scale, start = ctx
    g_mean = g * log_shifted + g * mean * shifted**-1.0
    cot = np.zeros(args[0].shape)
    cot[:, start:] = g_mean * scale
    return (cot,)


def _cosine_gap_vjp(g, args, out, ctx, needed):
    """The row cosines' vjp of the two halves at the cotangent ``-g / r`` of
    every cosine, written into the halves of one cotangent; when pairs were
    dropped, into their ``live`` rows, the others 0."""
    parts, scale, live = ctx
    rows = len(args[0]) // 2
    if live is None:
        cot = np.empty(args[0].shape)
        _cosine_cotangents(-(g * scale), args[0][:rows], args[0][rows:], parts,
                           (cot[:rows], cot[rows:]))
    else:
        cot = np.zeros(args[0].shape)
        cot[:rows][live], cot[rows:][live] = _cosine_cotangents(
            -(g * scale), args[0][:rows][live], args[0][rows:][live], parts)
    return (cot,)


def _cosine_cotangents(g, gs, gt, parts, into=(None, None)):
    """The cotangents of ``gs`` and ``gt`` for the cotangent ``g`` of their
    row cosines, from the forward's row sums ``parts``, each written into
    its array of ``into`` or a new one.  A matrix's cotangent arrives
    through s.t first, then twice through its own square (``mul(a, a)``),
    as in the composition; the terms of the denominator and of s.t are made
    once for both."""
    ss, tt, st, norm_s, norm_t, denom, inv = parts
    g_denom = g * st * (denom**-2.0 * -1.0)
    g_cross = (g * inv)[:, None]
    cots = []
    for a, other, own_sq, other_norm, dest in (
            (gs, gt, ss, norm_t, into[0]), (gt, gs, tt, norm_s, into[1])):
        g_sq = g_denom * other_norm * (own_sq**-0.5 * 0.5)
        square = g_sq[:, None] * a
        cots.append(np.add(g_cross * other + square, square, out=dest))
    return tuple(cots)


_VJPS = {
    "add": _add_vjp,
    "mul": _mul_vjp,
    "matmul": _matmul_vjp,
    "linear": _linear_vjp,
    "relu_mask": lambda g, args, out, layer_out, needed: (_where_positive(g, layer_out),),
    "exp": lambda g, args, out, ctx, needed: (g * out,),
    "log_softmax": _log_softmax_vjp,
    "pair_cross_entropy": _pair_cross_entropy_vjp,
    "cross_entropy_grad": _cross_entropy_grad_vjp,
    "class_affine_gradient": _class_affine_vjp,
    "mean_abs_difference": _mean_abs_difference_vjp,
    "balance_gap": _balance_gap_vjp,
    "cosine_gap": _cosine_gap_vjp,
    "weighted_sum": lambda g, args, out, weights, needed: tuple(
        g * w if need else None for w, need in zip(weights, needed)),
}


def _reachable(root: Tensor) -> list:
    """All graph nodes reachable from root through parent links, by id."""
    seen = {root._id: root}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if p._id not in seen:
                seen[p._id] = p
                stack.append(p)
    return [seen[i] for i in sorted(seen)]


def backward(scalar: Tensor, wrt, create_graph: bool = False) -> dict:
    """Reverse-mode gradients of a one-element tensor w.r.t. ``wrt`` tensors.

    Returns a dict mapping each requested tensor to a gradient of identical
    shape, a new leaf tensor.  Tensors that do not participate in the
    scalar's graph receive a zero gradient.  Every node on a path from the
    scalar down to a ``wrt`` tensor passes its cotangent to its parents
    through one call of its ``_VJPS`` formula on the nodes' values,
    consumers before parents (descending ids).  The pass records nothing and
    creates no tensor but the returned gradients.

    ``create_graph`` stays for callers that pass it by keyword (the
    benchmark's tracer): ``False`` is the one mode, and ``True`` raises
    :class:`ContractError` before any work.
    """
    if create_graph:
        raise ContractError("backward is first-order: record a gradient as forward "
                            "ops to differentiate it")
    if scalar.size != 1:
        raise ContractError(f"backward root must have one element, got {scalar.size}")
    wrt = list(wrt)
    wrt_ids = {t._id for t in wrt}

    # keep only nodes on a path from the scalar down to some wrt tensor, each
    # with the parents on such a path
    on_path = set()
    path = []
    for node in _reachable(scalar):  # ascending ids: parents precede consumers
        needed = [p._id in on_path for p in node.parents]
        if any(needed) or node._id in wrt_ids:
            on_path.add(node._id)
            path.append((node, needed))

    cot = {scalar._id: np.ones(scalar.shape)}
    for node, needed in reversed(path):  # every path node has a cotangent by now
        nid = node._id
        g = cot[nid] if nid in wrt_ids else cot.pop(nid)  # free as we go
        if not any(needed):  # a wrt tensor with no path below it
            continue
        parents = node.parents
        pgs = _VJPS[node.op](g, [p.values for p in parents], node.values, node._ctx, needed)
        for parent, pg in zip(parents, pgs):
            if pg is not None:
                acc = cot.get(parent._id)
                cot[parent._id] = pg if acc is None else acc + pg
    return {t: Tensor(cot[t._id] if t._id in cot else np.zeros_like(t.values)) for t in wrt}
