"""Dense float64 tensors with first-order reverse-mode autodiff.

The computation graph is implicit: every op executed while recording is
enabled produces a tensor that references its parent tensors (``parents``),
names its op (``op``) and keeps a small saved context.  Node ids grow
monotonically with creation order, so iterating reachable nodes by descending
id is a valid reverse topological order.

Each op's backward is written once, in the table ``_VJPS``: one
vector-Jacobian-product callable per op, ``vjp(g, args, out, ctx, needed)
-> tuple``, which returns one cotangent per parent from the cotangent ``g``,
the parents' values ``args``, the node's output values ``out`` and its saved
context ``ctx``: the pow exponent, the concat axis, the narrowed range, the
ReLU flag of ``linear``, the cross-entropy's ``(log-softmax values, onehot,
scale)``, ``cross_entropy_grad``'s ``(g, onehot, scale)``,
``class_affine_gradient``'s members (or None) and ``cosine_rows``'s forward
row sums, norms and denominators; relu and absolute keep none and take their
masks from their output or input, only when a backward visits them.
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
network, the second run by ``backward``.  The three gradient ops,
``cross_entropy_grad``, ``class_affine_gradient`` and ``cosine_rows``, are
the pieces of that recurrence and of the alignment loss.

All arithmetic is float64.  Broadcasting is deliberately restricted to
scalar-vs-tensor and row-vs-matrix (a 1-D vector of length K against a b-by-K
matrix); anything else raises :class:`ShapeError`.  A tensor and the graph it
belongs to are confined to a single thread; the recording switch is
thread-local so independent runs can execute concurrently.

Fused ops stand for common compositions, one node each.  Their forward
values come from the composition's numpy operations in its order, and their
vjps replay its cotangents in the order it adds a parent's contributions, so
gradients are bit-identical to it:

* ``linear(x, w, b)``: ``add(matmul(x, transpose(w)), b)``, and
  ``linear(x, w, b, relu=True)``: ``relu`` of that, whose max is taken in
  place, so no pre-activation array outlives the call; its vjp masks ``g``
  by ``out > 0`` once for all three parents;
* ``absolute(a)``: ``add(relu(a), relu(neg(a)))``;
* ``softmax_cross_entropy(ls, onehot, weights, scale)``: the mean of
  ``-w_i * ls[i, y_i]`` for the log-softmax node ``ls = log_softmax(logits)``
  its caller made, so one log-softmax of a logits tensor serves its
  cross-entropy and its softmax ``exp(ls)``; the node's parent is the logits
  and its vjp is ``(exp(ls) - onehot) * (g * scale)``;
* ``cross_entropy_grad(ls, g, onehot, scale)``: that vjp for a constant
  loss cotangent ``g``, as a node whose parent is ``ls``;
* ``class_affine_gradient(layers, members)``: each affine layer's weight and
  bias gradient ``[vec(delta_r^T h) | column sums of delta_r]`` per class r,
  the layers side by side: ``concat`` of one block per layer;
* ``cosine_rows(gs, gt, eps)``: ``(gs . gt) / (|gs| |gt| + eps)`` per row.
"""
from __future__ import annotations

import itertools
import math
import threading

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "DomainError",
    "ContractError",
    "no_grad",
    "as_tensor",
    "zeros",
    "ones",
    "zeros_like",
    "add",
    "sub",
    "mul",
    "neg",
    "matmul",
    "linear",
    "transpose",
    "relu",
    "absolute",
    "exp",
    "log",
    "pow_const",
    "tsum",
    "reshape",
    "concat",
    "narrow",
    "log_softmax",
    "softmax",
    "softmax_cross_entropy",
    "cross_entropy_grad",
    "class_affine_gradient",
    "cosine_rows",
    "backward",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class DomainError(ValueError):
    """Input outside the mathematical domain of the op (e.g. log of <= 0)."""


class ContractError(ValueError):
    """A documented precondition was violated."""


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


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


def ones(shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float64))


def zeros_like(t: Tensor) -> Tensor:
    return Tensor(np.zeros_like(t.values))


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


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        _check_broadcast(a.shape, b.shape, "sub")
    return _node(a.values - b.values, (a, b), "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        _check_broadcast(a.shape, b.shape, "mul")
    return _node(a.values * b.values, (a, b), "mul")


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _node(-a.values, (a,), "neg")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    return _node(a.values @ b.values, (a, b), "matmul")


def linear(x, w, b, relu: bool = False) -> Tensor:
    """Affine map ``x @ w.T + b`` of a batch x (b-by-in), weight w (out-by-in)
    and bias b (out); with ``relu``, its max with 0.  The bias is added and
    the max taken in place in the fresh matmul output, so no second b-by-out
    array is made and no pre-activation outlives the call; the values are
    the same."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.values.ndim != 2 or w.values.ndim != 2:
        raise ShapeError(f"linear needs 2-D x and w, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1] or b.shape != (w.shape[0],):
        raise ShapeError(
            f"linear: x {x.shape}, w {w.shape} and b {b.shape} do not fit"
        )
    out = x.values @ w.values.T
    out += b.values
    if relu:
        np.maximum(out, 0.0, out=out)
    return _node(out, (x, w, b), "linear", relu)


def transpose(a) -> Tensor:
    """The transpose of a 2-D tensor: a view, which BLAS reads in place."""
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")
    return _node(a.values.T, (a,), "transpose")


def relu(a) -> Tensor:
    """max(a, 0); the vjp reads its 0/1 mask off the output."""
    a = as_tensor(a)
    return _node(np.maximum(a.values, 0.0), (a,), "relu")


def absolute(a) -> Tensor:
    """|a| with subgradient 0 at the origin: ``add(relu(a), relu(neg(a)))``
    as one node, whose vjp reads its masks ``a > 0`` and ``a < 0`` off the
    input."""
    a = as_tensor(a)
    return _node(np.abs(a.values), (a,), "abs")


def exp(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.exp(a.values), (a,), "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.values <= 0.0):
        raise DomainError("log requires strictly positive inputs")
    return _node(np.log(a.values), (a,), "log")


def _power(values: np.ndarray, p: float) -> np.ndarray:
    """values**p, refused where the power is undefined: one scan of the
    values, and a second only to word the error."""
    fractional = p != int(p)
    if fractional:
        undefined = values <= 0.0 if p < 0.0 else values < 0.0
    elif p < 0.0:
        undefined = values == 0.0
    else:
        return values**p
    if undefined.any():
        if fractional and (values < 0.0).any():
            raise DomainError(f"pow_const({p}) requires nonnegative inputs")
        raise DomainError(f"pow_const({p}) undefined at zero")
    return values**p


def pow_const(a, p) -> Tensor:
    """Elementwise a**p for a constant exponent p."""
    a = as_tensor(a)
    p = float(p)
    return _node(_power(a.values, p), (a,), "pow", p)


def tsum(a, axis=None) -> Tensor:
    """Sum of all elements (axis=None, a scalar) or along axis 0/1 of a matrix."""
    a = as_tensor(a)
    if axis is None:
        return _node(np.asarray(a.values.sum()), (a,), "sum")
    if a.values.ndim != 2 or axis not in (0, 1):
        raise ShapeError(f"sum(axis={axis}) unsupported for shape {a.shape}")
    return _node(a.values.sum(axis=axis), (a,), "sum0" if axis == 0 else "sum1")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _node(a.values.reshape(shape), (a,), "reshape")


def concat(tensors, axis=0) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    if not tensors:
        raise ContractError("concat of an empty sequence")
    vals = np.concatenate([t.values for t in tensors], axis=axis)
    return _node(vals, tensors, "concat", axis)


def _narrowed(values: np.ndarray, axis, start, length) -> np.ndarray:
    """A view of the slice [start, start+length) along axis."""
    return values[(slice(None),) * axis + (slice(start, start + length),)]


def narrow(a, axis, start, length) -> Tensor:
    """Contiguous slice [start, start+length) along axis."""
    a = as_tensor(a)
    dim = a.shape[axis]
    if start < 0 or start + length > dim:
        raise ShapeError(f"narrow [{start}, {start + length}) out of range for dim {dim}")
    vals = _narrowed(a.values, axis, start, length).copy()
    return _node(vals, (a,), "narrow", (axis, start, length))


def log_softmax(a) -> Tensor:
    """Row-wise log-softmax, stabilised by max subtraction."""
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeError(f"log_softmax needs a b-by-K tensor, got {a.shape}")
    if not np.all(np.isfinite(a.values)):
        raise DomainError("log_softmax requires finite logits")
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    vals = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return _node(vals, (a,), "log_softmax")


def softmax(a) -> Tensor:
    return exp(log_softmax(a))


def softmax_cross_entropy(ls: Tensor, onehot: np.ndarray, weights: np.ndarray,
                          scale: np.ndarray) -> Tensor:
    """Mean over the batch of ``-weights[i] * ls[i, y_i]``, where ``ls`` is
    the node ``log_softmax(logits)`` that the caller made.

    ``onehot`` is the b-by-K one-hot encoding of the labels y, ``weights``
    the b row weights and ``scale`` the b-by-K row scale of the vjp, row i
    all ``weights[i] / b``: a batch's :class:`~cgdm.losses.Targets`, made
    once.  The node's parent is the logits; its context keeps the values of
    ``ls``, which the vjp reads.
    """
    if _state.enabled and ls.op != "log_softmax":
        raise ContractError("softmax_cross_entropy takes a recorded log_softmax node")
    b, k = ls.shape
    if onehot.shape != (b, k) or scale.shape != (b, k):
        raise ShapeError(f"one-hot {onehot.shape} and scale {scale.shape} "
                         f"do not match logits {(b, k)}")
    if weights.shape != (b,):
        raise ShapeError(f"{weights.shape} weights for a batch of {b}")
    picked = -(ls.values * onehot).sum(axis=1) * weights
    return _node(np.asarray(picked.sum()) * (1.0 / b), ls.parents, "cross_entropy",
                 (ls.values, onehot, scale))


def _ce_grad(ls, g, onehot, scale) -> np.ndarray:
    return (np.exp(ls) - onehot) * (g * scale)


def cross_entropy_grad(ls, g: float, onehot: np.ndarray, scale: np.ndarray) -> Tensor:
    """``(exp(ls) - onehot) * (g * scale)``: the logits' cotangent of a
    :func:`softmax_cross_entropy` node with log-softmax ``ls``, constant
    scalar cotangent ``g`` and per-element row scale ``scale``, as one node
    whose one parent is ``ls``."""
    g = float(g)
    if onehot.shape != ls.shape or scale.shape != ls.shape:
        raise ShapeError(f"one-hot {onehot.shape} and scale {scale.shape} "
                         f"do not match log-softmax {ls.shape}")
    return _node(_ce_grad(ls.values, g, onehot, scale), (ls,), "cross_entropy_grad",
                 (g, onehot, scale))


def class_affine_gradient(layers, members=None) -> Tensor:
    """Row r is, for each affine layer ``(delta, h)`` of ``layers`` in turn,
    ``[vec(d_r^T h) | column sums of d_r]``: the layers' weight and bias
    gradients on the rows of class r, side by side.  ``d_r`` is the output
    cotangent ``delta`` on the rows that ``members`` (b-by-K, 0/1) puts in
    class r; ``None`` is one class of all rows.  The masked copies of each
    ``delta`` live only inside the op and its first-order vjp."""
    layers = [(as_tensor(delta), as_tensor(h)) for delta, h in layers]
    if not layers:
        raise ContractError("class_affine_gradient of no layers")
    n = layers[0][1].shape[0]
    for delta, h in layers:
        if delta.values.ndim != 2 or h.values.ndim != 2 or {delta.shape[0], h.shape[0]} != {n}:
            raise ShapeError(f"class_affine_gradient: delta {delta.shape}, h {h.shape}")
    rows = 1 if members is None else members.shape[-1]
    if members is not None and (members.shape != (n, rows) or not rows):
        raise ShapeError(f"{members.shape} members for {n} rows")
    blocks = []
    for delta, h in layers:
        copies = delta.values if members is None else _class_copies(delta.values, members)
        blocks += [(copies.T @ h.values).reshape(rows, -1),
                   copies.sum(axis=0).reshape(rows, -1)]
    parents = tuple(t for layer in layers for t in layer)
    return _node(np.concatenate(blocks, 1), parents, "class_affine_gradient", members)


def _cosine_parts(gs, gt, eps):
    """Row sums s.s, t.t and s.t, the norms, d = |s||t| + eps and 1/d."""
    ss, tt, st = (np.add.reduce(a * b, 1) for a, b in ((gs, gs), (gt, gt), (gs, gt)))
    norm_s, norm_t = _power(ss, 0.5), _power(tt, 0.5)
    denom = norm_s * norm_t + eps
    return ss, tt, st, norm_s, norm_t, denom, _power(denom, -1.0)


def cosine_rows(gs, gt, eps: float) -> tuple:
    """``(cos, norm_s, norm_t)``: the first-order node ``(gs . gt) / (|gs|
    |gt| + eps)`` of each row of two b-by-P matrices, and the row norms |gs|
    and |gt| it computed, as arrays."""
    gs, gt = as_tensor(gs), as_tensor(gt)
    if gs.shape != gt.shape or gs.values.ndim != 2:
        raise ShapeError(f"cosine_rows: shapes {gs.shape} and {gt.shape}")
    parts = _cosine_parts(gs.values, gt.values, eps)
    return _node(parts[2] * parts[6], (gs, gt), "cosine_rows", parts), parts[3], parts[4]


# -- array helpers of the vjp formulas ------------------------------------------

def _filled(v, shape) -> np.ndarray:
    """A new array of ``shape`` holding ``v`` broadcast (a scalar or a row)."""
    out = np.empty(shape)
    out[...] = v
    return out


def _tile_cols(v, k) -> np.ndarray:
    """The vector ``v`` copied across ``k`` columns."""
    return _filled(v[:, None], (len(v), k))


def _where_positive(g, out) -> np.ndarray:
    """``g`` times the 0/1 mask of ``out > 0``, made in the mask's buffer."""
    mask = (out > 0.0).astype(np.float64)
    return np.multiply(g, mask, out=mask)


def _class_copies(delta, members):
    """``delta`` masked to the rows of each class, the K copies side by side:
    one broadcast product."""
    return (delta[:, None, :] * members[:, :, None]).reshape(len(delta), -1)


def _class_gather(g, members):
    """The cotangent of ``delta`` from that of its K masked copies: row i's
    block of its class, one gather in place of the K-fold masked product and
    sum, with its bits.  A row of no class gets that sum of its K blocks
    times 0, in block order: -0.0 where all K are negative, else +0.0."""
    b, k = members.shape
    rows = np.arange(b)
    cls = members.argmax(axis=1)
    # g is the transpose of a C-ordered product, so g.T splits into the K
    # blocks as a view
    out = g.T.reshape(k, -1, b)[cls, :, rows]
    none = members[rows, cls] == 0.0
    if none.any():
        width = out.shape[1]
        total = g[none, :width] * 0.0
        for r in range(1, k):
            total += g[none, r * width:(r + 1) * width] * 0.0
        out[none] = total
    return out


def _block_matmul(a, m, width):
    """Each row of ``a`` as ``width`` rows of a matrix, stacked, times ``m``:
    K products of width-by-in views of ``a``, one per class, in place of the
    product of its K*width-by-in reshaped copy.  Each output element is the
    same dot product, which OpenBLAS sums in the same order."""
    return np.matmul(a.reshape(len(a), width, -1), m).reshape(-1, m.shape[1])


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


def _sub_vjp(g, args, out, ctx, needed):
    a, b = args
    return (_unbroadcast(g, a.shape) if needed[0] else None,
            _unbroadcast(-g, b.shape) if needed[1] else None)


def _mul_vjp(g, args, out, ctx, needed):
    a, b = args
    return (_unbroadcast(g * b, a.shape) if needed[0] else None,
            _unbroadcast(g * a, b.shape) if needed[1] else None)


def _matmul_vjp(g, args, out, ctx, needed):
    a, b = args
    return (g @ b.T if needed[0] else None,
            a.T @ g if needed[1] else None)


def _linear_vjp(g, args, out, relu, needed):
    """x: ``g w``; w: ``g^T x``; b: the column sums of ``g``.  A fused ReLU
    first masks ``g`` by ``out > 0``, once for all three, as the relu vjp
    would."""
    if relu:
        g = _where_positive(g, out)
    x, w, _ = args
    return (g @ w if needed[0] else None,
            g.T @ x if needed[1] else None,
            np.add.reduce(g, 0) if needed[2] else None)


def _narrow_vjp(g, args, out, ctx, needed):
    axis, start, length = ctx
    shape = list(args[0].shape)
    dim = shape[axis]
    parts = []
    if start > 0:
        shape[axis] = start
        parts.append(np.zeros(tuple(shape)))
    parts.append(g)
    if start + length < dim:
        shape[axis] = dim - start - length
        parts.append(np.zeros(tuple(shape)))
    return (np.concatenate(parts, axis=axis) if len(parts) > 1 else g,)


def _concat_vjp(g, args, out, axis, needed):
    cots, start = [], 0
    for a, need in zip(args, needed):
        length = a.shape[axis]
        cots.append(_narrowed(g, axis, start, length) if need else None)
        start += length
    return tuple(cots)


def _log_softmax_vjp(g, args, out, ctx, needed):
    return (g - np.exp(out) * _tile_cols(np.add.reduce(g, 1), args[0].shape[1]),)


def _cross_entropy_vjp(g, args, out, ctx, needed):
    ls, onehot, scale = ctx
    return (_ce_grad(ls, g, onehot, scale),)


def _cross_entropy_grad_vjp(g, args, out, ctx, needed):
    """``(g * (g_loss * scale)) * exp(ls)`` for the constant loss cotangent
    ``g_loss``."""
    g_loss, onehot, scale = ctx
    return (g * (g_loss * scale) * np.exp(args[0]),)


def _class_affine_vjp(g, args, out, members, needed):
    """One walk over the layers ``(delta, h)``: each layer's block of ``g``,
    then its ``delta``'s and its ``h``'s cotangents as needed.  The ``h``
    cotangent makes the masked copies of ``delta`` once; the ``delta``
    cotangent makes none, gathering each row's block of its class instead."""
    rows = out.shape[0]
    cots, start = [], 0
    for j in range(0, len(args), 2):
        delta, h = args[j], args[j + 1]
        width, n_in = delta.shape[1], h.shape[1]
        size = width * (n_in + 1)
        block = g[:, start:start + size] if len(args) > 2 else g
        start += size
        g_weight = block[:, :width * n_in]
        g_delta = g_h = None
        if needed[j]:
            # a C-ordered h^T: BLAS reads a transposed view in another summation
            # order when the weight cotangent has few rows, and these sums keep
            # the bits of the composition's
            g_delta = (_block_matmul(g_weight, np.ascontiguousarray(h.T), width).T
                       + block[:, width * n_in:size].reshape(rows * width))
            if members is not None:
                g_delta = _class_gather(g_delta, members)
        if needed[j + 1]:
            copies = delta if members is None else _class_copies(delta, members)
            g_h = copies @ g_weight.reshape(rows * width, n_in)
        cots += (g_delta, g_h)
    return tuple(cots)


def _absolute_vjp(g, args, out, ctx, needed):
    """The composition's two branches in its order: ``-(g on a < 0)`` through
    ``relu(neg(a))``, then ``g on a > 0`` through ``relu(a)``."""
    a = args[0]
    return (-(g * (a < 0.0)) + g * (a > 0.0),)


def _cosine_rows_vjp(g, args, out, parts, needed):
    """From the forward's row sums in the context.  A parent's cotangent
    arrives through s.t first, then twice through its own square
    (``mul(a, a)``), as in the composition; the terms of the denominator and
    of s.t are made once for both."""
    gs, gt = args
    ss, tt, st, norm_s, norm_t, denom, inv = parts
    cols = gs.shape[1]
    g_denom = g * st * (_power(denom, -2.0) * -1.0)
    g_cross = _tile_cols(g * inv, cols)
    cots = []
    for a, other, own_sq, other_norm, need in ((gs, gt, ss, norm_t, needed[0]),
                                               (gt, gs, tt, norm_s, needed[1])):
        if not need:
            cots.append(None)
            continue
        g_sq = g_denom * other_norm * (_power(own_sq, -0.5) * 0.5)
        square = _tile_cols(g_sq, cols) * a
        cots.append(g_cross * other + square + square)
    return tuple(cots)


_VJPS = {
    "add": _add_vjp,
    "sub": _sub_vjp,
    "mul": _mul_vjp,
    "neg": lambda g, args, out, ctx, needed: (-g,),
    "matmul": _matmul_vjp,
    "linear": _linear_vjp,
    "transpose": lambda g, args, out, ctx, needed: (g.T,),
    "relu": lambda g, args, out, ctx, needed: (_where_positive(g, out),),
    "abs": _absolute_vjp,
    "exp": lambda g, args, out, ctx, needed: (g * out,),
    "log": lambda g, args, out, ctx, needed: (g * _power(args[0], -1.0),),
    "pow": lambda g, args, out, p, needed: (g * (_power(args[0], p - 1.0) * p),),
    "sum": lambda g, args, out, ctx, needed: (_filled(g, args[0].shape),),
    "sum0": lambda g, args, out, ctx, needed: (_filled(g, args[0].shape),),
    "sum1": lambda g, args, out, ctx, needed: (_tile_cols(g, args[0].shape[1]),),
    "reshape": lambda g, args, out, ctx, needed: (g.reshape(args[0].shape),),
    "concat": _concat_vjp,
    "narrow": _narrow_vjp,
    "log_softmax": _log_softmax_vjp,
    "cross_entropy": _cross_entropy_vjp,
    "cross_entropy_grad": _cross_entropy_grad_vjp,
    "class_affine_gradient": _class_affine_vjp,
    "cosine_rows": _cosine_rows_vjp,
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
    return {t: Tensor(cot[t._id]) if t._id in cot else zeros_like(t) for t in wrt}
