"""Autodiff core: forward semantics, gradients vs finite differences, the
vjp formulas, and graph determinism."""
import ast
import functools
import gc
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgdm import losses, nn
from cgdm import tensor as T
from cgdm.checks import finite_difference_gradient


def fd_check(make_scalar, inputs, rel=1e-4, floor=1e-2):
    """Compare autodiff grads of a scalar builder against central differences.

    floor = abs_tol / rel_tol, so near-zero reference gradients are held to
    the absolute tolerance instead.
    """
    auto = T.backward(make_scalar(), inputs)
    fd = finite_difference_gradient(make_scalar, inputs)
    for t, ref in zip(inputs, fd):
        denom = np.maximum(np.abs(ref), floor)
        err = np.max(np.abs(auto[t].values - ref) / denom)
        assert err < rel, f"gradient mismatch: {err}"


class TestMatmul:
    def test_identity(self):
        b = T.Tensor(np.arange(12.0).reshape(3, 4))
        out = T.matmul(T.Tensor(np.eye(3)), b)
        np.testing.assert_array_equal(out.values, b.values)

    def test_scalar_case(self):
        out = T.matmul(T.Tensor([[2.0]]), T.Tensor([[3.0]]))
        assert out.values[0, 0] == 6.0

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        ref = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    ref[i, j] += a[i, k] * b[k, j]
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        np.testing.assert_allclose(out.values, ref, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


class TestElementwise:
    def test_relu(self):
        out = T.relu(T.Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])

    def test_sum_of_zeros(self):
        assert T.tsum(T.zeros((3, 4))).item() == 0.0

    def test_sum_along_an_axis_needs_a_matrix(self):
        with pytest.raises(T.ShapeError):
            T.tsum(T.Tensor(np.ones(3)), axis=0)

    def test_log_domain(self):
        with pytest.raises(T.DomainError):
            T.log(T.Tensor([1.0, 0.0]))

    @pytest.mark.parametrize("p, values, message", [
        (-0.5, [1.0, 0.0], "undefined at zero"),
        (-0.5, [0.0, -1.0], "requires nonnegative inputs"),
        (0.5, [1.0, -1.0], "requires nonnegative inputs"),
        (-1.0, [-2.0, 0.0], "undefined at zero"),
    ])
    def test_pow_domain(self, p, values, message):
        """A fractional power refuses negatives, a negative one zero; a
        negative input to a negative fractional power is named as such."""
        with pytest.raises(T.DomainError, match=message):
            T.pow_const(T.Tensor(values), p)

    @pytest.mark.parametrize("p, values", [
        (0.5, [0.0, 4.0]), (-1.0, [-2.0, 4.0]), (2.0, [-1.0, 0.0]), (3.0, [np.nan])])
    def test_pow_inside_its_domain(self, p, values):
        out = T.pow_const(T.Tensor(values), p)
        np.testing.assert_array_equal(out.values, np.asarray(values) ** p)

    def test_row_broadcast(self):
        m = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        r = T.Tensor([10.0, 20.0])
        np.testing.assert_array_equal(
            T.add(m, r).values, [[11.0, 22.0], [13.0, 24.0]]
        )

    def test_column_broadcast_rejected(self):
        m = T.Tensor(np.zeros((2, 3)))
        c = T.Tensor(np.zeros((2, 1)))
        with pytest.raises(T.ShapeError):
            T.add(m, c)

    def test_concat_narrow_roundtrip(self):
        a = T.Tensor(np.arange(6.0).reshape(2, 3))
        b = T.Tensor(np.arange(6.0, 12.0).reshape(2, 3))
        cat = T.concat([a, b], axis=0)
        back = T.narrow(cat, 0, 2, 2)
        np.testing.assert_array_equal(back.values, b.values)

    def test_reshape(self):
        a = T.Tensor(np.arange(6.0))
        assert T.reshape(a, (2, 3)).shape == (2, 3)


class TestLogSoftmax:
    def test_two_equal_logits(self):
        out = T.log_softmax(T.Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[-np.log(2)] * 2], atol=1e-15)

    def test_constant_rows(self):
        for c in (-3.0, 0.0, 11.5):
            out = T.log_softmax(T.Tensor([[c, c, c]]))
            np.testing.assert_allclose(out.values, [[-np.log(3)] * 3], atol=1e-12)

    def test_direct_formula_small_magnitude(self):
        x = np.array([[1.0, 2.0, 3.0]])
        ref = np.log(np.exp(x) / np.exp(x).sum())
        out = T.log_softmax(T.Tensor(x))
        np.testing.assert_allclose(out.values, ref, atol=1e-12)

    def test_large_logits_stable(self):
        out = T.log_softmax(T.Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.values))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=6),
           st.floats(-50, 50))
    def test_rows_sum_to_one_and_shift_invariant(self, row, shift):
        x = np.array([row])
        base = T.log_softmax(T.Tensor(x)).values
        assert abs(np.exp(base).sum() - 1.0) < 1e-12
        shifted = T.log_softmax(T.Tensor(x + shift)).values
        np.testing.assert_allclose(shifted, base, atol=1e-10)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = T.Tensor([1.0, 2.0, 3.0])
        g = T.backward(T.tsum(x), [x])[x]
        np.testing.assert_array_equal(g.values, np.ones(3))

    def test_non_scalar_root_rejected(self):
        x = T.Tensor([1.0, 2.0])
        with pytest.raises(T.ContractError):
            T.backward(T.mul(x, x), [x])

    def test_unreachable_param_gets_zeros(self):
        x = T.Tensor([1.0, 2.0])
        other = T.Tensor(np.ones((2, 2)))
        g = T.backward(T.tsum(x), [other])[other]
        np.testing.assert_array_equal(g.values, np.zeros((2, 2)))

    def test_two_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        w1 = T.Tensor(rng.normal(size=(4, 3)))
        b1 = T.Tensor(rng.normal(size=4))
        w2 = T.Tensor(rng.normal(size=(2, 4)))
        b2 = T.Tensor(rng.normal(size=2))
        x = T.Tensor(rng.normal(size=(5, 3)))
        y = T.Tensor(rng.normal(size=(5, 2)))

        def loss():
            h = T.relu(T.add(T.matmul(x, T.transpose(w1)), b1))
            out = T.add(T.matmul(h, T.transpose(w2)), b2)
            diff = T.sub(out, y)
            return T.tsum(T.mul(diff, diff))

        fd_check(loss, [w1, b1, w2, b2])


# one entry per primitive: (input names it differentiates, scalar builder)
_PRIMITIVE_CASES = {
    "add": (["a", "b"], lambda i: T.tsum(T.mul(T.add(i["a"], i["b"]), i["proj34"]))),
    "add_row": (["a", "row"], lambda i: T.tsum(T.mul(T.add(i["a"], i["row"]), i["proj34"]))),
    "add_scalar": (["a", "scalar"], lambda i: T.tsum(T.mul(T.add(i["a"], i["scalar"]), i["proj34"]))),
    "sub": (["a", "b"], lambda i: T.tsum(T.mul(T.sub(i["a"], i["b"]), i["proj34"]))),
    "mul": (["a", "b"], lambda i: T.tsum(T.mul(T.mul(i["a"], i["b"]), i["proj34"]))),
    "mul_row": (["a", "row"], lambda i: T.tsum(T.mul(T.mul(i["a"], i["row"]), i["proj34"]))),
    "mul_scalar": (["a", "scalar"], lambda i: T.tsum(T.mul(T.mul(i["a"], i["scalar"]), i["proj34"]))),
    "neg": (["a"], lambda i: T.tsum(T.mul(T.neg(i["a"]), i["proj34"]))),
    "matmul": (["a", "k"], lambda i: T.tsum(T.mul(T.matmul(i["a"], i["k"]), i["proj32"]))),
    "transpose": (["a"], lambda i: T.tsum(T.mul(T.transpose(i["a"]), i["proj43"]))),
    "exp": (["a"], lambda i: T.tsum(T.mul(T.exp(i["a"]), i["proj34"]))),
    "log": (["pos"], lambda i: T.tsum(T.mul(T.log(i["pos"]), i["proj34"]))),
    "pow_half": (["pos"], lambda i: T.tsum(T.mul(T.pow_const(i["pos"], 0.5), i["proj34"]))),
    "pow_neg1": (["pos"], lambda i: T.tsum(T.mul(T.pow_const(i["pos"], -1.0), i["proj34"]))),
    "pow_square": (["a"], lambda i: T.tsum(T.mul(T.pow_const(i["a"], 2.0), i["proj34"]))),
    "sum_all": (["a"], lambda i: T.mul(T.tsum(i["a"]), 1.7)),
    "sum_axis0": (["a"], lambda i: T.tsum(T.mul(T.tsum(i["a"], axis=0), i["proj4"]))),
    "sum_axis1": (["a"], lambda i: T.tsum(T.mul(T.tsum(i["a"], axis=1), i["proj3"]))),
    "reshape": (["a"], lambda i: T.tsum(T.mul(T.reshape(i["a"], (4, 3)), i["proj43"]))),
    "concat": (["a", "b"], lambda i: T.tsum(T.mul(T.concat([i["a"], i["b"]], axis=0), i["proj64"]))),
    "narrow": (["a"], lambda i: T.tsum(T.mul(T.narrow(i["a"], 1, 1, 2), i["proj32"]))),
    "relu": (["off"], lambda i: T.tsum(T.mul(T.relu(i["off"]), i["proj34"]))),
    "log_softmax": (["a"], lambda i: T.tsum(T.mul(T.log_softmax(i["a"]), i["proj34"]))),
    "div": (["a", "pos"],
            lambda i: T.tsum(T.mul(T.mul(i["a"], T.pow_const(i["pos"], -1.0)), i["proj34"]))),
}
_CASE_INDEX = {name: idx for idx, name in enumerate(sorted(_PRIMITIVE_CASES))}
# a case added later takes the next index, so the earlier cases keep their inputs
_PRIMITIVE_CASES["absolute"] = (
    ["off"], lambda i: T.tsum(T.mul(T.absolute(i["off"]), i["proj34"])))
_CASE_INDEX["absolute"] = len(_CASE_INDEX)


def _case_inputs(name: str, trial: int) -> dict:
    rng = np.random.default_rng(131 * _CASE_INDEX[name] + trial)
    return {
        "a": T.Tensor(rng.normal(size=(3, 4))),
        "b": T.Tensor(rng.normal(size=(3, 4))),
        "row": T.Tensor(rng.normal(size=4)),
        "scalar": T.Tensor(rng.normal()),
        "k": T.Tensor(rng.normal(size=(4, 2))),
        "pos": T.Tensor(rng.uniform(0.5, 3.0, size=(3, 4))),
        # relu input held away from the kink so central differences are valid
        "off": T.Tensor(rng.choice([-1.0, 1.0], size=(3, 4))
                        * rng.uniform(0.3, 2.0, size=(3, 4))),
        "proj34": T.Tensor(rng.normal(size=(3, 4))),
        "proj43": T.Tensor(rng.normal(size=(4, 3))),
        "proj32": T.Tensor(rng.normal(size=(3, 2))),
        "proj64": T.Tensor(rng.normal(size=(6, 4))),
        "proj4": T.Tensor(rng.normal(size=4)),
        "proj3": T.Tensor(rng.normal(size=3)),
    }


@pytest.mark.parametrize("name", sorted(_PRIMITIVE_CASES))
def test_primitive_gradients_match_finite_differences(name):
    """Every primitive, 10 random points, rel 1e-4 (abs 1e-6 near zero)."""
    wrt_names, build = _PRIMITIVE_CASES[name]
    for trial in range(10):
        inputs = _case_inputs(name, trial)
        fd_check(lambda: build(inputs), [inputs[w] for w in wrt_names])


def _quadratic(y, proj):
    """A scalar quadratic in ``y``, so every parent's cotangent reads the others."""
    return T.tsum(T.mul(T.mul(y, y), proj))


def _cross_entropy(logits, targets):
    """The fused cross-entropy of ``logits`` through their log-softmax."""
    return T.softmax_cross_entropy(T.log_softmax(logits), targets.onehot, targets.weights,
                                   targets.scale)


def _second_order(make_gradient, reference, outer_wrt, seed):
    """A gradient recorded as forward ops, as training records the heads'
    class gradients: its values agree with the first-order ``reference`` at
    1e-12, and a first-order backward of a random projection of it, the
    double backward, matches central differences in ``outer_wrt``."""
    grad = make_gradient()
    np.testing.assert_allclose(grad.values, reference, rtol=1e-12, atol=1e-12)
    proj = T.Tensor(np.random.default_rng(seed).normal(size=grad.shape))
    fd_check(lambda: T.tsum(T.mul(make_gradient(), proj)), outer_wrt)


def _flat_gradients(scalar, wrt):
    """The first-order gradients of ``scalar`` w.r.t. ``wrt``, as one row."""
    grads = T.backward(scalar, wrt)
    return np.concatenate([grads[t].values.reshape(-1) for t in wrt])[None, :]


def _recorded_linear_gradient(x, w, b, proj, relu):
    """The gradient of ``_quadratic(linear(x, w, b, relu), proj)`` w.r.t.
    (x, w, b) as one row of recorded ops, by the heads' backward recurrence:
    ``delta`` is the output's cotangent ``2 y proj``, masked by the positive
    outputs where the layer has a ReLU; the input's gradient is ``delta W``,
    and the weight and bias gradients are one ``class_affine_gradient``."""
    y = T.linear(x, w, b, relu=relu)
    delta = T.mul(T.mul(y, proj), 2.0)
    if relu:
        delta = T.mul(delta, (y.values > 0).astype(np.float64))
    return T.concat([T.reshape(T.matmul(delta, w), (1, -1)),
                     T.class_affine_gradient([(delta, x)])], axis=1)


def _fused_builder(name: str, seed: int):
    """(make_scalar, wrt): a scalar through one fused op, rebuilt from the
    same ``wrt`` tensors on every call."""
    if name.startswith("linear"):
        x, w, b, proj = TestFusedOps._linear_case(seed)
        relu = name == "linear_relu"
        return lambda: _quadratic(T.linear(x, w, b, relu=relu), proj), [x, w, b]
    if name == "cross_entropy_grad":
        ls, g, hot, scale, proj = TestFusedOps._ce_grad_case(seed)
        return lambda: _quadratic(T.cross_entropy_grad(ls, g, hot, scale), proj), [ls]
    if name in ("class_affine_gradient_layers", "class_affine_gradient_no_class"):
        layers, members, proj = TestFusedOps._class_layers_case(seed, name.endswith("class"))
        return (lambda: _quadratic(T.class_affine_gradient(layers, members), proj),
                [t for layer in layers for t in layer])
    if name.startswith("class_affine_gradient"):
        delta, h, members, proj = TestFusedOps._class_case(seed, name.endswith("K"))
        return (lambda: _quadratic(T.class_affine_gradient([(delta, h)], members), proj),
                [delta, h])
    if name == "cosine_rows_2d":
        gs, gt, proj = TestFusedOps._cosine_case(seed)
        return lambda: T.tsum(T.mul(T.cosine_rows(gs, gt, 1e-12)[0], proj)), [gs, gt]
    logits, targets = TestFusedOps._ce_case(seed, name == "cross_entropy_weighted")
    return lambda: _cross_entropy(logits, targets), [logits]


_FUSED_CASES = ("linear", "cross_entropy", "cross_entropy_weighted", "cross_entropy_grad",
                "class_affine_gradient_all", "class_affine_gradient_K", "cosine_rows_2d",
                "class_affine_gradient_layers", "linear_relu",
                "class_affine_gradient_no_class")
_GRADIENT_OP_CASES = ("cross_entropy_grad", "class_affine_gradient_all",
                      "class_affine_gradient_K", "cosine_rows_2d",
                      "class_affine_gradient_layers", "class_affine_gradient_no_class")


def _scalar_and_wrt(name: str, trial: int):
    if name in _FUSED_CASES:
        make_scalar, wrt = _fused_builder(name, trial)
        return make_scalar(), wrt
    wrt_names, build = _PRIMITIVE_CASES[name]
    inputs = _case_inputs(name, trial)
    return build(inputs), [inputs[w] for w in wrt_names]


@pytest.mark.parametrize("op, case", [
    ("cross_entropy_grad", "cross_entropy_grad"),
    ("class_affine_gradient", "class_affine_gradient_layers"),
    ("cosine_rows", "cosine_rows_2d"),
], ids=["cross_entropy_grad", "class_affine_gradient", "cosine_rows"])
def test_create_graph_backward_refuses_a_gradient_op(op, case):
    """The gradient ops are differentiated by a first-order backward only: a
    create-graph backward of a scalar whose path reaches one raises before
    it makes a tensor or switches recording; a first-order backward of the
    same scalar still runs."""
    scalar, wrt = _scalar_and_wrt(case, 0)
    assert op in {n.op for n in T._reachable(scalar)}
    before = next(T._ids)
    with pytest.raises(T.ContractError, match="first-order"):
        T.backward(scalar, wrt, create_graph=True)
    assert next(T._ids) == before + 1
    assert T._state.enabled
    grads = T.backward(scalar, wrt)
    assert all(grads[t].shape == t.shape for t in wrt)


def test_first_order_backward_records_no_graph():
    """Apart from the gradients it returns, a first-order backward makes no
    tensor: the node-id counter advances by at most ``len(wrt)``."""
    rng = np.random.default_rng(4)
    net = nn.init_mlp([3, 5, 2], 4)
    logits = nn.forward(net, T.Tensor(rng.normal(size=(6, 3))))
    loss = losses.cross_entropy(T.log_softmax(logits),
                                losses.Targets.of(rng.integers(0, 2, size=6), 2))
    params = net.parameters()
    before = next(T._ids)
    grads = T.backward(loss, params)
    assert next(T._ids) - before - 1 <= len(params)
    assert all(grads[p].op is None and grads[p].shape == p.shape for p in params)


def _recorded_op_names() -> set:
    """The op names ``tensor.py`` passes to ``_node``, read from its source."""
    tree = ast.parse(Path(T.__file__).read_text())
    return {
        c.value
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_node"
        for c in ast.walk(call.args[2])
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    }


def test_every_recorded_op_has_one_vjp_formula_per_parent(monkeypatch):
    """One callable per recorded op, ``vjp(g, args, out, ctx, needed)``,
    which gives each parent of a node that ``needed`` asks for a cotangent of
    that parent's shape, the same bits whichever others are asked for, and
    None to the others; a backward calls it once per node on its path."""
    assert _recorded_op_names() == set(T._VJPS)
    for vjp in T._VJPS.values():
        params = list(inspect.signature(vjp).parameters)
        assert params[:3] == ["g", "args", "out"] and params[4:] == ["needed"]
    reached = set()
    for name in sorted(_PRIMITIVE_CASES) + list(_FUSED_CASES):
        scalar, wrt = _scalar_and_wrt(name, 0)
        for node in T._reachable(scalar):
            if not node.parents:
                continue
            reached.add(node.op)
            vjp = T._VJPS[node.op]
            args = [p.values for p in node.parents]
            g = np.ones(node.shape)
            n = len(node.parents)
            every = vjp(g, args, node.values, node._ctx, [True] * n)
            assert type(every) is tuple and len(every) == n, node.op
            for i, parent in enumerate(node.parents):
                assert every[i].shape == parent.shape, (node.op, i)
                one = vjp(g, args, node.values, node._ctx, [j == i for j in range(n)])
                assert [c is None for c in one] == [j != i for j in range(n)], (node.op, i)
                assert one[i].tobytes() == every[i].tobytes(), (node.op, i)
        calls = []
        for op, vjp in T._VJPS.items():
            monkeypatch.setitem(T._VJPS, op, lambda g, args, out, ctx, needed, vjp=vjp:
                                calls.append(out) or vjp(g, args, out, ctx, needed))
        T.backward(scalar, wrt)
        # in every case, each node leads to a wrt tensor
        path = [n for n in T._reachable(scalar) if n.parents]
        assert sorted(id(out) for out in calls) == sorted(id(n.values) for n in path), name
        monkeypatch.undo()
    assert reached == set(T._VJPS)  # the cases above build every op


def test_tensor_arithmetic_has_one_spelling():
    """The op functions are the only way to write tensor arithmetic."""
    operators = ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv",
                 "neg", "matmul", "rmatmul", "pow")
    assert not [op for op in operators if hasattr(T.Tensor, f"__{op}__")]
    with pytest.raises(TypeError):
        T.Tensor(1.0) + 1.0


def _ce_grad_composition(ls, g, hot, scale):
    """What ``cross_entropy_grad`` fuses: the cross-entropy vjp as primitives."""
    return T.mul(T.sub(T.exp(ls), hot), T.mul(g, scale))


def _class_affine_composition(delta, h, members):
    """What ``class_affine_gradient`` fuses: the masked K-fold copy of delta,
    its weight gradient and its bias gradient, each reshaped to K rows."""
    rows = 1
    if members is not None:
        rows, width = members.shape[1], delta.shape[1]
        delta = T.mul(T.concat([delta] * rows, axis=1), np.repeat(members, width, axis=1))
    return T.concat([T.reshape(T.matmul(T.transpose(delta), h), (rows, -1)),
                     T.reshape(T.tsum(delta, axis=0), (rows, -1))], axis=1)


def _cosine_composition(gs, gt, eps):
    """What ``cosine_rows`` fuses: two norms, a row dot product and a division."""
    norm_s = T.pow_const(T.tsum(T.mul(gs, gs), axis=1), 0.5)
    norm_t = T.pow_const(T.tsum(T.mul(gt, gt), axis=1), 0.5)
    return T.mul(T.tsum(T.mul(gs, gt), axis=1),
                 T.pow_const(T.add(T.mul(norm_s, norm_t), eps), -1.0))


def _assert_same_op(fused, composed, inputs, proj):
    """Bit-equal values, and bit-equal first-order gradients of the
    projection ``sum(out * proj)`` with respect to every input."""
    assert fused.values.tobytes() == composed.values.tobytes()
    assert fused.shape == composed.shape
    g_fused = T.backward(T.tsum(T.mul(fused, proj)), inputs)
    g_composed = T.backward(T.tsum(T.mul(composed, proj)), inputs)
    for t in inputs:
        assert g_fused[t].values.tobytes() == g_composed[t].values.tobytes()


class TestFusedOps:
    """The fused ops against their compositions and finite differences."""

    @staticmethod
    def _linear_case(seed):
        rng = np.random.default_rng(seed)
        x = T.Tensor(rng.normal(size=(5, 3)))
        w = T.Tensor(rng.normal(size=(4, 3)))
        b = T.Tensor(rng.normal(size=4))
        return x, w, b, T.Tensor(rng.normal(size=(5, 4)))

    @staticmethod
    def _ce_case(seed, weighted):
        rng = np.random.default_rng(100 + seed)
        logits = T.Tensor(rng.normal(size=(5, 3)))
        labels = rng.integers(0, 3, size=5)
        weights = rng.uniform(1.0, 2.0, size=5) if weighted else None
        return logits, losses.Targets.of(labels, 3, weights)

    @staticmethod
    def _ce_grad_case(seed):
        rng = np.random.default_rng(200 + seed)
        ls = T.log_softmax(T.Tensor(rng.normal(size=(5, 3))))
        hot = np.eye(3)[rng.integers(0, 3, size=5)]
        scale = np.repeat(rng.uniform(1.0, 2.0, size=5) / 5, 3).reshape(5, 3)
        return (T.Tensor(ls.values), float(rng.normal()), hot, scale,
                T.Tensor(rng.normal(size=(5, 3))))

    @staticmethod
    def _class_case(seed, masked, k=3):
        """delta (6x2), h (6x3) and, if masked, members of k classes; for
        k > 1 the last class has no rows."""
        rng = np.random.default_rng(300 + seed)
        delta, h = T.Tensor(rng.normal(size=(6, 2))), T.Tensor(rng.normal(size=(6, 3)))
        members = None
        if masked:
            labels = rng.integers(0, max(k - 1, 1), size=6)
            members = (labels[:, None] == np.arange(k)).astype(np.float64)
        rows = k if masked else 1
        return delta, h, members, T.Tensor(rng.normal(size=(rows, 8)))

    @staticmethod
    def _class_layers_case(seed, no_class=False):
        """Two layers of a head on 6 rows, (delta 6x2, h 6x3) and (6x3, 6x2),
        and members of 3 classes; with ``no_class`` the last row is in none."""
        rng = np.random.default_rng(500 + seed)
        layers = [(T.Tensor(rng.normal(size=(6, w))), T.Tensor(rng.normal(size=(6, n))))
                  for w, n in ((2, 3), (3, 2))]
        labels = np.array([0, 1, 2, 0, 1, 3 if no_class else 2])
        members = (labels[:, None] == np.arange(3)).astype(np.float64)
        return layers, members, T.Tensor(rng.normal(size=(3, 8 + 9)))

    @staticmethod
    def _cosine_case(seed, rows=3):
        rng = np.random.default_rng(400 + seed)
        proj = T.Tensor(rng.normal(size=rows))
        return (T.Tensor(rng.normal(size=(rows, 5))), T.Tensor(rng.normal(size=(rows, 5))),
                proj)

    def test_linear_equals_composition(self):
        x, w, b, proj = self._linear_case(0)
        fused = T.linear(x, w, b)
        composed = T.add(T.matmul(x, T.transpose(w)), b)
        np.testing.assert_array_equal(fused.values, composed.values)
        g_fused = T.backward(T.tsum(T.mul(fused, proj)), [x, w, b])
        g_composed = T.backward(T.tsum(T.mul(composed, proj)), [x, w, b])
        for t in (x, w, b):
            np.testing.assert_allclose(g_fused[t].values, g_composed[t].values,
                                       rtol=1e-14, atol=1e-14)

    def test_linear_leaves_its_inputs_alone(self):
        x, w, b, _ = self._linear_case(1)
        before = [t.values.copy() for t in (x, w, b)]
        out = T.linear(x, w, b)
        for t, was in zip((x, w, b), before):
            np.testing.assert_array_equal(t.values, was)
        assert not np.shares_memory(out.values, b.values)

    def test_linear_shape_mismatch(self):
        x, w, b, _ = self._linear_case(0)
        with pytest.raises(T.ShapeError):
            T.linear(x, T.transpose(w), b)
        with pytest.raises(T.ShapeError):
            T.linear(x, w, T.Tensor(np.zeros(3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_linear_first_order(self, seed):
        x, w, b, proj = self._linear_case(seed)
        fd_check(lambda: T.tsum(T.mul(T.linear(x, w, b), proj)), [x, w, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_linear_second_order(self, seed):
        x, w, b, proj = self._linear_case(seed)
        _second_order(lambda: _recorded_linear_gradient(x, w, b, proj, False),
                      _flat_gradients(_quadratic(T.linear(x, w, b), proj), [x, w, b]),
                      [x, w, b], seed)

    @pytest.mark.parametrize("create_graph", [False])  # the one mode; True raises
    @pytest.mark.parametrize("seed", range(3))
    def test_linear_relu_is_one_node_bit_equal_to_relu_of_linear(self, seed, create_graph):
        """The fused activation records one node of parents (x, w, b); its
        values and its gradients are bit-equal to ``relu(linear(x, w, b))``."""
        x, w, b, proj = self._linear_case(seed)
        fused = T.linear(x, w, b, relu=True)
        composed = T.relu(T.linear(x, w, b))
        assert fused.op == "linear" and fused.parents == (x, w, b)
        assert (fused.values == 0.0).any()
        assert fused.values.tobytes() == composed.values.tobytes()
        grads = [T.backward(_quadratic(out, proj), [x, w, b], create_graph=create_graph)
                 for out in (fused, composed)]
        for t in (x, w, b):
            assert grads[0][t].values.tobytes() == grads[1][t].values.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_linear_relu_first_and_second_order(self, seed):
        make_scalar, wrt = _fused_builder("linear_relu", seed)
        fd_check(make_scalar, wrt)
        x, w, b, proj = self._linear_case(seed)
        _second_order(lambda: _recorded_linear_gradient(x, w, b, proj, True),
                      _flat_gradients(make_scalar(), wrt), wrt, seed)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_cross_entropy_equals_composition(self, weighted):
        logits, targets = self._ce_case(0, weighted)
        per_row = T.neg(T.tsum(T.mul(T.log_softmax(logits), T.Tensor(targets.onehot)), axis=1))
        if weighted:
            per_row = T.mul(per_row, T.Tensor(targets.weights))
        composed = T.mul(T.tsum(per_row), 1.0 / 5)
        fused = _cross_entropy(logits, targets)
        assert fused.item() == composed.item()
        g_fused = T.backward(fused, [logits])[logits].values
        g_composed = T.backward(composed, [logits])[logits].values
        np.testing.assert_allclose(g_fused, g_composed, rtol=1e-14, atol=1e-15)

    def test_cross_entropy_rejects_bad_operands(self):
        logits, t = self._ce_case(0, False)
        ls = T.log_softmax(logits)
        with pytest.raises(T.ShapeError):
            T.softmax_cross_entropy(ls, t.onehot[:4], t.weights, t.scale)
        with pytest.raises(T.ShapeError):
            T.softmax_cross_entropy(ls, t.onehot, np.ones(4), t.scale)
        with pytest.raises(T.ShapeError):
            T.softmax_cross_entropy(ls, t.onehot, t.weights, t.scale[:4])
        with pytest.raises(T.ContractError):  # the logits, not their log-softmax
            T.softmax_cross_entropy(logits, t.onehot, t.weights, t.scale)
        with pytest.raises(T.DomainError):
            T.log_softmax(T.Tensor(np.full((5, 3), np.inf)))

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_cross_entropy_first_order(self, seed, weighted):
        logits, targets = self._ce_case(seed, weighted)
        fd_check(lambda: _cross_entropy(logits, targets), [logits])

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_cross_entropy_second_order(self, seed, weighted):
        logits, targets = self._ce_case(seed, weighted)
        _second_order(lambda: losses.cross_entropy_cotangent(T.log_softmax(logits), targets, 1.0),
                      T.backward(_cross_entropy(logits, targets), [logits])[logits].values,
                      [logits], seed)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_cross_entropy_of_linear_second_order(self, weighted):
        """The step-3 shape: head-weight gradient, differentiated by the input."""
        x, w, b, _ = self._linear_case(7)
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 4, size=5)
        weights = rng.uniform(1.0, 2.0, size=5) if weighted else None
        targets = losses.Targets.of(labels, 4, weights)

        def head_gradient():
            ls = T.log_softmax(T.linear(x, w, b))
            delta = losses.cross_entropy_cotangent(ls, targets, 1.0)
            return T.class_affine_gradient([(delta, x)])

        _second_order(head_gradient,
                      _flat_gradients(_cross_entropy(T.linear(x, w, b), targets), [w, b]),
                      [x, w, b], 7)


class TestFusedGradientOps:
    """``cross_entropy_grad``, ``class_affine_gradient`` and ``cosine_rows``
    against their compositions (bit for bit) and finite differences."""

    @pytest.mark.parametrize("seed", range(3))
    def test_cross_entropy_grad_equals_composition(self, seed):
        ls, g, hot, scale, proj = TestFusedOps._ce_grad_case(seed)
        _assert_same_op(T.cross_entropy_grad(ls, g, hot, scale),
                        _ce_grad_composition(ls, g, hot, scale), [ls], proj)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_cross_entropy_vjp_is_the_gradient_op(self, weighted):
        """The cross-entropy's logits gradient is bit-equal to the one-parent
        ``cross_entropy_grad`` node of its log-softmax at cotangent 1."""
        logits, targets = TestFusedOps._ce_case(0, weighted)
        ls = T.log_softmax(logits)
        grad = T.backward(T.softmax_cross_entropy(ls, targets.onehot, targets.weights,
                                                  targets.scale), [logits])[logits]
        node = T.cross_entropy_grad(ls, 1.0, targets.onehot, targets.scale)
        assert node.parents == (ls,)
        assert grad.values.tobytes() == node.values.tobytes()

    @pytest.mark.parametrize("k", [None, 1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(2))
    def test_class_affine_gradient_equals_composition(self, k, seed):
        delta, h, members, proj = TestFusedOps._class_case(seed, k is not None, k or 1)
        _assert_same_op(T.class_affine_gradient([(delta, h)], members),
                        _class_affine_composition(delta, h, members), [delta, h], proj)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("create_graph", [False])  # the one mode; True raises
    def test_layers_are_the_concat_of_their_blocks(self, seed, create_graph):
        """One node for several layers: bit-equal to the concat of each
        layer's block, in values and in first-order gradients."""
        layers, members, proj = TestFusedOps._class_layers_case(seed)
        fused = T.class_affine_gradient(layers, members)
        assert fused.op == "class_affine_gradient" and len(fused.parents) == 4
        apart = T.concat([T.class_affine_gradient([layer], members) for layer in layers], 1)
        assert fused.values.tobytes() == apart.values.tobytes()
        inputs = [t for layer in layers for t in layer]
        grads = [T.backward(_quadratic(out, proj), inputs, create_graph=create_graph)
                 for out in (fused, apart)]
        for t in inputs:
            assert grads[0][t].values.tobytes() == grads[1][t].values.tobytes()

    def test_class_without_rows_gets_a_zero_row(self):
        delta, h, members, _ = TestFusedOps._class_case(0, True, 3)
        assert not members[:, 2].any()
        out = T.class_affine_gradient([(delta, h)], members)
        assert out.shape == (3, 8)
        np.testing.assert_array_equal(out.values[2], np.zeros(8))
        whole = T.class_affine_gradient([(delta, h)])
        np.testing.assert_allclose(out.values.sum(axis=0), whole.values[0],
                                   rtol=0, atol=1e-14)

    def test_class_affine_gradient_rejects_bad_operands(self):
        delta, h, members, _ = TestFusedOps._class_case(0, True)
        with pytest.raises(T.ShapeError):
            T.class_affine_gradient([(delta, T.Tensor(h.values[:5]))])
        with pytest.raises(T.ShapeError):
            T.class_affine_gradient([(delta, h)], members[:5])
        with pytest.raises(T.ShapeError):
            T.class_affine_gradient([(delta, h)], members[:, :0])
        with pytest.raises(T.ShapeError):  # layers of different batches
            T.class_affine_gradient([(delta, h), (T.Tensor(delta.values[:5]),
                                                  T.Tensor(h.values[:5]))])
        with pytest.raises(T.ContractError):
            T.class_affine_gradient([], members)

    @pytest.mark.parametrize("rows", [1, 2])  # 1: the plain loss's one-row case
    @pytest.mark.parametrize("seed", range(3))
    def test_cosine_rows_equals_composition(self, rows, seed):
        gs, gt, proj = TestFusedOps._cosine_case(seed, rows)
        fused = T.cosine_rows(gs, gt, 1e-12)[0]
        assert fused.shape == (rows,)
        _assert_same_op(fused, _cosine_composition(gs, gt, 1e-12), [gs, gt], proj)

    def test_cosine_rows_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.cosine_rows(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 2))), 1e-12)
        with pytest.raises(T.ShapeError):
            T.cosine_rows(T.Tensor(np.ones((1, 2, 3))), T.Tensor(np.ones((1, 2, 3))), 1e-12)
        with pytest.raises(T.ShapeError):
            T.cosine_rows(T.Tensor(np.ones(3)), T.Tensor(np.ones(3)), 1e-12)

    @pytest.mark.parametrize("name", _GRADIENT_OP_CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_first_order(self, name, seed):
        fd_check(*_fused_builder(name, seed))


class TestDeterminismAndState:
    def test_bit_identical_reruns(self):
        def build(seed):
            rng = np.random.default_rng(seed)
            a = T.Tensor(rng.normal(size=(4, 4)))
            b = T.Tensor(rng.normal(size=(4, 4)))
            out = T.log_softmax(T.matmul(T.relu(a), b))
            grads = T.backward(T.tsum(T.mul(out, out)), [a, b])
            return out.values, grads[a].values, grads[b].values

        first = build(99)
        second = build(99)
        for x, y in zip(first, second):
            assert np.array_equal(x, y)

    def test_no_grad_blocks_recording(self):
        x = T.Tensor([1.0, 2.0])
        with T.no_grad():
            y = T.mul(x, x)
        assert y.parents == ()
        g = T.backward(T.tsum(T.mul(y, y)), [x])[x]
        np.testing.assert_array_equal(g.values, np.zeros(2))

    def test_finite_values_preserved(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(rng.normal(size=(6, 6)))
        out = T.log_softmax(T.matmul(T.relu(x), T.transpose(x)))
        assert np.all(np.isfinite(out.values))


@pytest.mark.parametrize("create_graph", [False])  # the one mode; True raises
def test_softmax_graphs_are_freed_by_reference_counting(create_graph):
    """No node references itself or holds a closure: exp and log_softmax get
    their output as an argument of their vjp formula, and the cross-entropy's
    context holds the values of its log-softmax.  So a graph through softmax
    and cross-entropy, and a backward through it, leave no reference cycle
    for the cyclic garbage collector."""
    rng = np.random.default_rng(2)
    targets = losses.Targets.of(rng.integers(0, 3, size=5), 3)
    gc.collect()
    gc.disable()
    try:
        w = T.Tensor(rng.normal(size=(4, 3)))
        logits = T.matmul(T.Tensor(rng.normal(size=(5, 4))), w)
        ls = T.log_softmax(logits)  # one log-softmax: the cross-entropy's and the softmax's
        loss = T.add(T.softmax_cross_entropy(ls, targets.onehot, targets.weights,
                                             targets.scale),
                     T.tsum(T.mul(T.exp(ls), logits)))
        grad = T.backward(loss, [w], create_graph=create_graph)[w]
        del w, logits, loss, grad
        assert gc.collect() == 0
    finally:
        gc.enable()


RELU_POINTS = np.array([0.0, -0.0, np.nan, 5e-324, 1.0, -1.0])


@pytest.mark.parametrize("create_graph", [False])  # the one mode; True raises
def test_relu_gradient_is_the_input_mask(create_graph):
    """relu keeps no mask: its vjp takes ``out > 0`` from its output, which
    is the mask ``a > 0`` of its input at the kink, at both signed zeros, at
    NaN and at the smallest subnormal.  The gradient is bit-equal to the
    cotangent times that mask (signs of zero included)."""
    proj = np.array([-1.5, -2.0, 3.0, -0.5, 0.25, -4.0])
    a = T.Tensor(RELU_POINTS)
    grad = T.backward(T.tsum(T.mul(T.relu(a), proj)), [a], create_graph=create_graph)[a]
    want = proj * (RELU_POINTS > 0).astype(np.float64)
    assert grad.values.tobytes() == want.tobytes()


def test_recorded_relu_keeps_no_context():
    out = T.relu(T.Tensor(RELU_POINTS))
    assert out.op == "relu" and out._ctx is None


def _peak_bytes(fn):
    """The tracemalloc peak of one call of ``fn`` and its result."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, out


def test_linear_and_its_weight_vjp_allocate_only_their_result():
    """The forward multiplies by the transposed-weight view and the weight
    vjp's array step by the transposed-cotangent view: BLAS reads both in
    place, so neither makes a transposed copy beside its result."""
    rng = np.random.default_rng(0)
    x, w, b = (T.Tensor(rng.normal(size=shape)) for shape in ((256, 256), (256, 256), (256,)))
    peak, out = _peak_bytes(lambda: T.linear(x, w, b))
    np.testing.assert_array_equal(out.values, T.add(T.matmul(x, T.transpose(w)), b).values)
    assert peak < 1.5 * out.values.nbytes
    g = rng.normal(size=out.shape)
    peak, (_, grad, _) = _peak_bytes(lambda: T._VJPS["linear"](
        g, [x.values, w.values, b.values], out.values, False, [False, True, False]))
    np.testing.assert_array_equal(grad, g.T @ x.values)
    assert peak < 1.5 * grad.nbytes


def test_relu_outside_recording_allocates_only_its_output():
    """Under no_grad relu builds no backward mask: its allocations peak below
    1.5 times its output's bytes."""
    x = T.Tensor(np.random.default_rng(0).normal(size=(1000, 256)))
    tracemalloc.start()
    try:
        with T.no_grad():
            out = T.relu(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(out.values, np.maximum(x.values, 0.0))
    assert peak < 1.5 * out.values.nbytes


ABS_POINTS = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.5, -3.0])


@pytest.mark.parametrize("create_graph", [False])  # the one mode; True raises
def test_absolute_is_one_node_bit_equal_to_its_relu_composition(create_graph):
    """``absolute`` records one node, and its values and gradients are
    bit-equal to ``add(relu(a), relu(neg(a)))`` at both signed zeros, at +-1
    and at the smallest subnormals, signs of zero included."""
    proj = np.array([-1.5, -2.0, 3.0, -0.5, 0.25, -4.0, -0.0, 1.0])
    a = T.Tensor(ABS_POINTS)
    fused = T.absolute(a)
    composed = T.add(T.relu(a), T.relu(T.neg(a)))
    assert fused.op == "abs" and fused.parents == (a,) and fused._ctx is None
    assert fused.values.tobytes() == composed.values.tobytes()
    grads = [T.backward(T.tsum(T.mul(out, proj)), [a], create_graph=create_graph)[a]
             for out in (fused, composed)]
    assert grads[0].values.tobytes() == grads[1].values.tobytes()


def _class_members(rng, b, k, every_row):
    """b-by-k 0/1 members of random labels; unless ``every_row``, some rows
    are of no class."""
    labels = rng.integers(0, k if every_row else k + 1, size=b)
    if not every_row:
        labels[:2] = k
    return (labels[:, None] == np.arange(k)).astype(np.float64)


@pytest.mark.parametrize("every_row", [True, False], ids=["every_row", "rows_of_no_class"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_class_gather_fold_equals_the_masked_composition(k, every_row):
    """On arrays the class-affine vjp folds the cotangent of delta's masked
    copies back by gathering each row's block of its class: bit-equal to the
    masked composition, and to the sum of the masked blocks in block order,
    on every row.  A row of no class gets the sign of zero that sum gives:
    -0.0 where all K blocks are negative."""
    rng = np.random.default_rng(10 * k + every_row)
    members = _class_members(rng, 9, k, every_row)
    delta, h = T.Tensor(rng.normal(size=(9, 3))), T.Tensor(rng.normal(size=(9, 4)))
    proj = T.Tensor(rng.normal(size=(k, 15)))
    fused = T.class_affine_gradient([(delta, h)], members)
    composed = _class_affine_composition(delta, h, members)
    assert fused.values.tobytes() == composed.values.tobytes()
    g_fused = T.backward(T.tsum(T.mul(fused, proj)), [delta, h])
    g_composed = T.backward(T.tsum(T.mul(composed, proj)), [delta, h])
    for t in (delta, h):
        assert g_fused[t].values.tobytes() == g_composed[t].values.tobytes()
    g = rng.normal(size=(9, 3 * k)).T.copy().T  # the vjp's layout: a transposed product
    masked = functools.reduce(np.add, [g[:, 3 * r:3 * r + 3] * members[:, r:r + 1]
                                       for r in range(k)])
    assert T._class_gather(g, members).tobytes() == masked.tobytes()


def test_class_affine_vjp_makes_no_second_k_fold_copy():
    """The h branch makes delta's masked copies once, and the delta branch's
    fold gathers: it allocates no b-by-(K*width) array beside its result."""
    rng = np.random.default_rng(3)
    b, k, width, n_in = 256, 4, 32, 8
    members = _class_members(rng, b, k, every_row=False)
    delta, h = T.Tensor(rng.normal(size=(b, width))), T.Tensor(rng.normal(size=(b, n_in)))
    out = T.class_affine_gradient([(delta, h)], members)
    k_fold = b * k * width * 8
    g = rng.normal(size=out.shape)
    peak, (_, grad_h) = _peak_bytes(lambda: T._VJPS["class_affine_gradient"](
        g, [delta.values, h.values], out.values, out._ctx, [False, True]))
    assert grad_h.shape == (b, n_in) and peak < 2 * k_fold
    g_copies = rng.normal(size=(b, k * width)).T.copy().T
    peak, folded = _peak_bytes(lambda: T._class_gather(g_copies, members))
    assert folded.shape == (b, width) and peak < 0.5 * k_fold


def test_block_matmul_reads_the_weight_cotangent_in_place():
    """``_block_matmul`` multiplies the K-by-(width*in) weight cotangent, a
    view of the class-affine cotangent, as K width-by-in blocks: bit-equal
    to the product of its K*width-by-in reshaped copy, and allocating only
    its result."""
    rng = np.random.default_rng(4)
    k, width, n_in, b = 4, 32, 256, 8
    g = rng.normal(size=(k, width * n_in + width))
    weight_part = g[:, :width * n_in]
    m = np.ascontiguousarray(rng.normal(size=(b, n_in)).T)
    peak, got = _peak_bytes(lambda: T._block_matmul(weight_part, m, width))
    assert got.tobytes() == (weight_part.reshape(k * width, n_in) @ m).tobytes()
    assert peak < 1.5 * got.nbytes
