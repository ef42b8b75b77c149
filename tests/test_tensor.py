"""Autodiff core: forward semantics, gradients vs finite differences,
double backward, the two arithmetics of one vjp formula, and graph
determinism."""
import ast
import gc
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
    "div": (["a", "pos"], lambda i: T.tsum(T.mul(T.div(i["a"], i["pos"]), i["proj34"]))),
}
_CASE_INDEX = {name: idx for idx, name in enumerate(sorted(_PRIMITIVE_CASES))}


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


def _second_order(make_loss, inner_wrt, outer_wrt, seed):
    """fd check of d/d(outer) of a random projection of d loss/d(inner)."""
    rng = np.random.default_rng(seed)
    proj = [T.Tensor(rng.normal(size=t.shape)) for t in inner_wrt]

    def projected_gradient():
        grads = T.backward(make_loss(), inner_wrt, create_graph=True)
        terms = [T.tsum(T.mul(grads[t], p)) for t, p in zip(inner_wrt, proj)]
        total = terms[0]
        for term in terms[1:]:
            total = T.add(total, term)
        return total

    fd_check(projected_gradient, outer_wrt)


def _quadratic(y, proj):
    """A scalar quadratic in ``y``, so every parent's cotangent reads the others."""
    return T.tsum(T.mul(T.mul(y, y), proj))


def _fused_builder(name: str, seed: int):
    """(make_scalar, wrt): a scalar through one fused op, rebuilt from the
    same ``wrt`` tensors on every call."""
    if name == "linear":
        x, w, b, proj = TestFusedOps._linear_case(seed)
        return lambda: _quadratic(T.linear(x, w, b), proj), [x, w, b]
    if name == "cross_entropy_grad":
        ls, g, hot, scale, proj = TestFusedOps._ce_grad_case(seed)
        return lambda: _quadratic(T.cross_entropy_grad(ls, g, hot, scale), proj), [ls, g]
    if name.startswith("class_affine_gradient"):
        delta, h, members, proj = TestFusedOps._class_case(seed, name.endswith("K"))
        return (lambda: _quadratic(T.class_affine_gradient(delta, h, members), proj),
                [delta, h])
    if name == "cosine_rows_2d":
        gs, gt, proj = TestFusedOps._cosine_case(seed)
        return lambda: T.tsum(T.mul(T.cosine_rows(gs, gt, 1e-12), proj)), [gs, gt]
    logits, hot, weights = TestFusedOps._ce_case(seed, name == "cross_entropy_weighted")
    return lambda: T.softmax_cross_entropy(logits, hot, weights), [logits]


def _fused_case(name: str, seed: int):
    make_scalar, wrt = _fused_builder(name, seed)
    return make_scalar(), wrt


_FUSED_CASES = ("linear", "cross_entropy", "cross_entropy_weighted", "cross_entropy_grad",
                "class_affine_gradient_all", "class_affine_gradient_K", "cosine_rows_2d")
_GRADIENT_OP_CASES = _FUSED_CASES[3:]


def _scalar_and_wrt(name: str, trial: int):
    if name in _FUSED_CASES:
        return _fused_case(name, trial)
    wrt_names, build = _PRIMITIVE_CASES[name]
    inputs = _case_inputs(name, trial)
    return build(inputs), [inputs[w] for w in wrt_names]


@pytest.mark.parametrize("name", sorted(_PRIMITIVE_CASES) + list(_FUSED_CASES))
def test_first_order_and_create_graph_gradients_are_bit_identical(name):
    """One vjp formula, two arithmetics: numpy on values (first order) and
    the recording primitives on tensors (create graph) give the same bits."""
    for trial in range(3):
        scalar, wrt = _scalar_and_wrt(name, trial)
        plain = T.backward(scalar, wrt)
        graph = T.backward(scalar, wrt, create_graph=True)
        for t in wrt:
            assert plain[t].op is None
            assert plain[t].shape == graph[t].shape == t.shape
            assert plain[t].values.tobytes() == graph[t].values.tobytes()


def test_first_order_backward_records_no_graph():
    """Apart from the gradients it returns, a first-order backward makes no
    tensor: the node-id counter advances by at most ``len(wrt)``."""
    rng = np.random.default_rng(4)
    net = nn.init_mlp([3, 5, 2], 4)
    loss = losses.cross_entropy(nn.forward(net, T.Tensor(rng.normal(size=(6, 3)))),
                                rng.integers(0, 2, size=6))
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


def test_every_recorded_op_has_one_vjp_formula_per_parent():
    assert _recorded_op_names() == set(T._VJPS)
    reached = set()
    for name in sorted(_PRIMITIVE_CASES) + list(_FUSED_CASES):
        scalar, _ = _scalar_and_wrt(name, 0)
        for node in T._reachable(scalar):
            if not node.parents:
                continue
            reached.add(node.op)
            formulas = T._VJPS[node.op]
            if not isinstance(formulas, T._EveryParent):  # variadic: concat
                assert len(formulas) == len(node.parents), node.op
            assert all(callable(formulas[i]) for i in range(len(node.parents)))
    assert reached == set(T._VJPS)  # the cases above build every op


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
    return T.tsum(T.mul(gs, gt), axis=1) / (T.mul(norm_s, norm_t) + eps)


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
    """The fused ops against their compositions and finite differences, to
    first and second order."""

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
        hot = np.eye(3)[rng.integers(0, 3, size=5)]
        weights = rng.uniform(1.0, 2.0, size=5) if weighted else None
        return logits, hot, weights

    @staticmethod
    def _ce_grad_case(seed):
        rng = np.random.default_rng(200 + seed)
        ls = T.log_softmax(T.Tensor(rng.normal(size=(5, 3))))
        hot = np.eye(3)[rng.integers(0, 3, size=5)]
        scale = np.repeat(rng.uniform(1.0, 2.0, size=5) / 5, 3).reshape(5, 3)
        return (T.Tensor(ls.values), T.Tensor(rng.normal()), hot, scale,
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

        def loss():  # quadratic in the output, so every input reaches the gradient
            y = T.linear(x, w, b)
            return T.tsum(T.mul(T.mul(y, y), proj))

        _second_order(loss, [x, w, b], [x, w, b], seed)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_cross_entropy_equals_composition(self, weighted):
        logits, hot, weights = self._ce_case(0, weighted)
        per_row = T.neg(T.tsum(T.mul(T.log_softmax(logits), T.Tensor(hot)), axis=1))
        if weighted:
            per_row = T.mul(per_row, T.Tensor(weights))
        composed = T.mul(T.tsum(per_row), 1.0 / 5)
        fused = T.softmax_cross_entropy(logits, hot, weights)
        assert fused.item() == composed.item()
        g_fused = T.backward(fused, [logits])[logits].values
        g_composed = T.backward(composed, [logits])[logits].values
        np.testing.assert_allclose(g_fused, g_composed, rtol=1e-14, atol=1e-15)

    def test_cross_entropy_rejects_bad_operands(self):
        logits, hot, _ = self._ce_case(0, False)
        with pytest.raises(T.ShapeError):
            T.softmax_cross_entropy(logits, hot[:4])
        with pytest.raises(T.ShapeError):
            T.softmax_cross_entropy(logits, hot, np.ones(4))
        with pytest.raises(T.DomainError):
            T.softmax_cross_entropy(T.Tensor(np.full((5, 3), np.inf)), hot)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_cross_entropy_first_order(self, seed, weighted):
        logits, hot, weights = self._ce_case(seed, weighted)
        fd_check(lambda: T.softmax_cross_entropy(logits, hot, weights), [logits])

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_cross_entropy_second_order(self, seed, weighted):
        logits, hot, weights = self._ce_case(seed, weighted)
        _second_order(lambda: T.softmax_cross_entropy(logits, hot, weights),
                      [logits], [logits], seed)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_cross_entropy_of_linear_second_order(self, weighted):
        """The step-3 shape: head-weight gradient, differentiated by the input."""
        x, w, b, _ = self._linear_case(7)
        rng = np.random.default_rng(8)
        hot = np.eye(4)[rng.integers(0, 4, size=5)]
        weights = rng.uniform(1.0, 2.0, size=5) if weighted else None
        _second_order(lambda: T.softmax_cross_entropy(T.linear(x, w, b), hot, weights),
                      [w, b], [x, w, b], 7)


class TestFusedGradientOps:
    """``cross_entropy_grad``, ``class_affine_gradient`` and ``cosine_rows``
    against their compositions (bit for bit) and finite differences."""

    @pytest.mark.parametrize("seed", range(3))
    def test_cross_entropy_grad_equals_composition(self, seed):
        ls, g, hot, scale, proj = TestFusedOps._ce_grad_case(seed)
        _assert_same_op(T.cross_entropy_grad(ls, g, hot, scale),
                        _ce_grad_composition(ls, g, hot, scale), [ls, g], proj)

    def test_cross_entropy_vjp_records_one_node(self):
        logits, hot, weights = TestFusedOps._ce_case(0, True)
        loss = T.softmax_cross_entropy(logits, hot, weights)
        grad = T.backward(loss, [logits], create_graph=True)[logits]
        assert grad.op == "cross_entropy_grad"
        assert [p.op for p in grad.parents] == ["log_softmax", None]

    @pytest.mark.parametrize("k", [None, 1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(2))
    def test_class_affine_gradient_equals_composition(self, k, seed):
        delta, h, members, proj = TestFusedOps._class_case(seed, k is not None, k or 1)
        _assert_same_op(T.class_affine_gradient(delta, h, members),
                        _class_affine_composition(delta, h, members), [delta, h], proj)

    def test_class_without_rows_gets_a_zero_row(self):
        delta, h, members, _ = TestFusedOps._class_case(0, True, 3)
        assert not members[:, 2].any()
        out = T.class_affine_gradient(delta, h, members)
        assert out.shape == (3, 8)
        np.testing.assert_array_equal(out.values[2], np.zeros(8))
        whole = T.class_affine_gradient(delta, h)
        np.testing.assert_allclose(out.values.sum(axis=0), whole.values[0],
                                   rtol=0, atol=1e-14)

    def test_class_affine_gradient_rejects_bad_operands(self):
        delta, h, members, _ = TestFusedOps._class_case(0, True)
        with pytest.raises(T.ShapeError):
            T.class_affine_gradient(delta, T.Tensor(h.values[:5]))
        with pytest.raises(T.ShapeError):
            T.class_affine_gradient(delta, h, members[:5])
        with pytest.raises(T.ShapeError):
            T.class_affine_gradient(delta, h, members[:, :0])

    @pytest.mark.parametrize("rows", [1, 2])  # 1: the plain loss's one-row case
    @pytest.mark.parametrize("seed", range(3))
    def test_cosine_rows_equals_composition(self, rows, seed):
        gs, gt, proj = TestFusedOps._cosine_case(seed, rows)
        fused = T.cosine_rows(gs, gt, 1e-12)
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

    @pytest.mark.parametrize("name", _GRADIENT_OP_CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_second_order(self, name, seed):
        make_scalar, wrt = _fused_builder(name, seed)
        _second_order(make_scalar, wrt, wrt, seed)


def second_order_check(f, x):
    """d/dx of sum(df/dx) via two chained backward passes.

    For scalar x this is the plain second derivative; for vector x with a
    diagonal Hessian it returns the diagonal.
    """
    y = f(x)
    g = T.backward(y, [x], create_graph=True)[x]
    return T.backward(T.tsum(g), [x])[x]


class TestSecondOrder:
    def test_cubic(self):
        x = T.Tensor([2.0])
        h = second_order_check(
            lambda t: T.tsum(T.mul(T.mul(t, t), t)), x
        )
        np.testing.assert_allclose(h.values, [12.0], atol=1e-8)

    def test_sum_of_squares(self):
        x = T.Tensor([3.0, -1.0, 0.5])
        h = second_order_check(lambda t: T.tsum(T.mul(t, t)), x)
        np.testing.assert_allclose(h.values, [2.0, 2.0, 2.0], atol=1e-8)

    def test_polynomial_matches_analytic(self):
        # f(x) = 3x^3 + 2x^2 + x  =>  f''(x) = 18x + 4
        rng = np.random.default_rng(11)
        xv = rng.normal(size=5)
        x = T.Tensor(xv)

        def f(t):
            cube = T.mul(T.mul(t, t), t)
            return T.tsum(T.mul(cube, 3.0) + T.mul(T.mul(t, t), 2.0) + t)

        h = second_order_check(f, x)
        np.testing.assert_allclose(h.values, 18.0 * xv + 4.0, atol=1e-8)

    def test_mixed_derivative_on_two_parameter_model(self):
        """d/d(theta_g) of |d loss/d(theta_f)|^2 vs finite differences of the
        hand-derived inner gradient."""
        tg = T.Tensor([1.3])
        tf = T.Tensor([0.4])

        def loss():
            return T.tsum(T.exp(T.mul(tg, tf)) + T.mul(tf, tf))

        def inner_grad_sq(g_val):
            # d loss/d tf = g e^{g f} + 2 f, analytically
            inner = g_val * np.exp(g_val * 0.4) + 2 * 0.4
            return inner**2

        g_inner = T.backward(loss(), [tf], create_graph=True)[tf]
        sq = T.tsum(T.mul(g_inner, g_inner))
        auto = T.backward(sq, [tg])[tg].values[0]
        h = 1e-5
        fd = (inner_grad_sq(1.3 + h) - inner_grad_sq(1.3 - h)) / (2 * h)
        assert abs(auto - fd) / max(abs(fd), 1e-8) < 1e-3


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


@pytest.mark.parametrize("create_graph", [False, True])
def test_softmax_graphs_are_freed_by_reference_counting(create_graph):
    """No node references itself or holds a closure: exp and log_softmax get
    their output as an argument of their vjp formula, and the cross-entropy's
    context holds its log-softmax node, which does not point back.  So a graph
    through softmax and cross-entropy, and a create-graph backward through it,
    leave no reference cycle for the cyclic garbage collector."""
    rng = np.random.default_rng(2)
    onehot = np.eye(3)[rng.integers(0, 3, size=5)]
    gc.collect()
    gc.disable()
    try:
        w = T.Tensor(rng.normal(size=(4, 3)))
        logits = T.matmul(T.Tensor(rng.normal(size=(5, 4))), w)
        loss = T.add(T.softmax_cross_entropy(logits, onehot),
                     T.tsum(T.mul(T.softmax(logits), logits)))
        grad = T.backward(loss, [w], create_graph=create_graph)[w]
        if create_graph:
            grad = T.backward(T.tsum(T.mul(grad, grad)), [w])[w]
        del w, logits, loss, grad
        assert gc.collect() == 0
    finally:
        gc.enable()


RELU_POINTS = np.array([0.0, -0.0, np.nan, 5e-324, 1.0, -1.0])


@pytest.mark.parametrize("create_graph", [False, True])
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
    weight_vjp = T._VJPS["linear"][1]
    peak, grad = _peak_bytes(lambda: weight_vjp(
        T._ARRAYS, g, [x.values, w.values, b.values], out.values, None))
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
