"""MLP init, forward semantics, momentum SGD, and checkpoint round trips."""
import copy
import tracemalloc

import numpy as np
import pytest

from cgdm import nn
from cgdm.data import ParseError
from cgdm.tensor import ContractError, Tensor, _reachable, backward, mul

from compositions import sub, tsum


class TestInit:
    def test_shapes_and_zero_bias(self):
        net = nn.init_mlp([2, 3], seed=0)
        assert net.layers[0].weight.shape == (3, 2)
        assert net.layers[0].bias.shape == (3,)
        np.testing.assert_array_equal(net.layers[0].bias.values, np.zeros(3))

    def test_same_seed_bit_identical(self):
        a = nn.init_mlp([4, 8, 3], seed=42)
        b = nn.init_mlp([4, 8, 3], seed=42)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.values, pb.values)

    def test_different_seed_differs(self):
        a = nn.init_mlp([4, 8, 3], seed=1)
        b = nn.init_mlp([4, 8, 3], seed=2)
        assert not np.array_equal(a.layers[0].weight.values, b.layers[0].weight.values)

    def test_uniform_bound_holds_everywhere(self):
        dims = [5, 11, 7, 2]
        net = nn.init_mlp(dims, seed=3)
        for layer, (d_in, d_out) in zip(net.layers, zip(dims[:-1], dims[1:])):
            bound = np.sqrt(6.0 / (d_in + d_out))
            assert np.all(np.abs(layer.weight.values) <= bound)

    def test_empty_dims_rejected(self):
        with pytest.raises(ContractError):
            nn.init_mlp([3], seed=0)

    def test_stack_keeps_each_draw_and_unstack_views_it(self):
        """The pair's head h holds net h's bits; each unstacked head's
        parameters are views of the pair's slices."""
        nets = [nn.init_mlp([4, 8, 3], seed=s) for s in (5, 6)]
        pair = nn.stack(nets)
        assert (pair.in_dim, pair.out_dim) == (4, 3)
        assert [layer.weight.shape for layer in pair.layers] == [(2, 8, 4), (2, 3, 8)]
        for h, head in enumerate(nn.unstack(pair)):
            for p_head, p_net, p_pair in zip(head.parameters(), nets[h].parameters(),
                                             pair.parameters()):
                assert p_head.values.tobytes() == p_net.values.tobytes()
                assert np.shares_memory(p_head.values, p_pair.values)
        with pytest.raises(ContractError):
            nn.stack([nn.init_mlp([4, 8, 3], seed=5), nn.init_mlp([4, 7, 3], seed=6)])
        with pytest.raises(ContractError):
            nn.stack([pair, pair])

    def test_hidden_relu_final_configurable(self):
        net = nn.init_mlp([2, 4, 3], seed=0, final_activation="relu")
        assert [l.activation for l in net.layers] == ["relu", "relu"]
        net = nn.init_mlp([2, 4, 3], seed=0)
        assert [l.activation for l in net.layers] == ["relu", "none"]


class TestForward:
    def test_zero_weights_bias_constant(self):
        net = nn.init_mlp([3, 2], seed=0)
        net.layers[0].weight.values[:] = 0.0
        net.layers[0].bias.values[:] = 7.5
        out = nn.forward(net, Tensor(np.random.default_rng(0).normal(size=(4, 3))))
        np.testing.assert_array_equal(out.values, np.full((4, 2), 7.5))

    def test_identity_layer(self):
        net = nn.init_mlp([3, 3], seed=0)
        net.layers[0].weight.values[:] = np.eye(3)
        net.layers[0].bias.values[:] = 0.0
        x = np.random.default_rng(1).normal(size=(5, 3))
        out = nn.forward(net, Tensor(x))
        np.testing.assert_array_equal(out.values, x)

    def test_two_layer_hand_computed(self):
        net = nn.init_mlp([2, 2, 1], seed=0)
        net.layers[0].weight.values[:] = [[1.0, -1.0], [0.5, 2.0]]
        net.layers[0].bias.values[:] = [0.1, -0.2]
        net.layers[1].weight.values[:] = [[2.0, -3.0]]
        net.layers[1].bias.values[:] = [0.25]
        x = np.array([[1.0, 2.0]])
        h = np.maximum(x @ net.layers[0].weight.values.T + [0.1, -0.2], 0.0)
        expected = h @ net.layers[1].weight.values.T + 0.25
        out = nn.forward(net, Tensor(x))
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        net = nn.init_mlp([3, 2], seed=0)
        with pytest.raises(Exception):
            nn.forward(net, Tensor(np.zeros((4, 5))))

    def test_a_relu_layer_is_one_node_that_keeps_no_pre_activation(self):
        """Each layer records one node whose parents are its input, weight
        and bias: a two-layer forward's graph is its 7 tensors.  No array in
        it holds the hidden layer's pre-activation; the hidden node's values
        are its ReLU, and :func:`nn.layer_taps` reads back (input, node)."""
        net = nn.init_mlp([3, 5, 2], seed=6)
        x = Tensor(np.random.default_rng(6).normal(size=(8, 3)))
        out = nn.forward(net, x)
        hidden = out.parents[0]
        first, second = net.layers
        assert hidden.op == out.op == "linear"
        assert hidden.parents == (x, first.weight, first.bias)
        assert out.parents == (hidden, second.weight, second.bias)
        pre = x.values @ first.weight.values.T + first.bias.values
        assert (pre < 0).any() and hidden.values.tobytes() == np.maximum(pre, 0.0).tobytes()
        graph = _reachable(out)
        assert len(graph) == 7
        assert not any(np.array_equal(t.values, pre) for t in graph)
        assert nn.layer_taps(net, out) == [(x, hidden), (hidden, out)]


class TestSgd:
    def test_plain_step(self):
        p = Tensor([1.0, -2.0])
        opt = nn.SgdOptimizer([p], lr=0.5, momentum=0.0, weight_decay=0.0)
        opt.step({p: Tensor([2.0, 2.0])})
        np.testing.assert_allclose(p.values, [0.0, -3.0])

    def test_zero_grad_no_motion(self):
        p = Tensor([1.0, -2.0])
        opt = nn.SgdOptimizer([p], lr=0.5, momentum=0.0, weight_decay=0.0)
        opt.step({p: Tensor([0.0, 0.0])})
        np.testing.assert_array_equal(p.values, [1.0, -2.0])

    def test_two_momentum_steps_hand_iterated(self):
        # lr=0.1, momentum=0.9, g=1 constant, theta0=0: -0.1 then -0.29
        p = Tensor([0.0])
        opt = nn.SgdOptimizer([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        opt.step({p: Tensor([1.0])})
        np.testing.assert_allclose(p.values, [-0.1], atol=1e-15)
        opt.step({p: Tensor([1.0])})
        np.testing.assert_allclose(p.values, [-0.29], atol=1e-15)

    def test_quadratic_descent(self):
        rng = np.random.default_rng(4)
        p = Tensor(rng.normal(size=4))
        target = rng.normal(size=4)

        def loss_value():
            diff = p.values - target
            return float(diff @ diff)

        before = loss_value()
        diff = Tensor(2.0 * (p.values - target))
        opt = nn.SgdOptimizer([p], lr=0.05, momentum=0.0, weight_decay=0.0)
        opt.step({p: diff})
        assert loss_value() < before

    def test_weight_decay_shrinks_norm(self):
        p = Tensor([3.0, -4.0])
        opt = nn.SgdOptimizer([p], lr=0.1, momentum=0.0, weight_decay=0.1)
        opt.step({p: Tensor([0.0, 0.0])})
        assert np.linalg.norm(p.values) < 5.0

    def test_momentum_and_decay_follow_the_written_out_update(self):
        """Three in-place steps are bit-equal to v = m*v + (g + wd*p);
        p -= lr*v, and the gradients passed in are only read."""
        rng = np.random.default_rng(3)
        p = Tensor(rng.normal(size=(4, 3)))
        theta, v = p.values.copy(), np.zeros((4, 3))
        lr, m, wd = 0.1, 0.9, 5e-4
        opt = nn.SgdOptimizer([p], lr=lr, momentum=m, weight_decay=wd)
        for _ in range(3):
            g = Tensor(rng.normal(size=(4, 3)))
            given = g.values.copy()
            opt.step({p: g})
            v = m * v + (given + wd * theta)
            theta -= lr * v
            assert p.values.tobytes() == theta.tobytes()
            assert opt.velocities[id(p)].tobytes() == v.tobytes()
            assert g.values.tobytes() == given.tobytes()

    @pytest.mark.parametrize("wd", [0.0, 5e-4])
    def test_step_makes_one_scratch_array_and_the_textbook_bits(self, wd):
        """Over four steps the parameter and velocity are bit-equal to the
        textbook g <- g + wd*theta; v <- m*v + g; theta <- theta - lr*v, and
        a step after the first allocates one parameter-sized array."""
        rng = np.random.default_rng(8)
        p = Tensor(rng.normal(size=(128, 64)))
        theta, v = p.values.copy(), np.zeros((128, 64))
        lr, m = 0.05, 0.9
        opt = nn.SgdOptimizer([p], lr=lr, momentum=m, weight_decay=wd)
        for step in range(4):
            g = Tensor(rng.normal(size=(128, 64)))
            grad = g.values + wd * theta if wd else g.values
            v = m * v + grad
            theta = theta - lr * v
            tracemalloc.start()
            try:
                opt.step({p: g})
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert p.values.tobytes() == theta.tobytes()
            assert opt.velocities[id(p)].tobytes() == v.tobytes()
            if step:  # the first step also makes the velocity
                assert peak < 1.5 * p.values.nbytes

    @pytest.mark.parametrize("wd", [0.0, 5e-4])
    @pytest.mark.parametrize("m", [0.0, 0.9])
    def test_a_zero_gradient_of_either_sign_moves_no_parameter_bit(self, m, wd):
        """Zero gradient entries of +0.0 and of -0.0 leave every parameter
        with the same bits, at +0.0 and elsewhere, also after a later
        nonzero step: the sign of a zero cotangent is not observable."""
        rng = np.random.default_rng(11)
        start = rng.normal(size=(4, 6))
        start[:, :2] = 0.0  # parameters at +0.0, as a fresh bias
        params = [Tensor(start.copy()) for _ in range(2)]
        opts = [nn.SgdOptimizer([p], lr=0.1, momentum=m, weight_decay=wd) for p in params]
        zero = rng.random(size=start.shape) < 0.5
        for step in range(4):  # all zero, partly zero twice, then nonzero
            g = rng.normal(size=start.shape)
            for p, opt, sign in zip(params, opts, (0.0, -0.0)):
                given = g.copy()
                if step < 3:
                    given[zero if step else ...] = sign
                opt.step({p: Tensor(given)})
            assert params[0].values.tobytes() == params[1].values.tobytes()

    def test_missing_grad_treated_as_zero(self):
        p = Tensor([1.0])
        opt = nn.SgdOptimizer([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        opt.step({})
        np.testing.assert_array_equal(p.values, [1.0])

    def test_shape_mismatch_rejected(self):
        p = Tensor([1.0, 2.0])
        opt = nn.SgdOptimizer([p], lr=0.1)
        with pytest.raises(ContractError):
            opt.step({p: Tensor([1.0, 2.0, 3.0])})

    def test_one_autodiff_step_decreases_convex_loss(self):
        rng = np.random.default_rng(9)
        p = Tensor(rng.normal(size=(3,)))
        target = Tensor(rng.normal(size=(3,)))

        def loss():
            d = sub(p, target)
            return tsum(mul(d, d))

        before = loss().item()
        grads = backward(loss(), [p])
        nn.SgdOptimizer([p], lr=0.01).step(grads)
        assert loss().item() < before


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        gen = nn.init_mlp([2, 4, 3], seed=5, final_activation="relu")
        clf = nn.init_mlp([3, 2], seed=6)
        path = tmp_path / "model.ckpt"
        nn.save_params({"generator": gen, "classifier1": clf}, path)
        loaded = nn.load_params(path)
        assert set(loaded) == {"generator", "classifier1"}
        for orig, back in ((gen, loaded["generator"]), (clf, loaded["classifier1"])):
            assert [l.activation for l in back.layers] == [
                l.activation for l in orig.layers
            ]
            for po, pb in zip(orig.parameters(), back.parameters()):
                assert np.array_equal(po.values, pb.values)

    def test_a_pair_is_saved_as_its_two_heads(self, tmp_path):
        """The pair's text is that of its two heads saved as the nets
        ``classifier1`` and ``classifier2``, and loading that text gives the
        pair back bit for bit."""
        gen = nn.init_mlp([2, 4, 3], seed=5, final_activation="relu")
        heads = [nn.init_mlp([3, 5, 2], seed=s) for s in (6, 7)]
        pair = nn.stack(heads)
        apart, stacked = tmp_path / "apart.ckpt", tmp_path / "stacked.ckpt"
        nn.save_params({"generator": gen, "classifier1": heads[0],
                        "classifier2": heads[1]}, apart)
        nn.save_params({"generator": gen, "classifier": pair}, stacked)
        assert stacked.read_text() == apart.read_text()
        loaded = nn.load_params(apart)
        assert list(loaded) == ["generator", "classifier"]
        back = loaded["classifier"]
        assert [l.activation for l in back.layers] == [l.activation for l in pair.layers]
        for po, pb in zip(pair.parameters(), back.parameters()):
            assert po.values.shape == pb.values.shape
            assert po.values.tobytes() == pb.values.tobytes()

    @staticmethod
    def _pair_error(tmp_path, edit):
        """The ParseError of loading a saved pair whose lines ``edit`` changed."""
        path = tmp_path / "pair.ckpt"
        nn.save_params({"classifier": nn.stack([nn.init_mlp([3, 5, 2], seed=s)
                                                for s in (6, 7)])}, path)
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            nn.load_params(path)
        return err.value

    def test_heads_of_other_layers_are_rejected(self, tmp_path):
        def edit(lines):
            lines[2] = "arch classifier2 relu,relu"
        err = self._pair_error(tmp_path, edit)
        assert err.line == 3 and "classifier2: layers differ" in str(err)

    def test_a_net_named_as_its_heads_stem_is_rejected(self, tmp_path):
        def edit(lines):
            lines.insert(1, "arch classifier none")
            lines += ["param classifier.layer0.weight 1 1", "0.5",
                      "param classifier.layer0.bias 1", "0"]
        err = self._pair_error(tmp_path, edit)
        assert err.line == 2 and "classifier is a net and the name of heads" in str(err)

    @staticmethod
    def _saved_lines(tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_params({"generator": nn.init_mlp([2, 3], seed=1)}, path)
        return path, path.read_text().splitlines()

    def test_truncated_values_line_reports_its_line(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        # the last line holds the 3 bias values; keep the first one only
        lines[-1] = lines[-1].split()[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            nn.load_params(path)
        assert err.value.line == len(lines)
        assert "expected 3 values, got 1" in str(err.value)

    def test_missing_values_line_reports_end_of_file(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError) as err:
            nn.load_params(path)
        assert err.value.line == len(lines)

    def test_missing_record_and_bad_number_rejected(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ParseError, match="missing parameter"):
            nn.load_params(path)
        lines[-1] = lines[-1].replace(" ", " x", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            nn.load_params(path)
        assert err.value.line == len(lines)

    @staticmethod
    def _load_edited(tmp_path, dims, edit):
        """Load a saved generator of ``dims`` whose lines ``edit`` changed in
        place; the ParseError it raises."""
        path = tmp_path / "model.ckpt"
        nn.save_params({"generator": nn.init_mlp(dims, seed=1)}, path)
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            nn.load_params(path)
        return err.value

    def test_an_activation_other_than_relu_or_none_is_rejected(self, tmp_path):
        def edit(lines):
            lines[1] = "arch generator relu,tanh"
        err = self._load_edited(tmp_path, [2, 4, 3], edit)
        assert err.line == 2 and "'tanh'" in str(err)

    @pytest.mark.parametrize("record", ["arch", "param"])
    def test_a_repeated_record_is_rejected(self, tmp_path, record):
        def edit(lines):  # the repeat is the line after the file's end
            lines += lines[1:2] if record == "arch" else lines[-2:]
        err = self._load_edited(tmp_path, [2, 3], edit)
        assert err.line == 7 and f"a second {record} record" in str(err)

    def test_a_param_of_no_listed_layer_is_rejected(self, tmp_path):
        def edit(lines):
            lines[1] = "arch generator relu"  # one layer of the file's two
        err = self._load_edited(tmp_path, [2, 4, 3], edit)
        assert err.line == 7 and "generator.layer1.weight is of no layer" in str(err)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_a_non_finite_value_is_rejected(self, tmp_path, value):
        def edit(lines):
            lines[3] = " ".join([value] + lines[3].split()[1:])
        err = self._load_edited(tmp_path, [2, 3], edit)
        assert err.line == 4 and "non-finite value" in str(err)

    @pytest.mark.parametrize("header, values, line, message", [
        ("param generator.layer0.weight 6", None, 3, "shape (6,) is not 2-D"),
        ("param generator.layer0.weight 0 2", "", 3, "shape (0, 2) is not 2-D"),
        ("param generator.layer0.weight -3 -2", None, 3, "expected 'param <name> <dims...>'"),
        ("param generator.layer0.bias 3 1", None, 5, "shape (3, 1) for a weight of 3 rows"),
        ("param generator.layer0.bias 4", "0 0 0 0", 5, "shape (4,) for a weight of 3 rows"),
    ], ids=["weight_1d", "weight_of_no_rows", "negative_dims", "bias_2d",
            "bias_of_another_length"])
    def test_a_weight_or_bias_of_the_wrong_shape_is_rejected(self, tmp_path, header, values,
                                                             line, message):
        def edit(lines):
            lines[line - 1] = header
            if values is not None:
                lines[line] = values
        err = self._load_edited(tmp_path, [2, 3], edit)
        assert err.line == line and message in str(err)

    def test_layers_whose_widths_do_not_chain_are_rejected(self, tmp_path):
        def edit(lines):  # layer 1 takes 3 inputs where layer 0 gives 4
            lines[6] = "param generator.layer1.weight 3 3"
            lines[7] = " ".join(["0.5"] * 9)
        err = self._load_edited(tmp_path, [2, 4, 3], edit)
        assert err.line == 7 and "takes 3 inputs, layer 0 gives 4" in str(err)
