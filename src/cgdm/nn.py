"""Small MLPs, Glorot-uniform init, momentum SGD, and text checkpoints.

An MLP's parameters may be stacked on a leading head axis: :func:`stack`
makes one network of H heads of one architecture, whose layers hold
H-by-out-by-in weights and H-by-out biases, so a forward of a shared batch
records one :func:`~cgdm.tensor.linear` node per layer for all H heads.  The
two classifier heads are such a stack.  Checkpoints store each head as a net
of its own (:func:`save_params`).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import ParseError, cell
from .tensor import ContractError, ShapeError, Tensor, linear

__all__ = ["Layer", "Mlp", "init_mlp", "stack", "unstack", "forward", "layer_taps",
           "SgdOptimizer", "save_params", "load_params"]


@dataclass
class Layer:
    weight: Tensor  # out-by-in, or H-by-out-by-in for stacked heads
    bias: Tensor  # out, or H-by-out
    activation: str  # "relu" or "none"


@dataclass
class Mlp:
    layers: list

    def parameters(self) -> list:
        params = []
        for layer in self.layers:
            params.append(layer.weight)
            params.append(layer.bias)
        return params

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[-2]


def init_mlp(layer_dims, seed: int, final_activation: str = "none") -> Mlp:
    """Build an MLP with Glorot-uniform weights and zero biases.

    ``layer_dims`` is [in, hidden..., out]; hidden layers use relu and the
    final layer uses ``final_activation``.  Deterministic for a given seed.
    """
    dims = list(layer_dims)
    if len(dims) < 2:
        raise ContractError("init_mlp needs at least [in, out] dims")
    if any(d <= 0 for d in dims):
        raise ContractError(f"layer dims must be positive, got {dims}")
    rng = np.random.default_rng(seed)
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        bound = np.sqrt(6.0 / (d_in + d_out))
        w = rng.uniform(-bound, bound, size=(d_out, d_in))
        act = final_activation if i == len(dims) - 2 else "relu"
        layers.append(Layer(Tensor(w), Tensor(np.zeros(d_out)), act))
    return Mlp(layers)


def stack(nets) -> Mlp:
    """Nets of one architecture as one network of stacked heads: head h's
    slices of each layer's weight and bias hold the values of ``nets[h]``."""
    nets = list(nets)
    shapes = {tuple((layer.weight.shape, layer.bias.shape, layer.activation)
                    for layer in net.layers) for net in nets}
    if len(shapes) != 1 or nets[0].layers[0].weight.values.ndim != 2:
        raise ContractError("stack takes unstacked nets of one architecture")
    return Mlp([Layer(Tensor(np.stack([net.layers[i].weight.values for net in nets])),
                      Tensor(np.stack([net.layers[i].bias.values for net in nets])),
                      layer.activation)
                for i, layer in enumerate(nets[0].layers)])


def unstack(net: Mlp) -> list:
    """Each head of a stacked network as a net of its own, whose parameters
    are views of the head's slices."""
    return [Mlp([Layer(Tensor(layer.weight.values[h]), Tensor(layer.bias.values[h]),
                       layer.activation) for layer in net.layers])
            for h in range(net.layers[0].weight.shape[0])]


def forward(net: Mlp, x: Tensor) -> Tensor:
    """One fused :func:`~cgdm.tensor.linear` node per layer, its activation
    included; recorded on the active graph.  A network of stacked heads maps
    the shared b-by-in batch to an H-by-b-by-out stack.  A joint batch of
    both domains is one batch: each layer is one node over all its rows."""
    if x.values.ndim != 2:
        raise ShapeError(f"forward expects a b-by-in batch, got {x.shape}")
    if x.shape[1] != net.in_dim:
        raise ShapeError(
            f"input dim {x.shape[1]} does not match first layer ({net.in_dim})"
        )
    h = x
    for layer in net.layers:
        h = linear(h, layer.weight, layer.bias, layer.activation == "relu")
    return h


def layer_taps(net: Mlp, out: Tensor) -> list:
    """(input, layer node) of every layer, first layer first, read back from
    the graph of an ``out = forward(net, x)`` recorded with grad on.  The
    node's output is the layer's activation; its pre-activation is not kept."""
    taps = []
    for layer in reversed(net.layers):
        if out.op != "linear" or out.parents[1] is not layer.weight:
            raise ContractError("layer_taps needs a recorded forward(net, x) output")
        taps.append((out.parents[0], out))
        out = out.parents[0]
    return taps[::-1]


@dataclass
class SgdOptimizer:
    """Momentum SGD with weight decay.

    Update per parameter: g <- g + wd*theta; v <- momentum*v + g;
    theta <- theta - lr*v.  The velocity and the parameter are updated in
    place, with the same operations in the same order, and one scratch array
    per parameter holds ``wd*theta``, then ``g + wd*theta``, then ``lr*v``;
    the gradients are only read.  Velocities persist across steps so partial
    updates (classifier-only / generator-only) keep their momentum state.
    """

    params: list
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocities: dict = field(default_factory=dict)

    def step(self, grads: dict) -> None:
        for p in self.params:
            g = grads.get(p)
            g_vals = np.zeros_like(p.values) if g is None else g.values
            if g_vals.shape != p.values.shape:
                raise ContractError(
                    f"grad shape {g_vals.shape} != param shape {p.values.shape}"
                )
            scratch = None  # made by the first product; out passed by position
            if self.weight_decay:
                scratch = np.multiply(self.weight_decay, p.values)
                g_vals = np.add(g_vals, scratch, scratch)
            v = self.velocities.get(id(p))
            if v is None:
                v = self.velocities[id(p)] = np.zeros_like(p.values)
            v *= self.momentum
            v += g_vals
            p.values -= np.multiply(self.lr, v, scratch)


def save_params(named_nets: dict, path) -> None:
    """Write parameters as a stable text checkpoint.

    Format (one record per parameter, row-major values with 17 significant
    digits)::

        # cgdm checkpoint v1
        arch <net> <act0>,<act1>,...
        param <net>.layer<i>.weight <out> <in>
        <values on one line>
        param <net>.layer<i>.bias <out>
        <values on one line>

    An activation is ``relu`` or ``none``.  A network of H stacked heads
    named ``<net>`` is written as the H nets ``<net>1`` ... ``<net>H``, one
    per head, so the classifier pair is ``classifier1`` and ``classifier2``.
    :func:`load_params` takes a file only if it holds one ``arch`` record per
    net and one ``param`` record per parameter, each of a layer its net's
    ``arch`` lists, with finite values; each weight is 2-D of positive sizes,
    its bias 1-D with the weight's row count, and each layer after the first
    takes as many inputs as the layer before gives.
    """
    nets = {}
    for name, net in named_nets.items():
        if net.layers[0].weight.values.ndim == 3:
            nets.update((f"{name}{h}", head) for h, head in enumerate(unstack(net), 1))
        else:
            nets[name] = net
    lines = ["# cgdm checkpoint v1"]
    for name, net in nets.items():
        acts = ",".join(layer.activation for layer in net.layers)
        lines.append(f"arch {name} {acts}")
    for name, net in nets.items():
        for i, layer in enumerate(net.layers):
            for kind, t in (("weight", layer.weight), ("bias", layer.bias)):
                dims = " ".join(str(d) for d in t.shape)
                lines.append(f"param {name}.layer{i}.{kind} {dims}")
                lines.append(" ".join(map(cell, t.values.reshape(-1))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path) -> dict:
    """Read a checkpoint written by :func:`save_params` into fresh Mlps.

    The nets ``<net>1``, ``<net>2``, ... of two or more heads, numbered from
    1, are stacked back into the network ``<net>``; their layers must have
    one shape and activation.  A malformed or truncated file, or one that
    breaks a rule of :func:`save_params`, raises
    :class:`~cgdm.data.ParseError` with the 1-based line number of the
    offending record (the line after the file for a missing one).
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    acts = {}
    arch_lines = {}
    params = {}  # name -> (values, line of its param record)
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("arch "):
            parts = line.split(" ", 2)
            if len(parts) != 3:
                raise ParseError("expected 'arch <net> <activations>'", line=i + 1)
            if parts[1] in acts:
                raise ParseError(f"a second arch record of {parts[1]}", line=i + 1)
            acts[parts[1]] = parts[2].split(",")
            arch_lines[parts[1]] = i + 1
            for act in acts[parts[1]]:
                if act not in ("relu", "none"):
                    raise ParseError(f"activation {act!r} is neither relu nor none",
                                     line=i + 1)
        elif line.startswith("param "):
            parts = line.split()
            if len(parts) < 2 or not all(d.isascii() and d.isdigit() for d in parts[2:]):
                raise ParseError("expected 'param <name> <dims...>'", line=i + 1)
            full, shape = parts[1], tuple(int(d) for d in parts[2:])
            if full in params:
                raise ParseError(f"a second param record of {full}", line=i + 1)
            i += 1
            if i == len(lines):
                raise ParseError(f"{full}: missing values line", line=i + 1)
            try:
                vals = np.array([float(v) for v in lines[i].split()])
            except ValueError as err:
                raise ParseError(f"{full}: {err}", line=i + 1) from None
            if vals.size != math.prod(shape):
                raise ParseError(
                    f"{full}: expected {math.prod(shape)} values, got {vals.size}",
                    line=i + 1,
                )
            if not np.isfinite(vals).all():
                raise ParseError(f"{full}: non-finite value", line=i + 1)
            params[full] = (vals.reshape(shape), i)
        i += 1

    listed = {f"{name}.layer{j}.{kind}" for name, act_list in acts.items()
              for j in range(len(act_list)) for kind in ("weight", "bias")}
    for full, (_, line) in params.items():
        if full not in listed:
            raise ParseError(f"{full} is of no layer an arch record lists", line=line)
    nets = {}
    for name, act_list in acts.items():
        layers = []
        for j, act in enumerate(act_list):
            try:
                w, w_line = params[f"{name}.layer{j}.weight"]
                b, b_line = params[f"{name}.layer{j}.bias"]
            except KeyError as err:
                raise ParseError(f"missing parameter {err}", line=len(lines) + 1) from None
            if w.ndim != 2 or 0 in w.shape:
                raise ParseError(f"{name}.layer{j}.weight: shape {w.shape} is not 2-D "
                                 "of positive sizes", line=w_line)
            if b.shape != (w.shape[0],):
                raise ParseError(f"{name}.layer{j}.bias: shape {b.shape} for a weight of "
                                 f"{w.shape[0]} rows", line=b_line)
            if layers and w.shape[1] != layers[-1].weight.shape[0]:
                raise ParseError(f"{name}.layer{j}.weight: takes {w.shape[1]} inputs, "
                                 f"layer {j - 1} gives {layers[-1].weight.shape[0]}",
                                 line=w_line)
            layers.append(Layer(Tensor(w), Tensor(b), act))
        nets[name] = Mlp(layers)
    for stem in sorted({name[:-1] for name in nets if name.endswith("1")}):
        names = list(itertools.takewhile(
            nets.__contains__, (f"{stem}{h}" for h in itertools.count(1))))
        if len(names) < 2:
            continue
        if stem in nets:
            raise ParseError(f"{stem} is a net and the name of heads {names}",
                             line=arch_lines[stem])
        first = [(layer.weight.shape, layer.activation) for layer in nets[names[0]].layers]
        for name in names[1:]:
            if [(layer.weight.shape, layer.activation)
                    for layer in nets[name].layers] != first:
                raise ParseError(f"{name}: layers differ from those of {names[0]}, "
                                 f"a head of the same network", line=arch_lines[name])
        nets[stem] = stack(nets.pop(name) for name in names)
    return nets
