"""Speed of the core the benchmark runs on, sampled between training iterations.

On a shared host the core a run gets slows down by about 1.7x at times (most
likely a neighbour busy on the same physical core), for anything from a
fraction of a second to minutes at a time; CPU time slows with wall time.
Raw seconds then measure the neighbours as much as the program.  So the
benchmark times a fixed piece of work, a :class:`Yardstick` with the same
mix of interpreter and BLAS time as the workload, right before every training
iteration, and converts each epoch's seconds to *reference seconds*: the time
the epoch would take on a core that runs one yardstick unit in the
workload's ``ref_unit_s``.  The two kinds of yardstick:

* :class:`ObjectChain`, for the overhead-bound workloads: a chain of tiny
  matrix products with a Python dict per step.  Epoch time tracks it with a
  correlation of 0.94-0.95 on ``moons_gdm`` and ``blobs_conditional``.
* :class:`ModelPass`, for the BLAS-bound workload: a forward and backward
  pass through a ReLU stack of the workload's model shape.  Epoch time of
  ``blobs_wide_first_order`` tracks it with a correlation of 0.95, where it
  slows only about 0.7x as much (in log terms) as the object chain.

:class:`SpeedProbe` hooks ``trainer.epoch_batches`` wherever it is bound, so
every epoch gets one sample per iteration; the time spent in the samples is
taken out of the epoch's seconds before the conversion.

Run as a script, it prints each workload's yardstick unit time (5th
percentile of many samples), from which ``ref_unit_s`` was set::

    python3 bench/speed.py
"""
from __future__ import annotations

import time

import program  # pins BLAS threads; numpy is imported only after it
import numpy as np

import tracing


class Yardstick:
    """A fixed unit of work and its time on the reference core."""

    units_per_sample = 1

    def __init__(self, ref_unit_s: float):
        self.ref_unit_s = ref_unit_s

    def unit(self) -> int:
        raise NotImplementedError

    def sample(self) -> tuple[float, float]:
        """(seconds spent, seconds per unit) of one speed sample."""
        t0 = time.perf_counter()
        for _ in range(self.units_per_sample):
            self.unit()
        spent = time.perf_counter() - t0
        return spent, spent / self.units_per_sample

    def factor(self, samples) -> float:
        """Reference seconds per measured second over ``samples``."""
        per_unit = sum(p for _, p in samples) / len(samples)
        return self.ref_unit_s / per_unit

    def normalised(self, seconds: float, samples) -> float:
        """``seconds`` that contained ``samples``, in reference seconds."""
        return unsampled(seconds, samples) * self.factor(samples)


class ObjectChain(Yardstick):
    """60 products of a 64x16 by a 16x16 matrix, with a Python dict per step."""

    units_per_sample = 2
    _x = np.linspace(-1.0, 1.0, 64 * 16).reshape(64, 16)
    _w = np.linspace(-0.1, 0.1, 16 * 16).reshape(16, 16)

    def unit(self) -> int:
        nodes = []
        y = self._x
        for i in range(60):
            z = np.maximum(y @ self._w, 0.0) + 0.001
            nodes.append({"value": float(z.sum()), "parents": (len(nodes), i)})
            y = z / (1.0 + abs(nodes[-1]["value"]))
        return len(nodes)


class ModelPass(Yardstick):
    """One forward and backward pass through a ReLU stack of the model's shape.

    The layers have the generator's and one classifier's widths, the batch
    is the training batch size, and each product gets a Python dict.
    """

    def __init__(self, ref_unit_s: float, source, cfg):
        super().__init__(ref_unit_s)
        dims = (source.dim, *cfg.generator_hidden, cfg.feature_dim,
                *cfg.classifier_hidden, int(source.labels.max()) + 1)
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((cfg.batch_size, dims[0]))
        self.weights = [rng.standard_normal((a, b)) * np.sqrt(2.0 / a)
                        for a, b in zip(dims, dims[1:])]

    def unit(self) -> int:
        nodes = []
        h = self.x
        for w in self.weights:
            h = np.maximum(h @ w, 0.0)
            nodes.append({"value": float(h.sum()), "parents": (len(nodes),)})
        for w in reversed(self.weights):
            h = h @ w.T
            nodes.append({"value": float(h.sum()), "parents": (len(nodes),)})
        return len(nodes)


def yardstick(wl, source, cfg) -> Yardstick:
    """The workload's yardstick for a model trained on ``source`` with ``cfg``."""
    if wl.yardstick == "model_pass":
        return ModelPass(wl.ref_unit_s, source, cfg)
    return ObjectChain(wl.ref_unit_s)


def unsampled(seconds: float, samples) -> float:
    """``seconds`` that contained ``samples``, less the time the samples took."""
    return seconds - sum(spent for spent, _ in samples)


class _SampledPlan(list):
    """An epoch's batch plan that takes a speed sample before each batch."""

    def __init__(self, plan, yardstick, samples):
        super().__init__(plan)
        self.yardstick = yardstick
        self.samples = samples

    def __iter__(self):
        for batch in super().__iter__():
            self.samples.append(self.yardstick.sample())
            yield batch


class SpeedProbe:
    """Samples the core's speed before every iteration while entered.

    ``epochs`` holds one list of samples per epoch, in training order.
    """

    def __init__(self, yardstick: Yardstick):
        self.yardstick = yardstick
        self.epochs = []
        self._patches = []

    def __enter__(self):
        from cgdm import trainer

        def epoch_batches(*args, **kwargs):
            self.epochs.append([])
            plan = original(*args, **kwargs)
            return _SampledPlan(plan, self.yardstick, self.epochs[-1])

        original = trainer.epoch_batches
        tracing.rebind(original, epoch_batches, self._patches)
        return self

    def __exit__(self, *exc):
        tracing.restore(self._patches)
        return False

    def epoch_seconds(self, metrics) -> tuple[list, list]:
        """Each epoch's (raw, reference) seconds, aligned with ``metrics``.

        Raw seconds leave out the time the samples took.
        """
        if len(self.epochs) != len(metrics) or not all(self.epochs):
            raise RuntimeError(
                f"{len(metrics)} epochs but speed samples for {len(self.epochs)}"
            )
        pairs = list(zip(metrics, self.epochs))
        return ([unsampled(m.seconds, s) for m, s in pairs],
                [self.yardstick.normalised(m.seconds, s) for m, s in pairs])


def main() -> None:
    import workloads

    program.load()
    from cgdm import harness

    for wl in workloads.WORKLOADS.values():
        ecfg = wl.experiment_config()
        source, _ = harness.build_datasets(ecfg, workloads.POOL[0])
        ruler = yardstick(wl, source, ecfg.train)
        per_unit = [ruler.sample()[1] for _ in range(2000)]
        print(f"{wl.name}: unit p5 {np.percentile(per_unit, 5):.4g} s, "
              f"median {np.median(per_unit):.4g} s, ref_unit_s {wl.ref_unit_s:.4g} s")


if __name__ == "__main__":
    main()
