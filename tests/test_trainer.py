"""Minibatch plans and whole training runs against the committed benchmark
reference trajectories."""
import math
import signal
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cgdm import harness, trainer
from cgdm.tensor import ContractError

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "bench" / "reference"
LOSS_RTOL = 1e-9  # the benchmark's trajectory tolerance; accuracies are exact


@contextmanager
def time_limit(seconds):
    """Turn a hang into a failure: raise TimeoutError after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestEpochBatches:
    def test_equal_sized_pairs_cover_the_longer_domain(self):
        plan = trainer.epoch_batches(10, 7, 4, np.random.default_rng(0))
        assert len(plan) == 3
        src = np.concatenate([s for s, _ in plan])
        tgt = np.concatenate([t for _, t in plan])
        assert sorted(src[:10]) == list(range(10))
        assert sorted(tgt[:7]) == list(range(7))

    @pytest.mark.parametrize("n_source, n_target", [(0, 5), (5, 0), (0, None)])
    def test_empty_set_rejected(self, n_source, n_target):
        with time_limit(2.0), pytest.raises(ContractError):
            trainer.epoch_batches(n_source, n_target, 4, np.random.default_rng(0))


# the benchmark's moons_gdm and blobs_conditional workloads (bench/workloads.py)
WORKLOADS = {
    "moons_gdm": (dict(dataset="two_moons", moons_n=500),
                  dict(batch_size=64, step3_repeats=4)),
    "blobs_conditional": (dict(dataset="blobs", blobs_classes=4, blobs_dim=8,
                               blobs_n_per_class=125),
                          dict(batch_size=64, step3_repeats=4, conditional_gdm=True)),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_epochs_follow_the_reference_trajectory(name):
    """Two adversarial epochs on pool seed 0 reproduce the first rows of the
    committed reference: losses to 1e-9 relative, accuracies exactly."""
    experiment, train = WORKLOADS[name]
    ecfg = harness.ExperimentConfig(train=trainer.TrainConfig(epochs=2, **train),
                                    **experiment)
    source, target = harness.build_datasets(ecfg, 0)
    cfg = harness.variant_config(ecfg.train, "cgdm_full", 0)
    metrics, _ = trainer.train(source, target, cfg)
    reference = harness.read_metrics_csv(REFERENCE_DIR / f"{name}_seed00.csv")
    want = reference[:cfg.warmup_epochs + cfg.epochs]
    assert len(metrics) == len(want) == 3
    for got, ref in zip(metrics, want):
        assert got.epoch == ref.epoch
        for field in ("loss_cls", "loss_dis", "loss_gd", "loss_cb"):
            a, b = getattr(got, field), getattr(ref, field)
            if math.isnan(b):
                assert math.isnan(a), (got.epoch, field)
            else:
                assert math.isclose(a, b, rel_tol=LOSS_RTOL, abs_tol=0.0), (
                    got.epoch, field, a, b)
        assert got.target_acc == ref.target_acc
        assert got.pseudo_acc == ref.pseudo_acc or (
            math.isnan(got.pseudo_acc) and math.isnan(ref.pseudo_acc))
