"""The benchmark's workloads and the inputs each one trains on.

A workload is one ``trainer.train`` configuration.  Its inputs come from a
fixed pool of data seeds (``POOL``); every pool seed has a committed
reference trajectory under ``reference/`` that the run's output is checked
against.  The ``--seed`` of a run decides the order in which the pool is
trained, so the same seed gives the same inputs.  A run trains whole passes
over the pool, so accuracy figures always cover the same inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

POOL = tuple(range(8))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variant: str  # key of harness.VARIANTS
    experiment: dict  # ExperimentConfig overrides (dataset shape)
    train: dict  # TrainConfig overrides
    acc_threshold: float  # target accuracy that time_to_acc_s waits for
    tail_pct: float  # percentile reported as epoch_s_tail
    # "object_chain" or "model_pass": the speed.Yardstick whose mix of
    # interpreter and BLAS time matches the workload's
    yardstick: str
    # seconds of one yardstick unit on the reference host's unshared core
    # (``python3 bench/speed.py``); scales reference seconds, see speed.py
    ref_unit_s: float

    def experiment_config(self):
        from cgdm import harness, trainer

        return harness.ExperimentConfig(
            train=trainer.TrainConfig(**self.train), **self.experiment
        )

    def reference_path(self, pool_seed: int) -> Path:
        return REFERENCE_DIR / f"{self.name}_seed{pool_seed:02d}.csv"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="moons_gdm",
            why="small overhead-bound GDM run; step-3 double backward is ~80% "
                "of an epoch, so per-node Python cost dominates",
            variant="cgdm_full",
            experiment=dict(dataset="two_moons", moons_n=500),
            train=dict(epochs=10, batch_size=64, step3_repeats=4),
            acc_threshold=0.8,
            tail_pct=90.0,
            yardstick="object_chain",
            ref_unit_s=4.2e-4,
        ),
        Workload(
            name="blobs_conditional",
            why="conditional GDM on blobs 4x8x125: every step-3 repeat re-forwards "
                "each of the K shared classes and runs 2K create-graph backward "
                "passes",
            variant="cgdm_full",
            experiment=dict(dataset="blobs", blobs_classes=4, blobs_dim=8,
                            blobs_n_per_class=125),
            train=dict(epochs=4, batch_size=64, step3_repeats=4,
                       conditional_gdm=True),
            acc_threshold=0.95,
            tail_pct=75.0,
            yardstick="object_chain",
            ref_unit_s=4.2e-4,
        ),
        Workload(
            name="blobs_wide_first_order",
            why="wide first-order run (no GDM): matmul arithmetic, pseudo labels "
                "and evaluate dominate; a step-3 speedup should not move it",
            variant="cgdm_wo_gdm",
            experiment=dict(dataset="blobs", blobs_classes=8, blobs_dim=64,
                            blobs_n_per_class=500),
            train=dict(epochs=4, batch_size=256, generator_hidden=(256,),
                       feature_dim=128, classifier_hidden=(128,)),
            acc_threshold=0.95,
            tail_pct=70.0,
            yardstick="model_pass",
            ref_unit_s=1.3e-3,
        ),
    )
}


def get(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}"
        ) from None
