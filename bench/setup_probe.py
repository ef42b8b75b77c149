"""Child process that measures set-up: ``setup_probe.py <workload> <pool seed>``.

Imports the program, builds the workload's datasets, model and trainer, then
prints ``time.monotonic()``: the moment the first training step could start.
"""
import sys
import time

import program  # pins BLAS threads; numpy is imported only after it
import workloads


def main() -> None:
    program.load()
    from cgdm import harness, trainer

    wl = workloads.get(sys.argv[1])
    pool_seed = int(sys.argv[2])
    ecfg = wl.experiment_config()
    source, target = harness.build_datasets(ecfg, pool_seed)
    cfg = harness.variant_config(ecfg.train, wl.variant, pool_seed)
    num_classes = int(source.labels.max()) + 1
    trainer.CgdmTrainer(cfg, trainer.build_model(source.dim, num_classes, cfg))
    print(time.monotonic())


if __name__ == "__main__":
    main()
