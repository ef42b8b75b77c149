"""Regenerate the reference trajectories the benchmark checks against.

    python3 bench/make_reference.py [workload ...]

Trains every pool input of each workload once (timing off) and writes its
metrics CSV to ``bench/reference/``; an input whose run fails gets none.
Run it only when the training behaviour is meant to change, and say why in
the change.
"""
import sys
import tempfile
from pathlib import Path

import program  # pins BLAS threads; numpy is imported only after it
import run
import workloads


def main(names) -> int:
    program.load()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or list(workloads.WORKLOADS):
            wl = workloads.get(name)
            for pool_seed in workloads.POOL:
                op = run.run_op(wl, pool_seed, Path(tmp), check=False)
                if op.error is not None:
                    print(f"{name} seed {pool_seed}: {op.error}", file=sys.stderr)
                    status = 1
                    continue
                wl.reference_path(pool_seed).write_text(op.csv)
                reached = run.time_to_acc(op.metrics, wl.acc_threshold)
                print(f"{name} seed {pool_seed}: final acc "
                      f"{op.metrics[-1].target_acc:.3f}, threshold "
                      f"{wl.acc_threshold} after {reached:.2f} s", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
