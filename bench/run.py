"""Benchmark of the cgdm trainer: end-to-end time and accuracy, or a traced
per-layer breakdown, for one workload.

Run from the root of a checkout::

    python3 bench/run.py --workload moons_gdm --seed 0 --seconds 35 --trace 0

One process, one training thread, BLAS pinned to one thread.  A run trains
the workload (``workloads.py``) on pool inputs in an order drawn from
``--seed``, one ``trainer.train`` call after another, until ``--seconds`` have
passed.  Every call's trajectory is written with ``harness.write_metrics_csv``
(timing off) and compared with the committed reference for its input: losses
within 1e-9 relative, accuracies exact.  An exception, a non-finite loss or a
mismatch marks that call failed; the run goes on with the next one.

Times are in reference seconds (``speed.py``): the core's speed is sampled
before every training iteration and each epoch's seconds are converted to the
time it takes on the reference core, because on a shared host the speed of a
core swings by about 1.7x for seconds to minutes at a time.  The detail line
also gives the raw figures.  The process is pinned to one CPU, so the samples
and the training (and the set-up probes it starts) share a core.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` reports its per-layer metrics: a call on the first pool input
is traced with graph walks for the counts, then traced and untraced calls on
the same input alternate for the times, the trace overhead and the check
that tracing does not change the trajectory.

The last line of standard output is the result object; the line before it
holds the details (environment, inputs trained, errors).
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import program  # pins BLAS threads; numpy is imported only after it
import speed
import tracing
import workloads

SETUP_PROBES = 9
SETUP_SPEED_SAMPLES = 3  # before and after each set-up probe
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 70.0, 60.0)
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
OUT_ROOT = program.CHECKOUT / ".bench_out"
LOSS_RTOL = 1e-9
LOSS_FIELDS = ("loss_cls", "loss_dis", "loss_gd", "loss_cb")
EXACT_FIELDS = ("epoch", "target_acc", "pseudo_acc", "seconds")


@dataclass
class Op:
    """One ``trainer.train`` call and what came of it."""

    pool_seed: int
    metrics: list | None = None  # EpochMetrics, None if training raised
    epoch_s: list | None = None  # each epoch's seconds in reference seconds
    epoch_raw_s: list | None = None  # and in seconds, less the speed samples
    wall_s: float = 0.0
    samples: int = 0
    csv: str = ""
    error: str | None = None


def pool_order(seed: int) -> list:
    import numpy as np

    return [int(s) for s in np.random.default_rng(seed).permutation(workloads.POOL)]


def samples_consumed(source, target, cfg) -> int:
    """Source plus target samples one training call draws."""
    warm_iters = -(-source.n // cfg.batch_size)
    adv_iters = -(-max(source.n, target.n) // cfg.batch_size)
    per_adv_iter = 2 * cfg.batch_size if cfg.enable_adversarial else cfg.batch_size
    return cfg.batch_size * warm_iters * cfg.warmup_epochs + (
        per_adv_iter * adv_iters * cfg.epochs
    )


def _same(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b if rtol == 0 else math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def trajectory_mismatch(got: list, want: list) -> str | None:
    """First difference between two metrics trajectories, or None."""
    if len(got) != len(want):
        return f"{len(got)} epochs, reference has {len(want)}"
    for g, w in zip(got, want):
        for name in LOSS_FIELDS + EXACT_FIELDS:
            rtol = LOSS_RTOL if name in LOSS_FIELDS else 0.0
            a, b = float(getattr(g, name)), float(getattr(w, name))
            if not _same(a, b, rtol):
                return f"epoch {w.epoch} {name}: {a!r} != reference {b!r}"
    return None


def nonfinite_loss(metrics) -> bool:
    """The failure rule of ``harness``: NaN only marks a loss not computed."""
    return any(
        not math.isfinite(m.loss_cls)
        or any(math.isinf(getattr(m, f)) for f in LOSS_FIELDS[1:])
        for m in metrics
    )


def run_op(wl, pool_seed: int, out_dir: Path, check: bool = True) -> Op:
    """Train ``wl`` on one pool input; record any failure instead of raising."""
    from cgdm import harness, trainer

    op = Op(pool_seed)
    try:
        ecfg = wl.experiment_config()
        source, target = harness.build_datasets(ecfg, pool_seed)
        cfg = harness.variant_config(ecfg.train, wl.variant, pool_seed)
        op.samples = samples_consumed(source, target, cfg)
        t0 = time.perf_counter()
        with speed.SpeedProbe(speed.yardstick(wl, source, cfg)) as probe:
            op.metrics, _ = trainer.train(source, target, cfg)
        op.wall_s = time.perf_counter() - t0
        op.epoch_raw_s, op.epoch_s = probe.epoch_seconds(op.metrics)
        path = out_dir / f"{wl.name}_seed{pool_seed:02d}.csv"
        harness.write_metrics_csv(op.metrics, path)
        op.csv = path.read_text()
    except Exception as err:  # a failed run must not stop the others
        op.error = type(err).__name__
        return op
    if nonfinite_loss(op.metrics):
        op.error = "NonFiniteLoss"
    elif check:
        ref = wl.reference_path(pool_seed)
        if not ref.is_file():
            op.error = "MissingReference"
        else:
            diff = trajectory_mismatch(harness.read_metrics_csv(path),
                                       harness.read_metrics_csv(ref))
            if diff is not None:
                op.error = "TrajectoryMismatch"
                print(f"{wl.name} seed {pool_seed}: {diff}", file=sys.stderr)
    return op


def time_to_acc(op, threshold: float) -> float:
    """Reference seconds until target accuracy first reaches ``threshold``.

    An input that never gets there counts as infinitely slow.
    """
    elapsed = 0.0
    for m, seconds in zip(op.metrics, op.epoch_s):
        elapsed += seconds
        if m.target_acc >= threshold:
            return elapsed
    return math.inf


def setup_seconds(wl, pool_seed: int, yardstick) -> tuple[float, float]:
    """Process start to the first training step, measured from outside.

    The probe prints ``time.monotonic()`` when its trainer is ready; on Linux
    that clock is shared by all processes, so the difference to the moment
    before spawning covers interpreter start, imports, data and model.
    Returns (reference seconds, raw seconds); the speed samples are taken
    right before and after the probe, on the core the probe runs on.
    """
    samples = [yardstick.sample() for _ in range(SETUP_SPEED_SAMPLES)]
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(PROBE), wl.name, str(pool_seed)],
        cwd=program.CHECKOUT, capture_output=True, text=True, timeout=120,
        check=True,
    )
    raw = float(out.stdout.split()[-1]) - t0
    samples += [yardstick.sample() for _ in range(SETUP_SPEED_SAMPLES)]
    return raw * yardstick.factor(samples), raw


def adversarial_epochs(ops, warmup_epochs, raw=False):
    """Adversarial epoch times of ``ops``: reference seconds, or raw seconds."""
    return [seconds for op in ops
            for m, seconds in zip(op.metrics, op.epoch_raw_s if raw else op.epoch_s)
            if m.epoch > warmup_epochs]


def end_to_end(wl, ops, setups) -> tuple[dict, dict]:
    import numpy as np

    warmup = wl.experiment_config().train.warmup_epochs
    good = [op for op in ops if op.error is None]
    # accuracy figures over whole passes only, so every run covers the same inputs
    passes = len(ops) // len(workloads.POOL)
    whole = [op for op in ops[:passes * len(workloads.POOL)] if op.error is None]
    epochs = adversarial_epochs(good, warmup)
    n = len(epochs)
    # mean over the inputs that reach the threshold; which ones do is fixed
    # by the reference trajectories, so every run averages the same inputs
    to_acc = [time_to_acc(op, wl.acc_threshold) for op in whole]
    reached = [t for t in to_acc if math.isfinite(t)]
    # the workload's percentile, lowered until >= 10 epochs lie beyond it
    pct = next((p for p in TAIL_LADDER if p <= wl.tail_pct and n * (100 - p) >= 1000),
               50.0)
    values = {
        "setup_s": float(np.median([ref for ref, _ in setups])),
        "samples_per_s": sum(op.samples for op in good)
        / max(sum(sum(op.epoch_s) for op in good), 1e-12),
        "epoch_s_p50": float(np.median(epochs)) if epochs else 0.0,
        "epoch_s_tail": float(np.percentile(epochs, pct)) if epochs else 0.0,
        "time_to_acc_s": float(np.mean(reached)) if reached else 0.0,
        "target_acc": float(np.median(
            [op.metrics[-1].target_acc for op in whole]
        )) if whole else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_epochs = adversarial_epochs(good, warmup, raw=True)
    detail = {"tail_pct": pct, "adversarial_epochs": n,
              "inputs_below_threshold": len(to_acc) - len(reached),
              "setup_s_samples": [ref for ref, _ in setups],
              "raw": {
                  "setup_s": float(np.median([raw for _, raw in setups])),
                  "samples_per_s": sum(op.samples for op in good)
                  / max(sum(op.wall_s for op in good), 1e-12),
                  "epoch_s_p50": float(np.median(raw_epochs)) if raw_epochs else 0.0,
              }}
    return values, detail


def per_layer(wl, counted: tracing.Tracer, timed: tracing.Tracer, timed_ops,
              twin_ops) -> dict:
    ecfg = wl.experiment_config()
    warmup = ecfg.train.warmup_epochs
    iters = max(counted.iterations, 1)
    repeats = max(counted.calls["trainer.step3"] * ecfg.train.step3_repeats, 1)
    adv = adversarial_epochs(timed_ops, warmup)
    raw_adv = adversarial_epochs(timed_ops, warmup, raw=True)
    warm = [seconds for op in timed_ops
            for m, seconds in zip(op.metrics, op.epoch_s) if m.epoch <= warmup]
    untraced = sum(adversarial_epochs(twin_ops, warmup))
    ms = timed.ms_per_call
    values = {
        "trainer.step1_ms": ms("trainer.step1"),
        "trainer.step2_ms": ms("trainer.step2"),
        "trainer.step3_ms": ms("trainer.step3"),
        "trainer.step3_share": timed.busy["trainer.step3"] / max(sum(raw_adv), 1e-12),
        "trainer.evaluate_ms": ms("trainer.evaluate"),
        "trainer.warmup_epoch_s": sum(warm) / max(len(warm), 1),
        "grad_discrepancy.source_gradient_ms": ms("grad_discrepancy.source_gradient"),
        "grad_discrepancy.target_gradient_ms": ms("grad_discrepancy.target_gradient"),
        "grad_discrepancy.conditional_loss_ms": ms("grad_discrepancy.conditional_loss"),
        "grad_discrepancy.gd_loss_ms": ms("grad_discrepancy.gd_loss"),
        "grad_discrepancy.gradients_per_repeat": (
            counted.calls["grad_discrepancy.source_gradient"]
            + counted.calls["grad_discrepancy.target_gradient"]
        ) / repeats,
        "grad_discrepancy.zero_norm_fallbacks": counted.zero_fallbacks,
        "tensor.backward_calls": sum(counted.step_backward.values()) / iters,
        "tensor.backward_cg_calls": counted.step_backward["cg"] / iters,
        "tensor.backward_ms": ms("tensor.backward_first"),
        "tensor.backward_cg_ms": ms("tensor.backward_cg"),
        "tensor.reachable_nodes": counted.reachable / max(counted.walks, 1),
        "tensor.needed_ratio": counted.needed / max(counted.reachable, 1),
        "nn.forward_calls": counted.step_forward / iters,
        "nn.forward_ms": ms("nn.forward"),
        "nn.sgd_step_ms": ms("nn.sgd_step"),
        "pseudo_labels.epoch_ms": ms("pseudo_labels.epoch"),
        "harness.build_datasets_ms": ms("harness.build_datasets"),
        "harness.write_metrics_ms": ms("harness.write_metrics"),
        "bench.trace_overhead": sum(adv) / max(untraced, 1e-12) - 1.0,
    }
    for kind in tracing.OP_KINDS + ("other",):
        values[f"tensor.nodes.{kind}"] = counted.nodes[kind] / iters
    values["tensor.nodes.total"] = sum(counted.nodes.values()) / iters
    return values


def run_untraced(wl, order, seconds, out_dir):
    from cgdm import harness

    ecfg = wl.experiment_config()
    source, _ = harness.build_datasets(ecfg, order[0])
    yardstick = speed.yardstick(wl, source, ecfg.train)
    deadline = time.perf_counter() + seconds
    ops, setups = [], []
    for done, pool_seed in enumerate(itertools.cycle(order), start=1):
        ops.append(run_op(wl, pool_seed, out_dir))
        # probes between the ops see the same machine as the ops
        if len(setups) < SETUP_PROBES:
            setups.append(setup_seconds(wl, pool_seed, yardstick))
        if (time.perf_counter() >= deadline and done >= len(order)
                and len(setups) == SETUP_PROBES):
            break
    values, detail = end_to_end(wl, ops, setups)
    return ops, values, detail


def run_traced(wl, order, seconds, out_dir):
    deadline = time.perf_counter() + seconds
    ops = []

    def traced_pair(pool_seed, tracer):
        with tracer:
            traced = run_op(wl, pool_seed, out_dir)
        twin = run_op(wl, pool_seed, out_dir)
        if traced.error is None and twin.error is None and traced.csv != twin.csv:
            traced.error = "TracedTrajectoryMismatch"
        ops.extend((traced, twin))
        return traced, twin

    # counts always come from the same input, so they repeat across runs
    counted = tracing.Tracer(count_graph=True)
    traced_pair(workloads.POOL[0], counted)
    timed = tracing.Tracer()
    timed_ops, twin_ops = [], []
    for pool_seed in itertools.cycle(order):
        traced, twin = traced_pair(pool_seed, timed)
        if traced.error is None and twin.error is None:
            timed_ops.append(traced)
            twin_ops.append(twin)
        if time.perf_counter() >= deadline:
            break
    values = per_layer(wl, counted, timed, timed_ops, twin_ops)
    return ops, values, {"timed_pairs": len(timed_ops)}


def declared_metrics(key: str) -> dict:
    spec = json.loads((program.CHECKOUT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program.load()
    # one core for the training, its speed samples and the set-up probes
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    wl = workloads.get(args.workload)
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    order = pool_order(args.seed)
    OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_ROOT) as tmp:
        run = run_traced if args.trace else run_untraced
        ops, values, detail = run(wl, order, args.seconds, Path(tmp))

    missing = set(units) ^ set(values)
    if missing:
        raise SystemExit(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    failed = sum(op.error is not None for op in ops)
    nonfinite = sorted(k for k, v in values.items() if not math.isfinite(v))
    if nonfinite:  # JSON has no inf/NaN; such a run cannot be correct
        detail["nonfinite_metrics"] = nonfinite
        values.update(dict.fromkeys(nonfinite, 0.0))
    detail.update(
        workload=wl.name, seed=args.seed, trace=args.trace,
        environment=dict(program.environment(), nproc=len(cpus), pinned_cpu=min(cpus)),
        inputs=[op.pool_seed for op in ops],
        failed_frac=failed / len(ops),
        errors=dict(Counter(op.error for op in ops if op.error)),
    )
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and not nonfinite,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
