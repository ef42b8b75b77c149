"""Checks of the benchmark itself.  Not collected by the repository's test
run (the name does not start with ``test_``); run them with::

    python3 -m pytest -q bench/selftest.py
"""
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import program
import run
import speed
import tracing
import workloads

program.load()

from cgdm import grad_discrepancy, harness, tensor, trainer  # noqa: E402


def shortened(name, **train):
    """The workload with one adversarial epoch (and any other overrides)."""
    wl = workloads.get(name)
    return dataclasses.replace(wl, train={**wl.train, "epochs": 1, **train})


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_counts_every_backward_call(name, tmp_path):
    wl = shortened(name)
    with tracing.Tracer(count_graph=True) as tracer:
        op = run.run_op(wl, 0, tmp_path, check=False)
    assert op.error is None
    iters = tracer.iterations
    repeats = wl.experiment_config().train.step3_repeats
    assert iters > 0
    # steps 1 and 2 once, step 3 once per repeat, all first order
    assert tracer.step_backward["first"] == (1 + 1 + repeats) * iters
    gradients = (tracer.calls["grad_discrepancy.source_gradient"]
                 + tracer.calls["grad_discrepancy.target_gradient"])
    assert tracer.step_backward["cg"] == gradients
    if name == "moons_gdm":
        assert tracer.step_backward["cg"] == 2 * repeats * iters
    elif name == "blobs_conditional":  # 2 per shared class and repeat
        assert tracer.step_backward["cg"] >= 2 * repeats * iters
    else:
        assert tracer.step_backward["cg"] == 0
    assert tracer.walks == sum(tracer.step_backward.values())


def test_tracer_rebinds_every_lookup_site_and_restores_them():
    originals = (tensor.backward, trainer.evaluate,
                 trainer.CgdmTrainer.step3_update)
    with tracing.Tracer():
        assert trainer.backward is not originals[0]
        assert grad_discrepancy.backward is trainer.backward
        assert tensor.backward is trainer.backward
        assert trainer.evaluate is not originals[1]
        assert trainer.CgdmTrainer.step3_update is not originals[2]
    assert trainer.backward is grad_discrepancy.backward is originals[0]
    assert (trainer.evaluate, trainer.CgdmTrainer.step3_update) == originals[1:]


def test_speed_probe_samples_every_iteration_of_every_epoch():
    wl = shortened("moons_gdm")
    ecfg = wl.experiment_config()
    source, target = harness.build_datasets(ecfg, 0)
    cfg = harness.variant_config(ecfg.train, wl.variant, 0)
    original = trainer.epoch_batches
    with speed.SpeedProbe(speed.yardstick(wl, source, cfg)) as probe:
        assert trainer.epoch_batches is not original
        metrics, _ = trainer.train(source, target, cfg)
    assert trainer.epoch_batches is original
    warm_iters = -(-source.n // cfg.batch_size)
    adv_iters = -(-max(source.n, target.n) // cfg.batch_size)
    assert [len(s) for s in probe.epochs] == (
        [warm_iters] * cfg.warmup_epochs + [adv_iters] * cfg.epochs)
    raw, reference = probe.epoch_seconds(metrics)
    assert all(0 < r < m.seconds for r, m in zip(raw, metrics))
    assert all(seconds > 0 for seconds in reference)
    with pytest.raises(RuntimeError):
        probe.epoch_seconds(metrics[:-1])


def test_normalised_drops_sample_time_and_scales_by_speed():
    wl = workloads.get("blobs_wide_first_order")
    ecfg = wl.experiment_config()
    source, _ = harness.build_datasets(ecfg, 0)
    assert speed.yardstick(wl, source, ecfg.train).unit() == 8  # 4 layers, 2 ways
    yardstick = speed.ObjectChain(ref_unit_s=1e-3)
    # a core at half the reference speed: one unit takes twice ref_unit_s
    samples = [(0.1, 2e-3), (0.2, 2e-3)]
    assert speed.unsampled(1.3, samples) == pytest.approx(1.0)
    assert yardstick.normalised(1.3, samples) == pytest.approx(0.5)


def test_walk_applies_the_backward_needed_rule():
    a, b = tensor.Tensor(1.0), tensor.Tensor(2.0)
    c = tensor.mul(a, b)
    d = tensor.add(c, b)
    order, needed = tracing.walk(d, [a])
    assert len(order) == 4 and order[-1] is d
    assert needed == 3  # a, c, d; b leads to no wrt tensor


def test_traced_trajectory_equals_untraced(tmp_path):
    wl = shortened("moons_gdm")
    with tracing.Tracer(count_graph=True):
        traced = run.run_op(wl, 3, tmp_path, check=False)
    untraced = run.run_op(wl, 3, tmp_path, check=False)
    assert traced.error is None and untraced.error is None
    assert traced.csv == untraced.csv


def test_output_matches_committed_reference(tmp_path):
    op = run.run_op(workloads.get("moons_gdm"), 2, tmp_path)
    assert op.error is None


def test_trajectory_check_tolerances(tmp_path):
    ref = harness.read_metrics_csv(workloads.get("moons_gdm").reference_path(0))
    assert run.trajectory_mismatch(ref, ref) is None
    last = ref[-1]
    close = ref[:-1] + [dataclasses.replace(last, loss_cls=last.loss_cls * (1 + 1e-10))]
    assert run.trajectory_mismatch(close, ref) is None
    far = ref[:-1] + [dataclasses.replace(last, loss_cls=last.loss_cls * (1 + 1e-8))]
    assert "loss_cls" in run.trajectory_mismatch(far, ref)
    acc = ref[:-1] + [dataclasses.replace(last, target_acc=last.target_acc + 1e-12)]
    assert "target_acc" in run.trajectory_mismatch(acc, ref)
    assert run.trajectory_mismatch(ref[:-1], ref) is not None


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_diverging_run_is_recorded_and_the_next_run_goes_on(tmp_path):
    diverging = shortened("moons_gdm", lr=50.0)
    ops = [run.run_op(diverging, 0, tmp_path, check=False),
           run.run_op(workloads.get("moons_gdm"), 0, tmp_path)]
    assert [op.error for op in ops] == ["DomainError", None]


def test_seed_orders_the_whole_pool():
    assert run.pool_order(7) == run.pool_order(7)
    assert sorted(run.pool_order(7)) == list(workloads.POOL)
    assert run.pool_order(7) != run.pool_order(8)


def test_every_declared_metric_is_reported(tmp_path):
    spec = json.loads((program.CHECKOUT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = {m["name"] for m in spec["per_layer"]}
    wl = shortened("moons_gdm")
    with tracing.Tracer(count_graph=True) as counted:
        op = run.run_op(wl, 0, tmp_path, check=False)
    values = run.per_layer(wl, counted, counted, [op], [op])
    assert set(values) == names


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(program.CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(program.CHECKOUT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "moons_gdm", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
