"""Run-failure rules of the harness and the CLI's exit codes."""
import math

import pytest

from cgdm import cli, harness, nn
from cgdm.trainer import EpochMetrics, TrainConfig


def epoch(n, **losses):
    fields = dict(loss_cls=0.5, loss_dis=0.1, loss_gd=0.2, loss_cb=0.3)
    fields.update(losses)
    return EpochMetrics(epoch=n, target_acc=0.9, pseudo_acc=0.8, seconds=0.0,
                        **fields)


def config(variant):
    return harness.variant_config(TrainConfig(), variant, seed=0)


class TestRunFailed:
    def test_finite_run_passes(self):
        assert not harness._run_failed([epoch(2)], config("cgdm_full"))

    def test_nan_gradient_loss_fails_a_variant_that_computes_it(self):
        metrics = [epoch(2), epoch(3, loss_gd=math.nan)]
        assert harness._run_failed(metrics, config("cgdm_full"))

    def test_nan_marks_a_loss_a_variant_never_computes(self):
        metrics = [epoch(2, loss_gd=math.nan)]
        assert not harness._run_failed(metrics, config("cgdm_wo_gdm"))
        mcd = [epoch(2, loss_gd=math.nan, loss_cb=math.nan)]
        assert not harness._run_failed(mcd, config("mcd"))
        only = [epoch(2, loss_dis=math.nan, loss_gd=math.nan, loss_cb=math.nan)]
        assert not harness._run_failed(only, config("source_only"))

    def test_warmup_epochs_compute_the_source_loss_only(self):
        warm = epoch(1, loss_dis=math.nan, loss_gd=math.nan, loss_cb=math.nan)
        assert not harness._run_failed([warm], config("cgdm_full"))
        assert harness._run_failed([epoch(1, loss_cls=math.nan)], config("cgdm_full"))

    @pytest.mark.parametrize("field", ["loss_cls", "loss_dis", "loss_gd", "loss_cb"])
    def test_infinite_computed_loss_fails(self, field):
        metrics = [epoch(2, **{field: math.inf})]
        assert harness._run_failed(metrics, config("cgdm_full"))


def _export_with(tmp_path, text):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("dataset = two_moons\nmoons_n = 20\nseeds = 0\n")
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_text(text)
    return cli.main(["export-embeddings", "--config", str(cfg), "--model", str(ckpt),
                     "--out", str(tmp_path / "out")])


def test_export_embeddings_with_truncated_checkpoint_exits_1(tmp_path, capsys):
    ckpt = tmp_path / "full.ckpt"
    nn.save_params({"generator": nn.init_mlp([2, 3], seed=1)}, ckpt)
    lines = ckpt.read_text().splitlines()
    code = _export_with(tmp_path, "\n".join(lines[:-1] + [lines[-1].split()[0]]) + "\n")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: line {len(lines)}:")
    assert "Traceback" not in err
    # cut after the header: no generator at all
    assert _export_with(tmp_path, lines[0] + "\n") == 1
    assert "no generator" in capsys.readouterr().err
