"""Config parsing, run failures, metrics CSVs and the CLI's exit codes."""
import dataclasses
import errno
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cgdm import cli, harness, nn, pseudo_labels, trainer
from cgdm.data import (
    DomainSet,
    ParseError,
    load_dataset_csv,
    make_shifted_blobs,
    make_two_moons_pair,
    read_csv,
    save_dataset_csv,
)
from cgdm.tensor import DomainError, Tensor, add
from cgdm.trainer import ConfigError, EpochMetrics, TrainConfig

SMALL = "dataset = two_moons\nmoons_n = 40\nepochs = 1\nseeds = 0\n"


class TestNonFiniteLoss:
    """A non-finite step loss fails the run at that step, in every entry point.

    The patched discrepancy adds NaN or inf to its value only, so every
    gradient stays finite and the first bad value is a tallied step-3 loss.
    """

    @pytest.fixture(params=[math.nan, math.inf], ids=["nan", "inf"])
    def bad(self, request, monkeypatch):
        original = trainer.mean_abs_difference
        monkeypatch.setattr(trainer, "mean_abs_difference",
                            lambda p, start=0: add(original(p, start), request.param))
        return request.param

    def test_trainer_raises_naming_the_epoch_and_the_loss(self, tmp_path, bad):
        cfg = harness.parse_config(write_config(tmp_path, SMALL))
        source, target = harness.build_datasets(cfg, 0)
        with pytest.raises(DomainError, match=rf"^epoch 2: loss_dis is {bad}$"):
            trainer.train(source, target, harness.variant_config(cfg.train, "mcd", 0))

    def test_run_experiment_marks_it_failed_and_goes_on(self, tmp_path, bad):
        path = write_config(tmp_path, SMALL + "variants = mcd, source_only\n")
        cfg = harness.parse_config(path)
        cfg.out_dir = str(tmp_path)
        failed, finished = harness.run_experiment(cfg).runs
        assert failed.failed and failed.metrics == [] and failed.model is None
        assert (tmp_path / "metrics_mcd_seed0.csv").read_text() == (
            harness.METRICS_HEADER + "\n")
        assert not finished.failed and math.isfinite(finished.final_acc)

    def test_train_prints_one_line_and_exits_2(self, tmp_path, capsys, bad):
        path = write_config(tmp_path, SMALL)
        code = cli.main(["train", "--config", str(path), "--out", str(tmp_path),
                         "--variant", "mcd"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"run failed: epoch 2: loss_dis is {bad}"]


# conditional GDM on one-row batches: some batch pairs share no class (a
# warning each), then the run diverges
WARNS_THEN_FAILS = ("dataset = two_moons\nmoons_n = 40\nbatch_size = 1\nepochs = 3\n"
                    "conditional_gdm = true\nlr = 20\nseeds = 0\n")
NO_SHARED_CLASS = "warning: conditional gradient loss: no shared classes in batch"


class TestWarningsGoToStdout:
    """While a command runs, the ``cgdm`` loggers write ``warning:`` lines
    to stdout, so a run that warns and then fails has one stderr line."""

    def test_train_that_warns_then_fails(self, tmp_path, capsys):
        path = write_config(tmp_path, WARNS_THEN_FAILS)
        code = cli.main(["train", "--config", str(path), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.splitlines() == ["run failed: log_softmax requires finite logits"]
        assert out.splitlines() == [NO_SHARED_CLASS] * 2

    def test_bench_with_failed_runs_ends_in_one_line(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL + "variants = mcd\nlr = 1e300\nseeds = 0, 1\n")
        code = cli.main(["bench", "--config", str(path), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.splitlines() == ["run failed: 2 of 2 runs failed; first: mcd seed 0: "
                                    "log_softmax requires finite logits"]
        assert [line for line in out.splitlines() if line.startswith("warning: ")] == [
            f"warning: mcd seed {seed} failed: log_softmax requires finite logits"
            for seed in (0, 1)]

    def test_the_process_writes_one_stderr_line(self, tmp_path):
        """Run as a process: only there does a log record without a handler
        reach stderr (logging's last resort), since pytest captures them."""
        path = write_config(tmp_path, WARNS_THEN_FAILS)
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-m", "cgdm.cli", "train", "--config", str(path),
                              "--out", str(tmp_path)], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert out.returncode == 2
        assert out.stderr.splitlines() == ["run failed: log_softmax requires finite logits"]
        assert out.stdout.splitlines() == [NO_SHARED_CLASS] * 2


NAN = math.nan
METRICS = [
    EpochMetrics(1, 0.6931471805599453, NAN, NAN, NAN, 0.5, NAN, 0.25),
    EpochMetrics(2, 0.1 + 0.2, 1 / 3, 1e-300, 2.5e10, 0.875, 0.9, 1.2345678901234567),
]


class TestMetricsCsv:
    def test_header_lists_the_epoch_metrics_fields(self):
        assert harness.METRICS_HEADER == (
            "epoch,loss_cls,loss_dis,loss_gd,loss_cb,target_acc,pseudo_acc,seconds")

    @pytest.mark.parametrize("include_timing", [True, False])
    def test_exact_round_trip(self, tmp_path, include_timing):
        path = tmp_path / "metrics.csv"
        harness.write_metrics_csv(METRICS, path, include_timing=include_timing)
        got = harness.read_metrics_csv(path)
        want = [m if include_timing else dataclasses.replace(m, seconds=0.0)
                for m in METRICS]
        assert [type(m.epoch) for m in got] == [int, int]
        np.testing.assert_array_equal(  # NaN fields compare equal here
            [dataclasses.astuple(m) for m in got],
            [dataclasses.astuple(m) for m in want])
        again = tmp_path / "again.csv"
        harness.write_metrics_csv(got, again, include_timing=True)
        assert again.read_bytes() == path.read_bytes()

    def test_non_numeric_field_is_reported_with_its_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        harness.write_metrics_csv(METRICS, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("0.875", "high")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 3: .*'high'"):
            harness.read_metrics_csv(path)


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


def test_export_embeddings_with_layers_that_do_not_fit_exits_1(tmp_path, capsys):
    """A checkpoint whose second layer takes 63 inputs after a 64-wide first
    layer is one error line, not a traceback."""
    ckpt = tmp_path / "full.ckpt"
    nn.save_params({"generator": nn.init_mlp([2, 64, 32], seed=1)}, ckpt)
    lines = ckpt.read_text().splitlines()
    lines[6] = "param generator.layer1.weight 32 63"
    lines[7] = " ".join(["0.5"] * (32 * 63))
    assert _export_with(tmp_path, "\n".join(lines) + "\n") == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: line 7: generator.layer1.weight: takes 63 inputs, layer 0 gives 64"]


@pytest.mark.parametrize("labeled", [True, False])
def test_embeddings_csv_reads_back_as_the_generator_output(tmp_path, labeled):
    source, _ = make_shifted_blobs(3, 4, 5.0, 2.0, 1.0, 7, seed=1)
    dset = source if labeled else source.unlabeled()
    gen = nn.init_mlp([4, 6, 5], seed=2, final_activation="relu")
    path = tmp_path / "emb.csv"
    harness.export_embeddings(gen, dset, path)
    header, rows = read_csv(path)
    assert header == ["sample_id", "domain", "label", "f0", "f1", "f2", "f3", "f4"]
    labels = dset.labels if labeled else [-1] * dset.n
    assert [fields[:3] for _, fields in rows] == [
        [str(i), "source", str(label)] for i, label in enumerate(labels)]
    got = np.array([[float(v) for v in fields[3:]] for _, fields in rows])
    want = nn.forward(gen, Tensor(dset.features)).values
    assert got.tobytes() == want.tobytes()


def test_gen_data_writes_the_sets_of_its_seed(tmp_path):
    """Both CSVs read back as the sets ``build_datasets`` makes for the seed."""
    path = write_config(tmp_path, "dataset = blobs\nblobs_n_per_class = 5\nseeds = 0\n")
    out = tmp_path / "out"
    assert cli.main(["gen-data", "--config", str(path), "--out", str(out),
                     "--seed", "3"]) == 0
    for want in harness.build_datasets(harness.parse_config(path), 3):
        got = load_dataset_csv(out / f"{want.domain}.csv", domain=want.domain)
        assert got.features.tobytes() == want.features.tobytes()
        np.testing.assert_array_equal(got.labels, want.labels)


def test_gradcheck_passes_with_the_stated_maxima(capsys):
    """``cgdm gradcheck`` exits 0 and prints its three suites as passed,
    each with the maximum error that README gives."""
    assert cli.main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and all(line.startswith("[PASS] ") for line in lines)
    assert [re.search(r"max err (\S+)", line)[1] for line in lines] == [
        "3.117e-08", "2.860e-07", "2.220e-16"]


def test_export_embeddings_without_a_model_trains_the_variant(tmp_path):
    """Each embeddings CSV has one row per sample, the features of the
    generator that training the variant on the config's seed gives."""
    path = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    assert cli.main(["export-embeddings", "--config", str(path), "--variant", "mcd",
                     "--out", str(out)]) == 0
    cfg = harness.parse_config(path)
    source, target = harness.build_datasets(cfg, 0)
    _, model = trainer.train(source, target, harness.variant_config(cfg.train, "mcd", 0))
    for dset in (source, target):
        _, rows = read_csv(out / f"embeddings_{dset.domain}.csv")
        assert [fields[:2] for _, fields in rows] == [
            [str(i), dset.domain] for i in range(dset.n)]
        got = np.array([[float(v) for v in fields[3:]] for _, fields in rows])
        want = nn.forward(model.generator, Tensor(dset.features)).values
        assert got.tobytes() == want.tobytes()


def test_export_pseudo_writes_the_pseudo_labels_of_the_run(tmp_path):
    """With ``export_pseudo``, ``train`` writes its model's pseudo labels of
    the target set: one row per target sample, each label one of the K = 2
    source classes and each weight in (1, 2].  A rerun writes the same
    bytes."""
    path = write_config(tmp_path, SMALL + "export_pseudo = true\n")
    written = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 0
        written.append(out / "pseudo_cgdm_full_seed0.csv")
    assert written[0].read_bytes() == written[1].read_bytes()
    header, rows = read_csv(written[0])
    assert header == ["sample_id", "pseudo_label", "weight", "distance"]
    _, target = harness.build_datasets(harness.parse_config(path), 0)
    assert [int(fields[0]) for _, fields in rows] == list(range(target.n))
    labels = np.array([int(fields[1]) for _, fields in rows])
    weights = np.array([float(fields[2]) for _, fields in rows])
    assert np.all((labels >= 0) & (labels < 2))
    assert np.all((weights > 1.0) & (weights <= 2.0))


def test_export_embeddings_seed_option_is_the_configs_seed(tmp_path):
    """``export-embeddings --seed 3`` writes the bytes that a config of
    ``seeds = 3`` writes without the option, and not those of seed 0."""
    plain, three = write_config(tmp_path, SMALL), tmp_path / "three.cfg"
    three.write_text(SMALL.replace("seeds = 0", "seeds = 3"))
    runs = {"option": [plain, "--seed", "3"], "config": [three], "zero": [plain]}
    for name, (path, *extra) in runs.items():
        assert cli.main(["export-embeddings", "--config", str(path), "--variant", "mcd",
                         "--out", str(tmp_path / name), *extra]) == 0
    written = {name: [(tmp_path / name / f"embeddings_{domain}.csv").read_bytes()
                      for domain in ("source", "target")] for name in runs}
    assert written["option"] == written["config"] != written["zero"]


def test_a_saved_model_exports_the_embeddings_of_its_training(tmp_path):
    """``train --save-model`` writes a checkpoint whose generator gives
    ``export-embeddings --model`` the bytes that ``export-embeddings``
    gives when it trains the same variant and seed itself."""
    path, ckpt = write_config(tmp_path, SMALL), tmp_path / "m.ckpt"
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run"),
                     "--save-model", str(ckpt)]) == 0
    assert cli.main(["export-embeddings", "--config", str(path), "--model", str(ckpt),
                     "--out", str(tmp_path / "saved")]) == 0
    assert cli.main(["export-embeddings", "--config", str(path),
                     "--out", str(tmp_path / "trained")]) == 0
    for name in ("embeddings_source.csv", "embeddings_target.csv"):
        assert (tmp_path / "saved" / name).read_bytes() == (
            tmp_path / "trained" / name).read_bytes()


class TestBlockedExport:
    """``export_embeddings`` runs the generator in the row blocks of the
    full-set pass, with the values of one whole-set pass."""

    GEN = dict(layer_dims=[64, 256, 128], seed=1, final_activation="relu")

    @pytest.mark.parametrize("n", [1, 256, 257, 700])
    def test_values_equal_one_pass_bit_for_bit(self, tmp_path, n):
        gen = nn.init_mlp(**self.GEN)
        dset = DomainSet(np.random.default_rng(n).normal(size=(n, 64)), None, "target")
        harness.export_embeddings(gen, dset, tmp_path / "emb.csv")
        _, rows = read_csv(tmp_path / "emb.csv")
        got = np.array([[float(v) for v in fields[3:]] for _, fields in rows])
        want = nn.forward(gen, Tensor(dset.features)).values
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_bounded_by_a_block(self, tmp_path):
        """Over 4000 rows through a 256-wide hidden layer the export holds its
        output and a few 256-row blocks, not every row's activations."""
        gen = nn.init_mlp([64, 256, 8], seed=1, final_activation="relu")
        dset = DomainSet(np.random.default_rng(0).normal(size=(4000, 64)), None, "target")
        tracemalloc.start()
        try:
            harness.export_embeddings(gen, dset, tmp_path / "emb.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = pseudo_labels.BLOCK_ROWS * 256 * 8
        assert peak < 4000 * 8 * 8 + 4 * block


# config lines (added to SMALL) with a value that cgdm rejects, and its key
BAD_VALUES = [
    ("feature_dim = 0", "feature_dim"),
    ("generator_hidden = 0", "generator_hidden"),
    ("classifier_hidden = 16, 0", "classifier_hidden"),
    ("dataset = blobs\nblobs_dim = 0", "blobs_dim"),
    ("moons_n = 0", "moons_n"),
    ("dataset = blobs\nblobs_n_per_class = 0", "blobs_n_per_class"),
    ("dataset = blobs\nblobs_classes = 0", "blobs_classes"),
    ("dataset = blobs\nblobs_classes = 1", "blobs_classes"),
    ("lr = inf", "lr"),
    ("weight_decay = nan", "weight_decay"),
    ("moons_noise = nan", "moons_noise"),
    ("moons_noise = -1", "moons_noise"),
    ("dataset = blobs\nblobs_cov_scale = -2", "blobs_cov_scale"),
    ("lr_generator = -1", "lr_generator"),
    ("seeds = 0, -1", "seeds"),
    ("epochs = 0", "epochs"),
    ("variants =", "variants"),
    ("seeds = 0, 1, 1", "seeds"),
    ("variants = mcd, cgdm_full, mcd", "variants"),
    ("step3_repeats = 0", "step3_repeats"),
    ("batch_size = 0", "batch_size"),
    ("seeds =", "seeds"),
    ("variants = nope", "variants"),
    ("dataset = csv", "csv_source"),
]


class TestBadInputExitsOne:
    """Bad outside input ends in exit 1 and one ``error:`` line, not a
    traceback or a failed run."""

    @staticmethod
    def one_error_line(capsys, argv) -> str:
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        (line,) = err.splitlines()
        return line

    @staticmethod
    def csv_config(tmp_path, source, target):
        save_dataset_csv(source, tmp_path / "source.csv")
        save_dataset_csv(target, tmp_path / "target.csv")
        return write_config(
            tmp_path, f"dataset = csv\ncsv_source = {tmp_path / 'source.csv'}\n"
                      f"csv_target = {tmp_path / 'target.csv'}\nepochs = 1\nseeds = 0\n")

    def test_target_csv_of_another_width(self, tmp_path, capsys):
        source, _ = make_two_moons_pair(20, 0.1, 35.0, seed=0)
        _, target = make_shifted_blobs(2, 3, 5.0, 2.0, 1.0, 10, seed=0)
        path = self.csv_config(tmp_path, source, target)
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "out")]
        assert self.one_error_line(capsys, argv) == (
            "error: target has 3 features, source has 2")

    def test_checkpoint_of_another_width(self, tmp_path, capsys):
        ckpt = tmp_path / "moons.ckpt"
        nn.save_params({"generator": nn.init_mlp([2, 3], seed=1)}, ckpt)
        path = write_config(tmp_path, "dataset = blobs\nblobs_n_per_class = 5\n"
                                      "seeds = 0\n")
        argv = ["export-embeddings", "--config", str(path), "--model", str(ckpt),
                "--out", str(tmp_path / "out")]
        assert self.one_error_line(capsys, argv) == (
            "error: generator takes 2 features, the source set has 8")

    @pytest.mark.parametrize("argv, message", [
        (["train"], "error: the following arguments are required: --config"),
        (["train", "--config", "run.cfg", "--variant", "nope"],
         "error: argument --variant: invalid choice: 'nope' "),
        (["gradcheck", "--seed", "-1"],
         "error: argument --seed: expected a nonnegative integer, got '-1'"),
    ], ids=["missing-config", "unknown-variant", "negative-seed"])
    def test_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exit_.value.code == 1
        (line,) = err.splitlines()
        assert line.startswith(message)

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["train", "--help"])
        assert exit_.value.code == 0
        assert "--config" in capsys.readouterr().out

    @pytest.mark.parametrize("lines, key", BAD_VALUES,
                             ids=[lines.splitlines()[-1] for lines, _ in BAD_VALUES])
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, lines, key):
        path = write_config(tmp_path, SMALL + lines + "\n")
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "out")]
        line = self.one_error_line(capsys, argv)
        assert line.startswith("error: ")
        assert re.search(rf"\b{key}\b", line)

    def test_dataset_csv_with_a_nan_feature(self, tmp_path, capsys):
        source, target = make_two_moons_pair(20, 0.1, 35.0, seed=0)
        path = self.csv_config(tmp_path, source, target)
        csv = tmp_path / "target.csv"
        lines = csv.read_text().splitlines()
        lines[4] = "nan," + lines[4].split(",", 1)[1]
        csv.write_text("\n".join(lines) + "\n")
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "out")]
        assert self.one_error_line(capsys, argv) == (
            f"error: {csv}: line 5: non-finite feature")

    @pytest.mark.parametrize("which, rewrite, message", [
        ("source", DomainSet.unlabeled, "source set must be labeled"),
        ("source", lambda s: DomainSet(s.features, s.labels - 1), "negative source label"),
        ("target", lambda t: DomainSet(t.features, t.labels + 1),
         "target labels outside source class range [0, 2)"),
        ("target", "f0,f1,label\n", "{csv}: line 2: header but no data rows"),
        ("source", "", "{csv}: line 1: empty file"),
        ("source", "label\n0\n1\n", "{csv}: line 1: header declares no feature columns"),
    ], ids=["source_without_labels", "negative_source_label", "target_label_beyond_source",
            "header_only_target", "empty_source", "no_feature_column"])
    def test_bad_dataset_csv(self, tmp_path, capsys, which, rewrite, message):
        """A set or a label that no run can take: exit 1 with one line."""
        sets = dict(zip(("source", "target"), make_two_moons_pair(20, 0.1, 35.0, seed=0)))
        path = self.csv_config(tmp_path, *sets.values())
        csv = tmp_path / f"{which}.csv"
        if callable(rewrite):
            save_dataset_csv(rewrite(sets[which]), csv)
        else:
            csv.write_text(rewrite)
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "out")]
        assert self.one_error_line(capsys, argv) == "error: " + message.format(csv=csv)

    def test_dataset_csv_with_a_row_that_overflows(self, tmp_path, capsys):
        """Finite features whose squares overflow: exit 1 naming the line,
        not a run that fails in log_softmax."""
        source, target = make_two_moons_pair(20, 0.1, 35.0, seed=0)
        path = self.csv_config(tmp_path, source, target)
        scaled = DomainSet(target.features * 1e200, target.labels, target.domain)
        csv = tmp_path / "target.csv"
        save_dataset_csv(scaled, csv)
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "out")]
        assert self.one_error_line(capsys, argv) == (
            f"error: {csv}: line 2: squared norm overflows float64")

    def test_class_count_beyond_the_source_rows(self, tmp_path, capsys, monkeypatch):
        """A two-row source labelled 0 and 10^9 would ask for output layers
        of 10^9 rows: exit 1 naming the label and the bound, before any
        model is built."""
        _, target = make_two_moons_pair(20, 0.1, 35.0, seed=0)
        source = DomainSet(np.array([[0.0, 1.0], [1.0, 0.0]]),
                           np.array([0, 1_000_000_000]), "source")
        path = self.csv_config(tmp_path, source, target)
        monkeypatch.setattr(trainer, "build_model", None)  # never reached
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "out")]
        assert self.one_error_line(capsys, argv) == (
            "error: source label 1000000000 asks for 1000000001 classes; "
            "the class count may not exceed the 2 source rows")

    def test_dataset_csv_with_a_label_beyond_int64(self, tmp_path, capsys):
        source, target = make_two_moons_pair(20, 0.1, 35.0, seed=0)
        path = self.csv_config(tmp_path, source, target)
        csv = tmp_path / "source.csv"
        lines = csv.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",99999999999999999999999"
        csv.write_text("\n".join(lines) + "\n")
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "out")]
        assert self.one_error_line(capsys, argv) == (
            f"error: {csv}: line 3: label 99999999999999999999999 is outside int64")

    @pytest.mark.parametrize("key, values, twice", [
        ("seeds", "0, 1, 1", "1"), ("variants", "mcd, cgdm_full, mcd", "'mcd'")])
    def test_a_value_listed_twice(self, tmp_path, capsys, key, values, twice):
        """Not run and counted twice: ``bench`` exits 1 and writes nothing."""
        path = write_config(tmp_path, f"{SMALL}{key} = {values}\n")
        argv = ["bench", "--config", str(path), "--out", str(tmp_path / "out")]
        assert self.one_error_line(capsys, argv) == f"error: {key}: {twice} is listed twice"
        assert not (tmp_path / "out").exists()

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        argv = ["train", "--config", str(tmp_path), "--out", str(tmp_path / "out")]
        assert self.one_error_line(capsys, argv) == (
            f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{tmp_path}'")

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_out_under_a_regular_file(self, tmp_path, capsys, command):
        path = write_config(tmp_path, SMALL)
        out = tmp_path / "run.cfg" / "out"
        argv = [command, "--config", str(path), "--out", str(out)]
        assert self.one_error_line(capsys, argv) == (
            f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{out}'")

    @pytest.mark.parametrize("dataset, key", [("blobs", "blobs_n_per_class"),
                                              ("two_moons", "moons_n")])
    def test_a_set_too_large_to_allocate(self, tmp_path, capsys, dataset, key):
        """numpy refuses the array at once, so nothing is allocated."""
        path = write_config(tmp_path, f"dataset = {dataset}\n{key} = 1000000000000000\n"
                                      "seeds = 0\n")
        argv = ["gen-data", "--config", str(path), "--out", str(tmp_path / "out")]
        assert self.one_error_line(capsys, argv).startswith("error: Unable to allocate ")

    @pytest.mark.parametrize("lines, key", [
        ("moons_n = 4611686018427387904", "moons_n"),
        ("moons_n = 40\nfeature_dim = 10" + "0" * 29, "feature_dim"),
        ("batch_size = 1" + "0" * 30, "batch_size"),
        *[(f"dataset = {'two_moons' if key == 'moons_n' else 'blobs'}\n{key} = 1{'0' * 30}",
           key) for key in ("moons_n", "blobs_classes", "blobs_dim", "blobs_n_per_class",
                            "feature_dim", "generator_hidden", "classifier_hidden")],
        ("dataset = blobs\nblobs_classes = 2000000\nblobs_n_per_class = 2000000\n"
         "blobs_dim = 200000", "blobs_classes and blobs_n_per_class and blobs_dim"),
    ], ids=["moons_n-2^62", "feature_dim-10^30", "batch_size-10^30", "moons_n",
            "blobs_classes", "blobs_dim", "blobs_n_per_class", "feature_dim",
            "generator_hidden", "classifier_hidden", "product"])
    def test_a_size_numpy_cannot_describe(self, tmp_path, capsys, monkeypatch, lines, key):
        """A size key, or a product of them, asking for an array of more
        elements than numpy can describe (``ValueError: array is too big``
        or ``Maximum allowed dimension exceeded`` when it is made): exit 1
        naming the keys, raised in validation, so no set is generated."""
        path = write_config(tmp_path, SMALL + lines + "\n")
        monkeypatch.setattr(harness, "build_datasets", None)  # never reached
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "out")]
        line = self.one_error_line(capsys, argv)
        assert line.startswith(f"error: {key}: an array of ")
        assert line.endswith(f"more than numpy describes ({harness.MAX_ELEMENTS})")

    def test_generated_set_that_overflows(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL + "dataset = blobs\nblobs_shift = 1e308\n")
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "out")]
        assert self.one_error_line(capsys, argv) == (
            "error: generated target set: a row's squared norm overflows float64")


# every settable key of TrainConfig and ExperimentConfig, with a non-default value
EVERY_KEY = """\
# training
alpha = 0.2
beta = 0.03
class_balance_weight = 0.0
lr = 0.01
lr_generator = none
momentum = 0.8
weight_decay = 1e-4
batch_size = 32
epochs = 3
step3_repeats = 2
warmup_epochs = 0
enable_adversarial = off
conditional_gdm = yes
generator_hidden = 16, 8
feature_dim = 12
classifier_hidden = 6
# experiment
dataset = blobs
moons_n = 80
moons_noise = 0.2
moons_rotation_deg = 20
blobs_classes = 3
blobs_dim = 5
blobs_separation = 4.5
blobs_shift = 1.5
blobs_cov_scale = 0.5
blobs_n_per_class = 40
csv_source = a.csv
csv_target = b.csv
out_dir = somewhere
seeds = 3, 4
variants = mcd, cgdm_full
export_pseudo = true
include_timing = 1
"""


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestParseConfig:
    def test_every_key_parses_to_its_type(self, tmp_path):
        cfg = harness.parse_config(write_config(tmp_path, EVERY_KEY))
        want = harness.ExperimentConfig(
            dataset="blobs", moons_n=80, moons_noise=0.2, moons_rotation_deg=20.0,
            blobs_classes=3, blobs_dim=5, blobs_separation=4.5, blobs_shift=1.5,
            blobs_cov_scale=0.5, blobs_n_per_class=40, csv_source="a.csv",
            csv_target="b.csv", out_dir="somewhere", seeds=[3, 4],
            variants=["mcd", "cgdm_full"], export_pseudo=True, include_timing=True,
            train=TrainConfig(
                alpha=0.2, beta=0.03, class_balance_weight=0.0, lr=0.01,
                lr_generator=None, momentum=0.8, weight_decay=1e-4, batch_size=32,
                epochs=3, step3_repeats=2, warmup_epochs=0,
                enable_adversarial=False, conditional_gdm=True,
                generator_hidden=(16, 8), feature_dim=12, classifier_hidden=(6,),
            ),
        )
        assert cfg == want
        keys = {line.split("=")[0].strip() for line in EVERY_KEY.splitlines()
                if "=" in line}
        for got, expected in ((cfg, want), (cfg.train, want.train)):
            for f in dataclasses.fields(expected):
                if f.name not in ("train", "seed"):
                    assert f.name in keys
                    assert type(getattr(got, f.name)) is type(getattr(expected, f.name))
        assert [type(s) for s in cfg.seeds] == [int, int]
        assert type(cfg.train.generator_hidden[0]) is int

    def test_lr_generator_takes_a_float(self, tmp_path):
        cfg = harness.parse_config(write_config(tmp_path, "lr_generator = 0.5\n"))
        assert cfg.train.lr_generator == 0.5
        assert type(cfg.train.lr_generator) is float

    @pytest.mark.parametrize("line, message", [
        ("colour = red", "unknown config key 'colour'"),
        ("include_timing = maybe", "expected a boolean"),
        ("epochs = 2.5", "invalid literal"),
        ("train = x", "unknown config key 'train'"),
    ])
    def test_bad_line_is_reported_with_its_number(self, tmp_path, line, message):
        path = write_config(tmp_path, f"# header\n\n{line}\nseed = 1\n")
        with pytest.raises(ConfigError, match=rf"^line 3: .*{message}"):
            harness.parse_config(path)

    @pytest.mark.parametrize("key", ["alpha", "beta", "class_balance_weight"])
    def test_negative_loss_weight_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError, match="loss weights must be nonnegative"):
            harness.parse_config(write_config(tmp_path, f"{key} = -0.1\n"))

    def test_seed_is_an_unknown_key_that_points_to_seeds(self, tmp_path):
        path = write_config(tmp_path, "seeds = 0\n# one run\nseed = 7\n")
        with pytest.raises(ConfigError,
                           match="^line 3: unknown config key 'seed'; set seeds instead$"):
            harness.parse_config(path)

    def test_readme_lists_every_config_key(self):
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = text.split("## Config files")[1].split("## ")[0]
        listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
        fields = [f.name for cls in (harness.ExperimentConfig, TrainConfig)
                  for f in dataclasses.fields(cls) if f.name not in ("train", "seed")]
        assert sorted(listed) == sorted(fields)
        assert len(listed) == 33

    @pytest.mark.parametrize("key", ["enable_gdm", "enable_selfsup",
                                     "enable_class_balance"])
    def test_removed_switch_is_an_unknown_key(self, tmp_path, key):
        path = write_config(tmp_path, f"{key} = false\n")
        with pytest.raises(ConfigError, match=f"line 1: unknown config key '{key}'"):
            harness.parse_config(path)


DIVERGING = "dataset = two_moons\nlr = 50\nepochs = 1\nseeds = 0\n"


class TestDivergingRun:
    """lr = 50 drives the logits to inf: the run raises DomainError."""

    def test_bench_records_the_failed_run_and_goes_on(self, tmp_path, capsys):
        path = write_config(tmp_path, DIVERGING + "variants = cgdm_full, mcd\n")
        code = cli.main(["bench", "--config", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[1:] == ["cgdm_full,1,nan,nan,1", "mcd,1,nan,nan,1"]
        for variant in ("cgdm_full", "mcd"):
            metrics = tmp_path / f"metrics_{variant}_seed0.csv"
            assert metrics.read_text() == harness.METRICS_HEADER + "\n"

    def test_run_experiment_marks_it_failed(self, tmp_path):
        path = write_config(tmp_path, DIVERGING + "variants = mcd\n")
        cfg = harness.parse_config(path)
        cfg.out_dir = str(tmp_path)
        summary = harness.run_experiment(cfg)
        (run,) = summary.runs
        assert run.failed and run.metrics == [] and run.model is None
        assert math.isnan(run.final_acc)

    def test_train_exits_2_with_one_line(self, tmp_path, capsys):
        path = write_config(tmp_path, DIVERGING)
        with warnings.catch_warnings():  # numpy's overflow warnings included
            warnings.simplefilter("error")
            code = cli.main(["train", "--config", str(path), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["run failed: log_softmax requires finite logits"]

    def test_train_and_bench_leave_the_same_files(self, tmp_path, capsys):
        path = write_config(tmp_path, DIVERGING + "variants = mcd\n")
        bench_out, train_out = tmp_path / "bench", tmp_path / "train"
        assert cli.main(["bench", "--config", str(path), "--out", str(bench_out)]) == 2
        capsys.readouterr()
        code = cli.main(["train", "--config", str(path), "--out", str(train_out),
                         "--variant", "mcd"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == ["run failed: log_softmax requires finite logits"]
        name = "metrics_mcd_seed0.csv"
        assert sorted(p.name for p in train_out.iterdir()) == [name]
        assert (train_out / name).read_text() == harness.METRICS_HEADER + "\n"
        assert (bench_out / name).read_text() == harness.METRICS_HEADER + "\n"

    def test_trainer_still_raises(self, tmp_path):
        cfg = harness.parse_config(write_config(tmp_path, DIVERGING))
        source, target = harness.build_datasets(cfg, 0)
        with pytest.raises(DomainError):
            trainer.train(source, target, harness.variant_config(cfg.train, "mcd", 0))


def test_bench_reruns_are_byte_identical(tmp_path):
    path = write_config(tmp_path, "dataset = two_moons\nmoons_n = 100\nepochs = 2\n"
                                  "seeds = 0\n")
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert cli.main(["bench", "--config", str(path), "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outputs[0]) == len(harness.VARIANTS) + 1  # metrics CSVs + summary
    assert outputs[0] == outputs[1]
