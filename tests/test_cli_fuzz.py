"""Property tests: ``cli.main`` on mutated valid inputs ends in a documented
exit code, never in an exception, and a failure is one line on stderr.

Each example takes a valid config, a valid dataset CSV pair or a valid
checkpoint, and replaces, deletes, duplicates or truncates one line.  A replacing line's
values are drawn huge, negative, non-numeric, non-finite or non-ASCII.  A
size key takes only values up to 64, or from 10^15 to 10^16, which numpy
refuses at once with a MemoryError; loop counts stay at 2 or less, so no
example allocates more than a few MB or trains for long.
"""
import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cgdm import cli, nn, trainer
from cgdm.data import make_two_moons_pair, save_dataset_csv

# the keys whose default would make an example slow (moons_n = 500,
# epochs = 30, ...) are set twice: no one mutation brings the default back
CONFIG = """\
dataset = two_moons
moons_n = 16
moons_n = 16
blobs_classes = 2
blobs_dim = 2
blobs_n_per_class = 4
blobs_n_per_class = 4
batch_size = 8
epochs = 1
epochs = 1
seeds = 0
conditional_gdm = true
"""

SIZE_KEYS = ("moons_n", "blobs_classes", "blobs_dim", "blobs_n_per_class",
             "feature_dim", "generator_hidden", "classifier_hidden")
LOOP_KEYS = ("batch_size", "epochs", "step3_repeats", "warmup_epochs")
OTHER_KEYS = ("dataset", "moons_noise", "moons_rotation_deg", "blobs_separation",
              "blobs_shift", "blobs_cov_scale", "csv_source", "csv_target", "out_dir",
              "seeds", "variants", "export_pseudo", "include_timing", "alpha", "beta",
              "class_balance_weight", "lr", "lr_generator", "momentum", "weight_decay",
              "enable_adversarial", "conditional_gdm")

huge = st.integers(10**15, 10**30).map(str) | st.sampled_from(["1e300", "-1e300"])
negative = st.integers(-(10**20), -1).map(str) | st.floats(max_value=-1e-300).map(str)
non_numeric = st.sampled_from(["", "abc", "1,2", "0x10", "1 2", "true", "none", "=", "#"])
non_finite = st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"])
non_ascii = st.text(st.characters(min_codepoint=128, max_codepoint=0x2FFF,
                                  exclude_categories=("Cs", "Zl", "Zp", "Cc")),
                    min_size=1, max_size=4)
small = st.integers(-3, 64).map(str) | st.floats(-2.0, 2.0).map(str)
field = small | huge | negative | non_numeric | non_finite | non_ascii

config_line = st.one_of(
    st.tuples(st.sampled_from(SIZE_KEYS),
              st.integers(-3, 64).map(str) | st.integers(10**15, 10**16).map(str)
              | non_numeric | non_ascii),
    st.tuples(st.sampled_from(LOOP_KEYS), st.integers(-2, 2).map(str) | non_numeric),
    st.tuples(st.sampled_from(OTHER_KEYS), field),
).map(lambda kv: f"{kv[0]} = {kv[1]}") | field


@st.composite
def mutated(draw, lines, new_line):
    """``lines`` with one line replaced by a ``new_line``, deleted,
    duplicated or truncated."""
    lines = list(lines)
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["replace", "delete", "duplicate", "truncate"]))
    if how == "replace":
        lines[i] = draw(new_line)
    elif how == "delete":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i] = lines[i][:draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
    return "\n".join(lines) + "\n"


def exits_as_documented(argv) -> None:
    """Run ``cli.main(argv)`` in-process: exit 0, 1 or 2, nothing raised, and
    one stderr line on a non-zero exit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(mutated(CONFIG.splitlines(), config_line))
def test_a_mutated_config_exits_as_documented(text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_text(text, encoding="utf-8")
        exits_as_documented(["train", "--config", str(config), "--out", tmp])


def _lines(save, obj) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        save(obj, path)
        return path.read_text().splitlines()


SOURCE_CSV, TARGET_CSV = (_lines(save_dataset_csv, dset)
                          for dset in make_two_moons_pair(8, 0.1, 35.0, seed=0))
csv_line = st.lists(field, max_size=4).map(",".join)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["source", "target"]), st.data())
def test_a_mutated_dataset_csv_exits_as_documented(which, data):
    lines = {"source": SOURCE_CSV, "target": TARGET_CSV}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, rows in lines.items():
            text = (data.draw(mutated(rows, csv_line)) if name == which
                    else "\n".join(rows) + "\n")
            (tmp / f"{name}.csv").write_text(text, encoding="utf-8")
        config = tmp / "run.cfg"
        config.write_text(f"dataset = csv\ncsv_source = {tmp / 'source.csv'}\n"
                          f"csv_target = {tmp / 'target.csv'}\nbatch_size = 8\n"
                          f"epochs = 1\nseeds = 0\nconditional_gdm = true\n")
        exits_as_documented(["train", "--config", str(config), "--out", str(tmp)])


_MODEL = trainer.build_model(2, 2, trainer.TrainConfig(
    generator_hidden=(3,), feature_dim=2, classifier_hidden=(2,)))
CHECKPOINT = _lines(nn.save_params, {"generator": _MODEL.generator,
                                     "classifier": _MODEL.classifiers})
NETS = ("generator", "classifier1", "classifier2", "classifier3", "classifier")
checkpoint_line = (
    st.tuples(st.just("arch"), st.sampled_from(NETS),
              st.lists(st.sampled_from(["relu", "none"]) | field, min_size=1,
                       max_size=3).map(",".join))
    | st.tuples(st.just("param"), st.sampled_from(
        [f"{net}.layer{i}.{kind}" for net in NETS for i in (0, 1, 2)
         for kind in ("weight", "bias")]), st.lists(field, max_size=3).map(" ".join))
).map(" ".join) | st.lists(field, max_size=6).map(" ".join)


@settings(max_examples=40, deadline=None)
@given(mutated(CHECKPOINT, checkpoint_line))
def test_a_mutated_checkpoint_exits_as_documented(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "model.ckpt").write_text(text, encoding="utf-8")
        config = tmp / "run.cfg"
        config.write_text("dataset = two_moons\nmoons_n = 16\nseeds = 0\n")
        exits_as_documented(["export-embeddings", "--config", str(config),
                             "--model", str(tmp / "model.ckpt"), "--out", str(tmp)])
