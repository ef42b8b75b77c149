"""The CSV text format, dataset CSV round trips and errors, and the
no-target-label-leak claim."""
import math
import re

import numpy as np
import pytest

from cgdm import harness, trainer
from cgdm.data import (
    DomainSet,
    ParseError,
    cell,
    load_dataset_csv,
    make_shifted_blobs,
    make_two_moons_pair,
    read_csv,
    save_dataset_csv,
    write_csv,
)

LOSSES = ("loss_cls", "loss_dis", "loss_gd", "loss_cb")


class TestTextFormat:
    @pytest.mark.parametrize("value, text", [
        (3, "3"),
        (-1, "-1"),
        (np.int64(3), "3"),
        ("cgdm_full", "cgdm_full"),
        (math.nan, "nan"),
        (-0.0, "-0"),
        (1e-300, "1e-300"),
        (2.0**60 + 1, "1.152921504606847e+18"),
        (np.float64(0.1), "0.10000000000000001"),
    ])
    def test_cell(self, value, text):
        assert cell(value) == text

    @pytest.mark.parametrize("value", [math.nan, -0.0, 1e-300, 2.0**60 + 1, 0.1,
                                       1 / 3, -math.inf, 5e-324])
    def test_a_float_cell_reads_back_bit_exactly(self, value):
        assert np.float64(float(cell(value))).tobytes() == np.float64(value).tobytes()

    def test_round_trip_keeps_line_numbers_and_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "x"], [("a", 0.5), ("b", 2)])
        assert path.read_text() == "name,x\na,0.5\nb,2\n"
        path.write_text("name,x\na,0.5\n\n  \nb,2\n")
        assert read_csv(path) == (["name", "x"], [(2, ["a", "0.5"]), (5, ["b", "2"])])

    @pytest.mark.parametrize("row, found", [("a", 1), ("a,1,2", 3)])
    def test_wrong_field_count_is_reported_with_its_line(self, tmp_path, row, found):
        path = tmp_path / "t.csv"
        path.write_text(f"name,x\na,1\n\n{row}\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 4: expected 2 "
                                             f"fields, found {found}$") as err:
            read_csv(path)
        assert err.value.line == 4


class TestDatasetCsv:
    @pytest.mark.parametrize("labeled", [True, False])
    def test_round_trip_is_exact(self, tmp_path, labeled):
        source, _ = make_shifted_blobs(3, 4, 5.0, 2.0, 1.0, 7, seed=1)
        dset = source if labeled else source.unlabeled()
        path = tmp_path / "set.csv"
        save_dataset_csv(dset, path)
        back = load_dataset_csv(path, domain="target")
        np.testing.assert_array_equal(back.features, dset.features)
        assert back.domain == "target"
        if labeled:
            np.testing.assert_array_equal(back.labels, dset.labels)
            assert back.labels.dtype == np.int64
        else:
            assert back.labels is None

    def test_awkward_floats_survive(self, tmp_path):
        x = np.array([[0.1, -1e-300], [np.pi, 2.0**60 + 1.0]])
        path = tmp_path / "set.csv"
        save_dataset_csv(DomainSet(x, np.array([0, 1])), path)
        np.testing.assert_array_equal(load_dataset_csv(path).features, x)

    @pytest.mark.parametrize("row, message", [
        ("1.0,0", "expected 3 fields, found 2"),
        ("1.0,abc,0", "non-numeric field"),
        ("1.0,2.0,x", "non-numeric field"),
    ])
    def test_bad_row_is_reported_with_its_line(self, tmp_path, row, message):
        path = tmp_path / "set.csv"
        path.write_text(f"f0,f1,label\n0.5,0.5,1\n{row}\n")
        with pytest.raises(ParseError,
                           match=f"^{re.escape(str(path))}: line 3: {message}") as err:
            load_dataset_csv(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("text", ["f0,f1,label\n", "f0,f1,label\n\n\n"],
                             ids=["header", "header_and_blank_lines"])
    def test_header_without_rows_is_reported_at_line_2(self, tmp_path, text):
        path = tmp_path / "set.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: header but no "
                                             "data rows$") as err:
            load_dataset_csv(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("label", ["99999999999999999999999", "-9223372036854775809"])
    def test_label_beyond_int64_is_reported_with_its_line(self, tmp_path, label):
        path = tmp_path / "set.csv"
        path.write_text(f"f0,f1,label\n0.5,0.5,1\n1.0,2.0,{label}\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 3: label {label} "
                                             "is outside int64$"):
            load_dataset_csv(path)
        path.write_text("f0,f1,label\n0.5,0.5,9223372036854775807\n")
        assert load_dataset_csv(path).labels[0] == np.iinfo(np.int64).max

    @pytest.mark.parametrize("value, message", [
        ("nan", "non-finite feature"),
        ("inf", "non-finite feature"),
        ("-inf", "non-finite feature"),
        ("1e999", "non-finite feature"),
        # finite, but its square overflows: no loss on this row is finite
        ("1e200", "squared norm overflows float64"),
    ], ids=["nan", "inf", "-inf", "1e999", "1e200"])
    def test_non_finite_feature_is_reported_with_its_line(self, tmp_path, value, message):
        path = tmp_path / "set.csv"
        path.write_text(f"f0,f1,label\n0.5,0.5,1\n\n0.5,{value},0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 4: {message}$"):
            load_dataset_csv(path)


def test_permuted_target_labels_leave_every_loss_unchanged():
    """Training sees target labels only through evaluation: permuting them
    changes no loss of any epoch."""
    ecfg = harness.ExperimentConfig(dataset="two_moons", moons_n=100)
    cfg = harness.variant_config(trainer.TrainConfig(epochs=2), "cgdm_full", 0)
    source, target = make_two_moons_pair(ecfg.moons_n, ecfg.moons_noise,
                                         ecfg.moons_rotation_deg, seed=0)
    permuted = DomainSet(target.features,
                         np.random.default_rng(1).permutation(target.labels),
                         target.domain)
    assert np.any(permuted.labels != target.labels)
    plain, _ = trainer.train(source, target, cfg)
    shuffled, _ = trainer.train(source, permuted, cfg)
    assert len(plain) == len(shuffled) == 3
    for a, b in zip(plain, shuffled):
        got = [getattr(b, name) for name in LOSSES]
        want = [getattr(a, name) for name in LOSSES]
        np.testing.assert_array_equal(got, want)  # NaN (not computed) matches NaN
