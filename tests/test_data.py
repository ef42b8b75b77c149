"""Dataset CSV round trips and errors, and the no-target-label-leak claim."""
import numpy as np
import pytest

from cgdm import harness, trainer
from cgdm.data import (
    DomainSet,
    ParseError,
    load_dataset_csv,
    make_shifted_blobs,
    make_two_moons_pair,
    save_dataset_csv,
)

LOSSES = ("loss_cls", "loss_dis", "loss_gd", "loss_cb")


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
        with pytest.raises(ParseError, match=f"^line 3: {message}") as err:
            load_dataset_csv(path)
        assert err.value.line == 3


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
