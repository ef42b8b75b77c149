"""Experiment configuration, the ablation runner, and the files a run writes.

Config files are flat ``key = value`` text: ``#`` starts a comment, unknown
keys are rejected so typos fail loudly.  Every run writes a metrics CSV with
the fixed schema ``epoch,loss_cls,loss_dis,loss_gd,loss_cb,target_acc,
pseudo_acc,seconds``; the summary table is re-derivable from those files.
Metrics, summary and embedding CSVs are written and read in the text format
of :mod:`cgdm.data` (:func:`~cgdm.data.write_csv`, :func:`~cgdm.data.read_csv`).

Reruns of an identical config are byte-identical.  Because wall-clock time
is inherently nondeterministic, the ``seconds`` column is written as 0 unless
``include_timing`` is set (timings stay available in-process on the
EpochMetrics objects either way).
"""
from __future__ import annotations

import logging
import math
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import data, nn, pseudo_labels, trainer
from .data import DomainSet, ParseError
from .tensor import DomainError, Tensor, no_grad
from .trainer import ConfigError, EpochMetrics, TrainConfig

__all__ = [
    "VARIANTS",
    "ExperimentConfig",
    "parse_config",
    "build_datasets",
    "variant_config",
    "write_metrics_csv",
    "read_metrics_csv",
    "RunResult",
    "ExperimentSummary",
    "run_variant",
    "run_experiment",
    "export_embeddings",
]

# numpy describes an array of at most np.intp's maximum in bytes, so a size
# key, or a product of them, may ask for this many float64 elements of each
# of two stacked heads at most
MAX_ELEMENTS = int(np.iinfo(np.intp).max) // 16

# ablation matrix: TrainConfig overrides; a loss weight of 0 turns that loss off
VARIANTS = {
    "source_only": dict(
        enable_adversarial=False, alpha=0.0, beta=0.0, class_balance_weight=0.0
    ),
    "mcd": dict(alpha=0.0, beta=0.0, class_balance_weight=0.0),
    "cgdm_wo_selfsup": dict(alpha=0.0),
    "cgdm_wo_gdm": dict(beta=0.0),
    "cgdm_full": dict(),
}

logger = logging.getLogger(__name__)

# metrics CSV columns: the EpochMetrics fields in order, each parsed to its type
_METRICS_COLUMNS = typing.get_type_hints(EpochMetrics)
METRICS_HEADER = ",".join(_METRICS_COLUMNS)


@dataclass
class ExperimentConfig:
    """Dataset choice, training hyper-parameters, seeds, and output layout."""

    dataset: str = "two_moons"  # two_moons | blobs | csv
    moons_n: int = 500
    moons_noise: float = 0.1
    moons_rotation_deg: float = 35.0
    blobs_classes: int = 4
    blobs_dim: int = 8
    blobs_separation: float = 5.0
    blobs_shift: float = 2.0
    blobs_cov_scale: float = 1.0
    blobs_n_per_class: int = 125
    csv_source: str = ""
    csv_target: str = ""
    out_dir: str = "runs"
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    variants: list = field(default_factory=lambda: list(VARIANTS))
    export_pseudo: bool = False
    include_timing: bool = False
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        if self.dataset not in ("two_moons", "blobs", "csv"):
            raise ConfigError(f"unknown dataset {self.dataset!r}")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be nonnegative")
        if not self.variants:
            raise ConfigError("variants must be non-empty")
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown:
            raise ConfigError(f"unknown variants: {unknown}")
        for key in ("seeds", "variants"):
            values = getattr(self, key)
            twice = [v for i, v in enumerate(values) if v in values[:i]]
            if twice:
                raise ConfigError(f"{key}: {twice[0]!r} is listed twice")
        if self.dataset == "csv" and not (self.csv_source and self.csv_target):
            raise ConfigError("csv dataset needs csv_source and csv_target paths")
        if min(self.moons_n, self.blobs_dim, self.blobs_n_per_class) < 1:
            raise ConfigError("moons_n, blobs_dim and blobs_n_per_class must be positive")
        if self.blobs_classes < 2:
            raise ConfigError("blobs_classes must be >= 2")
        for key in ("moons_noise", "blobs_cov_scale"):
            if not getattr(self, key) >= 0:
                raise ConfigError(f"{key} must be nonnegative")
        self.train.validate()
        self._check_sizes()

    def _check_sizes(self) -> None:
        """Each size key, then each product of them that sizes an array (the
        rows of a set or of a joint batch, 2 * ``batch_size``, times a width;
        a layer's inputs times its outputs), is at most :data:`MAX_ELEMENTS`,
        or a ConfigError names the keys before anything is allocated.  A CSV
        set's arrays exist, so only the model's widths are checked for it."""
        t = self.train
        widths = [*((w, "generator_hidden") for w in t.generator_hidden),
                  (t.feature_dim, "feature_dim"),
                  *((w, "classifier_hidden") for w in t.classifier_hidden)]
        rows = []
        if self.dataset == "blobs":
            rows = [(self.blobs_classes, "blobs_classes"),
                    (self.blobs_n_per_class, "blobs_n_per_class")]
            widths = [(self.blobs_dim, "blobs_dim"), *widths, rows[0]]
        elif self.dataset == "two_moons":
            rows = [(self.moons_n, "moons_n")]
            widths = [(2, None), *widths, (2, None)]
        batch = (2 * t.batch_size, "batch_size")
        for factors in ([[size] for size in rows + widths] + [rows + [w] for w in widths]
                        + [[batch, w] for w in widths]
                        + [list(layer) for layer in zip(widths, widths[1:])]):
            elements = math.prod(value for value, _ in factors)
            if elements > MAX_ELEMENTS:
                keys = " and ".join(dict.fromkeys(key for _, key in factors if key))
                raise ConfigError(f"{keys}: an array of {elements} elements, more than "
                                  f"numpy describes ({MAX_ELEMENTS})")


# config key -> default value; a key's value is parsed to its default's type.
# TrainConfig.seed is no key: variant_config sets it from each entry of seeds.
_TRAIN_DEFAULTS = {k: v for k, v in vars(TrainConfig()).items() if k != "seed"}
_EXP_DEFAULTS = {k: v for k, v in vars(ExperimentConfig()).items() if k != "train"}


def _coerce(key: str, raw: str, default):
    """Parse ``raw`` to the type of ``default``: a comma-separated list or
    tuple takes the type of the default's items, a None default means a
    float or ``none``.  A float must be finite: ``nan`` and ``inf`` raise."""
    raw = raw.strip()
    kind = type(default)
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if kind in (list, tuple):
        item = type(default[0])
        return kind(item(v.strip()) for v in raw.split(",") if v.strip())
    if default is None and raw.lower() == "none":
        return None
    value = float(raw) if default is None else kind(raw)
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def parse_config(path) -> ExperimentConfig:
    """Read a flat key = value config file; unknown keys raise ConfigError."""
    cfg_kwargs: dict = {}
    train_kwargs: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            try:
                if key in _TRAIN_DEFAULTS:
                    train_kwargs[key] = _coerce(key, raw, _TRAIN_DEFAULTS[key])
                elif key in _EXP_DEFAULTS:
                    cfg_kwargs[key] = _coerce(key, raw, _EXP_DEFAULTS[key])
                elif key == "seed":
                    raise ConfigError("unknown config key 'seed'; set seeds instead")
                else:
                    raise ConfigError(f"unknown config key {key!r}")
            except ValueError as err:  # ConfigError included
                raise ConfigError(f"line {lineno}: {err}") from None
    cfg = ExperimentConfig(train=TrainConfig(**train_kwargs), **cfg_kwargs)
    cfg.validate()
    return cfg


def build_datasets(cfg: ExperimentConfig, seed: int) -> tuple[DomainSet, DomainSet]:
    """The (source, target) sets of ``cfg``'s dataset.  A generated set with
    a row whose squared norm is not finite (:func:`data.unsafe_rows`) is a
    config error; such a row in a dataset CSV is a parse error."""
    if cfg.dataset == "csv":
        return (data.load_dataset_csv(cfg.csv_source, domain="source"),
                data.load_dataset_csv(cfg.csv_target, domain="target"))
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.dataset == "two_moons":
            sets = data.make_two_moons_pair(
                cfg.moons_n, cfg.moons_noise, cfg.moons_rotation_deg, seed
            )
        else:
            sets = data.make_shifted_blobs(
                cfg.blobs_classes, cfg.blobs_dim, cfg.blobs_separation,
                cfg.blobs_shift, cfg.blobs_cov_scale, cfg.blobs_n_per_class, seed,
            )
        for dset in sets:
            if len(data.unsafe_rows(dset.features)):
                raise ConfigError(
                    f"generated {dset.domain} set: a row's squared norm overflows float64")
    return sets


def variant_config(base: TrainConfig, variant: str, seed: int) -> TrainConfig:
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    return replace(base, seed=seed, **VARIANTS[variant])


def write_metrics_csv(metrics, path, include_timing: bool = False) -> None:
    rows = (m if include_timing else replace(m, seconds=0.0) for m in metrics)
    data.write_csv(path, _METRICS_COLUMNS,
                   ([getattr(m, n) for n in _METRICS_COLUMNS] for m in rows))


def read_metrics_csv(path) -> list:
    header, rows = data.read_csv(path)
    if header != list(_METRICS_COLUMNS):
        raise ParseError("not a metrics CSV", line=1, path=path)
    out = []
    for lineno, fields in rows:
        try:
            row = [kind(raw) for kind, raw in zip(_METRICS_COLUMNS.values(), fields)]
        except ValueError as err:
            raise ParseError(str(err), line=lineno, path=path) from None
        out.append(EpochMetrics(*row))
    return out


@dataclass
class RunResult:
    variant: str
    seed: int
    final_acc: float
    metrics_path: str
    metrics: list
    model: trainer.BiClassifierModel | None  # None when training raised
    error: DomainError | None = None  # why the run failed

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class ExperimentSummary:
    runs: list
    out_dir: str

    def variant_accs(self, variant: str) -> list:
        return [r.final_acc for r in self.runs if r.variant == variant]

    def mean_acc(self, variant: str) -> float:
        return float(np.mean(self.variant_accs(variant)))

    def std_acc(self, variant: str) -> float:
        return float(np.std(self.variant_accs(variant)))


def run_variant(cfg: ExperimentConfig, variant: str, seed: int) -> RunResult:
    """Train one (variant, seed); write its metrics CSV (and, with
    ``export_pseudo``, its pseudo labels) into ``cfg.out_dir``.  A diverged run
    (:class:`~cgdm.tensor.DomainError`) keeps the error and gets NaN accuracy
    and a header-only CSV, so NaN in a CSV row always means "not computed"."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    source, target = build_datasets(cfg, seed)
    metrics, model, error = [], None, None
    try:
        metrics, model = trainer.train(
            source, target, variant_config(cfg.train, variant, seed)
        )
    except DomainError as err:
        error = err
    path = out_dir / f"metrics_{variant}_seed{seed}.csv"
    write_metrics_csv(metrics, path, include_timing=cfg.include_timing)
    if cfg.export_pseudo and metrics:
        pseudo = pseudo_labels.pseudo_label_epoch(pseudo_labels.predict(
            model.generator, model.classifiers, target.features))
        pseudo_labels.save_pseudo_csv(
            pseudo, out_dir / f"pseudo_{variant}_seed{seed}.csv")
    final_acc = metrics[-1].target_acc if metrics else float("nan")
    return RunResult(variant, seed, final_acc, str(path), metrics, model, error)


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Run every (variant, seed) pair with :func:`run_variant` (a failed run is
    logged and the rest go on), then write the summary: mean and std of the
    final-epoch target accuracy per variant."""
    cfg.validate()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    for variant in cfg.variants:
        for seed in cfg.seeds:
            run = run_variant(cfg, variant, seed)
            if run.failed:
                logger.warning("%s seed %d failed: %s", variant, seed, run.error)
            runs.append(run)
    summary = ExperimentSummary(runs, str(out_dir))
    _write_summary(cfg, summary, out_dir / "summary.csv")
    return summary


def _write_summary(cfg: ExperimentConfig, summary: ExperimentSummary, path) -> None:
    header = ["variant", "n_seeds", "mean_target_acc", "std_target_acc", "failed_runs"]
    data.write_csv(path, header, (
        [v, len(summary.variant_accs(v)), summary.mean_acc(v), summary.std_acc(v),
         sum(r.failed for r in summary.runs if r.variant == v)]
        for v in cfg.variants))


def export_embeddings(gen: nn.Mlp, dset: DomainSet, path) -> None:
    """CSV of generator outputs: sample_id,domain,label,f0..f{d-1}.

    Unlabeled samples get label -1.  Values round-trip exactly as text.  The
    generator runs in :func:`~cgdm.pseudo_labels.row_blocks`, in bounded memory.
    """
    if dset.n == 0:
        raise ConfigError("cannot export embeddings of an empty set")
    if gen.in_dim != dset.dim:
        raise ConfigError(
            f"generator takes {gen.in_dim} features, the {dset.domain} set has "
            f"{dset.dim}"
        )
    feats = np.empty((dset.n, gen.out_dim))
    with no_grad():
        for rows in pseudo_labels.row_blocks(dset.n):
            feats[rows] = nn.forward(gen, Tensor(dset.features[rows])).values
    header = ["sample_id", "domain", "label", *(f"f{i}" for i in range(feats.shape[1]))]
    labels = np.full(dset.n, -1) if dset.labels is None else dset.labels
    data.write_csv(path, header, (
        (i, dset.domain, labels[i], *feats[i]) for i in range(dset.n)))
