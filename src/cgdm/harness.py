"""Experiment configuration, the ablation runner, and metrics file I/O.

Config files are flat ``key = value`` text: ``#`` starts a comment, unknown
keys are rejected so typos fail loudly.  Every run writes a metrics CSV with
the fixed schema ``epoch,loss_cls,loss_dis,loss_gd,loss_cb,target_acc,
pseudo_acc,seconds``; the summary table is re-derivable from those files.

Reruns of an identical config are byte-identical.  Because wall-clock time
is inherently nondeterministic, the ``seconds`` column is written as 0 unless
``include_timing`` is set (timings stay available in-process on the
EpochMetrics objects either way).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import data, nn, pseudo_labels, trainer
from .data import DomainSet, ParseError
from .tensor import Tensor, no_grad
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
    "run_experiment",
    "export_embeddings",
]

# ablation matrix: flag overrides applied on top of the configured TrainConfig
VARIANTS = {
    "source_only": dict(
        enable_adversarial=False,
        enable_selfsup=False,
        enable_gdm=False,
        enable_class_balance=False,
    ),
    "mcd": dict(enable_selfsup=False, enable_gdm=False, enable_class_balance=False),
    "cgdm_wo_selfsup": dict(enable_selfsup=False),
    "cgdm_wo_gdm": dict(enable_gdm=False),
    "cgdm_full": dict(),
}

METRICS_HEADER = "epoch,loss_cls,loss_dis,loss_gd,loss_cb,target_acc,pseudo_acc,seconds"


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
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown:
            raise ConfigError(f"unknown variants: {unknown}")
        if self.dataset == "csv" and not (self.csv_source and self.csv_target):
            raise ConfigError("csv dataset needs csv_source and csv_target paths")
        self.train.validate()


_EXP_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_TRAIN_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _coerce(key: str, raw: str, target_type):
    raw = raw.strip()
    if target_type is float:
        return float(raw)
    if target_type is int:
        return int(raw)
    if target_type is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if target_type is str:
        return raw
    raise ConfigError(f"{key}: unsupported value {raw!r}")


def _parse_line(cfg_kwargs, train_kwargs, key, raw):
    if key == "seeds":
        cfg_kwargs["seeds"] = [int(v) for v in raw.split(",") if v.strip()]
        return
    if key == "variants":
        cfg_kwargs["variants"] = [v.strip() for v in raw.split(",") if v.strip()]
        return
    if key in ("generator_hidden", "classifier_hidden"):
        train_kwargs[key] = tuple(int(v) for v in raw.split(",") if v.strip())
        return
    if key == "lr_generator":
        train_kwargs[key] = None if raw.strip().lower() == "none" else float(raw)
        return
    if key in _TRAIN_FIELDS:
        train_kwargs[key] = _coerce(key, raw, _train_field_type(key))
        return
    if key in _EXP_FIELDS and key != "train":
        cfg_kwargs[key] = _coerce(key, raw, _exp_field_type(key))
        return
    raise ConfigError(f"unknown config key {key!r}")


def _train_field_type(key):
    return {
        "alpha": float, "beta": float, "class_balance_weight": float,
        "lr": float, "momentum": float, "weight_decay": float,
        "batch_size": int, "epochs": int, "step3_repeats": int,
        "warmup_epochs": int, "seed": int, "feature_dim": int,
        "enable_adversarial": bool, "enable_selfsup": bool,
        "enable_gdm": bool, "enable_class_balance": bool,
        "conditional_gdm": bool,
    }[key]


def _exp_field_type(key):
    return {
        "dataset": str, "moons_n": int, "moons_noise": float,
        "moons_rotation_deg": float, "blobs_classes": int, "blobs_dim": int,
        "blobs_separation": float, "blobs_shift": float,
        "blobs_cov_scale": float, "blobs_n_per_class": int,
        "csv_source": str, "csv_target": str, "out_dir": str,
        "export_pseudo": bool, "include_timing": bool,
    }[key]


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
            key, raw = stripped.split("=", 1)
            try:
                _parse_line(cfg_kwargs, train_kwargs, key.strip(), raw)
            except (ValueError, KeyError) as err:
                if isinstance(err, ConfigError):
                    raise
                raise ConfigError(f"line {lineno}: {err}") from None
    cfg = ExperimentConfig(train=TrainConfig(**train_kwargs), **cfg_kwargs)
    cfg.validate()
    return cfg


def build_datasets(cfg: ExperimentConfig, seed: int) -> tuple[DomainSet, DomainSet]:
    if cfg.dataset == "two_moons":
        return data.make_two_moons_pair(
            cfg.moons_n, cfg.moons_noise, cfg.moons_rotation_deg, seed
        )
    if cfg.dataset == "blobs":
        return data.make_shifted_blobs(
            cfg.blobs_classes, cfg.blobs_dim, cfg.blobs_separation,
            cfg.blobs_shift, cfg.blobs_cov_scale, cfg.blobs_n_per_class, seed,
        )
    source = data.load_dataset_csv(cfg.csv_source, domain="source")
    target = data.load_dataset_csv(cfg.csv_target, domain="target")
    return source, target


def variant_config(base: TrainConfig, variant: str, seed: int) -> TrainConfig:
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    return replace(base, seed=seed, **VARIANTS[variant])


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_metrics_csv(metrics, path, include_timing: bool = False) -> None:
    with open(path, "w") as fh:
        fh.write(METRICS_HEADER + "\n")
        for m in metrics:
            seconds = m.seconds if include_timing else 0.0
            fh.write(
                ",".join(
                    [
                        str(m.epoch),
                        _fmt(m.loss_cls),
                        _fmt(m.loss_dis),
                        _fmt(m.loss_gd),
                        _fmt(m.loss_cb),
                        _fmt(m.target_acc),
                        _fmt(m.pseudo_acc),
                        _fmt(seconds),
                    ]
                )
                + "\n"
            )


def read_metrics_csv(path) -> list:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ParseError(f"{path} is not a metrics CSV", line=1)
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 8:
            raise ParseError("expected 8 fields", line=lineno)
        out.append(
            EpochMetrics(
                epoch=int(parts[0]),
                loss_cls=float(parts[1]),
                loss_dis=float(parts[2]),
                loss_gd=float(parts[3]),
                loss_cb=float(parts[4]),
                target_acc=float(parts[5]),
                pseudo_acc=float(parts[6]),
                seconds=float(parts[7]),
            )
        )
    return out


@dataclass
class RunResult:
    variant: str
    seed: int
    final_acc: float
    failed: bool
    metrics_path: str
    metrics: list
    model: trainer.BiClassifierModel


@dataclass
class ExperimentSummary:
    runs: list
    out_dir: str

    @property
    def any_failed(self) -> bool:
        return any(r.failed for r in self.runs)

    def variant_accs(self, variant: str) -> list:
        return [r.final_acc for r in self.runs if r.variant == variant]

    def mean_acc(self, variant: str) -> float:
        return float(np.mean(self.variant_accs(variant)))

    def std_acc(self, variant: str) -> float:
        return float(np.std(self.variant_accs(variant)))


def _run_failed(metrics, cfg: TrainConfig) -> bool:
    """True when a loss that ``cfg`` computes in some epoch is not finite.

    A NaN in a field the config never computes for that epoch only means
    "not computed" (see :meth:`TrainConfig.computed_losses`).
    """
    adversarial = cfg.computed_losses()
    for m in metrics:
        names = adversarial if m.epoch > cfg.warmup_epochs else ("loss_cls",)
        if any(not math.isfinite(getattr(m, name)) for name in names):
            return True
    return False


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Run every (variant, seed) pair, write per-run metrics and a summary.

    The summary reports mean and std of the final-epoch target accuracy per
    variant.  A run that produces a non-finite loss is marked failed.
    """
    cfg.validate()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    for variant in cfg.variants:
        for seed in cfg.seeds:
            source, target = build_datasets(cfg, seed)
            run_cfg = variant_config(cfg.train, variant, seed)
            metrics, model = trainer.train(source, target, run_cfg)
            failed = _run_failed(metrics, run_cfg)
            path = out_dir / f"metrics_{variant}_seed{seed}.csv"
            write_metrics_csv(metrics, path, include_timing=cfg.include_timing)
            final_acc = metrics[-1].target_acc if metrics else float("nan")
            runs.append(
                RunResult(variant, seed, final_acc, failed, str(path), metrics, model)
            )
            if cfg.export_pseudo and metrics:
                pseudo = pseudo_labels.pseudo_label_epoch(
                    model.generator, model.classifier1, model.classifier2,
                    target.unlabeled(),
                )
                pseudo_labels.save_pseudo_csv(
                    pseudo, out_dir / f"pseudo_{variant}_seed{seed}.csv"
                )
    summary = ExperimentSummary(runs, str(out_dir))
    _write_summary(cfg, summary, out_dir / "summary.csv")
    return summary


def _write_summary(cfg: ExperimentConfig, summary: ExperimentSummary, path) -> None:
    lines = ["variant,n_seeds,mean_target_acc,std_target_acc,failed_runs"]
    for variant in cfg.variants:
        accs = summary.variant_accs(variant)
        failed = sum(1 for r in summary.runs if r.variant == variant and r.failed)
        lines.append(
            ",".join(
                [
                    variant,
                    str(len(accs)),
                    _fmt(float(np.mean(accs))),
                    _fmt(float(np.std(accs))),
                    str(failed),
                ]
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def export_embeddings(gen: nn.Mlp, dset: DomainSet, path) -> None:
    """CSV of generator outputs: sample_id,domain,label,f0..f{d-1}.

    Unlabeled samples get label -1.  Values round-trip exactly as text.
    """
    if dset.n == 0:
        raise ConfigError("cannot export embeddings of an empty set")
    with no_grad():
        feats = nn.forward(gen, Tensor(dset.features)).values
    d = feats.shape[1]
    header = "sample_id,domain,label," + ",".join(f"f{i}" for i in range(d))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(dset.n):
            label = -1 if dset.labels is None else int(dset.labels[i])
            vals = ",".join(_fmt(v) for v in feats[i])
            fh.write(f"{i},{dset.domain},{label},{vals}\n")
