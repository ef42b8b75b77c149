"""Command-line interface.

Subcommands: gen-data, train, bench, gradcheck, export-embeddings.
Exit codes: 0 success, 1 configuration or command-line error, 2 run failure.
Every error is one line on standard error; ``--help`` prints the usage text
and exits 0.  Logged warnings are ``warning: <message>`` lines on stdout.
"""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import checks, harness, nn, trainer
from .data import ParseError, save_dataset_csv
from .tensor import DomainError
from .trainer import ConfigError


def _load_config(args) -> harness.ExperimentConfig:
    if not args.config:
        raise ConfigError("--config is required")
    cfg = harness.parse_config(args.config)
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "seed", None) is not None:
        cfg.seeds = [args.seed]
    return cfg


def _cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.seeds[0]
    source, target = harness.build_datasets(cfg, seed)
    save_dataset_csv(source, out / "source.csv")
    save_dataset_csv(target, out / "target.csv")
    print(f"wrote {out / 'source.csv'} ({source.n} rows) and "
          f"{out / 'target.csv'} ({target.n} rows)")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    seed = cfg.seeds[0]
    run = harness.run_variant(cfg, args.variant, seed)
    if run.failed:
        raise run.error
    if args.save_model:
        nn.save_params(
            {"generator": run.model.generator, "classifier": run.model.classifiers},
            args.save_model,
        )
    print(f"{args.variant} seed={seed}: final target accuracy {run.final_acc:.4f} "
          f"({len(run.metrics)} epochs); metrics in {run.metrics_path}")
    return 0


def _cmd_bench(args) -> int:
    cfg = _load_config(args)
    summary = harness.run_experiment(cfg)
    print(f"summary written to {Path(summary.out_dir) / 'summary.csv'}")
    for variant in cfg.variants:
        print(f"  {variant:16s} {summary.mean_acc(variant):.4f} "
              f"+- {summary.std_acc(variant):.4f}")
    failed = [r for r in summary.runs if r.failed]
    if failed:
        raise DomainError(f"{len(failed)} of {len(summary.runs)} runs failed; first: "
                          f"{failed[0].variant} seed {failed[0].seed}: {failed[0].error}")
    return 0


def _cmd_gradcheck(args) -> int:
    results = [
        checks.run_first_order_suite(seed=args.seed),
        checks.run_second_order_suite(seed=args.seed + 1),
        checks.run_oracle_suite(seed=args.seed + 2),
    ]
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: max err {r.max_err:.3e} "
              f"(tol {r.tolerance:.0e}, {r.seconds:.1f}s)")
        ok = ok and r.passed
    return 0 if ok else 2


def _cmd_export_embeddings(args) -> int:
    cfg = _load_config(args)
    seed = cfg.seeds[0]
    source, target = harness.build_datasets(cfg, seed)
    if args.model:
        gen = nn.load_params(args.model).get("generator")
        if gen is None:
            raise ConfigError(f"{args.model} holds no generator")
    else:
        run_cfg = harness.variant_config(cfg.train, args.variant, seed)
        _, model = trainer.train(source, target, run_cfg)
        gen = model.generator
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    harness.export_embeddings(gen, source, out / "embeddings_source.csv")
    harness.export_embeddings(gen, target, out / "embeddings_target.csv")
    print(f"wrote embeddings to {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error (a missing or unknown option or value) exits 1 with one
    ``error:`` line, like a config error; subparsers are made of this class."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _seed(raw: str) -> int:
    """A ``--seed`` value: a nonnegative integer, as numpy's seeding takes."""
    if not (raw.isascii() and raw.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {raw!r}")
    return int(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cgdm",
        description="Bi-classifier adversarial domain adaptation with "
                    "cross-domain gradient alignment, on synthetic benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write dataset CSVs for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="single training run from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--variant", default="cgdm_full", choices=sorted(harness.VARIANTS))
    p.add_argument("--save-model", default=None, help="checkpoint path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("bench", help="full ablation matrix over all seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference and oracle suites")
    p.add_argument("--seed", type=_seed, default=20240)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("export-embeddings", help="CSV of generator features")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--variant", default="cgdm_full", choices=sorted(harness.VARIANTS))
    p.add_argument("--model", default=None, help="load this checkpoint instead "
                                                 "of training")
    p.set_defaults(func=_cmd_export_embeddings)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    to_stdout = logging.StreamHandler(sys.stdout)
    to_stdout.setFormatter(logging.Formatter("warning: %(message)s"))
    logging.getLogger("cgdm").addHandler(to_stdout)
    try:
        return args.func(args)
    except (ConfigError, ParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:  # a config asking for an array too large to allocate
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 1
    except DomainError as err:  # a diverged training run, or bench's failed runs
        print(f"run failed: {err}", file=sys.stderr)
        return 2
    finally:
        logging.getLogger("cgdm").removeHandler(to_stdout)


if __name__ == "__main__":
    sys.exit(main())
