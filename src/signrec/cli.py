"""Command-line front end: split, train, evaluate, diagnose.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
A flat key=value config file can seed the flags that configure a run (keys
are the flag names); explicit flags win, and an unknown key is a usage error.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import dataclass, asdict, field

import numpy as np

from . import data as data_mod
from . import evaluate as eval_mod
from .diagnostics import run_all
from .graph import build_signed_graph
from .model import ModelConfig, save_checkpoint
from .train import TrainConfig, TrainingDiverged, train

log = logging.getLogger("signrec")

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERICAL = 0, 1, 2, 3


class UsageError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    dataset: str = ""
    format: str = "tsv"
    w_o: float = 3.5
    min_interactions: int = 0
    k_folds: int = 5
    ks: tuple = (5, 10, 15)
    out: str = "runs"
    seed: int = 0
    threads: int = 1
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)

    def resolved(self) -> dict:
        d = asdict(self)
        d["model"] = asdict(self.model)
        d["training"] = asdict(self.training)
        return d


def read_config_file(path: str) -> dict:
    """Flat key=value file mirroring the flags; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="signrec", description=__doc__)
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dataset")
        p.add_argument("--format", choices=["tsv", "movielens-dat"])
        p.add_argument("--w-o", type=float, dest="w_o")
        p.add_argument("--min-interactions", type=int)
        p.add_argument("--folds", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--out")

    p_split = sub.add_parser("split", help="materialize fold manifests")
    common(p_split)
    p_split.add_argument("--force", action="store_true")

    p_train = sub.add_parser("train", help="train one fold")
    common(p_train)
    p_train.add_argument("--fold", type=int, default=0)
    p_train.add_argument("--backbone", choices=["lightgcn", "lrgccf", "ngcf"])
    p_train.add_argument("--variant", choices=["mlp-gn", "gnn-gn", "no-gn", "no-split"])
    p_train.add_argument("--loss", choices=["sign-aware-bpr", "standard-bpr"])
    p_train.add_argument("--positive-only", action="store_true", default=None,
                         help="train on positive edges only (baseline mode)")
    p_train.add_argument("--layers", type=int, help="GNN layer count")
    p_train.add_argument("--dim", type=int)
    p_train.add_argument("--n-neg", type=int)
    p_train.add_argument("--c", type=float)
    p_train.add_argument("--lambda-reg", type=float)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--batch-size", type=int)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--checkpoint-every", type=int, default=0)

    p_eval = sub.add_parser("evaluate", help="evaluate trained folds")
    common(p_eval)
    p_eval.add_argument("--run", action="append", required=True,
                        help="run directory (repeat to aggregate across folds)")
    p_eval.add_argument("--k", type=int, action="append")
    p_eval.add_argument("--groups", action="store_true",
                        help="report per interaction-sparsity group")

    p_diag = sub.add_parser("diagnose", help="run built-in numerical self checks")
    p_diag.add_argument("--inject-gradient-bug", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    return parser


# Keys a --config file may set: the names of the flags it stands in for.
CONFIG_KEYS = frozenset({
    "dataset", "format", "w_o", "min_interactions", "folds", "seed", "threads", "out", "k",
    "backbone", "variant", "loss", "positive_only", "layers", "dim", "n_neg", "c",
    "lambda_reg", "lr", "batch_size", "epochs",
})
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _int_list(raw: str) -> list:
    return [int(v) for v in raw.split(",")]


def _merge_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_values) - CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")

    def pick(name, cast, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name not in file_values:
            return default
        raw = file_values[name]
        try:
            return _BOOLEANS[raw.lower()] if cast is bool else cast(raw)
        except (KeyError, ValueError):
            raise UsageError(f"config key {name}: bad value {raw!r}") from None

    cfg.dataset = pick("dataset", str, cfg.dataset)
    cfg.format = pick("format", str, cfg.format)
    cfg.w_o = pick("w_o", float, cfg.w_o)
    cfg.min_interactions = pick("min_interactions", int, cfg.min_interactions)
    cfg.k_folds = pick("folds", int, cfg.k_folds)
    cfg.seed = pick("seed", int, cfg.seed)
    cfg.threads = pick("threads", int, cfg.threads)
    cfg.out = pick("out", str, cfg.out)
    cfg.ks = tuple(sorted(pick("k", _int_list, cfg.ks)))
    if cfg.ks[0] < 1:
        raise UsageError("--k must be >= 1")

    try:
        cfg.model = ModelConfig(
            backbone=pick("backbone", str, "lightgcn"),
            variant=pick("variant", str, "mlp-gn"),
            dim=pick("dim", int, 64),
            gnn_layers=pick("layers", int, 3),
        )
        cfg.training = TrainConfig(
            n_neg=pick("n_neg", int, 40),
            c=pick("c", float, 2.0),
            lambda_reg=pick("lambda_reg", float, 0.1),
            learning_rate=pick("lr", float, 0.005),
            batch_size=pick("batch_size", int, 1024),
            epochs=pick("epochs", int, 200),
            seed=cfg.seed,
            loss=pick("loss", str, "sign-aware-bpr"),
            positive_edges_only=pick("positive_only", bool, False),
        )
    except ValueError as exc:  # a config object's check, or a bad config-file value
        raise UsageError(str(exc)) from None
    return cfg


def _set_threads(n: int) -> None:
    try:
        import threadpoolctl
        threadpoolctl.threadpool_limits(limits=n)
    except ImportError:  # pragma: no cover
        log.warning("threadpoolctl unavailable; thread limit not enforced")


def _load_dataset(cfg: ExperimentConfig):
    if not cfg.dataset:
        raise UsageError("--dataset is required")
    records = data_mod.parse_ratings(cfg.dataset, cfg.format)
    if cfg.min_interactions > 0:
        records = data_mod.filter_min_interactions(records, cfg.min_interactions)
    descriptor = data_mod.build_descriptor(records)
    return records, descriptor


def _manifest_dir(cfg: ExperimentConfig) -> str:
    stem = os.path.splitext(os.path.basename(cfg.dataset))[0]
    return os.path.join(cfg.out, f"{stem}-folds-k{cfg.k_folds}-seed{cfg.seed}")


def cmd_split(args, cfg: ExperimentConfig) -> int:
    records, _ = _load_dataset(cfg)
    folds = data_mod.kfold_split(records, cfg.k_folds, cfg.seed)
    directory = _manifest_dir(cfg)
    paths = data_mod.write_fold_manifests(folds, directory, force=args.force)
    print(f"wrote {len(paths)} fold manifests to {directory}")
    return EXIT_OK


def run_dir_name(cfg: ExperimentConfig, fold: int) -> str:
    stem = os.path.splitext(os.path.basename(cfg.dataset))[0]
    tag = cfg.training.loss if not cfg.training.positive_edges_only else "posonly"
    return os.path.join(
        cfg.out,
        f"{stem}-{cfg.model.backbone}-{cfg.model.variant}-{tag}-fold{fold}-seed{cfg.seed}")


def cmd_train(args, cfg: ExperimentConfig) -> int:
    if not 0 <= args.fold < cfg.k_folds:
        raise UsageError(f"--fold must lie in [0, {cfg.k_folds})")
    records, descriptor = _load_dataset(cfg)
    directory = _manifest_dir(cfg)
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"fold manifests missing at {directory}; run split first")
    folds = data_mod.read_fold_manifests(directory, cfg.k_folds)
    fold = folds[args.fold]

    g = build_signed_graph(fold.train, descriptor, cfg.w_o)
    run_dir = run_dir_name(cfg, args.fold)
    for sub in ("checkpoints", "logs", "reports"):
        os.makedirs(os.path.join(run_dir, sub), exist_ok=True)
    with open(os.path.join(run_dir, "config"), "w", encoding="utf-8") as fh:
        json.dump(cfg.resolved() | {"fold": args.fold}, fh, indent=2, sort_keys=True)

    checkpoint_every = args.checkpoint_every

    def on_epoch(entry, state):
        if checkpoint_every and (entry.epoch + 1) % checkpoint_every == 0:
            save_checkpoint(os.path.join(run_dir, "checkpoints", f"epoch{entry.epoch}.bin"),
                            state, cfg.model, descriptor.num_users, descriptor.num_items)

    result = train(g, cfg.model, cfg.training, epoch_callback=on_epoch)

    save_checkpoint(os.path.join(run_dir, "checkpoints", "final.bin"),
                    result.state, cfg.model, descriptor.num_users, descriptor.num_items)
    np.save(os.path.join(run_dir, "embeddings.npy"), result.embeddings)
    with open(os.path.join(run_dir, "logs", "epochs.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        # no wall times here: the log must be bitwise reproducible for a fixed seed
        writer.writerow(["epoch", "mean_loss"])
        for entry in result.log:
            writer.writerow([entry.epoch, f"{entry.mean_loss:.12f}"])
    print(f"trained fold {args.fold}: final mean loss {result.log[-1].mean_loss:.6f} "
          f"-> {run_dir}")
    return EXIT_OK


def cmd_evaluate(args, cfg: ExperimentConfig) -> int:
    records, descriptor = _load_dataset(cfg)
    directory = _manifest_dir(cfg)
    folds = data_mod.read_fold_manifests(directory, cfg.k_folds)

    reports = []
    for run_dir in args.run:
        config_path = os.path.join(run_dir, "config")
        if not os.path.isfile(config_path):
            raise FileNotFoundError(f"{run_dir}: missing config")
        with open(config_path, "r", encoding="utf-8") as fh:
            run_cfg = json.load(fh)
        fold = folds[run_cfg["fold"]]
        embeddings = np.load(os.path.join(run_dir, "embeddings.npy"))
        if embeddings.shape[0] != descriptor.num_users + descriptor.num_items:
            raise ValueError(f"{run_dir}: embeddings do not match dataset dimensions")
        truth = eval_mod.ground_truth(fold.test, descriptor)
        exclude = eval_mod.train_interactions(fold.train, descriptor)
        report = eval_mod.evaluate(embeddings, descriptor.num_users, truth, exclude,
                                   cfg.ks, groups=args.groups)
        eval_mod.write_report_csv(report, os.path.join(run_dir, "reports", "metrics.csv"))
        print(f"{run_dir}:")
        print(eval_mod.format_report(report))
        reports.append(report)

    if len(reports) > 1:
        summary = eval_mod.aggregate_fold_reports(reports)
        print("\nacross folds (mean +- std):")
        for (k, metric), (mean, std) in sorted(summary.items()):
            print(f"  {metric}@{k}: {mean:.4f} +- {std:.4f}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    results = run_all(perturb_gradients=args.inject_gradient_bug)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        failed |= not res.passed
    return EXIT_NUMERICAL if failed else EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        if args.command == "diagnose":
            return cmd_diagnose(args)
        cfg = _merge_config(args)
        if cfg.threads < 1:
            raise UsageError("--threads must be >= 1")
        _set_threads(cfg.threads)
        if args.command == "split":
            if cfg.k_folds < 2:
                raise UsageError("--folds must be >= 2")
            return cmd_split(args, cfg)
        if args.command == "train":
            return cmd_train(args, cfg)
        if args.command == "evaluate":
            return cmd_evaluate(args, cfg)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (data_mod.ParseError, data_mod.ValidationError, FileNotFoundError,
            FileExistsError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDiverged, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
