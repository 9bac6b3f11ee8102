"""Command-line front end: split, train, evaluate, diagnose.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
A flat key=value config file can seed the flags that configure a run (keys
are the flag names); explicit flags win, and an unknown key is a usage error.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import os
import shutil
import sys
from dataclasses import dataclass, asdict, field

# One BLAS thread unless the user set the variable: bitwise reproducibility
# assumes it, and small BLAS calls lose to thread hand-offs. It must be set
# before numpy is first imported, so it holds where threadpoolctl is missing.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np

from . import data as data_mod
from . import evaluate as eval_mod
from .diagnostics import run_all
from .graph import BACKBONES, build_signed_graph
from .model import VARIANTS, ModelConfig, save_checkpoint
from .train import LOSSES, TrainConfig, TrainingDiverged, train

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

    def __post_init__(self):
        self.ks = tuple(sorted(self.ks))
        if not self.ks or self.ks[0] < 1:
            raise ValueError("--k must be >= 1")
        # a threshold at or beyond the rating scale's ends makes every edge one sign
        lo, hi = data_mod.RATING_SCALE
        if not lo < self.w_o < hi:
            raise ValueError("--w-o must lie strictly between 1 and 5")
        if self.format not in data_mod.FORMATS:
            raise ValueError(f"--format must be one of {', '.join(data_mod.FORMATS)}")
        if self.k_folds < 2:
            raise ValueError("--folds must be >= 2")
        if self.min_interactions < 0:
            raise ValueError("--min-interactions must be >= 0")
        if self.threads < 1:
            raise ValueError("--threads must be >= 1")


_ALL, _TRAIN = ("split", "train", "evaluate"), ("train",)
# Every flag that configures a run: argparse dest -> (the commands that take it,
# the config object and field it sets, its add_argument options). A --config
# file key is a dest, and its value is read with the flag's own type.
FLAGS = {
    "dataset": (_ALL, "experiment", "dataset", {}),
    "min_interactions": (_ALL, "experiment", "min_interactions", dict(type=int)),
    "folds": (_ALL, "experiment", "k_folds", dict(type=int)),
    "seed": (_ALL, "experiment", "seed", dict(type=int)),
    "threads": (_ALL, "experiment", "threads", dict(type=int)),
    "out": (_ALL, "experiment", "out", {}),
    "format": (("split",), "experiment", "format", dict(choices=data_mod.FORMATS)),
    "w_o": (_TRAIN, "experiment", "w_o", dict(type=float)),
    "backbone": (_TRAIN, "model", "backbone", dict(choices=BACKBONES)),
    "variant": (_TRAIN, "model", "variant", dict(choices=VARIANTS)),
    "loss": (_TRAIN, "training", "loss", dict(choices=LOSSES)),
    "positive_only": (_TRAIN, "training", "positive_edges_only", dict(
        action="store_true", default=None, help="train on positive edges only (baseline mode)")),
    "layers": (_TRAIN, "model", "gnn_layers", dict(type=int, help="GNN layer count")),
    "dim": (_TRAIN, "model", "dim", dict(type=int)),
    "n_neg": (_TRAIN, "training", "n_neg", dict(type=int)),
    "c": (_TRAIN, "training", "c", dict(type=float)),
    "lambda_reg": (_TRAIN, "training", "lambda_reg", dict(type=float)),
    "lr": (_TRAIN, "training", "learning_rate", dict(type=float)),
    "batch_size": (_TRAIN, "training", "batch_size", dict(type=int)),
    "epochs": (_TRAIN, "training", "epochs", dict(type=int)),
    "k": (("evaluate",), "experiment", "ks", dict(type=int, action="append")),
}
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def read_config_file(path: str) -> dict:
    """Flat key=value file mirroring the flags, each set once.

    A line whose first non-blank character is '#' is a comment; anywhere
    else '#' is part of the line, so a value may hold one.
    """
    with open(path, "r", encoding="utf-8") as fh, data_mod.holding(path, "UTF-8 text"):
        lines = fh.readlines()
    values = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in values:
            raise UsageError(f"config key {key} is set twice")
        values[key] = value.strip()
    return values


def _read_value(name: str, raw: str):
    """A config-file value, read as flag ``name`` reads it (a comma list if it repeats)."""
    options = FLAGS[name][3]
    if options.get("action") == "store_true":
        return _BOOLEANS[raw.lower()]
    cast = options.get("type", str)
    return [cast(v) for v in raw.split(",")] if options.get("action") == "append" else cast(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="signrec", description=__doc__)
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {"split": sub.add_parser("split", help="materialize fold manifests"),
                "train": sub.add_parser("train", help="train one fold"),
                "evaluate": sub.add_parser("evaluate", help="evaluate trained folds")}
    for name, (takers, _, _, options) in FLAGS.items():
        for command in takers:
            commands[command].add_argument("--" + name.replace("_", "-"), **options)
    commands["split"].add_argument("--force", action="store_true")
    commands["train"].add_argument("--fold", type=int, default=0)
    commands["evaluate"].add_argument("--run", action="append", required=True,
                                      help="run directory (repeat to aggregate across folds)")
    commands["evaluate"].add_argument("--groups", action="store_true",
                                      help="report per interaction-sparsity group")
    sub.add_parser("diagnose", help="run built-in numerical self checks")
    return parser


def _merge_config(args) -> ExperimentConfig:
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_values) - FLAGS.keys())
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    # a field that neither a flag nor the file sets keeps its dataclass default
    fields = {"experiment": {}, "model": {}, "training": {}}
    for name, (_, target, field_name, _) in FLAGS.items():
        value = getattr(args, name, None)
        if value is None and name in file_values:
            raw = file_values[name]
            try:
                value = _read_value(name, raw)
            except (KeyError, ValueError):
                raise UsageError(f"config key {name}: bad value {raw!r}") from None
        if value is not None:
            fields[target][field_name] = value
    try:  # each config object checks its own values
        cfg = ExperimentConfig(**fields["experiment"])
        cfg.model = ModelConfig(**fields["model"])
        cfg.training = TrainConfig(seed=cfg.seed, **fields["training"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # with no negative edge, no-split is no-gn and gnn-gn's second GNN sees an empty graph
    if cfg.training.positive_edges_only and cfg.model.variant in ("no-split", "gnn-gn"):
        raise UsageError(f"--positive-only leaves no negative edge for --variant "
                         f"{cfg.model.variant}; use no-gn or mlp-gn")
    return cfg


def _set_threads(n: int) -> None:
    try:
        import threadpoolctl
    except ImportError:  # then only the variables set before numpy loaded count
        if any(os.environ.get(var) != str(n) for var in _THREAD_VARS):
            raise UsageError(f"--threads {n} needs threadpoolctl, or "
                             f"{', '.join(_THREAD_VARS)} all set to {n}") from None
    else:
        threadpoolctl.threadpool_limits(limits=n)


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _manifest_dir(cfg: ExperimentConfig) -> str:
    """The manifest directory of ``cfg``'s split, named after its dataset file."""
    if not cfg.dataset:
        raise UsageError("--dataset is required")
    return os.path.join(cfg.out, f"{_stem(cfg.dataset)}-folds-k{cfg.k_folds}-seed{cfg.seed}")


def _check_same_split(run_dir: str, run_cfg: dict, cfg: ExperimentConfig) -> None:
    """A run whose config records another split than ``cfg``'s is a data error.

    The dataset is compared by its stem, which names the manifest directory.
    A key the config does not hold is not checked.
    """
    for key, name, own in (("dataset", "dataset stem", _stem(cfg.dataset)),
                           ("k_folds", "--folds", cfg.k_folds), ("seed", "--seed", cfg.seed),
                           ("min_interactions", "--min-interactions", cfg.min_interactions)):
        if key not in run_cfg:
            continue
        recorded = run_cfg[key]
        if key == "dataset" and isinstance(recorded, str):
            recorded = _stem(recorded)
        if recorded != own:
            raise ValueError(f"{run_dir} was trained on the split with {name} {recorded!r}, "
                             f"not {name} {own!r}; evaluate it with its split's settings")


@contextlib.contextmanager
def _removed_on_failure(*paths: str):
    """If the block raises, remove those of ``paths`` that did not exist before it.

    An interrupt is not a failure: it keeps what the run has written so far.
    """
    made = [path for path in paths if not os.path.lexists(path)]
    try:
        yield
    except Exception:
        for path in made:
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            elif os.path.lexists(path):
                os.remove(path)
        raise


def cmd_split(args, cfg: ExperimentConfig) -> int:
    directory = _manifest_dir(cfg)
    records = data_mod.parse_ratings(cfg.dataset, cfg.format)
    if cfg.min_interactions > 0:
        records = data_mod.filter_min_interactions(records, cfg.min_interactions)
    data_mod.reject_repeated_pairs(records, records.users, records.items)
    folds = data_mod.kfold_split(records, cfg.k_folds, cfg.seed)
    paths = data_mod.write_fold_manifests(folds, directory, data_mod.build_descriptor(records),
                                          cfg.min_interactions, force=args.force)
    print(f"wrote {len(paths)} fold manifests to {directory}")
    return EXIT_OK


def run_dir_name(cfg: ExperimentConfig, fold: int) -> str:
    stem = _stem(cfg.dataset)
    tag = cfg.training.loss if not cfg.training.positive_edges_only else "posonly"
    return os.path.join(
        cfg.out,
        f"{stem}-{cfg.model.backbone}-{cfg.model.variant}-{tag}-fold{fold}-seed{cfg.seed}")


def cmd_train(args, cfg: ExperimentConfig) -> int:
    if not 0 <= args.fold < cfg.k_folds:
        raise UsageError(f"--fold must lie in [0, {cfg.k_folds})")
    directory = _manifest_dir(cfg)
    folds, descriptor = data_mod.read_fold_manifests(directory, cfg.k_folds, cfg.min_interactions)
    g = build_signed_graph(folds[args.fold].train, descriptor, cfg.w_o)
    positive = cfg.training.positive_edges_only
    if not (g.weights > 0 if positive else g.weights).any():
        raise ValueError(f"{directory}: the training ratings of fold {args.fold} make no "
                         f"{'positive' if positive else 'signed'} edge at --w-o {cfg.w_o}")
    run_dir = run_dir_name(cfg, args.fold)
    subs = [os.path.join(run_dir, sub) for sub in ("checkpoints", "logs", "reports")]
    # a failed training leaves nothing it made, and every file it found
    with _removed_on_failure(run_dir, *subs, os.path.join(run_dir, "config")):
        for sub in subs:
            os.makedirs(sub, exist_ok=True)
        with open(os.path.join(run_dir, "config"), "w", encoding="utf-8") as fh:
            json.dump(asdict(cfg) | {"fold": args.fold}, fh, indent=2, sort_keys=True)
        result = train(g, cfg.model, cfg.training)
        save_checkpoint(os.path.join(run_dir, "checkpoints", "final.npz"), result.state)
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
    directory = _manifest_dir(cfg)
    folds, descriptor = data_mod.read_fold_manifests(directory, cfg.k_folds, cfg.min_interactions)
    reports = []
    for run_dir in args.run:
        config_path, emb_path = (os.path.join(run_dir, f) for f in ("config", "embeddings.npy"))
        if not os.path.isfile(config_path):
            raise FileNotFoundError(f"{run_dir}: missing config")
        with (open(config_path, "r", encoding="utf-8") as fh,
              data_mod.holding(config_path, "a run config")):
            run_cfg = json.load(fh)
        if not isinstance(run_cfg, dict):
            raise ValueError(f"{config_path}: not a run config (a JSON object)")
        _check_same_split(run_dir, run_cfg, cfg)
        fold_index = run_cfg.get("fold")
        if type(fold_index) is not int or not 0 <= fold_index < len(folds):
            raise ValueError(f"{run_dir}: config fold {fold_index!r} is not an integer "
                             f"in [0, {len(folds)})")
        fold = folds[fold_index]
        if not os.path.isfile(emb_path):
            raise FileNotFoundError(f"{emb_path} is missing: the run's training did not finish")
        with open(emb_path, "rb") as fh, data_mod.holding(emb_path, "an embeddings array"):
            embeddings = np.lib.format.read_array(fh)  # np.load's reader for a .npy file
        nodes = descriptor.num_users + descriptor.num_items
        if embeddings.ndim != 2 or embeddings.shape[0] != nodes:
            raise ValueError(f"{emb_path}: a {embeddings.shape} array, not {nodes} rows "
                             "(the dataset's users and items) of embeddings")
        if not np.issubdtype(embeddings.dtype, np.floating):
            raise ValueError(f"{emb_path}: {embeddings.dtype} values, not real "
                             "floating-point embeddings")
        truth = eval_mod.ground_truth(fold.test, descriptor)
        exclude = eval_mod.train_interactions(fold.train, descriptor)
        try:
            report = eval_mod.evaluate(embeddings, descriptor.num_users, truth, exclude,
                                       cfg.ks, groups=args.groups)
        except ValueError as exc:
            raise ValueError(f"{run_dir}: {exc}") from None
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


def cmd_diagnose() -> int:
    results = run_all()
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
            return cmd_diagnose()
        cfg = _merge_config(args)
        _set_threads(cfg.threads)
        command = {"split": cmd_split, "train": cmd_train, "evaluate": cmd_evaluate}
        return command[args.command](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # ParseError and ValidationError included
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDiverged, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
