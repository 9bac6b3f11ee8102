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
        p.add_argument("--min-interactions", type=int)
        p.add_argument("--folds", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--out")

    p_split = sub.add_parser("split", help="materialize fold manifests")
    common(p_split)
    p_split.add_argument("--format", choices=data_mod.FORMATS)
    p_split.add_argument("--force", action="store_true")

    p_train = sub.add_parser("train", help="train one fold")
    common(p_train)
    p_train.add_argument("--fold", type=int, default=0)
    p_train.add_argument("--w-o", type=float)
    p_train.add_argument("--backbone", choices=BACKBONES)
    p_train.add_argument("--variant", choices=VARIANTS)
    p_train.add_argument("--loss", choices=LOSSES)
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

    p_eval = sub.add_parser("evaluate", help="evaluate trained folds")
    common(p_eval)
    p_eval.add_argument("--run", action="append", required=True,
                        help="run directory (repeat to aggregate across folds)")
    p_eval.add_argument("--k", type=int, action="append")
    p_eval.add_argument("--groups", action="store_true",
                        help="report per interaction-sparsity group")

    sub.add_parser("diagnose", help="run built-in numerical self checks")
    return parser


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _int_list(raw: str) -> list:
    return [int(v) for v in raw.split(",")]


# The fields of each config object that flags set: field -> (flag name, parser
# of a config-file value). A field that no flag or config-file key sets keeps
# its dataclass default.
_EXPERIMENT_FLAGS = {
    "dataset": ("dataset", str), "format": ("format", str), "w_o": ("w_o", float),
    "min_interactions": ("min_interactions", int), "k_folds": ("folds", int),
    "seed": ("seed", int), "threads": ("threads", int), "out": ("out", str),
    "ks": ("k", _int_list),
}
_MODEL_FLAGS = {
    "backbone": ("backbone", str), "variant": ("variant", str), "dim": ("dim", int),
    "gnn_layers": ("layers", int),
}
_TRAINING_FLAGS = {
    "n_neg": ("n_neg", int), "c": ("c", float), "lambda_reg": ("lambda_reg", float),
    "learning_rate": ("lr", float), "batch_size": ("batch_size", int),
    "epochs": ("epochs", int), "loss": ("loss", str),
    "positive_edges_only": ("positive_only", bool),
}
# Keys a --config file may set: the names of the flags it stands in for.
CONFIG_KEYS = frozenset(name for flags in (_EXPERIMENT_FLAGS, _MODEL_FLAGS, _TRAINING_FLAGS)
                        for name, _ in flags.values())


def _merge_config(args) -> ExperimentConfig:
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_values) - CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")

    def given(flags) -> dict:
        """The fields in ``flags`` that a flag or the config file sets."""
        values = {}
        for field_name, (name, cast) in flags.items():
            flag = getattr(args, name, None)
            if flag is not None:
                values[field_name] = flag
            elif name in file_values:
                raw = file_values[name]
                try:
                    values[field_name] = _BOOLEANS[raw.lower()] if cast is bool else cast(raw)
                except (KeyError, ValueError):
                    raise UsageError(f"config key {name}: bad value {raw!r}") from None
        return values

    cfg = ExperimentConfig(**given(_EXPERIMENT_FLAGS))
    cfg.ks = tuple(sorted(cfg.ks))
    if cfg.ks[0] < 1:
        raise UsageError("--k must be >= 1")
    # a threshold at or beyond the rating scale's ends makes every training
    # edge one sign
    lo, hi = data_mod.RATING_SCALE
    if not lo < cfg.w_o < hi:
        raise UsageError("--w-o must lie strictly between 1 and 5")
    if cfg.format not in data_mod.FORMATS:
        raise UsageError(f"--format must be one of {', '.join(data_mod.FORMATS)}")
    if cfg.min_interactions < 0:
        raise UsageError("--min-interactions must be >= 0")

    try:
        cfg.model = ModelConfig(**given(_MODEL_FLAGS))
        cfg.training = TrainConfig(seed=cfg.seed, **given(_TRAINING_FLAGS))
    except ValueError as exc:  # a config object's check, or a bad config-file value
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
def _manifest_ids(directory: str):
    """Report an id of the manifests that the node index lacks as a data error."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{directory}: the manifests name {exc.args[0]!r}, which its "
                         f"{data_mod.NODE_INDEX} does not hold; split it again") from None


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
    paths = data_mod.write_fold_manifests(folds, directory, force=args.force)
    data_mod.write_node_index(directory, data_mod.build_descriptor(records),
                              cfg.min_interactions)
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
    folds = data_mod.read_fold_manifests(directory, cfg.k_folds)
    descriptor = data_mod.read_node_index(directory, cfg.min_interactions)
    fold = folds[args.fold]

    with _manifest_ids(directory):
        g = build_signed_graph(fold.train, descriptor, cfg.w_o)
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
    folds = data_mod.read_fold_manifests(directory, cfg.k_folds)
    descriptor = data_mod.read_node_index(directory, cfg.min_interactions)

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
        with _manifest_ids(directory):
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
    except (ValueError, OSError) as exc:  # ParseError and ValidationError included
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDiverged, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
