"""The three benchmark workloads.

Each workload generates its inputs from the workload seed (``prepare``);
then each job process runs the program's set-up path once (``setup``) and
one job (``job``), one process at a time in a closed loop. Jobs call only the public functions of
``signrec.data``, ``graph``, ``train``, ``evaluate`` and ``cli``. Set-up and
job parts are timed as regions of the context's :class:`HostClock`, which
scales them to a fixed host speed.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass

import numpy as np

from signrec import cli, data, graph, train as train_mod
from signrec import evaluate as eval_mod
from signrec.model import ModelConfig

import synth

FOLDS = 5
W_O = 3.5
KS = (5, 10, 15, 20)


@dataclass
class JobResult:
    wall_s: float          # wall time, the reference kernel's runs included
    program_s: float       # wall time less the reference kernel's runs
    eval_parts: list       # the names of the job's parts that are evaluation
    train_loop_s: float    # wall time of the epochs, less the kernel's runs
    triples: int
    users: int             # users evaluated
    ndcg10: float
    digest: str            # sha256 of epoch losses, embeddings and metrics.csv
    # Filled in from the clock's regions once the job has ended, as scaled
    # times (see hostclock.py): the job's parts in order (the truth and
    # exclusion sets, then each config's training, evaluation and report
    # write), those that are evaluation, and train()'s time before its first
    # epoch, summed over the job's trainings.
    part_s: dict = None
    part_eval_s: dict = None
    preloop_s: float = 0.0


class OperationFailed(Exception):
    """An operation raised; the ledger has already counted it as failed."""


class Ledger:
    """Counts operations (train, evaluate and CLI calls) and failed ones.

    A failed output check marks the most recent operation as failed. An
    operation that raises, or a failed check that the run cannot go on
    without, is counted as failed and ends the measurement with
    OperationFailed.
    """

    def __init__(self, log):
        self.attempted = 0
        self.failed_ops = set()
        self.problems = []
        self._log = log

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.fail(f"{label} raised {exc!r}")
            raise OperationFailed(label) from exc

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def require(self, ok: bool, message: str) -> None:
        """A check that the run cannot go on without."""
        if not ok:
            self.fail(message)
            raise OperationFailed(message)

    def fail(self, message: str) -> None:
        self.failed_ops.add(self.attempted)
        self.problems.append(message)
        self._log.error("check failed: %s", message)

    def state(self) -> dict:
        """The counts as JSON values, for a job process to hand back."""
        return {"attempted": self.attempted, "failed_ops": sorted(self.failed_ops),
                "problems": self.problems}

    def merge(self, state: dict) -> None:
        """Add the operations of a job process, counted after this ledger's own."""
        self.failed_ops.update(self.attempted + op for op in state["failed_ops"])
        self.attempted += state["attempted"]
        self.problems += state["problems"]


@dataclass
class Context:
    seed: int
    workdir: str
    ledger: Ledger
    dataset: str = ""
    input_sha256: str = ""
    inputs: object = None   # made by prepare() in a child process, as JSON values
    state: object = None    # made by setup(), timed
    clock: object = None    # a HostClock; timed regions end at its laps


def _write_dataset(ctx: Context, synthetic: synth.SyntheticRatings, name: str) -> None:
    ctx.dataset = os.path.join(ctx.workdir, name)
    with open(ctx.dataset, "wb") as fh:
        fh.write(synthetic.tsv)
    ctx.input_sha256 = hashlib.sha256(synthetic.tsv).hexdigest()


def _check_shape(ctx, synthetic, users, items, ratings):
    """The generated set must come out near the intended shape."""
    shape = (synthetic.num_users_rated, synthetic.num_items_rated, synthetic.num_ratings)
    ctx.ledger.check(all(lo <= n <= hi for n, (lo, hi) in zip(shape, (users, items, ratings))),
                     f"generated {shape} (users, items, ratings) is outside "
                     f"{users}, {items}, {ratings}")


class TrainEvaluate:
    """Train one or more configurations on fold 0, then evaluate each."""

    def __init__(self, name, num_users, num_items, configs, ndcg10_floor,
                 train_edges=None, shape_bounds=None):
        self.name = name
        self.num_users, self.num_items = num_users, num_items
        self.configs = configs            # [(label, ModelConfig kwargs, TrainConfig kwargs)]
        self.ndcg10_floor = ndcg10_floor
        # Train on every positive rating (so the propagation graph is the
        # fold's whole positive graph) plus sampled negatives up to this
        # many ratings; None trains on the whole fold.
        self.train_edges = train_edges
        self.shape_bounds = shape_bounds

    def prepare(self, ctx: Context) -> None:
        synthetic = synth.latent_factor_ratings(self.num_users, self.num_items, ctx.seed)
        if self.shape_bounds:
            _check_shape(ctx, synthetic, *self.shape_bounds)
        _write_dataset(ctx, synthetic, f"{self.name}.tsv")

    def setup(self, ctx: Context) -> None:
        clock = ctx.clock
        clock.lap()
        records = data.parse_ratings(ctx.dataset)
        descriptor = data.build_descriptor(records)
        fold = data.kfold_split(records, FOLDS, ctx.seed)[0]
        clock.lap("setup")
        train_records = fold.train
        if self.train_edges is not None:
            positive = [r for r in fold.train if r.rating > W_O]
            negative = [r for r in fold.train if r.rating < W_O]
            pick = np.random.default_rng([ctx.seed, 1]).choice(
                len(negative), size=self.train_edges - len(positive), replace=False)
            train_records = positive + [negative[i] for i in np.sort(pick)]
            clock.lap()     # picking the ratings is benchmark work
        g = graph.build_signed_graph(train_records, descriptor, W_O)
        clock.lap("setup")
        ctx.state = (descriptor, fold, g)

    def job(self, ctx: Context) -> JobResult:
        descriptor, fold, g = ctx.state
        ledger, clock = ctx.ledger, ctx.clock
        digest = hashlib.sha256()
        loop = 0.0
        triples = users = 0
        ndcgs = []
        eval_parts = ["truth"]
        start = time.perf_counter()
        clock.lap()
        truth = eval_mod.ground_truth(fold.test, descriptor)
        exclude = eval_mod.train_interactions(fold.train, descriptor)
        clock.lap("truth")
        for label, model_kw, train_kw in self.configs:
            cfg = ModelConfig(backbone="lightgcn", **model_kw)
            tcfg = train_mod.TrainConfig(seed=ctx.seed, **train_kw)
            loop_start = []

            def on_epoch(entry, state, loop_start=loop_start):
                if not loop_start:
                    loop_start.append(time.perf_counter() - entry.wall_time)

            t = time.perf_counter()
            result = ledger.call(f"train {label}", train_mod.train, g, cfg, tcfg,
                                 epoch_callback=on_epoch)
            t_end = time.perf_counter()
            clock.lap(f"{label}.train")
            clock.record("preloop", t, loop_start[0])
            loop += sum(e.wall_time for e in result.log) - clock.kernel_s(loop_start[0], t_end)
            edges = int((g.weights > 0).sum()) if tcfg.positive_edges_only else g.num_edges
            triples += edges * tcfg.n_neg * tcfg.epochs
            losses = [e.mean_loss for e in result.log]
            ledger.check(all(math.isfinite(v) for v in losses),
                         f"{label}: non-finite epoch loss {losses}")

            report = ledger.call(f"evaluate {label}", eval_mod.evaluate, result.embeddings,
                                 descriptor.num_users, truth, exclude, KS, groups=True)
            clock.lap(f"{label}.evaluate")
            eval_parts.append(f"{label}.evaluate")
            csv_path = os.path.join(ctx.workdir, f"{label}-metrics.csv")
            eval_mod.write_report_csv(report, csv_path)
            clock.lap(f"{label}.report")
            users += report.evaluated_users
            ndcg = report.metrics[10].ndcg
            ledger.check(0.0 < ndcg < 1.0, f"{label}: nDCG@10 {ndcg} outside (0, 1)")
            ndcgs.append(ndcg)
            with open(csv_path, "rb") as fh:
                csv_bytes = fh.read()
            digest.update(label.encode() + repr(losses).encode())
            digest.update(np.ascontiguousarray(result.embeddings).tobytes() + csv_bytes)
            clock.lap()     # checks and digests are benchmark work
        end = time.perf_counter()
        ndcg10 = float(np.mean(ndcgs))
        ledger.check(ndcg10 > self.ndcg10_floor,
                     f"nDCG@10 {ndcg10:.4f} not above the floor {self.ndcg10_floor}")
        return JobResult(end - start, end - start - clock.kernel_s(start, end), eval_parts,
                         loop, triples, users, ndcg10, digest.hexdigest())

    def check(self, ctx: Context) -> None:
        pass


class CliEvaluate:
    """`signrec split` as set-up, then `signrec evaluate` over fold runs."""

    folds_evaluated = (0, 1)
    brute_force_users = 25

    def __init__(self, name, num_users, num_items, ndcg10_floor, shape_bounds):
        self.name = name
        self.num_users, self.num_items = num_users, num_items
        self.ndcg10_floor = ndcg10_floor
        self.shape_bounds = shape_bounds

    def _common(self, ctx):
        return ["--dataset", ctx.dataset, "--folds", str(FOLDS), "--seed", str(ctx.seed),
                "--threads", "1", "--out", os.path.join(ctx.workdir, "out")]

    def prepare(self, ctx: Context) -> None:
        synthetic = synth.latent_factor_ratings(self.num_users, self.num_items, ctx.seed)
        _check_shape(ctx, synthetic, *self.shape_bounds)
        _write_dataset(ctx, synthetic, f"{self.name}.tsv")
        # Fold runs hold benchmark-made embeddings; building them is not timed.
        records = data.parse_ratings(ctx.dataset)
        descriptor = data.build_descriptor(records)
        folds = data.kfold_split(records, FOLDS, ctx.seed)
        run_dirs = []
        for f in self.folds_evaluated:
            run_dir = os.path.join(ctx.workdir, "out", f"fold{f}-run")
            os.makedirs(os.path.join(run_dir, "reports"), exist_ok=True)
            with open(os.path.join(run_dir, "config"), "w", encoding="utf-8") as fh:
                json.dump({"fold": f}, fh)
            Z = synth.latent_embeddings(synthetic, descriptor, 64,
                                        np.random.default_rng([ctx.seed, 2, f]))
            np.save(os.path.join(run_dir, "embeddings.npy"), Z)
            run_dirs.append(run_dir)
        users = [len(eval_mod.ground_truth(folds[f].test, descriptor))
                 for f in self.folds_evaluated]
        ctx.inputs = (run_dirs, users)

    def setup(self, ctx: Context) -> None:
        ctx.clock.lap()
        with contextlib.redirect_stdout(io.StringIO()):
            code = ctx.ledger.call("cli split", cli.main, ["split", *self._common(ctx), "--force"])
        ctx.clock.lap("setup")
        ctx.ledger.require(code == 0, f"signrec split exited with {code}")

    def job(self, ctx: Context) -> JobResult:
        run_dirs, expected = ctx.inputs
        argv = ["evaluate", *self._common(ctx), "--groups"]
        for run_dir in run_dirs:
            argv += ["--run", run_dir]
        for k in KS:
            argv += ["--k", str(k)]
        out = io.StringIO()
        clock = ctx.clock
        start = time.perf_counter()
        clock.lap()
        with contextlib.redirect_stdout(out), _timed(eval_mod, _EVAL_NAMES, clock):
            code = ctx.ledger.call("cli evaluate", cli.main, argv)
        end = time.perf_counter()
        clock.lap("cli")
        ctx.ledger.require(code == 0, f"signrec evaluate exited with {code}")
        counts = [int(n) for n in re.findall(r"^evaluated users: (\d+)$", out.getvalue(), re.M)]
        ctx.ledger.check(counts == expected,
                         f"reported evaluated users {counts}, expected {expected}")
        digest = hashlib.sha256()
        ndcgs = []
        for run_dir in run_dirs:
            with open(os.path.join(run_dir, "embeddings.npy"), "rb") as fh:
                digest.update(fh.read())
            with open(os.path.join(run_dir, "reports", "metrics.csv"), "rb") as fh:
                csv_bytes = fh.read()
            digest.update(csv_bytes)
            ndcgs += [float(value) for k, metric, value, group
                      in csv.reader(io.StringIO(csv_bytes.decode()))
                      if (k, metric, group) == ("10", "ndcg", "all")]
        ndcg10 = float(np.mean(ndcgs))
        ctx.ledger.check(len(ndcgs) == len(run_dirs) and ndcg10 > self.ndcg10_floor,
                         f"nDCG@10 {ndcgs} not above the floor {self.ndcg10_floor}")
        users = sum(expected)
        return JobResult(end - start, end - start - clock.kernel_s(start, end), ["evaluate"],
                         0.0, 0, users, ndcg10, digest.hexdigest())

    def check(self, ctx: Context) -> None:
        """Compare `evaluate` with a brute-force ranking for sampled users."""
        run_dirs = ctx.inputs[0]
        records = data.parse_ratings(ctx.dataset)
        descriptor = data.build_descriptor(records)
        folds = data.kfold_split(records, FOLDS, ctx.seed)
        rng = np.random.default_rng([ctx.seed, 3])
        for f, run_dir in zip(self.folds_evaluated, run_dirs):
            Z = np.load(os.path.join(run_dir, "embeddings.npy"))
            truth = eval_mod.ground_truth(folds[f].test, descriptor)
            exclude = eval_mod.train_interactions(folds[f].train, descriptor)
            users = rng.choice(sorted(truth), size=self.brute_force_users, replace=False)
            sample = {int(u): truth[int(u)] for u in users}
            report = ctx.ledger.call("evaluate sample", eval_mod.evaluate, Z,
                                     descriptor.num_users, sample, exclude, KS)
            oracle = {u: _brute_force(Z, descriptor.num_users, u, sample[u],
                                      exclude.get(u, set())) for u in sample}
            for k in KS:
                p = sum(oracle[u][k][0] for u in sample) / len(sample)
                r = sum(oracle[u][k][1] for u in sample) / len(sample)
                n = sum(oracle[u][k][2] for u in sample) / len(sample)
                got = report.metrics[k]
                ctx.ledger.check(got.precision == p and got.recall == r
                                 and abs(got.ndcg - n) <= 1e-12,
                                 f"fold {f} K={k}: evaluate gave {got}, brute force "
                                 f"P={p} R={r} nDCG={n}")


# What evaluation time covers on every workload: truth and exclusion sets, then ranking.
_EVAL_NAMES = ("ground_truth", "train_interactions", "evaluate")


@contextlib.contextmanager
def _timed(module, names, clock):
    """Split the time around calls to ``module.<name>`` at clock laps.

    The time inside the calls is the part "evaluate", the time between them
    the part "cli". The names are wrapped where the caller looks them up and
    restored on exit, as bench/tracing.py does for the traced run.
    """
    originals = {name: getattr(module, name) for name in names}

    def timer(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            clock.lap("cli")
            try:
                return fn(*args, **kwargs)
            finally:
                clock.lap("evaluate")
        return timed

    for name, fn in originals.items():
        setattr(module, name, timer(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def _brute_force(Z, num_users, user, truth, exclude):
    """{K: (P@K, R@K, nDCG@K)} from exhaustive scoring and plain loops."""
    scored = sorted((-float(np.dot(Z[user], Z[num_users + item])), item)
                    for item in range(Z.shape[0] - num_users) if item not in exclude)
    out = {}
    for k in KS:
        recs = [item for _, item in scored[:k]]
        hits = sum(1 for item in recs if item in truth)
        dcg = sum(1.0 / math.log2(pos + 2) for pos, item in enumerate(recs) if item in truth)
        idcg = sum(1.0 / math.log2(pos + 2) for pos in range(min(len(truth), k)))
        out[k] = (hits / k, hits / len(truth), dcg / idcg)
    return out


# ML-1M shape: about 6000 users x 3700 items and 200k ratings. Each nDCG@10
# floor is about half the lowest value seen over seeds 1-10 (see README.md).
ML1M_SHAPE = dict(num_users=6000, num_items=3700)
ML1M_BOUNDS = ((5900, 6100), (3600, 3800), (180_000, 220_000))
ML1M_STEPS = 96     # with fewer, nDCG@10 stays near random and varies by seed
DESK_EPOCHS = 5

WORKLOADS = {
    "ml1m-train": TrainEvaluate(
        "ml1m-train", **ML1M_SHAPE, ndcg10_floor=0.025,
        shape_bounds=ML1M_BOUNDS,
        # One epoch at n_neg=1 and batch 1024 over this many ratings is
        # exactly ML1M_STEPS steps, against 155 over the whole fold.
        train_edges=ML1M_STEPS * 1024,
        configs=[("mlp-gn", dict(variant="mlp-gn", dim=64, gnn_layers=3, attn_dim=64),
                  dict(n_neg=1, c=2.0, lambda_reg=0.05, batch_size=1024,
                       epochs=1))]),
    "desk-ablation": TrainEvaluate(
        "desk-ablation", num_users=500, num_items=600, ndcg10_floor=0.1,
        configs=[(label, dict(variant=variant, dim=16, gnn_layers=2, attn_dim=16),
                  dict(n_neg=8, lambda_reg=0.05, batch_size=4096, epochs=DESK_EPOCHS, **kw))
                 for label, variant, kw in (
                     ("mlp-gn", "mlp-gn", {}),
                     ("no-gn", "no-gn", {}),
                     ("gnn-gn", "gnn-gn", {}),
                     ("baseline", "no-gn", dict(loss="standard-bpr",
                                                positive_edges_only=True)))]),
    "ml1m-evaluate": CliEvaluate(
        "ml1m-evaluate", **ML1M_SHAPE, ndcg10_floor=0.08, shape_bounds=ML1M_BOUNDS),
}
