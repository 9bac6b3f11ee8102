"""End-to-end acceptance checks, one test per numbered criterion.

The desk-scale runs (criteria 7 and 8) train twenty models on a synthetic
latent-factor dataset; the shared fixture below caches them for the module.
"""
import itertools
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from signrec import autodiff as ad
from signrec.autodiff import Tensor
from signrec.data import Ratings, build_descriptor, kfold_split
from signrec.diagnostics import (
    check_partition, gradient_max_relative_error, sampler_tv_distance,
)
from signrec.evaluate import evaluate, ground_truth, train_interactions
from signrec.graph import build_signed_graph, partition
from signrec.model import (
    AdjacencySet, ModelConfig, ModelState, attention_fuse, init_state, propagate,
)
from signrec.rng import substream
from signrec.train import TrainConfig, TrainingTriples, sign_aware_bpr_loss, train

from helpers import (
    brute_force_metrics, dense_adjacency, dense_propagate_reference,
    latent_factor_dataset, random_records, toy_descriptor,
)

BACKBONES = ("lightgcn", "lrgccf", "ngcf")
VARIANTS = ("mlp-gn", "gnn-gn", "no-gn", "no-split")


def test_criterion_01_gradient_correctness_all_backbones_and_variants():
    start = time.perf_counter()
    worst = {}
    for backbone, variant in itertools.product(BACKBONES, VARIANTS):
        cfg = ModelConfig(backbone=backbone, variant=variant, dim=4,
                          gnn_layers=2, attn_dim=4, dropout_p=0.0)
        worst[(backbone, variant)] = gradient_max_relative_error(cfg)
    elapsed = time.perf_counter() - start
    assert max(worst.values()) < 1e-4, worst
    assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s"


def test_criterion_02_metrics_match_brute_force_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(21)
    for _ in range(500):
        num_users = int(rng.integers(2, 6))
        num_items = int(rng.integers(4, 12))
        Z = np.vstack([rng.standard_normal((num_users, 3)),
                       rng.standard_normal((num_items, 3))])
        k = int(rng.integers(1, 6))
        truth, exclude = {}, {}
        for u in range(num_users):
            truth[u] = rng.choice(num_items, int(rng.integers(1, 4)), replace=False)
            exclude[u] = np.setdiff1d(rng.choice(num_items, int(rng.integers(0, 3)),
                                                 replace=False), truth[u])
        report = evaluate(Z, num_users, truth, exclude, ks=[k])
        oracle = np.array([brute_force_metrics(Z, num_users, u, truth[u],
                                               exclude[u], k)
                           for u in range(num_users)])
        # precision*k and recall*|truth| are integer hit counts; check exactly
        for u in range(num_users):
            assert oracle[u, 0] * k == round(oracle[u, 0] * k)
        assert abs(report.metrics[k].precision - oracle[:, 0].mean()) == 0.0
        assert abs(report.metrics[k].recall - oracle[:, 1].mean()) == 0.0
        assert abs(report.metrics[k].ndcg - oracle[:, 2].mean()) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"metric oracle sweep took {elapsed:.1f}s"


def test_criterion_03_propagation_matches_dense_reference():
    rng = np.random.default_rng(33)
    for trial in range(25):
        records = random_records(rng, 8, 8, int(rng.integers(6, 40)))
        desc = toy_descriptor(8, 8)
        g = build_signed_graph(records, desc, 3.5)
        positive = partition(g)[0]
        if positive.num_edges == 0:
            continue
        for backbone in BACKBONES:
            cfg = ModelConfig(backbone=backbone, variant="no-gn", dim=4,
                              gnn_layers=2)
            state = init_state(cfg, 8, 8, substream(trial, "init"))
            adjs = AdjacencySet.build(g, cfg)
            sparse_out = propagate(adjs.gnn, state, cfg).value
            A = dense_adjacency(positive, backbone)
            dense_out = dense_propagate_reference(A, state, cfg)
            scale = max(np.abs(dense_out).max(), 1.0)
            assert np.abs(sparse_out - dense_out).max() / scale < 1e-12


def test_criterion_04_loss_spot_values():
    def term(r_ui, r_uj, sign, c=2.0):
        z = Tensor(np.array([[1.0], [r_ui], [r_uj]]))
        triples = TrainingTriples(np.array([0]), np.array([0]), np.array([1]),
                                  np.array([sign]))
        _, terms = sign_aware_bpr_loss(z, 1, triples, c, 0.0, ModelState({}),
                                       "sign-aware-bpr")
        return float(terms[0])

    # equal scores, positive sign: -log sigma(0) = log 2
    assert term(1.0, 1.0, +1) == pytest.approx(0.693147, abs=1e-6)
    # negative sign with c=2 and r_uj = 2 r_ui: margin zero again
    assert term(1.0, 2.0, -1) == pytest.approx(0.693147, abs=1e-6)
    # positive sign with a +2 margin: -log sigma(2)
    assert term(3.0, 1.0, +1) == pytest.approx(0.126928, abs=1e-6)


def test_criterion_05_sampler_distribution_total_variation():
    tv = sampler_tv_distance(draws=100_000)
    assert tv < 0.01, f"TV distance {tv:.4f}"


def test_criterion_06_partition_invariants_fuzzed():
    result = check_partition(cases=1000)
    assert result.passed, result.detail


# ---------------------------------------------------------------------------
# desk-scale training runs shared by criteria 7 and 8

DESK_SEED = 5
DESK_CONFIGS = {
    "sign-aware": (dict(variant="mlp-gn"), dict()),
    "baseline": (dict(variant="no-gn"),
                 dict(loss="standard-bpr", positive_edges_only=True)),
    "no-gn": (dict(variant="no-gn"), dict()),
    "gnn-gn": (dict(variant="gnn-gn"), dict()),
}


def desk_ndcg(fold, name, desc):
    """nDCG@10 on ``fold`` of desk-scale configuration ``name``, trained on its rest,
    and the CPU seconds its process spent on it."""
    start = time.process_time()
    model_kw, train_kw = DESK_CONFIGS[name]
    cfg = ModelConfig(backbone="lightgcn", dim=16, gnn_layers=2, attn_dim=16, **model_kw)
    tcfg = TrainConfig(n_neg=8, lambda_reg=0.05, batch_size=4096, epochs=100,
                       seed=DESK_SEED, learning_rate=0.005, **train_kw)
    result = train(build_signed_graph(fold.train, desc, 3.5), cfg, tcfg)
    report = evaluate(result.embeddings, desc.num_users, ground_truth(fold.test, desc),
                      train_interactions(fold.train, desc), ks=[10])
    return report.metrics[10].ndcg, time.process_time() - start


@pytest.fixture(scope="module")
def desk_scale_ndcg():
    """nDCG@10 per fold for each desk-scale configuration.

    The twenty trainings share nothing, so up to two worker processes run
    them; a training's bytes do not depend on the process it runs in.
    """
    records = Ratings.from_records(latent_factor_dataset(seed=DESK_SEED))
    desc = build_descriptor(records)
    folds = kfold_split(records, 5, DESK_SEED)
    jobs = list(itertools.product(folds, DESK_CONFIGS))
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        runs = list(pool.map(desk_ndcg, *zip(*jobs), itertools.repeat(desc)))
    ndcg = [value for value, _ in runs]
    results = {name: ndcg[i::len(DESK_CONFIGS)] for i, name in enumerate(DESK_CONFIGS)}
    results["elapsed"] = time.perf_counter() - start
    results["cpu"] = sum(cpu for _, cpu in runs)
    return results


@pytest.mark.slow
def test_criterion_07_sign_aware_beats_positive_only_baseline(desk_scale_ndcg):
    signed = desk_scale_ndcg["sign-aware"]
    base = desk_scale_ndcg["baseline"]
    wins = sum(s > b for s, b in zip(signed, base))
    print(f"\nsign-aware nDCG@10 per fold: {['%.4f' % v for v in signed]}")
    print(f"baseline   nDCG@10 per fold: {['%.4f' % v for v in base]}")
    print(f"mean {np.mean(signed):.4f} vs {np.mean(base):.4f}, "
          f"wins {wins}/5, runtime {desk_scale_ndcg['elapsed']:.0f}s wall, "
          f"{desk_scale_ndcg['cpu']:.0f}s CPU")
    assert wins >= 4, f"sign-aware model won only {wins}/5 folds"
    assert desk_scale_ndcg["cpu"] < 7200, "exceeded the 2 CPU-hour budget"


@pytest.mark.slow
def test_criterion_08_negative_path_ablation_ordering(desk_scale_ndcg):
    """Reported as a finding: ordering failures are not hard failures."""
    mlp = desk_scale_ndcg["sign-aware"]
    nog = desk_scale_ndcg["no-gn"]
    gnn = desk_scale_ndcg["gnn-gn"]
    ordered = sum(m >= n >= g for m, n, g in zip(mlp, nog, gnn))
    finding = (f"ablation ordering mlp-gn >= no-gn >= gnn-gn held in "
               f"{ordered}/5 folds (means: mlp-gn {np.mean(mlp):.4f}, "
               f"no-gn {np.mean(nog):.4f}, gnn-gn {np.mean(gnn):.4f})")
    print("\n" + finding)
    if ordered < 3:
        warnings.warn("finding: " + finding)
    # every configuration trained and produced sane metrics
    for name in ("sign-aware", "no-gn", "gnn-gn"):
        assert len(desk_scale_ndcg[name]) == 5
        assert all(0.0 < v < 1.0 for v in desk_scale_ndcg[name])


def test_criterion_09_attention_invariants_fuzzed():
    rng = np.random.default_rng(99)
    cfg = ModelConfig(backbone="lightgcn", variant="mlp-gn", dim=6,
                      gnn_layers=1, attn_dim=5)
    for _ in range(1000):
        state = init_state(cfg, 3, 4, np.random.default_rng(rng.integers(2**32)))
        scale = float(rng.uniform(0.1, 10.0))
        z_p = Tensor(scale * rng.standard_normal((7, 6)))
        z_n = Tensor(scale * rng.standard_normal((7, 6)))
        alpha_p, alpha_n, fused = attention_fuse(z_p, z_n, state, cfg)
        assert np.allclose(alpha_p + alpha_n, 1.0, atol=1e-12)
        assert (alpha_p > 0).all() and (alpha_n > 0).all()
        lo = np.minimum(z_p.value, z_n.value)
        hi = np.maximum(z_p.value, z_n.value)
        assert (fused.value >= lo - 1e-9).all() and (fused.value <= hi + 1e-9).all()


def test_criterion_10_bitwise_reproducibility(tmp_path):
    from signrec.cli import main
    from helpers import planted_dataset

    dataset = tmp_path / "toy.tsv"
    with open(dataset, "w") as fh:
        for r in planted_dataset(num_users=24, num_items=24, clusters=4,
                                 liked_per_user=6, disliked_per_user=3, seed=3):
            fh.write(f"{r.user_id}\t{r.item_id}\t{int(r.rating)}\t{r.timestamp}\n")

    artifacts = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        common = ["--dataset", str(dataset), "--folds", "3", "--seed", "7",
                  "--threads", "1", "--out", out]
        assert main(["split"] + common) == 0
        assert main(["train"] + common + ["--fold", "0", "--dim", "8",
                     "--layers", "2", "--n-neg", "2", "--epochs", "5",
                     "--batch-size", "256", "--lambda-reg", "0.01"]) == 0
        run_dir = next((tmp_path / run).glob("*mlp-gn*"))
        assert main(["evaluate"] + common + ["--run", str(run_dir), "--k", "5",
                     "--k", "10"]) == 0
        artifacts.append(((run_dir / "logs" / "epochs.csv").read_bytes(),
                          (run_dir / "reports" / "metrics.csv").read_bytes(),
                          np.load(run_dir / "embeddings.npy")))
    assert artifacts[0][0] == artifacts[1][0], "epoch logs differ"
    assert artifacts[0][1] == artifacts[1][1], "metric reports differ"
    assert np.array_equal(artifacts[0][2], artifacts[1][2]), "embeddings differ"
