"""Self-checks over a built-in tiny instance.

Three checks: analytic gradients against central finite differences,
negative-sampler frequencies against the exact restricted distribution, and
sign-partition invariants on fuzzed graphs. Shared by the diagnose command
and the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SignedBipartiteGraph, partition
from .model import AdjacencySet, ModelConfig, init_state
from .rng import substream
from .train import NegativeSampler, TrainConfig, batch_loss, penalized_gradient, sample_negatives


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _signed_graph(num_users: int, num_items: int, users, items, ratings) -> SignedBipartiteGraph:
    """``build_signed_graph``'s graph of the equivalent records at ``w_o`` 3.5: no
    integer rating equals 3.5, so every rating is an edge, in the ratings' order."""
    return SignedBipartiteGraph(num_users, num_items, np.array(users, np.int64),
                                np.array(items, np.int64), np.array(ratings, np.float64) - 3.5)


def tiny_instance():
    """Small random signed graph with a mix of high and low ratings."""
    num_users, num_items = 5, 6
    rng = substream(7, "tiny-instance")
    ratings = {}
    for _ in range(num_users * num_items // 2):
        pair = int(rng.integers(num_users)), int(rng.integers(num_items))
        if pair not in ratings:
            ratings[pair] = float(rng.choice([1, 2, 4, 5]))
    users, items = zip(*ratings)
    return _signed_graph(num_users, num_items, users, items, list(ratings.values()))


def gradient_max_relative_error(cfg: ModelConfig) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Differentiates the loss of one training step as ``train`` computes it
    (``batch_loss``, restricted to the batch's rows), without dropout. The
    analytic gradient is the tape's plus the L2 penalty's, added by
    ``penalized_gradient`` as the optimizer adds it.
    """
    seed, h, lambda_reg = 7, 1e-4, 0.05
    g = tiny_instance()
    adjs = AdjacencySet.build(g, cfg)
    state = init_state(cfg, g.num_users, g.num_items, substream(seed, "init"))
    triples = sample_negatives(NegativeSampler(g, 2), substream(seed, "sampling"))
    tcfg = TrainConfig(c=2.0, lambda_reg=lambda_reg)

    def loss_tensor():
        loss, _ = batch_loss(adjs, state, cfg, tcfg, g.num_users, triples)
        return loss

    loss = loss_tensor()
    state.zero_grad()
    loss.backward()

    worst = 0.0
    for name in state.names():
        param = state[name]
        analytic = penalized_gradient(param.grad, param.value, lambda_reg)
        flat = param.value.reshape(-1)
        numeric = np.zeros_like(flat)
        for k in range(flat.size):
            original = flat[k]
            flat[k] = original + h
            up = float(loss_tensor().value)
            flat[k] = original - h
            down = float(loss_tensor().value)
            flat[k] = original
            numeric[k] = (up - down) / (2 * h)
        denom = np.maximum(np.abs(numeric), np.abs(analytic.reshape(-1)))
        err = np.abs(analytic.reshape(-1) - numeric)
        rel = np.divide(err, denom, out=err.copy(), where=denom > 1e-8)
        worst = max(worst, float(rel.max()))
    return worst


def check_gradients() -> CheckResult:
    cfg = ModelConfig(backbone="lightgcn", variant="mlp-gn", dim=4,
                      gnn_layers=2, attn_dim=4, dropout_p=0.0)
    worst, tolerance = gradient_max_relative_error(cfg), 1e-4
    return CheckResult("gradient-check", worst < tolerance,
                       f"max relative error {worst:.3e} (tolerance {tolerance:g})")


def sampler_tv_distance(draws: int = 100_000) -> float:
    """Total-variation distance of empirical vs exact restricted frequencies.

    Toy graph: probe user 0 with two edges, to items 0 and 1; two candidate
    items, 2 and 3, with degrees 1 and 16, giving exact restricted odds 1 : 8.
    """
    g = _signed_graph(18, 4, [0, 0, *range(1, 18)], [0, 1, 2] + [3] * 16, [5, 1] + [5] * 17)
    probe = 0
    degrees = np.bincount(g.items, minlength=g.num_items).astype(float)
    weights = degrees ** 0.75
    neighbor_items = set(g.items[g.users == probe].tolist())
    exact = np.array([0.0 if (j in neighbor_items or weights[j] == 0) else weights[j]
                      for j in range(g.num_items)])
    exact /= exact.sum()

    n_neg = draws // int((g.users == probe).sum())
    triples = sample_negatives(NegativeSampler(g, n_neg), substream(11, "sampler-check"))
    mask = triples.users == probe
    counts = np.bincount(triples.negatives[mask], minlength=g.num_items).astype(float)
    empirical = counts / counts.sum()
    return 0.5 * float(np.abs(empirical - exact).sum())


def check_sampler() -> CheckResult:
    tv, tolerance = sampler_tv_distance(), 0.01
    return CheckResult("sampler-distribution", tv < tolerance,
                       f"total-variation distance {tv:.4f} (tolerance {tolerance:g})")


def check_partition(cases: int = 200) -> CheckResult:
    rng = substream(13, "partition-check")
    failures = 0
    for _ in range(cases):
        num_users = int(rng.integers(2, 10))
        num_items = int(rng.integers(2, 10))
        count = int(rng.integers(1, num_users * num_items + 1))
        pairs = rng.choice(num_users * num_items, size=count, replace=False)
        ratings = [float(rng.choice([1, 2, 3, 4, 5])) for _ in pairs]
        g = _signed_graph(num_users, num_items, pairs // num_items, pairs % num_items, ratings)
        positive, negative = partition(g)
        ok = (positive.num_edges + negative.num_edges == g.num_edges
              and (positive.weights > 0).all() and (negative.weights < 0).all()
              and {(h.num_users, h.num_items) for h in (positive, negative)}
              == {(g.num_users, g.num_items)})
        if not ok:
            failures += 1
    return CheckResult("partition-invariants", failures == 0,
                       f"{failures} failures over {cases} fuzzed graphs")


def run_all() -> list:
    return [check_gradients(), check_sampler(), check_partition()]
