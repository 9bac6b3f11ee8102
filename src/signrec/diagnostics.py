"""Self-checks over a built-in tiny instance.

Three checks: analytic gradients against central finite differences,
negative-sampler frequencies against the exact restricted distribution, and
sign-partition invariants on fuzzed graphs. Shared by the diagnose command
and the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DatasetDescriptor, RatingRecord, build_descriptor
from .graph import build_signed_graph, partition
from .model import AdjacencySet, ModelConfig, init_state
from .rng import substream
from .train import TrainConfig, batch_loss, penalized_gradient, sample_negatives


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def tiny_instance(num_users: int = 5, num_items: int = 6, seed: int = 7):
    """Small random signed graph with a mix of high and low ratings."""
    rng = substream(seed, "tiny-instance")
    records = []
    seen = set()
    for _ in range(num_users * num_items // 2):
        u = int(rng.integers(num_users))
        v = int(rng.integers(num_items))
        if (u, v) in seen:
            continue
        seen.add((u, v))
        rating = float(rng.choice([1, 2, 4, 5]))
        records.append(RatingRecord(f"u{u}", f"i{v}", rating))
    descriptor = DatasetDescriptor(num_users, num_items,
                                   {f"u{u}": u for u in range(num_users)},
                                   {f"i{v}": v for v in range(num_items)})
    return build_signed_graph(records, descriptor, w_o=3.5)


def gradient_max_relative_error(cfg: ModelConfig, seed: int = 7, h: float = 1e-4,
                                c: float = 2.0, lambda_reg: float = 0.05,
                                perturb_gradients: float = 0.0) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Differentiates the loss of one training step as ``train`` computes it
    (``batch_loss``, restricted to the batch's rows), without dropout. The
    analytic gradient is the tape's plus the L2 penalty's, added by
    ``penalized_gradient`` as the optimizer adds it.
    ``perturb_gradients`` injects a deliberate analytic-gradient bug for
    exercising the failure path.
    """
    g = tiny_instance(seed=seed)
    adjs = AdjacencySet.build(g, cfg)
    state = init_state(cfg, g.num_users, g.num_items, substream(seed, "init"))
    triples = sample_negatives(g, 2, substream(seed, "sampling"))
    tcfg = TrainConfig(c=c, lambda_reg=lambda_reg)

    def loss_tensor():
        loss, _ = batch_loss(adjs, state, cfg, tcfg, g.num_users, triples)
        return loss

    loss = loss_tensor()
    state.zero_grad()
    loss.backward()

    worst = 0.0
    for name in state.names():
        param = state[name]
        analytic = penalized_gradient(param.grad, param.value, lambda_reg) + perturb_gradients
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


def check_gradients(tolerance: float = 1e-4, perturb_gradients: float = 0.0) -> CheckResult:
    cfg = ModelConfig(backbone="lightgcn", variant="mlp-gn", dim=4,
                      gnn_layers=2, attn_dim=4, dropout_p=0.0)
    worst = gradient_max_relative_error(cfg, perturb_gradients=perturb_gradients)
    return CheckResult("gradient-check", worst < tolerance,
                       f"max relative error {worst:.3e} (tolerance {tolerance:g})")


def sampler_tv_distance(draws: int = 100_000, seed: int = 11) -> float:
    """Total-variation distance of empirical vs exact restricted frequencies.

    Toy graph: one probe user with two edges; two candidate items with
    degrees 1 and 16, giving exact restricted odds 1 : 8.
    """
    records = [RatingRecord("probe", "a", 5.0), RatingRecord("probe", "b", 1.0),
               RatingRecord("x0", "lo", 5.0)]
    for k in range(16):
        records.append(RatingRecord(f"y{k}", "hi", 5.0))
    descriptor = build_descriptor(records)
    g = build_signed_graph(records, descriptor, w_o=3.5)

    probe = descriptor.user_index["probe"]
    degrees = np.bincount(g.items, minlength=g.num_items).astype(float)
    weights = degrees ** 0.75
    neighbor_items = set(g.items[g.users == probe].tolist())
    exact = np.array([0.0 if (j in neighbor_items or weights[j] == 0) else weights[j]
                      for j in range(g.num_items)])
    exact /= exact.sum()

    n_neg = draws // int((g.users == probe).sum())
    triples = sample_negatives(g, n_neg, substream(seed, "sampler-check"))
    mask = triples.users == probe
    counts = np.bincount(triples.negatives[mask], minlength=g.num_items).astype(float)
    empirical = counts / counts.sum()
    return 0.5 * float(np.abs(empirical - exact).sum())


def check_sampler(tolerance: float = 0.01) -> CheckResult:
    tv = sampler_tv_distance()
    return CheckResult("sampler-distribution", tv < tolerance,
                       f"total-variation distance {tv:.4f} (tolerance {tolerance:g})")


def check_partition(cases: int = 200, seed: int = 13) -> CheckResult:
    rng = substream(seed, "partition-check")
    failures = 0
    for _ in range(cases):
        num_users = int(rng.integers(2, 10))
        num_items = int(rng.integers(2, 10))
        count = int(rng.integers(1, num_users * num_items + 1))
        pairs = rng.choice(num_users * num_items, size=count, replace=False)
        records = [RatingRecord(f"u{p // num_items}", f"i{p % num_items}",
                                float(rng.choice([1, 2, 3, 4, 5])))
                   for p in pairs]
        descriptor = DatasetDescriptor(num_users, num_items,
                                       {f"u{u}": u for u in range(num_users)},
                                       {f"i{v}": v for v in range(num_items)})
        g = build_signed_graph(records, descriptor, w_o=3.5)
        positive, negative = partition(g)
        ok = (positive.num_edges + negative.num_edges == g.num_edges
              and (positive.weights > 0).all() and (negative.weights < 0).all()
              and {(h.num_users, h.num_items) for h in (positive, negative)}
              == {(g.num_users, g.num_items)})
        if not ok:
            failures += 1
    return CheckResult("partition-invariants", failures == 0,
                       f"{failures} failures over {cases} fuzzed graphs")


def run_all(perturb_gradients: float = 0.0) -> list:
    return [check_gradients(perturb_gradients=perturb_gradients),
            check_sampler(),
            check_partition()]
