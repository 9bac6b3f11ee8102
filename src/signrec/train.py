"""Negative sampling, the sign-aware pairwise ranking loss, Adam, and the
epoch loop.

Each epoch resamples unobserved items per observed edge from the
degree-based noise distribution P(j) proportional to d_j^(3/4), shuffles the
triples into mini-batches, and takes one Adam step per batch on the full
loss (ranking term plus L2 penalty over every learnable parameter). A step
propagates over the whole graph, then runs the MLP, attention and loss on
the batch's rows only.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import SignedBipartiteGraph, partition, positive_subgraph
from .model import AdjacencySet, ModelConfig, ModelState, forward_tensors, init_state
from .rng import substream

log = logging.getLogger(__name__)

LOSSES = ("sign-aware-bpr", "standard-bpr")


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    n_neg: int = 40
    c: float = 2.0
    lambda_reg: float = 0.1
    learning_rate: float = 0.005
    batch_size: int = 1024
    epochs: int = 200
    seed: int = 0
    loss: str = "sign-aware-bpr"
    positive_edges_only: bool = False  # baseline mode: drop negative edges

    def __post_init__(self):
        if self.c <= 1.0:
            raise ValueError("c must be > 1")
        if min(self.epochs, self.n_neg, self.batch_size) < 1:
            raise ValueError("epochs, n_neg and batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if not (math.isfinite(self.lambda_reg) and self.lambda_reg >= 0):
            raise ValueError("lambda_reg must be finite and >= 0")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")


@dataclass
class TrainingTriples:
    """Column arrays of (u, i, j) triples with the observed edge's sign."""

    users: np.ndarray
    items: np.ndarray
    negatives: np.ndarray
    signs: np.ndarray  # +1 / -1

    def __len__(self) -> int:
        return len(self.users)

    def take(self, idx) -> "TrainingTriples":
        return TrainingTriples(self.users[idx], self.items[idx],
                               self.negatives[idx], self.signs[idx])


def noise_distribution(g: SignedBipartiteGraph) -> np.ndarray:
    """Unrestricted sampling probabilities over items, P(j) ~ d_j^(3/4)."""
    degrees = np.bincount(g.items, minlength=g.num_items).astype(np.float64)
    weights = degrees ** 0.75
    total = weights.sum()
    if total == 0:
        raise ValueError("graph has no edges")
    return weights / total


def _bit(keys: np.ndarray) -> np.ndarray:
    """Each key's bit within its byte of a packed bitset."""
    return np.left_shift(np.uint8(1), (keys & 7).astype(np.uint8))


def sample_negatives(g: SignedBipartiteGraph, n_neg: int,
                     rng: np.random.Generator) -> TrainingTriples:
    """Draw ``n_neg`` unobserved items per edge by rejection sampling.

    Candidates are rejected while they fall inside the user's neighborhood;
    users adjacent to every samplable item are skipped with a warning.
    """
    probs = noise_distribution(g)
    # Distinct (user, item) keys, and one bit per key for membership tests.
    edge_keys = np.unique(g.users * g.num_items + g.items)
    bits = np.zeros(-(-g.num_users * g.num_items // 8), dtype=np.uint8)
    key_bytes, first = np.unique(edge_keys >> 3, return_index=True)
    bits[key_bytes] = np.bitwise_or.reduceat(_bit(edge_keys), first)

    def is_edge(keys):
        return (bits[keys >> 3] & _bit(keys)).astype(bool)

    # Every neighbor has degree > 0, so a user whose neighbor count equals
    # the number of samplable items has no candidate left.
    user_degree = np.bincount(edge_keys // g.num_items, minlength=g.num_users)
    saturated = user_degree == np.count_nonzero(probs > 0)
    for u in np.flatnonzero(saturated):
        log.warning("user %d is adjacent to all samplable items; skipping its edges", u)
    keep = ~saturated[g.users]

    users = np.repeat(g.users[keep], n_neg)
    items = np.repeat(g.items[keep], n_neg)
    signs = np.repeat(np.sign(g.weights[keep]).astype(np.int8), n_neg)

    negatives = rng.choice(g.num_items, size=len(users), p=probs)
    pending = is_edge(users * g.num_items + negatives)
    while pending.any():
        idx = np.flatnonzero(pending)
        negatives[idx] = rng.choice(g.num_items, size=len(idx), p=probs)
        pending[idx] = is_edge(users[idx] * g.num_items + negatives[idx])
    return TrainingTriples(users, items, negatives, signs)


def triple_loss_terms(z: Tensor, num_users: int, triples: TrainingTriples,
                      c: float, loss: str) -> Tensor:
    """Per-triple -log likelihood under the sign-aware pairwise model.

    Positive-sign triples use sigma(r_ui - r_uj); negative-sign triples use
    sigma(c*r_ui - r_uj). In standard-bpr mode every triple takes the
    positive branch. Computed as softplus(-x) for stability, in one tape node.
    """
    if loss == "standard-bpr":
        coef = np.ones(len(triples))
    else:
        coef = np.where(triples.signs < 0, c, 1.0)
    return ad.bpr_terms(z, triples.users, num_users + triples.items,
                        num_users + triples.negatives, coef)


def sign_aware_bpr_loss(z: Tensor, num_users: int, triples: TrainingTriples,
                        c: float, lambda_reg: float, state: ModelState,
                        loss: str = "sign-aware-bpr"):
    """Total loss tensor and the per-triple term values."""
    if len(triples) == 0:
        raise ValueError("empty batch")
    terms = triple_loss_terms(z, num_users, triples, c, loss)
    total = ad.reduce_sum(terms)
    if lambda_reg > 0:
        total = ad.add(total, ad.l2_penalty(state.tensors(), lambda_reg))
    return total, terms.value


def batch_rows(batch: TrainingTriples, num_users: int):
    """The unique node rows a batch touches, and the batch indexed into them.

    The returned triples index the gathered rows directly, item offset
    included, so the loss takes them with ``num_users=0``.
    """
    nodes = np.concatenate([batch.users, num_users + batch.items,
                            num_users + batch.negatives])
    rows, local = np.unique(nodes, return_inverse=True)
    users, items, negatives = np.split(local, 3)
    return rows, TrainingTriples(users, items, negatives, batch.signs)


def batch_loss(adjs: AdjacencySet, state: ModelState, cfg: ModelConfig,
               tcfg: TrainConfig, num_users: int, batch: TrainingTriples,
               training: bool = False, rng: np.random.Generator | None = None):
    """One training step's loss, as ``sign_aware_bpr_loss`` returns it.

    Propagation runs over the whole graph; the MLP, dropout, attention and
    the loss run only on the rows the batch touches, since they act on one
    row at a time.
    """
    rows, local = batch_rows(batch, num_users)
    z, *_ = forward_tensors(adjs, state, cfg, training=training, rng=rng, rows=rows)
    return sign_aware_bpr_loss(z, 0, local, tcfg.c, tcfg.lambda_reg, state, tcfg.loss)


class Adam:
    """Standard Adam with bias correction; fails fast on non-finite grads."""

    def __init__(self, state: ModelState, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.state = state
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {n: np.zeros_like(state[n].value) for n in state.names()}
        self.v = {n: np.zeros_like(state[n].value) for n in state.names()}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for name in self.state.names():
            p = self.state[name]
            grad = p.grad if p.grad is not None else np.zeros_like(p.value)
            if not np.isfinite(grad).all():
                raise TrainingDiverged(f"non-finite gradient in {name}")
            # in place, in the same operation order as
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;
            # p -= lr m_hat / (sqrt(v_hat) + eps)
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            sq = grad * grad
            sq *= 1 - self.beta2
            v += sq
            step = m / (1 - self.beta1 ** t)
            step *= self.lr
            denom = v / (1 - self.beta2 ** t)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p.value -= step


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    wall_time: float


@dataclass
class TrainResult:
    state: ModelState
    log: list
    embeddings: np.ndarray  # final fused embeddings, dropout disabled
    config: ModelConfig
    train_config: TrainConfig


def train(g: SignedBipartiteGraph, cfg: ModelConfig, tcfg: TrainConfig,
          epoch_callback=None) -> TrainResult:
    """Run the optimization loop and return the final state and embeddings."""
    if tcfg.positive_edges_only:
        g = positive_subgraph(g)
    parts = partition(g)
    adjs = AdjacencySet.build(parts, cfg)
    state = init_state(cfg, g.num_users, g.num_items, substream(tcfg.seed, "init"))
    optimizer = Adam(state, tcfg.learning_rate)

    history = []
    for epoch in range(tcfg.epochs):
        start = time.perf_counter()
        sample_rng = substream(tcfg.seed, "sampling", epoch)
        triples = sample_negatives(g, tcfg.n_neg, sample_rng)
        order = sample_rng.permutation(len(triples))
        dropout_rng = substream(tcfg.seed, "dropout", epoch)

        losses = []
        for lo in range(0, len(order), tcfg.batch_size):
            batch = triples.take(order[lo:lo + tcfg.batch_size])
            loss, _ = batch_loss(adjs, state, cfg, tcfg, g.num_users, batch,
                                 training=True, rng=dropout_rng)
            if not np.isfinite(loss.value):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            state.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(float(loss.value))
        entry = EpochLog(epoch, float(np.mean(losses)), time.perf_counter() - start)
        history.append(entry)
        log.info("epoch %d: mean loss %.6f (%.2fs)", entry.epoch, entry.mean_loss,
                 entry.wall_time)
        if epoch_callback is not None:
            epoch_callback(entry, state)

    z_final, *_ = forward_tensors(adjs, state, cfg, training=False)
    return TrainResult(state, history, z_final.value, cfg, tcfg)
