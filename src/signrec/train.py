"""Negative sampling, the sign-aware pairwise ranking loss, Adam, and the
epoch loop.

Each epoch resamples unobserved items per observed edge from the
degree-based noise distribution P(j) proportional to d_j^(3/4), through a
sampler built once per run, shuffles the triples into mini-batches, and
takes one Adam step per batch on the full loss: the ranking term plus the
L2 penalty over every learnable parameter. The loss is one autodiff tape
node; the penalty's value is a constant there, and its gradient is added by
the optimizer step. A step computes only the batch's rows:
LightGCN restricts its outermost propagation products to them, and the MLP,
attention and loss run on them alone.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import SignedBipartiteGraph, partition
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
        if not (math.isfinite(self.c) and self.c > 1.0):
            raise ValueError("c must be finite and > 1")
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


class NegativeSampler:
    """A graph's sampling set-up, built once and drawn from every epoch.

    It holds the noise distribution's cumulative sums and a bucket table
    over them, a packed bitset of the observed (user, item) keys, and the
    repeated user, item and sign columns of the edges it samples for. Users
    adjacent to every samplable item are skipped with a warning, logged
    here, once.
    """

    def __init__(self, g: SignedBipartiteGraph, n_neg: int):
        probs = noise_distribution(g)
        # normalised as Generator.choice normalises p, so draws match it
        self.cdf = probs.cumsum()
        self.cdf /= self.cdf[-1]
        # A uniform draw u falls in bucket floor(u * K) of [0, 1); K is a
        # power of two, so that product is exact. Inverse-cdf lookup has
        # one answer per bucket unless a cdf value lies inside the bucket.
        self.buckets = 1 << (8 * len(self.cdf) - 1).bit_length()
        edges = np.arange(self.buckets + 1) / self.buckets
        self.bucket_item = self.cdf.searchsorted(edges[:-1], side="right")
        self.bucket_split = self.bucket_item != self.cdf.searchsorted(edges[1:], side="left")

        # Distinct (user, item) keys, and one bit per key for membership
        # tests. (A sort beats np.unique's hashing here.)
        keys = np.sort(g.users * g.num_items + g.items)
        edge_keys = keys[np.diff(keys, prepend=-1) != 0]
        self.bits = np.zeros(-(-g.num_users * g.num_items // 8), dtype=np.uint8)
        key_bytes = edge_keys >> 3
        first = np.flatnonzero(np.diff(key_bytes, prepend=-1))
        self.bits[key_bytes[first]] = np.bitwise_or.reduceat(_bit(edge_keys), first)

        # Every neighbor has degree > 0, so a user whose neighbor count equals
        # the number of samplable items has no candidate left.
        user_degree = np.bincount(edge_keys // g.num_items, minlength=g.num_users)
        saturated = user_degree == np.count_nonzero(probs > 0)
        for u in np.flatnonzero(saturated):
            log.warning("user %d is adjacent to all samplable items; skipping its edges", u)
        keep = ~saturated[g.users]
        self.users = np.repeat(g.users[keep], n_neg)
        self.items = np.repeat(g.items[keep], n_neg)
        self.signs = np.repeat(np.sign(g.weights[keep]).astype(np.int8), n_neg)
        self.num_items = g.num_items

    def items_at(self, u: np.ndarray) -> np.ndarray:
        """``cdf.searchsorted(u, side="right")`` for ``u`` in [0, 1).

        With ``u = rng.random(size)`` this is ``rng.choice(num_items, size,
        p=P)``: the same items, and the same generator state afterwards.
        """
        bucket = (u * self.buckets).astype(np.intp)
        items = self.bucket_item[bucket]
        split = np.flatnonzero(self.bucket_split[bucket])
        items[split] = self.cdf.searchsorted(u[split], side="right")
        return items

    def is_edge(self, keys: np.ndarray) -> np.ndarray:
        return (self.bits[keys >> 3] & _bit(keys)).astype(bool)


def sample_negatives(sampler: NegativeSampler, rng: np.random.Generator) -> TrainingTriples:
    """Draw an unobserved item for each of ``sampler``'s triples by rejection sampling.

    Candidates are rejected while they fall inside the user's neighborhood.
    The draws and the generator's state afterwards equal those of
    ``rng.choice(num_items, size, p=P)`` calls.
    """
    users = sampler.users
    negatives = sampler.items_at(rng.random(len(users)))
    pending = sampler.is_edge(users * sampler.num_items + negatives)
    while pending.any():
        idx = np.flatnonzero(pending)
        negatives[idx] = sampler.items_at(rng.random(len(idx)))
        pending[idx] = sampler.is_edge(users[idx] * sampler.num_items + negatives[idx])
    return TrainingTriples(users, sampler.items, negatives, sampler.signs)


def sign_aware_bpr_loss(z: Tensor, num_users: int, triples: TrainingTriples,
                        c: float, lambda_reg: float, state: ModelState,
                        loss: str = "sign-aware-bpr"):
    """Total loss tensor and the per-triple -log likelihood values.

    Positive-sign triples use sigma(r_ui - r_uj); negative-sign triples use
    sigma(c*r_ui - r_uj). In standard-bpr mode every triple takes the
    positive branch. The total adds the L2 penalty's value; both are one
    tape node, ``ad.bpr_loss``.
    """
    if len(triples) == 0:
        raise ValueError("empty batch")
    coef = np.ones(len(triples)) if loss == "standard-bpr" else np.where(triples.signs < 0, c, 1.0)
    penalty = l2_penalty(state, lambda_reg) if lambda_reg > 0 else 0.0
    return ad.bpr_loss(z, triples.users, num_users + triples.items,
                       num_users + triples.negatives, coef, penalty)


def l2_penalty(state: ModelState, lambda_reg: float) -> float:
    """``lambda_reg`` times the sum of squared entries of every parameter.

    Its gradient is not on the tape: ``penalized_gradient`` adds it.
    """
    total = 0.0
    for t in state.tensors():
        flat = t.value.reshape(-1)
        total += flat @ flat
    return lambda_reg * total


def penalized_gradient(grad, value: np.ndarray, lambda_reg: float,
                       out: np.ndarray | None = None) -> np.ndarray:
    """A parameter's gradient of the full loss: ``grad + 2 lambda_reg value``.

    ``grad`` is what the tape left (None where the loss does not reach the
    parameter). The penalty's term is added last, as it would be by a tape
    node that back-propagates after every other one. With ``out`` and a
    penalty, the sum is written there.
    """
    if lambda_reg <= 0:
        return grad if grad is not None else np.zeros_like(value)
    out = np.multiply(value, 2.0 * lambda_reg, out=out)
    if grad is not None:
        out += grad
    return out


def batch_rows(batch: TrainingTriples, num_users: int):
    """The unique node rows a batch touches, and the batch indexed into them.

    The returned triples index the gathered rows directly, item offset
    included, so the loss takes them with ``num_users=0``.
    """
    nodes = np.concatenate([batch.users, num_users + batch.items,
                            num_users + batch.negatives])
    # np.unique(nodes, return_inverse=True), without its sort
    mark = np.zeros(int(nodes.max()) + 1 if len(nodes) else 0, dtype=bool)
    mark[nodes] = True
    rows = np.flatnonzero(mark)
    users, items, negatives = np.split((np.cumsum(mark) - 1)[nodes], 3)
    return rows, TrainingTriples(users, items, negatives, batch.signs)


def batch_loss(adjs: AdjacencySet, state: ModelState, cfg: ModelConfig,
               tcfg: TrainConfig, num_users: int, batch: TrainingTriples,
               training: bool = False, rng: np.random.Generator | None = None):
    """One training step's loss, as ``sign_aware_bpr_loss`` returns it.

    Propagation gives only the rows the batch touches (LightGCN restricts its
    outermost products to them; the other backbones gather them from the
    whole graph), and the MLP, dropout, attention and the loss run on those
    rows alone, since they act on one row at a time.
    """
    rows, local = batch_rows(batch, num_users)
    z, *_ = forward_tensors(adjs, state, cfg, training=training, rng=rng, rows=rows)
    return sign_aware_bpr_loss(z, 0, local, tcfg.c, tcfg.lambda_reg, state, tcfg.loss)


ADAM_BLOCK_BYTES = 256 * 1024  # per array; a block and its scratch stay in cache
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction; fails fast on non-finite grads.

    The gradient is the tape's plus the L2 penalty's (``penalized_gradient``
    with ``lambda_reg``). Each parameter is updated in blocks of rows of
    about ``ADAM_BLOCK_BYTES``, through scratch buffers allocated once, so
    that the update's dozen elementwise passes run in cache. A non-finite
    gradient raises ``TrainingDiverged``; blocks and parameters before it
    are then already updated.
    """

    def __init__(self, state: ModelState, lr: float, lambda_reg: float = 0.0):
        self.state = state
        self.lr = lr
        self.lambda_reg = lambda_reg
        self.step_count = 0
        self.m = {n: np.zeros_like(state[n].value) for n in state.names()}
        self.v = {n: np.zeros_like(state[n].value) for n in state.names()}
        self.block_rows, size = {}, 1
        for name in state.names():
            rows, row_size = self._as_rows(state[name].value).shape
            self.block_rows[name] = max(1, ADAM_BLOCK_BYTES // (8 * row_size))
            size = max(size, min(rows, self.block_rows[name]) * row_size)
        self._scratch = [np.empty(size) for _ in range(2)]

    @staticmethod
    def _as_rows(a: np.ndarray) -> np.ndarray:
        return a.reshape(len(a), -1)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name in self.state.names():
            p = self.state[name]
            value, m, v = (self._as_rows(a) for a in (p.value, self.m[name], self.v[name]))
            grad = None if p.grad is None else self._as_rows(p.grad)
            block = self.block_rows[name]
            for lo in range(0, len(value), block):
                rows = slice(lo, lo + block)
                pb, mb, vb = value[rows], m[rows], v[rows]
                # g is written to the step's buffer, which it leaves free in time
                step, tmp = (buf[:pb.size].reshape(pb.shape) for buf in self._scratch)
                g = penalized_gradient(None if grad is None else grad[rows], pb,
                                       self.lambda_reg, out=step)
                if not np.isfinite(g).all():
                    raise TrainingDiverged(f"non-finite gradient in {name}")
                # in place, in the same operation order as
                # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;
                # p -= lr m_hat / (sqrt(v_hat) + eps)
                mb *= b1
                mb += np.multiply(g, 1 - b1, out=tmp)
                vb *= b2
                np.multiply(g, g, out=tmp)
                tmp *= 1 - b2
                vb += tmp
                np.divide(mb, 1 - b1 ** t, out=step)
                step *= self.lr
                denom = np.divide(vb, 1 - b2 ** t, out=tmp)
                np.sqrt(denom, out=denom)
                denom += ADAM_EPS
                step /= denom
                pb -= step


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


def train(g: SignedBipartiteGraph, cfg: ModelConfig, tcfg: TrainConfig,
          epoch_callback=None) -> TrainResult:
    """Run the optimization loop and return the final state and embeddings."""
    if tcfg.positive_edges_only:
        g = partition(g)[0]
    adjs = AdjacencySet.build(g, cfg)
    state = init_state(cfg, g.num_users, g.num_items, substream(tcfg.seed, "init"))
    optimizer = Adam(state, tcfg.learning_rate, tcfg.lambda_reg)
    sampler = NegativeSampler(g, tcfg.n_neg)
    if not len(sampler.users):
        raise ValueError("no training triples: every user is adjacent to every samplable item")

    history = []
    for epoch in range(tcfg.epochs):
        start = time.perf_counter()
        sample_rng = substream(tcfg.seed, "sampling", epoch)
        triples = sample_negatives(sampler, sample_rng)
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
    return TrainResult(state, history, z_final.value)
