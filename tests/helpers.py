"""Shared test fixtures: independent oracles and synthetic datasets.

The oracles here deliberately avoid the library's sparse/vectorized code
paths: dense matrices built edge by edge, metrics computed with plain
loops, so they can vouch for the production implementations.
"""
from __future__ import annotations

import json
import math
import os
from collections import Counter, defaultdict

import numpy as np

from signrec import autodiff as ad
from signrec import model
from signrec.autodiff import Tensor
from signrec.data import (
    RATING_SCALE, DatasetDescriptor, FoldSplit, ParseError, RatingRecord, ValidationError,
    _format_rating,
)
from signrec.graph import DuplicateEdgeError, SignedBipartiteGraph
from signrec.rng import substream
from signrec.model import forward_tensors
from signrec.train import TrainingDiverged, TrainingTriples, noise_distribution


def toy_descriptor(num_users, num_items):
    return DatasetDescriptor(num_users, num_items,
                             {f"u{u}": u for u in range(num_users)},
                             {f"i{v}": v for v in range(num_items)})


def random_records(rng, num_users, num_items, count, ratings=(1, 2, 3, 4, 5)):
    pairs = rng.choice(num_users * num_items, size=count, replace=False)
    return [RatingRecord(f"u{p // num_items}", f"i{p % num_items}",
                         float(rng.choice(ratings)),
                         int(rng.integers(0, 10_000)))
            for p in pairs]


# ---------------------------------------------------------------------------
# dense propagation oracle

def dense_adjacency(g, variant):
    """The propagation matrix over every edge of ``g``, one node at a time."""
    n = g.num_users + g.num_items
    neighbors = [[] for _ in range(n)]
    for u, v in zip(g.users, g.items):
        neighbors[u].append(v + g.num_users)
        neighbors[v + g.num_users].append(u)
    A = np.zeros((n, n))
    for x in range(n):
        for y in neighbors[x]:
            if variant == "lrgccf":
                A[x, y] = 1.0 / (math.sqrt(len(neighbors[x]) + 1) * math.sqrt(len(neighbors[y]) + 1))
            else:
                A[x, y] = 1.0 / (math.sqrt(len(neighbors[x])) * math.sqrt(len(neighbors[y])))
        if variant == "lrgccf":
            A[x, x] = 1.0 / (len(neighbors[x]) + 1)
    return A


def dense_propagate_reference(A, state, cfg, prefix="gnn"):
    """Re-derivation of backbone propagation with dense numpy only."""
    h = state[f"{prefix}.h0"].value.copy()
    layers = [h]
    for layer in range(cfg.gnn_layers):
        if cfg.backbone == "lightgcn":
            h = A @ h
        elif cfg.backbone == "lrgccf":
            h = (A @ h) @ state[f"{prefix}.w{layer}"].value
        else:
            ah = A @ h
            pre = (h + ah) @ state[f"{prefix}.w1.{layer}"].value \
                + (h * ah) @ state[f"{prefix}.w2.{layer}"].value
            h = np.where(pre > 0, pre, cfg.leaky_relu_alpha * pre)
        layers.append(h)
    if cfg.backbone == "lightgcn":
        return sum(layers) / len(layers)
    return np.concatenate(layers, axis=1)


# ---------------------------------------------------------------------------
# generic tape nodes and the LR-GCCF / NGCF propagation chain

def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _constant(value):
    """A tensor that no parameter depends on: it takes a gradient that nothing reads."""
    return Tensor(value)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else _constant(x)


def _add(a, b):
    """Tape node for ``a + b`` with broadcasting; either side may be a constant.
    Both parents receive the same gradient array."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.value + b.value, parents=(a, b))

    def backward(grad):
        a._accumulate(_unbroadcast(grad, a.shape))
        b._accumulate(_unbroadcast(grad, b.shape))

    out._backward = backward
    return out


def _reduce_sum(a, axis=None):
    """Tape node for ``a.sum(axis)``; the backward broadcasts the gradient back."""
    out = Tensor(a.value.sum(axis=axis), parents=(a,))

    def backward(grad):
        if axis is None:
            a._accumulate(np.broadcast_to(grad, a.shape).copy())
        else:
            a._accumulate(np.broadcast_to(np.expand_dims(grad, axis), a.shape).copy())

    out._backward = backward
    return out


def _mul(a, b):
    """Tape node for ``a * b`` with broadcasting; either side may be a constant."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.value * b.value, parents=(a, b))

    def backward(grad):
        a._accumulate(_unbroadcast(grad * b.value, a.shape))
        b._accumulate(_unbroadcast(grad * a.value, b.shape))

    out._backward = backward
    return out


def _matmul(a, b):
    """Tape node for ``a @ b``."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.value @ b.value, parents=(a, b))

    def backward(grad):
        a._accumulate(grad @ b.value.T)
        b._accumulate(a.value.T @ grad)

    out._backward = backward
    return out


def _leaky_relu(a, alpha):
    """Tape node for LeakyReLU with slope ``alpha`` below zero."""
    out = Tensor(np.where(a.value > 0, a.value, alpha * a.value), parents=(a,))

    def backward(grad):
        a._accumulate(grad * np.where(a.value > 0, 1.0, alpha))

    out._backward = backward
    return out


def _gather_rows(a, idx):
    """Tape node for ``a[idx]``, ``idx`` without repeats; the backward assigns
    each gradient row to its source row of a zero-filled table."""
    idx = np.asarray(idx)
    out = Tensor(a.value[idx], parents=(a,))

    def backward(grad):
        full = np.zeros_like(a.value)
        full[idx] = grad
        a._accumulate(full)

    out._backward = backward
    return out


def _concat(tensors, axis=1):
    """Tape node for ``np.concatenate``; each input takes its slice of the gradient."""
    out = Tensor(np.concatenate([t.value for t in tensors], axis=axis), parents=tuple(tensors))
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def backward(grad):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            t._accumulate(np.take(grad, range(lo, hi), axis=axis))

    out._backward = backward
    return out


def reference_propagate(adj, state, cfg, prefix="gnn", rows=None):
    """Chain-of-nodes form of ``signrec.model.propagate`` for LR-GCCF and NGCF.

    A sparse product and a matmul per LR-GCCF layer; a sparse product, two
    adds, a product, two matmuls and LeakyReLU per NGCF layer; then the
    concatenation and the row gather, each its own tape node. The fused op
    must give the same output and gradients bit for bit. LightGCN goes to
    ``ad.spmm_power_mean`` as in the model.
    """
    h = state[f"{prefix}.h0"]
    if cfg.backbone == "lightgcn":
        return ad.spmm_power_mean(adj.matrix, h, cfg.gnn_layers, rows)
    layers = [h]
    for layer in range(cfg.gnn_layers):
        if cfg.backbone == "lrgccf":
            h = _matmul(ad.spmm(adj.matrix, h), state[f"{prefix}.w{layer}"])
        else:
            ah = ad.spmm(adj.matrix, h)
            linear = _matmul(_add(h, ah), state[f"{prefix}.w1.{layer}"])
            interact = _matmul(_mul(h, ah), state[f"{prefix}.w2.{layer}"])
            h = _leaky_relu(_add(linear, interact), cfg.leaky_relu_alpha)
        layers.append(h)
    z = _concat(layers, axis=1)
    return z if rows is None else _gather_rows(z, rows)


# ---------------------------------------------------------------------------
# negative-sampler reference

def reference_sample_negatives(g, n_neg, rng):
    """Loop-and-set form of ``signrec.train.sample_negatives``.

    Builds every user's neighbor set edge by edge and tests membership with
    ``np.isin``; it makes the same ``rng.choice`` calls in the same order,
    so the vectorized sampler must return identical triples.
    """
    probs = noise_distribution(g)
    samplable = set(np.flatnonzero(probs > 0).tolist())
    neighbors = {}
    for u, v in zip(g.users, g.items):
        neighbors.setdefault(int(u), set()).add(int(v))

    keep = np.ones(g.num_edges, dtype=bool)
    for u, items in neighbors.items():
        if not (samplable - items):
            keep &= g.users != u

    users = np.repeat(g.users[keep], n_neg)
    items = np.repeat(g.items[keep], n_neg)
    signs = np.repeat(np.sign(g.weights[keep]).astype(np.int8), n_neg)

    edge_keys = np.sort(g.users * g.num_items + g.items)
    negatives = rng.choice(g.num_items, size=len(users), p=probs)
    pending = np.isin(users * g.num_items + negatives, edge_keys)
    while pending.any():
        idx = np.flatnonzero(pending)
        negatives[idx] = rng.choice(g.num_items, size=len(idx), p=probs)
        pending[idx] = np.isin(users[idx] * g.num_items + negatives[idx], edge_keys)
    return TrainingTriples(users, items, negatives, signs)


# ---------------------------------------------------------------------------
# loss-head reference

def _gather_repeated(a, idx):
    """Tape node for ``a[idx]`` with repeats; the backward sums with ``np.add.at``."""
    out = Tensor(a.value[idx], parents=(a,))

    def backward(grad):
        full = np.zeros_like(a.value)
        np.add.at(full, idx, grad)
        a._accumulate(full)

    out._backward = backward
    return out


def _softplus(a):
    """Tape node for log(1 + exp(x)); the gradient is sigmoid(x)."""
    out = Tensor(np.logaddexp(0.0, a.value), parents=(a,))

    def backward(grad):
        x = a.value
        s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                     np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        a._accumulate(grad * s)

    out._backward = backward
    return out


def _sub(a, b):
    """Tape node for ``a - b``; both parents share one shape."""
    out = Tensor(a.value - b.value, parents=(a, b))

    def backward(grad):
        a._accumulate(grad)
        b._accumulate(-grad)

    out._backward = backward
    return out


def reference_triple_loss_terms(z, num_users, triples, c, loss):
    """Chain-of-nodes form of the per-triple terms of ``ad.bpr_loss``, as
    ``signrec.train.sign_aware_bpr_loss`` calls it.

    Three repeated-row gathers, two products with row sums, the coefficient,
    the margin, the negation and softplus, each its own tape node. With
    ``_reduce_sum`` and ``_add`` of the penalty after it, the fused op must
    give the same loss, terms and gradient bit for bit.
    """
    z_u = _gather_repeated(z, triples.users)
    z_i = _gather_repeated(z, num_users + triples.items)
    z_j = _gather_repeated(z, num_users + triples.negatives)
    r_ui = _reduce_sum(_mul(z_u, z_i), axis=1)
    r_uj = _reduce_sum(_mul(z_u, z_j), axis=1)
    if loss == "standard-bpr":
        coef = np.ones(len(triples))
    else:
        coef = np.where(triples.signs < 0, c, 1.0)
    margin = _sub(_mul(r_ui, _constant(coef)), r_uj)
    return _softplus(_mul(margin, -1.0))


# ---------------------------------------------------------------------------
# MLP reference

def _relu(a):
    """Tape node for max(x, 0); the gradient passes where x > 0."""
    out = Tensor(np.maximum(a.value, 0.0), parents=(a,))
    out._backward = lambda grad: a._accumulate(grad * (a.value > 0))
    return out


def _dropout(a, p, rng, training):
    """Inverted dropout as a product with a constant mask from ``ad._dropout_mask``."""
    mask = ad._dropout_mask(a.shape, p, rng, training)
    return a if mask is None else _mul(a, _constant(mask))


def reference_mlp_forward(state, cfg, training=False, rng=None, rows=None):
    """Chain-of-nodes form of ``signrec.model.mlp_forward``.

    A row gather, then a product, bias add and ReLU per layer, with dropout
    after every layer but the last, each its own tape node. The fused op must
    give the same output, gradients and dropout draws bit for bit.
    """
    z = state["mlp.z0"]
    if rows is not None:
        z = _gather_rows(z, rows)
    for layer in range(cfg.mlp_layers):
        z = _relu(_add(_matmul(z, state[f"mlp.w{layer}"]), state[f"mlp.b{layer}"]))
        if training and layer < cfg.mlp_layers - 1:
            z = _dropout(z, cfg.dropout_p, rng, training)
    return z


# ---------------------------------------------------------------------------
# attention reference

def _transpose(a):
    """Tape node for ``a.T``."""
    out = Tensor(a.value.T, parents=(a,))
    out._backward = lambda grad: a._accumulate(grad.T)
    return out


def _tanh(a):
    """Tape node for tanh; the gradient is 1 - tanh(x)^2."""
    value = np.tanh(a.value)
    out = Tensor(value, parents=(a,))
    out._backward = lambda grad: a._accumulate(grad * (1.0 - value * value))
    return out


def _sigmoid(a):
    """Tape node for the overflow-safe logistic function."""
    x = a.value
    value = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                     np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out = Tensor(value, parents=(a,))
    out._backward = lambda grad: a._accumulate(grad * value * (1.0 - value))
    return out


def reference_attention_fuse(z_p, z_n, state, cfg, training=False, rng=None):
    """Chain-of-nodes form of ``signrec.model.attention_fuse``.

    Dropout, transposes, products, bias add, tanh, the two score
    differences, two sigmoids and the convex mix, each its own tape node.
    The fused op must give the same output, weights, gradients and dropout
    draws bit for bit. The weights are returned as arrays, as the fused op
    returns them.
    """
    w_t = _transpose(state["attn.w"])
    b_row = _transpose(state["attn.b"])
    zp_in = _dropout(z_p, cfg.dropout_p, rng, training)
    zn_in = _dropout(z_n, cfg.dropout_p, rng, training)
    score_p = _matmul(_tanh(_add(_matmul(zp_in, w_t), b_row)), state["attn.q"])
    score_n = _matmul(_tanh(_add(_matmul(zn_in, w_t), b_row)), state["attn.q"])
    alpha_p = _sigmoid(_sub(score_p, score_n))
    alpha_n = _sigmoid(_sub(score_n, score_p))
    fused = _add(_mul(alpha_p, z_p), _mul(alpha_n, z_n))
    return alpha_p.value, alpha_n.value, fused


# ---------------------------------------------------------------------------
# training-step reference: full-table propagation, the penalty on the tape,
# unblocked Adam

def reference_spmm_power_mean(matrix, x, layers, rows=None):
    """LightGCN's layer mean over every node, then ``gather_rows`` of ``rows``.

    The whole-graph op computes ``mean_k matrix^k @ x`` and back-propagates
    ``mean_k matrix^k @ grad`` from a zero-filled table; the row-restricted
    op must equal this bit for bit.
    """
    def power_mean(h):
        acc = h.copy()
        for _ in range(layers):
            h = matrix @ h
            acc += h
        acc *= 1.0 / (layers + 1)
        return acc

    out = Tensor(power_mean(x.value), parents=(x,))
    out._backward = lambda grad: x._accumulate(power_mean(grad))
    return out if rows is None else _gather_rows(out, rows)


def reference_l2_penalty(tensors, lam):
    """Tape node for ``lam`` times the sum of squares over ``tensors``."""
    total = 0.0
    for t in tensors:
        flat = t.value.reshape(-1)
        total += flat @ flat
    out = Tensor(lam * total, parents=tuple(tensors))

    def backward(grad):
        scale = 2.0 * lam * float(grad)
        for t in tensors:
            t._accumulate(scale * t.value)

    out._backward = backward
    return out


def reference_batch_loss(adjs, state, cfg, tcfg, num_users, batch, rng):
    """One step's loss with ``np.unique`` rows, whole-graph LightGCN
    propagation, the LR-GCCF and NGCF layers, the MLP, the attention and the
    loss head as chains of nodes and the penalty as a tape node."""
    nodes = np.concatenate([batch.users, num_users + batch.items,
                            num_users + batch.negatives])
    rows, local = np.unique(nodes, return_inverse=True)
    users, items, negatives = np.split(local, 3)
    originals = ad.spmm_power_mean, model.propagate, model.mlp_forward, model.attention_fuse
    ad.spmm_power_mean, model.propagate, model.mlp_forward, model.attention_fuse = (
        reference_spmm_power_mean, reference_propagate, reference_mlp_forward,
        reference_attention_fuse)
    try:
        z, *_ = forward_tensors(adjs, state, cfg, training=True, rng=rng, rows=rows)
    finally:
        ad.spmm_power_mean, model.propagate, model.mlp_forward, model.attention_fuse = originals
    terms = reference_triple_loss_terms(
        z, 0, TrainingTriples(users, items, negatives, batch.signs), tcfg.c, tcfg.loss)
    total = _reduce_sum(terms)
    if tcfg.lambda_reg > 0:
        total = _add(total, reference_l2_penalty(state.tensors(), tcfg.lambda_reg))
    return total


class ReferenceAdam:
    """Adam over whole tables, the gradient taken from the tape as it is."""

    def __init__(self, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.state, self.lr = state, lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {n: np.zeros_like(state[n].value) for n in state.names()}
        self.v = {n: np.zeros_like(state[n].value) for n in state.names()}

    def step(self):
        self.step_count += 1
        t = self.step_count
        for name in self.state.names():
            p = self.state[name]
            grad = p.grad if p.grad is not None else np.zeros_like(p.value)
            if not np.isfinite(grad).all():
                raise TrainingDiverged(f"non-finite gradient in {name}")
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


# ---------------------------------------------------------------------------
# brute-force ranking oracles

def reference_topk(Z, num_users, users, k, exclude):
    """Full-sort form of ``signrec.evaluate.topk_recommend``.

    Scores the block with the same product, then sorts every candidate item
    of each user by (-score, item) in Python; a row holds -1 past the user's
    candidate count.
    """
    scores = Z[list(users)] @ Z[num_users:].T
    recs = np.full((len(users), k), -1, dtype=np.int64)
    for row, user in enumerate(users):
        skip = {int(v) for v in exclude.get(user, ())}
        candidates = [v for v in range(scores.shape[1]) if v not in skip]
        ranked = sorted(candidates, key=lambda v: (-scores[row, v], v))[:k]
        recs[row, :len(ranked)] = ranked
    return recs


def brute_force_metrics(Z, num_users, user, truth, exclude, k):
    """(P@K, R@K, nDCG@K) for one user via exhaustive scoring and loops."""
    num_items = Z.shape[0] - num_users
    scored = []
    for item in range(num_items):
        if item in exclude:
            continue
        score = float(np.dot(Z[user], Z[num_users + item]))
        scored.append((-score, item))
    scored.sort()
    recs = [item for _, item in scored[:k]]
    hits = sum(1 for item in recs if item in truth)
    precision = hits / k
    recall = hits / len(truth)
    dcg = 0.0
    for pos, item in enumerate(recs):
        if item in truth:
            dcg += 1.0 / math.log2(pos + 2)
    idcg = sum(1.0 / math.log2(pos + 2) for pos in range(min(len(truth), k)))
    return precision, recall, dcg / idcg


# ---------------------------------------------------------------------------
# synthetic rating datasets


def latent_factor_dataset(num_users=500, num_items=600, k=8, seed=0):
    """Ratings sampled from a latent-factor model with realistic skew.

    Users and items live in a k-dimensional taste space; each user rates a
    popularity- and taste-biased sample of items, and the star value is a
    noisy quantization of the latent affinity. Item popularity follows a
    heavy-tailed law and user activity a lognormal, so the graph has the
    degree heterogeneity that collaborative filtering methods differ on.
    Low stars land on items genuinely far from the user's taste, which is
    what makes the negative edges informative.
    """
    rng = np.random.default_rng(seed)
    zu = rng.standard_normal((num_users, k)) / np.sqrt(k)
    zv = rng.standard_normal((num_items, k)) / np.sqrt(k)
    pop = rng.zipf(1.6, num_items).astype(float)
    logpop = np.log(np.minimum(pop, 1000))
    scores = zu @ zv.T
    activity = np.clip(rng.lognormal(3.2, 0.8, num_users), 8, 150).astype(int)
    records = []
    for u in range(num_users):
        s = scores[u]
        p = np.exp(1.5 * s + 0.8 * logpop)
        p /= p.sum()
        n = min(int(activity[u]), num_items)
        rated = rng.choice(num_items, size=n, replace=False, p=p)
        noisy = s[rated] + 0.3 * rng.standard_normal(n)
        qs = np.quantile(noisy, [0.15, 0.35, 0.55, 0.8])
        stars = 1 + np.searchsorted(qs, noisy)
        for v, r in zip(rated, stars):
            records.append(RatingRecord(f"u{u}", f"i{v}", float(r),
                                        int(rng.integers(0, 10_000))))
    rng.shuffle(records)
    return records


# ---------------------------------------------------------------------------
# planted-preference synthetic dataset (small smoke-test runs)

def planted_dataset(num_users=400, num_items=400, clusters=4,
                    liked_per_user=30, disliked_per_user=12, seed=0):
    """Explicit-feedback dataset where low ratings carry real signal.

    Each user likes two item clusters and dislikes a third. The disliked
    cluster is observable only through low ratings, so a positive-only
    model cannot learn to avoid its unobserved items.
    """
    rng = np.random.default_rng(seed)
    per_cluster = num_items // clusters
    cluster_items = [np.arange(c * per_cluster, (c + 1) * per_cluster)
                     for c in range(clusters)]
    records = []
    for u in range(num_users):
        home = u % clusters
        others = [c for c in range(clusters) if c != home]
        second = int(rng.choice(others))
        disliked = int(rng.choice([c for c in others if c != second]))
        liked_pool = np.concatenate([cluster_items[home], cluster_items[second]])
        liked = rng.choice(liked_pool, size=liked_per_user, replace=False)
        hated = rng.choice(cluster_items[disliked], size=disliked_per_user, replace=False)
        for v in liked:
            records.append(RatingRecord(f"u{u}", f"i{v}", float(rng.choice([4, 5])),
                                        int(rng.integers(0, 10_000))))
        for v in hated:
            records.append(RatingRecord(f"u{u}", f"i{v}", float(rng.choice([1, 2])),
                                        int(rng.integers(0, 10_000))))
    rng.shuffle(records)
    return records


# ---------------------------------------------------------------------------
# record-based data path: one RatingRecord per rating, plain loops. The
# library keeps ratings as columns; these oracles vouch for it.

def reference_parse_ratings(path, format="tsv"):
    sep = {"tsv": "\t", "movielens-dat": "::"}[format]
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    lo, hi = RATING_SCALE
    records = []
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split(sep)
        if len(parts) not in (3, 4):
            raise ParseError(f"expected 3 or 4 fields separated by {sep!r}, got {len(parts)}",
                             line_no, path)
        user_id, item_id = parts[0], parts[1]
        for kind, name in (("user", user_id), ("item", item_id)):
            if "\t" in name:
                raise ParseError(f"{kind} id {name!r} holds a tab, which a fold manifest "
                                 "cannot hold", line_no, path)
        try:
            rating = float(parts[2])
        except ValueError:
            raise ParseError(f"bad rating field {parts[2]!r}", line_no, path) from None
        try:
            timestamp = int(parts[3]) if len(parts) == 4 else 0
        except ValueError:
            raise ParseError(f"bad timestamp field {parts[3]!r}", line_no, path) from None
        if not (lo <= rating <= hi):
            raise ValidationError(f"rating {rating} outside scale [{lo}, {hi}]", line_no, path)
        records.append(RatingRecord(user_id, item_id, rating, timestamp))
    return records


def reference_filter_min_interactions(records, threshold):
    current = list(records)
    if threshold == 0:
        return current
    while True:
        user_counts = Counter(r.user_id for r in current)
        item_counts = Counter(r.item_id for r in current)
        kept = [r for r in current
                if user_counts[r.user_id] >= threshold and item_counts[r.item_id] >= threshold]
        if len(kept) == len(current):
            return kept
        current = kept


def reference_build_descriptor(records):
    user_index, item_index = {}, {}
    for r in records:
        user_index.setdefault(r.user_id, len(user_index))
        item_index.setdefault(r.item_id, len(item_index))
    return DatasetDescriptor(len(user_index), len(item_index), user_index, item_index)


def reference_kfold_split(records, k, seed):
    records = list(records)
    order = substream(seed, "split").permutation(len(records))
    folds = []
    for fold_index, test_idx in enumerate(np.array_split(order, k)):
        in_test = np.zeros(len(records), dtype=bool)
        in_test[test_idx] = True
        folds.append(FoldSplit(fold_index,
                               [r for r, t in zip(records, in_test) if not t],
                               [r for r, t in zip(records, in_test) if t]))
    return folds


def reference_write_fold_manifests(folds, directory):
    os.makedirs(directory, exist_ok=True)
    for fold in folds:
        with open(os.path.join(directory, f"fold{fold.fold_index}.tsv"), "w",
                  encoding="utf-8") as fh:
            for r in fold.test:
                fh.write("\t".join([str(fold.fold_index), r.user_id, r.item_id,
                                    _format_rating(r.rating), str(r.timestamp)]) + "\n")


def reference_read_fold_manifests(directory, k):
    with open(os.path.join(directory, "nodes.json"), "r", encoding="utf-8") as fh:
        index = json.load(fh)
    lo, hi = RATING_SCALE
    tests = []
    for fold_index in range(k):
        path = os.path.join(directory, f"fold{fold_index}.tsv")
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 5:
                    raise ParseError("expected 5 manifest fields", line_no, path)
                try:
                    rating, timestamp = float(parts[3]), int(parts[4])
                    if not -2**63 <= timestamp < 2**63:
                        raise ValueError(f"timestamp {parts[4]!r} outside the int64 range")
                except ValueError as exc:
                    raise ParseError(f"bad rating or timestamp ({exc})", line_no, path) from None
                if parts[0] != str(fold_index):
                    raise ParseError(f"fold column {parts[0]!r} in the manifest of fold "
                                     f"{fold_index}", line_no, path)
                for kind, name, ids in (("user", parts[1], index["users"]),
                                        ("item", parts[2], index["items"])):
                    if name not in ids:
                        raise ParseError(f"{kind} {name!r} is not in nodes.json; split it again",
                                         line_no, path)
                if not lo <= rating <= hi:
                    raise ValidationError(f"rating {rating} outside scale [{lo}, {hi}]",
                                          line_no, path)
                records.append(RatingRecord(parts[1], parts[2], rating, timestamp))
        tests.append(records)
    return [FoldSplit(i, [r for j in range(k) if j != i for r in tests[j]], tests[i])
            for i in range(k)]


def reference_build_signed_graph(records, descriptor, w_o):
    users, items, weights = [], [], []
    seen = set()
    for r in records:
        u = descriptor.user_index[r.user_id]
        v = descriptor.item_index[r.item_id]
        if (u, v) in seen:
            raise DuplicateEdgeError(f"repeated interaction ({r.user_id}, {r.item_id})")
        seen.add((u, v))
        w = r.rating - w_o
        if w == 0.0:
            continue
        users.append(u)
        items.append(v)
        weights.append(w)
    return SignedBipartiteGraph(descriptor.num_users, descriptor.num_items,
                                np.asarray(users, dtype=np.int64),
                                np.asarray(items, dtype=np.int64),
                                np.asarray(weights, dtype=np.float64))


def reference_ground_truth(test_records, descriptor):
    truth = defaultdict(set)
    for r in test_records:
        if r.rating >= 4.0:
            truth[descriptor.user_index[r.user_id]].add(descriptor.item_index[r.item_id])
    return dict(truth)


def reference_train_interactions(train_records, descriptor):
    seen = defaultdict(set)
    for r in train_records:
        seen[descriptor.user_index[r.user_id]].add(descriptor.item_index[r.item_id])
    return dict(seen)
