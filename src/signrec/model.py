"""Model parameters and the forward pass.

Two embedding paths are produced: GNN propagation over the positive graph
and an MLP over the negative graph's own embedding table. An attention head
softmaxes a per-node pair of scores into convex fusion weights. Ablation
variants swap or drop the negative path.
"""
from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import (BACKBONES, NormalizedAdjacency, SignedBipartiteGraph, normalized_adjacency,
                    partition)

VARIANTS = ("mlp-gn", "gnn-gn", "no-gn", "no-split")


@dataclass
class ModelConfig:
    backbone: str = "lightgcn"
    variant: str = "mlp-gn"
    dim: int = 64
    gnn_layers: int = 3
    mlp_layers: int = 2
    attn_dim: int = 64
    leaky_relu_alpha: float = 0.1
    dropout_p: float = 0.5

    def __post_init__(self):
        if self.backbone not in BACKBONES:
            raise ValueError(f"unknown backbone {self.backbone!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if min(self.dim, self.gnn_layers, self.mlp_layers, self.attn_dim) < 1:
            raise ValueError("dim, layer counts, and attn_dim must be >= 1")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must lie in [0, 1)")

    @property
    def output_dim(self) -> int:
        # Concatenating backbones emit (L+1) stacked layer embeddings; the
        # MLP's final width is matched so the fusion is well-formed.
        if self.backbone == "lightgcn":
            return self.dim
        return (self.gnn_layers + 1) * self.dim


class ModelState:
    """Named parameter tensors with a stable iteration order."""

    def __init__(self, params: dict):
        self.params = params

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def names(self) -> list:
        return sorted(self.params)

    def tensors(self) -> list:
        return [self.params[n] for n in self.names()]

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None


def _xavier(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in, fan_out = (shape[0], shape[-1]) if len(shape) > 1 else (shape[0], shape[0])
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_state(cfg: ModelConfig, num_users: int, num_items: int,
               rng: np.random.Generator) -> ModelState:
    n_nodes = num_users + num_items
    d, d_out = cfg.dim, cfg.output_dim
    params = {}

    def add_gnn(prefix: str):
        params[f"{prefix}.h0"] = Tensor(_xavier(rng, (n_nodes, d)))
        if cfg.backbone == "lrgccf":
            for layer in range(cfg.gnn_layers):
                params[f"{prefix}.w{layer}"] = Tensor(_xavier(rng, (d, d)))
        elif cfg.backbone == "ngcf":
            for layer in range(cfg.gnn_layers):
                params[f"{prefix}.w1.{layer}"] = Tensor(_xavier(rng, (d, d)))
                params[f"{prefix}.w2.{layer}"] = Tensor(_xavier(rng, (d, d)))

    add_gnn("gnn")
    if cfg.variant == "gnn-gn":
        add_gnn("gnn_neg")
    elif cfg.variant == "mlp-gn":
        widths = [d] * cfg.mlp_layers + [d_out]
        params["mlp.z0"] = Tensor(_xavier(rng, (n_nodes, widths[0])))
        for layer in range(cfg.mlp_layers):
            params[f"mlp.w{layer}"] = Tensor(_xavier(rng, (widths[layer], widths[layer + 1])))
            params[f"mlp.b{layer}"] = Tensor(np.zeros((1, widths[layer + 1])))
    if cfg.variant in ("mlp-gn", "gnn-gn"):
        params["attn.w"] = Tensor(_xavier(rng, (cfg.attn_dim, d_out)))
        params["attn.q"] = Tensor(_xavier(rng, (cfg.attn_dim, 1)))
        params["attn.b"] = Tensor(np.zeros((cfg.attn_dim, 1)))
    return ModelState(params)


def propagate(adj: NormalizedAdjacency, state: ModelState, cfg: ModelConfig,
              prefix: str = "gnn", rows=None) -> Tensor:
    """Run backbone propagation and layer aggregation over one adjacency, as
    one tape node: ``ad.spmm_power_mean`` for LightGCN, ``ad.concat_propagate``
    for LR-GCCF and NGCF.

    With ``rows``, an array of unique node indices, the output holds those
    rows only. LightGCN then restricts its outermost products to them; the
    other backbones propagate over the whole graph and gather the rows.
    """
    if adj.variant != cfg.backbone:
        raise ValueError(f"adjacency variant {adj.variant!r} != backbone {cfg.backbone!r}")
    h = state[f"{prefix}.h0"]
    if cfg.backbone == "lightgcn":
        return ad.spmm_power_mean(adj.matrix, h, cfg.gnn_layers, rows)
    if cfg.backbone == "lrgccf":
        weights = [state[f"{prefix}.w{k}"] for k in range(cfg.gnn_layers)]
    else:
        weights = [(state[f"{prefix}.w1.{k}"], state[f"{prefix}.w2.{k}"])
                   for k in range(cfg.gnn_layers)]
    return ad.concat_propagate(adj.matrix, h, weights, cfg.backbone, cfg.leaky_relu_alpha, rows)


def mlp_forward(state: ModelState, cfg: ModelConfig, training: bool = False,
                rng: np.random.Generator | None = None, rows=None) -> Tensor:
    """The negative path's ReLU layers over ``mlp.z0``, or its ``rows`` (``ad.mlp``)."""
    layers = [(state[f"mlp.w{k}"], state[f"mlp.b{k}"]) for k in range(cfg.mlp_layers)]
    return ad.mlp(state["mlp.z0"], rows, layers, cfg.dropout_p, rng, training)


def attention_fuse(z_p: Tensor, z_n: Tensor, state: ModelState, cfg: ModelConfig,
                   training: bool = False, rng: np.random.Generator | None = None):
    """Score both embeddings per node, softmax the pair, fuse convexly (``ad.attention_fuse``):
    ``(alpha_p, alpha_n, fused)``, the weights as plain arrays."""
    if z_p.shape != z_n.shape:
        raise ValueError("embedding shapes differ")
    return ad.attention_fuse(z_p, z_n, state["attn.w"], state["attn.q"], state["attn.b"],
                             cfg.dropout_p, rng, training)


@dataclass
class AdjacencySet:
    """The variant-matched adjacency of each GNN path, named after the path's
    parameter prefix: ``gnn`` over the positive graph (the whole graph for
    ``no-split``), and ``gnn_neg`` over the negative graph (``gnn-gn`` only)."""

    gnn: NormalizedAdjacency
    gnn_neg: NormalizedAdjacency | None = None

    @classmethod
    def build(cls, g: SignedBipartiteGraph, cfg: ModelConfig) -> "AdjacencySet":
        """Build only the adjacencies ``cfg.variant`` reads from the signed graph ``g``."""
        if cfg.variant == "no-split":
            return cls(normalized_adjacency(g, cfg.backbone))
        positive, negative = partition(g)
        return cls(normalized_adjacency(positive, cfg.backbone),
                   normalized_adjacency(negative, cfg.backbone)
                   if cfg.variant == "gnn-gn" else None)


def forward_tensors(adjs: AdjacencySet, state: ModelState, cfg: ModelConfig,
                    training: bool = False, rng: np.random.Generator | None = None,
                    rows=None):
    """Forward pass returning live tensors (for training graphs).

    Returns (Z, Z_p, Z_n, alpha_p, alpha_n); the last three are None for
    variants that skip the negative path, and the alphas are plain arrays:
    the gradient reaches the attention through Z. With ``rows``, a sorted array
    of unique node indices, every returned tensor holds one row per entry of
    ``rows``: propagation computes only those output rows (see
    ``propagate``), and the MLP, dropout and attention run on them alone.
    """
    z_p = propagate(adjs.gnn, state, cfg, rows=rows)
    if cfg.variant in ("no-gn", "no-split"):
        return z_p, z_p, None, None, None
    if cfg.variant == "gnn-gn":
        z_n = propagate(adjs.gnn_neg, state, cfg, prefix="gnn_neg", rows=rows)
    else:
        z_n = mlp_forward(state, cfg, training, rng, rows)
    alpha_p, alpha_n, z = attention_fuse(z_p, z_n, state, cfg, training, rng)
    return z, z_p, z_n, alpha_p, alpha_n


def save_checkpoint(path: str, state: ModelState) -> None:
    """Write every parameter under its name, float64, as a numpy ``.npz`` archive.

    The archive holds no model config or node counts: the run's ``config``
    file does, and ``ModelConfig(**config["model"])`` rebuilds the config.
    """
    np.savez(path, **{name: state[name].value for name in state.names()})


def load_checkpoint(path: str) -> ModelState:
    """Read a :func:`save_checkpoint` archive back bit for bit; other bytes (an
    empty or truncated file, a ``.npy`` array) raise ``ValueError`` naming ``path``."""
    try:
        archive = np.load(path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("one array, not an archive")
        with archive:
            return ModelState({name: Tensor(archive[name]) for name in archive.files})
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not a checkpoint archive ({exc})") from None
