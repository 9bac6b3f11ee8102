"""Model parameters and the forward pass.

Two embedding paths are produced: GNN propagation over the positive graph
and an MLP over the negative graph's own embedding table. An attention head
softmaxes a per-node pair of scores into convex fusion weights. Ablation
variants swap or drop the negative path.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import BACKBONES, NormalizedAdjacency, normalized_adjacency

VARIANTS = ("mlp-gn", "gnn-gn", "no-gn", "no-split")

CHECKPOINT_MAGIC = b"SIGNREC1"


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
        params[f"{prefix}.h0"] = Tensor(_xavier(rng, (n_nodes, d)), requires_grad=True)
        if cfg.backbone == "lrgccf":
            for layer in range(cfg.gnn_layers):
                params[f"{prefix}.w{layer}"] = Tensor(_xavier(rng, (d, d)), requires_grad=True)
        elif cfg.backbone == "ngcf":
            for layer in range(cfg.gnn_layers):
                params[f"{prefix}.w1.{layer}"] = Tensor(_xavier(rng, (d, d)), requires_grad=True)
                params[f"{prefix}.w2.{layer}"] = Tensor(_xavier(rng, (d, d)), requires_grad=True)

    add_gnn("gnn")
    if cfg.variant == "gnn-gn":
        add_gnn("gnn_neg")
    elif cfg.variant == "mlp-gn":
        widths = [d] * cfg.mlp_layers + [d_out]
        params["mlp.z0"] = Tensor(_xavier(rng, (n_nodes, widths[0])), requires_grad=True)
        for layer in range(cfg.mlp_layers):
            params[f"mlp.w{layer}"] = Tensor(_xavier(rng, (widths[layer], widths[layer + 1])),
                                             requires_grad=True)
            params[f"mlp.b{layer}"] = Tensor(np.zeros((1, widths[layer + 1])), requires_grad=True)
    if cfg.variant in ("mlp-gn", "gnn-gn"):
        params["attn.w"] = Tensor(_xavier(rng, (cfg.attn_dim, d_out)), requires_grad=True)
        params["attn.q"] = Tensor(_xavier(rng, (cfg.attn_dim, 1)), requires_grad=True)
        params["attn.b"] = Tensor(np.zeros((cfg.attn_dim, 1)), requires_grad=True)
    return ModelState(params)


def propagate(adj: NormalizedAdjacency, state: ModelState, cfg: ModelConfig,
              prefix: str = "gnn") -> Tensor:
    """Run backbone propagation and layer aggregation over one adjacency."""
    if adj.variant != cfg.backbone:
        raise ValueError(f"adjacency variant {adj.variant!r} != backbone {cfg.backbone!r}")
    h = state[f"{prefix}.h0"]
    if cfg.backbone == "lightgcn":
        return ad.spmm_power_mean(adj.matrix, h, cfg.gnn_layers)
    layers = [h]
    if cfg.backbone == "lrgccf":
        for layer in range(cfg.gnn_layers):
            h = ad.matmul(ad.spmm(adj.matrix, h), state[f"{prefix}.w{layer}"])
            layers.append(h)
        return ad.concat(layers, axis=1)
    # ngcf: self transform plus normalized neighbor sum with an elementwise
    # interaction term, under LeakyReLU.
    for layer in range(cfg.gnn_layers):
        ah = ad.spmm(adj.matrix, h)
        linear = ad.matmul(ad.add(h, ah), state[f"{prefix}.w1.{layer}"])
        interact = ad.matmul(ad.mul(h, ah), state[f"{prefix}.w2.{layer}"])
        h = ad.leaky_relu(ad.add(linear, interact), cfg.leaky_relu_alpha)
        layers.append(h)
    return ad.concat(layers, axis=1)


def mlp_forward(state: ModelState, cfg: ModelConfig, training: bool = False,
                rng: np.random.Generator | None = None, rows=None) -> Tensor:
    """MLP over the negative path's embedding table, or over its ``rows``."""
    z = state["mlp.z0"]
    if rows is not None:
        z = ad.gather_rows(z, rows, unique=True)
    for layer in range(cfg.mlp_layers):
        z = ad.relu(ad.add(ad.matmul(z, state[f"mlp.w{layer}"]), state[f"mlp.b{layer}"]))
        if training and layer < cfg.mlp_layers - 1:
            z = ad.dropout(z, cfg.dropout_p, rng, training)
    return z


def attention_fuse(z_p: Tensor, z_n: Tensor, state: ModelState, cfg: ModelConfig,
                   training: bool = False, rng: np.random.Generator | None = None):
    """Score both embeddings per node, softmax the pair, fuse convexly."""
    if z_p.shape != z_n.shape:
        raise ValueError("embedding shapes differ")
    w_t = ad.transpose(state["attn.w"])       # (d_out, d')
    b_row = ad.transpose(state["attn.b"])     # (1, d')
    zp_in = ad.dropout(z_p, cfg.dropout_p, rng, training)
    zn_in = ad.dropout(z_n, cfg.dropout_p, rng, training)
    score_p = ad.matmul(ad.tanh(ad.add(ad.matmul(zp_in, w_t), b_row)), state["attn.q"])
    score_n = ad.matmul(ad.tanh(ad.add(ad.matmul(zn_in, w_t), b_row)), state["attn.q"])
    diff = ad.sub(score_p, score_n)
    alpha_p = ad.sigmoid(diff)
    alpha_n = ad.sigmoid(ad.sub(score_n, score_p))
    fused = ad.add(ad.mul(alpha_p, z_p), ad.mul(alpha_n, z_n))
    return alpha_p, alpha_n, fused


@dataclass
class AdjacencySet:
    """Variant-matched adjacencies for the paths a configuration needs."""

    positive: NormalizedAdjacency
    negative: NormalizedAdjacency | None = None
    full: NormalizedAdjacency | None = None

    @classmethod
    def build(cls, partitioned, cfg: ModelConfig) -> "AdjacencySet":
        positive = normalized_adjacency(partitioned, cfg.backbone, "positive")
        negative = full = None
        if cfg.variant == "gnn-gn":
            negative = normalized_adjacency(partitioned, cfg.backbone, "negative")
        elif cfg.variant == "no-split":
            full = normalized_adjacency(partitioned, cfg.backbone, "all")
        return cls(positive, negative, full)


def forward_tensors(adjs: AdjacencySet, state: ModelState, cfg: ModelConfig,
                    training: bool = False, rng: np.random.Generator | None = None,
                    rows=None):
    """Forward pass returning live tensors (for training graphs).

    Returns (Z, Z_p, Z_n, alpha_p, alpha_n); the last three are None for
    variants that skip the negative path. With ``rows``, an array of unique
    node indices, propagation still runs over the whole graph, but the MLP,
    dropout and attention run on those rows only, and every returned tensor
    holds one row per entry of ``rows``.
    """
    def restrict(z: Tensor) -> Tensor:
        return z if rows is None else ad.gather_rows(z, rows, unique=True)

    if cfg.variant == "no-split":
        z = restrict(propagate(adjs.full, state, cfg))
        return z, z, None, None, None
    z_p = restrict(propagate(adjs.positive, state, cfg))
    if cfg.variant == "no-gn":
        return z_p, z_p, None, None, None
    if cfg.variant == "gnn-gn":
        z_n = restrict(propagate(adjs.negative, state, cfg, prefix="gnn_neg"))
    else:
        z_n = mlp_forward(state, cfg, training, rng, rows)
    alpha_p, alpha_n, z = attention_fuse(z_p, z_n, state, cfg, training, rng)
    return z, z_p, z_n, alpha_p, alpha_n


def save_checkpoint(path: str, state: ModelState, cfg: ModelConfig,
                    num_users: int, num_items: int) -> None:
    """Binary checkpoint: magic, JSON header, then little-endian f32 tensors."""
    header = {
        "config": asdict(cfg),
        "num_users": num_users,
        "num_items": num_items,
        "tensors": [{"name": n, "shape": list(state[n].shape)} for n in state.names()],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in state.names():
            fh.write(state[name].value.astype("<f4").tobytes())


def load_checkpoint(path: str):
    """Returns (state, cfg, num_users, num_items)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic {magic!r})")
        (size,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(size).decode("utf-8"))
        cfg = ModelConfig(**header["config"])
        params = {}
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape))
            raw = fh.read(count * 4)
            arr = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)
            params[entry["name"]] = Tensor(arr, requires_grad=True)
    return ModelState(params), cfg, header["num_users"], header["num_items"]
