"""Signed bipartite graph construction, sign partitioning, and normalized
sparse adjacencies for each GNN backbone.

Node indexing convention: users occupy 0..M-1 and items occupy M..M+N-1 in
the shared (M+N)-node space used by adjacencies and embeddings.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import as_ratings

BACKBONES = ("lightgcn", "lrgccf", "ngcf")


class DuplicateEdgeError(ValueError):
    pass


@dataclass(frozen=True)
class SignedBipartiteGraph:
    num_users: int
    num_items: int
    users: np.ndarray      # user index per edge
    items: np.ndarray      # item index per edge
    weights: np.ndarray    # signed weight per edge, never zero

    @property
    def num_edges(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class PartitionedGraphs:
    num_users: int
    num_items: int
    positive: tuple  # (users, items, weights) with weights > 0
    negative: tuple  # (users, items, weights) with weights < 0


@dataclass(frozen=True)
class NormalizedAdjacency:
    variant: str
    matrix: sp.csr_matrix     # (M+N) x (M+N) propagation coefficients
    degrees: np.ndarray       # neighbor count per node in the source edge set


def build_signed_graph(records, descriptor, w_o: float) -> SignedBipartiteGraph:
    """Sign each training rating against the threshold ``w_o``.

    Edge weight is ``rating - w_o``; exact-zero weights are dropped since
    they belong to neither sign partition. Repeated (user, item) pairs are
    rejected rather than deduplicated. Edges keep the ratings' order.
    """
    if w_o <= 0:
        raise ValueError("w_o must be positive")
    ratings = as_ratings(records)
    users, items, missing = ratings.dense(descriptor)
    keys = users * (int(items.max(initial=-1)) + 1) + items
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if len(repeats):  # the first row whose pair an earlier row holds
        row = repeats.min()
        raise DuplicateEdgeError(f"repeated interaction ({ratings.user_ids[ratings.users[row]]}, "
                                 f"{ratings.item_ids[ratings.items[row]]})")
    if missing is not None:
        raise missing
    weights = ratings.rating - w_o
    edges = weights != 0.0
    return SignedBipartiteGraph(descriptor.num_users, descriptor.num_items,
                                users[edges], items[edges], weights[edges])


def partition(g: SignedBipartiteGraph) -> PartitionedGraphs:
    """Route edges by sign; both node sets are retained in both graphs."""
    pos = g.weights > 0
    neg = g.weights < 0
    return PartitionedGraphs(
        g.num_users, g.num_items,
        positive=(g.users[pos], g.items[pos], g.weights[pos]),
        negative=(g.users[neg], g.items[neg], g.weights[neg]),
    )


def positive_subgraph(g: SignedBipartiteGraph) -> SignedBipartiteGraph:
    """Graph restricted to positive edges (baseline training mode)."""
    pos = g.weights > 0
    return SignedBipartiteGraph(g.num_users, g.num_items,
                                g.users[pos], g.items[pos], g.weights[pos])


def _edge_arrays(p: PartitionedGraphs, edge_set: str):
    if edge_set == "positive":
        return p.positive[0], p.positive[1]
    if edge_set == "negative":
        return p.negative[0], p.negative[1]
    if edge_set == "all":
        return (np.concatenate([p.positive[0], p.negative[0]]),
                np.concatenate([p.positive[1], p.negative[1]]))
    raise ValueError(f"unknown edge set {edge_set!r}")


def normalized_adjacency(p: PartitionedGraphs, variant: str,
                         edge_set: str = "positive") -> NormalizedAdjacency:
    """Build the symmetric degree-normalized propagation matrix.

    Coefficients per backbone:
      lightgcn / ngcf : 1 / sqrt(|N_x| |N_y|), neighbors only
      lrgccf          : 1 / (sqrt(|N_x|+1) sqrt(|N_y|+1)), neighbors and self

    Only the sign routing depends on edge weights; magnitudes never enter
    the coefficients.
    """
    if variant not in BACKBONES:
        raise ValueError(f"unknown backbone {variant!r}")
    n_nodes = p.num_users + p.num_items
    users, items = _edge_arrays(p, edge_set)
    rows = np.concatenate([users, items + p.num_users])
    cols = np.concatenate([items + p.num_users, users])
    degrees = np.bincount(rows, minlength=n_nodes).astype(np.int64)

    if variant == "lrgccf":
        norm = np.sqrt(degrees + 1.0)
        data = 1.0 / (norm[rows] * norm[cols])
        diag_rows = np.arange(n_nodes)
        rows = np.concatenate([rows, diag_rows])
        cols = np.concatenate([cols, diag_rows])
        data = np.concatenate([data, 1.0 / (norm * norm)])
    else:
        norm = np.sqrt(np.maximum(degrees, 1))  # isolated nodes have no entries
        data = 1.0 / (norm[rows] * norm[cols])

    matrix = sp.csr_matrix((data, (rows, cols)), shape=(n_nodes, n_nodes))
    if variant == "lightgcn":
        # the fused propagation's backward uses the matrix as its own transpose
        assert (matrix != matrix.T).nnz == 0, "lightgcn adjacency is not symmetric"
    return NormalizedAdjacency(variant, matrix, degrees)

