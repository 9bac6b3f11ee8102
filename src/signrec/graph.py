"""Signed bipartite graph construction, its partition into a positive and a
negative graph, and normalized sparse adjacencies for each GNN backbone.

Node indexing convention: users occupy 0..M-1 and items occupy M..M+N-1 in
the shared (M+N)-node space used by adjacencies and embeddings.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# build_signed_graph raises DuplicateEdgeError, so it is importable from here too
from .data import DuplicateEdgeError, Ratings, reject_repeated_pairs

BACKBONES = ("lightgcn", "lrgccf", "ngcf")


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
class NormalizedAdjacency:
    variant: str
    matrix: sp.csr_matrix     # (M+N) x (M+N) propagation coefficients


def build_signed_graph(ratings, descriptor, w_o: float) -> SignedBipartiteGraph:
    """Sign each training rating against the threshold ``w_o``.

    ``ratings`` is :class:`Ratings` or an iterable of rating records.
    Edge weight is ``rating - w_o``; exact-zero weights are dropped since
    they belong to neither sign partition. Repeated (user, item) pairs are
    rejected rather than deduplicated. Edges keep the ratings' order.
    """
    if w_o <= 0:
        raise ValueError("w_o must be positive")
    ratings = ratings if isinstance(ratings, Ratings) else Ratings.from_records(ratings)
    users, items, missing = ratings.dense(descriptor)
    reject_repeated_pairs(ratings, users, items)
    if missing is not None:
        raise missing
    weights = ratings.rating - w_o
    edges = weights != 0.0
    return SignedBipartiteGraph(descriptor.num_users, descriptor.num_items,
                                users[edges], items[edges], weights[edges])


def partition(g: SignedBipartiteGraph) -> tuple[SignedBipartiteGraph, SignedBipartiteGraph]:
    """Split ``g`` by edge sign into ``(positive, negative)`` graphs.

    Both keep every node of ``g``, and each keeps its edges in ``g``'s order.
    """
    return tuple(SignedBipartiteGraph(g.num_users, g.num_items,
                                      g.users[m], g.items[m], g.weights[m])
                 for m in (g.weights > 0, g.weights < 0))


def normalized_adjacency(g: SignedBipartiteGraph, variant: str) -> NormalizedAdjacency:
    """Build the symmetric degree-normalized propagation matrix over every
    edge of ``g``.

    Coefficients per backbone:
      lightgcn / ngcf : 1 / sqrt(|N_x| |N_y|), neighbors only
      lrgccf          : 1 / (sqrt(|N_x|+1) sqrt(|N_y|+1)), neighbors and self

    Edge weights never enter the coefficients: partition ``g`` first to
    propagate over one sign. The CSR conversion sums and sorts the entries,
    so the matrix does not depend on the order of ``g``'s edges.
    """
    if variant not in BACKBONES:
        raise ValueError(f"unknown backbone {variant!r}")
    n_nodes = g.num_users + g.num_items
    rows = np.concatenate([g.users, g.items + g.num_users])
    cols = np.concatenate([g.items + g.num_users, g.users])
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
    return NormalizedAdjacency(variant, matrix)

