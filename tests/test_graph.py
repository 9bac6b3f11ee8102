import numpy as np
import pytest

from signrec import diagnostics
from signrec.data import RatingRecord, Ratings, build_descriptor
from signrec.graph import (
    DuplicateEdgeError, SignedBipartiteGraph, build_signed_graph, normalized_adjacency, partition,
)
from signrec.rng import substream
from signrec.train import NegativeSampler

from helpers import dense_adjacency, random_records, toy_descriptor


def _graph(records, num_users=4, num_items=4, w_o=3.5):
    return build_signed_graph(records, toy_descriptor(num_users, num_items), w_o)


def test_edge_weights_signed_against_threshold():
    g = _graph([RatingRecord("u0", "i0", 5.0), RatingRecord("u1", "i1", 1.0)])
    assert g.weights.tolist() == [1.5, -2.5]


def test_zero_weight_edge_dropped():
    g = _graph([RatingRecord("u0", "i0", 3.5)])
    assert g.num_edges == 0


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        _graph([RatingRecord("u0", "i0", 5.0), RatingRecord("u0", "i0", 4.0)])


def test_nonpositive_threshold_rejected():
    with pytest.raises(ValueError):
        _graph([RatingRecord("u0", "i0", 5.0)], w_o=0.0)


def test_partition_routes_by_sign():
    g = _graph([RatingRecord("u0", "i0", 5.0), RatingRecord("u0", "i1", 1.0),
                RatingRecord("u1", "i0", 4.0)])
    positive, negative = partition(g)
    assert positive.weights.tolist() == [1.5, 0.5]
    assert (positive.users.tolist(), positive.items.tolist()) == ([0, 1], [0, 0])
    assert negative.weights.tolist() == [-2.5]
    assert (negative.users.tolist(), negative.items.tolist()) == ([0], [1])
    for h in (positive, negative):
        assert (h.num_users, h.num_items) == (g.num_users, g.num_items)


def test_partition_all_positive_degenerate():
    g = _graph([RatingRecord("u0", "i0", 5.0), RatingRecord("u1", "i1", 4.0)])
    positive, negative = partition(g)
    assert negative.num_edges == 0
    assert positive.num_edges == g.num_edges


def test_partition_counts_fuzzed():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        num_users = int(rng.integers(2, 9))
        num_items = int(rng.integers(2, 9))
        count = int(rng.integers(1, num_users * num_items + 1))
        records = random_records(rng, num_users, num_items, count)
        g = build_signed_graph(records, toy_descriptor(num_users, num_items), 3.5)
        positive, negative = partition(g)
        assert positive.num_edges + negative.num_edges == g.num_edges
        assert (positive.weights > 0).all()
        assert (negative.weights < 0).all()
        # each graph keeps its edges in g's order
        for h, sign in ((positive, 1), (negative, -1)):
            keep = np.sign(g.weights) == sign
            assert np.array_equal(h.users, g.users[keep])
            assert np.array_equal(h.items, g.items[keep])
            assert np.array_equal(h.weights, g.weights[keep])


def test_positive_subgraph_keeps_only_positive_edges():
    g = _graph([RatingRecord("u0", "i0", 5.0), RatingRecord("u0", "i1", 1.0)])
    sub = partition(g)[0]
    assert sub.num_edges == 1 and (sub.weights > 0).all()
    assert (sub.num_users, sub.num_items) == (g.num_users, g.num_items)


def test_lightgcn_coefficient_arithmetic():
    # user degree 4 connected to an item of degree 1 -> 1/(2*1) = 0.5
    records = [RatingRecord("u0", f"i{v}", 5.0) for v in range(4)]
    g = _graph(records, num_users=1, num_items=4)
    adj = normalized_adjacency(g, "lightgcn")
    assert adj.matrix[0, 1] == pytest.approx(0.5)  # node 1 = item i0
    assert np.diff(adj.matrix.indptr)[:2].tolist() == [4, 1]  # stored entries = degrees


def test_lrgccf_coefficient_and_self_term():
    # both endpoints with 3 neighbors -> 1/(sqrt(4)*sqrt(4)) = 0.25 for the
    # cross entry and the same for the self entry
    records = [RatingRecord(f"u{u}", f"i{v}", 5.0) for u in range(3) for v in range(3)]
    g = _graph(records, num_users=3, num_items=3)
    adj = normalized_adjacency(g, "lrgccf")
    assert adj.matrix[0, 3] == pytest.approx(0.25)
    assert adj.matrix[0, 0] == pytest.approx(0.25)


def test_lrgccf_isolated_node_self_coefficient_is_one():
    g = _graph([RatingRecord("u0", "i0", 5.0)], num_users=2, num_items=1)
    adj = normalized_adjacency(g, "lrgccf")
    assert adj.matrix[1, 1] == pytest.approx(1.0)  # isolated user u1


def test_lightgcn_isolated_node_has_empty_row():
    g = _graph([RatingRecord("u0", "i0", 5.0)], num_users=2, num_items=1)
    adj = normalized_adjacency(g, "lightgcn")
    assert adj.matrix[1].nnz == 0


def test_adjacency_symmetry_lightgcn():
    rng = np.random.default_rng(7)
    records = random_records(rng, 6, 6, 20)
    g = build_signed_graph(records, toy_descriptor(6, 6), 3.5)
    adj = normalized_adjacency(partition(g)[0], "lightgcn")
    dense = adj.matrix.toarray()
    assert np.array_equal(dense, dense.T)


@pytest.mark.parametrize("variant", ["lightgcn", "lrgccf", "ngcf"])
def test_adjacency_matches_dense_oracle(variant):
    rng = np.random.default_rng(11)
    for _ in range(20):
        records = random_records(rng, 8, 8, int(rng.integers(4, 40)))
        g = build_signed_graph(records, toy_descriptor(8, 8), 3.5)
        for h in (g, *partition(g)):
            adj = normalized_adjacency(h, variant)
            expected = dense_adjacency(h, variant)
            assert np.allclose(adj.matrix.toarray(), expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("variant", ["lightgcn", "lrgccf", "ngcf"])
def test_adjacency_does_not_depend_on_edge_order(variant):
    """The CSR conversion sums and sorts the entries: the whole graph's
    matrix equals, byte for byte, the one over its positive edges followed
    by its negative edges, the order the sign partition puts them in."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        records = random_records(rng, 9, 7, int(rng.integers(4, 50)))
        g = build_signed_graph(records, toy_descriptor(9, 7), 3.5)
        positive, negative = partition(g)
        joined = SignedBipartiteGraph(g.num_users, g.num_items,
                                      *(np.concatenate([getattr(positive, f), getattr(negative, f)])
                                        for f in ("users", "items", "weights")))
        got, want = normalized_adjacency(g, variant), normalized_adjacency(joined, variant)
        for field in ("indptr", "indices", "data"):
            a, b = getattr(got.matrix, field), getattr(want.matrix, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        degrees = np.bincount(np.concatenate([g.users, g.items + g.num_users]),
                              minlength=g.num_users + g.num_items)
        assert np.array_equal(np.diff(got.matrix.indptr), degrees + (variant == "lrgccf"))


def test_degree_table_matches_brute_force():
    rng = np.random.default_rng(3)
    records = random_records(rng, 5, 7, 20)
    g = build_signed_graph(records, toy_descriptor(5, 7), 3.5)
    positive = partition(g)[0]
    counts = np.zeros(12, dtype=int)
    for u, v in zip(positive.users, positive.items):
        counts[u] += 1
        counts[5 + v] += 1
    # a row stores one entry per neighbor, and LR-GCCF's one more for the self term
    for variant, extra in (("lightgcn", 0), ("ngcf", 0), ("lrgccf", 1)):
        adj = normalized_adjacency(positive, variant)
        assert np.array_equal(np.diff(adj.matrix.indptr), counts + extra), variant



def assert_same_graph(g, h):
    assert (g.num_users, g.num_items) == (h.num_users, h.num_items)
    for name in ("users", "items", "weights"):
        a, b = getattr(g, name), getattr(h, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_diagnose_graphs_equal_the_graphs_of_their_records(monkeypatch):
    # each check's ratings as records, drawn from its random stream in its order
    rng = substream(7, "tiny-instance")
    records, seen = [], set()
    for _ in range(5 * 6 // 2):
        u, v = int(rng.integers(5)), int(rng.integers(6))
        if (u, v) not in seen:
            seen.add((u, v))
            records.append(RatingRecord(f"u{u}", f"i{v}", float(rng.choice([1, 2, 4, 5]))))
    assert_same_graph(diagnostics.tiny_instance(), _graph(records, 5, 6))

    records = [RatingRecord("probe", "a", 5.0), RatingRecord("probe", "b", 1.0),
               RatingRecord("x0", "lo", 5.0)] + [RatingRecord(f"y{k}", "hi", 5.0)
                                                 for k in range(16)]
    expected = [build_signed_graph(records, build_descriptor(Ratings.from_records(records)), 3.5)]
    rng = substream(13, "partition-check")
    for _ in range(200):
        num_users, num_items = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        count = int(rng.integers(1, num_users * num_items + 1))
        pairs = rng.choice(num_users * num_items, size=count, replace=False)
        records = [RatingRecord(f"u{p // num_items}", f"i{p % num_items}",
                                float(rng.choice([1, 2, 3, 4, 5]))) for p in pairs]
        expected.append(_graph(records, num_users, num_items))

    built = []
    monkeypatch.setattr(diagnostics, "NegativeSampler",
                        lambda g, n_neg: built.append(g) or NegativeSampler(g, n_neg))
    monkeypatch.setattr(diagnostics, "partition", lambda g: built.append(g) or partition(g))
    diagnostics.sampler_tv_distance(draws=100)
    assert diagnostics.check_partition().passed
    assert len(built) == len(expected)
    for g, h in zip(built, expected):
        assert_same_graph(g, h)
