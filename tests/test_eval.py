import math

import numpy as np
import pytest

from signrec.data import RatingRecord, Ratings
from signrec.evaluate import (
    BLOCK_USERS, CHUNK_ITEMS, aggregate_fold_reports, evaluate, format_report, ground_truth,
    topk_recommend, train_interactions, write_report_csv,
)

from helpers import (
    brute_force_metrics, reference_ground_truth, reference_topk, reference_train_interactions,
    toy_descriptor,
)


def embed(user_rows, item_rows):
    return np.vstack([np.asarray(user_rows, float), np.asarray(item_rows, float)])


def metrics_at(ranking, truth, k):
    """evaluate's (P@k, R@k, nDCG@k) for one user who ranks ``ranking`` first.

    1-D embeddings: the user is [1] and item ``ranking[i]`` scores
    len(ranking) - i; every other item scores 0 and ranks after them.
    """
    items = np.zeros(max(*ranking, *truth) + 1)
    items[list(ranking)] = np.arange(len(ranking), 0, -1)
    t = evaluate(embed([[1.0]], items[:, None]), 1, {0: list(truth)}, {}, ks=[k]).metrics[k]
    return t.precision, t.recall, t.ndcg


def test_topk_orders_by_score():
    Z = embed([[1.0], [-1.0]], [[2.0], [5.0], [1.0]])
    assert topk_recommend(Z, 2, [0, 1], 2, {}).tolist() == [[1, 0], [2, 0]]


def test_topk_exclusion_forces_singleton():
    Z = embed([[1.0]], [[2.0], [5.0], [1.0]])
    assert topk_recommend(Z, 1, [0], 3, {0: np.array([0, 1])}).tolist() == [[2, -1, -1]]


def test_topk_tie_break_ascending_index():
    Z = embed([[1.0]], [[3.0], [3.0], [3.0]])
    assert topk_recommend(Z, 1, [0], 3, {}).tolist() == [[0, 1, 2]]


def test_topk_fewer_candidates_than_k():
    Z = embed([[1.0], [1.0]], [[2.0], [1.0]])
    assert topk_recommend(Z, 2, [0, 1], 5, {0: [0]}).tolist() == [
        [1, -1, -1, -1, -1], [0, 1, -1, -1, -1]]
    with pytest.raises(ValueError):
        topk_recommend(Z, 2, [0], 0, {})


def test_topk_matches_full_sort_with_ties():
    # Embeddings in {-1, 0, 1} make exact ties common, including ties that
    # straddle the K-th place. K runs from 1 to past the item count; some
    # users have every item excluded and others fewer candidates than K.
    rng = np.random.default_rng(4)
    for trial in range(60):
        num_users, num_items = int(rng.integers(1, 90)), int(rng.integers(1, 40))
        dim = int(rng.integers(1, 4))
        Z = rng.integers(-1, 2, size=(num_users + num_items, dim)).astype(float)
        exclude = {}
        for u in range(num_users):
            size = int(rng.choice([0, num_items, rng.integers(0, num_items + 1)]))
            exclude[u] = rng.choice(num_items, size, replace=False)
        users = rng.permutation(num_users).tolist()
        for k in sorted({1, 3, 20, num_items, num_items + 5}):
            assert np.array_equal(topk_recommend(Z, num_users, users, k, exclude),
                                  reference_topk(Z, num_users, users, k, exclude)), (trial, k)


def test_topk_matches_full_sort_real_scores():
    # rows of 300 items with distinct scores, longer than the tie test's
    rng = np.random.default_rng(5)
    num_users, num_items = 70, 300
    Z = rng.standard_normal((num_users + num_items, 8))
    exclude = {u: rng.choice(num_items, int(rng.integers(0, 60)), replace=False)
               for u in range(num_users)}
    for k in (1, 10, 20):
        assert np.array_equal(topk_recommend(Z, num_users, range(num_users), k, exclude),
                              reference_topk(Z, num_users, range(num_users), k, exclude))



def test_topk_chunk_bound_matches_full_sort():
    # 2,000+ items, so the chunk bound engages up to K = 100; 2,003 and 2,047
    # items leave tail items past the chunk view. Embeddings in {-1, 0, 1}
    # make ties straddle the K-th place; some users have every item excluded,
    # others fewer candidates than K or only a tenth of the items left.
    rng = np.random.default_rng(6)
    num_users, ks = 40, [1, 10, 20, 100]
    for num_items, dim in ((2000, 16), (2003, 3), (2047, 8)):
        assert num_items // CHUNK_ITEMS >= 2 * ks[-1]
        Z = rng.integers(-1, 2, size=(num_users + num_items, dim)).astype(float)
        exclude = {}
        for u in range(num_users):
            size = int(rng.choice([0, num_items, num_items - 15, num_items * 9 // 10,
                                   rng.integers(0, num_items + 1)]))
            exclude[u] = rng.choice(num_items, size, replace=False)
        users = rng.permutation(num_users).tolist()
        # a full ranking's first k columns are the reference at every k
        full = reference_topk(Z, num_users, users, num_items + 5, exclude)
        for k in [*ks, num_items + 5]:
            assert np.array_equal(topk_recommend(Z, num_users, users, k, exclude),
                                  full[:, :k]), (num_items, k)


def test_topk_ml1m_shaped_block_matches_stable_argsort():
    # one ranking block at the ML-1M shape: 128 users, 3,700 items, dim 64
    rng = np.random.default_rng(7)
    num_users, num_items = 128, 3700
    Z = rng.standard_normal((num_users + num_items, 64))
    exclude = {u: rng.choice(num_items, int(rng.integers(0, 400)), replace=False)
               for u in range(num_users)}
    users = rng.permutation(num_users).tolist()
    scores = Z[users] @ Z[num_users:].T
    for row, u in enumerate(users):
        scores[row, exclude[u]] = -np.inf
    ranked = np.argsort(-scores, axis=1, kind="stable")
    out = np.full((BLOCK_USERS + 7, num_items), np.nan)  # a buffer longer than the block
    for k in (1, 5, 10, 15, 20):
        assert np.array_equal(topk_recommend(Z, num_users, users, k, exclude), ranked[:, :k])
        assert np.array_equal(topk_recommend(Z, num_users, users, k, exclude, out),
                              ranked[:, :k])
    # the product written into the buffer equals the fresh one bit for bit
    assert np.array_equal(out[:num_users], scores)

def test_precision_recall_arithmetic():
    p, r, _ = metrics_at(range(10), {0, 3, 7, 90, 91}, 10)  # 3 of 5 in top-10
    assert p == pytest.approx(0.3) and r == pytest.approx(0.6)


def test_precision_recall_perfect_and_disjoint():
    assert metrics_at([1, 2], {1, 2}, 2)[:2] == (1.0, 1.0)
    assert metrics_at([1, 2], {3}, 2)[:2] == (0.0, 0.0)


def test_ndcg_all_relevant_is_one():
    assert metrics_at([1, 2, 3], {1, 2, 3}, 3)[2] == pytest.approx(1.0)


def test_ndcg_hand_computed_pattern():
    # relevance [1,0,1], |truth|=2: DCG = 1 + 0.5, IDCG = 1 + 1/log2(3)
    value = metrics_at([5, 6, 7], {5, 7}, 3)[2]
    idcg = 1 + 1 / math.log2(3)
    assert idcg == pytest.approx(1.63093, abs=1e-5)
    assert value == pytest.approx(1.5 / idcg)
    assert value == pytest.approx(0.91972, abs=1e-5)


def test_ndcg_no_hits_is_zero():
    assert metrics_at([1, 2], {9}, 2)[2] == 0.0


def test_ndcg_invariant_to_irrelevant_permutations():
    assert metrics_at([5, 1, 2, 7], {5, 7}, 4)[2] == metrics_at([5, 2, 1, 7], {5, 7}, 4)[2]


def test_ground_truth_keeps_only_high_ratings():
    desc = toy_descriptor(2, 3)
    records = [RatingRecord("u0", "i0", 4.0), RatingRecord("u0", "i1", 3.0),
               RatingRecord("u1", "i2", 5.0)]
    truth = ground_truth(Ratings.from_records(records), desc)
    assert [(u, a.tolist(), a.dtype) for u, a in truth.items()] == [
        (0, [0], np.int64), (1, [2], np.int64)]



def test_truth_and_exclusion_are_int64_arrays_in_first_appearance_order():
    # users appear as u2, u0, u3 (u1 has no rating); u2 rates i4 twice
    desc = toy_descriptor(4, 5)
    records = [RatingRecord("u2", "i4", 5.0), RatingRecord("u0", "i3", 4.0),
               RatingRecord("u2", "i1", 2.0), RatingRecord("u3", "i0", 4.5),
               RatingRecord("u0", "i1", 5.0), RatingRecord("u2", "i4", 4.0)]
    for fn, ref in ((ground_truth, reference_ground_truth),
                    (train_interactions, reference_train_interactions)):
        got, want = fn(Ratings.from_records(records), desc), ref(records, desc)
        assert list(got) == list(want) == [2, 0, 3]
        for u, items in got.items():
            assert items.dtype == np.int64 and items.ndim == 1
            assert items.tolist() == sorted(want[u])


def test_evaluate_takes_lists_and_arrays_alike():
    # 150 users span two ranking blocks; some truth and exclusion lists are empty
    rng = np.random.default_rng(8)
    num_users, num_items, ks = 150, 30, [1, 5]
    Z = rng.integers(-2, 3, size=(num_users + num_items, 3)).astype(float)
    truth = {u: rng.choice(num_items, int(rng.integers(0, 4)), replace=False)
             for u in range(num_users)}
    exclude = {u: np.setdiff1d(rng.choice(num_items, int(rng.integers(0, 8)), replace=False),
                               truth[u])
               for u in range(num_users)}
    assert any(len(a) == 0 for a in truth.values()) and any(len(a) == 0 for a in exclude.values())

    def lists(mapping):
        return {u: a.tolist() for u, a in mapping.items()}

    report = evaluate(Z, num_users, truth, exclude, ks, groups=True)
    assert evaluate(Z, num_users, lists(truth), lists(exclude), ks, groups=True) == report
    # every exclusion list empty, as lists, equals no exclusions at all
    empty = {u: [] for u in range(num_users)}
    assert evaluate(Z, num_users, lists(truth), empty, ks, groups=True) \
        == evaluate(Z, num_users, truth, {}, ks, groups=True)

def test_evaluate_single_user_mean():
    Z = embed([[1.0, 0.0]], [[1.0, 0.0], [0.9, 0.0], [0.0, 1.0]])
    report = evaluate(Z, 1, {0: np.array([0])}, {}, ks=[1])
    assert report.metrics[1].precision == pytest.approx(1.0)
    assert report.evaluated_users == 1


def test_evaluate_two_user_mean():
    # user0 hits its truth at rank 1; user1 misses
    Z = embed([[1.0, 0.0], [0.0, 1.0]],
              [[1.0, 0.0], [0.0, 0.9], [0.0, 1.0]])
    report = evaluate(Z, 2, {0: [0], 1: [1]}, {}, ks=[1])
    assert report.metrics[1].recall == pytest.approx(0.5)


def test_evaluate_empty_truth_users_excluded():
    Z = embed([[1.0], [1.0]], [[1.0], [2.0]])
    report = evaluate(Z, 2, {0: [0], 1: []}, {}, ks=[1])
    assert report.evaluated_users == 1


def test_evaluate_rejects_non_finite_embeddings():
    Z = embed([[1.0], [2.0]], [[1.0], [np.inf], [np.nan]])
    with pytest.raises(ValueError, match="in 2 row"):
        evaluate(Z, 2, {0: [0]}, {}, ks=[1])


def test_evaluate_errors_when_no_users():
    Z = embed([[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        evaluate(Z, 1, {0: []}, {}, ks=[1])


def test_group_reports_partition_users():
    rng = np.random.default_rng(0)
    num_users, num_items = 30, 40
    Z = np.vstack([rng.standard_normal((num_users, 4)), rng.standard_normal((num_items, 4))])
    truth = {u: rng.choice(num_items, 3, replace=False) for u in range(num_users)}
    # spread training-interaction counts across all three sparsity bins
    exclude = {u: rng.choice(num_items, min(int(rng.integers(0, 60)), num_items), replace=False)
               for u in range(num_users)}
    report = evaluate(Z, num_users, truth, exclude, ks=[5], groups=True)
    assert sum(sub.evaluated_users for sub in report.groups.values()) == report.evaluated_users


def test_cross_metric_consistency_and_range():
    rng = np.random.default_rng(1)
    for _ in range(100):
        num_users, num_items = 4, int(rng.integers(5, 15))
        Z = np.vstack([rng.standard_normal((num_users, 3)),
                       rng.standard_normal((num_items, 3))])
        k = int(rng.integers(1, num_items))
        recs = topk_recommend(Z, num_users, range(num_users), k, {})
        for u in range(num_users):
            truth = set(rng.choice(num_items, int(rng.integers(1, num_items)),
                                   replace=False).tolist())
            t = evaluate(Z, num_users, {u: list(truth)}, {}, ks=[k]).metrics[k]
            hits = len(truth.intersection(recs[u].tolist()))
            assert t.precision * k == pytest.approx(hits)
            assert t.recall * len(truth) == pytest.approx(hits)
            assert 0.0 <= t.precision <= 1.0 and 0.0 <= t.recall <= 1.0 and 0.0 <= t.ndcg <= 1.0


def test_evaluate_matches_brute_force_oracle():
    rng = np.random.default_rng(2)
    for _ in range(500):
        num_users = int(rng.integers(2, 6))
        num_items = int(rng.integers(4, 12))
        Z = np.vstack([rng.standard_normal((num_users, 3)),
                       rng.standard_normal((num_items, 3))])
        k = int(rng.integers(1, 6))
        truth, exclude = {}, {}
        for u in range(num_users):
            truth[u] = rng.choice(num_items, int(rng.integers(1, 4)), replace=False)
            exclude[u] = np.setdiff1d(rng.choice(num_items, int(rng.integers(0, 3)), replace=False),
                                      truth[u])
        report = evaluate(Z, num_users, truth, exclude, ks=[k])
        expected = [brute_force_metrics(Z, num_users, u, truth[u], exclude[u], k)
                    for u in truth]
        assert report.metrics[k].precision == pytest.approx(
            np.mean([e[0] for e in expected]), abs=1e-12)
        assert report.metrics[k].recall == pytest.approx(
            np.mean([e[1] for e in expected]), abs=1e-12)
        assert report.metrics[k].ndcg == pytest.approx(
            np.mean([e[2] for e in expected]), abs=1e-12)


def test_evaluate_blocks_match_brute_force_oracle():
    # 200 users span several ranking blocks. Small-integer embeddings make
    # exact score ties common, so the lower-index tie-break is checked too;
    # K = 40 exceeds the 30 items, and large exclusion sets leave some users
    # fewer than K candidates; truth may hold excluded items, which must
    # never count as hits. Users with empty truth are left out.
    rng = np.random.default_rng(3)
    num_users, num_items, ks = 200, 30, [3, 10, 40]
    Z = rng.integers(-2, 3, size=(num_users + num_items, 3)).astype(float)
    truth, exclude = {}, {}
    for u in rng.permutation(num_users).tolist():
        exclude[u] = rng.choice(num_items, int(rng.integers(0, num_items)), replace=False)
        truth[u] = rng.choice(num_items, int(rng.integers(0, 5)), replace=False)
    report = evaluate(Z, num_users, truth, exclude, ks=ks, groups=True)
    evaluated = [u for u in truth if len(truth[u])]
    assert report.evaluated_users == len(evaluated) < num_users

    def check(rep, users):
        assert rep.evaluated_users == len(users)
        for k in ks:
            expected = [brute_force_metrics(Z, num_users, u, truth[u], exclude[u], k)
                        for u in users]
            got = rep.metrics[k]
            assert got.precision == sum(e[0] for e in expected) / len(users)
            assert got.recall == sum(e[1] for e in expected) / len(users)
            assert abs(got.ndcg - sum(e[2] for e in expected) / len(users)) < 1e-12

    check(report, evaluated)
    check(report.groups["[0,20)"], [u for u in evaluated if len(exclude[u]) < 20])
    check(report.groups["[20,50)"], [u for u in evaluated if len(exclude[u]) >= 20])
    assert report.groups["[50,inf)"].evaluated_users == 0


def test_report_csv_and_table(tmp_path):
    Z = embed([[1.0]], [[1.0], [2.0]])
    report = evaluate(Z, 1, {0: [1]}, {}, ks=[1, 2], groups=True)
    path = tmp_path / "report.csv"
    write_report_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "K,metric,value,group"
    assert any(line.startswith("1,ndcg,") for line in lines)
    table = format_report(report)
    assert "nDCG@K" in table


def test_aggregate_fold_reports():
    Z = embed([[1.0]], [[1.0], [2.0]])
    a = evaluate(Z, 1, {0: [1]}, {}, ks=[1])
    b = evaluate(Z, 1, {0: [0]}, {}, ks=[1])
    summary = aggregate_fold_reports([a, b])
    mean, std = summary[(1, "precision")]
    assert mean == pytest.approx(0.5) and std == pytest.approx(0.5)


def test_train_interactions_both_signs():
    desc = toy_descriptor(1, 3)
    records = [RatingRecord("u0", "i0", 5.0), RatingRecord("u0", "i1", 1.0)]
    seen = train_interactions(Ratings.from_records(records), desc)
    assert [(u, a.tolist(), a.dtype) for u, a in seen.items()] == [(0, [0, 1], np.int64)]
