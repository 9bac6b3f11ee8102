import math

import numpy as np
import pytest

from signrec.data import RatingRecord
from signrec.evaluate import (
    aggregate_fold_reports, evaluate, format_report, ground_truth, topk_recommend,
    train_interactions, write_report_csv,
)

from helpers import brute_force_metrics, toy_descriptor


def embed(user_rows, item_rows):
    return np.vstack([np.asarray(user_rows, float), np.asarray(item_rows, float)])


def metrics_at(ranking, truth, k):
    """evaluate's (P@k, R@k, nDCG@k) for one user who ranks ``ranking`` first.

    1-D embeddings: the user is [1] and item ``ranking[i]`` scores
    len(ranking) - i; every other item scores 0 and ranks after them.
    """
    items = np.zeros(max(*ranking, *truth) + 1)
    items[list(ranking)] = np.arange(len(ranking), 0, -1)
    t = evaluate(embed([[1.0]], items[:, None]), 1, {0: set(truth)}, {}, ks=[k]).metrics[k]
    return t.precision, t.recall, t.ndcg


def test_topk_orders_by_score():
    Z = embed([[1.0], [-1.0]], [[2.0], [5.0], [1.0]])
    assert topk_recommend(Z, 2, [0, 1], 2, {}).tolist() == [[1, 0], [2, 0]]


def test_topk_exclusion_forces_singleton():
    Z = embed([[1.0]], [[2.0], [5.0], [1.0]])
    assert topk_recommend(Z, 1, [0], 3, {0: {0, 1}}).tolist() == [[2, -1, -1]]


def test_topk_tie_break_ascending_index():
    Z = embed([[1.0]], [[3.0], [3.0], [3.0]])
    assert topk_recommend(Z, 1, [0], 3, {}).tolist() == [[0, 1, 2]]


def test_topk_fewer_candidates_than_k():
    Z = embed([[1.0], [1.0]], [[2.0], [1.0]])
    assert topk_recommend(Z, 2, [0, 1], 5, {0: {0}}).tolist() == [
        [1, -1, -1, -1, -1], [0, 1, -1, -1, -1]]
    with pytest.raises(ValueError):
        topk_recommend(Z, 2, [0], 0, {})


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
    truth = ground_truth(records, desc)
    assert truth == {0: {0}, 1: {2}}


def test_evaluate_single_user_mean():
    Z = embed([[1.0, 0.0]], [[1.0, 0.0], [0.9, 0.0], [0.0, 1.0]])
    report = evaluate(Z, 1, {0: {0}}, {}, ks=[1])
    assert report.metrics[1].precision == pytest.approx(1.0)
    assert report.evaluated_users == 1


def test_evaluate_two_user_mean():
    # user0 hits its truth at rank 1; user1 misses
    Z = embed([[1.0, 0.0], [0.0, 1.0]],
              [[1.0, 0.0], [0.0, 0.9], [0.0, 1.0]])
    report = evaluate(Z, 2, {0: {0}, 1: {1}}, {}, ks=[1])
    assert report.metrics[1].recall == pytest.approx(0.5)


def test_evaluate_empty_truth_users_excluded():
    Z = embed([[1.0], [1.0]], [[1.0], [2.0]])
    report = evaluate(Z, 2, {0: {0}, 1: set()}, {}, ks=[1])
    assert report.evaluated_users == 1


def test_evaluate_errors_when_no_users():
    Z = embed([[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        evaluate(Z, 1, {0: set()}, {}, ks=[1])


def test_group_reports_partition_users():
    rng = np.random.default_rng(0)
    num_users, num_items = 30, 40
    Z = np.vstack([rng.standard_normal((num_users, 4)), rng.standard_normal((num_items, 4))])
    truth = {u: set(rng.choice(num_items, 3, replace=False).tolist()) for u in range(num_users)}
    # spread training-interaction counts across all three sparsity bins
    exclude = {u: set(rng.choice(num_items, min(int(rng.integers(0, 60)), num_items),
                                 replace=False).tolist())
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
            t = evaluate(Z, num_users, {u: truth}, {}, ks=[k]).metrics[k]
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
            truth[u] = set(rng.choice(num_items, int(rng.integers(1, 4)), replace=False).tolist())
            exclude[u] = set(rng.choice(num_items, int(rng.integers(0, 3)), replace=False).tolist())
            exclude[u] -= truth[u]
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
        exclude[u] = set(rng.choice(num_items, int(rng.integers(0, num_items)),
                                    replace=False).tolist())
        truth[u] = set(rng.choice(num_items, int(rng.integers(0, 5)), replace=False).tolist())
    report = evaluate(Z, num_users, truth, exclude, ks=ks, groups=True)
    evaluated = [u for u in truth if truth[u]]
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
    report = evaluate(Z, 1, {0: {1}}, {}, ks=[1, 2], groups=True)
    path = tmp_path / "report.csv"
    write_report_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "K,metric,value,group"
    assert any(line.startswith("1,ndcg,") for line in lines)
    table = format_report(report)
    assert "nDCG@K" in table


def test_aggregate_fold_reports():
    Z = embed([[1.0]], [[1.0], [2.0]])
    a = evaluate(Z, 1, {0: {1}}, {}, ks=[1])
    b = evaluate(Z, 1, {0: {0}}, {}, ks=[1])
    summary = aggregate_fold_reports([a, b])
    mean, std = summary[(1, "precision")]
    assert mean == pytest.approx(0.5) and std == pytest.approx(0.5)


def test_train_interactions_both_signs():
    desc = toy_descriptor(1, 3)
    records = [RatingRecord("u0", "i0", 5.0), RatingRecord("u0", "i1", 1.0)]
    assert train_interactions(records, desc) == {0: {0, 1}}
