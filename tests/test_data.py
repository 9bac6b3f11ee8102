import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signrec.data import (
    ParseError, RatingRecord, ValidationError, build_descriptor,
    filter_min_interactions, kfold_split, parse_ratings,
    read_fold_manifests, write_fold_manifests,
)


def test_parse_tsv_line():
    records = parse_ratings(b"7\t42\t5\t0\n")
    assert records == [RatingRecord("7", "42", 5.0, 0)]


def test_parse_movielens_dat_line():
    # "::"-separated, per the public ML-1M distribution
    records = parse_ratings(b"1::1193::5::978300760\n", format="movielens-dat")
    assert records == [RatingRecord("1", "1193", 5.0, 978300760)]


def test_parse_skips_comments_and_blank_lines():
    records = parse_ratings(b"# header\n\n1\t2\t3\t4\n")
    assert len(records) == 1


def test_parse_preserves_order():
    records = parse_ratings(b"1\t1\t5\t0\n2\t2\t4\t0\n3\t3\t3\t0\n")
    assert [r.user_id for r in records] == ["1", "2", "3"]


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_ratings(b"1\t2\t5\t0\nbroken line\n")
    assert exc.value.line_no == 2


def test_rating_outside_scale_rejected():
    with pytest.raises(ValidationError):
        parse_ratings(b"1\t2\t9\t0\n")


def test_parse_fractional_rating_and_timestamp():
    records = parse_ratings(b"1\t2\t5\t100\n3\t4\t2.5\t0\n")
    assert records == [RatingRecord("1", "2", 5.0, 100), RatingRecord("3", "4", 2.5, 0)]


def test_filter_threshold_boundary():
    records = [RatingRecord("u", f"i{k}", 4.0) for k in range(19)]
    # every item also has degree 1 < 20, but user-side alone already drops all
    assert filter_min_interactions(records, 20) == []


def test_filter_threshold_zero_identity():
    records = [RatingRecord("u", "i", 4.0)]
    assert filter_min_interactions(records, 0) == records


def brute_force_filter(records, threshold):
    current = list(records)
    changed = True
    while changed:
        changed = False
        users = Counter(r.user_id for r in current)
        items = Counter(r.item_id for r in current)
        kept = [r for r in current if users[r.user_id] >= threshold and items[r.item_id] >= threshold]
        if len(kept) != len(current):
            changed = True
            current = kept
    return current


def test_filter_cascaded_removal_matches_fixed_point_oracle():
    # u0 has 2 interactions only through i0; removing i0 (degree 1) must
    # cascade and remove u0 entirely at threshold 2
    records = [
        RatingRecord("u0", "i0", 4.0), RatingRecord("u0", "i1", 4.0),
        RatingRecord("u1", "i1", 4.0), RatingRecord("u1", "i2", 4.0),
        RatingRecord("u2", "i1", 4.0), RatingRecord("u2", "i2", 4.0),
    ]
    result = filter_min_interactions(records, 2)
    assert result == brute_force_filter(records, 2)
    assert all(r.user_id != "u0" for r in result)


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=40),
       st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_filter_is_fixed_point(pairs, threshold):
    records = [RatingRecord(f"u{u}", f"i{v}", 4.0) for u, v in set(pairs)]
    once = filter_min_interactions(records, threshold)
    assert filter_min_interactions(once, threshold) == once


def _records(n):
    return [RatingRecord(f"u{k % 7}", f"i{k}", 4.0, k) for k in range(n)]


def test_kfold_sizes():
    folds = kfold_split(_records(10), 5, seed=3)
    assert len(folds) == 5
    assert all(len(f.test) == 2 for f in folds)
    assert all(len(f.train) == 8 for f in folds)


def test_kfold_deterministic():
    a = kfold_split(_records(23), 4, seed=9)
    b = kfold_split(_records(23), 4, seed=9)
    assert all(x.test == y.test and x.train == y.train for x, y in zip(a, b))


def test_kfold_partition_property():
    records = _records(23)
    folds = kfold_split(records, 4, seed=1)
    all_test = [r for f in folds for r in f.test]
    assert sorted(all_test, key=lambda r: r.timestamp) == records
    for f in folds:
        assert sorted(f.train + f.test, key=lambda r: r.timestamp) == records
        assert not set(id(r) for r in f.train) & set(id(r) for r in f.test)


def test_kfold_rejects_bad_k():
    with pytest.raises(ValueError):
        kfold_split(_records(3), 5, seed=0)
    with pytest.raises(ValueError):
        kfold_split(_records(3), 1, seed=0)


def test_descriptor_first_appearance_order():
    records = parse_ratings(b"9\t5\t4\t0\n3\t5\t4\t0\n9\t8\t4\t0\n")
    desc = build_descriptor(records)
    assert desc.user("9") == 0 and desc.user("3") == 1
    assert desc.item("5") == 0 and desc.item("8") == 1
    assert desc.num_users == 2 and desc.num_items == 2


def test_fold_manifest_round_trip(tmp_path):
    records = _records(17)
    folds = kfold_split(records, 3, seed=5)
    write_fold_manifests(folds, tmp_path)
    loaded = read_fold_manifests(tmp_path, 3)
    for orig, back in zip(folds, loaded):
        assert sorted(orig.test, key=lambda r: r.timestamp) == \
               sorted(back.test, key=lambda r: r.timestamp)
    with pytest.raises(FileExistsError):
        write_fold_manifests(folds, tmp_path)
    write_fold_manifests(folds, tmp_path, force=True)
