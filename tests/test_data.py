import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from signrec.data import (
    DatasetDescriptor, ParseError, RatingRecord, Ratings, ValidationError, build_descriptor,
    filter_min_interactions, kfold_split, parse_ratings,
    read_fold_manifests, reject_repeated_pairs, write_fold_manifests,
)
from signrec.evaluate import ground_truth, train_interactions
from signrec.graph import DuplicateEdgeError, build_signed_graph

import helpers


def _parse(text: bytes, format: str = "tsv"):
    """``parse_ratings`` of a file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ratings.txt")
        with open(path, "wb") as fh:
            fh.write(text)
        return parse_ratings(path, format)


def test_parse_tsv_line():
    records = _parse(b"7\t42\t5\t0\n")
    assert list(records) == [RatingRecord("7", "42", 5.0, 0)]


def test_parse_movielens_dat_line():
    # "::"-separated, per the public ML-1M distribution
    records = _parse(b"1::1193::5::978300760\n", "movielens-dat")
    assert list(records) == [RatingRecord("1", "1193", 5.0, 978300760)]


def test_parse_skips_comments_and_blank_lines():
    records = _parse(b"# header\n\n1\t2\t3\t4\n")
    assert len(records) == 1


def test_parse_preserves_order():
    records = _parse(b"1\t1\t5\t0\n2\t2\t4\t0\n3\t3\t3\t0\n")
    assert [r.user_id for r in records] == ["1", "2", "3"]


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        _parse(b"1\t2\t5\t0\nbroken line\n")
    assert exc.value.line_no == 2


def test_rating_outside_scale_rejected():
    with pytest.raises(ValidationError):
        _parse(b"1\t2\t9\t0\n")


def test_parse_fractional_rating_and_timestamp():
    records = _parse(b"1\t2\t5\t100\n3\t4\t2.5\t0\n")
    assert list(records) == [RatingRecord("1", "2", 5.0, 100), RatingRecord("3", "4", 2.5, 0)]


def test_filter_threshold_boundary():
    records = Ratings.from_records(RatingRecord("u", f"i{k}", 4.0) for k in range(19))
    # every item also has degree 1 < 20, but user-side alone already drops all
    assert list(filter_min_interactions(records, 20)) == []


def test_filter_threshold_zero_identity():
    records = [RatingRecord("u", "i", 4.0)]
    assert list(filter_min_interactions(Ratings.from_records(records), 0)) == records


def test_filter_cascaded_removal_matches_fixed_point_oracle():
    # u0 has 2 interactions only through i0; removing i0 (degree 1) must
    # cascade and remove u0 entirely at threshold 2
    records = [
        RatingRecord("u0", "i0", 4.0), RatingRecord("u0", "i1", 4.0),
        RatingRecord("u1", "i1", 4.0), RatingRecord("u1", "i2", 4.0),
        RatingRecord("u2", "i1", 4.0), RatingRecord("u2", "i2", 4.0),
    ]
    result = filter_min_interactions(Ratings.from_records(records), 2)
    assert list(result) == helpers.reference_filter_min_interactions(records, 2)
    assert all(r.user_id != "u0" for r in result)


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=40),
       st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_filter_is_fixed_point(pairs, threshold):
    records = Ratings.from_records(RatingRecord(f"u{u}", f"i{v}", 4.0) for u, v in set(pairs))
    once = filter_min_interactions(records, threshold)
    assert list(filter_min_interactions(once, threshold)) == list(once)


def _records(n):
    return Ratings.from_records(RatingRecord(f"u{k % 7}", f"i{k}", 4.0, k) for k in range(n))


def test_kfold_sizes():
    folds = kfold_split(_records(10), 5, seed=3)
    assert len(folds) == 5
    assert all(len(f.test) == 2 for f in folds)
    assert all(len(f.train) == 8 for f in folds)


def test_kfold_deterministic():
    a = kfold_split(_records(23), 4, seed=9)
    b = kfold_split(_records(23), 4, seed=9)
    assert all(list(x.test) == list(y.test) and list(x.train) == list(y.train)
               for x, y in zip(a, b))


def test_kfold_partition_property():
    records = _records(23)
    folds = kfold_split(records, 4, seed=1)
    records = list(records)
    all_test = [r for f in folds for r in f.test]
    assert sorted(all_test, key=lambda r: r.timestamp) == records
    for f in folds:
        assert sorted([*f.train, *f.test], key=lambda r: r.timestamp) == records
        # each record's timestamp is its row number
        assert not {r.timestamp for r in f.train} & {r.timestamp for r in f.test}


def test_kfold_rejects_bad_k():
    with pytest.raises(ValueError, match="k=5 exceeds rating count 3"):
        kfold_split(_records(3), 5, seed=0)
    with pytest.raises(ValueError):
        kfold_split(_records(3), 1, seed=0)
    with pytest.raises(ValueError, match="ratings must be non-empty"):
        kfold_split(_records(0), 2, seed=0)


def test_descriptor_first_appearance_order():
    records = _parse(b"9\t5\t4\t0\n3\t5\t4\t0\n9\t8\t4\t0\n")
    desc = build_descriptor(records)
    assert desc.user_index == {"9": 0, "3": 1}
    assert desc.item_index == {"5": 0, "8": 1}
    assert desc.num_users == 2 and desc.num_items == 2


def test_node_index_round_trip_is_in_row_order(tmp_path):
    # the maps' insertion order is not their row order
    desc = DatasetDescriptor(3, 2, {"b": 2, "a a": 0, "ü": 1}, {"10": 1, "9": 0})
    ratings = Ratings.from_records([RatingRecord("b", "9", 4.0), RatingRecord("ü", "10", 2.0)])
    write_fold_manifests(kfold_split(ratings, 2, seed=0), tmp_path, desc, 4)
    assert (tmp_path / "nodes.json").read_text() == \
        '{"min_interactions": 4, "users": ["a a", "\\u00fc", "b"], "items": ["9", "10"]}'
    folds, back = read_fold_manifests(tmp_path, 2, 4)
    assert back == desc
    assert list(back.user_index.items()) == [("a a", 0), ("ü", 1), ("b", 2)]
    # the folds' codes are node-index rows, into the index's own id lists
    assert folds[0].test.user_ids == ["a a", "ü", "b"] and folds[0].test.item_ids == ["9", "10"]
    every = [r for fold in folds for r in fold.test]
    assert sorted(every, key=repr) == sorted(ratings, key=repr)


def test_fold_manifest_round_trip(tmp_path):
    records = _records(17)
    folds, desc = kfold_split(records, 3, seed=5), build_descriptor(records)
    write_fold_manifests(folds, tmp_path, desc, 0)
    loaded, _ = read_fold_manifests(tmp_path, 3, 0)
    for orig, back in zip(folds, loaded):
        assert sorted(orig.test, key=lambda r: r.timestamp) == \
               sorted(back.test, key=lambda r: r.timestamp)
    with pytest.raises(FileExistsError):
        write_fold_manifests(folds, tmp_path, desc, 0)
    write_fold_manifests(folds, tmp_path, desc, 0, force=True)


# ---------------------------------------------------------------------------
# columns against the record-based reference path (tests/helpers.py)

def _outcome(fn, *args):
    """``fn(*args)``, or the type, text and line number of what it raised."""
    try:
        return fn(*args)
    except (ValueError, KeyError) as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "line_no", None))


_IDS = st.sampled_from(["1", "2", "10", "u7", "é", " x", "a:b", "x:", "#3"])
_RATINGS = st.sampled_from(["5", "1", "3", "4.5", "2.25", " 4", "4.0", "1e0", "3.5",
                            "9", "0.5", "nan", "x", ""])
_STAMPS = st.sampled_from(["0", "978300760", "-3", " 12", "007", "t", "1.5",
                           str(2**63 - 1)])


@st.composite
def _rating_files(draw):
    """Text of a rating file and its format."""
    format = draw(st.sampled_from(["tsv", "movielens-dat"]))
    sep = {"tsv": "\t", "movielens-dat": "::"}[format]
    good = draw(st.booleans())   # most files parse, so the later stages run
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["rating"] * 6 + ["comment", "blank", "short"]))
        if kind == "comment":
            line = draw(st.sampled_from(["#", "# header", "  #x\t1\t2", "\x1c#", "\u3000# x"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t", " \t ", "\x1c", "\x85 ", "\u3000"]))
        elif kind == "short" and not good:
            line = sep.join(["1", "2", "3", "4", "5"][:draw(st.sampled_from([1, 2, 5]))])
        else:
            fields = [draw(_IDS), draw(_IDS), draw(_RATINGS)]
            if draw(st.booleans()):
                fields.append(draw(_STAMPS))
            if good:
                fields[2] = draw(st.sampled_from(["5", "1", "2.5", " 4", "3.0", "4.75"]))
                fields[3:] = [draw(st.sampled_from(["0", "17", "-2", " 9"]))
                              for _ in fields[3:]]
            line = sep.join(fields)
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines), format


def _same(new, old):
    """Outcomes match: equal errors, or equal records in order."""
    if isinstance(old, tuple) or isinstance(new, tuple):
        assert new == old
        return False
    assert list(new) == old
    return True


@given(_rating_files(), st.integers(0, 3), st.integers(2, 4), st.integers(0, 5))
@settings(max_examples=500, deadline=None)
def test_columns_match_the_record_path(file, threshold, k, seed):
    text, format = file
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ratings.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        new = _outcome(parse_ratings, path, format)
        old = _outcome(helpers.reference_parse_ratings, path, format)
        parsed = _same(new, old)
        event(f"parsed: {parsed}")
        if not parsed:
            return
        ratings, records = new, old
        ratings = filter_min_interactions(ratings, threshold)
        records = helpers.reference_filter_min_interactions(records, threshold)
        assert list(ratings) == records
        desc, ref_desc = build_descriptor(ratings), helpers.reference_build_descriptor(records)
        assert list(desc.user_index.items()) == list(ref_desc.user_index.items())
        assert list(desc.item_index.items()) == list(ref_desc.item_index.items())
        event(f"split: {1 < k <= len(records)}")
        if not 1 < k <= len(records):
            return
        folds, ref_folds = kfold_split(ratings, k, seed), helpers.reference_kfold_split(records, k, seed)
        new_dir = os.path.join(tmp, "new")
        write_fold_manifests(folds, new_dir, desc, threshold)
        helpers.reference_write_fold_manifests(ref_folds, os.path.join(tmp, "old"))
        for i in range(k):
            name = f"fold{i}.tsv"
            with open(os.path.join(new_dir, name), "rb") as a, \
                    open(os.path.join(tmp, "old", name), "rb") as b:
                assert a.read() == b.read()
        back = _outcome(read_fold_manifests, new_dir, k, threshold)
        ref_back = helpers.reference_read_fold_manifests(new_dir, k)
        # a pair on two manifest lines is refused, naming the first repeat in manifest order
        repeat = _outcome(helpers.reference_build_signed_graph,
                          [r for fold in ref_back for r in fold.test], desc, 3.5)
        event(f"repeated pair: {isinstance(repeat, tuple)}")
        if isinstance(repeat, tuple):
            assert back == ("raised", DuplicateEdgeError,
                            f"{new_dir}: {repeat[2]} in two manifest lines; split it again", None)
            return
        back, back_desc = back
        assert back_desc == desc
        for fold, ref_fold, split_fold in zip(back, ref_back, folds):
            assert list(fold.train) == ref_fold.train
            assert list(fold.test) == ref_fold.test == list(split_fold.test)
            g = _outcome(build_signed_graph, fold.train, desc, 3.5)
            ref_g = _outcome(helpers.reference_build_signed_graph, ref_fold.train, desc, 3.5)
            event(f"graph built: {not isinstance(ref_g, tuple)}")
            if isinstance(ref_g, tuple):
                assert g == ref_g
            else:
                for name in ("num_users", "num_items", "users", "items", "weights"):
                    a, b = getattr(g, name), getattr(ref_g, name)
                    assert np.asarray(a).dtype == np.asarray(b).dtype
                    assert np.array_equal(a, b)
            # users in order; each user's items an int64 array of the set's items, ascending
            for fn, ref, new_rows, ref_rows in (
                    (ground_truth, helpers.reference_ground_truth, fold.test, ref_fold.test),
                    (train_interactions, helpers.reference_train_interactions, fold.train,
                     ref_fold.train)):
                got = fn(new_rows, desc)
                assert all(items.dtype == np.int64 for items in got.values())
                assert [(u, items.tolist()) for u, items in got.items()] \
                    == [(u, sorted(items)) for u, items in ref(ref_rows, desc).items()]


@pytest.mark.parametrize("text", [
    b"1\t2\t5\t0\n# note\n\n1\t2\n",              # field count, after skipped lines
    b"1\t2\t5\t0\r\n3\t4\tx\t0\r\n",              # bad rating
    b"1\t2\t5\t0\n3\t4\t5\tt\n",                  # bad timestamp
    b"1\t2\t5\n3\t4\t9\t0\n",                     # off the scale
    b"1\t2\tnan\n",                               # NaN
    b"1\t2\tx\t0\n1\t2\n",                        # the first of two bad lines
    b"1\t2\t5\t0\n3\t4\tx\n",                      # bad rating, 3 fields after 4
    b"1\t2\t5\n3\t4\t1\n5\t6\t4\tt\n",             # bad timestamp, 4 fields after 3
    b"1\n",                                       # no separator anywhere
    b"1\t2\t9\n1\t2\n",                           # off the scale before a field count
], ids=["fields", "rating", "timestamp", "scale", "nan", "first-bad-line", "mixed-rating",
        "mixed-timestamp", "no-separator", "scale-before-fields"])
def test_parse_errors_match_the_record_path(tmp_path, text):
    path = tmp_path / "bad.tsv"
    path.write_bytes(text)
    new = _outcome(parse_ratings, str(path))
    assert new[0] == "raised" and new[3] is not None and str(path) in new[2]
    assert new == _outcome(helpers.reference_parse_ratings, str(path))


def test_mixed_width_error_names_the_line_as_written(tmp_path):
    # a missing timestamp is parsed as "::0", which would split "5:::0" as "5" and ":0"
    path = tmp_path / "ratings.dat"
    path.write_bytes(b"1::2::5::0\n3::4::5:\n")
    new = _outcome(parse_ratings, str(path), "movielens-dat")
    assert new == _outcome(helpers.reference_parse_ratings, str(path), "movielens-dat")
    assert new[2] == f"{path}: line 2: bad rating field '5:'"


def test_movielens_dat_id_holding_a_tab_matches_the_record_path(tmp_path):
    # the id is named before the same line's rating and timestamp
    path = tmp_path / "ratings.dat"
    path.write_bytes(b"1::2::5::0\n3::4\tx::9::t\n")
    new = _outcome(parse_ratings, str(path), "movielens-dat")
    assert new == _outcome(helpers.reference_parse_ratings, str(path), "movielens-dat")
    assert new[2] == \
        f"{path}: line 2: item id '4\\tx' holds a tab, which a fold manifest cannot hold"


@pytest.mark.parametrize("text", [b"", b"# header\n#\n", b"\n \n\t\r\n"],
                         ids=["empty", "comments", "blank"])
def test_file_without_ratings_parses_to_no_ids(text):
    r = _parse(text)
    assert len(r.users) == len(r.items) == len(r) == len(r.user_ids) == len(r.item_ids) == 0


def _node_index(directory, users, items):
    """Write a ``nodes.json`` of ``users`` and ``items`` under --min-interactions 0."""
    (directory / "nodes.json").write_text(
        json.dumps({"min_interactions": 0, "users": users, "items": items}))


@pytest.mark.parametrize("line", ["0\tu\ti\t5", "0\tu\ti\tx\t1", "0\tu\ti\t5\tt",
                                  "1\tu\ti\tnan\t1", "1\tu\ti\t9\t1",
                                  "1\tu\ti\t9\t1\n2\tu\ti\t5\t1"],
                         ids=["fields", "rating", "timestamp", "nan", "scale",
                              "scale-before-fold"])
def test_manifest_errors_match_the_record_path(tmp_path, line):
    _node_index(tmp_path, ["u", "v"], ["i", "j"])
    (tmp_path / "fold0.tsv").write_text("0\tu\tj\t4\t1\n")
    (tmp_path / "fold1.tsv").write_text(f"1\tv\ti\t4\t1\n{line}\n")
    new = _outcome(read_fold_manifests, tmp_path, 2, 0)
    assert new[0] == "raised" and new[3] == 2
    assert new == _outcome(helpers.reference_read_fold_manifests, tmp_path, 2)


def test_manifest_line_without_a_tab_matches_the_record_path(tmp_path):
    # the only line of fold 0 holds no separator at all
    _node_index(tmp_path, ["u"], ["i"])
    (tmp_path / "fold0.tsv").write_text("u")
    (tmp_path / "fold1.tsv").write_text("1\tu\ti\t4\t1\n")
    new = _outcome(read_fold_manifests, tmp_path, 2, 0)
    assert new == ("raised", ParseError,
                   f"{tmp_path / 'fold0.tsv'}: line 1: expected 5 manifest fields", 1)
    assert new == _outcome(helpers.reference_read_fold_manifests, tmp_path, 2)


_MANIFEST_IDS = st.sampled_from(["u7\x00", "\x00", "ü", "abcdefghijk", "abcdefghijkl", "٣"])
_UNKNOWN_IDS = st.sampled_from(["u", "abcdefghij", "abcdefghijkm", "u7\x00\x00", "1\x00", "zz"])
_MANIFEST_RATINGS = st.sampled_from(["+5", " 5", "1_0", "٣", "1e3", "3.5", "nan"])
_MANIFEST_STAMPS = st.sampled_from(["+5", "1_0", "٣", "1" * 19, str(2**63), str(-2**63),
                                    "9" * 25])


@st.composite
def _split_directories(draw):
    """The node index and manifest texts of a split, and its fold count."""
    ids = st.one_of(_IDS, _MANIFEST_IDS)
    users = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    items = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    k = draw(st.integers(2, 3))
    good = draw(st.booleans())   # most splits read, so the folds are compared
    manifests = []
    for fold in range(k):
        lines = []
        for _ in range(draw(st.integers(0 if not good else 1, 8))):
            kind = draw(st.sampled_from(["rating"] * 8 + ["blank", "short", "other fold",
                                                         "unknown id"]))
            if good or kind == "rating":
                line = [str(fold), draw(st.sampled_from(users)), draw(st.sampled_from(items)),
                        draw(st.one_of(_RATINGS, _MANIFEST_RATINGS)),
                        draw(st.one_of(_STAMPS, _MANIFEST_STAMPS))]
                if good:
                    line[3:] = [draw(st.sampled_from(["5", "1", "2.5", "4.75", " 5", "+5", "٣"])),
                                draw(st.sampled_from(["0", "17", "-2", "1" * 18, "1" * 19,
                                                      "٣", "1_0"]))]
            elif kind == "blank":
                line = [draw(st.sampled_from(["", " "]))]
            elif kind == "short":
                line = [str(fold), users[0], items[0], "5"]
            elif kind == "other fold":
                line = [draw(st.sampled_from([str(fold + 1), f" {fold}", f"+{fold}", "٠", ""])),
                        users[0], items[0], "5", "0"]
            else:
                line = [str(fold), draw(_UNKNOWN_IDS), items[-1], "5", "0"]
            lines.append("\t".join(line) + draw(st.sampled_from(["\n", "\r\n", "\r"])))
        if lines and draw(st.booleans()):
            lines[-1] = lines[-1].rstrip("\r\n")
        manifests.append("".join(lines))
    return users, items, manifests


@given(_split_directories())
@settings(max_examples=300, deadline=None)
def test_manifests_read_as_the_record_path_reads_them(split):
    users, items, manifests = split
    k = len(manifests)
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "nodes.json"), "w", encoding="utf-8") as fh:
            json.dump({"min_interactions": 0, "users": users, "items": items}, fh)
        for fold, text in enumerate(manifests):
            with open(os.path.join(tmp, f"fold{fold}.tsv"), "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(text)
        new = _outcome(read_fold_manifests, tmp, k, 0)
        old = _outcome(helpers.reference_read_fold_manifests, tmp, k)
        event(f"read: {not isinstance(old, tuple)}")
        if isinstance(old, tuple):
            assert new == old
            return
        # a pair on two manifest lines is refused, naming the first repeat in manifest order
        seen = set()
        repeat = next((r for fold in old for r in fold.test
                       if (r.user_id, r.item_id) in seen or seen.add((r.user_id, r.item_id))),
                      None)
        event(f"repeated pair: {repeat is not None}")
        if repeat is not None:
            assert new == ("raised", DuplicateEdgeError,
                           f"{tmp}: repeated interaction ({repeat.user_id}, {repeat.item_id}) "
                           "in two manifest lines; split it again", None)
            return
        folds, desc = new
        assert list(desc.user_index.items()) == list(zip(users, range(len(users))))
        assert list(desc.item_index.items()) == list(zip(items, range(len(items))))
        for fold, ref in zip(folds, old):
            assert fold.test.user_ids == users and fold.test.item_ids == items
            for rows, ref_rows in ((fold.train, ref.train), (fold.test, ref.test)):
                assert [rows.users.dtype, rows.items.dtype, rows.rating.dtype,
                        rows.timestamp.dtype] == [np.int64, np.int64, np.float64, np.int64]
                assert list(rows) == ref_rows


def test_manifest_of_another_fold_is_a_parse_error(tmp_path):
    _node_index(tmp_path, ["u", "v", "w"], ["i", "j"])
    (tmp_path / "fold0.tsv").write_text("0\tu\tj\t4\t1\n")
    (tmp_path / "fold1.tsv").write_text("1\tv\ti\t4\t1\n10\tw\ti\t4\t1\n")
    with pytest.raises(ParseError, match="fold column '10'") as exc:
        read_fold_manifests(tmp_path, 2, 0)
    assert exc.value.line_no == 2 and str(tmp_path / "fold1.tsv") in str(exc.value)
    # a manifest copied into another fold's file
    (tmp_path / "fold1.tsv").write_text("0\tu\tj\t4\t1\n")
    with pytest.raises(ParseError, match="fold column '0'") as exc:
        read_fold_manifests(tmp_path, 2, 0)
    assert exc.value.line_no == 1


@pytest.mark.parametrize("line, named", [("1\tx\ti\t4\t1", "user 'x'"),
                                         ("1\tv\ty\t4\t1", "item 'y'"),
                                         ("1\tx\ty\t4\t1", "user 'x'")],
                         ids=["user", "item", "user-first"])
def test_manifest_id_missing_from_the_node_index_names_file_and_line(tmp_path, line, named):
    _node_index(tmp_path, ["u", "v"], ["i", "j"])
    (tmp_path / "fold0.tsv").write_text("0\tu\tj\t4\t1\n")
    # the first such line is named, not a later one
    (tmp_path / "fold1.tsv").write_text(f"1\tv\ti\t4\t1\n{line}\n1\tz\tz\t4\t1\n")
    with pytest.raises(ParseError) as exc:
        read_fold_manifests(tmp_path, 2, 0)
    assert exc.value.line_no == 2
    assert str(exc.value) == \
        f"{tmp_path / 'fold1.tsv'}: line 2: {named} is not in nodes.json; split it again"


def test_pair_held_by_two_manifests_is_refused(tmp_path):
    _node_index(tmp_path, ["u", "v"], ["i", "j"])
    (tmp_path / "fold0.tsv").write_text("0\tv\tj\t2\t1\n0\tu\ti\t4\t1\n")
    (tmp_path / "fold1.tsv").write_text("1\tu\tj\t4\t1\n1\tu\ti\t5\t2\n")
    with pytest.raises(DuplicateEdgeError) as exc:
        read_fold_manifests(tmp_path, 2, 0)
    assert str(exc.value) == \
        f"{tmp_path}: repeated interaction (u, i) in two manifest lines; split it again"


def test_node_index_is_read_before_the_manifests(tmp_path):
    (tmp_path / "fold0.tsv").write_text("not a manifest line\n")
    with pytest.raises(FileNotFoundError, match="nodes.json is missing"):
        read_fold_manifests(tmp_path, 2, 0)


def test_repeated_pair_and_missing_id_errors_match_the_record_path():
    records = [RatingRecord("u", "i", 5.0), RatingRecord("v", "j", 4.0),
               RatingRecord("u", "i", 1.0), RatingRecord("w", "i", 5.0)]
    desc = helpers.reference_build_descriptor(records)
    new = _outcome(build_signed_graph, records, desc, 3.5)
    assert new[1] is DuplicateEdgeError and "(u, i)" in new[2]
    assert new == _outcome(helpers.reference_build_signed_graph, records, desc, 3.5)
    # an id that the descriptor lacks: the first such row, user before item,
    # and the graph's repeated pair only if it comes before that row
    short = helpers.reference_build_descriptor(records[:2])
    for rows in (records, records[:1] + records[3:], [RatingRecord("v", "k", 5.0), *records]):
        for fn, ref in ((ground_truth, helpers.reference_ground_truth),
                        (train_interactions, helpers.reference_train_interactions)):
            new = _outcome(fn, Ratings.from_records(rows), short)
            assert new == _outcome(ref, rows, short)
        new = _outcome(build_signed_graph, rows, short, 3.5)
        assert new[0] == "raised"
        assert new == _outcome(helpers.reference_build_signed_graph, rows, short, 3.5)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=30))
def test_reject_repeated_pairs_names_the_first_repeat(pairs):
    ratings = Ratings.from_records(RatingRecord(f"u{u}", f"i{i}", 5.0) for u, i in pairs)
    seen = set()
    first = next((pair for pair in pairs if pair in seen or seen.add(pair)), None)
    outcome = _outcome(reject_repeated_pairs, ratings, ratings.users, ratings.items)
    if first is None:
        assert outcome is None
    else:
        assert outcome == ("raised", DuplicateEdgeError,
                           f"repeated interaction (u{first[0]}, i{first[1]})", None)


def test_ids_that_differ_only_in_trailing_nul_bytes_stay_apart(tmp_path):
    # ids are told apart by their bytes and their length, 8 bytes or longer alike
    ids = ["u", "u\x00", "u\x00\x00", "", "abcdefgh", "abcdefgh\x00"]
    ratings = _parse("".join(f"{u}\t{i}\t5\t0\n" for u in ids for i in ids[::-1]).encode())
    assert ratings.user_ids == ids and ratings.item_ids == ids[::-1]
    folds = kfold_split(ratings, 2, seed=0)
    write_fold_manifests(folds, tmp_path, build_descriptor(ratings), 0)
    back, _ = read_fold_manifests(tmp_path, 2, 0)
    for fold, ref in zip(back, folds):
        assert list(fold.test) == list(ref.test)


def test_timestamp_outside_int64_is_a_parse_error():
    with pytest.raises(ParseError, match="bad timestamp field") as exc:
        _parse(f"1\t2\t5\t0\n1\t3\t5\t{2**63}\n".encode())
    assert exc.value.line_no == 2


def test_ratings_iterate_take_and_accept_records():
    ratings = _parse(b"a\tx\t5\t3\nb\ty\t1\nA\tx\t2.5\t-1\n")
    assert len(ratings) == 3
    assert ratings.user_ids == ["a", "b", "A"] and ratings.item_ids == ["x", "y"]
    assert ratings.users.dtype == ratings.items.dtype == ratings.timestamp.dtype == np.int64
    assert list(ratings.take([2, 0])) == [RatingRecord("A", "x", 2.5, -1),
                                          RatingRecord("a", "x", 5.0, 3)]
    again = Ratings.from_records(list(ratings))
    assert list(again) == list(ratings) and again.user_ids == ratings.user_ids
