import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import signrec
from signrec.cli import (
    EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, ExperimentConfig, build_parser, main,
    read_config_file, run_dir_name,
)
from signrec import evaluate as eval_mod
from signrec.data import (
    Ratings, build_descriptor, filter_min_interactions, parse_ratings, read_fold_manifests,
)
from signrec.graph import build_signed_graph
from signrec.model import AdjacencySet, ModelConfig, forward_tensors, load_checkpoint
from signrec.train import penalized_gradient

from helpers import planted_dataset


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.tsv"
    records = planted_dataset(num_users=24, num_items=24, clusters=3,
                              liked_per_user=6, disliked_per_user=3, seed=4)
    with open(path, "w") as fh:
        for r in records:
            fh.write(f"{r.user_id[1:]}\t{r.item_id[1:]}\t{int(r.rating)}\t{r.timestamp}\n")
    return str(path)


def base_args(dataset_path, out):
    return ["--dataset", dataset_path, "--folds", "3", "--seed", "11", "--out", out]


def train_args(dataset_path, out, **overrides):
    args = ["train"] + base_args(dataset_path, out) + [
        "--dim", "8", "--layers", "2", "--n-neg", "2", "--epochs", "3",
        "--batch-size", "128", "--lambda-reg", "0.01", "--fold", "0"]
    for key, value in overrides.items():
        args += [f"--{key}", str(value)]
    return args


def test_split_writes_manifests_and_is_deterministic(dataset_path, tmp_path):
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    manifest_dir = next(p for p in os.listdir(out) if "folds" in p)
    files = sorted(os.listdir(os.path.join(out, manifest_dir)))
    assert files == ["fold0.tsv", "fold1.tsv", "fold2.tsv", "nodes.json"]
    total = sum(len(open(os.path.join(out, manifest_dir, f)).readlines()) for f in files[:3])
    assert total == len(open(dataset_path).readlines())

    first = {f: open(os.path.join(out, manifest_dir, f)).read() for f in files}
    assert main(["split"] + base_args(dataset_path, out) + ["--force"]) == EXIT_OK
    second = {f: open(os.path.join(out, manifest_dir, f)).read() for f in files}
    assert first == second


def test_split_refuses_overwrite_without_force(dataset_path, tmp_path):
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_DATA


def test_split_without_force_writes_nothing_if_any_manifest_exists(dataset_path, tmp_path,
                                                                   capsys):
    out = tmp_path / "runs"
    manifests = out / "toy-folds-k3-seed11"
    manifests.mkdir(parents=True)
    (manifests / "fold1.tsv").write_text("kept\n")
    assert main(["split"] + base_args(dataset_path, str(out))) == EXIT_DATA
    assert "fold1.tsv exists" in capsys.readouterr().err
    assert sorted(p.name for p in manifests.iterdir()) == ["fold1.tsv"]
    assert (manifests / "fold1.tsv").read_text() == "kept\n"


def test_split_without_force_writes_nothing_if_the_node_index_exists(dataset_path, tmp_path,
                                                                      capsys):
    out = tmp_path / "runs"
    manifests = out / "toy-folds-k3-seed11"
    manifests.mkdir(parents=True)
    (manifests / "nodes.json").write_text("kept\n")
    assert main(["split"] + base_args(dataset_path, str(out))) == EXIT_DATA
    assert "nodes.json exists" in capsys.readouterr().err
    assert sorted(p.name for p in manifests.iterdir()) == ["nodes.json"]
    assert (manifests / "nodes.json").read_text() == "kept\n"


@pytest.mark.parametrize("threshold", [0, 2])
def test_node_index_holds_the_descriptor_of_the_filtered_dataset(tmp_path, threshold):
    # ids with spaces, non-ASCII characters and digits only, some rated once
    gen = np.random.default_rng(threshold)
    users = ["u 1", " lead", "trail ", "ñandú", "日本", "007", "7", "42", "x#y", "Ω"]
    items = ["i 1", "ü", "3", "03", "€ 5", "0", "item", "#9", "a b c"]
    pairs = gen.choice(len(users) * len(items), size=45, replace=False)
    path = tmp_path / "ids.tsv"
    lines = [f"{users[p // len(items)]}\t{items[p % len(items)]}\t{gen.integers(1, 6)}\t{n}\n"
             for n, p in enumerate(pairs)]
    lines += ["99\tü\t4\t0\n", "ñandú\tonce more\t2\t0\n"]
    path.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["split", "--dataset", str(path), "--folds", "2", "--out", str(out),
                 "--min-interactions", str(threshold)]) == EXIT_OK
    want = build_descriptor(filter_min_interactions(parse_ratings(str(path)), threshold))
    index = json.loads((out / "ids-folds-k2-seed0" / "nodes.json").read_text(encoding="utf-8"))
    assert index == {"min_interactions": threshold,
                     "users": sorted(want.user_index, key=want.user_index.get),
                     "items": sorted(want.item_index, key=want.item_index.get)}
    assert ("99" in index["users"] and "once more" in index["items"]) == (threshold == 0)
    assert len(index["users"]) > 5 and len(index["items"]) > 5


def test_train_and_evaluate_do_not_read_the_dataset(dataset_path, tmp_path):
    outputs = []
    for side in ("kept", "deleted"):
        path = tmp_path / side / "toy.tsv"
        path.parent.mkdir()
        path.write_bytes(open(dataset_path, "rb").read())
        out = str(tmp_path / side / "runs")
        assert main(["split"] + base_args(str(path), out)) == EXIT_OK
        if side == "deleted":
            path.unlink()
        assert main(train_args(str(path), out)) == EXIT_OK
        run_path = os.path.join(out, next(p for p in os.listdir(out) if "mlp-gn" in p))
        assert main(["evaluate"] + base_args(str(path), out) + ["--run", run_path]) == EXIT_OK
        outputs.append([open(os.path.join(run_path, name), "rb").read() for name in
                        ("embeddings.npy", "logs/epochs.csv", "reports/metrics.csv")])
    assert outputs[0] == outputs[1]


def _index_of(**changes):
    def damage(path):
        path.write_text(json.dumps(json.loads(path.read_text()) | changes))
    return damage


def _first_user_twice(path):
    users = json.loads(path.read_text())["users"]
    _index_of(users=users + users[:1])(path)


@pytest.mark.parametrize("damage, says", [
    (lambda path: path.unlink(), "is missing; run signrec split --force"),
    (lambda path: path.write_text('{"users": ['), "not a node index"),
    (lambda path: path.write_text("[]"), "not a node index"),
    (_index_of(min_interactions="0"), "not a node index"),
    (_index_of(items=None), "not a node index"),
    (_index_of(users=[7]), "not a node index"),
    (_first_user_twice, "an id is repeated"),
], ids=["missing", "not-json", "not-an-object", "string-filter", "no-item-list", "integer-id",
        "repeated-id"])
def test_bad_node_index_is_data_error_naming_it(dataset_path, tmp_path, capsys, damage, says):
    out = tmp_path / "runs"
    assert main(["split"] + base_args(dataset_path, str(out))) == EXIT_OK
    path = out / "toy-folds-k3-seed11" / "nodes.json"
    damage(path)
    for argv in (train_args(dataset_path, str(out)),
                 ["evaluate"] + base_args(dataset_path, str(out)) + ["--run", str(out / "x")]):
        capsys.readouterr()
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(path) in err and says in err, err
    assert not any("mlp-gn" in p.name for p in out.iterdir())


@pytest.mark.parametrize("given_by, recorded, given", [
    ("flag", 0, 1), ("config-file", 0, 3), ("default", 2, 0)])
def test_filter_other_than_the_splits_is_data_error(dataset_path, tmp_path, capsys,
                                                    given_by, recorded, given):
    out = tmp_path / "runs"
    split_with = ["--min-interactions", str(recorded)] if recorded else []
    assert main(["split"] + base_args(dataset_path, str(out)) + split_with) == EXIT_OK
    config = tmp_path / "run.cfg"
    config.write_text(f"min-interactions = {given}\n")
    run_with = {"flag": ["--min-interactions", str(given)],
                "config-file": ["--config", str(config)], "default": []}[given_by]
    for argv in (train_args(dataset_path, str(out)),
                 ["evaluate"] + base_args(dataset_path, str(out)) + ["--run", str(out / "x")]):
        capsys.readouterr()
        assert main(run_with + argv if given_by == "config-file" else argv + run_with) \
            == EXIT_DATA
        err = capsys.readouterr().err
        assert str(out / "toy-folds-k3-seed11") in err
        assert f"--min-interactions {recorded}, not --min-interactions {given};" in err


def test_manifest_id_missing_from_node_index_is_data_error(dataset_path, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["split"] + base_args(dataset_path, str(out))) == EXIT_OK
    manifests = out / "toy-folds-k3-seed11"
    path = manifests / "nodes.json"
    index = json.loads(path.read_text())
    dropped = index["users"].pop()
    path.write_text(json.dumps(index))
    capsys.readouterr()
    assert main(train_args(dataset_path, str(out))) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(manifests) in err and repr(dropped) in err and "nodes.json" in err


def test_pair_held_by_two_manifests_is_data_error(dataset_path, tmp_path, capsys):
    # fold 1's first line copied into fold 0's manifest puts a test rating of
    # fold 1 into fold 1's training set
    out = tmp_path / "runs"
    assert main(["split"] + base_args(dataset_path, str(out))) == EXIT_OK
    manifests = out / "toy-folds-k3-seed11"
    first = (manifests / "fold1.tsv").read_text().splitlines()[0]
    with open(manifests / "fold0.tsv", "a") as fh:
        fh.write("0" + first[1:] + "\n")
    user, item = first.split("\t")[1:3]
    for argv in (train_args(dataset_path, str(out), fold=1),
                 ["evaluate"] + base_args(dataset_path, str(out)) + ["--run", str(out / "x")]):
        capsys.readouterr()
        assert main(argv) == EXIT_DATA
        assert f"{manifests}: repeated interaction ({user}, {item}) in two manifest lines" \
            in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [manifests.name]


@pytest.mark.parametrize("w_o, flags, kind", [("3", [], "signed"),
                                              ("3.5", ["--positive-only"], "positive")])
def test_fold_without_an_edge_is_named_before_the_run(tmp_path, capsys, w_o, flags, kind):
    # every rating is 3: --w-o 3 signs none, and under 3.5 none is positive
    path = tmp_path / "flat.tsv"
    path.write_text("".join(f"{u}\t{i}\t3\t0\n" for u in range(6) for i in range(5)))
    out = tmp_path / "runs"
    args = ["--dataset", str(path), "--folds", "2", "--out", str(out)]
    assert main(["split"] + args) == EXIT_OK
    capsys.readouterr()
    assert main(["train"] + args + ["--fold", "1", "--w-o", w_o, "--epochs", "1"] + flags) \
        == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {out / 'flat-folds-k2-seed0'}: the training ratings of fold 1 make no "
        f"{kind} edge at --w-o {float(w_o)}\n")
    assert [p.name for p in out.iterdir()] == ["flat-folds-k2-seed0"]


def test_evaluate_of_two_runs_prints_the_across_folds_summary(dataset_path, tmp_path, capsys):
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    runs = []
    for fold in (0, 2):
        assert main(train_args(dataset_path, out, fold=fold)) == EXIT_OK
        runs.append(os.path.join(out, next(p for p in os.listdir(out) if f"fold{fold}" in p)))
    capsys.readouterr()
    argv = ["evaluate"] + base_args(dataset_path, out) + ["--k", "3", "--k", "7"]
    assert main(argv + ["--run", runs[0], "--run", runs[1]]) == EXIT_OK
    printed = capsys.readouterr().out.split("\nacross folds (mean +- std):\n")[1]
    folds, descriptor = read_fold_manifests(os.path.join(out, "toy-folds-k3-seed11"), 3, 0)
    reports = [eval_mod.evaluate(np.load(os.path.join(run, "embeddings.npy")),
                                 descriptor.num_users,
                                 eval_mod.ground_truth(folds[fold].test, descriptor),
                                 eval_mod.train_interactions(folds[fold].train, descriptor),
                                 (3, 7)) for fold, run in ((0, runs[0]), (2, runs[1]))]
    summary = eval_mod.aggregate_fold_reports(reports)
    assert len(summary) == 6
    assert dict(line.strip().split(": ") for line in printed.splitlines()) == {
        f"{metric}@{k}": f"{mean:.4f} +- {std:.4f}" for (k, metric), (mean, std) in summary.items()}


def test_missing_dataset_is_usage_error(tmp_path, capsys):
    assert main(["split", "--out", str(tmp_path / "runs")]) == EXIT_USAGE
    assert "usage error: --dataset is required" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_evaluate_run_without_config_is_data_error_naming_it(dataset_path, tmp_path, capsys):
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    run = tmp_path / "empty-run"
    run.mkdir()
    capsys.readouterr()
    assert main(["evaluate"] + base_args(dataset_path, out) + ["--run", str(run)]) == EXIT_DATA
    assert f"data error: {run}: missing config" in capsys.readouterr().err


def test_module_entry_point_prints_help():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(signrec.__file__)))
    run = subprocess.run([sys.executable, "-m", "signrec", "--help"], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0
    assert run.stdout.startswith("usage: signrec")


def test_split_k1_is_usage_error(dataset_path, tmp_path):
    out = str(tmp_path / "runs")
    code = main(["split", "--dataset", dataset_path, "--folds", "1", "--out", out])
    assert code == EXIT_USAGE


def test_missing_subcommand_is_usage_error():
    assert main([]) == EXIT_USAGE


def test_train_without_manifests_is_data_error(dataset_path, tmp_path):
    out = str(tmp_path / "runs")
    assert main(train_args(dataset_path, out)) == EXIT_DATA


def test_evaluate_without_manifests_names_split(dataset_path, tmp_path, capsys):
    out = str(tmp_path / "runs")
    code = main(["evaluate"] + base_args(dataset_path, out) + ["--run", str(tmp_path / "run")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "fold manifests missing at" in err and "run split first" in err


def test_train_evaluate_cycle(dataset_path, tmp_path):
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    assert main(train_args(dataset_path, out)) == EXIT_OK

    run_dir = next(p for p in os.listdir(out) if "mlp-gn" in p)
    run_path = os.path.join(out, run_dir)
    assert os.path.isfile(os.path.join(run_path, "config"))
    assert os.path.isfile(os.path.join(run_path, "checkpoints", "final.npz"))
    assert os.path.isfile(os.path.join(run_path, "embeddings.npy"))
    assert os.path.isfile(os.path.join(run_path, "logs", "epochs.csv"))
    config = json.load(open(os.path.join(run_path, "config")))
    assert config["model"]["variant"] == "mlp-gn"

    code = main(["evaluate"] + base_args(dataset_path, out)
                + ["--run", run_path, "--k", "5"])
    assert code == EXIT_OK
    assert os.path.isfile(os.path.join(run_path, "reports", "metrics.csv"))


def test_final_checkpoint_rebuilds_embeddings(dataset_path, tmp_path):
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    assert main(train_args(dataset_path, out)) == EXIT_OK
    run_path = os.path.join(out, next(p for p in os.listdir(out) if "mlp-gn" in p))
    ckpt_dir = os.path.join(run_path, "checkpoints")
    assert os.listdir(ckpt_dir) == ["final.npz"]

    # final.npz plus the run's config rebuilds embeddings.npy exactly
    config = json.load(open(os.path.join(run_path, "config")))
    cfg = ModelConfig(**config["model"])
    descriptor = build_descriptor(parse_ratings(dataset_path))
    manifests = os.path.join(out, next(p for p in os.listdir(out) if "folds" in p))
    folds, _ = read_fold_manifests(manifests, config["k_folds"], config["min_interactions"])
    fold = folds[config["fold"]]
    g = build_signed_graph(fold.train, descriptor, config["w_o"])
    z, *_ = forward_tensors(AdjacencySet.build(g, cfg),
                            load_checkpoint(os.path.join(ckpt_dir, "final.npz")), cfg)
    assert z.value.tobytes() == np.load(os.path.join(run_path, "embeddings.npy")).tobytes()


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, expected", [(None, ["1", "1", "1"]),
                                              ("3", ["3", "1", "1"])],
                         ids=["unset", "user-set"])
def test_cli_import_pins_one_blas_thread(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(signrec.__file__))
    code = ("import os, signrec.cli; "
            f"print(' '.join(os.environ[v] for v in {_THREAD_VARS!r}))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == expected


@pytest.mark.parametrize("threads, expected", [("1", EXIT_OK), ("2", EXIT_USAGE)])
def test_threads_without_threadpoolctl(dataset_path, tmp_path, monkeypatch, capsys, caplog,
                                       threads, expected):
    # a thread count the pinned variables already give is honoured silently;
    # any other needs threadpoolctl, so it is a usage error
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import raises ImportError
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "1")
    args = ["split"] + base_args(dataset_path, str(tmp_path / "runs")) + ["--threads", threads]
    assert main(args) == expected
    assert ("threadpoolctl" in capsys.readouterr().err) == (expected == EXIT_USAGE)
    assert not [r for r in caplog.records if "thread" in r.getMessage()]


def test_threads_with_threadpoolctl_limit_its_pools(dataset_path, tmp_path, monkeypatch):
    calls = []
    fake = types.ModuleType("threadpoolctl")
    fake.threadpool_limits = lambda **kwargs: calls.append(kwargs)
    monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
    args = ["split"] + base_args(dataset_path, str(tmp_path / "runs")) + ["--threads", "2"]
    assert main(args) == EXIT_OK
    assert calls == [{"limits": 2}]


@pytest.mark.parametrize("target", ["dataset", "out"])
def test_os_error_is_a_data_error_naming_the_path(dataset_path, tmp_path, capsys, target):
    # a directory where the dataset file belongs, or a file where the output
    # directory belongs
    path = tmp_path / target
    if target == "dataset":
        path.mkdir()
        args = ["--dataset", str(path), "--folds", "3", "--out", str(tmp_path / "runs")]
    else:
        path.write_text("")
        args = base_args(dataset_path, str(path))
    assert main(["split"] + args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("row", ["0\tu1\ti1\tx\t5", "0\tu1\ti1\t4\tt", "0\tu1"])
def test_bad_manifest_row_names_file_and_line(dataset_path, tmp_path, capsys, row):
    out = tmp_path / "runs"
    assert main(["split"] + base_args(dataset_path, str(out))) == EXIT_OK
    manifest = next(p for p in out.iterdir() if "folds" in p.name) / "fold1.tsv"
    lines = manifest.read_text().splitlines(keepends=True)
    lines[1] = row + "\n"
    manifest.write_text("".join(lines))
    capsys.readouterr()
    args = ["evaluate"] + base_args(dataset_path, str(out)) + ["--run", str(tmp_path / "run")]
    assert main(args) == EXIT_DATA
    assert f"{manifest}: line 2:" in capsys.readouterr().err


def test_manifest_line_of_another_fold_names_file_and_line(dataset_path, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["split"] + base_args(dataset_path, str(out))) == EXIT_OK
    manifest = next(p for p in out.iterdir() if "folds" in p.name) / "fold1.tsv"
    lines = manifest.read_text().splitlines(keepends=True)
    assert lines[1].startswith("1\t")
    lines[1] = "7" + lines[1][1:]
    manifest.write_text("".join(lines))
    run = tmp_path / "run"  # a run that evaluates but for the manifest
    (run / "reports").mkdir(parents=True)
    (run / "config").write_text(json.dumps({"fold": 0}))
    descriptor = build_descriptor(parse_ratings(dataset_path))
    np.save(run / "embeddings.npy", np.zeros((descriptor.num_users + descriptor.num_items, 8)))
    capsys.readouterr()
    args = ["evaluate"] + base_args(dataset_path, str(out)) + ["--run", str(run)]
    assert main(args) == EXIT_DATA
    assert f"{manifest}: line 2: fold column '7'" in capsys.readouterr().err


@pytest.mark.parametrize("rating", ["x", "7"])
def test_bad_dataset_row_names_file_and_line(tmp_path, capsys, rating):
    path = tmp_path / "bad.tsv"
    path.write_text(f"1\t1\t4\t0\n2\t1\t{rating}\t0\n")
    assert main(["split", "--dataset", str(path), "--folds", "2",
                 "--out", str(tmp_path / "runs")]) == EXIT_DATA
    assert f"{path}: line 2:" in capsys.readouterr().err


def test_dataset_not_utf8_is_data_error_naming_it(tmp_path, capsys):
    path = tmp_path / "latin.tsv"
    path.write_bytes(b"1\t1\t4\t0\n2\tcaf\xe9\t3\t0\n")
    assert main(["split", "--dataset", str(path), "--folds", "2",
                 "--out", str(tmp_path / "runs")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: not UTF-8 text ("), err


def test_manifest_not_utf8_is_data_error_naming_it(dataset_path, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["split"] + base_args(dataset_path, str(out))) == EXIT_OK
    manifest = next(p for p in out.iterdir() if "folds" in p.name) / "fold1.tsv"
    manifest.write_bytes(manifest.read_bytes().replace(b"\t", b"\xe9\t", 1))
    capsys.readouterr()
    for args in (train_args(dataset_path, str(out)),
                 ["evaluate"] + base_args(dataset_path, str(out)) + ["--run", str(tmp_path)]):
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {manifest}: not UTF-8 text ("), err
    assert [p.name for p in out.iterdir()] == [manifest.parent.name]


def test_variant_tags_run_directory(dataset_path, tmp_path):
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    assert main(train_args(dataset_path, out, variant="no-gn", epochs=1)) == EXIT_OK
    assert any("no-gn" in p for p in os.listdir(out))


def test_baseline_mode_flags(dataset_path, tmp_path):
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    args = train_args(dataset_path, out, variant="no-gn", loss="standard-bpr", epochs=1)
    args.append("--positive-only")
    assert main(args) == EXIT_OK
    run_dir = next(p for p in os.listdir(out) if "posonly" in p)
    config = json.load(open(os.path.join(out, run_dir, "config")))
    assert config["training"]["loss"] == "standard-bpr"
    assert config["training"]["positive_edges_only"] is True


def test_reproducible_runs_bitwise(dataset_path, tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out_a, out_b):
        assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
        assert main(train_args(dataset_path, out) + ["--threads", "1"]) == EXIT_OK
    run_a = next(p for p in os.listdir(out_a) if "mlp-gn" in p)
    log_a = open(os.path.join(out_a, run_a, "logs", "epochs.csv"), "rb").read()
    log_b = open(os.path.join(out_b, run_a, "logs", "epochs.csv"), "rb").read()
    assert log_a == log_b
    emb_a = np.load(os.path.join(out_a, run_a, "embeddings.npy"))
    emb_b = np.load(os.path.join(out_b, run_a, "embeddings.npy"))
    assert np.array_equal(emb_a, emb_b)


def test_config_file_with_flag_override(dataset_path, tmp_path):
    out = str(tmp_path / "runs")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        f"dataset = {dataset_path}\nfolds = 3\nseed = 11\nout = {out}\n"
        "dim = 8\nlayers = 2\nn-neg = 2\nepochs = 2\nbatch-size = 128\n"
        "lambda-reg = 0.01\n# comment line\n")
    assert main(["--config", str(cfg_file), "split"]) == EXIT_OK
    # flag overrides file value
    assert main(["--config", str(cfg_file), "train", "--fold", "0", "--epochs", "1"]) == EXIT_OK
    run_dir = next(p for p in os.listdir(out) if "mlp-gn" in p)
    text = open(os.path.join(out, run_dir, "config")).read()
    config = json.loads(text)
    assert config["training"]["epochs"] == 1
    assert config["model"]["dim"] == 8
    # every default, as its own dataclass declares it, byte for byte
    expected = {
        "dataset": dataset_path, "fold": 0, "format": "tsv", "k_folds": 3, "ks": [5, 10, 15],
        "min_interactions": 0, "out": out, "seed": 11, "threads": 1, "w_o": 3.5,
        "model": {"attn_dim": 64, "backbone": "lightgcn", "dim": 8, "dropout_p": 0.5,
                  "gnn_layers": 2, "leaky_relu_alpha": 0.1, "mlp_layers": 2,
                  "variant": "mlp-gn"},
        "training": {"batch_size": 128, "c": 2.0, "epochs": 1, "lambda_reg": 0.01,
                     "learning_rate": 0.005, "loss": "sign-aware-bpr", "n_neg": 2,
                     "positive_edges_only": False, "seed": 11},
    }
    assert text == json.dumps(expected, indent=2, sort_keys=True)


def test_config_file_positive_only(dataset_path, tmp_path):
    out = str(tmp_path / "runs")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"dataset = {dataset_path}\nfolds = 3\nseed = 11\nout = {out}\n"
                        "variant = no-gn\nloss = standard-bpr\npositive-only = true\n"
                        "dim = 8\nlayers = 2\nn-neg = 2\nepochs = 1\n")
    assert main(["--config", str(cfg_file), "split"]) == EXIT_OK
    assert main(["--config", str(cfg_file), "train"]) == EXIT_OK
    run_dir = next(p for p in os.listdir(out) if "posonly" in p)
    config = json.load(open(os.path.join(out, run_dir, "config")))
    assert config["training"]["positive_edges_only"] is True


@pytest.mark.parametrize("variant", ["no-split", "gnn-gn"])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_positive_only_without_a_negative_path_is_usage_error(dataset_path, tmp_path, capsys,
                                                              variant, source):
    out = tmp_path / "runs"
    assert main(["split"] + base_args(dataset_path, str(out))) == EXIT_OK
    if source == "flags":
        args = train_args(dataset_path, str(out), variant=variant) + ["--positive-only"]
    else:
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(f"variant = {variant}\npositive-only = true\n")
        args = ["--config", str(cfg_file)] + train_args(dataset_path, str(out))
    capsys.readouterr()
    assert main(args) == EXIT_USAGE
    assert f"--positive-only leaves no negative edge for --variant {variant}" in \
        capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["toy-folds-k3-seed11"]


def test_config_file_threads_reach_thread_limit(dataset_path, tmp_path, monkeypatch):
    from signrec import cli
    limits = []
    monkeypatch.setattr(cli, "_set_threads", limits.append)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"dataset = {dataset_path}\nfolds = 3\nthreads = 2\n"
                        f"out = {tmp_path / 'runs'}\n")
    assert main(["--config", str(cfg_file), "split"]) == EXIT_OK
    assert main(["--config", str(cfg_file), "split", "--force", "--threads", "1"]) == EXIT_OK
    assert limits == [2, 1]


@pytest.mark.parametrize("line", ["bogus = 1", "k_folds = 3", "positive-only = maybe",
                                  "dim = eight", "k = 5,x", "format = csv"])
def test_config_file_unknown_key_or_bad_value_is_usage_error(dataset_path, tmp_path, line):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"dataset = {dataset_path}\nout = {tmp_path / 'runs'}\n{line}\n")
    assert main(["--config", str(cfg_file), "split"]) == EXIT_USAGE
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("flags", [
    ["--fold", "-1"], ["--fold", "3"], ["--epochs", "0"], ["--batch-size", "0"],
    ["--n-neg", "0"], ["--c", "0.5"], ["--dim", "0"], ["evaluate", "--k", "0"],
    ["--lr", "-1"], ["--lr", "0"], ["--lr", "nan"], ["--lr", "inf"], ["--lambda-reg", "-1"],
    ["--w-o", "9"], ["--w-o", "5"], ["--w-o", "1"], ["--w-o", "0"], ["--checkpoint-every", "1"],
    ["--min-interactions", "-1"], ["--c", "nan"], ["--c", "inf"],
    ["--folds", "1"], ["evaluate", "--folds", "1"],
])
def test_flags_that_cannot_work_are_usage_errors(dataset_path, tmp_path, flags):
    # a case that starts with "evaluate" runs evaluate, every other one train
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    if flags[0] == "evaluate":
        args, flags = ["evaluate"] + base_args(dataset_path, out) + ["--run", out], flags[1:]
    else:
        args = train_args(dataset_path, out)
    assert main(args + flags) == EXIT_USAGE


def test_config_file_sets_every_key_at_its_field(tmp_path, dataset_path, monkeypatch, capsys):
    from signrec import cli
    limits = []
    monkeypatch.setattr(cli, "_set_threads", limits.append)
    dat = tmp_path / "toy.dat"
    dat.write_text(open(dataset_path).read().replace("\t", "::"))
    out = tmp_path / "runs"
    cfg_file = tmp_path / "exp.cfg"
    # every key at a value other than its default, written with '-' and '_' alike
    cfg_file.write_text(
        f"dataset = {dat}\nformat = movielens-dat\nmin-interactions = 1\nfolds = 3\n"
        f"seed = 11\nthreads = 2\nout = {out}\nw_o = 3.0\nbackbone = ngcf\n"
        "variant = no-gn\nloss = standard-bpr\npositive_only = yes\nlayers = 2\n"
        "dim = 8\nn_neg = 3\nc = 2.5\nlambda-reg = 0.02\nlr = 0.01\nbatch_size = 64\n"
        "epochs = 2\nk = 10,3\n")
    assert main(["--config", str(cfg_file), "split"]) == EXIT_OK
    assert main(["--config", str(cfg_file), "train"]) == EXIT_OK
    run_dir = out / "toy-ngcf-no-gn-posonly-fold0-seed11"
    config = json.load(open(run_dir / "config"))
    assert {key: config[key] for key in ("dataset", "format", "min_interactions", "k_folds",
                                         "seed", "threads", "out", "w_o", "ks")} == {
        "dataset": str(dat), "format": "movielens-dat", "min_interactions": 1, "k_folds": 3,
        "seed": 11, "threads": 2, "out": str(out), "w_o": 3.0, "ks": [3, 10]}
    assert {key: config["model"][key] for key in ("backbone", "variant", "gnn_layers",
                                                  "dim")} == {
        "backbone": "ngcf", "variant": "no-gn", "gnn_layers": 2, "dim": 8}
    assert {key: config["training"][key] for key in (
        "loss", "positive_edges_only", "n_neg", "c", "lambda_reg", "learning_rate",
        "batch_size", "epochs")} == {
        "loss": "standard-bpr", "positive_edges_only": True, "n_neg": 3, "c": 2.5,
        "lambda_reg": 0.02, "learning_rate": 0.01, "batch_size": 64, "epochs": 2}
    capsys.readouterr()
    assert main(["--config", str(cfg_file), "evaluate", "--run", str(run_dir)]) == EXIT_OK
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()[3:]] == ["3", "10"]
    assert limits == [2, 2, 2]


def _option_strings(parser) -> list:
    return sorted(s for action in parser._actions for s in action.option_strings)


def test_each_command_takes_exactly_its_flags():
    split_train_evaluate = ["--dataset", "--folds", "--min-interactions", "--out", "--seed",
                            "--threads"]
    expected = {
        "split": ["--force", "--format"],
        "train": ["--backbone", "--batch-size", "--c", "--dim", "--epochs", "--fold",
                  "--lambda-reg", "--layers", "--loss", "--lr", "--n-neg", "--positive-only",
                  "--variant", "--w-o"],
        "evaluate": ["--groups", "--k", "--run"],
    }
    parser = build_parser()
    assert _option_strings(parser) == ["--config", "--help", "-h"]
    commands = parser._subparsers._group_actions[0].choices
    assert list(commands) == ["split", "train", "evaluate", "diagnose"]
    assert _option_strings(commands["diagnose"]) == ["--help", "-h"]
    for name, own in expected.items():
        assert _option_strings(commands[name]) == sorted(
            split_train_evaluate + own + ["--help", "-h"]), name


def test_config_file_value_may_hold_a_hash(dataset_path, tmp_path):
    # only a line whose first non-blank character is '#' is a comment
    out = tmp_path / "runs#2"
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"# split settings\ndataset = {dataset_path}\n  # folds = 7\n"
                        f"folds = 3\nout = {out}\n")
    assert main(["--config", str(cfg_file), "split"]) == EXIT_OK
    assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "runs#2"]
    assert sorted(os.listdir(out / "toy-folds-k3-seed0")) \
        == ["fold0.tsv", "fold1.tsv", "fold2.tsv", "nodes.json"]

def test_config_file_not_utf8_is_data_error_naming_it(dataset_path, tmp_path, capsys):
    cfg_file = tmp_path / "latin.cfg"
    cfg_file.write_bytes(f"dataset = {dataset_path}\nout = {tmp_path / 'runs'}\n"
                         "# caf\xe9\n".encode("latin-1"))
    assert main(["--config", str(cfg_file), "split"]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: {cfg_file}: not UTF-8 text")
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("lines, key", [
    ("seed = 1\nseed = 2", "seed"), ("n-neg = 3\nn_neg = 4", "n_neg")])
def test_config_file_repeated_key_is_usage_error_naming_it(dataset_path, tmp_path, capsys,
                                                          lines, key):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"dataset = {dataset_path}\nout = {tmp_path / 'runs'}\n{lines}\n")
    assert main(["--config", str(cfg_file), "split"]) == EXIT_USAGE
    assert f"config key {key} is set twice" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


def test_evaluate_rejects_non_finite_embeddings(dataset_path, tmp_path, capsys):
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    assert main(train_args(dataset_path, out, epochs=1)) == EXIT_OK
    run_path = os.path.join(out, next(p for p in os.listdir(out) if "mlp-gn" in p))
    emb_path = os.path.join(run_path, "embeddings.npy")
    embeddings = np.load(emb_path)
    embeddings[3, 1] = np.nan
    np.save(emb_path, embeddings)
    code = main(["evaluate"] + base_args(dataset_path, out) + ["--run", run_path])
    assert code == EXIT_DATA
    assert "in 1 row(s)" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(run_path, "reports", "metrics.csv"))


def test_evaluate_accepts_float32_embeddings(dataset_path, tmp_path, capsys):
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    assert main(train_args(dataset_path, out, epochs=1)) == EXIT_OK
    run_path = os.path.join(out, next(p for p in os.listdir(out) if "mlp-gn" in p))
    emb_path = os.path.join(run_path, "embeddings.npy")
    np.save(emb_path, np.load(emb_path).astype(np.float32))
    assert main(["evaluate"] + base_args(dataset_path, out) + ["--run", run_path]) == EXIT_OK
    assert os.path.exists(os.path.join(run_path, "reports", "metrics.csv"))


@pytest.mark.parametrize("fold", [7, None, -1, "0"],
                         ids=["past-last", "missing", "negative", "string"])
def test_evaluate_rejects_run_config_fold(dataset_path, tmp_path, capsys, fold):
    # a fold past the split, a missing one, a negative one and a string
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    assert main(train_args(dataset_path, out, epochs=1)) == EXIT_OK
    run_path = os.path.join(out, next(p for p in os.listdir(out) if "mlp-gn" in p))
    config_path = os.path.join(run_path, "config")
    config = json.load(open(config_path))
    if fold is None:
        del config["fold"]
    else:
        config["fold"] = fold
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    code = main(["evaluate"] + base_args(dataset_path, out) + ["--run", run_path])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert run_path in err and "fold" in err
    assert not os.path.exists(os.path.join(run_path, "reports", "metrics.csv"))


def _empty(path):
    open(path, "wb").close()


def _truncated(path):
    data = open(path, "rb").read()
    open(path, "wb").write(data[:40])  # inside the header


def _bad_json(path):
    text = open(path).read()
    open(path, "w").write(text.replace(",", "", 1))


def _one_dimensional(path):
    np.save(path, np.load(path)[:, 0])


def _as_dtype(dtype):
    def damage(path):
        np.save(path, np.load(path).astype(dtype))
    return damage


@pytest.mark.parametrize("name, damage, says", [
    ("embeddings.npy", _empty, "not an embeddings array"),
    ("embeddings.npy", _truncated, "not an embeddings array"),
    ("config", _bad_json, "not a run config"),
    ("embeddings.npy", os.remove, "training did not finish"),
    ("embeddings.npy", _one_dimensional, "a (48,) array"),
    ("config", lambda path: open(path, "w").write("[]"), "not a run config"),
    ("embeddings.npy", _as_dtype(np.int64), "int64 values"),
    ("embeddings.npy", _as_dtype(bool), "bool values"),
    ("embeddings.npy", _as_dtype(np.complex128), "complex128 values"),
], ids=["empty-embeddings", "truncated-embeddings", "bad-json-config", "missing-embeddings",
        "1d-embeddings", "config-not-an-object", "int-embeddings", "bool-embeddings",
        "complex-embeddings"])
def test_evaluate_bad_run_file_is_data_error_naming_it(dataset_path, tmp_path, capsys,
                                                       name, damage, says):
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    assert main(train_args(dataset_path, out, epochs=1)) == EXIT_OK
    run_path = os.path.join(out, next(p for p in os.listdir(out) if "mlp-gn" in p))
    path = os.path.join(run_path, name)
    damage(path)
    capsys.readouterr()
    code = main(["evaluate"] + base_args(dataset_path, out) + ["--run", run_path])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}") and says in err, err
    assert not os.path.exists(os.path.join(run_path, "reports", "metrics.csv"))


def test_read_config_file_rejects_bad_line(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value pair\n")
    with pytest.raises(Exception):
        read_config_file(str(bad))


def test_diagnose_passes_on_fresh_checkout(capsys):
    assert main(["diagnose"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3
    assert "max relative error" in out


def test_diagnose_detects_injected_gradient_bug(capsys, monkeypatch):
    def dropped(grad, value, lambda_reg, out=None):
        return grad if grad is not None else np.zeros_like(value)

    # swap the function's code, so every caller sees the mutation
    monkeypatch.setattr(penalized_gradient, "__code__", dropped.__code__)
    assert main(["diagnose"]) == EXIT_NUMERICAL
    assert "[FAIL] gradient-check" in capsys.readouterr().out


def test_no_command_reaches_the_record_path(dataset_path, tmp_path, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a command went through RatingRecords")

    monkeypatch.setattr(Ratings, "from_records", unreachable)
    monkeypatch.setattr(Ratings, "__iter__", unreachable)
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    assert main(train_args(dataset_path, out)) == EXIT_OK
    run_path = os.path.join(out, next(p for p in os.listdir(out) if "mlp-gn" in p))
    argv = ["evaluate"] + base_args(dataset_path, out) + ["--run", run_path, "--groups"]
    assert main(argv) == EXIT_OK
    assert main(["diagnose"]) == EXIT_OK


def test_training_with_no_triples_is_data_error(tmp_path, capsys):
    # one user: in every fold it rates every item that has a training rating
    path = tmp_path / "one.tsv"
    path.write_text("".join(f"1\t{i}\t{r}\t0\n" for i, r in enumerate([5, 1, 4, 2])))
    out = tmp_path / "runs"
    args = ["--dataset", str(path), "--folds", "2", "--out", str(out)]
    assert main(["split"] + args) == EXIT_OK
    capsys.readouterr()
    assert main(["train"] + args + ["--epochs", "1"]) == EXIT_DATA
    assert "no training triples" in capsys.readouterr().err
    assert not list(out.rglob("epochs.csv"))


def _one_user_split(tmp_path):
    """A split of one user's four ratings, as in the no-triples test; the train args."""
    path = tmp_path / "one.tsv"
    path.write_text("".join(f"1\t{i}\t{r}\t0\n" for i, r in enumerate([5, 1, 4, 2])))
    out = tmp_path / "runs"
    args = ["--dataset", str(path), "--folds", "2", "--out", str(out)]
    assert main(["split"] + args) == EXIT_OK
    return out, ["train"] + args + ["--epochs", "1"]


def test_failed_training_leaves_no_run_directory(dataset_path, tmp_path):
    out, args = _one_user_split(tmp_path)
    before = sorted(p.name for p in out.iterdir())
    assert main(args) == EXIT_DATA    # no training triples
    assert sorted(p.name for p in out.iterdir()) == before

    runs = tmp_path / "diverged"
    assert main(["split"] + base_args(dataset_path, str(runs))) == EXIT_OK
    before = sorted(p.name for p in runs.iterdir())
    with np.errstate(all="ignore"):
        assert main(train_args(dataset_path, str(runs), lr="1e200")) == EXIT_NUMERICAL
    assert sorted(p.name for p in runs.iterdir()) == before


def test_failed_training_keeps_an_existing_run_directory(tmp_path):
    out, args = _one_user_split(tmp_path)
    cfg = ExperimentConfig(dataset=str(tmp_path / "one.tsv"), out=str(out))
    run_dir = out / os.path.basename(run_dir_name(cfg, 0))
    (run_dir / "logs").mkdir(parents=True)
    (run_dir / "logs" / "notes.txt").write_text("earlier run\n")
    assert main(args) == EXIT_DATA
    assert [p.relative_to(run_dir).as_posix() for p in sorted(run_dir.rglob("*"))] \
        == ["logs", "logs/notes.txt"]
    assert (run_dir / "logs" / "notes.txt").read_text() == "earlier run\n"


def test_manifests_of_another_filtering_are_data_errors(dataset_path, tmp_path, capsys):
    # split without --min-interactions; a user and an item rated once then
    # drop out of the dataset that --min-interactions 2 loads
    path = tmp_path / "toy.tsv"
    path.write_text(open(dataset_path).read() + "999\t998\t5\t0\n")
    out = tmp_path / "runs"
    args = base_args(str(path), str(out))
    assert main(["split"] + args) == EXIT_OK
    manifests = next(p for p in out.iterdir() if "folds" in p.name)
    holder = next(f for f in range(3) if "999\t998" in (manifests / f"fold{f}.tsv").read_text())
    filtered = build_descriptor(filter_min_interactions(parse_ratings(str(path)), 2))
    assert "999" not in filtered.user_index and "998" not in filtered.item_index

    capsys.readouterr()
    fold = (holder + 1) % 3  # a fold whose training records hold the pair
    code = main(train_args(str(path), str(out), fold=fold) + ["--min-interactions", "2"])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert str(manifests) in err
    assert "--min-interactions 0" in err and "--min-interactions 2" in err

    run = tmp_path / "run"
    run.mkdir()
    (run / "config").write_text(json.dumps({"fold": holder}))
    np.save(run / "embeddings.npy", np.zeros((filtered.num_users + filtered.num_items, 8)))
    code = main(["evaluate"] + args + ["--min-interactions", "2", "--run", str(run)])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert str(manifests) in err
    assert "--min-interactions 0" in err and "--min-interactions 2" in err


@pytest.mark.parametrize("command, flag", [
    ("train", ["--format", "tsv"]), ("evaluate", ["--format", "tsv"]),
    ("split", ["--w-o", "4"]), ("evaluate", ["--w-o", "4"]),
    ("diagnose", ["--inject-gradient-bug", "0.5"]),
], ids=["train-format", "evaluate-format", "split-w-o", "evaluate-w-o",
        "diagnose-inject-gradient-bug"])
def test_flag_that_the_command_does_not_read_is_usage_error(dataset_path, tmp_path, capsys,
                                                            command, flag):
    out = tmp_path / "runs"
    argv = {"split": ["split"] + base_args(dataset_path, str(out)),
            "train": train_args(dataset_path, str(out)),
            "evaluate": ["evaluate"] + base_args(dataset_path, str(out))
            + ["--run", str(tmp_path / "run")],
            "diagnose": ["diagnose"]}[command]
    assert main(argv + flag) == EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_movielens_dat_split_serves_train_and_evaluate_without_a_format(dataset_path,
                                                                       tmp_path):
    dat = tmp_path / "dat" / "toy.dat"
    dat.parent.mkdir()
    dat.write_text(open(dataset_path).read().replace("\t", "::"))
    manifests = "toy-folds-k3-seed11"
    assert main(["split"] + base_args(dataset_path, str(tmp_path / "tsv"))) == EXIT_OK
    want = {p.name: p.read_bytes() for p in (tmp_path / "tsv" / manifests).iterdir()}

    assert main(["split"] + base_args(str(dat), str(tmp_path / "flag"))
                + ["--format", "movielens-dat"]) == EXIT_OK
    out = tmp_path / "runs"
    config = tmp_path / "shared.cfg"
    config.write_text(f"dataset = {dat}\nfolds = 3\nseed = 11\nout = {out}\n"
                      "format = movielens-dat\nw-o = 3.5\ndim = 8\nlayers = 2\nn-neg = 2\n"
                      "epochs = 1\nbatch-size = 128\n")
    assert main(["--config", str(config), "split"]) == EXIT_OK
    for split_out in (tmp_path / "flag", out):
        assert {p.name: p.read_bytes() for p in (split_out / manifests).iterdir()} == want

    assert main(["--config", str(config), "train"]) == EXIT_OK
    run = next(p for p in out.iterdir() if "mlp-gn" in p.name)
    assert json.loads((run / "config").read_text())["format"] == "movielens-dat"
    assert main(["--config", str(config), "evaluate", "--run", str(run)]) == EXIT_OK
    assert (run / "reports" / "metrics.csv").is_file()


def test_movielens_dat_id_holding_a_tab_is_refused_before_writing(dataset_path, tmp_path,
                                                                  capsys):
    # a manifest is tab-separated, so such an id would give a split that its own reader refuses
    lines = open(dataset_path).read().replace("\t", "::").splitlines(keepends=True)
    lines[4] = "a\tb" + lines[4][lines[4].index("::"):]
    dat = tmp_path / "toy.dat"
    dat.write_text("".join(lines))
    out = tmp_path / "runs"
    argv = ["split"] + base_args(str(dat), str(out)) + ["--format", "movielens-dat"]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == (f"data error: {dat}: line 5: user id 'a\\tb' holds a "
                                       "tab, which a fold manifest cannot hold\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, says", [
    ("--seed", "12", "--seed 11, not --seed 12"),
    ("--folds", "4", "--folds 3, not --folds 4"),
    ("--min-interactions", "1", "--min-interactions 0, not --min-interactions 1"),
    ("--dataset", "other.tsv", "dataset stem 'toy', not dataset stem 'other'"),
], ids=["seed", "folds", "min-interactions", "dataset-stem"])
def test_evaluate_rejects_a_run_of_another_split(dataset_path, tmp_path, capsys,
                                                 flag, value, says):
    # the other split exists and has as many nodes, so only the run config tells
    out = tmp_path / "runs"
    if flag == "--dataset":
        value = str(tmp_path / value)
        with open(value, "wb") as fh:
            fh.write(open(dataset_path, "rb").read())
    assert main(["split"] + base_args(dataset_path, str(out))) == EXIT_OK
    assert main(train_args(dataset_path, str(out), epochs=1)) == EXIT_OK
    run = next(p for p in out.iterdir() if "mlp-gn" in p.name)
    other = base_args(dataset_path, str(out)) + [flag, value]
    assert main(["split"] + other + ["--force"]) == EXIT_OK
    capsys.readouterr()
    assert main(["evaluate"] + other + ["--run", str(run)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(run) in err and says in err, err
    assert not (run / "reports" / "metrics.csv").exists()


@pytest.mark.parametrize("threshold", [0, 2])
def test_split_rejects_a_repeated_pair_before_writing(dataset_path, tmp_path, capsys,
                                                      threshold):
    lines = open(dataset_path).read().splitlines(keepends=True)
    user, item = lines[3].split("\t")[:2]
    path = tmp_path / "toy.tsv"
    path.write_text("".join(lines) + f"{user}\t{item}\t1\t0\n")
    out = tmp_path / "runs"
    argv = ["split"] + base_args(str(path), str(out)) + ["--min-interactions", str(threshold)]
    assert main(argv) == EXIT_DATA
    assert f"repeated interaction ({user}, {item})" in capsys.readouterr().err
    assert not out.exists()


def test_split_checks_repeats_after_the_filter(dataset_path, tmp_path):
    # a user and an item rated only by each other, twice: --min-interactions 3 drops both
    path = tmp_path / "toy.tsv"
    path.write_text(open(dataset_path).read() + "999\t998\t5\t0\n999\t998\t1\t0\n")
    out = tmp_path / "runs"
    argv = ["split"] + base_args(str(path), str(out))
    assert main(argv) == EXIT_DATA
    assert main(argv + ["--min-interactions", "3"]) == EXIT_OK
    index = json.loads((out / "toy-folds-k3-seed11" / "nodes.json").read_text())
    assert "999" not in index["users"] and "998" not in index["items"]
