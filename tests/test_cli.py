import json
import os

import numpy as np
import pytest

from signrec.cli import (
    EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main, read_config_file,
)

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
    assert files == ["fold0.tsv", "fold1.tsv", "fold2.tsv"]
    total = sum(len(open(os.path.join(out, manifest_dir, f)).readlines()) for f in files)
    assert total == len(open(dataset_path).readlines())

    first = {f: open(os.path.join(out, manifest_dir, f)).read() for f in files}
    assert main(["split"] + base_args(dataset_path, out) + ["--force"]) == EXIT_OK
    second = {f: open(os.path.join(out, manifest_dir, f)).read() for f in files}
    assert first == second


def test_split_refuses_overwrite_without_force(dataset_path, tmp_path):
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_DATA


def test_split_k1_is_usage_error(dataset_path, tmp_path):
    out = str(tmp_path / "runs")
    code = main(["split", "--dataset", dataset_path, "--folds", "1", "--out", out])
    assert code == EXIT_USAGE


def test_missing_subcommand_is_usage_error():
    assert main([]) == EXIT_USAGE


def test_train_without_manifests_is_data_error(dataset_path, tmp_path):
    out = str(tmp_path / "runs")
    assert main(train_args(dataset_path, out)) == EXIT_DATA


def test_train_evaluate_cycle(dataset_path, tmp_path):
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    assert main(train_args(dataset_path, out)) == EXIT_OK

    run_dir = next(p for p in os.listdir(out) if "mlp-gn" in p)
    run_path = os.path.join(out, run_dir)
    assert os.path.isfile(os.path.join(run_path, "config"))
    assert os.path.isfile(os.path.join(run_path, "checkpoints", "final.bin"))
    assert os.path.isfile(os.path.join(run_path, "embeddings.npy"))
    assert os.path.isfile(os.path.join(run_path, "logs", "epochs.csv"))
    config = json.load(open(os.path.join(run_path, "config")))
    assert config["model"]["variant"] == "mlp-gn"

    code = main(["evaluate"] + base_args(dataset_path, out)
                + ["--run", run_path, "--k", "5"])
    assert code == EXIT_OK
    assert os.path.isfile(os.path.join(run_path, "reports", "metrics.csv"))


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
    config = json.load(open(os.path.join(out, run_dir, "config")))
    assert config["training"]["epochs"] == 1
    assert config["model"]["dim"] == 8


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
                                  "dim = eight", "k = 5,x"])
def test_config_file_unknown_key_or_bad_value_is_usage_error(dataset_path, tmp_path, line):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"dataset = {dataset_path}\nout = {tmp_path / 'runs'}\n{line}\n")
    assert main(["--config", str(cfg_file), "split"]) == EXIT_USAGE
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("flags", [
    ["--fold", "-1"], ["--fold", "3"], ["--epochs", "0"], ["--batch-size", "0"],
    ["--n-neg", "0"], ["--c", "0.5"], ["--dim", "0"], ["--k", "0"],
])
def test_flags_that_cannot_work_are_usage_errors(dataset_path, tmp_path, flags):
    out = str(tmp_path / "runs")
    assert main(["split"] + base_args(dataset_path, out)) == EXIT_OK
    if flags[0] == "--k":
        args = ["evaluate"] + base_args(dataset_path, out) + ["--run", out]
    else:
        args = train_args(dataset_path, out)
    assert main(args + flags) == EXIT_USAGE


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


def test_diagnose_detects_injected_gradient_bug(capsys):
    assert main(["diagnose", "--inject-gradient-bug", "0.5"]) == EXIT_NUMERICAL
    assert "[FAIL] gradient-check" in capsys.readouterr().out
