"""The benchmark's tracer against the current program.

``bench/tracing.py`` patches signrec's functions by name; a target that no
longer exists is skipped, and the per-layer metrics that need it drop out
of a traced run's result. These tests run the tracer over a tiny training
and evaluation, so a rename in ``src/`` that the benchmark still names
fails here, not in a benchmark run.
"""
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from signrec import cli, evaluate, train
from signrec.graph import build_signed_graph
from signrec.model import ModelConfig

from helpers import latent_factor_dataset, random_records, toy_descriptor

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing
    return tracing


def tiny_graph():
    records = random_records(np.random.default_rng(3), 8, 9, 40)
    return build_signed_graph(records, toy_descriptor(8, 9), 3.5)


def traced_training(tracing, cfg):
    """Train ``cfg`` for one epoch and evaluate it under a tracer."""
    g = tiny_graph()
    tcfg = train.TrainConfig(n_neg=2, lambda_reg=0.05, batch_size=16, epochs=1)
    tracer = tracing.Tracer("test")
    with tracer.installed():
        result = train.train(g, cfg, tcfg)
        truth = {u: g.items[g.users == u][:2] for u in range(3)}
        evaluate.evaluate(result.embeddings, g.num_users, truth, {}, (5,))
    return tracer


def test_every_trace_target_exists_and_every_metric_is_reported(tracing):
    tracer = traced_training(tracing, ModelConfig(dim=4, gnn_layers=2, attn_dim=3))
    metrics, absent = tracer.layer_metrics()
    assert tracer.missing == []
    assert absent == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # the run adds these two to the tracer's table
    assert set(metrics) | {"train.triples_per_s", "trace.overhead_s"} \
        == {m["name"] for m in declared}


@pytest.mark.parametrize("backbone", ["lightgcn", "lrgccf", "ngcf"])
def test_tensors_per_training_step(tracing, backbone):
    """Propagation, the MLP, the attention and the loss are one tape op each,
    and nothing else is on the tape: a step makes 4 tensors with a negative
    path and 2 without one. A run builds one adjacency per GNN path."""
    for variant, count, adjacencies in (("mlp-gn", 4, 1), ("gnn-gn", 4, 2), ("no-gn", 2, 1),
                                        ("no-split", 2, 1)):
        cfg = ModelConfig(backbone=backbone, variant=variant, dim=4, gnn_layers=2, attn_dim=3)
        tracer = traced_training(tracing, cfg)
        metrics, _ = tracer.layer_metrics()
        assert metrics["autodiff.tensors_per_step"][0] == count, variant
        assert sum(s.name == "graph.adjacency" for s in tracer.spans) == adjacencies, variant


def test_split_and_evaluate_reach_the_data_layer_trace_targets(tracing, tmp_path):
    """`signrec split` then `signrec evaluate` at desk size, as the
    ml1m-evaluate workload runs them: the parse, the manifest read and the
    truth and exclusion sets each report time, and the parse counts every
    rating line once: `split` parses the ratings, and `evaluate` reads the
    node index the split wrote in their place."""
    records = latent_factor_dataset(seed=2)
    dataset = tmp_path / "desk.tsv"
    dataset.write_text("".join(f"{r.user_id}\t{r.item_id}\t{int(r.rating)}\t{r.timestamp}\n"
                               for r in records))
    users = len({r.user_id for r in records})
    items = len({r.item_id for r in records})
    common = ["--dataset", str(dataset), "--folds", "5", "--seed", "3",
              "--out", str(tmp_path / "out")]
    run = tmp_path / "run"
    (run / "reports").mkdir(parents=True)
    (run / "config").write_text(json.dumps({"fold": 1}))
    np.save(run / "embeddings.npy",
            np.random.default_rng(0).standard_normal((users + items, 8)))
    tracer = tracing.Tracer("test")
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["split", *common]) == cli.EXIT_OK
        assert cli.main(["evaluate", *common, "--run", str(run), "--k", "10"]) == cli.EXIT_OK
    metrics, absent = tracer.layer_metrics()
    assert tracer.missing == [] and absent == []
    for name in ("data.parse_s", "data.parse_lines_per_s", "data.kfold_split_s",
                 "data.manifest_write_s", "data.manifest_read_s", "evaluate.truth_exclude_s",
                 "evaluate.evaluate_s", "cli.split_self_s", "cli.evaluate_self_s"):
        assert metrics[name][0] > 0, name
    assert tracer.counts["parsed_lines"] == len(records)
