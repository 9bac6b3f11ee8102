"""The benchmark's tracer against the current program.

``bench/tracing.py`` patches signrec's functions by name; a target that no
longer exists is skipped, and the per-layer metrics that need it drop out
of a traced run's result. These tests run the tracer over a tiny training
and evaluation, so a rename in ``src/`` that the benchmark still names
fails here, not in a benchmark run.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from signrec import evaluate, train
from signrec.graph import build_signed_graph
from signrec.model import ModelConfig

from helpers import random_records, toy_descriptor

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
        truth = {u: {int(v) for v in g.items[g.users == u][:2]} for u in range(3)}
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
    path and 2 without one."""
    for variant, count in (("mlp-gn", 4), ("gnn-gn", 4), ("no-gn", 2)):
        cfg = ModelConfig(backbone=backbone, variant=variant, dim=4, gnn_layers=2, attn_dim=3)
        metrics, _ = traced_training(tracing, cfg).layer_metrics()
        assert metrics["autodiff.tensors_per_step"][0] == count, variant
