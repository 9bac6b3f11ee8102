"""Spans and counters recorded around signrec's public entry points.

A :class:`Tracer` patches each name where the program looks it up (for
example ``train()`` calls ``signrec.train.forward_tensors``, not
``signrec.model.forward_tensors``) and restores every patch on exit. Spans
carry a name, start, end, parent and run id; they stay in memory until the
run writes them out. A patch target that no longer exists is skipped with a
warning, and every layer metric that depends on it is reported absent.
"""
from __future__ import annotations

import contextlib
import functools
import json
import logging
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from signrec import autodiff, cli, data, evaluate, graph, model, train

log = logging.getLogger("bench.tracing")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class _CountingGenerator:
    """Delegates to a numpy Generator and counts the values ``choice`` draws."""

    def __init__(self, gen, counts: Counter):
        self._gen = gen
        self._counts = counts

    def choice(self, a, size=None, *args, **kwargs):
        self._counts["sample_draws"] += 1 if size is None else int(np.prod(size))
        return self._gen.choice(a, size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _flag(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else (args[position] if len(args) > position else False)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts = Counter()
        self.step_ms: list[float] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []
        self._step_start = None

    # -- recording -------------------------------------------------------
    def _patch(self, module, path: str, make):
        """Replace ``module.path`` (``path`` may name a class attribute)."""
        label = f"{module.__name__}.{path}"
        *parents, attr = path.split(".")
        owner = module
        for name in parents:
            owner = getattr(owner, name, None)
        original = getattr(owner, attr, None)
        if original is None:
            log.warning("trace target %s no longer exists; its layer metrics are absent", label)
            self.missing.append(label)
            return
        replacement = functools.wraps(original)(make(original))
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _wrap(self, module, path: str, span_name: str | None, before=None, after=None):
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                if span_name is None:
                    result = original(*args, **kwargs)
                    span = None
                else:
                    parent = tracer._stack[-1] if tracer._stack else None
                    tracer._stack.append(len(tracer.spans))
                    span = Span(span_name, time.perf_counter(), 0.0, parent, tracer.run_id)
                    tracer.spans.append(span)
                    try:
                        result = original(*args, **kwargs)
                    finally:
                        span.end = time.perf_counter()
                        tracer._stack.pop()
                if after is not None:
                    after(args, kwargs, result, span)
                return result
            return wrapper

        self._patch(module, path, make)

    def _in_step(self) -> bool:
        return self._step_start is not None

    def _step_begin(self, args, kwargs):
        if _flag(args, kwargs, 3, "training") and not self._in_step():
            self._step_start = time.perf_counter()

    def _step_forward(self, args, kwargs, result, span):
        if self._in_step():
            self.counts["step_forward_s"] += span.end - span.start

    def _step_backward(self, args, kwargs, result, span):
        if self._in_step():
            self.counts["step_backward_s"] += span.end - span.start

    def _step_end(self, args, kwargs, result, span):
        if self._in_step():
            self.step_ms.append((time.perf_counter() - self._step_start) * 1e3)
            self._step_start = None

    def _count_tensor(self, args, kwargs, result, span):
        if self._in_step():
            self.counts["step_tensors"] += 1
            self.counts["step_tensor_bytes"] += args[0].value.nbytes

    def _count_spmm(self, args, kwargs):
        if self._in_step():
            self.counts["step_spmm_calls"] += 1

    def _count(self, key, size):
        def after(args, kwargs, result, span):
            self.counts[key] += size(result)
        return after

    def _sampling_streams(self, original):
        counts = self.counts

        def substream(seed, *names):
            gen = original(seed, *names)
            return _CountingGenerator(gen, counts) if names[:1] == ("sampling",) else gen
        return substream

    def install(self) -> None:
        w = self._wrap
        w(data, "parse_ratings", "data.parse", after=self._count("parsed_lines", len))
        w(data, "kfold_split", "data.kfold_split")
        w(data, "write_fold_manifests", "data.manifest_write")
        w(data, "read_fold_manifests", "data.manifest_read")
        w(graph, "build_signed_graph", "graph.build_signed_graph")
        w(model, "normalized_adjacency", "graph.adjacency",
          after=self._count("adjacency_nnz", lambda adj: adj.matrix.nnz))
        w(train, "train", "train.train")
        w(train, "sample_negatives", "train.sample", after=self._count("triples", len))
        self._patch(train, "substream", self._sampling_streams)
        w(train, "sign_aware_bpr_loss", "train.loss")
        w(train, "forward_tensors", "model.forward", before=self._step_begin,
          after=self._step_forward)
        w(train, "Adam.step", "train.adam", after=self._step_end)
        w(model, "propagate", "model.propagate")
        w(model, "mlp_forward", "model.mlp")
        w(model, "attention_fuse", "model.attention")
        w(autodiff, "Tensor.backward", "autodiff.backward", after=self._step_backward)
        w(autodiff, "Tensor.__init__", None, after=self._count_tensor)
        w(autodiff, "spmm", None, before=self._count_spmm)
        w(evaluate, "evaluate", "evaluate.evaluate")
        w(evaluate, "topk_recommend", "evaluate.topk")
        w(evaluate, "ground_truth", "evaluate.truth_exclude")
        w(evaluate, "train_interactions", "evaluate.truth_exclude")
        w(cli, "cmd_split", "cli.split")
        w(cli, "cmd_evaluate", "cli.evaluate")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reporting -------------------------------------------------------
    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run_id": s.run_id}) + "\n")

    def layer_metrics(self) -> tuple[dict, list]:
        """Per-layer metrics as {name: (value, unit)}, and the absent names.

        Times are totals over everything traced. Self time is a span's
        duration minus the time its child spans cover. A metric whose layer
        the workload never reaches reads 0.
        """
        total, calls, child = defaultdict(float), Counter(), defaultdict(float)
        for s in self.spans:
            total[s.name] += s.end - s.start
            calls[s.name] += 1
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        self_time = defaultdict(float)
        for i, s in enumerate(self.spans):
            self_time[s.name] += s.end - s.start - child[i]
        c = self.counts
        steps = len(self.step_ms)
        step_s = sum(self.step_ms) / 1e3

        def ratio(num, den):
            return num / den if den else 0.0

        def pct(q):
            return float(np.percentile(self.step_ms, q)) if steps else 0.0

        D, G, T, M, A = ("signrec.data.", "signrec.graph.", "signrec.train.",
                         "signrec.model.", "signrec.autodiff.")
        E, C = "signrec.evaluate.", "signrec.cli."
        step_needs = [T + "forward_tensors", T + "Adam.step"]
        table = [
            ("data.parse_s", "s", total["data.parse"], [D + "parse_ratings"]),
            ("data.parse_lines_per_s", "lines/s",
             ratio(c["parsed_lines"], total["data.parse"]), [D + "parse_ratings"]),
            ("data.kfold_split_s", "s", total["data.kfold_split"], [D + "kfold_split"]),
            ("data.manifest_write_s", "s", total["data.manifest_write"],
             [D + "write_fold_manifests"]),
            ("data.manifest_read_s", "s", total["data.manifest_read"],
             [D + "read_fold_manifests"]),
            ("graph.build_signed_graph_s", "s", total["graph.build_signed_graph"],
             [G + "build_signed_graph"]),
            ("graph.adjacency_s", "s", total["graph.adjacency"], [M + "normalized_adjacency"]),
            ("graph.adjacency_nnz", "count", c["adjacency_nnz"], [M + "normalized_adjacency"]),
            ("train.sample_s", "s", total["train.sample"], [T + "sample_negatives"]),
            ("train.sample_draws_per_triple", "draws/triple",
             ratio(c["sample_draws"], c["triples"]), [T + "sample_negatives", T + "substream"]),
            ("train.sample_share", "ratio", ratio(total["train.sample"],
                                                  total["train.sample"] + step_s),
             [T + "sample_negatives"] + step_needs),
            ("train.loss_s", "s", total["train.loss"], [T + "sign_aware_bpr_loss"]),
            ("train.adam_s", "s", total["train.adam"], [T + "Adam.step"]),
            ("train.step_ms.p50", "ms", pct(50), step_needs),
            ("train.step_ms.p90", "ms", pct(90), step_needs),
            ("train.steps", "count", steps, step_needs),
            ("model.forward_s", "s", total["model.forward"], [T + "forward_tensors"]),
            ("model.forward_share", "ratio", ratio(c["step_forward_s"], step_s), step_needs),
            ("model.propagate_s", "s", total["model.propagate"], [M + "propagate"]),
            ("model.mlp_s", "s", total["model.mlp"], [M + "mlp_forward"]),
            ("model.attention_s", "s", total["model.attention"], [M + "attention_fuse"]),
            ("autodiff.backward_s", "s", total["autodiff.backward"], [A + "Tensor.backward"]),
            ("autodiff.backward_share", "ratio", ratio(c["step_backward_s"], step_s),
             [A + "Tensor.backward"] + step_needs),
            ("autodiff.tensors_per_step", "tensors/step", ratio(c["step_tensors"], steps),
             [A + "Tensor.__init__"] + step_needs),
            ("autodiff.tensor_mb_per_step", "MiB/step",
             ratio(c["step_tensor_bytes"], steps) / 2**20, [A + "Tensor.__init__"] + step_needs),
            ("autodiff.spmm_calls_per_step", "calls/step", ratio(c["step_spmm_calls"], steps),
             [A + "spmm"] + step_needs),
            ("evaluate.evaluate_s", "s", total["evaluate.evaluate"], [E + "evaluate"]),
            ("evaluate.topk_s", "s", total["evaluate.topk"], [E + "topk_recommend"]),
            ("evaluate.topk_calls", "count", calls["evaluate.topk"], [E + "topk_recommend"]),
            ("evaluate.truth_exclude_s", "s", total["evaluate.truth_exclude"],
             [E + "ground_truth", E + "train_interactions"]),
            ("cli.split_self_s", "s", self_time["cli.split"], [C + "cmd_split"]),
            ("cli.evaluate_self_s", "s", self_time["cli.evaluate"], [C + "cmd_evaluate"]),
        ]
        metrics, absent = {}, []
        for name, unit, value, needs in table:
            if any(n in self.missing for n in needs):
                absent.append(name)
            else:
                metrics[name] = (float(value), unit)
        return metrics, absent
