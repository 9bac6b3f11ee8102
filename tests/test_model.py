import re

import numpy as np
import pytest

from signrec.autodiff import Tensor
from signrec.data import RatingRecord
from signrec.graph import build_signed_graph, normalized_adjacency, partition
from signrec.model import (
    AdjacencySet, ModelConfig, ModelState, attention_fuse,
    forward_tensors, init_state, load_checkpoint, mlp_forward,
    propagate, save_checkpoint,
)
from signrec.rng import substream

from helpers import (
    _constant, _mul, _reduce_sum, dense_adjacency, dense_propagate_reference, random_records,
    reference_attention_fuse, reference_mlp_forward, reference_propagate, toy_descriptor,
)


def pair_graph():
    """Single user-item pair, both degree 1."""
    return build_signed_graph([RatingRecord("u0", "i0", 5.0)], toy_descriptor(1, 1), 3.5)


def _state_with(params):
    return ModelState({k: Tensor(v) for k, v in params.items()})


def test_lightgcn_single_pair_one_layer():
    cfg = ModelConfig(dim=2, gnn_layers=1, dropout_p=0.0)
    adj = normalized_adjacency(pair_graph(), "lightgcn")
    a, b = np.array([1.0, 2.0]), np.array([-3.0, 5.0])
    state = _state_with({"gnn.h0": np.stack([a, b])})
    out = propagate(adj, state, cfg).value
    assert np.allclose(out[0], (a + b) / 2)
    assert np.allclose(out[1], (a + b) / 2)


def test_lightgcn_single_pair_two_layers():
    cfg = ModelConfig(dim=2, gnn_layers=2, dropout_p=0.0)
    adj = normalized_adjacency(pair_graph(), "lightgcn")
    a, b = np.array([1.0, 2.0]), np.array([-3.0, 5.0])
    state = _state_with({"gnn.h0": np.stack([a, b])})
    out = propagate(adj, state, cfg).value
    # layer sequence for the user: a, b, a -> mean (2a+b)/3
    assert np.allclose(out[0], (2 * a + b) / 3)
    assert np.allclose(out[1], (a + 2 * b) / 3)


@pytest.mark.parametrize("backbone", ["lightgcn", "lrgccf", "ngcf"])
def test_propagation_matches_dense_oracle(backbone):
    rng = np.random.default_rng(5)
    records = random_records(rng, 6, 7, 25)
    g = build_signed_graph(records, toy_descriptor(6, 7), 3.5)
    positive = partition(g)[0]
    cfg = ModelConfig(backbone=backbone, dim=4, gnn_layers=3, dropout_p=0.0)
    adj = normalized_adjacency(positive, backbone)
    state = init_state(cfg, 6, 7, substream(1, "init"))
    got = propagate(adj, state, cfg).value
    expected = dense_propagate_reference(dense_adjacency(positive, backbone), state.params, cfg)
    assert np.max(np.abs(got - expected)) / max(np.max(np.abs(expected)), 1e-30) < 1e-12


def test_propagation_variant_mismatch_rejected():
    cfg = ModelConfig(backbone="lightgcn", dim=2, dropout_p=0.0)
    adj = normalized_adjacency(pair_graph(), "lrgccf")
    state = _state_with({"gnn.h0": np.zeros((2, 2))})
    with pytest.raises(ValueError):
        propagate(adj, state, cfg)


def test_lightgcn_propagation_is_linear_in_h0():
    rng = np.random.default_rng(8)
    records = random_records(rng, 5, 5, 12)
    g = build_signed_graph(records, toy_descriptor(5, 5), 3.5)
    adj = normalized_adjacency(partition(g)[0], "lightgcn")
    cfg = ModelConfig(dim=3, gnn_layers=2, dropout_p=0.0)
    h1, h2 = rng.standard_normal((10, 3)), rng.standard_normal((10, 3))

    def run(h0):
        return propagate(adj, _state_with({"gnn.h0": h0}), cfg).value

    assert np.allclose(run(2.0 * h1 + 0.5 * h2), 2.0 * run(h1) + 0.5 * run(h2))


def test_isolated_node_lightgcn_keeps_scaled_h0():
    g = build_signed_graph([RatingRecord("u0", "i0", 5.0)], toy_descriptor(2, 1), 3.5)
    adj = normalized_adjacency(g, "lightgcn")
    cfg = ModelConfig(dim=2, gnn_layers=2, dropout_p=0.0)
    h0 = np.arange(6.0).reshape(3, 2)
    out = propagate(adj, _state_with({"gnn.h0": h0}), cfg).value
    assert np.allclose(out[1], h0[1] / 3)  # isolated user: h0 survives only at layer 0


@pytest.mark.parametrize("backbone", ["lrgccf", "ngcf"])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_fused_propagation_matches_reference_chain(backbone, layers):
    """Output and the gradients of h0 and every w equal the chain's bit for
    bit, over the whole table and its rows."""
    for seed in range(4):
        positive = partition(mixed_graph(np.random.default_rng(20 + seed)))[0]
        cfg = ModelConfig(backbone=backbone, dim=4, gnn_layers=layers, dropout_p=0.0)
        adj = normalized_adjacency(positive, backbone)
        init = init_state(cfg, 5, 6, substream(seed, "init"))
        init["gnn.h0"].value[0, 1] = -0.0
        gen = np.random.default_rng(seed)
        for rows in (None, np.array([0, 2, 3, 6, 9])):
            weights = gen.standard_normal((11 if rows is None else len(rows), cfg.output_dim))
            outs = []
            for op in (propagate, reference_propagate):
                state = ModelState({n: Tensor(init[n].value.copy())
                                    for n in init.names() if n.startswith("gnn.")})
                z = op(adj, state, cfg, rows=rows)
                _reduce_sum(_mul(z, _constant(weights))).backward()
                outs.append([z.value.tobytes()] + [t.grad.tobytes() for t in state.tensors()])
            assert outs[0] == outs[1], (seed, rows)


@pytest.mark.parametrize("backbone", ["lightgcn", "lrgccf", "ngcf"])
def test_propagate_is_one_tape_node(backbone):
    cfg = ModelConfig(backbone=backbone, dim=3, gnn_layers=2)
    adj = normalized_adjacency(partition(mixed_graph(np.random.default_rng(4)))[0], backbone)
    state = init_state(cfg, 5, 6, substream(1, "init"))
    z = propagate(adj, state, cfg, rows=np.array([1, 7]))
    weights = {"lightgcn": [], "lrgccf": ["gnn.w0", "gnn.w1"],
               "ngcf": ["gnn.w1.0", "gnn.w2.0", "gnn.w1.1", "gnn.w2.1"]}[backbone]
    assert z._parents == tuple(state[n] for n in ["gnn.h0", *weights])


def test_mlp_zero_weights_yields_relu_bias():
    cfg = ModelConfig(dim=2, mlp_layers=1, dropout_p=0.0)
    state = _state_with({"mlp.z0": np.ones((3, 2)),
                         "mlp.w0": np.zeros((2, 2)),
                         "mlp.b0": np.array([[-1.0, 2.0]])})
    out = mlp_forward(state, cfg).value
    assert np.allclose(out, np.tile([0.0, 2.0], (3, 1)))


def test_mlp_identity_weights_passes_nonnegative_input():
    cfg = ModelConfig(dim=2, mlp_layers=2, dropout_p=0.0)
    z0 = np.abs(np.random.default_rng(0).standard_normal((4, 2)))
    state = _state_with({"mlp.z0": z0,
                         "mlp.w0": np.eye(2), "mlp.b0": np.zeros((1, 2)),
                         "mlp.w1": np.eye(2), "mlp.b1": np.zeros((1, 2))})
    assert np.allclose(mlp_forward(state, cfg).value, z0)


def test_relu_clamps_negative_preactivation():
    cfg = ModelConfig(dim=2, mlp_layers=1, dropout_p=0.0)
    state = _state_with({"mlp.z0": np.array([[1.0, 1.0]]),
                         "mlp.w0": np.array([[-0.5, 1.0], [-0.5, 1.0]]),
                         "mlp.b0": np.zeros((1, 2))})
    assert np.allclose(mlp_forward(state, cfg).value, [[0.0, 2.0]])


@pytest.mark.parametrize("mlp_layers", [1, 2, 3])
@pytest.mark.parametrize("p", [0.0, 0.3])
@pytest.mark.parametrize("training", [False, True])
def test_fused_mlp_matches_reference_chain(mlp_layers, p, training):
    """Output, the gradients of mlp.z0 and every w and b, and the dropout
    draws equal the chain's bit for bit, over the whole table and its rows."""
    for backbone in ("lightgcn", "ngcf"):
        cfg = ModelConfig(backbone=backbone, dim=4, gnn_layers=2, mlp_layers=mlp_layers,
                          dropout_p=p)
        init = init_state(cfg, 5, 6, substream(7, "init"))
        names = [n for n in init.names() if n.startswith("mlp.")]
        gen = np.random.default_rng(16)
        for k in range(mlp_layers):
            init[f"mlp.b{k}"].value[:] = gen.standard_normal(init[f"mlp.b{k}"].shape)
            init[f"mlp.b{k}"].value[0, 0] = 0.0
        # a pre-activation of exactly zero, and a signed zero in the input
        init["mlp.z0"].value[0] = 0.0
        init["mlp.z0"].value[1, 0] = -0.0
        for rows in (None, np.array([0, 1, 4, 7, 10])):
            n_out = 11 if rows is None else len(rows)
            weights = gen.standard_normal((n_out, cfg.output_dim))
            outs = []
            for op in (mlp_forward, reference_mlp_forward):
                state = ModelState({n: Tensor(init[n].value.copy())
                                    for n in names})
                rng = substream(7, "dropout")
                z = op(state, cfg, training, rng, rows)
                _reduce_sum(_mul(z, _constant(weights))).backward()
                outs.append([z.value.tobytes()] + [t.grad.tobytes() for t in state.tensors()]
                            + [rng.bit_generator.state])
            assert outs[0] == outs[1], (backbone, rows)


def test_mlp_forward_is_one_tape_node():
    cfg = ModelConfig(dim=3, mlp_layers=3, dropout_p=0.5)
    state = init_state(cfg, 2, 3, substream(1, "init"))
    z = mlp_forward(state, cfg, True, substream(1, "dropout"), np.array([0, 2]))
    assert z._parents == (state["mlp.z0"], *(state[f"mlp.{t}{k}"] for k in range(3)
                                             for t in "wb"))


def attn_state(rng, d_out, d_attn, zero_w=False):
    w = np.zeros((d_attn, d_out)) if zero_w else rng.standard_normal((d_attn, d_out))
    return _state_with({"attn.w": w,
                        "attn.q": rng.standard_normal((d_attn, 1)),
                        "attn.b": rng.standard_normal((d_attn, 1))})


def test_attention_zero_weight_matrix_gives_even_split():
    rng = np.random.default_rng(1)
    cfg = ModelConfig(dim=4, dropout_p=0.0)
    z_p = Tensor(rng.standard_normal((5, 4)))
    z_n = Tensor(rng.standard_normal((5, 4)))
    state = attn_state(rng, 4, 3, zero_w=True)
    alpha_p, alpha_n, fused = attention_fuse(z_p, z_n, state, cfg)
    assert np.allclose(alpha_p, 0.5) and np.allclose(alpha_n, 0.5)
    assert np.allclose(fused.value, (z_p.value + z_n.value) / 2)


def test_attention_identical_inputs_gives_even_split():
    rng = np.random.default_rng(2)
    cfg = ModelConfig(dim=4, dropout_p=0.0)
    z = Tensor(rng.standard_normal((6, 4)))
    alpha_p, alpha_n, _ = attention_fuse(z, z, attn_state(rng, 4, 5), cfg)
    assert np.allclose(alpha_p, 0.5) and np.allclose(alpha_n, 0.5)


def test_attention_softmax_normalization_fuzzed():
    rng = np.random.default_rng(3)
    cfg = ModelConfig(dim=3, dropout_p=0.0)
    for _ in range(1000):
        z_p = Tensor(rng.standard_normal((4, 3)) * 3)
        z_n = Tensor(rng.standard_normal((4, 3)) * 3)
        alpha_p, alpha_n, fused = attention_fuse(z_p, z_n, attn_state(rng, 3, 4), cfg)
        assert np.all(np.abs(alpha_p + alpha_n - 1.0) < 1e-12)
        assert np.all(alpha_p > 0) and np.all(alpha_p < 1)
        lo = np.minimum(z_p.value, z_n.value) - 1e-12
        hi = np.maximum(z_p.value, z_n.value) + 1e-12
        assert np.all(fused.value >= lo) and np.all(fused.value <= hi)


def mixed_graph(rng, num_users=5, num_items=6):
    records = random_records(rng, num_users, num_items, 16)
    return build_signed_graph(records, toy_descriptor(num_users, num_items), 3.5)


@pytest.mark.parametrize("variant", ["mlp-gn", "gnn-gn"])
@pytest.mark.parametrize("p", [0.0, 0.3])
@pytest.mark.parametrize("training", [False, True])
def test_fused_attention_matches_reference_chain(variant, p, training):
    """Output, weights, every gradient and the dropout draws equal the chain's
    bit for bit, on the embeddings the model feeds the attention."""
    g = mixed_graph(np.random.default_rng(14))
    for backbone in ("lightgcn", "ngcf"):
        cfg = ModelConfig(backbone=backbone, variant=variant, dim=4, gnn_layers=2,
                          attn_dim=5, dropout_p=p)
        init = init_state(cfg, 5, 6, substream(7, "init"))
        adjs = AdjacencySet.build(g, cfg)
        z_p = propagate(adjs.gnn, init, cfg).value
        z_n = (propagate(adjs.gnn_neg, init, cfg, prefix="gnn_neg") if variant == "gnn-gn"
               else mlp_forward(init, cfg)).value
        # equal paths (alpha exactly 1/2), a signed zero, a saturated tanh
        z_n[0] = z_p[0]
        z_p[1, 0] = -0.0
        z_p[2] *= 1e3
        weights = np.random.default_rng(15).standard_normal(z_p.shape)
        outs = []
        for op in (attention_fuse, reference_attention_fuse):
            state = ModelState({n: Tensor(init[n].value.copy())
                                for n in ("attn.w", "attn.q", "attn.b")})
            zs = [Tensor(z.copy()) for z in (z_p, z_n)]
            rng = substream(7, "dropout")
            alpha_p, alpha_n, fused = op(*zs, state, cfg, training, rng)
            _reduce_sum(_mul(fused, _constant(weights))).backward()
            outs.append([fused.value.tobytes(), alpha_p.tobytes(), alpha_n.tobytes()]
                        + [t.grad.tobytes() for t in zs + state.tensors()]
                        + [rng.bit_generator.state])
        assert outs[0] == outs[1], backbone


def test_variant_no_gn_output_is_positive_path():
    rng = np.random.default_rng(4)
    g = mixed_graph(rng)
    cfg = ModelConfig(variant="no-gn", dim=3, gnn_layers=2, dropout_p=0.0)
    adjs = AdjacencySet.build(g, cfg)
    state = init_state(cfg, 5, 6, substream(2, "init"))
    z, z_p, z_n, alpha_p, _ = forward_tensors(adjs, state, cfg)
    assert np.array_equal(z.value, z_p.value)
    assert z_n is None and alpha_p is None


def test_variant_mlp_gn_ignores_negative_topology():
    # with an empty negative edge set, Z_n is a pure function of the MLP
    records = [RatingRecord(f"u{u}", f"i{u}", 5.0) for u in range(3)]
    g = build_signed_graph(records, toy_descriptor(3, 3), 3.5)
    cfg = ModelConfig(variant="mlp-gn", dim=3, gnn_layers=1, dropout_p=0.0)
    adjs = AdjacencySet.build(g, cfg)
    state = init_state(cfg, 3, 3, substream(3, "init"))
    z_n = forward_tensors(adjs, state, cfg)[2]
    expected = mlp_forward(state, cfg).value
    assert np.array_equal(z_n.value, expected)


def test_variant_gnn_gn_differs_only_in_negative_path():
    rng = np.random.default_rng(6)
    g = mixed_graph(rng)
    state_seed = 9
    outs = {}
    for variant in ("mlp-gn", "gnn-gn"):
        cfg = ModelConfig(variant=variant, dim=3, gnn_layers=2, dropout_p=0.0)
        adjs = AdjacencySet.build(g, cfg)
        state = init_state(cfg, 5, 6, substream(state_seed, "init"))
        _, z_p, z_n, _, _ = forward_tensors(adjs, state, cfg)
        outs[variant] = z_p.value, z_n.value
    # identical positive path (same substream draws h0 first in both)
    assert np.array_equal(outs["mlp-gn"][0], outs["gnn-gn"][0])
    assert not np.array_equal(outs["mlp-gn"][1], outs["gnn-gn"][1])


def test_variant_no_split_uses_all_edges():
    rng = np.random.default_rng(10)
    g = mixed_graph(rng)
    for backbone in ("lightgcn", "lrgccf", "ngcf"):
        cfg = ModelConfig(backbone=backbone, variant="no-split", dim=3, gnn_layers=2,
                          dropout_p=0.0)
        adjs = AdjacencySet.build(g, cfg)
        assert adjs.gnn_neg is None
        state = init_state(cfg, 5, 6, substream(4, "init"))
        got = forward_tensors(adjs, state, cfg)[0].value
        expected = dense_propagate_reference(dense_adjacency(g, backbone), state.params, cfg)
        assert np.allclose(got, expected), backbone


def test_forward_deterministic_without_dropout():
    rng = np.random.default_rng(12)
    g = mixed_graph(rng)
    cfg = ModelConfig(variant="mlp-gn", dim=3, gnn_layers=2, dropout_p=0.0)
    adjs = AdjacencySet.build(g, cfg)
    state = init_state(cfg, 5, 6, substream(5, "init"))
    a = forward_tensors(adjs, state, cfg, training=False)[0]
    b = forward_tensors(adjs, state, cfg, training=False)[0]
    assert np.array_equal(a.value, b.value)


def test_output_dim_matches_layer_aggregation():
    assert ModelConfig(backbone="lightgcn", dim=8, gnn_layers=3).output_dim == 8
    assert ModelConfig(backbone="lrgccf", dim=8, gnn_layers=3).output_dim == 32
    assert ModelConfig(backbone="ngcf", dim=8, gnn_layers=2).output_dim == 24


def test_checkpoint_round_trip(tmp_path):
    cfg = ModelConfig(dim=4, gnn_layers=2, attn_dim=4)
    state = init_state(cfg, 3, 4, substream(6, "init"))
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert loaded.names() == state.names()
    for name in state.names():
        assert loaded[name].value.dtype == np.float64
        assert loaded[name].value.tobytes() == state[name].value.tobytes()


def test_checkpoint_bad_magic_rejected(tmp_path):
    # neither other bytes, a lone .npy array, an empty file nor a truncated
    # archive are a checkpoint archive
    junk, npy = tmp_path / "junk.bin", tmp_path / "array.npy"
    empty, truncated = tmp_path / "empty.npz", tmp_path / "truncated.npz"
    junk.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    np.save(npy, np.zeros((2, 3)))
    empty.write_bytes(b"")
    save_checkpoint(str(truncated), init_state(ModelConfig(dim=4), 3, 4, substream(6, "init")))
    truncated.write_bytes(truncated.read_bytes()[:truncated.stat().st_size // 2])
    for path in (junk, npy, empty, truncated):
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(str(path))


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(backbone="gat")
    with pytest.raises(ValueError):
        ModelConfig(variant="bogus")
    with pytest.raises(ValueError):
        ModelConfig(dim=0)
    with pytest.raises(ValueError):
        ModelConfig(dropout_p=1.0)
