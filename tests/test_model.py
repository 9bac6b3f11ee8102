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

from helpers import dense_adjacency, dense_propagate_reference, random_records, toy_descriptor


def pair_graph():
    """Single user-item pair, both degree 1."""
    g = build_signed_graph([RatingRecord("u0", "i0", 5.0)], toy_descriptor(1, 1), 3.5)
    return partition(g)


def _state_with(params):
    return ModelState({k: Tensor(v, requires_grad=True) for k, v in params.items()})


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
    parts = partition(g)
    cfg = ModelConfig(backbone=backbone, dim=4, gnn_layers=3, dropout_p=0.0)
    adj = normalized_adjacency(parts, backbone)
    state = init_state(cfg, 6, 7, substream(1, "init"))
    got = propagate(adj, state, cfg).value
    expected = dense_propagate_reference(dense_adjacency(parts, backbone), state.params, cfg)
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
    adj = normalized_adjacency(partition(g), "lightgcn")
    cfg = ModelConfig(dim=3, gnn_layers=2, dropout_p=0.0)
    h1, h2 = rng.standard_normal((10, 3)), rng.standard_normal((10, 3))

    def run(h0):
        return propagate(adj, _state_with({"gnn.h0": h0}), cfg).value

    assert np.allclose(run(2.0 * h1 + 0.5 * h2), 2.0 * run(h1) + 0.5 * run(h2))


def test_isolated_node_lightgcn_keeps_scaled_h0():
    g = build_signed_graph([RatingRecord("u0", "i0", 5.0)], toy_descriptor(2, 1), 3.5)
    adj = normalized_adjacency(partition(g), "lightgcn")
    cfg = ModelConfig(dim=2, gnn_layers=2, dropout_p=0.0)
    h0 = np.arange(6.0).reshape(3, 2)
    out = propagate(adj, _state_with({"gnn.h0": h0}), cfg).value
    assert np.allclose(out[1], h0[1] / 3)  # isolated user: h0 survives only at layer 0


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
    assert np.allclose(alpha_p.value, 0.5) and np.allclose(alpha_n.value, 0.5)
    assert np.allclose(fused.value, (z_p.value + z_n.value) / 2)


def test_attention_identical_inputs_gives_even_split():
    rng = np.random.default_rng(2)
    cfg = ModelConfig(dim=4, dropout_p=0.0)
    z = Tensor(rng.standard_normal((6, 4)))
    alpha_p, alpha_n, _ = attention_fuse(z, z, attn_state(rng, 4, 5), cfg)
    assert np.allclose(alpha_p.value, 0.5) and np.allclose(alpha_n.value, 0.5)


def test_attention_softmax_normalization_fuzzed():
    rng = np.random.default_rng(3)
    cfg = ModelConfig(dim=3, dropout_p=0.0)
    for _ in range(1000):
        z_p = Tensor(rng.standard_normal((4, 3)) * 3)
        z_n = Tensor(rng.standard_normal((4, 3)) * 3)
        alpha_p, alpha_n, fused = attention_fuse(z_p, z_n, attn_state(rng, 3, 4), cfg)
        assert np.all(np.abs(alpha_p.value + alpha_n.value - 1.0) < 1e-12)
        assert np.all(alpha_p.value > 0) and np.all(alpha_p.value < 1)
        lo = np.minimum(z_p.value, z_n.value) - 1e-12
        hi = np.maximum(z_p.value, z_n.value) + 1e-12
        assert np.all(fused.value >= lo) and np.all(fused.value <= hi)


def mixed_graph(rng, num_users=5, num_items=6):
    records = random_records(rng, num_users, num_items, 16)
    g = build_signed_graph(records, toy_descriptor(num_users, num_items), 3.5)
    return partition(g)


def test_variant_no_gn_output_is_positive_path():
    rng = np.random.default_rng(4)
    parts = mixed_graph(rng)
    cfg = ModelConfig(variant="no-gn", dim=3, gnn_layers=2, dropout_p=0.0)
    adjs = AdjacencySet.build(parts, cfg)
    state = init_state(cfg, 5, 6, substream(2, "init"))
    z, z_p, z_n, alpha_p, _ = forward_tensors(adjs, state, cfg)
    assert np.array_equal(z.value, z_p.value)
    assert z_n is None and alpha_p is None


def test_variant_mlp_gn_ignores_negative_topology():
    # with an empty negative edge set, Z_n is a pure function of the MLP
    records = [RatingRecord(f"u{u}", f"i{u}", 5.0) for u in range(3)]
    g = build_signed_graph(records, toy_descriptor(3, 3), 3.5)
    parts = partition(g)
    cfg = ModelConfig(variant="mlp-gn", dim=3, gnn_layers=1, dropout_p=0.0)
    adjs = AdjacencySet.build(parts, cfg)
    state = init_state(cfg, 3, 3, substream(3, "init"))
    z_n = forward_tensors(adjs, state, cfg)[2]
    expected = mlp_forward(state, cfg).value
    assert np.array_equal(z_n.value, expected)


def test_variant_gnn_gn_differs_only_in_negative_path():
    rng = np.random.default_rng(6)
    parts = mixed_graph(rng)
    state_seed = 9
    outs = {}
    for variant in ("mlp-gn", "gnn-gn"):
        cfg = ModelConfig(variant=variant, dim=3, gnn_layers=2, dropout_p=0.0)
        adjs = AdjacencySet.build(parts, cfg)
        state = init_state(cfg, 5, 6, substream(state_seed, "init"))
        _, z_p, z_n, _, _ = forward_tensors(adjs, state, cfg)
        outs[variant] = z_p.value, z_n.value
    # identical positive path (same substream draws h0 first in both)
    assert np.array_equal(outs["mlp-gn"][0], outs["gnn-gn"][0])
    assert not np.array_equal(outs["mlp-gn"][1], outs["gnn-gn"][1])


def test_variant_no_split_uses_all_edges():
    rng = np.random.default_rng(10)
    parts = mixed_graph(rng)
    cfg = ModelConfig(variant="no-split", dim=3, gnn_layers=2, dropout_p=0.0)
    adjs = AdjacencySet.build(parts, cfg)
    state = init_state(cfg, 5, 6, substream(4, "init"))
    got = forward_tensors(adjs, state, cfg)[0].value
    expected = dense_propagate_reference(
        dense_adjacency(parts, "lightgcn", edge_set="all"), state.params, cfg)
    assert np.allclose(got, expected)


def test_forward_deterministic_without_dropout():
    rng = np.random.default_rng(12)
    parts = mixed_graph(rng)
    cfg = ModelConfig(variant="mlp-gn", dim=3, gnn_layers=2, dropout_p=0.0)
    adjs = AdjacencySet.build(parts, cfg)
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
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, state, cfg, 3, 4)
    loaded, cfg2, m, n = load_checkpoint(path)
    assert (m, n) == (3, 4) and cfg2 == cfg
    assert loaded.names() == state.names()
    for name in state.names():
        # f32 storage: round trip within single precision
        assert np.allclose(loaded[name].value, state[name].value, atol=1e-6)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(ValueError):
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
