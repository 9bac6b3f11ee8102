import hashlib
import math

import numpy as np
import pytest

from signrec import train as train_mod
from signrec.autodiff import Tensor
from signrec.data import RatingRecord
from signrec.graph import BACKBONES, SignedBipartiteGraph, build_signed_graph, partition
from signrec.model import (
    VARIANTS, AdjacencySet, ModelConfig, ModelState, forward_tensors, init_state,
)
from signrec.rng import substream
from signrec.diagnostics import check_gradients
from signrec.train import (
    LOSSES, Adam, NegativeSampler, TrainConfig, TrainingDiverged, TrainingTriples, batch_loss,
    batch_rows, l2_penalty, noise_distribution, penalized_gradient, sample_negatives,
    sign_aware_bpr_loss, train,
)

from helpers import (
    ReferenceAdam, _add, _reduce_sum, random_records, reference_batch_loss,
    reference_sample_negatives, reference_triple_loss_terms, toy_descriptor,
)


def small_graph(rng=None, num_users=5, num_items=6, count=14):
    rng = rng or np.random.default_rng(0)
    records = random_records(rng, num_users, num_items, count)
    return build_signed_graph(records, toy_descriptor(num_users, num_items), 3.5)


# ---------------------------------------------------------------------------
# negative sampling

def test_sample_count_is_edges_times_n_neg():
    g = small_graph()
    triples = sample_negatives(NegativeSampler(g, 40), substream(0, "s"))
    assert len(triples) == g.num_edges * 40
    triples = sample_negatives(NegativeSampler(g, 1), substream(0, "s"))
    assert len(triples) == g.num_edges


def test_samples_avoid_user_neighborhood():
    g = small_graph(count=20)
    triples = sample_negatives(NegativeSampler(g, 10), substream(1, "s"))
    edges = set(zip(g.users.tolist(), g.items.tolist()))
    assert all((u, j) not in edges for u, j in zip(triples.users, triples.negatives))


def test_forced_negative_when_single_candidate():
    # probe user adjacent to every item except j; j needs nonzero degree
    records = [RatingRecord("u0", f"i{v}", 5.0) for v in range(4)] \
        + [RatingRecord("u1", "i4", 5.0)]
    g = build_signed_graph(records, toy_descriptor(2, 5), 3.5)
    triples = sample_negatives(NegativeSampler(g, 25), substream(2, "s"))
    probe = triples.negatives[triples.users == 0]
    assert len(probe) == 100 and (probe == 4).all()


def test_saturated_user_skipped_with_warning(caplog):
    # u0 rated every item that has degree > 0
    records = [RatingRecord("u0", f"i{v}", 5.0) for v in range(3)] \
        + [RatingRecord("u1", "i0", 4.0)]
    g = build_signed_graph(records, toy_descriptor(2, 4), 3.5)
    with caplog.at_level("WARNING"):
        triples = sample_negatives(NegativeSampler(g, 5), substream(3, "s"))
    assert (triples.users != 0).all()
    assert len(triples) == 1 * 5
    assert any("adjacent to all" in rec.message for rec in caplog.records)


def test_noise_distribution_exponent():
    g = small_graph()
    degrees = np.bincount(g.items, minlength=g.num_items).astype(float)
    expected = degrees ** 0.75 / (degrees ** 0.75).sum()
    assert np.allclose(noise_distribution(g), expected)


def test_degree_based_sampling_odds():
    # candidates with degrees 1 and 16 -> odds 1 : 8
    records = [RatingRecord("probe", "a", 5.0), RatingRecord("probe", "b", 1.0),
               RatingRecord("x", "lo", 5.0)]
    records += [RatingRecord(f"y{k}", "hi", 5.0) for k in range(16)]
    from signrec.data import Ratings, build_descriptor
    desc = build_descriptor(Ratings.from_records(records))
    g = build_signed_graph(records, desc, 3.5)
    triples = sample_negatives(NegativeSampler(g, 2000), substream(4, "s"))
    mask = triples.users == desc.user_index["probe"]
    counts = np.bincount(triples.negatives[mask], minlength=g.num_items)
    lo, hi = counts[desc.item_index["lo"]], counts[desc.item_index["hi"]]
    assert lo + hi == mask.sum()
    assert abs(hi / (lo + hi) - 8 / 9) < 0.02


def test_sign_column_matches_edge_weights():
    g = small_graph(count=20)
    triples = sample_negatives(NegativeSampler(g, 3), substream(5, "s"))
    signs = dict(zip(zip(g.users.tolist(), g.items.tolist()), np.sign(g.weights)))
    for u, i, s in zip(triples.users, triples.items, triples.signs):
        assert s == signs[(u, i)]


def test_sampler_matches_reference_on_fuzzed_graphs():
    rng = np.random.default_rng(41)
    saturated_cases = 0
    for case in range(340):
        # the last 40 graphs span many bitset bytes per user
        wide = case >= 300
        num_users = int(rng.integers(9 if wide else 1, 41 if wide else 8))
        num_items = int(rng.integers(9 if wide else 2, 41 if wide else 9))
        count = int(rng.integers(1, num_users * num_items + 1))
        pairs = rng.choice(num_users * num_items, size=count, replace=False)
        users, items = pairs // num_items, pairs % num_items
        # make some users rate every item that has a rating
        rated = np.unique(items)
        for u in rng.choice(num_users, size=int(rng.integers(0, 3)), replace=True):
            missing = np.setdiff1d(rated, items[users == u])
            users = np.concatenate([users, np.full(len(missing), u)])
            items = np.concatenate([items, missing])
        weights = rng.choice([-2.5, -1.5, 0.5, 1.5], size=len(users))
        g = SignedBipartiteGraph(num_users, num_items, users.astype(np.int64),
                                 items.astype(np.int64), weights)
        degree = np.bincount(g.users, minlength=num_users)
        saturated_cases += bool((degree == len(rated)).any())
        n_neg = int(rng.integers(1, 6))
        # one sampler serves several epochs, as in train()
        sampler = NegativeSampler(g, n_neg)
        for epoch in range(3):
            rng_a, rng_b = substream(case, "s", epoch), substream(case, "s", epoch)
            got = sample_negatives(sampler, rng_a)
            want = reference_sample_negatives(g, n_neg, rng_b)
            for field in ("users", "items", "negatives", "signs"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), \
                    (case, epoch, field)
                assert getattr(got, field).dtype == getattr(want, field).dtype
            assert rng_a.random() == rng_b.random(), f"case {case}: draw counts differ"
    assert saturated_cases > 50


def test_bucketed_inverse_cdf_equals_searchsorted():
    rng = np.random.default_rng(29)
    degree_sets = [[1], [0, 3, 0, 0, 5], [0] * 7 + [2], list(range(40)),
                   rng.integers(0, 4, 300).tolist()]
    for degrees in degree_sets:
        degrees = np.asarray(degrees)
        num_items = len(degrees)
        items = np.repeat(np.arange(num_items), degrees)
        g = SignedBipartiteGraph(len(items), num_items, np.arange(len(items)), items,
                                 np.ones(len(items)))
        sampler = NegativeSampler(g, 1)
        cdf, k = sampler.cdf, sampler.buckets
        edges = np.arange(k) / k
        # bucket edges, cdf values and their neighbours, and uniform draws
        u = np.concatenate([edges, np.nextafter(edges[1:], 0), cdf[cdf < 1],
                            np.nextafter(cdf, 0), np.nextafter(cdf[cdf < 1], 1),
                            rng.random(5000)])
        u = u[(u >= 0) & (u < 1)]
        got = sampler.items_at(u)
        want = cdf.searchsorted(u, side="right")
        assert got.dtype == want.dtype and np.array_equal(got, want), degrees.tolist()
        assert (degrees[got] > 0).all()


def test_training_without_triples_raises():
    # every user rates every item, so no negative is left to draw
    g = SignedBipartiteGraph(2, 2, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                             np.array([1.5, -2.5, 0.5, -1.5]))
    cfg = ModelConfig(variant="no-gn", dim=2, gnn_layers=1)
    with pytest.raises(ValueError, match="no training triples"):
        train(g, cfg, TrainConfig(n_neg=1, epochs=1))


def test_saturation_warning_logged_once_per_run(caplog):
    records = [RatingRecord("u0", f"i{v}", 5.0) for v in range(3)] \
        + [RatingRecord("u1", "i0", 4.0), RatingRecord("u1", "i1", 1.0)]
    g = build_signed_graph(records, toy_descriptor(2, 4), 3.5)
    cfg = ModelConfig(variant="no-gn", dim=2, gnn_layers=1)
    tcfg = TrainConfig(n_neg=2, epochs=3, batch_size=4)
    with caplog.at_level("WARNING"):
        train(g, cfg, tcfg)
    assert sum("adjacent to all" in rec.message for rec in caplog.records) == 1


def test_batch_rows_matches_unique():
    rng = np.random.default_rng(23)
    num_users, num_items = 7, 9
    everything = TrainingTriples(np.arange(9) % num_users, np.arange(9), np.arange(9)[::-1],
                                 np.ones(9, dtype=np.int8))
    no_repeats = TrainingTriples(np.array([0, 1]), np.array([0, 1]), np.array([2, 3]),
                                 np.ones(2, dtype=np.int8))
    batches = [everything, no_repeats]
    for _ in range(50):
        size = int(rng.integers(1, 40))
        batches.append(TrainingTriples(rng.integers(0, num_users, size),
                                       rng.integers(0, num_items, size),
                                       rng.integers(0, num_items, size),
                                       rng.choice([-1, 1], size).astype(np.int8)))
    for batch in batches:
        nodes = np.concatenate([batch.users, num_users + batch.items,
                                num_users + batch.negatives])
        want_rows, want_local = np.unique(nodes, return_inverse=True)
        rows, local = batch_rows(batch, num_users)
        assert rows.dtype == want_rows.dtype and rows.tobytes() == want_rows.tobytes()
        got_local = np.concatenate([local.users, local.items, local.negatives])
        assert got_local.dtype == want_local.dtype
        assert got_local.tobytes() == want_local.tobytes()
        assert local.signs is batch.signs
    assert len(batch_rows(everything, num_users)[0]) == num_users + num_items


# ---------------------------------------------------------------------------
# loss

def embedding_tensor(rows):
    return Tensor(np.asarray(rows, dtype=float))


def single_triple(sign):
    return TrainingTriples(np.array([0]), np.array([0]), np.array([1]),
                           np.array([sign], dtype=np.int8))


def dummy_state():
    return ModelState({})


def test_loss_equal_scores_is_log_two():
    # r_ui = r_uj = 1 -> -log sigma(0) = log 2
    z = embedding_tensor([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    loss, terms = sign_aware_bpr_loss(z, 1, single_triple(+1), 2.0, 0.0, dummy_state())
    assert loss.value == pytest.approx(math.log(2), abs=1e-9)
    assert terms[0] == pytest.approx(math.log(2), abs=1e-9)


def test_loss_negative_sign_scales_observed_score():
    # c=2, r_ui=1, r_uj=2 -> -log sigma(2*1 - 2) = log 2
    z = embedding_tensor([[1.0], [1.0], [2.0]])
    loss, _ = sign_aware_bpr_loss(z, 1, single_triple(-1), 2.0, 0.0, dummy_state())
    assert loss.value == pytest.approx(math.log(2), abs=1e-9)


def test_loss_positive_margin_two():
    # r_ui=3, r_uj=1 -> -log sigma(2)
    z = embedding_tensor([[1.0], [3.0], [1.0]])
    loss, _ = sign_aware_bpr_loss(z, 1, single_triple(+1), 2.0, 0.0, dummy_state())
    assert loss.value == pytest.approx(-math.log(1 / (1 + math.exp(-2))), abs=1e-9)
    assert loss.value == pytest.approx(0.126928, abs=1e-6)


def test_standard_bpr_ignores_sign():
    z = embedding_tensor([[1.0], [1.0], [2.0]])
    neg = single_triple(-1)
    loss_std, _ = sign_aware_bpr_loss(z, 1, neg, 2.0, 0.0, dummy_state(), loss="standard-bpr")
    pos = single_triple(+1)
    loss_pos, _ = sign_aware_bpr_loss(z, 1, pos, 2.0, 0.0, dummy_state())
    assert loss_std.value == pytest.approx(loss_pos.value)


def test_sign_aware_equals_standard_on_positive_batches():
    rng = np.random.default_rng(3)
    z = embedding_tensor(rng.standard_normal((8, 3)))
    triples = TrainingTriples(np.array([0, 1, 2]), np.array([0, 1, 2]),
                              np.array([3, 4, 0]), np.array([1, 1, 1], dtype=np.int8))
    a, _ = sign_aware_bpr_loss(z, 3, triples, 2.0, 0.0, dummy_state())
    b, _ = sign_aware_bpr_loss(z, 3, triples, 2.0, 0.0, dummy_state(), loss="standard-bpr")
    assert a.value == pytest.approx(b.value)


def test_loss_positive_and_regularization_term():
    z = embedding_tensor([[1.0], [1.0], [1.0]])
    theta = Tensor(np.array([[2.0, -1.0]]))
    state = ModelState({"p": theta})
    loss, _ = sign_aware_bpr_loss(z, 1, single_triple(+1), 2.0, 0.1, state)
    assert loss.value == pytest.approx(math.log(2) + 0.1 * 5.0)
    loss.backward()
    # the penalty is off the tape; its gradient joins in penalized_gradient
    assert theta.grad is None
    full = penalized_gradient(theta.grad, theta.value, 0.1)
    assert np.allclose(full, 2 * 0.1 * theta.value)  # d/dtheta of lambda theta^2


def test_l2_penalty_value_and_gradient():
    rng = np.random.default_rng(5)
    state = ModelState({"a": Tensor(rng.standard_normal((2, 2))),
                        "b": Tensor(rng.standard_normal((3, 1)))})
    want = 0.3 * sum((t.value ** 2).sum() for t in state.tensors())
    assert l2_penalty(state, 0.3) == pytest.approx(want, rel=1e-12)
    h = 1e-6
    for t in state.tensors():
        tape = rng.standard_normal(t.shape)
        flat = t.value.reshape(-1)
        numeric = np.zeros_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = l2_penalty(state, 0.3)
            flat[k] = orig - h
            down = l2_penalty(state, 0.3)
            flat[k] = orig
            numeric[k] = (up - down) / (2 * h)
        got = penalized_gradient(tape, t.value, 0.3)
        assert np.allclose(got - tape, numeric.reshape(t.shape), rtol=1e-6, atol=1e-8)
        assert penalized_gradient(tape, t.value, 0.0) is tape
        assert np.array_equal(penalized_gradient(None, t.value, 0.0), np.zeros(t.shape))


def test_check_gradients_catches_a_dropped_penalty_gradient(monkeypatch):
    def dropped(grad, value, lambda_reg, out=None):
        return grad if grad is not None else np.zeros_like(value)

    assert check_gradients().passed
    # swap the function's code, so every caller sees the mutation
    monkeypatch.setattr(penalized_gradient, "__code__", dropped.__code__)
    assert not check_gradients().passed


def test_empty_batch_rejected():
    z = embedding_tensor([[1.0], [1.0]])
    empty = TrainingTriples(np.array([], dtype=int), np.array([], dtype=int),
                            np.array([], dtype=int), np.array([], dtype=np.int8))
    with pytest.raises(ValueError):
        sign_aware_bpr_loss(z, 1, empty, 2.0, 0.0, dummy_state())


def test_loss_monotone_in_observed_score():
    def term(r_ui, sign):
        z = embedding_tensor([[1.0], [r_ui], [2.0]])
        return sign_aware_bpr_loss(z, 1, single_triple(sign), 2.0, 0.0, dummy_state())[1][0]

    assert term(1.5, +1) < term(1.0, +1)
    assert term(1.5, -1) < term(1.0, -1)
    # negative branch slope is steeper by the factor c
    eps = 1e-6
    slope_pos = (term(1.0 + eps, +1) - term(1.0, +1)) / eps
    slope_neg = (term(0.5 + eps, -1) - term(0.5, -1)) / eps  # same margin: 2*0.5-2 = -1...
    assert slope_pos < 0 and slope_neg < 0


def test_loss_gradient_of_score_is_partner_embedding():
    z = embedding_tensor([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
    triples = single_triple(+1)
    loss, _ = sign_aware_bpr_loss(z, 1, triples, 2.0, 0.0, dummy_state())
    loss.backward()
    r_ui = z.value[0] @ z.value[1]
    r_uj = z.value[0] @ z.value[2]
    sig = 1 / (1 + math.exp(r_ui - r_uj))
    # d loss / d z_i = -sigma(-(r_ui - r_uj)) * z_u
    assert np.allclose(z.grad[1], -sig * z.value[0])


def test_loss_rejects_c_not_greater_than_one():
    with pytest.raises(ValueError):
        TrainConfig(c=1.0)


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_loss_rejects_non_finite_c(c):
    with pytest.raises(ValueError, match="finite"):
        TrainConfig(c=c)


def test_loss_positivity_fuzzed():
    rng = np.random.default_rng(9)
    for _ in range(200):
        z = embedding_tensor(rng.standard_normal((6, 3)) * 5)
        triples = TrainingTriples(np.array([0, 1]), np.array([0, 1]),
                                  np.array([2, 3]),
                                  rng.choice([-1, 1], 2).astype(np.int8))
        loss, terms = sign_aware_bpr_loss(z, 2, triples, 2.0, 0.0, dummy_state())
        assert loss.value > 0 and (terms > 0).all()


@pytest.mark.parametrize("loss_name", LOSSES)
def test_fused_loss_head_matches_reference_chain(loss_name):
    """Loss, terms and z.grad equal the chain of small tape nodes, summed and
    plus the penalty, bit for bit, for a zero and a positive penalty."""
    rng = np.random.default_rng(17)
    for case in range(40):
        num_users, num_items = int(rng.integers(1, 6)), int(rng.integers(2, 8))
        size = int(rng.integers(1, 60))
        triples = TrainingTriples(rng.integers(0, num_users, size),
                                  rng.integers(0, num_items, size),
                                  rng.integers(0, num_items, size),
                                  rng.choice([-1, 1], size).astype(np.int8))
        # a negative that is another triple's positive item
        triples.negatives[0] = triples.items[-1]
        value = rng.standard_normal((num_users + num_items, 4)) * rng.choice([0.1, 1.0, 30.0])
        value[rng.integers(0, len(value))] = -0.0
        state = ModelState({"w": Tensor(rng.standard_normal((3, 2)))})
        for lam in (0.0, 0.05):
            penalty = l2_penalty(state, lam)
            z_fused = Tensor(value.copy())
            z_chain = Tensor(value.copy())
            fused, terms = sign_aware_bpr_loss(z_fused, num_users, triples, 2.5, lam, state,
                                               loss_name)
            chain_terms = reference_triple_loss_terms(z_chain, num_users, triples, 2.5,
                                                      loss_name)
            chain = _add(_reduce_sum(chain_terms), penalty)
            assert terms.tobytes() == chain_terms.value.tobytes(), (case, lam)
            assert fused.value.tobytes() == chain.value.tobytes(), (case, lam)
            fused.backward()
            chain.backward()
            assert z_fused.grad.tobytes() == z_chain.grad.tobytes(), (case, lam)


@pytest.mark.parametrize("backbone", ["lightgcn", "lrgccf", "ngcf"])
def test_row_restricted_step_matches_full_graph_step(backbone):
    """batch_loss (MLP, attention and loss on the batch's rows) vs the full graph."""
    base = small_graph(np.random.default_rng(8), num_users=10, num_items=12, count=60)
    for variant in ("mlp-gn", "gnn-gn", "no-gn", "no-split"):
        for loss_name in ("sign-aware-bpr", "standard-bpr"):
            for positive_only in (False, True):
                g = partition(base)[0] if positive_only else base
                cfg = ModelConfig(backbone=backbone, variant=variant, dim=4, gnn_layers=2,
                                  attn_dim=3, dropout_p=0.0)
                tcfg = TrainConfig(c=2.5, lambda_reg=0.05, loss=loss_name,
                                   positive_edges_only=positive_only)
                adjs = AdjacencySet.build(g, cfg)
                state = init_state(cfg, g.num_users, g.num_items, substream(3, "init"))
                triples = sample_negatives(NegativeSampler(g, 1), substream(3, "s"))
                batch = triples.take(np.arange(0, len(triples), 4))
                rows, _ = batch_rows(batch, g.num_users)
                assert len(rows) < g.num_users + g.num_items  # some rows left out

                z, *_ = forward_tensors(adjs, state, cfg, training=False)
                full, _ = sign_aware_bpr_loss(z, g.num_users, batch, tcfg.c,
                                              tcfg.lambda_reg, state, tcfg.loss)
                state.zero_grad()
                full.backward()
                want = {n: penalized_gradient(state[n].grad, state[n].value, tcfg.lambda_reg)
                        for n in state.names()}

                restricted, _ = batch_loss(adjs, state, cfg, tcfg, g.num_users, batch,
                                           training=True, rng=substream(3, "dropout"))
                state.zero_grad()
                restricted.backward()
                case = (variant, loss_name, positive_only)
                assert abs(float(restricted.value) - float(full.value)) \
                    <= 1e-10 * abs(float(full.value)), case
                for name in state.names():
                    got = penalized_gradient(state[name].grad, state[name].value,
                                             tcfg.lambda_reg)
                    scale = np.abs(want[name]).max()
                    assert scale > 0, (case, name)
                    assert np.abs(got - want[name]).max() <= 1e-10 * scale, (case, name)


# ---------------------------------------------------------------------------
# Adam

def test_adam_first_step_is_signed_learning_rate():
    p = Tensor(np.array([1.0]))
    state = ModelState({"p": p})
    opt = Adam(state, lr=0.01)
    p.grad = np.array([0.5])
    opt.step()
    assert p.value[0] == pytest.approx(1.0 - 0.01, rel=1e-6)


def test_adam_zero_gradient_fixed_point():
    p = Tensor(np.array([3.0, -2.0]))
    state = ModelState({"p": p})
    opt = Adam(state, lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.value, [3.0, -2.0])


def test_adam_descends_quadratic():
    p = Tensor(np.array([4.0]))
    state = ModelState({"p": p})
    opt = Adam(state, lr=0.1)
    def objective():
        return float(p.value[0] ** 2)
    start = objective()
    for _ in range(2):
        p.grad = 2 * p.value
        opt.step()
    assert objective() < start


def test_adam_matches_out_of_place_update_bitwise():
    rng = np.random.default_rng(12)
    p = Tensor(rng.standard_normal((4, 3)))
    opt = Adam(ModelState({"p": p}), lr=0.01)
    ref, m, v = p.value.copy(), np.zeros((4, 3)), np.zeros((4, 3))
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 6):
        grad = rng.standard_normal((4, 3))
        p.grad = grad
        opt.step()
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad ** 2
        ref -= 0.01 * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert np.array_equal(p.value, ref)


def test_adam_rejects_non_finite_gradient():
    p = Tensor(np.array([1.0]))
    opt = Adam(ModelState({"p": p}), lr=0.1)
    p.grad = np.array([np.nan])
    with pytest.raises(TrainingDiverged):
        opt.step()


@pytest.mark.parametrize("rows", [5, 512, 1024, 1300])
@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_blocked_adam_matches_out_of_place_update_bitwise(rows, lam):
    """Tables below, at, twice and not a multiple of a 64-wide block (512 rows)."""
    assert train_mod.ADAM_BLOCK_BYTES // (8 * 64) == 512
    rng = np.random.default_rng(rows)
    p = Tensor(rng.standard_normal((rows, 64)))
    bias = Tensor(rng.standard_normal((1, 64)))
    opt = Adam(ModelState({"p": p, "bias": bias}), lr=0.01, lambda_reg=lam)
    ref, m, v = p.value.copy(), np.zeros((rows, 64)), np.zeros((rows, 64))
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 4):
        tape = rng.standard_normal((rows, 64))
        p.grad = tape.copy()
        bias.grad = None
        opt.step()
        grad = tape + 2.0 * lam * ref if lam else tape
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad ** 2
        ref -= 0.01 * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert p.value.tobytes() == ref.tobytes(), t
        assert np.array_equal(p.grad, tape)  # the tape's gradient is left as it was


def test_blocked_adam_raises_on_nan_in_last_block():
    p = Tensor(np.ones((1300, 64)))
    q = Tensor(np.ones((3, 2)))
    opt = Adam(ModelState({"gnn.h0": p, "attn.q": q}), lr=0.1, lambda_reg=0.01)
    p.grad = np.zeros((1300, 64))
    p.grad[-1, -1] = np.nan
    q.grad = np.zeros((3, 2))
    with pytest.raises(TrainingDiverged, match="gnn.h0"):
        opt.step()


@pytest.mark.parametrize("backbone", ["lightgcn", "lrgccf", "ngcf"])
@pytest.mark.parametrize("block_bytes", [None, 8 * 4 * 3])
def test_training_steps_match_reference_bitwise(backbone, block_bytes, monkeypatch):
    """Steps with restricted propagation, the penalty gradient in Adam and
    blocked Adam equal the whole-table steps with the penalty on the tape."""
    if block_bytes is not None:
        monkeypatch.setattr(train_mod, "ADAM_BLOCK_BYTES", block_bytes)  # 3-row blocks
    base = small_graph(np.random.default_rng(8), num_users=10, num_items=12, count=60)
    for variant in ("mlp-gn", "gnn-gn", "no-gn", "no-split"):
        for loss_name, positive_only, lam in (("sign-aware-bpr", False, 0.05),
                                              ("standard-bpr", True, 0.05),
                                              ("sign-aware-bpr", False, 0.0)):
            g = partition(base)[0] if positive_only else base
            cfg = ModelConfig(backbone=backbone, variant=variant, dim=4, gnn_layers=3,
                              attn_dim=3, dropout_p=0.3)
            tcfg = TrainConfig(c=2.5, lambda_reg=lam, loss=loss_name, learning_rate=0.05,
                               positive_edges_only=positive_only)
            adjs = AdjacencySet.build(g, cfg)
            runs = []
            for reference in (False, True):
                state = init_state(cfg, g.num_users, g.num_items, substream(3, "init"))
                opt = (ReferenceAdam(state, tcfg.learning_rate) if reference
                       else Adam(state, tcfg.learning_rate, tcfg.lambda_reg))
                dropout_rng = substream(3, "dropout")
                triples = sample_negatives(NegativeSampler(g, 2), substream(3, "s"))
                losses = []
                for lo in range(0, len(triples), 16):
                    batch = triples.take(np.arange(lo, min(lo + 16, len(triples))))
                    if reference:
                        loss = reference_batch_loss(adjs, state, cfg, tcfg, g.num_users,
                                                    batch, dropout_rng)
                    else:
                        loss, _ = batch_loss(adjs, state, cfg, tcfg, g.num_users, batch,
                                             training=True, rng=dropout_rng)
                    state.zero_grad()
                    loss.backward()
                    opt.step()
                    losses.append(float(loss.value))
                runs.append((losses, {n: state[n].value.tobytes() for n in state.names()}))
            case = (variant, loss_name, positive_only, lam)
            assert len(runs[0][0]) >= 3, case
            assert runs[0][0] == runs[1][0], case
            assert runs[0][1] == runs[1][1], case


# ---------------------------------------------------------------------------
# full training loop

def planted_toy_graph():
    """20x20 block structure: users like their own block, dislike the other."""
    rng = np.random.default_rng(17)
    records = []
    for u in range(20):
        block = u % 2
        liked = rng.choice(np.arange(10) + 10 * block, size=5, replace=False)
        hated = rng.choice(np.arange(10) + 10 * (1 - block), size=2, replace=False)
        for v in liked:
            records.append(RatingRecord(f"u{u}", f"i{v}", float(rng.choice([4, 5]))))
        for v in hated:
            records.append(RatingRecord(f"u{u}", f"i{v}", float(rng.choice([1, 2]))))
    return build_signed_graph(records, toy_descriptor(20, 20), 3.5)


def toy_configs(epochs=50, loss="sign-aware-bpr", variant="mlp-gn"):
    cfg = ModelConfig(variant=variant, dim=8, gnn_layers=2, attn_dim=8)
    tcfg = TrainConfig(n_neg=4, c=2.0, lambda_reg=0.01, learning_rate=0.01,
                       batch_size=256, epochs=epochs, seed=123, loss=loss)
    return cfg, tcfg


def test_training_loss_decreases_on_planted_structure():
    g = planted_toy_graph()
    cfg, tcfg = toy_configs(epochs=50)
    result = train(g, cfg, tcfg)
    assert result.log[49].mean_loss < result.log[0].mean_loss
    assert result.embeddings.shape == (40, cfg.output_dim)


def test_training_is_deterministic():
    g = planted_toy_graph()
    cfg, tcfg = toy_configs(epochs=3)
    a = train(g, cfg, tcfg)
    b = train(g, cfg, tcfg)
    assert [e.mean_loss for e in a.log] == [e.mean_loss for e in b.log]
    assert np.array_equal(a.embeddings, b.embeddings)


@pytest.mark.parametrize("variant", VARIANTS)
def test_shorter_run_is_a_prefix_of_a_longer_one(variant):
    """Every parameter after epoch e of a run equals the final one of an (e+1)-epoch
    run: each epoch draws from its own substreams, so a run's length changes none of
    its earlier epochs."""
    g = planted_toy_graph()

    def params(state):
        return {name: state[name].value.tobytes() for name in state.names()}

    after = {}
    cfg, tcfg = toy_configs(epochs=4, variant=variant)
    train(g, cfg, tcfg, epoch_callback=lambda entry, state: after.update(
        {entry.epoch: params(state)}))
    for epoch in (0, 2):
        tcfg.epochs = epoch + 1
        assert params(train(g, cfg, tcfg).state) == after[epoch], epoch
    assert after[0] != after[2]


def test_resampling_differs_across_epochs():
    g = planted_toy_graph()
    t0 = sample_negatives(NegativeSampler(g, 2), substream(1, "sampling", 0))
    t1 = sample_negatives(NegativeSampler(g, 2), substream(1, "sampling", 1))
    assert not np.array_equal(t0.negatives, t1.negatives)


def test_positive_only_baseline_uses_positive_branch_everywhere():
    g = planted_toy_graph()
    cfg, tcfg = toy_configs(epochs=1, loss="standard-bpr", variant="no-gn")
    tcfg.positive_edges_only = True
    result = train(g, cfg, tcfg)
    # only GNN parameters exist: plain positive-graph trainer
    assert result.state.names() == ["gnn.h0"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts():
    g = planted_toy_graph()
    cfg, tcfg = toy_configs(epochs=5)
    tcfg.learning_rate = 1e200  # overflows the squared-parameter term
    with pytest.raises(TrainingDiverged):
        train(g, cfg, tcfg)


# sha256 of train_digest()'s outputs. A change to training numerics must regenerate it
# on purpose and say so in CHANGES.md, never by accident.
TRAIN_DIGEST = "df8b702f05a772fe829112b2e6ea31953db35502fdf5c660a2ced9ba648d765b"


def train_digest() -> str:
    """sha256 over epoch losses, final embeddings and every parameter of ``train()``
    for 3 backbones x 4 variants, the standard loss and the positive-only baseline."""
    g = planted_toy_graph()
    runs = [(backbone, variant, {}) for backbone in BACKBONES for variant in VARIANTS]
    runs += [("lightgcn", "no-gn", {"loss": "standard-bpr"}),
             ("lightgcn", "no-gn", {"positive_edges_only": True})]
    digest = hashlib.sha256()
    for backbone, variant, options in runs:
        cfg = ModelConfig(backbone=backbone, variant=variant, dim=4, gnn_layers=2, attn_dim=4)
        tcfg = TrainConfig(n_neg=2, lambda_reg=0.05, learning_rate=0.01, batch_size=64,
                           epochs=2, seed=9, **options)
        result = train(g, cfg, tcfg)
        digest.update(np.array([e.mean_loss for e in result.log]).tobytes())
        digest.update(result.embeddings.tobytes())
        for name in result.state.names():
            digest.update(name.encode() + result.state[name].value.tobytes())
    return digest.hexdigest()


def test_train_digest_is_unchanged():
    assert train_digest() == TRAIN_DIGEST, (
        "train() numerics changed; if on purpose, set TRAIN_DIGEST to train_digest() and "
        "say so in CHANGES.md")
