import numpy as np
import pytest
import scipy.sparse as sp

from signrec import autodiff as ad
from signrec.autodiff import Tensor

from helpers import (
    _add, _concat, _constant, _gather_rows, _leaky_relu, _matmul, _mul, _reduce_sum, _relu,
    _sigmoid, _tanh, _transpose,
)


def finite_difference(fn, params, h=1e-6):
    """Central-difference gradients of scalar fn() w.r.t. each param tensor."""
    grads = []
    for p in params:
        flat = p.value.reshape(-1)
        grad = np.zeros_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = fn()
            flat[k] = orig - h
            down = fn()
            flat[k] = orig
            grad[k] = (up - down) / (2 * h)
        grads.append(grad.reshape(p.value.shape))
    return grads


def check_op(build, params, tol=1e-7):
    out = build()
    for p in params:
        p.grad = None
    out.backward()
    numeric = finite_difference(lambda: float(build().value), params)
    for p, num in zip(params, numeric):
        analytic = p.grad if p.grad is not None else np.zeros_like(p.value)
        assert np.allclose(analytic, num, rtol=1e-5, atol=tol), \
            f"max abs diff {np.abs(analytic - num).max()}"


def _param(rng, *shape):
    return Tensor(rng.standard_normal(shape))


rng = np.random.default_rng(0)


def test_add_mul_broadcast():
    a = _param(rng, 3, 4)
    b = _param(rng, 1, 4)  # broadcast over rows
    check_op(lambda: _reduce_sum(_mul(_add(a, b), a)), [a, b])


def test_matmul_transpose():
    a = _param(rng, 3, 4)
    w = _param(rng, 2, 4)
    check_op(lambda: _reduce_sum(_matmul(a, _transpose(w))), [a, w])


def test_spmm():
    mat = sp.random(5, 5, density=0.4, random_state=1, format="csr")
    x = _param(rng, 5, 3)
    check_op(lambda: _reduce_sum(_mul(ad.spmm(mat, x), x)), [x])


@pytest.mark.parametrize("op", [pytest.param(_relu, id="relu"), pytest.param(_tanh, id="tanh"),
                                pytest.param(_sigmoid, id="sigmoid"),
                                lambda t: _leaky_relu(t, 0.1)])
def test_unary_ops(op):
    # offset away from the ReLU kink so finite differences are clean
    x = Tensor(rng.standard_normal((4, 3)) + 0.2)
    check_op(lambda: _reduce_sum(op(x)), [x])


def test_bpr_terms_finite_at_large_margins():
    # rows 0-1 users, 2-3 items; margins coef * r_ui - r_uj of -1e3 and +1e3
    z = Tensor(np.array([[1.0], [1.0], [0.0], [1e3]]))
    loss, terms = ad.bpr_loss(z, np.array([0, 1]), np.array([2, 3]), np.array([3, 2]),
                              np.ones(2), 0.0)
    assert np.isfinite(terms).all()
    assert terms[0] == pytest.approx(1e3)
    assert terms[1] == pytest.approx(0.0, abs=1e-300)
    loss.backward()
    assert np.isfinite(z.grad).all()


def test_bpr_terms_matches_finite_differences():
    # repeated users, items and negatives; row 5 is a negative and a positive
    x = _param(rng, 8, 3)
    users = np.array([0, 0, 1, 2, 1, 0])
    items = np.array([3, 5, 3, 4, 6, 3])
    negatives = np.array([5, 7, 7, 3, 5, 5])
    coef = np.array([1.0, 2.0, 1.0, 2.0, 2.0, 1.0])
    check_op(lambda: ad.bpr_loss(x, users, items, negatives, coef, 0.0)[0], [x])


@pytest.mark.parametrize("penalty", [0.0, 0.75])
def test_bpr_loss_matches_finite_differences(penalty):
    """The loss is its terms' sum plus the penalty, and its gradient is the
    central difference of that total, over scales where softplus saturates."""
    local = np.random.default_rng(31)
    for scale in (0.1, 1.0, 4.0):
        x = Tensor(scale * local.standard_normal((9, 2)))
        users = local.integers(0, 3, 12)
        items, negatives = 3 + local.integers(0, 6, 12), 3 + local.integers(0, 6, 12)
        coef = local.choice([1.0, 2.5], 12)
        loss, terms = ad.bpr_loss(x, users, items, negatives, coef, penalty)
        assert loss.value.shape == () and loss.value == terms.sum() + penalty
        check_op(lambda: ad.bpr_loss(x, users, items, negatives, coef, penalty)[0], [x])


def test_attention_fuse_matches_finite_differences():
    # dropout on, with the same masks in every evaluation
    z_p, z_n = _param(rng, 5, 3), _param(rng, 5, 3)
    w, q, b = _param(rng, 4, 3), _param(rng, 4, 1), _param(rng, 4, 1)
    weights = rng.standard_normal((5, 3))

    def build():
        *_, out = ad.attention_fuse(z_p, z_n, w, q, b, 0.3, np.random.default_rng(5), True)
        return _reduce_sum(_mul(out, weights))

    check_op(build, [z_p, z_n, w, q, b])


@pytest.mark.parametrize("rows", [None, np.array([0, 2, 3])])
def test_mlp_matches_finite_differences(rows):
    # three layers, dropout on after the first two, with the same masks in
    # every evaluation; biases offset away from the ReLU kink
    x = _param(rng, 5, 3)
    layers = [(_param(rng, 3, 4), Tensor(rng.standard_normal((1, 4)) + 0.5)),
              (_param(rng, 4, 4), Tensor(rng.standard_normal((1, 4)) + 0.5)),
              (_param(rng, 4, 2), Tensor(rng.standard_normal((1, 2)) + 0.5))]
    weights = rng.standard_normal((5 if rows is None else len(rows), 2))

    def build():
        out = ad.mlp(x, rows, layers, 0.3, np.random.default_rng(5), True)
        return _reduce_sum(_mul(out, weights))

    check_op(build, [x, *(t for pair in layers for t in pair)])


def test_gather_rows_scatter_add():
    # two gathers of one tensor whose rows overlap add up in the source rows
    x = _param(rng, 5, 2)
    check_op(lambda: _reduce_sum(_mul(_gather_rows(x, np.array([0, 2, 4])),
                                    _gather_rows(x, np.array([2, 4, 1])))), [x])


def test_reduce_sum_axis():
    x = _param(rng, 4, 3)
    check_op(lambda: _reduce_sum(_mul(_reduce_sum(x, axis=1),
                                    _reduce_sum(x, axis=1))), [x])


def test_concat():
    a = _param(rng, 3, 2)
    b = _param(rng, 3, 4)
    check_op(lambda: _reduce_sum(_mul(_concat([a, b], axis=1),
                                    _concat([a, b], axis=1))), [a, b])


def test_spmm_power_mean():
    dense = rng.standard_normal((5, 5))
    sym = dense + dense.T
    mat = sp.csr_matrix(np.where(np.abs(sym) > 1.0, sym, 0.0))  # symmetric, sparse
    x = _param(rng, 5, 3)
    out = ad.spmm_power_mean(mat, x, 3).value
    a = mat.toarray()
    expected = (x.value + a @ x.value + a @ a @ x.value + a @ a @ a @ x.value) / 4
    assert np.allclose(out, expected, rtol=1e-12, atol=1e-12)
    check_op(lambda: _reduce_sum(_mul(ad.spmm_power_mean(mat, x, 3), x)), [x])


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_spmm_power_mean_rows_match_full_then_gather(layers):
    """Value and gradient equal the whole-graph op (plus gather_rows), bytewise."""
    from helpers import reference_spmm_power_mean

    local = np.random.default_rng(layers)
    n = 40
    upper = sp.triu(sp.random(n, n, density=0.12, random_state=layers), k=1)
    keep = sp.diags((np.arange(n) % 9 != 4).astype(float))  # isolates 4, 13, 22, 31
    sym = (keep @ (upper + upper.T) @ keep).tocsr()
    sym.eliminate_zeros()
    sym.sort_indices()
    isolated = np.flatnonzero(np.diff(sym.indptr) == 0)
    assert {4, 13, 22, 31} <= set(isolated.tolist())
    row_sets = [None, np.arange(n), np.array([7]), np.array([isolated[0]]),
                np.union1d(isolated, [0, 5, 21]),
                np.flatnonzero(local.random(n) < 0.4)]
    value = local.standard_normal((n, 5))
    for rows in row_sets:
        weights = local.standard_normal((n if rows is None else len(rows), 5))
        outs = []
        for op in (ad.spmm_power_mean, reference_spmm_power_mean):
            x = Tensor(value.copy())
            out = op(sym, x, layers, rows)
            _reduce_sum(_mul(out, _constant(weights))).backward()
            outs.append((out.value.tobytes(), x.grad.tobytes()))
        assert outs[0] == outs[1], rows


@pytest.mark.parametrize("backbone", ["lrgccf", "ngcf"])
@pytest.mark.parametrize("rows", [None, np.array([1, 2, 5])])
def test_concat_propagate_matches_finite_differences(backbone, rows):
    # a symmetric sparse matrix with self-loops, two layers
    dense = rng.standard_normal((6, 6))
    mat = sp.csr_matrix(np.where(np.abs(dense + dense.T) > 1.0, (dense + dense.T) / 4, 0.0))
    x = _param(rng, 6, 3)
    if backbone == "ngcf":
        weights = [(_param(rng, 3, 3), _param(rng, 3, 3)) for _ in range(2)]
        params = [t for pair in weights for t in pair]
    else:
        weights = params = [_param(rng, 3, 3) for _ in range(2)]
    out_weights = rng.standard_normal((6 if rows is None else len(rows), 9))
    check_op(lambda: _reduce_sum(_mul(ad.concat_propagate(mat, x, weights, backbone, 0.1,
                                                          rows), out_weights)),
             [x, *params])


def test_gather_unique_rows_assigns():
    x = _param(rng, 6, 2)
    idx = np.array([4, 0, 3])
    weights = rng.standard_normal((3, 2))
    check_op(lambda: _reduce_sum(_mul(_gather_rows(x, idx), weights)), [x])


@pytest.mark.parametrize("n", [255, 256, 257, 65535, 65536, 65537])
def test_scatter_rows_matches_add_at(n):
    # row counts on both sides of the uint8, uint16 and uint32 index sorts
    gen = np.random.default_rng(n)
    idx = np.concatenate([gen.integers(0, n, 600), gen.integers(n - 3, n, 200),
                          gen.integers(0, 3, 200)])
    gen.shuffle(idx)
    rows = gen.standard_normal((len(idx), 3))
    rows[::7] = -0.0
    expected = np.zeros((n, 3))
    np.add.at(expected, idx, rows)
    assert ad.scatter_rows(idx, rows, n).tobytes() == expected.tobytes()


def test_shared_gradient_array_is_not_aliased():
    # _add() hands one gradient array to both parents; a later accumulation
    # into one parent must not leak into the other
    a = Tensor(np.ones(3))
    b = Tensor(np.ones(3))
    s = _add(a, b)
    total = _reduce_sum(_add(_mul(s, 2.0), _mul(a, 5.0)))
    total.backward()
    assert np.array_equal(a.grad, np.full(3, 7.0))
    assert np.array_equal(b.grad, np.full(3, 2.0))


def test_diamond_graph_accumulates_once():
    x = Tensor(np.array(2.0))
    y = _mul(x, x)               # x^2
    z = _add(y, _mul(y, 3.0))  # 4 x^2 -> dz/dx = 8x = 16
    z.backward()
    assert x.grad == pytest.approx(16.0)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        _mul(x, 2.0).backward()


def test_dropout_inverted_scaling():
    mask = ad._dropout_mask((1000, 1), 0.5, np.random.default_rng(0), training=True)
    kept = mask[mask > 0]
    assert np.allclose(kept, 2.0)          # 1/(1-p) scaling
    assert abs(kept.size / 1000 - 0.5) < 0.08
    assert ad._dropout_mask((1000, 1), 0.5, None, training=False) is None
    assert ad._dropout_mask((1000, 1), 0.0, None, training=True) is None
