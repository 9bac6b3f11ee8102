"""Minimal reverse-mode automatic differentiation over numpy arrays.

A training step's tape holds only the model's fused ops, each with a
hand-written backward: LightGCN's layer aggregation, LR-GCCF's and NGCF's
concatenated layers, the negative path's MLP and dropout, the attention
fusion of the two embedding paths, and the sign-aware pairwise ranking loss.
A sparse-constant product, ``spmm``, serves the test oracles. The L2 penalty
has no op: ``signrec.train`` passes its value to the loss op and adds its
gradient in the optimizer step.
Every tensor is a parameter or an op's output over parameters, so every op
gives every input its gradient.
Values are kept in float64 so analytic gradients can be validated against
central finite differences.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class Tensor:
    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, grad):
        # never in place: a gradient array may be shared with another tensor
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self):
        if self.value.ndim != 0:
            raise ValueError("backward() requires a scalar output")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def spmm(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """Sparse-constant @ dense-tensor product. The model's backbones are fused
    ops and do not call it; the test oracles and the benchmark's tracer do."""
    out = Tensor(matrix @ x.value, parents=(x,))

    def backward(grad):
        x._accumulate(matrix.T @ grad)

    out._backward = backward
    return out


def spmm_power_mean(matrix: sp.spmatrix, x: Tensor, layers: int, rows=None) -> Tensor:
    """Mean of ``matrix^k @ x`` over k = 0..layers, as one tape node.

    This is LightGCN's layer aggregation. The gradient is the mean of
    ``(matrix^T)^k @ grad``; ``matrix`` must be symmetric, so the backward
    applies ``matrix`` itself layer by layer.

    With ``rows``, a sorted array of unique node indices, the output holds
    those rows only. The forward's last product is then ``matrix[rows] @
    h``, and the backward's first is ``matrix[rows].T @ grad``, so neither
    touches a row the output does not need. For a CSR ``matrix`` with sorted
    indices, both equal the full op followed by a gather of ``rows`` bit for bit:
    each output row sums the same non-zero terms in the same order, and the
    backward adds the gradient rows where the full op's zero-filled table
    holds them, ``((g + h1) + h2) + h3``.
    """
    idx = slice(None) if rows is None else np.asarray(rows)
    band = matrix if rows is None else matrix[idx]
    h = x.value
    acc = h.copy() if rows is None else h[idx]
    for _ in range(layers - 1):
        h = matrix @ h
        acc += h[idx]
    acc += band @ h
    acc *= 1.0 / (layers + 1)
    out = Tensor(acc, parents=(x,))

    def backward(grad):
        acc = band.T @ grad
        # the next product needs the first one before the gradient rows join it
        h = matrix @ acc if layers > 1 else None
        acc[idx] += grad
        for layer in range(1, layers):
            acc += h
            if layer < layers - 1:
                h = matrix @ h
        acc *= 1.0 / (layers + 1)
        x._accumulate(acc)

    out._backward = backward
    return out


def concat_propagate(matrix: sp.spmatrix, h0: Tensor, weights: list, backbone: str,
                     alpha: float, rows=None) -> Tensor:
    """LR-GCCF's or NGCF's layers over ``h0``, concatenated, as one tape node.

    With ``ah = matrix @ h``, an LR-GCCF layer is ``ah @ w`` for each ``w``
    of ``weights``; an NGCF layer is LeakyReLU, slope ``alpha``, of ``(h +
    ah) @ w1 + (h * ah) @ w2`` for each pair ``(w1, w2)``. The output is
    ``h0`` and every layer side by side, or its ``rows`` only. The backward
    repeats the chain of spmm, matmul, add, mul, LeakyReLU, concat and
    row-gather nodes in its order: a layer's input adds its own slice of the
    gradient, then NGCF's ``h + ah`` and ``h * ah`` terms, then the sparse
    product's term. Outputs and gradients equal the chain's bit for bit.
    """
    ngcf = backbone == "ngcf"
    hs, saved = [h0.value], []
    for w in weights:
        h = hs[-1]
        ah = matrix @ h
        if ngcf:
            s, m = h + ah, h * ah
            pre = s @ w[0].value + m @ w[1].value
            hs.append(np.where(pre > 0, pre, alpha * pre))
            saved.append((ah, s, m, pre))
        else:
            hs.append(ah @ w.value)
            saved.append(ah)
    z = np.concatenate(hs, axis=1)
    idx = None if rows is None else np.asarray(rows)
    params = [t for w in weights for t in (w if ngcf else (w,))]
    out = Tensor(z if idx is None else z[idx], parents=(h0, *params))

    def backward(grad):
        if idx is not None:
            full = np.zeros_like(z)
            full[idx] = grad
            grad = full
        d = h0.shape[1]
        g = np.take(grad, range(len(weights) * d, z.shape[1]), axis=1)
        for k in reversed(range(len(weights))):
            h, w, own = hs[k], weights[k], np.take(grad, range(k * d, (k + 1) * d), axis=1)
            if ngcf:
                ah, s, m, pre = saved[k]
                g_pre = g * np.where(pre > 0, 1.0, alpha)
                g_s, g_m = g_pre @ w[0].value.T, g_pre @ w[1].value.T
                terms = ((w[0], s.T @ g_pre), (w[1], m.T @ g_pre))
                g = ((own + g_s) + g_m * ah) + matrix.T @ (g_s + g_m * h)
            else:
                terms = ((w, saved[k].T @ g),)
                g = own + matrix.T @ (g @ w.value.T)
            for t, g_t in terms:
                t._accumulate(g_t)
        h0._accumulate(g)

    out._backward = backward
    return out


def scatter_rows(idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """An ``(n, d)`` array whose row r is the sum of ``rows[k]`` over ``idx[k] == r``.

    Equal bit for bit to ``np.add.at`` into zeros: column k of a sparse
    (n x len(idx)) CSC matrix holds a one in row ``idx[k]``, and the product
    with ``rows`` walks the columns in order, so each row adds its addends in
    index order.
    """
    k = len(idx)
    scatter = sp.csc_matrix((np.ones(k), idx, np.arange(k + 1)), shape=(n, k))
    return scatter @ rows


def bpr_loss(z: Tensor, users: np.ndarray, items: np.ndarray, negatives: np.ndarray,
             coef: np.ndarray, penalty: float):
    """The pairwise ranking loss ``terms.sum() + penalty`` (a constant), as one
    tape node: ``(loss, terms)``, ``terms`` the per-triple softplus(r_uj - coef * r_ui).

    ``r_ui`` and ``r_uj`` are the dot products of the rows ``z[users]`` with
    ``z[items]`` and ``z[negatives]``; softplus is ``log(1 + exp(x))``,
    overflow-safe. The backward repeats the elementwise steps of the chain of
    gathers, products, row sums, margin, softplus, sum and add in that chain's
    order, sums each row set's gradient rows in index order (``scatter_rows``),
    and then adds the three sets. When no row is both a user row and an item
    row, a row adds at most two such sums, so the gradient equals that chain's
    bit for bit.
    """
    zv = z.value
    z_u, z_i, z_j = zv[users], zv[items], zv[negatives]
    r_ui = (z_u * z_i).sum(axis=1)
    r_uj = (z_u * z_j).sum(axis=1)
    x = (r_ui * coef - r_uj) * -1.0
    terms = np.logaddexp(0.0, x)
    out = Tensor(terms.sum() + penalty, parents=(z,))

    def backward(grad):
        e = np.exp(-np.abs(x))
        sig = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        g_margin = grad * sig * -1.0
        g_ui = (g_margin * coef)[:, None]
        g_uj = (-g_margin)[:, None]
        # one scatter into three stacked blocks keeps the row sets apart
        n = zv.shape[0]
        rows = np.concatenate([g_ui * z_i + g_uj * z_j, g_ui * z_u, g_uj * z_u])
        idx = np.concatenate([users, n + items, 2 * n + negatives])
        blocks = scatter_rows(idx, rows, 3 * n)
        z._accumulate(blocks[:n] + blocks[n:2 * n] + blocks[2 * n:])

    out._backward = backward
    return out, terms


def attention_fuse(z_p: Tensor, z_n: Tensor, w: Tensor, q: Tensor, b: Tensor, p: float,
                   rng: np.random.Generator, training: bool):
    """SiReN's attention fusion, as one tape node: ``(alpha_p, alpha_n, out)``.

    Each path scores ``tanh(dropout(z) @ w.T + b.T) @ q``; the weights are
    the softmax of the two scores, returned as plain arrays, and ``out = alpha_p
    * z_p + alpha_n * z_n``. Both weights come from one ``exp(-|s_p - s_n|)``
    and equal ``sigmoid(s_p - s_n)`` and ``sigmoid(s_n - s_p)`` bit for bit.
    The backward repeats the elementwise steps of the equivalent chain of
    dropout, transpose, matmul, add, tanh, sub, sigmoid and mul nodes in that
    chain's order. No tensor of the chain adds more than two gradient terms,
    so for distinct ``z_p`` and ``z_n`` the gradients equal the chain's bit
    for bit.
    """
    masks = [_dropout_mask(z.shape, p, rng, training) for z in (z_p, z_n)]
    ins = [z.value if m is None else z.value * m for z, m in zip((z_p, z_n), masks)]
    w_t, b_row = w.value.T, b.value.T
    hidden = [np.tanh(x @ w_t + b_row) for x in ins]
    s_p, s_n = (h @ q.value for h in hidden)
    d = s_p - s_n
    e = np.exp(-np.abs(d))
    big, small = 1.0 / (1.0 + e), e / (1.0 + e)
    alphas = np.where(d >= 0, big, small), np.where(d <= 0, big, small)
    out = Tensor(alphas[0] * z_p.value + alphas[1] * z_n.value, parents=(z_p, z_n, w, q, b))

    def backward(grad):
        g_p, g_n = ((grad * z.value).sum(axis=1, keepdims=True) * a * (1.0 - a)
                    for z, a in zip((z_p, z_n), alphas))
        terms = []
        for z, x, m, h, a, g_s in zip((z_p, z_n), ins, masks, hidden, alphas,
                                      (g_p - g_n, g_n - g_p)):
            g_pre = (g_s @ q.value.T) * (1.0 - h * h)
            terms.append((x.T @ g_pre, h.T @ g_s, g_pre.sum(axis=0, keepdims=True)))
            g_x = g_pre @ w_t.T
            z._accumulate(grad * a + (g_x if m is None else g_x * m))
        g_w, g_q, g_b = (t_p + t_n for t_p, t_n in zip(*terms))
        for t, g in ((w, g_w.T), (q, g_q), (b, g_b.T)):
            t._accumulate(g)

    out._backward = backward
    return alphas[0], alphas[1], out


def mlp(x: Tensor, rows, layers: list, p: float, rng, training: bool) -> Tensor:
    """``relu(h @ w + b)`` for each ``(w, b)`` of ``layers`` over ``x`` or its ``rows``, with
    dropout after every layer but the last, as one tape node. Outputs, gradients and masks
    equal the chain of gather, matmul, add, relu and dropout nodes bit for bit."""
    idx = slice(None) if rows is None else np.asarray(rows)
    h, saved = x.value[idx], []
    for k, (w, b) in enumerate(layers):
        act = np.maximum(h @ w.value + b.value, 0.0)
        mask = _dropout_mask(act.shape, p, rng, training and k < len(layers) - 1)
        saved.append((h, act, mask))
        h = act if mask is None else act * mask
    out = Tensor(h, parents=(x, *(t for pair in layers for t in pair)))

    def backward(grad):
        for (w, b), (h_in, act, mask) in zip(reversed(layers), reversed(saved)):
            # the chain's steps in its order (relu(pre) > 0 is pre > 0), one term per tensor
            grad = (grad if mask is None else grad * mask) * (act > 0)
            w._accumulate(h_in.T @ grad)
            b._accumulate(grad.sum(axis=0, keepdims=True))
            grad = grad @ w.value.T
        full = np.zeros_like(x.value)
        full[idx] = grad
        x._accumulate(full)

    out._backward = backward
    return out


def _dropout_mask(shape, p: float, rng: np.random.Generator, training: bool):
    """Inverted dropout's mask: 0 or 1/(1-p) per unit; None when dropout is off."""
    if not training or p <= 0.0:
        return None
    return (rng.random(shape) >= p) / (1.0 - p)
