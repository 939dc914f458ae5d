"""Tests for the tape engine: forward semantics and gradient soundness.

The gradient oracle throughout is central finite differences (h = 1e-5) on
64-bit inputs drawn from [-2, 2], compared at relative error < 1e-4.
"""

import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from heterognn.autodiff import (AdamState, Arcs, Tape, Tensor, _accum, constant,
                                parameter, softmax)
from heterognn.graphs import build_graph
from heterognn.model import one_hot_arc_scores
from heterognn.multiset import one_hop_desirable_m2m

FD_H = 1e-5
FD_RTOL = 1e-4


def finite_difference_grad(build_loss, leaf_arrays, target_idx, h=FD_H):
    """Central-difference gradient of build_loss w.r.t. leaf_arrays[target_idx].

    build_loss receives fresh numpy arrays and must return a python float.
    """
    base = [a.copy() for a in leaf_arrays]
    target = base[target_idx]
    grad = np.zeros_like(target)
    it = np.nditer(target, flags=["multi_index"])
    while not it.finished:
        ij = it.multi_index
        orig = target[ij]
        target[ij] = orig + h
        up = build_loss(*base)
        target[ij] = orig - h
        down = build_loss(*base)
        target[ij] = orig
        grad[ij] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


def assert_grad_matches(build_loss, leaf_arrays, analytic_grads, rtol=FD_RTOL):
    for k in range(len(leaf_arrays)):
        fd = finite_difference_grad(build_loss, leaf_arrays, k)
        scale = max(np.abs(fd).max(), np.abs(analytic_grads[k]).max(), 1e-8)
        np.testing.assert_allclose(
            analytic_grads[k], fd, atol=rtol * scale,
            err_msg=f"gradient mismatch on leaf {k}",
        )


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns (so -0.0 != 0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def backward_from(t, upstream, *outs):
    """Run t's backward with `upstream` as the gradient of each of outs,
    exactly: one scalar record hands each a fresh 1.0 * upstream."""
    cells = [out._cell for out in outs]

    def back(g):
        for cell in cells:
            _accum(cell, upstream * g[0, 0])

    loss = Tensor([[0.0]])
    t._emit(loss, outs, back)
    t.backward(loss)


def total(t, x):
    """The sum of x's entries, as two products with ones that hand x
    exactly all-ones."""
    rows, cols = x.shape
    row_sums = t.const_matmul(np.ones((1, rows)), x)
    return t.project(row_sums, constant(np.ones((cols, 1))), 1.0, None)


def sq_norm(t, x):
    """The sum of x's squared entries, as one test-local record whose
    backward hands x 2 * x * g: a scalar reducer whose gradient differs
    entry by entry, for the gradient checks of the ops it follows."""
    out = Tensor([[float(np.sum(x.data * x.data))]])
    cell, data = x._cell, x.data
    return t._emit(out, (x,), lambda g: _accum(cell, 2.0 * data * g[0, 0]))


# ---------------------------------------------------------------------------
# Tensor basics
# ---------------------------------------------------------------------------


def test_tensor_requires_2d():
    with pytest.raises(ValueError):
        Tensor([1.0, 2.0])


def test_tensor_is_float64_row_major():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]


def test_tensor_keeps_contiguous_data_and_copies_strided_data():
    f_ordered = np.asfortranarray(np.arange(12.0).reshape(3, 4))
    assert np.shares_memory(Tensor(f_ordered).data, f_ordered)
    assert np.shares_memory(Tensor(f_ordered.T).data, f_ordered)  # C-ordered
    strided = np.arange(24.0).reshape(4, 6)[:, ::2]
    kept = Tensor(strided).data
    assert not np.shares_memory(kept, strided) and kept.flags.c_contiguous
    assert same_bits(kept, strided)


def test_item_requires_scalar():
    with pytest.raises(ValueError):
        Tensor([[1.0, 2.0]]).item()


# ---------------------------------------------------------------------------
# Forward semantics, hand-computed oracles
# ---------------------------------------------------------------------------


def test_matmul_identity():
    # project at keep_prob 1 is the plain product
    t = Tape()
    m = constant([[1.5, -2.0], [0.25, 7.0]])
    out = t.project(constant(np.eye(2)), m, 1.0, None)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_hand_example():
    t = Tape()
    out = t.project(constant([[1, 2], [3, 4]]), constant([[1], [1]]), 1.0, None)
    np.testing.assert_array_equal(out.data, [[3], [7]])


def test_matmul_shape_error():
    t = Tape()
    with pytest.raises(ValueError, match="project dimension mismatch"):
        t.project(constant(np.ones((2, 3))), constant(np.ones((2, 3))), 1.0, None)


# the row softmax is autodiff.softmax along axis 1, in place on its input


def test_row_softmax_uniform_on_zeros():
    out = softmax(np.array([[0.0, 0.0, 0.0]]), 1.0, 1)
    np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_row_softmax_sharpens_at_low_temperature():
    out = softmax(np.array([[1.0, 0.0]]), 0.01, 1)
    np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-4)


def test_row_softmax_frozen_values():
    # scalar oracle: e^1, e^2, e^3 normalized, written over the input
    z = np.array([[1.0, 2.0, 3.0]])
    out = softmax(z, 1.0, 1)
    assert out is z
    np.testing.assert_allclose(out, [[0.09003057, 0.24472847, 0.66524096]], atol=1e-5)


def test_row_softmax_rejects_bad_temperature():
    with pytest.raises(ValueError, match="temperature"):
        softmax(np.array([[1.0]]), 0.0, 1)


@settings(max_examples=50, deadline=None)
@given(
    x=arrays(np.float64, (3, 4), elements=st.floats(-10, 10)),
    shift=st.floats(-5, 5),
)
def test_row_softmax_rows_sum_to_one_and_shift_invariant(x, shift):
    s = softmax(x.copy(), 1.0, 1)
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
    s_shifted = softmax(x + shift, 1.0, 1)
    np.testing.assert_allclose(s, s_shifted, atol=1e-12)


def test_relu_clamps_negative():
    t = Tape()
    out = t.relu(constant([[-1.0, 0.0, 2.5]]))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.5]])


def test_relu_record_keeps_a_mask_not_its_input():
    t = Tape()
    w = parameter(np.eye(3))
    pre = t.const_matmul(np.array([[-1.0, 0.0, 2.5]]), w)
    pre_data = weakref.ref(pre.data)
    out = t.relu(pre)
    del pre
    assert pre_data() is None
    t.backward(total(t, out))
    np.testing.assert_array_equal(w.grad, [[0.0, 0.0, -1.0], [0.0] * 3, [0.0, 0.0, 2.5]])


def ones_column(k):
    """Scores that turn the chunk sums into a plain segment sum."""
    return np.ones((k, 1))


def grouped_by_id(ids, n):
    """The Arcs that list the rows of each id in row order: the stable sort
    of the row numbers by id, and its CSR offsets."""
    order = np.argsort(ids, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=n), out=indptr[1:])
    return Arcs(order, indptr, ids.size)


def arcs_to(src, dst, n):
    """The Arcs of the arcs src[a] -> dst[a] between n rows, dst sorted."""
    return Arcs(src, np.searchsorted(dst, np.arange(n + 1)), n)


def test_chunk_sum_hand_example():
    x = np.array([[1.0, 2.0], [10.0, 20.0], [5.0, 5.0]])
    out = Arcs([0, 1, 2], [0, 2, 3], 3).chunk_sums(ones_column(3), x)
    np.testing.assert_array_equal(out, [[11.0, 22.0], [5.0, 5.0]])


def test_chunk_sum_empty_segment_is_zero():
    out = Arcs([0], [0, 0, 0, 1, 1], 1).chunk_sums(ones_column(1), np.array([[1.0]]))
    np.testing.assert_array_equal(out, [[0.0], [0.0], [1.0], [0.0]])


def test_chunk_sum_rejects_out_of_range_id():
    with pytest.raises(ValueError, match="'arc_src': arc source outside"):
        Arcs([3], [0, 0, 1], 1).chunk_sums(ones_column(1), np.array([[1.0]]))
    with pytest.raises(ValueError, match="chunk_sums shape mismatch"):
        Arcs([3], [0, 0, 1], 4).chunk_sums(ones_column(1), np.array([[1.0]]))


@pytest.mark.parametrize("indptr", [[0, 2], [1, 1], [0, 1, 0], [[0, 1]]])
def test_chunk_sum_rejects_bad_indptr(indptr):
    with pytest.raises(ValueError, match="'indptr'"):
        Arcs([0], indptr, 1).chunk_sums(ones_column(1), np.array([[1.0]]))


@settings(max_examples=30, deadline=None)
@given(perm=st.permutations(range(6)))
def test_chunk_sum_permutation_invariant_within_segments(perm):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 3))
    ids = np.array([0, 0, 1, 1, 1, 2])
    ref = grouped_by_id(ids, 3).chunk_sums(ones_column(6), x)
    perm = np.array(perm)
    got = grouped_by_id(ids[perm], 3).chunk_sums(ones_column(6), x[perm])
    np.testing.assert_allclose(got, ref, atol=1e-12)


@st.composite
def scatter_cases(draw, min_rows=0):
    """Unsorted bucket ids with repeats, some buckets empty, and row values."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(min_rows, 12))
    w = draw(st.integers(1, 3))
    ids = np.array(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)),
                   dtype=np.int64)
    values = draw(arrays(np.float64, (k, w), elements=st.floats(-1e3, 1e3)))
    return n, ids, values


def add_at_reference(ids, values, n):
    out = np.zeros((n, values.shape[1]))
    np.add.at(out, ids, values)
    return out


def update(t, scores, x, arcs, h0, beta, gain, bias, w, keep_prob=1.0, rng=None):
    """Tape.aggregate_update on arrays or tensors: arrays become constants."""
    def tensor(v):
        return v if isinstance(v, Tensor) else constant(v)

    return t.aggregate_update(tensor(scores), tensor(x), arcs, tensor(h0), beta,
                              tensor(gain), tensor(bias), tensor(w), keep_prob, rng)


@settings(max_examples=100, deadline=None)
@given(case=scatter_cases())
def test_chunk_sum_and_gather_backward_match_add_at_bit_for_bit(case):
    n, ids, values = case
    expected = add_at_reference(ids, values, n)
    summed = grouped_by_id(ids, n).chunk_sums(ones_column(ids.size), values)
    assert np.array_equal(summed, expected)
    # one arc per output row gathers the rows of x, zero here, so the mix is
    # (1 - beta) * values; x's gradient scatters the message's gradient
    # that the chain computes from the upstream `values`
    k, width = values.shape
    t = Tape()
    x = parameter(np.zeros((n, width)))
    eye = np.eye(width)
    out = update(t, ones_column(k), x, Arcs(ids, np.arange(k + 1), n), values, 0.4,
                 np.ones((1, width)), np.zeros((1, width)), eye)
    backward_from(t, values, out)
    g_message = norm_project_chain(values, np.zeros((k, width)), 0.4,
                                   np.ones((1, width)), np.zeros((1, width)), eye,
                                   None, values)[2]
    assert np.array_equal(x.grad, add_at_reference(ids, g_message, n))


@settings(max_examples=100, deadline=None)
@given(case=scatter_cases(min_rows=1), data=st.data())
def test_cross_entropy_backward_matches_add_at_bit_for_bit(case, data):
    n, rows, _ = case
    c = data.draw(st.integers(1, 4))
    logits = data.draw(arrays(np.float64, (n, c), elements=st.floats(-10, 10)))
    labels = np.array(data.draw(st.lists(st.integers(0, c - 1), min_size=n,
                                         max_size=n)), dtype=np.int64)
    z = logits[rows]
    soft = np.exp(z - z.max(axis=1, keepdims=True))
    soft /= soft.sum(axis=1, keepdims=True)
    soft[np.arange(rows.size), labels[rows]] -= 1.0
    t = Tape()
    x = parameter(logits)
    t.backward(t.cross_entropy(x, labels, rows))
    assert np.array_equal(x.grad, add_at_reference(rows, soft * (1.0 / rows.size), n))


@settings(max_examples=100, deadline=None)
@given(case=scatter_cases(), data=st.data())
def test_chunk_sum_matches_per_chunk_add_at_bit_for_bit(case, data):
    n, ids, values = case
    c = data.draw(st.integers(1, 4))
    scores = data.draw(arrays(np.float64, (ids.size, c), elements=st.floats(-1e3, 1e3)))
    expected = np.concatenate(
        [add_at_reference(ids, scores[:, t : t + 1] * values, n) for t in range(c)],
        axis=1,
    )
    arcs = grouped_by_id(ids, n)
    assert np.array_equal(arcs.chunk_sums(scores[arcs.src], values), expected)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_chunk_sum_forward_and_gradients_match_per_chunk_add_at(data):
    # the arcs gather rows of x, whose row count is its own; the update
    # after the chunk sums projects by the identity, so its upstream
    # gradient and the message's have one shape
    n_out, n_x = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    k, c = data.draw(st.integers(0, 14)), data.draw(st.integers(1, 4))
    w = data.draw(st.integers(1, 3))
    dst = np.sort(np.array(data.draw(st.lists(st.integers(0, n_out - 1), min_size=k,
                                              max_size=k)), dtype=np.int64))
    src = np.array(data.draw(st.lists(st.integers(0, n_x - 1), min_size=k, max_size=k)),
                   dtype=np.int64)
    floats = st.floats(-1e3, 1e3)
    scores = data.draw(arrays(np.float64, (k, c), elements=floats))
    x = data.draw(arrays(np.float64, (n_x, w), elements=floats))
    upstream = data.draw(arrays(np.float64, (n_out, c * w), elements=floats))
    h0 = data.draw(arrays(np.float64, (n_out, c * w), elements=floats))
    indptr = np.zeros(n_out + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n_out), out=indptr[1:])

    expected = np.concatenate(
        [add_at_reference(dst, scores[:, t : t + 1] * x[src], n_out) for t in range(c)],
        axis=1,
    )
    gain, bias, eye = np.ones((1, c * w)), np.zeros((1, c * w)), np.eye(c * w)
    chain = norm_project_chain(h0, expected, 0.6, gain, bias, eye, None, upstream)
    up3 = chain[2].reshape(n_out, c, w)  # the message's gradient

    def x_grad_reference(s, u3):
        out = np.zeros_like(x)
        for t in range(c):
            np.add.at(out, src, s[:, t : t + 1] * u3[dst, t])
        return out

    def scores_grad_reference(u3, xs):
        return (u3[dst] * xs[src][:, None, :]).sum(axis=2)

    arcs = Arcs(src, indptr, n_x)
    assert np.array_equal(arcs.chunk_sums(scores, x), expected)
    t = Tape()
    s_param, xp = parameter(scores), parameter(x)
    out = update(t, s_param, xp, arcs, h0, 0.6, gain, bias, eye)
    assert np.array_equal(out.data, chain[0])
    backward_from(t, upstream, out)
    # the same float64 products summed in another order: each entry may move
    # by (terms - 1) * 2**-53 times the sum of its terms' magnitudes, and a
    # gradient entry here has at most 56 terms
    for got, want, bound in (
        (xp.grad, x_grad_reference(scores, up3),
         x_grad_reference(np.abs(scores), np.abs(up3))),
        (s_param.grad, scores_grad_reference(up3, x),
         scores_grad_reference(np.abs(up3), np.abs(x))),
    ):
        assert np.all(np.abs(got - want) <= 1e-12 * bound)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_chunk_sum_of_one_hot_scores_is_the_label_blocked_sum(data):
    n = data.draw(st.integers(1, 8))
    c = data.draw(st.integers(1, 4))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=16))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    features = data.draw(arrays(np.float64, (n, 3), elements=st.floats(-1e3, 1e3)))
    labels = np.array(data.draw(st.lists(st.integers(0, c - 1), min_size=n,
                                         max_size=n)), dtype=np.int64)
    g = build_graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2), features,
                    labels, c)
    got = Arcs(g.arc_src, g.indptr, n).chunk_sums(one_hot_arc_scores(g, labels, c),
                                                  features)
    assert np.array_equal(got, one_hop_desirable_m2m(features, g, labels, mode="sum"))


def random_arcs(rng, n_out, n_x, k):
    """(arc_src, indptr) of k arcs from rows of an n_x-row x into n_out rows."""
    dst = np.sort(rng.integers(0, n_out, k))
    indptr = np.zeros(n_out + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n_out), out=indptr[1:])
    return rng.integers(0, n_x, k), indptr


@pytest.mark.parametrize("chunks", [1, 3, 5])
def test_chunk_sum_gradients_match_the_stored_csr_formulas_bit_for_bit(chunks):
    # the chunk sums' record used to keep its own stacked CSR and build the
    # score gradient from strided g3[dst, t] rows and a fresh np.repeat of
    # dst; here the update after them hands them the chain's gradient
    rng = np.random.default_rng(chunks)
    n, n_x, k, w = 300, 280, 2400, 16
    src, indptr = random_arcs(rng, n, n_x, k)
    scores, x = rng.random((k, chunks)), rng.normal(size=(n_x, w))
    upstream = rng.normal(size=(n, 8))
    h0, proj = rng.normal(size=(n, chunks * w)), rng.normal(size=(chunks * w, 8))
    gain, bias = rng.uniform(0.5, 1.5, size=(1, chunks * w)), rng.normal(size=(1, chunks * w))
    t = Tape()
    s_param, x_param = parameter(scores), parameter(x)
    out = update(t, s_param, x_param, Arcs(src, indptr, n_x), h0, 0.6, gain, bias, proj)
    backward_from(t, upstream, out)

    stacked = sp.csr_matrix(
        (scores.T.ravel(), np.tile(src, chunks),
         np.append((indptr[:-1] + k * np.arange(chunks)[:, None]).ravel(), chunks * k)),
        shape=(chunks * n, n_x))
    message = (stacked @ x).reshape(chunks, n, w).transpose(1, 0, 2).reshape(n, chunks * w)
    chain = norm_project_chain(h0, message, 0.6, gain, bias, proj, None, upstream)
    g3 = chain[2].reshape(n, chunks, w)
    dst = np.repeat(np.arange(n), np.diff(indptr))
    x_src = x[src]
    g_scores = np.empty((k, chunks))
    for c in range(chunks):
        g_scores[:, c] = np.einsum("aw,aw->a", g3[dst, c], x_src)
    assert same_bits(out.data, chain[0])
    assert same_bits(x_param.grad,
                     stacked.T @ g3.transpose(1, 0, 2).reshape(chunks * n, w))
    assert same_bits(s_param.grad, g_scores)


def layer_norm(t, x, gain, bias):
    """aggregate_update's LayerNorm alone: no arcs, beta = 0 and a
    nonnegative x, so the residual mix and its ReLU hand x through
    unchanged, keep_prob 1 and an identity projection."""
    n, d = x.shape
    return update(t, np.zeros((0, 1)), np.zeros((1, d)),
                  Arcs(np.zeros(0, dtype=np.int64), np.zeros(n + 1, dtype=np.int64), 1),
                  x, 0.0, gain, bias, np.eye(d))


def test_layer_norm_constant_row_gives_bias():
    t = Tape()
    gain = parameter(np.full((1, 4), 2.0))
    bias = parameter([[1.0, -1.0, 0.5, 0.0]])
    out = layer_norm(t, constant(np.full((2, 4), 7.0)), gain, bias)
    # zero variance row: standardized values are ~0, output is the bias
    np.testing.assert_allclose(out.data, np.tile(bias.data, (2, 1)), atol=1e-6)


def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(2)
    t = Tape()
    x = constant(np.abs(rng.normal(2.0, 3.0, size=(5, 64))))
    out = layer_norm(t, x, constant(np.ones((1, 64))), constant(np.zeros((1, 64))))
    np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.std(axis=1), 1.0, atol=1e-3)


def norm_project_chain(h0, message, beta, gain, bias, w, mask, upstream):
    """Output and (h0, message, gain, bias, w) gradients of the update after
    the chunk sums in Tape.aggregate_update, step by step in plain numpy, as
    the records it fused (residual LayerNorm, dropout, matmul) computed
    them, with `mask` the float dropout mask (None for no dropout) and
    `upstream` the output's gradient."""
    mix = h0 * (1.0 - beta) + message * beta
    relu = np.maximum(mix, 0.0)
    xhat = relu - relu.mean(axis=1, keepdims=True)
    var = (xhat * xhat).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv_std
    normed = xhat * gain
    normed += bias
    dropped = normed if mask is None else normed * mask
    d_dropped = upstream @ w.T
    d_normed = d_dropped if mask is None else d_dropped * mask
    dxhat = d_normed * gain
    d_relu = dxhat - dxhat.mean(axis=1, keepdims=True)
    d_relu -= xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
    d_relu *= inv_std
    d_mix = d_relu * (mix > 0.0)
    return (dropped @ w, d_mix * (1.0 - beta), d_mix * beta,
            (d_normed * xhat).sum(axis=0, keepdims=True),
            d_normed.sum(axis=0, keepdims=True), dropped.T @ upstream)


@pytest.mark.parametrize("keep_prob", [0.5, 1.0])
@pytest.mark.parametrize("rows,width", [(3000, 80), (4, 6)])
def test_norm_project_matches_the_chain_bit_for_bit(rows, width, keep_prob):
    # one arc into each row gathers the row of the message array under an
    # all-ones score column, so the chunk sums hand it through unchanged
    rng = np.random.default_rng(rows)
    arrays_in = [rng.normal(size=(rows, width)), rng.normal(size=(rows, width)),
                 rng.uniform(0.5, 1.5, size=(1, width)), rng.normal(size=(1, width)),
                 rng.normal(size=(width, 16))]
    upstream = rng.normal(size=(rows, 16))
    mask = None
    if keep_prob < 1.0:
        mask = (np.random.default_rng(9).random((rows, width)) < keep_prob) / keep_prob
    t = Tape()
    leaves = [parameter(a.copy()) for a in arrays_in]
    h0, message, gain, bias, w = leaves
    scores = parameter(ones_column(rows))
    draws = np.random.default_rng(9)
    out = t.aggregate_update(scores, message, Arcs(np.arange(rows), np.arange(rows + 1), rows),
                             h0, 0.6, gain, bias, w, keep_prob, draws)
    backward_from(t, upstream, out)
    chain = list(norm_project_chain(*arrays_in[:2], 0.6, *arrays_in[2:], mask, upstream))
    g_message = chain[2]
    chain[2] = add_at_reference(np.arange(rows), g_message, rows)  # the gather's
    for fused, want in zip([out.data] + [p.grad for p in leaves], chain):
        assert same_bits(fused, want)
    assert same_bits(scores.grad, np.einsum("aw,aw->a", g_message, arrays_in[1])[:, None])
    if keep_prob == 1.0:  # nothing drawn
        assert draws.random() == np.random.default_rng(9).random()


def test_norm_project_rejects_mismatched_inputs():
    t = Tape()
    ones, x, w = np.ones((1, 4)), np.ones((3, 4)), np.ones((4, 2))
    arcs = Arcs([0, 1, 2], [0, 1, 2, 3], 3)
    rng = np.random.default_rng(0)
    for args in [(ones_column(3), x, arcs, np.ones((2, 4)), 0.5, ones, ones, w, 1.0),
                 (ones_column(3), x, arcs, x, 0.5, np.ones((1, 3)), ones, w, 1.0),
                 (ones_column(3), x, arcs, x, 0.5, ones, ones, np.ones((3, 2)), 1.0),
                 (ones_column(3), x, arcs, x, 0.5, ones, ones, w, 0.0),
                 (ones_column(3), x, arcs, x, 0.5, ones, ones, w, 1.5),
                 (np.ones((3, 2)), x, arcs, x, 0.5, ones, ones, w, 1.0),
                 (ones_column(2), x, arcs, x, 0.5, ones, ones, w, 1.0)]:
        with pytest.raises(ValueError):
            update(t, *args, rng)


def arc_attention_chain(h, w_att, src, dst, alpha, temperature):
    """Tape.arc_attention's scores, step by step in plain numpy, as the
    seven-op chain it fused computed them: a row-major softmax."""
    z = np.maximum(h[dst] * alpha + h[src], 0.0) @ w_att
    z /= temperature
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


@pytest.mark.parametrize("chunks", [3, 10])
def test_arc_attention_forward_matches_the_chain(chunks):
    # bit for bit below eight chunks; from eight on numpy sums a row of
    # the chain's row-major softmax pairwise, so only the last bits may differ
    rng = np.random.default_rng(chunks)
    h, w_att = rng.normal(size=(500, 16)), rng.normal(size=(16, chunks))
    src, dst = rng.integers(0, 500, 3000), np.sort(rng.integers(0, 500, 3000))
    got = Tape(recording=False).arc_attention(constant(h), constant(w_att),
                                              arcs_to(src, dst, 500), 0.5, 0.5).data
    want = arc_attention_chain(h, w_att, src, dst, 0.5, 0.5)
    if chunks < 8:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-13)


def test_arc_attention_forward_matches_the_chain_on_the_gradcheck_graph():
    _, (h, w_att) = CASES["arc_attention"]
    src, dst = np.array([1, 0, 2, 3, 1, 1]), np.array([0, 1, 1, 1, 2, 3])
    got = Tape().arc_attention(constant(h), constant(w_att), arcs_to(src, dst, 4),
                               0.6, 0.8)
    assert np.array_equal(got.data, arc_attention_chain(h, w_att, src, dst, 0.6, 0.8))


def test_arc_attention_rejects_out_of_range_endpoint():
    h, w_att = constant(np.ones((3, 2))), constant(np.ones((2, 2)))
    with pytest.raises(ValueError, match="'arc_src': arc source outside"):
        Tape().arc_attention(h, w_att, Arcs([0, 3], [0, 0, 2, 2], 3), 0.5, 0.5)
    # arcs into row 3, or from row 3, of an h with rows 0 to 2
    for arcs in (Arcs([0, 1], [0, 0, 1, 1, 2], 3), Arcs([0, 3], [0, 0, 2, 2], 4)):
        with pytest.raises(ValueError, match="arc_attention dimension mismatch"):
            Tape().arc_attention(h, w_att, arcs, 0.5, 0.5)


def arc_attention_with_kept_activation(h, w_att, src, dst, alpha, temperature,
                                       upstream):
    """Scores and (h, w_att) gradients of arc_attention as computed when its
    record kept the (arcs, w) ReLU output instead of recomputing it."""
    act = h[dst]
    act *= alpha
    act += h[src]
    np.maximum(act, 0.0, out=act)
    z = np.ascontiguousarray((act @ w_att).T) / temperature
    z -= z.max(axis=0, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=0, keepdims=True)
    scores = z.T
    g, s = np.ascontiguousarray(upstream.T), np.ascontiguousarray(scores.T)
    d = g - (g * s).sum(axis=0, keepdims=True)
    d *= s
    d /= temperature
    dz = np.ascontiguousarray(d.T)
    d_pre = dz @ w_att.T
    d_pre *= act > 0.0
    k = src.size
    ends = sp.csc_matrix((np.tile([alpha, 1.0], k), np.stack([dst, src], axis=1).ravel(),
                          np.arange(0, 2 * k + 1, 2)), shape=(h.shape[0], k))
    return scores, ends @ d_pre, act.T @ dz


def test_arc_attention_gradients_match_the_kept_activation_bit_for_bit():
    rng = np.random.default_rng(22)
    n, k, w, c = 400, 3000, 16, 3
    h, w_att = rng.normal(size=(n, w)), rng.normal(size=(w, c))
    src, dst = rng.integers(0, n, k), np.sort(rng.integers(0, n, k))
    upstream = rng.normal(size=(k, c))
    t = Tape()
    h_param, w_param = parameter(h), parameter(w_att)
    scores = t.arc_attention(h_param, w_param, arcs_to(src, dst, n), 0.5, 0.5)
    backward_from(t, upstream, scores)
    want_scores, want_h, want_w = arc_attention_with_kept_activation(
        h, w_att, src, dst, 0.5, 0.5, upstream)
    assert same_bits(scores.data, want_scores)
    assert same_bits(h_param.grad, want_h)
    assert same_bits(w_param.grad, want_w)


def test_arc_attention_holds_one_arc_sized_float_array_at_a_time():
    # the source rows are added in blocks, so each pass peaks near one
    # (arcs, w) array: the ReLU output, or the backward's d_pre after it
    rng = np.random.default_rng(25)
    n, k, w, c = 2000, 40000, 32, 2
    h, w_att = rng.normal(size=(n, w)), rng.normal(size=(w, c))
    src, dst = rng.integers(0, n, k), np.sort(rng.integers(0, n, k))
    upstream = rng.normal(size=(k, c))
    g = np.asfortranarray(upstream)  # F-ordered, as aggregate_update hands it on
    h_param, w_param = parameter(h), parameter(w_att)
    t, arcs = Tape(), arcs_to(src, dst, n)
    unit = k * w * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scores = t.arc_attention(h_param, w_param, arcs, 0.5, 0.5)
        forward_peak = tracemalloc.get_traced_memory()[1] - before
        (_, back), = t._nodes
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        back(g)
        backward_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert forward_peak < 1.5 * unit, forward_peak / unit
    assert backward_peak < 1.5 * unit, backward_peak / unit
    # and the blocks, the last one partial, add up to the same bits
    want_scores, want_h, want_w = arc_attention_with_kept_activation(
        h, w_att, src, dst, 0.5, 0.5, upstream)
    assert same_bits(scores.data, want_scores)
    assert same_bits(h_param.grad, want_h)
    assert same_bits(w_param.grad, want_w)


def test_arc_attention_gathers_int32_destination_rows_in_blocks():
    # numpy copies int32 indices to intp for a take, 8 B per arc if the
    # destination rows are gathered at once: at width 2 the backward would
    # peak at 24 B per arc (the ReLU output's 16 and that copy), not at the
    # 18 of the ReLU output and its mask
    rng = np.random.default_rng(26)
    n, k, w, c = 3000, 300_000, 2, 1
    h, w_att = rng.normal(size=(n, w)), rng.normal(size=(w, c))
    dst = np.sort(rng.integers(0, n, k))
    arcs = arcs_to(rng.integers(0, n, k), dst, n)
    assert arcs.src.dtype == arcs.dst.dtype == np.int32
    arcs.endpoint_matrix(0.5)  # built once, whatever the backward allocates
    t = Tape()
    scores = t.arc_attention(parameter(h), parameter(w_att), arcs, 0.5, 0.5)
    (_, back), = t._nodes
    g = np.asfortranarray(rng.normal(size=scores.shape))
    tracemalloc.start()
    try:
        back(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 21 * k, peak / k


def test_one_arcs_at_two_alphas_gives_the_bits_of_two_fresh_ones():
    # the endpoint matrix is kept per alpha, so the second alpha gets its own
    rng = np.random.default_rng(24)
    n, k, w, c = 40, 300, 4, 3
    src, dst = rng.integers(0, n, k), np.sort(rng.integers(0, n, k))
    h, w_att = rng.normal(size=(n, w)), rng.normal(size=(w, c))
    upstream = rng.normal(size=(k, c))

    def run(arcs, alpha):
        t, h_param, w_param = Tape(), parameter(h), parameter(w_att)
        scores = t.arc_attention(h_param, w_param, arcs, alpha, 0.5)
        backward_from(t, upstream, scores)
        return scores.data, h_param.grad, w_param.grad

    shared = arcs_to(src, dst, n)
    for alpha in (0.3, 0.7, 0.3):
        for got, want in zip(run(shared, alpha), run(arcs_to(src, dst, n), alpha)):
            assert same_bits(got, want)
    assert sorted(shared._ends) == [0.3, 0.7]


# project's dropout: dropout(x) @ w as one record


@pytest.mark.parametrize("keep_prob", [0.3, 0.7])
def test_dropout_matches_the_float_mask_bit_for_bit(keep_prob):
    # the record keeps the mask packed to bits and rebuilds the dropped-out
    # input for w's gradient; the float mask and a kept dropped-out copy
    # are what it replaced
    rng = np.random.default_rng(23)
    x, w = rng.normal(size=(60, 40)), rng.normal(size=(40, 8))
    upstream = rng.normal(size=(60, 8))
    mask = (np.random.default_rng(9).random(x.shape) < keep_prob) / keep_prob
    t = Tape()
    x_param, w_param = parameter(x), parameter(w)
    out = t.project(x_param, w_param, keep_prob, np.random.default_rng(9))
    backward_from(t, upstream, out)
    assert same_bits(out.data, (x * mask) @ w)
    assert same_bits(x_param.grad, (upstream @ w.T) * mask)
    assert same_bits(w_param.grad, (x * mask).T @ upstream)


def test_dropout_keep_one_is_identity():
    # keep_prob 1 multiplies x itself and draws nothing from rng
    t = Tape()
    x = constant([[1.0, 2.0, 3.0]])
    rng = np.random.default_rng(0)
    out = t.project(x, constant(np.eye(3)), 1.0, rng)
    np.testing.assert_array_equal(out.data, x.data)
    assert rng.random() == np.random.default_rng(0).random()


def test_dropout_preserves_expectation():
    rng = np.random.default_rng(3)
    t = Tape(recording=False)
    x = constant(np.ones((200, 200)))
    out = t.project(x, constant(np.eye(200)), 0.6, rng)
    assert abs(out.data.mean() - 1.0) < 0.02
    # surviving entries are inverted-scaled at train time
    kept = out.data[out.data > 0]
    np.testing.assert_allclose(kept, 1.0 / 0.6, atol=1e-12)


def test_dropout_rejects_bad_keep_prob():
    t = Tape()
    for keep_prob in (0.0, 1.5):
        with pytest.raises(ValueError, match="keep_prob"):
            t.project(constant([[1.0]]), constant([[1.0]]), keep_prob,
                      np.random.default_rng(0))


def test_cross_entropy_uniform_logits_is_log_c():
    t = Tape()
    loss = t.cross_entropy(constant(np.zeros((4, 5))), [0, 1, 2, 3], [0, 1, 2, 3])
    assert abs(loss.item() - np.log(5)) < 1e-12


def test_cross_entropy_confident_correct_is_near_zero():
    t = Tape()
    logits = np.full((3, 3), -50.0)
    logits[np.arange(3), [0, 1, 2]] = 50.0
    loss = t.cross_entropy(constant(logits), [0, 1, 2], [0, 1, 2])
    assert loss.item() < 1e-12


def test_cross_entropy_requires_rows():
    t = Tape()
    with pytest.raises(ValueError):
        t.cross_entropy(constant(np.zeros((2, 2))), [0, 1], [])


def test_cross_entropy_rejects_row_ids_that_are_not_integers():
    # read as int64, a boolean mask would select rows 0 and 1 (a loss of
    # 2.6623 here) instead of the rows it marks (1.7360)
    logits = constant(np.random.default_rng(4).normal(size=(6, 3)))
    labels = [0, 1, 2, 0, 1, 2]
    mask = np.array([False, True, False, True, True, False])
    for row_ids in (mask, mask.astype(float), [1.0, 3.0]):
        with pytest.raises(ValueError, match="row_ids"):
            Tape().cross_entropy(logits, labels, row_ids)
    want = Tape().cross_entropy(logits, labels, [1, 3, 4]).item()
    for row_ids in (np.flatnonzero(mask), np.array([1, 3, 4], dtype=np.uint8),
                    np.array([1, 3, 4], dtype=np.int32)):
        assert Tape().cross_entropy(logits, labels, row_ids).item() == want


# ---------------------------------------------------------------------------
# Backward pass contracts
# ---------------------------------------------------------------------------


def test_backward_of_sum_is_ones():
    t = Tape()
    w = parameter(np.arange(6, dtype=float).reshape(2, 3))
    t.backward(total(t, w))
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_backward_requires_scalar():
    t = Tape()
    w = parameter(np.ones((2, 2)))
    out = t.add(w, w)
    with pytest.raises(ValueError):
        t.backward(out)


def test_backward_twice_raises():
    t = Tape()
    w = parameter(np.ones((1, 1)))
    loss = total(t, w)
    t.backward(loss)
    with pytest.raises(RuntimeError):
        t.backward(loss)


def test_untouched_leaf_has_no_gradient():
    t = Tape()
    w = parameter(np.ones((2, 2)))
    bystander = parameter(np.ones((2, 2)))
    t.backward(total(t, w))
    assert bystander.grad is None
    np.testing.assert_array_equal(w.grad, np.ones((2, 2)))


def test_gradient_accumulates_on_reuse():
    t = Tape()
    w = parameter([[3.0]])
    loss = t.project(w, w, 1.0, None)  # w^2, d/dw = 2w
    t.backward(loss)
    np.testing.assert_allclose(w.grad, [[6.0]])


def test_add_hands_each_operand_its_own_gradient():
    # the first gradient a leaf receives is stored without a copy, so add,
    # which passes one upstream array to both operands, must copy one
    a, b, x = (parameter(np.full((2, 2), v)) for v in (1.0, 2.0, 3.0))
    t = Tape()
    summed = t.add(t.add(a, b), t.add(x, x))
    t.backward(total(t, t.add(summed, t.add(a, a))))
    assert a.grad is not b.grad
    np.testing.assert_array_equal(a.grad, np.full((2, 2), 3.0))
    np.testing.assert_array_equal(b.grad, np.ones((2, 2)))
    np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))


def test_chunk_balance_gradient_is_a_writeable_array():
    x = parameter(np.arange(6.0).reshape(3, 2))
    t = Tape()
    t.backward(t.chunk_balance([x], 1.0))
    assert x.grad.flags.writeable and x.grad.flags.owndata
    # column sums m = (6, 9) of norm sqrt(117), at sqrt(C)/arcs = sqrt(2)/3
    want = np.array([[6.0, 9.0]]) / np.sqrt(117.0) * float(np.sqrt(2.0) / 3)
    np.testing.assert_array_equal(x.grad, np.tile(want, (3, 1)))
    t = Tape()
    t.backward(total(t, x))  # accumulates into the stored array
    np.testing.assert_array_equal(x.grad, np.tile(want + 1.0, (3, 1)))


def column_mass(x):
    """The one-row column sums of x, its rows added one after another."""
    mass = x[:1].copy() if x.shape[0] else np.zeros((1, x.shape[1]))
    for row in x[1:]:
        mass += row
    return mass


def penalty_chain(layers, weight, upstream):
    """The chunk-balance penalty's value and score gradients as the op
    chain sum_rows -> l2_norm -> scale -> add, then scale(1/K), add(-1)
    and scale(weight), computes them, in plain numpy with upstream as the
    gradient of the value: rows added one after another, terms in layer
    order."""
    total, parts = None, []
    for x in layers:
        rows, cols = x.shape
        mass = column_mass(x)
        norm = float(np.sqrt(np.sum(mass * mass)))
        coef = float(np.sqrt(cols) / rows)
        term = np.array([[norm]]) * coef
        total = term if total is None else total + term
        parts.append((mass, norm, coef))
    inv_k = float(1.0 / len(layers))
    value = (total * inv_k + np.array([[-1.0]])) * weight
    g_term = upstream * weight * inv_k  # what each add hands each term
    grads = [np.broadcast_to(mass / norm * (g_term * coef)[0, 0], x.shape)
             for x, (mass, norm, coef) in zip(layers, parts)]
    return value, grads


LAYERS = st.lists(
    st.tuples(arrays(np.float64, st.tuples(st.integers(0, 60), st.integers(1, 6)),
                     elements=st.floats(-1e6, 1e6)),
              st.booleans()),
    min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(layers=LAYERS, weight=st.floats(0.0, 10.0), upstream=st.floats(-10.0, 10.0))
def test_chunk_balance_is_the_op_chain_bit_for_bit(layers, weight, upstream):
    # numpy sums the contiguous axis of F-ordered data pairwise, which
    # moves bits from eight rows on; the op adds rows in order on either
    # layout. The first layer of no rows, or of column sums of norm 0,
    # raises where the chain divides by zero
    data = [np.asfortranarray(x) if f_order else np.ascontiguousarray(x)
            for x, f_order in layers]
    params = [parameter(x) for x in data]
    t = Tape()
    for x in data:
        mass = column_mass(x)
        if x.shape[0] and np.sum(mass * mass):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            value, grads = penalty_chain(data, 1.0, np.ones((1, 1)))
        assert not (np.isfinite(value).all()
                    and all(np.isfinite(g).all() for g in grads))
        match = "0 rows" if not x.shape[0] else r"\|\|m\|\| = 0"
        with pytest.raises(ValueError, match=match):
            t.chunk_balance(params, weight)
        return
    out = t.chunk_balance(params, weight)
    value, grads = penalty_chain(data, weight, np.array([[upstream]]))
    assert same_bits(out.data, value)
    backward_from(t, np.array([[upstream]]), out)
    for p, want in zip(params, grads):
        assert same_bits(p.grad, want)


def test_pending_broadcast_gradients_add_up_like_copies():
    # chunk_balance hands each score cell a read-only broadcast view: a
    # later gradient adds into it as into a copy (add's two cells and a
    # second view included), a record whose output still holds a view gets
    # a writable array (relu multiplies g in place), and leaves end with
    # arrays of their own. The reference passes each input through an
    # add of zeros, which hands back a full copy of the view, and its
    # additions meet in the same pairs, so the bits agree
    x = np.arange(6.0).reshape(3, 2)
    u = np.arange(8.0).reshape(4, 2) - 3.0

    def grads(through):
        xp, up = parameter(x), parameter(u)
        t = Tape()
        y = t.project(xp, constant(3.0 * np.eye(2)), 1.0, None)
        dropped = t.relu(t.project(up, constant(np.eye(2)), 0.5,
                                   np.random.default_rng(1)))
        t.backward(t.chunk_balance([t.add(y, y), through(t, y), through(t, xp),
                                    through(t, xp), through(t, dropped)], 1.0))
        return xp.grad, up.grad

    got = grads(lambda t, v: v)
    want = grads(lambda t, v: t.add(v, constant(np.zeros(v.shape))))
    for g, w in zip(got, want):
        assert g.flags.writeable and g.flags.owndata
        assert same_bits(g, w)


def test_leaf_gradients_accumulate_across_backward_calls():
    w = parameter([[1.0, 2.0]])
    hidden = []
    for _ in range(2):
        t = Tape()
        h = t.project(w, constant(3.0 * np.eye(2)), 1.0, None)
        t.backward(total(t, h))
        hidden.append(h)
    np.testing.assert_array_equal(w.grad, [[6.0, 6.0]])
    assert all(h.grad is None for h in hidden)  # non-leaf gradients are freed


def test_grad_is_settable_and_zero_grad_clears_it():
    w = parameter([[1.0]])
    w.grad = np.array([[5.0]])
    t = Tape()
    t.backward(total(t, t.project(w, constant([[2.0]]), 1.0, None)))
    np.testing.assert_array_equal(w.grad, [[7.0]])
    opt = AdamState([w])
    opt.zero_grad()
    assert w.grad is None
    t = Tape()
    t.backward(total(t, w))
    np.testing.assert_array_equal(w.grad, [[1.0]])


# ---------------------------------------------------------------------------
# Finite-difference gradient checks, op by op
def test_const_matmul_hand_example_dense_and_csr():
    x = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, -1.0]])
    for operand in (x, sp.csr_matrix(x)):
        t = Tape()
        w = parameter([[1.0, 0.5], [2.0, 0.0], [3.0, -1.0]])
        out = t.const_matmul(operand, w)
        np.testing.assert_array_equal(out.data, [[4.0, 0.0], [-2.0, 1.5]])
        backward_from(t, np.array([[1.0, 0.0], [0.0, 2.0]]), out)
        np.testing.assert_array_equal(w.grad, [[0.0, 2.0], [2.0, 0.0], [0.0, -2.0]])
        assert type(w.grad) is np.ndarray


def test_const_matmul_shape_error():
    with pytest.raises(ValueError, match="const_matmul"):
        Tape().const_matmul(sp.csr_matrix(np.ones((2, 3))), parameter(np.ones((2, 3))))


def test_const_matmul_of_an_array_is_matmul_of_a_constant_bit_for_bit():
    rng = np.random.default_rng(5)
    x, w0, up = rng.normal(size=(7, 5)), rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
    outs, grads = [], []
    for op in (lambda t, w: t.const_matmul(x, w),
               lambda t, w: t.project(constant(x), w, 1.0, None)):
        t, w = Tape(), parameter(w0.copy())
        out = op(t, w)
        backward_from(t, up, out)
        outs.append(out.data)
        grads.append(w.grad)
    assert same_bits(*outs) and same_bits(*grads)


def test_const_matmul_of_a_csr_matrix_matches_the_dense_product():
    rng = np.random.default_rng(6)
    x = (rng.random((9, 40)) < 0.05) * rng.normal(size=(9, 40))
    w0, up = rng.normal(size=(40, 4)), rng.normal(size=(9, 4))
    t, w = Tape(), parameter(w0.copy())
    out = t.const_matmul(sp.csr_matrix(x), w)
    backward_from(t, up, out)
    np.testing.assert_allclose(out.data, x @ w0, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(w.grad, x.T @ up, rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------


def _build_cases():
    rng = np.random.default_rng(7)

    cases = {}

    def case(name, shapes):
        def deco(fn):
            cases[name] = (fn, [rng.uniform(-2, 2, s) for s in shapes])
            return fn

        return deco

    @case("matmul", [(3, 4), (4, 2)])
    def _(t, a, b):
        return total(t, t.project(a, b, 1.0, None))

    @case("add_scale", [(3, 3), (3, 3)])
    def _(t, a, b):
        return total(t, t.add(t.project(a, constant(1.7 * np.eye(3)), 1.0, None), b))

    # draw the leaves of the retired mul cases so later cases keep their inputs
    for shape in [(5, 1), (5, 4), (4, 4), (4, 4)]:
        rng.uniform(-2, 2, shape)

    @case("relu", [(4, 4)])
    def _(t, a):
        return total(t, t.relu(a))

    # and those of the retired row_softmax and layer_norm cases
    rng.uniform(-2, 2, (3, 5))
    for shape in [(4, 6), (1, 6), (1, 6)]:
        rng.uniform(-2, 2, shape)

    @case("chunk_sum", [(3, 4), (5, 3)])
    def _(t, a, b):
        # five arcs gathering rows of a: two into output row 0, three into row 1;
        # h0 lifts every mixed entry above the ReLU's kink, and no dropout
        return sq_norm(t, t.aggregate_update(
            b, a, Arcs([0, 0, 2, 1, 2], [0, 2, 5], 3), constant(np.full((2, 12), 20.0)),
            0.5, constant(np.ones((1, 12))), constant(np.zeros((1, 12))),
            constant(np.linspace(-1.0, 1.0, 36).reshape(12, 3)), 1.0,
            np.random.default_rng(0)))

    @case("cross_entropy", [(5, 3)])
    def _(t, a):
        return t.cross_entropy(a, [0, 1, 2, 1, 0], [0, 2, 3])

    @case("chunk_balance", [(4, 3)])
    def _(t, a):
        # two layers of different widths, weighted
        w = constant([[1.0, 0.5], [-1.0, 2.0], [0.0, 1.0]])
        return t.chunk_balance([a, t.project(a, w, 1.0, None)], 2.5)

    # draw the leaf of the retired l2_norm case so later cases keep their inputs
    rng.uniform(-2, 2, (2, 3))

    @case("composite_chain", [(4, 3), (3, 3)])
    def _(t, x, w):
        h = t.relu(t.project(x, w, 1.0, None))
        return t.cross_entropy(h, [0, 1, 2, 1], [0, 1, 2, 3])

    @case("arc_attention", [(4, 3), (3, 2)])
    def _(t, h, w):
        # arcs of the path 0-1-2 and the edge 1-3, sorted by (dst, src)
        scores = t.arc_attention(h, w, Arcs([1, 0, 2, 3, 1, 1], [0, 1, 4, 5, 6], 4),
                                 alpha=0.6, temperature=0.8)
        return sq_norm(t, scores)

    @case("norm_project", [(4, 6), (4, 6), (1, 6), (1, 6), (6, 3)])
    def _(t, h0, m, g, b, w):
        # one arc of score 1 from each row of m into the same row, so the
        # message is m itself, and the same mask on every evaluation
        return sq_norm(t, t.aggregate_update(
            constant(np.ones((4, 1))), m, Arcs([0, 1, 2, 3], [0, 1, 2, 3, 4], 4), h0,
            0.6, g, b, w, 0.75, np.random.default_rng(3)))

    @case("const_matmul", [(4, 3)])
    def _(t, w):
        x = sp.csr_matrix([[0.0, 1.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                           [-2.0, 0.0, 0.5, 1.0]])
        return sq_norm(t, t.const_matmul(x, w))

    @case("aggregate_update", [(6, 3), (4, 2), (4, 6), (1, 6), (1, 6), (6, 3)])
    def _(t, s, x, h0, g, b, w):
        # three chunks of width 2 summed over the arc_attention case's arcs,
        # and the same mask on every evaluation
        return sq_norm(t, t.aggregate_update(
            s, x, Arcs([1, 0, 2, 3, 1, 1], [0, 1, 4, 5, 6], 4), h0, 0.6, g, b, w,
            0.75, np.random.default_rng(3)))

    @case("project", [(4, 6), (6, 3)])
    def _(t, x, w):
        # the same mask on every evaluation
        return sq_norm(t, t.project(x, w, 0.75, np.random.default_rng(3)))

    return cases


CASES = _build_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_gradcheck(name):
    builder, leaves = CASES[name]

    def value(*arrays):
        t = Tape()
        return builder(t, *[constant(a) for a in arrays]).item()

    t = Tape()
    params = [parameter(a.copy()) for a in leaves]
    loss = builder(t, *params)
    t.backward(loss)
    analytic = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    assert_grad_matches(value, leaves, analytic)


def test_gradcheck_random_inputs_many_trials():
    """100 random-input trials across a mixed op pipeline."""
    rng = np.random.default_rng(11)
    for trial in range(100):
        x = rng.uniform(-2, 2, (3, 4))
        w = rng.uniform(-2, 2, (4, 4))

        def value(xa, wa):
            t = Tape()
            h = t.relu(t.project(constant(xa), constant(wa), 1.0, None))
            return t.cross_entropy(h, [0, 3, 1], [0, 1, 2]).item()

        t = Tape()
        wp = parameter(w.copy())
        h = t.relu(t.project(constant(x), wp, 1.0, None))
        t.backward(t.cross_entropy(h, [0, 3, 1], [0, 1, 2]))
        fd = finite_difference_grad(value, [x, w], 1)
        scale = max(np.abs(fd).max(), 1e-8)
        np.testing.assert_allclose(wp.grad, fd, atol=FD_RTOL * scale,
                                   err_msg=f"trial {trial}")


def test_dropout_mask_constant_in_backward():
    rng_fwd = np.random.default_rng(5)
    t = Tape()
    x = parameter(np.ones((6, 6)))
    out = t.project(x, constant(np.eye(6)), 0.5, rng_fwd)
    mask = out.data.copy()  # ones were scaled by mask exactly
    t.backward(total(t, out))
    np.testing.assert_array_equal(x.grad, mask)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_is_noop_without_decay():
    p = parameter([[1.0, -2.0]])
    opt = AdamState([p], lr=0.5)
    p.grad = np.zeros((1, 2))
    opt.step()
    np.testing.assert_array_equal(p.data, [[1.0, -2.0]])


def test_adam_first_step_is_lr_sized():
    # closed form: m_hat = g, v_hat = g^2 -> step = lr * g/(|g| + eps)
    p = parameter([[0.0]])
    opt = AdamState([p], lr=0.1)
    p.grad = np.array([[1.0]])
    opt.step()
    expected = -0.1 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(p.data, [[expected]], rtol=1e-12)


def test_adam_converges_on_quadratic():
    p = parameter([[10.0]])
    opt = AdamState([p], lr=0.05)
    for _ in range(2000):
        p.grad = 2.0 * (p.data - 3.0)
        opt.step()
    assert abs(p.data[0, 0] - 3.0) < 1e-3


def test_adam_decoupled_weight_decay():
    p = parameter([[2.0]])
    opt = AdamState([p], lr=0.1, weight_decay=0.5)
    p.grad = np.zeros((1, 1))
    opt.step()
    # zero gradient: only the decay term moves the weight: p -= lr*wd*p
    np.testing.assert_allclose(p.data, [[2.0 * (1 - 0.1 * 0.5)]], rtol=1e-12)


def test_adam_moment_shapes_follow_params():
    p = parameter(np.zeros((3, 2)))
    opt = AdamState([p])
    assert opt.m[0].shape == (3, 2) and opt.v[0].shape == (3, 2)
    p.grad = np.zeros((2, 3))
    with pytest.raises(ValueError):
        opt.step()


def test_tape_takes_a_graphs_int32_arc_index_without_a_copy():
    # the Arcs hold the Graph's own arrays; the operators' index arrays are
    # int32, so scipy copies none
    rng = np.random.default_rng(31)
    n = 60
    edges = rng.integers(0, n, size=(200, 2))
    g = build_graph(n, edges[edges[:, 0] != edges[:, 1]], np.zeros((n, 1)),
                    np.zeros(n, dtype=np.int64), 1)
    assert g.arc_src.dtype == np.int32
    arcs = Arcs(g.arc_src, g.indptr, n)
    assert np.shares_memory(arcs.src, g.arc_src)
    assert np.shares_memory(arcs.indptr, g.indptr)
    assert arcs.n == n and np.array_equal(arcs.dst, g.arc_dst)
    chunks, chunks_t = arcs.chunk_matrices(3)
    assert arcs.dst.dtype == chunks.indices.dtype == chunks.indptr.dtype == np.int32
    assert np.shares_memory(chunks_t.indices, chunks.indices)
    ends = arcs.endpoint_matrix(0.5)
    assert ends.indices.dtype == ends.indptr.dtype == np.int32


def test_tape_gives_the_same_bits_on_int32_and_int64_arc_indices():
    # an int64 arc index is what a Graph unpickled from an older build holds
    rng = np.random.default_rng(32)
    n, w, c = 50, 8, 3
    edges = rng.integers(0, n, size=(300, 2))
    g = build_graph(n, edges[edges[:, 0] != edges[:, 1]], np.zeros((n, 1)),
                    np.zeros(n, dtype=np.int64), 1)
    h, w_att = rng.normal(size=(n, w)), rng.normal(size=(w, c))
    upstream = rng.normal(size=(n, 4))
    h0, proj = rng.normal(size=(n, c * w)), constant(rng.normal(size=(c * w, 4)))
    gain, bias = constant(np.ones((1, c * w))), constant(np.zeros((1, c * w)))
    results = []
    for dtype in (np.int32, np.int64):
        arcs = Arcs(g.arc_src.astype(dtype), g.indptr.astype(dtype), n)
        t = Tape()
        h_param, w_param = parameter(h), parameter(w_att)
        scores = t.arc_attention(h_param, w_param, arcs, 0.5, 0.5)
        out = t.aggregate_update(scores, h_param, arcs, constant(h0), 0.6, gain,
                                 bias, proj, 1.0, None)
        backward_from(t, upstream, out)
        results.append((out.data, h_param.grad, w_param.grad))
    for a, b in zip(*results):
        assert same_bits(a, b)
