"""Tests for the tape engine: forward semantics and gradient soundness.

The gradient oracle throughout is central finite differences (h = 1e-5) on
64-bit inputs drawn from [-2, 2], compared at relative error < 1e-4.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from heterognn.autodiff import AdamState, Tape, Tensor, constant, parameter
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


def test_item_requires_scalar():
    with pytest.raises(ValueError):
        Tensor([[1.0, 2.0]]).item()


# ---------------------------------------------------------------------------
# Forward semantics, hand-computed oracles
# ---------------------------------------------------------------------------


def test_matmul_identity():
    t = Tape()
    m = constant([[1.5, -2.0], [0.25, 7.0]])
    out = t.matmul(constant(np.eye(2)), m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_hand_example():
    t = Tape()
    out = t.matmul(constant([[1, 2], [3, 4]]), constant([[1], [1]]))
    np.testing.assert_array_equal(out.data, [[3], [7]])


def test_matmul_shape_error():
    t = Tape()
    with pytest.raises(ValueError):
        t.matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))


def test_row_softmax_uniform_on_zeros():
    t = Tape()
    out = t.row_softmax(constant([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_row_softmax_sharpens_at_low_temperature():
    t = Tape()
    out = t.row_softmax(constant([[1.0, 0.0]]), temperature=0.01)
    np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-4)


def test_row_softmax_frozen_values():
    # scalar oracle: e^1, e^2, e^3 normalized
    t = Tape()
    out = t.row_softmax(constant([[1.0, 2.0, 3.0]]))
    np.testing.assert_allclose(
        out.data, [[0.09003057, 0.24472847, 0.66524096]], atol=1e-5
    )


def test_row_softmax_rejects_bad_temperature():
    t = Tape()
    with pytest.raises(ValueError):
        t.row_softmax(constant([[1.0]]), temperature=0.0)


@settings(max_examples=50, deadline=None)
@given(
    x=arrays(np.float64, (3, 4), elements=st.floats(-10, 10)),
    shift=st.floats(-5, 5),
)
def test_row_softmax_rows_sum_to_one_and_shift_invariant(x, shift):
    t = Tape(recording=False)
    s = t.row_softmax(constant(x)).data
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
    s_shifted = t.row_softmax(constant(x + shift)).data
    np.testing.assert_allclose(s, s_shifted, atol=1e-12)


def test_relu_clamps_negative():
    t = Tape()
    out = t.relu(constant([[-1.0, 0.0, 2.5]]))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.5]])


def ones_column(k):
    """Scores that turn chunk_sum into a plain segment sum."""
    return constant(np.ones((k, 1)))


def grouped_by_id(ids, n):
    """(arc_src, indptr) that list the rows of each id in row order: the
    stable sort of the row numbers by id, and its CSR offsets."""
    order = np.argsort(ids, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=n), out=indptr[1:])
    return order, indptr


def test_chunk_sum_hand_example():
    t = Tape()
    x = constant([[1.0, 2.0], [10.0, 20.0], [5.0, 5.0]])
    out = t.chunk_sum(ones_column(3), x, [0, 1, 2], [0, 2, 3])
    np.testing.assert_array_equal(out.data, [[11.0, 22.0], [5.0, 5.0]])


def test_chunk_sum_empty_segment_is_zero():
    t = Tape()
    out = t.chunk_sum(ones_column(1), constant([[1.0]]), [0], [0, 0, 0, 1, 1])
    np.testing.assert_array_equal(out.data, [[0.0], [0.0], [1.0], [0.0]])


def test_chunk_sum_rejects_out_of_range_id():
    t = Tape()
    with pytest.raises(IndexError):
        t.chunk_sum(ones_column(1), constant([[1.0]]), [3], [0, 0, 1])


@pytest.mark.parametrize("indptr", [[0, 2], [1, 1], [0, 1, 0], [[0, 1]]])
def test_chunk_sum_rejects_bad_indptr(indptr):
    t = Tape()
    with pytest.raises(ValueError, match="indptr"):
        t.chunk_sum(ones_column(1), constant([[1.0]]), [0], indptr)


@settings(max_examples=30, deadline=None)
@given(perm=st.permutations(range(6)))
def test_chunk_sum_permutation_invariant_within_segments(perm):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 3))
    ids = np.array([0, 0, 1, 1, 1, 2])
    t = Tape(recording=False)
    src, indptr = grouped_by_id(ids, 3)
    ref = t.chunk_sum(ones_column(6), constant(x), src, indptr).data
    perm = np.array(perm)
    src, indptr = grouped_by_id(ids[perm], 3)
    got = t.chunk_sum(ones_column(6), constant(x[perm]), src, indptr).data
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


@settings(max_examples=100, deadline=None)
@given(case=scatter_cases())
def test_chunk_sum_and_gather_backward_match_add_at_bit_for_bit(case):
    n, ids, values = case
    expected = add_at_reference(ids, values, n)
    src, indptr = grouped_by_id(ids, n)
    summed = Tape(recording=False).chunk_sum(ones_column(ids.size),
                                             constant(values), src, indptr)
    assert np.array_equal(summed.data, expected)
    t = Tape()
    x = parameter(np.zeros((n, values.shape[1])))
    # the upstream gradient of the gathered rows is exactly `values`
    t.backward(t.sum_all(t.mul(t.row_gather(x, ids), constant(values))))
    assert np.array_equal(x.grad, expected)


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
    src, indptr = grouped_by_id(ids, n)
    got = Tape(recording=False).chunk_sum(constant(scores[src]), constant(values),
                                          src, indptr)
    assert np.array_equal(got.data, expected)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_chunk_sum_forward_and_gradients_match_per_chunk_add_at(data):
    # the arcs gather rows of x, whose row count is its own
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
    indptr = np.zeros(n_out + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n_out), out=indptr[1:])

    expected = np.concatenate(
        [add_at_reference(dst, scores[:, t : t + 1] * x[src], n_out) for t in range(c)],
        axis=1,
    )
    up3 = upstream.reshape(n_out, c, w)

    def x_grad_reference(s, u3):
        out = np.zeros_like(x)
        for t in range(c):
            np.add.at(out, src, s[:, t : t + 1] * u3[dst, t])
        return out

    def scores_grad_reference(u3, xs):
        return (u3[dst] * xs[src][:, None, :]).sum(axis=2)

    t = Tape()
    s_param, xp = parameter(scores), parameter(x)
    out = t.chunk_sum(s_param, xp, src, indptr)
    assert np.array_equal(out.data, expected)
    t.backward(t.sum_all(t.mul(out, constant(upstream))))
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
    got = Tape(recording=False).chunk_sum(
        constant(one_hot_arc_scores(g, labels, c)), constant(features), g.arc_src,
        g.indptr)
    assert np.array_equal(got.data, one_hop_desirable_m2m(features, g, labels, mode="sum"))


def test_row_gather_out_of_range():
    t = Tape()
    with pytest.raises(IndexError):
        t.row_gather(constant(np.ones((3, 1))), [3])


def test_layer_norm_constant_row_gives_bias():
    t = Tape()
    gain = parameter(np.full((1, 4), 2.0))
    bias = parameter([[1.0, -1.0, 0.5, 0.0]])
    out = t.layer_norm(constant(np.full((2, 4), 7.0)), gain, bias)
    # zero variance row: standardized values are ~0, output is the bias
    np.testing.assert_allclose(out.data, np.tile(bias.data, (2, 1)), atol=1e-6)


def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(2)
    t = Tape()
    x = constant(rng.normal(2.0, 3.0, size=(5, 64)))
    out = t.layer_norm(x, constant(np.ones((1, 64))), constant(np.zeros((1, 64))))
    np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.std(axis=1), 1.0, atol=1e-3)


def residual_norm_chain(t, h0, message, beta, gain, bias):
    """The five-op chain that Tape.residual_norm fuses."""
    mix = t.add(t.scale(h0, 1.0 - beta), t.scale(message, beta))
    return t.layer_norm(t.relu(mix), gain, bias)


@pytest.mark.parametrize("rows,width", [(3000, 80), (4, 6)])
def test_residual_norm_matches_the_chain_bit_for_bit(rows, width):
    rng = np.random.default_rng(rows)
    arrays_in = [rng.normal(size=(rows, width)), rng.normal(size=(rows, width)),
                 rng.uniform(0.5, 1.5, size=(1, width)), rng.normal(size=(1, width))]
    upstream = constant(rng.normal(size=(rows, width)))
    results = []
    for op in (Tape.residual_norm, residual_norm_chain):
        t = Tape()
        leaves = [parameter(a.copy()) for a in arrays_in]
        h0, message, gain, bias = leaves
        out = op(t, h0, message, 0.6, gain, bias)
        t.backward(t.sum_all(t.mul(out, upstream)))
        results.append([out.data] + [p.grad for p in leaves])
    for fused, chain in zip(*results):
        assert np.array_equal(fused, chain)


def test_residual_norm_rejects_mismatched_inputs():
    t = Tape()
    ones = constant(np.ones((1, 4)))
    with pytest.raises(ValueError):
        t.residual_norm(constant(np.ones((3, 4))), constant(np.ones((2, 4))), 0.5,
                        ones, ones)
    with pytest.raises(ValueError):
        t.residual_norm(constant(np.ones((3, 4))), constant(np.ones((3, 4))), 0.5,
                        constant(np.ones((1, 3))), ones)


def arc_attention_chain(t, h, w_att, src, dst, alpha, temperature):
    """The seven-op chain that Tape.arc_attention fuses."""
    pre = t.add(t.scale(t.row_gather(h, dst), alpha), t.row_gather(h, src))
    return t.row_softmax(t.matmul(t.relu(pre), w_att), temperature)


@pytest.mark.parametrize("chunks", [3, 10])
def test_arc_attention_forward_matches_the_chain(chunks):
    # bit for bit below eight chunks; from eight on numpy sums a row of
    # the chain's row_softmax pairwise, so only the last bits may differ
    rng = np.random.default_rng(chunks)
    h, w_att = rng.normal(size=(500, 16)), rng.normal(size=(16, chunks))
    src, dst = rng.integers(0, 500, 3000), np.sort(rng.integers(0, 500, 3000))
    got = Tape(recording=False).arc_attention(constant(h), constant(w_att), src,
                                              dst, 0.5, 0.5).data
    want = arc_attention_chain(Tape(recording=False), constant(h), constant(w_att),
                               src, dst, 0.5, 0.5).data
    if chunks < 8:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-13)


def test_arc_attention_forward_matches_the_chain_on_the_gradcheck_graph():
    _, (h, w_att) = CASES["arc_attention"]
    src, dst = [1, 0, 2, 3, 1, 1], [0, 1, 1, 1, 2, 3]
    got = Tape().arc_attention(constant(h), constant(w_att), src, dst, 0.6, 0.8)
    want = arc_attention_chain(Tape(), constant(h), constant(w_att), src, dst,
                               0.6, 0.8)
    assert np.array_equal(got.data, want.data)


def test_dropout_keep_one_is_identity():
    t = Tape()
    x = constant([[1.0, 2.0, 3.0]])
    out = t.dropout(x, 1.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_preserves_expectation():
    rng = np.random.default_rng(3)
    t = Tape(recording=False)
    x = constant(np.ones((200, 200)))
    out = t.dropout(x, 0.6, rng)
    assert abs(out.data.mean() - 1.0) < 0.02
    # surviving entries are inverted-scaled at train time
    kept = out.data[out.data > 0]
    np.testing.assert_allclose(kept, 1.0 / 0.6, atol=1e-12)


def test_dropout_rejects_bad_keep_prob():
    t = Tape()
    with pytest.raises(ValueError):
        t.dropout(constant([[1.0]]), 0.0, np.random.default_rng(0))


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


# ---------------------------------------------------------------------------
# Backward pass contracts
# ---------------------------------------------------------------------------


def test_backward_of_sum_is_ones():
    t = Tape()
    w = parameter(np.arange(6, dtype=float).reshape(2, 3))
    t.backward(t.sum_all(w))
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_backward_requires_scalar():
    t = Tape()
    w = parameter(np.ones((2, 2)))
    out = t.scale(w, 2.0)
    with pytest.raises(ValueError):
        t.backward(out)


def test_backward_twice_raises():
    t = Tape()
    w = parameter(np.ones((1, 1)))
    loss = t.sum_all(w)
    t.backward(loss)
    with pytest.raises(RuntimeError):
        t.backward(loss)


def test_untouched_leaf_has_no_gradient():
    t = Tape()
    w = parameter(np.ones((2, 2)))
    bystander = parameter(np.ones((2, 2)))
    t.backward(t.sum_all(w))
    assert bystander.grad is None
    np.testing.assert_array_equal(w.grad, np.ones((2, 2)))


def test_gradient_accumulates_on_reuse():
    t = Tape()
    w = parameter([[3.0]])
    loss = t.sum_all(t.mul(w, w))  # w^2, d/dw = 2w
    t.backward(loss)
    np.testing.assert_allclose(w.grad, [[6.0]])


# ---------------------------------------------------------------------------
# Finite-difference gradient checks, op by op
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
        return t.sum_all(t.matmul(a, b))

    @case("add_scale", [(3, 3), (3, 3)])
    def _(t, a, b):
        return t.sum_all(t.add(t.scale(a, 1.7), b))

    @case("mul_broadcast", [(5, 1), (5, 4)])
    def _(t, a, b):
        return t.sum_all(t.mul(a, b))

    @case("mul_same_shape", [(4, 4), (4, 4)])
    def _(t, a, b):
        return t.sum_all(t.mul(a, b))

    @case("relu", [(4, 4)])
    def _(t, a):
        return t.sum_all(t.relu(a))

    @case("row_softmax", [(3, 5)])
    def _(t, a):
        return t.l2_norm_sq(t.row_softmax(a, temperature=0.7))

    @case("layer_norm", [(4, 6), (1, 6), (1, 6)])
    def _(t, a, g, b):
        return t.l2_norm_sq(t.layer_norm(a, g, b))

    @case("chunk_sum", [(3, 4), (5, 3)])
    def _(t, a, b):
        # five arcs gathering rows of a: two into output row 0, three into row 1
        return t.l2_norm_sq(t.chunk_sum(b, a, [0, 0, 2, 1, 2], [0, 2, 5]))

    @case("cross_entropy", [(5, 3)])
    def _(t, a):
        return t.cross_entropy(a, [0, 1, 2, 1, 0], [0, 2, 3])

    @case("sum_rows_l2", [(4, 3)])
    def _(t, a):
        return t.l2_norm_sq(t.sum_rows(a))

    # draw the leaf of the retired l2_norm case so later cases keep their inputs
    rng.uniform(-2, 2, (2, 3))

    @case("composite_chain", [(4, 3), (3, 3)])
    def _(t, x, w):
        h = t.relu(t.matmul(x, w))
        s = t.row_softmax(h, temperature=1.3)
        return t.cross_entropy(s, [0, 1, 2, 1], [0, 1, 2, 3])

    @case("arc_attention", [(4, 3), (3, 2)])
    def _(t, h, w):
        # arcs of the path 0-1-2 and the edge 1-3, sorted by (dst, src)
        scores = t.arc_attention(h, w, [1, 0, 2, 3, 1, 1], [0, 1, 1, 1, 2, 3],
                                 alpha=0.6, temperature=0.8)
        return t.l2_norm_sq(scores)

    @case("residual_norm", [(4, 6), (4, 6), (1, 6), (1, 6)])
    def _(t, h0, m, g, b):
        return t.l2_norm_sq(t.residual_norm(h0, m, 0.6, g, b))

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
            h = t.matmul(constant(xa), constant(wa))
            h = t.relu(h)
            s = t.row_softmax(h, temperature=0.9)
            return t.l2_norm_sq(s).item()

        t = Tape()
        wp = parameter(w.copy())
        h = t.matmul(constant(x), wp)
        h = t.relu(h)
        s = t.row_softmax(h, temperature=0.9)
        t.backward(t.l2_norm_sq(s))
        fd = finite_difference_grad(value, [x, w], 1)
        scale = max(np.abs(fd).max(), 1e-8)
        np.testing.assert_allclose(wp.grad, fd, atol=FD_RTOL * scale,
                                   err_msg=f"trial {trial}")


def test_dropout_mask_constant_in_backward():
    rng_fwd = np.random.default_rng(5)
    t = Tape()
    x = parameter(np.ones((6, 6)))
    out = t.dropout(x, 0.5, rng_fwd)
    mask = out.data.copy()  # ones were scaled by mask exactly
    t.backward(t.sum_all(out))
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
