"""Pooling primitives, chunked-vs-collapsed separation, d-hop equivalence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heterognn.graphs import build_graph
from heterognn.multiset import (
    Partition,
    VectorMultiset,
    chunked_distance,
    d_hop_oracle,
    distance_compare,
    m2e_pool,
    m2m_expected_step,
    m2m_pool,
    maxima_first_partition,
    one_hop_desirable_m2m,
    relu_contraction_check,
    stacked_one_hop,
)
from heterognn.signed import expected_mean_recursion

ONE_THREE = VectorMultiset([[1.0], [3.0]])
TWO_TWO = VectorMultiset([[2.0], [2.0]])
SPLIT = Partition([0, 1], 2)


def test_singleton_pools_to_itself():
    v = VectorMultiset([[2.0, -1.0]])
    for mode in ("sum", "mean", "max"):
        np.testing.assert_array_equal(m2e_pool(v, mode=mode), [2.0, -1.0])


def test_pool_arithmetic_frozen():
    assert m2e_pool(ONE_THREE, mode="sum")[0] == 4.0
    assert m2e_pool(ONE_THREE, mode="mean")[0] == 2.0
    assert m2e_pool(ONE_THREE, mode="max")[0] == 3.0


def test_empty_multiset_pools_to_zero():
    empty = VectorMultiset(np.zeros((0, 3)))
    for mode in ("sum", "mean", "max"):
        np.testing.assert_array_equal(m2e_pool(empty, mode=mode), np.zeros(3))


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        m2e_pool(ONE_THREE, mode="median")
    with pytest.raises(ValueError):
        m2m_pool(ONE_THREE, SPLIT, mode="median")
    g = _star_graph()
    with pytest.raises(ValueError):
        one_hop_desirable_m2m(g.features, g, g.labels, mode="max")


def test_single_group_reduces_to_plain_pooling():
    rng = np.random.default_rng(0)
    ms = VectorMultiset(rng.normal(size=(6, 3)))
    whole = Partition(np.zeros(6, dtype=int), 1)
    for mode in ("sum", "mean", "max"):
        chunked = m2m_pool(ms, whole, mode=mode)
        collapsed = m2e_pool(ms, mode=mode)
        assert chunked.tobytes() == collapsed.tobytes()


def test_split_outputs_differ_where_collapsed_agree():
    a = m2m_pool(ONE_THREE, SPLIT, mode="sum")
    b = m2m_pool(TWO_TWO, SPLIT, mode="sum")
    np.testing.assert_array_equal(a, [1.0, 3.0])
    np.testing.assert_array_equal(b, [2.0, 2.0])
    assert m2e_pool(ONE_THREE, mode="sum")[0] == m2e_pool(TWO_TWO, mode="sum")[0]


def test_empty_group_leaves_zero_block():
    ms = VectorMultiset([[5.0], [7.0]])
    part = Partition([2, 2], 3)
    np.testing.assert_array_equal(m2m_pool(ms, part, mode="sum"), [0.0, 0.0, 12.0])


def test_full_size_mean_blocks_sum_to_plain_mean():
    rng = np.random.default_rng(1)
    ms = VectorMultiset(rng.normal(size=(7, 2)))
    part = Partition(rng.integers(0, 3, 7), 3)
    blocks = m2m_pool(ms, part, mode="mean").reshape(3, 2)
    np.testing.assert_allclose(blocks.sum(axis=0), m2e_pool(ms, mode="mean"))


# ---------------------------------------------------------------------------
# Distance comparison
# ---------------------------------------------------------------------------


def test_identical_inputs_give_zero_distances():
    assert distance_compare(ONE_THREE, ONE_THREE, SPLIT) == (0.0, 0.0)


def test_one_three_versus_two_two_frozen_distances():
    m2m, m2e = distance_compare(ONE_THREE, TWO_TWO, SPLIT, mode="sum")
    assert m2e == 0.0
    assert m2m == pytest.approx(math.sqrt(2))
    m2m, m2e = distance_compare(ONE_THREE, TWO_TWO, SPLIT, mode="mean")
    assert m2e == 0.0
    assert m2m == pytest.approx(math.sqrt(0.5))


@st.composite
def aligned_pair(draw):
    n = draw(st.integers(1, 5))
    f = draw(st.integers(1, 3))
    ints = st.integers(-3, 3)
    a = draw(st.lists(st.lists(ints, min_size=f, max_size=f), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(ints, min_size=f, max_size=f), min_size=n, max_size=n))
    groups = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    part = Partition(np.array(groups), 3)
    return VectorMultiset(a), VectorMultiset(b), part


@given(aligned_pair())
@settings(max_examples=300, deadline=None)
def test_blockwise_distance_dominates_collapsed(pair):
    # summed per-block distances can only exceed the collapsed distance
    # (triangle inequality), for any shared partition
    x_a, x_b, part = pair
    for mode in ("sum", "mean"):
        blocks_a = m2m_pool(x_a, part, mode=mode)
        blocks_b = m2m_pool(x_b, part, mode=mode)
        blockwise = chunked_distance(blocks_a, blocks_b, part.n_groups)
        m2e = np.linalg.norm(m2e_pool(x_a, mode=mode) - m2e_pool(x_b, mode=mode))
        assert blockwise >= m2e - 1e-12


@given(aligned_pair())
@settings(max_examples=300, deadline=None)
def test_euclidean_chunked_distance_within_sqrt_groups(pair):
    # the plain Euclidean distance of the concatenations keeps at least a
    # 1/sqrt(groups) share of the collapsed distance (Cauchy-Schwarz)
    x_a, x_b, part = pair
    for mode in ("sum", "mean"):
        m2m, m2e = distance_compare(x_a, x_b, part, mode=mode)
        assert m2m >= m2e / math.sqrt(part.n_groups) - 1e-12


def test_aligned_shift_shows_euclidean_metric_limit():
    # both elements move by +1, split into singleton groups: the collapsed
    # sum moves by 2 while the concatenation moves by sqrt(2). Unconditional
    # domination holds for the summed per-block distance, not the Euclidean
    # one, and the suite asserts each inequality under its own metric.
    a = VectorMultiset([[0.0], [0.0]])
    b = VectorMultiset([[1.0], [1.0]])
    m2m, m2e = distance_compare(a, b, SPLIT, mode="sum")
    assert m2e == 2.0
    assert m2m == pytest.approx(math.sqrt(2))
    blockwise = chunked_distance(
        m2m_pool(a, SPLIT, mode="sum"), m2m_pool(b, SPLIT, mode="sum"), 2
    )
    assert blockwise == pytest.approx(2.0)
    assert blockwise >= m2e - 1e-12


@given(aligned_pair())
@settings(max_examples=300, deadline=None)
def test_max_mode_dominates_under_maxima_first_arrangement(pair):
    x_a, x_b, _ = pair
    part = maxima_first_partition(x_a, x_b)
    m2m, m2e = distance_compare(x_a, x_b, part, mode="max")
    assert m2m >= m2e - 1e-12


@given(aligned_pair())
@settings(max_examples=300, deadline=None)
def test_collapsed_difference_implies_chunked_difference(pair):
    x_a, x_b, part = pair
    for mode in ("sum", "mean"):
        m2m, m2e = distance_compare(x_a, x_b, part, mode=mode)
        if m2e > 1e-9:
            assert m2m > 0.0
    # max: the maxima-first arrangement preserves any collapsed difference
    m2m, m2e = distance_compare(
        x_a, x_b, maxima_first_partition(x_a, x_b), mode="max"
    )
    if m2e > 1e-9:
        assert m2m > 0.0


# ---------------------------------------------------------------------------
# Label-blocked neighborhood summaries
# ---------------------------------------------------------------------------


def _star_graph():
    # hub node 0 with spokes 1(class0), 2(class0), 3(class1); node 4 isolated
    feats = np.array([[0.0], [1.0], [2.0], [5.0], [9.0]])
    labels = np.array([2, 0, 0, 1, 2])
    return build_graph(5, [(0, 1), (0, 2), (0, 3)], feats, labels, 3)


def test_one_hop_blocks_by_neighbor_class():
    g = _star_graph()
    msg = one_hop_desirable_m2m(g.features, g, g.labels, mode="sum")
    np.testing.assert_array_equal(msg[0], [3.0, 5.0, 0.0])
    np.testing.assert_array_equal(msg[4], [0.0, 0.0, 0.0])
    # spokes see only the hub (class 2)
    np.testing.assert_array_equal(msg[1], [0.0, 0.0, 0.0])  # feature of hub is 0
    np.testing.assert_array_equal(msg[3], [0.0, 0.0, 0.0])


def test_one_hop_full_size_mean_divides_by_degree():
    g = _star_graph()
    msg = one_hop_desirable_m2m(g.features, g, g.labels, mode="mean")
    np.testing.assert_allclose(msg[0], [1.0, 5.0 / 3.0, 0.0])


def _add_at_one_hop(features, g, labels, C, mode):
    """The former scatter: np.add.at into node-major class blocks."""
    X = np.asarray(features, dtype=np.float64)
    out = np.zeros((g.n_nodes * C, X.shape[1]))
    np.add.at(out, g.arc_dst * C + labels[g.arc_src], X[g.arc_src])
    out = out.reshape(g.n_nodes, -1)
    if mode == "mean":
        indeg = np.bincount(g.arc_dst, minlength=g.n_nodes).astype(np.float64)
        nonzero = indeg > 0
        out[nonzero] /= indeg[nonzero, None]
    return out


@pytest.mark.parametrize("mode", ["sum", "mean"])
@pytest.mark.parametrize("f", [1, 7])
@pytest.mark.parametrize("seed", [0, 1])
def test_one_hop_matches_the_add_at_scatter_bit_for_bit(mode, f, seed):
    rng = np.random.default_rng(seed)
    n, C = 400, 3
    # about 120 edges among the first 300 nodes: many nodes are isolated,
    # and the last 100 always are
    pairs = {tuple(sorted(rng.choice(300, 2, replace=False)))
             for _ in range(120)}
    # magnitudes over six decades, so a change of summation order shows
    features = rng.normal(size=(n, f)) * 10.0 ** rng.integers(-3, 4, (n, f))
    g = build_graph(n, sorted(pairs), features, rng.integers(0, C, n), C)
    assert (np.diff(g.indptr) == 0).sum() >= 100
    got = one_hop_desirable_m2m(g.features, g, g.labels, mode=mode)
    want = _add_at_one_hop(g.features, g, g.labels, C, mode)
    assert got.shape == want.shape == (n, C * f)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("bad, node", [([0, 2, 0, 1], 1), ([0, 1, -1, 1], 2),
                                       ([0, 1, 0, 5], 3)])
def test_one_hop_rejects_a_label_outside_the_classes(bad, node):
    # on the path 0-1-2-3 with C=2, node 1's label 2 used to put node 0's
    # neighbour into node 1's class-0 block, and a label of -1 wrapped into
    # the block before
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)], np.ones((4, 1)),
                    np.array([0, 1, 0, 1]), 2)
    match = rf"\[0, 2\): node {node} has label {bad[node]}"
    with pytest.raises(ValueError, match=match):
        one_hop_desirable_m2m(g.features, g, np.array(bad), mode="sum")
    with pytest.raises(ValueError, match=match):
        stacked_one_hop(g.features, g, np.array(bad), 2)


def _seq_block(seq, C, width):
    t = 0
    for s in seq:
        t = t * C + s
    return slice(t * width, (t + 1) * width)


def test_two_hop_path_with_silent_start_has_single_block():
    feats = np.array([[0.0], [5.0], [7.0]])
    labels = np.array([0, 1, 2])
    g = build_graph(3, [(0, 1), (1, 2)], feats, labels, 3)
    out = d_hop_oracle(g.features, g, g.labels, 2)
    row = out[0]
    block = _seq_block((1, 2), 3, 1)
    assert row[block] == 7.0
    masked = row.copy()
    masked[block] = 0.0
    assert not masked.any()


def test_two_hop_revisit_walk_is_counted():
    feats = np.array([[1.0], [5.0], [7.0]])
    labels = np.array([0, 1, 2])
    g = build_graph(3, [(0, 1), (1, 2)], feats, labels, 3)
    out = d_hop_oracle(g.features, g, g.labels, 2)
    # from node 0: walk 0->1->0 lands in block (1,0), walk 0->1->2 in (1,2)
    assert out[0][_seq_block((1, 0), 3, 1)] == 1.0
    assert out[0][_seq_block((1, 2), 3, 1)] == 7.0


def test_one_hop_equals_depth_one_oracle():
    g = _star_graph()
    np.testing.assert_allclose(
        one_hop_desirable_m2m(g.features, g, g.labels, mode="sum"),
        d_hop_oracle(g.features, g, g.labels, 1),
    )


def _random_graph(rng, n, C, f=2):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45
    ]
    feats = rng.normal(size=(n, f))
    labels = rng.integers(0, C, n)
    return build_graph(n, edges, feats, labels, C)


def _random_weights(rng, d, f, fp, C):
    weights = [rng.normal(size=(f, fp))]
    for k in range(2, d + 1):
        weights.append(rng.normal(size=(C ** (k - 1), fp, fp)))
    return weights


def test_stacked_equals_oracle_identity_weights():
    rng = np.random.default_rng(2)
    for _ in range(8):
        n = int(rng.integers(4, 13))
        C = int(rng.integers(2, 4))
        d = int(rng.integers(1, 4))
        g = _random_graph(rng, n, C)
        np.testing.assert_allclose(
            stacked_one_hop(g.features, g, g.labels, d),
            d_hop_oracle(g.features, g, g.labels, d),
            atol=1e-9,
        )


def test_stacked_equals_oracle_random_block_weights():
    rng = np.random.default_rng(3)
    for _ in range(8):
        n = int(rng.integers(4, 13))
        C = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        g = _random_graph(rng, n, C)
        weights = _random_weights(rng, d, 2, 3, C)
        np.testing.assert_allclose(
            stacked_one_hop(g.features, g, g.labels, d, weights),
            d_hop_oracle(g.features, g, g.labels, d, weights),
            atol=1e-9,
        )


def test_oracle_refuses_combinatorial_blowup():
    rng = np.random.default_rng(4)
    g = _random_graph(rng, 6, 3)
    with pytest.raises(ValueError, match="cap"):
        d_hop_oracle(g.features, g, g.labels, 12)


# ---------------------------------------------------------------------------
# Expected chunked dynamics
# ---------------------------------------------------------------------------


def test_expected_step_equal_rates_cannot_separate():
    prior = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    nxt, bounds = m2m_expected_step(0.01, 0.01, 3, prior)
    assert bounds.max() == 0.0
    np.testing.assert_array_equal(nxt[0], nxt[1])


def test_expected_step_separates_equal_priors():
    v = np.array([0.6, -0.8])  # norm 1
    prior = np.tile(v, (3, 1))
    p, q = 0.003, 0.01
    nxt, bounds = m2m_expected_step(p, q, 3, prior)
    want = abs(p - q) / (p + 2 * q) * 2.0
    assert bounds[0, 1] == pytest.approx(want)
    # summed per-chunk distance meets the bound with equality here
    assert chunked_distance(nxt[0], nxt[1], 3) == pytest.approx(want, rel=1e-12)
    # plain concatenated distance comes in exactly a factor sqrt(2) short
    assert np.linalg.norm(nxt[0] - nxt[1]) == pytest.approx(
        want / math.sqrt(2), rel=1e-12
    )
    assert chunked_distance(nxt[0], nxt[1], 3) >= want - 1e-15


def test_expected_step_against_flat_averaging():
    # same equal priors leave the flat class-mean recursion stuck at gap zero
    v = np.array([0.6, -0.8])
    prior = np.tile(v, (3, 1))
    flat = expected_mean_recursion(0.003, 0.01, 3, prior)
    assert np.linalg.norm(flat[0] - flat[1]) == 0.0
    nxt, _ = m2m_expected_step(0.003, 0.01, 3, prior)
    assert chunked_distance(nxt[0], nxt[1], 3) > 0.0


def test_expected_step_shape_and_errors():
    prior = np.eye(3)
    nxt, bounds = m2m_expected_step(0.2, 0.1, 3, prior)
    assert nxt.shape == (3, 9)
    assert bounds.shape == (3, 3)
    with pytest.raises(ValueError):
        m2m_expected_step(0.2, 0.1, 4, prior)
    with pytest.raises(ValueError):
        m2m_expected_step(0.0, 0.0, 3, prior)


@pytest.mark.parametrize("p, q, name", [(math.nan, 0.1, "p"), (0.2, math.nan, "q")])
def test_expected_step_rejects_a_nan_rate_naming_it(p, q, name):
    with pytest.raises(ValueError, match=rf"\b{name}=nan"):
        m2m_expected_step(p, q, 3, np.eye(3))


def test_chunked_distance_validation():
    with pytest.raises(ValueError):
        chunked_distance(np.zeros(5), np.zeros(5), 2)
    with pytest.raises(ValueError):
        chunked_distance(np.zeros(4), np.zeros(6), 2)


# ---------------------------------------------------------------------------
# ReLU contraction
# ---------------------------------------------------------------------------


def test_relu_contraction_hand_cases():
    assert relu_contraction_check([1.0, 2.0], [1.0, 2.0])
    a, b = np.array([1.0, -1.0]), np.array([-1.0, 1.0])
    assert relu_contraction_check(a, b)
    clipped = np.linalg.norm(np.maximum(a, 0) - np.maximum(b, 0))
    assert clipped == pytest.approx(math.sqrt(2))
    assert np.linalg.norm(a - b) == pytest.approx(2 * math.sqrt(2))


def test_relu_contraction_random_sweep():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        a = rng.normal(scale=3.0, size=4)
        b = rng.normal(scale=3.0, size=4)
        assert relu_contraction_check(a, b)
