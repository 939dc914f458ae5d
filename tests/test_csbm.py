"""Signed block-model sampling and the expected normalized operator."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from heterognn.csbm import (
    CsbmParams,
    SignedGraphSample,
    _triangle_pairs,
    expected_operator,
    label_signed_sample,
    mean_abs_degree,
    sample_csbm,
    signed_normalize,
)
from heterognn.graphs import Graph, build_graph


def params(**kw):
    base = dict(n_nodes=60, n_classes=3, p=0.5, q=0.2,
                class_means=[[-1.0], [0.0], [1.0]], seed=0)
    base.update(kw)
    return CsbmParams(**base)


def test_rejects_uneven_class_blocks():
    with pytest.raises(ValueError):
        params(n_nodes=61)


@pytest.mark.parametrize("field", ["n_nodes", "n_classes"])
@pytest.mark.parametrize("value", [0, -3])
def test_rejects_a_count_below_one_naming_it(field, value):
    with pytest.raises(ValueError, match=field):
        params(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_rejects_a_noise_var_that_is_negative_or_not_finite_naming_it(value):
    with pytest.raises(ValueError, match="noise_var"):
        params(noise_var=value)


def test_rejects_bad_probability():
    with pytest.raises(ValueError):
        params(p=1.5)


@pytest.mark.parametrize("value", [float("nan"), -0.1, 1.5, float("inf")])
def test_rejects_a_p_outside_the_unit_interval_naming_p(value):
    with pytest.raises(ValueError, match=rf"^p must lie in \[0, 1\], got {value}$"):
        params(p=value)


@pytest.mark.parametrize("value", [float("nan"), -0.1, 1.5, float("inf")])
def test_rejects_a_q_outside_the_unit_interval_naming_q(value):
    with pytest.raises(ValueError, match=rf"^q must lie in \[0, 1\], got {value}$"):
        params(q=value)


def sample_at_seed_4(**changes):
    base = dict(n_nodes=300, n_classes=3, p=0.05, q=0.02,
                class_means=[[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], seed=4)
    return sample_csbm(CsbmParams(**{**base, **changes}))


def test_moving_p_or_q_keeps_the_features_bit_for_bit():
    # the edges and the noise come from two streams of the seed, so the
    # number of edge draws cannot shift the noise
    base = sample_at_seed_4()
    for changes in ({"p": 0.06}, {"q": 0.03}, {"p": 0.0, "q": 1.0}):
        moved = sample_at_seed_4(**changes)
        assert moved.adjacency.nnz != base.adjacency.nnz
        assert np.array_equal(moved.features, base.features)


def test_moving_the_means_or_the_noise_keeps_the_arcs_bit_for_bit():
    base = sample_at_seed_4()
    for changes in ({"class_means": [[3.0, 1.0], [0.0, 0.5], [2.0, 2.0]]},
                    {"noise_var": 4.0}):
        moved = sample_at_seed_4(**changes)
        assert not np.array_equal(moved.features, base.features)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(moved.adjacency, part),
                                  getattr(base.adjacency, part))


def test_empty_graph_when_p_q_zero():
    s = sample_csbm(params(p=0.0, q=0.0, n_nodes=300))
    assert s.adjacency.nnz == 0
    # features still cluster around the class means within 3 standard errors
    for c in range(3):
        block = s.features[s.labels == c, 0]
        se = block.std(ddof=1) / np.sqrt(len(block))
        assert abs(block.mean() - [-1.0, 0.0, 1.0][c]) < 3 * se


def test_two_positive_cliques():
    s = sample_csbm(CsbmParams(10, 2, p=1.0, q=0.0, class_means=[[0.0], [1.0]]))
    a = s.adjacency.toarray()
    same = s.labels[:, None] == s.labels[None, :]
    expected = np.where(same, 1.0, 0.0)
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_array_equal(a, expected)


def test_adjacency_symmetric_bit_exact():
    s = sample_csbm(params(seed=5))
    diff = (s.adjacency - s.adjacency.T).tocsr()
    assert diff.nnz == 0


def test_signs_follow_classes():
    s = sample_csbm(params(seed=6))
    coo = s.adjacency.tocoo()
    same = s.labels[coo.row] == s.labels[coo.col]
    assert (coo.data[same] == 1.0).all()
    assert (coo.data[~same] == -1.0).all()


def test_deterministic_per_seed():
    a, b = sample_csbm(params(seed=7)), sample_csbm(params(seed=7))
    assert (a.adjacency != b.adjacency).nnz == 0
    np.testing.assert_array_equal(a.features, b.features)


@pytest.mark.parametrize("s", [1, 2, 3, 7, 2000])
def test_triangle_positions_map_like_triu_indices(s):
    i, j = _triangle_pairs(np.arange(s * (s - 1) // 2, dtype=np.int64), s)
    want_i, want_j = np.triu_indices(s, 1)
    np.testing.assert_array_equal(i, want_i)
    np.testing.assert_array_equal(j, want_j)


def test_triangle_map_is_exact_at_row_edges_of_a_huge_block():
    # s(s-1)/2 ~ 4.5e16 pairs: float rounding alone would misplace rows
    s = 3 * 10**8 + 1
    rows = np.array([0, 1, 2, s // 3, s // 2, s - 3, s - 2], dtype=np.int64)
    starts = rows * (2 * s - 1 - rows) // 2
    ends = starts + (s - 2 - rows)  # last position of each row
    i, j = _triangle_pairs(np.concatenate([starts, ends]), s)
    np.testing.assert_array_equal(i, np.concatenate([rows, rows]))
    np.testing.assert_array_equal(j, np.concatenate([rows + 1, np.full(7, s - 1)]))


def test_pairs_are_independent_bernoulli_draws():
    # N=6, C=2: 6 same-class pairs at p and 9 cross pairs at q; 2000 seeds
    # put each frequency within 5 binomial standard errors of its probability
    p, q, trials = 0.3, 0.6, 2000
    hits = np.zeros((6, 6))
    same_pair = cross_pair = 0
    for seed in range(trials):
        a = sample_csbm(CsbmParams(6, 2, p, q, [[0.0], [1.0]], seed=seed))
        a = abs(a.adjacency.toarray())
        hits += a
        same_pair += a[0, 1] * a[0, 2]  # neighbours in one triangle block
        cross_pair += a[0, 3] * a[0, 4]  # neighbours in one rectangle block
    labels = np.repeat([0, 1], 3)
    same = labels[:, None] == labels[None, :]
    want = np.where(same, p, q)
    np.fill_diagonal(want, 0.0)
    tol = 5 * np.sqrt(want * (1 - want) / trials)
    assert np.all(np.abs(hits / trials - want) <= tol)
    for freq, prob in ((same_pair / trials, p * p), (cross_pair / trials, q * q)):
        assert abs(freq - prob) <= 5 * np.sqrt(prob * (1 - prob) / trials)


def test_complete_graph_when_p_q_one():
    s = sample_csbm(params(p=1.0, q=1.0, n_nodes=12))
    a = s.adjacency.toarray()
    same = s.labels[:, None] == s.labels[None, :]
    expected = np.where(same, 1.0, -1.0)
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_array_equal(a, expected)


def test_block_size_one():
    s = sample_csbm(CsbmParams(4, 4, 0.5, 1.0, [[0.0]] * 4))
    expected = -np.ones((4, 4))
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_array_equal(s.adjacency.toarray(), expected)


def test_vanishing_probability_draws_no_edges():
    # geometric gaps near 2**63 must not wrap around into valid positions
    s = sample_csbm(params(p=1.0, q=1e-300, n_nodes=30))
    coo = s.adjacency.tocoo()
    assert coo.nnz == 3 * 10 * 9
    assert (s.labels[coo.row] == s.labels[coo.col]).all()


def test_large_sparse_sample_memory_is_linear_in_edges():
    # a dense N x N draw at this size would need over 100 GB
    p = params(n_nodes=120_000, p=3e-4, q=1e-4, seed=1)
    tracemalloc.start()
    try:
        s = sample_csbm(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_edges = s.adjacency.nnz // 2
    expected = (p.block_size - 1) * p.block_size / 2 * 3 * p.p + 3 * p.block_size**2 * p.q
    assert abs(n_edges / expected - 1) < 0.01
    # measured at 35.6 B per edge, node arrays included, against 45.7 while
    # the Graph held int64 sources beside the CSR's int32 copy of them
    assert peak < 42 * n_edges


def test_signed_normalize_holds_at_most_12_bytes_per_arc():
    # P's own data is 8 B per arc; the rest is one temporary at a time
    s = sample_csbm(params(n_nodes=120_000, p=3e-4, q=1e-4, seed=1))
    tracemalloc.start()
    try:
        P, kept = signed_normalize(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.nnz == s.adjacency.nnz
    assert peak < 12 * s.adjacency.nnz


def test_signed_normalize_drops_isolated_nodes_in_at_most_12_bytes_per_arc():
    # at d-bar about 8 this sample has isolated nodes; their drop renumbers
    # the column ids into P's own index array (4 B per arc) instead of
    # copying the matrix, and the node-sized arrays are about 1 B per arc
    # each. The bound was fixed before the run
    p = params(n_nodes=120_000, p=1e-4, q=5e-5, seed=1)
    s = sample_csbm(p)
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="isolated"):
            P, kept = signed_normalize(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kept) < p.n_nodes
    assert P.nnz == s.adjacency.nnz
    assert peak < 12 * s.adjacency.nnz + 64 * p.n_nodes


def test_signed_csr_shares_the_graphs_index_arrays():
    n = 300
    rng = np.random.default_rng(3)
    edges = rng.integers(0, n, size=(900, 2))
    g = build_graph(n, edges[edges[:, 0] != edges[:, 1]], np.zeros((n, 1)),
                    rng.integers(0, 3, n), 3)
    adj = label_signed_sample(g).adjacency
    assert np.shares_memory(adj.indices, g.arc_src)
    assert np.shares_memory(adj.indptr, g.indptr)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 50), n_classes=st.integers(1, 4),
       p_edge=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_signed_adjacency_equals_the_coo_built_reference(n, n_classes, p_edge,
                                                         seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, n)
    edges = np.array([(u, v) if rng.random() < 0.5 else (v, u)
                      for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p_edge], dtype=np.int64).reshape(-1, 2)
    rng.shuffle(edges)
    g = build_graph(n, edges, np.zeros((n, 1)), labels, n_classes)
    adj = label_signed_sample(g).adjacency
    # reference: both directions as COO triplets, converted by scipy
    ii, jj = edges[:, 0], edges[:, 1]
    signs = np.where(labels[ii] == labels[jj], 1.0, -1.0)
    ref = sp.csr_matrix((np.concatenate([signs, signs]),
                         (np.concatenate([ii, jj]), np.concatenate([jj, ii]))),
                        shape=(n, n))
    assert np.array_equal(adj.indptr, ref.indptr)
    assert np.array_equal(adj.indices, ref.indices)
    assert np.array_equal(adj.data, ref.data)


@pytest.mark.parametrize("low, high", [(0, 2), (0, 255), (0, 256), (-1, 255),
                                       (-300, 300), (-2**40, 2**40)])
def test_signs_match_the_int64_label_comparison(low, high):
    # the labels are compared in the narrowest dtype holding [low, high];
    # values that differ only above its width must still differ
    rng = np.random.default_rng(high)
    n = 200
    values = np.array([low, high, low + 1, high - 1, (low + high) // 2])
    labels = rng.choice(values, n)
    edges = rng.integers(0, n, size=(600, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    g = build_graph(n, edges, np.zeros((n, 1)), labels, 1)
    adj = label_signed_sample(g).adjacency
    want = np.where(labels[g.arc_src] == labels[g.arc_dst], 1.0, -1.0)
    assert np.array_equal(adj.data, want)
    assert (want == 1.0).any() and (want == -1.0).any()


@pytest.mark.parametrize("n, n_classes, p, q, seed", [
    (60, 3, 0.5, 0.2, 0), (12, 4, 1.0, 1.0, 1), (300, 3, 0.02, 0.01, 2),
    (90, 3, 0.01, 0.0, 3),  # most nodes isolated
    (6, 2, 0.0, 0.0, 4),    # no edges at all
])
def test_sample_csr_is_the_graph_of_its_edges(n, n_classes, p, q, seed):
    # the sampler's CSR, wrapped as it stands, is the Graph that build_graph
    # makes of the sample's upper-triangle edges (as values: scipy may keep
    # the CSR index arrays as int32)
    s = sample_csbm(params(n_nodes=n, n_classes=n_classes, p=p, q=q, seed=seed,
                           class_means=np.zeros((n_classes, 1))))
    wrapped = Graph(n, s.adjacency.indices, s.adjacency.indptr, s.features,
                    s.labels, n_classes)
    upper = sp.triu(s.adjacency, k=1).tocoo()
    built = build_graph(n, np.stack([upper.row, upper.col], axis=1), s.features,
                        s.labels, n_classes)
    for field in ("arc_src", "arc_dst", "indptr"):
        assert np.array_equal(getattr(wrapped, field), getattr(built, field)), field
    if p + q <= 0.01:  # the two cases with isolated nodes
        assert (np.diff(wrapped.indptr) == 0).any()


def test_mean_abs_degree_matches_expectation():
    # 20 seeds at simulation scale; expectation (N/C-1)p + (C-1)(N/C)q ~ 23
    p = params(n_nodes=3000, p=0.003, q=0.01)
    exact = (p.block_size - 1) * p.p + 2 * p.block_size * p.q
    assert exact == pytest.approx(23, abs=0.01)
    degs = []
    for seed in range(20):
        s = sample_csbm(params(n_nodes=3000, p=0.003, q=0.01, seed=seed))
        degs.append(abs(s.adjacency).sum() / s.adjacency.shape[0])
    assert abs(np.mean(degs) - exact) / exact < 0.10


def test_single_negative_edge_normalizes_to_minus_one():
    # two classes of one node each: the only possible edge is the cross pair
    s = sample_csbm(CsbmParams(2, 2, p=0.0, q=1.0, class_means=[[0.0], [0.0]]))
    P, kept = signed_normalize(s)
    assert kept.tolist() == [0, 1]
    np.testing.assert_allclose(P.toarray(), [[0.0, -1.0], [-1.0, 0.0]])


def test_positive_pair_normalizes_to_unit():
    s = sample_csbm(CsbmParams(4, 2, p=1.0, q=0.0, class_means=[[0.0], [0.0]]))
    P, kept = signed_normalize(s)
    # two disjoint positive pairs, each edge becomes exactly +1/sqrt(1*1)
    arr = P.toarray()
    np.testing.assert_allclose(arr[0, 1], 1.0)
    np.testing.assert_allclose(arr[2, 3], 1.0)


def test_isolated_nodes_dropped_with_warning():
    s = sample_csbm(params(p=0.0, q=0.0, n_nodes=6))
    s.adjacency = s.adjacency.tolil()
    s.adjacency[0, 1] = 1.0
    s.adjacency[1, 0] = 1.0
    s.adjacency = s.adjacency.tocsr()
    with pytest.warns(UserWarning, match="isolated"):
        P, kept = signed_normalize(s)
    assert kept.tolist() == [0, 1]
    assert P.shape == (2, 2)


def _diagonal_product_normalize(adjacency):
    """The former formula: D^-1/2 A D^-1/2 as two products with a diagonal
    matrix, over the nodes of nonzero absolute degree."""
    deg = np.asarray(abs(adjacency).sum(axis=1)).ravel()
    kept = np.flatnonzero(deg)
    scale = sp.diags(1.0 / np.sqrt(deg[kept]))
    return (scale @ adjacency[kept][:, kept] @ scale).tocsr(), kept


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("n_nodes, p, q, seed", [(300, 0.004, 0.002, 0),
                                                 (300, 0.004, 0.002, 1),
                                                 (120, 0.2, 0.1, 2)])
def test_signed_normalize_matches_the_diagonal_products_bit_for_bit(
        n_nodes, p, q, seed, weighted):
    s = sample_csbm(params(n_nodes=n_nodes, p=p, q=q, seed=seed))
    if weighted:
        # unit weights hide the order of the two scalings; weights in
        # [0.5, 2) on each undirected edge expose it
        upper = sp.triu(s.adjacency, 1).tocsr()
        upper.data *= np.random.default_rng(seed).uniform(0.5, 2.0, upper.nnz)
        s = SignedGraphSample((upper + upper.T).tocsr(), s.features, s.labels)
    ref, ref_kept = _diagonal_product_normalize(s.adjacency)
    isolated = len(ref_kept) < n_nodes
    assert isolated == (n_nodes == 300)  # the sparse samples test the drop
    with warnings.catch_warnings():
        warnings.simplefilter("error" if not isolated else "ignore")
        P, kept = signed_normalize(s)
    assert np.array_equal(kept, ref_kept)
    assert P.shape == ref.shape
    assert np.array_equal(P.indptr, ref.indptr)
    assert np.array_equal(P.indices, ref.indices)
    assert np.array_equal(P.data, ref.data)


@pytest.mark.parametrize("isolated", [(0,), (39,), (0, 39), (0, 1, 20, 38, 39)])
def test_signed_normalize_is_bit_identical_with_isolated_end_nodes(isolated):
    # empty first and last rows are where reduceat over all row starts would
    # go wrong; degrees up to about 30 take numpy's pairwise summation
    n = 40
    rng = np.random.default_rng(len(isolated))
    dense = np.triu(rng.random((n, n)) < 0.8, 1) * rng.uniform(0.5, 2.0, (n, n))
    dense *= np.where(rng.random((n, n)) < 0.5, 1.0, -1.0)
    dense[list(isolated), :] = 0.0
    dense[:, list(isolated)] = 0.0
    adjacency = sp.csr_matrix(dense + dense.T)
    ref, ref_kept = _diagonal_product_normalize(adjacency)
    s = SignedGraphSample(adjacency, np.zeros((n, 1)), np.zeros(n, dtype=np.int64))
    with pytest.warns(UserWarning, match=f"dropping {len(isolated)} isolated"):
        P, kept = signed_normalize(s)
    assert np.array_equal(kept, ref_kept)
    assert np.array_equal(P.indptr, ref.indptr)
    assert np.array_equal(P.indices, ref.indices)
    assert np.array_equal(P.data, ref.data)


@pytest.mark.parametrize("weighted", [False, True])
def test_signed_normalize_drops_isolated_end_nodes_of_a_sample_bit_for_bit(weighted):
    # a sparse sample with its first and last node cut off (and any node
    # the sample left isolated): P against the D @ A @ D reference, and the
    # caller's adjacency left as it was
    n = 300
    s = sample_csbm(params(n_nodes=n, p=0.03, q=0.015, seed=11))
    cut = np.ones(n)
    cut[[0, -1]] = 0.0
    adjacency = (sp.diags(cut) @ s.adjacency @ sp.diags(cut)).tocsr()
    adjacency.eliminate_zeros()
    if weighted:
        upper = sp.triu(adjacency, 1).tocsr()
        upper.data *= np.random.default_rng(11).uniform(0.5, 2.0, upper.nnz)
        adjacency = (upper + upper.T).tocsr()
    ref, ref_kept = _diagonal_product_normalize(adjacency)
    assert ref_kept[0] == 1 and ref_kept[-1] == n - 2
    n_isolated = n - len(ref_kept)
    assert n_isolated == np.count_nonzero(np.diff(adjacency.indptr) == 0) >= 2
    before = [a.copy() for a in (adjacency.data, adjacency.indices, adjacency.indptr)]
    sample = SignedGraphSample(adjacency, s.features, s.labels)
    with pytest.warns(UserWarning, match=f"dropping {n_isolated} isolated"):
        P, kept = signed_normalize(sample)
    assert np.array_equal(kept, ref_kept)
    assert P.shape == ref.shape
    assert np.array_equal(P.indptr, ref.indptr)
    assert np.array_equal(P.indices, ref.indices)
    assert np.array_equal(P.data, ref.data)
    after = (adjacency.data, adjacency.indices, adjacency.indptr)
    for old, new in zip(before, after):
        assert np.array_equal(old, new)
    assert not np.shares_memory(P.indices, adjacency.indices)


def test_signed_normalize_drops_a_node_that_only_stores_zeros():
    # node 2 stores explicit zeros to node 0: its degree is 0, yet its row
    # and column are not empty, so the drop cannot just renumber columns
    rows, cols = [0, 1, 1, 3, 0, 2], [1, 0, 3, 1, 2, 0]
    values = [-1.0, -1.0, 1.0, 1.0, 0.0, 0.0]
    adjacency = sp.csr_matrix((values, (rows, cols)), shape=(4, 4))
    assert adjacency.nnz == 6
    sample = SignedGraphSample(adjacency, np.zeros((4, 1)), np.zeros(4, dtype=np.int64))
    with pytest.warns(UserWarning, match="dropping 1 isolated"):
        P, kept = signed_normalize(sample)
    ref, ref_kept = _diagonal_product_normalize(adjacency)
    assert kept.tolist() == ref_kept.tolist() == [0, 1, 3]
    assert np.array_equal(P.toarray(), ref.toarray())


def _power_iteration_norm(P, iters=200, seed=0):
    """Spectral norm oracle for a symmetric operator."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=P.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = P @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        lam, v = norm, w / norm
    return lam


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normalized_operator_norm_at_most_one(seed):
    s = sample_csbm(params(n_nodes=120, p=0.2, q=0.1, seed=seed))
    P, _ = signed_normalize(s)
    assert _power_iteration_norm(P) <= 1.0 + 1e-9


def test_expected_operator_symmetric_when_p_equals_q():
    block = expected_operator(params(p=0.3, q=0.3, n_classes=2, n_nodes=60,
                                     class_means=[[0.0], [1.0]]))
    assert block[0, 0] == pytest.approx(-block[0, 1])


def test_expected_operator_frozen_values():
    # d-bar = 1000 * (0.003 + 2*0.01) = 23
    p = params(n_nodes=3000, p=0.003, q=0.01)
    assert mean_abs_degree(p) == pytest.approx(23.0, rel=1e-12)
    block = expected_operator(p)
    intra = float(Fraction(3, 1000) / 23)
    inter = -float(Fraction(1, 100) / 23)
    np.testing.assert_allclose(np.diag(block), intra, rtol=1e-12)
    assert block[0, 1] == pytest.approx(inter, rel=1e-12)
    assert intra == pytest.approx(1.304e-4, abs=1e-7)
    assert inter == pytest.approx(-4.348e-4, abs=1e-7)


def test_expected_operator_reproduces_recursion_coefficients():
    # applying the block pattern to a class-indicator vector and scaling by
    # the block size must give p/(p+(C-1)q) on the diagonal and -q/(...) off it
    p = params(n_nodes=3000, p=0.003, q=0.01)
    block = expected_operator(p) * p.block_size
    den = p.p + (p.n_classes - 1) * p.q
    np.testing.assert_allclose(np.diag(block), p.p / den, rtol=1e-12)
    off = block[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, -p.q / den, rtol=1e-12)


def test_expected_operator_degenerate():
    with pytest.raises(ValueError):
        expected_operator(params(p=0.0, q=0.0))


def test_flat_mean_vector_accepted_for_1d_features():
    cp = CsbmParams(30, 3, 0.1, 0.1, class_means=[-0.5, 0.0, 0.5])
    assert cp.class_means.shape == (3, 1)
