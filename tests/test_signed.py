"""Signed propagation dynamics, sign audits, and the deviation bound."""

import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from heterognn import signed
from heterognn.csbm import CsbmParams, sample_csbm, signed_normalize
from heterognn.signed import (
    class_gap,
    concentration_check,
    concentration_kappa,
    cumulative_matrix,
    expected_gap,
    expected_mean_recursion,
    expected_trajectory,
    is_desirable,
    merge_trajectories,
    propagate_linear,
    sign_flip_counterexample,
    z_score,
)


def _assert_layer_stats(traj, P, X, y, n_classes, **tol):
    """Each layer's class means and unbiased variances are those of P^k X."""
    for k in range(traj.n_layers + 1):
        H = np.linalg.matrix_power(P, k) @ X
        for c in range(n_classes):
            members = H[y == c]
            np.testing.assert_allclose(traj.means[k, c], members.mean(axis=0), **tol)
            np.testing.assert_allclose(traj.variances[k, c],
                                       members.var(axis=0, ddof=1), **tol)


def test_zero_layers_returns_input_stats():
    X = np.array([[1.0], [3.0], [2.0], [6.0]])
    y = np.array([0, 0, 1, 1])
    traj = propagate_linear(sp.eye(4, format="csr"), X, 0, y, 2)
    assert traj.n_layers == 0
    _assert_layer_stats(traj, np.eye(4), X, y, 2)
    np.testing.assert_allclose(traj.means[0, :, 0], [2.0, 4.0])


def test_single_positive_edge_swaps_values():
    P = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    X = np.array([[1.0], [2.0]])
    H = P @ X
    np.testing.assert_allclose(H, [[2.0], [1.0]])


def test_propagation_matches_matrix_power():
    rng = np.random.default_rng(0)
    n = 40
    A = rng.random((n, n)) < 0.2
    A = np.triu(A, 1)
    A = (A | A.T).astype(float)
    deg = A.sum(1)
    deg[deg == 0] = 1.0
    P = A / np.sqrt(np.outer(deg, deg))
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, n)
    # make both classes populated
    y[:2] = [0, 1]
    traj = propagate_linear(sp.csr_matrix(P), X, 5, y, 2)
    assert traj.n_layers == 5
    _assert_layer_stats(traj, P, X, y, 2, atol=1e-10)


# ---------------------------------------------------------------------------
# Expected dynamics
# ---------------------------------------------------------------------------


def test_expected_gap_binary_ratio_is_one():
    for K in (0, 1, 7, 30):
        assert expected_gap(0.003, 0.01, 2, K, [-0.25], [0.25]) == pytest.approx(0.5)


def test_expected_gap_k0_is_distance():
    assert expected_gap(0.2, 0.1, 4, 0, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(
        math.sqrt(2)
    )


def test_expected_gap_frozen_three_class_ratio():
    # exact rational oracle: (p+q)/(p+2q) = 13/23 for p=0.003, q=0.01
    ratio = Fraction(13, 23)
    assert expected_gap(0.003, 0.01, 3, 1, [0.0], [1.0]) == pytest.approx(
        float(ratio), rel=1e-12
    )
    assert float(ratio) == pytest.approx(0.565217, abs=1e-6)
    k10 = float(ratio**10)
    assert expected_gap(0.003, 0.01, 3, 10, [0.0], [1.0]) == pytest.approx(
        k10, rel=1e-12
    )
    assert k10 == pytest.approx(3.328e-3, abs=1e-5)


def test_recursion_fixed_point_on_equal_means():
    m = np.full((4, 2), 0.7)
    out = expected_mean_recursion(0.01, 0.02, 4, m)
    np.testing.assert_allclose(out, out[0][None, :].repeat(4, axis=0))
    # equal means stay equal forever
    out2 = expected_mean_recursion(0.01, 0.02, 4, out)
    np.testing.assert_allclose(out2 - out2[0], 0.0, atol=1e-15)


def test_recursion_preserves_binary_gap():
    m = np.array([[-0.25], [0.25]])
    out = expected_mean_recursion(0.003, 0.01, 2, m)
    assert out[1, 0] - out[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_recursion_contracts_three_class_gaps_by_frozen_ratio():
    m = np.array([[-0.5], [0.0], [0.5]])
    out = expected_mean_recursion(0.003, 0.01, 3, m)
    ratio = float(Fraction(13, 23))
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        got = out[b, 0] - out[a, 0]
        want = ratio * (m[b, 0] - m[a, 0])
        assert got == pytest.approx(want, rel=1e-12)


def test_iterated_recursion_equals_closed_form_grid():
    # the acceptance grid, in condensed form
    u = np.array([[0.0], [1.0], [-1.0], [0.5], [2.0], [-2.0]])
    for p, q, C in product([0.001, 0.003, 0.01, 0.05], [0.001, 0.01], range(2, 7)):
        means = expected_trajectory(p, q, C, u[:C], 50)
        for K in (1, 10, 50):
            got = abs(means[K][1, 0] - means[K][0, 0])
            want = expected_gap(p, q, C, K, u[0], u[1])
            assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("run, name", [
    (lambda: expected_gap(0.1, math.nan, 3, 2, [0.0], [1.0]), "q"),
    (lambda: expected_gap(math.nan, 0.1, 3, 2, [0.0], [1.0]), "p"),
    (lambda: expected_mean_recursion(0.1, math.nan, 3, np.zeros((3, 1))), "q"),
    (lambda: expected_gap(0.1, math.inf, 3, 2, [0.0], [1.0]), "q"),
], ids=["gap-q", "gap-p", "recursion-q", "gap-q-inf"])
def test_a_nan_or_infinite_rate_is_rejected_naming_it(run, name):
    with pytest.raises(ValueError, match=rf"must be positive and finite, .*\b{name}="):
        run()


@pytest.mark.parametrize("sigma, r, name", [
    (math.nan, 1.0, "sigma must be positive and finite, got nan"),
    # an infinite sigma gave kappa 0 and an infinite bound: a passed audit
    (math.inf, 1.0, "sigma must be positive and finite, got inf"),
    (1.2, math.nan, "r must be at least 0, got nan")])
def test_concentration_check_rejects_a_non_finite_sigma_or_nan_r_naming_it(sigma, r, name):
    params = CsbmParams(60, 3, 0.1, 0.1, [[-0.5], [0.0], [0.5]])
    with pytest.raises(ValueError, match=rf"\b{name}"):
        concentration_check(params, K=2, trials=1, sigma=sigma, r=r)


@pytest.mark.parametrize("K", [0, 2])
def test_expected_trajectory_rejects_a_wrong_number_of_class_rows(K):
    with pytest.raises(ValueError, match="class_means must have 3 rows"):
        expected_trajectory(0.1, 0.05, 3, np.zeros((2, 1)), K)


def test_a_flat_vector_is_one_dimensional_class_means_everywhere():
    flat = [0.5, -1.0, 2.0]
    params = CsbmParams(60, 3, 0.1, 0.05, flat)
    assert params.class_means.shape == (3, 1)
    traj = expected_trajectory(0.1, 0.05, 3, flat, 1)
    assert np.array_equal(traj[0], params.class_means)
    assert np.array_equal(traj[1], expected_mean_recursion(0.1, 0.05, 3, flat))


def test_degenerate_denominator_raises():
    with pytest.raises(ValueError):
        expected_gap(0.0, 0.0, 3, 1, [0.0], [1.0])
    with pytest.raises(ValueError):
        expected_mean_recursion(0.0, 0.0, 3, np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# z-scores
# ---------------------------------------------------------------------------


def test_z_score_zero_for_identical_distributions():
    rng = np.random.default_rng(1)
    X = np.tile(rng.normal(size=(50, 1)), (2, 1))
    y = np.repeat([0, 1], 50)
    traj = propagate_linear(sp.eye(100, format="csr"), X, 0, y, 2)
    assert z_score(traj, 0, 1)[0] == 0.0


def test_z_score_layer0_gaussian_oracle():
    # means (-0.5, 0), unit variance: z = 0.5 within sampling error
    rng = np.random.default_rng(2)
    X = np.concatenate(
        [rng.normal(-0.5, 1.0, (5000, 1)), rng.normal(0.0, 1.0, (5000, 1))]
    )
    y = np.repeat([0, 1], 5000)
    traj = propagate_linear(sp.eye(10000, format="csr"), X, 0, y, 2)
    assert z_score(traj, 0, 1)[0] == pytest.approx(0.5, abs=0.05)


def test_z_score_zero_variance_sentinel():
    X = np.array([[1.0], [1.0], [2.0], [2.0]])
    y = np.array([0, 0, 1, 1])
    traj = propagate_linear(sp.eye(4, format="csr"), X, 0, y, 2)
    assert z_score(traj, 0, 1)[0] == np.inf


def test_merge_trajectories_matches_concatenated_population():
    rng = np.random.default_rng(7)
    trajs, blocks = [], []
    for _ in range(3):
        X = rng.normal(size=(30, 2))
        y = np.repeat([0, 1], 15)
        trajs.append(propagate_linear(sp.eye(30, format="csr"), X, 0, y, 2))
        blocks.append(X)
    merged = merge_trajectories(trajs)
    pooled = np.concatenate(blocks)
    for c in range(2):
        members = pooled[np.tile(np.repeat([0, 1], 15), 3) == c]
        np.testing.assert_allclose(merged.means[0, c], members.mean(axis=0))
        np.testing.assert_allclose(
            merged.variances[0, c], members.var(axis=0, ddof=1)
        )
    assert merged.counts.tolist() == [45, 45]


def test_z_score_rises_then_collapses():
    # moderate-size rerun of the oversmoothing trajectory shape; pooling a few
    # independent runs lets the run-to-run mean scatter act as the noise floor
    trajs = []
    for seed in range(5):
        p = CsbmParams(1500, 3, 0.006, 0.02, [[-0.5], [0.0], [0.5]], seed=seed)
        s = sample_csbm(p)
        P, kept = signed_normalize(s)
        trajs.append(propagate_linear(P, s.features[kept], 30, s.labels[kept], 3))
    z = np.abs(z_score(merge_trajectories(trajs), 0, 1))
    peak = z.argmax()
    assert peak > 0, "z should rise before it falls"
    assert z[30] < 0.1 * z[peak]


def test_binary_gap_drift_is_small():
    # C=2: the expected per-layer ratio is exactly 1, so the empirical gap
    # should wander, not trend; check total drift stays below 15%
    drifts = []
    for seed in range(5):
        p = CsbmParams(1500, 2, 0.006, 0.02, [[-0.25], [0.25]], seed=seed)
        s = sample_csbm(p)
        P, kept = signed_normalize(s)
        traj = propagate_linear(P, s.features[kept], 30, s.labels[kept], 2)
        gaps = class_gap(traj, 0, 1)
        drifts.append(abs(gaps[30] - gaps[0]) / gaps[0])
    assert np.mean(drifts) < 0.15


# ---------------------------------------------------------------------------
# Cumulative products and the sign audit
# ---------------------------------------------------------------------------


def test_cumulative_single_layer_is_identity_on_input():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    T = cumulative_matrix([A])
    assert sp.issparse(T) and T.format == "csr"
    np.testing.assert_array_equal(T.toarray(), A)


def test_cumulative_two_layer_positive_pair():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(cumulative_matrix([A, A]).toarray(), np.eye(2))


def test_cumulative_order_is_right_to_left():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[2.0, 0.0], [0.0, 3.0]])
    # layers [A, B] mean B is applied second: T = B @ A
    np.testing.assert_array_equal(cumulative_matrix([A, B]).toarray(), B @ A)


def test_cumulative_sparse_inputs_match_dense():
    mats = [sp.random(30, 30, density=0.2, random_state=i, format="csr")
            for i in range(3)]
    dense = cumulative_matrix([m.toarray() for m in mats])
    mixed = cumulative_matrix(mats)
    np.testing.assert_allclose(mixed.toarray(), dense.toarray(), atol=1e-12)


def test_cumulative_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="at least one"):
        cumulative_matrix([])
    with pytest.raises(ValueError, match="square"):
        cumulative_matrix([np.eye(3), np.eye(2)])


def test_two_layer_audit_memory_grows_with_edges_not_n_squared():
    # a dense 4000 x 4000 product alone would take 122 MiB
    s = sample_csbm(CsbmParams(4000, 2, 0.004, 0.002, [[0.0]] * 2, seed=7))
    P, kept = signed_normalize(s)
    tracemalloc.start()
    try:
        T = cumulative_matrix([P, P])
        ok, violations = is_desirable(T, s.labels[kept])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"audit peaked at {peak / 2**20:.1f} MiB"
    assert T.nnz > P.nnz
    # two classes: two-hop sign products stay desirable
    assert ok and violations.size == 0


def test_audit_of_many_violations_holds_under_40_bytes_per_stored_entry():
    # three classes at q = 2p: about a third of the two-hop product's
    # entries violate, and the audit's result is one 16-byte record each
    s = sample_csbm(CsbmParams(1500, 3, 0.02, 0.04, [[0.0]] * 3, seed=3))
    P, kept = signed_normalize(s)
    T = cumulative_matrix([P, P])
    labels = s.labels[kept]
    tracemalloc.start()
    try:
        ok, violations = is_desirable(T, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not ok and violations.size > T.nnz // 4
    assert peak / T.nnz < 40, f"audit peaked at {peak / T.nnz:.1f} B per stored entry"


def test_all_zero_matrix_is_desirable():
    ok, violations = is_desirable(np.zeros((4, 4)), [0, 1, 0, 1])
    assert ok and violations.size == 0


def test_csbm_sample_is_desirable_by_construction():
    for seed in range(5):
        s = sample_csbm(CsbmParams(60, 3, 0.4, 0.3, [[0.0]] * 3, seed=seed))
        ok, violations = is_desirable(s.adjacency, s.labels)
        assert ok, violations


def test_desirability_violation_listing():
    M = np.array([[0.0, -2.0], [3.0, 0.0]])
    ok, violations = is_desirable(M, [0, 0])
    assert not ok
    assert violations.tolist() == [(0, 1, -2.0)]
    sparse_ok, sparse_violations = is_desirable(sp.csr_matrix(M), [0, 0])
    assert sparse_ok == ok and np.array_equal(sparse_violations, violations)


@pytest.mark.parametrize("atol", [-1.0, -1e-300, float("nan")])
def test_desirability_rejects_negative_atol(atol):
    with pytest.raises(ValueError, match="atol"):
        is_desirable(np.zeros((2, 2)), [0, 1], atol=atol)


def test_sign_flip_counterexample_structure():
    ex = sign_flip_counterexample()
    assert ex.layers_desirable == (True, True)
    assert not ex.cumulative_desirable
    np.testing.assert_array_equal(
        ex.cumulative, [[1.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 1.0]]
    )
    # the endpoint pair carries the +1 coefficient in both directions
    assert ex.cumulative[2, 0] == 1.0
    assert set((i, j) for i, j, _ in ex.violations) == {(0, 2), (2, 0)}


def test_sign_flip_vanishes_with_binary_labels():
    # relabeling the endpoints into one class makes the product desirable:
    # two sign flips land back on a same-class pair
    ex = sign_flip_counterexample()
    ok, violations = is_desirable(ex.cumulative, [0, 1, 0])
    assert ok, violations


def _walk_sign_sum(layers, i, j):
    """Brute-force oracle: sum over layered walks of the edge-sign products."""
    n = layers[0].shape[0]
    total = 0.0
    frontier = {i: 1.0}
    for layer in layers:
        nxt = {}
        for node, weight in frontier.items():
            for other in range(n):
                w = layer[other, node]
                if w != 0.0:
                    nxt[other] = nxt.get(other, 0.0) + w * weight
        frontier = nxt
    return frontier.get(j, 0.0)


def test_cumulative_entries_match_walk_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = rng.integers(3, 7)
        labels = rng.integers(0, 3, n)
        layers = []
        for _ in range(rng.integers(1, 4)):
            A = np.triu((rng.random((n, n)) < 0.5), 1)
            signs = np.where(labels[:, None] == labels[None, :], 1.0, -1.0)
            L = A * signs
            L = L + L.T
            layers.append(L)
        T = cumulative_matrix(layers)
        for i in range(n):
            for j in range(n):
                assert T[i, j] == pytest.approx(
                    _walk_sign_sum(layers, j, i), abs=1e-9
                )
        # audit agrees with a hand check of the walk parity
        ok, violations = is_desirable(T, labels)
        manual_bad = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if (labels[i] == labels[j] and T[i, j] < 0)
            or (labels[i] != labels[j] and T[i, j] > 0)
        ]
        assert ok == (len(manual_bad) == 0)


# ---------------------------------------------------------------------------
# Deviation bound
# ---------------------------------------------------------------------------


def test_kappa_frozen_value():
    # max(2*2/1.44, 2*(8+4.8)/1.44) = max(25/9, 160/9) = 160/9
    assert concentration_kappa(1.2, 1.0) == pytest.approx(160.0 / 9.0, rel=1e-12)


@pytest.mark.parametrize("r", [-1.0, -3.0])
def test_kappa_rejects_a_negative_r_naming_it(r):
    # kappa is proportional to r + 1: at r <= -1 every graph would meet
    # the degree precondition
    with pytest.raises(ValueError, match=r"\br must be at least 0"):
        concentration_kappa(1.2, r)


def test_kappa_r_zero_is_the_edge():
    # max(2/1.44, 12.8/1.44) = 12.8/1.44; anything below 0 raises
    assert concentration_kappa(1.2, 0.0) == pytest.approx(12.8 / 1.44, rel=1e-12)
    with pytest.raises(ValueError, match=r"\br must be at least 0"):
        concentration_kappa(1.2, -1e-12)


def test_concentration_bound_formula_and_outcome():
    p = CsbmParams(3000, 3, 0.003, 0.01, [[-0.5], [0.0], [0.5]], seed=0)
    report = concentration_check(p, K=5, trials=5, sigma=1.2, r=1.0)
    # independent evaluation of the bound: ||U|| = sqrt(1000 * 0.5)
    u_norm = math.sqrt(1000 * 0.5)
    want = 2 * 5 * 1.2 * math.sqrt(6 / 3000) * u_norm
    assert report.bound == pytest.approx(want, rel=1e-12)
    assert not report.precondition_met  # d-bar = 23 < kappa ln N ~ 142
    assert not report.vacuous
    assert report.fraction_within == 1.0


@pytest.mark.parametrize("run", [
    lambda: expected_trajectory(0.1, 0.1, 3, [[-0.5], [0.0], [0.5]], -1),
    lambda: concentration_check(CsbmParams(60, 3, 0.1, 0.1, [[-0.5], [0.0], [0.5]]),
                                K=-1, trials=1, sigma=1.2, r=1.0),
], ids=["expected_trajectory", "concentration_check"])
def test_negative_depth_is_rejected_naming_k(run):
    with pytest.raises(ValueError, match=r"\bK must be nonnegative"):
        run()


def test_neighbouring_base_seeds_share_no_concentration_trial(monkeypatch):
    drawn = []
    trajectory = signed.csbm_trajectory

    def recording(params, K):
        drawn.append(params.seed)
        return trajectory(params, K)

    monkeypatch.setattr(signed, "csbm_trajectory", recording)
    p = CsbmParams(60, 3, 0.3, 0.1, [[-0.5], [0.0], [0.5]])
    reports = [concentration_check(p, K=2, trials=4, sigma=1.0, r=1.0,
                                   base_seed=base) for base in (0, 1)]
    first, second = set(drawn[:4]), set(drawn[4:])
    assert len(first) == len(second) == 4
    assert not first & second
    assert not set(reports[0].deviations) & set(reports[1].deviations)


def test_concentration_k0_vacuous():
    p = CsbmParams(300, 3, 0.03, 0.1, [[-0.5], [0.0], [0.5]], seed=0)
    report = concentration_check(p, K=0, trials=3, sigma=1.2, r=1.0)
    assert report.vacuous
    assert report.bound == 0.0
    # feature noise keeps the deviation positive, so nothing is "within" 0
    assert report.fraction_within == 0.0
