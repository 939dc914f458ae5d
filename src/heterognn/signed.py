"""Linear signed message passing: trajectories, mean dynamics, desirability.

Covers the analysis side of the laboratory: propagating features through a
signed normalized operator, the closed-form expected class-mean dynamics and
their per-layer gap ratio, z-score separability curves, cumulative products
of per-layer propagation matrices with their sign audit, a minimal two-layer
construction where desirable layers compose into an undesirable product, and
a Monte-Carlo check of the deviation bound for the expected dynamics.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .csbm import CsbmParams, mean_abs_degree, sample_csbm, signed_normalize

__all__ = [
    "Trajectory", "propagate_linear", "class_gap", "z_score",
    "merge_trajectories",
    "expected_gap", "expected_mean_recursion", "expected_trajectory",
    "cumulative_matrix", "is_desirable", "sign_flip_counterexample",
    "SignFlipExample", "csbm_trajectory", "concentration_check",
    "ConcentrationReport", "concentration_kappa",
]


@dataclass
class Trajectory:
    """Per-layer class statistics of a linear propagation run.

    means and variances have shape (K+1, C, f); layer 0 is the input. The
    variance is the unbiased within-class estimator, per dimension. No
    embedding is kept, so a trajectory's size does not grow with N.
    """

    means: np.ndarray
    variances: np.ndarray
    counts: np.ndarray

    @property
    def n_layers(self) -> int:
        return self.means.shape[0] - 1


def _class_stats(H, labels, indicator, counts):
    """Per-class means and unbiased variances; indicator is the C x N
    class-membership matrix and counts its row sums."""
    means = indicator @ H / counts[:, None]
    centred = H - means[labels]
    variances = indicator @ (centred * centred) / (counts[:, None] - 1)
    return means, variances


def propagate_linear(P, X, K: int, labels, n_classes: int) -> Trajectory:
    """Run H^(k) = P H^(k-1) for K layers from H^(0) = X; keep class stats only."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    H = np.asarray(X, dtype=np.float64)
    if H.ndim == 1:
        H = H[:, None]
    labels = np.asarray(labels)
    n, f = H.shape
    counts = np.bincount(labels, minlength=n_classes)
    small = np.flatnonzero(counts < 2)
    if small.size:
        raise ValueError(f"class {small[0]} needs at least 2 nodes for statistics")
    indicator = sp.csr_matrix((np.ones(n), (labels, np.arange(n))),
                              shape=(n_classes, n))
    means = np.zeros((K + 1, n_classes, f))
    variances = np.zeros((K + 1, n_classes, f))
    means[0], variances[0] = _class_stats(H, labels, indicator, counts)
    for k in range(1, K + 1):
        H = P @ H
        means[k], variances[k] = _class_stats(H, labels, indicator, counts)
    return Trajectory(means, variances, counts)


def class_gap(traj: Trajectory, class_a: int, class_b: int) -> np.ndarray:
    """Euclidean norm of the class-mean difference, per layer."""
    diff = traj.means[:, class_b] - traj.means[:, class_a]
    return np.linalg.norm(diff, axis=1)


def z_score(traj: Trajectory, class_a: int, class_b: int) -> np.ndarray:
    """Per-layer separability proxy: standardized class-mean difference.

    z^(k) = (mean_b - mean_a) / sigma^(k) with sigma^(k) the average of the
    two within-class standard deviations. Dividing by the spread (rather than
    its square) keeps z dimensionless, so uniformly shrinking embeddings leave
    it unchanged; only genuine loss of separation relative to the residual
    class spread moves it. For 1-D features the signed scalar is returned; for
    wider features the per-dimension z-scores are collapsed to their Euclidean
    norm. Layers with zero spread report +inf.
    """
    diff = traj.means[:, class_b] - traj.means[:, class_a]
    sigma = 0.5 * (
        np.sqrt(traj.variances[:, class_a]) + np.sqrt(traj.variances[:, class_b])
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma > 0, diff / sigma, np.inf)
    if traj.means.shape[2] == 1:
        return z[:, 0]
    return np.linalg.norm(z, axis=1)


def merge_trajectories(trajectories) -> Trajectory:
    """Pool per-class statistics of independent runs into one trajectory.

    Treats the runs' nodes as one combined population per class and layer,
    reconstructing the pooled mean and unbiased variance from the per-run
    summaries. Class counts may differ between runs (isolated-node removal
    makes them ragged); layer count, class count, and feature width must
    match.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("need at least one trajectory")
    first = trajectories[0]
    for t in trajectories[1:]:
        if t.means.shape != first.means.shape:
            raise ValueError("trajectories disagree on layers/classes/width")
    # counts broadcast over (layers, classes, features)
    n = np.stack([t.counts for t in trajectories])[:, None, :, None]
    means = np.stack([t.means for t in trajectories])
    variances = np.stack([t.variances for t in trajectories])
    total = n.sum(axis=0)
    pooled_mean = (n * means).sum(axis=0) / total
    # within-run sum of squares plus between-run mean shift
    ss = ((n - 1) * variances + n * (means - pooled_mean) ** 2).sum(axis=0)
    pooled_var = ss / (total - 1)
    return Trajectory(pooled_mean, pooled_var, total[0, :, 0])


def _ratio(p: float, q: float, n_classes: int) -> float:
    den = p + (n_classes - 1) * q
    if den <= 0:
        raise ValueError("p + (C-1)q must be positive")
    return (p + q) / den


def expected_gap(p, q, n_classes, K, u_a, u_b) -> float:
    """Closed-form expected class-mean gap after K layers."""
    u_a = np.atleast_1d(np.asarray(u_a, dtype=np.float64))
    u_b = np.atleast_1d(np.asarray(u_b, dtype=np.float64))
    return _ratio(p, q, n_classes) ** K * float(np.linalg.norm(u_a - u_b))


def expected_mean_recursion(p, q, n_classes, prev_means) -> np.ndarray:
    """One step of the exact expected class-mean dynamics.

    next_c = (p * prev_c - q * sum_{c' != c} prev_c') / (p + (C-1)q).
    Pairwise differences contract by exactly (p+q)/(p+(C-1)q) per step.
    """
    prev = np.atleast_2d(np.asarray(prev_means, dtype=np.float64))
    if prev.shape[0] == 1 and n_classes > 1 and prev.shape[1] == n_classes:
        prev = prev.T
    if prev.shape[0] != n_classes:
        raise ValueError(f"need {n_classes} class means, got shape {prev.shape}")
    den = p + (n_classes - 1) * q
    if den <= 0:
        raise ValueError("p + (C-1)q must be positive")
    total = prev.sum(axis=0, keepdims=True)
    return ((p + q) * prev - q * total) / den


def expected_trajectory(p, q, n_classes, means0, K) -> np.ndarray:
    """Iterate the expected-mean recursion; shape (K+1, C, f)."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    m = np.atleast_2d(np.asarray(means0, dtype=np.float64))
    if m.shape[0] == 1 and n_classes > 1 and m.shape[1] == n_classes:
        m = m.T
    out = np.zeros((K + 1,) + m.shape)
    out[0] = m
    for k in range(1, K + 1):
        out[k] = expected_mean_recursion(p, q, n_classes, out[k - 1])
    return out


# ---------------------------------------------------------------------------
# Cumulative products and sign audits
# ---------------------------------------------------------------------------


def cumulative_matrix(layers):
    """Ordered product of per-layer propagation matrices, in CSR form.

    layers[0] is applied first, so the result is layers[-1] @ ... @ layers[0].
    Dense or sparse layers are converted to CSR and multiplied sparsely, so
    memory grows with the stored entries of the product, not with N^2.
    """
    if not layers:
        raise ValueError("need at least one layer matrix")
    n = layers[0].shape[0]
    out = None
    for layer in layers:
        if layer.shape != (n, n):
            raise ValueError("layer matrices must share a square shape")
        mat = sp.csr_matrix(layer)
        out = mat if out is None else mat @ out
    return out


def is_desirable(M, labels, atol: float = 0.0):
    """Audit a propagation matrix against the class structure.

    Desirable means every entry is >= 0 on same-class index pairs and <= 0 on
    cross-class pairs. M may be dense or sparse; only its stored (nonzero)
    entries are read, because a zero entry never violates. Returns (verdict,
    violations) with violations one structured array of the offending
    entries, fields i, j and value, sorted by (i, j); a row unpacks as
    (i, j, value). atol >= 0 treats tiny magnitudes as zero when auditing
    float products.
    """
    if not atol >= 0:
        raise ValueError(f"atol must be nonnegative, got {atol}")
    labels = np.asarray(labels)
    coo = sp.coo_matrix(M)
    rows, cols, vals = coo.row, coo.col, coo.data
    same = labels[rows] == labels[cols]
    bad = np.flatnonzero(np.where(same, vals < -atol, vals > atol))
    key = rows[bad].astype(np.int64) * coo.shape[1] + cols[bad]
    bad = bad[np.argsort(key, kind="stable")]
    violations = np.empty(bad.size, [("i", rows.dtype), ("j", cols.dtype),
                                     ("value", vals.dtype)])
    violations["i"] = rows[bad]
    violations["j"] = cols[bad]
    violations["value"] = vals[bad]
    return (bad.size == 0), violations


@dataclass
class SignFlipExample:
    """A two-layer composition whose product violates the sign structure."""

    layers: list
    labels: np.ndarray
    cumulative: np.ndarray
    layers_desirable: tuple
    cumulative_desirable: bool
    violations: np.ndarray  # the product's audit: is_desirable's (i, j, value) rows


def sign_flip_counterexample() -> SignFlipExample:
    """Smallest construction where per-layer sign discipline fails to compose.

    A 3-node path with three distinct classes and -1 on both edges is
    desirable at every layer, but two hops multiply the two negative signs
    into a positive coefficient between the path's endpoints, which belong
    to different classes.
    """
    A = np.array([
        [0.0, -1.0, 0.0],
        [-1.0, 0.0, -1.0],
        [0.0, -1.0, 0.0],
    ])
    labels = np.array([0, 1, 2])
    layers = [A, A]
    T = cumulative_matrix(layers).toarray()
    layer_ok = tuple(is_desirable(L, labels)[0] for L in layers)
    ok, violations = is_desirable(T, labels)
    return SignFlipExample(layers, labels, T, layer_ok, ok, violations)


# ---------------------------------------------------------------------------
# Deviation bound for the expected dynamics
# ---------------------------------------------------------------------------


def concentration_kappa(sigma: float, r: float) -> float:
    """Degree-requirement constant: d-bar must reach kappa * ln N.

    r bounds the class-mean magnitudes, so it is at least 0; kappa is
    proportional to r + 1, and r <= -1 would meet the precondition on any
    graph.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if r < 0:
        raise ValueError(f"r must be at least 0, got {r}")
    return max(2.0 * (r + 1) / sigma**2, (r + 1) * (8.0 + 4.0 * sigma) / sigma**2)


def csbm_trajectory(params: CsbmParams, K: int) -> Trajectory:
    """One trial: sample a CSBM, normalize it and propagate it K layers."""
    s = sample_csbm(params)
    P, kept = signed_normalize(s)
    return propagate_linear(P, s.features[kept], K, s.labels[kept],
                            params.n_classes)


@dataclass
class ConcentrationReport:
    bound: float
    deviations: np.ndarray  # max over class pairs, one entry per trial
    fraction_within: float
    kappa: float
    precondition_met: bool
    vacuous: bool
    mean_degree: float
    stacked_mean_norm: float


def concentration_check(params: CsbmParams, K: int, trials: int, sigma: float,
                        r: float, base_seed: int = 0) -> ConcentrationReport:
    """Monte-Carlo audit of the high-probability deviation bound.

    The bound 2 K sigma sqrt(2C/N) ||U|| uses the spectral norm of the
    N x f matrix whose i-th row is the mean of node i's class; with equal
    class sizes that norm is sqrt(N/C) times the largest singular value of
    the C x f mean matrix. Empirical deviations compare the propagated
    class-mean differences against the exact expected dynamics. At K = 0 the
    bound degenerates to zero and the report is flagged vacuous.
    """
    kappa = concentration_kappa(sigma, r)
    dbar = mean_abs_degree(params)
    precondition_met = dbar >= kappa * math.log(params.n_nodes)

    smax = np.linalg.svd(params.class_means, compute_uv=False)[0]
    u_norm = math.sqrt(params.block_size) * smax
    bound = 2.0 * K * sigma * math.sqrt(2.0 * params.n_classes / params.n_nodes) * u_norm

    expected = expected_trajectory(params.p, params.q, params.n_classes,
                                   params.class_means, K)[K]
    c = params.n_classes
    deviations = np.zeros(trials)
    for t in range(trials):
        traj = csbm_trajectory(replace(params, seed=base_seed + t), K)
        worst = 0.0
        for a in range(c):
            for b in range(a + 1, c):
                emp = traj.means[K, a] - traj.means[K, b]
                exp = expected[a] - expected[b]
                worst = max(worst, float(np.linalg.norm(emp - exp)))
        deviations[t] = worst
    fraction = float(np.mean(deviations <= bound)) if trials else float("nan")
    return ConcentrationReport(
        bound=bound,
        deviations=deviations,
        fraction_within=fraction,
        kappa=kappa,
        precondition_met=precondition_met,
        vacuous=(K == 0),
        mean_degree=dbar,
        stacked_mean_norm=u_norm,
    )
