"""Multiset pooling primitives and the harnesses built on them.

Two ways to summarize a multiset of vectors: pool everything into a single
vector (``m2e_pool``), or partition the multiset, pool each part, and
concatenate the parts (``m2m_pool``). The first is the second over one
group, and the second is at least as discriminative as the first; the gap is
what the chunked message-passing model exploits. This module keeps the
label-aware neighborhood summaries (``one_hop_desirable_m2m``,
``d_hop_oracle``) and the expected chunked-mean dynamics
(``m2m_expected_step``) as plain-ndarray reference computations so tests can
compare the trainable model against them.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .csbm import block_degree

__all__ = [
    "VectorMultiset", "Partition",
    "m2e_pool", "m2m_pool", "one_hop_desirable_m2m",
    "stacked_one_hop", "d_hop_oracle",
    "distance_compare", "maxima_first_partition",
    "m2m_expected_step", "chunked_distance", "relu_contraction_check",
]

_POOL_MODES = ("sum", "mean", "max")
_ORACLE_WIDTH_LIMIT = 65536


@dataclass(frozen=True)
class VectorMultiset:
    """A finite multiset of equal-width real vectors; duplicates preserved."""

    elements: np.ndarray

    def __post_init__(self):
        el = np.atleast_2d(np.asarray(self.elements, dtype=np.float64))
        object.__setattr__(self, "elements", el)

    def __len__(self) -> int:
        return self.elements.shape[0]

    @property
    def width(self) -> int:
        return self.elements.shape[1]


@dataclass(frozen=True)
class Partition:
    """Assignment of multiset element indices to groups 0..n_groups-1.

    Groups may be empty (an absent class still claims its block, which pools
    to the zero vector).
    """

    assignment: np.ndarray
    n_groups: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", a)
        if self.n_groups < 1:
            raise ValueError("need at least one group")
        if a.size and (a.min() < 0 or a.max() >= self.n_groups):
            raise ValueError("group ids out of range")

    def members(self, group: int) -> np.ndarray:
        return np.nonzero(self.assignment == group)[0]


def m2e_pool(ms: VectorMultiset, mode: str = "sum") -> np.ndarray:
    """Pool the whole multiset into one vector: `m2m_pool` over one group."""
    return m2m_pool(ms, Partition(np.zeros(len(ms), dtype=np.int64), 1), mode)


def m2m_pool(ms: VectorMultiset, partition: Partition, mode: str = "sum") -> np.ndarray:
    """Pool each partition group separately and concatenate in group order.

    The mean divides every group's sum by the size of the whole multiset,
    not of the group, so the group blocks of a mean-pooled multiset add back
    up to its single-vector mean. Empty groups contribute zero blocks.
    """
    if mode not in _POOL_MODES:
        raise ValueError(f"unknown pooling mode {mode!r}")
    if partition.assignment.shape[0] != len(ms):
        raise ValueError("partition does not index this multiset")
    blocks = np.zeros((partition.n_groups, ms.width))
    for g in range(partition.n_groups):
        rows = ms.elements[partition.members(g)]
        if rows.shape[0]:
            blocks[g] = rows.max(axis=0) if mode == "max" else rows.sum(axis=0)
    if mode == "mean" and len(ms):
        blocks /= len(ms)
    return blocks.ravel()


def one_hop_desirable_m2m(
    features: np.ndarray,
    graph,
    labels,
    weight=None,
    mode: str = "sum",
) -> np.ndarray:
    """Label-blocked neighborhood summary: C = graph.n_classes blocks per node.

    Block t of node i sums the features (mapped by ``weight`` when given) of
    i's in-neighbors whose label is t; with ``mode="mean"`` every block is
    divided by i's in-degree, so a node's blocks add up to its plain
    neighbor mean. Classes absent from the neighborhood leave zero blocks,
    and isolated nodes get all-zero messages. This is the idealized,
    true-label version of what the attention layers learn to approximate.

    The sum is one CSR product over the graph's own ``(arc_src, indptr)``:
    row i of ``Y`` holds node i's features in block ``labels[i]`` and zeros
    elsewhere, and row i of the output adds up the rows of ``Y`` at i's
    in-neighbors in arc order, starting from zero. Labels must lie in
    [0, C); a ValueError names the first node whose label does not.
    """
    if mode not in ("sum", "mean"):
        raise ValueError(f"unknown pooling mode {mode!r}")
    labels = np.asarray(labels, dtype=np.int64)
    C, n = graph.n_classes, graph.n_nodes
    if labels.shape != (n,):
        raise ValueError(f"need one label per node: {n} nodes, labels of "
                         f"shape {labels.shape}")
    bad = np.flatnonzero((labels < 0) | (labels >= C))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"labels must lie in [0, {C}): node {i} has "
                         f"label {int(labels[i])}")
    X = np.asarray(features, dtype=np.float64)
    if weight is not None:
        X = X @ np.asarray(weight, dtype=np.float64)
    f = X.shape[1]
    Y = np.zeros((n, C, f))
    Y[np.arange(n), labels] = X
    A = sp.csr_matrix((np.ones(graph.n_arcs), graph.arc_src, graph.indptr),
                      shape=(n, n))
    out = A @ Y.reshape(n, C * f)
    if mode == "mean":
        indeg = np.diff(graph.indptr).astype(np.float64)
        nonzero = indeg > 0
        out[nonzero] /= indeg[nonzero, None]
    return out


def stacked_one_hop(
    features: np.ndarray,
    graph,
    labels,
    d: int,
    weights=None,
) -> np.ndarray:
    """Apply the label-blocked one-hop summary d times with sum pooling.

    ``weights`` mirrors `d_hop_oracle`: None keeps every layer's map the
    identity; otherwise it is ``[W1, blocks2, ..., blocksd]`` where ``W1``
    maps raw features and ``blocksk`` holds the C^(k-1) square blocks of the
    k-th layer's block-diagonal map, indexed lexicographically by the label
    sequences of the incoming blocks. Block b of each row is multiplied by
    ``blocksk[b]`` alone, so the map's zero blocks are never built.
    """
    if d < 1:
        raise ValueError("need at least one hop")
    n = graph.n_nodes
    w1 = None if weights is None else weights[0]
    H = one_hop_desirable_m2m(features, graph, labels, w1, "sum")
    for k in range(2, d + 1):
        if weights is not None:
            blocks = np.asarray(weights[k - 1], dtype=np.float64)
            rows = H.reshape(n, len(blocks), -1).transpose(1, 0, 2)
            H = np.matmul(rows, blocks).transpose(1, 0, 2).reshape(n, -1)
        H = one_hop_desirable_m2m(H, graph, labels, None, "sum")
    return H


def d_hop_oracle(
    features: np.ndarray,
    graph,
    labels,
    d: int,
    weights=None,
) -> np.ndarray:
    """Walk-enumeration reference for the d-fold label-blocked summary.

    Enumerates every length-d walk from each node (revisits allowed), keys it
    by the label sequence of the visited nodes (first hop most significant),
    sums the walk endpoints' raw features per sequence, and multiplies each
    bucket by the cumulative weight of its sequence. The output has C^d
    blocks per node, C = graph.n_classes, and must match `stacked_one_hop`
    exactly.

    The cumulative weight of a sequence chains the per-layer blocks by label
    suffix: the layer-k block applied to a walk is the one indexed by the
    walk's last k-1 labels.
    """
    if d < 1:
        raise ValueError("need at least one hop")
    labels = np.asarray(labels, dtype=np.int64)
    C = graph.n_classes
    X = np.asarray(features, dtype=np.float64)
    if weights is None:
        fp = X.shape[1]
    else:
        fp = np.asarray(weights[0]).shape[1]
    width = C**d * fp
    if width > _ORACLE_WIDTH_LIMIT:
        raise ValueError(
            f"{C}^{d} blocks of width {fp} exceed the "
            f"{_ORACLE_WIDTH_LIMIT}-column cap"
        )

    def cumulative(seq) -> Optional[np.ndarray]:
        if weights is None:
            return None
        w = np.asarray(weights[0], dtype=np.float64)
        for k in range(2, d + 1):
            suffix = seq[d - (k - 1):]
            idx = 0
            for s in suffix:
                idx = idx * C + s
            w = w @ np.asarray(weights[k - 1][idx], dtype=np.float64)
        return w

    seqs = [()]
    for _ in range(d):
        seqs = [s + (c,) for s in seqs for c in range(C)]
    cum = {seq: cumulative(seq) for seq in seqs}

    out = np.zeros((graph.n_nodes, width))
    for i in range(graph.n_nodes):
        buckets = {}
        stack = [(i, ())]
        while stack:
            node, seq = stack.pop()
            if len(seq) == d:
                if seq in buckets:
                    buckets[seq] += X[node]
                else:
                    buckets[seq] = X[node].copy()
                continue
            for j in graph.in_neighbors(node):
                stack.append((j, seq + (int(labels[j]),)))
        for seq, total in buckets.items():
            t = 0
            for s in seq:
                t = t * C + s
            block = total if cum[seq] is None else total @ cum[seq]
            out[i, t * fp : (t + 1) * fp] = block
    return out


def distance_compare(
    x_a: VectorMultiset,
    x_b: VectorMultiset,
    partition: Partition,
    mode: str = "sum",
):
    """Distances between two index-aligned multisets, chunked vs collapsed.

    Returns ``(m2m, m2e)``: the Euclidean distance between the `m2m_pool`
    concatenations and between the `m2e_pool` single vectors, both pooled
    with ``mode``. The partition is shared, which encodes the alignment
    assumption.
    """
    if len(x_a) != len(x_b):
        raise ValueError("aligned comparison needs equal multiset sizes")
    m2m = np.linalg.norm(
        m2m_pool(x_a, partition, mode) - m2m_pool(x_b, partition, mode)
    )
    m2e = np.linalg.norm(m2e_pool(x_a, mode) - m2e_pool(x_b, mode))
    return float(m2m), float(m2e)


def maxima_first_partition(x_a: VectorMultiset, x_b: VectorMultiset) -> Partition:
    """Two-group partition isolating both multisets' componentwise maxima.

    Group 0 collects every index that attains a per-dimension maximum in
    either multiset, so max-pooling group 0 alone already reproduces each
    multiset's collapsed max vector. Under this arrangement the chunked
    distance can only add to the collapsed one.
    """
    if len(x_a) != len(x_b):
        raise ValueError("aligned comparison needs equal multiset sizes")
    keep = set(np.argmax(x_a.elements, axis=0)) | set(np.argmax(x_b.elements, axis=0))
    assignment = np.ones(len(x_a), dtype=np.int64)
    assignment[sorted(keep)] = 0
    return Partition(assignment, 2)


def m2m_expected_step(p: float, q: float, chunks: int, prior_means):
    """Expected chunked class means after one label-blocked averaging step.

    ``prior_means`` holds one row per class; the step requires one chunk per
    class (the idealized oracle setting). Class c's next mean concatenates
    the prior means scaled by p/(p+(chunks-1)q) on its own chunk and
    q/(p+(chunks-1)q) elsewhere. Also returns the matrix of pairwise
    separation lower bounds |p-q|/(p+(chunks-1)q)*(|prior_a|+|prior_b|),
    which the summed per-chunk distance of the outputs always meets.
    """
    prior = np.atleast_2d(np.asarray(prior_means, dtype=np.float64))
    n_classes, f = prior.shape
    if chunks != n_classes:
        raise ValueError("expected-step oracle needs one chunk per class")
    den = block_degree(p, q, chunks)
    coef = np.full((n_classes, chunks), q / den)
    np.fill_diagonal(coef, p / den)
    # row c: blocks t = coef[c, t] * prior[t]
    next_means = (coef[:, :, None] * prior[None, :, :]).reshape(n_classes, chunks * f)
    norms = np.linalg.norm(prior, axis=1)
    bounds = abs(p - q) / den * (norms[:, None] + norms[None, :])
    np.fill_diagonal(bounds, 0.0)
    return next_means, bounds


def chunked_distance(row_a, row_b, chunks: int) -> float:
    """Sum over chunks of the per-chunk Euclidean distances."""
    a = np.asarray(row_a, dtype=np.float64)
    b = np.asarray(row_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("need two flat vectors of equal length")
    if a.shape[0] % chunks:
        raise ValueError("length not divisible by chunk count")
    da = a.reshape(chunks, -1)
    db = b.reshape(chunks, -1)
    return float(np.linalg.norm(da - db, axis=1).sum())


def relu_contraction_check(a, b) -> bool:
    """True when clipping negatives does not increase the pair's distance."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("need equal shapes")
    clipped = np.linalg.norm(np.maximum(a, 0.0) - np.maximum(b, 0.0))
    return bool(clipped <= np.linalg.norm(a - b))
