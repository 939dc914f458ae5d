"""Contextual stochastic block model with signed edges.

Nodes are split into C equal-size classes (labels assigned in contiguous
blocks). Each same-class pair is connected independently with probability p
and carries weight +1; each cross-class pair with probability q and weight
-1. Features are Gaussian around per-class means. By construction every
sample's adjacency is desirable: positive entries only within classes,
negative only across.

The sampler runs in O(N + E + C^2) time and memory: each of the C(C+1)/2
class-pair blocks draws the positions of its edges by geometric skipping
(Batagelj & Brandes, *Efficient generation of large random networks*,
Phys. Rev. E 71, 036113, 2005) instead of flipping one coin per pair.

Memory, measured with tracemalloc at N = 6000 and 120000 (d-bar about 23 and
20): a sample's output is about 12 B per arc (float64 signs, int32 indices
that the Graph and the CSR share), and sampling peaks at 14.7 and 17.8 B per
arc, because the edges, the sort keys and the sources are int32 where they
fit (int64 keys from N**2 >= 2**31) and each stage holds at most one
arc-length temporary beside its output. signed_normalize then peaks at about
10 B per arc beyond its input, P's data included, and at 17.1 on a sample
with isolated nodes (N = 120000, d-bar about 8, 44 of them), whose drop
renumbers the column ids into P's own index array instead of copying A.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import Graph, arc_index_dtype, build_graph
from .seeds import EDGES, FEATURES, stream

__all__ = ["CsbmParams", "SignedGraphSample", "label_signed_sample", "sample_csbm",
           "signed_normalize", "expected_operator", "mean_abs_degree", "block_degree",
           "class_mean_rows"]

# signed_normalize gathers the column scales this many arcs at a time
# (512 KiB of float64), not as one arc-length array
_GATHER_BLOCK = 1 << 16


def class_mean_rows(means, n_classes) -> np.ndarray:
    """means as a float64 (C, f) array, one row per class.

    A flat length-C vector is C one-dimensional means. ValueError unless
    the result has C rows.
    """
    means = np.asarray(means, dtype=np.float64)
    if means.ndim < 2:
        means = means.reshape(1, -1)
    if means.shape[0] != n_classes:
        if means.shape != (1, n_classes):
            raise ValueError(f"class_means must have {n_classes} rows, got shape "
                             f"{means.shape}")
        means = means.T
    return means


@dataclass(frozen=True)
class CsbmParams:
    n_nodes: int
    n_classes: int
    p: float
    q: float
    class_means: np.ndarray  # C x f
    noise_var: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be at least 1, got {self.n_classes}")
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be at least 1, got {self.n_nodes}")
        object.__setattr__(self, "class_means",
                           class_mean_rows(self.class_means, self.n_classes))
        if self.n_nodes % self.n_classes != 0:
            raise ValueError("n_nodes must be a multiple of n_classes")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            name, value = ("q", self.q) if 0.0 <= self.p <= 1.0 else ("p", self.p)
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not 0.0 <= self.noise_var < np.inf:
            raise ValueError(f"noise_var must be finite and >= 0, got {self.noise_var}")

    @property
    def n_features(self) -> int:
        return self.class_means.shape[1]

    @property
    def block_size(self) -> int:
        return self.n_nodes // self.n_classes


@dataclass
class SignedGraphSample:
    """A signed adjacency, row i the arcs into node i as in a Graph, and node data."""

    adjacency: sp.csr_matrix  # entries in {-1, 0, +1}, symmetric, zero diagonal
    features: np.ndarray  # N x f
    labels: np.ndarray  # N


def label_signed_sample(graph: Graph) -> SignedGraphSample:
    """The graph's arcs as a signed adjacency: +1 within a class, -1 across.

    The CSR takes the graph's arc_src and indptr in their (dst, src) order,
    so nothing is sorted, and shares them: a Graph keeps them in scipy's
    index dtype (`arc_index_dtype`), so scipy copies neither.
    Integer labels are compared in the narrowest integer dtype that holds
    their range, one byte per arc end for fewer than 128 classes.
    """
    labels, n = graph.labels, graph.n_nodes
    narrow = labels
    if labels.dtype.kind in "iu" and labels.size:
        narrow = labels.astype(np.result_type(np.min_scalar_type(labels.min()),
                                              np.min_scalar_type(labels.max())))
    # each arc's destination label, without building graph.arc_dst
    dst_labels = np.repeat(narrow, np.diff(graph.indptr))
    signs = np.where(narrow[graph.arc_src] == dst_labels, 1.0, -1.0)
    adjacency = sp.csr_matrix((signs, graph.arc_src, graph.indptr), shape=(n, n))
    return SignedGraphSample(adjacency, graph.features, labels)


def _bernoulli_positions(rng, prob, n_pairs):
    """Sorted positions in [0, n_pairs) of independent Bernoulli(prob) hits.

    Gaps between consecutive hits are geometric, so the cost is O(hits).
    """
    if prob == 0.0:
        return np.empty(0, dtype=np.int64)
    expected = n_pairs * prob
    batch = int(expected + 4.0 * np.sqrt(expected)) + 1
    found, last = [], -1
    while True:
        gaps = rng.geometric(prob, batch)
        # a vanishing prob draws gaps near 2**63; clipping keeps the cumsum
        # from wrapping, and a gap of n_pairs + 1 passes the end from last >= -1
        np.minimum(gaps, n_pairs + 1, out=gaps)
        positions = last + np.cumsum(gaps)
        if positions[-1] >= n_pairs:
            found.append(positions[positions < n_pairs])
            return np.concatenate(found)
        found.append(positions)
        last = positions[-1]


def _triangle_pairs(positions, s):
    """Rows and columns of row-major positions in the strict upper triangle
    of an s x s square, in the order np.triu_indices(s, 1) lists them."""
    def row_start(i):
        return i * (2 * s - 1 - i) // 2

    # row i holds positions [row_start(i), row_start(i + 1)); solving the
    # quadratic gives i up to float rounding, which one step either way fixes
    disc = (2 * s - 1) ** 2 - 8 * positions  # exact in int64, always >= 9
    i = ((2 * s - 1 - np.sqrt(disc.astype(np.float64))) // 2).astype(np.int64)
    i -= row_start(i) > positions
    i += row_start(i + 1) <= positions
    return i, positions - row_start(i) + i + 1


def sample_csbm(params: CsbmParams) -> SignedGraphSample:
    """Draw one signed graph + feature sample; deterministic per params.seed.

    Class-pair blocks are drawn from the seed's EDGES stream in row-major
    order over a <= b: the strict upper triangle of a same-class block, the
    full rectangle of a cross-class block. The noise has its own FEATURES
    stream, so p and q move no feature and the means and noise no arc.
    """
    rng = stream(params.seed, EDGES)
    c, s = params.n_classes, params.block_size
    labels = np.repeat(np.arange(c), s)
    # node ids, in the Graph's index dtype: int32 below 2**31 nodes
    ids = arc_index_dtype(params.n_nodes)

    blocks = []
    for a in range(c):
        positions = _bernoulli_positions(rng, params.p, s * (s - 1) // 2)
        i, j = _triangle_pairs(positions, s)
        blocks.append(np.stack([a * s + i, a * s + j], axis=1, dtype=ids))
        for b in range(a + 1, c):
            i, j = np.divmod(_bernoulli_positions(rng, params.q, s * s), s)
            blocks.append(np.stack([a * s + i, b * s + j], axis=1, dtype=ids))
    edges = np.concatenate(blocks)
    # each arc-length array goes as soon as its successor exists, so the
    # sort keys and the signs are not built beside it
    del blocks, positions, i, j

    noise = stream(params.seed, FEATURES).standard_normal(
        (params.n_nodes, params.n_features))
    features = params.class_means[labels] + np.sqrt(params.noise_var) * noise
    graph = build_graph(params.n_nodes, edges, features, labels, c)
    del edges
    return label_signed_sample(graph)


def _without_isolated(adj, isolated, kept):
    """adj's (indices, indptr) over the kept nodes, or None when an isolated
    node has a stored entry (an explicit zero, or an asymmetric pattern).

    Otherwise an isolated node's row and column are both empty, so the kept
    rows keep their arcs in order: the offsets are indptr[kept] followed by
    nnz, and the columns are renumbered into one new index array, gathered
    in blocks of `_GATHER_BLOCK` arcs. adj itself is not written to.
    """
    indptr = adj.indptr
    if (indptr[1:] != indptr[:-1])[isolated].any():
        return None
    new_id = np.full(adj.shape[0], -1, dtype=adj.indices.dtype)
    new_id[kept] = np.arange(len(kept))
    indices = np.empty_like(adj.indices)
    for start in range(0, len(indices), _GATHER_BLOCK):
        block = slice(start, start + _GATHER_BLOCK)
        indices[block] = new_id[adj.indices[block]]
    if indices.size and indices.min() < 0:
        return None
    return indices, np.concatenate([indptr[kept], indptr[-1:]])


def signed_normalize(sample: SignedGraphSample):
    """Symmetric degree normalization of the signed adjacency.

    Returns (P, kept) where P = D^{-1/2} A D^{-1/2} over the nodes with
    absolute degree >= 1 and kept is the array of surviving node ids.
    Isolated nodes carry no propagation signal and are removed with a
    warning. The spectral norm of P is at most 1.

    P is scaled entry by entry on A's own sparsity pattern: its data is
    (inv_sqrt[i] * a_ij) * inv_sqrt[j], the products the two diagonal
    matrix products compute, in the same order, so P is bit-identical to
    ``(D @ A[kept][:, kept] @ D).tocsr()`` and keeps A's index order.
    Without isolated nodes P shares A's ``indices`` and ``indptr`` arrays;
    with them, P gets renumbered copies and A is left as it is.

    The degrees are scipy's row sums of ``abs(A)`` computed without its copy
    of A: one ``np.add.reduceat`` over |data| of the non-empty rows. The
    column scaling gathers ``inv_sqrt`` in blocks of ``_GATHER_BLOCK``
    arcs. So the call holds P's data plus one arc-length temporary, about
    10 B per arc of A in all, and 12 with isolated nodes, whose renumbered
    column ids are P's own.
    """
    adj = sample.adjacency
    adj.sum_duplicates()  # as abs(adj) did: canonical rows, in place
    magnitudes = np.abs(adj.data)
    deg = np.zeros(adj.shape[0])
    rows = np.flatnonzero(np.diff(adj.indptr))
    if rows.size:
        deg[rows] = np.add.reduceat(magnitudes, adj.indptr[rows])
    del magnitudes, rows
    isolated = deg == 0
    kept = np.nonzero(~isolated)[0]
    indices, indptr = adj.indices, adj.indptr
    if isolated.any():
        warnings.warn(
            f"dropping {int(isolated.sum())} isolated node(s) before normalization"
        )
        # the adjacency is symmetric, so the kept rows keep their degrees
        pattern = _without_isolated(adj, isolated, kept)
        if pattern is None:
            adj = adj[kept][:, kept]
            pattern = adj.indices, adj.indptr
        indices, indptr = pattern
        deg = deg[kept]
    inv_sqrt = 1.0 / np.sqrt(deg)
    data = np.repeat(inv_sqrt, np.diff(indptr))
    data *= adj.data
    for start in range(0, len(data), _GATHER_BLOCK):
        block = slice(start, start + _GATHER_BLOCK)
        data[block] *= inv_sqrt[indices[block]]
    P = sp.csr_matrix((data, indices, indptr), shape=(len(kept), len(kept)))
    return P, kept


def block_degree(p, q, n_classes) -> float:
    """p + (C-1)q; ValueError unless it is positive and finite (NaN is not)."""
    den = p + (n_classes - 1) * q
    if not 0.0 < den < np.inf:
        raise ValueError(f"p + (C-1)q must be positive and finite, got p={p}, q={q}")
    return den


def mean_abs_degree(params: CsbmParams) -> float:
    """Expected |degree| under the proof convention d-bar = (N/C)(p+(C-1)q);
    ValueError, from `block_degree`, unless p + (C-1)q is positive and finite."""
    return params.block_size * block_degree(params.p, params.q, params.n_classes)


def expected_operator(params: CsbmParams) -> np.ndarray:
    """Class-block description of the expected normalized operator.

    Returns the C x C matrix B with B[a, a] = p / d-bar and B[a, b] = -q / d-bar
    for a != b; the expected operator is B expanded over the class blocks.
    Multiplying B by the per-class block size recovers the coefficients of the
    expected-mean recursion.
    """
    dbar = params.block_size * block_degree(params.p, params.q, params.n_classes)
    c = params.n_classes
    block = np.full((c, c), -params.q / dbar)
    np.fill_diagonal(block, params.p / dbar)
    return block
