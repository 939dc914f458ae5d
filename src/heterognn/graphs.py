"""Graph data model, TSV dataset ingestion, random splits, and homophily.

On-disk format (one directory per dataset, UTF-8, tab-separated, '\\n' or
'\\r\\n' line endings). Empty lines and comment lines, those *starting* with
'#', are skipped; a '#' later in a line is not a comment.

    edges.tsv     one undirected edge per line: "<u>\\t<v>"
    features.tsv  one row of d reals per node, node id = line order
    labels.tsv    one integer class id per node
    meta.json     optional, {"n_classes": C}; otherwise C = max label + 1

Numbers are ASCII, optionally signed and space-padded: integers are decimal
digits; reals also take a fraction, an exponent, "nan" and "inf" (which the
loader then rejects as non-finite). Underscore digit groups ("6_0") and
non-ASCII digits are rejected.

A Graph is a CSR index of directed arcs, two per undirected edge, sorted
by (dst, src). This module sorts arcs into that order, and a CSR already in
it is a Graph as it stands; `training._reverse_arc_index` finds each arc's
twin by one binary search over that order. Its arc indices are int32 when
the node and arc counts are both below 2**31 and int64 otherwise
(`arc_index_dtype`), which is scipy's rule for CSR index arrays, so a CSR
matrix built on a Graph's arrays shares them instead of copying them.
`bucket_matrix` is the one scatter primitive: the loss's backward, the class
statistics and the attention analysis's class mass all sum rows with it.
"""

import json
import os
import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from .seeds import SPLIT, stream

__all__ = ["Graph", "Split", "DatasetFormatError", "load_dataset",
           "save_dataset", "edge_homophily", "random_split", "largest_remainder",
           "arc_index_dtype", "check_arc_index", "bucket_matrix"]

SPLIT_FRACTIONS = (0.48, 0.32, 0.20)

# The encoder multiplies the features as CSR when at most this share of
# their entries is nonzero, and as the dense array otherwise. Measured
# CSR / dense time of the pair x @ w, x.T @ g (BENCH_sparse_encoder.json):
# 0.6-0.7 at 5% nonzero and 1.3-1.5 at 10%, on 183 x 1703 (Texas),
# 2708 x 1433 (cora) and 3000 x 200 matrices.
SPARSE_FEATURE_DENSITY = 0.05


class DatasetFormatError(ValueError):
    """Raised when an on-disk dataset violates the documented format."""


def arc_index_dtype(n_nodes, n_arcs=0) -> np.dtype:
    """The dtype of a graph's arc indices: int32 when max(n_nodes, n_arcs)
    < 2**31, else int64.

    This is the rule scipy applies to the index arrays of an n_nodes-square
    CSR matrix with n_arcs entries, so such a matrix keeps arrays of this
    dtype as they are. It reads the two numbers alone and allocates nothing.
    """
    return np.dtype(np.int32 if max(n_nodes, n_arcs) < 2**31 else np.int64)


def check_arc_index(arc_src, indptr, n_sources):
    """(arc_src, indptr) checked as the CSR index of arcs from n_sources
    nodes, in `arc_index_dtype`.

    Both must be 1-D integer arrays (a list of ints reads as int64), the
    offsets must rise from 0 to the number of arcs and every source must lie
    in [0, n_sources). Each violation raises ValueError naming its field.
    An array already in the dtype is kept as it is; other integer input is
    converted once, after the checks, so nothing wraps.
    """
    arc_src, indptr = np.asarray(arc_src), np.asarray(indptr)
    for name, array in (("arc_src", arc_src), ("indptr", indptr)):
        if array.dtype.kind not in "iu":
            raise ValueError(f"arc index field {name!r}: dtype {array.dtype} is "
                             f"not an integer dtype")
        if array.ndim != 1:
            raise ValueError(f"arc index field {name!r}: {array.ndim}-D, not 1-D")
    n_arcs = len(arc_src)
    # compared, not differenced: np.diff of unsigned offsets wraps
    if (not len(indptr) or indptr[0] != 0 or indptr[-1] != n_arcs
            or (indptr[1:] < indptr[:-1]).any()):
        raise ValueError(f"arc index field 'indptr': offsets are not a "
                         f"nondecreasing run from 0 to the {n_arcs} arc sources")
    if n_arcs and (arc_src.min() < 0 or arc_src.max() >= n_sources):
        raise ValueError(f"arc index field 'arc_src': arc source outside "
                         f"[0, {n_sources})")
    dtype = arc_index_dtype(max(n_sources, len(indptr) - 1), n_arcs)
    return arc_src.astype(dtype, copy=False), indptr.astype(dtype, copy=False)


def bucket_matrix(ids, n):
    """The (n, len(ids)) CSR matrix with a 1 at (ids[j], j), for ids in [0, n).

    m @ values sums row j of values into row ids[j], rows in order as np.add.at
    adds them, so bit for bit. Its row lengths, np.diff(m.indptr), are the counts.
    """
    k = len(ids)
    return sp.csr_matrix((np.ones(k), (ids, np.arange(k))), shape=(n, k))


@dataclass(frozen=True)
class Graph:
    """An undirected graph as a CSR index of directed arcs, plus node data.

    The sources of the arcs into node i are arc_src[indptr[i]:indptr[i+1]],
    strictly ascending, and both directions of every edge are present.
    Construction checks the index as `check_arc_index` does, with n_nodes
    sources, then the length of `indptr` and that order, which the model
    reads; not symmetry, which would take a second sort. The order
    check compares each source with the one before it, except at a row
    start, so it holds one byte per arc and no copy of `arc_src`. The node
    data is checked too: `features` must be 2-D with n_nodes rows and
    `labels` a 1-D integer array of n_nodes entries (their range is not
    checked). Each violation raises ValueError naming its field.

    `arc_src` and `indptr` are stored in `arc_index_dtype(n_nodes, n_arcs)`,
    as they are when they already have it (a scipy CSR's int32 arrays) and
    converted once otherwise, and `arc_dst` has the dtype of `indptr`. A
    Graph unpickled from an older build may hold int64 arrays; every reader
    takes either.

    `arc_dst` (from indptr) and `encoder_operand` (from the features) are
    built on first read and kept for the Graph's life, so nothing may write
    into `indptr` or `features` after construction (nothing in the package does).
    """

    n_nodes: int
    arc_src: np.ndarray
    indptr: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        n = self.n_nodes
        arc_src, indptr = check_arc_index(self.arc_src, self.indptr, n)
        if len(indptr) != n + 1:
            raise ValueError(f"Graph field 'indptr': length {len(indptr)}, "
                             f"expected n_nodes + 1 = {n + 1}")
        object.__setattr__(self, "arc_src", arc_src)
        object.__setattr__(self, "indptr", indptr)
        shape = np.shape(self.features)
        if len(shape) != 2 or shape[0] != n:
            raise ValueError(f"Graph field 'features': shape {shape}, expected "
                             f"{n} rows of a 2-D array")
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "iu" or labels.shape != (n,):
            raise ValueError(f"Graph field 'labels': {labels.dtype} array of shape "
                             f"{labels.shape}, expected {n} integers in 1-D")
        n_arcs = len(arc_src)
        # descent[k] compares arcs k and k + 1; a pair that straddles a row
        # start lies in two rows, so it may descend
        descent = arc_src[1:] <= arc_src[:-1]
        starts = indptr[1:-1]
        descent[starts[(starts > 0) & (starts < n_arcs)] - 1] = False
        if descent.any():
            raise ValueError("Graph field 'arc_src': arcs are unsorted or "
                             "repeated within a destination")

    @property
    def n_arcs(self) -> int:
        return int(self.arc_src.shape[0])

    @property
    def n_edges(self) -> int:
        return self.n_arcs // 2

    @cached_property
    def arc_dst(self) -> np.ndarray:
        """The destination of each arc: node i repeated once per arc into it,
        in the dtype of `indptr`."""
        return np.repeat(np.arange(self.n_nodes, dtype=self.indptr.dtype),
                         np.diff(self.indptr))

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    @cached_property
    def encoder_operand(self):
        """The features as the left operand of the encoder's first product.

        A CSR matrix when at most `SPARSE_FEATURE_DENSITY` of the entries
        are nonzero (bag-of-words rows), else the dense float64 array, so
        dense features keep their BLAS product and its bits. Built on first
        use, from one count of the nonzeros, and cached on the instance: a
        graph that is never encoded, as in the analysis commands, pays
        nothing, and a pickled graph carries the operand if it was built.
        """
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        if np.count_nonzero(features) <= SPARSE_FEATURE_DENSITY * features.size:
            return sp.csr_matrix(features)
        return features

    def in_neighbors(self, i: int) -> np.ndarray:
        """Sources of all arcs pointing at node i."""
        return self.arc_src[self.indptr[i] : self.indptr[i + 1]]


def _arcs_by_destination(u, v, n_nodes):
    """Both directions of the undirected edges (u[e], v[e]), sorted by (dst, src).

    Returns (src, indptr): the arc sources and the CSR offsets over
    destinations, both in `arc_index_dtype(n_nodes, n_arcs)`. u and v may be
    any integer arrays. One key dst * n_nodes + src per arc sorts the arcs:
    int32 keys when n_nodes**2 < 2**31 and int64 keys otherwise, filled in
    place with the products taken in the key dtype, so no endpoint dtype can
    overflow. A repeated key (an edge listed twice, either way round) is
    dropped. The offsets are a binary search for each row's first key, and
    the sources are the keys' remainders modulo n_nodes, written in place
    over int32 keys and straight into an int32 array from int64 keys.
    """
    n_nodes, n_edges = int(n_nodes), len(u)
    key_dtype = np.int32 if n_nodes * n_nodes < 2**31 else np.int64
    keys = np.empty(2 * n_edges, dtype=key_dtype)
    for dst, src, half in ((v, u, keys[:n_edges]), (u, v, keys[n_edges:])):
        np.multiply(dst, n_nodes, out=half, dtype=key_dtype)
        np.add(half, src, out=half, dtype=key_dtype)
    keys.sort()
    repeated = keys[1:] == keys[:-1]
    if repeated.any():
        keys = np.delete(keys, np.flatnonzero(repeated) + 1)
    del repeated
    dtype = arc_index_dtype(n_nodes, len(keys))
    indptr = np.searchsorted(keys, np.arange(n_nodes + 1, dtype=key_dtype) * n_nodes)
    src = keys if keys.dtype == dtype else np.empty(len(keys), dtype=dtype)
    np.remainder(keys, n_nodes, out=src)
    return src, indptr.astype(dtype)


def build_graph(n_nodes, undirected_edges, features, labels, n_classes) -> Graph:
    """Assemble a Graph from an (E, 2) array of edges, u != v in every row.

    Both arc directions are materialized; duplicates and reversals collapse.
    Integer edges of any width are read as they are, without a copy; other
    edges must hold whole numbers (an empty list, whose numpy dtype is
    float, is the edgeless graph). The Graph's arc indices are in
    `arc_index_dtype`, int32 below 2**31 nodes and arcs.
    """
    edges = np.asarray(undirected_edges).reshape(-1, 2)
    features = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    if edges.size:
        if edges.dtype.kind == "f":
            fractional = edges != np.floor(edges)  # NaN included
            if fractional.any():
                raise ValueError(f"undirected_edges: endpoint "
                                 f"{edges[fractional][0]} is not a whole number")
        if edges.min() < 0 or edges.max() >= n_nodes:
            raise ValueError("edge endpoint out of range")
        if (edges[:, 0] == edges[:, 1]).any():
            raise ValueError("self-loops are not represented")
    if edges.dtype.kind not in "iu":
        edges = edges.astype(arc_index_dtype(n_nodes))
    src, indptr = _arcs_by_destination(edges[:, 0], edges[:, 1], n_nodes)
    return Graph(int(n_nodes), src, indptr, features, labels, int(n_classes))


def _read_table(path, dtype, what, width=None):
    """Parse the content lines of a TSV file into a 2-D `dtype` array.

    Returns the array and the physical line number of each of its rows.
    width is the required column count; None takes it from the first row.
    what ends the message for a row that does not parse as `dtype`. Every
    malformed case raises DatasetFormatError naming the file, and the line
    when one line is at fault.
    """
    try:
        # universal newlines: "\n", "\r\n" and "\r" all end a line
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text: {exc}") from None
    numbers = [i for i, line in enumerate(lines, 1) if line and line[0] != "#"]
    rows = [lines[i - 1] for i in numbers]
    if not rows:  # loadtxt would warn that the input holds no data
        return np.empty((0, width or 0), dtype=dtype), numbers
    tabs = [row.count("\t") for row in rows]
    width = width or tabs[0] + 1
    if tabs.count(width - 1) != len(tabs):
        bad = next(i for i, n in enumerate(tabs) if n != width - 1)
        raise DatasetFormatError(f"{path}:{numbers[bad]}: expected {width} "
                                 f"columns, got {tabs[bad] + 1}")
    parse = partial(np.loadtxt, delimiter="\t", dtype=dtype, ndmin=2, comments=None)
    try:
        return parse(rows), numbers
    except ValueError as exc:
        # loadtxt counts data rows, not file lines: find the line by re-parsing
        for number, row in zip(numbers, rows):
            try:
                parse([row])
            except ValueError:
                raise DatasetFormatError(f"{path}:{number}: {what}") from None
        raise DatasetFormatError(f"{path}: {exc}") from None


def load_dataset(path, row_normalize=False) -> Graph:
    """Load a dataset directory into a Graph.

    row_normalize divides each feature row by its L1 mass (rows summing to
    zero are left untouched); a row whose mass overflows float64 is first
    divided by its largest magnitude. Duplicate undirected edges are
    collapsed and self-loops are dropped with a warning.
    """
    edges_path = os.path.join(path, "edges.tsv")
    feats_path = os.path.join(path, "features.tsv")
    labels_path = os.path.join(path, "labels.tsv")
    for p in (edges_path, feats_path, labels_path):
        if not os.path.isfile(p):
            raise DatasetFormatError(f"missing required file: {p}")

    features, feature_lines = _read_table(feats_path, np.float64,
                                          "features must be real numbers")
    if not len(features):
        raise DatasetFormatError(f"{feats_path}: no feature rows")
    finite = np.isfinite(features)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise DatasetFormatError(
            f"{feats_path}:{feature_lines[row]}: feature {col} is "
            f"{features[row, col]}; features must be finite"
        )
    n_nodes = features.shape[0]

    labels, _ = _read_table(labels_path, np.int64, "labels must be integers", 1)
    labels = labels[:, 0]
    if len(labels) != n_nodes:
        raise DatasetFormatError(
            f"{labels_path}: {len(labels)} labels for {n_nodes} feature rows"
        )

    n_classes = None
    meta_path = os.path.join(path, "meta.json")
    if os.path.isfile(meta_path):
        try:
            with open(meta_path, encoding="utf-8") as fh:
                meta = json.load(fh)
        except ValueError as exc:  # JSON syntax or UTF-8 decoding
            raise DatasetFormatError(f"{meta_path}: not valid JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise DatasetFormatError(
                f"{meta_path}: expected a JSON object, got {type(meta).__name__}"
            )
        n_classes = meta.get("n_classes")
        if n_classes is not None and (type(n_classes) is not int or n_classes < 1):
            raise DatasetFormatError(
                f"{meta_path}: field 'n_classes' must be a positive integer, "
                f"got {n_classes!r}"
            )
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    if labels.min() < 0 or labels.max() >= n_classes:
        bad = int(np.argmax((labels < 0) | (labels >= n_classes)))
        raise DatasetFormatError(
            f"{labels_path}: label {labels[bad]} of node {bad} outside [0, {n_classes})"
        )

    edges, edge_lines = _read_table(edges_path, np.int64,
                                    "endpoints must be integers", 2)
    outside = ((edges < 0) | (edges >= n_nodes)).any(axis=1)
    if outside.any():
        raise DatasetFormatError(
            f"{edges_path}:{edge_lines[np.argmax(outside)]}: endpoint outside "
            f"[0, {n_nodes})"
        )
    loops = edges[:, 0] == edges[:, 1]
    if loops.any():
        warnings.warn(f"{edges_path}: dropped {loops.sum()} self-loop line(s)")
    edges = edges[~loops]

    if row_normalize:
        with np.errstate(over="ignore"):
            mass = np.abs(features).sum(axis=1, keepdims=True)
        # the entries are finite, so an infinite mass overflowed; dividing
        # the row by a positive number first leaves its normalized form as is
        huge = np.isinf(mass[:, 0])
        if huge.any():
            features[huge] /= np.abs(features[huge]).max(axis=1, keepdims=True)
            mass[huge] = np.abs(features[huge]).sum(axis=1, keepdims=True)
        nonzero = mass[:, 0] > 0
        features[nonzero] /= mass[nonzero]

    return build_graph(n_nodes, edges, features, labels, n_classes)


def save_dataset(path, g: Graph, arc_signs=None):
    """Write a Graph back to the TSV directory format.

    Floats are rendered with repr() so a reload is bit-exact. When arc_signs
    is given (one weight per undirected edge, aligned with the emitted edge
    order), a signs.tsv column is written alongside edges.tsv.
    """
    os.makedirs(path, exist_ok=True)
    und = self_free_undirected_edges(g)
    with open(os.path.join(path, "edges.tsv"), "w", encoding="utf-8", newline="") as fh:
        for u, v in und:
            fh.write(f"{u}\t{v}\n")
    with open(os.path.join(path, "features.tsv"), "w", encoding="utf-8", newline="") as fh:
        for row in g.features.tolist():
            fh.write("\t".join(map(repr, row)) + "\n")
    with open(os.path.join(path, "labels.tsv"), "w", encoding="utf-8", newline="") as fh:
        for y in g.labels:
            fh.write(f"{int(y)}\n")
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump({"n_classes": g.n_classes}, fh)
        fh.write("\n")
    if arc_signs is not None:
        signs = np.asarray(arc_signs)
        if signs.shape[0] != und.shape[0]:
            raise ValueError("one sign per undirected edge is required")
        with open(os.path.join(path, "signs.tsv"), "w", encoding="utf-8", newline="") as fh:
            for s in signs:
                fh.write(f"{int(s)}\n")


def self_free_undirected_edges(g: Graph) -> np.ndarray:
    """The (E, 2) canonical u < v edge list underlying the graph's arcs,
    sorted by (u, v)."""
    # arcs are sorted by (dst, src), so the arcs with dst < src list the
    # (u, v) = (dst, src) pairs in order
    mask = g.arc_dst < g.arc_src
    return np.stack([g.arc_dst[mask], g.arc_src[mask]], axis=1)


def edge_homophily(g: Graph) -> float:
    """Fraction of arcs whose endpoints share a label (same over edges)."""
    if g.n_arcs == 0:
        return float("nan")
    same = g.labels[g.arc_src] == g.labels[g.arc_dst]
    return float(same.mean())


@dataclass(frozen=True)
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int

    def sizes(self):
        return (len(self.train), len(self.val), len(self.test))


def largest_remainder(n: int, fractions) -> list:
    """Integer sizes summing to n, apportioned by the largest-remainder rule.

    Ties in the fractional remainders are broken toward earlier entries.
    """
    quotas = [n * f for f in fractions]
    sizes = [int(q) for q in quotas]
    leftover = n - sum(sizes)
    remainders = sorted(
        range(len(fractions)), key=lambda i: (-(quotas[i] - sizes[i]), i)
    )
    for i in remainders[:leftover]:
        sizes[i] += 1
    return sizes


def random_split(g: Graph, seed: int) -> Split:
    """Uniformly random node partition in SPLIT_FRACTIONS, drawn from the
    seed's SPLIT stream, with deterministic per-seed sizes."""
    rng = stream(seed, SPLIT)
    perm = rng.permutation(g.n_nodes)
    n_train, n_val, n_test = largest_remainder(g.n_nodes, SPLIT_FRACTIONS)
    return Split(
        train=np.sort(perm[:n_train]),
        val=np.sort(perm[n_train : n_train + n_val]),
        test=np.sort(perm[n_train + n_val :]),
        seed=seed,
    )
