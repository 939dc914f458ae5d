"""Dataset loading, serialization round-trips, splits, and homophily."""

import json
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from heterognn.autodiff import Arcs
from heterognn.graphs import (
    DatasetFormatError,
    Graph,
    Split,
    _arcs_by_destination,
    arc_index_dtype,
    bucket_matrix,
    build_graph,
    edge_homophily,
    largest_remainder,
    load_dataset,
    random_split,
    save_dataset,
    self_free_undirected_edges,
)


def write_dataset(root, edges, features, labels, meta=None, comments=False):
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    if comments:
        lines.append("# edge list")
    lines += [f"{u}\t{v}" for u, v in edges]
    (root / "edges.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "features.tsv").write_text(
        "\n".join("\t".join(repr(float(v)) for v in row) for row in features) + "\n",
        encoding="utf-8",
    )
    (root / "labels.tsv").write_text(
        "\n".join(str(y) for y in labels) + "\n", encoding="utf-8"
    )
    if meta is not None:
        (root / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return root


def triangle(tmp_path, **kw):
    return write_dataset(
        tmp_path / "tri",
        edges=[(0, 1), (1, 2), (0, 2)],
        features=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        labels=[0, 1, 1],
        **kw,
    )


def test_triangle_has_six_arcs(tmp_path):
    g = load_dataset(triangle(tmp_path))
    assert g.n_nodes == 3
    assert g.n_arcs == 6
    assert g.n_edges == 3


def test_every_arc_has_its_reverse(tmp_path):
    g = load_dataset(triangle(tmp_path))
    arcs = set(zip(g.arc_src.tolist(), g.arc_dst.tolist()))
    assert all((j, i) in arcs for i, j in arcs)


def test_csr_in_neighbors(tmp_path):
    g = load_dataset(triangle(tmp_path))
    assert sorted(g.in_neighbors(0).tolist()) == [1, 2]
    assert sorted(g.in_neighbors(1).tolist()) == [0, 2]


@pytest.mark.parametrize("arc_src", [[2, 1, 0, 2, 0, 1],   # shuffled into 0
                                     [1, 1, 0, 2, 0, 1]])  # 1->0 twice
def test_graph_rejects_arcs_unsorted_or_repeated_within_a_destination(
        tmp_path, arc_src):
    g = load_dataset(triangle(tmp_path))
    assert g.arc_src.tolist() == [1, 2, 0, 2, 0, 1]
    with pytest.raises(ValueError, match="'arc_src'"):
        Graph(g.n_nodes, np.array(arc_src), g.indptr, g.features, g.labels,
              g.n_classes)


@pytest.mark.parametrize("arc_src, indptr", [([-4, 0, 1], [0, 3, 3, 3]),
                                             ([1, 0, 5], [0, 1, 2, 3]),
                                             ([1, 0, 3], [0, 1, 2, 3])])
def test_graph_rejects_arc_sources_outside_the_nodes(arc_src, indptr):
    # both lists ascend within each destination, so only the range is wrong
    with pytest.raises(ValueError, match=r"'arc_src': arc source outside \[0, 3\)"):
        Graph(3, np.array(arc_src), np.array(indptr), np.zeros((3, 1)),
              np.zeros(3, dtype=np.int64), 1)


def _key_order_holds(arc_src, indptr, n):
    """The former order check: one int64 key dst * n + src per arc, strictly
    ascending over the whole arc list."""
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr))
    keys += arc_src
    return not (keys[1:] <= keys[:-1]).any()


@st.composite
def csr_rows(draw):
    """A CSR of sources in [0, n): each row sorted and unique, or left as
    drawn (unsorted or repeated); empty rows anywhere."""
    n = draw(st.integers(1, 7))
    rows = []
    for _ in range(n):
        row = draw(st.lists(st.integers(0, n - 1), max_size=4))
        rows.append(sorted(set(row)) if draw(st.booleans()) else row)
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return n, np.array([v for r in rows for v in r], dtype=np.int64), indptr


def _graph_accepts(n, arc_src, indptr):
    try:
        Graph(n, arc_src, indptr, np.zeros((n, 1)), np.zeros(n, dtype=np.int64), 1)
    except ValueError as exc:
        assert "'arc_src': arcs are unsorted" in str(exc)
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(csr=csr_rows())
def test_graph_order_check_agrees_with_the_int64_key_check(csr):
    n, arc_src, indptr = csr
    assert _graph_accepts(n, arc_src, indptr) == _key_order_holds(arc_src, indptr, n)


@pytest.mark.parametrize("rows, ok", [
    ([[], [0, 2], [1]], True),          # empty first row
    ([[1], [], [0, 1]], True),          # empty middle row
    ([[1, 2], [0], []], True),          # empty last row
    ([[], [], []], True),               # no arcs
    ([[2], [0], [0, 1]], True),         # descents across each row boundary
    ([[2], [], [0, 1]], True),          # a descent across an empty row
    ([[1, 2], [0, 0], []], False),      # a repeat within a row
    ([[], [2, 0], []], False),          # a descent within a middle row
    ([[0, 1], [2, 2], [0]], False),     # a repeat just before a row start
])
def test_graph_order_check_on_row_boundaries(rows, ok):
    indptr = np.cumsum([0] + [len(r) for r in rows])
    arc_src = np.array([v for r in rows for v in r], dtype=np.int64)
    assert _key_order_holds(arc_src, indptr, 3) == ok
    assert _graph_accepts(3, arc_src, indptr) == ok
    # scipy keeps CSR index arrays as int32, which a Graph takes as they are
    assert _graph_accepts(3, arc_src.astype(np.int32), indptr.astype(np.int32)) == ok


@pytest.mark.parametrize("indptr", [[0, 2, 4],        # one offset short
                                    [0, 2, 4, 5],     # ends short of 6 arcs
                                    [0, 4, 2, 6]])    # decreasing
def test_graph_rejects_indptr_that_does_not_fit(tmp_path, indptr):
    g = load_dataset(triangle(tmp_path))
    with pytest.raises(ValueError, match="'indptr'"):
        Graph(g.n_nodes, g.arc_src, np.array(indptr), g.features, g.labels,
              g.n_classes)


@pytest.mark.parametrize("dtype", [np.float64, bool])
@pytest.mark.parametrize("field", ["arc_src", "indptr"])
def test_graph_rejects_index_arrays_that_are_not_integers(field, dtype):
    # the triangle's arcs; as floats they would index, as bools they are 0/1
    arrays = {"arc_src": np.array([1, 2, 0, 2, 0, 1]),
              "indptr": np.array([0, 2, 4, 6])}
    arrays[field] = arrays[field].astype(dtype)
    with pytest.raises(ValueError, match=f"'{field}': dtype .* not an integer"):
        Graph(3, arrays["arc_src"], arrays["indptr"], np.zeros((3, 1)),
              np.zeros(3, dtype=np.int64), 1)


TRIANGLE_SRC, TRIANGLE_PTR = np.array([1, 2, 0, 2, 0, 1]), np.array([0, 2, 4, 6])


@pytest.mark.parametrize("arc_src, indptr, field, problem", [
    ([0], [0, 2], "indptr", "offsets"),
    ([0], [1, 1], "indptr", "offsets"),
    ([0], [0, 1, 0], "indptr", "offsets"),
    ([0], [[0, 1]], "indptr", "2-D"),
    ([3], [0, 0, 1], "arc_src", "outside"),
    ([0, 4], [0, 0, 2, 2, 2], "arc_src", "outside"),
    ([0, 3], [0, 0, 2, 2], "arc_src", "outside"),
    (TRIANGLE_SRC.astype(float), TRIANGLE_PTR, "arc_src", "not an integer"),
    (TRIANGLE_SRC.astype(bool), TRIANGLE_PTR, "arc_src", "not an integer"),
    (TRIANGLE_SRC, TRIANGLE_PTR.astype(float), "indptr", "not an integer"),
    (TRIANGLE_SRC, TRIANGLE_PTR.astype(bool), "indptr", "not an integer"),
], ids=["indptr-past-the-arcs", "indptr-from-1", "indptr-falling", "indptr-2-D",
        "chunk-source-outside", "attention-source-outside",
        "attention-source-outside-fewer-rows", "float-arc_src", "bool-arc_src",
        "float-indptr", "bool-indptr"])
def test_graph_and_arcs_reject_a_malformed_index_alike(arc_src, indptr, field, problem):
    # one check (check_arc_index) serves both, with as many sources as rows
    n = len(indptr) - 1
    with pytest.raises(ValueError, match=f"'{field}': .*{problem}") as graph_error:
        Graph(n, np.array(arc_src), np.array(indptr), np.zeros((n, 1)),
              np.zeros(n, dtype=np.int64), 1)
    with pytest.raises(ValueError) as arcs_error:
        Arcs(arc_src, indptr, n)
    assert str(arcs_error.value) == str(graph_error.value)


def test_graph_rejects_a_decreasing_unsigned_indptr():
    # np.diff of unsigned offsets wraps instead of going negative
    with pytest.raises(ValueError, match="'indptr'"):
        Graph(3, np.array([1, 2, 0, 2, 0, 1]), np.array([0, 4, 2, 6], dtype=np.uint64),
              np.zeros((3, 1)), np.zeros(3, dtype=np.int64), 1)


def test_graph_checks_the_source_range_before_narrowing_it():
    # 2**32 + 1 would wrap to 1 in int32, a valid source of node 0
    with pytest.raises(ValueError, match="arc source outside"):
        Graph(3, np.array([2**32 + 1, 2, 0, 2, 0, 1]), np.array([0, 2, 4, 6]),
              np.zeros((3, 1)), np.zeros(3, dtype=np.int64), 1)


@pytest.mark.parametrize("features, labels, field", [
    (np.zeros((5, 2)), np.zeros(3, dtype=np.int64), "features"),
    (np.zeros(3), np.zeros(3, dtype=np.int64), "features"),
    (np.zeros((3, 2)), np.zeros(2, dtype=np.int64), "labels"),
    (np.zeros((3, 2)), np.zeros((3, 1), dtype=np.int64), "labels"),
    (np.zeros((3, 2)), np.zeros(3), "labels"),
], ids=["feature-rows", "features-1d", "label-count", "labels-2d", "float-labels"])
def test_graph_checks_its_node_data_naming_the_field(features, labels, field):
    with pytest.raises(ValueError, match=f"Graph field '{field}'"):
        Graph(3, np.array([1, 0]), np.array([0, 1, 2, 2]), features, labels, 1)


def test_build_graph_rejects_node_data_of_another_size_naming_the_field():
    with pytest.raises(ValueError, match="Graph field 'labels'"):
        build_graph(3, [(0, 1)], np.zeros((3, 2)), [0, 1], 2)


@pytest.mark.parametrize("n_nodes, n_arcs, want", [
    (0, 0, np.int32), (2**31 - 1, 2**31 - 1, np.int32), (2**31, 0, np.int64),
    (5, 2**31, np.int64), (2**40, 2**40, np.int64)])
def test_arc_index_dtype_is_scipys_rule(n_nodes, n_arcs, want):
    # the numbers alone: nothing of this size is allocated
    assert arc_index_dtype(n_nodes, n_arcs) == want
    # scipy's choice for an n_nodes-square CSR whose indptr ends at n_arcs
    assert sp.get_index_dtype(maxval=max(n_nodes, n_arcs)) == want


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_bucket_matrix_sums_rows_as_add_at_does_bit_for_bit(dtype):
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 6, size=500).astype(dtype)  # unsorted, repeated
    ids[ids == 2] = 5  # bucket 2 is empty, and so is the trailing bucket 6
    # magnitudes from 1e-8 to 1e8, so another summation order moves the bits
    values = rng.standard_normal((500, 4)) * 10.0 ** rng.integers(-8, 9, (500, 1))
    m = bucket_matrix(ids, 7)
    want = np.zeros((7, 4))
    np.add.at(want, ids, values)
    assert m.shape == (7, 500)
    assert np.array_equal((m @ values).view(np.uint64), want.view(np.uint64))
    assert np.diff(m.indptr).tolist() == np.bincount(ids, minlength=7).tolist()
    assert np.diff(m.indptr)[[2, 6]].tolist() == [0, 0]


@pytest.mark.parametrize("ids", [[0, 3], [-1, 0]])
def test_bucket_matrix_rejects_an_id_outside_the_buckets(ids):
    with pytest.raises(ValueError):
        bucket_matrix(np.array(ids), 3)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16])
def test_graph_stores_its_arc_index_in_the_rule_dtype(dtype):
    arc_src = np.array([1, 2, 0, 2, 0, 1], dtype=dtype)
    indptr = np.array([0, 2, 4, 6], dtype=dtype)
    g = Graph(3, arc_src, indptr, np.zeros((3, 1)), np.zeros(3, dtype=np.int64), 1)
    for got, passed in ((g.arc_src, arc_src), (g.indptr, indptr)):
        assert got.dtype == np.int32
        assert np.array_equal(got, passed)
        # an array already in the dtype is kept, not copied
        assert np.shares_memory(got, passed) == (dtype == np.int32)
    assert g.arc_dst.dtype == np.int32
    assert g.arc_dst.tolist() == [0, 0, 1, 1, 2, 2]


def test_comment_lines_ignored(tmp_path):
    g = load_dataset(triangle(tmp_path, comments=True))
    assert g.n_edges == 3


def test_duplicate_edges_collapse(tmp_path):
    root = write_dataset(
        tmp_path / "dup",
        edges=[(0, 1), (1, 0), (0, 1)],
        features=[[0.0], [1.0]],
        labels=[0, 0],
    )
    g = load_dataset(root)
    assert g.n_edges == 1


def test_self_loops_dropped_with_warning(tmp_path):
    root = write_dataset(
        tmp_path / "selfy",
        edges=[(0, 0), (0, 1)],
        features=[[0.0], [1.0]],
        labels=[0, 1],
    )
    with pytest.warns(UserWarning, match="self-loop"):
        g = load_dataset(root)
    assert g.n_edges == 1


def test_ragged_feature_row_names_line(tmp_path):
    root = triangle(tmp_path)
    (root / "features.tsv").write_text("1.0\t2.0\n3.0\n4.0\t5.0\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="features.tsv:2"):
        load_dataset(root)


def test_dangling_endpoint_names_line(tmp_path):
    root = triangle(tmp_path)
    (root / "edges.tsv").write_text("0\t1\n0\t9\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="edges.tsv:2"):
        load_dataset(root)


def test_label_out_of_meta_range(tmp_path):
    root = triangle(tmp_path, meta={"n_classes": 2})
    (root / "labels.tsv").write_text("0\n1\n5\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="label 5"):
        load_dataset(root)


@pytest.mark.parametrize("n_classes", [2.5, "3", 0, -1, True])
def test_meta_n_classes_must_be_a_positive_integer(tmp_path, n_classes):
    root = triangle(tmp_path, meta={"n_classes": n_classes})
    with pytest.raises(DatasetFormatError, match=r"meta\.json: field 'n_classes'"):
        load_dataset(root)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_feature_names_line(tmp_path, value):
    root = triangle(tmp_path)
    (root / "features.tsv").write_text(f"# x y\n1.0\t2.0\n3.0\t{value}\n4.0\t5.0\n",
                                       encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="features.tsv:3: feature 1"):
        load_dataset(root)


@pytest.mark.parametrize("token", ["abc", "6_0", "１", ""])
def test_bad_feature_token_names_its_physical_line(tmp_path, token):
    # underscore-grouped and non-ASCII digits are rejected, as loadtxt does
    root = triangle(tmp_path)
    (root / "features.tsv").write_text(f"# x y\n1.0\t2.0\n\n3.0\t{token}\n4.0\t5.0\n",
                                       encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="features.tsv:4: "):
        load_dataset(root)


@pytest.mark.parametrize("name, text", [
    ("labels.tsv", "# y\n0\n1.5\n1\n"),
    ("labels.tsv", "0\n\n1_0\n1\n"),
    ("labels.tsv", "0\n\n99999999999999999999\n1\n"),  # beyond int64
    ("edges.tsv", "# u v\n0\t1\nx\t2\n"),
    ("edges.tsv", "0\t1\n\n1\t2.0\n"),
])
def test_non_integer_label_or_endpoint_names_its_line(tmp_path, name, text):
    root = triangle(tmp_path)
    (root / name).write_text(text, encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=f"{name}:3: .* must be integers"):
        load_dataset(root)


@pytest.mark.parametrize("name, text", [("labels.tsv", "0\n1\t1\n1\n"),
                                        ("edges.tsv", "0\t1\n1\t2\t0\n")])
def test_ragged_label_or_edge_row_names_its_line(tmp_path, name, text):
    root = triangle(tmp_path)
    (root / name).write_text(text, encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=f"{name}:2: expected"):
        load_dataset(root)


@pytest.mark.parametrize("text", ["", "# no edges\n", "\n# none\n\n"])
def test_edgeless_dataset_loads_without_a_warning(tmp_path, text):
    root = triangle(tmp_path)
    (root / "edges.tsv").write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = load_dataset(root)
    assert g.n_arcs == 0
    assert g.indptr.tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("name", ["edges.tsv", "features.tsv", "labels.tsv"])
def test_non_utf8_table_names_the_file(tmp_path, name):
    root = triangle(tmp_path)
    with open(root / name, "ab") as fh:
        fh.write(b"1\t\xff\n")
    with pytest.raises(DatasetFormatError, match=f"{name}: not UTF-8"):
        load_dataset(root)


@pytest.mark.parametrize("text, match", [("{bad", "not valid JSON"),
                                         (b"\xff", "not valid JSON"),
                                         ("[3]", "expected a JSON object, got list"),
                                         ("2", "expected a JSON object, got int")])
def test_meta_that_is_not_a_json_object_names_the_file(tmp_path, text, match):
    root = triangle(tmp_path)
    path = root / "meta.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(DatasetFormatError, match=rf"meta\.json: {match}"):
        load_dataset(root)


def reference_load(root, row_normalize):
    """Line-by-line loader: float()/int() per token, a set for duplicate
    edges. Returns the graph and the self-loop warning text, or None."""

    def content(name):
        with open(root / name, encoding="utf-8", newline="") as fh:
            lines = [raw.rstrip("\r\n") for raw in fh]
        return [line for line in lines if line and not line.startswith("#")]

    features = np.array([[float(v) for v in line.split("\t")]
                         for line in content("features.tsv")])
    labels = np.array([int(line) for line in content("labels.tsv")], dtype=np.int64)
    n = len(labels)
    n_classes = int(labels.max()) + 1
    if (root / "meta.json").exists():
        n_classes = json.loads((root / "meta.json").read_text())["n_classes"]
    seen, n_self = set(), 0
    for line in content("edges.tsv"):
        u, v = (int(t) for t in line.split("\t"))
        if u == v:
            n_self += 1
        else:
            seen.add((min(u, v), max(u, v)))
    if row_normalize:
        for row in features:
            with np.errstate(over="ignore"):
                mass = np.abs(row).sum()
            if np.isinf(mass):
                row /= np.abs(row).max()
                mass = np.abs(row).sum()
            if mass > 0:
                row /= mass
    warning = f"dropped {n_self} self-loop line(s)" if n_self else None
    return build_graph(n, sorted(seen), features, labels, n_classes), warning


reals = st.floats(allow_nan=False, allow_infinity=False)
feature_tokens = st.one_of(
    reals.map(repr),
    reals.map(lambda x: f"{x:.17g}"),
    # rounding to four digits can carry the largest floats past the maximum
    reals.map(lambda x: f"{x:.3e}").filter(lambda t: np.isfinite(float(t))),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["-0", "+1", ".5", "5.", "1E+2", " 2.5 "]),
)
# files of these alone take the integer reader, except that the 20-digit
# token overflows int64 and sends its file to the float reader
integer_tokens = st.one_of(
    st.integers(0, 10**6).map(str),
    st.integers(0, 2**63 - 1).map(str),
    st.sampled_from(["0", "+3", " 7 ", "007", "9007199254740993",
                     "12345678901234567890"]),
)
# no "-": a file of integer tokens and one of these tries the integer reader
# first, and it fails on this token
real_tokens = st.sampled_from([".5", "5.", "2.5", "1E+2", " 3.0 ", "1e300"])


@st.composite
def tsv_datasets(draw):
    """(files, row_normalize): a dataset directory's file texts with comment
    and blank lines, CRLF or LF endings, and raw edges that may repeat,
    reverse or loop. The features are mixed tokens, integer tokens alone, or
    integer tokens with one real token in the last row."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    n_classes = draw(st.integers(1, 4))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    node = st.integers(0, n - 1)

    def lines(rows):
        out = []
        for row in rows:
            out += draw(st.lists(st.sampled_from(["", "#", "# a\tb", "#1.0", "#-0"]),
                                 max_size=2))
            out.append(row)
        tail = newline if draw(st.booleans()) else ""
        return newline.join(out) + tail

    kind = draw(st.sampled_from(["mixed", "integer", "real last"]))
    tokens = feature_tokens if kind == "mixed" else integer_tokens
    table = [draw(st.lists(tokens, min_size=d, max_size=d)) for _ in range(n)]
    if kind == "real last":
        table[-1][draw(st.integers(0, d - 1))] = draw(real_tokens)
    features = ["\t".join(row) for row in table]
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    files = {
        "features.tsv": lines(features),
        "labels.tsv": lines([str(y) for y in labels]),
        "edges.tsv": lines([f"{u}\t{v}" for u, v in edges]),
    }
    if draw(st.booleans()):
        files["meta.json"] = json.dumps({"n_classes": n_classes})
    return files, draw(st.booleans())


@settings(max_examples=90, deadline=None)
@given(case=tsv_datasets())
def test_load_matches_the_line_by_line_reference(tmp_path_factory, case):
    files, row_normalize = case
    root = tmp_path_factory.mktemp("ds")
    for name, text in files.items():
        (root / name).write_bytes(text.encode("utf-8"))
    expected, warning = reference_load(root, row_normalize)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = load_dataset(root, row_normalize=row_normalize)
    messages = [str(w.message) for w in caught]
    assert messages == ([f"{root / 'edges.tsv'}: {warning}"] if warning else [])
    assert np.array_equal(g.features.view(np.uint64), expected.features.view(np.uint64))
    for field in ("labels", "arc_src", "arc_dst", "indptr"):
        assert np.array_equal(getattr(g, field), getattr(expected, field)), field
    assert g.n_classes == expected.n_classes


@pytest.mark.parametrize("features, readers", [
    ([[0.0, 1.0, 3.0], [2.0, 0.0, 0.0]], ["int64"]),
    ([[0.0, 1.0, 3.0], [2.0, 0.5, 0.0]], ["int64", "float64"]),
    ([[0.0, 1.0, 3.0], [-0.0, 0.0, 0.0]], ["float64"]),
])
def test_saved_whole_features_take_the_integer_reader(tmp_path, monkeypatch,
                                                       features, readers):
    g = build_graph(2, [(0, 1)], features, [0, 1], 2)
    save_dataset(tmp_path / "ds", g)
    parse, tried = np.loadtxt, []

    def spy(rows, **kwargs):
        if rows[0].count("\t") == 2:  # the three-column features table
            tried.append(np.dtype(kwargs["dtype"]).name)
        return parse(rows, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    loaded = load_dataset(tmp_path / "ds")
    assert tried == readers
    assert np.array_equal(loaded.features.view(np.uint64), g.features.view(np.uint64))


def test_integer_reader_never_truncates_a_real_token(tmp_path, monkeypatch):
    # numpy releases that still read an int64 token the integer parser
    # rejects as a float, truncated, and say so only by a DeprecationWarning
    parse = np.loadtxt

    def lenient(rows, **kwargs):
        try:
            return parse(rows, **kwargs)
        except ValueError:
            if np.dtype(kwargs["dtype"]).kind != "i":
                raise
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
        except DeprecationWarning as exc:  # as such releases' loadtxt does
            raise ValueError("could not convert string to int64") from exc
        return parse(rows, **{**kwargs, "dtype": np.float64}).astype(kwargs["dtype"])

    monkeypatch.setattr(np, "loadtxt", lenient)
    root = write_dataset(tmp_path / "real", edges=[(0, 1)], labels=[0, 1],
                         features=[[0.0, 1.0], [2.0, 0.0]])
    (root / "features.tsv").write_text("0\t1\n0.5\t1E+2\n", encoding="utf-8")
    assert load_dataset(root).features.tolist() == [[0.0, 1.0], [0.5, 100.0]]
    for token in ("nan", "inf", "1e300"):
        (root / "features.tsv").write_text(f"0\t1\n2\t{token}\n", encoding="utf-8")
        if token == "1e300":
            assert load_dataset(root).features[1, 1] == 1e300
        else:
            with pytest.raises(DatasetFormatError, match="finite"):
                load_dataset(root)


def test_n_classes_inferred_and_overridden(tmp_path):
    g = load_dataset(triangle(tmp_path))
    assert g.n_classes == 2
    g2 = load_dataset(triangle(tmp_path, meta={"n_classes": 4}))
    assert g2.n_classes == 4


def test_missing_file_is_format_error(tmp_path):
    root = triangle(tmp_path)
    (root / "labels.tsv").unlink()
    with pytest.raises(DatasetFormatError, match="labels.tsv"):
        load_dataset(root)


def test_row_normalize_flag(tmp_path):
    root = write_dataset(
        tmp_path / "norm",
        edges=[(0, 1)],
        features=[[2.0, 2.0], [0.0, 0.0]],
        labels=[0, 1],
    )
    g = load_dataset(root, row_normalize=True)
    np.testing.assert_allclose(g.features[0], [0.5, 0.5])
    np.testing.assert_allclose(g.features[1], [0.0, 0.0])  # zero row untouched


def test_row_normalize_scales_a_row_whose_mass_overflows(tmp_path):
    root = write_dataset(
        tmp_path / "huge",
        edges=[(0, 1)],
        features=[[1e308, 1e308], [-1e308, 3e307]],
        labels=[0, 1],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = load_dataset(root, row_normalize=True)
    assert g.features[0].tolist() == [0.5, 0.5]
    # no overflow there: the row keeps the plain division by its mass
    mass = 1e308 + 3e307
    assert g.features[1].tolist() == [-1e308 / mass, 3e307 / mass]


def test_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    n = 17
    edges = {(int(a), int(b)) for a, b in rng.integers(0, n, (40, 2)) if a < b}
    random = rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-8, 8, (n, 5))
    labels = rng.integers(0, 3, n)
    whole = np.tile([0.0, -0.0, 3.0, -3.0, 2.0**53, 2.0**53 + 2, 1e22, 1e300], (n, 1))
    for features in (random, whole):
        root = write_dataset(tmp_path / f"rt{features.shape[1]}", edges=sorted(edges),
                             features=features, labels=labels, meta={"n_classes": 3})
        g = load_dataset(root)
        out = tmp_path / f"rt{features.shape[1]}-saved"
        save_dataset(out, g)
        g2 = load_dataset(out)
        assert g2.n_nodes == g.n_nodes and g2.n_classes == g.n_classes
        np.testing.assert_array_equal(g2.labels, g.labels)
        # bit-exact floats, the sign of zero included
        assert np.array_equal(g2.features.view(np.uint64), g.features.view(np.uint64))
        assert np.array_equal(g.features.view(np.uint64), features.view(np.uint64))
        np.testing.assert_array_equal(
            self_free_undirected_edges(g2), self_free_undirected_edges(g)
        )
    # integer tokens only for whole values below 1e16 with the sign bit
    # clear; repr keeps -0.0, the negatives and the exponent forms
    first = (out / "features.tsv").read_text(encoding="utf-8").split("\n")[0]
    assert first.split("\t") == ["0", "-0.0", "3", "-3.0", "9007199254740992",
                                  "9007199254740994", "1e+22", "1e+300"]


def _lexsorted_arcs(u, v, n):
    """The former arc order: both directions of edges listed once, sorted by
    np.lexsort on (dst, src), with offsets from a bincount of the sorted
    destinations."""
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.lexsort((src, dst))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst[order], minlength=n), out=indptr[1:])
    return src[order], indptr


@pytest.mark.parametrize("order", ["shuffled", "csr", "repeated"])
@pytest.mark.parametrize("n, n_edges, seed", [(1, 0, 0), (7, 0, 1), (9, 5, 2),
                                              (60, 300, 3), (500, 400, 4)])
def test_arcs_by_destination_match_lexsort(order, n, n_edges, seed):
    # n=500 with 400 edges leaves many nodes isolated
    rng = np.random.default_rng(seed)
    pairs = {tuple(sorted(rng.choice(n, 2, replace=False)))
             for _ in range(n_edges)} if n > 1 else set()
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    ref_src, ref_indptr = _lexsorted_arcs(edges[:, 0], edges[:, 1], n)
    if order != "csr":
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip][:, ::-1]
        rng.shuffle(edges)
    if order == "repeated":
        # about half the edges listed again as given, and again reversed
        again = edges[rng.random(len(edges)) < 0.5]
        edges = np.concatenate([edges, again, again[:, ::-1]])
        rng.shuffle(edges)
    src, indptr = _arcs_by_destination(edges[:, 0], edges[:, 1], n)
    for got, want in ((src, ref_src), (indptr, ref_indptr)):
        assert got.dtype == arc_index_dtype(n, len(src))
        assert np.array_equal(got, want)


def test_int32_endpoints_whose_keys_pass_int32_match_the_int64_reference():
    # N^2 = 4.9e9 > 2^31: an int32 product dst * N + src would wrap
    n = 70_000
    rng = np.random.default_rng(0)
    edges = rng.integers(0, n, size=(5000, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    edges = np.concatenate([edges, [[n - 1, n - 2], [0, n - 1], [n - 2, n - 1]]])
    edges32 = edges.astype(np.int32)
    src, indptr = _arcs_by_destination(edges32[:, 0], edges32[:, 1], n)
    assert src.dtype == arc_index_dtype(n, len(src))
    # the reference collapses the one repeated pair as the keys do
    pairs = np.unique(np.sort(edges, axis=1), axis=0)
    ref_src, ref_indptr = _lexsorted_arcs(pairs[:, 0], pairs[:, 1], n)
    assert np.array_equal(src, ref_src)
    assert np.array_equal(indptr, ref_indptr)
    labels = np.zeros(n, dtype=np.int64)
    g32 = build_graph(n, edges32, np.zeros((n, 1)), labels, 1)
    g64 = build_graph(n, edges, np.zeros((n, 1)), labels, 1)
    assert np.array_equal(g32.arc_src, g64.arc_src)
    assert np.array_equal(g32.indptr, g64.indptr)


@pytest.mark.parametrize("edges", [[[0.0, 1.7], [1.2, 2.9]], [[0, 1], [1, 2.5]],
                                   [[0.0, float("nan")]]])
def test_build_graph_rejects_endpoints_that_are_not_whole_numbers(edges):
    with pytest.raises(ValueError, match="undirected_edges: endpoint"):
        build_graph(3, edges, np.zeros((3, 1)), [0, 0, 0], 1)


@pytest.mark.parametrize("edges", [[], [[0.0, 1.0], [2.0, 1.0]], [[0, 1], [1, 2]]])
def test_build_graph_takes_whole_endpoints_of_any_dtype(edges):
    g = build_graph(3, edges, np.zeros((3, 1)), [0, 0, 0], 1)
    assert g.arc_src.dtype == arc_index_dtype(3, g.n_arcs)
    assert g.n_edges == len(edges)


def _large_graph():
    """A graph on N = 70,000 nodes (N^2 > 2^31, so an int32 key or product
    dst * N + src would wrap) with edges among the highest ids, its int64
    endpoints and its labels."""
    n = 70_000
    rng = np.random.default_rng(7)
    edges = rng.integers(0, n, size=(4000, 2))
    edges = np.concatenate([edges, rng.integers(n - 50, n, size=(400, 2)),
                            [[n - 1, n - 2], [0, n - 1]]])
    edges = np.unique(np.sort(edges[edges[:, 0] != edges[:, 1]], axis=1), axis=0)
    labels = rng.integers(0, 3, n)
    return build_graph(n, edges, np.zeros((n, 1)), labels, 3), edges, labels


def test_int64_keys_write_int32_sources_that_match_the_lexsort_reference():
    g, edges, _ = _large_graph()
    n = g.n_nodes
    src, indptr = _arcs_by_destination(edges[:, 0], edges[:, 1], n)
    ref_src, ref_indptr = _lexsorted_arcs(edges[:, 0], edges[:, 1], n)
    assert src.dtype == indptr.dtype == np.int32
    assert np.array_equal(src, ref_src)
    assert np.array_equal(indptr, ref_indptr)
    assert g.arc_src.dtype == g.arc_dst.dtype == g.indptr.dtype == np.int32


def test_edge_views_of_a_large_int32_graph_match_the_int64_reference():
    g, edges, labels = _large_graph()
    assert np.array_equal(self_free_undirected_edges(g), edges)
    ends = np.concatenate([edges, edges[:, ::-1]])
    want = np.mean(labels[ends[:, 0]] == labels[ends[:, 1]])
    assert edge_homophily(g) == want


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 40), p_edge=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_undirected_edges_match_the_sorted_reference(n, p_edge, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v) if rng.random() < 0.5 else (v, u)
             for u in range(n) for v in range(u + 1, n) if rng.random() < p_edge]
    rng.shuffle(edges)
    g = build_graph(n, edges, np.zeros((n, 1)), np.zeros(n, dtype=int), 1)
    # reference: the u < v arcs, sorted by (u, v) with lexsort
    mask = g.arc_src < g.arc_dst
    pairs = np.stack([g.arc_src[mask], g.arc_dst[mask]], axis=1)
    expected = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    assert np.array_equal(self_free_undirected_edges(g), expected)


def test_homophily_all_same_class():
    g = build_graph(3, [(0, 1), (1, 2)], np.zeros((3, 1)), [1, 1, 1], 2)
    assert edge_homophily(g) == 1.0


def test_homophily_hand_example():
    # one same-label edge out of two
    g = build_graph(3, [(0, 1), (1, 2)], np.zeros((3, 1)), [0, 0, 1], 2)
    assert edge_homophily(g) == pytest.approx(0.5)


@settings(max_examples=25, deadline=None)
@given(perm=st.permutations(range(8)))
def test_homophily_invariant_under_relabeling(perm):
    rng = np.random.default_rng(4)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7), (2, 6)]
    labels = rng.integers(0, 3, 8)
    g = build_graph(8, edges, np.zeros((8, 1)), labels, 3)
    perm = np.array(perm)
    # relabel node ids by perm: edge (u,v) -> (perm[u], perm[v])
    edges2 = [(perm[u], perm[v]) for u, v in edges]
    labels2 = np.empty(8, dtype=int)
    labels2[perm] = labels
    g2 = build_graph(8, edges2, np.zeros((8, 1)), labels2, 3)
    assert edge_homophily(g) == pytest.approx(edge_homophily(g2))


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def _toy(n):
    return build_graph(n, [], np.zeros((n, 1)), np.zeros(n, dtype=int), 1)


def test_split_exact_at_round_numbers():
    s = random_split(_toy(100), seed=0)
    assert s.sizes() == (48, 32, 20)


def test_split_largest_remainder_183():
    # quotas 87.84 / 58.56 / 36.60: floors leave two seats, which go to the
    # two largest remainders (.84 train, .60 test)
    assert largest_remainder(183, (0.48, 0.32, 0.20)) == [88, 58, 37]
    s = random_split(_toy(183), seed=3)
    assert s.sizes() == (88, 58, 37)


def test_split_partitions_all_nodes():
    s = random_split(_toy(57), seed=1)
    union = np.concatenate([s.train, s.val, s.test])
    assert len(union) == 57
    assert len(np.unique(union)) == 57


def test_split_deterministic_per_seed():
    a = random_split(_toy(64), seed=9)
    b = random_split(_toy(64), seed=9)
    np.testing.assert_array_equal(a.train, b.train)
    np.testing.assert_array_equal(a.test, b.test)


def test_distinct_seeds_differ():
    splits = [random_split(_toy(183), seed=s) for s in range(10)]
    trains = {tuple(s.train.tolist()) for s in splits}
    assert len(trains) == 10


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 2000))
def test_split_sizes_near_quotas(n):
    sizes = largest_remainder(n, (0.48, 0.32, 0.20))
    assert sum(sizes) == n
    for s, f in zip(sizes, (0.48, 0.32, 0.20)):
        assert abs(s - n * f) < 1.0
