"""Behavioural tests for the chunked-attention model.

Oracles: zeroed mixing weights force uniform score rows, a cold softmax
approaches the argmax indicator, and label-driven one-hot scores must make
the aggregation step reproduce the label-partition reference pooling from
``heterognn.multiset``. Gradients of the full loss are checked entry by
entry against central differences.
"""

import json
import pickle
from dataclasses import asdict
import time
import tracemalloc
import types
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from heterognn import autodiff as ad
from heterognn import graphs
from heterognn import model as m2m
from heterognn.graphs import build_graph, random_split, self_free_undirected_edges
from heterognn.model import (
    ForwardResult,
    M2mConfig,
    encode,
    forward,
    init_params,
    load_checkpoint,
    one_hot_arc_scores,
    save_checkpoint,
    total_loss,
)
from heterognn.multiset import one_hop_desirable_m2m
from heterognn.training import train


def random_graph(seed=0, n=10, f=4, n_classes=2, p_edge=0.45):
    rng = np.random.default_rng(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p_edge
    ]
    if not edges:
        edges = [(0, 1)]
    features = rng.normal(size=(n, f))
    labels = rng.integers(0, n_classes, size=n)
    return build_graph(n, edges, features, labels, n_classes)


def arcs_of(g):
    """The graph's arc index as the tape reads it."""
    return ad.Arcs(g.arc_src, g.indptr, g.n_nodes)


def tiny_config(**overrides):
    base = dict(hidden=8, chunks=2, layers=2, alpha=0.4, beta=0.6,
                temperature=0.7, seed=3)
    base.update(overrides)
    return M2mConfig(**base)


# ---- configuration and parameters -------------------------------------------


@pytest.mark.parametrize("overrides", [
    {"hidden": 7},
    {"hidden": 0},
    {"layers": 0},
    {"chunks": 0},
    {"alpha": 0.0},
    {"alpha": 1.0},
    {"beta": -0.1},
    {"beta": 1.5},
    {"temperature": 0.0},
    {"reg_strength": -1.0},
    {"keep_prob": 0.0},
    {"keep_prob": 1.2},
])
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        tiny_config(**overrides)


def test_config_widths():
    cfg = tiny_config(hidden=12, chunks=3)
    assert cfg.chunk_width == 4


def test_param_shapes_and_order():
    cfg = tiny_config(hidden=8, chunks=2, layers=3)
    params = init_params(cfg, n_features=5, n_classes=4)
    shapes = {name: t.data.shape for name, t in params.named()}
    assert shapes["enc_in"] == (5, 8)
    assert shapes["enc_out"] == (8, 8)
    for k in range(3):
        assert shapes[f"layer{k}.proj"] == (8, 4)
        assert shapes[f"layer{k}.att"] == (4, 2)
        assert shapes[f"layer{k}.gain"] == (1, 8)
        assert shapes[f"layer{k}.bias"] == (1, 8)
    assert shapes["head"] == (8, 4)
    names = [name for name, _ in params.named()]
    assert names[0] == "enc_in" and names[-1] == "head"
    assert len(names) == len(set(names)) == 2 + 4 * 3 + 1
    assert all(t.requires_grad for t in params.tensors())
    for k in range(3):
        assert np.all(params.ln_gain[k].data == 1.0)
        assert np.all(params.ln_bias[k].data == 0.0)


def test_init_is_reproducible_per_seed():
    a = init_params(tiny_config(seed=11), 4, 3)
    b = init_params(tiny_config(seed=11), 4, 3)
    c = init_params(tiny_config(seed=12), 4, 3)
    for (_, ta), (_, tb) in zip(a.named(), b.named()):
        assert np.array_equal(ta.data, tb.data)
    assert not np.array_equal(a.enc_in.data, c.enc_in.data)


def test_zero_encoder_weights_give_zero_embeddings():
    cfg = tiny_config()
    g = random_graph(seed=1)
    params = init_params(cfg, g.n_features, g.n_classes)
    params.enc_in.data[:] = 0.0
    tape = ad.Tape()
    h0 = encode(tape, params, g.features, cfg)
    assert np.all(h0.data == 0.0)


# ---- attention ---------------------------------------------------------------


def test_zero_mixing_weights_give_uniform_scores():
    g = random_graph(seed=2, n=12, f=3, n_classes=3)
    cfg = tiny_config(hidden=12, chunks=3, layers=1)
    params = init_params(cfg, g.n_features, g.n_classes)
    params.layer_att[0].data[:] = 0.0
    tape = ad.Tape()
    h0 = encode(tape, params, g.features, cfg)
    h_hat = tape.project(h0, params.layer_proj[0], 1.0, None)
    scores = tape.arc_attention(h_hat, params.layer_att[0], arcs_of(g),
                                cfg.alpha, cfg.temperature)
    np.testing.assert_allclose(scores.data, 1.0 / 3.0, rtol=0, atol=1e-15)


def test_low_temperature_sharpens_scores():
    rng = np.random.default_rng(7)
    g = random_graph(seed=3, n=9, f=3)
    h_hat = ad.constant(np.abs(rng.normal(size=(9, 4))) + 0.1)
    w_att = ad.constant(rng.normal(size=(4, 3)))
    tape = ad.Tape()
    warm = tape.arc_attention(h_hat, w_att, arcs_of(g), 0.5, 1.0).data
    cold = tape.arc_attention(h_hat, w_att, arcs_of(g), 0.5, 0.02).data
    assert np.array_equal(np.argmax(warm, axis=1), np.argmax(cold, axis=1))
    assert np.all(cold.max(axis=1) >= warm.max(axis=1) - 1e-12)
    assert np.all(cold.max(axis=1) > 0.95)


def test_equal_blend_scores_arc_pairs_equally():
    # with the ego weighted like the source, swapping the arc direction
    # leaves the pre-activation (and hence the score row) unchanged
    g = random_graph(seed=4, n=8, f=3)
    rng = np.random.default_rng(0)
    h_hat = ad.constant(rng.normal(size=(8, 4)))
    w_att = ad.constant(rng.normal(size=(4, 2)))
    tape = ad.Tape()
    scores = tape.arc_attention(h_hat, w_att, arcs_of(g), alpha=1.0,
                                temperature=0.7).data
    for a in range(g.n_arcs):
        i, j = g.arc_src[a], g.arc_dst[a]
        rev = np.flatnonzero((g.arc_src == j) & (g.arc_dst == i))[0]
        np.testing.assert_allclose(scores[a], scores[rev], atol=1e-12)


def test_one_forward_builds_one_chunk_pattern_and_one_endpoint_matrix(monkeypatch):
    # every layer's chunk sums, forward and backward, and every
    # arc_attention backward get the very operators the first layer's call
    # built: the chunk pair three times a layer (the forward's product, the
    # backward's rebuild of it and x's gradient), the endpoint matrix once
    built = []

    class CountingArcs(ad.Arcs):
        def __init__(self, *args):
            super().__init__(*args)
            self.handed = {"chunks": [], "ends": []}
            built.append(self)

        def chunk_matrices(self, c):
            self.handed["chunks"].append(super().chunk_matrices(c))
            return self.handed["chunks"][-1]

        def endpoint_matrix(self, alpha):
            self.handed["ends"].append(super().endpoint_matrix(alpha))
            return self.handed["ends"][-1]

    monkeypatch.setattr(ad, "Arcs", CountingArcs)
    g = random_graph(seed=13, n=16, f=3)
    cfg = tiny_config(layers=8, reg_strength=0.3)
    params = init_params(cfg, g.n_features, g.n_classes)
    tape = ad.Tape()
    result = forward(tape, params, g, cfg, True, np.random.default_rng(0))
    tape.backward(total_loss(tape, result, g.labels, np.arange(g.n_nodes), cfg))
    (arcs,) = built
    assert len(arcs.handed["chunks"]) == 3 * 8 and len(arcs.handed["ends"]) == 8
    for handed in arcs.handed.values():
        assert all(op is handed[0] for op in handed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_score_rows_form_a_simplex(seed):
    g = random_graph(seed=seed, n=11, f=5, n_classes=3)
    cfg = tiny_config(hidden=9, chunks=3, layers=2, seed=seed)
    params = init_params(cfg, g.n_features, g.n_classes)
    tape = ad.Tape()
    result = forward(tape, params, g, cfg)
    for scores in result.attentions:
        assert scores.data.shape == (g.n_arcs, 3)
        assert np.all(scores.data >= -1e-12)
        np.testing.assert_allclose(scores.data.sum(axis=1), 1.0, atol=1e-10)


# ---- aggregation -------------------------------------------------------------


def test_single_chunk_reduces_to_plain_neighbor_sum():
    g = random_graph(seed=5, n=10, f=4)
    cfg = tiny_config(hidden=6, chunks=1, layers=1)
    params = init_params(cfg, g.n_features, g.n_classes)
    scores = forward(ad.Tape(), params, g, cfg).attentions[0]
    assert np.all(scores.data == 1.0)
    h_hat = encode(ad.Tape(), params, g.features, cfg).data @ params.layer_proj[0].data
    message = arcs_of(g).chunk_sums(scores.data, h_hat)
    expected = np.zeros((g.n_nodes, 6))
    np.add.at(expected, g.arc_dst, h_hat[g.arc_src])
    np.testing.assert_allclose(message, expected, atol=1e-12)


def test_one_hot_scores_route_mass_to_matching_block():
    g = random_graph(seed=6, n=7, f=3)
    rng = np.random.default_rng(1)
    h_hat = rng.normal(size=(7, 3))
    scores = np.zeros((g.n_arcs, 2))
    scores[:, 1] = 1.0
    message = arcs_of(g).chunk_sums(scores, h_hat)
    assert np.all(message[:, :3] == 0.0)
    expected = np.zeros((7, 3))
    np.add.at(expected, g.arc_dst, h_hat[g.arc_src])
    np.testing.assert_allclose(message[:, 3:], expected, atol=1e-12)


def test_arc_order_within_a_node_does_not_change_forward():
    # Graph enforces (dst, src) arc order, so a node's in-arcs are reordered
    # by renaming the nodes; the logits must follow the renaming
    g = random_graph(seed=7, n=12, f=4, n_classes=3, p_edge=0.5)
    new_id = np.random.default_rng(2).permutation(g.n_nodes)
    old_id = np.argsort(new_id)
    edges = self_free_undirected_edges(g)
    renamed = build_graph(g.n_nodes, new_id[edges], g.features[old_id],
                          g.labels[old_id], g.n_classes)
    assert any(not np.array_equal(old_id[renamed.in_neighbors(new_id[i])],
                                  g.in_neighbors(i)) for i in range(g.n_nodes))
    cfg = tiny_config(hidden=9, chunks=3, layers=2)
    params = init_params(cfg, g.n_features, g.n_classes)
    a = forward(ad.Tape(), params, g, cfg).logits.data
    b = forward(ad.Tape(), params, renamed, cfg).logits.data
    np.testing.assert_allclose(a, b[new_id], atol=1e-12)


def test_beta_zero_makes_output_graph_independent():
    dense = random_graph(seed=8, n=10, f=4, p_edge=0.6)
    sparse = build_graph(10, [(0, 1)], dense.features, dense.labels, 2)
    cfg = tiny_config(beta=0.0)
    params = init_params(cfg, dense.n_features, dense.n_classes)
    a = forward(ad.Tape(), params, dense, cfg).logits.data
    b = forward(ad.Tape(), params, sparse, cfg).logits.data
    assert np.array_equal(a, b)


def test_beta_one_silences_isolated_nodes():
    # full weight on the message leaves an arcless node at the LayerNorm
    # shift, which starts at zero; any residual weight revives it
    edges = [(0, 1), (1, 2), (0, 2)]
    rng = np.random.default_rng(3)
    g = build_graph(4, edges, rng.normal(size=(4, 3)), [0, 1, 0, 1], 2)
    params = init_params(tiny_config(beta=1.0), 3, 2)
    dark = forward(ad.Tape(), params, g, tiny_config(beta=1.0)).logits.data
    assert np.all(dark[3] == 0.0)
    assert np.any(dark[:3] != 0.0)
    lit = forward(ad.Tape(), params, g, tiny_config(beta=0.5)).logits.data
    assert np.any(lit[3] != 0.0)


def test_label_oracle_scores_reproduce_reference_aggregation():
    g = random_graph(seed=9, n=14, f=5, n_classes=3, p_edge=0.4)
    cfg = tiny_config(hidden=9, chunks=3, layers=1)
    params = init_params(cfg, g.n_features, g.n_classes)
    oracle = one_hot_arc_scores(g, g.labels, 3)
    h0 = encode(ad.Tape(), params, g.features, cfg).data
    h_hat = h0 @ params.layer_proj[0].data
    message = arcs_of(g).chunk_sums(oracle, h_hat)
    reference = one_hop_desirable_m2m(h_hat, g, g.labels, mode="sum")
    np.testing.assert_allclose(message, reference, atol=1e-9)


# ---- regularizer -------------------------------------------------------------


def test_reg_loss_reference_values():
    n_arcs, chunks = 10, 4
    uniform = np.full((n_arcs, chunks), 1.0 / chunks)
    collapsed = np.zeros((n_arcs, chunks))
    collapsed[:, 2] = 1.0
    tape = ad.Tape()

    def value(scores):
        layers = [ad.constant(scores), ad.constant(scores)]
        return float(tape.chunk_balance(layers, 1.0).data[0, 0])

    # 0 at uniform scores, sqrt(C) - 1 at collapse, at any number of arcs
    root = np.sqrt(chunks)
    for arcs in (n_arcs, 100 * n_arcs):
        np.testing.assert_allclose(value(uniform[:1].repeat(arcs, 0)), 0.0,
                                   atol=1e-12)
        np.testing.assert_allclose(value(collapsed[:1].repeat(arcs, 0)),
                                   root - 1.0, rtol=1e-12)
    assert value(uniform) < value(collapsed)


def test_reg_loss_rejects_bad_input():
    tape = ad.Tape()
    with pytest.raises(ValueError, match="at least one layer"):
        tape.chunk_balance([], 1.0)
    with pytest.raises(ValueError, match=r"scores\[1\] has 0 rows"):
        tape.chunk_balance([ad.constant(np.ones((3, 2))), ad.constant(np.ones((0, 2)))],
                           1.0)
    with pytest.raises(ValueError, match=r"scores\[0\] has \|\|m\|\| = 0"):
        tape.chunk_balance([ad.constant(np.array([[1.0, -2.0], [-1.0, 2.0]]))], 1.0)


def test_total_loss_adds_weighted_regularizer():
    g = random_graph(seed=10, n=9, f=4)
    plain_cfg = tiny_config(reg_strength=0.0)
    reg_cfg = tiny_config(reg_strength=0.7)
    params = init_params(plain_cfg, g.n_features, g.n_classes)
    mask = np.arange(g.n_nodes)

    tape = ad.Tape()
    result = forward(tape, params, g, plain_cfg)
    ce = total_loss(tape, result, g.labels, mask, plain_cfg)
    reg = tape.chunk_balance(result.attentions, 1.0)
    combined = total_loss(tape, result, g.labels, mask, reg_cfg)
    np.testing.assert_allclose(
        combined.data[0, 0],
        ce.data[0, 0] + 0.7 * reg.data[0, 0],
        rtol=1e-12,
    )


def test_total_loss_rejects_empty_mask():
    g = random_graph(seed=11)
    cfg = tiny_config()
    params = init_params(cfg, g.n_features, g.n_classes)
    tape = ad.Tape()
    result = forward(tape, params, g, cfg)
    with pytest.raises(ValueError):
        total_loss(tape, result, g.labels, np.array([], dtype=int), cfg)


# ---- gradients and training --------------------------------------------------


def test_finite_differences_match_end_to_end_gradients():
    g = random_graph(seed=12, n=8, f=3, n_classes=2, p_edge=0.5)
    cfg = tiny_config(hidden=6, chunks=2, layers=2, alpha=0.45, beta=0.6,
                      temperature=0.8, reg_strength=0.3, seed=5)
    params = init_params(cfg, g.n_features, g.n_classes)
    mask = np.arange(g.n_nodes)

    def loss_value():
        tape = ad.Tape()
        result = forward(tape, params, g, cfg)
        return float(total_loss(tape, result, g.labels, mask, cfg).data[0, 0])

    tape = ad.Tape()
    result = forward(tape, params, g, cfg)
    loss = total_loss(tape, result, g.labels, mask, cfg)
    tape.backward(loss)

    step = 1e-6
    for name, tensor in params.named():
        analytic = tensor.grad
        assert analytic is not None, name
        it = np.nditer(tensor.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = tensor.data[idx]
            tensor.data[idx] = keep + step
            up = loss_value()
            tensor.data[idx] = keep - step
            down = loss_value()
            tensor.data[idx] = keep
            fd = (up - down) / (2 * step)
            an = analytic[idx]
            err = abs(fd - an) / max(1.0, abs(fd), abs(an))
            assert err < 1e-3, f"{name}{idx}: fd={fd} analytic={an}"


def test_training_reduces_loss_on_separable_toy():
    rng = np.random.default_rng(13)
    n = 40
    labels = np.arange(n) % 2
    features = rng.normal(scale=0.3, size=(n, 4))
    features[:, 0] += np.where(labels == 0, 1.0, -1.0)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < (0.15 if labels[i] == labels[j] else 0.05)
    ]
    g = build_graph(n, edges, features, labels, 2)
    cfg = tiny_config(hidden=8, chunks=2, layers=2, seed=0)
    params = init_params(cfg, g.n_features, g.n_classes)
    adam = ad.AdamState(params.tensors(), lr=0.02)
    mask = np.arange(n)
    losses = []
    for _ in range(50):
        adam.zero_grad()
        tape = ad.Tape()
        result = forward(tape, params, g, cfg)
        loss = total_loss(tape, result, g.labels, mask, cfg)
        tape.backward(loss)
        adam.step()
        losses.append(float(loss.data[0, 0]))
    assert losses[-1] < losses[0]
    assert losses[-1] < 0.9 * losses[0]


def test_eval_forward_is_deterministic_and_dropout_is_not():
    g = random_graph(seed=14)
    cfg = tiny_config(keep_prob=0.6)
    params = init_params(cfg, g.n_features, g.n_classes)
    a = forward(ad.Tape(), params, g, cfg).logits.data
    b = forward(ad.Tape(), params, g, cfg).logits.data
    assert np.array_equal(a, b)
    t1 = forward(ad.Tape(), params, g, cfg, training=True,
                 rng=np.random.default_rng(0)).logits.data
    t2 = forward(ad.Tape(), params, g, cfg, training=True,
                 rng=np.random.default_rng(1)).logits.data
    assert not np.array_equal(t1, t2)


def test_training_layer_records_two_tape_nodes():
    # the scores, and the chunk sums and residual LayerNorm fused with the
    # next layer's dropout and projection. Beside the layers, the encoder
    # records three nodes (const_matmul, relu, project) and layer 0's input
    # projection one; the loss adds the cross-entropy, the weighted
    # chunk-balance penalty and their sum, whatever the depth
    g = random_graph(seed=16)
    counts, with_loss = [], []
    for layers in (2, 3):
        cfg = tiny_config(keep_prob=0.6, layers=layers, reg_strength=0.5)
        tape = ad.Tape()
        result = forward(tape, init_params(cfg, g.n_features, g.n_classes), g,
                         cfg, training=True, rng=np.random.default_rng(0))
        counts.append(len(tape._nodes))
        total_loss(tape, result, g.labels, np.arange(g.n_nodes), cfg)
        with_loss.append(len(tape._nodes))
    assert counts == [8, 10]
    assert with_loss == [11, 13]


def test_layer_records_hold_one_node_by_hidden_float_array_h0():
    # a layer's records rebuild their LayerNorm rows and messages, so the
    # only (n, hidden) float array they hold is the encoder output h0, one
    # array that every layer's update shares. Of the other records only
    # the two projections hold one, their input, not its dropped-out copy:
    # the encoder's holds its ReLU output, and layer 0's holds h0 itself
    g = random_graph(seed=18, n=12, f=5, n_classes=3)
    cfg = tiny_config(hidden=10, chunks=2, layers=3, keep_prob=0.6, reg_strength=0.5)
    params = init_params(cfg, g.n_features, g.n_classes)
    tape = ad.Tape()
    result = forward(tape, params, g, cfg, training=True,
                     rng=np.random.default_rng(0))
    total_loss(tape, result, g.labels, np.arange(g.n_nodes), cfg)

    def node_arrays(value, seen, found):
        """The float (n, hidden) arrays value holds, by id."""
        if isinstance(value, np.ndarray):
            if value.dtype == np.float64 and value.shape == (g.n_nodes, cfg.hidden):
                found[id(value)] = value
        elif isinstance(value, (tuple, list)):
            for v in value:
                node_arrays(v, seen, found)
        elif isinstance(value, types.FunctionType) and value not in seen:
            seen.add(value)
            for cell in value.__closure__ or ():
                node_arrays(cell.cell_contents, seen, found)
        return found

    held = {}
    for _, back in tape._nodes:
        held.setdefault(back.__qualname__, []).append(node_arrays(back, set(), {}))
    updates = held.pop("Tape.aggregate_update.<locals>.back")
    assert len(updates) == cfg.layers
    (h0,) = updates[0].values()
    assert all(list(found) == [id(h0)] for found in updates)
    h0_again = encode(ad.Tape(), params, g.encoder_operand, cfg, True,
                      np.random.default_rng(0))
    assert np.array_equal(h0, h0_again.data)
    encoder, layer0 = held.pop("Tape.project.<locals>.back")
    assert list(layer0) == [id(h0)]
    (relu_out,) = encoder.values()
    assert np.array_equal(relu_out,
                          np.maximum(g.encoder_operand @ params.enc_in.data, 0.0))
    assert not any(found for records in held.values() for found in records)


# ---- bag-of-words features ---------------------------------------------------


def bag_of_words_graph(seed=0, n=30, f=200, density=0.02, n_classes=3):
    """Binary word rows with at least one word per node, L1-normalized as
    --row-normalize does, about 2.5% nonzero: below the encoder's 5% cut."""
    rng = np.random.default_rng(seed)
    words = rng.random((n, f)) < density
    words[np.arange(n), rng.integers(0, f, n)] = True
    features = words / words.sum(axis=1, keepdims=True)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.15]
    return build_graph(n, edges, features, rng.integers(0, n_classes, n),
                       n_classes)


BAG_CONFIG = dict(keep_prob=0.7, reg_strength=0.3)


def logits_and_gradients(g, cfg):
    """One training forward, dropout on, and its backward: the logits and
    every parameter's gradient by name."""
    params = init_params(cfg, g.n_features, g.n_classes)
    tape = ad.Tape()
    result = forward(tape, params, g, cfg, training=True,
                     rng=np.random.default_rng(4))
    tape.backward(total_loss(tape, result, g.labels, np.arange(g.n_nodes), cfg))
    return result.logits.data, {name: t.grad for name, t in params.named()}


def test_encoder_operand_is_csr_up_to_five_percent_nonzero():
    features = np.zeros((10, 20))
    features.flat[::20] = 1.0  # 10 of 200 entries
    at_cut = build_graph(10, [(0, 1)], features.copy(), np.zeros(10), 1)
    features[0, 1] = 1.0
    above = build_graph(10, [(0, 1)], features, np.zeros(10), 1)
    assert sp.isspmatrix_csr(at_cut.encoder_operand)
    assert at_cut.encoder_operand.nnz == 10
    assert np.array_equal(at_cut.encoder_operand.toarray(), at_cut.features)
    assert above.encoder_operand is above.features  # no copy of dense features


def test_bag_of_words_logits_and_gradients_match_the_dense_product(monkeypatch):
    cfg = tiny_config(**BAG_CONFIG)
    g = bag_of_words_graph()
    assert sp.issparse(g.encoder_operand)
    logits, grads = logits_and_gradients(g, cfg)
    monkeypatch.setattr(graphs, "SPARSE_FEATURE_DENSITY", -1.0)
    dense = bag_of_words_graph()
    assert type(dense.encoder_operand) is np.ndarray
    ref_logits, ref_grads = logits_and_gradients(dense, cfg)

    def close(got, want):
        # 1e-12 relative per entry, and 1e-12 of the largest entry for
        # entries that cancel to near zero
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    close(logits, ref_logits)
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        assert np.any(grad != 0.0), name
        close(grad, ref_grads[name])


def test_dense_features_keep_the_bits_of_a_constant_tensor_matmul(monkeypatch):
    cfg = tiny_config(**BAG_CONFIG)
    g = random_graph(seed=5)
    assert g.encoder_operand is g.features
    logits, grads = logits_and_gradients(g, cfg)

    def constant_tensor_encode(tape, params, features, config, training=False,
                               rng=None):
        h = tape.relu(tape.project(ad.constant(features), params.enc_in, 1.0, None))
        keep_prob = config.keep_prob if training else 1.0
        return tape.project(h, params.enc_out, keep_prob, rng)

    monkeypatch.setattr(m2m, "encode", constant_tensor_encode)
    ref_logits, ref_grads = logits_and_gradients(g, cfg)
    assert np.array_equal(logits.view(np.uint64), ref_logits.view(np.uint64))
    for name, grad in grads.items():
        assert np.array_equal(grad.view(np.uint64), ref_grads[name].view(np.uint64)), name


def test_training_builds_the_encoder_operand_once(monkeypatch):
    # only a CSR built from a dense array is an encoder operand; the loss's
    # bucket matrices, built from (data, (rows, cols)) each epoch, pass through
    built = []
    csr_matrix = sp.csr_matrix

    def counted(arg, *args, **kwargs):
        if isinstance(arg, np.ndarray):
            built.append(arg.shape)
        return csr_matrix(arg, *args, **kwargs)

    monkeypatch.setattr(graphs, "sp", types.SimpleNamespace(csr_matrix=counted))
    g = bag_of_words_graph()
    cfg = tiny_config(**BAG_CONFIG)
    record, params = train(g, cfg, random_split(g, seed=0), max_epochs=3,
                           patience=3)
    forward(ad.Tape(recording=False), params, g, cfg)
    assert record.n_epochs == 3
    assert built == [(30, 200)]
    assert g.encoder_operand is g.encoder_operand


def test_sparse_matrices_built_per_step_do_not_grow_with_depth(monkeypatch):
    # a tape builds each graph's chunk and endpoint matrices once, not once
    # per layer call
    g = bag_of_words_graph()
    assert sp.issparse(g.encoder_operand)  # built once per graph, before counting
    built = [0]
    for cls in (sp.csr_matrix, sp.csc_matrix):

        def counted(self, *args, _init=cls.__init__, **kwargs):
            built[0] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    counts = []
    for layers in (2, 6):
        cfg = tiny_config(layers=layers, **BAG_CONFIG)
        params = init_params(cfg, g.n_features, g.n_classes)
        built[0] = 0
        tape = ad.Tape()
        result = forward(tape, params, g, cfg, training=True,
                         rng=np.random.default_rng(4))
        tape.backward(total_loss(tape, result, g.labels, np.arange(g.n_nodes), cfg))
        forward(ad.Tape(recording=False), params, g, cfg)
        counts.append(built[0])
    assert counts[0] > 0
    assert counts[0] == counts[1]


def test_a_pickled_bag_of_words_graph_encodes_like_the_original():
    cfg = tiny_config(**BAG_CONFIG)
    g = bag_of_words_graph()
    before = pickle.loads(pickle.dumps(g))  # as `--jobs` ships it, unbuilt
    logits, _ = logits_and_gradients(g, cfg)
    after = pickle.loads(pickle.dumps(g))  # carries the built operand
    assert sp.issparse(vars(after)["encoder_operand"])
    for copy in (before, after):
        assert np.array_equal(copy.features, g.features)
        again, _ = logits_and_gradients(copy, cfg)
        assert np.array_equal(again.view(np.uint64), logits.view(np.uint64))


# ---- persistence and scaling -------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    g = random_graph(seed=15, n=9, f=4, n_classes=3)
    cfg = tiny_config(hidden=9, chunks=3, reg_strength=0.25)
    params = init_params(cfg, g.n_features, g.n_classes)
    before = forward(ad.Tape(), params, g, cfg).logits.data
    base = str(tmp_path / "model")
    save_checkpoint(base, params, cfg, g.n_features, g.n_classes,
                    extra={"note": "round trip"})
    loaded_cfg, loaded, n_feat, n_cls = load_checkpoint(base)
    assert loaded_cfg == cfg
    assert (n_feat, n_cls) == (g.n_features, g.n_classes)
    for (_, orig), (_, copy) in zip(params.named(), loaded.named()):
        assert np.array_equal(orig.data, copy.data)
    after = forward(ad.Tape(), loaded, g, loaded_cfg).logits.data
    assert np.array_equal(before, after)


def saved_checkpoint(tmp_path, **manifest_edits):
    g = random_graph(seed=16)
    cfg = tiny_config()
    params = init_params(cfg, g.n_features, g.n_classes)
    base = str(tmp_path / "model")
    save_checkpoint(base, params, cfg, g.n_features, g.n_classes)
    with open(base + ".json") as fh:
        manifest = json.load(fh)
    manifest.update(manifest_edits)
    with open(base + ".json", "w") as fh:
        json.dump(manifest, fh)
    return base, manifest


def test_checkpoint_rejects_missing_tensor(tmp_path):
    base, manifest = saved_checkpoint(tmp_path)
    manifest["arrays"][0]["name"] = "something_else"
    with open(base + ".json", "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError):
        load_checkpoint(base)


@pytest.mark.parametrize("change", ["truncate", "pad"])
def test_checkpoint_rejects_blob_of_wrong_length(tmp_path, change):
    base, _ = saved_checkpoint(tmp_path)
    with open(base + ".bin", "rb") as fh:
        raw = fh.read()
    raw = raw[:-8] if change == "truncate" else raw + bytes(8)
    with open(base + ".bin", "wb") as fh:
        fh.write(raw)
    with pytest.raises(ValueError, match=r"model\.bin: .*'arrays'"):
        load_checkpoint(base)


def test_checkpoint_rejects_non_float64_dtype(tmp_path):
    base, _ = saved_checkpoint(tmp_path, dtype="float32")
    with pytest.raises(ValueError, match=r"model\.json: field 'dtype'"):
        load_checkpoint(base)


@pytest.mark.parametrize("edit, field", [
    (lambda config: config.update(hiddn=4), "hiddn"),
    (lambda config: config.pop("chunks"), "chunks"),
], ids=["unknown", "missing"])
def test_checkpoint_rejects_unknown_or_missing_config_field(tmp_path, edit, field):
    config = asdict(tiny_config())
    edit(config)
    base, _ = saved_checkpoint(tmp_path, config=config)
    with pytest.raises(ValueError, match=rf"model\.json: field 'config': .*'{field}'"):
        load_checkpoint(base)


@pytest.mark.parametrize("key", ["config", "n_features", "n_classes", "arrays"])
def test_checkpoint_rejects_missing_top_level_field(tmp_path, key):
    base, manifest = saved_checkpoint(tmp_path)
    del manifest[key]
    with open(base + ".json", "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError, match=rf"model\.json: missing field '{key}'"):
        load_checkpoint(base)


def _shift_offset(entry, by):
    entry["offset"] += by


@pytest.mark.parametrize("edit, problem", [
    (lambda m: m["arrays"][0].update(offset=3), r"'arrays\[0\]\.offset'"),
    (lambda m: _shift_offset(m["arrays"][1], -8), r"'arrays\[1\]\.offset' .*inside"),
    (lambda m: _shift_offset(m["arrays"][-1], 8), r"model\.bin: .*'arrays'"),
    (lambda m: m["arrays"][0].update(offset="0"), r"'arrays\[0\]\.offset'"),
    (lambda m: m["arrays"][0].pop("offset"), r"'arrays\[0\]' has no 'offset'"),
    (lambda m: m["arrays"][0].update(shape=[-1, 6]), r"'arrays\[0\]\.shape'"),
    (lambda m: m["arrays"][0].update(shape=[2.5, 6]), r"'arrays\[0\]\.shape'"),
    (lambda m: m["arrays"][0].update(shape=[6, 4]), r"'arrays\[0\]\.shape'"),
    (lambda m: m["arrays"][0].update(name=7), r"'arrays\[0\]\.name'"),
    (lambda m: m["arrays"][1].update(name="enc_in"), r"'arrays\[1\]\.name' .*twice"),
    (lambda m: m["arrays"][1].update(name="enc"), r"'arrays\[1\]\.name' .*not a"),
    (lambda m: m["arrays"].__setitem__(0, "enc_in"), r"'arrays\[0\]' must be"),
    (lambda m: m.update(arrays=5), r"'arrays' must be a list"),
    (lambda m: m.update(n_features="abc"), r"'n_features'"),
    (lambda m: m.update(n_features=True), r"'n_features'"),
    (lambda m: m.update(n_classes=0), r"'n_classes'"),
    (lambda m: m["config"].update(hidden=4.0), r"'config': hidden must be an integer"),
    (lambda m: m["config"].update(temperature="0.5"), r"'config': temperature"),
    (lambda m: m["config"].update(reg_strength=float("nan")), r"'config': reg_strength"),
], ids=["misaligned-offset", "overlapping-offset", "offset-past-the-blob",
        "string-offset", "missing-offset", "negative-shape", "float-shape",
        "wrong-shape", "non-string-name", "duplicate-name", "unknown-name", "entry-not-an-object",
        "arrays-not-a-list", "string-n_features", "bool-n_features",
        "zero-n_classes", "float-hidden", "string-temperature", "nan-reg_strength"])
def test_checkpoint_rejects_each_malformed_manifest_field(tmp_path, edit, problem):
    base, manifest = saved_checkpoint(tmp_path)
    edit(manifest)
    with open(base + ".json", "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError, match=problem) as err:
        load_checkpoint(base)
    assert "model." in str(err.value)


def test_checkpoint_rejects_a_manifest_that_is_not_a_json_object(tmp_path):
    base, _ = saved_checkpoint(tmp_path)
    for text in ("[1, 2]", "{not json"):
        with open(base + ".json", "w") as fh:
            fh.write(text)
        with pytest.raises(ValueError, match=r"model\.json: not"):
            load_checkpoint(base)


def test_doubling_arcs_stays_within_linear_budget():
    rng = np.random.default_rng(17)
    n, base_edges = 300, 2000
    features = rng.normal(size=(n, 8))
    labels = rng.integers(0, 2, size=n)

    def timed_forward(n_edges):
        seen = set()
        while len(seen) < n_edges:
            i, j = rng.integers(0, n, size=2)
            if i != j:
                seen.add((min(i, j), max(i, j)))
        g = build_graph(n, sorted(seen), features, labels, 2)
        cfg = M2mConfig(hidden=32, chunks=4, layers=1, seed=0)
        params = init_params(cfg, g.n_features, g.n_classes)
        forward(ad.Tape(), params, g, cfg)  # warm caches
        best = np.inf
        for _ in range(5):
            start = time.perf_counter()
            forward(ad.Tape(), params, g, cfg)
            best = min(best, time.perf_counter() - start)
        return best

    small = timed_forward(base_edges)
    large = timed_forward(2 * base_edges)
    assert large <= 3.0 * small, (small, large)


def random_simple_graph(seed, n, n_edges, n_features, n_classes):
    """n_edges distinct undirected edges drawn uniformly, Gaussian features
    and uniform labels, all from one seeded stream."""
    rng = np.random.default_rng(seed)
    seen = set()
    while len(seen) < n_edges:
        i, j = rng.integers(0, n, size=2)
        if i != j:
            seen.add((min(i, j), max(i, j)))
    return build_graph(n, sorted(seen), rng.normal(size=(n, n_features)),
                       rng.integers(0, n_classes, size=n), n_classes)


def held_bytes_per_arc_layer(shallow, deep):
    """Traced bytes a training tape holds once forward and total_loss have
    run, per arc and per layer, as (held(deep) - held(shallow)) over the
    added layers, on a 400-node, 4000-edge graph with hidden 80, 5 chunks
    and keep_prob 0.5."""
    g = random_simple_graph(18, 400, 4000, 16, 3)
    train_ids = np.arange(0, g.n_nodes, 2)

    def held_bytes(layers):
        cfg = M2mConfig(hidden=80, chunks=5, layers=layers, keep_prob=0.5,
                        reg_strength=0.5, seed=0)
        params = init_params(cfg, g.n_features, g.n_classes)
        tracemalloc.start()
        try:
            tape = ad.Tape()
            result = forward(tape, params, g, cfg, training=True,
                             rng=np.random.default_rng(0))
            loss = total_loss(tape, result, g.labels, train_ids, cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss.item())
        return held

    return (held_bytes(deep) - held_bytes(shallow)) / ((deep - shallow) * g.n_arcs)


def test_training_layer_retains_at_most_52_bytes_per_arc():
    # the records keep the scores and node-sized arrays, with no (arcs, w)
    # array, no CSR copy, no float dropout mask and no input of a
    # projection. Of node-sized arrays a layer keeps only the projection,
    # its dropout mask at one bit per entry and the LayerNorm's row means
    # and 1/std: the update's backward rebuilds the message, the
    # LayerNorm's rows and ReLU mask, and the next projection's input from
    # the scores, the projection and h0, which all layers share (48.8
    # here; 80.9 while the LayerNorm's rows and ReLU mask were kept)
    per_arc_layer = held_bytes_per_arc_layer(2, 6)
    assert per_arc_layer <= 52, per_arc_layer


def backward_transient_bytes(layers):
    """Traced peak during a training tape's backward minus the bytes traced
    just before it, on a 600-node, 3000-edge graph (6000 arcs) with 40
    features, 5 classes, hidden 80, 5 chunks, keep_prob 0.5 and the
    chunk-balance penalty at 0.5."""
    g = random_simple_graph(31, 600, 3000, 40, 5)
    cfg = M2mConfig(hidden=80, chunks=5, layers=layers, keep_prob=0.5,
                    reg_strength=0.5, seed=0)
    params = init_params(cfg, g.n_features, g.n_classes)
    tracemalloc.start()
    try:
        tape = ad.Tape()
        result = forward(tape, params, g, cfg, training=True,
                         rng=np.random.default_rng(0))
        loss = total_loss(tape, result, g.labels, np.arange(0, g.n_nodes, 2), cfg)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in params.tensors())
    return peak - before, g.n_arcs


def test_backward_transient_does_not_grow_with_depth():
    # a pending gradient of the scores stays a broadcast view until its
    # layer's record runs, so the chunk-balance penalty's K gradients are
    # not K (arcs, C) copies alive at once; six more layers may add less
    # than one such array
    shallow, arcs = backward_transient_bytes(2)
    deep, _ = backward_transient_bytes(8)
    assert arcs == 6000
    assert deep - shallow < arcs * 5 * 8, (shallow, deep)


def test_outputs_no_backward_reads_are_freed_before_backward(monkeypatch):
    # each layer's message, the chunk product's own array, dies inside its
    # op, since the backward rebuilds it; the gradients through those
    # rebuilds match central differences
    g = random_graph(seed=12, n=8, f=3, n_classes=2, p_edge=0.5)
    cfg = tiny_config(hidden=6, chunks=2, layers=3, keep_prob=0.5, seed=5)
    params = init_params(cfg, g.n_features, g.n_classes)
    mask = np.arange(g.n_nodes)

    def loss_value():
        tape = ad.Tape()
        logits = forward(tape, params, g, cfg, True, np.random.default_rng(0)).logits
        return tape.cross_entropy(logits, g.labels, mask).item()

    refs, chunk_blocks = [], ad.Arcs._chunk_blocks

    def tracked(self, scores, x):
        blocks = chunk_blocks(self, scores, x)
        refs.append(weakref.ref(blocks.base))
        return blocks

    with monkeypatch.context() as patch:
        patch.setattr(ad.Arcs, "_chunk_blocks", tracked)
        tape = ad.Tape()
        logits = forward(tape, params, g, cfg, True, np.random.default_rng(0)).logits
    loss = tape.cross_entropy(logits, g.labels, mask)
    del logits
    assert len(refs) == 3
    assert all(ref() is None for ref in refs)
    tape.backward(loss)

    step = 1e-6
    for name, tensor in params.named():
        analytic = tensor.grad
        assert analytic is not None, name
        it = np.nditer(tensor.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = tensor.data[idx]
            tensor.data[idx] = keep + step
            up = loss_value()
            tensor.data[idx] = keep - step
            down = loss_value()
            tensor.data[idx] = keep
            fd = (up - down) / (2 * step)
            an = analytic[idx]
            err = abs(fd - an) / max(1.0, abs(fd), abs(an))
            assert err < 1e-3, f"{name}{idx}: fd={fd} analytic={an}"


def test_no_tape_record_holds_a_tensor():
    # a record is (gradient cell, closure); the closure, and the helpers it
    # calls, hold cells, flags and arrays, never a Tensor
    g = random_graph(seed=16)
    cfg = tiny_config(keep_prob=0.6, layers=3, reg_strength=0.5)
    params = init_params(cfg, g.n_features, g.n_classes)
    tape = ad.Tape()
    result = forward(tape, params, g, cfg, training=True,
                     rng=np.random.default_rng(0))
    total_loss(tape, result, g.labels, np.arange(g.n_nodes), cfg)

    def holds_tensor(fn, seen):
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, ad.Tensor):
                return True
            if isinstance(value, types.FunctionType) and value not in seen:
                seen.add(value)
                if holds_tensor(value, seen):
                    return True
        return False

    assert tape._nodes
    for grad_cell, back in tape._nodes:
        assert isinstance(grad_cell, list) and grad_cell == [None]
        assert not holds_tensor(back, set())


def test_no_tape_record_holds_a_boolean_mask():
    # dropout and ReLU masks are kept packed, one bit per entry, so no
    # record's closure, helper or tuple holds a bool array
    g = random_graph(seed=17)
    cfg = tiny_config(keep_prob=0.6, layers=3, reg_strength=0.5)
    params = init_params(cfg, g.n_features, g.n_classes)
    tape = ad.Tape()
    result = forward(tape, params, g, cfg, training=True,
                     rng=np.random.default_rng(0))
    total_loss(tape, result, g.labels, np.arange(g.n_nodes), cfg)

    def bool_arrays(value, seen):
        if isinstance(value, np.ndarray):
            return int(value.dtype == bool)
        if isinstance(value, (tuple, list)):
            return sum(bool_arrays(v, seen) for v in value)
        if isinstance(value, types.FunctionType) and value not in seen:
            seen.add(value)
            return sum(bool_arrays(cell.cell_contents, seen)
                       for cell in value.__closure__ or ())
        return 0

    masked = {f"Tape.{op}.<locals>.back" for op in ("relu", "project",
                                                     "aggregate_update")}
    assert masked <= {back.__qualname__ for _, back in tape._nodes}
    for _, back in tape._nodes:
        assert not bool_arrays(back, set())
