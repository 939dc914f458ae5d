"""Behavioural tests for the chunked-attention model.

Oracles: zeroed mixing weights force uniform score rows, a cold softmax
approaches the argmax indicator, and label-driven one-hot scores must make
the aggregation step reproduce the label-partition reference pooling from
``heterognn.multiset``. Gradients of the full loss are checked entry by
entry against central differences.
"""

import json
from dataclasses import asdict
import time

import numpy as np
import pytest

from heterognn import autodiff as ad
from heterognn.graphs import build_graph, self_free_undirected_edges
from heterognn.model import (
    ForwardResult,
    M2mConfig,
    attention_scores,
    chunk_aggregate,
    encode,
    forward,
    init_params,
    load_checkpoint,
    one_hot_arc_scores,
    reg_loss,
    save_checkpoint,
    total_loss,
)
from heterognn.multiset import one_hop_desirable_m2m


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
    h_hat = tape.matmul(h0, params.layer_proj[0])
    scores = attention_scores(tape, h_hat, g, params.layer_att[0],
                              cfg.alpha, cfg.temperature)
    np.testing.assert_allclose(scores.data, 1.0 / 3.0, rtol=0, atol=1e-15)


def test_low_temperature_sharpens_scores():
    rng = np.random.default_rng(7)
    g = random_graph(seed=3, n=9, f=3)
    h_hat = ad.constant(np.abs(rng.normal(size=(9, 4))) + 0.1)
    w_att = ad.constant(rng.normal(size=(4, 3)))
    tape = ad.Tape()
    warm = attention_scores(tape, h_hat, g, w_att, 0.5, 1.0).data
    cold = attention_scores(tape, h_hat, g, w_att, 0.5, 0.02).data
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
    scores = attention_scores(tape, h_hat, g, w_att, alpha=1.0,
                              temperature=0.7).data
    for a in range(g.n_arcs):
        i, j = g.arc_src[a], g.arc_dst[a]
        rev = np.flatnonzero((g.arc_src == j) & (g.arc_dst == i))[0]
        np.testing.assert_allclose(scores[a], scores[rev], atol=1e-12)


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
    message = chunk_aggregate(ad.Tape(), ad.constant(h_hat), scores, g)
    expected = np.zeros((g.n_nodes, 6))
    np.add.at(expected, g.arc_dst, h_hat[g.arc_src])
    np.testing.assert_allclose(message.data, expected, atol=1e-12)


def test_one_hot_scores_route_mass_to_matching_block():
    g = random_graph(seed=6, n=7, f=3)
    rng = np.random.default_rng(1)
    h_hat = ad.constant(rng.normal(size=(7, 3)))
    scores = np.zeros((g.n_arcs, 2))
    scores[:, 1] = 1.0
    tape = ad.Tape()
    message = chunk_aggregate(tape, h_hat, ad.constant(scores), g).data
    assert np.all(message[:, :3] == 0.0)
    expected = np.zeros((7, 3))
    np.add.at(expected, g.arc_dst, h_hat.data[g.arc_src])
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
    oracle = ad.constant(one_hot_arc_scores(g, g.labels, 3))
    h0 = encode(ad.Tape(), params, g.features, cfg).data
    h_hat = h0 @ params.layer_proj[0].data
    message = chunk_aggregate(ad.Tape(), ad.constant(h_hat), oracle, g)
    reference = one_hop_desirable_m2m(h_hat, g, g.labels, mode="sum")
    np.testing.assert_allclose(message.data, reference, atol=1e-9)


# ---- regularizer -------------------------------------------------------------


def test_reg_loss_reference_values():
    n_arcs, chunks = 10, 4
    uniform = np.full((n_arcs, chunks), 1.0 / chunks)
    collapsed = np.zeros((n_arcs, chunks))
    collapsed[:, 2] = 1.0
    tape = ad.Tape()

    def value(scores):
        layers = [ad.constant(scores), ad.constant(scores)]
        return float(reg_loss(tape, layers, chunks, n_arcs).data[0, 0])

    root = np.sqrt(chunks)
    np.testing.assert_allclose(value(uniform), n_arcs / root - 1.0, rtol=1e-12)
    np.testing.assert_allclose(value(collapsed), root * n_arcs - 1.0, rtol=1e-12)
    assert value(uniform) < value(collapsed)


def test_reg_loss_rejects_bad_input():
    tape = ad.Tape()
    with pytest.raises(ValueError):
        reg_loss(tape, [], 2, 4)


def test_total_loss_adds_weighted_regularizer():
    g = random_graph(seed=10, n=9, f=4)
    plain_cfg = tiny_config(reg_strength=0.0)
    reg_cfg = tiny_config(reg_strength=0.7)
    params = init_params(plain_cfg, g.n_features, g.n_classes)
    mask = np.arange(g.n_nodes)

    tape = ad.Tape()
    result = forward(tape, params, g, plain_cfg)
    ce = total_loss(tape, result, g.labels, mask, g, plain_cfg)
    reg = reg_loss(tape, result.attentions, plain_cfg.chunks, g.n_arcs)
    combined = total_loss(tape, result, g.labels, mask, g, reg_cfg)
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
        total_loss(tape, result, g.labels, np.array([], dtype=int), g, cfg)


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
        return float(total_loss(tape, result, g.labels, mask, g,
                                cfg).data[0, 0])

    tape = ad.Tape()
    result = forward(tape, params, g, cfg)
    loss = total_loss(tape, result, g.labels, mask, g, cfg)
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
        loss = total_loss(tape, result, g.labels, mask, g, cfg)
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


def test_training_layer_records_five_tape_nodes():
    # dropout, projection, scores, chunk sums and the residual LayerNorm
    g = random_graph(seed=16)
    counts = []
    for layers in (2, 3):
        cfg = tiny_config(keep_prob=0.6, layers=layers)
        tape = ad.Tape()
        forward(tape, init_params(cfg, g.n_features, g.n_classes), g, cfg,
                training=True, rng=np.random.default_rng(0))
        counts.append(len(tape._nodes))
    assert counts[1] - counts[0] == 5


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
