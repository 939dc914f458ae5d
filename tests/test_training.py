"""Tests for the training loop and the post-hoc analyses.

Training behaviour is pinned on tiny handcrafted graphs where the right
answer is forced: linearly separable features for accuracy, label one-hot
scores as the alignment/mixing oracle, and exploding weight decay as a
reliable way to drive the loss out of the reals.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from heterognn import autodiff as ad
from heterognn import training
from heterognn.csbm import CsbmParams, sample_csbm
from heterognn.graphs import Graph, Split, build_graph, random_split
from heterognn.model import M2mConfig, forward, init_params, one_hot_arc_scores
from heterognn.training import (
    TrainingDiverged,
    ablate,
    attention_analysis,
    average_scores,
    depth_sweep,
    dominant_columns,
    mixing_score_from_scores,
    train,
)


def separable_graph(seed=0, n=20, n_classes=2):
    """Homophilic-leaning toy whose first feature column gives the class."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % n_classes
    features = rng.normal(scale=0.25, size=(n, 4))
    features[:, 0] += np.where(labels == 0, 1.0, -1.0)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < (0.3 if labels[i] == labels[j] else 0.08)
    ]
    return build_graph(n, edges, features, labels, n_classes)


def mixed_graph(seed=0, n=18, n_classes=3, p_edge=0.4):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    features = rng.normal(size=(n, 5))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p_edge
    ]
    return build_graph(n, edges, features, labels, n_classes)


def quick_config(**overrides):
    base = dict(hidden=8, chunks=2, layers=2, alpha=0.4, beta=0.6,
                temperature=0.7, seed=1)
    base.update(overrides)
    return M2mConfig(**base)


# ---- train -------------------------------------------------------------------


def test_train_history_and_early_stopping_bookkeeping():
    g = separable_graph()
    split = random_split(g, seed=0)
    record, params = train(g, quick_config(), split, max_epochs=30,
                           patience=10)
    n = record.n_epochs
    assert 0 < n <= 30
    assert len(record.val_losses) == n
    assert len(record.train_accuracies) == n
    assert len(record.val_accuracies) == n
    assert 0 <= record.best_epoch < n
    assert record.val_accuracies[record.best_epoch] == max(record.val_accuracies)
    # the returned weights are the best-validation ones, so re-scoring the
    # test set must reproduce the recorded number exactly
    logits = forward(ad.Tape(recording=False), params, g, record.config).logits.data
    pred = np.argmax(logits[split.test], axis=1)
    assert float(np.mean(pred == g.labels[split.test])) == record.test_accuracy


def test_same_seed_gives_identical_record():
    g = separable_graph(seed=3)
    split = random_split(g, seed=1)
    cfg = quick_config(keep_prob=0.7)
    record_a, _ = train(g, cfg, split, max_epochs=15, patience=15)
    record_b, _ = train(g, cfg, split, max_epochs=15, patience=15)
    assert record_a == record_b


def test_separable_toy_reaches_high_accuracy():
    g = separable_graph(seed=5)
    split = random_split(g, seed=2)
    record, _ = train(g, quick_config(), split, max_epochs=200, patience=200)
    assert record.test_accuracy >= 0.9


def test_early_stopping_cuts_the_run_short():
    g = separable_graph(seed=7)
    split = random_split(g, seed=3)
    record, _ = train(g, quick_config(), split, max_epochs=200, patience=5)
    assert record.n_epochs < 200
    assert record.n_epochs - 1 - record.best_epoch >= 5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_divergence_raises_with_epoch():
    g = separable_graph(seed=9)
    split = random_split(g, seed=4)
    with pytest.raises(TrainingDiverged, match="epoch"):
        train(g, quick_config(), split, max_epochs=100, patience=100,
              lr=1e5, weight_decay=1e5)


@pytest.mark.parametrize("option, value, match", [
    ("lr", -1.0, "lr must be positive"),
    ("lr", 0.0, "lr must be positive"),
    ("lr", float("inf"), "lr must be a finite number"),
    ("weight_decay", float("nan"), "weight_decay must be a finite number"),
    ("weight_decay", -0.1, "weight_decay must be nonnegative"),
    ("max_epochs", "5", "max_epochs must be an integer"),
    ("max_epochs", 2.0, "max_epochs must be an integer"),
    ("max_epochs", 0, "max_epochs must be at least 1"),
    ("patience", True, "patience must be an integer"),
    ("patience", -3, "patience must be at least 1"),
])
def test_train_rejects_a_bad_hyperparameter_naming_it(option, value, match):
    # lr=-1 used to run gradient ascent, weight_decay=nan to end as
    # "loss became nan", and max_epochs="5" in a TypeError
    g = separable_graph(seed=1)
    kwargs = {"max_epochs": 2, "patience": 2, option: value}
    with pytest.raises(ValueError, match=match):
        train(g, quick_config(), random_split(g, seed=0), **kwargs)


@pytest.mark.parametrize("layers", [1, 2, 3, 8, 32])
def test_average_scores_has_the_bits_of_the_stacked_mean(layers):
    # the layers are added in layer order into one array, not stacked into
    # a (layers, arcs, chunks) one; the scores are F-ordered
    g = separable_graph(seed=5, n=30)
    cfg = quick_config(layers=layers, chunks=2)
    params = init_params(cfg, g.n_features, g.n_classes)
    result = forward(ad.Tape(recording=False), params, g, cfg)
    scores = [s.data for s in result.attentions]
    assert all(s.flags.f_contiguous and not s.flags.c_contiguous for s in scores)
    got = average_scores(g, params, cfg)
    want = np.stack(scores).mean(axis=0)
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_only_the_training_forward_records_a_tape(monkeypatch):
    flags = []

    class CountingTape(ad.Tape):
        def __init__(self, recording=True):
            super().__init__(recording)
            flags.append(recording)

    monkeypatch.setattr(ad, "Tape", CountingTape)
    g = separable_graph(seed=2)
    cfg = quick_config(keep_prob=0.7)
    record, params = train(g, cfg, random_split(g, seed=0), max_epochs=6,
                           patience=6)
    forward(ad.Tape(recording=False), params, g, cfg)
    average_scores(g, params, cfg)
    assert record.n_epochs == 6
    assert sum(flags) == record.n_epochs


def test_train_runs_one_recording_and_one_eval_forward_per_epoch(monkeypatch):
    # test accuracy comes from the best epoch's eval logits, so no forward
    # runs once the loop is done
    calls = []

    def counting_forward(tape, *args, **kwargs):
        calls.append(tape.recording)
        return forward(tape, *args, **kwargs)

    monkeypatch.setattr(training, "forward", counting_forward)
    g = separable_graph(seed=4)
    record, _ = train(g, quick_config(), random_split(g, seed=1),
                      max_epochs=40, patience=3)
    assert calls == [True, False] * record.n_epochs


def test_dropout_stream_is_independent_of_the_initial_weights(monkeypatch):
    # were dropout to share init_params' stream, the first mask on the
    # encoder's hidden units would equal enc_in < 0 entry for entry
    masks = []
    original = ad.Tape.project

    def recording_project(self, x, w, keep_prob, rng):
        if keep_prob < 1.0:  # keep_prob 1 draws nothing, and eval passes no rng
            masks.append(copy.deepcopy(rng).random(x.data.shape) < keep_prob)
        return original(self, x, w, keep_prob, rng)

    monkeypatch.setattr(ad.Tape, "project", recording_project)
    rng = np.random.default_rng(0)
    n, f = 60, 30
    labels = np.arange(n) % 3
    edges = [(i, (i + 1) % n) for i in range(n)]
    g = build_graph(n, edges, rng.normal(size=(n, f)), labels, 3)
    cfg = quick_config(keep_prob=0.5)
    train(g, cfg, random_split(g, seed=0), max_epochs=1, patience=1)
    enc_in = init_params(cfg, f, 3).enc_in.data
    agreement = np.mean(masks[0][:f] == (enc_in < 0))
    assert abs(agreement - 0.5) < 0.15


def test_one_epoch_peak_memory_per_arc_per_layer():
    # an arc-by-width array kept per layer, or tape records kept until the
    # backward pass ends, pushes the traced peak past this bound
    n, n_edges, n_classes, layers = 1000, 8000, 5, 8
    rng = np.random.default_rng(0)
    upper = np.stack(np.triu_indices(n, 1), axis=1)
    edges = upper[rng.choice(len(upper), n_edges, replace=False)]
    g = build_graph(n, edges, rng.normal(size=(n, 32)),
                    rng.integers(0, n_classes, n), n_classes)
    cfg = M2mConfig(hidden=80, chunks=5, layers=layers, keep_prob=0.5,
                    reg_strength=0.5)
    split = random_split(g, seed=0)
    tracemalloc.start()
    try:
        train(g, cfg, split, max_epochs=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (g.n_arcs * layers) < 1200


def test_chunk_balance_penalty_keeps_the_task_loss_in_charge():
    # a penalty that grows with the arc count (4546 arcs here) swamps the
    # cross-entropy: squared, its first loss was about 1.8e3 and training
    # stalled at 0.52 train accuracy, against 0.99 at reg 0. The margin was
    # fixed before the run
    seed = 0
    means = np.random.default_rng(100 + seed).normal(size=(3, 16)) * 0.35
    sample = sample_csbm(CsbmParams(300, 3, 0.02, 20 / 300, means, 1.0, seed))
    adjacency = sample.adjacency
    g = Graph(300, adjacency.indices, adjacency.indptr, sample.features,
              sample.labels, 3)
    split = random_split(g, seed=seed)
    final = {}
    for reg in (0.0, 0.5):
        cfg = M2mConfig(hidden=48, chunks=3, layers=2, keep_prob=1.0,
                        reg_strength=reg, seed=seed)
        record, _ = train(g, cfg, split, max_epochs=100, patience=100)
        final[reg] = record.train_accuracies[-1]
    assert final[0.5] >= final[0.0] - 0.05, final


def test_train_rejects_empty_split_part():
    g = separable_graph()
    bad = Split(train=np.array([], dtype=int), val=np.array([1]),
                test=np.array([2]), seed=0)
    with pytest.raises(ValueError):
        train(g, quick_config(), bad)


def test_depth_sweep_trains_each_requested_depth():
    g = separable_graph(seed=13)
    split = random_split(g, seed=5)
    results = depth_sweep(g, quick_config(), [1, 3], split, max_epochs=5,
                          patience=5)
    assert [k for k, _ in results] == [1, 3]
    for k, record in results:
        assert record.config.layers == k
        assert record.n_epochs <= 5


# ---- attention alignment -----------------------------------------------------


def test_oracle_scores_give_dominant_diagonal():
    g = mixed_graph(seed=14, n=20, n_classes=3, p_edge=0.5)
    assert len(set(g.labels[g.arc_src])) == 3  # every class routes something
    cfg = quick_config(hidden=9, chunks=3)
    params = init_params(cfg, g.n_features, g.n_classes)
    oracle = one_hot_arc_scores(g, g.labels, 3)
    summary = attention_analysis(g, params, cfg, avg_scores=oracle)
    np.testing.assert_allclose(summary.alignment.sum(axis=1), 1.0, atol=1e-12)
    assert sorted(summary.permutation) == [0, 1, 2]
    assert summary.diagonal_dominant_count() == 3
    assert np.array_equal(summary.permutation, [0, 1, 2])


def test_alignment_recovers_a_column_scramble():
    g = mixed_graph(seed=15, n=20, n_classes=3, p_edge=0.5)
    cfg = quick_config(hidden=9, chunks=3)
    params = init_params(cfg, g.n_features, g.n_classes)
    scramble = [2, 0, 1]  # new column t holds old column scramble[t]
    oracle = one_hot_arc_scores(g, g.labels, 3)[:, scramble]
    summary = attention_analysis(g, params, cfg, avg_scores=oracle)
    assert summary.diagonal_dominant_count() == 3
    # class c's mass sits in the new position of old column c
    assert np.array_equal(summary.permutation, [1, 2, 0])


def test_random_scores_give_near_uniform_alignment():
    g = mixed_graph(seed=16, n=60, n_classes=3, p_edge=0.6)
    cfg = quick_config(hidden=9, chunks=3)
    params = init_params(cfg, g.n_features, g.n_classes)
    rng = np.random.default_rng(0)
    noise = rng.dirichlet(np.ones(3), size=g.n_arcs)
    summary = attention_analysis(g, params, cfg, avg_scores=noise)
    np.testing.assert_allclose(summary.alignment, 1.0 / 3.0, atol=0.05)


def test_attention_analysis_matches_a_per_class_loop_when_a_class_routes_no_arcs():
    # hundreds of arcs, so that a blocked (BLAS) sum would move the bits
    labels = np.r_[np.arange(36) % 2, [2, 2, 2, 2]]  # class 2's nodes are isolated
    rng = np.random.default_rng(4)
    edges = [(i, j) for i in range(36) for j in range(i + 1, 36) if rng.random() < 0.5]
    g = build_graph(40, edges, rng.normal(size=(40, 5)), labels, 3)
    scores = rng.dirichlet(np.ones(3), size=g.n_arcs)
    cfg = quick_config(hidden=9, chunks=3)
    params = init_params(cfg, g.n_features, g.n_classes)
    summary = attention_analysis(g, params, cfg, avg_scores=scores)

    norm = np.zeros((3, 3))
    for c in range(3):
        total, count = np.zeros(3), 0
        for a in range(g.n_arcs):
            if labels[g.arc_src[a]] == c:
                total, count = total + scores[a], count + 1
        if count:
            norm[c] = total / count
    assert not norm[2].any()
    perm, work = [-1, -1, -1], norm.copy()
    for _ in range(3):
        c, t = np.unravel_index(np.argmax(work), work.shape)
        perm[c] = t
        work[c, :] = work[:, t] = -np.inf
    shifted = norm[:, perm] - norm[:, perm].max(axis=1, keepdims=True)
    want = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    assert summary.permutation.tolist() == perm
    assert np.array_equal(summary.alignment, want)


def test_attention_analysis_refuses_chunk_class_mismatch():
    g = mixed_graph(seed=17, n_classes=3)
    cfg = quick_config(chunks=2, hidden=8)
    params = init_params(cfg, g.n_features, g.n_classes)
    with pytest.raises(ValueError, match="chunks == classes"):
        attention_analysis(g, params, cfg)


def test_relabeling_classes_permutes_the_alignment():
    g = mixed_graph(seed=18, n=24, n_classes=3, p_edge=0.5)
    cfg = quick_config(hidden=9, chunks=3)
    params = init_params(cfg, g.n_features, g.n_classes)
    rng = np.random.default_rng(1)
    scores = rng.dirichlet(np.ones(3), size=g.n_arcs)
    base = attention_analysis(g, params, cfg, avg_scores=scores)

    sigma = np.array([2, 0, 1])  # class c becomes sigma[c]
    relabeled = build_graph(
        g.n_nodes,
        [(int(g.arc_src[a]), int(g.arc_dst[a]))
         for a in range(g.n_arcs) if g.arc_src[a] < g.arc_dst[a]],
        g.features, sigma[g.labels], 3,
    )
    other = attention_analysis(relabeled, params, cfg, avg_scores=scores)
    for a in range(3):
        for b in range(3):
            np.testing.assert_allclose(
                other.alignment[sigma[a], sigma[b]],
                base.alignment[a, b],
                atol=1e-12,
            )


def test_dominant_columns_reads_columns_not_rows():
    m = np.array([
        [0.6, 0.5, 0.1],
        [0.2, 0.4, 0.1],
        [0.2, 0.1, 0.2],
    ])
    # column 0: 0.6 beats 0.2, 0.2; column 1: 0.4 < 0.5; column 2: 0.2 > 0.1
    assert list(dominant_columns(m)) == [True, False, True]


# ---- mixing ------------------------------------------------------------------


def hetero_pair_graph():
    # 0-1 heterophilic, 2-3 homophilic, 1-2 heterophilic
    edges = [(0, 1), (2, 3), (1, 2)]
    features = np.eye(4)
    return build_graph(4, edges, features, [0, 1, 0, 0], 2)


def test_uniform_scores_never_mix():
    g = hetero_pair_graph()
    scores = np.full((g.n_arcs, 3), 1.0 / 3.0)
    assert mixing_score_from_scores(g, scores) == 0.0


def test_oracle_scores_always_mix():
    g = hetero_pair_graph()
    scores = one_hot_arc_scores(g, g.labels, 2)
    assert mixing_score_from_scores(g, scores) == 1.0


def test_mixing_counts_only_heterophilic_edges():
    g = hetero_pair_graph()
    # chunks: node 0 -> 0, node 1 -> 1, node 2 -> 0, node 3 -> 1
    per_node = np.array([0, 1, 0, 1])
    scores = np.zeros((g.n_arcs, 2))
    scores[np.arange(g.n_arcs), per_node[g.arc_src]] = 1.0
    # hetero edges 0-1 and 1-2 both straddle chunk 0 and 1 -> both mix;
    # homophilic 2-3 also differs but must not be counted
    assert mixing_score_from_scores(g, scores) == 1.0
    # flip node 1 into chunk 0: no hetero edge mixes anymore
    per_node = np.array([0, 0, 0, 1])
    scores = np.zeros((g.n_arcs, 2))
    scores[np.arange(g.n_arcs), per_node[g.arc_src]] = 1.0
    assert mixing_score_from_scores(g, scores) == 0.0


def test_mixing_without_heterophilic_edges_is_nan_with_warning():
    g = build_graph(3, [(0, 1), (1, 2)], np.eye(3), [1, 1, 1], 2)
    scores = np.full((g.n_arcs, 2), 0.5)
    with pytest.warns(UserWarning, match="heterophilic"):
        value = mixing_score_from_scores(g, scores)
    assert np.isnan(value)


def test_mixing_is_direction_symmetric():
    # handing each arc its twin's scores leaves the score unchanged, and both
    # match a per-edge count that finds twins by (src, dst) lookup
    g = mixed_graph(seed=19, n=16, n_classes=2, p_edge=0.4)
    scores = np.random.default_rng(2).dirichlet(np.ones(3), size=g.n_arcs)
    arcs = list(zip(g.arc_src.tolist(), g.arc_dst.tolist()))
    index = {arc: a for a, arc in enumerate(arcs)}
    twin = np.array([index[d, s] for s, d in arcs])
    chunk = np.argmax(scores, axis=1)
    want = np.mean([chunk[a] != chunk[twin[a]] for a, (s, d) in enumerate(arcs)
                    if s < d and g.labels[s] != g.labels[d]])
    assert mixing_score_from_scores(g, scores) == want
    assert mixing_score_from_scores(g, scores[twin]) == want


def test_mixing_on_a_large_int32_graph_finds_every_twin():
    # N = 70,000: N^2 > 2^31, so a key src * N + dst in int32 would wrap;
    # the twins are checked against a (src, dst) lookup in Python ints
    n = 70_000
    rng = np.random.default_rng(23)
    edges = np.concatenate([rng.integers(0, n, size=(3000, 2)),
                            rng.integers(n - 40, n, size=(300, 2))])
    g = build_graph(n, edges[edges[:, 0] != edges[:, 1]], np.zeros((n, 1)),
                    rng.integers(0, 2, n), 2)
    assert g.arc_src.dtype == g.arc_dst.dtype == np.int32
    arcs = list(zip(g.arc_src.tolist(), g.arc_dst.tolist()))
    index = {arc: a for a, arc in enumerate(arcs)}
    twin = np.array([index[d, s] for s, d in arcs])
    assert np.array_equal(training._reverse_arc_index(g), twin)
    scores = rng.dirichlet(np.ones(3), size=g.n_arcs)
    chunk = np.argmax(scores, axis=1)
    want = np.mean([chunk[a] != chunk[twin[a]] for a, (s, d) in enumerate(arcs)
                    if s < d and g.labels[s] != g.labels[d]])
    assert mixing_score_from_scores(g, scores) == want


@pytest.mark.parametrize("arcs, indptr, missing", [
    ([(1, 0), (0, 1), (0, 2)], [0, 1, 2, 3], "arc 0->2 has no reverse arc 2->0"),
    ([(1, 0), (2, 0), (0, 1)], [0, 2, 3, 3], "arc 2->0 has no reverse arc 0->2"),
])
def test_mixing_names_a_missing_reverse_arc(arcs, indptr, missing):
    src = np.array(arcs)[:, 0]
    g = Graph(3, src, np.array(indptr), np.eye(3), np.array([0, 1, 1]), 2)
    with pytest.raises(ValueError, match=missing):
        mixing_score_from_scores(g, np.full((3, 2), 0.5))


# ---- ablation ----------------------------------------------------------------


def test_ablate_emits_one_row_per_cell():
    g = separable_graph(seed=21)
    split = random_split(g, seed=6)
    rows = ablate(g, quick_config(hidden=8), [(1, 0.0), (2, 0.5)], split,
                  k_values=(1, 2), max_epochs=4, patience=4)
    assert len(rows) == 2
    for row, (chunks, lam) in zip(rows, [(1, 0.0), (2, 0.5)]):
        assert row["chunks"] == chunks
        assert row["lambda"] == lam
        assert set(row) == {"chunks", "lambda", "mixing", "best_acc", "acc_k32"}
        assert row["best_acc"] >= row["acc_k32"] - 1e-12
        assert np.isfinite(row["mixing"])
