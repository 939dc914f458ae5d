"""Acceptance gate: one test per release criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
per criterion. Criteria that need the WebKB/citation benchmarks look for
converted dataset directories under HETEROGNN_DATA (see the README for the
format and a conversion recipe) and skip with an explicit message when the
data is absent; everything else is self-contained and seeded.
"""

import json
import os
import time
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
import scipy.sparse as sp

from heterognn import autodiff as ad
from heterognn.cli import MODEL_KEYS, TRAIN_KEYS
from heterognn.csbm import CsbmParams, sample_csbm, signed_normalize
from heterognn.graphs import build_graph, load_dataset, random_split
from heterognn.model import (
    M2mConfig,
    forward,
    init_params,
    total_loss,
)
from heterognn.multiset import (
    Partition,
    VectorMultiset,
    chunked_distance,
    d_hop_oracle,
    distance_compare,
    m2e_pool,
    m2m_expected_step,
    m2m_pool,
    maxima_first_partition,
    stacked_one_hop,
)
from heterognn.signed import (
    class_gap,
    concentration_check,
    expected_gap,
    expected_trajectory,
    is_desirable,
    merge_trajectories,
    propagate_linear,
    sign_flip_counterexample,
    z_score,
)
from heterognn.training import (
    ablate,
    attention_analysis,
    depth_sweep,
    mixing_score,
    train,
)


def verdict(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def dataset_or_skip(criterion: int, name: str):
    root = os.environ.get("HETEROGNN_DATA")
    candidate = os.path.join(root, name) if root else None
    if candidate and os.path.isdir(candidate):
        return candidate
    print(f"SKIP criterion {criterion}: dataset {name!r} not found under "
          f"HETEROGNN_DATA; see README for the TSV layout and conversion "
          f"recipe")
    pytest.skip(f"criterion {criterion} needs the converted {name!r} dataset "
                f"under HETEROGNN_DATA")


def shipped_config(name: str):
    text = resources.files("heterognn").joinpath(
        "configs", f"{name}.json").read_text(encoding="utf-8")
    payload = json.loads(text)
    model = {k: v for k, v in payload.items() if k in MODEL_KEYS}
    train_kw = {k: v for k, v in payload.items() if k in TRAIN_KEYS}
    return M2mConfig(**model), train_kw


def pooled_run(n_nodes, means, p, q, layers, trials, base_seed=0):
    n_classes = len(means)
    runs = []
    for t in range(trials):
        params = CsbmParams(n_nodes, n_classes, p, q,
                            np.asarray(means, dtype=float), 1.0,
                            seed=base_seed + t)
        sample = sample_csbm(params)
        P, kept = signed_normalize(sample)
        runs.append(propagate_linear(P, sample.features[kept], layers,
                                     sample.labels[kept], n_classes))
    return merge_trajectories(runs)


def test_criterion_1_recursion_matches_closed_form():
    start = time.perf_counter()
    worst = 0.0
    values = (0.001, 0.003, 0.01, 0.05)
    for p in values:
        for q in values:
            for n_classes in range(2, 7):
                means0 = np.linspace(-0.5, 0.5, n_classes)[:, None]
                flat = expected_trajectory(p, q, n_classes, means0, 50)
                for K in range(51):
                    for a in range(n_classes):
                        for b in range(a + 1, n_classes):
                            got = np.linalg.norm(flat[K, a] - flat[K, b])
                            want = expected_gap(p, q, n_classes, K,
                                                means0[a], means0[b])
                            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    verdict(1, worst <= 1e-12 and elapsed < 1.0,
            f"max |iterated - closed form| = {worst:.2e} over the full grid "
            f"in {elapsed:.2f}s")


def test_criterion_2_propagation_dynamics_at_full_scale():
    start = time.perf_counter()
    merged = pooled_run(3000, (-0.5, 0.0, 0.5), p=0.003, q=0.01,
                        layers=30, trials=20)

    gaps = class_gap(merged, 0, 2)
    ratios = gaps[1:11] / gaps[:10]
    mean_ratio = float(np.mean(ratios))
    ratio_ok = abs(mean_ratio / 0.5652 - 1.0) <= 0.15

    zs = z_score(merged, 0, 1)
    peak = int(np.argmax(zs))
    z_ok = 0 < peak < 30 and zs[30] < 0.10 * zs[peak]

    binary = pooled_run(3000, (-0.25, 0.25), p=0.003, q=0.01,
                        layers=30, trials=20, base_seed=100)
    bgaps = class_gap(binary, 0, 1)
    drift = float(np.max(np.abs(bgaps / 0.5 - 1.0)))
    drift_ok = drift < 0.15

    elapsed = time.perf_counter() - start
    verdict(2, ratio_ok and z_ok and drift_ok and elapsed < 120.0,
            f"mean gap ratio layers 1-10 = {mean_ratio:.4f} (target 0.5652 "
            f"±15%), z peaks at layer {peak} and ends at "
            f"{zs[30] / zs[peak]:.1%} of peak, binary drift {drift:.1%}, "
            f"{elapsed:.0f}s")


def test_criterion_3_sign_flip_counterexample_is_exact():
    ex = sign_flip_counterexample()
    layers_ok = ex.layers_desirable == (True, True)
    entry_ok = (not ex.cumulative_desirable
                and ex.cumulative[2, 0] == 1.0
                and ex.violations.tolist() == [(0, 2, 1.0), (2, 0, 1.0)])
    audit_ok = np.array_equal(is_desirable(ex.cumulative, ex.labels)[1],
                              ex.violations)
    verdict(3, layers_ok and entry_ok and audit_ok,
            "both layers desirable, cumulative entry (2, 0) = +1 is exactly "
            "the flagged cross-class pair (with its transpose)")


def test_criterion_4_stacked_layers_equal_walk_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(3, 13))
        n_classes = int(rng.integers(2, 4))
        f = int(rng.integers(1, 3))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.45]
        if not edges:
            edges = [(0, 1)]
        g = build_graph(n, edges, rng.normal(size=(n, f)),
                        rng.integers(0, n_classes, size=n), n_classes)
        for d in (1, 2, 3):
            fast = stacked_one_hop(g.features, g, g.labels, d)
            slow = d_hop_oracle(g.features, g, g.labels, d)
            worst = max(worst, float(np.max(np.abs(fast - slow))))
            widths = [f] + [f * n_classes ** k for k in range(1, d)]
            weights = [rng.normal(size=(widths[0], 2))]
            for k in range(1, d):
                weights.append(rng.normal(size=(n_classes ** k, 2, 2)))
            fast = stacked_one_hop(g.features, g, g.labels, d, weights=weights)
            slow = d_hop_oracle(g.features, g, g.labels, d, weights=weights)
            worst = max(worst, float(np.max(np.abs(fast - slow))))
    elapsed = time.perf_counter() - start
    verdict(4, worst <= 1e-9 and elapsed < 30.0,
            f"max |stacked - oracle| = {worst:.2e} over 50 graphs, depths "
            f"1-3, identity and random block weights, {elapsed:.1f}s")


def test_criterion_5_partitioned_distances_dominate_collapsed():
    start = time.perf_counter()
    a = VectorMultiset([[1.0], [3.0]])
    b = VectorMultiset([[2.0], [2.0]])
    split = Partition([0, 1], 2)
    m2m_sum, m2e_sum = distance_compare(a, b, split, mode="sum")
    m2m_mean, m2e_mean = distance_compare(a, b, split, mode="mean")
    example_ok = (m2e_sum == 0.0 and m2e_mean == 0.0
                  and abs(m2m_sum - np.sqrt(2.0)) < 1e-12
                  and m2m_mean > 0.0)

    rng = np.random.default_rng(5)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        f = int(rng.integers(1, 5))
        x = VectorMultiset(rng.normal(size=(n, f)) * rng.uniform(0.2, 4))
        y = VectorMultiset(rng.normal(size=(n, f)) * rng.uniform(0.2, 4))
        groups = int(rng.integers(1, 5))
        part = Partition(rng.integers(0, groups, size=n), groups)
        for mode in ("sum", "mean"):
            blockwise = chunked_distance(m2m_pool(x, part, mode=mode),
                                         m2m_pool(y, part, mode=mode), groups)
            collapsed = np.linalg.norm(m2e_pool(x, mode=mode)
                                       - m2e_pool(y, mode=mode))
            if blockwise < collapsed - 1e-12:
                violations += 1
        arranged = maxima_first_partition(x, y)
        blockwise = np.linalg.norm(m2m_pool(x, arranged, mode="max")
                                   - m2m_pool(y, arranged, mode="max"))
        collapsed = np.linalg.norm(m2e_pool(x, mode="max")
                                   - m2e_pool(y, mode="max"))
        if blockwise < collapsed - 1e-12:
            violations += 1
    elapsed = time.perf_counter() - start
    verdict(5, example_ok and violations == 0 and elapsed < 30.0,
            f"pinned example ({{1,3}} vs {{2,2}}) gives m2e 0 / m2m sqrt(2); "
            f"{violations} violations in 10^4 random pairs across sum/mean "
            f"and arranged max, {elapsed:.1f}s")


def test_criterion_6_one_step_separation_vs_flat_collapse():
    p, q, n_classes = 0.003, 0.01, 3
    v = np.array([[0.6, -0.8]])
    priors = np.vstack([v, v, np.zeros((1, 2))])  # classes 0 and 1 identical
    _, bounds = m2m_expected_step(p, q, n_classes, priors)
    floor = abs(p - q) / (p + (n_classes - 1) * q) * 2.0 * np.linalg.norm(v)
    separated = bounds[0, 1] >= floor - 1e-15

    flat = expected_trajectory(p, q, n_classes, priors, 1)
    collapsed = float(np.linalg.norm(flat[1, 0] - flat[1, 1]))
    verdict(6, separated and collapsed == 0.0,
            f"partitioned step keeps classes {bounds[0, 1]:.6f} apart "
            f"(floor {floor:.6f}) while the flat recursion gap is exactly "
            f"{collapsed}")


def _fd_check(build, step=1e-6):
    """Max relative FD error across every parameter entry of a closure."""
    params, run = build()
    tape = ad.Tape()
    loss = run(tape)
    tape.backward(loss)
    grads = [p.grad.copy() for p in params]
    worst = 0.0
    for p, grad in zip(params, grads):
        it = np.nditer(p.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = p.data[idx]
            p.data[idx] = keep + step
            up = float(run(ad.Tape()).data[0, 0])
            p.data[idx] = keep - step
            down = float(run(ad.Tape()).data[0, 0])
            p.data[idx] = keep
            fd = (up - down) / (2 * step)
            err = abs(fd - grad[idx]) / max(1.0, abs(fd), abs(grad[idx]))
            worst = max(worst, err)
    return worst


def op_battery(rng):
    """Criterion 7's op battery: (leaves, run), where run(tape) chains every
    public Tape op into a scalar loss that each op's every input reaches.

    The leaves are rng's next seven draws, always of these shapes and
    distributions in this order, because criterion 7's model part draws its
    graph from the same rng next. Both dropouts (`dropout`'s and
    `norm_project`'s) keep 3 of 4 entries under generators seeded inside
    run, so every evaluation draws the same masks; `norm_project` reuses
    w as its projection, and `const_matmul` multiplies w_att by a fixed
    CSR matrix with an empty row, as the encoder does bag-of-words rows.
    The scores reach `chunk_sum` and `chunk_balance` F-ordered, as in the
    model, and one `chunk_balance` over five tensors of three shapes
    reduces them, with the cross-entropy, to the scalar. The penalty is
    weighted by 10, as `total_loss` weights it by reg_strength: its score
    gradients shrink with the arc count, and unweighted on these 4 arcs a
    1% error in `arc_attention`'s backward would move the gradients by
    less than criterion 7's tolerance.
    """
    a = ad.parameter(rng.normal(size=(3, 4)))
    b = ad.parameter(rng.normal(size=(3, 4)))
    w = ad.parameter(rng.normal(size=(4, 3)))
    col = ad.parameter(rng.normal(size=(3, 1)))
    gain = ad.parameter(rng.uniform(0.5, 1.5, size=(1, 4)))
    bias = ad.parameter(rng.normal(size=(1, 4)))
    w_att = ad.parameter(rng.normal(size=(3, 4)))
    labels = np.array([0, 2, 1])
    rows = np.array([0, 1, 2])
    # arcs 2->0, 0->0, 1->1 and 1->2, sorted by destination
    arc_src, indptr = np.array([2, 0, 1, 1]), np.array([0, 2, 3, 4])
    arcs = ad.Arcs(arc_src, indptr, 3)
    bag = sp.csr_matrix([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.25, 0.0, 0.75]])

    def run(tape):
        s = tape.scale(tape.add(a, b), 0.7)
        kept = tape.dropout(s, 0.75, np.random.default_rng(3))
        h = tape.relu(tape.matmul(kept, w))
        scores = tape.arc_attention(h, w_att, arcs, 0.6, 0.8)
        assert scores.data.flags.f_contiguous and not scores.data.flags.c_contiguous
        message = tape.chunk_sum(scores, col, arcs)
        projected = tape.norm_project(s, message, 0.6, gain, bias, w, 0.75,
                                      np.random.default_rng(3))
        soft = tape.row_softmax(projected, temperature=0.7)
        ce = tape.cross_entropy(projected, labels, rows)
        encoded = tape.const_matmul(bag, w_att)
        penalty = tape.chunk_balance([soft, message, scores, h, encoded])
        return tape.add(tape.scale(penalty, 10.0), ce)

    return [a, b, w, col, gain, bias, w_att], run


def test_criterion_7_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    op_err = _fd_check(lambda: op_battery(rng))

    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)
             if rng.random() < 0.5] or [(0, 1)]
    g = build_graph(8, edges, rng.normal(size=(8, 3)),
                    rng.integers(0, 2, size=8), 2)
    cfg = M2mConfig(hidden=6, chunks=2, layers=2, alpha=0.45, beta=0.6,
                    temperature=0.8, reg_strength=0.3, seed=7)
    mask = np.arange(8)

    def model_loss():
        params = init_params(cfg, 3, 2)

        def run(tape):
            result = forward(tape, params, g, cfg)
            return total_loss(tape, result, g.labels, mask, cfg)

        return params.tensors(), run

    model_err = _fd_check(model_loss)
    elapsed = time.perf_counter() - start
    verdict(7, op_err < 1e-4 and model_err < 1e-3 and elapsed < 60.0,
            f"op battery max rel err {op_err:.2e} (< 1e-4), end-to-end "
            f"{model_err:.2e} (< 1e-3), dropout off, {elapsed:.1f}s")


TAPE_OPS = {name for name, value in vars(ad.Tape).items()
            if callable(value) and not name.startswith("_")} - {"backward"}


def test_criterion_7_battery_runs_exactly_the_ops_shipped_code_calls(monkeypatch):
    # a Tape op that no shipped code calls is dead weight, and one that the
    # battery skips has its gradient checked only end to end
    called = set()

    def recorded(name, method):
        def op(self, *args, **kwargs):
            called.add(name)
            return method(self, *args, **kwargs)

        return op

    for name in TAPE_OPS:
        monkeypatch.setattr(ad.Tape, name, recorded(name, getattr(ad.Tape, name)))
    rng = np.random.default_rng(12)
    edges = [(i, j) for i in range(12) for j in range(i + 1, 12)
             if rng.random() < 0.4]
    g = build_graph(12, edges, rng.normal(size=(12, 3)),
                    np.arange(12) % 2, 2)
    # and bag-of-words rows, which the encoder multiplies as a CSR matrix
    bag = (rng.random((12, 60)) < 0.02).astype(float)
    bag[np.arange(12), rng.integers(0, 60, 12)] = 1.0
    g_bag = build_graph(12, edges, bag, np.arange(12) % 2, 2)
    config = M2mConfig(hidden=6, chunks=2, layers=2, keep_prob=0.8,
                       reg_strength=0.3, seed=0)
    for graph in (g, g_bag):
        _, params = train(graph, config, random_split(graph, seed=0), max_epochs=1)
        attention_analysis(graph, params, config)
        mixing_score(graph, params, config)
    assert sp.issparse(g_bag.encoder_operand)
    assert not sp.issparse(g.encoder_operand)
    assert called == TAPE_OPS
    called.clear()
    _, run = op_battery(np.random.default_rng(7))
    run(ad.Tape())
    assert called == TAPE_OPS


def test_criterion_7_battery_fails_a_scaled_backward_of_each_op(monkeypatch):
    def scaled_backward(method):
        def op(self, *args, **kwargs):
            emit = self._emit
            self._emit = lambda out, parents, back: emit(
                out, parents, lambda g: back(1.01 * g))
            try:
                return method(self, *args, **kwargs)
            finally:
                del self._emit

        return op

    for name in sorted(TAPE_OPS):
        with monkeypatch.context() as patch:
            patch.setattr(ad.Tape, name, scaled_backward(getattr(ad.Tape, name)))
            err = _fd_check(lambda: op_battery(np.random.default_rng(7)))
        assert err > 1e-4, f"a backward of {name} fed 1.01 g passes: {err:.2e}"


WEBKB_TARGETS = [("texas", 0.80), ("wisconsin", 0.80), ("cornell", 0.78)]


@pytest.mark.parametrize("name,floor", WEBKB_TARGETS)
def test_criterion_8_benchmark_accuracy(name, floor):
    path = dataset_or_skip(8, name)
    start = time.perf_counter()
    g = load_dataset(path, row_normalize=True)
    config, train_kw = shipped_config(name)
    accs = []
    for s in range(10):
        record, _ = train(g, replace(config, seed=config.seed + s),
                          random_split(g, seed=s), **train_kw)
        accs.append(record.test_accuracy)
    mean_acc = float(np.mean(accs))
    elapsed = time.perf_counter() - start
    verdict(8, mean_acc >= floor and elapsed < 300.0,
            f"{name}: mean test accuracy {mean_acc:.4f} over 10 splits "
            f"(floor {floor}), {elapsed:.0f}s")


def test_criterion_9_depth_stability():
    path = dataset_or_skip(9, "cornell")
    g = load_dataset(path, row_normalize=True)
    config, train_kw = shipped_config("cornell")
    per_k = {2: [], 16: []}
    for s in range(5):
        cfg = replace(config, seed=config.seed + s)
        split = random_split(g, seed=s)
        for k, record in depth_sweep(g, cfg, (2, 16), split, **train_kw):
            per_k[k].append(record.test_accuracy)
    shallow = float(np.mean(per_k[2]))
    deep = float(np.mean(per_k[16]))

    smoke_kw = dict(train_kw, max_epochs=50, patience=50)
    record, _ = train(g, replace(config, layers=64), random_split(g, seed=0),
                      **smoke_kw)
    no_nan = all(np.isfinite(v) for v in record.train_losses)
    verdict(9, abs(shallow - deep) <= 0.05 and no_nan,
            f"cornell: K=2 {shallow:.4f} vs K=16 {deep:.4f} "
            f"(gap {abs(shallow - deep):.4f} <= 0.05), K=64 ran "
            f"{record.n_epochs} epochs without NaN")


def test_criterion_10_regularizer_and_chunk_count_trends():
    path = dataset_or_skip(10, "wisconsin")
    g = load_dataset(path, row_normalize=True)
    config, train_kw = shipped_config("wisconsin")
    split = random_split(g, seed=0)

    _, params_reg = train(g, config, split, **train_kw)
    _, params_off = train(g, replace(config, reg_strength=0.0), split,
                          **train_kw)
    mix_reg = mixing_score(g, params_reg, config)
    mix_off = mixing_score(g, params_off, replace(config, reg_strength=0.0))

    grid = [(1, 0.5), (g.n_classes, 0.5)]
    rows = ablate(g, config, grid, split, k_values=(2, 8), **train_kw)
    best = max(rows, key=lambda r: r["best_acc"])
    verdict(10, mix_reg > mix_off and best["chunks"] == g.n_classes,
            f"wisconsin: mixing {mix_reg:.4f} (reg on) > {mix_off:.4f} "
            f"(reg off); best accuracy cell uses chunks={best['chunks']} "
            f"(= class count {g.n_classes})")


def test_criterion_11_attention_aligns_with_classes():
    path = dataset_or_skip(11, "cora")
    g = load_dataset(path, row_normalize=True)
    config, train_kw = shipped_config("cora")
    _, params = train(g, config, random_split(g, seed=0), **train_kw)
    summary = attention_analysis(g, params, config)
    dominant = summary.diagonal_dominant_count()
    verdict(11, dominant >= 5,
            f"cora: {dominant} of {g.n_classes} alignment columns are "
            f"diagonal-dominant (need >= 5)")


def test_criterion_12_deviation_bound_holds():
    params = CsbmParams(3000, 3, 0.003, 0.01,
                        np.array([-0.5, 0.0, 0.5]), 1.2 ** 2, seed=12)
    report = concentration_check(params, K=5, trials=20, sigma=1.2, r=1.0,
                                 base_seed=12)
    verdict(12, report.fraction_within >= 0.95 and not report.vacuous,
            f"{report.fraction_within:.0%} of 20 trials within the bound "
            f"{report.bound:.3f} at K=5 (precondition_met="
            f"{report.precondition_met})")
