"""The three benchmark workloads: inputs, set-up, passes and output checks.

Every workload makes its inputs from the workload seed alone and hands the
program nothing else: TSV dataset directories for the two training
workloads, CSBM parameters and per-trial seeds for the analysis workload.
A run is a set-up (timed, repeated), an untimed warm-up, then passes of the
same fixed list of operations until the time budget is spent. Each operation
is timed on its own and checked afterwards; the checks are not timed.

Why these three (see README.md for the layer -> metric map):

* sweep-small is the real traffic of ``sweep-depth`` and ``ablate``: a
  graph the size of WebKB's Texas, where per-op Python and tape overhead
  dominates, so a kernel change that adds per-call set-up shows as a loss.
* train-large is the ROADMAP reference graph, where arc-sized gathers and
  scatters and the retained tape dominate. K=32 is left out because train()
  peaks near 6 GB there (the per-epoch eval forward records a second tape).
* analysis-csbm runs the signed-CSBM pipeline, where the O(N^2) sampler
  does most of the work and no autodiff or model code runs: it is the
  "no change" workload for model-side changes, and the training workloads
  are the "no change" workloads for sampler changes.
"""

import json
import os
import time
import traceback
from dataclasses import fields, replace

import numpy as np
import scipy.sparse as sp

SHALLOW, DEEP = "shallow", "deep"


class Runner:
    """Times operations, runs their checks and counts failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.pass_seconds = 0.0
        self.steps = {SHALLOW: [], DEEP: []}
        self.epochs = 0
        self.notes = {}

    def reset_measurements(self):
        """Forget step times and epochs (after warm-up); keep the op counts."""
        self.steps = {SHALLOW: [], DEEP: []}
        self.epochs = 0
        self.notes = {}

    def call(self, label, fn, check=None):
        """Run fn once, timed; returns (result, seconds), or (None, s) on error.

        ``check`` maps the result to a list of problems. An operation that
        raises or has any problem counts as one failed operation.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # one failed operation; the run goes on
            seconds = time.perf_counter() - t0
            self.pass_seconds += seconds
            self._fail(label, [traceback.format_exc(limit=4)])
            return None, seconds
        seconds = time.perf_counter() - t0
        self.pass_seconds += seconds
        if check is not None:
            problems = check(result)
            if problems:
                self._fail(label, problems)
        return result, seconds

    def _fail(self, label, problems):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {'; '.join(problems)}")


def seed_stream(*key):
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


# ---- training workloads -------------------------------------------------------


def _heterophilic_edges(rng, labels, n_classes, n_edges, homophily):
    """Exactly n_edges distinct undirected edges; ~homophily of them same-class."""
    n = labels.size
    order = np.argsort(labels, kind="stable")
    count = np.bincount(labels, minlength=n_classes)
    start = np.concatenate([[0], np.cumsum(count)[:-1]])
    keys = np.empty(0, dtype=np.int64)
    while keys.size < n_edges:
        m = 2 * n_edges
        u = rng.integers(0, n, m)
        same = rng.random(m) < homophily
        shift = rng.integers(1, n_classes, m)
        cls = np.where(same, labels[u], (labels[u] + shift) % n_classes)
        v = order[start[cls] + (rng.random(m) * count[cls]).astype(np.int64)]
        ok = u != v
        lo, hi = np.minimum(u, v)[ok], np.maximum(u, v)[ok]
        keys = np.concatenate([keys, lo * n + hi])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    keys = keys[:n_edges]
    return np.stack([keys // n, keys % n], axis=1)


def _write_dataset(path, edges, features, labels, n_classes, feature_fmt):
    os.makedirs(path, exist_ok=True)
    np.savetxt(os.path.join(path, "edges.tsv"), edges, fmt="%d", delimiter="\t")
    np.savetxt(os.path.join(path, "features.tsv"), features, fmt=feature_fmt,
               delimiter="\t")
    np.savetxt(os.path.join(path, "labels.tsv"), labels, fmt="%d")
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump({"n_classes": n_classes}, fh)


class TrainWorkload:
    """Train at a few depths on one generated graph with the texas config."""

    setups_per_pass = 2

    def __init__(self, name, n_nodes, n_edges, n_features, schedule, epochs,
                 analyse):
        self.name = name
        self.n_nodes = n_nodes
        self.n_edges = n_edges
        self.n_features = n_features
        self.n_classes = 5
        self.schedule = schedule  # the depths trained in one pass, in order
        self.epochs = epochs
        self.analyse = analyse

    def make_inputs(self, pkg, seed, workdir):
        rng = seed_stream(seed, 1)
        n, f, c = self.n_nodes, self.n_features, self.n_classes
        if self.analyse:
            # Texas-like: skewed classes, sparse binary bag-of-words rows
            labels = rng.choice(c, size=n, p=[0.18, 0.05, 0.10, 0.55, 0.12])
            labels[: 2 * c] = np.arange(2 * c) % c
            word_prob = 0.04 * rng.random((c, f))
            features = (rng.random((n, f)) < word_prob[labels]).astype(np.int64)
            features[np.arange(n), rng.integers(0, f, n)] = 1
            fmt = "%d"
        else:
            labels = rng.integers(0, c, n)
            means = 0.5 * rng.standard_normal((c, f))
            features = means[labels] + rng.standard_normal((n, f))
            fmt = "%.17g"
        edges = _heterophilic_edges(rng, labels, c, self.n_edges, homophily=0.1)
        self.data_dir = os.path.join(workdir, self.name)
        _write_dataset(self.data_dir, edges, features, labels, c, fmt)
        expected = features.astype(np.float64)
        if self.analyse:
            expected = expected / expected.sum(axis=1, keepdims=True)
        self.expected = (labels, expected)

        spec = json.loads(pkg["configs"].joinpath("texas.json").read_text())
        model_keys = {fl.name for fl in fields(pkg["model"].M2mConfig)}
        self.config = replace(
            pkg["model"].M2mConfig(**{k: v for k, v in spec.items() if k in model_keys}),
            seed=seed)
        self.train_kw = {"lr": spec["lr"], "weight_decay": spec["weight_decay"]}
        self.seed = seed
        self.final_losses = {}

    def setup(self, pkg):
        graphs = pkg["graphs"]
        g = graphs.load_dataset(self.data_dir, row_normalize=self.analyse)
        return g, graphs.random_split(g, self.seed)

    def check_setup(self, state):
        g, split = state
        labels, features = self.expected
        problems = []
        if g.n_nodes != self.n_nodes or g.n_arcs != 2 * self.n_edges:
            problems.append(f"loaded {g.n_nodes} nodes / {g.n_arcs} arcs")
        if not np.array_equal(g.labels, labels):
            problems.append("labels differ from the generated ones")
        if g.features.shape != features.shape or not np.allclose(
                g.features, features, rtol=1e-15, atol=0.0):
            problems.append("features differ from the generated ones")
        if sum(split.sizes()) != self.n_nodes:
            problems.append("split does not cover every node")
        return problems

    def _train(self, pkg, runner, state, k, epochs):
        g, split = state
        config = replace(self.config, layers=k)
        kw = dict(self.train_kw, max_epochs=epochs, patience=epochs)

        def check(out):
            record, _ = out
            losses = record.train_losses + record.val_losses
            problems = []
            if not np.all(np.isfinite(losses)):
                problems.append("non-finite loss")
            if record.n_epochs != epochs:
                problems.append(f"ran {record.n_epochs} of {epochs} epochs")
            # training is deterministic, so every pass ends on the same loss
            first = self.final_losses.setdefault((k, epochs), record.train_losses[-1])
            if record.train_losses[-1] != first:
                problems.append(f"final loss {record.train_losses[-1]!r} differs "
                                f"from the first pass's {first!r}")
            return problems

        out, seconds = runner.call(
            f"train K={k}", lambda: pkg["training"].train(g, config, split, **kw),
            check)
        return config, out, seconds

    def warm_up(self, pkg, runner, state):
        # the deepest model grows the heap the most, so the first pass does
        # not pay the first-touch page faults of a fresh heap
        self._train(pkg, runner, state, max(self.schedule), 1)

    def run_pass(self, pkg, runner, state, setups):
        training = pkg["training"]
        g, _ = state
        for i, k in enumerate(self.schedule):
            if i == self.schedule.index(max(self.schedule)):
                # Loading a dataset churns memory that the next train call
                # pays to fault back in. Before the deepest call that cost
                # is smallest and lands on the same step every pass.
                setups()
            config, out, seconds = self._train(pkg, runner, state, k, self.epochs)
            if out is None:
                continue
            record, params = out
            runner.epochs += record.n_epochs
            per_epoch = seconds / record.n_epochs
            if k == min(self.schedule):
                runner.steps[SHALLOW].append(per_epoch)
            elif k == max(self.schedule):
                runner.steps[DEEP].append(per_epoch)
            runner.notes.setdefault(f"epoch_s.k{k}", []).append(per_epoch)
            if not self.analyse:
                continue
            runner.call(f"attention_analysis K={k}",
                        lambda: training.attention_analysis(g, params, config),
                        _check_attention)
            runner.call(f"mixing_score K={k}",
                        lambda: training.mixing_score(g, params, config),
                        _check_mixing)

    def report(self):
        return {f"final_train_loss.k{k}": repr(v)
                for (k, epochs), v in sorted(self.final_losses.items())
                if epochs == self.epochs}


def _check_attention(summary):
    problems = []
    scores = summary.avg_scores
    if scores.min() < 0 or not np.allclose(scores.sum(axis=1), 1.0, rtol=0, atol=1e-9):
        problems.append("layer-averaged attention rows do not sum to 1")
    if not np.allclose(summary.alignment.sum(axis=1), 1.0, rtol=0, atol=1e-9):
        problems.append("alignment rows do not sum to 1")
    return problems


def _check_mixing(score):
    return [] if 0.0 <= score <= 1.0 else [f"mixing score {score} outside [0, 1]"]


# ---- signed-CSBM analysis workload ----------------------------------------------


class AnalysisWorkload:
    """Signed-CSBM trials at two propagation depths, pooling and one audit."""

    name = "analysis-csbm"
    setups_per_pass = 50
    n_nodes, n_classes, p, q = 6000, 3, 0.003, 0.01
    shallow_k, deep_k = 2, 30
    trials_per_depth = 3  # the pooled gap check needs three deep trials
    concentration_trials = 2

    max_passes = 1000

    def make_inputs(self, pkg, seed, workdir):
        self.means = np.array([-0.5, 0.0, 0.5])
        # one row of sample seeds per pass: the trials, then the audit
        self.sample_seeds = seed_stream(seed, 2).integers(
            0, 2**31, size=(self.max_passes, 2 * self.trials_per_depth + 1))
        self.pass_index = 0

    def setup(self, pkg, index=0):
        """The parameter set-up of one pass: one CsbmParams per sample."""
        csbm = pkg["csbm"]
        return [csbm.CsbmParams(self.n_nodes, self.n_classes, self.p, self.q,
                                self.means, 1.0, seed=int(s))
                for s in self.sample_seeds[index]]

    def check_setup(self, params):
        ok = all(p.block_size * self.n_classes == self.n_nodes
                 and p.class_means.shape == (self.n_classes, 1) for p in params)
        return [] if ok else ["parameters do not describe the workload's CSBM"]

    def _trial(self, pkg, runner, params, k):
        csbm, signed = pkg["csbm"], pkg["signed"]
        graphs, multiset = pkg["graphs"], pkg["multiset"]
        n, c = self.n_nodes, self.n_classes

        def trial():
            s = csbm.sample_csbm(params)
            P, kept = csbm.signed_normalize(s)
            traj = signed.propagate_linear(P, s.features[kept], k, s.labels[kept], c)
            coo = s.adjacency.tocoo()
            upper = coo.row < coo.col
            g = graphs.build_graph(n, np.stack([coo.row[upper], coo.col[upper]], axis=1),
                                   s.features, s.labels, c)
            blocks = multiset.one_hop_desirable_m2m(s.features, g, s.labels, mode="mean")
            return s, P, kept, traj, blocks

        def check(out):
            s, P, kept, traj, blocks = out
            A = s.adjacency.tocsr()
            problems = []
            if abs(A - A.T).nnz:
                problems.append("adjacency not symmetric")
            if A.diagonal().any():
                problems.append("adjacency diagonal not zero")
            if not signed.is_desirable(P, s.labels[kept])[0]:
                problems.append("normalized operator not desirable")
            if not np.all(np.isfinite(traj.means)):
                problems.append("non-finite trajectory")
            absA = abs(A)
            deg = np.asarray(absA.sum(axis=1)).ravel()
            plain = absA @ s.features
            plain[deg > 0] /= deg[deg > 0, None]
            pooled = blocks.reshape(n, c, -1).sum(axis=1)
            if not np.allclose(pooled, plain, rtol=1e-12, atol=1e-12):
                problems.append("m2m mean blocks do not sum to the neighbor mean")
            return problems

        out, seconds = runner.call(f"trial K={k}", trial, check)
        runner.steps[SHALLOW if k == self.shallow_k else DEEP].append(seconds)
        runner.notes.setdefault(f"trial_s.k{k}", []).append(seconds)
        return None if out is None else out[3]

    def warm_up(self, pkg, runner, params):
        self._trial(pkg, runner, params[0], self.shallow_k)

    def run_pass(self, pkg, runner, _, setups):
        setups()
        signed = pkg["signed"]
        params = self.setup(pkg, self.pass_index)
        self.pass_index += 1
        deep = []
        for i in range(self.trials_per_depth):
            self._trial(pkg, runner, params[2 * i], self.shallow_k)
            traj = self._trial(pkg, runner, params[2 * i + 1], self.deep_k)
            if traj is not None:
                deep.append(traj)
        c, k = self.n_classes, self.deep_k

        def pool():
            merged = signed.merge_trajectories(deep)
            gaps = signed.class_gap(merged, 0, c - 1)
            zs = signed.z_score(merged, 0, 1)
            want = [signed.expected_gap(self.p, self.q, c, j, self.means[:1],
                                        self.means[-1:]) for j in range(k + 1)]
            return gaps, zs, np.asarray(want)

        def check_pool(out):
            # acceptance criterion 2: layers 1-10 contract at the closed-form
            # rate (p+q)/(p+(C-1)q) to within 15%
            gaps, zs, want = out
            ratio = float(np.mean(gaps[1:11] / gaps[:10]))
            target = float(want[1] / want[0])
            if not abs(ratio / target - 1.0) <= 0.15:
                return [f"gap ratio {ratio:.4f} vs closed form {target:.4f}"]
            if not np.all(np.isfinite(zs[:11])):
                return ["non-finite z-scores"]
            return []

        if len(deep) == self.trials_per_depth:
            runner.call("pool trajectories", pool, check_pool)

        def check_concentration(report):
            devs = report.deviations
            if devs.shape != (self.concentration_trials,) or not np.all(np.isfinite(devs)):
                return ["deviations missing or non-finite"]
            if not (report.bound > 0 and 0.0 <= report.fraction_within <= 1.0):
                return [f"bound {report.bound} / fraction {report.fraction_within}"]
            return []

        conc = params[-1]
        runner.call("concentration_check", lambda: signed.concentration_check(
            conc, k, self.concentration_trials, 1.0, 1.0, base_seed=conc.seed),
            check_concentration)

    def report(self):
        return {}


WORKLOADS = {
    "sweep-small": lambda: TrainWorkload("sweep-small", 183, 300, 1703,
                                         schedule=(2, 8, 32), epochs=10, analyse=True),
    # K=2 twice per pass: a K=8 call takes five times as long, and two
    # shallow samples per pass keep the shallow median as steady as the deep
    "train-large": lambda: TrainWorkload("train-large", 3000, 15000, 200,
                                         schedule=(2, 8, 2), epochs=2, analyse=False),
    "analysis-csbm": AnalysisWorkload,
}
