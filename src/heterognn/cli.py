"""Command-line front end: every experiment as one subcommand.

Each run is seeded, writes CSV (plus a `.config.json` sidecar recording the
resolved options next to the output), and is byte-reproducible for a fixed
(config, seed) apart from the single `# generated ...` timestamp line at the
top of each CSV. Exit codes: 0 success, 1 runtime failure, 2 usage error.
Every flag is checked against its rule in `FLAG_RULES` before any command
runs, and a bad value exits 1 naming the flag.
The `HETEROGNN_DATA` environment variable supplies the default root for
dataset directories named on the command line.
"""

import argparse
import csv
import json
import os
import sys
from concurrent import futures
from dataclasses import replace
from datetime import datetime, timezone
from functools import partial
from importlib import resources

import numpy as np

from . import __version__
from .csbm import CsbmParams, label_signed_sample, sample_csbm, signed_normalize
from .graphs import (
    DatasetFormatError,
    Graph,
    build_graph,
    edge_homophily,
    load_dataset,
    random_split,
    save_dataset,
)
from .model import (
    CONFIG_RULES,
    M2mConfig,
    check_hyperparameter,
    load_checkpoint,
    save_checkpoint,
)
from .multiset import (
    Partition,
    VectorMultiset,
    chunked_distance,
    d_hop_oracle,
    m2e_pool,
    m2m_expected_step,
    m2m_pool,
    maxima_first_partition,
    relu_contraction_check,
    stacked_one_hop,
)
from .signed import (
    class_gap,
    concentration_check,
    csbm_trajectory,
    cumulative_matrix,
    expected_gap,
    expected_trajectory,
    is_desirable,
    merge_trajectories,
    sign_flip_counterexample,
    z_score,
)
from .training import (
    TRAIN_RULES,
    TrainingDiverged,
    ablate,
    attention_analysis,
    depth_sweep,
    mixing_score_from_scores,
    train,
)

MODEL_KEYS = set(CONFIG_RULES)
TRAIN_KEYS = set(TRAIN_RULES)
_COUNT = (int, lambda v: v >= 1, "must be at least 1")
_AT_LEAST_0 = (float, lambda v: v >= 0, "must be at least 0")
_PROBABILITY = (float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
# (kind, in_range, requirement) of each flag's dest, as check_hyperparameter
# takes it: model and training flags share the config fields' rules, and
# each value of a list flag follows the rule of the field it feeds
FLAG_RULES = {
    **CONFIG_RULES, **TRAIN_RULES, "split_seed": CONFIG_RULES["seed"],
    "k_list": CONFIG_RULES["layers"], "chunks_list": CONFIG_RULES["chunks"],
    "lambda_list": CONFIG_RULES["reg_strength"],
    **dict.fromkeys(("nodes", "classes", "trials", "splits", "jobs"), _COUNT),
    "show": (int, lambda v: v >= 0, "must be at least 0"),
    **dict.fromkeys(("noise_var", "r", "atol"), _AT_LEAST_0),
    "p": _PROBABILITY, "q": _PROBABILITY,
    "sigma": (float, lambda v: v > 0, "must be positive"),
    "means": (float, lambda v: True, ""),
}
# simulate and concentration take K = 0, the vacuous case
COMMAND_RULES = dict.fromkeys([("simulate", "layers"), ("concentration", "layers")],
                              (int, lambda v: v >= 0, "must be nonnegative"))
UNCHECKED = {"command", "func", "config", "data", "out", "checkpoint",
             "save_checkpoint", "demo", "row_normalize"}  # paths and switches


# ---- plumbing ----------------------------------------------------------------


def _resolve_data(name: str) -> str:
    """A dataset argument is a directory, or a name under HETEROGNN_DATA."""
    if os.path.isdir(name):
        return name
    root = os.environ.get("HETEROGNN_DATA")
    if root:
        candidate = os.path.join(root, name)
        if os.path.isdir(candidate):
            return candidate
    raise FileNotFoundError(
        f"no dataset directory {name!r} (set HETEROGNN_DATA or pass a path)"
    )


def _config_text(name: str) -> str:
    """Read a config by path, or by shipped name (e.g. 'texas')."""
    if os.path.isfile(name):
        with open(name, encoding="utf-8") as fh:
            return fh.read()
    packaged = resources.files("heterognn").joinpath("configs", name + ".json")
    if packaged.is_file():
        return packaged.read_text(encoding="utf-8")
    raise FileNotFoundError(
        f"no config file or shipped config named {name!r} "
        f"(shipped: default, texas, wisconsin, cornell, cora)"
    )


def _load_run_config(args):
    """Merge shipped/user JSON with explicit flags; flags win.

    Each file value that no flag overrides is checked on its own, naming the
    config file and its field (`main` checks flags). Sets ``args.seed`` to
    the seed in use, so the sidecar records it.
    """
    where = f"config {args.config!r}"
    try:
        payload = json.loads(_config_text(args.config))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{where}: not a JSON object")
    unknown = set(payload) - MODEL_KEYS - TRAIN_KEYS
    if unknown:
        raise ValueError(f"{where}: unknown config keys: {sorted(unknown)}")
    flags = {key: getattr(args, key) for key in MODEL_KEYS | TRAIN_KEYS
             if getattr(args, key, None) is not None}
    for key, value in payload.items():
        if key not in flags:
            try:
                check_hyperparameter(key, value, *FLAG_RULES[key])
            except ValueError as exc:
                raise ValueError(f"{where}, field {key!r}: {exc}") from None
    payload.update(flags)
    model = {k: v for k, v in payload.items() if k in MODEL_KEYS}
    train_kw = {k: v for k, v in payload.items() if k in TRAIN_KEYS}
    try:
        config = M2mConfig(**model)
    except (TypeError, ValueError) as exc:  # a missing field, or hidden % chunks
        given = f" with {', '.join(sorted(map(_flag, flags)))}" if flags else ""
        raise ValueError(f"{where}{given}: {exc}") from None
    args.seed = config.seed
    return config, train_kw


def _write_csv(path: str, fields, rows):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# generated {stamp}\n")
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows(rows)


def _write_sidecar(out_path: str, args):
    """Record the resolved options next to the output they produced."""
    options = {k: v for k, v in vars(args).items() if k != "func"}
    if os.path.isdir(out_path):
        side = os.path.join(out_path, "config.json")
    else:
        side = os.path.splitext(out_path)[0] + ".config.json"
    payload = {
        "command": args.command,
        "version": __version__,
        "options": options,
    }
    with open(side, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _pmap(fn, items, jobs: int):
    """[fn(item) for item in items], in at most one process per item.

    A fork-started pool launches all of its workers at the first submit, so
    the pool is sized to the items, and one item runs in this process.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _parse_means(text, n_classes: int) -> np.ndarray:
    if text is None:
        return np.linspace(-0.5, 0.5, n_classes)
    values = _number_list(text, "--means", float)
    if len(values) != n_classes:
        raise ValueError(f"--means needs {n_classes} comma-separated values, "
                         f"got {len(values)}")
    return np.asarray(values)


def _number_list(text: str, flag: str, kind):
    """The comma-separated values of a list flag, at least one, each a kind."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated {kind.__name__} "
                         f"values, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} needs at least one value, got {text!r}")
    return values


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _check_flags(args):
    """Check each flag against its rule, each value of a list flag (text) on
    its own, and raise ValueError naming the flag; ``args`` stays as parsed."""
    for dest, value in vars(args).items():
        if dest in UNCHECKED or value is None:
            continue
        flag = _flag(dest)
        rule = COMMAND_RULES.get((args.command, dest), FLAG_RULES[dest])
        values = _number_list(value, flag, rule[0]) if isinstance(value, str) else [value]
        try:
            for v in values:
                check_hyperparameter(dest, v, *rule)
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from None


# ---- synthetic-data commands ---------------------------------------------------


def cmd_gen_csbm(args) -> int:
    means = _parse_means(args.means, args.classes)
    params = CsbmParams(args.nodes, args.classes, args.p, args.q, means,
                        args.noise_var, args.seed)
    sample = sample_csbm(params)
    adjacency = sample.adjacency
    g = Graph(params.n_nodes, adjacency.indices, adjacency.indptr,
              sample.features, sample.labels, params.n_classes)
    save_dataset(args.out, g, arc_signs=adjacency.data[g.arc_dst < g.arc_src])
    _write_sidecar(args.out, args)
    print(f"wrote {g.n_nodes} nodes, {g.n_edges} edges, "
          f"homophily={edge_homophily(g):.2f} to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    means = _parse_means(args.means, args.classes)
    trials = [CsbmParams(args.nodes, args.classes, args.p, args.q, means,
                         args.noise_var, args.seed + t)
              for t in range(args.trials)]
    merged = merge_trajectories(
        _pmap(partial(csbm_trajectory, K=args.layers), trials, args.jobs))
    rows = []
    for a in range(args.classes):
        for b in range(a + 1, args.classes):
            gaps = class_gap(merged, a, b)
            zs = z_score(merged, a, b)
            for k in range(args.layers + 1):
                want = expected_gap(args.p, args.q, args.classes, k,
                                    means[a : a + 1], means[b : b + 1])
                rows.append((k, a, b, gaps[k], want, zs[k]))
    _write_csv(args.out, ["layer", "class_a", "class_b", "empirical_gap",
                          "expected_gap", "z"], rows)
    _write_sidecar(args.out, args)
    print(f"wrote {len(rows)} rows ({args.trials} trials pooled) to {args.out}")
    return 0


def cmd_concentration(args) -> int:
    means = _parse_means(args.means, args.classes)
    params = CsbmParams(args.nodes, args.classes, args.p, args.q, means,
                        args.sigma ** 2, args.seed)
    report = concentration_check(params, args.layers, args.trials,
                                 args.sigma, args.r, base_seed=args.seed)
    rows = [
        (t, dev, report.bound, int(dev <= report.bound))
        for t, dev in enumerate(report.deviations)
    ]
    _write_csv(args.out, ["trial", "deviation", "bound", "within"], rows)
    _write_sidecar(args.out, args)
    print(f"bound={report.bound:.6g} fraction_within={report.fraction_within:.3f} "
          f"kappa={report.kappa:.6g} precondition_met={report.precondition_met} "
          f"vacuous={report.vacuous}")
    return 0


# ---- audits and theory -----------------------------------------------------


def _print_sign_flip_demo():
    ex = sign_flip_counterexample()
    print("3-node path, one class per node, both edges negative:")
    for k, layer in enumerate(ex.layers, start=1):
        ok = "desirable" if ex.layers_desirable[k - 1] else "NOT desirable"
        print(f"layer {k} ({ok}):")
        for row in layer:
            print("  " + "  ".join(f"{v:+.0f}" for v in row))
    print("two-hop cumulative matrix "
          f"({'desirable' if ex.cumulative_desirable else 'NOT desirable'}):")
    for row in ex.cumulative:
        print("  " + "  ".join(f"{v:+.0f}" for v in row))
    for i, j, value in ex.violations:
        print(f"violation: entry ({i}, {j}) = {value:+g} couples the "
              f"distinct classes {ex.labels[i]} and {ex.labels[j]}")


def cmd_desirability(args) -> int:
    if args.demo:
        _print_sign_flip_demo()
        return 0
    if not args.data:
        raise ValueError("desirability needs a dataset directory or --demo")
    g = load_dataset(_resolve_data(args.data))
    if g.n_arcs == 0:
        raise ValueError("dataset has no edges to audit")
    P, kept = signed_normalize(label_signed_sample(g))
    cumulative = cumulative_matrix([P] * args.layers)
    labels = g.labels[kept]
    ok, violations = is_desirable(cumulative, labels, atol=args.atol)
    per_layer_ok, _ = is_desirable(P, labels, atol=args.atol)
    print(f"single-layer signs from labels: "
          f"{'desirable' if per_layer_ok else 'NOT desirable'}")
    print(f"{args.layers}-layer cumulative: "
          f"{'desirable' if ok else 'NOT desirable'} "
          f"({len(violations)} violating entries)")
    for i, j, value in violations[: args.show]:
        print(f"  ({i}, {j}) = {value:+.3e} "
              f"[classes {labels[i]} vs {labels[j]}]")
    if len(violations) > args.show:
        print(f"  ... and {len(violations) - args.show} more")
    return 0


def _check_walk_equivalence(rng) -> bool:
    for _ in range(6):
        n = int(rng.integers(4, 10))
        n_classes = int(rng.integers(2, 4))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        if not edges:
            edges = [(0, 1)]
        g = build_graph(n, edges, rng.normal(size=(n, 2)),
                        rng.integers(0, n_classes, size=n), n_classes)
        for d in (2, 3):
            fast = stacked_one_hop(g.features, g, g.labels, d)
            slow = d_hop_oracle(g.features, g, g.labels, d)
            if not np.allclose(fast, slow, atol=1e-9):
                return False
    return True


def _check_distance_domination(rng) -> bool:
    for _ in range(300):
        n = int(rng.integers(1, 6))
        f = int(rng.integers(1, 4))
        a = VectorMultiset(rng.normal(size=(n, f)))
        b = VectorMultiset(rng.normal(size=(n, f)))
        groups = int(rng.integers(1, 4))
        part = Partition(rng.integers(0, groups, size=n), groups)
        for mode in ("sum", "mean"):
            left = chunked_distance(m2m_pool(a, part, mode=mode),
                                    m2m_pool(b, part, mode=mode), groups)
            right = np.linalg.norm(m2e_pool(a, mode=mode) - m2e_pool(b, mode=mode))
            if left < right - 1e-12:
                return False
        arranged = maxima_first_partition(a, b)
        left = np.linalg.norm(m2m_pool(a, arranged, mode="max")
                              - m2m_pool(b, arranged, mode="max"))
        right = np.linalg.norm(m2e_pool(a, mode="max") - m2e_pool(b, mode="max"))
        if left < right - 1e-12:
            return False
    return True


def _check_expected_step_separation() -> bool:
    p, q, n_classes = 0.003, 0.01, 3
    v = np.array([[0.6, -0.8]])
    priors = np.vstack([v, -v, np.zeros((1, 2))])
    _, bounds = m2m_expected_step(p, q, n_classes, priors)
    den = p + (n_classes - 1) * q
    want = abs(p - q) / den * 2.0 * np.linalg.norm(v)
    if abs(bounds[0, 1] - want) > 1e-12:
        return False
    flat = expected_trajectory(p, q, n_classes, priors, 1)
    collapsed_gap = np.linalg.norm(flat[1, 0] - flat[1, 1])
    expected_collapse = (p + q) / den * np.linalg.norm(priors[0] - priors[1])
    return abs(collapsed_gap - expected_collapse) < 1e-12 and want > 0


def _check_relu_contraction(rng) -> bool:
    for _ in range(300):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        a = rng.normal(size=shape) * rng.uniform(0.1, 5)
        b = rng.normal(size=shape) * rng.uniform(0.1, 5)
        if not relu_contraction_check(a, b):
            return False
    return True


def _check_recursion_closed_form() -> bool:
    for p in (0.001, 0.003, 0.05):
        for q in (0.001, 0.01):
            for n_classes in (2, 3, 5):
                means0 = np.linspace(-0.5, 0.5, n_classes)[:, None]
                for K in (1, 10, 50):
                    flat = expected_trajectory(p, q, n_classes, means0, K)
                    for a in range(n_classes):
                        for b in range(a + 1, n_classes):
                            got = np.linalg.norm(flat[K, a] - flat[K, b])
                            want = expected_gap(p, q, n_classes, K,
                                                means0[a], means0[b])
                            if abs(got - want) > 1e-12:
                                return False
    return True


def cmd_theory_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    checks = [
        ("stacked one-hop layers equal the d-hop walk oracle",
         lambda: _check_walk_equivalence(rng)),
        ("blockwise distances dominate collapsed distances",
         lambda: _check_distance_domination(rng)),
        ("one expected step separates classes the flat mean collapses",
         _check_expected_step_separation),
        ("elementwise ReLU never expands distances",
         lambda: _check_relu_contraction(rng)),
        ("mean recursion matches its closed form",
         _check_recursion_closed_form),
    ]
    failed = 0
    for name, check in checks:
        ok = check()
        print(f"{'ok' if ok else 'FAIL'}: {name}")
        failed += 0 if ok else 1
    return 1 if failed else 0


# ---- model commands ----------------------------------------------------------


def _call_on_split(payload):
    fn, g, config, split, kwargs = payload
    return fn(g, config, split=split, **kwargs)


def _run_splits(args, fn, n_splits, jobs=1, **kwargs):
    """Load a model command's dataset and config, then run, for each split s,
    ``fn(g, config, split=split, **kwargs, **training options)`` with the
    config's seed + s and split ``random_split(seed=--split-seed + s)``.
    Return the graph, the dataset's name and the results in split order."""
    data_dir = _resolve_data(args.data)
    g = load_dataset(data_dir, row_normalize=args.row_normalize)
    config, train_kw = _load_run_config(args)
    payloads = [
        (fn, g, replace(config, seed=config.seed + s),
         random_split(g, seed=args.split_seed + s), {**kwargs, **train_kw})
        for s in range(n_splits)
    ]
    dataset = os.path.basename(os.path.normpath(data_dir))
    return g, dataset, _pmap(_call_on_split, payloads, jobs)


def cmd_train(args) -> int:
    g, dataset, results = _run_splits(args, train, args.splits, args.jobs)
    rows, best = [], None
    for s, (record, params) in enumerate(results):
        rows.append((dataset, record.seed, s, record.config.layers,
                     record.test_accuracy))
        print(f"split {s}: acc={record.test_accuracy:.4f} "
              f"(best epoch {record.best_epoch} of {record.n_epochs})")
        if best is None or record.test_accuracy > best[0].test_accuracy:
            best = (record, params)
    accs = [r[-1] for r in rows]
    print(f"mean={np.mean(accs):.4f} std={np.std(accs):.4f} "
          f"over {args.splits} splits")
    _write_csv(args.out, ["dataset", "seed", "split", "K", "acc"], rows)
    _write_sidecar(args.out, args)
    if args.save_checkpoint:
        record, params = best
        save_checkpoint(args.save_checkpoint, params, record.config,
                        g.n_features, g.n_classes,
                        extra={"dataset": dataset,
                               "test_accuracy": record.test_accuracy})
        print(f"checkpoint written to {args.save_checkpoint}.json/.bin")
    return 0


def cmd_sweep_depth(args) -> int:
    k_values = _number_list(args.k_list, "--k-list", int)
    _, dataset, results = _run_splits(args, depth_sweep, args.splits,
                                      args.jobs, k_values=k_values)
    rows = []
    for s, sweep in enumerate(results):
        for k, record in sweep:
            rows.append((dataset, record.seed, s, k, record.test_accuracy))
    for k in k_values:
        accs = [acc for (_, _, _, kk, acc) in rows if kk == k]
        print(f"K={k}: mean acc {np.mean(accs):.4f} over {len(accs)} splits")
    _write_csv(args.out, ["dataset", "seed", "split", "K", "acc"], rows)
    _write_sidecar(args.out, args)
    return 0


def cmd_analyze_attention(args) -> int:
    if args.checkpoint:
        g = load_dataset(_resolve_data(args.data),
                         row_normalize=args.row_normalize)
        config, params, n_feat, n_cls = load_checkpoint(args.checkpoint)
        if n_feat != g.n_features or n_cls != g.n_classes:
            raise ValueError(
                f"checkpoint was trained on {n_feat} features / {n_cls} "
                f"classes; dataset has {g.n_features} / {g.n_classes}"
            )
    else:
        g, _, [(record, params)] = _run_splits(args, train, 1)
        config = record.config
        print(f"trained to test acc {record.test_accuracy:.4f} "
              f"for the analysis pass")
    summary = attention_analysis(g, params, config)
    rows = [
        (i, j, summary.alignment[i, j])
        for i in range(g.n_classes)
        for j in range(g.n_classes)
    ]
    _write_csv(args.out, ["class_row", "class_col", "value"], rows)
    _write_sidecar(args.out, args)
    dominant = summary.diagonal_dominant_count()
    print(f"diagonal-dominant columns: {dominant} of {g.n_classes}")
    print(f"chunk permutation: {summary.permutation.tolist()}")
    print(f"mixing score: {mixing_score_from_scores(g, summary.avg_scores):.4f}")
    return 0


def cmd_ablate(args) -> int:
    grid = [(c, l) for c in _number_list(args.chunks_list, "--chunks-list", int)
            for l in _number_list(args.lambda_list, "--lambda-list", float)]
    k_values = _number_list(args.k_list, "--k-list", int)
    _, _, results = _run_splits(args, ablate, args.splits, args.jobs,
                                grid=grid, k_values=k_values)
    rows = []
    for cell in range(len(grid)):
        per_split = [result[cell] for result in results]
        rows.append((
            per_split[0]["chunks"],
            per_split[0]["lambda"],
            float(np.mean([r["mixing"] for r in per_split])),
            float(np.mean([r["best_acc"] for r in per_split])),
            float(np.mean([r["acc_k32"] for r in per_split])),
        ))
    _write_csv(args.out, ["chunks", "lambda", "mixing", "best_acc", "acc_k32"],
               rows)
    _write_sidecar(args.out, args)
    for chunks, lam, mixing, best_acc, acc_deep in rows:
        print(f"chunks={chunks} lambda={lam}: mixing={mixing:.3f} "
              f"best_acc={best_acc:.4f} deep_acc={acc_deep:.4f}")
    return 0


def cmd_dataset_info(args) -> int:
    g = load_dataset(_resolve_data(args.data),
                     row_normalize=args.row_normalize)
    print(f"N={g.n_nodes}")
    print(f"E={g.n_edges}")
    print(f"d={g.n_features}")
    print(f"C={g.n_classes}")
    print(f"homophily={edge_homophily(g):.2f}")
    return 0


# ---- parser ------------------------------------------------------------------


def _add_csbm_flags(sub, with_noise=True):
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sub.add_argument("--nodes", "-N", type=int, default=3000,
                     help="number of nodes")
    sub.add_argument("--classes", "-C", type=int, default=3,
                     help="number of classes")
    sub.add_argument("--p", type=float, default=0.003,
                     help="same-class edge probability")
    sub.add_argument("--q", type=float, default=0.01,
                     help="cross-class edge probability")
    sub.add_argument("--means", type=str, default=None,
                     help="comma-separated class means; default spaces them "
                          "evenly over [-0.5, 0.5] (use --means=-0.5,0,0.5 "
                          "for values starting with a dash)")
    if with_noise:
        sub.add_argument("--noise-var", type=float, default=1.0,
                         help="feature noise variance")


def _add_model_flags(sub):
    sub.add_argument("--data", type=str, required=True,
                     help="dataset directory or name under HETEROGNN_DATA")
    sub.add_argument("--config", type=str, default="default",
                     help="config JSON path or shipped name "
                          "(default/texas/wisconsin/cornell/cora)")
    sub.add_argument("--hidden", type=int, default=None, help="embedding width")
    sub.add_argument("--chunks", type=int, default=None, help="chunk count")
    sub.add_argument("--layers", type=int, default=None, help="layer count")
    sub.add_argument("--alpha", type=float, default=None,
                     help="ego weight in the score blend")
    sub.add_argument("--beta", type=float, default=None,
                     help="message weight in the residual update")
    sub.add_argument("--temperature", type=float, default=None,
                     help="score softmax temperature")
    sub.add_argument("--reg-strength", type=float, default=None,
                     help="chunk-balance penalty weight")
    sub.add_argument("--keep-prob", type=float, default=None,
                     help="dropout keep probability")
    sub.add_argument("--lr", type=float, default=None, help="Adam step size")
    sub.add_argument("--weight-decay", type=float, default=None,
                     help="decoupled weight decay")
    sub.add_argument("--max-epochs", type=int, default=None,
                     help="epoch budget")
    sub.add_argument("--patience", type=int, default=None,
                     help="early-stopping patience (epochs)")
    sub.add_argument("--row-normalize", action="store_true",
                     help="L1-normalize feature rows on load")
    sub.add_argument("--split-seed", type=int, default=0,
                     help="base seed for the random splits")
    # like the flags above, --seed overrides the config file only when given
    sub.add_argument("--seed", type=int, default=None,
                     help="base RNG seed (default: the config's seed)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heterognn",
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="command")

    def command(name, handler, help_text):
        sub = commands.add_parser(
            name, help=help_text, description=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sub.set_defaults(func=handler)
        return sub

    sub = command("gen-csbm", cmd_gen_csbm,
                  "sample a signed two-block-probability graph to a "
                  "dataset directory")
    _add_csbm_flags(sub)
    sub.add_argument("--out", type=str, required=True,
                     help="dataset directory to write")

    sub = command("simulate", cmd_simulate,
                  "propagate sampled graphs and compare class-mean gaps "
                  "with the closed form")
    _add_csbm_flags(sub)
    sub.add_argument("--layers", "-K", type=int, default=30,
                     help="propagation depth")
    sub.add_argument("--trials", type=int, default=20,
                     help="independent samples to pool")
    sub.add_argument("--jobs", type=int, default=1,
                     help="parallel workers across trials")
    sub.add_argument("--out", type=str, default="trajectory.csv",
                     help="output CSV")

    sub = command("concentration", cmd_concentration,
                  "audit the high-probability deviation bound on sampled "
                  "graphs")
    _add_csbm_flags(sub, with_noise=False)
    sub.add_argument("--sigma", type=float, default=1.2,
                     help="noise scale (bound and sampling)")
    sub.add_argument("--r", type=float, default=1.0,
                     help="bound on the class-mean magnitudes")
    sub.add_argument("--layers", "-K", type=int, default=5,
                     help="propagation depth")
    sub.add_argument("--trials", type=int, default=20,
                     help="independent samples")
    sub.add_argument("--out", type=str, default="concentration.csv",
                     help="output CSV")

    sub = command("desirability", cmd_desirability,
                  "audit cumulative propagation signs against classes, or "
                  "print the sign-flip construction")
    sub.add_argument("data", nargs="?", default=None,
                     help="dataset directory (signs derived from labels)")
    sub.add_argument("--demo", action="store_true",
                     help="print the 3-node two-negative-edges construction")
    sub.add_argument("--layers", "-K", type=int, default=2,
                     help="composition depth to audit")
    sub.add_argument("--atol", type=float, default=1e-12,
                     help="magnitude below which entries count as zero")
    sub.add_argument("--show", type=int, default=10,
                     help="violations to print")

    sub = command("theory-check", cmd_theory_check,
                  "run the randomized self-checks for the core claims")
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed")

    sub = command("train", cmd_train,
                  "train on a dataset over several random splits")
    _add_model_flags(sub)
    sub.add_argument("--splits", type=int, default=10,
                     help="number of random splits")
    sub.add_argument("--jobs", type=int, default=1,
                     help="parallel workers across splits")
    sub.add_argument("--save-checkpoint", type=str, default=None,
                     help="write the best split's weights to this base path")
    sub.add_argument("--out", type=str, default="accuracy.csv",
                     help="output CSV")

    sub = command("sweep-depth", cmd_sweep_depth,
                  "retrain at several depths and record accuracy per K")
    _add_model_flags(sub)
    sub.add_argument("--k-list", type=str, default="2,4,8,16,32",
                     help="comma-separated layer counts")
    sub.add_argument("--splits", type=int, default=3,
                     help="number of random splits")
    sub.add_argument("--jobs", type=int, default=1,
                     help="parallel workers across splits")
    sub.add_argument("--out", type=str, default="accuracy.csv",
                     help="output CSV")

    sub = command("analyze-attention", cmd_analyze_attention,
                  "align layer-averaged arc scores with classes "
                  "(needs chunks == classes)")
    _add_model_flags(sub)
    sub.add_argument("--checkpoint", type=str, default=None,
                     help="reuse trained weights instead of training")
    sub.add_argument("--out", type=str, default="attention.csv",
                     help="output CSV")

    sub = command("ablate", cmd_ablate,
                  "sweep (chunks, penalty weight) cells and record mixing "
                  "and accuracy")
    _add_model_flags(sub)
    sub.add_argument("--chunks-list", type=str, default="1,5",
                     help="comma-separated chunk counts")
    sub.add_argument("--lambda-list", type=str, default="0,0.5",
                     help="comma-separated penalty weights")
    sub.add_argument("--k-list", type=str, default="2,4,8,16,32",
                     help="depths swept inside each cell")
    sub.add_argument("--splits", type=int, default=1,
                     help="number of random splits to average")
    sub.add_argument("--jobs", type=int, default=1,
                     help="parallel workers across splits")
    sub.add_argument("--out", type=str, default="ablation.csv",
                     help="output CSV")

    sub = command("dataset-info", cmd_dataset_info,
                  "print node/edge/class counts and edge homophily")
    sub.add_argument("data", help="dataset directory or name under "
                                  "HETEROGNN_DATA")
    sub.add_argument("--row-normalize", action="store_true",
                     help="L1-normalize feature rows on load")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        _check_flags(args)
        return args.func(args)
    except (ValueError, OSError, KeyError, DatasetFormatError,
            TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
