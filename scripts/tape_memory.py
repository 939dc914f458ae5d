"""Memory held by the training tape, and the peak RSS of one training epoch.

Builds a random graph of the ``train-large`` benchmark's shape (by default
3000 nodes, 15000 undirected edges, 200 features, 5 classes) and, with the
shipped texas config, prints one JSON line per depth K = 2, 8, 32:

* ``retained_mib``: tracemalloc bytes a training tape holds once
  ``forward`` and ``total_loss`` have run, that is what the backward pass
  can read. A record holds its output's gradient cell and only the arrays
  its backward reads, so a layer's message and a residual output that
  feeds a dropout are not among them;
* ``b_per_arc_layer``: the growth of that figure per added layer and arc,
  (retained(K) - retained(2)) / ((K - 2) * arcs), null at K = 2;
* ``records``: the number of records on the tape once ``forward`` and
  ``total_loss`` have run, the encoder's and the loss's included;
* ``records_per_layer``: the growth of that number per added layer,
  (records(K) - records(2)) / (K - 2), null at K = 2. The chunk-balance
  penalty is one record whatever K is, so this counts the layers' own;
* ``backward_transient_mib``: the tracemalloc peak while that tape's
  ``backward`` runs, minus the bytes traced just before it: what the
  backward allocates on top of what the tape retains. The records the pass
  frees offset the temporaries it makes later, so a change that shrinks
  the records can read a larger transient while the peak falls;
* ``backward_peak_mib``: that tracemalloc peak itself, tape and
  temporaries together, which is what a smaller tape lowers;
* ``retained_mib_by_function``: the same bytes grouped by the function of
  ``heterognn.autodiff`` that allocated them, largest first: the innermost
  frame of the allocation's traceback in that file, where an allocation in
  ``Tensor.__init__`` counts for the op that built the tensor. ``other``
  holds bytes allocated outside the file; entries under 0.005 MiB are left
  out;
* ``peak_rss_mib``: peak resident memory of a fresh process (imports and
  the graph included) that runs ``training.train`` for one epoch, and
  ``loss``, that epoch's training loss, which two versions of the code must
  print identically.

It uses the package under this checkout's ``src/``, so running it in two
checkouts compares them:

    python scripts/tape_memory.py [--nodes 3000] [--edges 15000]

On the default graph (30000 arcs, 2 vCPU Linux box, numpy 2.4, Python
3.11) the tape holds 11 records at K = 2 and retains 7.8, 17.3 and 55.5
MiB at K = 2, 8 and 32; a training layer makes 2 records and retains
about 55 B per arc, the backward's transient is about 8.6 MiB at every
depth, its peak is 16.4, 26.0 and 64.1 MiB, and K = 32 peaks at about
134 MiB of RSS. While dropout and the product after it were two records
and the product kept the dropped-out copy of its input, the tape held 14
records at K = 2 and retained 9.7, 19.2 and 57.3 MiB, and the backward
peaked at 18.3, 27.8 and 65.9 MiB. While the LayerNorm's rows were kept,
a layer made 3 records and retained about 119 B per arc.
"""

import argparse
import ast
import json
import multiprocessing
import os
import resource
import sys
import tracemalloc
from dataclasses import fields, replace
from importlib import resources

import numpy as np

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from heterognn import autodiff as ad  # noqa: E402
from heterognn.graphs import build_graph, random_split  # noqa: E402
from heterognn.model import M2mConfig, forward, init_params, total_loss  # noqa: E402
from heterognn.training import train  # noqa: E402

DEPTHS = (2, 8, 32)
N_FEATURES, N_CLASSES, SEED = 200, 5, 0
TRACE_FRAMES = 16  # deep enough to climb out of numpy and scipy into autodiff


def function_spans(path):
    """(def line, last line, qualified name) of every function in a file."""
    spans = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                spans.append((child.lineno, child.end_lineno, name))
                visit(child, name + ".<locals>.")

    with open(path, encoding="utf-8") as fh:
        visit(ast.parse(fh.read()), "")
    return spans


def bytes_by_function(snapshot):
    """Traced bytes grouped by the innermost autodiff function that
    allocated them (passing over Tensor.__init__), or ``other``."""
    path = os.path.abspath(ad.__file__)
    spans = function_spans(path)
    totals = {}
    for trace in snapshot.traces:
        name = "other"
        for frame in reversed(trace.traceback):  # innermost first
            if os.path.abspath(frame.filename) == path:
                # a def line runs in the enclosing function: it makes a closure
                enclosing = [(last - first, fn) for first, last, fn in spans
                             if first < frame.lineno <= last]
                name = min(enclosing)[1]
                if name != "Tensor.__init__":
                    break
        totals[name] = totals.get(name, 0) + trace.size
    return totals


def make_graph(n_nodes, n_edges):
    """A uniform random simple graph with Gaussian class-mean features."""
    rng = np.random.default_rng(SEED)
    keys = np.empty(0, dtype=np.int64)
    while keys.size < n_edges:
        u, v = rng.integers(0, n_nodes, (2, 2 * n_edges))
        ok = u != v
        fresh = np.minimum(u, v)[ok] * n_nodes + np.maximum(u, v)[ok]
        keys = np.unique(np.concatenate([keys, fresh]))
    keys = rng.permutation(keys)[:n_edges]
    labels = rng.integers(0, N_CLASSES, n_nodes)
    means = 0.5 * rng.standard_normal((N_CLASSES, N_FEATURES))
    features = means[labels] + rng.standard_normal((n_nodes, N_FEATURES))
    return build_graph(n_nodes, np.stack(np.divmod(keys, n_nodes), axis=1),
                       features, labels, N_CLASSES)


def texas_config(layers):
    """(M2mConfig, train keywords) of the shipped texas config at this depth."""
    text = resources.files("heterognn").joinpath("configs", "texas.json").read_text()
    spec = json.loads(text)
    names = {f.name for f in fields(M2mConfig)}
    config = M2mConfig(**{k: v for k, v in spec.items() if k in names})
    return (replace(config, layers=layers, seed=SEED),
            {"lr": spec["lr"], "weight_decay": spec["weight_decay"]})


def retained_bytes(g, layers):
    """Traced bytes a training tape holds after forward and total_loss, in
    all and by allocating autodiff function, the records they made, and the
    traced peak of its backward, absolute and above the bytes traced just
    before it."""
    config, _ = texas_config(layers)
    params = init_params(config, g.n_features, g.n_classes)
    split = random_split(g, SEED)
    tracemalloc.start(TRACE_FRAMES)
    try:
        tape = ad.Tape()
        result = forward(tape, params, g, config, training=True,
                         rng=np.random.default_rng(SEED))
        loss = total_loss(tape, result, g.labels, split.train, config)
        records = len(tape._nodes)
        held = tracemalloc.get_traced_memory()[0]
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del tape, result, loss
    return held, bytes_by_function(snapshot), records, (peak - before, peak)


def one_epoch(job):
    """Peak RSS (MiB) and loss of one training epoch at depth K, in a
    process of its own."""
    n_nodes, n_edges, layers = job
    g = make_graph(n_nodes, n_edges)
    config, kw = texas_config(layers)
    split = random_split(g, SEED)
    record, _ = train(g, config, split, max_epochs=1, patience=1, **kw)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return peak, record.train_losses[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=3000)
    parser.add_argument("--edges", type=int, default=15000)
    args = parser.parse_args(argv)
    if args.nodes < 2 or not 0 < args.edges <= args.nodes * (args.nodes - 1) // 2:
        parser.error("need at least 2 nodes and 1 to N(N-1)/2 edges")

    # one task per fresh worker, so each peak RSS belongs to one depth; they
    # run first because Linux carries the peak RSS of this process, as it
    # stood when a worker started, into the worker's own
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=1, maxtasksperchild=1) as pool:
        epochs = pool.map(one_epoch, [(args.nodes, args.edges, k) for k in DEPTHS],
                          chunksize=1)
    g = make_graph(args.nodes, args.edges)
    held, by_function, records, backward = {}, {}, {}, {}
    for k in DEPTHS:
        held[k], by_function[k], records[k], backward[k] = retained_bytes(g, k)
    for k, (peak, loss) in zip(DEPTHS, epochs):
        slope = per_layer = None
        if k > DEPTHS[0]:
            slope = round((held[k] - held[DEPTHS[0]])
                          / ((k - DEPTHS[0]) * g.n_arcs), 1)
            per_layer = (records[k] - records[DEPTHS[0]]) / (k - DEPTHS[0])
        functions = sorted(by_function[k].items(), key=lambda kv: -kv[1])
        print(json.dumps({
            "k": k, "nodes": g.n_nodes, "arcs": g.n_arcs,
            "retained_mib": round(held[k] / 2**20, 1), "b_per_arc_layer": slope,
            "records": records[k], "records_per_layer": per_layer,
            "backward_transient_mib": round(backward[k][0] / 2**20, 1),
            "backward_peak_mib": round(backward[k][1] / 2**20, 1),
            "peak_rss_mib": round(peak, 1), "loss": loss,
            "retained_mib_by_function": {name: round(size / 2**20, 2)
                                         for name, size in functions
                                         if size >= 0.005 * 2**20},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
