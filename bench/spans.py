"""Spans around the public calls of the heterognn layers, installed from outside.

The tracer wraps a fixed table of public functions and methods by replacing
them in every loaded ``heterognn`` module (and, for methods, on the class),
so calls made inside the package, such as ``training.train`` calling its own
imported ``forward``, are caught too. Nothing in the package is edited.

Each call records one span: name, start, end and the span that was open when
it began. Spans are kept in flat arrays and written out when the run ends. A
layer's self time is its span's duration minus the duration of its direct
child spans; calls within one thread nest properly, so this is exactly the
part of the interval that no child covers.

The table is fixed on purpose: a function added later is not wrapped, so its
time stays in the self time of the layer that calls it instead of vanishing
from the report. A listed function that no longer exists is skipped and its
metrics read 0.
"""

import inspect
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

# Tape ops the model calls. sum_all and l2_norm are wrapped too, although no
# workload calls them, so that their spans land in the trace file.
TAPE_OPS = (
    "add", "scale", "mul", "matmul", "relu", "concat_cols", "slice_cols",
    "row_gather", "segment_sum", "sum_rows", "l2_norm_sq", "row_softmax",
    "layer_norm", "dropout", "cross_entropy",
)
UNREPORTED_TAPE_OPS = ("sum_all", "l2_norm")

# (module, function) pairs; the span is named "<module>.<function>".
# model.forward, training.train and csbm.sample_csbm have wrappers of their
# own below.
FUNCTIONS = (
    ("graphs", "load_dataset"), ("graphs", "build_graph"),
    ("model", "encode"), ("model", "attention_scores"),
    ("model", "chunk_aggregate"), ("model", "layer_update"),
    ("model", "total_loss"),
    ("training", "attention_analysis"), ("training", "mixing_score"),
    ("csbm", "signed_normalize"),
    ("signed", "propagate_linear"), ("signed", "merge_trajectories"),
    ("signed", "concentration_check"),
    ("multiset", "one_hop_desirable_m2m"),
)

# Span names whose time per layer is reported, in report order. Self time is
# reported as "<name>_s" and the call count as "<name>.calls"; train's self
# time is reported as "training.train_self_s".
REPORTED_SPANS = (
    ("graphs.load_dataset", "graphs.build_graph")
    + tuple(f"autodiff.{op}" for op in TAPE_OPS)
    + ("autodiff.backward", "autodiff.adam_step")
    + ("model.forward_train", "model.forward_eval", "model.encode",
       "model.total_loss", "model.attention_scores", "model.chunk_aggregate",
       "model.layer_update")
    + ("training.train", "training.attention_analysis", "training.mixing_score")
    + ("csbm.sample_csbm", "csbm.signed_normalize")
    + ("signed.propagate_linear", "signed.merge_trajectories",
       "signed.concentration_check")
    + ("multiset.one_hop_desirable_m2m",)
)


def time_metric_name(span):
    return "training.train_self_s" if span == "training.train" else span + "_s"


def per_layer_metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for span in REPORTED_SPANS:
        units[time_metric_name(span)] = "s"
        units[span + ".calls"] = "count"
    units["autodiff.tape_nodes"] = "count"
    units["autodiff.recorded_mb"] = "MiB"
    units["csbm.sample_peak_mb"] = "MiB"
    units["bench.trace_overhead_s"] = "s"
    return units


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` undoes it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_phase = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.phase = 0
        self._stack = []
        self._train_depth = 0
        self._eval_depth = 0
        self._patches = []
        # (phase, name): tape outputs recorded inside train(), their bytes,
        # and the part of both recorded by eval-mode forwards
        self.counters = defaultdict(float)
        self.sample_peaks = []

    # ---- recording -------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_phase.append(self.phase)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.span_start[idx] = t0
        self.span_end[idx] = t1

    def _function(self, name, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0, time.perf_counter())

        return traced

    def _train(self, fn):
        inner = self._function("training.train", fn)

        def traced(*args, **kwargs):
            self._train_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._train_depth -= 1

        return traced

    def _tape_op(self, name, fn):
        nid = self._id(name)
        counters = self.counters

        def traced(tape, *args, **kwargs):
            idx = self._open(nid)
            t0 = time.perf_counter()
            try:
                out = fn(tape, *args, **kwargs)
            finally:
                self._close(idx, t0, time.perf_counter())
            if self._train_depth and tape.recording and out.requires_grad:
                counters[(self.phase, "tape_nodes")] += 1
                counters[(self.phase, "recorded_bytes")] += out.data.nbytes
                if self._eval_depth:
                    counters[(self.phase, "eval_tape_nodes")] += 1
                    counters[(self.phase, "eval_recorded_bytes")] += out.data.nbytes
            return out

        return traced

    def _forward(self, fn):
        train_id = self._id("model.forward_train")
        eval_id = self._id("model.forward_eval")
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            training = bound.arguments.get("training", False)
            self._eval_depth += not training
            idx = self._open(train_id if training else eval_id)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0, time.perf_counter())
                self._eval_depth -= not training

        return traced

    def _sampler(self, fn):
        inner = self._function("csbm.sample_csbm", fn)

        def traced(*args, **kwargs):
            # tracemalloc runs only across this call; starting and stopping
            # it sits outside the span's clock readings.
            tracemalloc.start()
            try:
                return inner(*args, **kwargs)
            finally:
                self.sample_peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return traced

    # ---- patching --------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "heterognn" or mod_name.startswith("heterognn.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_method(self, cls, attr, replacement):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self, pkg):
        """Wrap the table's functions; ``pkg`` maps module names to modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        tape_cls = pkg["autodiff"].Tape
        for op in TAPE_OPS + UNREPORTED_TAPE_OPS:
            if op in tape_cls.__dict__:
                self._patch_method(tape_cls, op, self._tape_op(
                    f"autodiff.{op}", tape_cls.__dict__[op]))
        if "backward" in tape_cls.__dict__:
            self._patch_method(tape_cls, "backward", self._function(
                "autodiff.backward", tape_cls.__dict__["backward"]))
        adam_cls = pkg["autodiff"].AdamState
        if "step" in adam_cls.__dict__:
            self._patch_method(adam_cls, "step", self._function(
                "autodiff.adam_step", adam_cls.__dict__["step"]))
        targets = [(m, a, lambda fn, n=f"{m}.{a}": self._function(n, fn))
                   for m, a in FUNCTIONS]
        targets += [("model", "forward", self._forward),
                    ("training", "train", self._train),
                    ("csbm", "sample_csbm", self._sampler)]
        for mod_name, attr, make in targets:
            original = getattr(pkg[mod_name], attr, None)
            if original is not None:
                self._replace_everywhere(original, make(original))

    @property
    def installed(self):
        return bool(self._patches)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- reporting -------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "phase": np.frombuffer(self.span_phase, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return dur - child

    def layer_totals(self, repeats):
        """Self seconds and calls per layer, each phase divided by its repeats.

        ``repeats`` maps a phase id to how many times that phase ran, so a
        layer's numbers read per set-up or per pass, whichever it ran in.
        """
        a = self.arrays()
        self_s = self.self_times()
        seconds = defaultdict(float)
        calls = defaultdict(float)
        for phase, count in repeats.items():
            in_phase = a["phase"] == phase
            ids = a["name"][in_phase]
            sec = np.bincount(ids, weights=self_s[in_phase], minlength=len(self.names))
            cnt = np.bincount(ids, minlength=len(self.names))
            for nid, name in enumerate(self.names):
                seconds[name] += float(sec[nid]) / count
                calls[name] += float(cnt[nid]) / count
        return seconds, calls

    def write(self, path, extra):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays(),
                            **{k: np.asarray(v) for k, v in extra.items()})
