"""Chunked-attention message passing with a residual encoder backbone.

Each layer projects node embeddings into a narrow slice, scores every arc's
source against its ego over a small set of chunks (a soft class guess), and
sums the sources into per-chunk blocks that concatenate back to full width.
The residual always returns to the encoder output, so depth cannot wash out
the input signal, and a chunk-balance penalty weighted by ``reg_strength``
pushes the chunk mass toward balance across arcs. Everything runs on the
reverse-mode tape from `heterognn.autodiff`, so a single backward call trains
the whole stack. The tape's ops are exactly those that this module and
`heterognn.training` call, and criterion 7's finite-difference battery in
the acceptance tests runs every one of them.

`forward` wires the tape's ops: the encoder is `Tape.const_matmul`, a
ReLU and `Tape.project` (dropout, then the product), and h0 goes through
one more `project` into layer 0's projection. Each layer is then two ops:
`Tape.arc_attention` scores the arcs, and `Tape.aggregate_update` sums
them into chunks, applies the residual LayerNorm and projects for the next
layer, or onto the head after the last. The loss adds `Tape.cross_entropy`
and one `Tape.chunk_balance` over all layers. The layers share one
`autodiff.Arcs` per call, so the sparse operators on the arc index are
built once. What each record keeps and what its backward rebuilds is
documented once, in `autodiff.Tape` and those ops.
"""

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import List, Optional

import numpy as np

from . import autodiff as ad
from .seeds import INIT, stream

__all__ = [
    "M2mConfig", "M2mParams", "ForwardResult", "init_params",
    "encode", "forward", "total_loss", "one_hot_arc_scores",
    "save_checkpoint", "load_checkpoint", "check_hyperparameter", "CONFIG_RULES",
]


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_hyperparameter(name, value, kind, in_range, requirement):
    """Raise ValueError naming ``name`` unless ``value`` is valid on its own.

    ``kind`` int asks for an integer, float for a finite real; a bool is
    neither. ``in_range(value)`` must then hold, else the message states
    ``requirement``.
    """
    if kind is int:
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    elif (isinstance(value, bool) or not isinstance(value, numbers.Real)
          or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if not in_range(value):
        raise ValueError(f"{name} {requirement}, got {value!r}")


# (kind, in_range, requirement) of each M2mConfig field on its own
CONFIG_RULES = {
    "hidden": (int, lambda v: v >= 1, "must be positive"),
    "chunks": (int, lambda v: v >= 1, "must be positive"),
    "layers": (int, lambda v: v >= 1, "must be positive"),
    "alpha": (float, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "beta": (float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "temperature": (float, lambda v: v > 0, "must be positive"),
    "reg_strength": (float, lambda v: v >= 0, "must be nonnegative"),
    "keep_prob": (float, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    "seed": (int, lambda v: v >= 0, "must be nonnegative"),
}


@dataclass(frozen=True)
class M2mConfig:
    """Hyperparameters of the chunked message-passing model.

    ``hidden`` is the width of the encoder and of every layer, and must be
    divisible by ``chunks`` because every layer projects to a
    width-``hidden/chunks`` slice. ``keep_prob`` is the dropout
    keep-probability (1 disables dropout). ``reg_strength`` weighs the
    chunk-balance penalty (0 disables it). Construction rejects, with
    ValueError, an ``int`` field that holds no integer and a ``float`` field
    that holds no finite number, as well as out-of-range values
    (`CONFIG_RULES`).
    """

    hidden: int
    chunks: int
    layers: int
    alpha: float = 0.5
    beta: float = 0.5
    temperature: float = 0.5
    reg_strength: float = 0.0
    keep_prob: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            check_hyperparameter(f.name, getattr(self, f.name), *CONFIG_RULES[f.name])
        if self.hidden % self.chunks:
            raise ValueError(
                f"hidden={self.hidden} not divisible by chunks={self.chunks}"
            )

    @property
    def chunk_width(self) -> int:
        return self.hidden // self.chunks


@dataclass
class M2mParams:
    """All trainable tensors, grouped by role. Bias-free except LayerNorm."""

    enc_in: ad.Tensor
    enc_out: ad.Tensor
    layer_proj: List[ad.Tensor]
    layer_att: List[ad.Tensor]
    ln_gain: List[ad.Tensor]
    ln_bias: List[ad.Tensor]
    head: ad.Tensor

    def named(self):
        """Yield (name, tensor) in a fixed order for optimizers and disk."""
        yield "enc_in", self.enc_in
        yield "enc_out", self.enc_out
        for k in range(len(self.layer_proj)):
            yield f"layer{k}.proj", self.layer_proj[k]
            yield f"layer{k}.att", self.layer_att[k]
            yield f"layer{k}.gain", self.ln_gain[k]
            yield f"layer{k}.bias", self.ln_bias[k]
        yield "head", self.head

    def tensors(self):
        return [t for _, t in self.named()]


def _glorot(rng, rows, cols):
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def init_params(config: M2mConfig, n_features: int, n_classes: int) -> M2mParams:
    """Glorot-uniform weights (INIT stream), unit LayerNorm gains, zero shifts."""
    rng = stream(config.seed, INIT)
    d = config.hidden
    params = M2mParams(
        enc_in=ad.parameter(_glorot(rng, n_features, d)),
        enc_out=ad.parameter(_glorot(rng, d, d)),
        layer_proj=[
            ad.parameter(_glorot(rng, d, config.chunk_width))
            for _ in range(config.layers)
        ],
        layer_att=[
            ad.parameter(_glorot(rng, config.chunk_width, config.chunks))
            for _ in range(config.layers)
        ],
        ln_gain=[ad.parameter(np.ones((1, d))) for _ in range(config.layers)],
        ln_bias=[ad.parameter(np.zeros((1, d))) for _ in range(config.layers)],
        head=ad.parameter(_glorot(rng, d, n_classes)),
    )
    return params


def encode(tape, params: M2mParams, features, config: M2mConfig,
           training: bool = False, rng=None) -> ad.Tensor:
    """Two-matrix MLP with ReLU (and dropout while training) in between.

    features, the input, is a float64 array or a scipy sparse matrix; it
    takes no gradient. `forward` passes the graph's `Graph.encoder_operand`,
    a CSR matrix for features at most 5% nonzero (bag-of-words rows) and
    the dense array otherwise. The first product is `Tape.const_matmul`,
    whose forward x @ enc_in and backward x.T @ g are sparse products for a
    CSR input and the same BLAS calls as a dense product for an array. The
    second is `Tape.project`, at keep_prob 1 outside training, which draws
    nothing from rng.
    """
    h = tape.relu(tape.const_matmul(features, params.enc_in))
    keep_prob = config.keep_prob if training else 1.0
    return tape.project(h, params.enc_out, keep_prob, rng)


@dataclass
class ForwardResult:
    logits: ad.Tensor
    attentions: List[ad.Tensor]


def forward(tape, params: M2mParams, graph, config: M2mConfig,
            training: bool = False, rng=None) -> ForwardResult:
    """Encoder, K chunked message-passing layers, then the linear head.

    Layer k scores each arc as softmax(ReLU(alpha * ego + source) @ w_att /
    temperature) over the chunks (`Tape.arc_attention`; the two directions
    of an edge are scored independently), then updates every node to
    dropout(LayerNorm(ReLU((1 - beta) * h0 + beta * message))) @ w
    (`Tape.aggregate_update`), where chunk t of the message sums the
    sources' projections weighted by their chunk-t scores and w is the next
    layer's projection or, after the last layer, the head (without
    dropout). The skip always points at the encoder output h0, so stacking
    layers cannot erase the input features.

    Returns the logits and each layer's (n_arcs, chunks) scores. The
    encoder reads ``graph.encoder_operand``, which the graph builds on the
    first call and keeps; the layers share one `autodiff.Arcs` of the
    graph's arc index, built per call. Evaluation mode (training=False) is
    deterministic. Its callers in ``training`` (the per-epoch eval of
    ``train`` and ``average_scores``) pass ``ad.Tape(recording=False)``.
    """
    arcs = ad.Arcs(graph.arc_src, graph.indptr, graph.n_nodes)
    h0 = encode(tape, params, graph.encoder_operand, config, training, rng)
    keep_prob = config.keep_prob if training else 1.0
    h_hat = tape.project(h0, params.layer_proj[0], keep_prob, rng)
    attentions = []
    for k in range(config.layers):
        scores = tape.arc_attention(h_hat, params.layer_att[k], arcs,
                                    config.alpha, config.temperature)
        if k + 1 < config.layers:
            w_next, keep_next = params.layer_proj[k + 1], keep_prob
        else:
            w_next, keep_next = params.head, 1.0
        h_hat = tape.aggregate_update(scores, h_hat, arcs, h0, config.beta,
                                      params.ln_gain[k], params.ln_bias[k],
                                      w_next, keep_next, rng)
        attentions.append(scores)
    # the last update projected onto the head: its output is the logits
    return ForwardResult(h_hat, attentions)


def total_loss(tape, result: ForwardResult, labels, train_ids,
               config: M2mConfig) -> ad.Tensor:
    """Masked cross-entropy plus the chunk-balance penalty weighted by
    ``config.reg_strength``.

    The penalty (`Tape.chunk_balance`, one record, weight included)
    averages over layers the norm of each layer's column-summed scores,
    scaled by sqrt(chunks)/n_arcs, then subtracts 1. Unweighted, it is 0
    when every row is uniform and sqrt(chunks) - 1, its maximum, when all
    mass sits on one chunk, whatever the number of arcs, so it stays on
    the scale of the cross-entropy.
    """
    task = tape.cross_entropy(result.logits, labels, train_ids)
    if config.reg_strength == 0.0:
        return task
    return tape.add(task, tape.chunk_balance(result.attentions, config.reg_strength))


def one_hot_arc_scores(graph, labels, chunks: int) -> np.ndarray:
    """The label-oracle (n_arcs, chunks) scores, for tests and oracle routers:
    each arc puts all its mass on the chunk of its source's label."""
    labels = np.asarray(labels)
    scores = np.zeros((graph.n_arcs, chunks))
    scores[np.arange(graph.n_arcs), labels[graph.arc_src]] = 1.0
    return scores


def save_checkpoint(base_path: str, params: M2mParams, config: M2mConfig,
                    n_features: int, n_classes: int, extra: Optional[dict] = None):
    """Write ``base_path + '.json'`` (manifest) and ``'.bin'`` (raw arrays).

    The manifest records the config, data dims, and each tensor's name,
    shape, and byte offset into the float64 blob, so a checkpoint can be
    inspected without this package.
    """
    entries, chunks_of_bytes, offset = [], [], 0
    for name, tensor in params.named():
        raw = np.ascontiguousarray(tensor.data, dtype=np.float64).tobytes()
        entries.append({"name": name, "shape": list(tensor.data.shape),
                        "offset": offset})
        chunks_of_bytes.append(raw)
        offset += len(raw)
    manifest = {
        "config": asdict(config),
        "n_features": n_features,
        "n_classes": n_classes,
        "dtype": "float64",
        "arrays": entries,
    }
    if extra:
        manifest["extra"] = extra
    with open(base_path + ".json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    with open(base_path + ".bin", "wb") as fh:
        fh.write(b"".join(chunks_of_bytes))


def load_checkpoint(base_path: str):
    """Rebuild (config, params, n_features, n_classes) from save_checkpoint's files.

    Every manifest field is checked before a tensor is filled: the config,
    the dims, the dtype, and each array's name, shape and offset (a
    multiple of 8, with no two arrays overlapping and the last ending where
    the blob does). A bad one raises ValueError naming the file and the
    field.
    """
    manifest_path, blob_path = base_path + ".json", base_path + ".bin"
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{manifest_path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: not a JSON object")

    def bad(field, problem):
        return ValueError(f"{manifest_path}: field {field!r} {problem}")

    for key in ("config", "n_features", "n_classes", "arrays"):
        if key not in manifest:
            raise ValueError(f"{manifest_path}: missing field {key!r}")
    try:
        config = M2mConfig(**manifest["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{manifest_path}: field 'config': {exc}") from None
    if manifest.get("dtype") != "float64":
        raise bad("dtype", f"is {manifest.get('dtype')!r}; only 'float64' is supported")
    n_features, n_classes = manifest["n_features"], manifest["n_classes"]
    for key, value in (("n_features", n_features), ("n_classes", n_classes)):
        if not _is_int(value) or value < 1:
            raise bad(key, f"must be a positive integer, got {value!r}")
    entries = manifest["arrays"]
    if not isinstance(entries, list):
        raise bad("arrays", f"must be a list, got {entries!r}")
    spans = []  # (first byte, end byte, field) of each array
    for i, entry in enumerate(entries):
        field = f"arrays[{i}]"
        if not isinstance(entry, dict):
            raise bad(field, f"must be an object, got {entry!r}")
        for key in ("name", "shape", "offset"):
            if key not in entry:
                raise bad(field, f"has no {key!r}")
        shape, offset = entry["shape"], entry["offset"]
        if not isinstance(entry["name"], str):
            raise bad(f"{field}.name", f"must be a string, got {entry['name']!r}")
        if not isinstance(shape, list) or not all(_is_int(s) and s >= 0 for s in shape):
            raise bad(f"{field}.shape",
                      f"must be a list of nonnegative integers, got {shape!r}")
        if not _is_int(offset) or offset < 0 or offset % 8:
            raise bad(f"{field}.offset",
                      f"must be a nonnegative multiple of 8, got {offset!r}")
        spans.append((offset, offset + 8 * math.prod(shape), f"{field}.offset"))
    spans.sort()
    for (_, end, _), (start, _, field) in zip(spans, spans[1:]):
        if start < end:
            raise bad(field, f"is {start}, inside the array before it, "
                             f"which ends at byte {end}")
    blob = np.fromfile(blob_path, dtype=np.uint8)
    implied = max((end for _, end, _ in spans), default=0)
    if blob.size != implied:
        raise ValueError(f"{blob_path}: {blob.size} bytes, but field 'arrays' "
                         f"of {manifest_path} implies {implied}")
    blob = blob.view(np.float64)
    params = init_params(config, n_features, n_classes)
    tensors, filled = dict(params.named()), set()
    for i, entry in enumerate(entries):
        name, shape = entry["name"], tuple(entry["shape"])
        if name not in tensors:
            raise bad(f"arrays[{i}].name", f"{name!r} is not a tensor of this config")
        if name in filled:
            raise bad(f"arrays[{i}].name", f"{name!r} is named twice")
        tensor = tensors[name]
        if shape != tensor.data.shape:
            raise bad(f"arrays[{i}].shape", f"is {list(shape)}; tensor {name!r} of "
                                            f"this config is {list(tensor.data.shape)}")
        start = entry["offset"] // 8
        tensor.data[...] = blob[start : start + math.prod(shape)].reshape(shape)
        filled.add(name)
    missing = [name for name in tensors if name not in filled]
    if missing:
        raise bad("arrays", f"has no tensor {missing[0]!r}")
    return config, params, n_features, n_classes
