"""Chunked-attention message passing with a residual encoder backbone.

Each layer projects node embeddings into a narrow slice, scores every arc's
source against its ego over a small set of chunks (a soft class guess), and
sums the sources into per-chunk blocks that concatenate back to full width.
The residual always returns to the encoder output, so depth cannot wash out
the input signal, and a chunk-balance penalty weighted by ``reg_strength``
pushes the chunk mass toward balance across arcs. Everything runs on the
reverse-mode tape from `heterognn.autodiff`, so a single backward call trains
the whole stack. A training layer records five tape nodes: dropout, the
projection, the scores (`Tape.arc_attention`), the chunk sums
(`Tape.chunk_sum`) and the residual LayerNorm (`Tape.residual_norm`).
"""

import json
from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from . import autodiff as ad

__all__ = [
    "M2mConfig", "M2mParams", "ForwardResult", "init_params",
    "encode", "attention_scores", "chunk_aggregate", "layer_update",
    "forward", "reg_loss", "total_loss", "one_hot_arc_scores",
    "save_checkpoint", "load_checkpoint",
]


@dataclass(frozen=True)
class M2mConfig:
    """Hyperparameters of the chunked message-passing model.

    ``hidden`` is the width of the encoder and of every layer, and must be
    divisible by ``chunks`` because every layer projects to a
    width-``hidden/chunks`` slice. ``keep_prob`` is the dropout
    keep-probability (1 disables dropout). ``reg_strength`` weighs the
    chunk-balance penalty (0 disables it).
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
        if self.hidden < 1 or self.chunks < 1 or self.layers < 1:
            raise ValueError("hidden, chunks, and layers must be positive")
        if self.hidden % self.chunks:
            raise ValueError(
                f"hidden={self.hidden} not divisible by chunks={self.chunks}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.reg_strength < 0:
            raise ValueError("reg_strength must be nonnegative")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must lie in (0, 1]")

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
    """Glorot-uniform weights, unit LayerNorm gains, zero shifts."""
    rng = np.random.default_rng(config.seed)
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
    """Two-matrix MLP with ReLU (and dropout while training) in between."""
    x = features if isinstance(features, ad.Tensor) else ad.constant(features)
    h = tape.relu(tape.matmul(x, params.enc_in))
    if training and config.keep_prob < 1.0:
        h = tape.dropout(h, config.keep_prob, rng)
    return tape.matmul(h, params.enc_out)


def attention_scores(tape, h_hat: ad.Tensor, graph, w_att: ad.Tensor,
                     alpha: float, temperature: float) -> ad.Tensor:
    """Per-arc chunk scores: softmax of ReLU(alpha*ego + source) @ w_att.

    Rows live on arcs (source scored while messaging its ego), sum to one,
    and stay nonnegative; the two directions of an undirected edge are
    scored independently. One fused tape op (`Tape.arc_attention`); it
    keeps O(arcs * (C + w)) for the backward: the ReLU output and the
    scores.
    """
    return tape.arc_attention(h_hat, w_att, graph.arc_src, graph.arc_dst,
                              alpha, temperature)


def chunk_aggregate(tape, h_hat: ad.Tensor, scores: ad.Tensor,
                    graph) -> ad.Tensor:
    """Score-weighted per-chunk sums of source projections, concatenated.

    Chunk t of node i (one chunk per score column) sums s_t(i, j) * h_hat_j
    over i's in-arcs; nodes with no arcs end up with all-zero messages. One
    tape op (`Tape.chunk_sum`), a sparse product that never gathers h_hat
    onto the arcs; its memory is O(arcs * (C + w)).
    """
    return tape.chunk_sum(scores, h_hat, graph.arc_src, graph.indptr)


def layer_update(tape, h0: ad.Tensor, message: ad.Tensor, beta: float,
                 gain: ad.Tensor, bias: ad.Tensor) -> ad.Tensor:
    """LayerNorm(ReLU((1-beta) * h0 + beta * message)).

    The skip always points at the encoder output, not the previous layer, so
    stacking layers cannot erase the input features. One fused tape op
    (`Tape.residual_norm`); it keeps the standardized rows, their 1/std and
    the ReLU mask for the backward.
    """
    return tape.residual_norm(h0, message, beta, gain, bias)


@dataclass
class ForwardResult:
    logits: ad.Tensor
    attentions: List[ad.Tensor]


def forward(tape, params: M2mParams, graph, config: M2mConfig,
            training: bool = False, rng=None) -> ForwardResult:
    """Encoder, K chunked message-passing layers, then the linear head.

    Returns the logits and each layer's (n_arcs, chunks) scores. Evaluation
    mode (training=False) is deterministic. Its callers in ``training`` (the
    per-epoch eval of ``train``, ``predict`` and ``average_scores``) pass
    ``ad.Tape(recording=False)``.
    """
    h0 = encode(tape, params, graph.features, config, training, rng)
    attentions = []
    h = h0
    for k in range(config.layers):
        h_in = h
        if training and config.keep_prob < 1.0:
            h_in = tape.dropout(h_in, config.keep_prob, rng)
        h_hat = tape.matmul(h_in, params.layer_proj[k])
        scores = attention_scores(
            tape, h_hat, graph, params.layer_att[k],
            config.alpha, config.temperature,
        )
        message = chunk_aggregate(tape, h_hat, scores, graph)
        h = layer_update(
            tape, h0, message, config.beta, params.ln_gain[k], params.ln_bias[k]
        )
        attentions.append(scores)
    logits = tape.matmul(h, params.head)
    return ForwardResult(logits, attentions)


def reg_loss(tape, attentions, chunks: int, n_arcs: int) -> ad.Tensor:
    """Chunk-balance penalty averaged over layers.

    Per layer: scale the squared norm of the column-summed score matrix by
    sqrt(chunks)/n_arcs and subtract 1. It bottoms out at
    n_arcs/sqrt(chunks) - 1 when every row is uniform; collapsing all mass
    onto one chunk maximizes it.
    """
    if not attentions:
        raise ValueError("need at least one layer of scores")
    total = None
    for scores in attentions:
        mass = tape.sum_rows(scores)
        term = tape.scale(tape.l2_norm_sq(mass), np.sqrt(chunks) / n_arcs)
        total = term if total is None else tape.add(total, term)
    avg = tape.scale(total, 1.0 / len(attentions))
    return tape.add(avg, ad.constant([[-1.0]]))


def total_loss(tape, result: ForwardResult, labels, train_ids, graph,
               config: M2mConfig) -> ad.Tensor:
    """Masked cross-entropy plus the weighted chunk-balance penalty."""
    task = tape.cross_entropy(result.logits, labels, train_ids)
    if config.reg_strength == 0.0:
        return task
    reg = reg_loss(tape, result.attentions, config.chunks, graph.n_arcs)
    return tape.add(task, tape.scale(reg, config.reg_strength))


def one_hot_arc_scores(graph, labels, chunks: int) -> np.ndarray:
    """Ground-truth scores: each arc puts all mass on its source's label."""
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
    """Rebuild (config, params, n_features, n_classes); reject a bad dtype or size."""
    manifest_path, blob_path = base_path + ".json", base_path + ".bin"
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    for key in ("config", "n_features", "n_classes", "arrays"):
        if key not in manifest:
            raise ValueError(f"{manifest_path}: missing field {key!r}")
    try:
        config = M2mConfig(**manifest["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{manifest_path}: field 'config': {exc}") from None
    if manifest.get("dtype") != "float64":
        raise ValueError(f"{manifest_path}: field 'dtype' is "
                         f"{manifest.get('dtype')!r}; only 'float64' is supported")
    blob = np.fromfile(blob_path, dtype=np.uint8)
    implied = max((entry["offset"] + 8 * int(np.prod(entry["shape"]))
                   for entry in manifest["arrays"]), default=0)
    if blob.size != implied:
        raise ValueError(f"{blob_path}: {blob.size} bytes, but field 'arrays' "
                         f"of {manifest_path} implies {implied}")
    blob = blob.view(np.float64)
    arrays = {}
    for entry in manifest["arrays"]:
        shape = tuple(entry["shape"])
        start = entry["offset"] // 8
        count = int(np.prod(shape))
        arrays[entry["name"]] = blob[start : start + count].reshape(shape)
    params = init_params(config, manifest["n_features"], manifest["n_classes"])
    for name, tensor in params.named():
        if name not in arrays:
            raise ValueError(f"checkpoint missing tensor {name!r}")
        if arrays[name].shape != tensor.data.shape:
            raise ValueError(f"checkpoint shape mismatch for {name!r}")
        tensor.data[...] = arrays[name]
    return config, params, manifest["n_features"], manifest["n_classes"]
