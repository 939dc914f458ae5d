"""Training loop, evaluation, and the model's analysis passes.

Covers the four standing questions asked of a trained model: plain
classification accuracy, how the learned per-arc scores line up with node
classes, how accuracy holds up as layers stack, and how often the two
directions of a heterophilic edge land in different chunks. Everything here
works on eval-mode forward passes; only `train` itself touches dropout.
"""

import warnings
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .graphs import Graph, Split, bucket_matrix
from .model import (
    M2mConfig,
    M2mParams,
    check_hyperparameter,
    forward,
    init_params,
    total_loss,
)
from .seeds import DROPOUT, stream

__all__ = [
    "TrainingDiverged", "TrainRecord", "AttentionSummary",
    "train", "depth_sweep",
    "attention_analysis", "dominant_columns",
    "mixing_score", "mixing_score_from_scores", "ablate", "TRAIN_RULES",
]

# (kind, in_range, requirement) of each keyword of `train` on its own
TRAIN_RULES = {
    "lr": (float, lambda v: v > 0, "must be positive"),
    "weight_decay": (float, lambda v: v >= 0, "must be nonnegative"),
    "max_epochs": (int, lambda v: v >= 1, "must be at least 1"),
    "patience": (int, lambda v: v >= 1, "must be at least 1"),
}


class TrainingDiverged(RuntimeError):
    """Raised when the loss or a parameter gradient stops being finite; the
    message names the epoch (and the parameter)."""


@dataclass
class TrainRecord:
    """Per-epoch history plus the final verdict of one training run.

    ``test_accuracy`` comes from the eval pass of ``best_epoch`` (highest
    validation accuracy), whose weights `train` returns, not the last epoch.
    """

    train_losses: List[float]
    val_losses: List[float]
    train_accuracies: List[float]
    val_accuracies: List[float]
    best_epoch: int
    test_accuracy: float
    config: M2mConfig

    @property
    def n_epochs(self) -> int:
        return len(self.train_losses)


def _masked_accuracy(logits: np.ndarray, labels, node_ids) -> float:
    pred = np.argmax(logits[node_ids], axis=1)
    return float(np.mean(pred == np.asarray(labels)[node_ids]))


def train(g: Graph, config: M2mConfig, split: Split, max_epochs: int = 200,
          patience: int = 100, lr: float = 0.01,
          weight_decay: float = 0.005) -> Tuple[TrainRecord, M2mParams]:
    """Adam on the masked loss with early stopping on validation accuracy.

    Stops once validation accuracy has not improved for ``patience``
    epochs and restores the best-validation weights. Test accuracy is read
    from the eval logits of that same epoch, so no forward runs after the
    loop. Fully deterministic for a fixed (graph, config, split).
    Raises TrainingDiverged the moment the loss leaves the reals, or a
    parameter gradient does, before that gradient reaches Adam. Raises
    ValueError, before any work, for an lr that is not positive, a
    weight_decay that is negative and for max_epochs or patience below 1
    (`TRAIN_RULES`); non-finite or non-numeric values are rejected too. A
    reg_strength above 0 on a graph with no arcs raises ValueError as well:
    the chunk-balance penalty averages over arcs.
    """
    if len(split.train) == 0 or len(split.val) == 0 or len(split.test) == 0:
        raise ValueError("train/val/test must all be non-empty")
    if config.reg_strength > 0 and g.n_arcs == 0:
        raise ValueError(f"reg_strength must be 0 on a graph with no arcs, "
                         f"got {config.reg_strength}")
    options = dict(lr=lr, weight_decay=weight_decay, max_epochs=max_epochs,
                   patience=patience)
    for name, value in options.items():
        check_hyperparameter(name, value, *TRAIN_RULES[name])
    params = init_params(config, g.n_features, g.n_classes)
    adam = ad.AdamState(params.tensors(), lr=lr, weight_decay=weight_decay)
    # dropout has its own stream of config.seed, so its masks are
    # independent of init_params' weights
    dropout_rng = stream(config.seed, DROPOUT)

    history = ([], [], [], [])  # train loss, val loss, train acc, val acc
    best_val, best_epoch, best_test = -np.inf, -1, np.nan
    best_weights = None
    for epoch in range(max_epochs):
        adam.zero_grad()
        tape = ad.Tape()
        result = forward(tape, params, g, config, training=True,
                         rng=dropout_rng)
        loss = total_loss(tape, result, g.labels, split.train, config)
        loss_value = float(loss.data[0, 0])
        if not np.isfinite(loss_value):
            raise TrainingDiverged(
                f"loss became {loss_value} at epoch {epoch} "
                f"(lr={lr}, config seed={config.seed})"
            )
        tape.backward(loss)
        # the layers' (arcs, C) scores would otherwise live through the
        # next epoch's forward and backward
        del result, loss
        for name, tensor in params.named():
            if tensor.grad is not None and not np.isfinite(tensor.grad).all():
                raise TrainingDiverged(
                    f"gradient of {name} became non-finite at epoch {epoch} "
                    f"(lr={lr}, config seed={config.seed})"
                )
        adam.step()

        # fresh non-recording tapes that no name keeps, so the eval
        # forward's chunk matrices die with it
        logits = forward(ad.Tape(recording=False), params, g, config).logits
        history[0].append(loss_value)
        history[1].append(ad.Tape(recording=False)
                          .cross_entropy(logits, g.labels, split.val).item())
        history[2].append(_masked_accuracy(logits.data, g.labels, split.train))
        history[3].append(_masked_accuracy(logits.data, g.labels, split.val))

        if history[3][-1] > best_val:
            best_val = history[3][-1]
            best_epoch = epoch
            best_test = _masked_accuracy(logits.data, g.labels, split.test)
            best_weights = [t.data.copy() for t in params.tensors()]
        if epoch - best_epoch >= patience:
            break

    for tensor, weights in zip(params.tensors(), best_weights):
        tensor.data[...] = weights
    record = TrainRecord(
        train_losses=history[0],
        val_losses=history[1],
        train_accuracies=history[2],
        val_accuracies=history[3],
        best_epoch=best_epoch,
        test_accuracy=best_test,
        config=config,
    )
    return record, params


def depth_sweep(g: Graph, config: M2mConfig, k_values: Sequence[int],
                split: Split, **train_kwargs) -> List[Tuple[int, TrainRecord]]:
    """Retrain with each layer count, everything else held fixed."""
    out = []
    for k in k_values:
        record, _ = train(g, replace(config, layers=int(k)), split,
                          **train_kwargs)
        out.append((int(k), record))
    return out


# ---- attention alignment -----------------------------------------------------


@dataclass
class AttentionSummary:
    """How the layer-averaged arc scores line up with node classes.

    ``avg_scores`` is the per-arc mean over layers; ``alignment`` is the
    row-softmaxed class-by-chunk mass matrix with its columns permuted so
    matched chunks sit on the diagonal; ``permutation[c]`` names the chunk
    assigned to class c. An arc's class is that of its routed node (the
    source, whose features the scores distribute).
    """

    avg_scores: np.ndarray
    alignment: np.ndarray
    permutation: np.ndarray

    def diagonal_dominant_count(self) -> int:
        return int(np.sum(dominant_columns(self.alignment)))


def _greedy_match(mass: np.ndarray) -> np.ndarray:
    """Assign each row its chunk by repeatedly taking the largest entry."""
    n = mass.shape[0]
    perm = np.full(n, -1, dtype=np.int64)
    work = mass.copy()
    for _ in range(n):
        r, c = np.unravel_index(np.argmax(work), work.shape)
        perm[r] = c
        work[r, :] = -np.inf
        work[:, c] = -np.inf
    return perm


def average_scores(g: Graph, params: M2mParams,
                   config: M2mConfig) -> np.ndarray:
    """Layer-averaged (n_arcs, chunks) score matrix from an eval forward,
    the layers added in order into one C-ordered array: the bits of
    np.stack(...).mean(axis=0) without its (layers, n_arcs, chunks) array."""
    first, *rest = forward(ad.Tape(recording=False), params, g, config).attentions
    avg = first.data.copy()
    for scores in rest:
        avg += scores.data
    avg /= len(rest) + 1
    return avg


def attention_analysis(g: Graph, params: M2mParams, config: M2mConfig,
                       avg_scores: Optional[np.ndarray] = None) -> AttentionSummary:
    """Class-by-chunk alignment of the learned scores.

    Only meaningful when chunks == n_classes (refused otherwise). Mass from
    class c into chunk t is summed over arcs whose routed node has class c,
    normalized by that class's arc count, columns matched to classes
    greedily by mass, then row-softmaxed. Pass ``avg_scores`` to analyze
    precomputed scores (e.g. an oracle) without a forward pass.
    """
    if config.chunks != g.n_classes:
        raise ValueError(
            f"attention analysis needs chunks == classes; "
            f"got {config.chunks} chunks for {g.n_classes} classes"
        )
    if avg_scores is None:
        avg_scores = average_scores(g, params, config)
    classes = bucket_matrix(g.labels[g.arc_src], g.n_classes)
    mass = classes @ avg_scores
    arc_counts = np.diff(classes.indptr)
    norm = np.divide(mass, arc_counts[:, None],
                     out=np.zeros_like(mass), where=arc_counts[:, None] > 0)
    perm = _greedy_match(norm)
    return AttentionSummary(
        avg_scores=avg_scores,
        # take gives a fresh C-ordered array, which softmax overwrites
        alignment=ad.softmax(norm.take(perm, axis=1), 1.0, 1),
        permutation=perm,
    )


def dominant_columns(matrix: np.ndarray) -> np.ndarray:
    """True per column where the diagonal entry strictly beats the rest."""
    n = matrix.shape[0]
    out = np.zeros(n, dtype=bool)
    for j in range(n):
        col = matrix[:, j]
        out[j] = np.all(col[j] > np.delete(col, j))
    return out


# ---- mixing ------------------------------------------------------------------


def _reverse_arc_index(g: Graph) -> np.ndarray:
    """Index of each arc's opposite-direction twin.

    `Graph` holds its arcs sorted by (dst, src), so the keys dst * N + src
    ascend in arc order and one binary search finds each twin's key.
    """
    src, dst = g.arc_src.astype(np.int64), g.arc_dst.astype(np.int64)
    keys = dst * g.n_nodes + src
    twins = src * g.n_nodes + dst
    rev = np.searchsorted(keys, twins)
    missing = np.flatnonzero(keys.take(rev, mode="clip") != twins)
    if missing.size:
        a = missing[0]
        raise ValueError(f"arc {src[a]}->{dst[a]} has no reverse arc {dst[a]}->{src[a]}")
    return rev


def mixing_score_from_scores(g: Graph, avg_scores: np.ndarray) -> float:
    """Fraction of heterophilic edges whose two arcs pick different chunks.

    Each undirected edge contributes once; the per-arc chunk is the argmax
    of the layer-averaged scores (ties to the lowest chunk). Returns NaN
    with a warning when the graph has no heterophilic edge to measure.
    """
    chunk = np.argmax(avg_scores, axis=1)
    rev = _reverse_arc_index(g)
    forward_arcs = g.arc_src < g.arc_dst
    hetero = forward_arcs & (g.labels[g.arc_src] != g.labels[g.arc_dst])
    if not np.any(hetero):
        warnings.warn("no heterophilic edges; mixing score is undefined")
        return float("nan")
    differs = chunk[hetero] != chunk[rev[hetero]]
    return float(np.mean(differs))


def mixing_score(g: Graph, params: M2mParams, config: M2mConfig) -> float:
    return mixing_score_from_scores(g, average_scores(g, params, config))


# ---- ablation ----------------------------------------------------------------


def ablate(g: Graph, base_config: M2mConfig, grid, split: Split,
           k_values: Sequence[int] = (2, 4, 8, 16, 32),
           **train_kwargs) -> List[Dict[str, float]]:
    """Depth-swept metrics for each (chunks, reg_strength) cell.

    Per cell: the best test accuracy across ``k_values``, the accuracy at
    K=32 (or the deepest swept K when 32 is absent), and the mixing score
    of the best-accuracy depth's trained model.
    """
    rows = []
    deepest = 32 if 32 in k_values else max(k_values)
    for chunks, lam in grid:
        cell_cfg = replace(base_config, chunks=int(chunks),
                           reg_strength=float(lam))
        best_acc, best_params, best_cfg, deep_acc = -np.inf, None, None, np.nan
        for k in k_values:
            cfg_k = replace(cell_cfg, layers=int(k))
            record, params = train(g, cfg_k, split, **train_kwargs)
            if record.test_accuracy > best_acc:
                best_acc = record.test_accuracy
                best_params, best_cfg = params, cfg_k
            if k == deepest:
                deep_acc = record.test_accuracy
        rows.append({
            "chunks": int(chunks),
            "lambda": float(lam),
            "mixing": mixing_score(g, best_params, best_cfg),
            "best_acc": float(best_acc),
            "acc_k32": float(deep_acc),
        })
    return rows
