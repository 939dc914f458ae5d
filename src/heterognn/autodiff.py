"""Dense 64-bit tensor engine with tape-based reverse-mode differentiation.

Everything is a 2-D float64 matrix (scalars are 1x1). A Tape records each
operation applied to tensors that require gradients; Tape.backward replays
the records in reverse and accumulates gradients into the participating
tensors. A tape is single-use: calling backward twice raises.
"""

import numpy as np
import scipy.sparse as sp

__all__ = ["Tensor", "Tape", "AdamState", "parameter", "constant"]

_LN_EPS = 1e-5
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class Tensor:
    """A 2-D float64 matrix with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D; got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.shape != (1, 1):
            raise ValueError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data):
    """A trainable leaf tensor (gradient accumulates across backward calls)."""
    return Tensor(data, requires_grad=True)


def constant(data):
    """A non-trainable tensor (inputs, masks, fixed coefficients)."""
    return Tensor(data, requires_grad=False)


def _scatter_rows(ids, values, n):
    """Sum the rows of values into n buckets: out[s] = sum of rows with id s.

    A one-nonzero-per-column CSR matrix adds the rows of each bucket in row
    order, the order np.add.at uses, so results match it bit for bit.
    """
    k = ids.shape[0]
    return sp.csr_matrix((np.ones(k), (ids, np.arange(k))), shape=(n, k)) @ values


def _accum(t: Tensor, g):
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


class Tape:
    """Operation recorder. All ops are methods so the recording scope is explicit.

    With recording=False the same methods compute forward values only. The
    eval passes use that: the per-epoch eval in `training.train`,
    `training.predict`, `training.average_scores` and the alignment softmax
    of `training.attention_analysis`.
    """

    def __init__(self, recording=True):
        self.recording = recording
        self._nodes = []  # (out tensor, backward closure), in execution order
        self._consumed = False

    def _emit(self, out: Tensor, parents, backward_fn):
        if self.recording and any(p.requires_grad for p in parents):
            out.requires_grad = True
            self._nodes.append((out, backward_fn))
        return out

    # ---- elementwise / structural ops -------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
        out = Tensor(a.data + b.data)

        def back(g):
            if a.requires_grad:
                _accum(a, g)
            if b.requires_grad:
                _accum(b, g)

        return self._emit(out, (a, b), back)

    def scale(self, x: Tensor, c: float) -> Tensor:
        c = float(c)
        out = Tensor(x.data * c)

        def back(g):
            if x.requires_grad:
                _accum(x, g * c)

        return self._emit(out, (x,), back)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise product; one operand may be a single column (broadcast)."""
        ra, ca = a.data.shape
        rb, cb = b.data.shape
        if ra != rb or (ca != cb and 1 not in (ca, cb)):
            raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
        out = Tensor(a.data * b.data)

        def back(g):
            if a.requires_grad:
                ga = g * b.data
                if ca == 1 and out.data.shape[1] > 1:
                    ga = ga.sum(axis=1, keepdims=True)
                _accum(a, ga)
            if b.requires_grad:
                gb = g * a.data
                if cb == 1 and out.data.shape[1] > 1:
                    gb = gb.sum(axis=1, keepdims=True)
                _accum(b, gb)

        return self._emit(out, (a, b), back)

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape[1] != b.data.shape[0]:
            raise ValueError(
                f"matmul dimension mismatch: {a.data.shape} x {b.data.shape}"
            )
        out = Tensor(a.data @ b.data)

        def back(g):
            if a.requires_grad:
                _accum(a, g @ b.data.T)
            if b.requires_grad:
                _accum(b, a.data.T @ g)

        return self._emit(out, (a, b), back)

    def relu(self, x: Tensor) -> Tensor:
        out = Tensor(np.maximum(x.data, 0.0))

        def back(g):
            if x.requires_grad:
                _accum(x, g * (x.data > 0.0))

        return self._emit(out, (x,), back)

    def row_gather(self, x: Tensor, index) -> Tensor:
        idx = np.asarray(index, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("row_gather index must be 1-D")
        if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
            raise IndexError("row_gather index out of range")
        out = Tensor(x.data[idx])

        def back(g):
            if x.requires_grad:
                _accum(x, _scatter_rows(idx, g, x.data.shape[0]))

        return self._emit(out, (x,), back)

    def chunk_sum(self, scores: Tensor, x: Tensor, segment_ids,
                  n_segments: int) -> Tensor:
        """Score-weighted segment sums: block t of out[s] sums scores[r, t] * x[r]
        over the rows r with id s. One all-ones score column is a plain segment sum.
        """
        ids = np.asarray(segment_ids, dtype=np.int64)
        k, w = x.data.shape
        c = scores.data.shape[1]
        if ids.shape != (k,) or scores.data.shape[0] != k:
            raise ValueError("scores, x and segment_ids need one entry per row")
        if ids.size and (ids.min() < 0 or ids.max() >= n_segments):
            raise IndexError("segment id out of range")
        product = (scores.data[:, :, None] * x.data[:, None, :]).reshape(k, c * w)
        out = Tensor(_scatter_rows(ids, product, n_segments))

        def back(g):
            g_rows = g[ids]
            if scores.requires_grad:
                _accum(scores, (g_rows.reshape(k, c, w) * x.data[:, None, :]).sum(axis=2))
            if x.requires_grad:
                # last chunk first: seeded training depends on this order bit for bit
                gx = np.zeros_like(x.data)
                for t in reversed(range(c)):
                    gx += g_rows[:, t * w : (t + 1) * w] * scores.data[:, t : t + 1]
                _accum(x, gx)

        return self._emit(out, (scores, x), back)

    def sum_rows(self, x: Tensor) -> Tensor:
        """Collapse to a single row: out[0, j] = sum_i x[i, j]."""
        out = Tensor(x.data.sum(axis=0, keepdims=True))

        def back(g):
            if x.requires_grad:
                _accum(x, np.broadcast_to(g, x.data.shape))

        return self._emit(out, (x,), back)

    def sum_all(self, x: Tensor) -> Tensor:
        out = Tensor([[x.data.sum()]])

        def back(g):
            if x.requires_grad:
                _accum(x, np.full_like(x.data, g[0, 0]))

        return self._emit(out, (x,), back)

    def l2_norm_sq(self, x: Tensor) -> Tensor:
        out = Tensor([[float(np.sum(x.data * x.data))]])

        def back(g):
            if x.requires_grad:
                _accum(x, 2.0 * x.data * g[0, 0])

        return self._emit(out, (x,), back)

    # ---- normalization / regularization ops --------------------------------

    def row_softmax(self, x: Tensor, temperature: float = 1.0) -> Tensor:
        if not temperature > 0.0:
            raise ValueError(f"softmax temperature must be positive, got {temperature}")
        z = x.data / temperature
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        s = e / e.sum(axis=1, keepdims=True)
        out = Tensor(s)

        def back(g):
            if x.requires_grad:
                inner = (g * s).sum(axis=1, keepdims=True)
                _accum(x, (g - inner) * s / temperature)

        return self._emit(out, (x,), back)

    def layer_norm(self, x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
        """Per-row standardization followed by a learned affine map.

        gain and bias are 1 x d and broadcast over rows; variance uses the
        population convention with epsilon 1e-5 under the square root.
        """
        d = x.data.shape[1]
        if gain.data.shape != (1, d) or bias.data.shape != (1, d):
            raise ValueError("layer_norm affine parameters must be 1 x d")
        mu = x.data.mean(axis=1, keepdims=True)
        centered = x.data - mu
        var = (centered * centered).mean(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + _LN_EPS)
        xhat = centered * inv_std
        out = Tensor(xhat * gain.data + bias.data)

        def back(g):
            if gain.requires_grad:
                _accum(gain, (g * xhat).sum(axis=0, keepdims=True))
            if bias.requires_grad:
                _accum(bias, g.sum(axis=0, keepdims=True))
            if x.requires_grad:
                dxhat = g * gain.data
                # standard layer-norm backward, fused form
                term = dxhat - dxhat.mean(axis=1, keepdims=True)
                term -= xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
                _accum(x, term * inv_std)

        return self._emit(out, (x, gain, bias), back)

    def dropout(self, x: Tensor, keep_prob: float, rng: np.random.Generator) -> Tensor:
        """Inverted dropout: surviving entries are scaled by 1/keep_prob."""
        if not 0.0 < keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")
        if keep_prob == 1.0:
            mask = np.ones_like(x.data)
        else:
            mask = (rng.random(x.data.shape) < keep_prob) / keep_prob
        out = Tensor(x.data * mask)

        def back(g):
            if x.requires_grad:
                _accum(x, g * mask)

        return self._emit(out, (x,), back)

    def cross_entropy(self, logits: Tensor, labels, row_ids) -> Tensor:
        """Mean negative log-likelihood over the selected rows.

        labels holds one class id per logits row; row_ids selects which rows
        contribute (the training mask). Returns a 1x1 tensor.
        """
        y = np.asarray(labels, dtype=np.int64)
        rows = np.asarray(row_ids, dtype=np.int64)
        n, c = logits.data.shape
        if y.shape != (n,):
            raise ValueError("labels must have one entry per logits row")
        if rows.size == 0:
            raise ValueError("cross_entropy needs a non-empty row selection")
        if rows.min() < 0 or rows.max() >= n:
            raise IndexError("row id out of range")
        if y[rows].min() < 0 or y[rows].max() >= c:
            raise ValueError("label out of range for logits width")
        z = logits.data[rows]
        zmax = z.max(axis=1, keepdims=True)
        lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
        picked = z[np.arange(rows.size), y[rows]]
        out = Tensor([[float(np.mean(lse - picked))]])

        def back(g):
            if logits.requires_grad:
                soft = np.exp(z - zmax)
                soft /= soft.sum(axis=1, keepdims=True)
                soft[np.arange(rows.size), y[rows]] -= 1.0
                _accum(logits, _scatter_rows(rows, soft * (g[0, 0] / rows.size), n))

        return self._emit(out, (logits,), back)

    # ---- reverse pass -------------------------------------------------------

    def backward(self, loss: Tensor):
        """Populate .grad on every tensor the scalar loss depends on."""
        if loss.data.shape != (1, 1):
            raise ValueError(f"backward needs a scalar (1x1) loss, got {loss.data.shape}")
        if self._consumed:
            raise RuntimeError("tape already consumed; build a new tape per forward pass")
        if not self._nodes:
            raise RuntimeError("tape is empty; nothing was recorded")
        self._consumed = True
        loss.grad = np.ones((1, 1))
        for out, back in reversed(self._nodes):
            if out.grad is not None:
                back(out.grad)


class AdamState:
    """Adam with bias correction and optional decoupled weight decay."""

    def __init__(self, params, lr=0.01, weight_decay=0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """Update each parameter in place from its .grad (None counts as zero)."""
        self.t += 1
        bc1 = 1.0 - _ADAM_BETA1**self.t
        bc2 = 1.0 - _ADAM_BETA2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != param shape {p.data.shape}")
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update

