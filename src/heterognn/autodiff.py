"""Dense 64-bit tensor engine with tape-based reverse-mode differentiation.

Everything is a 2-D float64 matrix (scalars are 1x1). A Tape records each
operation applied to tensors that require gradients; Tape.backward replays
the records in reverse, accumulates gradients into the leaf tensors and
frees each record as it goes. A tape is single-use: calling backward twice
raises.
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


def _softmax(x, temperature):
    """Row softmax of x / temperature, shifted by the row max."""
    if not temperature > 0.0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    z = x / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_backward(g, s, temperature):
    """Gradient of the input of _softmax from g, the gradient of its output s."""
    inner = (g * s).sum(axis=1, keepdims=True)
    return (g - inner) * s / temperature


def _accum(t: Tensor, g):
    if t.grad is None:
        t.grad = g.copy()  # never g itself: add passes one g to both operands
    else:
        t.grad += g


class Tape:
    """Operation recorder. All ops are methods so the recording scope is explicit.

    With recording=False the same methods compute forward values only. The
    eval passes use that: the per-epoch eval in `training.train`,
    `training.predict`, `training.average_scores` and the alignment softmax
    of `training.attention_analysis`.

    Backward frees as it goes: each record, and the gradient of its
    non-leaf output, is dropped as soon as its backward has run.
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

    def chunk_sum(self, scores: Tensor, x: Tensor, arc_src, indptr) -> Tensor:
        """Score-weighted sums of source rows, one output block per score column.

        The arcs a in indptr[i]:indptr[i+1] point at output row i, and block t
        of out[i] sums scores[a, t] * x[arc_src[a]] over them in arc order,
        the order np.add.at would use. One all-ones score column is a plain
        segment sum of gathered rows.

        The forward is one sparse product: the C chunk matrices (chunk t
        holds scores[a, t] at (i, arc_src[a])) stacked into a (C*n, len(x))
        CSR matrix. The backward takes the x gradient as the transposed
        product and the score gradient as a sampled dense-dense product over
        the arcs, one chunk at a time. No (arcs, C*w) array is built, and
        memory is O(arcs * (C + w)).
        """
        src = np.asarray(arc_src, dtype=np.int64)
        ptr = np.asarray(indptr, dtype=np.int64)
        k, c = scores.data.shape
        n_x, w = x.data.shape
        n = ptr.size - 1
        if src.shape != (k,):
            raise ValueError("scores and arc_src need one entry per arc")
        if (ptr.ndim != 1 or n < 0 or ptr[0] != 0 or ptr[-1] != k
                or np.any(np.diff(ptr) < 0)):
            raise ValueError("indptr must rise from 0 to the number of arcs")
        if k and (src.min() < 0 or src.max() >= n_x):
            raise IndexError("arc_src out of range")
        chunks = sp.csr_matrix(
            (scores.data.T.ravel(), np.tile(src, c),
             np.append((ptr[:-1] + k * np.arange(c)[:, None]).ravel(), c * k)),
            shape=(c * n, n_x))
        out = Tensor((chunks @ x.data).reshape(c, n, w).transpose(1, 0, 2)
                     .reshape(n, c * w))

        def back(g):
            g3 = g.reshape(n, c, w)
            if x.requires_grad:
                _accum(x, chunks.T @ g3.transpose(1, 0, 2).reshape(c * n, w))
            if scores.requires_grad:
                # chunk by chunk, so the transient arrays stay (arcs, w)
                dst = np.repeat(np.arange(n), np.diff(ptr))
                x_src = x.data[src]
                g_scores = np.empty((k, c))
                for t in range(c):
                    g_scores[:, t] = np.einsum("aw,aw->a", g3[dst, t], x_src)
                _accum(scores, g_scores)

        return self._emit(out, (scores, x), back)

    def arc_attention(self, h: Tensor, w_att: Tensor, arc_src, arc_dst,
                      alpha: float, temperature: float) -> Tensor:
        """Per-arc scores softmax(ReLU(alpha * h[arc_dst] + h[arc_src]) @ w_att).

        Equal bit for bit to the chain row_gather, row_gather, scale, add,
        relu, matmul, row_softmax, recorded as one node. It keeps the
        (arcs, w) ReLU output and the (arcs, C) scores for the backward, which
        runs the softmax, then w_att's gradient, then the ReLU mask, and
        returns h's gradient as one sparse product with alpha at
        (arc_dst[a], a) and 1 at (arc_src[a], a).
        """
        src = np.asarray(arc_src, dtype=np.int64)
        dst = np.asarray(arc_dst, dtype=np.int64)
        n, w = h.data.shape
        k = src.shape[0]
        if src.ndim != 1 or dst.shape != (k,):
            raise ValueError("arc_src and arc_dst must be 1-D and of equal length")
        if w_att.data.shape[0] != w:
            raise ValueError(f"arc_attention dimension mismatch: {h.data.shape} "
                             f"rows scored by {w_att.data.shape}")
        if k and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise IndexError("arc endpoint out of range")
        alpha = float(alpha)
        act = h.data[dst]
        act *= alpha
        act += h.data[src]
        np.maximum(act, 0.0, out=act)
        s = _softmax(act @ w_att.data, temperature)
        out = Tensor(s)

        def back(g):
            dz = _softmax_backward(g, s, temperature)
            if w_att.requires_grad:
                _accum(w_att, act.T @ dz)
            if h.requires_grad:
                d_pre = dz @ w_att.data.T
                d_pre *= act > 0.0
                ends = sp.csc_matrix(
                    (np.tile([alpha, 1.0], k), np.stack([dst, src], axis=1).ravel(),
                     np.arange(0, 2 * k + 1, 2)), shape=(n, k))
                _accum(h, ends @ d_pre)

        return self._emit(out, (h, w_att), back)

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
        s = _softmax(x.data, temperature)
        out = Tensor(s)

        def back(g):
            if x.requires_grad:
                _accum(x, _softmax_backward(g, s, temperature))

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
        """Populate .grad on every leaf tensor the scalar loss depends on.

        Runs the records from last to first and drops each one once its
        backward has run: the record's gradient (.grad of the non-leaf
        output, loss included) is set to None and the arrays its closure
        captured are freed during the pass, not after it. Only leaf
        gradients, those of the parameters, survive.
        """
        if loss.data.shape != (1, 1):
            raise ValueError(f"backward needs a scalar (1x1) loss, got {loss.data.shape}")
        if self._consumed:
            raise RuntimeError("tape already consumed; build a new tape per forward pass")
        if not self._nodes:
            raise RuntimeError("tape is empty; nothing was recorded")
        self._consumed = True
        loss.grad = np.ones((1, 1))
        nodes = self._nodes
        while nodes:
            out, back = nodes.pop()
            if out.grad is not None:
                back(out.grad)
                out.grad = None


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

