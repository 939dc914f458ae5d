"""Dense 64-bit tensor engine with tape-based reverse-mode differentiation.

Everything is a 2-D float64 matrix (scalars are 1x1). A Tape records each
operation applied to tensors that require gradients; Tape.backward replays
the records in reverse, accumulates gradients into the leaf tensors and
frees each record as it goes. A tape is single-use: calling backward twice
raises.

Records hold gradient cells, never tensors (see Tape), so an op output
that no backward reads is freed as soon as its caller drops it.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .graphs import arc_index_dtype, bucket_matrix, check_arc_index

__all__ = ["Tensor", "Tape", "Arcs", "AdamState", "parameter", "constant", "softmax"]

_LN_EPS = 1e-5
# arcs per block of aggregate_update's score-gradient gathers and
# arc_attention's row gathers: 1 MiB of float64 rows at width 16
_ARC_BLOCK = 8192
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class Tensor:
    """A 2-D float64 matrix and its gradient cell.

    A C- or F-contiguous float64 array is kept as it is, without a copy;
    any other input is copied into a C-contiguous array. So a chunk-major
    (C, arcs) array's `.T` view is an (arcs, C) tensor of no extra size
    (`Tape.arc_attention`'s scores).

    The cell is a one-slot list that `grad` reads and writes. Tape records
    and backward closures hold the cell, not the tensor, so the data of a
    tensor whose values no backward reads dies with its last caller-side
    reference, while backward can still fill in its gradient.
    """

    __slots__ = ("data", "requires_grad", "_cell")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not (arr.flags.c_contiguous or arr.flags.f_contiguous):
            arr = np.ascontiguousarray(arr)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D; got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._cell = [None]

    @property
    def grad(self):
        return self._cell[0]

    @grad.setter
    def grad(self, value):
        self._cell[0] = value

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


def _lend(mat, data, rhs):
    """mat @ rhs with data as mat's stored values for this one product.

    mat is a compressed sparse matrix that keeps its index arrays between
    calls but no data: it drops data again once the product is taken.
    """
    mat.data = data
    try:
        return mat @ rhs
    finally:
        mat.data = None


def softmax(z, temperature, axis):
    """Softmax of z / temperature along axis, shifted by the max.

    Works in place: z is overwritten with the result and returned.
    """
    if not temperature > 0.0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    z /= temperature
    z -= z.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    return z


def _softmax_backward(g, s, temperature, axis):
    """Gradient of the input of softmax from g, the gradient of its output s.

    Works in place: g is overwritten with the result and returned.
    """
    inner = (g * s).sum(axis=axis, keepdims=True)
    g -= inner
    g *= s
    g /= temperature
    return g


def _keep_mask(shape, keep_prob, rng):
    """Inverted dropout's boolean keep mask, rng's uniform draws below
    keep_prob, or None at keep_prob 1, which draws nothing. A record keeps
    it packed, one bit per entry (`_pack`)."""
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")
    return None if keep_prob == 1.0 else rng.random(shape) < keep_prob


def _pack(mask):
    """A boolean mask packed eight entries to a byte, or None for None."""
    return None if mask is None else np.packbits(mask)


def _unpack(bits, shape):
    """The boolean mask of this shape that `_pack` packed into bits, or
    None for None."""
    if bits is None:
        return None
    return np.unpackbits(bits, count=shape[0] * shape[1]).view(bool).reshape(shape)


def _drop(a, keep, scale):
    """a * keep * scale in place (a as it is if keep is None); returns a.

    keep is 0 or 1, so this is a * (keep * scale) bit for bit, without
    that float array.
    """
    if keep is not None:
        a *= keep
        a *= scale
    return a


def _cell(t: Tensor):
    """t's gradient cell if t takes a gradient, else None.

    A backward closure captures this at record time, in place of t.
    """
    return t._cell if t.requires_grad else None


def _accum(cell, g):
    """Add g into a gradient cell.

    g is a fresh array that nothing else holds, or a read-only broadcast
    view (`Tape.chunk_balance`'s). The first gradient is stored as it is. A
    later one is added in place into the held array if that is writable,
    else into g if g is, which then takes its place; two read-only views
    make a new array. Addition commutes, so the bits are those of adding
    into a copy of the held view.
    """
    held = cell[0]
    if held is None:
        cell[0] = g
    elif held.flags.writeable:
        held += g
    elif g.flags.writeable:
        g += held
        cell[0] = g
    else:
        cell[0] = held + g


class Arcs:
    """A checked CSR arc index and the sparse operators the tape builds on it.

    The arcs a in indptr[i]:indptr[i+1] point at row i of the n =
    len(indptr) - 1 output rows and come from row arc_src[a] of n_sources
    input rows. Construction checks the index once (`check_arc_index`,
    which raises ValueError naming the field) and keeps arrays already in
    `arc_index_dtype`, such as a Graph's, without a copy.

    `dst`, each arc's destination, and the operators are built on first use
    and kept: the stacked chunk CSR matrix and its CSC transpose for each
    chunk count, and `arc_attention`'s endpoint CSC matrix for each alpha.
    Their index arrays are in `arc_index_dtype`, so scipy keeps them
    without an int32 copy. The chunk matrices hold no float data between
    calls: each product lends them the scores (`_lend`). `chunk_sums` is
    the forward chunk product; `Tape.aggregate_update` runs the same
    product (`_chunk_blocks`) in its forward and again in its backward. A
    record that reads an operator holds this object, so the operators are
    freed with the last such record.
    """

    def __init__(self, arc_src, indptr, n_sources):
        self.src, self.indptr = check_arc_index(arc_src, indptr, n_sources)
        self.n, self.n_sources = len(self.indptr) - 1, int(n_sources)
        self._chunks, self._ends = {}, {}

    @cached_property
    def dst(self):
        return np.repeat(np.arange(self.n, dtype=self.indptr.dtype),
                         np.diff(self.indptr))

    def chunk_matrices(self, c):
        """(chunks, chunks_t): the (c*n, n_sources) CSR matrix whose block t
        has arc a at (dst[a], src[a]), and its CSC transpose on the same
        index arrays. Neither holds data."""
        pair = self._chunks.get(c)
        if pair is None:
            k, n = self.src.size, self.n
            idx = arc_index_dtype(max(c * n, self.n_sources), c * k)
            cols = np.empty((c, k), dtype=idx)
            cols[:] = self.src
            stacked = np.append((self.indptr[:-1] + k * np.arange(c)[:, None]).ravel(),
                                c * k)
            chunks = sp.csr_matrix((np.empty(c * k), cols.ravel(), stacked.astype(idx)),
                                   shape=(c * n, self.n_sources))
            chunks_t = chunks.T
            chunks.data = chunks_t.data = None
            pair = self._chunks[c] = (chunks, chunks_t)
        return pair

    def chunk_sums(self, scores, x):
        """Score-weighted sums of source rows, one output block per score column.

        scores is an (arcs, C) array and x an (n_sources, w) one. Block t of
        row i of the (n, C*w) result sums scores[a, t] * x[src[a]] over the
        arcs a into i, in arc order, the order np.add.at would use. One
        all-ones score column is a plain segment sum of gathered rows.

        The blocks are `_chunk_blocks`'s, laid side by side in a fresh
        C-ordered array.
        """
        blocks = self._chunk_blocks(scores, x)
        c, n, w = blocks.shape
        return blocks.transpose(1, 0, 2).reshape(n, c * w)

    def _chunk_blocks(self, scores, x):
        """The chunk sums as a fresh (C, n, w) array, block t for score
        column t: one sparse product of the stacked chunk matrix of
        `chunk_matrices`, lent the scores chunk-major, which costs no copy
        when they are F-ordered, as `Tape.arc_attention`'s are."""
        k, c = scores.shape
        n_x, w = x.shape
        if k != self.src.size or n_x != self.n_sources:
            raise ValueError(f"chunk_sums shape mismatch: scores {scores.shape} "
                             f"and x {x.shape} on {self.src.size} arcs from "
                             f"{self.n_sources} rows")
        chunks, _ = self.chunk_matrices(c)
        return _lend(chunks, scores.T.ravel(), x).reshape(c, self.n, w)

    def endpoint_matrix(self, alpha):
        """The (n, arcs) CSC matrix with alpha at (dst[a], a) and 1 at
        (src[a], a)."""
        ends = self._ends.get(alpha)
        if ends is None:
            k = self.src.size
            idx = arc_index_dtype(self.n, 2 * k)
            rows = np.empty((k, 2), dtype=idx)
            rows[:, 0], rows[:, 1] = self.dst, self.src
            ends = self._ends[alpha] = sp.csc_matrix(
                (np.tile([alpha, 1.0], k), rows.ravel(),
                 np.arange(0, 2 * k + 1, 2, dtype=idx)), shape=(self.n, k))
        return ends


class Tape:
    """Operation recorder. All ops are methods so the recording scope is explicit.

    With recording=False the same methods compute forward values only. The
    eval passes use that: the per-epoch eval in `training.train` and
    `training.average_scores`.

    A record is the pair (gradient cell of the output, backward closure).
    The closure keeps the cells of the inputs that took a gradient when it
    was recorded (None for the others) and only the arrays its backward
    reads, so an op output that no backward reads (a layer's message) is
    freed once the caller drops it. A value that a backward can rebuild
    from arrays its record keeps anyway is rebuilt rather than kept:
    project's dropped-out input, arc_attention's ReLU output, and
    aggregate_update's message, ReLU mask, standardized rows and
    dropped-out rows. The masks of relu and of the dropouts of project and
    aggregate_update are kept packed, one bit per entry, and each backward
    unpacks its mask once; a non-recording tape packs nothing. Backward
    frees as it goes: each record, and the gradient of its non-leaf
    output, is dropped as soon as its backward has run.

    A pending gradient may be a read-only broadcast view of no size until
    its record runs: `chunk_balance` hands each score tensor one (see
    `_accum`), so the penalty's K score gradients are not K (arcs, C)
    copies alive at once. `backward` copies such a view when its record
    runs, and a leaf's when the pass ends, so closures and leaves always
    get arrays of their own.

    The two arc ops, arc_attention and aggregate_update, read their arcs
    and sparse operators from an `Arcs` object, which builds each operator once
    however many calls share it. A record that reads one holds the Arcs, so
    the operators live as long as the records do. The endpoint matrix is
    built by the first backward that reads it, so a non-recording tape
    never builds it. None of these operators keeps a layer's values.
    """

    def __init__(self, recording=True):
        self.recording = recording
        self._nodes = []  # (out gradient cell, backward closure), in execution order
        self._consumed = False
        self._views = []  # the cells chunk_balance's backward handed a broadcast view

    def _emit(self, out: Tensor, parents, backward_fn):
        if self.recording and any(p.requires_grad for p in parents):
            out.requires_grad = True
            self._nodes.append((out._cell, backward_fn))
        return out

    # ---- elementwise / structural ops -------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
        out = Tensor(a.data + b.data)
        ga, gb = _cell(a), _cell(b)

        def back(g):
            # one g, two cells: copy it before _accum may add into it
            if gb is not None:
                _accum(gb, g if ga is None else g.copy())
            if ga is not None:
                _accum(ga, g)

        return self._emit(out, (a, b), back)

    def const_matmul(self, x, w: Tensor) -> Tensor:
        """x @ w for a constant left operand x, which takes no gradient.

        x is a 2-D float64 ndarray or a scipy sparse matrix, such as the
        encoder's input (`Graph.encoder_operand`: CSR for bag-of-words
        features). The forward is x @ w and w's gradient is x.T @ g, the
        same two expressions for either kind: a BLAS product for an
        ndarray, bit for bit what `project` computes at keep_prob 1 with x
        as a constant tensor, and a sparse product for a sparse matrix. The
        record keeps x, which its owner holds anyway.
        """
        if x.shape[1] != w.data.shape[0]:
            raise ValueError(
                f"const_matmul dimension mismatch: {x.shape} x {w.data.shape}"
            )
        out = Tensor(x @ w.data)
        gw = w._cell

        def back(g):
            _accum(gw, x.T @ g)

        return self._emit(out, (w,), back)

    def relu(self, x: Tensor) -> Tensor:
        """max(x, 0); the record keeps the mask x > 0 at one bit per entry,
        not x. A non-recording tape builds no mask."""
        out = Tensor(np.maximum(x.data, 0.0))
        gx, shape = x._cell, x.data.shape
        active = _pack(x.data > 0.0) if self.recording else None

        def back(g):
            g *= _unpack(active, shape)
            _accum(gx, g)

        return self._emit(out, (x,), back)

    def project(self, x: Tensor, w: Tensor, keep_prob: float,
                rng: np.random.Generator) -> Tensor:
        """dropout(x) @ w, inverted dropout then the product, as one node.

        Its mask is drawn as `aggregate_update`'s is, so keep_prob 1 draws
        nothing from rng and multiplies x itself. Surviving entries are
        scaled by 1/keep_prob: both passes multiply by the mask, then by the
        scale, the float mask (r < keep_prob) / keep_prob bit for bit. The
        record keeps the mask at one bit per entry and the data of x and w,
        which their owners hold anyway, not the dropped-out copy of x: the
        backward rebuilds that for w's gradient and frees it before x's
        gradient is built.
        """
        if x.data.shape[1] != w.data.shape[0]:
            raise ValueError(
                f"project dimension mismatch: {x.data.shape} x {w.data.shape}"
            )
        shape = x.data.shape
        keep = _keep_mask(shape, keep_prob, rng)
        scale = 1.0 / keep_prob

        def dropped(a, mask):
            return a if mask is None else _drop(a.copy(), mask, scale)

        out = Tensor(dropped(x.data, keep) @ w.data)
        keep = _pack(keep) if self.recording else None
        gx, gw = _cell(x), _cell(w)
        x_data = x.data if gw is not None else None  # read for w's gradient only
        w_data = w.data if gx is not None else None

        def back(g):
            mask = _unpack(keep, shape)
            if gw is not None:
                _accum(gw, dropped(x_data, mask).T @ g)
            if gx is not None:
                _accum(gx, _drop(g @ w_data.T, mask, scale))

        return self._emit(out, (x, w), back)

    def arc_attention(self, h: Tensor, w_att: Tensor, arcs: Arcs,
                      alpha: float, temperature: float) -> Tensor:
        """Per-arc scores softmax(ReLU(alpha * h[arcs.dst] + h[arcs.src]) @ w_att).

        h has arcs.n == arcs.n_sources rows: the arcs run between its rows.

        Equal bit for bit, for fewer than eight chunks, to the same steps in
        plain numpy with a row-major softmax (the reference in the tests),
        recorded as one node; from eight on, numpy sums each row of that
        softmax pairwise and the two may differ in the last bits. The
        softmax and its backward run on chunk-major (C, arcs) arrays, so
        each reduction adds C long rows instead of arcs short ones, and the
        scores are the F-ordered (arcs, C) `.T` view of the softmax's
        array. The backward reads g and the scores chunk-major through
        their `.T` (g costs a copy only if it is not F-ordered) and turns g
        into the softmax gradient in place, chunk-major. The record keeps
        no (arcs, w) array, only h's data, w_att's and its own scores, and
        the backward recomputes the ReLU output from h with the forward's
        operations, then runs the softmax, w_att's gradient and the ReLU
        mask, which it takes as one byte per entry, dropping the ReLU output
        before the (arcs, w) gradient is built, and returns h's gradient as
        one sparse product with `Arcs.endpoint_matrix`, alpha at (dst[a], a)
        and 1 at (src[a], a). Both passes gather the destination and source
        rows in blocks of `_ARC_BLOCK` arcs, so the ReLU output is the only
        (arcs, w) float array alive at once and no arc-sized copy of an
        int32 index is made.
        """
        n, w = h.data.shape
        if not n == arcs.n == arcs.n_sources or w_att.data.shape[0] != w:
            raise ValueError(f"arc_attention dimension mismatch: {h.data.shape} "
                             f"rows on arcs from {arcs.n_sources} into {arcs.n} "
                             f"rows, scored by {w_att.data.shape}")
        alpha = float(alpha)
        src, dst = arcs.src, arcs.dst
        h_data, w_data = h.data, w_att.data

        def activation():
            act = np.empty((src.size, w))
            for lo in range(0, src.size, _ARC_BLOCK):
                block = slice(lo, lo + _ARC_BLOCK)
                rows = act[block]
                np.multiply(h_data.take(dst[block], axis=0), alpha, out=rows)
                rows += h_data.take(src[block], axis=0)
            return np.maximum(act, 0.0, out=act)

        out = Tensor(softmax(np.ascontiguousarray((activation() @ w_data).T),
                             temperature, 0).T)
        gh, gw, s = _cell(h), _cell(w_att), out.data

        def back(g):
            # chunk-major throughout: s.T, and g.T for the F-ordered g that
            # aggregate_update hands on, are C-contiguous views, and dz is the
            # (arcs, C) view of the (C, arcs) result
            dz = _softmax_backward(np.ascontiguousarray(g.T), s.T, temperature, 0).T
            act = activation()
            if gw is not None:
                _accum(gw, act.T @ dz)
            if gh is not None:
                active = act > 0.0
                del act  # before d_pre, an array of its size, is built
                d_pre = dz @ w_data.T
                d_pre *= active
                _accum(gh, arcs.endpoint_matrix(alpha) @ d_pre)

        return self._emit(out, (h, w_att), back)

    def aggregate_update(self, scores: Tensor, x: Tensor, arcs: Arcs, h0: Tensor,
                         beta: float, gain: Tensor, bias: Tensor, w: Tensor,
                         keep_prob: float, rng: np.random.Generator) -> Tensor:
        """dropout(LayerNorm(relu((1 - beta) * h0 + beta * message))) @ w,
        where message = arcs.chunk_sums(scores, x): a layer's chunk sums,
        residual update and the projection that reads it, as one node.

        h0 has arcs.n rows of width C * w_x, for the (arcs, C) scores and
        the arcs.n_sources rows of x of width w_x. The LayerNorm
        standardizes each row with its population variance and epsilon 1e-5
        under the square root, then maps it by the 1 x d gain and bias; the
        dropout is `project`'s, its mask drawn by the same helper, so
        keep_prob 1 draws nothing from rng. Equal bit for bit, output and
        gradients, to the chunk sums followed by LayerNorm, dropout and the
        product in plain numpy (the reference in the tests).

        Of its own the record keeps the keep mask at one bit per entry and
        the rows' means and 1/std; it reads the scores and x, which the
        attention before it keeps, h0, one array for every layer, and gain,
        bias and w. The backward rebuilds the message with the same chunk
        product, and from it the mix, its ReLU mask and the standardized
        rows with the forward's operations. The chunk sums' backward takes
        x's gradient as the transposed chunk product and the scores' as a
        sampled dense-dense product over the arcs, gathering rows in blocks
        of `_ARC_BLOCK` arcs, and hands it on as the F-ordered `.T` of
        (C, arcs) rows. Keeping the means and 1/std, 16 bytes a row, spares
        the backward two row reductions and a pass over the rows.

        Each pass holds at most three (n, d) float arrays: the mix,
        standardized in place, the chunk product's own array, scratch once
        it is added in, and in the backward the rows' gradient, turned into
        the mix's and then the message's in place and copied chunk-major
        into the standardized rows' array once they are read no more.
        """
        k, c = scores.data.shape
        n, d = h0.data.shape
        width = x.data.shape[1]
        if n != arcs.n or d != c * width:
            raise ValueError(f"aggregate_update shape mismatch: h0 {h0.data.shape} "
                             f"for {c} chunks of width {width} into {arcs.n} rows")
        if gain.data.shape != (1, d) or bias.data.shape != (1, d):
            raise ValueError("aggregate_update gain and bias must be 1 x d")
        if w.data.shape[0] != d:
            raise ValueError(f"aggregate_update dimension mismatch: rows of width "
                             f"{d} projected by {w.data.shape}")
        s_data, x_data, h0_data = scores.data, x.data, h0.data
        gain_data, bias_data, w_data = gain.data, bias.data, w.data
        keep = _keep_mask((n, d), keep_prob, rng)
        scale = 1.0 / keep_prob
        beta = float(beta)

        def relu_mix():
            """relu((1 - beta) * h0 + beta * message), C-ordered, so sums
            over rows add in the same order in both passes, and the chunk
            product's own array, free for scratch, as an (n, d) array."""
            blocks = arcs._chunk_blocks(s_data, x_data)
            blocks *= beta
            mix = np.multiply(h0_data, 1.0 - beta, out=np.empty((n, d)))
            by_chunk = mix.reshape(n, c, width)  # a view of mix
            by_chunk += blocks.transpose(1, 0, 2)
            return np.maximum(mix, 0.0, out=mix), blocks.reshape(n, d)

        def dropped(xhat, mask, rows):
            np.multiply(xhat, gain_data, out=rows)
            rows += bias_data
            return _drop(rows, mask, scale)

        xhat, scratch = relu_mix()
        # row means are sum / d, what np.mean computes
        mean = xhat.sum(axis=1, keepdims=True) / d
        xhat -= mean
        var = np.multiply(xhat, xhat, out=scratch).sum(axis=1, keepdims=True) / d
        inv_std = 1.0 / np.sqrt(var + _LN_EPS)
        xhat *= inv_std
        out = Tensor(dropped(xhat, keep, scratch) @ w_data)
        del xhat, scratch
        keep = _pack(keep) if self.recording else None
        g_s, g_x, g_h0 = _cell(scores), _cell(x), _cell(h0)
        g_gain, g_bias, g_w = _cell(gain), _cell(bias), _cell(w)

        def back(g):
            xhat, scratch = relu_mix()
            active = xhat > 0.0
            xhat -= mean
            xhat *= inv_std
            drop_mask = _unpack(keep, (n, d))
            if g_w is not None:
                _accum(g_w, dropped(xhat, drop_mask, scratch).T @ g)
            g_rows = _drop(g @ w_data.T, drop_mask, scale)  # of the LayerNorm output
            if g_gain is not None:
                _accum(g_gain, np.multiply(g_rows, xhat, out=scratch)
                       .sum(axis=0, keepdims=True))
            if g_bias is not None:
                _accum(g_bias, g_rows.sum(axis=0, keepdims=True))
            if g_h0 is None and g_s is None and g_x is None:
                return
            # standard layer-norm backward, fused form, turning the gradient
            # of the rows into that of the mix in place
            d_mix = g_rows
            d_mix *= gain_data
            mean_d = d_mix.sum(axis=1, keepdims=True) / d
            mean_dx = np.multiply(d_mix, xhat, out=scratch).sum(
                axis=1, keepdims=True) / d
            d_mix -= mean_d
            d_mix -= np.multiply(xhat, mean_dx, out=scratch)
            d_mix *= inv_std
            d_mix *= active
            if g_h0 is not None:  # scratch is read no more
                _accum(g_h0, np.multiply(d_mix, 1.0 - beta, out=scratch))
            del scratch
            if g_s is None and g_x is None:
                return
            d_mix *= beta  # the message's gradient, copied chunk-major into
            gt = xhat.reshape(c, n, width)  # the rows' array, read no more
            np.copyto(gt, d_mix.reshape(n, c, width).transpose(1, 0, 2))
            del d_mix, g_rows
            if g_x is not None:
                chunks_t = arcs.chunk_matrices(c)[1]
                _accum(g_x, _lend(chunks_t, s_data.T.ravel(), gt.reshape(c * n, width)))
            if g_s is not None:
                src, dst = arcs.src, arcs.dst
                g_scores = np.empty((c, k))
                for lo in range(0, k, _ARC_BLOCK):
                    block = slice(lo, lo + _ARC_BLOCK)
                    x_src = x_data.take(src[block], axis=0)
                    for t in range(c):
                        g_scores[t, block] = np.einsum(
                            "aw,aw->a", gt[t].take(dst[block], axis=0), x_src)
                _accum(g_s, g_scores.T)

        return self._emit(out, (scores, x, h0, gain, bias, w), back)

    # ---- normalization / regularization ops --------------------------------

    def chunk_balance(self, scores, weight: float) -> Tensor:
        """The chunk-balance penalty of K (arcs, C) score tensors, weighted,
        as 1x1: ((1/K) * sum_k sqrt(C_k)/arcs_k * ||m_k|| - 1) * weight,
        with C_k and arcs_k read from each shape and m_k the column sums of
        scores[k]. Unweighted, on softmax rows, it is 0 at uniform scores
        and sqrt(C) - 1 when every arc picks one chunk, whatever the number
        of arcs. Rows are added one after another on C- and F-ordered
        scores alike (numpy would sum the contiguous axis of F-ordered data
        pairwise), terms in layer order. No scores, a tensor of no rows, or
        an m_k of norm 0 raises.

        The record keeps each one-row m_k and its norm. The backward hands
        each score cell the read-only broadcast view, of no size, of
        m_k/||m_k|| * (g * weight/K) * sqrt(C_k)/arcs_k; `backward` copies
        it only where it is still a view when that tensor's own record
        runs, or when the pass ends if it is a leaf, so the penalty
        allocates no (arcs, C) gradient per layer.
        """
        if not scores:
            raise ValueError("chunk_balance needs at least one layer of scores")
        inv_k, weight = float(1.0 / len(scores)), float(weight)
        layers, total = [], 0.0
        for k, s in enumerate(scores):
            arcs, c = s.data.shape
            if not arcs:
                raise ValueError(f"chunk_balance needs arcs; scores[{k}] has 0 rows")
            m = np.cumsum(s.data, axis=0)[-1:].copy()
            norm = float(np.sqrt(np.sum(m * m)))
            if not norm:
                raise ValueError(f"chunk_balance needs scores of nonzero column "
                                 f"sums; scores[{k}] has ||m|| = 0")
            coef = float(np.sqrt(c) / arcs)
            total += norm * coef
            layers.append((_cell(s), s.data.shape, m, norm, coef))
        out = Tensor([[(total * inv_k - 1.0) * weight]])
        views = self._views

        def back(g):
            g_avg = g * weight * inv_k
            for cell, shape, m, norm, coef in layers:
                if cell is not None:
                    g_m = m / norm * (g_avg * coef)[0, 0]
                    _accum(cell, np.broadcast_to(g_m, shape))
                    views.append(cell)

        return self._emit(out, scores, back)

    def cross_entropy(self, logits: Tensor, labels, row_ids) -> Tensor:
        """Mean negative log-likelihood over the selected rows.

        labels holds one class id per logits row; row_ids holds the row ids
        of the rows that contribute (a split's training ids, say), as
        integers. A boolean mask, or any other non-integer array, raises
        ValueError: read as ids, a mask would select rows 0 and 1. Returns
        a 1x1 tensor; the backward sums row gradients with `bucket_matrix`.
        """
        y = np.asarray(labels, dtype=np.int64)
        rows = np.asarray(row_ids)
        n, c = logits.data.shape
        if y.shape != (n,):
            raise ValueError("labels must have one entry per logits row")
        if rows.size == 0:
            raise ValueError("cross_entropy needs a non-empty row selection")
        if rows.dtype.kind not in "iu":
            raise ValueError(f"cross_entropy row_ids must be integer row ids, "
                             f"got dtype {rows.dtype}")
        rows = rows.astype(np.int64, copy=False)
        if rows.min() < 0 or rows.max() >= n:
            raise IndexError("row id out of range")
        if y[rows].min() < 0 or y[rows].max() >= c:
            raise ValueError("label out of range for logits width")
        z = logits.data[rows]
        zmax = z.max(axis=1, keepdims=True)
        lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
        picked = z[np.arange(rows.size), y[rows]]
        out = Tensor([[float(np.mean(lse - picked))]])
        g_logits = logits._cell

        def back(g):
            soft = softmax(z.copy(), 1.0, 1)
            soft[np.arange(rows.size), y[rows]] -= 1.0
            _accum(g_logits, bucket_matrix(rows, n) @ (soft * (g[0, 0] / rows.size)))

        return self._emit(out, (logits,), back)

    # ---- reverse pass -------------------------------------------------------

    def backward(self, loss: Tensor):
        """Populate .grad on every leaf tensor the scalar loss depends on.

        Runs the records from last to first and drops each one once its
        backward has run: the record's gradient cell (.grad of the non-leaf
        output, loss included) is emptied and the arrays its closure
        captured are freed during the pass, not after it. Only leaf
        gradients, those of the parameters, survive; they add to what the
        leaves already hold. A gradient still pending as a read-only view
        is copied when its record runs, so each closure receives a fresh
        writable array, and a leaf's when the pass ends.
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
            cell, back = nodes.pop()
            g = cell[0]
            if g is not None:
                cell[0] = None
                back(g if g.flags.writeable else g.copy())
        for cell in self._views:  # a leaf's gradient is an array of its own
            if cell[0] is not None and not cell[0].flags.writeable:
                cell[0] = cell[0].copy()
        self._views.clear()


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

