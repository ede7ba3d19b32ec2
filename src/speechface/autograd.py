"""Dense tensors with reverse-mode automatic differentiation.

Everything the network needs is built from the primitives in this module:
convolution, max pooling, batch normalization (alone, or fused with ReLU and
a two-tap pool for training, optionally with a convolution before it, which
then works from the convolution's im2col columns and never makes its output),
dense layers, elementwise activations and the LSTM/GRU cell steps. Each
primitive records a backward closure on a tape; calling
:meth:`Tensor.backward` on a scalar loss walks the tape in reverse
topological order and accumulates exact gradients into every leaf tensor
that requested them. Backward closures read their inputs' arrays when they
run, so those arrays must not change in place between the forward
pass and the backward pass. The walk consumes the tape, releasing each node's
saved arrays once its closure has run, so a recorded graph is differentiated
once; a second backward through it raises :class:`StateError`.

Arrays are float32 by default. Building inputs and parameters as float64
switches the whole graph to 64-bit, which is what the finite-difference
gradient checks use.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import ConfigError, ShapeError, StateError

_grad_enabled = True


class no_grad:
    """Context manager that disables tape recording (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._saved
        return False


def _consumed(g):
    """Backward of a node whose graph an earlier backward already walked."""
    raise StateError("graph already consumed by an earlier backward; "
                     "record the forward pass again")


def _as_array(data) -> np.ndarray:
    if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
        return data
    if isinstance(data, np.floating):
        # 0-d arithmetic yields numpy scalars; keep their precision
        return np.asarray(data)
    return np.asarray(data, dtype=np.float32)


class Tensor:
    """A dense n-dimensional float array, optionally carrying a gradient."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._prev: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate d(self)/d(x) into every leaf tensor x on the recorded
        tape (parameters and inputs that requested gradients).

        ``self`` must be a scalar produced by a recorded forward pass; it keeps
        its gradient of 1, and intermediate tensors are left with ``grad`` None.

        The walk consumes the graph: each node drops its parents and its
        backward closure before the closure runs, so the arrays saved for
        backward are freed as soon as they are used. A second backward that
        reaches a consumed node, from this root or from another root sharing
        the subgraph, raises :class:`StateError`; record the forward pass
        again instead.
        """
        if self._backward is None:
            raise StateError("backward called before any forward pass was recorded")
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar, got shape {self.data.shape}")
        self.grad = np.ones_like(self.data)

        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # A non-leaf gradient is handed over to its node's backward, which
        # may reuse the array in place, so the tape frees it as it goes. The
        # node's links and closure go before the closure runs, so the arrays
        # it saved are freed as soon as the walk moves on.
        while order:
            node = order.pop()
            fn = node._backward
            if fn is None:
                continue
            node._prev, node._backward = (), _consumed
            if node.grad is not None:
                g = node.grad
                if node is self:
                    g = g.copy()
                else:
                    node.grad = None
                fn(g)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """A named trainable tensor."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def _make(out_data: np.ndarray, parents, backward) -> Tensor:
    """Wrap a forward result, attaching the tape entry when recording."""
    out = Tensor(out_data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        if t.grad is None:
            t.grad = g.copy()
        else:
            t.grad += g


def _accum_owned(t: Tensor, g: np.ndarray) -> None:
    """Accumulate a gradient array the caller guarantees is not aliased."""
    if t.requires_grad:
        if t.grad is None:
            t.grad = g
        else:
            t.grad += g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _make(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def backward(g):
        _accum(a, g)
        _accum_owned(b, -g)

    return _make(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data

    def backward(g):
        _accum_owned(a, g * bd)
        _accum_owned(b, g * ad)

    return _make(ad * bd, (a, b), backward)


def sum_all(x: Tensor) -> Tensor:
    xd = x.data

    def backward(g):
        _accum(x, np.broadcast_to(g, xd.shape).astype(xd.dtype, copy=False))

    return _make(np.asarray(xd.sum(), dtype=xd.dtype), (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape

    def backward(g):
        _accum(x, g.reshape(old))

    return _make(x.data.reshape(shape), (x,), backward)


def narrow(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along one axis."""
    idx = tuple(slice(None) if d != axis else slice(start, stop) for d in range(x.ndim))

    def backward(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[idx] += g

    return _make(x.data[idx].copy(), (x,), backward)


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows along the first axis; backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise ShapeError("take_rows: index out of range")

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, idx, g)
            _accum_owned(x, gx)

    return _make(x.data[idx], (x,), backward)


# ---------------------------------------------------------------------------
# activations


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def backward(g):
        if x.requires_grad:
            _accum_owned(x, np.multiply(g, out > 0, out=g))

    return _make(out, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def backward(g):
        _accum_owned(x, g * (1 - y * y))

    return _make(y, (x,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # split by sign, so exp never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)

    def backward(g):
        _accum_owned(x, g * y * (1 - y))

    return _make(y, (x,), backward)


# ---------------------------------------------------------------------------
# dense / convolution / pooling / normalization
#
# The full-size trunk ops run over the batch in blocks of samples, about
# 512 KiB of each operand: a block that one step reads from memory is still
# in cache (2 MiB of L2 per core, with up to three operands in flight) for
# the steps after it, so each full-size array is written once.
#
# In training every pool follows a batch-normalized conv and runs inside
# bn_relu_pool, one node that keeps its input, its output and a bool mask of
# the winning taps on the tape. conv1, over the one-channel spectrogram,
# joins that node as conv_bn_relu_pool, which keeps the conv's input instead
# of its output: with three columns per output, batch norm's statistics and
# every gradient follow from the columns' Gram matrix and from sums at the
# pooled size. The layer walk of inference runs batch norm, ReLU and
# max_pool2d as separate ops, so it reports every stage; the batched plan
# folds batch norm into the convs.
_BLOCK_BYTES = 1 << 19


def _blocks(nb: int, sample_bytes: int) -> list:
    step = max(1, _BLOCK_BYTES // max(1, sample_bytes))
    return [slice(i, min(i + step, nb)) for i in range(0, nb, step)]


def _by_sample(a: np.ndarray) -> np.ndarray:
    """(B, C, ...) as (B, C, rest); a view when ``a`` is C-contiguous."""
    return a.reshape(a.shape[:2] + (math.prod(a.shape[2:]),))


def dense(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map ``y = x @ w.T + b`` with ``w`` of shape (d_out, d_in)."""
    xd = x.data
    if xd.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"dense: expected 2-d operands, got {x.shape} and {w.shape}")
    if xd.shape[1] != w.data.shape[1]:
        raise ShapeError(
            f"dense: input width {xd.shape[1]} does not match weight width {w.data.shape[1]}"
        )
    if b is not None and b.data.shape != (w.data.shape[0],):
        raise ShapeError(f"dense: bias shape {b.data.shape} does not match {w.data.shape[0]} outputs")

    y = xd @ w.data.T
    if b is not None:
        y = y + b.data

    wd = w.data

    def backward(g):
        _accum_owned(x, g @ wd)
        _accum_owned(w, g.T @ xd)
        if b is not None:
            _accum_owned(b, g.sum(axis=0))

    return _make(y, (x, w) + ((b,) if b is not None else ()), backward)


def _tap_span(n_in: int, n_out: int, i: int, s: int, p: int):
    """Outputs [lo, hi) whose input s*t + i - p of kernel tap i lies inside
    [0, n_in), and the input slice they read (meaningful when hi > lo)."""
    lo = min(n_out, max(0, -((i - p) // s)))
    hi = max(lo, min(n_out, (n_in - 1 + p - i) // s + 1))
    return lo, hi, slice(s * lo + i - p, s * (hi - 1) + i - p + 1, s)


def _fill_box(dst: np.ndarray, f: tuple, t: tuple, src) -> None:
    """Write ``src`` into dst[..., f0:f1, t0:t1] and zero the rest of dst."""
    (f0, f1), (t0, t1) = f, t
    if f0:
        dst[..., :f0, :] = 0
    if f1 < dst.shape[-2]:
        dst[..., f1:, :] = 0
    if t0:
        dst[..., f0:f1, :t0] = 0
    if t1 < dst.shape[-1]:
        dst[..., f0:f1, t1:] = 0
    if f1 > f0 and t1 > t0:
        dst[..., f0:f1, t0:t1] = src


class _Conv:
    """One convolution's geometry and im2col, and its forward and backward
    one block of samples at a time.

    im2col is one strided copy per kernel tap, in one of two layouts. With
    many output positions per sample, batched (B,K,P) matmuls have plenty of
    work each and run a block of samples at a time. With few positions the
    whole batch is one block, folded into one big GEMM, since the extra
    transpose copies are tiny at that size; ``fold=False`` keeps the
    per-sample layout at any size. :func:`conv2d` runs the blocks once to
    make the output; :func:`conv_bn_relu_pool` reads only their columns.
    Errors name ``op``.
    """

    def __init__(self, x: Tensor, w: Tensor, b: Tensor | None, stride, pad, op: str,
                 fold: bool = True):
        xd = x.data
        if xd.ndim != 4 or w.ndim != 4:
            raise ShapeError(f"{op}: expected (B,C,F,T) input and 4-d weights, "
                             f"got {x.shape} / {w.shape}")
        nb, c_in, f_in, t_in = xd.shape
        c_out, c_w, k_f, k_t = w.data.shape
        if c_w != c_in:
            raise ShapeError(f"{op}: input has {c_in} channels but weights expect {c_w}")
        (s_f, s_t), (p_f, p_t) = stride, pad
        if f_in + 2 * p_f < k_f or t_in + 2 * p_t < k_t:
            raise ShapeError(f"{op}: kernel ({k_f},{k_t}) larger than padded input "
                             f"({f_in + 2 * p_f},{t_in + 2 * p_t})")
        if b is not None and b.data.shape != (c_out,):
            raise ShapeError(f"{op}: bias shape {b.data.shape} does not match {c_out} channels")

        self.x, self.w, self.b, self.stride, self.pad = x, w, b, stride, pad
        self.parents = (x, w) + ((b,) if b is not None else ())
        f_out = (f_in + 2 * p_f - k_f) // s_f + 1
        t_out = (t_in + 2 * p_t - k_t) // s_t + 1
        self.shape = (nb, c_out, f_out, t_out)
        self.wmat = w.data.reshape(c_out, -1)
        self.dtype = np.result_type(xd.dtype, w.data.dtype)
        n_pos = f_out * t_out
        k_all = c_in * k_f * k_t
        # per kernel tap (i, j): its output box and the input it reads there
        self.taps = [(i, j, _tap_span(f_in, f_out, i, s_f, p_f),
                      _tap_span(t_in, t_out, j, s_t, p_t))
                     for i in range(k_f) for j in range(k_t)]

        # ``tap_view`` shows either layout's slots of one tap as
        # (B, C_in, F_out, T_out). The im2col buffer holds one block and is
        # rebuilt from x whenever another block is asked for, in backward
        # too: x stays alive anyway, and a whole batch of columns is up to
        # 1.5x its size.
        self.folded = fold and n_pos < 64
        if self.folded:
            def tap_view(a, i, j):
                return a.reshape(c_in, k_f, k_t, -1, f_out, t_out)[:, i, j].transpose(1, 0, 2, 3)
            self.blocks = [slice(0, nb)]
            self.col = np.empty((k_all, nb * n_pos), dtype=self.dtype)
        else:
            def tap_view(a, i, j):
                return a.reshape(-1, c_in, k_f, k_t, f_out, t_out)[:, :, i, j]
            self.blocks = _blocks(nb, max(k_all, c_out) * n_pos * np.dtype(self.dtype).itemsize)
            self.col = np.empty((self.blocks[0].stop if self.blocks else 0, k_all, n_pos),
                                dtype=self.dtype)
        self.tap_view = tap_view
        self.filled = None  # the block whose columns the buffer holds

    def cols(self, blk):
        """The block's im2col in the reused buffer, (K, n*P) folded and
        (n, K, P) otherwise; built only if the buffer holds another block."""
        col = self.col if self.folded else self.col[:blk.stop - blk.start]
        if blk != self.filled:
            xb = self.x.data[blk]
            for i, j, (f0, f1, fs), (t0, t1, ts) in self.taps:
                _fill_box(self.tap_view(col, i, j), (f0, f1), (t0, t1), xb[:, :, fs, ts])
            self.filled = blk
        return col

    def output(self, blk, out):
        """The conv of the block's samples into ``out``, (n, C_out, P)."""
        if self.folded:
            # (C_out, n*P), which for one sample is already the layout of out
            one = out[0] if len(out) == 1 else None
            o2 = np.matmul(self.wmat, self.cols(blk), out=one)
            if self.b is not None:
                o2 += self.b.data[:, None]
            if one is None:
                out[...] = o2.reshape(out.shape[1], len(out), out.shape[2]).transpose(1, 0, 2)
        else:
            np.matmul(self.wmat, self.cols(blk), out=out)
            if self.b is not None:
                out += self.b.data[:, None]
        return out

    def backward(self, grads) -> None:
        """Accumulate the w, b and x gradients from (blk, gm) pairs, gm being
        the output gradient (n, C_out, P) of the samples in blk, taken in
        block order."""
        xd = self.x.data
        gx = np.empty(xd.shape, dtype=xd.dtype) if self.x.requires_grad else None
        if self.folded:
            (blk, gm), = grads
            gmat = np.ascontiguousarray(gm.transpose(1, 0, 2)).reshape(len(self.wmat), -1)
            gw, gb = gmat @ self.cols(blk).T, gmat.sum(axis=1)
            if gx is not None:
                _col2im(gx, self.wmat.T @ gmat, self.tap_view, self.taps, self.stride, self.pad)
        else:
            gw = np.zeros(self.wmat.shape, dtype=self.dtype)
            gb = np.zeros(self.shape[1], dtype=self.dtype)
            gcol = np.empty_like(self.col) if gx is not None else None
            for blk, gm in grads:
                cb = self.cols(blk)
                gw += np.matmul(gm, cb.transpose(0, 2, 1)).sum(axis=0)
                gb += gm.sum(axis=(0, 2))
                if gx is not None:
                    gcb = np.matmul(self.wmat.T, gm, out=gcol[:len(gm)])
                    _col2im(gx[blk], gcb, self.tap_view, self.taps, self.stride, self.pad)
        _accum_owned(self.w, gw.reshape(self.w.data.shape))
        if self.b is not None:
            _accum_owned(self.b, gb)
        if gx is not None:
            _accum_owned(self.x, gx)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride=(1, 1), pad=(0, 0)) -> Tensor:
    """2-d cross-correlation over (freq, time) with symmetric zero padding.

    ``x`` is (B, C_in, F, T) and ``w`` is (C_out, C_in, kF, kT). Output
    spatial dims follow the usual floor((size + 2*pad - kernel) / stride) + 1
    rule. The padded input is never built: padding is written as zeros into
    the im2col slots it covers, and the input gradient is assembled from the
    spans of input that the kernel taps cover.
    """
    cv = _Conv(x, w, b, stride, pad, "conv2d")
    nb, c_out, f_out, t_out = cv.shape
    out = np.empty((nb, c_out, f_out * t_out), dtype=cv.dtype)
    for blk in cv.blocks:
        cv.output(blk, out[blk])

    def backward(g):
        gmat = g.reshape(nb, c_out, f_out * t_out)
        cv.backward((blk, gmat[blk]) for blk in cv.blocks)

    return _make(out.reshape(cv.shape), cv.parents, backward)


def _col2im(gx, gcol, tap_view, taps, stride, pad) -> None:
    """Sum each kernel tap's column gradient back onto the input positions
    it read, writing every element of ``gx`` once before adding to it.

    Tap (i, j) reads the input rows and columns congruent to (i - p_f,
    j - p_t) modulo the stride. Within that residue class the first tap
    writes its span and zeroes the rest; later taps of the class add to
    theirs, in the same order as a scatter-add into zeros would. Classes no
    tap reads are zero.
    """
    (s_f, s_t), (p_f, p_t) = stride, pad
    written = set()
    for i, j, (f0, f1, _), (t0, t1, _) in taps:
        cls = ((i - p_f) % s_f, (j - p_t) % s_t)
        dst = gx[:, :, cls[0]::s_f, cls[1]::s_t]
        # class row m holds input row s*m + cls, which tap i reads at output m - q
        q_f, q_t = (i - p_f) // s_f, (j - p_t) // s_t
        box = ((f0 + q_f, f1 + q_f), (t0 + q_t, t1 + q_t))
        src = tap_view(gcol, i, j)[:, :, f0:f1, t0:t1]
        if cls in written:
            if f1 > f0 and t1 > t0:
                dst[:, :, box[0][0]:box[0][1], box[1][0]:box[1][1]] += src
        else:
            written.add(cls)
            _fill_box(dst, *box, src)
    for a in range(s_f):
        for c in range(s_t):
            if (a, c) not in written:
                gx[:, :, a::s_f, c::s_t] = 0


def max_pool2d(x: Tensor, window, stride=None) -> Tensor:
    """Max pooling over (freq, time) windows; trailing partial windows drop.

    Only ``x`` and the output stay on the tape: backward routes each upstream
    gradient element to the first tap, in window order, equal to the output.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"max_pool2d: expected (B,C,F,T) input, got {x.shape}")
    w_f, w_t = window
    s_f, s_t = stride if stride is not None else window
    f_in, t_in = xd.shape[2:]
    if w_f > f_in or w_t > t_in:
        raise ShapeError(f"max_pool2d: window ({w_f},{w_t}) larger than input ({f_in},{t_in})")
    f_out = (f_in - w_f) // s_f + 1
    t_out = (t_in - w_t) // s_t + 1
    taps = [(..., slice(i, i + s_f * f_out, s_f), slice(j, j + s_t * t_out, s_t))
            for i in range(w_f) for j in range(w_t)]

    out = np.maximum(xd[taps[0]], xd[taps[-1]])  # a copy for a one-tap window
    for tap in taps[1:-1]:
        np.maximum(out, xd[tap], out=out)

    def backward(g):  # recorded only when x requires a gradient
        gx = np.zeros_like(xd)
        free = np.ones(out.shape, dtype=bool)
        for tap in taps:
            won = free & (xd[tap] == out)
            free &= ~won
            gx[tap] += g * won
        _accum_owned(x, gx)

    return _make(out, (x,), backward)


class BatchNormState:
    """Per-channel scale/shift parameters plus running statistics."""

    momentum = 0.9  # weight of the old running statistics per training batch
    epsilon = 1e-5  # added to the variance before the square root

    def __init__(self, name: str, channels: int, dtype=np.float32):
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels, dtype=dtype))
        self.beta = Parameter(f"{name}.beta", np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    @property
    def channels(self) -> int:
        return self.gamma.data.shape[0]


def _split(a: np.ndarray):
    """``a`` as views of its blocks of samples."""
    return (a[blk] for blk in _blocks(len(a), a[:1].nbytes))


def _channel_sums(pairs, channels: int):
    """Per-channel float64 sums of ``a`` and of ``a * b`` over every axis
    but 1, from the (a, b) pairs of blocks of samples that make up both.

    Each (sample, channel) row is reduced contiguously by BLAS in the
    arrays' own precision, and the rows are summed over the batch in float64,
    one block after another.
    """
    sum_a, sum_ab = np.zeros(channels), np.zeros(channels)
    for a, b in pairs:
        a3, b3 = _by_sample(a), _by_sample(b)
        sum_a += (a3 @ np.ones(a3.shape[2], dtype=a3.dtype)).sum(axis=0, dtype=np.float64)
        dots = a3[:, :, None, :] @ b3[:, :, :, None]
        sum_ab += dots[:, :, 0, 0].sum(axis=0, dtype=np.float64)
    return sum_a, sum_ab


def _channel_affine(out: np.ndarray, terms, shift=None) -> None:
    """out = sum of a * f over (a, f) in ``terms``, plus ``shift``, where f
    and shift are per channel; ``out`` is C-contiguous and may be one of the
    a. Runs block by block, so ``out`` is written once."""
    o3 = _by_sample(out)
    per_channel = (1, o3.shape[1], 1)
    terms = [(_by_sample(a), np.asarray(f, out.dtype).reshape(per_channel)) for a, f in terms]
    if shift is not None:
        shift = np.asarray(shift, out.dtype).reshape(per_channel)
    tmp = None
    for blk in _blocks(len(o3), o3[:1].nbytes):
        ob = o3[blk]
        (a, f), rest = terms[0], terms[1:]
        np.multiply(a[blk], f, out=ob)
        for a, f in rest:
            tmp = np.multiply(a[blk], f, out=None if tmp is None else tmp[:len(ob)])
            ob += tmp
        if shift is not None:
            ob += shift


def _moments(x: np.ndarray):
    """Per-channel float64 mean and variance of ``x`` over every axis but 1,
    summed one block of samples at a time."""
    n_red = x.size // x.shape[1]
    sum_x, sum_xx = _channel_sums(((v, v) for v in _split(x)), x.shape[1])
    mu = sum_x / n_red
    return mu, sum_xx / n_red - mu * mu


def _bn_fold(shape, dtype, moments, state: BatchNormState, training: bool, op: str):
    """Batch norm on an input of ``shape`` as (mu, inv, scale, shift) per
    channel, where out = x * scale + shift and inv = 1 / sqrt(var + eps).

    Training mode takes the batch's float64 mean and variance per channel
    from ``moments()`` and folds them into the running mean/variance with the
    state's momentum; inference mode reads the running statistics and never
    calls ``moments``. Errors name ``op``.
    """
    if len(shape) < 2:
        raise ShapeError(f"{op}: expected at least (B,C) input, got {shape}")
    if shape[1] != state.channels:
        raise ShapeError(f"{op}: input has {shape[1]} channels, state has {state.channels}")
    if training and shape[0] < 2:
        raise ConfigError(f"{op}: training mode requires batch size >= 2")
    if training:
        mu64, var64 = moments()
        mu = mu64.astype(dtype)
        var = np.maximum(var64, 0.0).astype(dtype)
        m = state.momentum
        state.running_mean = (m * state.running_mean + (1 - m) * mu).astype(
            state.running_mean.dtype, copy=False)
        state.running_var = (m * state.running_var + (1 - m) * var).astype(
            state.running_var.dtype, copy=False)
    else:
        mu = state.running_mean.astype(dtype, copy=False)
        var = state.running_var.astype(dtype, copy=False)
    inv = 1.0 / np.sqrt(var + state.epsilon)
    gamma, beta = state.gamma.data, state.beta.data
    return mu, inv, gamma * inv, beta - mu * gamma * inv


def _bn_grad_terms(sums, n_red: int, state: BatchNormState, fold, training: bool):
    """Accumulate gamma's and beta's gradients from the per-channel sums of
    the output gradient g and of g * x; in training, return (A, C) such that
    the input gradient is g * scale + x * A + C.

    Per-channel sums suffice: with xhat = (x - mu) * inv the gradient is
    gx = scale * (g - mean(g) - xhat * mean(g * xhat)), rearranged so xhat
    is never materialized. In inference it is g * scale.
    """
    mu, inv, scale, _ = fold
    sum_g, sum_gx = sums
    sum_gx = (sum_gx - mu * sum_g) * inv
    _accum_owned(state.gamma, sum_gx.astype(state.gamma.dtype))
    _accum_owned(state.beta, sum_g.astype(state.beta.dtype))
    if not training:
        return None, None
    a_ch = -(scale * inv) * (sum_gx / n_red)
    c_ch = (scale * inv * mu) * (sum_gx / n_red) - scale * (sum_g / n_red)
    return a_ch, c_ch


def batch_norm(x: Tensor, state: BatchNormState, training: bool) -> Tensor:
    """Normalize per channel (axis 1), then scale by gamma and shift by beta.

    Training mode uses batch statistics and folds them into the running
    mean/variance with the state's momentum; inference mode uses the running
    statistics. Variance is the population (biased) variance throughout, so
    running statistics converge exactly to the training-mode normalizer.
    """
    xd = x.data
    fold = _bn_fold(xd.shape, xd.dtype, lambda: _moments(xd), state, training, "batch_norm")
    _, _, scale, shift = fold
    out = np.empty(xd.shape, dtype=np.result_type(xd, scale, shift))
    _channel_affine(out, [(xd, scale)], shift)

    def backward(g):
        # the upstream gradient is overwritten with the input gradient
        g = np.ascontiguousarray(g)
        blocks = _blocks(len(g), g[:1].nbytes)  # g may be wider than x
        sums = _channel_sums(((g[blk], xd[blk]) for blk in blocks), xd.shape[1])
        a_ch, c_ch = _bn_grad_terms(sums, xd.size // xd.shape[1], state, fold, training)
        if x.requires_grad:
            if training:
                _channel_affine(g, [(g, scale), (xd, a_ch)], c_ch)
            else:
                _channel_affine(g, [(g, scale)])
            _accum_owned(x, g)

    return _make(out, (x, state.gamma, state.beta), backward)


def _two_tap_pool(op: str, shape, window):
    """The pooled axis and output shape of a two-tap pool over ``shape``,
    and tap(a, k): the k-th tap of every pair of a along that axis. Errors
    name ``op``."""
    window = tuple(window)
    if len(shape) != 4 or window not in ((2, 1), (1, 2)):
        raise ShapeError(f"{op}: expected (B,C,F,T) input and a (2,1) or (1,2) "
                         f"window, got {shape} and {window}")
    axis = 2 if window[0] == 2 else 3
    n_out = shape[axis] // 2
    if n_out == 0:
        raise ShapeError(f"{op}: window {window} larger than input {shape[2:]}")

    def tap(a, k):
        return a[(slice(None),) * axis + (slice(k, k + 2 * n_out, 2),)]

    return axis, shape[:axis] + (n_out,) + shape[axis + 1:], tap


def bn_relu_pool(x: Tensor, state: BatchNormState, window) -> Tensor:
    """``max_pool2d(relu(batch_norm(x, state, True)), window)`` as one node,
    for a two-tap window, (2, 1) or (1, 2), with stride equal to the window.

    Gives the same output, running statistics and gradients, bit for bit
    when ``x`` and the state share a dtype, but keeps only ``x``, the output
    and a bool mask of the winning taps on the tape: the normalized and
    activated arrays never exist at full size.

    Forward: one pass takes the statistics; a second normalizes each block
    into a reused buffer, sends the larger of its two taps to the output,
    records where the second tap won, and applies ReLU to the pooled output,
    since max commutes with it. Backward: the upstream gradient is masked by
    the ReLU of the output and routed through the saved winners (ties to the
    first tap, as in max_pool2d) into the input gradient's array, taking
    batch norm's per-channel sums in the same block loop; batch norm's input
    gradient is then applied to that array in place.
    """
    xd = x.data
    axis, pooled, tap = _two_tap_pool("bn_relu_pool", xd.shape, window)
    fold = _bn_fold(xd.shape, xd.dtype, lambda: _moments(xd), state, True, "bn_relu_pool")
    _, _, scale, shift = fold
    dtype = np.result_type(xd.dtype, scale, shift)
    out = np.empty(pooled, dtype=dtype)
    wins = np.empty(pooled, dtype=bool)  # where the second tap is larger
    blocks = _blocks(len(xd), xd[:1].nbytes)
    buf = np.empty((blocks[0].stop,) + xd.shape[1:], dtype=dtype)
    for blk in blocks:
        nb = buf[:blk.stop - blk.start]
        _channel_affine(nb, [(xd[blk], scale)], shift)
        ob = np.maximum(tap(nb, 0), tap(nb, 1), out=out[blk])
        np.greater(tap(nb, 1), tap(nb, 0), out=wins[blk])
        np.maximum(ob, 0, out=ob)

    def backward(g):
        np.multiply(g, out > 0, out=g)
        gx = np.empty(xd.shape, dtype=dtype)
        gx[(slice(None),) * axis + (slice(2 * pooled[axis], None),)] = 0  # a dropped trailing row

        def routed():
            for blk in blocks:
                np.multiply(g[blk], wins[blk], out=tap(gx[blk], 1))
                np.multiply(g[blk], ~wins[blk], out=tap(gx[blk], 0))
                yield gx[blk], xd[blk]

        sums = _channel_sums(routed(), xd.shape[1])
        a_ch, c_ch = _bn_grad_terms(sums, xd.size // xd.shape[1], state, fold, True)
        if x.requires_grad:
            _channel_affine(gx, [(gx, scale), (xd, a_ch)], c_ch)
            _accum_owned(x, gx)

    return _make(out, (x, state.gamma, state.beta), backward)


def conv_bn_relu_pool(x: Tensor, w: Tensor, b: Tensor | None, stride, pad,
                      state: BatchNormState, window) -> Tensor:
    """``bn_relu_pool(conv2d(x, w, b, stride, pad), state, window)`` as one
    node that never makes the conv's output or its gradient at full size.

    The conv is linear in its im2col columns: y = Wa [col; 1], where Wa is
    the (C, K) weight matrix with the bias as one more column and K = C_in *
    kF * kT, three for conv1. So batch norm's mean and variance follow from
    the (K+1) x (K+1) Gram matrix of [col; 1] over the batch, summed in
    float64 one block of samples at a time. Forward then computes each pool
    tap's outputs directly, z = (Wa * scale) [col; 1] + shift over the
    columns of the outputs that tap covers, one GEMM per block, and keeps
    their ReLU'd maximum and where the second tap won. Backward routes the
    pooled gradient through that mask onto the taps' columns, P = sum of
    g [col; 1]', (C, K+1); batch norm's sums and the w and b gradients follow
    from P and the Gram matrix exactly. x's gradient, which no model input
    asks for, is built one block of columns at a time.

    The tape holds ``x``, the pooled output and the winner mask. Output,
    running statistics and gradients are the two-node chain's up to
    rounding. Since z comes from the folded GEMM rather than from y, two
    taps whose conv outputs tie may resolve either way.
    """
    op = "conv_bn_relu_pool"
    conv = _Conv(x, w, b, stride, pad, op, fold=False)
    _, pooled, tap = _two_tap_pool(op, conv.shape, window)
    n_red = math.prod(conv.shape) // conv.shape[1]
    k = conv.wmat.shape[1]
    wa = np.zeros((conv.shape[1], k + 1))
    wa[:, :k] = conv.wmat
    if b is not None:
        wa[:, k] = b.data
    gram = np.zeros((k + 1, k + 1))  # its last row is [column sum, n_red]
    ca = np.ones((conv.blocks[0].stop, k + 1, math.prod(conv.shape[2:])))
    for blk in conv.blocks:
        c = ca[:blk.stop - blk.start]
        c[:, :k] = conv.cols(blk)
        gram += (c @ c.transpose(0, 2, 1)).sum(axis=0)
    mean = gram[k] / n_red  # [column mean, 1]
    cov = gram / n_red - np.outer(mean, mean)
    fold = _bn_fold(conv.shape, conv.dtype,
                    lambda: (wa @ mean, np.einsum("ck,kj,cj->c", wa, cov, wa)), state, True, op)
    _, _, scale, shift = fold
    dtype = np.result_type(conv.dtype, scale, shift)

    def tap_cols(cv):
        """Per block: blk, its im2col (n, K, P) and aug, (2, n, K+1, P/2):
        aug[e] holds [col; 1] of the outputs that pool tap e covers."""
        aug = np.ones((2, cv.blocks[0].stop, k + 1) + pooled[2:], dtype=cv.dtype)
        for blk in cv.blocks:
            n = blk.stop - blk.start
            col = cv.cols(blk)
            grid = col.reshape((n, k) + cv.shape[2:])
            aug[0, :n, :k], aug[1, :n, :k] = tap(grid, 0), tap(grid, 1)
            yield blk, col, aug[:, :n].reshape(2, n, k + 1, -1)

    wz = wa * scale[:, None]
    wz[:, k] += shift
    wz = wz.astype(dtype)
    out = np.empty(pooled, dtype=dtype)
    wins = np.empty(pooled, dtype=bool)  # where the second tap is larger
    o3, w3 = _by_sample(out), _by_sample(wins)
    z = np.empty((2, conv.blocks[0].stop) + o3.shape[1:], dtype=dtype)
    for blk, _, aug in tap_cols(conv):
        zb = np.matmul(wz, aug, out=z[:, :len(aug[0])])
        ob = np.maximum(zb[0], zb[1], out=o3[blk])
        np.greater(zb[1], zb[0], out=w3[blk])
        np.maximum(ob, 0, out=ob)

    def backward(g):
        g3 = _by_sample(np.multiply(g, out > 0, out=g))
        cv = _Conv(x, w, b, stride, pad, op, fold=False)
        buf = np.empty((2, cv.blocks[0].stop) + g3.shape[1:], dtype=g.dtype)

        def routed(blk):  # the block's gradient at each tap's outputs
            r = buf[:, :blk.stop - blk.start]
            np.multiply(g3[blk], w3[blk], out=r[1])
            np.subtract(g3[blk], r[1], out=r[0])
            return r

        p = np.zeros_like(wa)
        for blk, _, aug in tap_cols(cv):
            p += (routed(blk) @ aug.transpose(0, 1, 3, 2)).sum(axis=(0, 1), dtype=np.float64)
        a_ch, c_ch = _bn_grad_terms((p[:, k], (wa * p).sum(axis=1)), n_red, state, fold, True)
        gwa = scale[:, None] * p + a_ch[:, None] * (wa @ gram) + c_ch[:, None] * gram[k]
        _accum_owned(w, gwa[:, :k].reshape(w.data.shape).astype(w.data.dtype))
        if b is not None:
            _accum_owned(b, gwa[:, k].astype(b.data.dtype))
        if x.requires_grad:
            # gcol = W' (scale * g_routed + A * y + C), with y = Wa [col; 1]
            ws = (wa[:, :k] * scale[:, None]).T.astype(dtype)
            m = wa[:, :k].T @ (a_ch[:, None] * wa)
            m[:, k] += wa[:, :k].T @ c_ch
            m = m.astype(dtype)
            gx = np.empty(x.data.shape, dtype=x.data.dtype)
            gcol = np.empty_like(cv.col)
            for blk, col, _ in tap_cols(cv):
                n = blk.stop - blk.start
                gc = np.matmul(m[:, :k], col, out=gcol[:n])
                gc += m[:, k:]
                for e, r in enumerate(routed(blk)):
                    t = tap(gc.reshape((n, k) + cv.shape[2:]), e)
                    t += (ws @ r).reshape(t.shape)
                _col2im(gx[blk], gc, cv.tap_view, cv.taps, cv.stride, cv.pad)
            _accum_owned(x, gx)

    return _make(out, conv.parents + (state.gamma, state.beta), backward)


# ---------------------------------------------------------------------------
# recurrent cell steps

LSTMParams = namedtuple("LSTMParams", ["w_x", "w_h", "b"])
"""Fused LSTM weights: w_x (4H, D), w_h (4H, H), b (4H,); gate order i, f, g, o."""

GRUParams = namedtuple("GRUParams", ["w_x", "w_h", "w_c", "b"])
"""GRU weights: w_x (3H, D), w_h (2H, H) for the z/r gates, w_c (H, H) for the
candidate (applied to the reset-gated state), b (3H,); order z, r, candidate."""


def lstm_step(x: Tensor, state, params: LSTMParams):
    """One LSTM step on (B, D) input; ``state`` is (h, c), each (B, H).
    Returns (h', c').

    Gates: i, f, o via sigmoid and candidate g via tanh over the fused affine
    map of input and previous hidden state; c' = f*c + i*g, h' = o*tanh(c').
    """
    h, c = state
    hdim = params.w_h.shape[1]
    if params.w_x.shape[0] != 4 * hdim or h.shape[1:] != (hdim,) or c.shape[1:] != (hdim,):
        raise ShapeError(
            f"lstm_step: inconsistent dims (w_x {params.w_x.shape}, w_h {params.w_h.shape}, "
            f"h {h.shape}, c {c.shape})")

    pre = add(dense(x, params.w_x, params.b), dense(h, params.w_h))
    i_g = sigmoid(narrow(pre, 1, 0, hdim))
    f_g = sigmoid(narrow(pre, 1, hdim, 2 * hdim))
    g_c = tanh(narrow(pre, 1, 2 * hdim, 3 * hdim))
    o_g = sigmoid(narrow(pre, 1, 3 * hdim, 4 * hdim))
    c_new = add(mul(f_g, c), mul(i_g, g_c))
    h_new = mul(o_g, tanh(c_new))
    return h_new, c_new


def gru_step(x: Tensor, h: Tensor, params: GRUParams) -> Tensor:
    """One GRU step on (B, D) input and (B, H) state, returning h'.

    Update gate z and reset gate r via sigmoid; candidate is tanh over the
    input map plus the reset-gated previous state; h' = (1-z)*h + z*candidate.
    """
    hdim = params.w_c.shape[1]
    if (params.w_x.shape[0] != 3 * hdim or params.w_h.shape[0] != 2 * hdim
            or h.shape[1:] != (hdim,)):
        raise ShapeError(
            f"gru_step: inconsistent dims (w_x {params.w_x.shape}, w_h {params.w_h.shape}, "
            f"w_c {params.w_c.shape}, h {h.shape})")

    px = dense(x, params.w_x, params.b)
    ph = dense(h, params.w_h)
    z_g = sigmoid(add(narrow(px, 1, 0, hdim), narrow(ph, 1, 0, hdim)))
    r_g = sigmoid(add(narrow(px, 1, hdim, 2 * hdim), narrow(ph, 1, hdim, 2 * hdim)))
    cand = tanh(add(narrow(px, 1, 2 * hdim, 3 * hdim), dense(mul(r_g, h), params.w_c)))
    return add(h, mul(z_g, sub(cand, h)))  # (1-z)*h + z*cand
