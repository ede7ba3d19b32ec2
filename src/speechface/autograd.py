"""Dense tensors with reverse-mode automatic differentiation.

Everything the network needs is built from the primitives in this module:
convolution, max pooling, batch normalization, dense layers, elementwise
activations and the LSTM/GRU cell steps, plus the trunk's training stages,
each a conv with its batch norm, ReLU and pool on channels-last arrays
(:class:`ConvStage`, and :class:`ConvBnReluPool` for the one-channel
conv1, which never makes its conv's output). A stage keeps its conv's
output, not its own, which the stage after it makes again one block at a
time; :func:`conv_stage` runs a chain of stages as one node. Each primitive
records a backward closure on a tape; calling
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
# conv2d, max_pool2d and batch_norm act on (B, C, F, T) arrays, one op per
# stage: the layer walk of inference runs them, so it reports every stage,
# and so do the gradient checks. Training runs each conv of the trunk with
# its batch norm, ReLU and pool as one stage on channels-last (B, T, F, C)
# arrays, the layout of the batched plan in model.py, whose conv kernels it
# shares: a ConvStage per conv from conv2 on, and before them conv1's stage
# over the one-channel spectrogram, a ConvBnReluPool. Each stage takes the
# one before it as its input and makes that input one block of samples at
# a time, in forward and again in backward, so no stage output is kept:
# conv_stage makes the chain one node, which makes only the last stage's
# output whole, and holds its (B, C, F, T) view a.transpose(0, 3, 2, 1) of
# that array a, so the walk keeps its shapes.
#
# The stages run over the batch in blocks of samples. Their elementwise
# passes (batch norm, ReLU, pool, and the per-channel sums, float32 column
# sums of each block added up in float64) take blocks of about 512 KiB of
# each operand: a block that one step reads from memory is still in cache
# (2 MiB of L2 per core) for the steps after it, so each full-size array is
# written once. Their GEMMs take blocks whose temporaries come to about
# _GEMM_BLOCK_BYTES, chosen by the sweep recorded in CHANGES.md.
_BLOCK_BYTES = 1 << 19
_GEMM_BLOCK_BYTES = 1 << 21


def _blocks(nb: int, sample_bytes: int, budget: int | None = None) -> list:
    step = max(1, (_BLOCK_BYTES if budget is None else budget) // max(1, sample_bytes))
    return [slice(i, min(i + step, nb)) for i in range(0, nb, step)]


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


def _tap_cols(col: np.ndarray, x: np.ndarray, s: int, p: int, k: int) -> None:
    """[col; 1], the tap-major im2col of a one-channel convolution along the
    last axis of x, (..., L), with a ones column, into col, (..., m, k + 1):
    slot i < k of output j holds x[..., s*j + i - p], and 0 where that lies
    in the padding; slot k holds 1."""
    m = col.shape[-2]
    col[..., k] = 1.0
    for i in range(k):
        lo, hi, src = _tap_span(x.shape[-1], m, i, s, p)
        col[..., :lo, i] = 0.0
        col[..., hi:, i] = 0.0
        col[..., lo:hi, i] = x[..., src]


def _tap_groups(k: int, s: int, p: int):
    """A convolution along L = m*s (kernel k, stride s, pad p) as GEMMs on
    the (N*m, s*C) view of its channels-last (N, L, C) input, which reads it
    in place as blocks of s positions.

    Tap i of output j sits in block j + d at offset (i - p) % s, with
    d = (i - p) // s, so the taps of one d are adjacent columns of that
    view. Yields (d, i0, i1, o) for each d, d = 0 first: taps [i0, i1), from
    offset o.
    """
    for d in sorted(range(-p // s, (k - 1 - p) // s + 1), key=abs):
        i0, i1 = max(0, d * s + p), min(k, (d + 1) * s + p)
        yield d, i0, i1, i0 - p - d * s


def _gemm_conv(x: np.ndarray, k: int, s: int, p: int, w: np.ndarray, out=None) -> np.ndarray:
    """Convolution along L of channels-last (N, L, C_in) x, L = m*s, without
    bias, into ``out`` (N, m, C_out) or a new array; ``w`` is (k, C_in,
    C_out). One GEMM per tap group (:func:`_tap_groups`) on a column slice
    of the block view, which BLAS reads without a copy; group d's rows land
    d output rows away, and a row whose block lies in the padding gets
    nothing from that d. Such a group's product is a temporary, made for
    one :func:`_blocks` of samples of the output at a time."""
    n, length, c = x.shape
    m = length // s
    blocks = x.reshape(n * m, s * c)
    for d, i0, i1, o in _tap_groups(k, s, p):
        a, wd = blocks[:, o * c:(o + i1 - i0) * c], w[i0:i1].reshape(-1, w.shape[2])
        if d == 0:
            out = np.matmul(a, wd, out=None if out is None else out.reshape(n * m, -1))
            out = out.reshape(n, m, -1)
            continue
        lo, hi = max(0, -d), m - max(0, d)
        for blk in _blocks(n, out[0].nbytes):
            rows = a[blk.start * m:blk.stop * m]
            out[blk, lo:hi] += (rows @ wd).reshape(-1, m, wd.shape[1])[:, lo + d:hi + d]
    return out


def _gemm_conv_grads(x, k: int, s: int, p: int, w, gy, gw, gx=None, init=True) -> None:
    """Backward of :func:`_gemm_conv` over one block, from its output
    gradient gy (N, m, C_out): add the weight gradient into gw, (k, C_in,
    C_out), and the input gradient into gx, laid out as x, if given; with
    ``init``, gx's old values are ignored.

    Group d's output gradient, moved d rows to the blocks it read, gives its
    weight gradient in one GEMM with the columns it read, and its input
    gradient in one GEMM with its weights, written straight into those
    columns of the block view: there is no col2im.
    """
    n, length, c = x.shape
    m = gy.shape[1]
    blocks = x.reshape(n * m, s * c)
    gxb = None if gx is None else gx.reshape(n * m, s * c)
    for d, i0, i1, o in _tap_groups(k, s, p):
        cols = slice(o * c, (o + i1 - i0) * c)
        g = gy
        if d:
            lo, hi = max(d, 0), m + min(d, 0)  # the blocks group d reads
            g = np.empty_like(gy)
            g[:, :lo] = 0
            g[:, hi:] = 0
            g[:, lo:hi] = gy[:, lo - d:hi - d]
        g = g.reshape(n * m, -1)
        gw[i0:i1] += (blocks[:, cols].T @ g).reshape(i1 - i0, c, -1)
        if gxb is not None:
            wd = w[i0:i1].reshape(-1, w.shape[2]).T
            if d or not init:
                gxb[:, cols] += g @ wd
            else:  # d = 0 comes first
                gxb[:, :cols.start] = 0
                gxb[:, cols.stop:] = 0
                np.matmul(g, wd, out=gxb[:, cols])


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


def _check_conv(op: str, shape: tuple, w: Tensor, b: Tensor | None):
    """The shapes of a conv's (B, C_in, F, T) input, of ``shape``, and its
    (C_out, C_in, kF, kT) weights, checked against each other and the bias.
    Errors name ``op``."""
    if len(shape) != 4 or w.ndim != 4:
        raise ShapeError(f"{op}: expected (B,C,F,T) input and 4-d weights, "
                         f"got {shape} / {w.shape}")
    c_out, c_w = w.data.shape[:2]
    if c_w != shape[1]:
        raise ShapeError(f"{op}: input has {shape[1]} channels but weights expect {c_w}")
    if b is not None and b.data.shape != (c_out,):
        raise ShapeError(f"{op}: bias shape {b.data.shape} does not match {c_out} channels")
    return shape, w.data.shape


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride=(1, 1), pad=(0, 0)) -> Tensor:
    """2-d cross-correlation over (freq, time) with symmetric zero padding.

    ``x`` is (B, C_in, F, T) and ``w`` is (C_out, C_in, kF, kT). Output
    spatial dims follow the usual floor((size + 2*pad - kernel) / stride) + 1
    rule. The whole batch is one tap-major im2col, (C_in*kF*kT, B*F_out*T_out),
    filled by one strided copy per kernel tap, and one batched GEMM, which
    reads each sample's columns in place and writes its (C_out, F_out*T_out)
    block of the output. The padded input is never built: padding is
    written as zeros into the im2col slots it covers, and the input gradient
    is assembled from the spans of input that the kernel taps cover.
    """
    xd = x.data
    (nb, c_in, f_in, t_in), (c_out, _, k_f, k_t) = _check_conv("conv2d", xd.shape, w, b)
    (s_f, s_t), (p_f, p_t) = stride, pad
    if f_in + 2 * p_f < k_f or t_in + 2 * p_t < k_t:
        raise ShapeError(f"conv2d: kernel ({k_f},{k_t}) larger than padded input "
                         f"({f_in + 2 * p_f},{t_in + 2 * p_t})")
    f_out = (f_in + 2 * p_f - k_f) // s_f + 1
    t_out = (t_in + 2 * p_t - k_t) // s_t + 1
    n_pos = f_out * t_out
    wmat = w.data.reshape(c_out, -1)
    # per kernel tap (i, j): its output box and the input it reads there
    taps = [(i, j, _tap_span(f_in, f_out, i, s_f, p_f), _tap_span(t_in, t_out, j, s_t, p_t))
            for i in range(k_f) for j in range(k_t)]

    def tap_view(a, i, j):  # tap (i, j)'s slots of the im2col, (B, C_in, F_out, T_out)
        return a.reshape(c_in, k_f, k_t, nb, f_out, t_out)[:, i, j].transpose(1, 0, 2, 3)

    dtype = np.result_type(xd.dtype, w.data.dtype)
    col = np.empty((c_in * k_f * k_t, nb * n_pos), dtype=dtype)
    for i, j, (f0, f1, fs), (t0, t1, ts) in taps:
        _fill_box(tap_view(col, i, j), (f0, f1), (t0, t1), xd[:, :, fs, ts])
    out = wmat @ col.reshape(len(col), nb, n_pos).transpose(1, 0, 2)  # (B, C_out, P)
    if b is not None:
        out += b.data[:, None]

    def backward(g):
        gmat = np.ascontiguousarray(g.reshape(nb, c_out, n_pos).transpose(1, 0, 2))
        gmat = gmat.reshape(c_out, -1)
        _accum_owned(w, (gmat @ col.T).reshape(w.data.shape))
        if b is not None:
            _accum_owned(b, gmat.sum(axis=1))
        if x.requires_grad:
            gx = np.empty(xd.shape, dtype=xd.dtype)
            _col2im(gx, wmat.T @ gmat, tap_view, taps, stride, pad)
            _accum_owned(x, gx)

    return _make(out.reshape(nb, c_out, f_out, t_out), (x, w) + ((b,) if b is not None else ()),
                 backward)


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
        mu, var = moments()
        mu, var = mu.astype(dtype), np.maximum(var, 0.0).astype(dtype)
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
    the input gradient is (g + x * A + C) * scale.

    Per-channel sums suffice: with xhat = (x - mu) * inv the gradient is
    gx = scale * (g - mean(g) - xhat * mean(g * xhat)), rearranged so xhat
    is never materialized. In inference it is g * scale.
    """
    mu, inv, _, _ = fold
    sum_g, sum_gx = sums
    sum_gx = (sum_gx - mu * sum_g) * inv
    _accum_owned(state.gamma, sum_gx.astype(state.gamma.dtype))
    _accum_owned(state.beta, sum_g.astype(state.beta.dtype))
    if not training:
        return None, None
    a_ch = -inv * (sum_gx / n_red)
    return a_ch, -mu * a_ch - sum_g / n_red


def batch_norm(x: Tensor, state: BatchNormState, training: bool) -> Tensor:
    """Normalize per channel (axis 1), then scale by gamma and shift by beta.

    Training mode uses batch statistics and folds them into the running
    mean/variance with the state's momentum; inference mode uses the running
    statistics. Variance is the population (biased) variance throughout, so
    running statistics converge exactly to the training-mode normalizer.
    """
    xd = x.data
    axes = (0,) + tuple(range(2, xd.ndim))
    fold = _bn_fold(xd.shape, xd.dtype, lambda: (xd.mean(axes, np.float64), xd.var(axes, np.float64)),
                    state, training, "batch_norm")
    per_channel = (-1,) + (1,) * (xd.ndim - 2)
    scale, shift = (f.reshape(per_channel) for f in fold[2:])

    def backward(g):  # the upstream gradient becomes the input gradient
        sums = (g.sum(axes, np.float64), (g * xd).sum(axes, np.float64))
        terms = _bn_grad_terms(sums, xd.size // xd.shape[1], state, fold, training)
        if x.requires_grad:
            if training:
                g += xd * terms[0].astype(g.dtype).reshape(per_channel)
                g += terms[1].astype(g.dtype).reshape(per_channel)
            g *= scale.astype(g.dtype)
            _accum_owned(x, g)

    out = xd * scale
    out += shift
    return _make(out, (x, state.gamma, state.beta), backward)


def _cl(a: np.ndarray, dtype=None) -> np.ndarray:
    """The channels-last (B, T, F, C) array whose (B, C, F, T) view is
    ``a``: ``a`` itself, unless it is laid out otherwise or holds another
    dtype."""
    return np.ascontiguousarray(a.transpose(0, 3, 2, 1), dtype=dtype)


def _stage_geometry(op: str, x_shape: tuple, w: Tensor, b: Tensor | None, stride, pad, window):
    """Check a training stage on a (B, C, F, T) input of ``x_shape``, whose
    conv kernel spans frequency or time only and whose pool, if ``window``
    is given, is a two-tap one with stride equal to it. Returns (along_f, k,
    s, p, L, shape, axis): the kernel's size, stride and pad and the input's
    length L along its axis, the conv output's (B, C, F, T) shape, and the
    pooled axis of its channels-last (B, T, F, C) array, None without a
    pool. Errors name ``op``."""
    (nb, _, f_in, t_in), (c_out, _, k_f, k_t) = _check_conv(op, x_shape, w, b)
    (s_f, s_t), (p_f, p_t) = stride, pad
    along_f = (k_t, s_t, p_t) == (1, 1, 0)
    if not along_f and (k_f, s_f, p_f) != (1, 1, 0):
        raise ShapeError(f"{op}: kernel ({k_f},{k_t}) with stride ({s_f},{s_t}) "
                         "spans both frequency and time")
    k, s, p, length = (k_f, s_f, p_f, f_in) if along_f else (k_t, s_t, p_t, t_in)
    m = (length + 2 * p - k) // s + 1
    if m < 1:
        raise ShapeError(f"{op}: kernel {k} larger than padded input {length + 2 * p}")
    shape = (nb, c_out, m, t_in) if along_f else (nb, c_out, f_in, m)
    axis = None
    if window is not None:
        if tuple(window) not in ((2, 1), (1, 2)):
            raise ShapeError(f"{op}: expected a (2,1) or (1,2) window, got {tuple(window)}")
        axis = 2 if window[0] == 2 else 1
        if shape[4 - axis] < 2:
            raise ShapeError(f"{op}: window {tuple(window)} larger than input {shape[2:]}")
    return along_f, k, s, p, length, shape, axis


def _pooled(shape, window) -> tuple:
    """The channels-last (B, T, F, C) shape of a stage's output."""
    f, t = shape[2:] if window is None else (shape[2] // window[0], shape[3] // window[1])
    return shape[0], t, f, shape[1]


def _pool_relu(z0, z1, out, wins=None) -> None:
    """out = ReLU of the larger of the pool's taps z0 and z1 (max commutes
    with ReLU), and, if given, wins = where z1 is larger."""
    np.maximum(z0, z1, out=out)
    if wins is not None:
        np.greater(z1, z0, out=wins)
    np.maximum(out, 0, out=out)


def _pool_tap(a: np.ndarray, e: int) -> np.ndarray:
    """What tap e of a two-tap pool with stride 2 along axis 1 reads of a."""
    return a[:, e:e + a.shape[1] // 2 * 2:2]


def _conv_pool_relu(col, wz, out, wins=None) -> None:
    """A one-channel conv, a two-tap pool with stride 2 along its m outputs
    and :func:`_pool_relu`, into out (rows, m // 2, C) and wins, from col,
    the conv's [col; 1] im2col (rows, m, K+1), and wz, its (K+1, C) weights
    over its bias row: one GEMM per pool tap on each :func:`_blocks` of
    rows, about 512 KiB of both taps' outputs."""
    for r in _blocks(len(out), 2 * out[0].nbytes):
        z = (_pool_tap(col[r], e).reshape(-1, len(wz)) @ wz for e in (0, 1))
        _pool_relu(*(a.reshape(out[r].shape) for a in z), out[r],
                   None if wins is None else wins[r])


def _route(g, wins, r) -> list:
    """The pooled gradient g at each tap, in the buffers of r: on the
    second tap where it won, else on the first (ties go to the first, as in
    max_pool2d)."""
    second = np.multiply(g, wins, out=r[1])
    return [np.subtract(g, second, out=r[0]), second]


def _tiled(v, shape, dtype):
    """A per-channel vector v as an array of ``shape``, one sample of a
    channels-last array, or None for None. An elementwise pass that
    broadcasts it over whole samples, not over rows of C, takes about 40%
    less time."""
    return None if v is None else np.ascontiguousarray(np.broadcast_to(v, shape), dtype)


def _colsum(a: np.ndarray) -> np.ndarray:
    """Per-column sums of a (rows, C) block, by BLAS in a's precision."""
    return np.ones(len(a), a.dtype) @ a


class _Rebuilt:
    """A training stage whose output is never kept: :meth:`run` makes it
    for any block of samples, wherever the conv after it reads it."""

    def outputs(self, gemm):
        """Yield each block of samples blk of gemm with its channels-last
        output, made in one buffer."""
        buf = np.empty((gemm[0].stop,) + self.shape[:0:-1], self.dtype)
        for blk in gemm:
            out = buf[:blk.stop - blk.start]
            self.run(blk, out)
            yield blk, out


class _Input:
    """A Tensor as the input of a :class:`ConvStage`: its channels-last
    array, read in place, and the gradient that it takes there."""

    def __init__(self, x: Tensor, dtype):
        self.x, self.cl, self.params = x, _cl(x.data, dtype), (x,)

    def outputs(self, gemm):
        for blk in gemm:
            yield blk, self.cl[blk]

    def grad_outputs(self, gemm):
        gx = np.empty_like(self.cl) if self.x.requires_grad else None
        for blk in gemm:
            yield blk, self.cl[blk], None if gx is None else gx[blk]
        if gx is not None:
            _accum_owned(self.x, gx.transpose(0, 3, 2, 1))


class ConvBnReluPool(_Rebuilt):
    """conv1's training stage, a conv over one input channel with
    training-mode batch norm, ReLU and a (2, 1) pool with stride (2, 1),
    before its output exists: its checks, batch norm's statistics of the
    batch (which update the running ones here), the conv's weights folded
    with them, and the steps that make its output, and take its gradients,
    for any block of samples. The kernel spans frequency only; any other
    geometry raises ShapeError. Errors name ``conv_bn_relu_pool``.

    A :class:`ConvStage` takes one as its input and makes that input one of
    its own blocks of samples at a time, in forward and again in backward,
    so the output, its winner mask and its gradient never exist at full
    size. ``shape`` and ``dtype`` are those of the output's (B, C, F, T)
    view.

    The conv is linear in its tap-major im2col columns, K = kF of them
    (three for conv1): y = W col. So batch norm's mean and variance follow
    from the (K+1) x (K+1) Gram matrix of [col; 1] over the batch, summed in
    float64 one block of samples at a time. The output is the plan's conv1
    kernel, :func:`_conv_pool_relu`: z = Wz [col; 1] over each pool tap's
    columns, where ``wz`` is W folded with batch norm (its scale on W, its
    shift on the ones row), keeping the ReLU'd larger of each pair and
    where the second tap won. The gradient routes the pooled gradient
    through that mask onto the taps' columns, P = sum of g [col; 1]', (C,
    K+1); batch norm's sums and the w gradient follow from P and the Gram
    matrix exactly.

    Output, running statistics and gradients are those of conv2d,
    batch_norm, relu and max_pool2d up to rounding; since z comes from the
    folded GEMM rather than from y, two taps whose conv outputs tie may
    resolve either way."""

    def __init__(self, x: Tensor, w: Tensor, stride, pad, state: BatchNormState, window):
        op = "conv_bn_relu_pool"
        xd, wd = x.data, w.data
        along_f, k, s, p, _, shape, axis = _stage_geometry(op, xd.shape, w, None, stride, pad,
                                                           window)
        if not along_f or axis != 2:
            raise ShapeError(f"{op}: expected a kernel along frequency and a (2,1) window, "
                             f"got kernel {wd.shape[2:]} and window {window}")
        if xd.shape[1] != 1:
            raise ShapeError(f"{op}: expected one input channel, got {xd.shape[1]}")
        if x.requires_grad:
            raise ConfigError("conv_stage: the input of a conv_bn_relu_pool in front of it "
                              "takes no gradient")
        nb, c = shape[:2]
        self.w, self.state = w, state
        self.params = (x, w, state.gamma, state.beta)
        self.k, self.s, self.p = k, s, p
        self.n_red = math.prod(shape) // c
        out_cl = _pooled(shape, window)
        self.shape = tuple(out_cl[i] for i in (0, 3, 2, 1))
        dtype = np.result_type(xd, wd)
        self.cl = (nb, shape[3], shape[2], c)  # the conv output, channels-last
        self.xv = xd[:, 0].transpose(0, 2, 1)  # (B, T, F), the conv's axis last

        self.wa = wa = np.zeros((c, k + 1))  # W, and a zero column for the ones
        wa[:, :k] = wd.reshape(c, k)
        self.gram = gram = np.zeros((k + 1, k + 1))  # its last row is [column sum, n_red]
        for blk in _blocks(nb, math.prod(self.cl[1:]) * np.dtype(dtype).itemsize):
            col = self.cols(blk, np.float64).reshape(-1, k + 1)
            gram += col.T @ col
        mean = gram[k] / self.n_red  # [column mean, 1]
        cov = gram / self.n_red - np.outer(mean, mean)
        self.fold = _bn_fold(shape, dtype,
                             lambda: (wa @ mean, np.einsum("ck,kj,cj->c", wa, cov, wa)),
                             state, True, op)
        _, _, scale, shift = self.fold
        self.dtype = np.result_type(dtype, scale, shift)
        wz = wa * scale[:, None]
        wz[:, k] += shift
        self.wz = wz.T.astype(self.dtype)

    def cols(self, blk, dtype) -> np.ndarray:
        """[col; 1] of the conv outputs of samples blk, (n * T, F, K+1)."""
        col = np.empty((blk.stop - blk.start,) + self.cl[1:3] + (self.k + 1,), dtype)
        _tap_cols(col, self.xv[blk], self.s, self.p, self.k)
        return col.reshape(-1, self.cl[2], self.k + 1)

    def run(self, blk, out, wins=None) -> None:
        """The channels-last output of samples blk into out, and where each
        pool's second tap won into wins, if given: :func:`_conv_pool_relu`
        on their [col; 1]."""
        _conv_pool_relu(self.cols(blk, self.dtype), self.wz, out.reshape(-1, *out.shape[2:]),
                        None if wins is None else wins.reshape(-1, *wins.shape[2:]))

    def grad_outputs(self, gemm):
        """Yield each block of samples blk of gemm with its output, made
        again, and a buffer that the caller fills with that output's
        gradient before it moves on; then add the block's P
        (:meth:`add_p`), and after the last block take the gradients from P
        (:meth:`grads`). The output, its winner mask and its gradient exist
        one block at a time."""
        bufs = [np.empty((gemm[0].stop,) + self.shape[:0:-1], t)
                for t in (self.dtype, bool, self.dtype)]
        pa = np.zeros_like(self.wa)
        for blk in gemm:
            out, wins, g = (a[:blk.stop - blk.start] for a in bufs)
            self.run(blk, out, wins)
            yield blk, out, g
            self.add_p(pa, blk, g, out, wins)
        self.grads(pa)

    def add_p(self, pa, blk, g, out, wins) -> None:
        """Add P = sum of g [col; 1]', (C, K+1), of samples blk into pa, from
        their channels-last output out, its winner mask wins and its
        gradient g: g, masked by the ReLU in place, is routed through wins
        onto each pool tap's conv outputs, one of :func:`_conv_pool_relu`'s
        blocks of rows at a time."""
        col, c = self.cols(blk, g.dtype), g.shape[-1]
        g, out, wins = (a.reshape(len(col), -1, c) for a in (g, out, wins))
        blocks = _blocks(len(out), 2 * out[0].nbytes)
        buf = np.empty((2, blocks[0].stop * out.shape[1], c), g.dtype)  # the first is the largest
        for r in blocks:
            gb = g[r].reshape(-1, c)
            np.multiply(gb, out[r].reshape(-1, c) > 0, out=gb)
            for e, gr in enumerate(_route(gb, wins[r].reshape(-1, c), buf[:, :len(gb)])):
                pa += gr.T @ _pool_tap(col[r], e).reshape(-1, self.k + 1)

    def grads(self, pa) -> None:
        """From the batch's P: accumulate gamma's, beta's and w's gradients."""
        k, wa, gram = self.k, self.wa, self.gram
        a_ch, c_ch = _bn_grad_terms((pa[:, k], (wa * pa).sum(axis=1)), self.n_red, self.state,
                                    self.fold, True)
        gw = self.fold[2][:, None] * (pa + a_ch[:, None] * (wa @ gram) + c_ch[:, None] * gram[k])
        wd = self.w.data
        _accum_owned(self.w, gw[:, :k].reshape(wd.shape).astype(wd.dtype))


class ConvStage(_Rebuilt):
    """A conv with ``state``'s training-mode batch norm, if given, then ReLU
    and, with a ``window`` of (2, 1) or (1, 2), a two-tap pool with stride
    equal to it, on channels-last arrays: ``conv2d``, ``batch_norm``,
    ``relu`` and ``max_pool2d`` up to rounding. It keeps its conv's output
    y, not its own: :meth:`run` makes that again for any block of samples,
    the next stage's input, and :func:`conv_stage` makes the stages up to
    one of them a node of the tape.

    ``x`` is a Tensor, best the (B, C, F, T) view of a channels-last (B, T,
    F, C) array, as the nodes return it (any other layout is copied once),
    or the stage before this one, a :class:`ConvStage` or a
    :class:`ConvBnReluPool`. The kernel spans frequency or, over one
    frequency row, time; along that axis the stride must tile the input, L
    = m * stride for m outputs. The pooled axis must have even length, and
    a pool across the conv's axis needs m = 1. Each block of samples is then
    (rows, L, C), and the conv is one GEMM per tap group on it in place
    (:func:`_gemm_conv`, the plan's kernel); backward needs no col2im
    (:func:`_gemm_conv_grads`). With a pool, each of its two taps reads the
    outputs of a conv of its own, so each tap's outputs are one contiguous
    array.

    A conv that batch norm follows takes no bias ``b``, since batch norm
    would subtract it again; without batch norm, ``b`` is added before the
    ReLU. Forward makes y one GEMM block of samples at a time, from that
    block of the input (the stage before this one makes it in a buffer),
    and takes batch norm's per-channel sums from each block while it is in
    cache. The output, ReLU(pool(y * scale + shift)) with batch norm's
    folded scale and shift (or y + b), follows from y by elementwise passes
    alone, done the same way whenever it is made, so it is the same bit for
    bit each time.

    Backward (:meth:`backward`) starts from the gradient at the output,
    already masked by the ReLU, and the winner mask, which the stage after
    this one leaves in ``g`` and ``wins`` as it makes each block of this
    output again for its weight gradient (:meth:`grad_outputs`). It routes
    the gradient through the winners to take batch norm's sums; then, block
    by block, it routes it again, turns it into y's gradient divided by
    batch norm's scale, which joins the weights instead, and runs that
    block's GEMMs, which write the input's gradient where the stage before
    this one gives them room. b's gradient is the per-channel sum of y's
    gradient. Then the stage drops y.
    """

    def __init__(self, x, w: Tensor, b: Tensor | None, stride, pad,
                 state: BatchNormState | None = None, window=None):
        op = "conv_stage"
        along_f, k, s, p, length, shape, axis = _stage_geometry(op, x.shape, w, b, stride, pad,
                                                               window)
        if state is not None and b is not None:
            raise ConfigError(f"{op}: a conv that batch norm follows takes no bias")
        nb, c_out, c_in = shape[0], shape[1], x.shape[1]
        m = shape[2] if along_f else shape[3]
        if not along_f and x.shape[2] != 1:
            raise ShapeError(f"{op}: a kernel along time needs one frequency row, got {x.shape[2]}")
        if p >= k or m * s != length:
            raise ShapeError(f"{op}: {m} outputs of kernel {k}, stride {s} and pad {p} "
                             f"do not tile input length {length}")
        # per pool tap e, the conv that makes the outputs it reads, as (stride,
        # pad, parity): along the conv's axis, stride 2s and pad p - e*s; across
        # it, where the conv has one output, the input rows t = e mod 2
        taps = [(s, p, None)]
        if axis is not None:
            if shape[4 - axis] % 2:
                raise ShapeError(f"{op}: the pooled axis of {shape[2:]} has odd length")
            if axis == (2 if along_f else 1):
                taps = [(2 * s, p - e * s, None) for e in (0, 1)]
            elif m == 1:
                taps = [(s, p, e) for e in (0, 1)]
            else:
                raise ShapeError(f"{op}: a pool across the conv's axis needs one output "
                                 f"along it, got {m}")
        self.dtype = dtype = np.result_type(x.dtype, w.data)
        self.front = x if isinstance(x, _Rebuilt) else _Input(x, dtype)
        self.w, self.b, self.state, self.taps = w, b, state, taps
        self.k, self.length, self.c_in = k, length, c_in
        extra = (state.gamma, state.beta) if state is not None else () if b is None else (b,)
        self.params = self.front.params + (w,) + extra
        out_cl = _pooled(shape, window)
        self.shape = tuple(out_cl[i] for i in (0, 3, 2, 1))
        self.m_tap = out_cl[2] if along_f else out_cl[1]  # each tap's outputs along the conv's axis
        item = np.dtype(dtype).itemsize
        self.y_bytes = math.prod(shape[1:]) * item  # per sample
        self.blocks = _blocks(nb, self.y_bytes)
        self.gemm = _blocks(nb, self.y_bytes + math.prod(x.shape[1:]) * item, _GEMM_BLOCK_BYTES)
        # one array per tap: glibc's malloc maps an array over 32 MiB afresh,
        # and faults it in, on every step, as it did conv2's whole y (54 MiB
        # at 288 frames)
        self.y = [np.empty(out_cl, dtype) for _ in taps]
        self.g = self.wins = None
        self.n_red = n_red = math.prod(shape) // c_out

        def moments():
            sums = np.zeros((2, c_out))
            for yb in self.convolved():
                sums[0] += _colsum(yb)
                sums[1] += _colsum(yb * yb)
            mu = sums[0] / n_red
            return mu, sums[1] / n_red - mu * mu

        if state is None:
            for _ in self.convolved():
                pass
            self.scale, self.shift = None, None if b is None else b.data.astype(dtype)
        else:
            self.fold = _bn_fold(shape, dtype, moments, state, True, op)
            self.scale, self.shift = (f.astype(dtype) for f in self.fold[2:])

    def rows(self, a, tap):
        """The rows of a block a of the input that ``tap`` reads, (R, L, C)."""
        if tap[2] is None:
            return a.reshape(-1, self.length, a.shape[-1])
        return a.reshape(-1, 2, self.length, a.shape[-1])[:, tap[2]]

    def weights(self):
        """(k, C_in, C_out), the layout of the plan's convs."""
        w = self.w.data
        return np.ascontiguousarray(w.reshape(len(w), self.c_in, self.k).transpose(2, 1, 0),
                                    self.dtype)

    def convolved(self):
        """Make y, one GEMM block and tap at a time, yielding it as (rows, C_out)."""
        wt, c_out = self.weights(), self.shape[1]
        for blk, xb in self.front.outputs(self.gemm):
            for ye, tap in zip(self.y, self.taps):
                yb = ye[blk].reshape(-1, self.m_tap, c_out)
                yield _gemm_conv(self.rows(xb, tap), self.k, *tap[:2], wt, yb).reshape(-1, c_out)

    def run(self, blk, out, wins=None) -> None:
        """The channels-last output of samples blk into out, and where each
        pool's second tap won into wins, if given: ReLU(pool(y * scale +
        shift)), or ReLU(pool(y + b)) without batch norm, by elementwise
        passes over blocks of about _BLOCK_BYTES of y."""
        y = [ye[blk] for ye in self.y]
        cuts = _blocks(len(out), self.y_bytes)
        scale, shift = (_tiled(v, out.shape[1:], self.dtype) for v in (self.scale, self.shift))
        if shift is not None:
            buf = np.empty((len(y), cuts[0].stop) + out.shape[1:], self.dtype)
        for r in cuts:
            z = [ye[r] for ye in y]
            if shift is not None:
                zb = buf[:, :r.stop - r.start]
                for ze, zbe in zip(z, zb):
                    if scale is None:
                        np.add(ze, shift, out=zbe)
                    else:
                        np.multiply(ze, scale, out=zbe)
                        zbe += shift
                z = zb
            if len(z) == 1:
                np.maximum(z[0], 0, out=out[r])
            else:
                _pool_relu(*z, out[r], None if wins is None else wins[r])

    def grad_outputs(self, gemm):
        """Yield each block of samples blk of gemm with its output, made
        again, and where its gradient goes, ``g``: the caller fills that
        before it moves on, and the block's gradient is then masked by the
        ReLU while it is in cache. The winner mask goes to ``wins``.
        :meth:`backward` then reads both."""
        self.g = np.empty(self.y[0].shape, self.dtype)
        self.wins = None if len(self.taps) == 1 else np.empty(self.g.shape, bool)
        buf = np.empty((gemm[0].stop,) + self.g.shape[1:], self.dtype)
        for blk in gemm:
            out, g = buf[:blk.stop - blk.start], self.g[blk]
            self.run(blk, out, None if self.wins is None else self.wins[blk])
            yield blk, out, g
            np.multiply(g, out > 0, out=g)

    def backward(self) -> None:
        """Accumulate the gradients of w and of gamma and beta, or b, and
        make the input's, from ``g`` and ``wins``; then drop y, g and wins."""
        g, wins, y, taps, state = self.g, self.wins, self.y, self.taps, self.state
        c_out, dtype = g.shape[-1], self.dtype
        if wins is not None:
            r = np.empty((2, max(self.blocks[0].stop, self.gemm[0].stop)) + g.shape[1:],
                         dtype=dtype)

        def routed(blk):  # the block's gradient at the outputs each tap reads
            gb = g[blk]
            return [gb] if wins is None else _route(gb, wins[blk], r[:, :len(gb)])

        wt = self.weights()
        if state is not None:
            sums = np.zeros((2, c_out))
            for blk in self.blocks:
                for ye, rb in zip(y, routed(blk)):
                    sums[0] += _colsum(rb.reshape(-1, c_out))
                    sums[1] += _colsum((rb * ye[blk]).reshape(-1, c_out))
            a_ch, c_ch = (_tiled(t, g.shape[1:], dtype)
                          for t in _bn_grad_terms(sums, self.n_red, state, self.fold, True))
            wt *= self.fold[2].astype(dtype)
        gw, gb_sum = np.zeros(wt.shape), None if self.b is None else np.zeros(c_out)
        for blk, xb, gxb in self.front.grad_outputs(self.gemm):
            # along the conv's axis, the second tap's conv reads more of each
            # block of input positions than the first, so it writes gx first
            for e, gy in reversed(list(enumerate(routed(blk)))):
                if state is not None:  # batch norm's input gradient over its scale, in place
                    gy += y[e][blk] * a_ch
                    gy += c_ch
                gy = gy.reshape(-1, c_out)
                if gb_sum is not None:
                    gb_sum += _colsum(gy)
                tap = taps[e]
                _gemm_conv_grads(self.rows(xb, tap), self.k, *tap[:2], wt,
                                 gy.reshape(-1, self.m_tap, c_out), gw,
                                 None if gxb is None else self.rows(gxb, tap),
                                 init=e == len(taps) - 1 or tap[2] is not None)
        self.y = self.g = self.wins = None
        if state is not None:
            gw *= self.fold[2]
        w = self.w
        _accum_owned(w, gw.transpose(2, 1, 0).reshape(w.data.shape).astype(w.data.dtype))
        if self.b is not None:
            _accum_owned(self.b, gb_sum.astype(self.b.data.dtype))


def conv_stage(x, w: Tensor, b: Tensor | None, stride, pad,
               state: BatchNormState | None = None, window=None) -> Tensor:
    """The :class:`ConvStage` of these arguments, and the stages before it
    that ``x`` holds, back to the first one whose input is a Tensor or a
    :class:`ConvBnReluPool`, as one node: ``conv2d``, ``batch_norm``,
    ``relu`` and ``max_pool2d`` up to rounding, stage after stage. The node
    makes this stage's output whole, with its winner mask, and returns the
    output's (B, C, F, T) view; its backward runs the stages from this one
    back to the first.

    The tape holds the node's input, the y of each stage with batch norm,
    small arrays, and this stage's output and winner mask; the outputs of
    the stages before it are made again one block at a time wherever they
    are read. Every other array is at most one block, except that backward
    holds, while it runs a stage and the one after it, the gradient at that
    stage's output and its winner mask. A node's input that is a
    :class:`ConvBnReluPool` takes no gradient, and refuses one that asks
    for it.
    """
    last = ConvStage(x, w, b, stride, pad, state, window)
    out = np.empty(last.y[0].shape, last.dtype)
    wins = None if len(last.taps) == 1 else np.empty(out.shape, bool)
    last.run(slice(0, len(out)), out, wins)
    if state is None:
        last.y = None  # backward reads it for batch norm only

    def backward(g):
        g = _cl(g, last.dtype)
        for blk in last.blocks:
            np.multiply(g[blk], out[blk] > 0, out=g[blk])
        last.g, last.wins, st = g, wins, last
        while isinstance(st, ConvStage):
            st.backward()
            st = st.front

    return _make(out.transpose(0, 3, 2, 1), last.params, backward)


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
