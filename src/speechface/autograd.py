"""Dense tensors with reverse-mode automatic differentiation.

Everything the network needs is built from the primitives in this module:
convolution, max pooling, batch normalization, dense layers, elementwise
activations and the LSTM/GRU cell steps. Each primitive records a backward
closure on a tape; calling :meth:`Tensor.backward` on a scalar loss walks the
tape in reverse topological order and accumulates exact gradients into every
leaf tensor that requested them. Backward closures read their inputs' arrays
when they run, so those arrays must not change in place between the forward
pass and the backward pass. The walk consumes the tape, releasing each node's
saved arrays once its closure has run, so a recorded graph is differentiated
once; a second backward through it raises :class:`StateError`.

Arrays are float32 by default. Building inputs and parameters as float64
switches the whole graph to 64-bit, which is what the finite-difference
gradient checks use.
"""

from __future__ import annotations

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


def _as_array(data, dtype=None) -> np.ndarray:
    if dtype is not None:
        return np.asarray(data, dtype=dtype)
    if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
        return data
    if isinstance(data, np.floating):
        # 0-d arithmetic yields numpy scalars; keep their precision
        return np.asarray(data)
    return np.asarray(data, dtype=np.float32)


class Tensor:
    """A dense n-dimensional float array, optionally carrying a gradient."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
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

    def backward(self, grad=None) -> None:
        """Accumulate d(self)/d(x) into every leaf tensor x on the recorded
        tape (parameters and inputs that requested gradients).

        ``self`` must be a scalar produced by a recorded forward pass; ``grad``
        optionally seeds the upstream gradient (defaults to 1). ``self`` keeps
        its gradient; intermediate tensors are left with ``grad`` None.

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
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype).reshape(self.data.shape)
        self.grad = grad

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

    def __init__(self, name: str, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
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
_BLOCK_BYTES = 1 << 19


def _blocks(nb: int, sample_bytes: int) -> list:
    step = max(1, _BLOCK_BYTES // max(1, sample_bytes))
    return [slice(i, min(i + step, nb)) for i in range(0, nb, step)]


def _by_sample(a: np.ndarray) -> np.ndarray:
    """(B, C, ...) as (B, C, rest); a view when ``a`` is C-contiguous."""
    return a.reshape(a.shape[:2] + (int(np.prod(a.shape[2:])),))


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


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride=(1, 1), pad=(0, 0)) -> Tensor:
    """2-d cross-correlation over (freq, time) with symmetric zero padding.

    ``x`` is (B, C_in, F, T) and ``w`` is (C_out, C_in, kF, kT). Output
    spatial dims follow the usual floor((size + 2*pad - kernel) / stride) + 1
    rule. The padded input is never built: padding is written as zeros into
    the im2col slots it covers, and the input gradient is assembled from the
    spans of input that the kernel taps cover.
    """
    xd = x.data
    if xd.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: expected (B,C,F,T) input and 4-d weights, got {x.shape} / {w.shape}")
    nb, c_in, f_in, t_in = xd.shape
    c_out, c_w, k_f, k_t = w.data.shape
    if c_w != c_in:
        raise ShapeError(f"conv2d: input has {c_in} channels but weights expect {c_w}")
    s_f, s_t = stride
    p_f, p_t = pad
    if f_in + 2 * p_f < k_f or t_in + 2 * p_t < k_t:
        raise ShapeError(
            f"conv2d: kernel ({k_f},{k_t}) larger than padded input ({f_in + 2 * p_f},{t_in + 2 * p_t})"
        )
    if b is not None and b.data.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {b.data.shape} does not match {c_out} channels")

    f_out = (f_in + 2 * p_f - k_f) // s_f + 1
    t_out = (t_in + 2 * p_t - k_t) // s_t + 1
    wmat = w.data.reshape(c_out, -1)
    dtype = np.result_type(xd.dtype, w.data.dtype)
    n_pos = f_out * t_out
    k_all = c_in * k_f * k_t
    # per kernel tap (i, j): its output box and the input it reads there
    taps = [(i, j, _tap_span(f_in, f_out, i, s_f, p_f), _tap_span(t_in, t_out, j, s_t, p_t))
            for i in range(k_f) for j in range(k_t)]

    # im2col, one strided copy per kernel tap. Two layouts: with many output
    # positions per sample, batched (B,K,P) matmuls have plenty of work each
    # and run a block of samples at a time; with few positions the batch is
    # folded into one big GEMM instead, since the extra transpose copies are
    # tiny at that size. ``tap_view`` shows either layout's slots of one tap
    # as (B, C_in, F_out, T_out).
    folded = n_pos < 64
    if folded:
        def tap_view(a, i, j):
            return a.reshape(c_in, k_f, k_t, -1, f_out, t_out)[:, i, j].transpose(1, 0, 2, 3)
    else:
        def tap_view(a, i, j):
            return a.reshape(-1, c_in, k_f, k_t, f_out, t_out)[:, :, i, j]

    def im2col(col, xb):
        for i, j, (f0, f1, fs), (t0, t1, ts) in taps:
            _fill_box(tap_view(col, i, j), (f0, f1), (t0, t1), xb[:, :, fs, ts])
        return col

    if folded:
        col = im2col(np.empty((k_all, nb * n_pos), dtype=dtype), xd)
        out2 = wmat @ col  # (C_out, B*P)
        if b is not None:
            out2 += b.data[:, None]
        out = np.ascontiguousarray(
            out2.reshape(c_out, nb, f_out, t_out).transpose(1, 0, 2, 3))
    else:
        # One block's im2col buffer, rebuilt from x in backward: x stays
        # alive anyway, and a whole batch of columns is up to 1.5x its size.
        blocks = _blocks(nb, max(k_all, c_out) * n_pos * np.dtype(dtype).itemsize)
        col = np.empty((blocks[0].stop if blocks else 0, k_all, n_pos), dtype=dtype)
        out = np.empty((nb, c_out, n_pos), dtype=dtype)
        for blk in blocks:
            xb = xd[blk]
            ob = np.matmul(wmat, im2col(col[:len(xb)], xb), out=out[blk])  # (n, C_out, P)
            if b is not None:
                ob += b.data[:, None]
        out = out.reshape(nb, c_out, f_out, t_out)

    def backward(g):
        gx = np.empty(xd.shape, dtype=xd.dtype) if x.requires_grad else None
        if folded:
            gmat = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(c_out, -1)
            _accum_owned(w, (gmat @ col.T).reshape(w.data.shape))
            if b is not None:
                _accum_owned(b, gmat.sum(axis=1))
            if gx is not None:
                _col2im(gx, wmat.T @ gmat, tap_view, taps, stride, pad)
        else:
            gmat = g.reshape(nb, c_out, n_pos)
            gw = np.zeros((c_out, k_all), dtype=dtype)
            gb = np.zeros(c_out, dtype=dtype)
            gcol = np.empty_like(col) if gx is not None else None
            for blk in blocks:
                xb, gm = xd[blk], gmat[blk]
                cb = im2col(col[:len(xb)], xb)
                gw += np.matmul(gm, cb.transpose(0, 2, 1)).sum(axis=0)
                gb += gm.sum(axis=(0, 2))
                if gx is not None:
                    gcb = np.matmul(wmat.T, gm, out=gcol[:len(xb)])
                    _col2im(gx[blk], gcb, tap_view, taps, stride, pad)
            _accum_owned(w, gw.reshape(w.data.shape))
            if b is not None:
                _accum_owned(b, gb)
        if gx is not None:
            _accum_owned(x, gx)

    return _make(out, (x, w) + ((b,) if b is not None else ()), backward)


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

    Argmax positions are recorded so the backward pass routes each upstream
    gradient element to exactly one input position; ties go to the first.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"max_pool2d: expected (B,C,F,T) input, got {x.shape}")
    w_f, w_t = window
    s_f, s_t = stride if stride is not None else window
    nb, nc, f_in, t_in = xd.shape
    if w_f > f_in or w_t > t_in:
        raise ShapeError(f"max_pool2d: window ({w_f},{w_t}) larger than input ({f_in},{t_in})")
    f_out = (f_in - w_f) // s_f + 1
    t_out = (t_in - w_t) // s_t + 1

    if w_f * w_t == 2 and (s_f, s_t) == (w_f, w_t) and (f_in, t_in) == (w_f * f_out, w_t * t_out):
        # Non-overlapping two-element windows that tile the input: both taps
        # are views of one reshape, and the gradient is written through it
        # once. The winner mask is recomputed only if backward runs.
        pair = (nb, nc, f_out, 2, t_out) if w_f == 2 else (nb, nc, f_out, t_out, 2)
        tap = [(slice(None),) * (3 if w_f == 2 else 4) + (k,) for k in (0, 1)]
        xv = xd.reshape(pair)
        out = np.maximum(xv[tap[0]], xv[tap[1]])

        def backward(g):
            if x.requires_grad:
                gx = np.empty(xd.shape, dtype=xd.dtype)
                gv = gx.reshape(pair)
                wins = xv[tap[1]] > xv[tap[0]]
                np.multiply(g, wins, out=gv[tap[1]])
                np.multiply(g, ~wins, out=gv[tap[0]])
                _accum_owned(x, gx)

        return _make(out, (x,), backward)

    taps = [(i, j) for i in range(w_f) for j in range(w_t)]
    views = [xd[:, :, i:i + s_f * f_out:s_f, j:j + s_t * t_out:s_t] for i, j in taps]
    stacked = np.stack(views)
    amax = stacked.argmax(axis=0)
    out = stacked.max(axis=0)

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(xd)
            for k, (i, j) in enumerate(taps):
                gx[:, :, i:i + s_f * f_out:s_f, j:j + s_t * t_out:s_t] += g * (amax == k)
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


def _channel_sums(a: np.ndarray, b: np.ndarray):
    """Per-channel float64 sums of ``a`` and of ``a * b`` over every axis
    but 1, in one pass over both.

    Each (sample, channel) row is reduced contiguously by BLAS in the
    arrays' own precision, and the rows are summed over the batch in float64.
    """
    a3, b3 = _by_sample(a), _by_sample(b)
    ones = np.ones(a3.shape[2], dtype=a3.dtype)
    sum_a = np.zeros(a3.shape[1])
    sum_ab = np.zeros(a3.shape[1])
    for blk in _blocks(len(a3), a3[:1].nbytes):
        sum_a += (a3[blk] @ ones).sum(axis=0, dtype=np.float64)
        dots = a3[blk, :, None, :] @ b3[blk, :, :, None]
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


def batch_norm(x: Tensor, state: BatchNormState, training: bool) -> Tensor:
    """Normalize per channel (axis 1), then scale by gamma and shift by beta.

    Training mode uses batch statistics and folds them into the running
    mean/variance with the state's momentum; inference mode uses the running
    statistics. Variance is the population (biased) variance throughout, so
    running statistics converge exactly to the training-mode normalizer.
    """
    xd = x.data
    if xd.ndim < 2:
        raise ShapeError(f"batch_norm: expected at least (B,C) input, got {x.shape}")
    if xd.shape[1] != state.channels:
        raise ShapeError(f"batch_norm: input has {xd.shape[1]} channels, state has {state.channels}")
    if training and xd.shape[0] < 2:
        raise ConfigError("batch_norm: training mode requires batch size >= 2")

    eps = state.epsilon
    n_red = xd.size // xd.shape[1]

    if training:
        sum_x, sum_xx = _channel_sums(xd, xd)
        mu64 = sum_x / n_red
        mu = mu64.astype(xd.dtype)
        var = np.maximum(sum_xx / n_red - mu64 * mu64, 0.0).astype(xd.dtype)
        m = state.momentum
        state.running_mean = (m * state.running_mean + (1 - m) * mu).astype(
            state.running_mean.dtype, copy=False)
        state.running_var = (m * state.running_var + (1 - m) * var).astype(
            state.running_var.dtype, copy=False)
    else:
        mu = state.running_mean.astype(xd.dtype, copy=False)
        var = state.running_var.astype(xd.dtype, copy=False)

    inv = 1.0 / np.sqrt(var + eps)
    gamma, beta = state.gamma, state.beta
    # folded per-channel affine: out = x * scale + shift
    scale = gamma.data * inv
    shift = beta.data - mu * gamma.data * inv
    out = np.empty(xd.shape, dtype=np.result_type(xd, scale, shift))
    _channel_affine(out, [(xd, scale)], shift)

    def backward(g):
        # Per-channel sums suffice: with xhat = (x - mu) * inv the gradient is
        # gx = scale * (g - mean(g) - xhat * mean(g * xhat)), rearranged below
        # into g * scale + x * A + C so xhat is never materialized. The
        # upstream gradient is overwritten with it.
        g = np.ascontiguousarray(g)
        sum_g, sum_gx = _channel_sums(g, xd)
        sum_gx = (sum_gx - mu * sum_g) * inv
        _accum_owned(gamma, sum_gx.astype(gamma.dtype))
        _accum_owned(beta, sum_g.astype(beta.dtype))
        if x.requires_grad:
            if training:
                a_ch = -(scale * inv) * (sum_gx / n_red)
                c_ch = (scale * inv * mu) * (sum_gx / n_red) - scale * (sum_g / n_red)
                _channel_affine(g, [(g, scale), (xd, a_ch)], c_ch)
            else:
                _channel_affine(g, [(g, scale)])
            _accum_owned(x, g)

    return _make(out, (x, gamma, beta), backward)


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
