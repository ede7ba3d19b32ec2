"""Dense tensors with reverse-mode automatic differentiation.

Everything the network needs is built from the primitives in this module:
convolution, max pooling, batch normalization, dense layers, elementwise
activations and the LSTM/GRU cell steps. Each primitive records a backward
closure on a tape; calling :meth:`Tensor.backward` on a scalar loss walks the
tape in reverse topological order and accumulates exact gradients into every
tensor that requested them.

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
        """Accumulate d(self)/d(x) into every tensor x on the recorded tape.

        ``self`` must be a scalar produced by a recorded forward pass; ``grad``
        optionally seeds the upstream gradient (defaults to 1).
        """
        if not self._prev:
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

        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

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
        _accum_owned(x, g * (out > 0))

    return _make(out, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def backward(g):
        _accum_owned(x, g * (1 - y * y))

    return _make(y, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    # split by sign for overflow-free exp
    xd = x.data
    y = np.empty_like(xd)
    pos = xd >= 0
    y[pos] = 1 / (1 + np.exp(-xd[pos]))
    e = np.exp(xd[~pos])
    y[~pos] = e / (1 + e)

    def backward(g):
        _accum_owned(x, g * y * (1 - y))

    return _make(y, (x,), backward)


# ---------------------------------------------------------------------------
# dense / convolution / pooling / normalization


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


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride=(1, 1), pad=(0, 0)) -> Tensor:
    """2-d cross-correlation over (freq, time) with symmetric zero padding.

    ``x`` is (B, C_in, F, T) and ``w`` is (C_out, C_in, kF, kT). Output
    spatial dims follow the usual floor((size + 2*pad - kernel) / stride) + 1
    rule.
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
    xp = np.pad(xd, ((0, 0), (0, 0), (p_f, p_f), (p_t, p_t))) if (p_f or p_t) else xd
    wmat = w.data.reshape(c_out, -1)
    dtype = np.result_type(xd.dtype, w.data.dtype)
    n_pos = f_out * t_out
    k_all = c_in * k_f * k_t

    # im2col, one strided slice per kernel tap. Two layouts: with many output
    # positions per sample, batched (B,K,P) matmuls have plenty of work each;
    # with few positions the batch is folded into one big GEMM instead, since
    # the extra transpose copies are tiny at that size.
    folded = n_pos < 64
    if folded:
        col = np.empty((k_all, nb * n_pos), dtype=dtype)
        colv = col.reshape(c_in, k_f, k_t, nb, f_out, t_out)
        for i in range(k_f):
            for j in range(k_t):
                colv[:, i, j] = xp[:, :, i:i + s_f * f_out:s_f,
                                   j:j + s_t * t_out:s_t].transpose(1, 0, 2, 3)
        out2 = wmat @ col  # (C_out, B*P)
        if b is not None:
            out2 += b.data[:, None]
        out = np.ascontiguousarray(
            out2.reshape(c_out, nb, f_out, t_out).transpose(1, 0, 2, 3))
    else:
        col = np.empty((nb, k_all, n_pos), dtype=dtype)
        colv = col.reshape(nb, c_in, k_f, k_t, f_out, t_out)
        for i in range(k_f):
            for j in range(k_t):
                colv[:, :, i, j] = xp[:, :, i:i + s_f * f_out:s_f, j:j + s_t * t_out:s_t]
        out = wmat @ col  # (B, C_out, P)
        if b is not None:
            out += b.data[:, None]
        out = out.reshape(nb, c_out, f_out, t_out)

    def backward(g):
        if folded:
            gmat = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(c_out, -1)
            _accum_owned(w, (gmat @ col.T).reshape(w.data.shape))
            if b is not None:
                _accum_owned(b, gmat.sum(axis=1))
            gcol = wmat.T @ gmat if x.requires_grad else None
        else:
            gmat = g.reshape(nb, c_out, -1)
            gw = np.matmul(gmat, col.transpose(0, 2, 1)).sum(axis=0)
            _accum_owned(w, gw.reshape(w.data.shape))
            if b is not None:
                _accum_owned(b, gmat.sum(axis=(0, 2)))
            gcol = wmat.T @ gmat if x.requires_grad else None
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for i in range(k_f):
                for j in range(k_t):
                    dst = gxp[:, :, i:i + s_f * f_out:s_f, j:j + s_t * t_out:s_t]
                    if folded:
                        dst += gcol.reshape(c_in, k_f, k_t, nb, f_out, t_out)[
                            :, i, j].transpose(1, 0, 2, 3)
                    else:
                        dst += gcol.reshape(nb, c_in, k_f, k_t, f_out, t_out)[:, :, i, j]
            gx = gxp[:, :, p_f:p_f + f_in, p_t:p_t + t_in] if (p_f or p_t) else gxp
            _accum(x, gx)

    return _make(out, (x, w) + ((b,) if b is not None else ()), backward)


def max_pool2d(x: Tensor, window, stride=None) -> Tensor:
    """Max pooling over (freq, time) windows; trailing partial windows drop.

    Argmax positions are recorded so the backward pass routes each upstream
    gradient element to exactly one input position.
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

    taps = [(i, j) for i in range(w_f) for j in range(w_t)]
    views = [xd[:, :, i:i + s_f * f_out:s_f, j:j + s_t * t_out:s_t] for i, j in taps]
    two_tap = len(taps) == 2 and (s_f, s_t) == (w_f, w_t)
    if two_tap:
        # Non-overlapping two-element windows: a contiguous reshape-max is one
        # fast pass; the winner mask is recomputed only if backward runs.
        if w_f == 2:
            out = xd[:, :, :2 * f_out, :t_out].reshape(
                nb, nc, f_out, 2, t_out).max(axis=3)
        else:
            out = xd[:, :, :f_out, :2 * t_out].reshape(
                nb, nc, f_out, t_out, 2).max(axis=4)
        amax = None
    else:
        stacked = np.stack(views)
        amax = stacked.argmax(axis=0)
        out = stacked.max(axis=0)

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(xd)
            second = views[1] > views[0] if amax is None else None
            for k, (i, j) in enumerate(taps):
                hit = (second if k else ~second) if amax is None else (amax == k)
                gx[:, :, i:i + s_f * f_out:s_f, j:j + s_t * t_out:s_t] += g * hit
            _accum_owned(x, gx)

    return _make(out, (x,), backward)


class BatchNormState:
    """Per-channel scale/shift parameters plus running statistics."""

    def __init__(self, name: str, channels: int, momentum: float = 0.9,
                 epsilon: float = 1e-5, dtype=np.float32):
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels, dtype=dtype))
        self.beta = Parameter(f"{name}.beta", np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.momentum = momentum
        self.epsilon = epsilon

    @property
    def channels(self) -> int:
        return self.gamma.data.shape[0]


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

    axes = (0,) + tuple(range(2, xd.ndim))
    bshape = (1, state.channels) + (1,) * (xd.ndim - 2)
    eps = state.epsilon

    if training:
        # single-pass channel sums, accumulated in 64-bit
        n_r = xd.size // xd.shape[1]
        if xd.ndim == 4:
            ssq = np.einsum("bcft,bcft->c", xd, xd, dtype=np.float64)
        elif xd.ndim == 2:
            ssq = np.einsum("bc,bc->c", xd, xd, dtype=np.float64)
        else:
            ssq = (xd.astype(np.float64) ** 2).sum(axis=axes)
        mu64 = xd.sum(axis=axes, dtype=np.float64) / n_r
        mu = mu64.astype(xd.dtype)
        var = np.maximum(ssq / n_r - mu64 * mu64, 0.0).astype(xd.dtype)
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
    scale = (gamma.data * inv).reshape(bshape)
    shift = (beta.data - mu * gamma.data * inv).reshape(bshape)
    out = xd * scale + shift

    n_red = xd.size // xd.shape[1]

    def backward(g):
        # Per-channel sums suffice: with xhat = (x - mu) * inv the gradient is
        # gx = scale * (g - mean(g) - xhat * mean(g * xhat)), rearranged below
        # into g * scale + x * A + C so xhat is never materialized.
        sum_g = g.sum(axis=axes)
        sum_gx = ((g * xd).sum(axis=axes) - mu * sum_g) * inv
        _accum_owned(gamma, sum_gx)
        _accum(beta, sum_g)
        if x.requires_grad:
            if training:
                s = scale.reshape(-1)
                a_ch = -(s * inv) * (sum_gx / n_red)
                c_ch = (s * inv * mu) * (sum_gx / n_red) - s * (sum_g / n_red)
                gx = g * scale
                gx += xd * a_ch.reshape(bshape)
                gx += c_ch.reshape(bshape)
            else:
                gx = g * scale
            _accum_owned(x, gx)

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
