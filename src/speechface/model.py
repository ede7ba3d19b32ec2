"""The time-frequency CNN + recurrent network and its checkpoint format.

The spectrogram is convolved and pooled on the frequency axis (downsampling
by two per step) until that axis collapses to one, then convolved and pooled
along time, followed by a dense layer, an optional unidirectional recurrent
layer (LSTM or GRU), a second dense layer and two output heads: a tanh head
for the 3 rotation parameters and a sigmoid head for the 46 expression
weights.

Three variants share the convolutional trunk: ``cnn_static`` (no recurrent
layer, frame-by-frame), ``cnn_lstm`` and ``cnn_gru``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from .audio import NUM_BANDS, NUM_COLUMNS, NormStats, Spectrogram
from .autograd import BatchNormState, GRUParams, LSTMParams, Parameter, Tensor
from .binfile import Reader
from .errors import ConfigError, DataError, NumericError, ShapeError, check_seed
from .face import NUM_EXPRESSIONS, NUM_ROTATION, FaceFrame

VARIANTS = ("cnn_static", "cnn_lstm", "cnn_gru")

CHECKPOINT_MAGIC = b"SFCK"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ConvSpec:
    name: str
    out_channels: int
    kernel: tuple
    stride: tuple
    pad: tuple
    batch_norm: bool = True


@dataclass(frozen=True)
class PoolSpec:
    name: str
    window: tuple
    stride: tuple


@dataclass(frozen=True)
class Architecture:
    """Layer stack description; the default is the production configuration."""

    input_bands: int = NUM_BANDS
    input_columns: int = NUM_COLUMNS
    stack: tuple = (
        ConvSpec("conv1", 64, (3, 1), (2, 1), (1, 0)),
        PoolSpec("pool1", (2, 1), (2, 1)),
        ConvSpec("conv2", 96, (3, 1), (2, 1), (1, 0)),
        PoolSpec("pool2", (2, 1), (2, 1)),
        ConvSpec("conv3", 128, (3, 1), (2, 1), (1, 0)),
        ConvSpec("conv4", 160, (3, 1), (2, 1), (1, 0)),
        ConvSpec("conv5", 256, (2, 1), (2, 1), (0, 0)),
        PoolSpec("pool5", (1, 2), (1, 2)),
        ConvSpec("conv6", 256, (1, 3), (1, 2), (0, 1)),
        ConvSpec("conv7", 256, (1, 3), (1, 2), (0, 1)),
        ConvSpec("conv8", 256, (1, 4), (1, 4), (0, 0), batch_norm=False),
    )
    hidden: int = 256

    def stack_shapes(self):
        """Per-layer (channels, freq, time) output dims, input row first."""
        shapes = [("input", (1, self.input_bands, self.input_columns))]
        c, f, t = shapes[0][1]
        for spec in self.stack:
            if isinstance(spec, ConvSpec):
                (kf, kt), (sf, st), (pf, pt) = spec.kernel, spec.stride, spec.pad
                c = spec.out_channels
                f = (f + 2 * pf - kf) // sf + 1
                t = (t + 2 * pt - kt) // st + 1
            else:
                (wf, wt), (sf, st) = spec.window, spec.stride
                f = (f - wf) // sf + 1
                t = (t - wt) // st + 1
            shapes.append((spec.name, (c, f, t)))
        return shapes

    @property
    def column_stages(self) -> int:
        """Length of the stack's leading run of stages that act along
        frequency only, so each time column passes them independently of
        the others: conv1 to conv5, the last one before pool5."""
        for i, spec in enumerate(self.stack):
            kernel, pad = (spec.kernel, spec.pad) if isinstance(spec, ConvSpec) \
                else (spec.window, (0, 0))
            if (kernel[1], spec.stride[1], pad[1]) != (1, 1, 0):
                return i
        return len(self.stack)

    @property
    def flat_dim(self) -> int:
        c, f, t = self.stack_shapes()[-1][1]
        return c * f * t


STANDARD_ARCH = Architecture()

# Arrays in the recurrent state tuple: h for the GRU, (h, c) for the LSTM.
_STATE_SIZE = {"cnn_static": 0, "cnn_lstm": 2, "cnn_gru": 1}


class Model:
    """A built network: variant tag, parameters and input normalization."""

    arch = STANDARD_ARCH
    dtype = np.float32  # parameters and training arithmetic

    def __init__(self, variant: str):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
        self.variant = variant
        self.norm_stats = NormStats.identity()
        self.conv_w = {}
        self.conv_b = {}
        self.conv_bn = {}
        self.dense1_w = self.dense1_b = None
        self.cell = None
        self.dense2_w = self.dense2_b = None
        self.head_r_w = self.head_r_b = None
        self.head_e_w = self.head_e_b = None

    # -- parameter bookkeeping ------------------------------------------------

    def parameters(self) -> list:
        """All trainable parameters in a stable order."""
        params = []
        for name, w in self.conv_w.items():  # in stack order, as _assemble fills it
            bn = self.conv_bn.get(name)
            params += [w] + ([self.conv_b[name]] if bn is None else [bn.gamma, bn.beta])
        params += [self.dense1_w, self.dense1_b]
        if self.cell is not None:
            params += list(self.cell)
        params += [self.dense2_w, self.dense2_b,
                   self.head_r_w, self.head_r_b, self.head_e_w, self.head_e_b]
        return params

    def named_arrays(self):
        """Parameters plus batch-norm running statistics, for persistence."""
        entries = [(p.name, p.data) for p in self.parameters()]
        for name, bn in self.conv_bn.items():
            entries += [(f"{name}.bn.running_mean", bn.running_mean),
                        (f"{name}.bn.running_var", bn.running_var)]
        return entries

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- forward pieces ---------------------------------------------------------

    def layers(self, x: Tensor, training: bool, early: Tensor | None = None):
        """Walk the trunk, yielding (layer name, output) for the input, each
        conv/pool stage and the first dense layer: (B,1,F,T) -> (B,hidden).

        ``early`` splits the walk by time columns, for inference: it holds
        the output of the first :attr:`Architecture.column_stages` stages for
        the frame's leading columns, and x then holds only the remaining
        ones. Those run the same stages on their own, join ``early`` along
        time, and the walk goes on from there. Each column passes those
        stages independently of the others, so the split changes only the
        GEMMs' shapes, and with them the rounding.
        """
        arch = self.arch
        split = 0 if early is None else arch.column_stages
        columns = arch.input_columns - (0 if early is None else early.shape[3])
        expect = (1, arch.input_bands, columns)
        if x.ndim != 4 or x.shape[1:] != expect:
            raise ShapeError(f"input: expected (B,) + {expect}, got {x.shape}")
        yield "input", x
        if split:
            for name, x in self.stages(x, training, stop=split):
                yield name, x
            x = Tensor(np.concatenate([early.data, x.data], axis=3))
        for name, x in self.stages(x, training, start=split):
            yield name, x
        x = ag.reshape(x, (x.shape[0], arch.flat_dim))
        yield "dense1", ag.tanh(ag.dense(x, self.dense1_w, self.dense1_b))

    def stages(self, x: Tensor, training: bool, start: int = 0, stop: int | None = None):
        """Run stages ``arch.stack[start:stop]`` on x, yielding (stage name,
        output) for each.

        In training, each conv runs with its batch norm, its ReLU and a
        two-tap pool that follows it as one node on channels-last arrays,
        :func:`~.autograd.conv_stage`, and a pool it takes is yielded under
        the pool's name: the tape then keeps no normalized or activated
        array, and no im2col. conv1, over the one-channel spectrogram, with
        its pool1, is a :class:`~.autograd.ConvBnReluPool` stage, which
        never makes the conv's output: with three im2col columns per output
        element, batch norm's statistics and every gradient follow from
        those columns and from sums at the pooled size. The node of the conv
        that follows its pool, as conv2 follows pool1, runs that stage one
        block of samples at a time, so its pooled output is never made whole
        and is not yielded; a stage that no conv follows raises ShapeError.
        Each node yields the (B, C, F, T) view of its channels-last array,
        which the next stage reads in place. Inference yields every stage,
        which is what :func:`forward_trace` and the non-finite diagnostics
        read.
        """
        stack = self.arch.stack[start:stop]
        fused = None
        for i, spec in enumerate(stack):
            if spec is fused:
                continue
            try:
                if isinstance(spec, ConvSpec):
                    w, b = self.conv_w[spec.name], self.conv_b.get(spec.name)
                    bn = self.conv_bn.get(spec.name)
                    if not training:
                        x = ag.conv2d(x, w, b, spec.stride, spec.pad)
                        if bn is not None:
                            x = ag.batch_norm(x, bn, False)
                        x = ag.relu(x)
                    else:
                        nxt = stack[i + 1] if i + 1 < len(stack) else None
                        pool = (nxt.window if isinstance(nxt, PoolSpec) and nxt.stride == nxt.window
                                and nxt.window in ((2, 1), (1, 2)) else None)
                        if x.shape[1] == 1 and bn is not None and pool is not None:
                            # the next conv's node runs this stage
                            x, fused = ag.ConvBnReluPool(x, w, spec.stride, spec.pad, bn, pool), nxt
                            continue
                        x = ag.conv_stage(x, w, b, spec.stride, spec.pad, bn, pool)
                        if pool is not None:
                            spec = fused = nxt
                else:
                    _no_front(x, fused)
                    x = ag.max_pool2d(x, spec.window, spec.stride)
            except ShapeError as err:
                raise ShapeError(f"layer {spec.name}: {err}") from None
            yield spec.name, x
        _no_front(x, fused)

    def trunk(self, x: Tensor, training: bool, early: Tensor | None = None) -> Tensor:
        """Conv/pool stack plus the first dense layer: (B,1,F,T) -> (B,hidden);
        ``early`` splits it by time columns as in :meth:`layers`."""
        for _, x in self.layers(x, training, early):
            pass
        return x

    def recur(self, x: Tensor, state: tuple):
        """One recurrent step on (B,hidden) features: (x, state) -> (out, state).

        ``state`` holds (B,hidden) Tensors laid out as :meth:`initial_state`
        makes them; cnn_static has none and passes ``x`` through.
        """
        if self.variant == "cnn_lstm":
            state = ag.lstm_step(x, state, self.cell)
        elif self.variant == "cnn_gru":
            state = (ag.gru_step(x, state[0], self.cell),)
        return (state[0] if state else x), state

    def head_out(self, x: Tensor):
        """Second dense layer and the two output heads: (B,hidden) -> (B,3),(B,46)."""
        return self._heads(self._dense2(x))

    def _dense2(self, x: Tensor) -> Tensor:
        return ag.tanh(ag.dense(x, self.dense2_w, self.dense2_b))

    def _heads(self, x: Tensor):
        y_r = ag.tanh(ag.dense(x, self.head_r_w, self.head_r_b))
        y_e = ag.sigmoid(ag.dense(x, self.head_e_w, self.head_e_b))
        return y_r, y_e

    def initial_state(self, batch: int = 1, dtype=np.float64) -> tuple:
        """Zero recurrent state of ``batch`` streams: () for cnn_static, (h,)
        for cnn_gru and (h, c) for cnn_lstm, each array (batch, hidden)."""
        return tuple(np.zeros((batch, self.arch.hidden), dtype)
                     for _ in range(_STATE_SIZE[self.variant]))


def _no_front(x, pool: PoolSpec) -> None:
    """Refuse a conv_bn_relu_pool stage, ending at ``pool``, that no conv runs."""
    if isinstance(x, ag.ConvBnReluPool):
        raise ShapeError(f"no conv follows {pool.name} to run its conv_bn_relu_pool stage")


def _glorot(rng, shape, fan_in, fan_out, dtype):
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape).astype(dtype)


def _assemble(variant: str, weight, dtype=Model.dtype) -> Model:
    """Allocate every parameter of ``variant``.

    Weight matrices come from ``weight(shape, fan_in, fan_out)``, called in a
    fixed order. A recurrent matrix stacks its gate blocks in one call, with
    the fans of one (hidden, hidden) block.
    Biases start at zero except the LSTM forget gate, which starts at 1; a
    conv that batch norm follows has none, as batch norm would subtract it.
    Biases and batch-norm state are ``dtype``.
    """
    model = Model(variant)
    arch = model.arch
    hid = arch.hidden

    in_ch = 1
    for spec in arch.stack:
        if not isinstance(spec, ConvSpec):
            continue
        kf, kt = spec.kernel
        shape = (spec.out_channels, in_ch, kf, kt)
        model.conv_w[spec.name] = Parameter(
            f"{spec.name}.w", weight(shape, in_ch * kf * kt, spec.out_channels * kf * kt))
        if spec.batch_norm:
            model.conv_bn[spec.name] = BatchNormState(
                f"{spec.name}.bn", spec.out_channels, dtype=dtype)
        else:
            model.conv_b[spec.name] = Parameter(
                f"{spec.name}.b", np.zeros(spec.out_channels, dtype=dtype))
        in_ch = spec.out_channels

    flat = arch.flat_dim
    model.dense1_w = Parameter("dense1.w", weight((hid, flat), flat, hid))
    model.dense1_b = Parameter("dense1.b", np.zeros(hid, dtype=dtype))

    def blocks(n):
        return weight((n * hid, hid), hid, hid)

    if variant == "cnn_lstm":
        w_x, w_h = blocks(4), blocks(4)
        b = np.zeros(4 * hid, dtype=dtype)
        b[hid:2 * hid] = 1.0  # forget gate starts open
        model.cell = LSTMParams(Parameter("rnn.w_x", w_x), Parameter("rnn.w_h", w_h),
                                Parameter("rnn.b", b))
    elif variant == "cnn_gru":
        w_x, w_h, w_c = blocks(3), blocks(2), weight((hid, hid), hid, hid)
        model.cell = GRUParams(Parameter("rnn.w_x", w_x), Parameter("rnn.w_h", w_h),
                               Parameter("rnn.w_c", w_c),
                               Parameter("rnn.b", np.zeros(3 * hid, dtype=dtype)))

    model.dense2_w = Parameter("dense2.w", weight((hid, hid), hid, hid))
    model.dense2_b = Parameter("dense2.b", np.zeros(hid, dtype=dtype))
    model.head_r_w = Parameter("head_r.w", weight((NUM_ROTATION, hid), hid, NUM_ROTATION))
    model.head_r_b = Parameter("head_r.b", np.zeros(NUM_ROTATION, dtype=dtype))
    model.head_e_w = Parameter("head_e.w", weight((NUM_EXPRESSIONS, hid), hid, NUM_EXPRESSIONS))
    model.head_e_b = Parameter("head_e.b", np.zeros(NUM_EXPRESSIONS, dtype=dtype))
    return model


def build_model(variant: str, seed: int = 0) -> Model:
    """Deterministically initialize a model from a seed.

    Conv/dense/head weights use uniform Glorot fan-in/fan-out limits; recurrent
    matrices are Glorot per gate block; biases start at zero except the LSTM
    forget gate, which starts at 1.
    """
    rng = np.random.default_rng(check_seed(seed))
    return _assemble(variant, lambda shape, fan_in, fan_out:
                     _glorot(rng, shape, fan_in, fan_out, Model.dtype))


# ---------------------------------------------------------------------------
# inference
#
# Inference runs in 64-bit, so batched and one-frame-at-a-time passes agree
# far below the float32 noise floor while the trained parameters stay 32-bit
# on disk and in training. A sequence runs phase by phase (the trunk, the
# recurrent layer, then dense2 and the heads), each on weights compiled from
# the model for it alone: every weight is upcast once, and batch norm
# (inference mode), an affine map per channel, is folded into the weights and
# bias of the convolution before it.
# :func:`forward` runs the model's own layers: for one frame, that costs less
# than compiling.


def _spec_bands(spec) -> np.ndarray:
    return spec.bands if isinstance(spec, Spectrogram) else np.asarray(spec)


# Frames per chunk of a plan's run: small enough that a chunk's trunk
# intermediates (512 KB per frame out of pool1) are reused from cache, large
# enough that the early convs still run GEMMs of thousands of rows. Chosen by
# the sweep recorded in CHANGES.md.
TRUNK_CHUNK = 8


@dataclass(frozen=True)
class _Plan:
    """A model's trunk compiled for inference, the first phase of
    :func:`forward_sequence`: float64 weights in GEMM layout.

    ``front`` is conv1 fused with pool1 (:func:`_front`), one (k, stride,
    pad, wz) row along frequency: wz, (k + 1, C), is conv1's kernel over
    its bias, both with batch norm folded in, the layout training's conv1
    stage gives :func:`~.autograd._conv_pool_relu`. ``trunk`` holds
    one (k, stride, pad, w, b) row per later layer of the stack, each
    acting along L of a channels-last (N, L, C) activation; a pool has
    ``w`` None. The first ``column_stages`` rows act along frequency, with
    N frames x columns; frequency is 1 after them, and the rest act along
    time, with N frames. Conv weights are (k, C_in, C_out) with batch norm
    folded in. ``dense1`` is (w, b). The recurrent layer, dense2 and the
    heads are compiled apart, once the trunk has run and its plan is gone.
    """

    column_stages: int
    front: tuple
    trunk: tuple
    dense1: tuple


def _f64(p) -> np.ndarray:
    """A float64 copy, so a plan never shares memory with the model."""
    return np.array(p.data if isinstance(p, Tensor) else p, dtype=np.float64)


def _compile(model: Model) -> _Plan:
    """Compile the model's current trunk weights into an inference plan."""
    arch = model.arch
    trunk = []
    for n, spec in enumerate(arch.stack):
        conv = isinstance(spec, ConvSpec)
        kernel, pad = (spec.kernel, spec.pad) if conv else (spec.window, (0, 0))
        a = 0 if n < arch.column_stages else 1  # frequency, then time
        w = b = None
        if conv:
            w = model.conv_w[spec.name].data.reshape(spec.out_channels, -1, kernel[a])
            w = np.ascontiguousarray(w.transpose(2, 1, 0), dtype=np.float64)
            bn = model.conv_bn.get(spec.name)
            b = _f64(model.conv_b[spec.name] if bn is None else bn.beta)
            if bn is not None:
                scale = _f64(bn.gamma) / np.sqrt(_f64(bn.running_var) + bn.epsilon)
                w *= scale
                b -= _f64(bn.running_mean) * scale
        trunk.append((kernel[a], spec.stride[a], pad[a], w, b))
    k, s, p, w, b = trunk[0]  # conv1; pool1 is the front's two-tap pool
    return _Plan(
        column_stages=arch.column_stages - 2,
        front=(k, s, p, np.vstack([w[:, 0], b])),
        trunk=tuple(trunk[2:]),
        dense1=(_f64(model.dense1_w), _f64(model.dense1_b)),
    )


class _Workspace:
    """Float64 buffers by key, for the trunk's chunks of one call: a request
    gets a view of its key's buffer, which is allocated, or grown, only when
    the request does not fit. Every chunk asks for the same shapes, so after
    the first one no chunk allocates an activation."""

    def __init__(self):
        self.buffers = {}

    def __call__(self, key, shape) -> np.ndarray:
        size = math.prod(shape)
        buf = self.buffers.get(key)
        if buf is None or buf.size < size:
            buf = self.buffers[key] = np.empty(size)
        return buf[:size].reshape(shape)


def _front(plan: _Plan, x: np.ndarray, ws: _Workspace) -> np.ndarray:
    """conv1, pool1 and the ReLU on (..., L) one-channel x -> channels-last
    (N, m // 2, C), N the product of x's leading dimensions and m conv1's
    outputs, without making conv1's output: training's conv1 kernel
    (:func:`~.autograd._conv_pool_relu`) on conv1's tap-major im2col with a
    ones column, one block of rows at a time. Max commutes with adding a
    per-channel constant, so only the GEMM's rounding differs from conv,
    pool, then bias. The im2col and the result are workspace ``ws``'s "col"
    and 0 buffers."""
    k, s, p, wz = plan.front
    m = (x.shape[-1] + 2 * p - k) // s + 1
    col = ws("col", (*x.shape[:-1], m, k + 1))
    ag._tap_cols(col, x, s, p, k)
    col[..., k] = 1.0
    col = col.reshape(-1, m, k + 1)
    out = ws(0, (len(col), m // 2, wz.shape[1]))
    for blk in ag._blocks(len(col), 2 * out[0].nbytes):
        ag._conv_pool_relu(col[blk], 1, wz, out[blk])
    return out


def _bias_relu(x, b):
    x += b
    return np.maximum(x, 0.0, out=x)


def _pool(x, k, s, out=None):
    """Max pool along L of channels-last (N, L, C) x, into ``out`` or a new
    array: the maximum of k strided views."""
    m = (x.shape[1] - k) // s + 1
    taps = [x[:, i:i + s * (m - 1) + 1:s] for i in range(k)]
    out = np.maximum(taps[0], taps[-1], out=out)
    for tap in taps[1:-1]:
        np.maximum(out, tap, out=out)
    return out


def _trunk(plan: _Plan, bands: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Conv/pool stack and dense1 on (B, F, T) bands -> (B, hidden), with
    every activation in workspace ``ws``.

    conv1 and pool1 run as :func:`_front`, which reads the bands in place
    and writes buffer 0 of ``ws``. Each later stage writes into buffer 1 if
    its input is in buffer 0, and into buffer 0 otherwise, so two arenas,
    each as large as its largest activation, hold them all. Every later conv
    runs one GEMM per tap group on its input in place
    (:func:`~.autograd._gemm_conv`, the kernel training runs too); a tap
    group that reads a neighbouring block makes its product in blocks of
    samples of about 512 KiB. Its bias and ReLU wait until after the pools
    that follow it: max pooling commutes with adding a per-channel constant
    and with ReLU, both monotone even when rounded, so this is exact and
    works on fewer values.
    """
    frames, _, t = bands.shape
    x, side = _front(plan, bands.transpose(0, 2, 1), ws), 0
    bias = None
    for stage, (k, s, p, w, b) in enumerate(plan.trunk):
        if stage == plan.column_stages:
            x = x.reshape(frames, t, x.shape[2])  # frequency is 1: L is time
        n, length, c = x.shape
        side = 1 - side
        if w is None:
            x = _pool(x, k, s, ws(side, (n, (length - k) // s + 1, c)))
            continue
        if bias is not None:
            x = _bias_relu(x, bias)
        shape = (n, length // s, w.shape[2])
        samples = ag._blocks(n, math.prod(shape[1:]) * w.itemsize)
        x, bias = ag._gemm_conv(x, k, s, p, w, ws(side, shape), samples), b
    x = _bias_relu(x, bias)
    w, b = plan.dense1
    h = x.transpose(0, 2, 1).reshape(frames, -1) @ w.T  # flatten as (C, F, T)
    h += b
    return np.tanh(h, out=h)


def _chunked(f, x, width: int) -> np.ndarray:
    """``f`` on each block of TRUNK_CHUNK rows of x, gathered into one array
    of ``width`` columns; each call gives TRUNK_CHUNK rows, the last one
    too: BLAS may round a GEMM differently at another row count, so every
    GEMM of the plan that acts on frames runs on this many rows."""
    out = np.empty((-(-len(x) // TRUNK_CHUNK) * TRUNK_CHUNK, width))
    for i in range(0, len(x), TRUNK_CHUNK):
        out[i:i + TRUNK_CHUNK] = f(x[i:i + TRUNK_CHUNK])
    return out


def _features(model: Model, bands: list) -> np.ndarray:
    """The trunk phase of :func:`forward_sequence`: dense1's output for the
    (F, T) band arrays in ``bands``, TRUNK_CHUNK frames at a time, each
    chunk stacked into one buffer whose tail is zero-filled past the last
    frame. Its plan and workspace are released when it returns."""
    plan, ws = _compile(model), _Workspace()
    chunk = ws("chunk", (TRUNK_CHUNK, *np.shape(bands[0])))

    def trunk(part):
        np.stack(part, out=chunk[:len(part)])
        chunk[len(part):] = 0.0
        return _trunk(plan, chunk, ws)

    return _chunked(trunk, bands, model.arch.hidden)


def _recur(model: Model, x: np.ndarray, n: int) -> np.ndarray:
    """Run the model's recurrent layer, compiled to float64 here, over the
    first n rows of x, in order, from a zero state; the output's later rows,
    x's padding, are zero."""
    if model.cell is None:
        return x
    w_x, w_h, *w_c, b = map(_f64, model.cell)  # w_c: the GRU's candidate weights
    hid = w_h.shape[1]
    px = _chunked(lambda rows: rows @ w_x.T, x, len(w_x))  # input projection
    px += b
    out = np.zeros_like(x)
    h = np.zeros((1, hid))
    if model.variant == "cnn_lstm":
        c = np.zeros((1, hid))
        for t in range(n):
            pre = px[t:t + 1] + h @ w_h.T
            gate = ag._sigmoid(pre)  # i, f and o; the g block takes tanh instead
            c = gate[:, hid:2 * hid] * c + gate[:, :hid] * np.tanh(pre[:, 2 * hid:3 * hid])
            h = out[t:t + 1] = gate[:, 3 * hid:] * np.tanh(c)
        return out
    for t in range(n):
        zr = ag._sigmoid(px[t:t + 1, :2 * hid] + h @ w_h.T)
        cand = np.tanh(px[t:t + 1, 2 * hid:] + (zr[:, hid:] * h) @ w_c[0].T)
        h = out[t:t + 1] = h + zr[:, :hid] * (cand - h)
    return out


def forward(model: Model, spec, state: tuple | None = None):
    """Run one normalized spectrogram through the network.

    ``state`` is a tuple from :meth:`Model.initial_state` (default: zeros).
    Returns (FaceFrame, advanced state). Batch norm uses its running
    statistics. One frame runs the model's own layers in float64 without
    recording gradients, so nothing is compiled per call. Non-finite bands,
    or a non-finite value in the state array at index i, raise DataError
    naming that input.
    """
    bands = np.asarray(_spec_bands(spec), dtype=np.float64)
    if not np.isfinite(bands).all():
        raise DataError("input: bands are not finite")
    for i, s in enumerate(state or ()):
        if not np.isfinite(np.asarray(s, dtype=np.float64)).all():
            raise DataError(f"input: state array {i} is not finite")
    frame_index = spec.frame_index if isinstance(spec, Spectrogram) else 0
    return forward_split(model, bands, state, frame_index)


def forward_split(model: Model, bands, state: tuple | None, frame_index: int,
                  early: Tensor | None = None):
    """:func:`forward` on a normalized (F, T) band array, whose time columns
    may come in two groups.

    With ``early``, the output of the first :attr:`Architecture.column_stages`
    stages for the frame's leading columns, ``bands`` holds only its
    remaining columns (see :meth:`Model.layers`). Returns (FaceFrame with
    index ``frame_index``, advanced state).
    """
    if state is None:
        state = model.initial_state()
    if len(state) != _STATE_SIZE[model.variant]:
        raise ConfigError(f"{model.variant} state holds {_STATE_SIZE[model.variant]} "
                          f"arrays, got {len(state)}")
    x = Tensor(np.asarray(bands, dtype=np.float64)[None, None])
    with ag.no_grad():
        out, state = model.recur(model.trunk(x, training=False, early=early),
                                 tuple(Tensor(np.asarray(s, np.float64)) for s in state))
        y_r, y_e = model.head_out(out)
    return (FaceFrame.from_vector(np.concatenate([y_r.data[0], y_e.data[0]]), frame_index),
            tuple(s.data for s in state))


def forward_sequence(model: Model, specs):
    """Run a spectrogram sequence through the network from a zero state.

    Checks every frame, then runs it phase by phase, each phase on float64
    weights that it compiles from the model's current ones for itself
    alone, and releases when it is done. First the trunk (:func:`_features`)
    takes TRUNK_CHUNK frames at a time, each stage's output in one of two
    buffers allocated once per call; then the recurrent layer
    (:func:`_recur`); then dense2 and the heads. The recurrent layer's input
    projection, and dense2 with the heads, also run in chunks of TRUNK_CHUNK
    frames, and the recurrence advances one frame at a time over the clip's
    frames only. So every GEMM sees a fixed row count, and a frame's result
    depends neither on where it sits nor on the sequence's length, one frame
    included. Gives the frames of folding :func:`forward` over the sequence,
    to within about 1e-15.
    """
    specs = list(specs)
    if not specs:
        raise ShapeError("forward_sequence needs a non-empty spectrogram list")
    shape = (model.arch.input_bands, model.arch.input_columns)
    bands = [_spec_bands(s) for s in specs]
    for i, b in enumerate(bands):
        if np.shape(b) != shape:
            raise ShapeError(f"input: frame {i} has shape {np.shape(b)}, expected {shape}")
        if not np.isfinite(b).all():
            raise DataError(f"input: frame {i} has non-finite bands")
    out = _recur(model, _features(model, bands), len(bands))
    w, b, r = _f64(model.dense2_w), _f64(model.dense2_b), NUM_ROTATION
    head_w = np.concatenate([_f64(model.head_r_w), _f64(model.head_e_w)])
    head_b = np.concatenate([_f64(model.head_r_b), _f64(model.head_e_b)])
    y = _chunked(lambda x: np.tanh(x @ w.T + b) @ head_w.T + head_b, out, len(head_w))
    y[:, :r] = np.tanh(y[:, :r])
    y[:, r:] = ag._sigmoid(y[:, r:])
    return [FaceFrame.from_vector(p, s.frame_index if isinstance(s, Spectrogram) else i)
            for i, (p, s) in enumerate(zip(y, specs))]


def forward_trace(model: Model) -> list:
    """Layer-by-layer output dims of a one-frame pass of zeros (batch dim stripped)."""
    x = Tensor(np.zeros((1, 1, model.arch.input_bands, model.arch.input_columns)))
    rows = []
    with ag.no_grad():
        for name, feat in model.layers(x, training=False):
            rows.append((name, feat.shape[1:]))
        out, _ = model.recur(feat, tuple(map(Tensor, model.initial_state())))
        if model.cell is not None:
            rows.append(("rnn", out.shape[1:]))
        hidden = model._dense2(out)
        rows.append(("dense2", hidden.shape[1:]))
        y_r, y_e = model._heads(hidden)
    rows.append(("output", (y_r.shape[1] + y_e.shape[1],)))
    return rows


# ---------------------------------------------------------------------------
# checkpoint persistence

_VARIANT_IDS = {name: i for i, name in enumerate(VARIANTS)}


def save_checkpoint(model: Model, path) -> None:
    """Serialize variant tag, normalization stats and every named array.

    An array holding a value that is not finite in float32 raises
    NumericError naming it, before anything is written.
    """
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<IB", CHECKPOINT_VERSION, _VARIANT_IDS[model.variant])
    out += model.norm_stats.to_bytes()
    entries = model.named_arrays()
    out += struct.pack("<I", len(entries))
    for name, arr in entries:
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded)) + encoded
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        with np.errstate(over="ignore"):
            values = arr.astype("<f4")
        if not np.isfinite(values).all():
            raise NumericError(f"checkpoint not written: field {name!r} has a non-finite value")
        out += values.tobytes()
    Path(path).write_bytes(bytes(out))


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint written by :func:`save_checkpoint`.

    A version 1 file also loads: each bias b of a conv that batch norm
    follows is folded into its running mean as running_mean - b in float32,
    since batch norm subtracted that mean right after adding b.
    """
    r = Reader(path, CHECKPOINT_MAGIC)
    version, variant_id = r.unpack("<IB", "checkpoint header")
    if version not in (1, CHECKPOINT_VERSION):
        r.fail(f"unsupported checkpoint version {version}", 4)
    if variant_id >= len(VARIANTS):
        r.fail(f"unknown variant id {variant_id}", 8)
    norm_stats = NormStats.read(r)
    table = r.pos
    (count,) = r.unpack("<I", "parameter count")

    loaded = {}  # name -> (byte where its entry starts, dims, values)
    for _ in range(count):
        at = r.pos
        (name_len,) = r.unpack("<H", "field name length")
        encoded = r.take(name_len, "field name")
        try:
            name = str(encoded, "utf-8")
        except UnicodeDecodeError as err:
            r.fail("field name is not valid UTF-8", at + 2 + err.start)
        if name in loaded:
            r.fail(f"field {name!r} appears twice", at)
        (rank,) = r.unpack("<B", f"rank of field {name!r}")
        dims = r.unpack(f"<{rank}I", f"dims of field {name!r}")
        loaded[name] = (at, dims, r.array("<f4", math.prod(dims), f"field {name!r}"))
    r.end()

    # only the shapes matter: every value is overwritten from the file below
    model = _assemble(VARIANTS[variant_id], lambda shape, *fans: np.empty(shape, Model.dtype))
    model.norm_stats = norm_stats
    expected = dict(model.named_arrays())
    folded = {f"{name}.b": bn for name, bn in model.conv_bn.items()} if version == 1 else {}
    expected.update((name, np.empty(bn.channels, Model.dtype)) for name, bn in folded.items())
    for name, (at, dims, values) in loaded.items():
        if name not in expected:
            r.fail(f"unexpected field {name!r}", at)
        if expected[name].shape != dims:
            r.fail(f"field {name!r} has dims {dims}, expected {expected[name].shape}", at)
        np.copyto(expected[name], values.reshape(dims))
    missing = sorted(set(expected) - set(loaded))
    if missing:
        r.fail(f"parameter table lacks {missing}", table)
    for name, bn in folded.items():
        with np.errstate(over="ignore"):
            bn.running_mean -= expected[name]
        if not np.isfinite(bn.running_mean).all():
            r.fail(f"field {name!r} folded into the running mean is not finite", loaded[name][0])
    return model
