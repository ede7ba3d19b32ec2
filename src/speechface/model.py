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
from .errors import ConfigError, DataError, ParseError, ShapeError
from .face import NUM_EXPRESSIONS, NUM_ROTATION, FaceFrame

VARIANTS = ("cnn_static", "cnn_lstm", "cnn_gru")

CHECKPOINT_MAGIC = b"SFCK"
CHECKPOINT_VERSION = 1


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
    rot_dim: int = NUM_ROTATION
    expr_dim: int = NUM_EXPRESSIONS

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
        for spec in self.arch.stack:
            if not isinstance(spec, ConvSpec):
                continue
            params += [self.conv_w[spec.name], self.conv_b[spec.name]]
            bn = self.conv_bn.get(spec.name)
            if bn is not None:
                params += [bn.gamma, bn.beta]
        params += [self.dense1_w, self.dense1_b]
        if self.cell is not None:
            params += list(self.cell)
        params += [self.dense2_w, self.dense2_b,
                   self.head_r_w, self.head_r_b, self.head_e_w, self.head_e_b]
        return params

    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def named_arrays(self):
        """Parameters plus batch-norm running statistics, for persistence."""
        entries = [(p.name, p.data) for p in self.parameters()]
        for spec in self.arch.stack:
            bn = self.conv_bn.get(spec.name) if isinstance(spec, ConvSpec) else None
            if bn is not None:
                entries.append((f"{spec.name}.bn.running_mean", bn.running_mean))
                entries.append((f"{spec.name}.bn.running_var", bn.running_var))
        return entries

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- forward pieces ---------------------------------------------------------

    def layers(self, x: Tensor, training: bool):
        """Walk the trunk, yielding (layer name, output) for the input, each
        conv/pool stage and the first dense layer: (B,1,F,T) -> (B,hidden)."""
        expect = (1, self.arch.input_bands, self.arch.input_columns)
        if x.ndim != 4 or x.shape[1:] != expect:
            raise ShapeError(f"input: expected (B,) + {expect}, got {x.shape}")
        yield "input", x
        for spec in self.arch.stack:
            try:
                if isinstance(spec, ConvSpec):
                    x = ag.conv2d(x, self.conv_w[spec.name], self.conv_b[spec.name],
                                  spec.stride, spec.pad)
                    bn = self.conv_bn.get(spec.name)
                    if bn is not None:
                        x = ag.batch_norm(x, bn, training)
                    x = ag.relu(x)
                else:
                    x = ag.max_pool2d(x, spec.window, spec.stride)
            except ShapeError as err:
                raise ShapeError(f"layer {spec.name}: {err}") from None
            yield spec.name, x
        x = ag.reshape(x, (x.shape[0], self.arch.flat_dim))
        yield "dense1", ag.tanh(ag.dense(x, self.dense1_w, self.dense1_b))

    def trunk(self, x: Tensor, training: bool) -> Tensor:
        """Conv/pool stack plus the first dense layer: (B,1,F,T) -> (B,hidden)."""
        for _, x in self.layers(x, training):
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


def _glorot(rng, shape, fan_in, fan_out, dtype):
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape).astype(dtype)


def build_model(variant: str, seed: int = 0) -> Model:
    """Deterministically initialize a model from a seed.

    Conv/dense/head weights use uniform Glorot fan-in/fan-out limits; recurrent
    matrices are Glorot per gate block; biases start at zero except the LSTM
    forget gate, which starts at 1.
    """
    model = Model(variant)
    rng = np.random.default_rng(seed)
    arch, dtype = model.arch, model.dtype
    hid = arch.hidden

    in_ch = 1
    for spec in arch.stack:
        if not isinstance(spec, ConvSpec):
            continue
        kf, kt = spec.kernel
        shape = (spec.out_channels, in_ch, kf, kt)
        model.conv_w[spec.name] = Parameter(
            f"{spec.name}.w", _glorot(rng, shape, in_ch * kf * kt, spec.out_channels * kf * kt, dtype))
        model.conv_b[spec.name] = Parameter(
            f"{spec.name}.b", np.zeros(spec.out_channels, dtype=dtype))
        if spec.batch_norm:
            model.conv_bn[spec.name] = BatchNormState(
                f"{spec.name}.bn", spec.out_channels, dtype=dtype)
        in_ch = spec.out_channels

    flat = arch.flat_dim
    model.dense1_w = Parameter("dense1.w", _glorot(rng, (hid, flat), flat, hid, dtype))
    model.dense1_b = Parameter("dense1.b", np.zeros(hid, dtype=dtype))

    if variant == "cnn_lstm":
        w_x = np.vstack([_glorot(rng, (hid, hid), hid, hid, dtype) for _ in range(4)])
        w_h = np.vstack([_glorot(rng, (hid, hid), hid, hid, dtype) for _ in range(4)])
        b = np.zeros(4 * hid, dtype=dtype)
        b[hid:2 * hid] = 1.0  # forget gate starts open
        model.cell = LSTMParams(Parameter("rnn.w_x", w_x), Parameter("rnn.w_h", w_h),
                                Parameter("rnn.b", b))
    elif variant == "cnn_gru":
        w_x = np.vstack([_glorot(rng, (hid, hid), hid, hid, dtype) for _ in range(3)])
        w_h = np.vstack([_glorot(rng, (hid, hid), hid, hid, dtype) for _ in range(2)])
        w_c = _glorot(rng, (hid, hid), hid, hid, dtype)
        model.cell = GRUParams(Parameter("rnn.w_x", w_x), Parameter("rnn.w_h", w_h),
                               Parameter("rnn.w_c", w_c),
                               Parameter("rnn.b", np.zeros(3 * hid, dtype=dtype)))

    model.dense2_w = Parameter("dense2.w", _glorot(rng, (hid, hid), hid, hid, dtype))
    model.dense2_b = Parameter("dense2.b", np.zeros(hid, dtype=dtype))
    model.head_r_w = Parameter("head_r.w", _glorot(rng, (arch.rot_dim, hid), hid, arch.rot_dim, dtype))
    model.head_r_b = Parameter("head_r.b", np.zeros(arch.rot_dim, dtype=dtype))
    model.head_e_w = Parameter("head_e.w", _glorot(rng, (arch.expr_dim, hid), hid, arch.expr_dim, dtype))
    model.head_e_b = Parameter("head_e.b", np.zeros(arch.expr_dim, dtype=dtype))
    return model


# ---------------------------------------------------------------------------
# inference
#
# Inference arithmetic runs in 64-bit (parameters upcast on the fly), so
# batched and one-frame-at-a-time passes agree far below the float32 noise
# floor while the trained parameters stay 32-bit on disk and in training.


def _spec_bands(spec) -> np.ndarray:
    return spec.bands if isinstance(spec, Spectrogram) else np.asarray(spec)


def _infer(model: Model, bands: np.ndarray, state: tuple | None):
    """The one inference pass: bands (B,128,32) -> (params (B,49), state).

    The convolutional trunk runs batched over all B frames; the recurrence
    and the heads then advance one frame at a time, so a batch gives the same
    arithmetic as B single-frame calls.
    """
    x = Tensor(np.asarray(bands, dtype=np.float64)[:, None])
    if state is None:
        state = model.initial_state()
    if len(state) != _STATE_SIZE[model.variant]:
        raise ConfigError(f"{model.variant} state holds {_STATE_SIZE[model.variant]} "
                          f"arrays, got {len(state)}")
    with ag.no_grad():
        feats = model.trunk(x, training=False)
        state = tuple(Tensor(s, dtype=np.float64) for s in state)
        rows = []
        for i in range(len(feats.data)):
            out, state = model.recur(Tensor(feats.data[i:i + 1]), state)
            y_r, y_e = model.head_out(out)
            rows.append(np.concatenate([y_r.data, y_e.data], axis=1))
    return np.concatenate(rows), tuple(s.data for s in state)


def forward(model: Model, spec, state: tuple | None = None):
    """Run one normalized spectrogram through the network.

    ``state`` is a tuple from :meth:`Model.initial_state` (default: zeros).
    Returns (FaceFrame, advanced state). Batch norm uses its running
    statistics.
    """
    params, new_state = _infer(model, _spec_bands(spec)[None], state)
    frame_index = spec.frame_index if isinstance(spec, Spectrogram) else 0
    return FaceFrame.from_vector(params[0], frame_index), new_state


def forward_sequence(model: Model, specs, initial_state: tuple | None = None):
    """Run a spectrogram sequence through the network, carrying state.

    Gives the same frames as folding :func:`forward` over the sequence.
    """
    specs = list(specs)
    if not specs:
        raise ShapeError("forward_sequence needs a non-empty spectrogram list")
    params, _ = _infer(model, np.stack([_spec_bands(s) for s in specs]), initial_state)
    return [FaceFrame.from_vector(p, s.frame_index if isinstance(s, Spectrogram) else i)
            for i, (p, s) in enumerate(zip(params, specs))]


def forward_trace(model: Model, spec=None) -> list:
    """Layer-by-layer output dims of a single-frame pass (batch dim stripped)."""
    if spec is None:
        spec = np.zeros((model.arch.input_bands, model.arch.input_columns))
    x = Tensor(np.asarray(_spec_bands(spec), dtype=np.float64)[None, None])
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
    """Serialize variant tag, normalization stats and every named array."""
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<IB", CHECKPOINT_VERSION, _VARIANT_IDS[model.variant])
    out += model.norm_stats.mean.astype("<f4").tobytes()
    out += model.norm_stats.std.astype("<f4").tobytes()
    entries = model.named_arrays()
    out += struct.pack("<I", len(entries))
    for name, arr in entries:
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded)) + encoded
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.astype("<f4").tobytes()
    Path(path).write_bytes(bytes(out))


def _require_finite(path, what: str, values: np.ndarray, offset: int) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        bad = offset + 4 * int(np.argmin(finite))
        raise ParseError(f"{path}: {what} has a non-finite value at byte {bad}")


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint written by :func:`save_checkpoint`."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: checkpoint magic mismatch at byte 0")
    if len(raw) < 9:
        raise ParseError(f"{path}: checkpoint header truncated")
    version, variant_id = struct.unpack_from("<IB", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    if variant_id >= len(VARIANTS):
        raise ParseError(f"{path}: unknown variant id {variant_id}")
    pos = 9
    stats_bytes = NUM_BANDS * 4
    if pos + 2 * stats_bytes + 4 > len(raw):
        raise ParseError(f"{path}: normalization stats truncated")
    mean = np.frombuffer(raw, dtype="<f4", count=NUM_BANDS, offset=pos)
    std = np.frombuffer(raw, dtype="<f4", count=NUM_BANDS, offset=pos + stats_bytes)
    try:
        norm_stats = NormStats(mean, std)
    except DataError as err:
        raise ParseError(f"{path}: normalization stats at byte {pos}: {err}") from None
    pos += 2 * stats_bytes
    (count,) = struct.unpack_from("<I", raw, pos)
    pos += 4

    loaded = {}
    for _ in range(count):
        if pos + 2 > len(raw):
            raise ParseError(f"{path}: parameter table truncated at byte {pos}")
        (name_len,) = struct.unpack_from("<H", raw, pos)
        pos += 2
        try:
            name = raw[pos:pos + name_len].decode("utf-8")
        except UnicodeDecodeError as err:
            raise ParseError(f"{path}: field name at byte {pos + err.start} "
                             "is not valid UTF-8") from None
        pos += name_len
        if pos + 1 > len(raw):
            raise ParseError(f"{path}: field {name!r} truncated")
        rank = raw[pos]
        pos += 1
        if pos + 4 * rank > len(raw):
            raise ParseError(f"{path}: dims of field {name!r} truncated")
        dims = struct.unpack_from(f"<{rank}I", raw, pos)
        pos += 4 * rank
        numel = math.prod(dims)
        if pos + 4 * numel > len(raw):
            raise ParseError(f"{path}: values of field {name!r} truncated")
        values = np.frombuffer(raw, dtype="<f4", count=numel, offset=pos)
        _require_finite(path, f"field {name!r}", values, pos)
        loaded[name] = (dims, values)
        pos += 4 * numel

    model = build_model(VARIANTS[variant_id], seed=0)
    model.norm_stats = norm_stats
    expected = dict(model.named_arrays())
    if set(loaded) != set(expected):
        missing = sorted(set(expected) - set(loaded))
        extra = sorted(set(loaded) - set(expected))
        raise ParseError(f"{path}: parameter set mismatch (missing {missing}, unexpected {extra})")
    for name, (dims, _) in loaded.items():
        if expected[name].shape != dims:
            raise ParseError(f"{path}: field {name!r} has dims {dims}, "
                             f"expected {expected[name].shape}")
    arrays = {name: values.reshape(dims).astype(model.dtype)
              for name, (dims, values) in loaded.items()}
    for p in model.parameters():
        p.data = arrays[p.name]
    for spec in model.arch.stack:
        bn = model.conv_bn.get(spec.name) if isinstance(spec, ConvSpec) else None
        if bn is not None:
            bn.running_mean = arrays[f"{spec.name}.bn.running_mean"]
            bn.running_var = arrays[f"{spec.name}.bn.running_var"]
    return model
