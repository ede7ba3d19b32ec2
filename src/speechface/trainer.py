"""Training: squared-error objective, Adam, sequence minibatching, metric reports.

The objective is the plain sum of squared output errors over every frame and
all 49 components. Recurrent variants train with truncated backpropagation
through time: contiguous subsequences of at most ``bptt_len`` frames, hidden
state zeroed at each subsequence start. The static variant trains on shuffled
one-frame segments. Every variant's minibatch is a list of (start, stop) row
ranges. The trunk runs once over a minibatch's rows; recurrent step t then runs
on the segments longer than t, so no step is padded and no loss is masked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import EMOTION_NAMES, LABEL_ABSENT, Dataset
from .errors import ConfigError, DataError, NumericError, check_real, check_seed, is_int
from .face import NUM_ROTATION, landmark_rmse, weights_mse
from .model import VARIANTS, Model, build_model


@dataclass
class TrainConfig:
    variant: str = "cnn_lstm"
    learning_rate: float = 0.0001
    minibatch_frames: int = 300
    epoch_frames: int = 150000
    epochs: int = 300
    bptt_len: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        for name in ("epochs", "bptt_len", "minibatch_frames", "epoch_frames"):
            value = getattr(self, name)
            if not is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        check_seed(self.seed)
        for name in ("epochs", "bptt_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("minibatch_frames", "epoch_frames"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be at least 2, got {getattr(self, name)}: "
                                  "batch norm needs two frames per batch")
        check_real("learning_rate", self.learning_rate)
        if not 0 < self.learning_rate < np.inf:  # also false for NaN
            raise ConfigError(f"learning_rate must be positive and finite, "
                              f"got {self.learning_rate}")


# ---------------------------------------------------------------------------
# objective


def loss_op(pred: Tensor, target) -> Tensor:
    """Sum of squared differences as a differentiable graph node."""
    diff = ag.sub(pred, Tensor(np.asarray(target, dtype=pred.dtype)))
    return ag.sum_all(ag.mul(diff, diff))


def _head_loss(y_r, y_e, target) -> Tensor:
    """Squared error of both heads against 49-wide target rows."""
    return ag.add(loss_op(y_r, target[:, :NUM_ROTATION]),
                  loss_op(y_e, target[:, NUM_ROTATION:]))


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Adam's per-parameter moment estimates and its step count."""

    beta1 = 0.9  # decay of the first-moment average per step
    beta2 = 0.999  # decay of the second-moment average per step
    epsilon = 1e-8  # added to the second-moment root in the denominator

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        state = cls()
        for p in params:
            state.m[p.name] = np.zeros_like(p.data)
            state.v[p.name] = np.zeros_like(p.data)
        return state


def adam_step(params, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place, with the constants of
    :class:`AdamState`; missing gradients count as 0."""
    beta1, beta2, epsilon = state.beta1, state.beta2, state.epsilon
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m[p.name]
        v = state.v[p.name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + epsilon)


# ---------------------------------------------------------------------------
# minibatching


def make_batches(dataset: Dataset, config: TrainConfig, epoch_seed) -> list:
    """One epoch's minibatches, deterministic in ``epoch_seed``.

    Every batch is a list of (start, stop) row ranges that never cross a
    sequence boundary: segments of at most ``bptt_len`` frames for the
    recurrent variants, single frames for cnn_static. Segments are drawn in
    shuffled order, cycling with fresh shuffles when the dataset is smaller
    than an epoch, and bundled to about ``minibatch_frames`` frames until at
    least ``epoch_frames`` are drawn. Training-mode batch norm needs two
    frames per batch, so a batch closes only once it holds two, and a
    one-frame tail joins the batch before it.
    """
    if len(dataset) == 0:
        raise DataError("cannot batch an empty dataset")
    rng = np.random.default_rng(epoch_seed)
    seg_len = 1 if config.variant == "cnn_static" else config.bptt_len
    segments = [(s, min(s + seg_len, b))
                for a, b in dataset.sequence_spans() for s in range(a, b, seg_len)]
    batches, current, cur_frames, total = [], [], 0, 0
    order = iter(())
    while total < config.epoch_frames:
        pick = next(order, None)
        if pick is None:
            order = iter(rng.permutation(len(segments)).tolist())
            continue
        seg = segments[pick]
        n = seg[1] - seg[0]
        if cur_frames >= 2 and cur_frames + n > config.minibatch_frames:
            batches.append(current)
            current, cur_frames = [], 0
        current.append(seg)
        cur_frames += n
        total += n
    if cur_frames == 1 and batches:
        batches[-1] += current
    else:
        batches.append(current)
    return batches


# ---------------------------------------------------------------------------
# forward + loss over one minibatch


def _trunk_input(model: Model, dataset: Dataset, batch) -> np.ndarray:
    """The spectrograms of a minibatch, segment after segment, as (N,1,F,T)."""
    rows = np.concatenate([np.arange(a, b) for a, b in batch])
    return dataset.spectrograms[rows][:, None, :, :].astype(model.dtype)


def _batch_loss(model: Model, dataset: Dataset, batch) -> Tensor:
    """Summed squared error of one minibatch of (start, stop) segments.

    The trunk runs once over every row of the batch. Step t of the recurrence
    and the heads then run on the segments longer than t only: when a segment
    ends, its rows leave the recurrent state.
    """
    starts, stops = np.asarray(batch, dtype=np.int64).T
    lengths = stops - starts
    offsets = np.cumsum(lengths) - lengths
    feats = model.trunk(Tensor(_trunk_input(model, dataset, batch)), training=True)

    live = np.arange(len(batch))
    state = tuple(map(Tensor, model.initial_state(len(batch), model.dtype)))
    total = None
    for t in range(lengths.max()):
        keep = np.flatnonzero(lengths[live] > t)
        if len(keep) < len(live):
            live = live[keep]
            state = tuple(ag.take_rows(s, keep) for s in state)
        out, state = model.recur(ag.take_rows(feats, offsets[live] + t), state)
        y_r, y_e = model.head_out(out)
        term = _head_loss(y_r, y_e, dataset.targets[starts[live] + t])
        total = term if total is None else ag.add(total, term)
    return total


# Frames per pass of the non-finite diagnostic's inference walk, which holds
# every layer's output for the frames of its pass, about 1 MiB per frame.
_DIAGNOSTIC_FRAMES = 32


def _inference_walk(model: Model, x: np.ndarray):
    """(layer name, output) of each layer of the inference walk over x, then
    of one recurrent step from the zero state, as "rnn"."""
    for name, feats in model.layers(Tensor(x), training=False):
        yield name, feats
    state = tuple(map(Tensor, model.initial_state(len(x), model.dtype)))
    yield "rnn", model.recur(feats, state)[0]


def _first_nonfinite_layer(model: Model, dataset: Dataset, batch) -> str:
    """Name the earliest source of non-finite values for a diagnostic: a
    parameter, else the earliest layer of the inference walk that is
    non-finite for any frame of the batch. Each frame passes that walk on
    its own, so it runs over _DIAGNOSTIC_FRAMES frames at a time."""
    for p in model.parameters():
        if not np.all(np.isfinite(p.data)):
            return f"parameter {p.name}"
    x = _trunk_input(model, dataset, batch)
    where, depth = "loss", None  # the earliest non-finite layer so far, and its place
    with ag.no_grad():
        for i in range(0, len(x), _DIAGNOSTIC_FRAMES):
            for d, (name, out) in enumerate(_inference_walk(model, x[i:i + _DIAGNOSTIC_FRAMES])):
                if depth is not None and d >= depth:
                    break
                if not np.all(np.isfinite(out.data)):
                    where, depth = name, d
                    break
    return where


# ---------------------------------------------------------------------------
# training loop


def train(config: TrainConfig, dataset: Dataset, model: Model | None = None, on_step=None):
    """Run the training loop; returns (model, per-epoch mean minibatch loss).

    The model takes ``dataset.norm_stats``, so its checkpoint standardizes
    new audio as the corpus was. ``on_step(step, loss_value)`` is called
    after every optimizer step; a truthy return stops training early (the
    trace still covers the partial epoch). Aborts with a diagnostic if the
    loss goes non-finite.
    """
    if len(dataset) == 0:
        raise DataError("cannot train on an empty dataset")
    if model is None:
        model = build_model(config.variant, config.seed)
    elif model.variant != config.variant:
        raise ConfigError(f"model variant {model.variant!r} does not match "
                          f"config variant {config.variant!r}")
    model.norm_stats = dataset.norm_stats
    params = model.parameters()
    opt = AdamState.for_params(params)
    trace = []
    step = 0
    for epoch in range(config.epochs):
        losses = []
        for batch in make_batches(dataset, config, (config.seed, epoch)):
            model.zero_grad()
            total = _batch_loss(model, dataset, batch)
            value = float(total.data)
            if not np.isfinite(value):
                where = _first_nonfinite_layer(model, dataset, batch)
                raise NumericError(
                    f"non-finite loss at step {step}; first non-finite values in {where}")
            total.backward()
            adam_step(params, opt, config.learning_rate)
            losses.append(value)
            step += 1
            if on_step is not None and on_step(step, value):
                trace.append(float(np.mean(losses)))
                return model, trace
        trace.append(float(np.mean(losses)))
    return model, trace


# ---------------------------------------------------------------------------
# evaluation


def metric_report(pred, truth, rig=None, emotions=None, actors=None,
                  metrics=("landmark_rmse", "weights_mse")) -> dict:
    """Grouped metric table over aligned frame lists.

    Groups with no labeled frames are omitted; emotion/actor arrays use 255
    for "absent" and must hold one label per frame. Landmark RMSE needs a rig.
    """
    if len(pred) != len(truth):
        raise DataError(f"length mismatch: {len(pred)} predicted frames vs "
                        f"{len(truth)} ground-truth frames")
    if "landmark_rmse" in metrics and rig is None:
        raise ConfigError("landmark_rmse requested but no rig given")
    table = {"landmark_rmse": lambda p, t: landmark_rmse(p, t, rig), "weights_mse": weights_mse}
    groups = {}  # "by_emotion"/"by_actor" -> {group name: frame indices}
    for key, labels, name_of in (("by_emotion", emotions, lambda c: EMOTION_NAMES.get(c, str(c))),
                                 ("by_actor", actors, str)):
        labels = np.full(len(pred), LABEL_ABSENT) if labels is None else np.asarray(labels)
        if len(labels) != len(pred):
            raise DataError(f"{key[3:]} labels: {len(labels)} given for {len(pred)} frames")
        groups[key] = {name_of(int(c)): np.flatnonzero(labels == c)
                       for c in np.unique(labels) if c != LABEL_ABSENT}
    report = {"frames": len(pred), "metrics": {}}
    for metric in metrics:
        if metric not in table:
            raise ConfigError(f"unknown metric {metric!r}")
        fn = table[metric]
        entry = report["metrics"][metric] = {"mean": fn(pred, truth)}
        for key, cells in groups.items():
            entry[key] = {name: fn([pred[i] for i in idx], [truth[i] for i in idx])
                          for name, idx in cells.items()}
    return report
