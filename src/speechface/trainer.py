"""Training: squared-error objective, Adam, sequence minibatching, evaluation.

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
from .errors import ConfigError, DataError, NumericError, ShapeError
from .face import NUM_EXPRESSIONS, NUM_ROTATION, FaceFrame, landmark_rmse, weights_mse
from .model import VARIANTS, Model, _compile, _infer, build_model


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
        for name in ("epochs", "bptt_len", "minibatch_frames", "epoch_frames", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("epochs", "bptt_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("minibatch_frames", "epoch_frames"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be at least 2, got {getattr(self, name)}: "
                                  "batch norm needs two frames per batch")
        if not 0 < self.learning_rate < np.inf:  # also false for NaN
            raise ConfigError(f"learning_rate must be positive and finite, "
                              f"got {self.learning_rate}")


# ---------------------------------------------------------------------------
# objective


def loss_op(pred: Tensor, target) -> Tensor:
    """Sum of squared differences as a differentiable graph node."""
    diff = ag.sub(pred, Tensor(np.asarray(target, dtype=pred.dtype)))
    return ag.sum_all(ag.mul(diff, diff))


def loss(pred, target) -> float:
    """Sum of squared differences over frames and all 49 components."""
    empty = np.zeros((0, NUM_ROTATION + NUM_EXPRESSIONS))
    pred = np.stack([p.vector if isinstance(p, FaceFrame) else np.asarray(p, float)
                     for p in pred]) if len(pred) else empty
    target = np.stack([t.vector if isinstance(t, FaceFrame) else np.asarray(t, float)
                       for t in target]) if len(target) else empty
    if pred.shape != target.shape:
        raise ShapeError(f"length mismatch: {pred.shape} predictions vs "
                         f"{target.shape} targets")
    return float(loss_op(Tensor(pred), target).data)


def _head_loss(y_r, y_e, target) -> Tensor:
    """Squared error of both heads against 49-wide target rows."""
    return ag.add(loss_op(y_r, target[:, :NUM_ROTATION]),
                  loss_op(y_e, target[:, NUM_ROTATION:]))


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
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


def adam_step(params, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8) -> None:
    """One bias-corrected Adam update, in place; missing gradients count as 0."""
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


def _first_nonfinite_layer(model: Model, dataset: Dataset, batch) -> str:
    """Name the earliest source of non-finite values for a diagnostic."""
    for p in model.parameters():
        if not np.all(np.isfinite(p.data)):
            return f"parameter {p.name}"
    x = _trunk_input(model, dataset, batch)
    with ag.no_grad():
        for name, feats in model.layers(Tensor(x), training=False):
            if not np.all(np.isfinite(feats.data)):
                return name
        state = tuple(map(Tensor, model.initial_state(len(x), model.dtype)))
        out, _ = model.recur(feats, state)
        if not np.all(np.isfinite(out.data)):
            return "rnn"
    return "loss"


# ---------------------------------------------------------------------------
# training loop


def train(config: TrainConfig, dataset: Dataset, rig=None, model: Model | None = None,
          on_step=None):
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


def _subset(frames, keep):
    return [f for f, k in zip(frames, keep) if k]


def metric_report(pred, truth, rig=None, emotions=None, actors=None,
                  metrics=("landmark_rmse", "weights_mse")) -> dict:
    """Grouped metric table over aligned frame lists.

    Groups with no labeled frames are omitted; emotion/actor arrays use 255
    for "absent". Landmark RMSE needs a rig.
    """
    if len(pred) != len(truth):
        raise DataError(f"length mismatch: {len(pred)} predicted frames vs "
                        f"{len(truth)} ground-truth frames")
    if "landmark_rmse" in metrics and rig is None:
        raise ConfigError("landmark_rmse requested but no rig given")

    def compute(metric, p, t):
        if metric == "landmark_rmse":
            return landmark_rmse(p, t, rig)
        if metric == "weights_mse":
            return weights_mse(p, t)
        raise ConfigError(f"unknown metric {metric!r}")

    report = {"frames": len(pred), "metrics": {}}
    for metric in metrics:
        entry = {"mean": compute(metric, pred, truth), "by_emotion": {}, "by_actor": {}}
        if emotions is not None:
            emotions = np.asarray(emotions)
            for code in sorted(int(c) for c in np.unique(emotions) if c != LABEL_ABSENT):
                keep = emotions == code
                entry["by_emotion"][EMOTION_NAMES.get(code, str(code))] = \
                    compute(metric, _subset(pred, keep), _subset(truth, keep))
        if actors is not None:
            actors = np.asarray(actors)
            for actor in sorted(int(a) for a in np.unique(actors) if a != LABEL_ABSENT):
                keep = actors == actor
                entry["by_actor"][str(actor)] = \
                    compute(metric, _subset(pred, keep), _subset(truth, keep))
        report["metrics"][metric] = entry
    return report


def evaluate(model: Model, dataset: Dataset, rig=None,
             metrics=("landmark_rmse", "weights_mse")) -> dict:
    """Run inference over every sequence and report grouped metrics.

    The model is compiled once, and each sequence runs through the plan from
    a zero state, as :func:`forward_sequence` would run it.
    """
    if len(dataset) == 0:
        raise DataError("cannot evaluate on an empty dataset")
    plan = _compile(model)
    pred, truth = [], []
    for a, b in dataset.sequence_spans():
        params, _ = _infer(plan, dataset.spectrograms[a:b], None)
        pred += [FaceFrame.from_vector(p, i) for i, p in enumerate(params)]
        truth += [FaceFrame.from_vector(dataset.targets[i], int(dataset.frame_indices[i]))
                  for i in range(a, b)]
    return metric_report(pred, truth, rig, dataset.emotions, dataset.actors, metrics)
