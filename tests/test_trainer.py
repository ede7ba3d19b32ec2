"""Trainer tests: loss, Adam, batching, the training loop, and metric reports."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import speechface
from speechface import autograd as ag
from speechface import trainer
from speechface.audio import NUM_BANDS, NUM_COLUMNS, NormStats
from speechface.autograd import Parameter, Tensor
from speechface.data import Dataset
from speechface.errors import ConfigError, DataError, NumericError
from speechface.face import FaceFrame, make_toy_rig
from speechface.model import VARIANTS, build_model, save_checkpoint
from speechface.trainer import (
    AdamState,
    TrainConfig,
    _batch_loss,
    _head_loss,
    adam_step,
    loss_op,
    make_batches,
    metric_report,
    train,
)


def build_synth_dataset(rng, counts, loc=0.0):
    """Sequences of normalized spectrogram rows with smooth sine targets."""
    n = sum(counts)
    seq_ids = np.concatenate(
        [np.full(c, i, dtype=np.uint32) for i, c in enumerate(counts)])
    frames = np.concatenate([np.arange(c, dtype=np.uint32) for c in counts])
    specs = rng.normal(loc=loc, size=(n, NUM_BANDS, NUM_COLUMNS)).astype(np.float32)
    t = np.arange(n)[:, None]
    r = 0.5 * np.sin(2 * np.pi * t / 40 + np.arange(3))
    e = 0.5 + 0.4 * np.sin(2 * np.pi * t / 25 + np.arange(46))
    targets = np.concatenate([r, e], axis=1).astype(np.float32)
    absent = np.full(n, 255, dtype=np.uint8)
    return Dataset(seq_ids, frames, specs, targets, absent, absent.copy())


def tiny_config(**kw):
    base = dict(variant="cnn_gru", learning_rate=1e-3, minibatch_frames=8,
                epoch_frames=16, epochs=2, bptt_len=4, seed=5)
    base.update(kw)
    return TrainConfig(**base)


# =============================================================================
# Loss
# =============================================================================

def _two_unit_offsets():
    """Two frames each off by 0.1 in two components: 2*2*0.01 = 0.04."""
    target = np.zeros((2, 49))
    target[:, [3, 20]] = 0.1
    return target


_SAME = np.random.default_rng(0).uniform(-1, 1, (4, 49))
_A, _B = np.random.default_rng(1).uniform(-1, 1, (2, 3, 49))


class TestLoss:
    @pytest.mark.parametrize("pred, target, expected", [
        (_SAME, _SAME.copy(), 0.0),
        (np.zeros((1, 49)), np.eye(1, 49, 10), 1.0),
        (np.zeros((2, 49)), _two_unit_offsets(), 0.04),
        (_A, _B, float(np.square(_A - _B).sum())),
    ], ids=["identical", "one-unit", "two-frames-two-components", "different"])
    def test_closed_form_values(self, pred, target, expected):
        value = float(loss_op(Tensor(pred), target).data)
        assert value == pytest.approx(expected, rel=1e-12, abs=0)

    def test_gradient_is_two_times_residual(self):
        """d/dpred sum((pred-target)^2) = 2(pred-target), checked <= 1e-6."""
        rng = np.random.default_rng(2)
        pred = rng.uniform(-1, 1, (5, 49))
        target = rng.uniform(-1, 1, (5, 49))
        t = Tensor(pred.astype(np.float64), requires_grad=True)
        out = loss_op(t, target)
        out.backward()
        np.testing.assert_allclose(t.grad, 2.0 * (pred - target), atol=1e-6)


# =============================================================================
# Adam
# =============================================================================

class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = Parameter("w", np.array([1.0, -2.0, 3.0]))
        p.grad = np.zeros(3, dtype=np.float32)
        state = AdamState.for_params([p])
        before = p.data.copy()
        for _ in range(5):
            adam_step([p], state, lr=0.01)
        np.testing.assert_array_equal(p.data, before)
        np.testing.assert_array_equal(state.m["w"], 0.0)
        np.testing.assert_array_equal(state.v["w"], 0.0)

    def test_missing_gradient_is_identity(self):
        p = Parameter("w", np.array([4.0]))
        state = AdamState.for_params([p])
        adam_step([p], state, lr=0.1)
        np.testing.assert_array_equal(p.data, [4.0])

    def test_first_step_moves_by_lr(self):
        """theta=0, g=2, lr=1e-4: bias correction makes the step ~= lr."""
        p = Parameter("w", np.array([0.0]))
        p.grad = np.array([2.0], dtype=np.float32)
        state = AdamState.for_params([p])
        adam_step([p], state, lr=1e-4)
        assert float(p.data[0]) == pytest.approx(-1e-4, rel=1e-5)
        assert state.t == 1

    def test_thousand_steps_match_scalar_oracle(self):
        """Constant gradient, 1000 steps, against a hand-written recurrence."""
        lr, g = 1e-3, 0.7
        b1, b2, eps = AdamState.beta1, AdamState.beta2, AdamState.epsilon
        p = Parameter("w", np.array([0.25], dtype=np.float64))
        state = AdamState.for_params([p])

        theta, m, v = 0.25, 0.0, 0.0
        for t in range(1, 1001):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            theta -= lr * mhat / (np.sqrt(vhat) + eps)

            p.grad = np.array([g], dtype=np.float64)
            adam_step([p], state, lr=lr)
            assert float(p.data[0]) == pytest.approx(theta, abs=1e-6)

    def test_state_shapes_follow_params(self):
        p = Parameter("w", np.zeros((3, 4)))
        state = AdamState.for_params([p])
        assert state.m["w"].shape == (3, 4)
        assert state.v["w"].shape == (3, 4)


# =============================================================================
# Batching
# =============================================================================

class TestMakeBatches:
    def test_single_sequence_exact_tiling(self):
        """One 64-frame sequence with bptt 32 tiles as (0,32) and (32,64)."""
        rng = np.random.default_rng(3)
        ds = build_synth_dataset(rng, counts=(64,))
        cfg = TrainConfig(variant="cnn_lstm", minibatch_frames=64,
                          epoch_frames=64, bptt_len=32, seed=0)
        batches = make_batches(ds, cfg, epoch_seed=0)
        segments = sorted(seg for batch in batches for seg in batch)
        assert segments == [(0, 32), (32, 64)]

    def test_segments_never_cross_sequences(self):
        rng = np.random.default_rng(4)
        ds = build_synth_dataset(rng, counts=(10, 7, 13))
        spans = ds.sequence_spans()
        cfg = TrainConfig(variant="cnn_gru", minibatch_frames=12,
                          epoch_frames=60, bptt_len=8, seed=0)
        for batch in make_batches(ds, cfg, epoch_seed=1):
            for a, b in batch:
                assert any(sa <= a and b <= sb for sa, sb in spans)
                assert b - a <= 8

    def test_static_shuffle_is_deterministic(self):
        rng = np.random.default_rng(5)
        ds = build_synth_dataset(rng, counts=(20,))
        cfg = TrainConfig(variant="cnn_static", minibatch_frames=8,
                          epoch_frames=20, seed=0)
        a = make_batches(ds, cfg, epoch_seed=42)
        b = make_batches(ds, cfg, epoch_seed=42)
        for ba, bb in zip(a, b):
            np.testing.assert_array_equal(ba, bb)
        c = make_batches(ds, cfg, epoch_seed=43)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_epoch_frame_budget(self):
        """Total drawn frames covers epoch_frames within minibatch granularity."""
        rng = np.random.default_rng(6)
        ds = build_synth_dataset(rng, counts=(9, 9))
        for variant in ("cnn_static", "cnn_gru"):
            cfg = TrainConfig(variant=variant, minibatch_frames=10,
                              epoch_frames=50, bptt_len=4, seed=0)
            batches = make_batches(ds, cfg, epoch_seed=0)
            total = sum(b - a for batch in batches for a, b in batch)
            assert 50 <= total < 50 + cfg.minibatch_frames

    def test_small_dataset_cycles_all_frames(self):
        rng = np.random.default_rng(7)
        ds = build_synth_dataset(rng, counts=(6,))
        cfg = TrainConfig(variant="cnn_static", minibatch_frames=6,
                          epoch_frames=18, seed=0)
        batches = make_batches(ds, cfg, epoch_seed=0)
        starts = [a for batch in batches for a, _ in batch]
        counts = np.bincount(starts, minlength=6)
        np.testing.assert_array_equal(counts, 3)  # each frame exactly 3 times

    @pytest.mark.parametrize("variant", ["cnn_static", "cnn_lstm", "cnn_gru"])
    def test_every_batch_is_segments_of_two_frames_or_more(self, variant):
        """One format for every variant: lists of (start, stop) tuples inside
        one sequence, at least 2 frames a batch, covering epoch_frames. Only a
        recurrent variant's last segment may run past epoch_frames."""
        rng = np.random.default_rng(19)
        datasets = [build_synth_dataset(rng, counts) for counts in
                    [(1,), (2,), (33,), (1, 1, 1), (5, 1, 7), (3, 32, 1, 2)]]
        for ds, bptt, minibatch, epoch_kind in itertools.product(
                datasets, (1, 4, 32), (2, 3, 7, 32), range(4)):
            epoch_frames = (2, minibatch + 1, 2 * minibatch + 1, 50)[epoch_kind]
            seg_len = 1 if variant == "cnn_static" else bptt
            cfg = TrainConfig(variant=variant, minibatch_frames=minibatch,
                              epoch_frames=epoch_frames, bptt_len=bptt)
            spans = ds.sequence_spans()
            total = 0
            for batch in make_batches(ds, cfg, epoch_seed=(3, epoch_frames)):
                assert isinstance(batch, list)
                assert all(type(seg) is tuple and len(seg) == 2 for seg in batch)
                for a, b in batch:
                    assert 0 < b - a <= seg_len
                    assert any(sa <= a and b <= sb for sa, sb in spans)
                frames = sum(b - a for a, b in batch)
                assert frames >= 2
                total += frames
            assert epoch_frames <= total < epoch_frames + seg_len

    def test_static_batches_cut_the_seeded_permutation_stream(self):
        """cnn_static draws the permutations it always drew, cut every
        minibatch_frames frames, with a one-frame tail merged backwards."""
        rng = np.random.default_rng(20)
        ds = build_synth_dataset(rng, counts=(4, 3))
        for minibatch, epoch_frames in [(3, 3), (3, 4), (3, 7), (4, 9), (5, 23), (8, 30)]:
            cfg = TrainConfig(variant="cnn_static", minibatch_frames=minibatch,
                              epoch_frames=epoch_frames)
            draws = np.random.default_rng((1, 2))
            stream = np.concatenate([draws.permutation(len(ds)) for _ in
                                     range(-(-epoch_frames // len(ds)))])[:epoch_frames]
            want = [stream[i:i + minibatch] for i in range(0, epoch_frames, minibatch)]
            if len(want[-1]) == 1:
                tail = want.pop()
                want[-1] = np.concatenate([want[-1], tail])
            got = make_batches(ds, cfg, epoch_seed=(1, 2))
            assert [[(int(r), int(r) + 1) for r in w] for w in want] == got

    @pytest.mark.parametrize("field", ["minibatch_frames", "epoch_frames"])
    def test_fewer_than_two_frames_rejected(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be at least 2, got 1: "
                                              "batch norm needs two frames per batch"):
            TrainConfig(**{field: 1})

    @pytest.mark.parametrize("field,value", [
        ("epochs", float("nan")), ("bptt_len", float("inf")),
        ("minibatch_frames", 2.5), ("seed", 1.5), ("epoch_frames", True)])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["epochs", "bptt_len", "minibatch_frames", "epoch_frames"])
    def test_counts_take_numpy_integers_not_bools(self, field):
        assert getattr(TrainConfig(**{field: np.int64(40)}), field) == 40
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got True"):
            TrainConfig(**{field: True})

    @pytest.mark.parametrize("value", ["0.1", [0.1], True])
    def test_non_real_learning_rate_rejected(self, value):
        with pytest.raises(ConfigError) as err:
            TrainConfig(learning_rate=value)
        assert str(err.value) == f"learning_rate must be a real number, got {value!r}"

    def test_numpy_learning_rate_accepted(self):
        assert TrainConfig(learning_rate=np.float32(1e-3)).learning_rate == np.float32(1e-3)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("seeded", [lambda s: build_model("cnn_gru", s), make_toy_rig,
                                        lambda s: TrainConfig(seed=s)],
                             ids=["build_model", "make_toy_rig", "TrainConfig"])
    @pytest.mark.parametrize("seed,message", [(-1, "seed must be non-negative, got -1"),
                                              (1.5, "seed must be an integer, got 1.5"),
                                              (True, "seed must be an integer, got True"),
                                              ("3", "seed must be an integer, got '3'")])
    def test_every_seeded_entry_point_checks_its_seed(self, seeded, seed, message):
        """A seed outside TrainConfig gets TrainConfig's ConfigError, not a
        numpy ValueError or TypeError, and a bool is not taken for 0 or 1."""
        with pytest.raises(ConfigError) as err:
            seeded(seed)
        assert str(err.value) == message

    def test_empty_dataset_rejected(self):
        rng = np.random.default_rng(8)
        ds = build_synth_dataset(rng, counts=(4,))
        empty = Dataset(ds.seq_ids[:0], ds.frame_indices[:0], ds.spectrograms[:0],
                        ds.targets[:0], ds.emotions[:0], ds.actors[:0])
        cfg = TrainConfig(variant="cnn_static", seed=0)
        with pytest.raises(DataError):
            make_batches(empty, cfg, epoch_seed=0)


# =============================================================================
# Minibatch loss
# =============================================================================

def segmentwise_loss(model, ds, batch):
    """Oracle for _batch_loss: one trunk pass over the batch's rows, then
    each segment's recurrence and heads on their own from a zero state."""
    rows = np.concatenate([np.arange(a, b) for a, b in batch])
    feats = model.trunk(Tensor(ds.spectrograms[rows][:, None].astype(model.dtype)),
                        training=True)
    total, pos = None, 0
    for a, b in batch:
        state = tuple(map(Tensor, model.initial_state(1, model.dtype)))
        for t in range(b - a):
            out, state = model.recur(ag.take_rows(feats, [pos + t]), state)
            term = _head_loss(*model.head_out(out), ds.targets[a + t:a + t + 1])
            total = term if total is None else ag.add(total, term)
        pos += b - a
    return total


class TestBatchLoss:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ragged_batch_matches_segmentwise_oracle(self, variant):
        """Segments of 4, 5, 1, 7 and 4 frames: each recurrent step runs on
        the live segments only, and the loss and every parameter gradient
        agree with the oracle to float32 rounding."""
        ds = build_synth_dataset(np.random.default_rng(22), counts=(9, 5, 7))
        batch = [(0, 4), (9, 14), (4, 5), (14, 21), (5, 9)]
        got_model, want_model = build_model(variant, seed=7), build_model(variant, seed=7)
        got = _batch_loss(got_model, ds, batch)
        want = segmentwise_loss(want_model, ds, batch)
        assert float(got.data) == pytest.approx(float(want.data), rel=1e-6)
        got.backward()
        want.backward()
        pairs = [(p.name, p.grad, q.grad) for p, q in
                 zip(got_model.parameters(), want_model.parameters())]
        scale = max(float(np.abs(w).max()) for _, _, w in pairs)
        for name, g, w in pairs:
            assert float(np.abs(g - w).max()) <= 1e-5 * scale, name


# =============================================================================
# Training loop
# =============================================================================

class TestTrain:
    def test_zero_heads_on_neutral_targets_give_zero_loss(self):
        """Zeroed output heads emit (0, 0.5...) exactly, matching the targets."""
        rng = np.random.default_rng(9)
        ds = build_synth_dataset(rng, counts=(8, 8))
        ds.targets[:, :3] = 0.0
        ds.targets[:, 3:] = 0.5
        cfg = tiny_config(epochs=1)
        model = build_model(cfg.variant, seed=cfg.seed)
        for p in (model.head_r_w, model.head_r_b, model.head_e_w, model.head_e_b):
            p.data[...] = 0.0
        _, trace = train(cfg, ds, model=model)
        assert trace == [0.0]

    def test_determinism_bit_identical_checkpoints(self, tmp_path):
        rng = np.random.default_rng(10)
        ds = build_synth_dataset(rng, counts=(10, 6))
        paths = []
        for run in ("a", "b"):
            model, _ = train(tiny_config(), ds)
            path = tmp_path / f"{run}.ckpt"
            save_checkpoint(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_checkpoint_bytes_independent_of_blas_threads(self, tmp_path):
        """Batch-norm statistics and every GEMM go through BLAS; one and two
        BLAS threads must train to the same bytes."""
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from test_trainer import build_synth_dataset, tiny_config\n"
            "from speechface.model import save_checkpoint\n"
            "from speechface.trainer import train\n"
            "ds = build_synth_dataset(np.random.default_rng(10), counts=(20, 12))\n"
            "model, _ = train(tiny_config(minibatch_frames=16, epoch_frames=32, epochs=1), ds)\n"
            "save_checkpoint(model, sys.argv[1])\n")
        src = Path(speechface.__file__).resolve().parents[1]
        paths = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
            path = tmp_path / f"threads{threads}.ckpt"
            subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_loss_trace_shape_and_finiteness(self):
        rng = np.random.default_rng(11)
        ds = build_synth_dataset(rng, counts=(12,))
        cfg = tiny_config(epochs=3, variant="cnn_static")
        _, trace = train(cfg, ds)
        assert len(trace) == 3
        assert all(np.isfinite(v) and v >= 0 for v in trace)

    def test_nan_abort_names_layer(self):
        rng = np.random.default_rng(12)
        ds = build_synth_dataset(rng, counts=(8,))
        cfg = tiny_config(variant="cnn_static")
        model = build_model(cfg.variant, seed=0)
        model.conv_w["conv2"].data[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericError, match="conv2"):
            train(cfg, ds, model=model)

    def test_nonfinite_diagnostic_names_a_layer_of_a_later_chunk(self, monkeypatch):
        """Every parameter is finite, but conv3's weights are scaled so that
        its output overflows for frame 9 alone, which the diagnostic's walk
        of 4 frames at a time reaches in its third pass: it names conv3. With
        a NaN in frame 9's input as well, and frame 1 overflowing in conv3
        in the first pass, it names the earlier layer, the input."""
        monkeypatch.setattr(trainer, "_DIAGNOSTIC_FRAMES", 4)
        ds = build_synth_dataset(np.random.default_rng(30), counts=(10,))
        model = build_model("cnn_static", seed=0)
        model.conv_w["conv3"].data *= 1e10
        ds.spectrograms[9] = 1e30
        with np.errstate(over="ignore", invalid="ignore"):
            assert trainer._first_nonfinite_layer(model, ds, [(0, 9)]) == "loss"
            assert trainer._first_nonfinite_layer(model, ds, [(0, 10)]) == "conv3"
            ds.spectrograms[1] = 1e30
            ds.spectrograms[9, 0, 0] = np.nan
            assert trainer._first_nonfinite_layer(model, ds, [(0, 10)]) == "input"

    def test_nonfinite_diagnostic_holds_one_chunk_of_frames(self):
        """The diagnostic's walk of a 96-frame batch whose last frame
        overflows in conv3, under tracemalloc: it holds each layer's output
        for one chunk of 32 frames, about 1 MiB a frame, not for the whole
        batch."""
        ds = build_synth_dataset(np.random.default_rng(31), counts=(96,))
        model = build_model("cnn_static", seed=0)
        model.conv_w["conv3"].data *= 1e10
        ds.spectrograms[95] = 1e30
        tracemalloc.start()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                assert trainer._first_nonfinite_layer(model, ds, [(0, 96)]) == "conv3"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 << 20, peak

    def test_on_step_can_stop_early(self):
        rng = np.random.default_rng(13)
        ds = build_synth_dataset(rng, counts=(12,))
        seen = []

        def stop_at_three(step, value):
            seen.append((step, value))
            return step >= 3

        train(tiny_config(epochs=50), ds, on_step=stop_at_three)
        assert seen[-1][0] == 3
        assert len(seen) == 3

    @pytest.mark.parametrize("given", [False, True], ids=["built", "passed_in"])
    def test_model_takes_the_dataset_norm_stats(self, given):
        """Built or passed in, the trained model carries the stats that
        standardized the dataset, so its checkpoint normalizes new audio the
        same way."""
        rng = np.random.default_rng(15)
        ds = build_synth_dataset(rng, counts=(8,))
        ds.norm_stats = NormStats(rng.uniform(0, 3, NUM_BANDS), rng.uniform(0.1, 2, NUM_BANDS))
        cfg = tiny_config(variant="cnn_static", epochs=1)
        model = build_model(cfg.variant, cfg.seed) if given else None
        trained, _ = train(cfg, ds, model=model)
        np.testing.assert_array_equal(trained.norm_stats.mean, ds.norm_stats.mean)
        np.testing.assert_array_equal(trained.norm_stats.std, ds.norm_stats.std)

    @pytest.mark.parametrize("variant,counts,minibatch,epoch_frames,bptt", [
        ("cnn_static", (12,), 8, 9, 32),     # one-frame tail after the only full batch
        ("cnn_lstm", (33,), 32, 33, 32),     # a one-frame tail segment of its own
    ])
    def test_one_frame_tails_train(self, variant, counts, minibatch, epoch_frames, bptt):
        """Configs whose last frame used to form a batch of its own: that
        frame now joins the batch before it, and the epoch trains."""
        ds = build_synth_dataset(np.random.default_rng(21), counts=counts)
        cfg = tiny_config(variant=variant, minibatch_frames=minibatch,
                          epoch_frames=epoch_frames, bptt_len=bptt, epochs=1)
        batches = make_batches(ds, cfg, (cfg.seed, 0))
        assert sum(b - a for a, b in batches[-1]) == minibatch + 1
        steps = []
        train(cfg, ds, on_step=lambda step, value: steps.append(value))
        assert len(steps) == len(batches)
        assert all(np.isfinite(steps))

    def test_step_memory_does_not_grow(self):
        """Backward releases a step's graph, so the next step does not build
        its graph while the last one is still alive."""
        ds = build_synth_dataset(np.random.default_rng(23), counts=(16, 16))
        cfg = tiny_config(minibatch_frames=32, epoch_frames=32, bptt_len=8)
        peaks = []

        def record_peak(step, value):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            train(cfg, ds, on_step=record_peak)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 2
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_step_memory_per_frame(self):
        """A 32-frame cnn_lstm step of four 8-frame segments under
        tracemalloc: the forward tape holds at most 0.5 MiB a frame and the
        step peaks at 1 MiB a frame. The trunk's node makes conv1's pooled
        output, 0.25 MiB a frame, its winner mask and its gradient one block
        of samples at a time; kept or made whole, they would take those
        bounds past 0.75 and 1.2 MiB a frame. It keeps only the conv outputs
        of conv2 to conv7, and makes their stage outputs, 0.22 MiB a frame,
        again wherever they are read; kept, they would take the tape past
        0.6 MiB a frame."""
        ds = build_synth_dataset(np.random.default_rng(31), counts=(32,))
        model = build_model("cnn_lstm", seed=0)
        tracemalloc.start()
        try:
            loss = _batch_loss(model, ds, [(i, i + 8) for i in range(0, 32, 8)])
            tape = tracemalloc.get_traced_memory()[0]
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tape <= 32 * (1 << 19), tape
        assert peak <= 32 << 20, peak

    def test_training_reduces_loss_on_tiny_overfit(self):
        """A few dozen steps on one tiny batch should cut the loss."""
        rng = np.random.default_rng(14)
        ds = build_synth_dataset(rng, counts=(8,))
        cfg = tiny_config(variant="cnn_static", minibatch_frames=8,
                          epoch_frames=8, epochs=30, learning_rate=1e-3)
        _, trace = train(cfg, ds)
        assert trace[-1] < 0.5 * trace[0]


# =============================================================================
# Evaluation
# =============================================================================

def _frames_from(targets, start=0):
    return [FaceFrame(t[:3], t[3:], start + i) for i, t in enumerate(targets)]


class TestMetricReport:
    def test_perfect_predictions_zero_everywhere(self):
        rng = np.random.default_rng(15)
        rig = make_toy_rig(seed=0)
        targets = np.concatenate(
            [rng.uniform(-0.5, 0.5, (6, 3)), rng.uniform(0, 1, (6, 46))], axis=1)
        frames = _frames_from(targets)
        emotions = np.array([3, 3, 3, 6, 6, 6], dtype=np.uint8)
        actors = np.array([1, 1, 2, 2, 2, 1], dtype=np.uint8)
        report = metric_report(frames, frames, rig=rig,
                               emotions=emotions, actors=actors)
        assert report["frames"] == 6
        for metric in ("landmark_rmse", "weights_mse"):
            block = report["metrics"][metric]
            assert block["mean"] == 0.0
            assert set(block["by_emotion"]) == {"happy", "fearful"}
            assert set(block["by_actor"]) == {"1", "2"}
            assert all(v == 0.0 for v in block["by_emotion"].values())
            assert all(v == 0.0 for v in block["by_actor"].values())

    def test_single_group_equals_mean(self):
        rng = np.random.default_rng(16)
        rig = make_toy_rig(seed=0)
        t1 = np.concatenate([rng.uniform(-0.5, 0.5, (4, 3)), rng.uniform(0, 1, (4, 46))], axis=1)
        t2 = np.concatenate([rng.uniform(-0.5, 0.5, (4, 3)), rng.uniform(0, 1, (4, 46))], axis=1)
        pred, truth = _frames_from(t1), _frames_from(t2)
        emotions = np.full(4, 5, dtype=np.uint8)
        report = metric_report(pred, truth, rig=rig, emotions=emotions)
        for metric in ("landmark_rmse", "weights_mse"):
            block = report["metrics"][metric]
            assert block["by_emotion"]["angry"] == pytest.approx(block["mean"], rel=1e-12)

    def test_landmark_metric_requires_rig(self):
        frames = _frames_from(np.zeros((2, 49)))
        with pytest.raises(ConfigError):
            metric_report(frames, frames, rig=None, metrics=("landmark_rmse",))

    def test_weights_only_needs_no_rig(self):
        frames = _frames_from(np.zeros((2, 49)))
        report = metric_report(frames, frames, metrics=("weights_mse",))
        assert report["metrics"]["weights_mse"]["mean"] == 0.0
        assert "landmark_rmse" not in report["metrics"]

    def test_length_mismatch_states_both_counts(self):
        frames = _frames_from(np.zeros((3, 49)))
        with pytest.raises(DataError, match="3.*2|2.*3"):
            metric_report(frames, frames[:2], metrics=("weights_mse",))

    @pytest.mark.parametrize("group,labels,message", [
        ("emotions", [3, 3], "emotion labels: 2 given for 4 frames"),
        ("actors", [1, 1, 2, 2, 2], "actor labels: 5 given for 4 frames")])
    def test_label_array_of_another_length_names_group_and_lengths(self, group, labels, message):
        """Labels are not scored against the first frames only, nor does a
        long array fail as an empty sequence."""
        frames = _frames_from(np.zeros((4, 49)))
        with pytest.raises(DataError) as err:
            metric_report(frames, frames, metrics=("weights_mse",),
                          **{group: np.array(labels, dtype=np.uint8)})
        assert str(err.value) == message

    def test_unknown_metric_rejected(self):
        frames = _frames_from(np.zeros((2, 49)))
        with pytest.raises(ConfigError, match="unknown metric 'mae'"):
            metric_report(frames, frames, metrics=("weights_mse", "mae"))
