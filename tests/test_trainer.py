"""Trainer tests: loss, Adam, batching, the training loop, and evaluation."""

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
from speechface.audio import NUM_BANDS, NUM_COLUMNS, NormStats
from speechface.autograd import Parameter, Tensor
from speechface.data import Dataset
from speechface.errors import ConfigError, DataError, NumericError
from speechface.face import FaceFrame, make_toy_rig
from speechface.model import VARIANTS, build_model, forward_sequence, save_checkpoint
from speechface.trainer import (
    AdamState,
    TrainConfig,
    _batch_loss,
    _head_loss,
    adam_step,
    evaluate,
    loss,
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

class TestLoss:
    def test_identical_sequences_score_zero(self):
        rng = np.random.default_rng(0)
        seq = [rng.uniform(-1, 1, 49) for _ in range(4)]
        assert loss(seq, [s.copy() for s in seq]) == 0.0

    def test_single_unit_difference(self):
        a = [np.zeros(49)]
        b = [np.zeros(49)]
        b[0][10] = 1.0
        assert loss(a, b) == pytest.approx(1.0, rel=1e-12)

    def test_two_frames_two_components(self):
        """Two frames each off by 0.1 in two components: 2*2*0.01 = 0.04."""
        a = [np.zeros(49), np.zeros(49)]
        b = [np.zeros(49), np.zeros(49)]
        for f in range(2):
            b[f][3] = 0.1
            b[f][20] = 0.1
        assert loss(a, b) == pytest.approx(0.04, rel=1e-9)

    def test_accepts_face_frames(self):
        fa = FaceFrame(np.zeros(3), np.full(46, 0.5))
        fb = FaceFrame(np.zeros(3), np.full(46, 0.6))
        assert loss([fa], [fb]) == pytest.approx(46 * 0.01, rel=1e-6)

    def test_length_mismatch_raises(self):
        with pytest.raises((DataError, Exception)):
            loss([np.zeros(49)], [np.zeros(49), np.zeros(49)])

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        a = [rng.uniform(-1, 1, 49) for _ in range(3)]
        b = [rng.uniform(-1, 1, 49) for _ in range(3)]
        assert loss(a, b) > 0.0

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
        lr, b1, b2, eps, g = 1e-3, 0.9, 0.999, 1e-8, 0.7
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
            adam_step([p], state, lr=lr, beta1=b1, beta2=b2, epsilon=eps)
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


class TestEvaluate:
    def test_report_against_dataset(self):
        rng = np.random.default_rng(17)
        rig = make_toy_rig(seed=0)
        ds = build_synth_dataset(rng, counts=(6, 5))
        ds.emotions[:] = np.concatenate([np.full(6, 2), np.full(5, 8)]).astype(np.uint8)
        ds.actors[:] = np.concatenate([np.full(6, 4), np.full(5, 9)]).astype(np.uint8)
        model = build_model("cnn_static", seed=1)
        report = evaluate(model, ds, rig=rig)
        assert report["frames"] == 11
        for metric in ("landmark_rmse", "weights_mse"):
            block = report["metrics"][metric]
            assert block["mean"] > 0.0
            assert set(block["by_emotion"]) == {"calm", "surprised"}
            assert set(block["by_actor"]) == {"4", "9"}

    @pytest.mark.parametrize("variant", ["cnn_static", "cnn_lstm", "cnn_gru"])
    def test_report_matches_per_sequence_forward_sequence(self, variant):
        """One compiled plan over every sequence gives the report of running
        forward_sequence per sequence, one-frame sequences included."""
        rng = np.random.default_rng(18)
        rig = make_toy_rig(seed=0)
        ds = build_synth_dataset(rng, counts=(6, 1, 5))
        ds.emotions[:] = np.repeat([2, 8, 2], (6, 1, 5)).astype(np.uint8)
        ds.actors[:] = np.repeat([4, 9, 9], (6, 1, 5)).astype(np.uint8)
        model = build_model(variant, seed=3)
        pred, truth = [], []
        for a, b in ds.sequence_spans():
            pred += forward_sequence(model, list(ds.spectrograms[a:b]))
            truth += [FaceFrame.from_vector(ds.targets[i], int(ds.frame_indices[i]))
                      for i in range(a, b)]
        want = metric_report(pred, truth, rig, ds.emotions, ds.actors)
        got = evaluate(model, ds, rig=rig)
        assert got["frames"] == want["frames"] == 12
        for metric, block in want["metrics"].items():
            assert got["metrics"][metric]["mean"] == pytest.approx(block["mean"], rel=0, abs=1e-12)
            for group in ("by_emotion", "by_actor"):
                assert got["metrics"][metric][group].keys() == block[group].keys()
                for key, value in block[group].items():
                    assert got["metrics"][metric][group][key] == pytest.approx(
                        value, rel=0, abs=1e-12)
