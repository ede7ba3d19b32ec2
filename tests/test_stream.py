"""Streaming session tests: chunking invariance, causality, latency report."""

import re
import tracemalloc

import numpy as np
import pytest

from speechface.audio import AudioClip, SAMPLE_RATE, clip_spectrograms, frame_boundary, normalize
from speechface import autograd as ag, stream
from speechface.errors import ConfigError, DataError, ShapeError
from speechface.model import build_model, forward, forward_sequence
from speechface.stream import StreamingSession, bench


def tone(seconds, freq=330.0):
    t = np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE
    return (0.5 * np.sin(2 * np.pi * freq * t)).astype(np.float64)


def batch_outputs(model, samples, fps=30.0):
    clip = AudioClip(samples, SAMPLE_RATE)
    specs = [normalize(s, model.norm_stats) for s in clip_spectrograms(clip, fps)]
    return [f.vector for f in forward_sequence(model, specs)]


class TestStreamingSession:
    @pytest.mark.parametrize("chunk", [160, 1470, 4096, 999_999])
    def test_emits_one_frame_per_interval(self, chunk):
        model = build_model("cnn_gru", seed=0)
        session = StreamingSession(model, fps=30.0)
        samples = tone(1.0)
        frames = []
        for i in range(0, len(samples), chunk):
            frames.extend(session.push(samples[i:i + chunk]))
        assert len(frames) == 30
        assert [f.frame_index for f in frames] == list(range(30))

    def test_output_independent_of_chunking(self):
        model = build_model("cnn_lstm", seed=1)
        samples = tone(0.8, freq=523.0)
        outs = []
        for chunks in ([len(samples)], [100] * (len(samples) // 100 + 1)):
            session = StreamingSession(model, fps=30.0)
            frames = []
            pos = 0
            for c in chunks:
                frames.extend(session.push(samples[pos:pos + c]))
                pos += c
            outs.append(np.array([f.vector for f in frames]))
        np.testing.assert_array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("variant", ["cnn_static", "cnn_lstm", "cnn_gru"])
    def test_matches_batch_inference(self, variant):
        model = build_model(variant, seed=2)
        samples = tone(0.7, freq=660.0)
        want = batch_outputs(model, samples)
        session = StreamingSession(model)
        got = [f.vector for f in session.push(samples)]
        assert len(got) == len(want)
        worst = max(
            float(np.max(np.abs(g - w))) for g, w in zip(got, want))
        assert worst <= 1e-6

    def test_future_audio_cannot_affect_past_frames(self):
        """Causality: mutating samples after frame t's boundary leaves it alone."""
        model = build_model("cnn_gru", seed=3)
        base = tone(0.5)
        cut = frame_boundary(9, 30.0)  # first 10 frames decided by samples < cut
        mutated = base.copy()
        mutated[cut:] = -0.9

        a = StreamingSession(model).push(base)
        b = StreamingSession(model).push(mutated)
        for t in range(10):
            np.testing.assert_array_equal(a[t].vector, b[t].vector)
        assert any(
            not np.array_equal(a[t].vector, b[t].vector) for t in range(10, len(a)))

    @pytest.mark.parametrize("fps", [0.0, np.nan, np.inf, 1e9])
    def test_unusable_fps_is_config_error(self, fps):
        with pytest.raises(ConfigError, match="fps must be in"):
            StreamingSession(build_model("cnn_static", seed=0), fps=fps)

    def test_partial_frame_stays_buffered(self):
        model = build_model("cnn_static", seed=0)
        session = StreamingSession(model)
        assert session.push(np.zeros(1469)) == []
        frames = session.push(np.zeros(1))
        assert len(frames) == 1

    def test_non_finite_chunk_leaves_session_untouched(self):
        """A rejected chunk changes nothing: later frames match a clean session."""
        model = build_model("cnn_gru", seed=5)
        samples = tone(0.6, freq=440.0)
        c1, c2 = samples[:7000], samples[7000:]
        bad = np.full(3000, 0.1)
        bad[[17, 2000]] = [np.nan, np.inf]

        clean = StreamingSession(model)
        want = clean.push(c1) + clean.push(c2)
        session = StreamingSession(model)
        got = session.push(c1)
        with pytest.raises(DataError):
            session.push(bad)
        assert session.frames_emitted == len(got)
        got += session.push(c2)
        assert len(got) == len(want) == 18
        for g, w in zip(got, want):
            assert g.frame_index == w.frame_index
            np.testing.assert_array_equal(g.vector, w.vector)
            assert np.all(np.isfinite(g.vector))

    @pytest.mark.parametrize("chunk", [np.full((1470, 2), 0.1), np.full((1, 1470), 0.1), 0.5],
                             ids=["stereo", "row", "scalar"])
    def test_chunk_that_is_not_1d_leaves_session_untouched(self, chunk):
        """A chunk of any shape but 1-d is rejected naming its shape, rather
        than flattened into interleaved samples; later frames match a clean
        session."""
        model = build_model("cnn_gru", seed=5)
        samples = tone(0.6, freq=440.0)
        c1, c2 = samples[:7000], samples[7000:]

        clean = StreamingSession(model)
        want = clean.push(c1) + clean.push(c2)
        session = StreamingSession(model)
        got = session.push(c1)
        with pytest.raises(ShapeError, match=re.escape(f"got shape {np.shape(chunk)}")):
            session.push(chunk)
        assert session.frames_emitted == len(got)
        got += session.push(c2)
        assert len(got) == len(want) == 18
        for g, w in zip(got, want):
            assert g.frame_index == w.frame_index
            np.testing.assert_array_equal(g.vector, w.vector)

    @pytest.mark.parametrize("value", [1e200, 1.5, -1.0000001])
    def test_short_out_of_range_chunk_does_not_wedge_the_stream(self, value):
        """A chunk that crosses no frame boundary is still checked whole: a
        sample outside [-1, 1] is rejected before it reaches the buffer."""
        model = build_model("cnn_gru", seed=5)
        samples = tone(0.6, freq=440.0)
        session = StreamingSession(model)
        assert session.push(samples[:1000]) == []
        with pytest.raises(DataError, match=r"1 of 10 samples .* \[-1, 1\]"):
            session.push(np.concatenate([np.zeros(9), [value]]))
        got = session.push(samples[1000:])
        want = StreamingSession(model).push(samples)
        assert len(got) == len(want) == 18
        for g, w in zip(got, want):
            assert g.frame_index == w.frame_index
            assert g.vector.tobytes() == w.vector.tobytes()

    @pytest.mark.parametrize("chunk", [np.array([0.1 + 0.9j, 0.2]), ["a"], [0.1, None]],
                             ids=["complex", "string", "object"])
    def test_complex_or_non_numeric_chunk_rejected(self, chunk):
        """DataError names the chunk's dtype, rather than frames that drop the
        imaginary parts or a bare ValueError, and the session carries on as if
        the chunk had never been pushed. A chunk that is not 1-d keeps its
        ShapeError text."""
        model = build_model("cnn_gru", seed=5)
        samples = tone(0.6, freq=440.0)
        session = StreamingSession(model)
        assert session.push(samples[:1000]) == []
        with pytest.raises(DataError, match="chunk rejected: samples must be real numbers"):
            session.push(chunk)
        with pytest.raises(ShapeError, match=re.escape("chunk must be a 1-d sample array, "
                                                       "got shape (2, 1)")):
            session.push(np.zeros((2, 1)))
        got = session.push(samples[1000:])
        want = StreamingSession(model).push(samples)
        assert len(got) == len(want) == 18
        assert [g.vector.tobytes() for g in got] == [w.vector.tobytes() for w in want]

    def test_ragged_chunk_rejected(self):
        """A ragged chunk gets the 1-d ShapeError, not numpy's bare
        ValueError, and the session carries on as if it had never been
        pushed."""
        model = build_model("cnn_gru", seed=5)
        samples = tone(0.6, freq=440.0)
        session = StreamingSession(model)
        assert session.push(samples[:1000]) == []
        with pytest.raises(ShapeError, match=re.escape("chunk must be a 1-d sample array, "
                                                       "got a ragged sequence")):
            session.push([[0.1], [0.2, 0.3]])
        got = session.push(samples[1000:])
        want = StreamingSession(model).push(samples)
        assert len(got) == len(want) == 18
        assert [g.vector.tobytes() for g in got] == [w.vector.tobytes() for w in want]

    def test_chunk_that_fails_a_frame_is_not_consumed(self, monkeypatch):
        """The chunk below emits frame 4, then fails frame 5 through a
        boundary step that raises; afterwards the session carries on exactly
        as if the chunk had never been pushed."""
        model = build_model("cnn_gru", seed=5)
        samples = tone(0.6, freq=440.0)
        c1, c2 = samples[:7000], samples[7000:]
        bad = -samples[7000:10000]
        failing = set()

        def forward_split(model, bands, state, frame_index, early):
            if frame_index in failing:
                raise DataError("face parameters must be finite")
            return real_forward_split(model, bands, state, frame_index, early)

        real_forward_split = stream.forward_split
        monkeypatch.setattr(stream, "forward_split", forward_split)
        clean = StreamingSession(model)
        want = clean.push(c1) + clean.push(c2)
        session = StreamingSession(model)
        got = session.push(c1)
        failing.add(5)
        with pytest.raises(DataError, match="at frame 5"):
            session.push(bad)
        assert session.frames_emitted == len(got) == 4
        failing.clear()
        got += session.push(c2)
        assert len(got) == len(want) == 18
        for g, w in zip(got, want):
            assert g.frame_index == w.frame_index
            np.testing.assert_array_equal(g.vector, w.vector)

        fresh = StreamingSession(model)
        failing.add(0)
        with pytest.raises(DataError, match="at frame 0"):
            fresh.push(bad[:1470])
        failing.clear()
        for g, w in zip(fresh.push(c2), StreamingSession(model).push(c2)):
            np.testing.assert_array_equal(g.vector, w.vector)

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_other_exception_mid_chunk_propagates_and_leaves_session_untouched(
            self, monkeypatch, error):
        """An exception that is not a SpeechFaceError, raised from frame 5's
        boundary step after the chunk has emitted frame 4, reaches the caller
        unwrapped; the session keeps its frame count and carries on exactly
        as if the chunk had never been pushed."""
        model = build_model("cnn_gru", seed=5)
        samples = tone(0.6, freq=440.0)
        c1, c2 = samples[:7000], samples[7000:]
        failing = set()

        def forward_split(model, bands, state, frame_index, early):
            if frame_index in failing:
                raise error("interrupted")
            return real_forward_split(model, bands, state, frame_index, early)

        real_forward_split = stream.forward_split
        monkeypatch.setattr(stream, "forward_split", forward_split)
        want = StreamingSession(model).push(samples)
        session = StreamingSession(model)
        got = session.push(c1)
        failing.add(5)
        with pytest.raises(error, match="^interrupted$"):
            session.push(-samples[7000:10000])
        assert session.frames_emitted == len(got) == 4
        failing.clear()
        got += session.push(c2)
        assert len(got) == len(want) == 18
        for g, w in zip(got, want):
            assert g.frame_index == w.frame_index
            assert g.vector.tobytes() == w.vector.tobytes()

    @pytest.mark.parametrize("variant", ["cnn_lstm", "cnn_gru"])
    def test_reset_starts_a_fresh_stream(self, variant):
        model = build_model(variant, seed=6)
        first, second = tone(0.4, freq=300.0), tone(0.5, freq=700.0)
        session = StreamingSession(model)
        session.push(first[:-500])  # leaves a partial frame buffered
        session.reset()
        assert session.frames_emitted == 0
        got = session.push(second)
        want = StreamingSession(model).push(second)
        assert len(got) == len(want) == 15
        for g, w in zip(got, want):
            assert g.frame_index == w.frame_index
            np.testing.assert_array_equal(g.vector, w.vector)

    def test_session_keeps_the_weights_of_its_first_push(self):
        """Weights changed in place after a session's first push do not reach
        its later frames; a session started afterwards sees them."""
        samples = tone(0.6, freq=440.0)
        c1, c2 = samples[:7000], samples[7000:]
        model, twin_model = build_model("cnn_gru", seed=7), build_model("cnn_gru", seed=7)
        session, twin = StreamingSession(model), StreamingSession(twin_model)
        session.push(c1)
        twin.push(c1)
        model.dense2_w.data *= 1.5
        got, want = session.push(c2), twin.push(c2)
        assert session.model is model
        assert len(got) == len(want) == 14
        for g, w in zip(got, want):
            assert g.vector.tobytes() == w.vector.tobytes()
        changed = StreamingSession(model).push(samples)
        untouched = StreamingSession(twin_model).push(samples)
        assert not np.array_equal(changed[-1].vector, untouched[-1].vector)

    def test_reset_keeps_the_weights_of_the_first_push(self):
        model = build_model("cnn_gru", seed=7)
        session = StreamingSession(model)
        first = session.push(tone(0.3))
        model.dense2_w.data *= 1.5
        session.reset()
        assert session.model is model
        again = session.push(tone(0.3))
        assert len(first) == len(again) == 9
        for a, b in zip(first, again):
            assert a.vector.tobytes() == b.vector.tobytes()

    def test_silence_converges_to_fixed_point(self):
        """On constant input the recurrent state settles: deltas < 1e-3."""
        for variant in ("cnn_lstm", "cnn_gru"):
            model = build_model(variant, seed=4)
            session = StreamingSession(model)
            frames = session.push(np.zeros(45 * 1470))
            vecs = np.array([f.vector for f in frames])
            deltas = np.abs(np.diff(vecs[30:], axis=0)).max(axis=1)
            assert np.all(deltas < 1e-3), f"{variant} max delta {deltas.max()}"


class TestHeadStart:
    """A frame's first 28 columns run ahead of its boundary when a push
    that emits no frame has heard them."""

    @staticmethod
    def conv1_widths(monkeypatch):
        """Spy on conv1: a list that collects the time width of each conv1 input."""
        widths = []
        real_conv2d = ag.conv2d

        def conv2d(x, w, *args):
            if w.name == "conv1.w":
                widths.append(x.shape[3])
            return real_conv2d(x, w, *args)

        monkeypatch.setattr(ag, "conv2d", conv2d)
        return widths

    def test_emitting_push_runs_only_the_last_four_columns(self, monkeypatch):
        model = build_model("cnn_gru", seed=3)
        samples = tone(0.5, freq=220.0)
        widths = self.conv1_widths(monkeypatch)
        session = StreamingSession(model, fps=30.0)
        pushes = []  # (frames emitted, conv1 widths) per 512-sample push
        for k in range(0, len(samples) - 511, 512):
            del widths[:]
            pushes.append((len(session.push(samples[k:k + 512])), list(widths)))
        emitting = [i for i, (n, _) in enumerate(pushes) if n]
        assert len(emitting) == 14
        for i in emitting:
            assert pushes[i] == (1, [4])
            assert pushes[i - 1] == (0, [28])
        assert all(ws in ([], [28]) for n, ws in pushes if not n)

    def test_whole_interval_pushes_run_both_groups_at_the_boundary(self, monkeypatch):
        model = build_model("cnn_gru", seed=3)
        samples = tone(0.3, freq=220.0)
        widths = self.conv1_widths(monkeypatch)
        session = StreamingSession(model, fps=30.0)
        start = 0
        for t in range(8):
            stop = frame_boundary(t, 30.0)
            del widths[:]
            assert len(session.push(samples[start:stop])) == 1
            assert widths == [28, 4]
            start = stop

    def test_head_start_that_fails_rejects_its_chunk(self, monkeypatch):
        """Frame 2's head start runs in the push of samples 3584-4096, which
        emits no frame; when it raises, that chunk is refused naming frame 2,
        and the session carries on as if the chunk had never been pushed."""
        model = build_model("cnn_gru", seed=5)
        samples = tone(0.6, freq=440.0)
        failing = []

        def head_start(model, buf, at):
            if failing:
                raise DataError("face parameters must be finite")
            return real_head_start(model, buf, at)

        real_head_start = stream._head_start
        monkeypatch.setattr(stream, "_head_start", head_start)
        session, twin = StreamingSession(model), StreamingSession(model)
        got = session.push(samples[:3584])
        want = twin.push(samples[:3584])
        assert session.frames_emitted == len(got) == 2
        failing.append(True)
        with pytest.raises(DataError, match="^chunk rejected at frame 2: "):
            session.push(-samples[3584:4096])
        failing.clear()
        assert session.frames_emitted == 2
        for a, b in zip(session.state, twin.state):
            assert a.tobytes() == b.tobytes()
        for k in range(3584, len(samples), 512):
            got += session.push(samples[k:k + 512])
            want += twin.push(samples[k:k + 512])
        assert len(got) == len(want) == 18
        for g, w in zip(got, want):
            assert g.frame_index == w.frame_index
            assert g.vector.tobytes() == w.vector.tobytes()

    def test_reset_drops_the_head_start(self, monkeypatch):
        """1000 samples complete frame 0's first 28 columns, not its boundary
        at 1470; after reset the frames are those of a fresh session."""
        model = build_model("cnn_gru", seed=6)
        widths = self.conv1_widths(monkeypatch)
        session = StreamingSession(model)
        assert session.push(tone(0.1, freq=300.0)[:1000]) == []
        assert widths == [28]
        session.reset()
        second = tone(0.5, freq=700.0)
        got, want = [], []
        fresh = StreamingSession(model)
        for k in range(0, len(second), 512):
            got += session.push(second[k:k + 512])
            want += fresh.push(second[k:k + 512])
        assert len(got) == len(want) == 15
        for g, w in zip(got, want):
            assert g.frame_index == w.frame_index
            assert g.vector.tobytes() == w.vector.tobytes()

    @pytest.mark.parametrize("variant", ["cnn_static", "cnn_lstm", "cnn_gru"])
    def test_frames_stay_within_1e12_of_forward(self, variant):
        model = build_model(variant, seed=8)
        samples = tone(0.5, freq=523.0) + 0.1 * np.sin(np.arange(22050) / 7.0)
        session = StreamingSession(model)
        got = []
        for k in range(0, len(samples), 512):
            got += session.push(samples[k:k + 512])
        clip = AudioClip(samples, SAMPLE_RATE)
        state = None
        for frame, spec in zip(got, clip_spectrograms(clip, 30.0)):
            want, state = forward(model, normalize(spec, model.norm_stats), state)
            assert np.abs(frame.vector - want.vector).max() <= 1e-12


class TestBench:
    @pytest.mark.parametrize("iters", [2.5, True, "3", 0, -1])
    def test_rejects_iters_that_are_not_a_positive_integer(self, iters):
        with pytest.raises(ConfigError, match="iters must be"):
            bench(build_model("cnn_static", seed=0), iters=iters)

    def test_report_fields_and_budget(self):
        model = build_model("cnn_static", seed=0)
        report = bench(model, iters=12)
        assert report["variant"] == "cnn_static"
        assert report["iters"] == 12
        assert 0 < report["median_ms"] <= report["p95_ms"]
        assert report["budget_ms"] == pytest.approx(1000.0 / 30.0)
        assert report["fps"] == pytest.approx(1000.0 / report["median_ms"], rel=1e-6)

    def test_pushes_the_seeded_noise_one_interval_at_a_time(self, monkeypatch):
        """Each push gets one frame interval of the noise one seeded draw of
        the whole run would give, bit for bit."""
        chunks, push = [], StreamingSession.push
        monkeypatch.setattr(StreamingSession, "push",
                            lambda self, s: chunks.append(s.copy()) or push(self, s))
        bench(build_model("cnn_static", seed=0), iters=4)
        n = stream.BENCH_WARMUP + 4
        assert [len(c) for c in chunks] == [1470] * n
        want = np.random.default_rng(stream.BENCH_SEED).standard_normal(n * 1470) * 0.1
        np.testing.assert_array_equal(np.concatenate(chunks), want)

    def test_memory_does_not_grow_with_iters(self):
        """The noise is drawn per interval, not for the whole run up front
        (200 iterations of it would be 2.4 MB)."""
        model = build_model("cnn_static", seed=0)
        peaks = []
        for iters in (5, 200):
            tracemalloc.start()
            try:
                bench(model, iters=iters)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 256 * 1024, peaks
