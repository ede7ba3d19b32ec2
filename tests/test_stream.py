"""Streaming session tests: chunking invariance, causality, latency report."""

import re

import numpy as np
import pytest

from speechface.audio import AudioClip, SAMPLE_RATE, clip_spectrograms, frame_boundary, normalize
from speechface import stream
from speechface.errors import ConfigError, DataError, ShapeError
from speechface.model import build_model, forward_sequence
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

    def test_chunk_that_fails_a_frame_is_not_consumed(self, monkeypatch):
        """The chunk below emits frame 4, then fails frame 5 through a forward
        that raises; afterwards the session carries on exactly as if the chunk
        had never been pushed."""
        model = build_model("cnn_gru", seed=5)
        samples = tone(0.6, freq=440.0)
        c1, c2 = samples[:7000], samples[7000:]
        bad = -samples[7000:10000]
        failing = set()

        def forward(model, spec, state):
            if spec.frame_index in failing:
                raise DataError("face parameters must be finite")
            return real_forward(model, spec, state)

        real_forward = stream.forward
        monkeypatch.setattr(stream, "forward", forward)
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
        """An exception that is not a SpeechFaceError, raised from forward at
        frame 5 after the chunk has emitted frame 4, reaches the caller
        unwrapped; the session keeps its frame count and carries on exactly
        as if the chunk had never been pushed."""
        model = build_model("cnn_gru", seed=5)
        samples = tone(0.6, freq=440.0)
        c1, c2 = samples[:7000], samples[7000:]
        failing = set()

        def forward(model, spec, state):
            if spec.frame_index in failing:
                raise error("interrupted")
            return real_forward(model, spec, state)

        real_forward = stream.forward
        monkeypatch.setattr(stream, "forward", forward)
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


class TestBench:
    def test_report_fields_and_budget(self):
        model = build_model("cnn_static", seed=0)
        report = bench(model, iters=12)
        assert report["variant"] == "cnn_static"
        assert report["iters"] == 12
        assert 0 < report["median_ms"] <= report["p95_ms"]
        assert report["budget_ms"] == pytest.approx(1000.0 / 30.0)
        assert report["fps"] == pytest.approx(1000.0 / report["median_ms"], rel=1e-6)
