"""Audio frontend tests: WAV ingestion, windowing, spectrograms, normalization.

The spectrogram path is checked against a naive O(n^2) DFT oracle; window
arithmetic against hand-computed sample indices for the end-aligned,
no-lookahead convention.
"""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from speechface.audio import (
    FFT_SIZE,
    HOP,
    NUM_BANDS,
    NUM_COLUMNS,
    SAMPLE_RATE,
    WINDOW_SAMPLES,
    AudioClip,
    NormStats,
    Spectrogram,
    clip_spectrograms,
    compute_spectrogram,
    extract_frame_window,
    fit_normalization,
    frame_boundary,
    frame_count,
    load_wav,
    normalize,
    power_columns,
    resample_linear,
    write_wav,
)
from speechface.errors import ConfigError, DataError, ParseError, RangeError, ShapeError
from speechface.model import build_model
from speechface.stream import StreamingSession


# =============================================================================
# Oracles
# =============================================================================

def hann_periodic(n):
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def naive_power_spectrogram(window):
    """Direct DFT summation: the reference for compute_spectrogram."""
    w = hann_periodic(FFT_SIZE)
    out = np.zeros((NUM_BANDS, NUM_COLUMNS))
    n = np.arange(FFT_SIZE)
    for col in range(NUM_COLUMNS):
        seg = window[col * HOP:col * HOP + FFT_SIZE] * w
        for k in range(NUM_BANDS):
            re = np.sum(seg * np.cos(-2.0 * np.pi * k * n / FFT_SIZE))
            im = np.sum(seg * np.sin(-2.0 * np.pi * k * n / FFT_SIZE))
            out[k, col] = re * re + im * im
    return out


# =============================================================================
# WAV ingestion
# =============================================================================

class TestLoadWav:
    def test_pcm16_scaling(self, tmp_path):
        """Integer samples scale by 1/32768."""
        path = tmp_path / "mono.wav"
        write_wav(path, np.array([0.0, 0.5, -1.0]), SAMPLE_RATE, fmt="pcm16")
        clip = load_wav(path)
        # round-trip is exact only to the 16-bit quantization step
        np.testing.assert_allclose(clip.samples, [0.0, 0.5, -1.0], atol=1.0 / 32767)
        assert clip.sample_rate == SAMPLE_RATE
        assert len(clip.samples) == 3  # not resampled

    def test_raw_pcm16_values(self, tmp_path):
        path = tmp_path / "raw.wav"
        data = struct.pack("<3h", 0, 16384, -32768)
        _write_raw_wav(path, data, channels=1, rate=SAMPLE_RATE, bits=16, codec=1)
        clip = load_wav(path)
        np.testing.assert_allclose(clip.samples, [0.0, 0.5, -1.0])

    def test_stereo_averages_to_mono(self, tmp_path):
        path = tmp_path / "stereo.wav"
        # interleaved L/R: (1.0, 0.0)
        frames = struct.pack("<2f", 1.0, 0.0)
        _write_raw_wav(path, frames, channels=2, rate=SAMPLE_RATE, bits=32, codec=3)
        clip = load_wav(path)
        np.testing.assert_allclose(clip.samples, [0.5])

    def test_float32_roundtrip(self, tmp_path):
        path = tmp_path / "f32.wav"
        x = np.linspace(-0.9, 0.9, 100)
        write_wav(path, x, SAMPLE_RATE, fmt="float32")
        np.testing.assert_allclose(load_wav(path).samples, x, atol=1e-7)

    @pytest.mark.parametrize("fmt", ["pcm16", "float32"])
    def test_memory_holds_the_file_and_one_float64_copy(self, tmp_path, fmt):
        """Under tracemalloc, a 10 s clip peaks at 13 bytes per sample or
        less: the file's bytes and one float64 copy of its samples, which is
        scaled or clipped in place (12 bytes per sample for float32). The
        file's bytes are released before the clip checks the samples."""
        n = 10 * SAMPLE_RATE
        path = tmp_path / "long.wav"
        write_wav(path, 1.5 * np.sin(np.arange(n) * 0.01), SAMPLE_RATE, fmt=fmt)
        tracemalloc.start()
        try:
            clip = load_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(clip.samples) == n and np.abs(clip.samples).max() <= 1.0
        assert peak <= 13 * n, peak / n

    def test_22050_resamples_to_double_length(self, tmp_path):
        """Linear interpolation from 22050 Hz gives length 2L-1."""
        path = tmp_path / "slow.wav"
        x = np.sin(np.linspace(0, 3.0, 500))
        write_wav(path, x, 22050, fmt="float32")
        clip = load_wav(path)
        assert clip.sample_rate == SAMPLE_RATE
        assert len(clip.samples) == 2 * 500 - 1

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"JUNK" + b"\x00" * 40)
        with pytest.raises(ParseError, match="byte 0"):
            load_wav(path)

    def test_bad_wave_type(self, tmp_path):
        path = tmp_path / "bad2.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 36) + b"AVI " + b"\x00" * 30)
        with pytest.raises(ParseError, match="byte 8"):
            load_wav(path)

    def test_unsupported_codec(self, tmp_path):
        path = tmp_path / "ulaw.wav"
        _write_raw_wav(path, b"\x00\x00", channels=1, rate=8000, bits=8, codec=7)
        with pytest.raises(ParseError):
            load_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        path = tmp_path / "trunc.wav"
        write_wav(path, np.zeros(100), SAMPLE_RATE)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 50])
        with pytest.raises(ParseError):
            load_wav(path)


def _write_raw_wav(path, frames, channels, rate, bits, codec):
    """Minimal RIFF writer for crafting fixture files byte by byte."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", codec, channels, rate, rate * block, block, bits)
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(frames)) + frames
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


class TestResample:
    def test_identity_when_rates_match(self):
        x = np.array([0.1, 0.2, 0.3])
        np.testing.assert_array_equal(resample_linear(x, 44100, 44100), x)

    def test_endpoint_preservation(self):
        x = np.array([0.0, 1.0])
        y = resample_linear(x, 22050, 44100)
        assert y[0] == pytest.approx(0.0)
        assert y[-1] == pytest.approx(1.0)
        assert len(y) == 3
        assert y[1] == pytest.approx(0.5)


# =============================================================================
# Frame windows
# =============================================================================

class TestAudioClip:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1.5, -1.0000001])
    def test_sample_outside_unit_range_rejected(self, value):
        samples = np.random.default_rng(40).uniform(-1, 1, 5000)
        samples[1234] = value
        with pytest.raises(DataError, match=r"AudioClip rejected: 1 of 5000 samples are not "
                                            r"finite values in \[-1, 1\]"):
            AudioClip(samples, SAMPLE_RATE)

    def test_all_nan_clip_rejected_before_any_spectrogram(self):
        with pytest.raises(DataError, match="5000 of 5000 samples"):
            clip_spectrograms(AudioClip(np.full(5000, np.nan)), 30.0)

    @pytest.mark.parametrize("rate", [22050, 48000, 0])
    def test_rate_other_than_44100_rejected(self, rate):
        """Only load_wav resamples, so a clip that frame_count would count
        is one clip_spectrograms can analyse."""
        with pytest.raises(ConfigError, match=f"AudioClip must be at 44100 Hz, got {rate}$"):
            AudioClip(np.zeros(SAMPLE_RATE), rate)

    def test_full_scale_samples_accepted(self):
        clip = AudioClip(np.array([-1.0, 1.0, 0.0, -32768 / 32768]))
        assert clip.samples.tolist() == [-1.0, 1.0, 0.0, -1.0]

    @pytest.mark.parametrize("samples", [np.array([0.1 + 0.9j, 0.2]), ["0.1", "a"], [0.1, None]],
                             ids=["complex", "string", "object"])
    def test_complex_or_non_numeric_samples_rejected(self, samples):
        """DataError names the dtype, rather than a clip that drops the
        imaginary parts or a bare ValueError."""
        with pytest.raises(DataError, match="AudioClip rejected: samples must be real numbers"):
            AudioClip(samples)

    @pytest.mark.parametrize("samples", [np.array([0, 1, -1], dtype=np.int16), [False, True]],
                             ids=["int16", "bool"])
    def test_integer_and_bool_samples_become_float64(self, samples):
        clip = AudioClip(samples)
        assert clip.samples.dtype == np.float64
        assert clip.samples.tolist() == [float(v) for v in samples]

    def test_samples_that_are_not_1d_rejected(self):
        with pytest.raises(ShapeError, match=re.escape("AudioClip needs a 1-d sample array, "
                                                       "got shape (2, 3)")):
            AudioClip(np.zeros((2, 3)))

    def test_ragged_samples_rejected(self):
        """A ragged sequence gets the 1-d ShapeError, not numpy's bare
        ValueError about an inhomogeneous shape."""
        with pytest.raises(ShapeError, match=re.escape("AudioClip needs a 1-d sample array, "
                                                       "got a ragged sequence")):
            AudioClip([[0.1], [0.2, 0.3]])


class TestFrameWindows:
    def test_boundary_arithmetic(self):
        assert frame_boundary(0, 30.0) == 1470
        assert frame_boundary(2, 30.0) == 4410
        # non-integer interval rounds per frame
        assert frame_boundary(0, 29.97) == round(44100 / 29.97)

    def test_frame_count_examples(self):
        clip = AudioClip(np.zeros(int(3.2 * SAMPLE_RATE)), SAMPLE_RATE)
        assert frame_count(clip, 30.0) == 96
        clip2 = AudioClip(np.zeros(2 * SAMPLE_RATE), SAMPLE_RATE)
        assert frame_count(clip2, 30.0) == 60
        short = AudioClip(np.zeros(100), SAMPLE_RATE)
        assert frame_count(short, 30.0) == 0

    @pytest.mark.parametrize("fps", [0.0, -30.0, np.nan, np.inf, SAMPLE_RATE + 0.5, 1e9])
    def test_unusable_fps_is_config_error(self, fps):
        """Frames must lie at least one sample apart, so fps is at most the
        sample rate; NaN and Inf never reach the frame arithmetic."""
        clip = AudioClip(np.zeros(SAMPLE_RATE), SAMPLE_RATE)
        with pytest.raises(ConfigError, match="fps must be in"):
            frame_count(clip, fps)
        with pytest.raises(ConfigError, match="fps must be in"):
            extract_frame_window(clip, 0, fps)

    @pytest.mark.parametrize("fps", [True, "30", None, 30 + 0j])
    def test_fps_that_is_not_a_real_number_is_config_error(self, fps):
        """A bool is not taken as 1 fps, and a string, None or a complex
        number gets the same ConfigError, not a TypeError, at every entry
        point that takes fps."""
        clip = AudioClip(np.zeros(SAMPLE_RATE), SAMPLE_RATE)
        model = build_model("cnn_static", seed=0)
        message = re.escape(f"fps must be a real number, got {fps!r}")
        for call in (lambda: frame_count(clip, fps), lambda: extract_frame_window(clip, 0, fps),
                     lambda: StreamingSession(model, fps=fps)):
            with pytest.raises(ConfigError, match=message):
                call()

    def test_fps_at_the_sample_rate_gives_one_frame_per_sample(self):
        clip = AudioClip(np.arange(SAMPLE_RATE) / SAMPLE_RATE, SAMPLE_RATE)
        assert frame_count(clip, float(SAMPLE_RATE)) == SAMPLE_RATE
        win = extract_frame_window(clip, 9, float(SAMPLE_RATE))
        np.testing.assert_array_equal(win[-10:], clip.samples[:10])

    def test_first_frame_is_left_padded(self):
        """t=0 at 30 fps covers [-2754, 1470): zeros then samples 0..1469."""
        rng = np.random.default_rng(0)
        clip = AudioClip(rng.uniform(-1, 1, 5000), SAMPLE_RATE)
        win = extract_frame_window(clip, 0, 30.0)
        assert win.shape == (WINDOW_SAMPLES,)
        assert WINDOW_SAMPLES == 4224
        np.testing.assert_array_equal(win[:2754], 0.0)
        np.testing.assert_array_equal(win[2754:], clip.samples[:1470])

    def test_third_frame_needs_no_padding(self):
        """t=2 ends at sample 4410 and begins at 186."""
        rng = np.random.default_rng(1)
        clip = AudioClip(rng.uniform(-1, 1, 5000), SAMPLE_RATE)
        win = extract_frame_window(clip, 2, 30.0)
        np.testing.assert_array_equal(win, clip.samples[186:4410])

    def test_zero_clip_gives_zero_window(self):
        clip = AudioClip(np.zeros(6000), SAMPLE_RATE)
        assert not np.any(extract_frame_window(clip, 1, 30.0))

    def test_window_past_clip_end_raises(self):
        clip = AudioClip(np.zeros(3000), SAMPLE_RATE)
        with pytest.raises(RangeError):
            extract_frame_window(clip, 2, 30.0)

    def test_negative_frame_raises(self):
        clip = AudioClip(np.zeros(3000), SAMPLE_RATE)
        with pytest.raises(RangeError):
            extract_frame_window(clip, -1, 30.0)

    @pytest.mark.parametrize("t", [1.5, 1.0, True, np.float64(2.0), "1", None])
    def test_frame_that_is_not_an_integer_raises(self, t):
        """Only an int or a numpy integer names a frame, as for FaceFrame: a
        fractional index would end between two frames' boundaries, and True
        is no frame 1."""
        clip = AudioClip(np.zeros(6000), SAMPLE_RATE)
        with pytest.raises(RangeError, match=re.escape(
                f"frame index must be a non-negative integer, got {t!r}")):
            extract_frame_window(clip, t, 30.0)
        np.testing.assert_array_equal(extract_frame_window(clip, np.int64(1), 30.0),
                                      extract_frame_window(clip, 1, 30.0))

    def test_no_lookahead(self):
        """Samples at or past the frame boundary never affect the window."""
        rng = np.random.default_rng(2)
        base = rng.uniform(-1, 1, 9000)
        t = 1
        end = frame_boundary(t, 30.0)
        mutated = base.copy()
        mutated[end:] = rng.uniform(-1, 1, 9000 - end)
        w1 = extract_frame_window(AudioClip(base, SAMPLE_RATE), t, 30.0)
        w2 = extract_frame_window(AudioClip(mutated, SAMPLE_RATE), t, 30.0)
        np.testing.assert_array_equal(w1, w2)


# =============================================================================
# Spectrograms
# =============================================================================

class TestSpectrogram:
    def test_zero_window_gives_zero_spectrogram(self):
        spec = compute_spectrogram(np.zeros(WINDOW_SAMPLES))
        assert spec.bands.shape == (NUM_BANDS, NUM_COLUMNS)
        assert not np.any(spec.bands)

    def test_wrong_length_raises(self):
        with pytest.raises(ShapeError):
            compute_spectrogram(np.zeros(WINDOW_SAMPLES - 1))

    @pytest.mark.parametrize("start,stop", [(0, 28), (28, 32), (5, 6), (0, 32)])
    def test_power_columns_are_the_windows_columns(self, start, stop):
        window = np.random.default_rng(2).uniform(-1, 1, WINDOW_SAMPLES)
        got = power_columns(window[start * HOP:(stop - 1) * HOP + FFT_SIZE])
        np.testing.assert_array_equal(got, compute_spectrogram(window).bands[:, start:stop])

    @pytest.mark.parametrize("length", [FFT_SIZE - 1, FFT_SIZE + 1, FFT_SIZE + HOP - 1])
    def test_power_columns_of_a_partial_column_raises(self, length):
        with pytest.raises(ShapeError, match=f"{length} samples do not span whole"):
            power_columns(np.zeros(length))

    def test_matches_naive_dft_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            window = rng.uniform(-1, 1, WINDOW_SAMPLES)
            got = compute_spectrogram(window).bands
            want = naive_power_spectrogram(window)
            denom = np.maximum(np.abs(want), 1e-12)
            assert np.max(np.abs(got - want) / denom) <= 1e-6

    def test_sine_at_bin8_peaks_in_band8(self):
        """1378.125 Hz (= 8 * 44100 / 256) concentrates power in band 8."""
        freq = 8 * SAMPLE_RATE / FFT_SIZE
        t = np.arange(WINDOW_SAMPLES) / SAMPLE_RATE
        spec = compute_spectrogram(np.sin(2 * np.pi * freq * t))
        assert np.all(np.argmax(spec.bands, axis=0) == 8)

    def test_nonnegative_power(self):
        rng = np.random.default_rng(4)
        spec = compute_spectrogram(rng.uniform(-1, 1, WINDOW_SAMPLES))
        assert np.all(spec.bands >= 0)

    def test_power_scales_with_amplitude_squared(self):
        rng = np.random.default_rng(5)
        window = rng.uniform(-0.5, 0.5, WINDOW_SAMPLES)
        p1 = compute_spectrogram(window).bands.sum()
        p2 = compute_spectrogram(2.0 * window).bands.sum()
        assert p2 == pytest.approx(4.0 * p1, rel=1e-5)

    def test_clip_spectrograms_no_lookahead(self):
        """Mutating future audio leaves earlier frame spectrograms unchanged."""
        rng = np.random.default_rng(6)
        base = rng.uniform(-1, 1, 3 * 1470 + 10)
        clip_a = AudioClip(base[:3 * 1470], SAMPLE_RATE)
        mutated = base[:3 * 1470].copy()
        mutated[frame_boundary(1, 30.0):] = 0.77
        clip_b = AudioClip(mutated, SAMPLE_RATE)
        specs_a = clip_spectrograms(clip_a, 30.0)
        specs_b = clip_spectrograms(clip_b, 30.0)
        assert len(specs_a) == 3
        for t in (0, 1):
            np.testing.assert_array_equal(specs_a[t].bands, specs_b[t].bands)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        clip = AudioClip(rng.uniform(-1, 1, 2 * 1470), SAMPLE_RATE)
        a = clip_spectrograms(clip, 30.0)
        b = clip_spectrograms(clip, 30.0)
        for sa, sb in zip(a, b):
            assert sa.bands.tobytes() == sb.bands.tobytes()
            assert sa.frame_index == sb.frame_index


# =============================================================================
# Normalization
# =============================================================================

def _random_specs(rng, n):
    return [
        Spectrogram(rng.uniform(0, 4, (NUM_BANDS, NUM_COLUMNS)), frame_index=i)
        for i in range(n)
    ]


class TestNormalization:
    def test_constant_corpus_floors_std(self):
        specs = [Spectrogram(np.full((NUM_BANDS, NUM_COLUMNS), 3.0), i) for i in range(3)]
        stats = fit_normalization(specs)
        np.testing.assert_allclose(stats.mean, 3.0)
        np.testing.assert_allclose(stats.std, 1e-6)

    def test_two_point_stats(self):
        """Bands holding {0, 2} equally give mean 1, std 1."""
        a = Spectrogram(np.zeros((NUM_BANDS, NUM_COLUMNS)), 0)
        b = Spectrogram(np.full((NUM_BANDS, NUM_COLUMNS), 2.0), 1)
        stats = fit_normalization([a, b])
        np.testing.assert_allclose(stats.mean, 1.0)
        np.testing.assert_allclose(stats.std, 1.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(8)
        specs = _random_specs(rng, 7)
        stats = fit_normalization(specs)
        pooled = np.concatenate([s.bands for s in specs], axis=1)
        np.testing.assert_allclose(stats.mean, pooled.mean(axis=1), rtol=1e-6)
        np.testing.assert_allclose(stats.std, pooled.std(axis=1), rtol=1e-6)

    def test_empty_dataset_raises(self):
        with pytest.raises(DataError):
            fit_normalization([])

    def test_normalize_mean_spec_to_zero(self):
        rng = np.random.default_rng(9)
        stats = NormStats(rng.uniform(1, 2, NUM_BANDS), rng.uniform(0.5, 1.5, NUM_BANDS))
        spec = Spectrogram(np.repeat(stats.mean[:, None], NUM_COLUMNS, axis=1), 0)
        out = normalize(spec, stats)
        np.testing.assert_allclose(out.bands, 0.0, atol=1e-12)

    def test_identity_stats(self):
        rng = np.random.default_rng(10)
        spec = _random_specs(rng, 1)[0]
        out = normalize(spec, NormStats.identity())
        np.testing.assert_allclose(out.bands, spec.bands, rtol=1e-7)

    def test_fitting_corpus_renormalizes_to_unit_stats(self):
        rng = np.random.default_rng(11)
        specs = _random_specs(rng, 9)
        stats = fit_normalization(specs)
        normed = np.concatenate([normalize(s, stats).bands for s in specs], axis=1)
        assert np.max(np.abs(normed.mean(axis=1))) < 1e-4
        assert np.max(np.abs(normed.std(axis=1) - 1.0)) < 1e-4

    def test_nonpositive_std_rejected(self):
        with pytest.raises(DataError):
            NormStats(np.zeros(NUM_BANDS), np.zeros(NUM_BANDS))
