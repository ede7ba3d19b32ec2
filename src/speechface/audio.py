"""WAV ingestion and the per-video-frame power spectrogram frontend.

Each video frame maps to the 4224 most recent audio samples (past-only; a
frame never sees audio beyond its own boundary, so the same code serves live
streaming). The window is analyzed as 32 Hann-windowed 256-point DFT frames
hopped by 128 samples, keeping power in bins 0..127.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binfile import Reader
from .errors import ConfigError, DataError, RangeError, ShapeError, check_real

SAMPLE_RATE = 44100
FFT_SIZE = 256
HOP = 128
NUM_BANDS = 128
NUM_COLUMNS = 32
WINDOW_SAMPLES = FFT_SIZE + (NUM_COLUMNS - 1) * HOP  # 4224, ~95.8 ms at 44.1 kHz
# Lowest declared WAV rate accepted (telephony). Resampling to SAMPLE_RATE
# multiplies the sample count by SAMPLE_RATE / rate, so a lower rate would
# let a small file ask for an unbounded allocation.
MIN_SAMPLE_RATE = 8000

# periodic Hann, the standard analysis window for hopped DFTs
_HANN = (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FFT_SIZE) / FFT_SIZE)).astype(np.float64)


def check_samples(samples: np.ndarray, what: str) -> None:
    """Raise DataError, naming ``what``, unless every sample is a finite
    value in [-1, 1]."""
    bad = len(samples) - np.count_nonzero((samples >= -1.0) & (samples <= 1.0))  # NaN fails both
    if bad:
        raise DataError(f"{what} rejected: {bad} of {len(samples)} samples "
                        "are not finite values in [-1, 1]")


def sample_array(samples, what: str, verb: str) -> np.ndarray:
    """``samples`` as a float64 array checked by :func:`check_samples`.
    Raise ShapeError, "``what`` ``verb`` a 1-d sample array", unless it is
    1-d (a ragged sequence included), and DataError if it holds complex or
    non-numeric values."""
    try:
        a = np.asarray(samples)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ShapeError(f"{what} {verb} a 1-d sample array, got a ragged sequence") from None
    if a.dtype.kind not in "biuf":
        raise DataError(f"{what} rejected: samples must be real numbers, got dtype {a.dtype}")
    a = a.astype(np.float64, copy=False)
    if a.ndim != 1:
        raise ShapeError(f"{what} {verb} a 1-d sample array, got shape {a.shape}")
    check_samples(a, what)
    return a


@dataclass
class AudioClip:
    """Mono waveform at 44.1 kHz with samples in [-1, 1]; a clip holding any
    other sample, NaN, Inf, complex and non-numeric values included, raises
    DataError, and any other rate raises ConfigError (:func:`load_wav`
    resamples to 44.1 kHz)."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = sample_array(self.samples, "AudioClip", "needs")
        if self.sample_rate != SAMPLE_RATE:
            raise ConfigError(f"AudioClip must be at {SAMPLE_RATE} Hz, got {self.sample_rate}")


@dataclass
class Spectrogram:
    """128 frequency bands x 32 time columns of signal power for one video frame."""

    bands: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        self.bands = np.asarray(self.bands, dtype=np.float64)
        if self.bands.shape != (NUM_BANDS, NUM_COLUMNS):
            raise ShapeError(
                f"spectrogram must be {NUM_BANDS}x{NUM_COLUMNS}, got {self.bands.shape}")


@dataclass
class NormStats:
    """Per-band mean and standard deviation pooled over time and corpus."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != (NUM_BANDS,) or self.std.shape != (NUM_BANDS,):
            raise ShapeError("normalization stats must have one mean and std per band")
        for name, values in (("mean", self.mean), ("std", self.std)):
            if not np.isfinite(values).all():
                raise DataError(f"normalization {name} must be finite")
        if not np.all(self.std > 0):
            raise DataError("normalization std entries must be strictly positive")

    def standardize(self, bands: np.ndarray) -> np.ndarray:
        """(value - mean[band]) / std[band] for a (128, n) array of any n columns."""
        return (bands - self.mean[:, None]) / self.std[:, None]

    @classmethod
    def identity(cls) -> "NormStats":
        return cls(np.zeros(NUM_BANDS), np.ones(NUM_BANDS))

    def to_bytes(self) -> bytes:
        """Mean then std, one little-endian float32 per band each.

        The float32 values are checked as :meth:`read` checks them, since the
        arrays may have changed since construction: stats that reader would
        reject raise DataError.
        """
        with np.errstate(over="ignore"):
            mean, std = np.asarray(self.mean, "<f4"), np.asarray(self.std, "<f4")
        NormStats(mean, std)
        return mean.tobytes() + std.tobytes()

    @classmethod
    def read(cls, r: Reader) -> "NormStats":
        """Read the :meth:`to_bytes` layout; invalid stats fail naming the
        byte where they start."""
        at = r.pos
        mean = r.array("<f4", NUM_BANDS, "normalization mean")
        std = r.array("<f4", NUM_BANDS, "normalization std")
        try:
            return cls(mean, std)
        except DataError as err:
            r.fail(f"normalization stats: {err}", at)


# ---------------------------------------------------------------------------
# WAV I/O


def load_wav(path) -> AudioClip:
    """Read a RIFF/WAVE file into a mono clip at 44.1 kHz.

    Accepts 16-bit integer or 32-bit float PCM with 1 or 2 channels. Stereo is
    averaged to mono; integer samples are scaled by 1/32768; float samples
    must be finite and are clipped to [-1, 1]; other sample rates, from 8000 Hz
    up, are linearly resampled to 44100.
    """
    r = Reader(path, b"RIFF")
    r.unpack("<I", "RIFF size")
    if r.take(4, "form type") != b"WAVE":
        r.fail("not a WAVE form", 8)
    fmt = data = None
    while r.left >= 8:  # fewer trailing bytes are tolerated
        at = r.pos
        cid, size = r.unpack("<4sI", "chunk header")
        body = r.take(size, f"chunk {cid!r}")
        if cid == b"fmt ":
            if size < 16:
                r.fail(f"fmt chunk too short ({size} bytes)", at)
            fmt = struct.unpack_from("<HHIIHH", body) + (at,)
        elif cid == b"data":
            data = (at + 8, size)
        r.take(min(size & 1, r.left), "pad byte")  # chunks are word-aligned
    if fmt is None:
        r.fail("no fmt chunk found", r.pos)
    if data is None:
        r.fail("no data chunk found", r.pos)
    codec, channels, rate, _byte_rate, _align, bits, fmt_pos = fmt
    if channels not in (1, 2):
        r.fail(f"unsupported channel count {channels} in the fmt chunk", fmt_pos)
    if rate < MIN_SAMPLE_RATE:
        r.fail(f"sample rate {rate} is below {MIN_SAMPLE_RATE} Hz in the fmt chunk", fmt_pos)
    dtype = {(1, 16): "<i2", (3, 32): "<f4"}.get((codec, bits))
    if dtype is None:
        r.fail(f"unsupported codec (format {codec}, {bits}-bit) in the fmt chunk", fmt_pos)

    r.pos, size = data
    samples = r.array(dtype, size // (bits // 8), "data chunk").astype(np.float64)
    del r, body  # the file's bytes: only the float64 samples are needed from here on
    if codec == 1:
        samples /= 32768.0
    else:
        np.clip(samples, -1.0, 1.0, out=samples)
    if channels == 2:
        samples = samples[: (len(samples) // 2) * 2].reshape(-1, 2).mean(axis=1)

    return AudioClip(resample_linear(samples, rate, SAMPLE_RATE), SAMPLE_RATE)


def write_wav(path, samples: np.ndarray, sample_rate: int = SAMPLE_RATE,
              fmt: str = "pcm16") -> None:
    """Write a mono or (n, channels) waveform as 16-bit PCM or 32-bit float.

    Finite samples are clipped to [-1, 1]; a NaN or Inf sample raises
    DataError before anything is written. So do a rate below
    MIN_SAMPLE_RATE (ConfigError) and a shape other than (n,) or (n, 1|2)
    (ShapeError), which :func:`load_wav` would reject, and a rate whose byte
    rate does not fit the header's 32 bits (ConfigError).
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] not in (1, 2):
        raise ShapeError(f"wav not written: samples must be (n,) or (n, 1|2), "
                         f"got shape {np.shape(samples)}")
    if sample_rate < MIN_SAMPLE_RATE:
        raise ConfigError(f"wav not written: sample rate {sample_rate} is below "
                          f"{MIN_SAMPLE_RATE} Hz")
    if fmt == "pcm16":
        codec, bits = 1, 16
    elif fmt == "float32":
        codec, bits = 3, 32
    else:
        raise ConfigError(f"unsupported wav format {fmt!r}")
    channels = arr.shape[1]
    block = channels * bits // 8
    if sample_rate * block > 0xFFFFFFFF:
        raise ConfigError(f"wav not written: sample rate {sample_rate} gives a byte rate "
                          f"over 2**32 - 1 for {channels} channel(s) of {fmt}")
    bad = arr.size - np.count_nonzero(np.isfinite(arr))
    if bad:
        raise DataError(f"wav not written: {bad} of {arr.size} samples are NaN or Inf")
    arr = np.clip(arr, -1.0, 1.0)
    if codec == 1:
        payload = np.round(arr * 32767.0).astype("<i2").tobytes()
    else:
        payload = arr.astype("<f4").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, codec, channels, sample_rate,
                                    sample_rate * block, block, bits)
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


def resample_linear(samples: np.ndarray, src_rate: int, dst_rate: int) -> np.ndarray:
    """Linear-interpolation resampling; output spans the same time range."""
    if src_rate == dst_rate:
        return np.asarray(samples, dtype=np.float64)
    n = len(samples)
    if n == 0:
        return np.zeros(0)
    new_len = (n - 1) * dst_rate // src_rate + 1
    t_new = np.arange(new_len) / dst_rate
    t_old = np.arange(n) / src_rate
    return np.interp(t_new, t_old, samples)


# ---------------------------------------------------------------------------
# frame windows and spectrograms


def check_fps(fps: float) -> float:
    """``fps`` as a float, once it is known to be a real number (not a bool),
    finite, positive and at most SAMPLE_RATE, so that frame boundaries lie
    at least one sample apart."""
    check_real("fps", fps)
    if not 0 < fps <= SAMPLE_RATE:  # also false for NaN
        raise ConfigError(f"fps must be in (0, {SAMPLE_RATE}], got {fps}")
    return float(fps)


def frame_boundary(t: int, fps: float) -> int:
    """Sample index just past video frame t: round((t+1) * 44100 / fps)."""
    return int(round((t + 1) * SAMPLE_RATE / fps))


def frame_count(clip: AudioClip, fps: float) -> int:
    """Number of whole video frames covered by the clip."""
    check_fps(fps)
    n = len(clip.samples)
    count = max(0, int(n * fps / SAMPLE_RATE) + 2)
    while count > 0 and frame_boundary(count - 1, fps) > n:
        count -= 1
    return count


def extract_frame_window(clip: AudioClip, t: int, fps: float) -> np.ndarray:
    """The 4224 samples ending at frame t's boundary, zero-padded on the left.

    Never reads any sample at or beyond the boundary, so outputs are valid in
    a live stream where later samples do not exist yet.
    """
    if t < 0:
        raise RangeError(f"frame index must be non-negative, got {t}")
    check_fps(fps)
    end = frame_boundary(t, fps)
    n = len(clip.samples)
    if end > n:
        raise RangeError(f"frame {t} ends at sample {end} but clip has only {n} samples")
    start = end - WINDOW_SAMPLES
    window = np.zeros(WINDOW_SAMPLES, dtype=np.float64)
    lo = max(start, 0)
    window[lo - start:] = clip.samples[lo:end]
    return window


def compute_spectrogram(window: np.ndarray, frame_index: int = 0) -> Spectrogram:
    """Power spectrogram of one 4224-sample window: 128 bands x 32 columns.

    Columns are 256-point DFTs at hop 128 under a periodic Hann window; band k
    holds |X[k]|^2 for k = 0..127 (the Nyquist bin is dropped).
    """
    window = np.asarray(window, dtype=np.float64)
    if window.shape != (WINDOW_SAMPLES,):
        raise ShapeError(f"window must have {WINDOW_SAMPLES} samples, got {window.shape}")
    return Spectrogram(power_columns(window), frame_index)


def power_columns(samples: np.ndarray) -> np.ndarray:
    """The power spectrogram columns of a run of samples: (128, n).

    ``samples`` spans n whole columns, 256 + (n - 1) * 128 samples, so
    column c here is column c0 + c of a window whose column c0 starts at the
    run's first sample. :func:`compute_spectrogram` is the 32-column case.
    """
    hops, rest = divmod(len(samples) - FFT_SIZE, HOP)
    if hops < 0 or rest:
        raise ShapeError(f"{len(samples)} samples do not span whole {FFT_SIZE}-sample "
                         f"columns at hop {HOP}")
    offsets = np.arange(hops + 1) * HOP
    frames = samples[offsets[:, None] + np.arange(FFT_SIZE)]  # (n, 256)
    spectrum = np.fft.rfft(frames * _HANN, axis=1)[:, :NUM_BANDS]
    power = (spectrum.real ** 2 + spectrum.imag ** 2)
    return power.T.copy()


def clip_spectrograms(clip: AudioClip, fps: float) -> list[Spectrogram]:
    """One raw spectrogram per whole video frame of the clip."""
    return [compute_spectrogram(extract_frame_window(clip, t, fps), t)
            for t in range(frame_count(clip, fps))]


def fit_normalization(specs) -> NormStats:
    """Per-band mean/std pooled over all time columns of all spectrograms."""
    specs = list(specs)
    if len(specs) == 0:
        raise DataError("cannot fit normalization on an empty dataset")
    if len(specs) < 2:
        raise DataError("normalization needs at least 2 spectrograms")
    pooled = np.concatenate([s.bands for s in specs], axis=1)
    mean = pooled.mean(axis=1)
    std = np.sqrt(((pooled - mean[:, None]) ** 2).mean(axis=1))
    return NormStats(mean, np.maximum(std, 1e-6))


def normalize(spec: Spectrogram, stats: NormStats) -> Spectrogram:
    """Standardize each band: (value - mean[band]) / std[band]."""
    return Spectrogram(stats.standardize(spec.bands), spec.frame_index)
