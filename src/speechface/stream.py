"""Real-time streaming inference and latency measurement.

A StreamingSession accepts audio in arbitrary-size chunks and emits one
FaceFrame per video-frame interval, each computed from exactly the 4224
samples ending at that frame's boundary. Nothing is ever read past the
boundary, so output depends only on already-heard audio.
"""

from __future__ import annotations

import time

import numpy as np

from . import autograd as ag
from .audio import (FFT_SIZE, HOP, WINDOW_SAMPLES, NormStats, check_fps, frame_boundary,
                    power_columns, sample_array)
from .errors import ConfigError, DataError, SpeechFaceError, is_int
from .model import Model, _assemble, forward_split

# A frame's first HEAD_START_COLUMNS spectrogram columns end HEAD_START_LEAD
# samples, one 512-sample sound-card period (11.6 ms), before its boundary.
# They run through the column stages ahead of it, as the frame's head start;
# its last LATE_SAMPLES samples make the remaining columns.
HEAD_START_COLUMNS = 28
HEAD_START_LEAD = WINDOW_SAMPLES - FFT_SIZE - (HEAD_START_COLUMNS - 1) * HOP
LATE_SAMPLES = WINDOW_SAMPLES - HEAD_START_COLUMNS * HOP

# bench times frames at BENCH_FPS on seeded noise, after BENCH_WARMUP untimed ones
BENCH_FPS = 30.0
BENCH_SEED = 0
BENCH_WARMUP = 5


class StreamingSession:
    """Stateful per-stream decoder: push samples, collect FaceFrames.

    Audio must already be mono at 44100 Hz. The session keeps only the most
    recent window of samples plus the recurrent state, so memory use is
    constant regardless of stream length.

    Each frame runs its first 28 spectrogram columns through the
    frequency-only stages of the trunk (conv1 to conv5) separately from its
    last 4. A push that emits no frame but has heard the first 28 columns of
    the next frame, which end 512 samples before its boundary, runs them at
    its end, so the push that reaches the boundary has only the last 4
    columns and the rest of the network left to run. Otherwise the boundary
    push runs both groups. The split is the same either way, so frames are
    bit-identical under any chunking.

    The first :meth:`push` copies the model's weights, batch-norm statistics
    and normalization stats into a float64 model, once, and every frame of
    the session runs on that copy, so no op upcasts a weight per frame.
    ``session.model`` stays the caller's object, but a change to its weights
    after the first push, in place or not, does not reach this session's
    frames; a new session sees it. :meth:`reset` keeps the copy.
    """

    def __init__(self, model: Model, fps: float = 30.0):
        self.model = model
        self.fps = check_fps(fps)
        self._model64 = None  # the float64 copy, made by the first push
        self.reset()

    def reset(self) -> None:
        """Start a new stream: zero the recurrent state, the buffered audio
        and the frame count, and drop the head start. The float64 copy of the
        model is kept."""
        self.state = self.model.initial_state()
        self.frames_emitted = 0
        self._tail = np.zeros(WINDOW_SAMPLES)  # last 4224 samples, zero-primed
        self._heard = 0  # absolute sample count pushed so far
        self._early = None  # the next frame's head start, once a push has run it

    def push(self, samples) -> list:
        """Consume a chunk; return the FaceFrames whose boundaries it crossed.

        A chunk is consumed whole or not at all. As in :class:`AudioClip`, it
        must be a 1-d sample array, and its samples must lie in [-1, 1]. A
        chunk of any other shape raises ShapeError up front, and one holding
        any sample outside [-1, 1], NaN or Inf included, or a complex or
        non-numeric value, raises DataError up front. A chunk whose audio
        makes a frame fail raises naming that frame, or the next frame's
        head start if that fails. Either way the buffered audio, the frame
        count, the recurrent state and the head start stay as they were
        before the chunk. They are assigned once, after the chunk's frames
        and head start have run, so any other exception, KeyboardInterrupt
        included, propagates and leaves them unchanged too.
        """
        samples = sample_array(samples, "chunk", "must be")
        # buf[i] is absolute sample first + i; the session changes only at the end
        buf = np.concatenate([self._tail, samples])
        first = self._heard - WINDOW_SAMPLES
        model = self._model64 or _float64_copy(self.model)
        state, t, early, emitted = self.state, self.frames_emitted, self._early, []
        try:
            while (at := frame_boundary(t, self.fps) - first) <= len(buf):
                if early is None:
                    early = _head_start(model, buf, at)
                late = model.norm_stats.standardize(power_columns(buf[at - LATE_SAMPLES:at]))
                frame, state = forward_split(model, late, state, t, early)
                emitted.append(frame)
                t, early = t + 1, None
            if not emitted and early is None and at - HEAD_START_LEAD <= len(buf):
                early = _head_start(model, buf, at)
        except SpeechFaceError as err:
            raise DataError(f"chunk rejected at frame {t}: {err}") from None
        self._tail, self._heard = buf[-WINDOW_SAMPLES:].copy(), self._heard + len(samples)
        self.frames_emitted, self.state, self._early, self._model64 = t, state, early, model
        return emitted


def _head_start(model: Model, buf: np.ndarray, at: int) -> ag.Tensor:
    """The first HEAD_START_COLUMNS columns of the frame whose boundary falls
    at index ``at`` of ``buf``, normalized and run through the model's column
    stages: (1, C, 1, 28)."""
    samples = buf[at - WINDOW_SAMPLES:at - HEAD_START_LEAD]
    x = ag.Tensor(model.norm_stats.standardize(power_columns(samples))[None, None])
    with ag.no_grad():
        for _, x in model.stages(x, training=False, stop=model.arch.column_stages):
            pass
    return x


def _float64_copy(model: Model) -> Model:
    """A float64 model holding copies of ``model``'s arrays and norm stats.

    Filled as :func:`~.model.load_checkpoint` fills a model. ``copy.copy``
    would cache ``__slotnames__`` on the classes it copies, which changes them.
    """
    f64 = _assemble(model.variant, lambda shape, *fans: np.empty(shape), np.float64)
    for (_, dst), (_, src) in zip(f64.named_arrays(), model.named_arrays()):
        np.copyto(dst, src)
    f64.norm_stats = NormStats(model.norm_stats.mean.copy(), model.norm_stats.std.copy())
    return f64


def bench(model: Model, iters: int = 100) -> dict:
    """Median/p95 wall time of one frame's work on a live session.

    Pushes random audio into a StreamingSession one frame interval at a
    time, so each timed push buffers the audio and emits exactly one frame.
    """
    if not is_int(iters):
        raise ConfigError(f"iters must be an integer, got {iters!r}")
    if iters < 1:
        raise ConfigError(f"iters must be positive, got {iters}")
    session = StreamingSession(model, BENCH_FPS)
    rng = np.random.default_rng(BENCH_SEED)
    times = []
    start = 0
    for i in range(BENCH_WARMUP + iters):
        stop = frame_boundary(i, BENCH_FPS)
        chunk = rng.standard_normal(stop - start) * 0.1  # per push: memory stays flat in iters
        t0 = time.perf_counter()
        session.push(chunk)
        times.append(time.perf_counter() - t0)
        start = stop
    kept = np.array(times[BENCH_WARMUP:])
    median = float(np.median(kept))
    return {
        "variant": model.variant,
        "iters": iters,
        "median_ms": median * 1000.0,
        "p95_ms": float(np.percentile(kept, 95)) * 1000.0,
        "fps": (1.0 / median) if median > 0 else float("inf"),
        "budget_ms": 1000.0 / BENCH_FPS,
    }
