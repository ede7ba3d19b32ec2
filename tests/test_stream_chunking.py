"""Property test: how audio is cut into chunks, and which rejected chunks are
pushed between them, never changes the frames."""

import numpy as np
import pytest

from speechface.audio import SAMPLE_RATE
from speechface.errors import DataError
from speechface.model import build_model
from speechface.stream import StreamingSession

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MODEL = build_model("cnn_gru", seed=4)
AUDIO = 0.3 * np.sin(2 * np.pi * 440.0 * np.arange(SAMPLE_RATE // 2) / SAMPLE_RATE) \
    + 0.05 * np.random.default_rng(4).standard_normal(SAMPLE_RATE // 2)
_WHOLE = {}  # fps -> frames of one push of all of AUDIO, the reference


def _frames(fps, sizes, rejected=()):
    """Push AUDIO in chunks of the given sizes, cycled; (indices, vectors).

    Each ``(k, value, length, at)`` in ``rejected`` pushes, before the k-th
    chunk, the next ``length`` samples of AUDIO with one sample replaced by
    ``value``, and expects the session to refuse it.
    """
    session = StreamingSession(MODEL, fps=fps)
    frames, pos, k = [], 0, 0
    while pos < len(AUDIO):
        for when, value, length, at in rejected:
            if when == k:
                chunk = AUDIO[pos:pos + length].copy()
                chunk[at % len(chunk)] = value
                with pytest.raises(DataError, match="chunk rejected"):
                    session.push(chunk)
        frames += session.push(AUDIO[pos:pos + sizes[k % len(sizes)]])
        pos += sizes[k % len(sizes)]
        k += 1
    return [f.frame_index for f in frames], np.array([f.vector for f in frames])


@hypothesis.settings(max_examples=15, deadline=None, derandomize=True)
@hypothesis.given(fps=st.sampled_from([24.0, 29.97, 30.0, 60.0]),
                  sizes=st.lists(st.integers(min_value=1, max_value=6000), min_size=1, max_size=8),
                  rejected=st.lists(st.tuples(
                      st.integers(min_value=0, max_value=8),
                      st.sampled_from([np.nan, np.inf, -np.inf, 1e200, 1.0 + 2 ** -52, -1.5]),
                      st.integers(min_value=1, max_value=6000),
                      st.integers(min_value=0, max_value=5999)), max_size=4))
def test_any_chunking_gives_bit_identical_frames(fps, sizes, rejected):
    if fps not in _WHOLE:
        _WHOLE[fps] = _frames(fps, [len(AUDIO)])
    want_idx, want = _WHOLE[fps]
    got_idx, got = _frames(fps, sizes, rejected)
    assert got_idx == want_idx == list(range(len(want_idx)))
    assert got.tobytes() == want.tobytes()
