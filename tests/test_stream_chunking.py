"""Property test: how audio is cut into chunks never changes the frames."""

import numpy as np
import pytest

from speechface.audio import SAMPLE_RATE
from speechface.model import build_model
from speechface.stream import StreamingSession

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MODEL = build_model("cnn_gru", seed=4)
AUDIO = 0.3 * np.sin(2 * np.pi * 440.0 * np.arange(SAMPLE_RATE // 2) / SAMPLE_RATE) \
    + 0.05 * np.random.default_rng(4).standard_normal(SAMPLE_RATE // 2)
_WHOLE = {}  # fps -> frames of one push of all of AUDIO, the reference


def _frames(fps, sizes):
    """Push AUDIO in chunks of the given sizes, cycled; (indices, vectors)."""
    session = StreamingSession(MODEL, fps=fps)
    frames, pos, k = [], 0, 0
    while pos < len(AUDIO):
        frames += session.push(AUDIO[pos:pos + sizes[k % len(sizes)]])
        pos += sizes[k % len(sizes)]
        k += 1
    return [f.frame_index for f in frames], np.array([f.vector for f in frames])


@hypothesis.settings(max_examples=15, deadline=None, derandomize=True)
@hypothesis.given(fps=st.sampled_from([24.0, 29.97, 30.0, 60.0]),
                  sizes=st.lists(st.integers(min_value=1, max_value=6000), min_size=1, max_size=8))
def test_any_chunking_gives_bit_identical_frames(fps, sizes):
    if fps not in _WHOLE:
        _WHOLE[fps] = _frames(fps, [len(AUDIO)])
    want_idx, want = _WHOLE[fps]
    got_idx, got = _frames(fps, sizes)
    assert got_idx == want_idx == list(range(len(want_idx)))
    assert got.tobytes() == want.tobytes()
