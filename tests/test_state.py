"""The recurrent-state interface and the batched-only op contract."""

import numpy as np
import pytest

from speechface.audio import NUM_BANDS, NUM_COLUMNS
from speechface.autograd import (
    GRUParams,
    LSTMParams,
    Tensor,
    conv2d,
    dense,
    gru_step,
    lstm_step,
    max_pool2d,
)
from speechface.errors import ConfigError, ShapeError
from speechface.model import STANDARD_ARCH, VARIANTS, build_model, forward

HID = STANDARD_ARCH.hidden
STATE_ARRAYS = {"cnn_static": 0, "cnn_lstm": 2, "cnn_gru": 1}


def random_spec(rng):
    return rng.normal(size=(NUM_BANDS, NUM_COLUMNS))


# =============================================================================
# Model.initial_state / Model.recur / forward state
# =============================================================================

class TestRecurrentState:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_initial_state_layout(self, variant):
        model = build_model(variant, seed=0)
        state = model.initial_state()
        assert isinstance(state, tuple)
        assert len(state) == STATE_ARRAYS[variant]
        for arr in state:
            assert arr.shape == (1, HID) and arr.dtype == np.float64
            assert not arr.any()
        batched = model.initial_state(5, np.float32)
        assert [a.shape for a in batched] == [(5, HID)] * STATE_ARRAYS[variant]
        assert all(a.dtype == np.float32 for a in batched)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_forward_returns_state_of_same_layout(self, variant):
        rng = np.random.default_rng(1)
        model = build_model(variant, seed=2)
        spec = random_spec(rng)
        frame, state = forward(model, spec)
        assert isinstance(state, tuple)
        assert [a.shape for a in state] == [(1, HID)] * STATE_ARRAYS[variant]
        assert all(a.dtype == np.float64 and np.any(a) for a in state)
        explicit, state2 = forward(model, spec, model.initial_state())
        assert explicit.vector.tobytes() == frame.vector.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(state, state2))

    def test_state_of_another_variant_rejected(self):
        spec = random_spec(np.random.default_rng(2))
        gru_state = build_model("cnn_gru").initial_state()
        with pytest.raises(ConfigError, match="cnn_lstm state holds 2 arrays, got 1"):
            forward(build_model("cnn_lstm"), spec, gru_state)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_recur_advances_batched_state(self, variant):
        model = build_model(variant, seed=3)
        x = Tensor(np.random.default_rng(4).normal(size=(3, HID)))
        out, state = model.recur(x, tuple(map(Tensor, model.initial_state(3))))
        assert len(state) == STATE_ARRAYS[variant]
        if variant == "cnn_static":
            assert out is x
        else:
            assert out is state[0]
            assert all(s.shape == (3, HID) for s in state)


# =============================================================================
# Ops take batched operands only
# =============================================================================

class TestUnbatchedRejected:
    def test_dense(self):
        w = Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            dense(Tensor(np.zeros(4)), w)
        with pytest.raises(ShapeError):
            dense(Tensor(np.zeros((1, 2, 4))), w)

    def test_conv2d(self):
        w = Tensor(np.zeros((2, 1, 3, 1)))
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 5, 3))), w)

    def test_max_pool2d(self):
        with pytest.raises(ShapeError):
            max_pool2d(Tensor(np.zeros((1, 4, 4))), (2, 2))

    def test_lstm_step(self):
        d, hid = 6, 4
        params = LSTMParams(Tensor(np.zeros((4 * hid, d))), Tensor(np.zeros((4 * hid, hid))),
                            Tensor(np.zeros(4 * hid)))
        with pytest.raises(ShapeError):
            lstm_step(Tensor(np.zeros(d)), (Tensor(np.zeros(hid)), Tensor(np.zeros(hid))), params)
        with pytest.raises(ShapeError):
            lstm_step(Tensor(np.zeros((1, d))),
                      (Tensor(np.zeros(hid)), Tensor(np.zeros(hid))), params)

    def test_gru_step(self):
        d, hid = 5, 4
        params = GRUParams(Tensor(np.zeros((3 * hid, d))), Tensor(np.zeros((2 * hid, hid))),
                           Tensor(np.zeros((hid, hid))), Tensor(np.zeros(3 * hid)))
        with pytest.raises(ShapeError):
            gru_step(Tensor(np.zeros(d)), Tensor(np.zeros(hid)), params)
        with pytest.raises(ShapeError):
            gru_step(Tensor(np.zeros((1, d))), Tensor(np.zeros(hid)), params)
