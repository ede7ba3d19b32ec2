"""Tensor op tests: forward oracles plus finite-difference gradient checks.

Forward behaviour is verified against naive loop implementations written
directly from the op definitions (quadruple-loop convolution, window-scan
pooling, per-gate recurrent cells). Gradients are verified in 64-bit mode
against the central-difference oracle in ``_gradcheck``.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from speechface import autograd as ag
from speechface.autograd import (
    BatchNormState,
    ConvBnReluPool,
    GRUParams,
    LSTMParams,
    Parameter,
    Tensor,
    add,
    batch_norm,
    conv2d,
    conv_stage,
    dense,
    gru_step,
    lstm_step,
    max_pool2d,
    mul,
    narrow,
    no_grad,
    relu,
    reshape,
    sigmoid,
    sub,
    sum_all,
    take_rows,
    tanh,
)
from speechface.errors import ConfigError, ShapeError, StateError

from _gradcheck import check_gradients, rel_error

# the largest block of samples a training stage's temporaries take
_ROW_BLOCK = max(ag._BLOCK_BYTES, ag._GEMM_BLOCK_BYTES)


# =============================================================================
# Naive oracles
# =============================================================================

def conv2d_naive(x, w, b, stride, pad):
    """Quadruple-loop cross-correlation, the reference for conv2d."""
    nb, c_in, f_in, t_in = x.shape
    c_out, _, k_f, k_t = w.shape
    s_f, s_t = stride
    p_f, p_t = pad
    xp = np.zeros((nb, c_in, f_in + 2 * p_f, t_in + 2 * p_t), dtype=x.dtype)
    xp[:, :, p_f:p_f + f_in, p_t:p_t + t_in] = x
    f_out = (f_in + 2 * p_f - k_f) // s_f + 1
    t_out = (t_in + 2 * p_t - k_t) // s_t + 1
    out = np.zeros((nb, c_out, f_out, t_out), dtype=x.dtype)
    for n in range(nb):
        for co in range(c_out):
            for fo in range(f_out):
                for to in range(t_out):
                    patch = xp[n, :, fo * s_f:fo * s_f + k_f, to * s_t:to * s_t + k_t]
                    out[n, co, fo, to] = np.sum(patch * w[co])
            if b is not None:
                out[n, co] += b[co]
    return out


def max_pool_naive(x, window, stride):
    nb, c, f_in, t_in = x.shape
    w_f, w_t = window
    s_f, s_t = stride
    f_out = (f_in - w_f) // s_f + 1
    t_out = (t_in - w_t) // s_t + 1
    out = np.zeros((nb, c, f_out, t_out), dtype=x.dtype)
    for n in range(nb):
        for ch in range(c):
            for fo in range(f_out):
                for to in range(t_out):
                    out[n, ch, fo, to] = x[
                        n, ch, fo * s_f:fo * s_f + w_f, to * s_t:to * s_t + w_t
                    ].max()
    return out


def max_pool_grad_naive(x, g, window, stride):
    """Input gradient of max pooling: each window's upstream gradient goes to
    its first maximum in row-major window order (np.argmax's tie rule)."""
    (w_f, w_t), (s_f, s_t) = window, stride
    gx = np.zeros_like(x)
    for n, ch, fo, to in np.ndindex(g.shape):
        win = x[n, ch, fo * s_f:fo * s_f + w_f, to * s_t:to * s_t + w_t]
        i, j = np.unravel_index(np.argmax(win), win.shape)
        gx[n, ch, fo * s_f + i, to * s_t + j] += g[n, ch, fo, to]
    return gx


def _sig(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_step_naive(x, h, c, w_x, w_h, b):
    """Per-gate LSTM update with fused weights stacked (i, f, g, o)."""
    hid = h.shape[-1]
    z = x @ w_x.T + h @ w_h.T + b
    i = _sig(z[..., 0 * hid:1 * hid])
    f = _sig(z[..., 1 * hid:2 * hid])
    g = np.tanh(z[..., 2 * hid:3 * hid])
    o = _sig(z[..., 3 * hid:4 * hid])
    c2 = f * c + i * g
    return o * np.tanh(c2), c2


def gru_step_naive(x, h, w_x, w_h, w_c, b):
    """GRU update: gates (z, r) then a reset-gated candidate."""
    hid = h.shape[-1]
    gates_x = x @ w_x.T + b
    gates_h = h @ w_h.T
    z = _sig(gates_x[..., 0 * hid:1 * hid] + gates_h[..., 0 * hid:1 * hid])
    r = _sig(gates_x[..., 1 * hid:2 * hid] + gates_h[..., 1 * hid:2 * hid])
    cand = np.tanh(gates_x[..., 2 * hid:3 * hid] + (r * h) @ w_c.T)
    return h + z * (cand - h)


def batch_norm_naive_train(x, gamma, beta, eps):
    axes = (0,) + tuple(range(2, x.ndim))
    mu = x.mean(axis=axes)
    var = x.var(axis=axes)  # biased
    bshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    xhat = (x - mu.reshape(bshape)) / np.sqrt(var.reshape(bshape) + eps)
    return gamma.reshape(bshape) * xhat + beta.reshape(bshape), mu, var


def _proj_loss(out, proj):
    """Scalar loss: sum of out * proj with a constant projection."""
    return sum_all(mul(out, Tensor(proj)))


# =============================================================================
# Tensor basics
# =============================================================================

class TestTensorBasics:
    def test_default_dtype_is_float32(self):
        t = Tensor([1.0, 2.0])
        assert t.data.dtype == np.float32

    def test_float64_arrays_pass_through(self):
        a = np.zeros(3, dtype=np.float64)
        assert Tensor(a).data.dtype == np.float64

    def test_backward_before_forward_raises(self):
        t = Tensor([1.0], requires_grad=True)
        with pytest.raises(StateError):
            t.backward()

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(4), requires_grad=True)
        y = relu(x)
        with pytest.raises(ShapeError):
            y.backward()

    def test_grad_accumulates_across_uses(self):
        """A tensor used twice receives the sum of both branch gradients."""
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = sum_all(add(mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0, 7.0], rtol=1e-6)

    def test_no_grad_suppresses_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = sum_all(mul(x, x))
        assert not y.requires_grad
        with pytest.raises(StateError):
            y.backward()

    def test_parameter_is_named_and_trainable(self):
        p = Parameter("w", np.zeros((2, 2)))
        assert p.name == "w"
        assert p.requires_grad


# =============================================================================
# Elementwise and shape ops
# =============================================================================

class TestElementwise:
    def test_add_sub_mul_values(self):
        a = Tensor(np.array([1.0, -2.0, 3.0]))
        b = Tensor(np.array([0.5, 4.0, -1.0]))
        np.testing.assert_allclose(add(a, b).data, [1.5, 2.0, 2.0])
        np.testing.assert_allclose(sub(a, b).data, [0.5, -6.0, 4.0])
        np.testing.assert_allclose(mul(a, b).data, [0.5, -8.0, -3.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_activation_ranges(self):
        """sigmoid in (0,1), tanh in (-1,1), relu >= 0 for finite inputs."""
        rng = np.random.default_rng(0)
        x = Tensor(np.clip(rng.normal(scale=20.0, size=1000), -14, 14))
        s = sigmoid(x).data
        t = tanh(x).data
        r = relu(x).data
        assert np.all((s > 0) & (s < 1))
        assert np.all((t > -1) & (t < 1))
        assert np.all(r >= 0)
        # extreme finite inputs saturate but never leave the closed bounds
        big = Tensor(np.array([-1e6, 1e6]))
        assert np.all((sigmoid(big).data >= 0) & (sigmoid(big).data <= 1))
        assert np.all((tanh(big).data >= -1) & (tanh(big).data <= 1))

    def test_relu_zeroes_negatives(self):
        x = Tensor(np.array([-2.0, 0.0, 3.5]))
        np.testing.assert_array_equal(relu(x).data, [0.0, 0.0, 3.5])


class TestShapeOps:
    def test_reshape_roundtrip(self):
        x = Tensor(np.arange(24, dtype=np.float32), requires_grad=True)
        y = reshape(x, (4, 6))
        assert y.shape == (4, 6)
        s = sum_all(mul(y, y))
        s.backward()
        assert x.grad.shape == (24,)

    def test_narrow_slices(self):
        x = Tensor(np.arange(20, dtype=np.float32).reshape(4, 5))
        y = narrow(x, 1, 1, 4)
        np.testing.assert_array_equal(y.data, x.data[:, 1:4])

    def test_take_rows_gathers_and_scatters(self):
        x = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3), requires_grad=True)
        idx = [2, 0, 2]
        y = take_rows(x, idx)
        np.testing.assert_array_equal(y.data, x.data[idx])
        sum_all(y).backward()
        # row 2 picked twice, row 0 once, rows 1 and 3 never
        np.testing.assert_array_equal(x.grad[:, 0], [1.0, 0.0, 2.0, 0.0])

    def test_take_rows_out_of_range(self):
        x = Tensor(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            take_rows(x, [0, 3])

    def test_sum_all_is_total(self):
        x = Tensor(np.full((3, 4), 0.25))
        assert float(sum_all(x).data) == pytest.approx(3.0)


# =============================================================================
# Dense
# =============================================================================

class TestDense:
    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 7))
        w = rng.normal(size=(3, 7))
        b = rng.normal(size=3)
        out = dense(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b, rtol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            dense(Tensor(np.ones((2, 5))), Tensor(np.ones((3, 4))))


# =============================================================================
# Convolution
# =============================================================================

class TestConv2d:
    def test_matches_naive_oracle_small_dims(self):
        """Random instances with dims <= 8, sweeping stride and padding."""
        rng = np.random.default_rng(7)
        for trial in range(20):
            nb = int(rng.integers(1, 4))
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 5))
            k_f = int(rng.integers(1, 4))
            k_t = int(rng.integers(1, 4))
            s = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            p = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            f_in = int(rng.integers(k_f, 9))
            t_in = int(rng.integers(k_t, 9))
            x = rng.normal(size=(nb, c_in, f_in, t_in))
            w = rng.normal(size=(c_out, c_in, k_f, k_t))
            b = rng.normal(size=c_out)
            got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=s, pad=p).data
            want = conv2d_naive(x, w, b, s, p)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_matches_naive_on_wide_output(self):
        """A wide output: 320 positions per sample, two samples."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 20, 16))
        w = rng.normal(size=(4, 3, 3, 3))
        got = conv2d(Tensor(x), Tensor(w), None, stride=(1, 1), pad=(1, 1)).data
        want = conv2d_naive(x, w, None, (1, 1), (1, 1))
        assert got.shape == (2, 4, 20, 16)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 8, 8)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        with pytest.raises(ShapeError):
            conv2d(x, w, None, stride=(1, 1), pad=(1, 1))

    def test_kernel_larger_than_input_raises(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        w = Tensor(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ShapeError):
            conv2d(x, w, None, stride=(1, 1), pad=(0, 0))


# =============================================================================
# Pooling
# =============================================================================

class TestMaxPool:
    def test_matches_naive_two_tap(self):
        """Non-overlapping 2x1 pooling, the architecture's common case."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 5, 8, 6))
        got = max_pool2d(Tensor(x), (2, 1)).data
        np.testing.assert_array_equal(got, max_pool_naive(x, (2, 1), (2, 1)))

    def test_matches_naive_general(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, 7, 7))
        for window, stride in [((2, 2), (2, 2)), ((3, 2), (2, 1)), ((2, 1), (1, 1))]:
            got = max_pool2d(Tensor(x), window, stride).data
            np.testing.assert_array_equal(got, max_pool_naive(x, window, stride))

    def test_odd_trailing_rows_are_dropped(self):
        x = np.arange(5, dtype=np.float32).reshape(1, 1, 5, 1)
        out = max_pool2d(Tensor(x), (2, 1)).data
        np.testing.assert_array_equal(out.ravel(), [1.0, 3.0])

    def test_gradient_routes_to_argmax_only(self):
        x = np.array([[[[1.0], [4.0], [2.0], [2.0]]]])  # windows (1,4) and (2,2)
        t = Tensor(x, requires_grad=True)
        sum_all(max_pool2d(t, (2, 1))).backward()
        # second window ties; first occurrence wins
        np.testing.assert_array_equal(t.grad.ravel(), [0.0, 1.0, 1.0, 0.0])

    def test_gradient_mass_is_conserved(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 4, 8, 6)), requires_grad=True)
        out = max_pool2d(x, (2, 2))
        g = rng.normal(size=out.shape)
        sum_all(mul(out, Tensor(g))).backward()
        assert float(x.grad.sum()) == pytest.approx(float(g.sum()), rel=1e-10)

    @pytest.mark.parametrize("window,stride", [((2, 2), (2, 2)), ((2, 1), (1, 1))])
    def test_gradient_with_ties_goes_to_first_maximum(self, window, stride):
        """Exact ties inside a window, and with overlapping windows inputs that
        win more than one window: each window's gradient goes to its first
        maximum, and an input sums what it wins."""
        rng = np.random.default_rng(40)
        x = rng.integers(0, 3, size=(2, 3, 7, 6)).astype(np.float64)
        t = Tensor(x, requires_grad=True)
        out = max_pool2d(t, window, stride)
        g = rng.normal(size=out.shape)
        (w_f, w_t), (s_f, s_t) = window, stride
        assert any(np.count_nonzero(x[n, c, f * s_f:f * s_f + w_f, u * s_t:u * s_t + w_t]
                                    == out.data[n, c, f, u]) > 1
                   for n, c, f, u in np.ndindex(out.shape))
        sum_all(mul(out, Tensor(g))).backward()
        np.testing.assert_array_equal(t.grad, max_pool_grad_naive(x, g, window, stride))

    def test_tape_holds_only_input_and_output(self):
        """A 2x2 node keeps nothing beyond its output: no argmax array and no
        stacked copy of the taps."""
        x = Tensor(np.random.default_rng(41).normal(size=(4, 4, 64, 64)), requires_grad=True)
        tracemalloc.start()
        try:
            out = max_pool2d(x, (2, 2))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.data.nbytes == 128 << 10
        assert held <= out.data.nbytes + (64 << 10), held

    def test_window_exceeding_input_raises(self):
        with pytest.raises(ShapeError):
            max_pool2d(Tensor(np.zeros((1, 1, 2, 2))), (3, 1))


# =============================================================================
# Batch normalization
# =============================================================================

class TestBatchNorm:
    def test_training_matches_naive(self):
        rng = np.random.default_rng(12)
        x = rng.normal(loc=1.5, scale=2.0, size=(4, 3, 5, 2))
        state = BatchNormState("bn", 3, dtype=np.float64)
        state.gamma.data[:] = rng.normal(size=3)
        state.beta.data[:] = rng.normal(size=3)
        got = batch_norm(Tensor(x), state, training=True).data
        want, _, _ = batch_norm_naive_train(x, state.gamma.data, state.beta.data, state.epsilon)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_running_stats_update_with_momentum(self):
        rng = np.random.default_rng(13)
        x = rng.normal(loc=3.0, size=(6, 2, 4, 4))
        state = BatchNormState("bn", 2, dtype=np.float64)
        batch_norm(Tensor(x), state, training=True)
        _, mu, var = batch_norm_naive_train(x, np.ones(2), np.zeros(2), state.epsilon)
        np.testing.assert_allclose(state.running_mean, 0.1 * mu, rtol=1e-7)
        np.testing.assert_allclose(state.running_var, 0.9 * 1.0 + 0.1 * var, rtol=1e-7)

    def test_inference_uses_running_stats(self):
        state = BatchNormState("bn", 2, dtype=np.float64)
        state.running_mean[:] = [1.0, -1.0]
        state.running_var[:] = [4.0, 0.25]
        x = np.ones((1, 2, 2, 2))
        out = batch_norm(Tensor(x), state, training=False).data
        want0 = (1.0 - 1.0) / np.sqrt(4.0 + state.epsilon)
        want1 = (1.0 + 1.0) / np.sqrt(0.25 + state.epsilon)
        np.testing.assert_allclose(out[0, 0], want0, rtol=1e-9)
        np.testing.assert_allclose(out[0, 1], want1, rtol=1e-9)

    def test_fresh_state_is_identity_normalizer(self):
        """Untrained running stats are mean 0 / var 1."""
        state = BatchNormState("bn", 3)
        x = np.random.default_rng(14).normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = batch_norm(Tensor(x), state, training=False).data
        np.testing.assert_allclose(out, x / np.sqrt(1.0 + state.epsilon), rtol=1e-6)

    def test_training_needs_batch_of_two(self):
        state = BatchNormState("bn", 2)
        with pytest.raises(ConfigError):
            batch_norm(Tensor(np.zeros((1, 2, 4, 4))), state, training=True)

    def test_channel_mismatch(self):
        state = BatchNormState("bn", 2)
        with pytest.raises(ShapeError):
            batch_norm(Tensor(np.zeros((2, 3, 4, 4))), state, training=True)

    def test_float32_input_with_float64_state_spanning_blocks(self):
        """The float64 output gradient is twice as wide as the float32
        input, so each splits into its own blocks of samples (6 of one
        sample against 3 of two here); backward must still pair every
        gradient sample with its own input sample. Compared with the same
        input cast to float64, which differs only by the float32 mean and
        variance."""
        rng = np.random.default_rng(15)
        x = rng.normal(loc=0.5, size=(6, 64, 32, 32)).astype(np.float32)
        gamma = rng.normal(size=64)
        beta = rng.normal(size=64)
        proj = rng.normal(size=x.shape)
        grads = []
        for xv in (x, x.astype(np.float64)):
            state = BatchNormState("bn", 64, dtype=np.float64)
            state.gamma.data[:], state.beta.data[:] = gamma, beta
            tx = Tensor(xv, requires_grad=True)
            _proj_loss(batch_norm(tx, state, training=True), proj).backward()
            grads.append([tx.grad, state.gamma.grad, state.beta.grad])
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4 * np.abs(want).max())


def _chain(x, w, b, stride, pad, state, window):
    """The unfused ops that conv_stage stands for."""
    out = conv2d(x, w, b, stride, pad)
    if state is not None:
        out = batch_norm(out, state, training=True)
    out = relu(out)
    return out if window is None else max_pool2d(out, window)


def _stage_run(fused, x, w, b, conv, bn, window, proj):
    """Output, the x/w gradients, and the b gradient or the gamma/beta
    gradients and the running stats of one stage, by name, as one
    conv_stage node or as the unfused chain; ``bn`` holds gamma and beta,
    or is None for a stage without batch norm, which takes the bias b."""
    state = tb = None
    if bn is not None:
        state = BatchNormState("bn", w.shape[0], dtype=x.dtype)
        state.gamma.data[:], state.beta.data[:] = bn
    else:
        tb = Parameter("b", b)
    tx, tw = Tensor(x, requires_grad=True), Parameter("w", w)
    out = (conv_stage if fused else _chain)(tx, tw, tb, *conv, state, window)
    _proj_loss(out, proj).backward()
    got = {"out": out.data, "x.grad": tx.grad, "w.grad": tw.grad}
    if state is None:
        got["b.grad"] = tb.grad
    else:
        got.update({"gamma.grad": state.gamma.grad, "beta.grad": state.beta.grad,
                    "running_mean": state.running_mean, "running_var": state.running_var})
    return got


# the trunk's five stage geometries after conv1, and conv2's without batch
# norm, as (kernel, stride, pad, window, batch norm), with the input shape
# each is tested on
STAGES = {
    "conv2": ((3, 1), (2, 1), (1, 0), (2, 1), True),
    "conv3": ((3, 1), (2, 1), (1, 0), None, True),
    "conv5": ((2, 1), (2, 1), (0, 0), (1, 2), True),
    "conv6": ((1, 3), (1, 2), (0, 1), None, True),
    "conv8": ((1, 4), (1, 4), (0, 0), None, False),
    "conv2_no_bn": ((3, 1), (2, 1), (1, 0), (2, 1), False),
}
STAGE_INPUTS = {"conv2": (6, 8, 32, 4), "conv3": (6, 8, 8, 4), "conv5": (6, 8, 2, 8),
                "conv6": (6, 8, 1, 16), "conv8": (6, 8, 1, 4), "conv2_no_bn": (6, 8, 32, 4)}


class TestConvStage:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name,shape,c_out", [(n, s, 12) for n, s in STAGE_INPUTS.items()]
                             + [("conv2", (20, 64, 32, 32), 96)])
    def test_matches_unfused_chain(self, name, shape, c_out, dtype):
        """Output, the x and w gradients, and the gamma and beta gradients
        and the running stats or, without batch norm, the bias gradient,
        against conv2d, batch_norm, relu and max_pool2d in float64: within
        1e-12 of the largest value in float64 and within 1e-5 in float32.
        The input is the (B, C, F, T) view of a channels-last array, as the
        stages pass it on. The last case has conv2's channels, so its
        forward and backward run over several blocks of samples."""
        kernel, stride, pad, window, bn = STAGES[name]
        rng = np.random.default_rng(48)
        x = rng.normal(size=shape)
        w = rng.normal(size=(c_out, shape[1]) + kernel) / np.sqrt(shape[1])
        b = rng.normal(size=c_out)
        norm = (rng.normal(size=c_out), rng.normal(size=c_out)) if bn else None
        with no_grad():
            proj = rng.normal(size=_chain(Tensor(x), Tensor(w), None, stride, pad,
                                          None, window).shape)
        want = _stage_run(False, x, w, b, (stride, pad), norm, window, proj)
        x_cl = np.ascontiguousarray(x.transpose(0, 3, 2, 1), dtype=dtype)
        got = _stage_run(True, x_cl.transpose(0, 3, 2, 1), *(a.astype(dtype) for a in (w, b)),
                         (stride, pad), norm and tuple(a.astype(dtype) for a in norm), window,
                         proj.astype(dtype))
        tol = 1e-12 if dtype == np.float64 else 1e-5
        assert got.keys() == want.keys()
        for name_, w_ in want.items():
            assert got[name_].dtype == dtype and got[name_].shape == w_.shape
            assert _max_rel(got[name_], w_) <= tol, name_

    @pytest.mark.parametrize("name", list(STAGES))
    def test_gradients(self, name):
        """Float64 central differences for x, w and, with batch norm, gamma
        and beta; without it, for the bias. Every activation and every
        pool pair's difference is over 1e-3 from the ReLU kink and from a
        tie, while a probe moves an activation by about 1e-4."""
        kernel, stride, pad, window, bn = STAGES[name]
        shape = STAGE_INPUTS[name][:1] + (2,) + STAGE_INPUTS[name][2:]
        shape = (3, 2, min(shape[2], 8), min(shape[3], 8))
        rng = np.random.default_rng(49)
        x = rng.normal(size=shape)
        w = rng.normal(size=(2, 2) + kernel)
        b = rng.normal(size=2)
        gamma, beta = np.array([1.3, -0.8]), np.array([0.05, -0.11])
        conv = (stride, pad)
        with no_grad():
            act = conv2d(Tensor(x), Tensor(w), None if bn else Tensor(b), *conv)
            if bn:
                state = BatchNormState("bn", 2, dtype=np.float64)
                state.gamma.data[:], state.beta.data[:] = gamma, beta
                act = batch_norm(act, state, True)
        act = act.data
        assert np.abs(act).min() > 1e-3 and (act < 0).any()
        if window is not None:
            axis = 2 if window[0] == 2 else 3
            taps = [np.moveaxis(act, axis, 0)[k::2] for k in (0, 1)]
            assert np.abs(taps[0] - taps[1]).min() > 1e-3
        with no_grad():
            proj = rng.normal(size=_chain(Tensor(x), Tensor(w), Tensor(b), *conv, None,
                                          window).shape)

        def build(vals):  # x, w, then gamma and beta or the bias
            state = tb = None
            tx, tw = (Tensor(v, requires_grad=True) for v in vals[:2])
            if bn:
                state = BatchNormState("bn", 2, dtype=np.float64)
                state.gamma.data[:], state.beta.data[:] = vals[2:4]
            else:
                tb = Tensor(vals[2], requires_grad=True)
            out = conv_stage(tx, tw, tb, *conv, state, window)
            return _proj_loss(out, proj), [tx, tw] + ([state.gamma, state.beta] if bn else [tb])

        assert check_gradients(build, [x, w] + ([gamma, beta] if bn else [b])) <= 1e-4

    def test_training_needs_batch_of_two(self):
        w = Tensor(np.ones((2, 2, 3, 1)))
        with pytest.raises(ConfigError, match="batch size >= 2"):
            conv_stage(Tensor(np.zeros((1, 2, 8, 4))), w, None, (2, 1), (1, 0),
                       BatchNormState("bn", 2), (2, 1))

    def test_bias_beside_batch_norm_is_refused(self):
        """Batch norm would subtract a bias of its conv again, so a stage
        given both refuses them."""
        w, b = Tensor(np.ones((2, 2, 3, 1))), Tensor(np.zeros(2))
        with pytest.raises(ConfigError, match="conv_stage: a conv that batch norm follows "
                                              "takes no bias"):
            conv_stage(Tensor(np.zeros((2, 2, 8, 4))), w, b, (2, 1), (1, 0),
                       BatchNormState("bn", 2), (2, 1))

    def test_channel_mismatch(self):
        w = Tensor(np.ones((3, 2, 3, 1)))
        with pytest.raises(ShapeError, match="conv_stage: input has 3 channels, state has 2"):
            conv_stage(Tensor(np.zeros((2, 2, 8, 4))), w, None, (2, 1), (1, 0),
                       BatchNormState("bn", 2), (2, 1))
        with pytest.raises(ShapeError, match="conv_stage: input has 2 channels but weights "
                                             "expect 3"):
            conv_stage(Tensor(np.zeros((2, 2, 8, 4))), Tensor(np.ones((3, 3, 3, 1))), None,
                       (2, 1), (1, 0))

    @pytest.mark.parametrize("shape,kernel,stride,pad,window,says", [
        ((2, 2, 8, 4), (3, 1), (2, 1), (1, 0), (2, 2), "a \\(2,1\\) or \\(1,2\\) window"),
        ((2, 2, 2, 4), (3, 1), (2, 1), (1, 0), (2, 1), "larger than input"),
        ((2, 2, 4), (3, 1), (2, 1), (1, 0), (2, 1), "expected \\(B,C,F,T\\) input"),
        ((2, 2, 10, 4), (3, 1), (2, 1), (1, 0), (2, 1), "odd length"),
        ((2, 2, 8, 4), (3, 3), (2, 1), (1, 0), None, "spans both frequency and time"),
        ((2, 2, 8, 4), (1, 3), (1, 2), (0, 1), None, "one frequency row"),
        ((2, 2, 9, 4), (3, 1), (2, 1), (1, 0), None, "do not tile input length 9"),
        ((2, 2, 4, 4), (3, 1), (2, 1), (1, 0), (1, 2), "needs one output along it"),
    ])
    def test_bad_geometry_rejected(self, shape, kernel, stride, pad, window, says):
        w = Tensor(np.ones((2, 2) + kernel))
        with pytest.raises(ShapeError, match=f"conv_stage: .*{says}"):
            conv_stage(Tensor(np.zeros(shape)), w, None, stride, pad, None, window)

    def test_tape_holds_conv_output_output_and_mask(self):
        """Forward of a conv2-sized stage (conv1's pooled output of 16
        frames in) under tracemalloc: beyond the conv's output, which batch
        norm's backward reads, the node keeps its pooled output and the
        winner mask, one byte per output element, and allocates at most one
        block of samples beyond them; the unfused chain keeps the normalized
        and the activated conv output as well."""
        rng = np.random.default_rng(50)
        x = rng.normal(size=(16, 32, 32, 64)).astype(np.float32).transpose(0, 3, 2, 1)
        w = Parameter("conv2.w", (rng.normal(size=(96, 64, 3, 1)) / 8).astype(np.float32))
        conv_out = 16 * 96 * 16 * 32 * 4
        for fused in (True, False):
            state = BatchNormState("conv2.bn", 96)
            tx = Tensor(x, requires_grad=True)
            tracemalloc.start()
            try:
                out = (conv_stage if fused else _chain)(tx, w, None, (2, 1), (1, 0), state,
                                                        (2, 1))
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            kept = conv_out + out.data.nbytes + out.data.size
            if fused:
                assert held <= kept + (64 << 10), held
                assert peak <= kept + _ROW_BLOCK + (128 << 10), peak
            else:
                assert held >= kept + 2 * conv_out, held

    def test_memory_stays_within_one_block(self):
        """conv2's stage at the 288 frames of a training step, float32,
        under tracemalloc. Forward allocates what it returns and keeps (the
        pooled output, the winner mask and the conv's output) and at most
        one block beyond them; backward() allocates x's gradient and at most
        one block beyond it, so neither makes the conv output's gradient at
        full size."""
        rng = np.random.default_rng(51)
        x = rng.normal(size=(288, 32, 32, 64)).astype(np.float32).transpose(0, 3, 2, 1)
        w = Parameter("conv2.w", (rng.normal(size=(96, 64, 3, 1)) / 8).astype(np.float32))
        state = BatchNormState("conv2.bn", 96)
        tx = Tensor(x, requires_grad=True)
        tracemalloc.start()
        try:
            out = conv_stage(tx, w, None, (2, 1), (1, 0), state, (2, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        conv_out = 288 * 96 * 16 * 32 * 4
        assert peak <= conv_out + out.data.nbytes + out.data.size + _ROW_BLOCK + (128 << 10), peak
        g = np.ones_like(out.data)  # channels-last, as the next stage passes it on
        backward = out._backward
        tracemalloc.start()
        try:
            backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tx.grad.shape == x.shape and w.grad is not None
        assert peak <= x.nbytes + _ROW_BLOCK + (128 << 10), peak


def _conv1_stage_run(fused, x, w, conv, gamma, beta, proj):
    """Output, the w/gamma/beta gradients and the running stats of conv1's
    stage with a (2, 1) pool: as a ConvBnReluPool that conv_stage runs in
    front of a 1x1 identity conv, whose output is the front's bit for bit,
    or as the unfused chain."""
    state = BatchNormState("bn", w.shape[0], dtype=x.dtype)
    state.gamma.data[:] = gamma
    state.beta.data[:] = beta
    tw = Parameter("w", w)
    if fused:
        front = ConvBnReluPool(Tensor(x), tw, *conv, state, (2, 1))
        eye = Tensor(np.eye(w.shape[0], dtype=x.dtype)[:, :, None, None])
        out = conv_stage(front, eye, None, (1, 1), (0, 0))
    else:
        out = _chain(Tensor(x), tw, None, *conv, state, (2, 1))
    _proj_loss(out, proj).backward()
    return [out.data, tw.grad, state.gamma.grad, state.beta.grad,
            state.running_mean, state.running_var]


def _max_rel(got, want) -> float:
    """Largest difference over the largest magnitude of ``want``."""
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestConvBnReluPool:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,c_out,kernel,stride,pad", [
        ((6, 1, 16, 8), 8, 3, 2, 1), ((5, 1, 18, 8), 8, 3, 2, 1), ((4, 1, 8, 8), 8, 3, 2, 1),
        ((7, 1, 128, 32), 16, 3, 2, 1), ((4, 1, 16, 8), 8, 5, 1, 2)])
    def test_matches_unfused_chain(self, shape, c_out, kernel, stride, pad, dtype):
        """Output, the w, gamma and beta gradients and the running stats of
        conv1's stage against conv2d, batch_norm, relu and max_pool2d in
        float64: within 1e-12 of the largest value in float64, and within
        1e-5 in float32 (the chain's own float32 error is of the same order
        as the stage's, under 1e-6).

        Inputs are real-valued, so no two taps tie: the stage computes each
        tap from its own folded GEMM, so a tie in the conv output may
        resolve either way. Some pairs have both taps below zero after batch
        norm. The first four take conv1's kernel (3, 1), stride (2, 1) and
        pad (1, 0). The second shape pools 9 rows, so a trailing one is
        dropped. The third has a narrow output, 32 positions per sample.
        The fourth is conv1's geometry, which the stage runs as several
        blocks of samples. The last takes a kernel of 5 taps at stride 1,
        whose columns overlap by four taps and reach two rows of padding."""
        rng = np.random.default_rng(43)
        x = rng.normal(size=shape)
        w = rng.normal(size=(c_out, 1, kernel, 1))
        gamma = rng.normal(size=c_out)
        beta = rng.normal(size=c_out)
        conv = ((stride, 1), (pad, 0))
        state = BatchNormState("bn", c_out, dtype=np.float64)
        state.gamma.data[:], state.beta.data[:] = gamma, beta
        act = batch_norm(conv2d(Tensor(x), Tensor(w), None, *conv), state, True).data
        taps = [act[:, :, k:act.shape[2] // 2 * 2:2] for k in (0, 1)]
        assert ((taps[0] < 0) & (taps[1] < 0)).any()
        assert act.shape[2] % 2 == (shape == (5, 1, 18, 8))
        proj = rng.normal(size=max_pool2d(Tensor(act), (2, 1)).shape)

        want = _conv1_stage_run(False, x, w, conv, gamma, beta, proj)
        got = _conv1_stage_run(True, *(a.astype(dtype) for a in (x, w)), conv,
                               gamma.astype(dtype), beta.astype(dtype), proj.astype(dtype))
        tol = 1e-12 if dtype == np.float64 else 1e-5
        names = ("out", "w.grad", "gamma.grad", "beta.grad", "running_mean", "running_var")
        for name, g, w_ in zip(names, got, want):
            assert g.dtype == dtype and g.shape == w_.shape
            assert _max_rel(g, w_) <= tol, name

    @pytest.mark.parametrize("shape,seed", [((3, 1, 16, 8), 44), ((3, 1, 18, 8), 46)])
    def test_gradients(self, shape, seed):
        """Float64 central differences for w, gamma and beta, through a 1x1
        identity conv_stage. Every activation and every pair difference is
        over 1e-3 from the ReLU kink and from a tie, while a probe moves an
        activation by about 1e-4. The second shape pools 9 rows: its
        trailing row takes no gradient, but it is in batch norm's
        statistics, so it moves every other row's."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        w = rng.normal(size=(2, 1, 3, 1))
        gamma = np.array([1.3, -0.8])
        beta = np.array([0.05, -0.11])
        conv = ((2, 1), (1, 0))
        state = BatchNormState("bn", 2, dtype=np.float64)
        state.gamma.data[:], state.beta.data[:] = gamma, beta
        act = batch_norm(conv2d(Tensor(x), Tensor(w), None, *conv), state, True).data
        assert act.shape[2] % 2 == (shape[2] == 18)
        taps = [act[:, :, k:act.shape[2] // 2 * 2:2] for k in (0, 1)]
        assert np.abs(act).min() > 1e-3 and (act < 0).any()
        assert np.abs(taps[0] - taps[1]).min() > 1e-3
        proj = rng.normal(size=max_pool2d(Tensor(act), (2, 1)).shape)
        eye = Tensor(np.eye(2)[:, :, None, None])

        def build(vals):  # w, gamma and beta
            state = BatchNormState("bn", 2, dtype=np.float64)
            state.gamma.data[:] = vals[1]
            state.beta.data[:] = vals[2]
            tw = Tensor(vals[0], requires_grad=True)
            front = ConvBnReluPool(Tensor(x), tw, *conv, state, (2, 1))
            out = conv_stage(front, eye, None, (1, 1), (0, 0))
            return _proj_loss(out, proj), [tw, state.gamma, state.beta]

        assert check_gradients(build, [w, gamma, beta]) <= 1e-4

    def test_offset_input_keeps_the_variance(self):
        """An input offset by 50, a mean far above its spread: the batch
        statistics taken from the columns' Gram matrix keep the chain's to
        1e-10 in float64. Each running stat starts at 0 or 1 and takes a
        tenth of the batch's, so that tenth is what is compared."""
        rng = np.random.default_rng(46)
        x = rng.normal(size=(5, 1, 16, 8)) + 50.0
        w = rng.normal(size=(8, 1, 3, 1))
        gamma, beta = rng.normal(size=8), rng.normal(size=8)
        proj = rng.normal(size=(5, 8, 4, 8))
        args = (x, w, ((2, 1), (1, 0)), gamma, beta, proj)
        got, want = _conv1_stage_run(True, *args), _conv1_stage_run(False, *args)
        assert _max_rel(got[4], want[4]) <= 1e-10
        assert _max_rel(got[5] - 0.9, want[5] - 0.9) <= 1e-10

    def test_front_and_conv2_stay_within_blocks(self):
        """conv1's stage in front of conv2's node, on 32 samples of conv1's
        input, float32, under tracemalloc. Forward keeps conv2's conv
        output, its pooled output and its winner mask, and allocates at most
        one block beyond them; backward() allocates a few blocks. pool1, and
        conv1's output twice its size, are larger than either slack, so
        neither is kept or made whole."""
        rng = np.random.default_rng(47)
        x = rng.normal(size=(32, 1, 128, 32)).astype(np.float32)
        w1 = Parameter("conv1.w", rng.normal(size=(64, 1, 3, 1)).astype(np.float32))
        w2 = Parameter("conv2.w", (rng.normal(size=(96, 64, 3, 1)) / 8).astype(np.float32))
        bn1, bn2 = BatchNormState("conv1.bn", 64), BatchNormState("conv2.bn", 96)
        tracemalloc.start()
        try:
            front = ConvBnReluPool(Tensor(x), w1, (2, 1), (1, 0), bn1, (2, 1))
            out = conv_stage(front, w2, None, (2, 1), (1, 0), bn2, (2, 1))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pool1 = 32 * 64 * 32 * 32 * 4
        slack = 2 * _ROW_BLOCK + 2 * ag._BLOCK_BYTES + (128 << 10)
        assert slack < pool1
        kept = 32 * 96 * 16 * 32 * 4 + out.data.nbytes + out.data.size
        assert held <= kept + (64 << 10), held
        assert peak <= kept + _ROW_BLOCK + (128 << 10), peak
        g = np.ones_like(out.data)  # channels-last, as the next stage passes it on
        backward = out._backward
        tracemalloc.start()
        try:
            backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w1.grad is not None and bn1.gamma.grad is not None and w2.grad is not None
        assert peak <= slack, peak

    def test_errors_name_the_stage(self):
        w = Tensor(np.ones((2, 1, 3, 1)))
        with pytest.raises(ShapeError, match="conv_bn_relu_pool: input has 2 channels but "
                                             "weights expect 1"):
            ConvBnReluPool(Tensor(np.zeros((2, 2, 16, 8))), w, (2, 1), (1, 0),
                           BatchNormState("bn", 2), (2, 1))
        with pytest.raises(ShapeError, match="conv_bn_relu_pool: input has 2 channels, "
                                             "state has 3"):
            ConvBnReluPool(Tensor(np.zeros((2, 1, 16, 8))), w, (2, 1), (1, 0),
                           BatchNormState("bn", 3), (2, 1))
        with pytest.raises(ConfigError, match="batch size >= 2"):
            ConvBnReluPool(Tensor(np.zeros((1, 1, 16, 8))), w, (2, 1), (1, 0),
                           BatchNormState("bn", 2), (2, 1))

    @pytest.mark.parametrize("kernel,stride,pad,window", [
        ((1, 3), (1, 2), (0, 1), (2, 1)), ((3, 1), (2, 1), (1, 0), (1, 2))])
    def test_only_a_frequency_kernel_and_a_2_1_window(self, kernel, stride, pad, window):
        """A kernel along time, or a (1, 2) window, is no conv1 stage."""
        with pytest.raises(ShapeError, match="conv_bn_relu_pool: expected a kernel along "
                                             "frequency and a \\(2,1\\) window"):
            ConvBnReluPool(Tensor(np.zeros((2, 1, 16, 16))), Tensor(np.ones((2, 1) + kernel)),
                           stride, pad, BatchNormState("bn", 2), window)


# =============================================================================
# Recurrent cells
# =============================================================================

class TestRecurrentCells:
    def test_lstm_matches_gate_oracle(self):
        rng = np.random.default_rng(15)
        d, hid, nb = 6, 4, 3
        x = rng.normal(size=(nb, d))
        h = rng.normal(size=(nb, hid))
        c = rng.normal(size=(nb, hid))
        w_x = rng.normal(size=(4 * hid, d))
        w_h = rng.normal(size=(4 * hid, hid))
        b = rng.normal(size=4 * hid)
        params = LSTMParams(Tensor(w_x), Tensor(w_h), Tensor(b))
        h2, c2 = lstm_step(Tensor(x), (Tensor(h), Tensor(c)), params)
        want_h, want_c = lstm_step_naive(x, h, c, w_x, w_h, b)
        np.testing.assert_allclose(h2.data, want_h, rtol=1e-9)
        np.testing.assert_allclose(c2.data, want_c, rtol=1e-9)

    def test_gru_matches_gate_oracle(self):
        rng = np.random.default_rng(16)
        d, hid, nb = 5, 4, 2
        x = rng.normal(size=(nb, d))
        h = rng.normal(size=(nb, hid))
        w_x = rng.normal(size=(3 * hid, d))
        w_h = rng.normal(size=(2 * hid, hid))
        w_c = rng.normal(size=(hid, hid))
        b = rng.normal(size=3 * hid)
        params = GRUParams(Tensor(w_x), Tensor(w_h), Tensor(w_c), Tensor(b))
        h2 = gru_step(Tensor(x), Tensor(h), params)
        np.testing.assert_allclose(h2.data, gru_step_naive(x, h, w_x, w_h, w_c, b), rtol=1e-9)

    def test_lstm_rejects_bad_hidden_width(self):
        params = LSTMParams(Tensor(np.zeros((16, 6))), Tensor(np.zeros((16, 4))), Tensor(np.zeros(16)))
        with pytest.raises(ShapeError):
            lstm_step(Tensor(np.zeros((2, 6))), (Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 5)))), params)


# =============================================================================
# Gradient checks (64-bit central differences)
# =============================================================================

class TestGradients:
    def test_elementwise_chain(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))

        def build(vals):
            ta, tb = Tensor(vals[0], requires_grad=True), Tensor(vals[1], requires_grad=True)
            out = mul(add(ta, tb), sub(ta, tb))  # a^2 - b^2
            return sum_all(out), [ta, tb]

        check_gradients(build, [a, b])

    def test_activations(self):
        rng = np.random.default_rng(21)
        # keep relu inputs away from the kink
        x = rng.normal(size=(4, 5))
        x[np.abs(x) < 0.1] += 0.2

        for act in (relu, tanh, sigmoid):
            proj = rng.normal(size=(4, 5))

            def build(vals, act=act, proj=proj):
                t = Tensor(vals[0], requires_grad=True)
                return _proj_loss(act(t), proj), [t]

            check_gradients(build, [x])

    def test_dense(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(3, 6))
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        proj = rng.normal(size=(3, 4))

        def build(vals):
            tx, tw, tb = (Tensor(v, requires_grad=True) for v in vals)
            return _proj_loss(dense(tx, tw, tb), proj), [tx, tw, tb]

        check_gradients(build, [x, w, b])

    def test_conv2d_narrow_output(self):
        """Few output positions per sample (6), strided and padded."""
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 3, 5, 4))
        w = rng.normal(size=(4, 3, 2, 3))
        b = rng.normal(size=4)
        proj = rng.normal(size=(2, 4, 3, 2))

        def build(vals):
            tx, tw, tb = (Tensor(v, requires_grad=True) for v in vals)
            return _proj_loss(conv2d(tx, tw, tb, stride=(2, 2), pad=(1, 1)), proj), [tx, tw, tb]

        check_gradients(build, [x, w, b])

    def test_conv2d_wide_output(self):
        """Many output positions per sample (90), padded."""
        rng = np.random.default_rng(24)
        x = rng.normal(size=(2, 2, 10, 9))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        proj = rng.normal(size=(2, 3, 10, 9))

        def build(vals):
            tx, tw, tb = (Tensor(v, requires_grad=True) for v in vals)
            return _proj_loss(conv2d(tx, tw, tb, stride=(1, 1), pad=(1, 1)), proj), [tx, tw, tb]

        check_gradients(build, [x, w, b])

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("t_in", [7, 190])
    def test_conv2d_padding_and_stride_on_both_axes(self, t_in, batch):
        """Tap 0 along freq reads only padding (one output row), and the time
        stride exceeds the kernel so some input columns feed no output; with
        a narrow and a wide output (3 and 64 positions per sample), and with
        one sample, whose GEMM writes the output in place, and two."""
        rng = np.random.default_rng(32)
        x = rng.normal(size=(batch, 2, 2, t_in))
        w = rng.normal(size=(3, 2, 3, 2))
        b = rng.normal(size=3)
        out_shape = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=(2, 3), pad=(1, 1)).shape
        assert out_shape[2] == 1
        proj = rng.normal(size=out_shape)

        def build(vals):
            tx, tw, tb = (Tensor(v, requires_grad=True) for v in vals)
            out = conv2d(tx, tw, tb, stride=(2, 3), pad=(1, 1))
            return _proj_loss(out, proj), [tx, tw, tb]

        check_gradients(build, [x, w, b])

    def test_max_pool(self):
        rng = np.random.default_rng(25)
        # distinct entries keep the argmax stable under the FD probe
        x = (rng.permutation(2 * 3 * 8 * 4).astype(np.float64) * 0.37).reshape(2, 3, 8, 4)
        for window, stride in [((2, 1), None), ((2, 2), (2, 2)), ((2, 1), (1, 1))]:
            out_shape = max_pool2d(Tensor(x), window, stride).shape
            proj = rng.normal(size=out_shape)

            def build(vals, window=window, stride=stride, proj=proj):
                t = Tensor(vals[0], requires_grad=True)
                return _proj_loss(max_pool2d(t, window, stride), proj), [t]

            check_gradients(build, [x])

    @pytest.mark.parametrize("shape,window", [((2, 3, 7, 4), (2, 1)), ((2, 2, 3, 5), (1, 2))])
    def test_max_pool_two_tap_with_odd_trailing_row(self, shape, window):
        """A dropped trailing row or column gets no gradient."""
        rng = np.random.default_rng(33)
        x = (rng.permutation(np.prod(shape)).astype(np.float64) * 0.37).reshape(shape)
        proj = rng.normal(size=max_pool2d(Tensor(x), window).shape)

        def build(vals):
            t = Tensor(vals[0], requires_grad=True)
            return _proj_loss(max_pool2d(t, window), proj), [t]

        check_gradients(build, [x])

    def test_batch_norm_training(self):
        rng = np.random.default_rng(26)
        x = rng.normal(loc=0.7, scale=1.3, size=(4, 3, 3, 2))
        gamma = rng.normal(size=3)
        beta = rng.normal(size=3)
        proj = rng.normal(size=x.shape)

        def build(vals):
            state = BatchNormState("bn", 3, dtype=np.float64)
            state.gamma.data[:] = vals[1]
            state.beta.data[:] = vals[2]
            tx = Tensor(vals[0], requires_grad=True)
            out = batch_norm(tx, state, training=True)
            return _proj_loss(out, proj), [tx, state.gamma, state.beta]

        check_gradients(build, [x, gamma, beta])

    def test_batch_norm_training_2d(self):
        rng = np.random.default_rng(34)
        x = rng.normal(loc=-0.4, scale=0.8, size=(5, 3))
        gamma = rng.normal(size=3)
        beta = rng.normal(size=3)
        proj = rng.normal(size=x.shape)

        def build(vals):
            state = BatchNormState("bn", 3, dtype=np.float64)
            state.gamma.data[:] = vals[1]
            state.beta.data[:] = vals[2]
            tx = Tensor(vals[0], requires_grad=True)
            out = batch_norm(tx, state, training=True)
            return _proj_loss(out, proj), [tx, state.gamma, state.beta]

        check_gradients(build, [x, gamma, beta])

    def test_relu_with_shared_input_and_output(self):
        """relu reuses its upstream gradient in place; the sums over both
        consumers of its input and of its output must survive that."""
        rng = np.random.default_rng(35)
        x = rng.normal(size=(4, 5))
        x[np.abs(x) < 0.1] += 0.2
        p1, p2 = rng.normal(size=(2, 4, 5))

        def build(vals):
            t = Tensor(vals[0], requires_grad=True)
            r = relu(t)
            loss = add(_proj_loss(mul(r, tanh(t)), p1), _proj_loss(r, p2))
            return loss, [t]

        check_gradients(build, [x])

    def test_batch_norm_inference_grad(self):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(2, 2, 3, 3))
        proj = rng.normal(size=x.shape)

        def build(vals):
            state = BatchNormState("bn", 2, dtype=np.float64)
            state.running_mean[:] = [0.5, -0.25]
            state.running_var[:] = [2.0, 0.5]
            tx = Tensor(vals[0], requires_grad=True)
            return _proj_loss(batch_norm(tx, state, training=False), proj), [tx]

        check_gradients(build, [x])

    def test_lstm_step(self):
        rng = np.random.default_rng(28)
        d, hid, nb = 4, 3, 2
        arrays = [
            rng.normal(size=(nb, d)),
            rng.normal(size=(nb, hid)),
            rng.normal(size=(nb, hid)),
            rng.normal(size=(4 * hid, d)) * 0.5,
            rng.normal(size=(4 * hid, hid)) * 0.5,
            rng.normal(size=4 * hid) * 0.5,
        ]
        ph = rng.normal(size=(nb, hid))
        pc = rng.normal(size=(nb, hid))

        def build(vals):
            tensors = [Tensor(v, requires_grad=True) for v in vals]
            tx, th, tc, twx, twh, tb = tensors
            h2, c2 = lstm_step(tx, (th, tc), LSTMParams(twx, twh, tb))
            loss = add(_proj_loss(h2, ph), _proj_loss(c2, pc))
            return loss, tensors

        check_gradients(build, arrays)

    def test_gru_step(self):
        rng = np.random.default_rng(29)
        d, hid, nb = 4, 3, 2
        arrays = [
            rng.normal(size=(nb, d)),
            rng.normal(size=(nb, hid)),
            rng.normal(size=(3 * hid, d)) * 0.5,
            rng.normal(size=(2 * hid, hid)) * 0.5,
            rng.normal(size=(hid, hid)) * 0.5,
            rng.normal(size=3 * hid) * 0.5,
        ]
        proj = rng.normal(size=(nb, hid))

        def build(vals):
            tensors = [Tensor(v, requires_grad=True) for v in vals]
            tx, th, twx, twh, twc, tb = tensors
            h2 = gru_step(tx, th, GRUParams(twx, twh, twc, tb))
            return _proj_loss(h2, proj), tensors

        check_gradients(build, arrays)

    def test_gather_and_reshape_ops(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(6, 4))
        idx = [0, 2, 2, 5]
        proj = rng.normal(size=(2, 4))

        def build(vals):
            t = Tensor(vals[0], requires_grad=True)
            g = take_rows(t, idx)      # (4, 4)
            n = narrow(g, 1, 1, 4)     # (4, 3)
            r = reshape(n, (2, 6))
            return _proj_loss(narrow(r, 1, 2, 6), proj), [t]

        check_gradients(build, [x])

    def test_rel_error_metric(self):
        assert rel_error([1.0], [1.0]) == 0.0
        assert rel_error([1.0], [1.0001]) == pytest.approx(1e-4, rel=1e-2)


# =============================================================================
# Empty batch
# =============================================================================

class TestEmptyBatch:
    @pytest.mark.parametrize("f_in", [2, 16])
    def test_trunk_ops_pass_an_empty_batch(self, f_in):
        """conv (narrow and wide output), batch norm, relu and pool forward
        and backward on zero samples."""
        x = Tensor(np.zeros((0, 2, f_in, 8)), requires_grad=True)
        w = Tensor(np.ones((3, 2, 3, 1)), requires_grad=True)
        bn = BatchNormState("bn", 3, dtype=np.float64)
        out = max_pool2d(relu(batch_norm(conv2d(x, w, None, pad=(1, 0)), bn, False)), (2, 1))
        assert out.shape == (0, 3, f_in // 2, 8)
        sum_all(out).backward()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
        assert not w.grad.any()


# =============================================================================
# Gradient lifetime
# =============================================================================

def _trunk_graph(dtype, seed=36):
    """conv -> batch norm -> relu -> pool -> dense -> squared sum, with every
    intermediate returned so its gradient can be inspected."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(4, 2, 8, 4)).astype(dtype), requires_grad=True)
    w = Parameter("conv.w", rng.normal(size=(3, 2, 3, 1)).astype(dtype))
    b = Parameter("conv.b", rng.normal(size=3).astype(dtype))
    bn = BatchNormState("conv.bn", 3, dtype=dtype)
    dw = Parameter("dense.w", rng.normal(size=(2, 48)).astype(dtype))
    conv = conv2d(x, w, b, stride=(1, 1), pad=(1, 0))
    nrm = batch_norm(conv, bn, training=True)
    act = relu(nrm)
    pooled = max_pool2d(act, (2, 1))
    flat = reshape(pooled, (4, 48))
    y = dense(flat, dw)
    sq = mul(y, y)
    loss = sum_all(sq)
    leaves = [x, w, b, bn.gamma, bn.beta, dw]
    return loss, leaves, [conv, nrm, act, pooled, flat, y, sq]


class TestGradientLifetime:
    def test_backward_frees_intermediate_gradients(self):
        loss, leaves, inner = _trunk_graph(np.float64)
        loss.backward()
        assert all(t.grad is None for t in inner)
        assert all(t.grad is not None and t.grad.shape == t.shape for t in leaves)
        assert loss.grad is not None and float(loss.grad) == 1.0

    def test_fresh_graphs_give_bit_identical_gradients(self):
        grads = []
        for _ in range(2):
            loss, leaves, _ = _trunk_graph(np.float32)
            loss.backward()
            grads.append([t.grad.tobytes() for t in leaves])
        assert grads[0] == grads[1]

    def test_backward_releases_the_tape(self):
        """Arrays that only the tape holds die during backward by reference
        counting alone, so no closure keeps its own output alive."""
        loss, _, inner = _trunk_graph(np.float64)
        refs = [weakref.ref(t.data) for t in inner]
        del inner
        gc.disable()
        try:
            assert all(r() is not None for r in refs)
            loss.backward()
            assert [r() is None for r in refs] == [True] * len(refs)
        finally:
            gc.enable()

    def test_second_backward_on_a_root_raises(self):
        loss, leaves, _ = _trunk_graph(np.float64)
        loss.backward()
        grads = [t.grad.copy() for t in leaves]
        with pytest.raises(StateError, match="graph already consumed by an earlier backward"):
            loss.backward()
        for t, g in zip(leaves, grads):
            np.testing.assert_array_equal(t.grad, g)

    def test_backward_into_a_consumed_subgraph_raises(self):
        """A second root sharing a subgraph with a differentiated one fails
        instead of silently dropping the shared part's gradient."""
        x = Tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True)
        h = mul(x, x)
        first, second = sum_all(h), sum_all(relu(h))
        first.backward()
        with pytest.raises(StateError, match="graph already consumed by an earlier backward"):
            second.backward()


# =============================================================================
# Determinism
# =============================================================================

class TestDeterminism:
    def test_conv_chain_bit_identical(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(2, 3, 16, 8)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)

        def run():
            out = conv2d(Tensor(x), Tensor(w), None, stride=(1, 1), pad=(1, 1))
            out = max_pool2d(relu(out), (2, 1))
            return out.data

        a, b = run(), run()
        assert a.tobytes() == b.tobytes()
