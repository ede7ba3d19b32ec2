"""Tensor op tests: forward oracles plus finite-difference gradient checks.

Forward behaviour is verified against naive loop implementations written
directly from the op definitions (quadruple-loop convolution, window-scan
pooling, per-gate recurrent cells). Gradients are verified in 64-bit mode
against the central-difference oracle in ``_gradcheck``.
"""

import gc
import weakref

import numpy as np
import pytest

from speechface.autograd import (
    BatchNormState,
    GRUParams,
    LSTMParams,
    Parameter,
    Tensor,
    add,
    batch_norm,
    conv2d,
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
        """A wide output exercises the batched (per-sample) gemm layout."""
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
        """Few output positions per sample (the folded gemm layout)."""
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
        """Many output positions per sample (the batched gemm layout)."""
        rng = np.random.default_rng(24)
        x = rng.normal(size=(2, 2, 10, 9))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        proj = rng.normal(size=(2, 3, 10, 9))

        def build(vals):
            tx, tw, tb = (Tensor(v, requires_grad=True) for v in vals)
            return _proj_loss(conv2d(tx, tw, tb, stride=(1, 1), pad=(1, 1)), proj), [tx, tw, tb]

        check_gradients(build, [x, w, b])

    @pytest.mark.parametrize("t_in", [7, 190])
    def test_conv2d_padding_and_stride_on_both_axes(self, t_in):
        """Tap 0 along freq reads only padding (one output row), the time
        stride exceeds the kernel so some input columns feed no output, and
        both im2col layouts (7 and 190 columns) are covered."""
        rng = np.random.default_rng(32)
        x = rng.normal(size=(2, 2, 2, t_in))
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
        """A dropped trailing row or column takes the general path."""
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
        """conv (folded and batched layouts), batch norm, relu and pool
        forward and backward on zero samples."""
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
