"""Network tests: architecture conformance, variants, streaming, checkpoints."""

import struct
import tracemalloc

import numpy as np
import pytest

from speechface import autograd as ag
from speechface.audio import NUM_BANDS, NUM_COLUMNS, Spectrogram
from speechface.errors import ConfigError, DataError, ParseError, ShapeError
from speechface.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    STANDARD_ARCH,
    TRUNK_CHUNK,
    VARIANTS,
    _Workspace,
    _compile,
    _front,
    _pool,
    build_model,
    forward,
    forward_sequence,
    forward_trace,
    load_checkpoint,
    save_checkpoint,
)
from speechface import model as model_module
from speechface.stream import _float64_copy


def random_spec(rng, frame_index=0):
    return Spectrogram(rng.normal(size=(NUM_BANDS, NUM_COLUMNS)), frame_index)


def random_specs(rng, n):
    return [random_spec(rng, i) for i in range(n)]


# The layer stack, as dims per activation (channels, freq, time):
EXPECTED_TRACE = [
    ("input", (1, 128, 32)),
    ("conv1", (64, 64, 32)),
    ("pool1", (64, 32, 32)),
    ("conv2", (96, 16, 32)),
    ("pool2", (96, 8, 32)),
    ("conv3", (128, 4, 32)),
    ("conv4", (160, 2, 32)),
    ("conv5", (256, 1, 32)),
    ("pool5", (256, 1, 16)),
    ("conv6", (256, 1, 8)),
    ("conv7", (256, 1, 4)),
    ("conv8", (256, 1, 1)),
    ("dense1", (256,)),
    ("rnn", (256,)),
    ("dense2", (256,)),
    ("output", (49,)),
]

# Parameter totals, derived by hand from the stack dims:
#   conv weights:          192 + 18432 + 36864 + 61440 + 81920
#                        + 196608 + 196608 + 262144            = 854208
#   conv8 bias (the only conv without batch norm)              =    256
#   batch norm (conv1-7):  2*(64+96+128+160+256+256+256)       =   2432
#   dense1, dense2:        2 * (256*256 + 256)                 = 131584
#   heads:                 (3*256 + 3) + (46*256 + 46)         =  12593
#   common total                                               = 1001073
#   LSTM: 4*(256*256) * 2 + 4*256 = 525312; GRU: 6*(256*256) + 3*256 = 393984
EXPECTED_PARAMS = {
    "cnn_static": 1_001_073,
    "cnn_gru": 1_395_057,
    "cnn_lstm": 1_526_385,
}


# =============================================================================
# Architecture
# =============================================================================

class TestArchitecture:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_trace_matches_stack_dims(self, variant):
        model = build_model(variant, seed=0)
        expected = EXPECTED_TRACE
        if variant == "cnn_static":
            # this variant drops the recurrent layer entirely
            expected = [row for row in expected if row[0] != "rnn"]
        assert forward_trace(model) == expected

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_parameter_totals(self, variant):
        model = build_model(variant, seed=1)
        assert sum(p.data.size for p in model.parameters()) == EXPECTED_PARAMS[variant]

    def test_variant_ordering(self):
        counts = [EXPECTED_PARAMS[v] for v in ("cnn_static", "cnn_gru", "cnn_lstm")]
        assert counts[0] < counts[1] < counts[2]

    def test_batch_norm_skips_final_conv(self):
        model = build_model("cnn_static", seed=0)
        assert "conv8" not in model.conv_bn
        for name in ("conv1", "conv2", "conv3", "conv4", "conv5", "conv6", "conv7"):
            assert name in model.conv_bn

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_only_the_conv_without_batch_norm_has_a_bias(self, variant):
        """Batch norm would subtract a bias of conv1 to conv7 again, so
        those convs have none: conv8's is the only conv bias among the
        parameters and the arrays a checkpoint stores."""
        model = build_model(variant, seed=0)
        conv_biases = {f"conv{i}.b" for i in range(1, 9)}
        assert {p.name for p in model.parameters()} & conv_biases == {"conv8.b"}
        assert {name for name, _ in model.named_arrays()} & conv_biases == {"conv8.b"}
        assert set(model.conv_b) == {"conv8"}

    def test_flat_dim(self):
        assert STANDARD_ARCH.flat_dim == 256

    def test_unknown_variant_rejected(self):
        with pytest.raises(Exception):
            build_model("cnn_rnn", seed=0)


def unfused_trunk(model, x):
    """Model.layers' training walk with every stage as its own op."""
    for spec in model.arch.stack:
        if spec.name in model.conv_w:
            x = ag.conv2d(x, model.conv_w[spec.name], model.conv_b.get(spec.name),
                          spec.stride, spec.pad)
            if spec.name in model.conv_bn:
                x = ag.batch_norm(x, model.conv_bn[spec.name], training=True)
            x = ag.relu(x)
        else:
            x = ag.max_pool2d(x, spec.window, spec.stride)
    x = ag.reshape(x, (x.shape[0], model.arch.flat_dim))
    return ag.tanh(ag.dense(x, model.dense1_w, model.dense1_b))


class TestTrainingWalk:
    def test_pooled_stages_are_fused_in_training_only(self):
        model = build_model("cnn_static", seed=0)
        x = ag.Tensor(np.zeros((2, 1, NUM_BANDS, NUM_COLUMNS), dtype=np.float32))
        dims = dict(EXPECTED_TRACE)
        with ag.no_grad():
            train_rows = [(n, t.shape[1:]) for n, t in model.layers(x, training=True)]
            infer_rows = [(n, t.shape[1:]) for n, t in model.layers(x, training=False)]
        assert [n for n, _ in train_rows] == ["input", "pool2", "conv3", "conv4",
                                              "pool5", "conv6", "conv7", "conv8", "dense1"]
        assert all(dims[n] == d for n, d in train_rows)
        assert infer_rows == EXPECTED_TRACE[:13]

    @pytest.mark.parametrize("samples, gemm_samples, conv1_samples, gemm_blocks, kernel_rows", [
        (3, None, None, [(0, 2), (2, 3)], [1] * 3),
        (7, 3, 1, [(0, 3), (3, 6), (6, 7)], [1] * 7),
        (7, 3, 2, [(0, 3), (3, 6), (6, 7)], [2, 1, 1, 2, 1])])
    def test_fused_trunk_matches_the_unfused_walk(
            self, monkeypatch, samples, gemm_samples, conv1_samples, gemm_blocks, kernel_rows):
        """Features, every trunk gradient and the running stats after one
        training-mode pass each, on a float64 copy of the model with random
        batch-norm parameters and conv8 bias: within 1e-12 of each array's
        largest value. conv1's stage takes its outputs from a GEMM folded
        with batch norm rather than from the conv's output, so the walks
        agree up to rounding.

        conv2's node makes conv1's pooled output one of its GEMM blocks at a
        time, in forward and again in backward: at the default block sizes,
        blocks of 2 and 1 of 3 samples; with GEMM blocks cut to 3 samples,
        blocks of 3, 3 and 1 of 7. With conv1's own blocks of one sample
        (float64 conv1 outputs take 1 MiB a sample) those nest in the GEMM
        blocks; with blocks of two, a GEMM block that ends inside one of
        them takes its part only."""
        if gemm_samples is not None:
            monkeypatch.setattr(ag, "_GEMM_BLOCK_BYTES",
                                gemm_samples * (96 * 16 * 32 + 64 * 32 * 32) * 8)
            monkeypatch.setattr(ag, "_BLOCK_BYTES", conv1_samples << 20)
        made, kernel_calls = [], []
        run, kernel = ag.ConvBnReluPool.run, ag._conv_pool_relu
        monkeypatch.setattr(ag.ConvBnReluPool, "run",
                            lambda st, blk, *a: (made.append((blk.start, blk.stop)), run(st, blk, *a)))
        monkeypatch.setattr(ag, "_conv_pool_relu",
                            lambda col, *a: (kernel_calls.append(len(col)), kernel(col, *a)))
        x = np.random.default_rng(8).normal(size=(samples, 1, NUM_BANDS, NUM_COLUMNS))
        proj = np.random.default_rng(9).normal(size=(samples, STANDARD_ARCH.hidden))
        results = []
        for fused in (True, False):
            model = _float64_copy(build_model("cnn_static", seed=4))
            rng = np.random.default_rng(7)
            for b in model.conv_b.values():
                b.data[:] = 0.1 * rng.normal(size=b.data.shape)
            for bn in model.conv_bn.values():
                bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=bn.channels)
                bn.beta.data[:] = rng.normal(size=bn.channels)
            tx = ag.Tensor(x)
            feats = model.trunk(tx, training=True) if fused else unfused_trunk(model, tx)
            ag.sum_all(ag.mul(feats, ag.Tensor(proj))).backward()
            arrays = {"features": feats.data}
            arrays.update((p.name, p.grad) for p in model.parameters() if p.grad is not None)
            arrays.update((f"{name}.bn", np.concatenate([bn.running_mean, bn.running_var]))
                          for name, bn in model.conv_bn.items())
            results.append(arrays)
        assert made == gemm_blocks * 2
        assert kernel_calls == kernel_rows * 2
        got, want = results
        assert got.keys() == want.keys()
        assert "conv8.b" in got
        for name, w in want.items():
            assert got[name].dtype == np.float64
            assert np.abs(got[name] - w).max() <= 1e-12 * np.abs(w).max(), name

    def test_input_that_takes_a_gradient_is_refused(self):
        """conv2's node runs conv1's stage without its input's gradient, so
        a trunk input that asks for one is refused, not left without it,
        and before it changes conv1's running statistics."""
        model = build_model("cnn_static", seed=0)
        bn = model.conv_bn["conv1"]
        before = bn.running_mean.tobytes(), bn.running_var.tobytes()
        x = ag.Tensor(np.random.default_rng(10).normal(size=(2, 1, NUM_BANDS, NUM_COLUMNS))
                      .astype(np.float32), requires_grad=True)
        with pytest.raises(ConfigError, match="conv_stage: the input of a conv_bn_relu_pool "
                                              "in front of it takes no gradient"):
            model.trunk(x, training=True)
        assert (bn.running_mean.tobytes(), bn.running_var.tobytes()) == before

    def test_conv1_stage_that_no_conv_runs_is_refused(self):
        """Only a conv's node runs conv1's stage; a walk that stops at pool1
        says so rather than hand on a stage that was never run."""
        model = build_model("cnn_static", seed=0)
        x = ag.Tensor(np.zeros((2, 1, NUM_BANDS, NUM_COLUMNS), dtype=np.float32))
        with pytest.raises(ShapeError, match="no conv follows pool1 to run its "
                                             "conv_bn_relu_pool stage"):
            list(model.stages(x, training=True, stop=2))

    def test_fused_stage_error_names_its_conv(self):
        model = build_model("cnn_static", seed=0)
        model.conv_bn["conv2"] = ag.BatchNormState("conv2.bn", 3)
        x = ag.Tensor(np.zeros((2, 1, NUM_BANDS, NUM_COLUMNS), dtype=np.float32))
        with pytest.raises(ShapeError, match="layer conv2: conv_stage: input has 96 "
                                             "channels, state has 3"):
            model.trunk(x, training=True)

    def test_conv1_stage_error_names_its_conv(self):
        """conv1's stage, over the one-channel input, names itself
        conv_bn_relu_pool."""
        model = build_model("cnn_static", seed=0)
        model.conv_bn["conv1"] = ag.BatchNormState("conv1.bn", 3)
        x = ag.Tensor(np.zeros((2, 1, NUM_BANDS, NUM_COLUMNS), dtype=np.float32))
        with pytest.raises(ShapeError, match="layer conv1: conv_bn_relu_pool: input has 64 "
                                             "channels, state has 3"):
            model.trunk(x, training=True)


# =============================================================================
# Initialization
# =============================================================================

class TestBuildModel:
    def test_same_seed_is_bit_identical(self):
        a = build_model("cnn_gru", seed=7)
        b = build_model("cnn_gru", seed=7)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.name == pb.name
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_different_seeds_differ(self):
        a = build_model("cnn_gru", seed=7)
        b = build_model("cnn_gru", seed=8)
        assert any(
            pa.data.tobytes() != pb.data.tobytes()
            for pa, pb in zip(a.parameters(), b.parameters())
        )

    def test_lstm_forget_gate_bias_is_one(self):
        model = build_model("cnn_lstm", seed=0)
        hid = STANDARD_ARCH.hidden
        b = model.cell.b.data
        np.testing.assert_array_equal(b[hid:2 * hid], 1.0)
        np.testing.assert_array_equal(b[:hid], 0.0)
        np.testing.assert_array_equal(b[2 * hid:], 0.0)


# =============================================================================
# Forward pass
# =============================================================================

class TestForward:
    def test_output_frame_structure(self):
        rng = np.random.default_rng(0)
        model = build_model("cnn_static", seed=0)
        frame, state = forward(model, random_spec(rng, 4))
        assert frame.r.shape == (3,)
        assert frame.e.shape == (46,)
        assert frame.frame_index == 4
        assert np.all(np.abs(frame.r) < 1.0)
        assert np.all((frame.e > 0.0) & (frame.e < 1.0))
        assert state is not None

    def test_zero_parameters_give_neutral_outputs(self):
        """tanh(0) = 0 and sigmoid(0) = 0.5 regardless of input."""
        rng = np.random.default_rng(1)
        model = build_model("cnn_lstm", seed=0)
        for p in model.parameters():
            p.data[...] = 0.0
        frame, _ = forward(model, random_spec(rng))
        np.testing.assert_array_equal(frame.r, 0.0)
        np.testing.assert_array_equal(frame.e, 0.5)

    def test_output_ranges_hold_for_all_variants(self):
        rng = np.random.default_rng(2)
        for variant in VARIANTS:
            model = build_model(variant, seed=3)
            frame, _ = forward(model, random_spec(rng))
            assert np.all(np.abs(frame.r) < 1.0)
            assert np.all((frame.e > 0.0) & (frame.e < 1.0))

    def test_wrong_input_shape_names_layer(self):
        model = build_model("cnn_static", seed=0)
        bad = Spectrogram(np.zeros((NUM_BANDS, NUM_COLUMNS)), 0)
        bad.bands = np.zeros((64, NUM_COLUMNS))  # bypass the dataclass check
        with pytest.raises(ShapeError):
            forward(model, bad)

    def test_non_finite_input_is_named(self):
        """NaN bands, or a NaN in the state array at index 1, raise
        DataError naming that input rather than the output."""
        rng = np.random.default_rng(16)
        model = build_model("cnn_lstm", seed=0)
        spec = random_spec(rng)
        state = model.initial_state()
        state[1][0, 5] = np.nan
        with pytest.raises(DataError, match="input: state array 1 is not finite"):
            forward(model, spec, state)
        spec.bands[3, 4] = np.inf
        with pytest.raises(DataError, match="input: bands are not finite"):
            forward(model, spec)

    def test_static_variant_is_stateless(self):
        """Permuting input frames permutes outputs identically."""
        rng = np.random.default_rng(3)
        model = build_model("cnn_static", seed=2)
        specs = random_specs(rng, 6)
        base = [f.vector for f in forward_sequence(model, specs)]
        perm = [5, 3, 0, 1, 4, 2]
        shuffled = [f.vector for f in forward_sequence(model, [specs[i] for i in perm])]
        for out_pos, src in enumerate(perm):
            np.testing.assert_array_equal(shuffled[out_pos], base[src])

    def test_recurrent_variants_are_order_sensitive(self):
        rng = np.random.default_rng(4)
        for variant in ("cnn_lstm", "cnn_gru"):
            model = build_model(variant, seed=2)
            specs = random_specs(rng, 5)
            fwd = [f.vector for f in forward_sequence(model, specs)]
            rev = [f.vector for f in forward_sequence(model, specs[::-1])]
            assert not np.allclose(fwd[-1], rev[0])

    def test_length_one_sequence_equals_single_forward(self):
        rng = np.random.default_rng(5)
        for variant in VARIANTS:
            model = build_model(variant, seed=1)
            spec = random_spec(rng)
            seq_out = forward_sequence(model, [spec])[0]
            one_out, _ = forward(model, spec)
            assert np.max(np.abs(seq_out.vector - one_out.vector)) <= 1e-12

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_streaming_matches_batch(self, variant):
        """Frame-at-a-time with carried state tracks the batch pass <= 1e-6."""
        rng = np.random.default_rng(6)
        model = build_model(variant, seed=4)
        specs = random_specs(rng, 30)
        batch = [f.vector for f in forward_sequence(model, specs)]
        state = model.initial_state()
        worst = 0.0
        for t, spec in enumerate(specs):
            frame, state = forward(model, spec, state)
            worst = max(worst, float(np.max(np.abs(frame.vector - batch[t]))))
        assert worst <= 1e-6

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(7)
        model = build_model("cnn_gru", seed=5)
        spec = random_spec(rng)
        a, _ = forward(model, spec)
        b, _ = forward(model, spec)
        assert a.vector.tobytes() == b.vector.tobytes()


# =============================================================================
# Compiled inference plan
# =============================================================================

# Longer than one trunk chunk and not a multiple of it, so the last chunk is
# zero-padded.
LONG_CLIP = 2 * TRUNK_CHUNK + 3


def randomize_batch_norm(model, rng):
    for bn in model.conv_bn.values():
        c = bn.channels
        bn.running_mean = rng.normal(0.0, 0.5, c).astype(np.float32)
        bn.running_var = rng.uniform(0.2, 3.0, c).astype(np.float32)
        bn.gamma.data = rng.uniform(0.5, 1.5, c).astype(np.float32)
        bn.beta.data = rng.normal(0.0, 0.3, c).astype(np.float32)
    for b in model.conv_b.values():
        b.data = rng.normal(0.0, 0.1, b.data.shape).astype(np.float32)


def autograd_reference(model, bands):
    """The float64 autograd path from a zero state, one recurrent step and
    head per frame."""
    with ag.no_grad():
        feats = model.trunk(ag.Tensor(np.asarray(bands[:, None], np.float64)), training=False)
        state = tuple(map(ag.Tensor, model.initial_state()))
        rows = []
        for i in range(len(bands)):
            out, state = model.recur(ag.Tensor(feats.data[i:i + 1]), state)
            y_r, y_e = model.head_out(out)
            rows.append(np.concatenate([y_r.data, y_e.data], axis=1))
    return np.concatenate(rows)


class TestInferencePlan:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_autograd_path_with_folded_batch_norm(self, variant):
        rng = np.random.default_rng(9)
        model = build_model(variant, seed=5)
        randomize_batch_norm(model, rng)
        specs = random_specs(rng, LONG_CLIP)
        want = autograd_reference(model, np.stack([s.bands for s in specs]))
        got = np.array([f.vector for f in forward_sequence(model, specs)])
        assert got.shape == want.shape == (LONG_CLIP, 49)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_static_permutation_across_chunks_is_bitwise(self):
        rng = np.random.default_rng(10)
        model = build_model("cnn_static", seed=2)
        randomize_batch_norm(model, rng)
        specs = random_specs(rng, LONG_CLIP)
        base = [f.vector for f in forward_sequence(model, specs)]
        perm = rng.permutation(LONG_CLIP)
        shuffled = [f.vector for f in forward_sequence(model, [specs[i] for i in perm])]
        for out_pos, src in enumerate(perm):
            np.testing.assert_array_equal(shuffled[out_pos], base[src])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_static_frames_do_not_depend_on_sequence_length(self, variant):
        """Every GEMM of the plan runs on chunks of TRUNK_CHUNK rows, one
        frame's sequence included, so a prefix gives the first frames of the
        whole bitwise. The whole is long enough that a GEMM over all its rows
        would take another BLAS kernel than one over a short prefix's."""
        rng = np.random.default_rng(13)
        model = build_model(variant, seed=4)
        randomize_batch_norm(model, rng)
        specs = random_specs(rng, 5 * TRUNK_CHUNK + 3)
        base = [f.vector for f in forward_sequence(model, specs)]
        for n in [*range(1, TRUNK_CHUNK + 2), 2 * TRUNK_CHUNK + 1, 4 * TRUNK_CHUNK + 1]:
            for got, want in zip(forward_sequence(model, specs[:n]), base[:n], strict=True):
                np.testing.assert_array_equal(got.vector, want)

    def test_long_sequence_matches_per_frame_forward(self):
        rng = np.random.default_rng(11)
        model = build_model("cnn_lstm", seed=3)
        specs = random_specs(rng, LONG_CLIP)
        batch = forward_sequence(model, specs)
        state = model.initial_state()
        worst = 0.0
        for spec, want in zip(specs, batch):
            frame, state = forward(model, spec, state)
            worst = max(worst, float(np.max(np.abs(frame.vector - want.vector))))
        assert worst <= 1e-6

    def test_sequence_compiles_the_current_weights(self):
        rng = np.random.default_rng(12)
        model = build_model("cnn_gru", seed=6)
        specs = random_specs(rng, 3)
        old = [f.vector for f in forward_sequence(model, specs)]
        model.dense2_w.data *= 1.5  # in place, as an optimizer step would
        new = [f.vector for f in forward_sequence(model, specs)]
        state = model.initial_state()
        for spec, want, stale in zip(specs, new, old):
            frame, state = forward(model, spec, state)
            assert np.max(np.abs(frame.vector - want)) <= 1e-12
            assert not np.allclose(want, stale)

    def test_mixed_band_shapes_name_the_first_bad_frame(self):
        rng = np.random.default_rng(14)
        model = build_model("cnn_static", seed=0)
        specs = [random_spec(rng), np.zeros((3, 3)), np.zeros((4, 4))]
        with pytest.raises(ShapeError, match=r"frame 1 has shape \(3, 3\), expected \(128, 32\)"):
            forward_sequence(model, specs)

    def test_non_finite_bands_name_the_first_bad_frame(self):
        rng = np.random.default_rng(15)
        model = build_model("cnn_static", seed=0)
        specs = [random_spec(rng) for _ in range(5)]
        specs[3].bands[7, 2] = np.nan
        specs[4].bands[0, 0] = np.inf
        with pytest.raises(DataError, match=r"frame 3 has non-finite bands"):
            forward_sequence(model, specs)
        # a one-frame list names its frame too
        with pytest.raises(DataError, match=r"frame 0 has non-finite bands"):
            forward_sequence(model, specs[3:4])

    def test_non_finite_frame_in_a_later_chunk_is_named_before_compiling(self, monkeypatch):
        rng = np.random.default_rng(16)
        model = build_model("cnn_lstm", seed=0)
        specs = random_specs(rng, 2 * TRUNK_CHUNK)
        specs[TRUNK_CHUNK + 3].bands[100, 31] = -np.inf

        def compile_(model):
            raise AssertionError("compiled before every frame was checked")

        monkeypatch.setattr(model_module, "_compile", compile_)
        with pytest.raises(DataError, match=rf"frame {TRUNK_CHUNK + 3} has non-finite bands"):
            forward_sequence(model, specs)

    def test_matches_autograd_path_when_relu_zeroes_half_of_pool1(self):
        """conv1's folded bias is set to minus the median of each channel's
        pooled conv output, so the ReLU that the plan applies after the max
        of pool1's taps zeroes about half of pool1's outputs."""
        rng = np.random.default_rng(17)
        model = build_model("cnn_lstm", seed=7)
        randomize_batch_norm(model, rng)
        specs = random_specs(rng, LONG_CLIP)
        bands = np.stack([s.bands for s in specs])
        model.conv_w["conv1"].data *= 32.0
        bn = model.conv_bn["conv1"]
        bn.beta.data[:] = 0.0
        pooled = _pool(conv1_oracle(model, bands), 2, 2)
        bn.beta.data -= np.median(pooled, axis=(0, 1)).astype(np.float32)
        with ag.no_grad():
            pool1 = dict(model.layers(ag.Tensor(bands[:, None]), training=False))["pool1"]
        assert 0.4 <= np.mean(pool1.data == 0.0) <= 0.6
        bias = _compile(model).front[3][-1]  # conv1's folded bias, one per channel
        assert np.all(bias < -0.5) and np.mean(bias) < -2.0
        want = autograd_reference(model, bands)
        got = np.array([f.vector for f in forward_sequence(model, specs)])
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_memory_grows_by_at_most_12_kib_per_frame(self):
        """Under tracemalloc, 640 frames peak at most 12 KiB per extra frame
        above 64 frames: the trunk features, the recurrent layer's input
        projection and its output, about 2 + 8 + 2 KiB per frame of
        cnn_lstm. The frames' spectrograms are one trunk chunk at a time,
        and conv1's output at full resolution is never made."""
        rng = np.random.default_rng(18)
        model = build_model("cnn_lstm", seed=0)
        specs = random_specs(rng, 640)
        peaks = []
        for n in (64, 640):
            tracemalloc.start()
            try:
                forward_sequence(model, specs[:n])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= (640 - 64) * (12 << 10), peaks

    def test_memory_holds_one_phase_and_one_chunk(self):
        """Under tracemalloc, 64 frames peak at most at the trunk's float64
        weights, two arenas and 2 MiB: the recurrent layer, dense2 and the
        heads are compiled only after the trunk's weights are released, and
        every trunk stage of a chunk writes into one of two buffers, each as
        large as the largest activation it takes (pool1's output, and
        conv2's), allocated once per call."""
        rng = np.random.default_rng(20)
        model = build_model("cnn_lstm", seed=0)
        specs = random_specs(rng, 64)
        plan = _compile(model)
        weights = plan.front[3].nbytes + sum(a.nbytes for a in plan.dense1) + sum(
            w.nbytes + b.nbytes for *_, w, b in plan.trunk if w is not None)
        del plan
        sizes = [8 * TRUNK_CHUNK * np.prod(dims)
                 for _, dims in STANDARD_ARCH.stack_shapes()[2:]]  # pool1 onwards
        arenas = max(sizes[0::2]) + max(sizes[1::2])
        tracemalloc.start()
        try:
            forward_sequence(model, specs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= weights + arenas + (2 << 20), (peak, weights, arenas)

    def test_recurrence_steps_only_the_clips_frames(self, monkeypatch):
        """A 9-frame clip fills two chunks; the GRU steps its 9 frames, each
        with one call of the gates' sigmoid, and the expression head takes
        one more."""
        rng = np.random.default_rng(21)
        model = build_model("cnn_gru", seed=1)
        specs = random_specs(rng, 9)
        calls = []
        sigmoid = ag._sigmoid

        def counted(x):
            calls.append(x.shape)
            return sigmoid(x)

        monkeypatch.setattr(ag, "_sigmoid", counted)
        frames = forward_sequence(model, specs)
        assert len(calls) == 10, calls
        assert all(np.isfinite(f.vector).all() for f in frames)


def conv_oracle(x, k, s, p, w):
    """Explicit zero padding, then every output's window through einsum."""
    xp = np.pad(x, ((0, 0), (p, p), (0, 0)))
    m = (x.shape[1] + 2 * p - k) // s + 1
    windows = xp[:, np.arange(m)[:, None] * s + np.arange(k)]  # (N, m, k, C_in)
    return np.einsum("njic,ico->njo", windows, w)


def conv1_oracle(model, bands):
    """conv1 with its batch norm in inference mode, in float64, on (B, F, T)
    bands -> channels-last (B*T, F_out, C), through the padded einsum."""
    bn = model.conv_bn["conv1"]
    gamma, beta, mean, var = (np.asarray(a, np.float64) for a in
                              (bn.gamma.data, bn.beta.data, bn.running_mean, bn.running_var))
    scale = gamma / np.sqrt(var + bn.epsilon)
    w = np.asarray(model.conv_w["conv1"].data[:, 0, :, 0].T, np.float64)[:, None]  # (3, 1, 64)
    x = bands.transpose(0, 2, 1).reshape(-1, bands.shape[1], 1)
    return conv_oracle(x, 3, 2, 1, w) * scale + (beta - mean * scale)


class TestPlanKernels:
    """The plan's conv and pool on channels-last (N, L, C) activations."""

    @pytest.mark.parametrize("k,s,p,c_in,length", [
        (3, 2, 1, 64, 32),   # conv2: block view, taps split over two blocks
        (3, 2, 1, 96, 8),    # conv3
        (2, 2, 0, 160, 2),   # conv5: one block per output
        (3, 2, 1, 256, 16),  # conv6
        (4, 4, 0, 256, 4),   # conv8
    ])
    def test_conv_matches_padded_einsum(self, k, s, p, c_in, length):
        rng = np.random.default_rng(k * 100 + c_in + length)
        x = rng.normal(size=(6, length, c_in))
        w = rng.normal(size=(k, c_in, 11))
        got = ag._gemm_conv(x, k, s, p, w)
        want = conv_oracle(x, k, s, p, w)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("k,s,p,c_in,length", [
        (3, 2, 1, 64, 32),   # conv2: tap 0 lies one block back
        (4, 2, 1, 8, 12),    # one group a block back, one a block ahead
    ])
    def test_conv_in_sample_blocks_writes_into_out(self, k, s, p, c_in, length):
        """The groups that read a neighbouring block, made one slice of
        samples at a time, the last one short, into a given output."""
        rng = np.random.default_rng(k * 10 + c_in)
        x = rng.normal(size=(7, length, c_in))
        w = rng.normal(size=(k, c_in, 5))
        out = np.full((7, length // s, 5), np.nan)
        got = ag._gemm_conv(x, k, s, p, w, out, [slice(0, 3), slice(3, 6), slice(6, 7)])
        assert np.shares_memory(got, out)
        assert np.max(np.abs(out - conv_oracle(x, k, s, p, w))) <= 1e-12

    @pytest.mark.parametrize("frames,columns", [
        (1, NUM_COLUMNS), (TRUNK_CHUNK, NUM_COLUMNS),
        (3, 7),  # 21 rows: the last block of rows is short
    ], ids=["1", "8", "3x7"])
    def test_front_matches_conv_pool_bias_relu(self, frames, columns):
        """conv1 and pool1 as one GEMM per pool tap and block, against conv1
        through the padded einsum, pool1, its folded bias and the ReLU; the
        input is laid out as the trunk passes it, a transposed view of the
        bands."""
        rng = np.random.default_rng(19 + frames)
        model = build_model("cnn_static", seed=1)
        randomize_batch_norm(model, rng)
        bands = rng.normal(size=(frames, NUM_BANDS, columns))
        want = np.maximum(_pool(conv1_oracle(model, bands), 2, 2), 0.0)
        got = _front(_compile(model), bands.transpose(0, 2, 1), _Workspace())
        assert got.shape == want.shape == (frames * columns, NUM_BANDS // 4, 64)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert 0.0 < np.mean(got == 0.0) < 1.0

    @pytest.mark.parametrize("length", [32, 33])
    def test_pool_matches_reshape_max(self, length):
        x = np.random.default_rng(length).normal(size=(5, length, 3))
        m = length // 2
        want = x[:, :2 * m].reshape(5, m, 2, 3).max(axis=2)
        np.testing.assert_array_equal(_pool(x, 2, 2), want)
        out = np.empty_like(want)
        assert _pool(x, 2, 2, out) is out
        np.testing.assert_array_equal(out, want)


# =============================================================================
# Checkpoints
# =============================================================================

class TestCheckpoint:
    def test_roundtrip_preserves_outputs(self, tmp_path):
        rng = np.random.default_rng(8)
        model = build_model("cnn_lstm", seed=6)
        model.norm_stats.mean[:] = rng.uniform(0, 2, NUM_BANDS)
        model.norm_stats.std[:] = rng.uniform(0.5, 1.5, NUM_BANDS)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.variant == "cnn_lstm"
        np.testing.assert_array_equal(
            back.norm_stats.mean, model.norm_stats.mean.astype(np.float32))
        spec = random_spec(rng)
        a, _ = forward(model, spec)
        b, _ = forward(back, spec)
        assert a.vector.tobytes() == b.vector.tobytes()

    def test_roundtrip_preserves_running_stats(self, tmp_path):
        model = build_model("cnn_static", seed=0)
        bn = model.conv_bn["conv3"]
        bn.running_mean[:] = 0.25
        bn.running_var[:] = 2.5
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        np.testing.assert_array_equal(back.conv_bn["conv3"].running_mean, 0.25)
        np.testing.assert_array_equal(back.conv_bn["conv3"].running_var, 2.5)

    def test_save_is_deterministic(self, tmp_path):
        model = build_model("cnn_gru", seed=7)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_byte_length_formula(self, tmp_path):
        """Header + stats + per-entry (name, rank, dims, values) budget."""
        model = build_model("cnn_gru", seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        expected = 4 + 4 + 1 + 128 * 4 * 2 + 4
        for name, arr in model.named_arrays():
            expected += 2 + len(name.encode()) + 1 + 4 * arr.ndim + 4 * arr.size
        assert path.stat().st_size == expected

    def test_corrupt_magic_names_field(self, tmp_path):
        model = build_model("cnn_static", seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"ZZZZ"
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        model = build_model("cnn_static", seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 321])
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_unknown_variant_id(self, tmp_path):
        model = build_model("cnn_static", seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        assert blob[:4] == CHECKPOINT_MAGIC
        blob[8] = 250  # variant byte follows magic + version
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="variant"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "absent.ckpt")

    @pytest.mark.parametrize("version", [0, 3])
    def test_unknown_version_names_byte_4(self, tmp_path, version):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model("cnn_static", seed=0), path)
        blob = bytearray(path.read_bytes())
        assert struct.unpack_from("<I", blob, 4) == (CHECKPOINT_VERSION,)
        struct.pack_into("<I", blob, 4, version)
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match=f"unsupported checkpoint version {version} "
                                             "at byte 4$"):
            load_checkpoint(path)


def biased_checkpoint(model, biases, version=1):
    """``model``'s checkpoint bytes, in the field layout of version 1, where
    each conv's bias followed its weights: ``biases`` maps a conv name to the
    bias written for it. Returns (bytes, the byte where each entry starts)."""
    entries = []
    for name, arr in model.named_arrays():
        entries.append((name, arr))
        if name.endswith(".w") and name[:-2] in biases:
            entries.append((f"{name[:-2]}.b", biases[name[:-2]]))
    blob = bytearray(CHECKPOINT_MAGIC + struct.pack("<IB", version, VARIANTS.index(model.variant)))
    blob += model.norm_stats.to_bytes() + struct.pack("<I", len(entries))
    starts = {}
    for name, arr in entries:
        starts[name] = len(blob)
        blob += struct.pack("<H", len(name)) + name.encode()
        blob += struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
        blob += np.asarray(arr, "<f4").tobytes()
    return bytes(blob), starts


class TestVersion1Checkpoint:
    """Version 1 gave conv1 to conv7 a bias b each, which inference added to
    the conv's output before batch norm subtracted the running mean."""

    def model_and_biases(self, variant, seed=21):
        rng = np.random.default_rng(seed)
        model = build_model(variant, seed=seed)
        randomize_batch_norm(model, rng)
        biases = {name: (0.1 * rng.normal(size=bn.channels)).astype(np.float32)
                  for name, bn in model.conv_bn.items()}
        return model, biases

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bias_folds_into_the_running_mean(self, tmp_path, variant):
        """The loaded model has no conv1.b to conv7.b, and each running mean
        is the file's less its conv's bias, in float32. Its frames on a
        short clip match the version 1 arithmetic, conv2d with the file's
        bias and then batch norm with the file's running mean in float64,
        within 5e-8. Rounding the folded mean to float32 is that
        difference: 7e-9 here, at most 1.9e-8 over ten seeds per variant,
        and under 2e-15 with the mean folded in float64."""
        model, biases = self.model_and_biases(variant)
        path = tmp_path / "v1.ckpt"
        path.write_bytes(biased_checkpoint(model, biases)[0])
        loaded = load_checkpoint(path)
        names = {name for name, _ in loaded.named_arrays()}
        assert not names & {f"conv{i}.b" for i in range(1, 8)} and "conv8.b" in names
        for name, bn in loaded.conv_bn.items():
            want = model.conv_bn[name].running_mean - biases[name]
            assert bn.running_mean.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(bn.running_mean, want)

        v1 = _float64_copy(model)  # the file's running means, and its biases added back
        for name in v1.conv_bn:
            v1.conv_b[name] = ag.Parameter(f"{name}.b", biases[name].astype(np.float64))
        specs = random_specs(np.random.default_rng(22), LONG_CLIP)
        want = autograd_reference(v1, np.stack([s.bands for s in specs]))
        got = np.array([f.vector for f in forward_sequence(loaded, specs)])
        assert np.max(np.abs(got - want)) <= 5e-8

    def test_bias_with_wrong_dims_names_its_field(self, tmp_path):
        model, biases = self.model_and_biases("cnn_static")
        biases["conv3"] = biases["conv3"][:-1]
        blob, starts = biased_checkpoint(model, biases)
        path = tmp_path / "v1.ckpt"
        path.write_bytes(blob)
        with pytest.raises(ParseError, match=rf"field 'conv3.b' has dims \(127,\), expected "
                                             rf"\(128,\) at byte {starts['conv3.b']}$"):
            load_checkpoint(path)

    def test_version_2_refuses_a_normalized_conv_bias(self, tmp_path):
        model, biases = self.model_and_biases("cnn_static")
        blob, starts = biased_checkpoint(model, {"conv5": biases["conv5"]},
                                         version=CHECKPOINT_VERSION)
        path = tmp_path / "v2.ckpt"
        path.write_bytes(blob)
        with pytest.raises(ParseError, match=f"unexpected field 'conv5.b' "
                                             f"at byte {starts['conv5.b']}$"):
            load_checkpoint(path)

    def test_written_checkpoint_is_version_2(self, tmp_path):
        """The writer writes version 2 only: the bytes biased_checkpoint
        packs with version 2 and no bias."""
        model, _ = self.model_and_biases("cnn_gru")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        assert CHECKPOINT_VERSION == 2
        assert path.read_bytes() == biased_checkpoint(model, {}, version=2)[0]
