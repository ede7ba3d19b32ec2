"""Blendshape face tests: quaternions, shape composition, metrics, rig files.

Metric values are checked against closed-form hand computations; geometry
against exact algebraic identities of the composition rule.
"""

import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from speechface.errors import DataError, ParseError, ShapeError
from speechface.face import (
    BlendshapeRig,
    FaceFrame,
    compose_shape,
    landmark_positions,
    landmark_rmse,
    load_rig,
    make_toy_rig,
    quaternion_from_free_params,
    quaternion_to_matrix,
    save_rig,
    weights_mse,
    write_obj,
)

from _objfile import read_obj_vertices


def neutral_frame(frame_index=0):
    return FaceFrame(np.zeros(3), np.zeros(46), frame_index)


@pytest.fixture(scope="module")
def rig():
    return make_toy_rig(seed=0)


# =============================================================================
# FaceFrame
# =============================================================================

class TestFaceFrame:
    def test_vector_roundtrip(self):
        rng = np.random.default_rng(0)
        frame = FaceFrame(rng.uniform(-1, 1, 3), rng.uniform(0, 1, 46), 5)
        back = FaceFrame.from_vector(frame.vector, frame_index=5)
        np.testing.assert_allclose(back.r, frame.r, rtol=1e-6)
        np.testing.assert_allclose(back.e, frame.e, rtol=1e-6)
        assert back.frame_index == 5

    def test_weight_out_of_range_rejected(self):
        with pytest.raises(DataError):
            FaceFrame(np.zeros(3), np.full(46, 1.5))

    def test_rotation_out_of_range_rejected(self):
        with pytest.raises(DataError):
            FaceFrame(np.array([2.0, 0.0, 0.0]), np.zeros(46))

    def test_wrong_width_rejected(self):
        with pytest.raises(ShapeError):
            FaceFrame(np.zeros(3), np.zeros(45))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            FaceFrame(np.array([0.0, bad, 0.0]), np.zeros(46))
        with pytest.raises(DataError, match="finite"):
            FaceFrame(np.zeros(3), np.r_[np.full(45, 0.5), bad])

    @pytest.mark.parametrize("index", [-1, 1.5, True])
    def test_index_must_be_a_non_negative_integer(self, index):
        with pytest.raises(DataError, match=re.escape(
                f"frame index must be a non-negative integer, got {index!r}")):
            FaceFrame(np.zeros(3), np.zeros(46), index)

    @pytest.mark.parametrize("field", ["r", "e"])
    def test_arrays_are_read_only(self, field):
        frame = FaceFrame.from_vector(np.full(49, 0.5), 3)
        with pytest.raises(ValueError, match="read-only"):
            getattr(frame, field)[0] = 0.25
        assert frame.vector.tolist() == [0.5] * 49

    @pytest.mark.parametrize("field", ["r", "e", "frame_index"])
    def test_fields_cannot_be_reassigned(self, field):
        frame = FaceFrame.from_vector(np.full(49, 0.5), 3)
        with pytest.raises(FrozenInstanceError):
            setattr(frame, field, getattr(frame, field))

    def test_holds_a_copy_of_the_callers_arrays(self):
        r, e = np.zeros(3), np.full(46, 0.5)
        frame = FaceFrame(r, e)
        r[0], e[0] = 0.75, 1.0  # the caller's arrays stay writable
        assert frame.r[0] == 0.0 and frame.e[0] == 0.5


class TestBlendshapeRig:
    @staticmethod
    def arrays():
        return np.zeros((47, 6, 3)), np.array([0, 2, 4]), np.array([[0, 1, 2], [2, 3, 4]])

    @pytest.mark.parametrize("field", ["shapes", "landmark_indices", "faces"])
    def test_arrays_are_read_only(self, field):
        rig = BlendshapeRig(*self.arrays())
        with pytest.raises(ValueError, match="read-only"):
            getattr(rig, field)[0] = 1
        with pytest.raises(FrozenInstanceError):
            setattr(rig, field, getattr(rig, field))

    def test_holds_a_copy_of_the_callers_arrays(self):
        shapes, landmarks, faces = self.arrays()
        rig = BlendshapeRig(shapes, landmarks, faces)
        shapes[0, 0, 0], landmarks[0], faces[0, 0] = np.nan, 99, 99  # still writable
        assert rig.shapes[0, 0, 0] == 0.0
        assert rig.landmark_indices[0] == 0 and rig.faces[0, 0] == 0


# =============================================================================
# Quaternions
# =============================================================================

class TestQuaternion:
    def test_zero_params_give_identity(self):
        np.testing.assert_allclose(quaternion_from_free_params(np.zeros(3)), [1, 0, 0, 0])
        np.testing.assert_allclose(quaternion_to_matrix([1, 0, 0, 0]), np.eye(3), atol=1e-12)

    def test_unit_x_gives_half_turn(self):
        q = quaternion_from_free_params(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(q, [0, 1, 0, 0], atol=1e-12)

    def test_on_sphere_params_have_zero_w(self):
        q = quaternion_from_free_params(np.array([0.6, 0.0, 0.8]))
        np.testing.assert_allclose(q, [0.0, 0.6, 0.0, 0.8], atol=1e-12)

    def test_always_unit_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = rng.uniform(-1, 1, 3)
            q = quaternion_from_free_params(r)
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-6)

    def test_overlong_params_clamp_radially(self):
        q = quaternion_from_free_params(np.array([3.0, 0.0, 4.0]))
        np.testing.assert_allclose(q, [0.0, 0.6, 0.0, 0.8], atol=1e-12)

    def test_matrix_is_orthonormal(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = quaternion_from_free_params(rng.uniform(-0.7, 0.7, 3))
            m = quaternion_to_matrix(q)
            np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)


# =============================================================================
# Shape composition
# =============================================================================

class TestComposeShape:
    def test_rest_frame_reproduces_neutral(self, rig):
        np.testing.assert_array_equal(compose_shape(rig, neutral_frame()), rig.shapes[0])

    def test_unit_weight_reproduces_that_shape(self, rig):
        """e_k = 1 with the rest zero telescopes to B_k exactly."""
        for k in (1, 17, 46):
            e = np.zeros(46)
            e[k - 1] = 1.0
            frame = FaceFrame(np.zeros(3), e)
            np.testing.assert_allclose(compose_shape(rig, frame), rig.shapes[k], atol=1e-12)

    def test_half_turn_flips_yz(self, rig):
        frame = FaceFrame(np.array([1.0, 0.0, 0.0]), np.zeros(46))
        got = compose_shape(rig, frame)
        want = rig.shapes[0] * np.array([1.0, -1.0, -1.0])
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_blending_is_affine_in_weights(self, rig):
        rng = np.random.default_rng(3)
        e1 = rng.uniform(0, 1, 46)
        e2 = rng.uniform(0, 1, 46)
        alpha = 0.3
        r = rng.uniform(-0.5, 0.5, 3)
        s1 = compose_shape(rig, FaceFrame(r, e1))
        s2 = compose_shape(rig, FaceFrame(r, e2))
        s_mix = compose_shape(rig, FaceFrame(r, alpha * e1 + (1 - alpha) * e2))
        np.testing.assert_allclose(s_mix, alpha * s1 + (1 - alpha) * s2, atol=1e-9)

    def test_matches_the_delta_form_in_float64(self, rig):
        """compose_shape is R (B0 + sum_k e_k (B_k - B0)) to 1e-9 mm, and
        landmark_positions are its landmark rows to 1e-9 mm."""
        rng = np.random.default_rng(6)
        shapes = rig.shapes.astype(np.float64)
        for _ in range(50):
            frame = FaceFrame(rng.uniform(-0.6, 0.6, 3), rng.uniform(0, 1, 46))
            rot = quaternion_to_matrix(quaternion_from_free_params(frame.r))
            want = (shapes[0] + np.tensordot(frame.e, shapes[1:] - shapes[0], axes=1)) @ rot.T
            got = compose_shape(rig, frame)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
            np.testing.assert_allclose(landmark_positions(rig, frame),
                                       got[rig.landmark_indices], rtol=0, atol=1e-9)

    def test_rotation_is_isometry(self, rig):
        """Pairwise vertex distances are invariant to r within 1e-6."""
        rng = np.random.default_rng(4)
        e = rng.uniform(0, 1, 46)
        idx = rng.integers(0, rig.shapes.shape[1], size=(40, 2))
        base = compose_shape(rig, FaceFrame(np.zeros(3), e))
        d0 = np.linalg.norm(base[idx[:, 0]] - base[idx[:, 1]], axis=1)
        for _ in range(5):
            rot = compose_shape(rig, FaceFrame(rng.uniform(-0.6, 0.6, 3), e))
            d1 = np.linalg.norm(rot[idx[:, 0]] - rot[idx[:, 1]], axis=1)
            np.testing.assert_allclose(d1, d0, rtol=1e-6)


# =============================================================================
# Metrics
# =============================================================================

class TestMetrics:
    def test_identical_sequences_score_zero(self, rig):
        rng = np.random.default_rng(5)
        seq = [FaceFrame(rng.uniform(-0.5, 0.5, 3), rng.uniform(0, 1, 46), i) for i in range(4)]
        assert landmark_rmse(seq, seq, rig) == 0.0
        assert weights_mse(seq, seq) == 0.0

    def test_single_displaced_landmark_closed_form(self):
        """One landmark moved by (3,0,4) mm in one of five frames.

        RMSE over 5 frames x L landmarks of squared distances: only one
        distance is nonzero (25 mm^2), so the result is 5/sqrt(5L).
        """
        rig = make_toy_rig(seed=0)
        L = len(rig.landmark_indices)
        truth = [neutral_frame(i) for i in range(5)]
        pred = [neutral_frame(i) for i in range(5)]
        shift = rig.shapes.copy()
        shift[1:] = rig.shapes[0]  # all expressions collapse to neutral
        v = rig.landmark_indices[0]
        shift[1, v] = rig.shapes[0, v] + [3.0, 0.0, 4.0]
        rig2 = BlendshapeRig(shift, rig.landmark_indices, rig.faces)
        e = np.zeros(46)
        e[0] = 1.0
        pred[2] = FaceFrame(np.zeros(3), e, 2)
        got = landmark_rmse(pred, truth, rig2)
        assert got == pytest.approx(5.0 / np.sqrt(5 * L), rel=1e-9)

    def test_weights_mse_closed_form(self):
        truth = [FaceFrame(np.zeros(3), np.full(46, 0.1))]
        pred = [neutral_frame()]
        assert weights_mse(pred, truth) == pytest.approx(0.01, rel=1e-12)

    def test_metrics_are_symmetric(self, rig):
        rng = np.random.default_rng(6)
        a = [FaceFrame(rng.uniform(-0.3, 0.3, 3), rng.uniform(0, 1, 46), i) for i in range(3)]
        b = [FaceFrame(rng.uniform(-0.3, 0.3, 3), rng.uniform(0, 1, 46), i) for i in range(3)]
        assert landmark_rmse(a, b, rig) == pytest.approx(landmark_rmse(b, a, rig), rel=1e-12)
        assert weights_mse(a, b) == pytest.approx(weights_mse(b, a), rel=1e-12)

    def test_length_mismatch_raises(self, rig):
        a = [neutral_frame(0)]
        b = [neutral_frame(0), neutral_frame(1)]
        with pytest.raises(DataError):
            landmark_rmse(a, b, rig)
        with pytest.raises(DataError):
            weights_mse(a, b)


# =============================================================================
# Toy rig
# =============================================================================

class TestToyRig:
    def test_deterministic(self):
        a = make_toy_rig(seed=3)
        b = make_toy_rig(seed=3)
        assert a.shapes.tobytes() == b.shapes.tobytes()
        np.testing.assert_array_equal(a.landmark_indices, b.landmark_indices)

    def test_seed_changes_rig(self):
        a = make_toy_rig(seed=0)
        b = make_toy_rig(seed=1)
        assert a.shapes.tobytes() != b.shapes.tobytes()

    def test_structure(self, rig):
        assert rig.shapes.shape[0] == 47
        assert rig.shapes.shape[2] == 3
        v = rig.shapes.shape[1]
        assert len(rig.landmark_indices) >= 1
        assert len(set(int(i) for i in rig.landmark_indices)) == len(rig.landmark_indices)
        assert all(0 <= i < v for i in rig.landmark_indices)

    def test_shapes_are_float32_values_held_in_float64(self):
        shapes = np.random.default_rng(7).normal(size=(47, 5, 3))
        rig = BlendshapeRig(shapes, [0, 2])
        assert rig.shapes.dtype == np.float64
        assert np.array_equal(rig.shapes, shapes.astype(np.float32))

    def test_compose_matches_the_float32_rig_bitwise(self, rig):
        """Holding the rig in float64 changes no composed vertex."""
        rng = np.random.default_rng(8)
        s32 = rig.shapes.astype(np.float32)
        for _ in range(20):
            frame = FaceFrame(rng.uniform(-0.6, 0.6, 3), rng.uniform(0, 1, 46))
            rot = quaternion_to_matrix(quaternion_from_free_params(frame.r))
            weights = np.concatenate([[1.0 - frame.e.sum()], frame.e])
            want = (weights @ s32.reshape(47, -1)).reshape(s32.shape[1:]) @ rot.T
            assert np.array_equal(compose_shape(rig, frame), want)

    def test_every_shape_moves_something(self, rig):
        """Each expression shape differs from neutral in at least one vertex."""
        for k in range(1, 47):
            assert np.any(rig.shapes[k] != rig.shapes[0])


# =============================================================================
# Rig files and OBJ export
# =============================================================================

class TestRigIO:
    def test_roundtrip_bit_exact(self, rig, tmp_path):
        path = tmp_path / "face.rig"
        save_rig(rig, path)
        back = load_rig(path)
        assert back.shapes.dtype == np.float64
        assert back.shapes.tobytes() == rig.shapes.tobytes()
        np.testing.assert_array_equal(back.landmark_indices, rig.landmark_indices)
        again = tmp_path / "again.rig"
        save_rig(back, again)
        assert again.read_bytes() == path.read_bytes()
        if rig.faces is not None:
            np.testing.assert_array_equal(back.faces, rig.faces)

    def test_corrupt_magic(self, rig, tmp_path):
        path = tmp_path / "face.rig"
        save_rig(rig, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="magic"):
            load_rig(path)

    def test_truncated_file(self, rig, tmp_path):
        path = tmp_path / "face.rig"
        save_rig(rig, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ParseError):
            load_rig(path)


class TestObj:
    def test_write_and_reparse(self, rig, tmp_path):
        rng = np.random.default_rng(7)
        frame = FaceFrame(rng.uniform(-0.4, 0.4, 3), rng.uniform(0, 1, 46))
        verts = compose_shape(rig, frame)
        path = tmp_path / "frame.obj"
        write_obj(path, verts, rig.faces)
        back = read_obj_vertices(path)
        assert back.shape == verts.shape
        assert np.max(np.abs(back - verts)) <= 1e-4

    def test_face_lines_present(self, rig, tmp_path):
        path = tmp_path / "mesh.obj"
        write_obj(path, rig.shapes[0], rig.faces)
        text = path.read_text()
        assert text.count("\nf ") + text.startswith("f ") == len(rig.faces)

    def test_landmark_positions_pick_rows(self, rig):
        frame = neutral_frame()
        pos = landmark_positions(rig, frame)
        np.testing.assert_array_equal(pos, rig.shapes[0][rig.landmark_indices])
