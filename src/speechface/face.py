"""Blendshape face representation, quaternion head rotation and error metrics.

A face is composed as ``S = R * (B0 + sum_i (B_i - B0) * e_i)`` from a neutral
shape B0, 46 expression shapes and 46 blending weights in [0, 1]; R is the
rotation of a unit quaternion reconstructed from 3 free parameters. Rig
coordinates are millimeters.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binfile import Reader
from .errors import DataError, ShapeError, check_seed, is_index

NUM_EXPRESSIONS = 46
NUM_ROTATION = 3

RIG_MAGIC = b"SFRG"
RIG_VERSION = 1


def _read_only(values, dtype) -> np.ndarray:
    """A read-only copy of ``values`` as ``dtype``."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FaceFrame:
    """Per-frame face parameters: 3 rotation free parameters + 46 weights.
    Frozen, with read-only copies of its arrays, so it stays as checked."""

    r: np.ndarray
    e: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        vars(self).update(r=_read_only(self.r, np.float64), e=_read_only(self.e, np.float64))
        if self.r.shape != (NUM_ROTATION,):
            raise ShapeError(f"rotation parameters must have shape (3,), got {self.r.shape}")
        if self.e.shape != (NUM_EXPRESSIONS,):
            raise ShapeError(f"expression weights must have shape (46,), got {self.e.shape}")
        if not (np.all(np.isfinite(self.r)) and np.all(np.isfinite(self.e))):
            raise DataError("face parameters must be finite")
        if np.any(self.e < 0.0) or np.any(self.e > 1.0):
            raise DataError("expression weights must lie in [0, 1]")
        if np.any(np.abs(self.r) > 1.0):
            raise DataError("rotation free parameters must lie in [-1, 1]")
        index = self.frame_index
        if not is_index(index):
            raise DataError(f"frame index must be a non-negative integer, got {index!r}")

    @property
    def vector(self) -> np.ndarray:
        """The 49-value parameter vector (r1, r2, r3, e1..e46)."""
        return np.concatenate([self.r, self.e])

    @classmethod
    def from_vector(cls, vec, frame_index: int = 0) -> "FaceFrame":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (NUM_ROTATION + NUM_EXPRESSIONS,):
            raise ShapeError(f"parameter vector must have 49 values, got {vec.shape}")
        return cls(vec[:NUM_ROTATION], vec[NUM_ROTATION:], frame_index)


@dataclass(frozen=True)
class BlendshapeRig:
    """Neutral shape B0 plus 46 expression shapes and the inner-landmark list.

    ``shapes`` is (47, V, 3) with B0 first, rounded to float32 at
    construction, as the rig file stores it, and held as float64; ``faces``
    is an optional (M, 3) triangle list shared by every composed mesh.
    Frozen, with read-only copies of its arrays, so it stays as checked.
    """

    shapes: np.ndarray
    landmark_indices: np.ndarray
    faces: np.ndarray | None = None

    def __post_init__(self):
        vars(self).update(shapes=_read_only(np.asarray(self.shapes, np.float32), np.float64),
                          landmark_indices=_read_only(self.landmark_indices, np.int64),
                          faces=None if self.faces is None else _read_only(self.faces, np.int64))
        if self.shapes.ndim != 3 or self.shapes.shape[0] != NUM_EXPRESSIONS + 1 \
                or self.shapes.shape[2] != 3:
            raise ShapeError(f"rig shapes must be (47, V, 3), got {self.shapes.shape}")
        if not np.isfinite(self.shapes).all():
            raise DataError("rig shapes must be finite")
        lm = self.landmark_indices
        if lm.ndim != 1 or lm.size == 0:
            raise DataError("rig needs a non-empty landmark index list")
        if len(np.unique(lm)) != len(lm):
            raise DataError("landmark indices must be distinct")
        if lm.min() < 0 or lm.max() >= self.vertex_count:
            raise DataError("landmark index out of vertex range")
        if self.faces is not None:
            if self.faces.ndim != 2 or self.faces.shape[1] != 3:
                raise ShapeError(f"face list must be (M, 3), got {self.faces.shape}")
            if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= self.vertex_count):
                raise DataError("face vertex index out of range")

    @property
    def vertex_count(self) -> int:
        return self.shapes.shape[1]


def quaternion_from_free_params(r) -> np.ndarray:
    """Unit quaternion (w, x, y, z) from the 3-value vector part.

    The scalar part is recovered as sqrt(1 - |r|^2); inputs outside the unit
    ball are radially clamped first so the result always has unit norm.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (NUM_ROTATION,):
        raise ShapeError(f"expected 3 rotation parameters, got shape {r.shape}")
    norm = float(np.linalg.norm(r))
    if norm > 1.0:
        r = r / norm
    w = np.sqrt(max(0.0, 1.0 - float(r @ r)))
    return np.array([w, r[0], r[1], r[2]])


def quaternion_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=np.float64)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _blend(shapes: np.ndarray, e: np.ndarray) -> np.ndarray:
    """B0 + sum_i (B_i - B0) e_i, summed in one pass as (1 - sum e) B0 + sum e_i B_i."""
    weights = np.concatenate([[1.0 - e.sum()], e])
    return (weights @ shapes.reshape(len(shapes), -1)).reshape(shapes.shape[1:])


def compose_shape(rig: BlendshapeRig, frame: FaceFrame) -> np.ndarray:
    """Full composed face: rotated blend of neutral and expression shapes."""
    rot = quaternion_to_matrix(quaternion_from_free_params(frame.r))
    return _blend(rig.shapes, frame.e) @ rot.T


def landmark_positions(rig: BlendshapeRig, frame: FaceFrame) -> np.ndarray:
    """Composed positions of the rig's inner landmarks only, (L, 3)."""
    rot = quaternion_to_matrix(quaternion_from_free_params(frame.r))
    sub = rig.shapes[:, rig.landmark_indices, :]
    return _blend(sub, frame.e) @ rot.T


def landmark_rmse(pred, truth, rig: BlendshapeRig) -> float:
    """RMSE (mm) of landmark distances between two composed frame sequences."""
    pred, truth = list(pred), list(truth)
    if len(pred) != len(truth):
        raise DataError(f"sequence lengths differ: {len(pred)} vs {len(truth)}")
    if not pred:
        raise DataError("cannot compute landmark RMSE of empty sequences")
    sq = 0.0
    count = 0
    for p, t in zip(pred, truth):
        diff = landmark_positions(rig, p) - landmark_positions(rig, t)
        sq += float((diff ** 2).sum())
        count += diff.shape[0]
    return float(np.sqrt(sq / count))


def weights_mse(pred, truth) -> float:
    """Mean squared error of expression weights over frames and components."""
    pred, truth = list(pred), list(truth)
    if len(pred) != len(truth):
        raise DataError(f"sequence lengths differ: {len(pred)} vs {len(truth)}")
    if not pred:
        raise DataError("cannot compute weight MSE of empty sequences")
    pe = np.stack([f.e for f in pred])
    te = np.stack([f.e for f in truth])
    return float(((pe - te) ** 2).mean())


# ---------------------------------------------------------------------------
# synthetic rig


def make_toy_rig(seed: int = 0) -> BlendshapeRig:
    """Deterministic synthetic head rig standing in for captured blendshapes.

    468 vertices on an ellipsoid (lat/long grid, mm units), 46 localized
    smooth bump shapes centred on front-facing vertices, 20 inner landmarks
    and a shared triangle list.
    """
    rings, cols = 26, 18  # 468 vertices
    radii = np.array([72.0, 96.0, 84.0])  # x lateral, y vertical, z depth (mm)
    theta = np.linspace(0.12 * np.pi, 0.88 * np.pi, rings)
    phi = np.linspace(0.0, 2.0 * np.pi, cols, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    base = np.stack([
        radii[0] * np.sin(tt) * np.sin(pp),
        radii[1] * np.cos(tt),
        radii[2] * np.sin(tt) * np.cos(pp),
    ], axis=-1).reshape(-1, 3)
    nverts = base.shape[0]

    faces = []
    for i in range(rings - 1):
        for j in range(cols):
            a = i * cols + j
            b = i * cols + (j + 1) % cols
            c = (i + 1) * cols + j
            d = (i + 1) * cols + (j + 1) % cols
            faces.append((a, b, c))
            faces.append((b, d, c))
    faces = np.array(faces, dtype=np.int64)

    rng = np.random.default_rng(check_seed(seed))
    front = np.flatnonzero(base[:, 2] > 0.45 * radii[2])  # the "face" side
    centers = rng.choice(front, size=NUM_EXPRESSIONS, replace=True)
    normals = base / radii  # outward ellipsoid normal direction (unnormalized)
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)

    shapes = np.empty((NUM_EXPRESSIONS + 1, nverts, 3))
    shapes[0] = base
    for k, c in enumerate(centers):
        amp = rng.uniform(2.0, 6.0)  # mm
        sigma = rng.uniform(9.0, 16.0)
        dist2 = ((base - base[c]) ** 2).sum(axis=1)
        bump = amp * np.exp(-dist2 / (2.0 * sigma * sigma))
        shapes[k + 1] = base + bump[:, None] * normals

    landmarks = rng.choice(front, size=20, replace=False)
    return BlendshapeRig(shapes, np.sort(landmarks), faces)


# ---------------------------------------------------------------------------
# rig file and OBJ export


def save_rig(rig: BlendshapeRig, path) -> None:
    """Write the binary rig file (magic SFRG), optionally with topology."""
    lm = rig.landmark_indices
    out = bytearray()
    out += RIG_MAGIC
    out += struct.pack("<IIBH", RIG_VERSION, rig.vertex_count, NUM_EXPRESSIONS, len(lm))
    out += lm.astype("<u4").tobytes()
    out += rig.shapes.astype("<f4").tobytes()
    if rig.faces is not None:
        out += struct.pack("<I", len(rig.faces))
        out += rig.faces.astype("<u4").tobytes()
    Path(path).write_bytes(bytes(out))


def load_rig(path) -> BlendshapeRig:
    r = Reader(path, RIG_MAGIC)
    version, nverts, nexpr, nlm = r.unpack("<IIBH", "rig header")
    if version != RIG_VERSION:
        r.fail(f"unsupported rig version {version}", 4)
    if nexpr != NUM_EXPRESSIONS:
        r.fail(f"rig declares {nexpr} expression shapes, expected {NUM_EXPRESSIONS}", 12)
    tables = r.pos
    landmarks = r.array("<u4", nlm, "landmark table").astype(np.int64)
    shapes = r.array("<f4", (NUM_EXPRESSIONS + 1) * nverts * 3, "shape data")
    shapes = shapes.reshape(NUM_EXPRESSIONS + 1, nverts, 3)
    faces = None
    if r.left:
        (nfaces,) = r.unpack("<I", "face count")
        faces = r.array("<u4", nfaces * 3, "face list").reshape(-1, 3).astype(np.int64)
    r.end()
    try:
        return BlendshapeRig(shapes, landmarks, faces)
    except DataError as err:
        r.fail(f"{err}, in the tables starting", tables)


def write_obj(path, vertices: np.ndarray, faces: np.ndarray | None = None) -> None:
    """Write one mesh as a Wavefront OBJ (vertex lines, optional triangles)."""
    lines = [f"v {v[0]:.6f} {v[1]:.6f} {v[2]:.6f}" for v in np.asarray(vertices)]
    if faces is not None:
        lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in np.asarray(faces)]
    Path(path).write_text("\n".join(lines) + "\n")
