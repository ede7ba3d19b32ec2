"""Dataset and parameter-CSV persistence.

A prepared dataset (``.sfd``) carries normalized spectrograms with per-frame
target vectors, grouped into contiguous sequences, plus optional emotion and
actor labels parsed from RAVDESS-style filenames, and the per-band
normalization statistics that standardized the spectrograms. One file holds
everything a training run needs.

Parameter CSVs are the interchange format for ground truth and inference
output: a header row, then one row per frame with the 3 rotation parameters
and 46 expression weights at 6 decimal places.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .audio import NUM_BANDS, NUM_COLUMNS, NormStats
from .binfile import Reader
from .errors import DataError, ParseError
from .face import NUM_EXPRESSIONS, NUM_ROTATION, FaceFrame

DATASET_MAGIC = b"SFDS"
DATASET_VERSION = 2

LABEL_ABSENT = 255

EMOTION_NAMES = {
    1: "neutral", 2: "calm", 3: "happy", 4: "sad",
    5: "angry", 6: "fearful", 7: "disgust", 8: "surprised",
}

_TARGET_DIM = NUM_ROTATION + NUM_EXPRESSIONS

# One packed little-endian .sfd record, fields in Dataset column order.
_RECORD = np.dtype([
    ("seq_id", "<u4"),
    ("frame_index", "<u4"),
    ("spectrogram", "<f4", (NUM_BANDS, NUM_COLUMNS)),
    ("target", "<f4", (_TARGET_DIM,)),
    ("emotion", "u1"),
    ("actor", "u1"),
])


def _whole_numbers(name: str, values, dtype) -> np.ndarray:
    """``values`` as the unsigned integer ``dtype``, once it holds each of
    them exactly; otherwise DataError names the column and its first record
    that it would not hold."""
    a = np.asarray(values)
    if a.dtype != dtype and a.size:
        if a.dtype.kind not in "iuf":
            raise DataError(f"{name} must be whole numbers, got dtype {a.dtype}")
        if a.dtype.kind == "f":
            a = a.astype(np.float64)  # float32 would round uint32's top up to 2**32
        top = np.iinfo(dtype).max
        bad = np.flatnonzero(~((a >= 0) & (a <= top) & (a == np.floor(a))))  # NaN too
        if len(bad):
            raise DataError(f"{name}: record {bad[0]} holds {a.flat[bad[0]]}, "
                            f"not a whole number in [0, {top}]")
    return np.asarray(a, dtype=dtype)


@dataclass
class Dataset:
    """Column-wise record storage; rows sharing a sequence id are contiguous,
    and an id that reappears after another sequence raises DataError."""

    seq_ids: np.ndarray        # (N,) uint32
    frame_indices: np.ndarray  # (N,) uint32
    spectrograms: np.ndarray   # (N, 128, 32) float32, already normalized
    targets: np.ndarray        # (N, 49) float32
    emotions: np.ndarray       # (N,) uint8, 255 = absent
    actors: np.ndarray         # (N,) uint8, 255 = absent
    # the per-band stats that standardized the spectrograms
    norm_stats: NormStats = field(default_factory=NormStats.identity)

    def __post_init__(self):
        n = len(self.seq_ids)
        for name, dtype in (("seq_ids", np.uint32), ("frame_indices", np.uint32),
                            ("emotions", np.uint8), ("actors", np.uint8)):
            setattr(self, name, _whole_numbers(name, getattr(self, name), dtype))
        self.spectrograms = np.asarray(self.spectrograms, dtype=np.float32)
        self.targets = np.asarray(self.targets, dtype=np.float32)
        for name, arr in (("frame_indices", self.frame_indices),
                          ("emotions", self.emotions), ("actors", self.actors)):
            if arr.shape != (n,):
                raise DataError(f"{name} length {arr.shape} does not match {n} records")
        if self.spectrograms.shape != (n, NUM_BANDS, NUM_COLUMNS):
            raise DataError(f"spectrograms must be (N, {NUM_BANDS}, {NUM_COLUMNS}), "
                            f"got {self.spectrograms.shape}")
        if self.targets.shape != (n, _TARGET_DIM):
            raise DataError(f"targets must be (N, {_TARGET_DIM}), got {self.targets.shape}")
        self._check_invariants()

    def _check_invariants(self):
        for name, arr in (("target", self.targets), ("spectrogram", self.spectrograms)):
            finite = np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))
            if not finite.all():
                raise DataError(f"record {int(np.argmin(finite))}: {name} is not finite")
        r, e = self.targets[:, :NUM_ROTATION], self.targets[:, NUM_ROTATION:]
        if self.targets.size and (np.abs(r).max() > 1.0 or e.min() < 0.0 or e.max() > 1.0):
            raise DataError("targets out of range: rotation in [-1,1], weights in [0,1]")
        seen = set()
        for start, stop in self.sequence_spans():
            sid = int(self.seq_ids[start])
            if sid in seen:
                raise DataError(f"record {start}: sequence {sid} reappears after another "
                                "sequence; its records must be contiguous")
            seen.add(sid)
            fi = self.frame_indices[start:stop].astype(np.int64)
            if np.any(np.diff(fi) != 1):
                raise DataError(f"sequence {sid}: frame indices are not consecutive")

    def __len__(self) -> int:
        return len(self.seq_ids)

    def sequence_spans(self) -> list:
        """Contiguous [start, stop) index ranges, one per sequence."""
        n = len(self)
        if n == 0:
            return []
        breaks = np.flatnonzero(np.diff(self.seq_ids)) + 1
        bounds = [0, *breaks.tolist(), n]
        return list(zip(bounds[:-1], bounds[1:]))


def save_dataset(dataset: Dataset, path) -> None:
    """Write the 12-byte header (magic, version, record count), the
    normalization mean then std (128 little-endian float32 each), then one
    packed record per row.

    The dataset is checked again as :class:`Dataset` checks it, since its
    arrays may have changed since; a dataset :func:`load_dataset` would reject
    raises before anything is written.
    """
    dataset = replace(dataset)
    records = np.empty(len(dataset), dtype=_RECORD)
    records["seq_id"] = dataset.seq_ids
    records["frame_index"] = dataset.frame_indices
    records["spectrogram"] = dataset.spectrograms
    records["target"] = dataset.targets
    records["emotion"] = dataset.emotions
    records["actor"] = dataset.actors
    header = DATASET_MAGIC + struct.pack("<II", DATASET_VERSION, len(dataset))
    Path(path).write_bytes(header + dataset.norm_stats.to_bytes() + records.tobytes())


def load_dataset(path) -> Dataset:
    r = Reader(path, DATASET_MAGIC)
    version, count = r.unpack("<II", "dataset header")
    if version != DATASET_VERSION:
        r.fail(f"unsupported dataset version {version}, expected {DATASET_VERSION}: "
               "re-run prepare to rebuild the dataset", 4)
    stats = NormStats.read(r)
    start = r.pos
    records = r.array(_RECORD, count, f"{count} records")
    r.end()
    # contiguous copies, so the raw buffer is freed and row gathers stay fast
    columns = [records[name].copy() for name in _RECORD.names]
    try:
        return Dataset(*columns, stats)
    except DataError as err:
        r.check_finite(records, start, f"{count} records")  # names the value's own byte
        r.fail(f"{err}, in the records starting", start)


# ---------------------------------------------------------------------------
# parameter CSV

CSV_HEADER = "frame,r1,r2,r3," + ",".join(f"e{i:02d}" for i in range(1, NUM_EXPRESSIONS + 1))


def write_param_csv(path, frames) -> None:
    """Write FaceFrames as CSV rows with 6-decimal values.

    Frame indices must be strictly increasing, as :func:`read_param_csv`
    requires; otherwise DataError names the position and nothing is written.
    """
    lines = [CSV_HEADER]
    prev = None
    for pos, frame in enumerate(frames):
        if prev is not None and frame.frame_index <= prev:
            raise DataError(f"CSV not written: frame {pos} has index {frame.frame_index}, "
                            f"not above frame {pos - 1}'s {prev}")
        prev = frame.frame_index
        lines.append(f"{frame.frame_index}," + ",".join(f"{v:.6f}" for v in frame.vector))
    Path(path).write_text("\n".join(lines) + "\n")


def read_param_csv(path) -> list:
    """Parse a parameter CSV back into FaceFrames, validating as it goes."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: byte {err.start} is not valid UTF-8") from None
    # lines end at \n, \r\n or \r, as editors number them; str.splitlines
    # would also break at form feeds, \x1c-\x1e, \x85 and \u2028
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = [(n, ln) for n, ln in enumerate(text.split("\n"), start=1) if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: line 1: empty file")
    lineno, header = lines[0]
    if header.strip() != CSV_HEADER:
        raise ParseError(f"{path}: line {lineno}: unexpected header")
    frames = []
    prev_index = None
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 1 + _TARGET_DIM:
            raise ParseError(f"{path}: line {lineno}: expected {1 + _TARGET_DIM} "
                             f"columns, found {len(parts)}")
        # int() and float() also take Python's spellings: 1_0, and non-ASCII digits
        if "_" in line or not line.isascii():
            raise ParseError(f"{path}: line {lineno}: numbers must be plain ASCII "
                             f"decimals, without '_'")
        try:
            index = int(parts[0])
            vec = np.array([float(p) for p in parts[1:]])
            frame = FaceFrame.from_vector(vec, index)
        except (ValueError, DataError) as err:
            raise ParseError(f"{path}: line {lineno}: {err}") from None
        if prev_index is not None and index <= prev_index:
            raise ParseError(f"{path}: line {lineno}: frame indices must be "
                             f"strictly increasing ({prev_index} then {index})")
        prev_index = index
        frames.append(frame)
    return frames


def parse_ravdess_stem(stem: str):
    """Best-effort (emotion, actor) from a 7-field RAVDESS-style stem.

    Returns (None, None) when the stem does not follow the convention.
    """
    parts = stem.split("-")
    if len(parts) != 7:
        return None, None
    try:
        emotion = int(parts[2])
        actor = int(parts[6])
    except ValueError:
        return None, None
    if emotion not in EMOTION_NAMES or not 1 <= actor <= 254:
        return None, None
    return emotion, actor
