"""Malformed and non-finite input: every parser fails with a SpeechFaceError.

The first part pins specific holes (zero sample rate, NaN/Inf payloads,
undecodable bytes). The second part cuts every binary format short and
appends junk to it. The third is a seeded byte-mutation sweep over the
six on-disk formats: whatever the mutation, a load either succeeds with
finite values or raises a SpeechFaceError subclass, and a ParseError names
the byte or the line.
"""

import re
import struct
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from speechface.audio import (
    MIN_SAMPLE_RATE,
    NUM_BANDS,
    NUM_COLUMNS,
    SAMPLE_RATE,
    load_wav,
    write_wav,
)
from speechface.data import (
    CSV_HEADER,
    Dataset,
    load_dataset,
    read_param_csv,
    save_dataset,
    write_param_csv,
)
from speechface.errors import (
    ConfigError,
    DataError,
    NumericError,
    ParseError,
    ShapeError,
    SpeechFaceError,
)
from speechface.face import NUM_EXPRESSIONS, BlendshapeRig, FaceFrame, load_rig, save_rig
from speechface.model import build_model, load_checkpoint, save_checkpoint

WAV_DATA = 44  # byte offset of the first sample in files from write_wav
NORM_STATS = 9  # byte offset of the normalization mean in a checkpoint
# byte offsets in a .sfd: the normalization mean, and record 0's first target value
SFD_NORM_STATS = 12
SFD_TARGET0 = SFD_NORM_STATS + 8 * NUM_BANDS + 8 + NUM_BANDS * NUM_COLUMNS * 4


def small_dataset(n=3):
    rng = np.random.default_rng(0)
    targets = np.concatenate([rng.uniform(-1, 1, (n, 3)), rng.uniform(0, 1, (n, 46))], axis=1)
    return Dataset(np.zeros(n), np.arange(n), rng.normal(size=(n, NUM_BANDS, NUM_COLUMNS)),
                   targets, np.full(n, 255), np.full(n, 255))


# =============================================================================
# WAV
# =============================================================================

class TestWav:
    def test_zero_sample_rate(self, tmp_path):
        path = tmp_path / "zero.wav"
        write_wav(path, np.linspace(-0.5, 0.5, 100), SAMPLE_RATE)
        blob = bytearray(path.read_bytes())
        blob[24:28] = struct.pack("<I", 0)
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="sample rate 0"):
            load_wav(path)

    def test_tiny_sample_rate(self, tmp_path):
        """A rate of 1 Hz would resample 100 samples to 4.4 M."""
        path = tmp_path / "slow.wav"
        write_wav(path, np.linspace(-0.5, 0.5, 100), SAMPLE_RATE)
        blob = bytearray(path.read_bytes())
        blob[24:28] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="sample rate 1 is below 8000 Hz .*byte 12"):
            load_wav(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_sample_names_byte(self, tmp_path, value):
        path = tmp_path / "f32.wav"
        write_wav(path, np.zeros(100), SAMPLE_RATE, fmt="float32")
        blob = bytearray(path.read_bytes())
        bad = WAV_DATA + 4 * 37
        blob[bad:bad + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match=f"byte {bad}"):
            load_wav(path)

    @pytest.mark.parametrize("fmt", ["pcm16", "float32"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_write_refuses_non_finite_samples(self, tmp_path, fmt, value):
        """NaN or Inf raises DataError and writes nothing, rather than a NaN
        load_wav rejects or a silent 0.0 or +-0.99997; finite samples are
        still clipped to [-1, 1]."""
        samples = np.zeros((100, 2))
        samples[[5, 60], 1] = value
        path = tmp_path / "bad.wav"
        with pytest.raises(DataError, match="2 of 200 samples are NaN or Inf"):
            write_wav(path, samples, SAMPLE_RATE, fmt=fmt)
        assert not path.exists()
        write_wav(path, np.array([-3.0, 0.25, 2.0]), SAMPLE_RATE, fmt=fmt)
        np.testing.assert_allclose(load_wav(path).samples, [-1.0, 0.25, 1.0], atol=1e-4)

    @pytest.mark.parametrize("rate", [0, 4000, MIN_SAMPLE_RATE - 1])
    def test_write_refuses_a_rate_load_wav_rejects(self, tmp_path, rate):
        """A rate below MIN_SAMPLE_RATE raises ConfigError and writes nothing;
        MIN_SAMPLE_RATE itself writes a file load_wav reads."""
        path = tmp_path / "slow.wav"
        with pytest.raises(ConfigError, match=f"sample rate {rate} is below 8000 Hz"):
            write_wav(path, np.zeros(100), rate)
        assert not path.exists()
        write_wav(path, np.zeros(100), MIN_SAMPLE_RATE)
        assert len(load_wav(path).samples) == 99 * SAMPLE_RATE // MIN_SAMPLE_RATE + 1

    @pytest.mark.parametrize("fmt,channels,rate", [("pcm16", 1, 2**31),
                                                   ("float32", 2, 2**29)])
    def test_write_refuses_a_byte_rate_over_32_bits(self, tmp_path, fmt, channels, rate):
        """The header stores rate x bytes per sample frame in 32 bits; a rate
        that overflows it raises ConfigError and writes nothing."""
        path = tmp_path / "fast.wav"
        with pytest.raises(ConfigError, match=f"sample rate {rate} gives a byte rate over"):
            write_wav(path, np.zeros((100, channels)), rate, fmt=fmt)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(100, 3), (100, 0), (4, 100, 1), ()])
    def test_write_refuses_a_shape_load_wav_rejects(self, tmp_path, shape):
        """Only (n,) and (n, 1|2) arrays have a channel count load_wav
        accepts; any other raises ShapeError and writes nothing."""
        path = tmp_path / "wide.wav"
        with pytest.raises(ShapeError, match=re.escape(f"got shape {shape}")):
            write_wav(path, np.zeros(shape), SAMPLE_RATE)
        assert not path.exists()


# =============================================================================
# Checkpoint
# =============================================================================

class TestCheckpoint:
    def test_field_name_not_utf8_names_byte(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model("cnn_static"), path)
        blob = bytearray(path.read_bytes())
        first_name = NORM_STATS + 2 * NUM_BANDS * 4 + 4 + 2
        blob[first_name + 1] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match=f"byte {first_name + 1}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["dense2.w", "conv3.bn.running_var", "rnn.w_h"])
    def test_non_finite_field_named(self, tmp_path, field):
        """A NaN written into a field's values on disk (save_checkpoint itself
        refuses to write one) fails naming that field."""
        model = build_model("cnn_lstm")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        encoded = field.encode()
        rank = dict(model.named_arrays())[field].ndim
        values = blob.index(struct.pack("<H", len(encoded)) + encoded) + 2 + len(encoded) + 1 + 4 * rank
        blob[values + 4 * 3:values + 4 * 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match=field):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [("dense2.b", np.nan), ("conv3.bn.running_var", np.inf),
                                             ("rnn.w_h", 1e39)])
    def test_save_refuses_a_non_finite_field(self, tmp_path, field, value):
        """A value that is not finite once stored as float32, 1e39 included,
        raises NumericError naming its field, and no file is written."""
        model = build_model("cnn_lstm")
        model.cell.w_h.data = model.cell.w_h.data.astype(np.float64)  # can hold 1e39
        dict(model.named_arrays())[field].flat[3] = value
        path = tmp_path / "m.ckpt"
        with pytest.raises(NumericError, match=f"field '{re.escape(field)}' has a non-finite"):
            save_checkpoint(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("which,value", [("mean", np.nan), ("std", np.inf), ("std", 0.0)])
    def test_bad_normalization_stats(self, tmp_path, which, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model("cnn_static"), path)
        blob = bytearray(path.read_bytes())
        at = NORM_STATS + (NUM_BANDS * 4 if which == "std" else 0) + 4 * 5
        blob[at:at + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="normalization"):
            load_checkpoint(path)

    def test_field_given_twice_names_its_second_entry(self, tmp_path):
        """A second copy of a field fails at the byte where it starts rather
        than silently overriding the first."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model("cnn_static"), path)
        blob = bytearray(path.read_bytes())
        count_at = NORM_STATS + 2 * NUM_BANDS * 4
        (count,) = struct.unpack_from("<I", blob, count_at)
        struct.pack_into("<I", blob, count_at, count + 1)
        second = len(blob)
        blob += struct.pack("<H", 8) + b"dense2.b" + struct.pack("<BI", 1, 256)
        blob += np.full(256, 7.0, dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match=f"'dense2.b' appears twice at byte {second}$"):
            load_checkpoint(path)

    def test_loaded_arrays_are_bitwise_the_saved_float32(self, tmp_path):
        model = build_model("cnn_lstm", seed=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = dict(load_checkpoint(path).named_arrays())
        for name, arr in model.named_arrays():
            assert loaded[name].dtype == np.float32 and loaded[name].flags.writeable
            np.testing.assert_array_equal(loaded[name], arr.astype(np.float32), strict=True)


# =============================================================================
# Rig
# =============================================================================

class TestRig:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_shape_value_names_byte(self, tmp_path, value):
        path = tmp_path / "r.rig"
        _write_rig(path)
        blob = bytearray(path.read_bytes())
        bad = 15 + 3 * 4 + 4 * 40  # header, 3 landmark indices, 40th shape value
        blob[bad:bad + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match=f"byte {bad}"):
            load_rig(path)

    def test_landmark_out_of_range_names_the_tables(self, tmp_path):
        """A table BlendshapeRig rejects fails as a ParseError naming byte 15,
        where the landmark table starts."""
        path = tmp_path / "r.rig"
        _write_rig(path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 15, 99)  # a 6-vertex rig
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="landmark index out of vertex range.* at byte 15$"):
            load_rig(path)

    def test_rig_rejects_non_finite_shapes(self):
        shapes = np.zeros((NUM_EXPRESSIONS + 1, 6, 3))
        shapes[3, 2, 1] = np.nan
        with pytest.raises(DataError, match="finite"):
            BlendshapeRig(shapes, [0, 2, 4])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_save_writes_the_rig_as_built(self, tmp_path, value):
        """A non-finite value written into the caller's array, or into the
        rig's, after construction never reaches the file: the rig holds
        read-only copies of its arrays."""
        shapes = np.zeros((NUM_EXPRESSIONS + 1, 6, 3))
        rig = BlendshapeRig(shapes, [0, 2, 4])
        shapes[0, 0, 0] = value
        with pytest.raises(ValueError, match="read-only"):
            rig.shapes[0, 0, 0] = value
        path = tmp_path / "r.rig"
        save_rig(rig, path)
        np.testing.assert_array_equal(load_rig(path).shapes, np.zeros_like(shapes))


# =============================================================================
# CSV and .sfd
# =============================================================================

class TestDataFiles:
    def test_csv_not_utf8_names_byte(self, tmp_path):
        path = tmp_path / "p.csv"
        write_param_csv(path, [FaceFrame.from_vector(np.full(49, 0.5), 0)])
        blob = path.read_bytes()
        at = len(CSV_HEADER) + 1 + 4
        path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
        with pytest.raises(ParseError, match=f"byte {at}"):
            read_param_csv(path)

    def test_csv_error_names_the_line_in_the_file(self, tmp_path):
        """Blank lines count: the bad row below is the file's sixth line.
        Lines end at \n, \r\n or \r: a form feed ending a row starts none."""
        path = tmp_path / "p.csv"
        row = "0," + ",".join(["0.0"] * 3 + ["0.5"] * 46)
        bad = "1," + ",".join(["0.0"] * 3 + ["2.0"] + ["0.5"] * 45)
        path.write_text("\n".join([CSV_HEADER, "", "", row, "", bad]) + "\n")
        with pytest.raises(ParseError, match=": line 6: "):
            read_param_csv(path)
        for end in ("\n", "\r\n", "\r"):
            path.write_bytes(end.join([CSV_HEADER, row + "\x0c", bad, ""]).encode())
            with pytest.raises(ParseError, match=": line 3: "):
                read_param_csv(path)

    @pytest.mark.parametrize("indices,pos", [([0, 0], 1), ([0, 1, 2, 5, 4], 4)])
    def test_csv_write_refuses_non_increasing_frames(self, tmp_path, indices, pos):
        """Frame indices read_param_csv would reject raise DataError naming
        the position, and nothing is written."""
        frames = [FaceFrame.from_vector(np.full(49, 0.5), i) for i in indices]
        path = tmp_path / "p.csv"
        with pytest.raises(DataError, match=f"frame {pos} has index {indices[pos]}, "
                                            f"not above frame {pos - 1}'s {indices[pos - 1]}"):
            write_param_csv(path, frames)
        assert not path.exists()

    @pytest.mark.parametrize("field,at,value", [("e", 0, 1.5), ("r", 2, np.nan),
                                                ("e", 45, -np.inf), ("r", 0, -1.25)])
    def test_csv_write_writes_frames_as_built(self, tmp_path, field, at, value):
        """A value read_param_csv would reject, written into the caller's
        vector or into a frame after construction, never reaches the file;
        nor does an array of another shape put in a frame's place."""
        vec = np.full(49, 0.5)
        frames = [FaceFrame.from_vector(vec, i) for i in range(4)]
        vec[at if field == "r" else 3 + at] = value
        with pytest.raises(ValueError, match="read-only"):
            getattr(frames[2], field)[at] = value
        with pytest.raises(FrozenInstanceError):
            setattr(frames[2], field, np.zeros(5))
        path = tmp_path / "p.csv"
        write_param_csv(path, frames)
        assert [f.vector.tolist() for f in read_param_csv(path)] == [[0.5] * 49] * 4

    def test_csv_negative_index_names_the_line(self, tmp_path):
        """FaceFrame rejects a negative index, so no CSV can carry one to
        export-obj's file names."""
        path = tmp_path / "p.csv"
        path.write_text(CSV_HEADER + "\n-3," + ",".join(["0.0"] * 3 + ["0.5"] * 46))
        with pytest.raises(ParseError, match=": line 2: frame index must be a non-negative"):
            read_param_csv(path)

    @pytest.mark.parametrize("column", ["targets", "spectrograms"])
    def test_dataset_rejects_non_finite(self, column):
        ds = small_dataset()
        getattr(ds, column)[1].flat[7] = np.nan
        with pytest.raises(DataError, match="record 1"):
            Dataset(ds.seq_ids, ds.frame_indices, ds.spectrograms, ds.targets,
                    ds.emotions, ds.actors)

    @pytest.mark.parametrize("column,index,value,message", [
        ("targets", (1, 5), 2.0, "targets out of range"),
        ("spectrograms", (2, 7, 3), np.nan, "record 2: spectrogram is not finite"),
        ("frame_indices", 2, 3, "sequence 0: frame indices are not consecutive")],
        ids=["target_out_of_range", "nan_spectrogram", "frame_gap"])
    def test_save_refuses_a_dataset_changed_after_construction(self, tmp_path, column, index,
                                                               value, message):
        """A dataset load_dataset would reject raises DataError and writes
        nothing."""
        ds = small_dataset()
        getattr(ds, column)[index] = value
        path = tmp_path / "d.sfd"
        with pytest.raises(DataError, match=message):
            save_dataset(ds, path)
        assert not path.exists()

    @pytest.mark.parametrize("which,value,message", [
        ("std", 0.0, "std entries must be strictly positive"),
        ("std", 1e-50, "std entries must be strictly positive"),  # 0 in float32
        ("mean", 1e39, "mean must be finite")],                    # inf in float32
        ids=["zero_std", "underflowing_std", "overflowing_mean"])
    @pytest.mark.parametrize("save", [save_dataset, save_checkpoint],
                             ids=["save_dataset", "save_checkpoint"])
    def test_save_refuses_norm_stats_the_reader_rejects(self, tmp_path, save, which, value,
                                                        message):
        """Stats changed after construction, or not representable in
        float32, raise DataError and write nothing."""
        owner = small_dataset() if save is save_dataset else build_model("cnn_static")
        getattr(owner.norm_stats, which)[5] = value
        path = tmp_path / "out.bin"
        with pytest.raises(DataError, match=message):
            save(owner, path)
        assert not path.exists()

    def test_sfd_with_nan_target_is_parse_error(self, tmp_path):
        path = tmp_path / "d.sfd"
        save_dataset(small_dataset(), path)
        blob = bytearray(path.read_bytes())
        blob[SFD_TARGET0:SFD_TARGET0 + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match=f"record 0.* at byte {SFD_TARGET0}$"):
            load_dataset(path)

    @pytest.mark.parametrize("which,value,named", [
        ("mean", np.nan, "non-finite value at byte 32"),  # the NaN's own byte
        ("std", 0.0, "strictly positive at byte 12"),     # where the stats start
    ], ids=["nan_mean", "zero_std"])
    def test_sfd_with_bad_norm_stats_names_a_byte(self, tmp_path, which, value, named):
        path = tmp_path / "d.sfd"
        save_dataset(small_dataset(), path)
        blob = bytearray(path.read_bytes())
        at = SFD_NORM_STATS + (NUM_BANDS * 4 if which == "std" else 0) + 4 * 5
        blob[at:at + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match=f"normalization .*{named}$"):
            load_dataset(path)


# =============================================================================
# Truncated files and trailing junk
# =============================================================================

NAMES_PLACE = re.compile(r"byte \d+|line \d+")


def _write_faceless_rig(path):
    """Without a face list: a rig cut just after its shapes is a valid
    faceless rig, so only this form makes every prefix malformed."""
    shapes = np.random.default_rng(0).normal(size=(NUM_EXPRESSIONS + 1, 6, 3))
    save_rig(BlendshapeRig(shapes, [0, 2, 4]), path)


@pytest.mark.parametrize("fmt", ["checkpoint", "rig", "wav_pcm16", "wav_float32", "sfd"])
def test_every_prefix_fails_naming_a_byte_within_it(tmp_path, fmt):
    write, load, _, hot, _ = FORMATS[fmt]
    if fmt == "rig":
        write = _write_faceless_rig
    path = tmp_path / f"valid.{fmt}"
    write(path)
    valid = path.read_bytes()
    # every cut inside the headers, then evenly spaced ones through the payload
    cuts = sorted(set(range(hot)) | set(np.linspace(hot, len(valid) - 1, 200).astype(int)))
    for cut in cuts:
        path.write_bytes(valid[:cut])
        with pytest.raises(ParseError, match=r"byte \d+") as info:
            load(path)
        named = int(re.findall(r"byte (\d+)", str(info.value))[-1])
        assert named <= cut, (cut, str(info.value))


@pytest.mark.parametrize("fmt", ["checkpoint", "rig", "sfd"])
@pytest.mark.parametrize("junk", [b"\x00", b"\x00" * 4, b"SFCK" * 5],
                         ids=["one_byte", "four_zeros", "magic_run"])
def test_trailing_bytes_are_rejected(tmp_path, fmt, junk):
    write, load, _, _, _ = FORMATS[fmt]
    path = tmp_path / f"valid.{fmt}"
    write(path)
    valid = path.read_bytes()
    path.write_bytes(valid + junk)
    with pytest.raises(ParseError, match=f"{len(junk)} unexpected trailing bytes at byte {len(valid)}"):
        load(path)


# =============================================================================
# Seeded byte-mutation sweep
# =============================================================================

def _finite(*arrays):
    return all(np.isfinite(a).all() for a in arrays)


def _write_checkpoint(path):
    save_checkpoint(build_model("cnn_gru", seed=1), path)


def _load_checkpoint(path):
    model = load_checkpoint(path)
    return _finite(model.norm_stats.mean, model.norm_stats.std,
                   *(arr for _, arr in model.named_arrays()))


def _write_rig(path):
    shapes = np.random.default_rng(0).normal(size=(NUM_EXPRESSIONS + 1, 6, 3))
    save_rig(BlendshapeRig(shapes, [0, 2, 4], [[0, 1, 2], [3, 4, 5]]), path)


def _load_rig(path):
    return _finite(load_rig(path).shapes)


def _write_csv(path):
    vecs = np.random.default_rng(0).uniform(0, 1, (3, 49))
    write_param_csv(path, [FaceFrame.from_vector(v, i) for i, v in enumerate(vecs)])


def _load_csv(path):
    return _finite(*(f.vector for f in read_param_csv(path)))


def _load_wav(path):
    return _finite(load_wav(path).samples)


def _load_sfd(path):
    ds = load_dataset(path)
    return _finite(ds.spectrograms, ds.targets)


# name -> (writer, loader returning "values are finite", trials, hot span, seed);
# each seed is fixed, so adding or removing a format changes no other's mutations
FORMATS = {
    "checkpoint": (_write_checkpoint, _load_checkpoint, 60, 1100, 0),
    "rig": (_write_rig, _load_rig, 200, 64, 3),
    "wav_pcm16": (lambda p: write_wav(p, np.linspace(-0.9, 0.9, 100)), _load_wav, 200, 64, 6),
    "wav_float32": (lambda p: write_wav(p, np.linspace(-0.9, 0.9, 100), fmt="float32"),
                    _load_wav, 200, 64, 5),
    "csv": (_write_csv, _load_csv, 200, 600, 1),
    "sfd": (lambda p: save_dataset(small_dataset(), p), _load_sfd, 100, 1100, 4),
}


def mutate(blob: bytes, rng, hot: int) -> bytes:
    """Overwrite, insert or delete a few bytes, or truncate; half of the
    positions fall in the first ``hot`` bytes, where the headers live."""
    buf = bytearray(blob)

    def pos(extra=0):
        span = min(len(buf), hot) if rng.random() < 0.5 else len(buf)
        return int(rng.integers(span + extra))

    kind = int(rng.integers(4))
    if kind == 0:
        for _ in range(int(rng.integers(1, 5))):
            buf[pos()] = int(rng.integers(256))
    elif kind == 1:
        at = pos(1)
        buf[at:at] = rng.bytes(int(rng.integers(1, 9)))
    elif kind == 2:
        at = pos()
        del buf[at:at + int(rng.integers(1, 9))]
    else:
        del buf[pos():]
    return bytes(buf)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_byte_mutations_raise_only_speechface_errors(tmp_path, fmt):
    write, load, trials, hot, seed = FORMATS[fmt]
    path = tmp_path / f"valid.{fmt}"
    write(path)
    valid = path.read_bytes()
    assert load(path)
    rng = np.random.default_rng(seed)
    escaped, non_finite, unplaced = [], [], []
    for trial in range(trials):
        path.write_bytes(mutate(valid, rng, hot))
        try:
            if not load(path):
                non_finite.append(trial)
        except ParseError as err:
            if not NAMES_PLACE.search(str(err)):
                unplaced.append((trial, str(err)))
        except SpeechFaceError:
            pass
        except Exception as err:  # noqa: BLE001 - the sweep reports any escape
            escaped.append((trial, repr(err)))
    assert not escaped, escaped[:5]
    assert not non_finite, non_finite[:5]
    assert not unplaced, unplaced[:5]
