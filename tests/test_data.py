"""Dataset file format, parameter CSV, and corpus naming tests."""

import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from speechface.audio import NUM_BANDS, NUM_COLUMNS, NormStats
from speechface.data import (
    CSV_HEADER,
    DATASET_MAGIC,
    LABEL_ABSENT,
    Dataset,
    load_dataset,
    parse_ravdess_stem,
    read_param_csv,
    save_dataset,
    write_param_csv,
)
from speechface.errors import DataError, ParseError
from speechface.face import FaceFrame


def make_dataset(rng, counts=(3, 2), with_labels=True):
    """A small dataset of len(counts) sequences with the given frame counts
    and non-identity normalization stats."""
    n = sum(counts)
    seq_ids = np.concatenate([np.full(c, i, dtype=np.uint32) for i, c in enumerate(counts)])
    frames = np.concatenate([np.arange(c, dtype=np.uint32) for c in counts])
    specs = rng.normal(size=(n, NUM_BANDS, NUM_COLUMNS)).astype(np.float32)
    targets = np.concatenate(
        [rng.uniform(-1, 1, (n, 3)), rng.uniform(0, 1, (n, 46))], axis=1
    ).astype(np.float32)
    if with_labels:
        emotions = rng.integers(1, 9, n).astype(np.uint8)
        actors = rng.integers(1, 25, n).astype(np.uint8)
    else:
        emotions = np.full(n, LABEL_ABSENT, dtype=np.uint8)
        actors = np.full(n, LABEL_ABSENT, dtype=np.uint8)
    stats = NormStats(rng.uniform(0, 3, NUM_BANDS), rng.uniform(0.1, 2, NUM_BANDS))
    return Dataset(seq_ids, frames, specs, targets, emotions, actors, stats)


# =============================================================================
# Dataset container
# =============================================================================

class TestDataset:
    def test_length_and_spans(self):
        ds = make_dataset(np.random.default_rng(0), counts=(4, 3, 2))
        assert len(ds) == 9
        assert ds.sequence_spans() == [(0, 4), (4, 7), (7, 9)]

    def test_rejects_out_of_range_targets(self):
        rng = np.random.default_rng(1)
        ds = make_dataset(rng)
        bad = ds.targets.copy()
        bad[0, 5] = 1.5  # an expression weight above 1
        with pytest.raises(DataError):
            Dataset(ds.seq_ids, ds.frame_indices, ds.spectrograms, bad, ds.emotions, ds.actors)

    def test_rejects_nonconsecutive_frames(self):
        rng = np.random.default_rng(2)
        ds = make_dataset(rng)
        bad = ds.frame_indices.copy()
        bad[1] = 7
        with pytest.raises(DataError):
            Dataset(ds.seq_ids, bad, ds.spectrograms, ds.targets, ds.emotions, ds.actors)

    def test_rejects_a_sequence_id_that_reappears(self):
        ds = make_dataset(np.random.default_rng(14), counts=(2, 1, 2))
        ids = ds.seq_ids.copy()
        ids[3:] = 0  # sequence 0 again, after sequence 1
        with pytest.raises(DataError, match="record 3: sequence 0 reappears after another"):
            Dataset(ids, ds.frame_indices, ds.spectrograms, ds.targets, ds.emotions, ds.actors)

    def test_rejects_mismatched_lengths(self):
        rng = np.random.default_rng(3)
        ds = make_dataset(rng)
        with pytest.raises(DataError):
            Dataset(ds.seq_ids[:-1], ds.frame_indices[:-1], ds.spectrograms,
                    ds.targets, ds.emotions, ds.actors)

    @pytest.mark.parametrize("column,values,message", [
        ("emotions", np.array([300, 300]),
         "emotions: record 0 holds 300, not a whole number in [0, 255]"),
        ("actors", [3.7, 1], "actors: record 0 holds 3.7, not a whole number in [0, 255]"),
        ("actors", np.array([1.0, np.nan]),
         "actors: record 1 holds nan, not a whole number in [0, 255]"),
        ("seq_ids", np.array([-1, -1]),
         "seq_ids: record 0 holds -1, not a whole number in [0, 4294967295]"),
        ("seq_ids", [-1, -1], "seq_ids: record 0 holds -1, not a whole number in [0, 4294967295]"),
        ("frame_indices", np.array([2**32 - 1, 2**32]),
         "frame_indices: record 1 holds 4294967296, not a whole number in [0, 4294967295]"),
        ("frame_indices", np.array([0, 2**32], np.float32),
         "frame_indices: record 1 holds 4294967296.0, not a whole number in [0, 4294967295]"),
        ("emotions", ["1", "2"], "emotions must be whole numbers, got dtype <U1"),
    ], ids=["above-255", "fraction", "nan", "negative", "negative-list", "2**32", "2**32-float32",
            "strings"])
    def test_rejects_an_integer_column_its_dtype_cannot_hold(self, column, values, message):
        """Out of range, fractional or not a number: never wrapped or truncated
        into the column's unsigned dtype."""
        ds = make_dataset(np.random.default_rng(15), counts=(2,))
        with pytest.raises(DataError, match=re.escape(message)):
            replace(ds, **{column: values})

    def test_keeps_whole_numbers_of_any_real_dtype(self):
        ds = make_dataset(np.random.default_rng(16), counts=(2,))
        got = replace(ds, seq_ids=[7.0, 7.0], frame_indices=np.array([2**32 - 2, 2**32 - 1]),
                      emotions=np.array([255, 0], np.int64), actors=[24, 1])
        assert got.seq_ids.dtype == got.frame_indices.dtype == np.uint32
        assert got.emotions.dtype == got.actors.dtype == np.uint8
        assert got.seq_ids.tolist() == [7, 7]
        assert got.frame_indices.tolist() == [2**32 - 2, 2**32 - 1]
        assert got.emotions.tolist() == [255, 0] and got.actors.tolist() == [24, 1]


# =============================================================================
# Dataset file format
# =============================================================================

class TestDatasetIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = make_dataset(np.random.default_rng(4), counts=(5, 4))
        path = tmp_path / "train.sfd"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.spectrograms.tobytes() == ds.spectrograms.tobytes()
        assert back.targets.tobytes() == ds.targets.tobytes()
        np.testing.assert_array_equal(back.seq_ids, ds.seq_ids)
        np.testing.assert_array_equal(back.frame_indices, ds.frame_indices)
        np.testing.assert_array_equal(back.emotions, ds.emotions)
        np.testing.assert_array_equal(back.actors, ds.actors)

    def test_norm_stats_roundtrip(self, tmp_path):
        ds = make_dataset(np.random.default_rng(4), counts=(5, 4))
        path = tmp_path / "train.sfd"
        save_dataset(ds, path)
        back = load_dataset(path).norm_stats
        for name in ("mean", "std"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(ds.norm_stats, name).astype(np.float32))

    def test_norm_stats_default_to_identity(self, tmp_path):
        ds = make_dataset(np.random.default_rng(12))
        plain = Dataset(ds.seq_ids, ds.frame_indices, ds.spectrograms, ds.targets,
                        ds.emotions, ds.actors)
        path = tmp_path / "plain.sfd"
        save_dataset(plain, path)
        back = load_dataset(path).norm_stats
        np.testing.assert_array_equal(back.mean, np.zeros(NUM_BANDS))
        np.testing.assert_array_equal(back.std, np.ones(NUM_BANDS))

    def test_version_1_asks_to_rerun_prepare(self, tmp_path):
        path = tmp_path / "old.sfd"
        save_dataset(make_dataset(np.random.default_rng(13)), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="version 1, .*re-run prepare.* at byte 4$"):
            load_dataset(path)

    def test_load_rejects_a_sequence_id_that_reappears(self, tmp_path):
        """A file whose sequence 0 comes back after sequence 1 fails at the
        byte where the records start."""
        ds = make_dataset(np.random.default_rng(15), counts=(2, 1, 2))
        path = tmp_path / "split.sfd"
        save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        records = 12 + 8 * NUM_BANDS
        record = 8 + 4 * NUM_BANDS * NUM_COLUMNS + 4 * 49 + 2
        for i in (3, 4):
            blob[records + i * record:records + i * record + 4] = struct.pack("<I", 0)
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match=f"record 3: sequence 0 reappears after another "
                                             f".*in the records starting at byte {records}$"):
            load_dataset(path)

    def test_byte_size_formula(self, tmp_path):
        """12-byte header, 2*128 float32 stats, then (8 + 4*4096 + 4*49 + 2)
        bytes per record."""
        ds = make_dataset(np.random.default_rng(5), counts=(3, 3))
        path = tmp_path / "train.sfd"
        save_dataset(ds, path)
        record = 8 + 4 * NUM_BANDS * NUM_COLUMNS + 4 * 49 + 2
        assert path.stat().st_size == 12 + 8 * NUM_BANDS + 6 * record

    def test_bytes_match_struct_oracle(self, tmp_path):
        """A 2-record file, field by field: the header, f32 mean and std per
        band, then per record u32 seq, u32 frame, f32 spectrogram, f32
        targets, u8 emotion, u8 actor, all little-endian."""
        ds = make_dataset(np.random.default_rng(8), counts=(2,))
        path = tmp_path / "two.sfd"
        save_dataset(ds, path)
        want = DATASET_MAGIC + struct.pack("<II", 2, 2)
        want += struct.pack(f"<{NUM_BANDS}f", *ds.norm_stats.mean)
        want += struct.pack(f"<{NUM_BANDS}f", *ds.norm_stats.std)
        for i in range(2):
            want += struct.pack("<II", int(ds.seq_ids[i]), int(ds.frame_indices[i]))
            want += struct.pack(f"<{NUM_BANDS * NUM_COLUMNS}f", *ds.spectrograms[i].ravel())
            want += struct.pack("<49f", *ds.targets[i])
            want += struct.pack("<BB", int(ds.emotions[i]), int(ds.actors[i]))
        assert path.read_bytes() == want
        back = load_dataset(path)
        for col in (back.seq_ids, back.frame_indices, back.spectrograms,
                    back.targets, back.emotions, back.actors):
            assert col.flags.c_contiguous and col.flags.writeable

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sfd"
        path.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(ParseError, match="magic"):
            load_dataset(path)

    def test_truncated_payload(self, tmp_path):
        ds = make_dataset(np.random.default_rng(6))
        path = tmp_path / "train.sfd"
        save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 100])
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_magic_constant(self):
        assert DATASET_MAGIC == b"SFDS"

    def test_absent_labels_survive_roundtrip(self, tmp_path):
        ds = make_dataset(np.random.default_rng(7), with_labels=False)
        path = tmp_path / "u.sfd"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.all(back.emotions == LABEL_ABSENT)
        assert np.all(back.actors == LABEL_ABSENT)


# =============================================================================
# Parameter CSV
# =============================================================================

def _frames(rng, n, start=0):
    out = []
    for i in range(n):
        out.append(FaceFrame(rng.uniform(-1, 1, 3), rng.uniform(0, 1, 46), start + i))
    return out


class TestParamCSV:
    def test_header_names_all_50_columns(self):
        cols = CSV_HEADER.split(",")
        assert len(cols) == 50
        assert cols[0] == "frame"
        assert cols[1:4] == ["r1", "r2", "r3"]
        assert cols[4] == "e01"
        assert cols[-1] == "e46"

    def test_roundtrip_at_six_decimals(self, tmp_path):
        rng = np.random.default_rng(9)
        frames = _frames(rng, 10)
        path = tmp_path / "anim.csv"
        write_param_csv(path, frames)
        back = read_param_csv(path)
        assert len(back) == 10
        for a, b in zip(frames, back):
            assert b.frame_index == a.frame_index
            np.testing.assert_allclose(b.vector, a.vector, atol=5e-7)

    def test_written_values_are_reread_exactly(self, tmp_path):
        """Six-decimal text is a fixed point: write(read(write(x))) == write(x)."""
        rng = np.random.default_rng(10)
        path1 = tmp_path / "a.csv"
        path2 = tmp_path / "b.csv"
        write_param_csv(path1, _frames(rng, 5))
        write_param_csv(path2, read_param_csv(path1))
        assert path1.read_bytes() == path2.read_bytes()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("0," + ",".join(["0.0"] * 49) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            read_param_csv(path)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "short.csv"
        good = "0," + ",".join(["0.0"] * 49)
        bad = "1," + ",".join(["0.0"] * 48)
        path.write_text(CSV_HEADER + "\n" + good + "\n" + bad + "\n")
        with pytest.raises(ParseError, match="line 3"):
            read_param_csv(path)

    def test_out_of_range_weight_names_line(self, tmp_path):
        path = tmp_path / "range.csv"
        vals = ["0.0"] * 49
        vals[3] = "1.25"  # e01 above 1
        path.write_text(CSV_HEADER + "\n0," + ",".join(vals) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            read_param_csv(path)

    def test_non_increasing_frames_rejected(self, tmp_path):
        path = tmp_path / "order.csv"
        row = ",".join(["0.0"] * 49)
        path.write_text(CSV_HEADER + "\n" + f"3,{row}\n" + f"3,{row}\n")
        with pytest.raises(ParseError):
            read_param_csv(path)

    @pytest.mark.parametrize("column, cell", [(1, "nan"), (10, "inf")])
    def test_non_finite_cell_names_line(self, tmp_path, column, cell):
        path = tmp_path / "nonfinite.csv"
        vals = ["0.0"] * 49
        vals[column] = cell
        path.write_text(CSV_HEADER + "\n0," + ",".join(["0.0"] * 49)
                        + "\n1," + ",".join(vals) + "\n")
        with pytest.raises(ParseError, match="line 3"):
            read_param_csv(path)

    def test_unparseable_number_names_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        vals = ["0.0"] * 49
        vals[0] = "abc"
        path.write_text(CSV_HEADER + "\n0," + ",".join(vals) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            read_param_csv(path)


# =============================================================================
# Corpus stem labels
# =============================================================================

class TestStemParsing:
    def test_reference_stem(self):
        """Field 3 is the emotion id, field 7 the actor id."""
        emotion, actor = parse_ravdess_stem("03-01-06-01-02-01-12")
        assert emotion == 6
        assert actor == 12

    def test_all_emotion_ids(self):
        for eid in range(1, 9):
            emotion, actor = parse_ravdess_stem(f"03-01-{eid:02d}-01-01-01-01")
            assert emotion == eid

    def test_unlabeled_stems(self):
        assert parse_ravdess_stem("myclip") == (None, None)
        assert parse_ravdess_stem("a-b-c") == (None, None)
        assert parse_ravdess_stem("03-01-xx-01-01-01-01") == (None, None)
