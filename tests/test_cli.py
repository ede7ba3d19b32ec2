"""End-to-end command line tests over a tiny synthetic corpus.

All commands run in-process through ``main(argv)`` so exit codes and console
output can be asserted directly.
"""

import json

import numpy as np
import pytest

from speechface import cli
from speechface.audio import SAMPLE_RATE, write_wav
from speechface.cli import build_parser, main
from speechface.data import CSV_HEADER, load_dataset, read_param_csv, write_param_csv
from speechface.errors import StateError
from speechface.face import FaceFrame, make_toy_rig, save_rig
from speechface.model import load_checkpoint
from speechface.trainer import TrainConfig

from _objfile import read_obj_vertices


def sine_clip(seconds, freq):
    t = np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE
    return 0.4 * np.sin(2 * np.pi * freq * t) + 0.2 * np.sin(2 * np.pi * 2.3 * freq * t)


def smooth_frames(n, phase=0.0):
    out = []
    for i in range(n):
        r = 0.3 * np.sin(2 * np.pi * i / n + phase + np.array([0.0, 2.1, 4.2]))
        e = 0.5 + 0.3 * np.sin(2 * np.pi * i / 20 + np.linspace(0, 5, 46))
        out.append(FaceFrame(r, e, i))
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus of two labeled clips, a rig, a dataset, and a trained model."""
    root = tmp_path_factory.mktemp("cli")
    wavs = root / "wavs"
    params = root / "params"
    wavs.mkdir()
    params.mkdir()
    # 39 and 30 frames at 30 fps
    stems = {"03-01-06-01-02-01-12": (1.3, 220.0), "03-01-03-01-01-01-04": (1.0, 330.0)}
    for stem, (seconds, freq) in stems.items():
        write_wav(wavs / f"{stem}.wav", sine_clip(seconds, freq), SAMPLE_RATE)
        write_param_csv(params / f"{stem}.csv", smooth_frames(int(seconds * 30), freq))

    rig_path = root / "face.rig"
    save_rig(make_toy_rig(seed=0), rig_path)

    dataset = root / "corpus.sfd"
    assert main(["prepare", "--wav-dir", str(wavs), "--params-dir", str(params),
                 "--out", str(dataset)]) == 0

    model = root / "model.ckpt"
    assert main(["train", "--dataset", str(dataset), "--variant", "cnn-gru",
                 "--epochs", "2", "--minibatch", "32", "--epoch-frames", "64",
                 "--bptt", "16", "--out", str(model)]) == 0

    return {"root": root, "wavs": wavs, "params": params, "rig": rig_path,
            "dataset": dataset, "model": model, "stems": stems}


# =============================================================================
# Parser defaults
# =============================================================================

class TestParserDefaults:
    def test_training_defaults(self):
        args = build_parser().parse_args(
            ["train", "--dataset", "d.sfd", "--out", "m.ckpt"])
        assert args.lr == 0.0001
        assert args.minibatch == 300
        assert args.epoch_frames == 150000
        assert args.epochs == 300
        assert args.variant == "cnn-lstm"

    def test_infer_defaults(self):
        args = build_parser().parse_args(
            ["infer", "--model", "m", "--wav", "w", "--out", "o"])
        assert args.fps == 30.0
        assert not args.realtime


# =============================================================================
# prepare
# =============================================================================

class TestPrepare:
    def test_dataset_contents(self, workdir):
        ds = load_dataset(workdir["dataset"])
        assert len(ds) == 39 + 30
        # sorted stem order puts the 30-frame actor-04 clip first
        assert ds.sequence_spans() == [(0, 30), (30, 69)]
        assert ds.emotions[0] == 3 and ds.actors[0] == 4
        assert ds.emotions[30] == 6 and ds.actors[30] == 12

    def test_moved_dataset_trains_and_infers_as_in_place(self, workdir, tmp_path):
        """prepare writes one file, which carries the normalization stats:
        moved alone to another directory, it trains to the checkpoint bytes
        of the in-place run, and that checkpoint infers the same CSV."""
        prep = tmp_path / "prep"
        prep.mkdir()
        assert main(["prepare", "--wav-dir", str(workdir["wavs"]), "--params-dir",
                     str(workdir["params"]), "--out", str(prep / "corpus.sfd")]) == 0
        assert [p.name for p in prep.iterdir()] == ["corpus.sfd"]
        assert (prep / "corpus.sfd").read_bytes() == workdir["dataset"].read_bytes()
        moved = tmp_path / "moved" / "corpus.sfd"
        moved.parent.mkdir()
        (prep / "corpus.sfd").rename(moved)

        model = tmp_path / "model.ckpt"
        assert main(["train", "--dataset", str(moved), "--variant", "cnn-gru",
                     "--epochs", "2", "--minibatch", "32", "--epoch-frames", "64",
                     "--bptt", "16", "--out", str(model)]) == 0
        assert model.read_bytes() == workdir["model"].read_bytes()
        stats = load_dataset(moved).norm_stats
        assert not np.array_equal(stats.mean, np.zeros_like(stats.mean))
        np.testing.assert_array_equal(load_checkpoint(model).norm_stats.mean, stats.mean)

        wav = workdir["wavs"] / "03-01-03-01-01-01-04.wav"
        csvs = [tmp_path / "in_place.csv", tmp_path / "moved.csv"]
        for ckpt, csv in zip((workdir["model"], model), csvs):
            assert main(["infer", "--model", str(ckpt), "--wav", str(wav),
                         "--out", str(csv)]) == 0
        assert csvs[0].read_bytes() == csvs[1].read_bytes()

    def test_empty_dir_errors_without_output(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "x.sfd"
        rc = main(["prepare", "--wav-dir", str(empty), "--params-dir", str(empty),
                   "--out", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_orphan_wav_lists_stem(self, tmp_path, capsys):
        wavs = tmp_path / "w"
        params = tmp_path / "p"
        wavs.mkdir()
        params.mkdir()
        write_wav(wavs / "lonely.wav", sine_clip(1.0, 200.0), SAMPLE_RATE)
        rc = main(["prepare", "--wav-dir", str(wavs), "--params-dir", str(params),
                   "--out", str(tmp_path / "x.sfd")])
        assert rc == 1
        assert "lonely" in capsys.readouterr().err

    def test_frame_count_mismatch_reports_both(self, tmp_path, capsys):
        wavs = tmp_path / "w"
        params = tmp_path / "p"
        wavs.mkdir()
        params.mkdir()
        write_wav(wavs / "clip.wav", sine_clip(1.0, 200.0), SAMPLE_RATE)  # 30 frames
        write_param_csv(params / "clip.csv", smooth_frames(20))
        rc = main(["prepare", "--wav-dir", str(wavs), "--params-dir", str(params),
                   "--out", str(tmp_path / "x.sfd")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "30" in err and "20" in err


# =============================================================================
# train
# =============================================================================

class TestTrain:
    def test_checkpoint_and_trace(self, workdir):
        model = load_checkpoint(workdir["model"])
        assert model.variant == "cnn_gru"
        trace = (workdir["root"] / "model.ckpt.trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,mean_minibatch_loss"
        assert len(trace) == 3
        for line in trace[1:]:
            epoch, value = line.split(",")
            assert float(value) >= 0.0

    def test_bptt_warning_for_static(self, workdir, tmp_path, capsys):
        out = tmp_path / "s.ckpt"
        rc = main(["train", "--dataset", str(workdir["dataset"]), "--variant",
                   "cnn-static", "--epochs", "1", "--minibatch", "32",
                   "--epoch-frames", "32", "--bptt", "16", "--out", str(out)])
        assert rc == 0
        assert "bptt" in capsys.readouterr().err.lower()

    def test_defaults_are_train_config_defaults(self, workdir, tmp_path, capsys, monkeypatch):
        """With no option given, train() gets TrainConfig() itself."""
        seen = []

        def fake_training(config, dataset):
            seen.append(config)
            raise StateError("stopped before training")

        monkeypatch.setattr(cli, "run_training", fake_training)
        out = tmp_path / "m.ckpt"
        assert main(["train", "--dataset", str(workdir["dataset"]), "--out", str(out)]) == 1
        assert seen == [TrainConfig()]
        assert capsys.readouterr().out == (
            "training cnn_lstm: lr=0.0001 minibatch=300 epochs=300 epoch_frames=150000 "
            "bptt=32 seed=0 (69 records)\n")

    @pytest.mark.parametrize("flag,value", [("--minibatch", "1"), ("--epoch-frames", "1"),
                                            ("--epochs", "0"), ("--bptt", "0"), ("--lr", "0"),
                                            ("--lr", "nan"), ("--lr", "inf"), ("--seed", "-1")])
    def test_rejected_value_names_the_flag(self, workdir, tmp_path, capsys, flag, value):
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--dataset", str(workdir["dataset"]), flag, value,
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_determinism_across_runs(self, workdir, tmp_path):
        outs = []
        for name in ("r1.ckpt", "r2.ckpt"):
            out = tmp_path / name
            rc = main(["train", "--dataset", str(workdir["dataset"]), "--variant",
                       "cnn-gru", "--epochs", "1", "--minibatch", "32",
                       "--epoch-frames", "32", "--seed", "9", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# =============================================================================
# infer
# =============================================================================

class TestInfer:
    def test_row_per_frame(self, workdir, tmp_path):
        out = tmp_path / "pred.csv"
        wav = workdir["wavs"] / "03-01-03-01-01-01-04.wav"  # 1.0 s
        rc = main(["infer", "--model", str(workdir["model"]), "--wav", str(wav),
                   "--out", str(out)])
        assert rc == 0
        frames = read_param_csv(out)
        assert len(frames) == 30
        assert [f.frame_index for f in frames] == list(range(30))

    def test_too_short_clip_errors(self, workdir, tmp_path, capsys):
        wav = tmp_path / "blip.wav"
        write_wav(wav, np.zeros(500), SAMPLE_RATE)
        rc = main(["infer", "--model", str(workdir["model"]), "--wav", str(wav),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "frame" in capsys.readouterr().err

    @pytest.mark.parametrize("fps", ["nan", "inf", "1e9"])
    def test_unusable_fps_is_one_error_line(self, workdir, tmp_path, capsys, fps):
        wav = workdir["wavs"] / "03-01-03-01-01-01-04.wav"
        out = tmp_path / "x.csv"
        rc = main(["infer", "--model", str(workdir["model"]), "--wav", str(wav),
                   "--out", str(out), "--fps", fps])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fps must be in ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_realtime_matches_batch(self, workdir, tmp_path):
        wav = workdir["wavs"] / "03-01-03-01-01-01-04.wav"
        batch = tmp_path / "batch.csv"
        rt = tmp_path / "rt.csv"
        assert main(["infer", "--model", str(workdir["model"]), "--wav", str(wav),
                     "--out", str(batch)]) == 0
        assert main(["infer", "--model", str(workdir["model"]), "--wav", str(wav),
                     "--out", str(rt), "--realtime"]) == 0
        a = np.array([f.vector for f in read_param_csv(batch)])
        b = np.array([f.vector for f in read_param_csv(rt)])
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-6


# =============================================================================
# eval
# =============================================================================

class TestEval:
    def test_perfect_predictions_score_zero(self, workdir, tmp_path):
        csv = tmp_path / "truth.csv"
        write_param_csv(csv, smooth_frames(12))
        report = tmp_path / "report.json"
        rc = main(["eval", "--pred", str(csv), "--truth", str(csv),
                   "--rig", str(workdir["rig"]), "--report", str(report)])
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["metrics"]["landmark_rmse"]["mean"] == 0.0
        assert data["metrics"]["weights_mse"]["mean"] == 0.0

    def test_group_columns_from_stems(self, workdir, tmp_path, capsys):
        pred_dir = tmp_path / "pred"
        truth_dir = tmp_path / "truth"
        pred_dir.mkdir()
        truth_dir.mkdir()
        for stem in workdir["stems"]:
            n = 10
            write_param_csv(pred_dir / f"{stem}.csv", smooth_frames(n))
            write_param_csv(truth_dir / f"{stem}.csv", smooth_frames(n, phase=0.8))
        rc = main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir),
                   "--rig", str(workdir["rig"]), "--groups"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        block = data["metrics"]["landmark_rmse"]
        assert block["mean"] > 0.0
        assert set(block["by_emotion"]) == {"happy", "fearful"}
        assert set(block["by_actor"]) == {"4", "12"}

    def test_missing_rig_for_landmark_metric(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        write_param_csv(csv, smooth_frames(3))
        rc = main(["eval", "--pred", str(csv), "--truth", str(csv),
                   "--metrics", "landmark_rmse"])
        assert rc == 1
        assert "rig" in capsys.readouterr().err.lower()

    def test_length_mismatch_reports_counts(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_param_csv(a, smooth_frames(5))
        write_param_csv(b, smooth_frames(7))
        rc = main(["eval", "--pred", str(a), "--truth", str(b),
                   "--metrics", "weights_mse"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "5" in err and "7" in err

    def test_weights_only_without_rig(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        write_param_csv(csv, smooth_frames(4))
        rc = main(["eval", "--pred", str(csv), "--truth", str(csv),
                   "--metrics", "weights_mse"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metrics"]["weights_mse"]["mean"] == 0.0


# =============================================================================
# bench
# =============================================================================

class TestBench:
    def test_report_fields(self, workdir, capsys):
        rc = main(["bench", "--model", str(workdir["model"]), "--iters", "8"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["variant"] == "cnn_gru"
        assert data["median_ms"] > 0
        assert data["p95_ms"] >= data["median_ms"]
        assert data["budget_ms"] == pytest.approx(1000.0 / 30.0)


# =============================================================================
# export-obj
# =============================================================================

class TestExportObj:
    def test_one_obj_per_frame_zero_padded(self, workdir, tmp_path):
        csv = tmp_path / "anim.csv"
        write_param_csv(csv, smooth_frames(10))
        out_dir = tmp_path / "objs"
        rc = main(["export-obj", "--rig", str(workdir["rig"]), "--frames",
                   str(csv), "--out-dir", str(out_dir)])
        assert rc == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [f"frame_{i:06d}.obj" for i in range(10)]

    def test_rest_frame_exports_neutral_shape(self, workdir, tmp_path):
        csv = tmp_path / "rest.csv"
        write_param_csv(csv, [FaceFrame(np.zeros(3), np.zeros(46), 0)])
        out_dir = tmp_path / "objs"
        rc = main(["export-obj", "--rig", str(workdir["rig"]), "--frames",
                   str(csv), "--out-dir", str(out_dir)])
        assert rc == 0
        verts = read_obj_vertices(out_dir / "frame_000000.obj")
        rig = make_toy_rig(seed=0)
        assert np.max(np.abs(verts - rig.shapes[0])) <= 1e-4

    def test_negative_frame_index_writes_no_obj(self, workdir, tmp_path, capsys):
        csv = tmp_path / "anim.csv"
        csv.write_text(CSV_HEADER + "\n-3," + ",".join(["0.0"] * 3 + ["0.5"] * 46) + "\n")
        out_dir = tmp_path / "objs"
        assert main(["export-obj", "--rig", str(workdir["rig"]), "--frames",
                     str(csv), "--out-dir", str(out_dir)]) == 1
        assert "line 2: frame index must be a non-negative integer, got -3" \
            in capsys.readouterr().err
        assert not out_dir.exists()

    def test_reparse_error_bound(self, workdir, tmp_path):
        csv = tmp_path / "anim.csv"
        frames = smooth_frames(3)
        write_param_csv(csv, frames)
        out_dir = tmp_path / "objs"
        assert main(["export-obj", "--rig", str(workdir["rig"]), "--frames",
                     str(csv), "--out-dir", str(out_dir)]) == 0
        from speechface.face import compose_shape, load_rig
        rig = load_rig(workdir["rig"])
        # compare against what the command actually consumed: the six-decimal
        # values read back from the CSV, not the pre-quantization frames
        quantized = read_param_csv(csv)
        for i, frame in enumerate(quantized):
            got = read_obj_vertices(out_dir / f"frame_{i:06d}.obj")
            want = compose_shape(rig, frame)
            assert np.max(np.abs(got - want)) <= 1e-4


# =============================================================================
# error surface
# =============================================================================

class TestErrorSurface:
    def test_unknown_model_file(self, tmp_path, capsys):
        rc = main(["bench", "--model", str(tmp_path / "missing.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_malformed_wav(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio")
        rc = main(["infer", "--model", str(workdir["model"]), "--wav", str(bad),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
