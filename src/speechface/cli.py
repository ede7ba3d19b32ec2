"""Command-line surface: prepare, train, infer, eval, bench, export-obj.

Every command is a thin binding over the library modules; outputs are files
(datasets, checkpoints, CSVs, OBJ meshes, JSON reports) intended for other
programs. Errors raised by the library exit with code 1 and a one-line
diagnostic.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import audio, data, face, model as net, stream
from .errors import ConfigError, DataError, SpeechFaceError
from .trainer import TrainConfig, metric_report, train as run_training

_CLI_VARIANTS = {"cnn-static": "cnn_static", "cnn-lstm": "cnn_lstm", "cnn-gru": "cnn_gru"}


def _paired_stems(first: Path, first_ext: str, second: Path, second_ext: str,
                  unpaired: str) -> list:
    """(stem, first file, second file) for each stem, in stem order; a stem
    with a file in only one directory fails with ``unpaired`` and the stems."""
    a = {p.stem: p for p in sorted(first.glob(f"*{first_ext}"))}
    b = {p.stem: p for p in sorted(second.glob(f"*{second_ext}"))}
    if not a:
        raise DataError(f"no {first_ext} files in {first}")
    orphans = sorted(set(a) ^ set(b))
    if orphans:
        raise DataError(f"{unpaired}: " + ", ".join(orphans))
    return [(stem, a[stem], b[stem]) for stem in sorted(a)]


# ---------------------------------------------------------------------------
# prepare


def cmd_prepare(args) -> int:
    pairs = _paired_stems(Path(args.wav_dir), ".wav", Path(args.params_dir), ".csv",
                          "unpaired stems (need matching .wav and .csv)")
    clips = []
    for seq_id, (stem, wav_path, csv_path) in enumerate(pairs):
        clip = audio.load_wav(wav_path)
        truth = data.read_param_csv(csv_path)
        n_audio = audio.frame_count(clip, args.fps)
        if abs(n_audio - len(truth)) > 1:
            raise DataError(f"{stem}: audio yields {n_audio} frames but ground "
                            f"truth has {len(truth)} (allowed difference: 1)")
        n = min(n_audio, len(truth))
        if n == 0:
            raise DataError(f"{stem}: no usable frames at {args.fps} fps")
        specs = audio.clip_spectrograms(clip, args.fps)[:n]
        emotion, actor = data.parse_ravdess_stem(stem)
        clips.append((seq_id, stem, specs, truth[:n], emotion, actor))

    stats = audio.fit_normalization([s for _, _, specs, _, _, _ in clips for s in specs])

    columns = []  # per clip: seq ids, frame indices, bands, targets, emotions, actors
    for seq_id, _, specs, truth, *labels in clips:
        n = len(specs)
        columns.append([np.full(n, seq_id), np.arange(n),
                        np.stack([audio.normalize(s, stats).bands for s in specs]).astype(np.float32),
                        np.stack([f.vector for f in truth]).astype(np.float32)]
                       + [np.full(n, data.LABEL_ABSENT if v is None else v) for v in labels])
    dataset = data.Dataset(*(np.concatenate(col) for col in zip(*columns)), stats)
    data.save_dataset(dataset, args.out)
    labeled = sum(1 for c in clips if c[4] is not None)
    print(f"prepared {len(dataset)} records from {len(clips)} clips "
          f"({labeled} with emotion/actor labels) -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train

# TrainConfig field -> the flag that sets it, for naming rejected values
_TRAIN_FLAGS = {"learning_rate": "--lr", "minibatch_frames": "--minibatch",
                "epoch_frames": "--epoch-frames", "epochs": "--epochs", "bptt_len": "--bptt",
                "seed": "--seed"}


def cmd_train(args) -> int:
    variant = _CLI_VARIANTS[args.variant]
    bptt = args.bptt
    if variant == "cnn_static" and bptt is not None:
        print("warning: --bptt is ignored for cnn-static", file=sys.stderr)
    try:
        config = TrainConfig(
            variant=variant, learning_rate=args.lr, minibatch_frames=args.minibatch,
            epoch_frames=args.epoch_frames, epochs=args.epochs,
            bptt_len=TrainConfig.bptt_len if bptt is None else bptt, seed=args.seed)
    except ConfigError as err:
        # every field check reads "<field> must ..."
        name, _, reason = str(err).partition(" ")
        if name not in _TRAIN_FLAGS:
            raise
        raise ConfigError(f"{_TRAIN_FLAGS[name]} {reason}") from None
    dataset = data.load_dataset(args.dataset)
    print(f"training {variant}: lr={config.learning_rate} "
          f"minibatch={config.minibatch_frames} epochs={config.epochs} "
          f"epoch_frames={config.epoch_frames} bptt={config.bptt_len} "
          f"seed={config.seed} ({len(dataset)} records)")
    mdl, trace = run_training(config, dataset)
    net.save_checkpoint(mdl, args.out)
    trace_path = Path(str(args.out) + ".trace.csv")
    trace_path.write_text("epoch,mean_minibatch_loss\n" + "".join(
        f"{i},{v:.8f}\n" for i, v in enumerate(trace)))
    print(f"final epoch mean loss {trace[-1]:.6f}; wrote {args.out} and {trace_path.name}")
    return 0


# ---------------------------------------------------------------------------
# infer


def cmd_infer(args) -> int:
    mdl = net.load_checkpoint(args.model)
    clip = audio.load_wav(args.wav)
    n = audio.frame_count(clip, args.fps)
    if n == 0:
        raise DataError(f"{args.wav}: shorter than one frame interval at {args.fps} fps")
    if args.realtime:
        frames = _infer_realtime(mdl, clip, args.fps, n)
    else:
        specs = [audio.normalize(s, mdl.norm_stats)
                 for s in audio.clip_spectrograms(clip, args.fps)]
        frames = net.forward_sequence(mdl, specs)
    data.write_param_csv(args.out, frames)
    print(f"wrote {len(frames)} frames -> {args.out}")
    return 0


def _infer_realtime(mdl, clip, fps, n_frames):
    """Feed the clip through a StreamingSession at wall-clock pace."""
    session = stream.StreamingSession(mdl, fps)
    frames = []
    latencies = []
    start = time.perf_counter()
    consumed = 0
    for t in range(n_frames):
        boundary = audio.frame_boundary(t, fps)
        due = start + boundary / audio.SAMPLE_RATE
        lag = due - time.perf_counter()
        if lag > 0:
            time.sleep(lag)
        frames.extend(session.push(clip.samples[consumed:boundary]))
        latencies.append(time.perf_counter() - due)
        consumed = boundary
    lat = np.array(latencies) * 1000.0
    print(f"realtime: {n_frames} frames, latency median {np.median(lat):.2f} ms, "
          f"p95 {np.percentile(lat, 95):.2f} ms")
    return frames


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    rig = face.load_rig(args.rig) if args.rig else None
    pred_in, truth_in = Path(args.pred), Path(args.truth)
    if pred_in.is_dir() != truth_in.is_dir():
        raise ConfigError("--pred and --truth must both be files or both directories")
    if pred_in.is_dir():
        pairs = _paired_stems(pred_in, ".csv", truth_in, ".csv",
                              "unpaired prediction/truth stems")
    else:
        pairs = [(truth_in.stem, pred_in, truth_in)]
    pred, truth, emotions, actors = [], [], [], []
    for stem, pred_path, truth_path in pairs:
        p = data.read_param_csv(pred_path)
        t = data.read_param_csv(truth_path)
        if len(p) != len(t):
            raise DataError(f"{stem}: prediction has {len(p)} frames but ground "
                            f"truth has {len(t)}")
        emotion = actor = None
        if args.groups:
            emotion, actor = data.parse_ravdess_stem(stem)
        pred += p
        truth += t
        emotions += [data.LABEL_ABSENT if emotion is None else emotion] * len(p)
        actors += [data.LABEL_ABSENT if actor is None else actor] * len(p)
    report = metric_report(pred, truth, rig, np.array(emotions),
                                   np.array(actors), metrics)
    text = json.dumps(report, indent=2)
    if args.report:
        Path(args.report).write_text(text + "\n")
        print(f"wrote report -> {args.report}")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# bench / export


def cmd_bench(args) -> int:
    mdl = net.load_checkpoint(args.model)
    report = stream.bench(mdl, iters=args.iters)
    print(json.dumps(report, indent=2))
    return 0


def cmd_export_obj(args) -> int:
    rig = face.load_rig(args.rig)
    frames = data.read_param_csv(args.frames)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for frame in frames:
        vertices = face.compose_shape(rig, frame)
        face.write_obj(out_dir / f"frame_{frame.frame_index:06d}.obj", vertices, rig.faces)
    print(f"wrote {len(frames)} OBJ files -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speechface",
        description="Speech-driven 3D facial animation: data preparation, "
                    "training, streaming inference, evaluation and export.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build a training dataset from WAV + CSV pairs")
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--params-dir", required=True)
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model on a prepared dataset")
    p.add_argument("--dataset", required=True)
    # defaults are TrainConfig's; --bptt stays None so cnn-static can warn when it is given
    p.add_argument("--variant", choices=sorted(_CLI_VARIANTS),
                   default=TrainConfig.variant.replace("_", "-"))
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--minibatch", type=int, default=TrainConfig.minibatch_frames)
    p.add_argument("--epoch-frames", type=int, default=TrainConfig.epoch_frames)
    p.add_argument("--bptt", type=int, default=None)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="drive face parameters from a WAV file")
    p.add_argument("--model", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--out", required=True)
    p.add_argument("--realtime", action="store_true")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="compare predicted parameter CSVs to ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--rig", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--groups", action="store_true",
                   help="group metrics by emotion/actor parsed from filenames")
    p.add_argument("--metrics", default="landmark_rmse,weights_mse")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="measure per-frame latency")
    p.add_argument("--model", required=True)
    p.add_argument("--iters", type=int, default=100)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-obj", help="write one OBJ mesh per CSV frame")
    p.add_argument("--rig", required=True)
    p.add_argument("--frames", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_export_obj)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpeechFaceError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
