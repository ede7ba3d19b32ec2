"""Output checks, run after the workload's process has ended.

Every output is checked for finiteness here, because ``FaceFrame`` accepts
NaN. On any seed, a prefix of the stream is compared with the batched
``forward_sequence`` and a prefix of each offline clip with per-frame
``forward``. At the default seed, outputs are also compared with the
reference recorded by ``record_reference.py``. Frames that fail a check
count as failed frames.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import speechface as sf
from inputs import FPS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0

INFER_TOL = 1e-6        # batch/stream agreement the README promises
CSV_TOL = 1e-6          # CSV cells carry 6 decimals
STREAM_PREFIX = 48
OFFLINE_PREFIX = 8
REF_STREAM_FRAMES = 32
REF_CLIP_EDGE = 4
REF_TRAIN_STEPS = 3


def train_loss_rtol(frames: int) -> float:
    """Relative tolerance on a float32 minibatch loss.

    The loss sums ``frames * 49`` squared errors; a sum of n float32 terms
    carries a relative error of about sqrt(n) units in the last place, and a
    factor of 8 covers the float32 layers upstream of it.
    """
    return 8.0 * np.sqrt(frames * 49) * float(np.finfo(np.float32).eps)


def bad_rows(vectors) -> np.ndarray:
    """Mask of output rows holding any NaN or infinity."""
    vectors = np.asarray(vectors, dtype=np.float64)
    return ~np.isfinite(vectors).reshape(len(vectors), -1).all(axis=1)


def mismatch(got, want, tol) -> tuple:
    """(rows differing by more than tol, largest difference)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return len(want), float("inf")
    diff = np.abs(got - want)
    diff[~np.isfinite(diff)] = np.inf
    if diff.size == 0:
        return 0, 0.0
    return int((diff > tol).reshape(len(diff), -1).any(axis=1).sum()), float(diff.max())


def _vectors(frames) -> np.ndarray:
    return np.asarray([f.vector for f in frames]).reshape(-1, 49)


def stream_prefix(manifest, n: int = STREAM_PREFIX) -> np.ndarray:
    """The first n stream frames from the batched path."""
    model = sf.load_checkpoint(manifest["checkpoint"])
    audio = sf.load_wav(manifest["audio"]).samples
    clip = sf.AudioClip(audio[:sf.audio.frame_boundary(n - 1, FPS)])
    specs = [sf.normalize(s, model.norm_stats) for s in sf.clip_spectrograms(clip, FPS)]
    return _vectors(sf.forward_sequence(model, specs))


def offline_prefixes(manifest, n: int = OFFLINE_PREFIX) -> list:
    """The first n frames of each clip from per-frame ``forward``."""
    model = sf.load_checkpoint(manifest["checkpoint"])
    out = []
    for clip in manifest["clips"]:
        specs = sf.clip_spectrograms(sf.load_wav(clip["wav"]), FPS)[:n]
        state, frames = None, []
        for spec in specs:
            frame, state = sf.forward(model, sf.normalize(spec, model.norm_stats), state)
            frames.append(frame)
        out.append(_vectors(frames))
    return out


def check(workload: str, seed: int, manifest: dict, outputs) -> dict:
    """Run every check that applies; return failures and what was compared."""
    ref = json.loads(REFERENCE.read_text()) if seed == DEFAULT_SEED else None
    seen: dict = {}  # check name -> [rows off, largest difference, tolerance]

    def note(name, rows, diff, tol):
        entry = seen.setdefault(name, [0, 0.0, tol])
        entry[0] += rows
        entry[1] = max(entry[1], diff)
        return rows

    failed = 0

    if workload == "stream":
        vec = outputs["vectors"]
        n = min(STREAM_PREFIX, len(vec))
        failed += note("stream prefix vs forward_sequence",
                       *mismatch(vec[:n], stream_prefix(manifest, n), INFER_TOL), INFER_TOL)
        if ref is not None:
            want = np.asarray(ref["stream"])
            failed += note("reference", *mismatch(vec[:len(want)], want, INFER_TOL), INFER_TOL)
    elif workload == "offline":
        prefixes = offline_prefixes(manifest)
        for i, clip in enumerate(manifest["clips"]):
            vec = outputs[f"clip{i}"]
            failed += note("clip prefixes vs per-frame forward",
                           *mismatch(vec[:len(prefixes[i])], prefixes[i], INFER_TOL), INFER_TOL)
            csv = _vectors(sf.read_param_csv(clip["csv"]))
            failed += note("CSVs read back", *mismatch(csv, vec, CSV_TOL), CSV_TOL)
            if ref is not None:
                e = REF_CLIP_EDGE
                want = np.concatenate([ref["offline"][i]["head"], ref["offline"][i]["tail"]])
                got = np.concatenate([vec[:e], vec[-e:]])
                failed += note("reference", *mismatch(got, want, INFER_TOL), INFER_TOL)
    elif workload == "train":
        losses = outputs["losses"]
        if ref is not None:
            want = np.asarray(ref["train"]["losses"])
            k = min(len(want), len(losses))
            rtol = train_loss_rtol(ref["train"]["frames_per_step"])
            rel = np.abs(losses[:k] - want[:k]) / np.abs(want[:k])
            rel[~np.isfinite(rel)] = np.inf
            rows = int((rel > rtol).sum()) + len(want) - k
            failed += note("reference losses (relative)", rows, float(rel.max(initial=0.0)), rtol)
    notes = [f"{name}: {'ok' if rows == 0 else f'{rows} rows off'} "
             f"(max diff {diff:.2e}, tol {tol:.1e})" for name, (rows, diff, tol) in seen.items()]
    return {"failed": failed, "notes": notes}


def record(manifests: dict) -> dict:
    """Reference outputs at the default seed, from direct library calls."""
    stream = manifests["stream"]
    model = sf.load_checkpoint(stream["checkpoint"])
    session = sf.StreamingSession(model, fps=FPS)
    audio = sf.load_wav(stream["audio"]).samples
    frames = []
    for k in range(0, len(audio), 512):
        frames += session.push(audio[k:k + 512])
        if len(frames) >= REF_STREAM_FRAMES:
            break
    ref = {"seed": DEFAULT_SEED, "stream": _vectors(frames[:REF_STREAM_FRAMES]).tolist()}

    offline = manifests["offline"]
    model = sf.load_checkpoint(offline["checkpoint"])
    ref["offline"] = []
    for clip in offline["clips"]:
        specs = [sf.normalize(s, model.norm_stats)
                 for s in sf.clip_spectrograms(sf.load_wav(clip["wav"]), FPS)]
        vec = _vectors(sf.forward_sequence(model, specs))
        ref["offline"].append({"head": vec[:REF_CLIP_EDGE].tolist(),
                               "tail": vec[-REF_CLIP_EDGE:].tolist()})

    train = manifests["train"]
    dataset = sf.load_dataset(train["corpus"])
    config = sf.TrainConfig(seed=DEFAULT_SEED)
    batches = sf.make_batches(dataset, config, (config.seed, 0))
    losses = []
    sf.train(config, dataset, model=sf.build_model(config.variant, config.seed),
             on_step=lambda step, value: losses.append(value) or step >= REF_TRAIN_STEPS)
    ref["train"] = {"losses": losses,
                    "frames_per_step": int(min(sum(b - a for a, b in batch)
                                               for batch in batches[:REF_TRAIN_STEPS]))}
    return ref
