"""Seeded inputs for the workloads, written as ordinary files.

The program under test receives only these files: checkpoints, WAV clips,
the stream's audio and a training corpus. The same seed gives the same
bytes. Sizes are fixed; the seed changes only content, so every seed asks
for the same amount of work.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import speechface as sf

SAMPLE_RATE = 44100
FPS = 30.0

# stream: a sound-card period of 512 samples, pushed faster than real time
# by a fixed factor so one run gathers enough frames for a p99.
BUFFER = 512
STREAM_SPEEDUP = 2.0
WARMUP_SECONDS = 0.5

# offline: short utterances plus one clip long enough that the batched
# trunk's intermediates far exceed the caches.
OFFLINE_CLIP_SECONDS = (1.0, 1.4, 1.8, 2.0, 1.2, 1.6, 10.5)

# train: sequence lengths of the corpus, in frames. Multiples of the BPTT
# length, so every minibatch is nine 32-frame segments and every step does
# the same work on every seed.
CORPUS_SEQ_FRAMES = (128, 160, 96, 192, 128, 160, 192, 160)


def synth_speech(seed, n_samples: int) -> np.ndarray:
    """Speech-like audio made in 4 s blocks, each from its own generator, so
    a longer request for the same seed extends a shorter one unchanged."""
    block = 4 * SAMPLE_RATE
    return np.concatenate([
        _synth_block(np.random.default_rng([*seed, b]), min(block, n_samples - b * block))
        for b in range(-(-n_samples // block))])


def _synth_block(rng: np.random.Generator, n_samples: int) -> np.ndarray:
    """Voiced syllables on a wandering pitch, with noise.

    Syllables come at about 4 per second with pauses between; each has a
    harmonic voice at 90-240 Hz shaped by two random formants, plus a
    breath-noise floor. Built at a 100 Hz control rate, then interpolated.
    """
    ctrl_rate = 100
    n_ctrl = n_samples * ctrl_rate // SAMPLE_RATE + 2
    t_ctrl = np.arange(n_ctrl) / ctrl_rate
    env = np.zeros(n_ctrl)
    n_syl = max(1, int(n_ctrl / ctrl_rate * 4))
    for center, width, amp in zip(rng.uniform(0, t_ctrl[-1], n_syl),
                                  rng.uniform(0.04, 0.12, n_syl),
                                  rng.uniform(0.3, 1.0, n_syl)):
        lo, hi = np.searchsorted(t_ctrl, [center - 4 * width, center + 4 * width])
        env[lo:hi] += amp * np.exp(-0.5 * ((t_ctrl[lo:hi] - center) / width) ** 2)
    pitch = 90.0 + 150.0 * (0.5 + 0.5 * np.sin(np.cumsum(rng.normal(0, 0.05, n_ctrl))))

    t = np.arange(n_samples) / SAMPLE_RATE
    env_s = np.interp(t, t_ctrl, env)
    phase = 2 * np.pi * np.cumsum(np.interp(t, t_ctrl, pitch)) / SAMPLE_RATE
    formants = rng.uniform([300, 900], [900, 2500])
    voice = np.zeros(n_samples)
    f0 = float(pitch.mean())
    for k in range(1, 13):
        gain = sum(np.exp(-0.5 * ((k * f0 - f) / 200.0) ** 2) for f in formants) + 0.05
        voice += gain / k * np.sin(k * phase)
    noise = rng.standard_normal(n_samples) * (0.02 + 0.1 * env_s * rng.uniform(0.2, 1.0))
    out = env_s * voice + noise
    return 0.5 * out / np.max(np.abs(out))


def make_checkpoint(path: Path, variant: str, seed: int) -> None:
    """A built model with non-trivial batch-norm statistics and fitted input
    normalization, so every inference stage does real arithmetic."""
    model = sf.build_model(variant, seed=seed)
    rng = np.random.default_rng([seed, 1])
    for bn in model.conv_bn.values():
        ch = bn.channels
        bn.gamma.data = rng.uniform(0.8, 1.2, ch).astype(np.float32)
        bn.beta.data = rng.normal(0.0, 0.1, ch).astype(np.float32)
        bn.running_mean = rng.normal(0.0, 0.1, ch).astype(np.float32)
        bn.running_var = rng.uniform(0.5, 2.0, ch).astype(np.float32)
    model.norm_stats = norm_stats(seed)
    sf.save_checkpoint(model, path)


def norm_stats(seed: int) -> sf.NormStats:
    clip = sf.AudioClip(synth_speech((seed, 2), 2 * SAMPLE_RATE))
    return sf.fit_normalization(sf.clip_spectrograms(clip, FPS))


def stream_samples(seconds: float) -> int:
    """Samples the stream's schedule pushes in ``seconds`` of wall time, plus
    the warm-up audio at the end of the file."""
    period = BUFFER / SAMPLE_RATE / STREAM_SPEEDUP
    return int(seconds / period) * BUFFER + int(WARMUP_SECONDS * SAMPLE_RATE)


def smooth_targets(rng: np.random.Generator, n: int) -> np.ndarray:
    """Slowly varying face parameters: rotation in [-0.4, 0.4], weights in (0, 1)."""
    kernel = np.hanning(15)
    kernel /= kernel.sum()
    raw = np.stack([np.convolve(rng.standard_normal(n + 14), kernel, "valid")
                    for _ in range(49)], axis=1) * 4.0
    return np.concatenate([0.4 * np.tanh(raw[:, :3]), 1 / (1 + np.exp(-raw[:, 3:]))], axis=1)


def make_corpus(path: Path, seed: int) -> int:
    """A multi-sequence .sfd corpus of normalized spectrograms and targets."""
    rng = np.random.default_rng([seed, 3])
    stats = norm_stats(seed)
    seq_ids, frame_idx, specs, targets = [], [], [], []
    for sid, n_frames in enumerate(CORPUS_SEQ_FRAMES):
        n_samples = sf.audio.frame_boundary(n_frames - 1, FPS)
        clip = sf.AudioClip(synth_speech((seed, 4, sid), n_samples))
        specs += [sf.normalize(s, stats).bands for s in sf.clip_spectrograms(clip, FPS)]
        targets.append(smooth_targets(rng, n_frames))
        seq_ids += [sid] * n_frames
        frame_idx += list(range(n_frames))
    n = len(seq_ids)
    absent = np.full(n, 255)
    sf.save_dataset(sf.Dataset(seq_ids, frame_idx, np.stack(specs),
                               np.concatenate(targets), absent, absent), path)
    return n


def make(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Write the workload's inputs under ``workdir``; return their manifest."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "stream":
        ckpt = workdir / "gru.ckpt"
        make_checkpoint(ckpt, "cnn_gru", seed)
        wav = workdir / "stream.wav"
        sf.write_wav(wav, synth_speech((seed, 5), stream_samples(seconds)), fmt="float32")
        return {"checkpoint": str(ckpt), "audio": str(wav)}
    if workload == "offline":
        ckpt = workdir / "lstm.ckpt"
        make_checkpoint(ckpt, "cnn_lstm", seed)
        clips = []
        for i, secs in enumerate(OFFLINE_CLIP_SECONDS):
            wav = workdir / f"clip{i}.wav"
            sf.write_wav(wav, synth_speech((seed, 6, i), int(secs * SAMPLE_RATE)))
            n_frames = sf.frame_count(sf.load_wav(wav), FPS)
            clips.append({"wav": str(wav), "csv": str(workdir / f"clip{i}.csv"),
                          "frames": n_frames})
        return {"checkpoint": str(ckpt), "clips": clips}
    if workload == "train":
        corpus = workdir / "corpus.sfd"
        frames = make_corpus(corpus, seed)
        return {"corpus": str(corpus), "frames": frames}
    raise ValueError(f"unknown workload {workload!r}")
