"""Runs one workload in a fresh process and writes its raw measurements.

Usage: python3 perfbench/worker.py <spec.json>

The spec names the workload, the input manifest, the run length, whether to
trace, and where to write ``result.json`` and ``outputs.npz``. BLAS thread
settings come from the environment the parent sets before this process
starts. Output checks run in the parent, after this process has ended.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up is timed this many times before the measured window and again after
# it, so the median spans the run rather than one moment of a shared host.
SETUP_REPEATS = 6
DEADLINE_S = 1.0 / 30.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _timed(fn, repeats: int) -> tuple:
    """(last result, wall time of each of ``repeats`` calls of fn)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, times


def _wait_until(due: float) -> None:
    """Sleep until shortly before ``due``, then spin, so wake-up is on time."""
    while True:
        left = due - time.perf_counter()
        if left <= 0:
            return
        if left > 0.002:
            time.sleep(left - 0.001)


def run_stream(spec, sf, np, tr):
    from checks import bad_rows
    from inputs import BUFFER, FPS, SAMPLE_RATE, STREAM_SPEEDUP, WARMUP_SECONDS
    from tracer import SETUP, WARMUP

    inp = spec["inputs"]
    audio = sf.load_wav(inp["audio"]).samples
    rig = sf.make_toy_rig(0)
    def setup():
        return sf.StreamingSession(sf.load_checkpoint(inp["checkpoint"]), fps=FPS)

    tr.unit = SETUP
    session, setups = _timed(setup, SETUP_REPEATS)
    model = session.model

    # Warm-up on a separate session over the tail of the file, so lazy
    # allocation and first-call paths are not timed.
    tr.unit = WARMUP
    warm_n = int(WARMUP_SECONDS * SAMPLE_RATE)
    warm = sf.StreamingSession(model, fps=FPS)
    for k in range(len(audio) - warm_n, len(audio), BUFFER):
        for frame in warm.push(audio[k:k + BUFFER]):
            sf.compose_shape(rig, frame)

    period = BUFFER / SAMPLE_RATE / STREAM_SPEEDUP
    n_buffers = (len(audio) - warm_n) // BUFFER
    latencies, vectors, mesh_sums, gen_lag, errors = [], [], [], [], []
    start = time.perf_counter() + 0.005
    prev_end = start
    last_done = start
    for k in range(n_buffers):
        due = start + k * period
        _wait_until(due)
        issued = time.perf_counter()
        gen_lag.append(issued - max(due, prev_end))
        tr.unit = len(vectors)
        try:
            frames = session.push(audio[k * BUFFER:(k + 1) * BUFFER])
        except sf.SpeechFaceError as err:
            errors.append(f"buffer {k}: {err}")
            frames = []
        for frame in frames:
            try:
                mesh = sf.compose_shape(rig, frame)
            except sf.SpeechFaceError as err:
                errors.append(f"frame {frame.frame_index}: {err}")
                continue
            last_done = time.perf_counter()
            latencies.append(last_done - due)
            vectors.append(frame.vector)
            # a non-finite vertex makes the sum non-finite; checked after the run
            mesh_sums.append(float(mesh.sum()))
        prev_end = time.perf_counter()
    rss = _peak_rss_mb()
    tr.unit = SETUP
    setups += _timed(setup, SETUP_REPEATS)[1]

    pushed = n_buffers * BUFFER
    expected = 0
    while sf.audio.frame_boundary(expected, FPS) <= pushed:
        expected += 1
    lat = np.asarray(latencies)
    vec = np.asarray(vectors).reshape(-1, 49)
    bad = bad_rows(vec) | bad_rows(np.asarray(mesh_sums)[:, None])
    return {
        "setup": setups,
        "latency_s": latencies,
        "frames": len(vectors),
        "window_s": last_done - start,
        "peak_rss_mb": rss,
        "attempted": expected,
        "failed": expected - len(vectors) + int(bad.sum()),
        "deadline_miss": int(((lat > DEADLINE_S) | bad).sum()) + expected - len(vectors),
        "errors": errors[:10],
        "generator_lag_ms": [float(np.percentile(gen_lag, 50)) * 1e3,
                             float(np.percentile(gen_lag, 99)) * 1e3,
                             float(np.max(gen_lag)) * 1e3],
        "units": len(vectors),
        "pool_names": _pool_names(model),
    }, {"vectors": vec}


def run_offline(spec, sf, np, tr):
    from checks import bad_rows
    from inputs import FPS
    from tracer import SETUP, WARMUP

    inp = spec["inputs"]

    def setup():
        return sf.load_checkpoint(inp["checkpoint"])

    tr.unit = SETUP
    model, setups = _timed(setup, SETUP_REPEATS)

    def process(clip):
        audio = sf.load_wav(clip["wav"])
        specs = [sf.normalize(s, model.norm_stats) for s in sf.clip_spectrograms(audio, FPS)]
        frames = sf.forward_sequence(model, specs)
        sf.write_param_csv(clip["csv"], frames)
        return frames

    clips = inp["clips"]
    tr.unit = WARMUP
    process(min(clips, key=lambda c: c["frames"]))

    clip_times, errors, outputs = [], [], []
    frames_done = failed = attempted = 0
    t_start = time.perf_counter()
    while not outputs or time.perf_counter() - t_start < spec["seconds"]:
        pass_out = []
        for clip in clips:
            tr.unit = frames_done
            t0 = time.perf_counter()
            try:
                frames = process(clip)
            except sf.SpeechFaceError as err:
                errors.append(f"{Path(clip['wav']).name}: {err}")
                frames = []
            clip_times.append(time.perf_counter() - t0)
            attempted += clip["frames"]
            frames_done += len(frames)
            pass_out.append(frames)
        outputs.append(pass_out)
    rss = _peak_rss_mb()
    tr.unit = SETUP
    setups += _timed(setup, SETUP_REPEATS)[1]

    # Every pass must reproduce the first; every value must be finite.
    first = [np.asarray([f.vector for f in fr]).reshape(-1, 49) for fr in outputs[0]]
    indices_ok = [[f.frame_index for f in fr] == list(range(c["frames"]))
                  for fr, c in zip(outputs[0], clips)]
    for pass_out in outputs:
        for i, (frames, clip) in enumerate(zip(pass_out, clips)):
            vec = np.asarray([f.vector for f in frames]).reshape(-1, 49)
            ok = ~bad_rows(vec)
            if vec.shape == first[i].shape:
                ok &= (np.abs(vec - first[i]) <= 1e-6).all(axis=1)
            else:
                ok[:] = False
            if not indices_ok[i]:
                ok[:] = False
            failed += clip["frames"] - int(ok.sum())
    return {
        "setup": setups,
        "latency_s": clip_times,
        "frames": frames_done,
        "window_s": float(sum(clip_times)),
        "peak_rss_mb": rss,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "passes": len(outputs),
        "units": frames_done,
        "pool_names": _pool_names(model),
    }, {f"clip{i}": v for i, v in enumerate(first)}


def run_train(spec, sf, np, tr):
    from tracer import IGNORE, SETUP, WARMUP

    inp = spec["inputs"]
    config = sf.TrainConfig(seed=spec["seed"])
    def setup():
        return sf.load_dataset(inp["corpus"]), sf.build_model(config.variant, config.seed)

    tr.unit = SETUP
    (dataset, model), setups = _timed(setup, SETUP_REPEATS)

    tr.unit = IGNORE
    batch_frames = [sum(b - a for a, b in batch)
                    for batch in sf.make_batches(dataset, config, (config.seed, 0))]

    step_ends, losses, errors = [], [], []

    def on_step(step, value):
        now = time.perf_counter()
        step_ends.append(now)
        losses.append(value)
        tr.unit = step  # the next step's spans; the first step is not timed
        return step > 1 and now - step_ends[0] >= spec["seconds"]

    tr.unit = WARMUP
    t_begin = time.perf_counter()
    try:
        sf.train(config, dataset, model=model, on_step=on_step)
    except sf.SpeechFaceError as err:
        errors.append(f"step {len(step_ends) + 1}: {err}")
    rss = _peak_rss_mb()
    tr.unit = SETUP
    setups += _timed(setup, SETUP_REPEATS)[1]

    step_times = list(np.diff([t_begin] + step_ends))[1:]
    timed_frames = sum(batch_frames[1:len(step_ends)])
    bad_steps = int((~np.isfinite(np.asarray(losses, dtype=np.float64))).sum()) + len(errors)
    params_finite = all(bool(np.isfinite(p.data).all()) for p in model.parameters())
    return {
        "setup": setups,
        "latency_s": step_times,
        "frames": timed_frames,
        "window_s": float(sum(step_times)),
        "peak_rss_mb": rss,
        "attempted": len(step_ends) + len(errors),
        "failed": bad_steps,
        "errors": errors[:10] + ([] if params_finite else ["non-finite parameters after training"]),
        "first_step_s": step_ends[0] - t_begin if step_ends else None,
        "units": len(step_times),
        "pool_names": _pool_names(model),
    }, {"losses": np.asarray(losses, dtype=np.float64)}


def _pool_names(model) -> list:
    return [s.name for s in model.arch.stack if hasattr(s, "window")]


def gemm_peaks(np, n: int = 1024, reps: int = 6) -> dict:
    """Best-of-``reps`` square GEMM rate in GFLOP/s for float64 and float32."""
    rng = np.random.default_rng(0)
    peaks = {}
    for key, dtype in (("f64", np.float64), ("f32", np.float32)):
        a = rng.standard_normal((n, n)).astype(dtype)
        b = rng.standard_normal((n, n)).astype(dtype)
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            a @ b
            best = min(best, time.perf_counter() - t0)
        peaks[key] = 2.0 * n ** 3 / best / 1e9
    return peaks


def write_spans(np, spans, labels, path) -> None:
    """Every span as columns: name, layer label, start and end in seconds
    from the first span, parent index (-1 for a root) and unit id."""
    from tracer import END, NAME, PARENT, START, UNIT

    t0 = spans[0][START] if spans else 0.0
    np.savez_compressed(
        path,
        name=np.array([s[NAME] for s in spans]),
        label=np.array([lab or "" for lab in labels]),
        start=np.array([s[START] - t0 for s in spans]),
        end=np.array([s[END] - t0 for s in spans]),
        parent=np.array([s[PARENT] for s in spans], dtype=np.int64),
        unit=np.array([s[UNIT] for s in spans], dtype=np.int64))


WORKLOADS = {"stream": run_stream, "offline": run_offline, "train": run_train}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import speechface as sf
    import metrics
    import tracer

    tr = tracer.Tracer() if spec["trace"] else tracer.NullTracer()
    if spec["trace"]:
        tr.install()
    try:
        result, outputs = WORKLOADS[spec["workload"]](spec, sf, np, tr)
    finally:
        if spec["trace"]:
            tr.uninstall()
    out_dir = Path(spec["out_dir"])
    if spec["trace"]:
        write_spans(np, tr.spans, tracer.layer_labels(tr.spans, result["pool_names"]),
                    out_dir / "spans.npz")
        result["nesting_errors"] = tracer.nesting_errors(tr.spans)
        result["spans"] = len(tr.spans)
        result["accounting"] = {name: metrics.parent_accounting(tr.spans, name)
                                for name in ("model.trunk", "model.recur", "model.head_out")}
        result["layers"] = metrics.per_layer(
            tr.spans, max(result["units"], 1), result["pool_names"], gemm_peaks(np),
            busy_s=result["window_s"] if spec["workload"] == "train" else 0.0)
    np.savez(out_dir / "outputs.npz", **outputs)
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
