"""Metric names, units and their computation from samples and spans.

``BENCHMARK.json`` declares the same lists; ``selfcheck.py`` checks that the
two agree.
"""

from __future__ import annotations

import numpy as np

import tracer
from tracer import EXTRA, NAME, PARENT, UNIT

# name, unit, better, bound (share of the parent's median)
E2E = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("frames_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

CONVS = [f"conv{i}" for i in range(1, 9)]
BNS = [f"conv{i}.bn" for i in range(1, 8)]  # conv8 has no batch norm
RELUS = [f"{c}.relu" for c in CONVS]
POOLS = ["pool1", "pool2", "pool5"]
DENSES = ["dense1", "dense2", "head_r", "head_e"]
LAYERS = CONVS + BNS + RELUS + POOLS + DENSES + list(tracer.RECURRENT_STEPS)


def _primary_op(label: str) -> str:
    """The autograd op whose calls count as calls of the layer."""
    if label in CONVS:
        return "autograd.conv2d"
    if label in BNS:
        return "autograd.batch_norm"
    if label in RELUS:
        return "autograd.relu"
    if label in POOLS:
        return "autograd.max_pool2d"
    if label in DENSES:
        return "autograd.dense"
    return f"autograd.{label}"


PER_LAYER = (
    [(f"autograd.{lab}.self_ms", "ms") for lab in LAYERS + ["other"]]
    + [(f"autograd.{lab}.calls", "count") for lab in LAYERS]
    + [("autograd.op_calls", "count")]
    + [(f"autograd.{c}.out_mb", "MiB") for c in CONVS]
    + [("autograd.backward_s", "s"), ("trainer.adam_step_s", "s"),
       ("trainer.forward_s", "s"), ("trainer.make_batches_s", "s")]
    + [("stream.push_ms", "ms"), ("stream.generator_lag_ms", "ms")]
    + [("audio.spectrogram_ms", "ms"), ("audio.clip_spectrograms_s", "s"),
       ("audio.load_wav_s", "s")]
    + [("model.trunk_ms", "ms"), ("model.recur_ms", "ms"), ("model.head_out_ms", "ms")]
    + [("face.compose_shape_ms", "ms"), ("data.write_param_csv_s", "s"),
       ("data.load_dataset_s", "s"), ("model.load_checkpoint_s", "s")]
    + [(f"computed.{lab}.mflop", "MFLOP") for lab in CONVS + DENSES]
    + [(f"computed.{c}.peak_frac", "ratio") for c in CONVS]
    + [("computed.floor_ms", "ms"),
       ("machine.gemm_f64_gflops", "GFLOP/s"), ("machine.gemm_f32_gflops", "GFLOP/s")]
    + [(f"overhead.{name}", unit) for name, unit, _, _ in E2E]
)


def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile, as numpy computes it."""
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def per_layer(spans, n_units: int, pool_names, gemm_gflops: dict,
              busy_s: float = 0.0) -> dict:
    """Per-layer values from a traced run, each per measured unit.

    A unit is an emitted frame (stream), an output frame (offline) or a timed
    optimizer step (train). Spans whose unit is negative (set-up, warm-up)
    are left out, except for the per-call set-up metrics. ``busy_s`` is the
    measured wall time of the timed train steps; the step's forward share is
    that time minus backward and Adam. Layers a workload never calls read 0.
    """
    self_t = tracer.self_times(spans)
    labels = tracer.layer_labels(spans, pool_names)
    measured = [i for i, s in enumerate(spans) if s[UNIT] >= 0]
    per_unit = 1.0 / n_units

    def total(name):
        return sum(spans[i][tracer.END] - spans[i][tracer.START] for i in measured
                   if spans[i][NAME] == name)

    def per_call(name):
        durs = [s[tracer.END] - s[tracer.START] for s in spans if s[NAME] == name]
        return sum(durs) / len(durs) if durs else 0.0

    out = {}
    self_by = dict.fromkeys(LAYERS + ["other"], 0.0)
    calls_by = dict.fromkeys(LAYERS, 0)
    flops_by = dict.fromkeys(CONVS + DENSES, 0.0)
    conv_self = dict.fromkeys(CONVS, 0.0)
    conv_flops_at_peak = dict.fromkeys(CONVS, 0.0)
    out_bytes = dict.fromkeys(CONVS, 0)
    floor_s = 0.0
    op_calls = 0
    for i in measured:
        lab = labels[i]
        if lab is None:
            continue
        s = spans[i]
        op_calls += 1
        self_by[lab if lab in self_by else "other"] += self_t[i]
        if lab in calls_by and s[NAME] == _primary_op(lab):
            calls_by[lab] += 1
        if s[EXTRA] is not None and s[NAME] in ("autograd.conv2d", "autograd.dense"):
            flops, nbytes, itemsize = s[EXTRA]
            peak = gemm_gflops["f64" if itemsize == 8 else "f32"] * 1e9
            floor_s += flops / peak
            if lab in flops_by:
                flops_by[lab] += flops
            if lab in conv_self:
                conv_self[lab] += self_t[i]
                conv_flops_at_peak[lab] += flops / peak
                out_bytes[lab] = max(out_bytes[lab], nbytes)
    for lab in LAYERS + ["other"]:
        out[f"autograd.{lab}.self_ms"] = self_by[lab] * 1e3 * per_unit
    for lab in LAYERS:
        out[f"autograd.{lab}.calls"] = calls_by[lab] * per_unit
    out["autograd.op_calls"] = op_calls * per_unit
    for c in CONVS:
        out[f"autograd.{c}.out_mb"] = out_bytes[c] / 2**20

    backward = total("autograd.backward")
    adam = total("trainer.adam_step")
    out["autograd.backward_s"] = backward * per_unit
    out["trainer.adam_step_s"] = adam * per_unit
    out["trainer.forward_s"] = (busy_s - backward - adam) * per_unit if busy_s else 0.0
    out["trainer.make_batches_s"] = per_call("trainer.make_batches")

    pushes = [spans[i] for i in measured
              if spans[i][NAME] == "stream.push" and spans[i][EXTRA]]
    out["stream.push_ms"] = (sum(s[tracer.END] - s[tracer.START] for s in pushes)
                             / len(pushes) * 1e3) if pushes else 0.0
    out["audio.spectrogram_ms"] = (total("audio.compute_spectrogram")
                                   + total("audio.normalize")) * 1e3 * per_unit
    out["audio.clip_spectrograms_s"] = total("audio.clip_spectrograms") * per_unit
    out["audio.load_wav_s"] = total("audio.load_wav") * per_unit
    out["model.trunk_ms"] = total("model.trunk") * 1e3 * per_unit
    out["model.recur_ms"] = total("model.recur") * 1e3 * per_unit
    out["model.head_out_ms"] = total("model.head_out") * 1e3 * per_unit
    out["face.compose_shape_ms"] = total("face.compose_shape") * 1e3 * per_unit
    out["data.write_param_csv_s"] = total("data.write_param_csv") * per_unit
    out["data.load_dataset_s"] = per_call("data.load_dataset")
    out["model.load_checkpoint_s"] = per_call("model.load_checkpoint")

    for lab in CONVS + DENSES:
        out[f"computed.{lab}.mflop"] = flops_by[lab] / 1e6 * per_unit
    for c in CONVS:
        out[f"computed.{c}.peak_frac"] = (conv_flops_at_peak[c] / conv_self[c]
                                          if conv_self[c] > 0 else 0.0)
    out["computed.floor_ms"] = floor_s * 1e3 * per_unit
    out["machine.gemm_f64_gflops"] = gemm_gflops["f64"]
    out["machine.gemm_f32_gflops"] = gemm_gflops["f32"]
    return out


def parent_accounting(spans, parent_name: str) -> tuple:
    """(total, own self, children's self by name) over measured spans of one name.

    With correct nesting the own self time plus every descendant's self time
    equals the parent spans' total; the report prints both sides.
    """
    self_t = tracer.self_times(spans)
    inside = {}
    total = own = 0.0
    for i, s in enumerate(spans):
        if s[UNIT] < 0:
            continue
        if s[NAME] == parent_name:
            total += s[tracer.END] - s[tracer.START]
            own += self_t[i]
            inside[i] = True
            continue
        p = s[PARENT]
        if p in inside:
            inside[i] = True
    children = {}
    for i in inside:
        if spans[i][NAME] != parent_name:
            children[spans[i][NAME]] = children.get(spans[i][NAME], 0.0) + self_t[i]
    return total, own, children
