"""Fast check of the benchmark's own machinery, at tiny sizes.

Usage, from the root of a checkout: python3 perfbench/selfcheck.py

Checks self-time arithmetic and nesting on a synthetic span tree, layer
labelling, that tracing a real forward pass leaves every module and class
attribute of speechface as it was, that the output checker counts an
injected NaN frame as failed, and that BENCHMARK.json declares exactly the
metrics the benchmark reports. Exits 0 when all pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import speechface as sf  # noqa: E402
import checks  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402


def span(name, start, end, parent, label=None, unit=0, extra=None):
    return [name, label, start, end, parent, unit, extra]


def check_self_times():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    spans = [span("root", 0.0, 10.0, -1), span("a", 1.0, 4.0, 0),
             span("a1", 2.0, 3.0, 1), span("b", 5.0, 9.0, 0)]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracer.self_times(spans)) == 10.0
    assert tracer.nesting_errors(spans) == 0
    overlapping = spans + [span("c", 8.0, 9.5, 0)]  # overlaps b
    outside = spans + [span("d", 9.0, 11.0, 0)]     # ends after root
    assert tracer.nesting_errors(overlapping) == 1
    assert tracer.nesting_errors(outside) == 1
    total, own, children = metrics.parent_accounting(spans, "root")
    assert (total, own) == (10.0, 3.0) and sum(children.values()) == 7.0


def check_labels():
    seq = [("model.trunk", None, -1), ("autograd.conv2d", "conv1", 0),
           ("autograd.batch_norm", "conv1.bn", 0), ("autograd.relu", None, 0),
           ("autograd.max_pool2d", None, 0), ("autograd.max_pool2d", None, 0),
           ("autograd.dense", "dense1", 0), ("autograd.tanh", None, 0),
           ("autograd.tanh", None, 0), ("autograd.gru_step", None, -1),
           ("autograd.dense", "rnn", 9), ("autograd.narrow", None, 9)]
    spans = [span(n, float(i), float(i), p, label=lab) for i, (n, lab, p) in enumerate(seq)]
    got = tracer.layer_labels(spans, ["pool1", "pool2"])
    assert got == [None, "conv1", "conv1.bn", "conv1.relu", "pool1", "pool2",
                   "dense1", "dense1", "other", "gru_step", "gru_step", "gru_step"], got


def check_tracer_restores_attributes():
    model = sf.build_model("cnn_gru", seed=0)
    before = tracer.attribute_snapshot()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracer.attribute_snapshot() != before, "install patched nothing"
        tr.unit = 0
        session = sf.StreamingSession(model, fps=30.0)
        frames = session.push(np.zeros(sf.audio.frame_boundary(0, 30.0)))
    finally:
        tr.uninstall()
    assert tracer.attribute_snapshot() == before, "attributes differ after uninstall"
    assert len(frames) == 1 and tracer.nesting_errors(tr.spans) == 0
    labels = set(tracer.layer_labels(tr.spans, ["pool1", "pool2", "pool5"]))
    missing = set(metrics.LAYERS) - {"lstm_step"} - labels
    assert not missing, f"layers not seen in a traced cnn_gru frame: {sorted(missing)}"
    layers = metrics.per_layer(tr.spans, 1, ["pool1", "pool2", "pool5"],
                               {"f64": 1.0, "f32": 1.0})
    expected = {n for n, _ in metrics.PER_LAYER
                if not n.startswith("overhead.") and n != "stream.generator_lag_ms"}
    assert set(layers) == expected, sorted(set(layers) ^ expected)
    assert layers["autograd.gru_step.calls"] == 1 and layers["stream.push_ms"] > 0


def check_checker_counts_nan():
    vec = np.full((5, 49), 0.5)
    assert checks.bad_rows(vec).sum() == 0
    vec[2, 7] = np.nan
    vec[4, 0] = np.inf
    assert checks.bad_rows(vec).tolist() == [False, False, True, False, True]
    rows, diff = checks.mismatch(vec, np.full((5, 49), 0.5), 1e-6)
    assert rows == 2 and diff == np.inf
    assert checks.mismatch(vec[:4], vec, 1e-6)[0] == 5  # missing rows fail


def check_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == metrics.E2E
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["stream", "offline", "train"]


def main() -> int:
    for fn in (check_self_times, check_labels, check_tracer_restores_attributes,
               check_checker_counts_nan, check_declared_metrics):
        fn()
        print(f"ok  {fn.__name__}")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
