"""speechface benchmark: one workload per call, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {stream,offline,train} --seed N \
        --seconds S --trace {0,1}

The inputs are made from the seed and written under ``.bench_work/``. The
workload then runs in a fresh process (``worker.py``) that sees only those
files. With ``--trace 0`` the last line of output holds the end-to-end
metrics; with ``--trace 1`` the workload runs twice for half as long each,
untraced and then traced, and the last line holds the per-layer metrics,
including the tracing overhead. Outputs are checked after the workload's process ends.
A report for people precedes the last line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream", "offline", "train")
TIME_LIMIT_S = 170.0

# BLAS threads per workload, never more than the cores this process may use.
# The stream runs batch-1 GEMMs, where a second BLAS thread buys nothing and
# its wake-ups put 50-70 ms stalls into the latency tail on a 2-core host;
# offline and train run large GEMMs that use both cores.
BLAS_THREADS = {"stream": 1, "offline": 2, "train": 2}


def _import_program():
    """Import speechface from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    if not (src / "speechface" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'speechface'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import speechface

    if Path(speechface.__file__).resolve().parent != (src / "speechface").resolve():
        raise SystemExit(f"error: imported speechface from {speechface.__file__}, not {src}")
    return speechface


def _set_blas_threads(workload: str) -> int:
    """Fix the BLAS thread count for this process and its children; call
    before numpy is first imported."""
    threads = max(1, min(BLAS_THREADS[workload], len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _blas_info(np, threads: int) -> dict:
    """BLAS name and version from numpy's build, and the thread count that the
    loaded OpenBLAS reports (None where the library cannot be asked)."""
    info = {"threads_set": threads, "threads_in_use": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):  # older numpy prints instead of returning
        info.update(name=None, version=None)
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:  # no /proc on this system
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                info["threads_in_use"] = query()
                return info
    return info


def run_worker(spec: dict, phase_dir: Path, deadline: float) -> tuple:
    """Run one workload process; return its result and outputs."""
    import numpy as np

    phase_dir.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, out_dir=str(phase_dir))
    spec_path = phase_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                          cwd=ROOT, env=env, stdout=sys.stderr.fileno(),
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"error: {spec['workload']} worker exited with {proc.returncode}")
    result = json.loads((phase_dir / "result.json").read_text())
    with np.load(phase_dir / "outputs.npz") as npz:
        outputs = {k: npz[k] for k in npz.files}
    return result, outputs


def e2e(result: dict) -> dict:
    """End-to-end values of one workload run, with sample counts."""
    import metrics

    lat_ms = [x * 1e3 for x in result["latency_s"]]
    return {
        "setup_s": (metrics.percentile(result["setup"], 50), len(result["setup"])),
        "latency_p50_ms": (metrics.percentile(lat_ms, 50), len(lat_ms)),
        "frames_per_s": (result["frames"] / result["window_s"], result["frames"]),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = time.monotonic() + TIME_LIMIT_S

    threads = _set_blas_threads(args.workload)
    sf = _import_program()
    import numpy as np

    import checks
    import inputs
    import metrics

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # A traced call runs two phases of half the length each, so it takes
        # about as long as an untraced one.
        seconds = args.seconds / 2 if args.trace else args.seconds
        manifest = inputs.make(args.workload, args.seed, seconds, workdir / "inputs")
        spec = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
                "inputs": manifest, "trace": False}
        plain, outputs = run_worker(spec, workdir / "plain", deadline)
        traced = None
        if args.trace:
            traced, _ = run_worker(dict(spec, trace=True), workdir / "traced", deadline)
        verdict = checks.check(args.workload, args.seed, manifest, outputs)
        if traced:
            spans_file = ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.npz"
            spans_file.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(workdir / "traced" / "spans.npz", spans_file)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    runs = [plain] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs) + verdict["failed"]
    errors = [e for r in runs for e in r["errors"]]
    correct = failed == 0 and not errors and (traced is None or traced["nesting_errors"] == 0)

    values = e2e(plain)
    unit_of = {name: unit for name, unit, _, _ in metrics.E2E}
    frame_unit = "step" if args.workload == "train" else "frame"
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "phase_seconds": seconds, "trace": args.trace, "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)), "blas": _blas_info(np, threads),
        "numpy": np.__version__, "python": platform.python_version(),
        "speechface": sf.__version__, "latency_unit": {
            "stream": "frame, from its buffer's due time to the composed mesh",
            "offline": "clip, from load_wav to the written CSV",
            "train": "optimizer step, the first step not timed"}[args.workload],
        "measured_s": plain["window_s"],
    }
    if args.workload == "stream":
        lag = plain["generator_lag_ms"]
        meta["generator_lag_ms"] = {"p50": lag[0], "p99": lag[1], "max": lag[2]}
        meta["generator_late"] = lag[1] > 1.0
    if args.workload == "offline":
        meta["passes"] = plain["passes"]
    if args.workload == "train":
        meta["first_step_s"] = plain["first_step_s"]

    print(f"speechface benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  {'metric':<24}{'value':>14}  {'unit':<8}{'n':>7}")
    rows = [(k, v, unit_of[k], n) for k, (v, n) in values.items()]
    lat_ms = [x * 1e3 for x in plain["latency_s"]]
    rows += [(f"latency_p{q}_ms", metrics.percentile(lat_ms, q), "ms", len(lat_ms))
             for q in (95, 99)]
    if args.workload == "stream":
        rows.append(("deadline_miss_frac", plain["deadline_miss"] / plain["attempted"],
                     "1", plain["attempted"]))
    rows.append(("failed_frac", failed / attempted, "1", attempted))
    for name, value, unit, n in rows:
        print(f"  {name:<24}{value:>14.6g}  {unit:<8}{n:>7}")
    print(f"  samples are per {frame_unit}; latency is per {meta['latency_unit']}")
    for line in verdict["notes"] + errors:
        print(f"  check: {line}")
    if args.workload == "stream" and meta["generator_late"]:
        print(f"  warning: generator ran late (p99 {meta['generator_lag_ms']['p99']:.2f} ms)")

    if args.trace:
        layers = dict(traced["layers"])
        layers["stream.generator_lag_ms"] = (plain["generator_lag_ms"][1]
                                             if args.workload == "stream" else 0.0)
        traced_values = e2e(traced)
        for name, _, _, _ in metrics.E2E:
            layers[f"overhead.{name}"] = traced_values[name][0] - values[name][0]
        print(f"  traced run: {traced['spans']} spans, {traced['nesting_errors']} nesting "
              f"errors; spans written to {spans_file.relative_to(ROOT)}")
        print(f"  {'tracing overhead':<24}{'untraced':>14}{'traced':>14}")
        for name, _, _, _ in metrics.E2E:
            print(f"  {name:<24}{values[name][0]:>14.6g}{traced_values[name][0]:>14.6g}")
        for parent, (total, own, children) in traced["accounting"].items():
            if total <= 0:
                continue
            kids = sum(children.values())
            top = sorted(children.items(), key=lambda kv: -kv[1])[:4]
            print(f"  {parent}: total {total * 1e3:.3f} ms = own {own * 1e3:.3f} + "
                  f"children {kids * 1e3:.3f} ms; top children "
                  + ", ".join(f"{k} {v * 1e3:.3f}" for k, v in top))
        declared = {name: unit for name, unit in metrics.PER_LAYER}
        out_metrics = {k: {"value": float(layers[k]), "unit": u} for k, u in declared.items()}
    else:
        out_metrics = {k: {"value": float(v), "unit": unit_of[k]} for k, (v, _) in values.items()}

    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
