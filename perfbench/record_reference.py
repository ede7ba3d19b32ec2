"""Record the default-seed reference outputs into ``reference.json``.

Usage, from the root of a checkout: python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right: the benchmark
compares later commits against what this writes. Values keep 10 significant
digits, far below the 1e-6 inference tolerance.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402


def _round(value):
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, list):
        return [_round(v) for v in value]
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    return value


def main() -> int:
    workdir = ROOT / ".bench_work" / "reference"
    try:
        manifests = {w: inputs.make(w, checks.DEFAULT_SEED, 2.0, workdir / w)
                     for w in ("stream", "offline", "train")}
        ref = _round(checks.record(manifests))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.REFERENCE.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    print(f"wrote {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
