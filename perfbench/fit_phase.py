"""Fit each workload's sensitivity to the host's slow phase.

    python3 perfbench/fit_phase.py [.perfbench_out]

Reads the detailed results of untraced runs (``*-trace0.json``) and fits, per
workload, log(pass ms) and log(set-up s) against log(mean of the two probes
around them / PROBE_FAST_MS) by least squares over all runs. The slope of
the passes is the workload's ``phase_alpha`` in ``workloads.py``; that of the
set-ups compares with ``SETUP_PHASE_ALPHA`` in ``run.py``. Runs of several
seeds spread over some minutes give both phases enough samples.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "sepsaddle" / "__init__.py").is_file():
    sys.exit(f"fit_phase: {ROOT / 'src' / 'sepsaddle'} not found")
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402


def slope(pairs: list) -> float:
    x, y = np.array(pairs).T
    return float(np.polyfit(x, y, 1)[0])


def main(argv: list) -> int:
    out = Path(argv[1]) if len(argv) > 1 else ROOT / ".perfbench_out"
    passes, setups = defaultdict(list), defaultdict(list)
    for path in sorted(out.glob("*-trace0.json")):
        d = json.loads(path.read_text())
        for r in d["solves"]:
            p = r["probe_ms"]
            for i, ms in enumerate(r["pass_ms"][:r["passes_to_target"]]):
                passes[d["workload"]].append(
                    (math.log((p[i] + p[i + 1]) / 2 / W.PROBE_FAST_MS), math.log(ms)))
        for s in d["setups"]:
            setups[d["workload"]].append(
                (math.log(sum(s["probe_ms"]) / 2 / W.PROBE_FAST_MS), math.log(s["s"])))
    if not passes:
        sys.exit(f"fit_phase: no *-trace0.json results in {out}")
    for name in sorted(passes):
        print(f"{name}: pass slope {slope(passes[name]):.3f} over {len(passes[name])} passes "
              f"(phase_alpha {W.WORKLOADS[name].phase_alpha}); set-up slope "
              f"{slope(setups[name]):.3f} over {len(setups[name])} set-ups")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
