"""Recompute the pinned reference optima and compare them with the pins.

    python3 perfbench/references.py

Run from the root of a checkout. Takes about 20 s on 2 CPUs (the group-lasso
reference alone takes ~17 s). Exits 1 if a recomputed value differs from its
pin by more than 1e-9 relative; BLAS builds may differ in the last digits.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "sepsaddle" / "__init__.py").is_file():
    sys.exit(f"references: {ROOT / 'src' / 'sepsaddle'} not found")
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402

TOLERANCE = 1e-9


def main() -> int:
    worst = 0.0
    for (problem, data_seed), pinned in W.PINNED_REFERENCES.items():
        w = next(w for w in W.WORKLOADS.values()
                 if (w.problem, w.data_seed) == (problem, data_seed))
        t0 = time.perf_counter()
        value = W.solve_reference(w)
        rel = abs(value - pinned) / abs(pinned)
        worst = max(worst, rel)
        print(f"{problem} data seed {data_seed}: recomputed {value!r}, pinned {pinned!r}, "
              f"relative difference {rel:.2e} ({time.perf_counter() - t0:.1f} s)")
    return 0 if worst <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
