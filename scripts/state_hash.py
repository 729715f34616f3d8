#!/usr/bin/env python3
"""Print the SHA-256 of each benchmark workload's solver state after its
passes, to check that a change leaves the iterates bitwise unchanged.

Each workload is set up and solved as ``perfbench/run.py`` solves it
(``perfbench/workloads.py``, imported and not changed): by default to its
target, which the workloads reach at 14 / 408 / 82 / 166 passes, or for
``--passes`` passes. ``--K`` solves the spbcd workloads' data at another
K: the workload with that K (``dataclasses.replace``) under the default
sigma rule, so lasso-k100 drops its sigma scale of K/J, with which a K = 1
run diverges (y turns non-finite at iteration 183). The hash covers the bytes of x,
x_bar, y and r_bar (pdcp keeps no r_bar), in that order. Run it from any directory:

    python3 scripts/state_hash.py --seed 0
    python3 scripts/state_hash.py --workload lasso-k100 --passes 1
    python3 scripts/state_hash.py --workload rpca-k3-w2 --K 1 --passes 1

The hashes depend on the BLAS build and the CPU, so compare them only
between two checkouts run on one machine.
"""

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402


def state_hash(state) -> str:
    digest = hashlib.sha256()
    for name in ("x", "x_bar", "y", "r_bar"):
        if hasattr(state, name):
            digest.update(np.ascontiguousarray(getattr(state, name), dtype="<f8").tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(W.WORKLOADS),
                        help="a workload to hash (repeatable); default all four")
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed; permutes the rows of the problem data")
    parser.add_argument("--passes", type=int,
                        help="passes to run; default: until the workload's target")
    parser.add_argument("--K", type=int,
                        help="blocks per iteration of the spbcd workloads; default their own")
    args = parser.parse_args(argv)
    if args.passes is not None and args.passes < 1:
        parser.error("--passes must be >= 1")
    if args.K is not None and args.K < 1:
        parser.error("--K must be >= 1")

    failed = False
    for name in args.workload or list(W.WORKLOADS):
        w = W.WORKLOADS[name]
        if args.K is not None and w.solver == "spbcd":
            w = dataclasses.replace(w, K=args.K, sigma_scale_k_over_j=False)
        s = W.setup(w, args.seed, W.reference(w))
        rec = W.solve(w, s, passes=args.passes, stop_at_target=args.passes is None)
        if rec.error is not None or rec.state is None:
            print(f"{name}: FAILED {rec.error or 'no pass completed'}")
            failed = True
            continue
        passes = rec.passes_to_target or len(rec.objective)
        print(f"{name} seed={args.seed} passes={passes} sha256={state_hash(rec.state)}",
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
