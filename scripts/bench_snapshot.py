#!/usr/bin/env python3
"""Run the unchanged benchmark (``perfbench/run.py --trace 0``) on all four
workloads of this checkout and write ``BENCH_<label>.json`` at its root.

The file keeps, per workload, the last-line JSON of the run (``correct``,
``attempted``, ``failed``, ``metrics``), its summary line (solve counts and
the host-phase note) and its environment line, with the seed, ``--seconds``
and the host they were taken on. Run it from any directory:

    python3 scripts/bench_snapshot.py <label> --seed 71
"""

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lasso-k100", "group-lasso-k1", "rpca-k3-w2", "lasso-pdcp")
SECONDS = 26


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    runs = {}
    for w in WORKLOADS:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(args.seed),
             "--seconds", str(SECONDS), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
        summary, environment, result = out[-3:]
        runs[w] = {"result": json.loads(result), "summary": summary,
                   "environment": json.loads(environment.removeprefix("environment "))}
        print(f"{w}: {summary}", flush=True)

    snapshot = {"label": args.label, "seed": args.seed, "seconds": SECONDS,
                "command": f"perfbench/run.py --workload <w> --seed {args.seed} "
                           f"--seconds {SECONDS} --trace 0",
                "host": {"platform": platform.platform(), "cpu": cpu_model()},
                "runs": runs}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
