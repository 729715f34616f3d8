"""Layered time-to-accuracy benchmark of sepsaddle's block engine.

    python3 perfbench/run.py --workload lasso-k100 --seed 1 --seconds 26 --trace 0

Run from the root of a checkout; the program is imported from ``src/``. One
run sets up the workload, pays process-level one-off costs in an untimed
warm-up pass, then repeats "user runs" (a fresh set-up and a solve to the
target) until ``--seconds`` are spent. Every solve passes the correctness
gates in ``workloads.check_gates`` or its timings are discarded. Passes run
in the host's slow phase are scaled to its fast phase (see ``Phases``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes untraced
solves for half the time, then one traced set-up and solve, and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and their order come from ``BENCHMARK.json``. A detailed result with
the environment, per-solve values and the traced split is written to
``--out`` (default ``.perfbench_out``), together with the spans of a traced
run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "sepsaddle" / "__init__.py").is_file():
    sys.exit(f"perfbench: {SRC / 'sepsaddle'} not found; run from a checkout of the program")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as W  # noqa: E402

MIN_SETUPS = 3
MIN_SETUP_S = 1.0  # cheap set-ups repeat until they have taken this long
WARM_UP_S = 2.0
FLOOR_REPS = 25
FAST_FACTOR = 1.25  # a probe within this factor of PROBE_FAST_MS is in the fast phase
# Set-up's sensitivity to the slow phase (see Phases); fitted per workload it
# is 0.1 (lasso-pdcp) to 0.45 (rpca-k3-w2), so one value errs by up to ~11%.
SETUP_PHASE_ALPHA = 0.3
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sepsaddle").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas() -> tuple[str, int | None]:
    """BLAS name/version from numpy's build config, and OpenBLAS's thread
    count (read, never set)."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, None


def environment() -> dict:
    blas, threads = _blas()
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Run:
    """Set-ups and solves of one benchmark run."""

    def __init__(self, w: W.Workload, seed: int):
        self.w = w
        self.seed = seed
        self.reference = W.reference(w)
        self.setups = []  # (seconds, probe ms before, probe ms after)
        self.solves = []
        self.prefix = None

    def setup(self) -> W.Setup:
        """A measured set-up, between two host probes; its time counts
        toward ``setup_s``."""
        before = W.host_probe_ms()
        s = W.setup(self.w, self.seed, self.reference)
        self.setups.append((s.seconds, before, W.host_probe_ms()))
        return s

    def warm_up(self):
        """One uncounted set-up and WARM_UP_S of untimed single-pass solves.

        Process-level one-off costs are paid here: imports, BLAS threads, and
        on small virtual machines a slow first second after large
        allocations (dense products run up to 8x slower). A multi-worker
        workload also makes its workers=1 comparison run here.
        """
        start = time.perf_counter()
        s = W.setup(self.w, self.seed, self.reference)
        while time.perf_counter() - start < WARM_UP_S:
            W.solve(self.w, s, passes=1, stop_at_target=False)
        self.prefix = W.worker_prefix(self.w, s)

    def measure(self, seconds: float):
        """User runs (fresh set-up + solve to target) until ``seconds`` are
        spent; a run starts only if the previous one's duration still fits.
        At least one runs."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            s = self.setup()
            rec = W.solve(self.w, s)
            W.check_gates(self.w, s, rec, self.prefix)
            rec.state = None
            self.solves.append(rec)
            del s
            took = time.perf_counter() - t0
            if time.perf_counter() - start + took > seconds:
                break
        while (len(self.setups) < MIN_SETUPS
               or sum(t for t, _, _ in self.setups) < MIN_SETUP_S):
            self.setup()

    @property
    def ok(self) -> list:
        return [r for r in self.solves if r.ok]


class Phases:
    """Places every pass and set-up in the host's fast or slow phase.

    A shared host alternates between a fast phase and a slow one, lasting
    from under a second to tens of seconds. A pass is fast when the probes on
    both sides of it read at most FAST_FACTOR times ``PROBE_FAST_MS``, and is
    then counted as measured. A slow pass is scaled to the fast phase by
    (``PROBE_FAST_MS`` / mean of its two probes) ** ``phase_alpha``. The
    exponent is the workload's own sensitivity to the phase: the probe slows
    1.7-1.8x, the solvers 1.1-1.6x. A run that stays in the fast phase thus
    reports exactly what it measured.
    """

    limit = FAST_FACTOR * W.PROBE_FAST_MS

    def __init__(self, w: W.Workload, setups: list):
        self.alpha = w.phase_alpha
        self.setups = setups

    def fast(self, rec: W.Solve) -> list:
        """Per pass up to the target (or over every pass): in the fast phase?"""
        n = rec.passes_to_target or len(rec.solver_s)
        p = rec.probe_ms
        return [p[i] <= self.limit and p[i + 1] <= self.limit for i in range(n)]

    def adjusted(self, rec: W.Solve, attr: str = "pass_ms") -> list:
        """Per-pass ``pass_ms`` or ``wall_ms`` up to the target, slow passes
        scaled to the fast phase."""
        p = rec.probe_ms
        return [v if fast else
                v * min(1.0, 2.0 * W.PROBE_FAST_MS / (p[i] + p[i + 1])) ** self.alpha
                for i, (v, fast) in enumerate(zip(getattr(rec, attr), self.fast(rec)))]

    def mean_ms(self, solves: list) -> float:
        """Mean adjusted solver ms per pass."""
        return statistics.fmean(ms for r in solves for ms in self.adjusted(r))

    def setup_s(self) -> float:
        """Median set-up seconds, slow set-ups scaled like slow passes but
        with SETUP_PHASE_ALPHA."""
        return statistics.median(
            t if max(a, b) <= self.limit else
            t * min(1.0, 2.0 * W.PROBE_FAST_MS / (a + b)) ** SETUP_PHASE_ALPHA
            for t, a, b in self.setups)


def tail(samples) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], f"max of {n} passes (fewer than {TAIL_BEYOND + 1})"
    return xs[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n} passes"


def end_to_end(run: Run, ph: Phases) -> tuple[dict, dict]:
    ok = run.ok
    tail_ms, tail_note = tail(ms for r in ok for ms in ph.adjusted(r))
    metrics = {
        "solve_s": (statistics.median(sum(ph.adjusted(r)) / 1000.0 for r in ok), "s"),
        "wall_s": (statistics.median(sum(ph.adjusted(r, "wall_ms")) / 1000.0 for r in ok), "s"),
        "pass_ms": (ph.mean_ms(ok), "ms"),
        "pass_ms_tail": (tail_ms, "ms"),
        "passes_to_target": (statistics.median(r.passes_to_target for r in ok), "count"),
        "setup_s": (ph.setup_s(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"pass_ms_tail": tail_note,
             "passes_to_target": "comparable only between versions that draw the same "
                                 "random stream; 15-35% moves across sampling seeds",
             "setup_s": f"median of {len(run.setups)} set-ups",
             "solves": f"median of {len(ok)} passing solves",
             "measured_solve_s": statistics.median(r.solve_s for r in ok),
             "measured_wall_s": statistics.median(r.wall_s for r in ok),
             "measured_pass_ms": statistics.fmean(
                 ms for r in ok for ms in r.pass_ms[:r.passes_to_target]),
             "measured_setup_s": statistics.median(t for t, _, _ in run.setups)}
    return metrics, notes


def floor_ms(instance, rng_seed: int) -> float:
    """Median time of the two full products a dense pass cannot avoid:
    A x and A^T y (ROADMAP aim 1), over FLOOR_REPS repetitions."""
    c = instance.coupling
    rng = np.random.default_rng(rng_seed)
    x = rng.standard_normal(instance.n)
    y = rng.standard_normal(instance.m)
    times = []
    for _ in range(FLOOR_REPS):
        t0 = time.perf_counter()
        c.matvec(x)
        c.rmatvec(y)
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def per_layer(run: Run, ph: Phases, out_dir: Path) -> tuple[dict, dict]:
    """One traced set-up and solve; per-pass counts and self times per
    wrapped function, plus the derived layer metrics."""
    w = run.w
    untraced_ms = ph.mean_ms(run.ok)

    tracer = tr.Tracer()
    with tracer:
        setup_start = time.perf_counter()
        s = W.setup(w, run.seed, run.reference, span=tracer.span)
        setup_end = time.perf_counter()
        rec = W.solve(w, s, passes=w.trace_passes, stop_at_target=False)
        solve_end = time.perf_counter()
    W.check_gates(w, s, rec, need_target=False)
    run.solves.append(rec)
    if not rec.ok:
        return {}, {}

    floor = floor_ms(s.instance, run.seed)
    passes = len(rec.solver_s)
    # run() builds its own initial state before the first pass; that is
    # set-up work, reported by the set-up window
    window = tracer.summary(setup_end, solve_end, exclude="spbcd.initial_state")
    setup = tracer.summary(setup_start, setup_end)
    spans_path = out_dir / f"{w.name}-seed{run.seed}.spans.csv.gz"
    span_rows = tracer.write(spans_path)

    def row(summary, name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "bytes": 0})

    metrics = {}
    for name in tr.PASS_NAMES:
        r = row(window, name)
        metrics[f"{name}.calls"] = (r["calls"] / passes, "1/pass")
        metrics[f"{name}.self_ms"] = (1000.0 * r["self_s"] / passes, "ms/pass")
    metrics["spbcd.pool.busy_ms"] = (1000.0 * row(window, tr.POOL_TASK)["incl_s"] / passes,
                                     "ms/pass")
    metrics["spbcd.pool.wait_ms"] = (1000.0 * window["spbcd.pool.wait"]["incl_s"] / passes,
                                     "ms/pass")
    for name in tr.SETUP_NAMES:
        metrics[f"{name}.ms"] = (1000.0 * row(setup, name)["incl_s"], "ms")
    coupling = [row(window, n) for n in tr.PASS_NAMES if n.startswith("coupling.")]
    nbytes = sum(r["bytes"] for r in coupling)
    busy = sum(r["self_s"] for r in coupling)
    metrics["coupling.bytes_computed"] = (nbytes / passes, "B/pass")
    metrics["coupling.gbps_computed"] = (nbytes / busy / 1e9 if busy > 0 else 0.0, "GB/s")
    metrics["spbcd.floor_ms"] = (floor, "ms")
    metrics["spbcd.floor_ratio"] = (untraced_ms / floor, "ratio")
    traced_ms = ph.mean_ms([rec])
    metrics["tracing.pass_ms"] = (traced_ms, "ms/pass")
    metrics["tracing.overhead_ms"] = (traced_ms - untraced_ms, "ms/pass")

    notes = {
        "traced_passes": passes,
        "untraced_pass_ms": untraced_ms,
        "absent_hooks": tracer.absent,
        "spans": {"file": spans_path.name, "rows": span_rows},
        "inclusive_ms_per_pass": {n: 1000.0 * r["incl_s"] / passes
                                  for n, r in window.items() if r["calls"]},
        "bytes_note": "computed from operand shapes, 8 bytes per float64",
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="benchmark seed; permutes the rows of the problem data")
    p.add_argument("--seconds", type=float, default=26.0,
                   help="time spent on measured solves")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=ROOT / ".perfbench_out")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    w = W.WORKLOADS[args.workload]
    names = declared_metrics(bool(args.trace))
    args.out.mkdir(parents=True, exist_ok=True)

    run = Run(w, args.seed)
    run.warm_up()
    run.measure(args.seconds / 2 if args.trace else args.seconds)
    metrics, notes = {}, {}
    if run.ok:
        ph = Phases(w, run.setups)
        metrics, notes = per_layer(run, ph, args.out) if args.trace else end_to_end(run, ph)
        fast = [f for r in run.ok for f in ph.fast(r)]
        notes["phase"] = (f"{sum(fast)} of {len(fast)} passes in the fast phase (probes <= "
                          f"{ph.limit:.2f} ms); slow ones scaled by (probe ms / "
                          f"{W.PROBE_FAST_MS}) ** -{ph.alpha}")
    failed = [r for r in run.solves if not r.ok]

    detail = {
        "workload": w.name, "seed": args.seed, "data_seed": w.data_seed,
        "reference": run.reference, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "setups": [{"s": t, "probe_ms": [a, b]} for t, a, b in run.setups],
        "solver_seed": w.solver_seed,
        "solves": [{"passes_to_target": r.passes_to_target,
                    "pass_ms": [round(ms, 4) for ms in r.pass_ms],
                    "probe_ms": [round(ms, 4) for ms in r.probe_ms],
                    "solve_s": r.solve_s if r.ok and r.passes_to_target else None,
                    "error": r.error, "gate_failures": r.gate_failures}
                   for r in run.solves],
    }
    (args.out / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))

    for r in failed:
        print(f"FAILED solve: {r.error or '; '.join(r.gate_failures)}")
    print(f"{w.name} seed={args.seed} trace={args.trace}: {len(run.solves)} solves, "
          f"{len(failed)} failed; " + "; ".join(f"{k}: {v}" for k, v in notes.items()
                                                 if isinstance(v, (str, int, float))))
    print("environment " + json.dumps(detail["environment"]))
    missing = [n for n in names if n not in metrics]
    if metrics and missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    print(json.dumps({
        "correct": not failed and bool(metrics),
        "attempted": len(run.solves),
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
