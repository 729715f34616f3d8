"""Span tracer that wraps sepsaddle's public functions from outside.

The program is not edited. While a ``Tracer`` is installed, the module and
class attributes named in ``HOOKS`` are replaced by timing wrappers; they are
put back when it is removed. Each thread keeps its own span stack, so a block
task running on a pool thread is charged to that thread, with the span that
submitted it as its parent. Spans stay in memory and are written out at the
end.

A hook whose target no longer exists (a later change removed or renamed it)
is reported as absent and its metrics read zero; it is never an error.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (metric name, module, attribute path). Several hook points may feed one name.
HOOKS = (
    ("spbcd.iterate", "sepsaddle.spbcd", "iterate"),
    ("spbcd.primal_block_step", "sepsaddle.spbcd", "primal_block_step"),
    ("spbcd.extrapolate", "sepsaddle.spbcd", "extrapolate"),
    ("spbcd.compute_sigma_t", "sepsaddle.spbcd", "compute_sigma_t"),
    ("spbcd.validate", "sepsaddle.spbcd", "SolverState.validate"),
    ("spbcd.sample_blocks", "sepsaddle.spbcd", "sample_blocks"),
    ("spbcd.dual_step", "sepsaddle.spbcd", "dual_step"),
    ("spbcd.rbar_drift", "sepsaddle.spbcd", "rbar_drift"),
    ("coupling.block_rmatvec", "sepsaddle.matrices", "DenseCoupling.block_rmatvec"),
    ("coupling.block_rmatvec", "sepsaddle.problems", "IdentityStackCoupling.block_rmatvec"),
    ("coupling.block_matvec", "sepsaddle.matrices", "DenseCoupling.block_matvec"),
    ("coupling.block_matvec", "sepsaddle.problems", "IdentityStackCoupling.block_matvec"),
    ("coupling.row_abs_sums", "sepsaddle.matrices", "DenseCoupling.row_abs_sums"),
    ("coupling.row_abs_sums", "sepsaddle.problems", "IdentityStackCoupling.row_abs_sums"),
    ("coupling.matvec", "sepsaddle.matrices", "DenseCoupling.matvec"),
    ("coupling.matvec", "sepsaddle.problems", "IdentityStackCoupling.matvec"),
    ("coupling.rmatvec", "sepsaddle.matrices", "DenseCoupling.rmatvec"),
    ("coupling.rmatvec", "sepsaddle.problems", "IdentityStackCoupling.rmatvec"),
    ("prox.l1", "sepsaddle.functions", "prox_l1"),
    ("prox.group_l2", "sepsaddle.functions", "prox_group_l2"),
    ("prox.nuclear", "sepsaddle.functions", "prox_nuclear"),
    ("prox.quadratic", "sepsaddle.functions", "prox_quadratic_frobenius"),
    ("prox.resolvent_quadratic", "sepsaddle.functions", "dual_resolvent_quadratic"),
    ("prox.resolvent_box_linear", "sepsaddle.functions", "dual_resolvent_box_linear"),
    ("prox.resolvent_linear", "sepsaddle.functions", "dual_resolvent_linear"),
    ("problems.objective", "sepsaddle.problems", "SepCCSPInstance.objective"),
    ("problems.residual", "sepsaddle.problems", "SepCCSPInstance.residual"),
    ("baselines.pdcp_iterate", "sepsaddle.baselines", "pdcp_iterate"),
    # set-up phase
    ("spbcd.initial_state", "sepsaddle.spbcd", "initial_state"),
    ("spbcd.StepsizeConfig", "sepsaddle.spbcd", "StepsizeConfig.for_instance"),
    ("baselines.PdcpConfig.recommended", "sepsaddle.baselines", "PdcpConfig.recommended"),
    ("coupling.spectral_norm_estimate", "sepsaddle.matrices", "spectral_norm_estimate"),
    ("coupling.spectral_norm_estimate", "sepsaddle.problems", "spectral_norm_estimate"),
)

SETUP_NAMES = ("problems.build", "spbcd.initial_state", "spbcd.StepsizeConfig",
               "baselines.PdcpConfig.recommended", "coupling.spectral_norm_estimate")
PASS_NAMES = tuple(dict.fromkeys(n for n, _, _ in HOOKS if n not in SETUP_NAMES))
POOL_HOOK = ("sepsaddle.spbcd", "ThreadPoolExecutor")
POOL_TASK = "spbcd.pool.task"

_PRODUCTS = ("block_rmatvec", "block_matvec", "matvec", "rmatvec")


def _coupling_bytes(attr):
    """Bytes a coupling call moves, computed from shapes: operand vector,
    result, and the matrix entries read (none for the implicit identity
    stack). For a product the matrix part is len(result) x len(operand)."""
    def count(args, result):
        coupling = args[0]
        dense = hasattr(coupling, "matrix")
        out = result.size
        if attr == "row_abs_sums":
            k = len(set(args[1]))
            return 8 * (out + (k * coupling.m if dense else 0))
        inp = np.size(args[-1])
        return 8 * (inp + out + (inp * out if dense else 0))
    return count


class _ThreadSpans(threading.local):
    """Each thread's span stack (its root is span 0) and finished spans."""

    def __init__(self, registry, lock):
        self.stack = [0]
        self.spans = []
        with lock:
            registry.append((threading.current_thread().name, self.spans))


class Tracer:
    def __init__(self):
        self._threads = []  # (thread name, span list) per thread
        self._local = _ThreadSpans(self._threads, threading.Lock())
        self._ids = itertools.count(1)
        self._waits = []  # (submitted, started) of pool tasks
        self._saved = []
        self.names = []
        self.absent = []
        self.origin = perf_counter()

    # -- recording ---------------------------------------------------------

    def _index(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name, nbytes=None):
        idx = self._index(name)
        ids = self._ids
        local = self._local

        # the same bookkeeping as span(), inlined rather than built on a
        # generator context: this runs ~25,000 times a pass on lasso-k100
        def wrapper(*args, **kwargs):
            stack = local.stack
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                local.spans.append((sid, parent, idx, t0, t1,
                                    nbytes(args, result) if nbytes and result is not None else 0))

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name):
        """A span around benchmark code, such as the problem build."""
        idx = self._index(name)
        stack = self._local.stack
        sid = next(self._ids)
        parent = stack[-1]
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            self._local.spans.append((sid, parent, idx, t0, t1, 0))

    # -- installing hooks ----------------------------------------------------

    def _replace(self, owner, attr, new):
        static = inspect.getattr_static(owner, attr)
        self._saved.append((owner, attr, static, attr in vars(owner)))
        setattr(owner, attr, new)

    def install(self):
        present = set()
        for name, module_name, path in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                static = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                continue
            nbytes = None
            if name.startswith("coupling.") and attr in _PRODUCTS + ("row_abs_sums",):
                nbytes = _coupling_bytes(attr)
            if isinstance(static, (classmethod, staticmethod)):
                new = type(static)(self._wrap(static.__func__, name, nbytes))
            elif callable(static):
                new = self._wrap(static, name, nbytes)
            else:
                continue
            self._replace(owner, attr, new)
            present.add(name)
        self.absent = sorted({n for n, _, _ in HOOKS} - present)
        try:
            module = importlib.import_module(POOL_HOOK[0])
            base = getattr(module, POOL_HOOK[1])
        except (ImportError, AttributeError):
            self.absent.append("spbcd.pool")
        else:
            self._replace(module, POOL_HOOK[1], self._pool_class(base))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, static, owned = self._saved.pop()
            if owned:
                setattr(owner, attr, static)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _pool_class(self, base):
        if not (isinstance(base, type) and issubclass(base, ThreadPoolExecutor)):
            return base
        tracer = self
        run_task = self._wrap(lambda fn, *a, **k: fn(*a, **k), POOL_TASK)

        class TracedPool(base):
            """Charges each task to its worker thread, parented to the
            span that submitted it, and records its queueing delay."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._local.stack[-1]
                submitted = perf_counter()

                def task(*a, **k):
                    stack = tracer._local.stack
                    tracer._waits.append((submitted, perf_counter()))
                    stack.append(parent)
                    try:
                        return run_task(fn, *a, **k)
                    finally:
                        stack.pop()

                return super().submit(task, *args, **kwargs)

        return TracedPool

    # -- analysis ------------------------------------------------------------

    def spans(self):
        return [s for _, spans in self._threads for s in spans]

    def summary(self, start: float, end: float, exclude: str | None = None) -> dict:
        """Per-name calls, self seconds, inclusive seconds and computed bytes
        over the spans that lie inside [start, end], leaving out every span
        named ``exclude`` and its descendants.

        Self time is a span's duration minus the part of it that its child
        spans cover; children on other threads may overlap, so the covered
        part is the union of their intervals.
        """
        spans = sorted(s for s in self.spans() if s[3] >= start and s[4] <= end)
        if exclude in self.names:
            skip = self.names.index(exclude)
            dropped = set()
            for sid, parent, idx, *_ in spans:  # a parent's id precedes its children's
                if idx == skip or parent in dropped:
                    dropped.add(sid)
            spans = [s for s in spans if s[0] not in dropped]
        children = defaultdict(list)
        for sid, parent, _, t0, t1, _ in spans:
            children[parent].append((t0, t1))
        out = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "bytes": 0}
               for name in self.names}
        for sid, _, idx, t0, t1, nbytes in spans:
            covered = 0.0
            lo = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, lo), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    lo = c1
            row = out[self.names[idx]]
            row["calls"] += 1
            row["incl_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - covered
            row["bytes"] += nbytes
        waits = [(s, b) for s, b in self._waits if start <= b <= end]
        out["spbcd.pool.wait"] = {"calls": len(waits),
                                  "incl_s": sum(b - s for s, b in waits)}
        return out

    def write(self, path) -> int:
        """Write every span as CSV (gzip): thread, id, parent, name, start and
        end in microseconds from the tracer's creation, computed bytes."""
        rows = 0
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("thread,id,parent,name,start_us,end_us,bytes\n")
            for thread, spans in self._threads:
                for sid, parent, idx, t0, t1, nbytes in spans:
                    fh.write(f"{thread},{sid},{parent},{self.names[idx]},"
                             f"{(t0 - self.origin) * 1e6:.1f},{(t1 - self.origin) * 1e6:.1f},"
                             f"{nbytes}\n")
                    rows += 1
        return rows
