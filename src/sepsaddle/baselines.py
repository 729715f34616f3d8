"""Reference solvers: the scalar-stepsize primal-dual method, its diagonally
preconditioned variant, and ISTA/FISTA for lasso.

The preconditioned path is deliberately a separate implementation from the
block engine (full-matrix products, no sampling, no running-sum cache): with
all blocks selected every iteration the two must produce identical iterates,
which makes this module the engine's equivalence oracle.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError
from .matrices import spectral_norm_estimate
from .prox import prox_l1


@dataclass
class PdcpConfig:
    """Scalar penalties for the batch primal-dual method; needs
    sigma * h >= ||A||^2 (checked against the instance at run time)."""

    h: float
    sigma: float
    theta: float = 1.0

    def __post_init__(self):
        if self.h <= 0 or self.sigma <= 0:
            raise ConfigError("h and sigma must be positive")

    @classmethod
    def recommended(cls, instance) -> "PdcpConfig":
        nrm = instance.coupling.spectral_norm
        if nrm <= 0:
            raise ConfigError("coupling has zero norm; no recommended penalties")
        return cls(h=nrm, sigma=nrm, theta=1.0)


@dataclass
class PdcpState:
    x: np.ndarray
    x_bar: np.ndarray
    y: np.ndarray
    t: int = 0


def pdcp_initial_state(instance, x0=None, y0=None) -> PdcpState:
    x = np.zeros(instance.n) if x0 is None else np.array(x0, dtype=float)
    y = np.zeros(instance.m) if y0 is None else np.array(y0, dtype=float)
    return PdcpState(x=x, x_bar=x.copy(), y=y)


def pdcp_iterate(instance, state: PdcpState, config: PdcpConfig) -> PdcpState:
    """One batch step, dual first: resolvent at A x_bar^t, then the primal
    prox at A^T y^{t+1}, then extrapolation."""
    u = instance.coupling.matvec(state.x_bar)
    y_new = instance.dual_fn.resolvent(state.y, u, config.sigma)
    grad = instance.coupling.rmatvec(y_new)
    x_new = np.empty(instance.n)
    for j, fn in enumerate(instance.block_fns):
        sl = instance.block_slice(j)
        x_new[sl] = fn.prox(state.x[sl] - grad[sl] / config.h, config.h)
    state.x_bar = x_new + config.theta * (x_new - state.x)
    state.x = x_new
    state.y = y_new
    state.t += 1
    return state


def pdcp_run(instance, config: PdcpConfig, passes: int, metric_callback=None,
             x0=None, y0=None):
    """Batch method: one iteration is one pass. Returns (state, trace)."""
    if passes < 1:
        raise ValueError("passes must be >= 1")
    nrm = instance.coupling.spectral_norm
    if config.sigma * config.h < nrm ** 2 * (1.0 - 1e-9):
        warnings.warn(
            f"sigma*h = {config.sigma * config.h:.4g} < ||A||^2 = {nrm ** 2:.4g}; "
            "convergence is not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )
    state = pdcp_initial_state(instance, x0, y0)
    trace = []
    elapsed = 0.0
    for pass_index in range(1, passes + 1):
        tic = time.perf_counter()
        pdcp_iterate(instance, state, config)
        elapsed += time.perf_counter() - tic
        if metric_callback is not None:
            trace.append(metric_callback(pass_index, state, elapsed))
    return state, trace


def preconditioned_penalties(instance, floor_eps: float = 1e-10):
    """Per-coordinate h_d = column abs sums (block-uniformized where the prox
    needs it) and per-row sigma_k = full row abs sums, taken the way the
    block engine's adaptive-l1 rule takes them at K = J."""
    h = np.maximum(np.array(instance.coupling.col_abs_sums, dtype=float), floor_eps)
    for j, fn in enumerate(instance.block_fns):
        if not getattr(fn, "separable", True):
            sl = instance.block_slice(j)
            h[sl] = h[sl].max()
    sigma = np.maximum(
        instance.coupling.row_abs_sums(range(instance.num_blocks)), floor_eps
    )
    return h, sigma


def preconditioned_pdcp_iterate(instance, state: PdcpState, penalties=None) -> PdcpState:
    """One diagonally preconditioned step, primal first with theta = 1.

    Updates every block's prox at A^T y^t, extrapolates, then takes the dual
    resolvent at A x_bar^{t+1}; from a shared start this reproduces the block
    engine with K = J exactly.
    """
    h, sigma = preconditioned_penalties(instance) if penalties is None else penalties
    grad = instance.coupling.rmatvec(state.y)
    x_new = np.empty(instance.n)
    for j, fn in enumerate(instance.block_fns):
        sl = instance.block_slice(j)
        x_new[sl] = fn.prox(state.x[sl] - grad[sl] / h[sl], h[sl])
    x_bar = 2.0 * x_new - state.x
    u = instance.coupling.matvec(x_bar)
    state.y = instance.dual_fn.resolvent(state.y, u, sigma)
    state.x = x_new
    state.x_bar = x_bar
    state.t += 1
    return state


def preconditioned_pdcp_run(instance, passes: int, metric_callback=None,
                            x0=None, y0=None):
    if passes < 1:
        raise ValueError("passes must be >= 1")
    state = pdcp_initial_state(instance, x0, y0)
    penalties = preconditioned_penalties(instance)
    trace = []
    elapsed = 0.0
    for pass_index in range(1, passes + 1):
        tic = time.perf_counter()
        preconditioned_pdcp_iterate(instance, state, penalties)
        elapsed += time.perf_counter() - tic
        if metric_callback is not None:
            trace.append(metric_callback(pass_index, state, elapsed))
    return state, trace


# ---------------------------------------------------------------------------
# ISTA / FISTA for lasso
# ---------------------------------------------------------------------------

def lipschitz_upper(A, tol: float = 1e-6) -> float:
    """||A||^2 estimated by power iteration, times a 1.01 safety factor."""
    return spectral_norm_estimate(A, tol=tol, max_iters=5000).value ** 2 * 1.01


def _dense(A) -> np.ndarray:
    return A.values if hasattr(A, "values") else np.asarray(A, dtype=float)


def ista_step(A, b, lam: float, L: float, x) -> np.ndarray:
    """x' = soft-threshold(x - (1/L) A^T(Ax - b), lam/L)."""
    M = _dense(A)
    return prox_l1(x - M.T @ (M @ x - b) / L, lam / L)


def ista_run(A, b, lam: float, passes: int, L: float | None = None,
             metric_callback=None, x0=None):
    M = _dense(A)
    if L is None:
        L = lipschitz_upper(M)
    x = np.zeros(M.shape[1]) if x0 is None else np.array(x0, dtype=float)
    trace = []
    elapsed = 0.0
    for pass_index in range(1, passes + 1):
        tic = time.perf_counter()
        x = ista_step(M, b, lam, L, x)
        elapsed += time.perf_counter() - tic
        if metric_callback is not None:
            trace.append(metric_callback(pass_index, x, elapsed))
    return x, trace


def fista_reference(A, b, lam: float, tol: float = 1e-10, window: int = 50,
                    max_passes: int = 200_000):
    """Accelerated shrinkage until the lasso objective changes by less than
    ``tol`` (relative) over ``window`` passes. Returns (x, objective)."""
    M = _dense(A)
    L = lipschitz_upper(M)
    x = np.zeros(M.shape[1])
    momentum = x.copy()
    t_k = 1.0

    def objective(z):
        r = M @ z - b
        return 0.5 * float(r @ r) + lam * float(np.abs(z).sum())

    prev = objective(x)
    passes = 0
    while passes < max_passes:
        for _ in range(window):
            x_new = ista_step(M, b, lam, L, momentum)
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
            momentum = x_new + ((t_k - 1.0) / t_next) * (x_new - x)
            x, t_k = x_new, t_next
            passes += 1
        cur = objective(x)
        if abs(prev - cur) <= tol * max(1.0, abs(cur)):
            return x, cur
        prev = cur
    raise ConvergenceError(
        f"lasso reference did not settle within {max_passes} passes "
        f"(last objective {prev:.9e})"
    )


def preconditioned_reference(instance, tol: float = 1e-10, window: int = 50,
                             max_passes: int = 200_000):
    """Diagonally preconditioned run until the instance objective changes by
    less than ``tol`` (relative) over ``window`` passes. Returns (x, y)."""
    state = pdcp_initial_state(instance)
    penalties = preconditioned_penalties(instance)
    prev = instance.objective(state.x)
    passes = 0
    while passes < max_passes:
        for _ in range(window):
            preconditioned_pdcp_iterate(instance, state, penalties)
            passes += 1
        cur = instance.objective(state.x)
        if abs(prev - cur) <= tol * max(1.0, abs(cur)):
            return state.x, state.y
        prev = cur
    raise ConvergenceError(
        f"preconditioned reference did not settle within {max_passes} passes "
        f"(last objective {prev:.9e})"
    )


def fista_run(A, b, lam: float, L: float | None = None, passes: int = 100,
              metric_callback=None, x0=None):
    """Momentum sequence t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2 over ista_step;
    passes=0 returns the initializer."""
    M = _dense(A)
    if passes < 0:
        raise ValueError("passes must be >= 0")
    if L is None:
        L = lipschitz_upper(M)
    x = np.zeros(M.shape[1]) if x0 is None else np.array(x0, dtype=float)
    momentum = x.copy()
    t_k = 1.0
    trace = []
    elapsed = 0.0
    for pass_index in range(1, passes + 1):
        tic = time.perf_counter()
        x_new = ista_step(M, b, lam, L, momentum)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
        momentum = x_new + ((t_k - 1.0) / t_next) * (x_new - x)
        x, t_k = x_new, t_next
        elapsed += time.perf_counter() - tic
        if metric_callback is not None:
            trace.append(metric_callback(pass_index, x, elapsed))
    return x, trace
