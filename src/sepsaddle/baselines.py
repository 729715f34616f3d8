"""Reference solvers: the scalar-stepsize primal-dual method, its diagonally
preconditioned variant, and ISTA/FISTA for lasso.

Every run is its step inside ``spbcd.timed_passes``, the engine's own timed
pass loop, so all solvers time, trace and abort alike. pdcp takes its primal
prox over all blocks in one ``instance.block_prox`` call, under a metric,
block set and prox plan built once per run (``PdcpConstants``). ISTA and
FISTA take A in the layout it comes in, without a copy: the lasso coupling's
column-major store. The two references
(``fista_reference``, ``preconditioned_reference``) are the FISTA steps and
the block engine's passes at K = J under one stopping rule, ``_settle``.

The preconditioned steps (``preconditioned_pdcp_iterate``, the
``preconditioned-pdcp`` solver) are deliberately a separate implementation
from the block engine (full products, no sampling, no running-sum cache, one
prox call per block): with all blocks selected every iteration the two must
produce the same iterates to 1e-12, which makes them the engine's equivalence
oracle. The reference steps the engine instead, with its batched prox and
column-set products, since it only needs the optimum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ConvergenceError
from .matrices import _values, spectral_norm_estimate
from .prox import prox_l1
from .spbcd import (FLOOR_EPS, StepsizeConfig, initial_state, lift_nonseparable, pass_step,
                    start_vectors, timed_passes)


@dataclass
class PdcpConfig:
    """Scalar penalties for the batch primal-dual method; needs
    sigma * h >= ||A||^2 (checked against the instance at run time)."""

    h: float
    sigma: float

    def __post_init__(self):
        # NaN passes a ``<= 0`` test, and would silence the sigma * h check
        for name in ("h", "sigma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")

    @classmethod
    def recommended(cls, instance) -> "PdcpConfig":
        nrm = instance.coupling.spectral_norm
        if nrm <= 0:
            raise ConfigError("coupling has zero norm; no recommended penalties")
        return cls(h=nrm, sigma=nrm)


@dataclass
class PdcpState:
    x: np.ndarray
    x_bar: np.ndarray
    y: np.ndarray
    t: int = 0


def pdcp_initial_state(instance, x0=None, y0=None) -> PdcpState:
    x, y = start_vectors(instance, x0, y0)
    return PdcpState(x=x, x_bar=x.copy(), y=y)


class PdcpConstants(NamedTuple):
    """What every pdcp pass would rebuild from its config: the metric
    h 1_n, the set of all blocks and the prox plan of that set under it."""

    h: np.ndarray
    blocks: np.ndarray
    prox_plan: object

    @classmethod
    def for_run(cls, instance, config: PdcpConfig) -> "PdcpConstants":
        h = np.full(instance.n, config.h)
        h.setflags(write=False)
        blocks = np.arange(instance.num_blocks)
        return cls(h, blocks, instance.block_prox.plan(h, blocks))


def pdcp_iterate(instance, state: PdcpState, config: PdcpConfig,
                 constants: PdcpConstants | None = None) -> PdcpState:
    """One batch step, dual first: resolvent at A x_bar^t, then the primal
    prox of every block at A^T y^{t+1} in one ``block_prox`` call, then
    extrapolation with theta = 1. ``constants`` are the run's
    ``PdcpConstants`` (``pdcp_run`` builds them once); without them the step
    builds its own."""
    if constants is None:
        constants = PdcpConstants.for_run(instance, config)
    u = instance.coupling.matvec(state.x_bar)
    y_new = instance.dual_fn.resolvent(state.y, u, config.sigma)
    grad = instance.coupling.rmatvec(y_new)
    x_new = instance.block_prox(state.x - grad / config.h, constants.h, constants.blocks,
                                constants.prox_plan)
    state.x_bar = x_new + (x_new - state.x)
    state.x = x_new
    state.y = y_new
    state.t += 1
    return state


def _check_passes(passes, least: int = 1) -> None:
    """Refuse a pass count that is not an integer >= ``least``, as
    ``spbcd.run`` refuses its ``pass_budget``."""
    if not isinstance(passes, int) or passes < least:
        raise ValueError(f"passes must be >= {least} and an integer, got {passes!r}")


def pdcp_run(instance, config: PdcpConfig, passes: int, metric_callback=None):
    """Batch method: one iteration is one pass. Returns (state, trace)."""
    _check_passes(passes)
    nrm = instance.coupling.spectral_norm
    if config.sigma * config.h < nrm ** 2 * (1.0 - 1e-9):
        warnings.warn(
            f"sigma*h = {config.sigma * config.h:.4g} < ||A||^2 = {nrm ** 2:.4g}; "
            "convergence is not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )
    constants = PdcpConstants.for_run(instance, config)
    return timed_passes(lambda state: pdcp_iterate(instance, state, config, constants),
                        pdcp_initial_state(instance), passes, metric_callback)


def preconditioned_penalties(instance):
    """Per-coordinate h_d = column abs sums (block-uniformized where the prox
    needs it) and per-row sigma_k = full row abs sums, taken the way the
    block engine's adaptive-l1 rule takes them at K = J."""
    h = lift_nonseparable(instance, np.maximum(instance.coupling.col_abs_sums, FLOOR_EPS))
    sigma = np.maximum(
        instance.coupling.row_abs_sums(range(instance.num_blocks)), FLOOR_EPS
    )
    return h, sigma


def preconditioned_pdcp_iterate(instance, state: PdcpState, penalties) -> PdcpState:
    """One diagonally preconditioned step, primal first with theta = 1.

    Updates every block's prox at A^T y^t, extrapolates, then takes the dual
    resolvent at A x_bar^{t+1}; from a shared start this reproduces the block
    engine with K = J exactly.
    """
    h, sigma = penalties
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


def preconditioned_pdcp_run(instance, passes: int, metric_callback=None):
    _check_passes(passes)
    penalties = preconditioned_penalties(instance)
    return timed_passes(lambda state: preconditioned_pdcp_iterate(instance, state, penalties),
                        pdcp_initial_state(instance), passes, metric_callback)


def _settle(step, state, objective, tol: float, window: int, max_passes: int, what: str):
    """Run ``state = step(state)`` until ``objective(state)`` changes by less
    than ``tol`` (relative) over ``window`` passes. Returns (state, objective)."""
    prev = objective(state)
    passes = 0
    while passes < max_passes:
        for _ in range(window):
            state = step(state)
        passes += window
        cur = objective(state)
        if abs(prev - cur) <= tol * max(1.0, abs(cur)):
            return state, cur
        prev = cur
    raise ConvergenceError(
        f"{what} did not settle within {max_passes} passes (last objective {prev:.9e})"
    )


def preconditioned_reference(instance, tol: float = 1e-10, window: int = 50,
                             max_passes: int = 200_000):
    """The diagonally preconditioned method, stepped as the block engine at
    K = J (``spbcd.pass_step``, seed 0), until the objective changes by less
    than ``tol`` (relative) over ``window`` passes. Returns (x, y). The config
    skips ``for_instance``, whose floored-penalty warning a run already gives;
    with the rule's sigma at K = J it keeps the guarantee."""
    J = instance.num_blocks
    config = StepsizeConfig("adaptive-l1", preconditioned_penalties(instance)[0], K=J, J=J,
                            guarantee=True)
    step = pass_step(instance, config, np.random.Generator(np.random.PCG64(0)))
    state, _ = _settle(step, initial_state(instance), lambda state: instance.objective(state.x),
                       tol, window, max_passes, "preconditioned reference")
    return state.x, state.y


# ---------------------------------------------------------------------------
# ISTA / FISTA for lasso
# ---------------------------------------------------------------------------

def lipschitz_upper(A) -> float:
    """||A||^2 estimated by power iteration, times a 1.01 safety factor."""
    return spectral_norm_estimate(A, tol=1e-6) ** 2 * 1.01


def ista_step(A, b, lam: float, L: float, x) -> np.ndarray:
    """x' = soft-threshold(x - (1/L) A^T(Ax - b), lam/L)."""
    M = _values(A)
    return prox_l1(x - M.T @ (M @ x - b) / L, lam / L)


def _fista_steps(M, b, lam: float, L: float, x):
    """The FISTA iterates after x: ``ista_step`` at the momentum point, with
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2 and t_1 = 1."""
    momentum = x.copy()
    t_k = 1.0
    while True:
        x_new = ista_step(M, b, lam, L, momentum)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
        momentum = x_new + ((t_k - 1.0) / t_next) * (x_new - x)
        x, t_k = x_new, t_next
        yield x


def _lasso_start(A):
    """The matrix in the layout A comes in (no copy), the step constant L
    and the zero start."""
    M = _values(A)
    return M, lipschitz_upper(M), np.zeros(M.shape[1])


def ista_run(A, b, lam: float, passes: int, metric_callback=None):
    """Proximal gradient from zero; passes=0 returns zeros."""
    _check_passes(passes, least=0)
    M, L, x = _lasso_start(A)
    return timed_passes(lambda x: ista_step(M, b, lam, L, x), x, passes, metric_callback)


def fista_run(A, b, lam: float, passes: int = 100, metric_callback=None):
    """Accelerated shrinkage (``_fista_steps``) from zero; passes=0 returns
    zeros."""
    _check_passes(passes, least=0)
    M, L, x = _lasso_start(A)
    steps = _fista_steps(M, b, lam, L, x)
    return timed_passes(lambda _: next(steps), x, passes, metric_callback)


def fista_reference(A, b, lam: float, tol: float = 1e-10, window: int = 50,
                    max_passes: int = 200_000):
    """Accelerated shrinkage until the lasso objective changes by less than
    ``tol`` (relative) over ``window`` passes. Returns (x, objective)."""
    M, L, x = _lasso_start(A)
    steps = _fista_steps(M, b, lam, L, x)

    def objective(z):
        r = M @ z - b
        return 0.5 * float(r @ r) + lam * float(np.abs(z).sum())

    return _settle(lambda _: next(steps), x, objective, tol, window, max_passes,
                   "lasso reference")
