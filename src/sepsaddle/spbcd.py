"""Stochastic parallel block-coordinate primal-dual engine.

One iteration: take K of the J blocks, solve the selected blocks' prox
subproblems against the current dual, extrapolate them, then take one dual
resolvent step at the variance-reduced linearization point

    u = r_bar + (J/K) * sum_{j in S} A_j (x_bar_j^new - x_bar_j^old),

and finally refresh the running sum r_bar = sum_j A_j x_bar_j in place.
A pass of ceil(J/K) iterations draws all of its block sets at once
(``sample_blocks``) and hands one to each ``iterate``.

The selected blocks are handled as one column set S: one gather of A_S, one
product A_S^T y, one prox call per block-function class (``BlockProx``) and
one product A_S (x_bar_S^new - x_bar_S^old). The adaptive dual penalties are
summed from the same gathered columns. A one-block column set is views of the
coupling's store, built once per block and cached by ``Coupling.gather``.
Sigma (whatever its rule, scale or override), the metric h and the prox
parameters of a block set depend on the set and the config alone. A run at
K = J selects the one set of every block, and a run at K = 1 one of J
one-block sets, so ``pass_step`` computes them once per run for each of
those sets (``BlockConstants``; J * m floats of sigma at K = 1), and each
iteration looks them up; when 1 < K < J each iteration derives its own. One
iteration body serves every K: it skips the theta = K/J and J/K multiplies
at K = J, where they are 1, and there makes the new x and x_bar the state's
arrays instead of copying them in. A caller that holds ``state.x`` or
``state.x_bar`` from an earlier iteration keeps that iterate; below K = J
both are written in place.

Every iteration first checks that the state is finite
(``SolverState.validate``): one sum of the four squared norms, which is
finite unless an entry is NaN or +-inf or the squares overflow; only then
does an exact scan run, to name the vector or to let a large finite state
pass.

Determinism contract: one draw per pass, on the run thread, and one
fixed-order product. The draw gives the same block sets as one sorted
``rng.choice`` per iteration, and below K = J leaves the generator in the
same state.
The engine runs on one thread; ``workers`` is validated and recorded but
selects no code path, so traces are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericsError, RunAborted

FLOOR_EPS = 1e-10  # floor of every primal and dual penalty
RBAR_TOL = 1e-10  # largest relative r_bar drift a run accepts
RBAR_CHECK_INTERVAL = 2000  # iterations between two r_bar drift checks

STEPSIZE_RULES = ("adaptive-l1", "block-spectral")


@dataclass
class SolverState:
    """Iterates of the block engine; r_bar caches sum_j A_j x_bar_j."""

    x: np.ndarray
    x_bar: np.ndarray
    y: np.ndarray
    r_bar: np.ndarray
    t: int = 0

    def validate(self):
        """Raise ``NumericsError`` naming the first of x, x_bar, y and r_bar
        that holds a NaN or an infinity.

        Checks every entry of all four vectors. The sum of their squared
        norms is finite unless an entry is NaN or +-inf or the squares
        overflow (entries beyond ~1e154), so that one sum passes almost
        every state; only a sum that is not finite pays the exact scan, which
        then names the vector or, for a finite state, passes.
        """
        # np.vdot sets no floating-point flags, so an overflow does not warn,
        # and Python floats add to inf silently
        x, x_bar, y, r_bar = self.x, self.x_bar, self.y, self.r_bar
        total = (float(np.vdot(x, x)) + float(np.vdot(x_bar, x_bar))
                 + float(np.vdot(y, y)) + float(np.vdot(r_bar, r_bar)))
        if math.isfinite(total):
            return
        for name in ("x", "x_bar", "y", "r_bar"):
            if not np.isfinite(getattr(self, name)).all():
                raise NumericsError(f"non-finite values in {name} at iteration {self.t}")


def start_vectors(instance, x0=None, y0=None) -> tuple[np.ndarray, np.ndarray]:
    """The start (x, y) of every solver: zeros, or float64 copies of ``x0``
    and ``y0``. A wrong shape raises ``ValueError``, and a NaN or an infinity
    ``NumericsError`` naming the vector."""
    x = np.zeros(instance.n) if x0 is None else np.array(x0, dtype=float)
    y = np.zeros(instance.m) if y0 is None else np.array(y0, dtype=float)
    for name, v, size in (("x0", x, instance.n), ("y0", y, instance.m)):
        if v.shape != (size,):
            raise ValueError(f"{name} must have shape ({size},)")
        if not np.isfinite(v).all():
            raise NumericsError(f"non-finite values in {name}")
    return x, y


def initial_state(instance, x0=None, y0=None) -> SolverState:
    x, y = start_vectors(instance, x0, y0)
    return SolverState(x=x, x_bar=x.copy(), y=y, r_bar=instance.coupling.matvec(x))


@dataclass(eq=False)
class StepsizeConfig:
    """Primal penalties h, extrapolation theta = K/J, and the dual rule.

    Every penalty is floored at ``FLOOR_EPS``. ``sigma_override`` replaces
    the rule's sigma^t with a constant; ``sigma_scale`` multiplies it (K/J
    reproduces the benchmark parameter tables). Non-separable blocks get a
    block-uniform h (the block maximum), which dominates the per-dimension
    values and preserves validity.

    ``guarantee`` says whether the run keeps the O(1/T) gap guarantee, by a
    sufficient condition: every sigma^t is at least the rule's. It is false
    for a ``sigma_scale`` below 1, or for a ``sigma_override`` (which the
    scale does not act on) below the rule's sigma over all blocks, which
    bounds every iteration's: (J/K) max_k sum_j |A_kj| for adaptive-l1, and
    (J/K) times the sum of the K largest ||A_j|| for block-spectral. A larger
    sigma keeps the validity matrix P diagonally dominant. It has no default,
    so a config built without ``for_instance`` states its own.
    """

    rule: str
    h: np.ndarray
    K: int
    J: int
    sigma_override: float | None = None
    sigma_scale: float = 1.0
    guarantee: bool = field(kw_only=True)

    @property
    def theta(self) -> float:
        return self.K / self.J

    @classmethod
    def for_instance(cls, instance, K: int, rule: str = "adaptive-l1",
                     sigma_override=None, sigma_scale: float = 1.0) -> "StepsizeConfig":
        J = instance.num_blocks
        if not 1 <= K <= J:
            raise ConfigError(f"need 1 <= K <= J={J}, got K={K}")
        if rule not in STEPSIZE_RULES:
            raise ConfigError(f"unknown stepsize rule {rule!r}; expected one of {STEPSIZE_RULES}")
        check_sigma_settings(sigma_override, sigma_scale)

        coupling = instance.coupling
        if rule == "adaptive-l1":
            h = coupling.col_abs_sums
        else:
            h = np.repeat(coupling.block_norms, coupling.partition.block_sizes)

        below = h < FLOOR_EPS
        h = lift_nonseparable(instance, np.maximum(h, FLOOR_EPS))

        # warn only where the floor is still the penalty after that lift
        floored = np.flatnonzero(below & (h == FLOOR_EPS))
        if floored.size:
            shown = ", ".join(map(str, floored[:10]))
            more = "" if floored.size <= 10 else f" (+{floored.size - 10} more)"
            warnings.warn(
                f"primal penalty floored at {FLOOR_EPS:g} for coordinates [{shown}]{more}",
                RuntimeWarning,
                stacklevel=2,
            )

        if sigma_override is None:
            guarantee = bool(sigma_scale >= 1.0)
            reason = f"sigma_scale {sigma_scale!r} is below 1"
        else:
            if rule == "adaptive-l1":
                rule_sigma = (J / K) * float(coupling.row_abs_sums(np.arange(J)).max())
            else:
                rule_sigma = (J / K) * sum(sorted(coupling.block_norms)[J - K:])
            guarantee = bool(sigma_override >= rule_sigma)
            reason = (f"sigma_override {sigma_override!r} is below the {rule} sigma "
                      f"{rule_sigma:.6g} over all blocks")
        if not guarantee:
            warnings.warn(f"the O(1/T) guarantee does not hold (guarantee=off): {reason}",
                          RuntimeWarning, stacklevel=2)

        return cls(rule=rule, h=h, K=K, J=J, sigma_override=sigma_override,
                   sigma_scale=sigma_scale, guarantee=guarantee)


def check_sigma_settings(sigma_override, sigma_scale) -> None:
    """Refuse a ``sigma_override`` or ``sigma_scale`` that is not a positive,
    finite number: NaN passes a ``<= 0`` test, and NaN or inf turn y non-finite
    at the first dual step."""
    if sigma_override is not None and not (math.isfinite(sigma_override) and sigma_override > 0):
        raise ConfigError(f"sigma_override must be positive and finite, got {sigma_override!r}")
    if not (math.isfinite(sigma_scale) and sigma_scale > 0):
        raise ConfigError(f"sigma_scale must be positive and finite, got {sigma_scale!r}")


def lift_nonseparable(instance, h: np.ndarray) -> np.ndarray:
    """Set h on each non-separable block to the block maximum, in place: their
    prox needs a uniform penalty, and the maximum preserves validity."""
    for j, fn in enumerate(instance.block_fns):
        if not getattr(fn, "separable", True):
            sl = instance.block_slice(j)
            h[sl] = h[sl].max()
    return h


def sample_blocks(rng: np.random.Generator, J: int, K: int, count: int) -> np.ndarray:
    """``count`` independent, uniformly random size-K subsets of {0..J-1},
    each sorted ascending: the rows of a (count, K) array.

    The rows are those of ``count`` calls of ``rng.choice(J, size=K,
    replace=False)``, each sorted. At K = 1 that call draws one bounded
    integer (Lemire's method), as ``rng.integers(0, J)`` does, so all rows
    are one ``rng.integers`` call and leave the generator in the same state.
    At K = J every row is all blocks, and nothing is drawn. Any other K
    takes one ``choice`` per row.
    """
    if not 1 <= K <= J:
        raise ValueError(f"need 1 <= K <= J={J}, got K={K}")
    if K == 1:
        return rng.integers(0, J, size=(count, 1))
    if K == J:
        return np.broadcast_to(np.arange(J), (count, J))
    blocks = np.empty((count, K), dtype=np.int64)
    for row in blocks:
        row[:] = rng.choice(J, size=K, replace=False)
    blocks.sort(axis=1)
    return blocks


def compute_sigma_t(coupling, blocks, K: int, J: int, rule: str = "adaptive-l1", *,
                    columns=None) -> np.ndarray:
    """Per-iteration dual penalties for the selected blocks.

    adaptive-l1:     sigma_k = (J/K) sum_{j in S} sum_{d in block j} |A_kd|
    block-spectral:  sigma_k = (J/K) sum_{j in S} ||A_j||  (constant over k)

    ``columns`` is ``coupling.gather(blocks)`` when the caller already holds
    it; adaptive-l1 then sums those columns instead of gathering again, as
    their last use (a scattered dense set takes |A_S| in its own copy).
    Both rules scale and floor one new array in place.
    """
    if rule == "adaptive-l1":
        sigma = coupling.row_abs_sums(blocks) if columns is None else columns.row_abs_sums()
        sigma *= J / K
    elif rule == "block-spectral":
        norms = coupling.block_norms
        sigma = np.full(coupling.m, (J / K) * sum(norms[j] for j in blocks))
    else:
        raise ConfigError(f"unknown stepsize rule {rule!r}")
    return np.maximum(sigma, FLOOR_EPS, out=sigma)


def _sigma_for(instance, blocks, config: StepsizeConfig, columns=None) -> np.ndarray:
    if config.sigma_override is not None:
        return np.full(instance.m, max(config.sigma_override, FLOOR_EPS))
    sigma = compute_sigma_t(instance.coupling, blocks, config.K, config.J,
                            config.rule, columns=columns)
    if config.sigma_scale != 1.0:
        sigma *= config.sigma_scale
        np.maximum(sigma, FLOOR_EPS, out=sigma)
    return sigma


class BlockConstants(NamedTuple):
    """What an iteration derives from its block set and the config alone,
    built once per run for the sets a run draws again and again: at K = J
    the one set of every block, at K = 1 each of the J one-block sets.

    The set whose first block is k (block k at K = 1, block 0 at K = J) has
    its dual penalties in row k of ``sigma``, one read-only (sets, m) array,
    its metric ``h[k]`` (the config's h on its coordinates) and its prox plan
    ``prox_plan[k]`` (``functions.BlockProx.plan``). At K = 1 the table holds
    J * m floats: 1.0 MB on group-lasso-k1's data, as much as A on a dense
    lasso. ``pass_step`` builds them once per run; they live with the run,
    not with the instance, which several configs may solve.
    """

    sigma: np.ndarray
    h: tuple
    prox_plan: tuple

    @classmethod
    def for_run(cls, instance, config: StepsizeConfig) -> "BlockConstants | None":
        """The constants of the run's sets; None when 1 < K < J, whose sets
        are too many to keep."""
        J = config.J
        if config.K == J:
            sets = np.arange(J)[None, :]
        elif config.K == 1:
            sets = np.arange(J)[:, None]
        else:
            return None
        sigma = np.empty((len(sets), instance.m))
        hs, plans = [], []
        for k, blocks in enumerate(sets):
            columns = instance.coupling.gather(blocks)
            h = config.h[columns.index]
            sigma[k] = _sigma_for(instance, blocks, config, columns)
            hs.append(h)
            plans.append(instance.block_prox.plan(h, blocks))
        sigma.setflags(write=False)
        return cls(sigma, tuple(hs), tuple(plans))


def dual_step(instance, state: SolverState, blocks, sigma_t, delta_bar) -> np.ndarray:
    """One dual resolvent step at u = r_bar + (J/K) * delta_bar, where r_bar
    is the pre-update cache."""
    J, K = instance.num_blocks, len(blocks)
    if K == J:
        u = delta_bar + state.r_bar
    else:
        u = (J / K) * delta_bar
        u += state.r_bar
    return instance.dual_fn.resolvent(state.y, u, sigma_t)


def iterate(instance, state: SolverState, config: StepsizeConfig,
            blocks: np.ndarray, constants: BlockConstants | None = None) -> SolverState:
    """One full iteration (Algorithm box) on the sorted, distinct ``blocks``:
    primal steps + extrapolate, adaptive dual step, cache refresh.

    The blocks are one column set S, with one ``BlockProx`` call for the
    prox of x_S. Its sigma, h and prox plan are looked up in ``constants``,
    the run's ``BlockConstants`` (``pass_step`` builds them at K = 1 and
    K = J), or derived here without them. The multiplies by theta = K/J and
    J/K are skipped at K = J, where they are 1. At K = J the new x and x_bar
    replace ``state.x`` and ``state.x_bar``; below, both are written through
    S's coordinates.
    """
    state.validate()
    columns = instance.coupling.gather(blocks)
    index = columns.index
    if constants is None:
        h, plan, sigma_t = config.h[index], None, None
    else:
        k = blocks[0]  # the set's key: its first block
        h, plan, sigma_t = constants.h[k], constants.prox_plan[k], constants.sigma[k]
    x_old = state.x[index]
    # the same operations, each into the one new array it starts
    v = columns.rmatvec(state.y)
    v /= h
    np.subtract(x_old, v, out=v)
    x_new = instance.block_prox(v, h, blocks, plan)
    xb_new = x_new - x_old
    if config.K < config.J:
        xb_new *= config.theta
    xb_new += x_new
    delta_bar = columns.matvec(xb_new - state.x_bar[index])
    if sigma_t is None:  # after both products: row sums are a set's last use
        sigma_t = _sigma_for(instance, blocks, config, columns)
    if config.K < config.J:
        state.x[index] = x_new
        state.x_bar[index] = xb_new
    else:
        state.x, state.x_bar = x_new, xb_new
    state.y = dual_step(instance, state, blocks, sigma_t, delta_bar)
    state.r_bar += delta_bar
    state.t += 1
    return state


def rbar_drift(instance, state: SolverState) -> float:
    """Relative deviation of the r_bar cache from a fresh product A x_bar."""
    fresh = instance.coupling.matvec(state.x_bar)
    return float(np.linalg.norm(state.r_bar - fresh) / (1.0 + np.linalg.norm(state.r_bar)))


def iterations_per_pass(J: int, K: int) -> int:
    """One pass touches ~J blocks: ceil(J/K) iterations."""
    return math.ceil(J / K)


def timed_passes(step, state, passes: int, metric_callback=None):
    """Run ``state = step(state)`` for ``passes`` passes; returns (state, trace).

    Only the pass is timed. ``metric_callback(pass_index, state, seconds)``
    runs after the timer stops, with the cumulative solver seconds, and its
    return values form the trace. A ``NumericsError`` in a pass, or any
    failure of the callback, raises ``RunAborted`` carrying the trace so far.
    Every solver's run loop is this one.
    """
    trace = []
    seconds = 0.0
    for pass_index in range(1, passes + 1):
        tic = time.perf_counter()
        try:
            state = step(state)
        except NumericsError as exc:
            raise RunAborted(str(exc), trace) from exc
        seconds += time.perf_counter() - tic
        if metric_callback is not None:
            try:
                trace.append(metric_callback(pass_index, state, seconds))
            except Exception as exc:
                raise RunAborted(
                    f"metric callback failed at pass {pass_index}: {exc}", trace
                ) from exc
    return state, trace


def pass_step(instance, config: StepsizeConfig, rng: np.random.Generator,
              rbar_check_interval: int = RBAR_CHECK_INTERVAL):
    """One pass of ``iterate`` as a function of the state: the pass's block
    sets are drawn first, in one ``sample_blocks`` call, and the r_bar drift
    is held to ``RBAR_TOL`` every ``rbar_check_interval`` iterations."""
    per_pass = iterations_per_pass(config.J, config.K)
    constants = BlockConstants.for_run(instance, config)

    def one_pass(state):
        for blocks in sample_blocks(rng, config.J, config.K, per_pass):
            iterate(instance, state, config, blocks, constants)
            if state.t % rbar_check_interval == 0:
                drift = rbar_drift(instance, state)
                if drift > RBAR_TOL:
                    raise NumericsError(f"r_bar cache drift {drift:.3e} exceeds "
                                        f"{RBAR_TOL:g} at iteration {state.t}")
        return state

    return one_pass


def run(instance, config: StepsizeConfig, pass_budget: int, metric_callback=None, *,
        seed: int = 0, workers: int = 1, rbar_check_interval: int = RBAR_CHECK_INTERVAL):
    """Run ``pass_budget`` passes (``pass_step``) through ``timed_passes``
    from the zero state; returns (final state, trace).

    ``metric_callback(pass_index, state, solver_seconds)`` is invoked once per
    pass with the cumulative solver-only wall time (callback time excluded);
    its return values form the trace. Callback or numeric failures, and an
    r_bar drift above ``RBAR_TOL`` at a check, raise ``RunAborted`` carrying
    the partial trace. The PCG64 generator seeded here is the only randomness
    in the run; each pass draws its block sets from it once.

    ``workers`` must be >= 1 and selects no code path: every iteration runs
    on the calling thread. A two-worker pool over the unbatched (nuclear)
    prox measured slower than one thread on low-rank + sparse and lasso.
    """
    if not isinstance(pass_budget, int) or pass_budget < 1:
        raise ValueError(f"pass_budget must be a positive integer, got {pass_budget!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    return timed_passes(pass_step(instance, config, rng, rbar_check_interval),
                        initial_state(instance), pass_budget, metric_callback)
