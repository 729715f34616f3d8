"""Brute-force numerical oracles for the test and acceptance suites.

These deliberately avoid the closed-form prox implementations (grid plus
golden-section minimization instead) so agreement between the two routes is a
real check, not a tautology. Consumed by tests only; no production code path
imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sepsaddle.baselines import fista_reference, preconditioned_reference
from sepsaddle.errors import ConvergenceError
from sepsaddle.functions import BoxLinearDual, LinearDual, QuadraticDual
from sepsaddle.matrices import BlockPartition, DenseMatrix

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class SaddlePoint:
    """An approximate saddle point with its certification tolerance."""

    x_star: np.ndarray
    y_star: np.ndarray
    tolerance: float


def golden_section(fn, lo, hi, tol: float = 1e-13, max_iters: int = 400):
    """Argmin of a unimodal function on [lo, hi].

    Runs in the dtype of the endpoints; pass ``np.longdouble`` bounds for
    extended precision (plain comparisons hit the sqrt(machine-eps) argument
    accuracy floor of value-based minimization).
    """
    dtype = np.result_type(np.asarray(lo).dtype, np.asarray(hi).dtype, np.float64)
    a, b = dtype.type(lo), dtype.type(hi)
    invphi = dtype.type(_INVPHI)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iters):
        if b - a <= tol * (1.0 + abs(a) + abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (a + b) / 2


def _minimize_1d(fn, lo, hi, coarse: int = 0):
    """Golden-section minimization over [lo, hi], optionally after a coarse
    bracketing grid (coarse > 2) for functions that are not convex along the
    segment. Bounds (and hence all evaluation points) keep their dtype.
    """
    if coarse > 2:
        grid = np.linspace(lo, hi, coarse)
        vals = [fn(t) for t in grid]
        i = int(np.argmin(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, coarse - 1)]
    return golden_section(fn, lo, hi)


def _powell_minimize(objective, x0, lo, hi, dtype, max_iters, ftol):
    """Direction-set minimization with grid+golden line searches.

    Coordinate sweeps alone zigzag in the curved valleys of non-separable
    objectives (and can stall on a kink), so after each sweep the net-move
    direction is searched and replaces the direction of largest decrease.
    """
    x = np.clip(x0.astype(dtype), lo, hi).astype(dtype)
    dim = x.size
    dirs = [np.eye(dim, dtype=dtype)[i] for i in range(dim)]
    span = dtype((float(hi[0]) - float(lo[0])))

    def line_min(point, direction):
        if not np.any(direction):
            return point

        def along(t):
            return objective(np.clip(point + t * direction, lo, hi))

        t_best = _minimize_1d(along, -span, span)
        return np.clip(point + t_best * direction, lo, hi)

    current = objective(x)
    for _ in range(max_iters):
        x_before = x.copy()
        f_before = current
        best_dec = dtype(0)
        best_idx = 0
        for i, direction in enumerate(dirs):
            f_prev = objective(x)
            x = line_min(x, direction)
            dec = f_prev - objective(x)
            if dec > best_dec:
                best_dec, best_idx = dec, i
        net = x - x_before
        if np.any(net):
            x = line_min(x, net)
            dirs[best_idx] = net / np.linalg.norm(net.astype(float))
        current = objective(x)
        if f_before - current <= ftol * (1.0 + abs(float(current))):
            break
    return x, current


def prox_oracle(fn, v, metric, domain=None) -> np.ndarray:
    """Numeric minimizer of fn(x) + (1/2)||x - v||^2_diag(metric).

    ``fn`` is a block descriptor (with .value) or a plain callable on the
    block vector (it must preserve the dtype of its argument). Direction-set
    grid+golden minimization from the starts v and 0, run in float64 and then
    polished in extended precision (value-based minimization is limited to
    sqrt(machine-eps) argument accuracy, so the polish is what reaches 1e-9
    territory). Refuses blocks of dimension > 4. ``domain`` is an optional
    (lo, hi) box.
    """
    value = fn.value if hasattr(fn, "value") else fn
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.size > 4:
        raise ValueError("prox oracle is restricted to blocks of dimension <= 4")

    def make_objective(dtype):
        v_t = v.astype(dtype)
        w_t = np.broadcast_to(np.asarray(metric, dtype=dtype), v.shape)

        def objective(x):
            diff = x - v_t
            return value(x) + (w_t @ (diff * diff)) / 2
        return objective

    radius = 2.0 * (np.abs(v).max() + 1.0)
    box = (-radius, radius) if domain is None else domain

    obj64 = make_objective(float)
    obj_ld = make_objective(np.longdouble)
    lo = np.full_like(v, box[0])
    hi = np.full_like(v, box[1])
    lo_ld = lo.astype(np.longdouble)
    hi_ld = hi.astype(np.longdouble)

    # coarse phase from two starts (a kink at zero traps coordinate moves,
    # so both sides of it are explored), then polish only the better basin
    candidates = []
    for start in (v, np.zeros_like(v)):
        x, val = _powell_minimize(obj64, start, lo, hi, np.float64,
                                  max_iters=40, ftol=1e-15)
        candidates.append((val, x))
    x = min(candidates, key=lambda c: c[0])[1]

    x, _ = _powell_minimize(obj_ld, x.astype(np.longdouble), lo_ld, hi_ld,
                            np.longdouble, max_iters=5, ftol=1e-26)
    # one plain coordinate sweep: exact for separable objectives, where the
    # rotated direction set above leaves an axis-aligned residual
    for dcoord in range(v.size):
        def along(t, dcoord=dcoord):
            trial = x.copy()
            trial[dcoord] = t
            return obj_ld(trial)

        x[dcoord] = _minimize_1d(along, lo_ld[dcoord], hi_ld[dcoord])
    return x.astype(float)


def _gstar_1d(dual_fn, k):
    """Extended-precision scalar form of the k-th coordinate of g*.

    Re-expressed from the mathematical definitions (not the resolvent code)
    so oracle agreement stays a two-route check.
    """
    if isinstance(dual_fn, LinearDual):
        b_k = np.longdouble(dual_fn.b[k])
        return lambda t: b_k * t
    if isinstance(dual_fn, QuadraticDual):
        b_k = np.longdouble(dual_fn.b[k])
        return lambda t: t * t / 2 + b_k * t
    if isinstance(dual_fn, BoxLinearDual):
        c = np.longdouble(dual_fn.c)
        return lambda t: c * t
    raise ValueError(f"no separable scalar form for {type(dual_fn).__name__}")


def resolvent_oracle(dual_fn, y_prev, u, sigma, domain=None) -> np.ndarray:
    """Numeric minimizer of g*(y) - <y,u> + (1/2)||y - y_prev||^2_sigma.

    Coordinatewise separable g* only (all three dual families are)."""
    y_prev = np.atleast_1d(np.asarray(y_prev, dtype=np.longdouble))
    u = np.atleast_1d(np.asarray(u, dtype=np.longdouble))
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.longdouble), y_prev.shape)
    if isinstance(dual_fn, BoxLinearDual) and domain is None:
        domain = (0.0, 1.0)
    out = np.empty(y_prev.shape)
    for k in range(y_prev.size):
        g1 = _gstar_1d(dual_fn, k)

        def fn(t, k=k, g1=g1):
            return g1(t) - t * u[k] + 0.5 * sig[k] * (t - y_prev[k]) ** 2

        radius = 2.0 * (abs(y_prev[k]) + abs(u[k]) + abs(u[k] - y_prev[k]) + 1.0) \
            + (abs(u[k]) + 1.0) / max(sig[k], 1e-12)
        lo = np.longdouble(-radius) if domain is None else np.longdouble(domain[0])
        hi = np.longdouble(radius) if domain is None else np.longdouble(domain[1])
        out[k] = float(_minimize_1d(fn, lo, hi))
    return out


def max_inner(dual_fn, u, tol: float = 1e-8) -> float:
    """sup_y <y, u> - g*(y) of a dual term, from its closed form.

    LinearDual: zero when u = b (to ``tol`` relative), +inf otherwise;
    QuadraticDual: (1/2)||u - b||^2; BoxLinearDual: sum(max(u - c, 0)).
    """
    if isinstance(dual_fn, LinearDual):
        gap = float(np.linalg.norm(np.asarray(u) - dual_fn.b))
        scale = 1.0 + float(np.linalg.norm(dual_fn.b))
        return 0.0 if gap <= tol * scale else np.inf
    if isinstance(dual_fn, QuadraticDual):
        r = np.asarray(u) - dual_fn.b
        return 0.5 * float(r @ r)
    if isinstance(dual_fn, BoxLinearDual):
        return float(np.maximum(np.asarray(u) - dual_fn.c, 0.0).sum())
    raise ValueError(f"no conjugate for {type(dual_fn).__name__}")


def argmax_inner(dual_fn, u):
    """A maximizer of <y, u> - g*(y); None for LinearDual, which is unbounded
    unless u = b and then has no canonical maximizer."""
    if isinstance(dual_fn, LinearDual):
        return None
    if isinstance(dual_fn, QuadraticDual):
        return np.asarray(u, dtype=float) - dual_fn.b
    if isinstance(dual_fn, BoxLinearDual):
        return (np.asarray(u) > dual_fn.c).astype(float)
    raise ValueError(f"no conjugate for {type(dual_fn).__name__}")


# ---------------------------------------------------------------------------
# Planted components of the synthetic generators, replayed from their seeds
# ---------------------------------------------------------------------------

def lasso_truth(m: int, n: int, d: int, seed: int) -> np.ndarray:
    """The planted x_true of ``problems.gen_lasso(m, n, d, seed)``: the
    generator's draws replayed in its order (design, support, values)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.standard_normal((m, n))
    x_true = np.zeros(n)
    support = rng.choice(n, size=d, replace=False)
    x_true[support] = rng.standard_normal(d)
    return x_true


def rpca_components(m: int, n: int, r: int, seed: int) -> tuple:
    """(L0, S0, N0) of ``problems.gen_rpca(m, n, r, seed)``, whose sum is its
    output: the generator's draws replayed in its order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    L0 = rng.standard_normal((m, r)) @ rng.standard_normal((n, r)).T
    S0 = np.zeros((m, n))
    k = int(round(0.05 * m * n))
    spots = rng.choice(m * n, size=k, replace=False)
    S0.flat[spots] = rng.laplace(0.0, float(np.abs(L0).max()), size=k)
    N0 = rng.normal(0.0, 1e-3, size=(m, n))
    return L0, S0, N0


# ---------------------------------------------------------------------------
# Saddle-point machinery
# ---------------------------------------------------------------------------

def saddle_gap(instance, x_prime, y_prime, feas_tol: float = 1e-8) -> float:
    """max_y L(x', y) - min_x L(x, y') for lasso-type instances.

    The inner max is the closed-form quadratic maximization; the inner min is
    -g*(y') when ||A^T y'||_inf <= lam (dual feasibility, checked with
    relative slack ``feas_tol``) and -inf otherwise, making the gap +inf.
    """
    if not isinstance(instance.dual_fn, QuadraticDual):
        raise ValueError(f"saddle gap is not implemented for {type(instance.dual_fn).__name__}")
    lam = instance.meta["lam"]
    b = instance.dual_fn.b
    x_prime = np.asarray(x_prime, dtype=float)
    y_prime = np.asarray(y_prime, dtype=float)
    r = instance.coupling.matvec(x_prime) - b
    max_side = lam * float(np.abs(x_prime).sum()) + 0.5 * float(r @ r)
    corr = instance.coupling.rmatvec(y_prime)
    if float(np.abs(corr).max()) > lam * (1.0 + feas_tol):
        return np.inf
    min_side = -(0.5 * float(y_prime @ y_prime) + float(b @ y_prime))
    return max_side - min_side


def compute_M0(instance, x0, y0, saddle: SaddlePoint, h, sigma0, K: int, J: int) -> float:
    """Initial merit bound: gap of the T-iterate ergodic average is at most
    M(0)/T under the adaptive stepsizes."""
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    dx = x0 - saddle.x_star
    dy = y0 - saddle.y_star
    h = np.asarray(h, dtype=float)
    sigma0 = np.asarray(sigma0, dtype=float)
    adx = instance.coupling.matvec(dx)
    quad = (J / (2.0 * K)) * float((dx * dx) @ h) + 0.5 * float((dy * dy) @ sigma0) \
        - float(dy @ adx)
    f0 = instance.separable_value(x0)
    fs = instance.separable_value(saddle.x_star)
    ax0 = instance.coupling.matvec(x0)
    axs = instance.coupling.matvec(saddle.x_star)
    linear = f0 + float(saddle.y_star @ ax0) - fs - float(saddle.y_star @ axs)
    return quad + ((J - K) / K) * linear


def p_matrix_min_eig(A, partition: BlockPartition, blocks, h, sigma_t, K: int, J: int) -> float:
    """Minimum eigenvalue of the stepsize validity matrix

        P = [[diag(h_S), -A_S^T], [-A_S, (K/J) diag(sigma^t)]]

    assembled over the selected blocks (test-scale sizes only)."""
    M = A.values if isinstance(A, DenseMatrix) else np.asarray(A, dtype=float)
    idx = sorted(int(j) for j in blocks)
    cols = np.concatenate([np.arange(partition.slice_of(j).start, partition.slice_of(j).stop)
                           for j in idx])
    Asel = M[:, cols]
    hsel = np.asarray(h, dtype=float)[cols]
    sigma_t = np.asarray(sigma_t, dtype=float)
    P = np.block([
        [np.diag(hsel), -Asel.T],
        [-Asel, (K / J) * np.diag(sigma_t)],
    ])
    return float(np.linalg.eigvalsh(P).min())


class ColumnStore:
    """The column-by-column sparse store that the slot-row ``SparseCoupling``
    replaced, kept as the oracle of its products.

    The nonzeros of a dense array, sorted by column with rows ascending in
    each; a selection's nonzeros in block order, their column ids shifted to
    their positions among the selection's coordinates; every product one
    ``np.bincount`` over them.
    """

    def __init__(self, A, partition: BlockPartition):
        A = np.asarray(A, dtype=float)
        rows, cols = np.divmod(np.flatnonzero(A != 0), A.shape[1])
        order = np.argsort(cols, kind="stable")
        self.rows, self.cols = rows[order], cols[order]
        self.vals = A[self.rows, self.cols]
        self.m, self.n = A.shape
        self.partition = partition
        self.block_nz = np.searchsorted(self.cols, partition.offset_array)

    @staticmethod
    def _sum_by(index, weights, length):
        return np.bincount(index, weights=weights, minlength=length).astype(float)

    def gather(self, blocks):
        """(coordinates, rows, positions, values, width) of the selection."""
        offsets = self.partition.offset_array
        coords = np.concatenate([np.arange(offsets[j], offsets[j + 1]) for j in blocks])
        nz, pos, start = [], [], 0
        for j in blocks:
            span = np.arange(self.block_nz[j], self.block_nz[j + 1])
            nz.append(span)
            pos.append(self.cols[span] - offsets[j] + start)
            start += offsets[j + 1] - offsets[j]
        nz = np.concatenate(nz)
        return coords, self.rows[nz], np.concatenate(pos), self.vals[nz], coords.size

    def block_rmatvec(self, blocks, y):
        _, rows, pos, vals, width = self.gather(blocks)
        return self._sum_by(pos, vals * y[rows], width)

    def block_matvec(self, blocks, v):
        _, rows, pos, vals, _ = self.gather(blocks)
        return self._sum_by(rows, vals * v[pos], self.m)

    def row_abs_sums(self, blocks):
        _, rows, _, vals, _ = self.gather(blocks)
        return self._sum_by(rows, np.abs(vals), self.m)

    def matvec(self, x):
        return self._sum_by(self.rows, self.vals * x[self.cols], self.m)

    def rmatvec(self, y):
        return self._sum_by(self.cols, self.vals * y[self.rows], self.n)

    def col_abs_sums(self):
        return self._sum_by(self.cols, np.abs(self.vals), self.n)


def verify_saddle_point(instance, x, y, num_directions: int = 200,
                        step: float = 1e-6, seed: int = 0) -> float:
    """Worst directional first-order violation at (x, y) by perturbation.

    Returns max over random unit directions of the descent rate in x and the
    ascent rate in y (projected into [0,1] for box duals); <= tol certifies
    the first-order saddle conditions at that tolerance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rng = np.random.Generator(np.random.PCG64(seed))
    base = instance.lagrangian(x, y)
    scale = 1.0 + abs(base)
    boxed = isinstance(instance.dual_fn, BoxLinearDual)
    worst = 0.0
    for _ in range(num_directions):
        dx = rng.standard_normal(x.shape)
        dx /= np.linalg.norm(dx)
        drop = (base - instance.lagrangian(x + step * dx, y)) / (step * scale)
        worst = max(worst, drop)
        dy = rng.standard_normal(y.shape)
        dy /= np.linalg.norm(dy)
        y_pert = np.clip(y + step * dy, 0.0, 1.0) if boxed else y + step * dy
        rise = (instance.lagrangian(x, y_pert) - base) / (step * scale)
        worst = max(worst, rise)
    return worst


def reference_optimum(instance, tol: float = 1e-10, window: int = 50,
                      max_passes: int = 200_000, check_tol: float | None = None,
                      verify_directions: int = 200) -> SaddlePoint:
    """High-accuracy saddle point via a long reference run.

    Lasso instances use the accelerated shrinkage path and recover y* from
    the conjugate maximizer A x* - b; the other applications run the
    diagonally preconditioned primal-dual method and keep its dual iterate.
    Stops when the objective changes by less than ``tol`` (relative) over
    ``window`` passes; verifies the first-order conditions by perturbation
    before returning.
    """
    if check_tol is None:
        check_tol = max(1e-6, 5.0 * math.sqrt(tol))

    if isinstance(instance.dual_fn, QuadraticDual):
        A = instance.coupling.matrix.values
        x_star, _ = fista_reference(A, instance.dual_fn.b, instance.meta["lam"],
                                    tol=tol, window=window, max_passes=max_passes)
        y_star = argmax_inner(instance.dual_fn, instance.coupling.matvec(x_star))
    elif isinstance(instance.dual_fn, (LinearDual, BoxLinearDual)):
        x_star, y_star = preconditioned_reference(instance, tol=tol, window=window,
                                                  max_passes=max_passes)
    else:
        raise ValueError(f"no reference path for {type(instance.dual_fn).__name__}")

    violation = verify_saddle_point(instance, x_star, y_star,
                                    num_directions=verify_directions)
    if violation > check_tol:
        raise ConvergenceError(
            f"reference point fails first-order check: violation {violation:.3e} "
            f"> {check_tol:.3e}"
        )
    return SaddlePoint(x_star=x_star, y_star=y_star, tolerance=check_tol)
