"""Problem builders and synthetic generators for the three benchmark
applications: lasso, robust low-rank/sparse matrix decomposition, and group
lasso with hinge loss.

Every builder yields a ``SepCCSPInstance``: block-separable functions f_j, a
dual function g*, and a ``matrices.Coupling`` (a ``DenseCoupling`` for lasso,
the ``IdentityStackCoupling`` of the low-rank + sparse problem, a
``SparseCoupling`` of the one-hot group-lasso features) tied together with
the application's own objective and residual evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np

from .errors import ConfigError
from .functions import (
    BlockProx,
    BoxLinearDual,
    GroupL2Block,
    L1Block,
    LinearDual,
    NuclearBlock,
    QuadraticBlock,
    QuadraticDual,
)
from .matrices import (
    BlockPartition,
    Coupling,
    DenseCoupling,
    DenseMatrix,
    IdentityStackCoupling,
    SparseCoupling,
    _values,
    spectral_norm_estimate,
)


@dataclass(eq=False)
class SepCCSPInstance:
    """One separable saddle-point problem: min_x max_y f(x) + <y, Ax> - g*(y)."""

    coupling: Coupling
    block_fns: tuple
    dual_fn: object
    primal_objective: Callable[[np.ndarray], float]
    residual_kind: str  # "constraint" | "suboptimality"
    name: str = ""
    meta: dict = field(default_factory=dict)
    reference_objective: float | None = None

    def __post_init__(self):
        self.block_fns = tuple(self.block_fns)
        if len(self.block_fns) != self.coupling.num_blocks:
            raise ConfigError(
                f"{len(self.block_fns)} block functions for "
                f"{self.coupling.num_blocks} blocks"
            )
        for j, fn in enumerate(self.block_fns):
            if not callable(getattr(fn, "prox", None)) or not callable(getattr(fn, "value", None)):
                raise ConfigError(f"block function {j} ({fn!r}) lacks prox/value")
        for attr in ("resolvent", "value"):
            if not callable(getattr(self.dual_fn, attr, None)):
                raise ConfigError(f"dual function {self.dual_fn!r} lacks {attr}")
        if self.residual_kind not in ("constraint", "suboptimality"):
            raise ConfigError(f"unknown residual kind {self.residual_kind!r}")
        if not np.isfinite(self.primal_objective(np.zeros(self.n))):
            raise ConfigError("primal objective must be finite at zero")
        # the prox of any set of blocks, batched by function class; built
        # here so that no solve builds it inside its first pass
        self.block_prox = BlockProx(self.block_fns, self.coupling.partition.block_sizes)

    @property
    def m(self) -> int:
        return self.coupling.m

    @property
    def n(self) -> int:
        return self.coupling.n

    @property
    def num_blocks(self) -> int:
        return self.coupling.num_blocks

    def block_slice(self, j: int) -> slice:
        return self.coupling.block_slice(j)

    def objective(self, x) -> float:
        return float(self.primal_objective(np.asarray(x, dtype=float)))

    def separable_value(self, x) -> float:
        """f(x) = sum_j f_j(x_j)."""
        x = np.asarray(x, dtype=float)
        return float(sum(fn.value(x[self.block_slice(j)]) for j, fn in enumerate(self.block_fns)))

    def lagrangian(self, x, y) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.separable_value(x) + float(y @ self.coupling.matvec(x)) - self.dual_fn.value(y)

    def residual(self, x) -> float:
        if self.residual_kind == "constraint":
            return float(np.linalg.norm(self.coupling.matvec(x) - self.dual_fn.b))
        if self.reference_objective is None:
            return float("nan")
        ref = self.reference_objective
        return (self.objective(x) - ref) / max(1.0, abs(ref))

    def __repr__(self):
        return f"SepCCSPInstance({self.name or 'custom'}, m={self.m}, n={self.n}, J={self.num_blocks})"


# ---------------------------------------------------------------------------
# Lasso:  min_x (1/2)||Ax - b||^2 + lam ||x||_1
# ---------------------------------------------------------------------------

def make_lasso(A, b, lam: float) -> SepCCSPInstance:
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not isinstance(A, DenseMatrix):
        A = DenseMatrix(A, order="F")  # the coupling's layout; no second copy
    b = np.asarray(b, dtype=float).copy()
    if b.shape != (A.rows,):
        raise ValueError(f"b has shape {b.shape}, expected ({A.rows},)")
    b.setflags(write=False)
    coupling = DenseCoupling(A, BlockPartition.singletons(A.cols))

    def objective(x):
        r = coupling.matvec(x) - b
        return 0.5 * float(r @ r) + lam * float(np.abs(x).sum())

    return SepCCSPInstance(
        coupling=coupling,
        block_fns=(L1Block(lam),) * A.cols,
        dual_fn=QuadraticDual(b),
        primal_objective=objective,
        residual_kind="suboptimality",
        name="lasso",
        meta={"lam": lam},
    )


def lasso_data(instance: SepCCSPInstance):
    """(A, b, lam) of a ``make_lasso`` instance: its matrix, its dual's b, its lam."""
    return instance.coupling.matrix, instance.dual_fn.b, instance.meta["lam"]


def gen_lasso(m: int, n: int, d: int, seed: int, normalize: bool = True):
    """Standard-normal design with a d-sparse planted solution.

    ``normalize=True`` scales columns to unit l2 norm. b = A x_true + eps with
    eps ~ N(0, 1e-3 I); lam = 0.1 ||A^T b||_inf. Deterministic given seed.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    A = rng.standard_normal((m, n))
    if normalize:
        A = A / np.linalg.norm(A, axis=0)
    x_true = np.zeros(n)
    support = rng.choice(n, size=d, replace=False)
    x_true[support] = rng.standard_normal(d)
    b = A @ x_true + rng.normal(0.0, np.sqrt(1e-3), size=m)
    lam = 0.1 * float(np.abs(A.T @ b).max())
    return DenseMatrix(A), b, lam


# ---------------------------------------------------------------------------
# Robust low-rank + sparse decomposition:
#   min (1/2)||X1||_F^2 + mu2 ||X2||_1 + mu3 ||X3||_*  s.t.  X1 + X2 + X3 = B
# ---------------------------------------------------------------------------

def rpca_default_penalties(B) -> tuple[float, float]:
    """mu2 = 0.15 ||B||_inf, mu3 = 0.15 ||B||_2."""
    B = np.asarray(B, dtype=float)
    mu2 = 0.15 * float(np.abs(B).max())
    mu3 = 0.15 * spectral_norm_estimate(B, tol=1e-8)
    return mu2, mu3


def make_rpca(B, mu2: float, mu3: float) -> SepCCSPInstance:
    if mu2 <= 0 or mu3 <= 0:
        raise ValueError("mu2 and mu3 must be positive")
    B = np.asarray(B, dtype=float)
    if B.ndim != 2:
        raise ValueError("B must be a matrix")
    rows, cols = B.shape
    size = rows * cols
    coupling = IdentityStackCoupling(size, 3)
    b = B.ravel().copy()
    b.setflags(write=False)
    nuclear = NuclearBlock(mu3, rows, cols)

    def objective(x):
        x1, x2, x3 = x[:size], x[size:2 * size], x[2 * size:]
        return 0.5 * float(x1 @ x1) + mu2 * float(np.abs(x2).sum()) + nuclear.value(x3)

    return SepCCSPInstance(
        coupling=coupling,
        block_fns=(QuadraticBlock(), L1Block(mu2), nuclear),
        dual_fn=LinearDual(b),
        primal_objective=objective,
        residual_kind="constraint",
        name="rpca",
        meta={"mu2": mu2, "mu3": mu3, "shape": (rows, cols)},
    )


def gen_rpca(m: int, n: int, r: int, seed: int):
    """Observation B = L0 + S0 + N0: rank-r L0 = U V^T, a 5% sparse S0 with
    symmetric Laplace spikes scaled to ||L0||_inf, and dense Gaussian noise
    of standard deviation 1e-3."""
    if not 1 <= r <= min(m, n):
        raise ValueError(f"need 1 <= r <= min(m, n), got r={r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    L0 = rng.standard_normal((m, r)) @ rng.standard_normal((n, r)).T
    S0 = np.zeros((m, n))
    k = int(round(0.05 * m * n))
    spots = rng.choice(m * n, size=k, replace=False)
    S0.flat[spots] = rng.laplace(0.0, float(np.abs(L0).max()), size=k)
    N0 = rng.normal(0.0, 1e-3, size=(m, n))
    return L0 + S0 + N0


# ---------------------------------------------------------------------------
# Group lasso with hinge loss:
#   min_x lam * sum_g sqrt(d_g) ||x_g|| + (1/N) sum_i max(0, 1 - z_i a_i^T x)
# ---------------------------------------------------------------------------

def make_group_lasso_hinge(features, labels, groups: BlockPartition,
                           lam: float) -> SepCCSPInstance:
    """Group g is block g of ``groups``, with weight lam * sqrt(d_g) for its
    size d_g; the builder computes the weights once, here."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    F = _values(features)
    z = np.asarray(labels, dtype=float)
    if not np.all(np.isin(z, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    n_samples = F.shape[0]
    if z.shape != (n_samples,):
        raise ValueError("labels length must match feature rows")
    if F.shape[1] != groups.total:
        raise ValueError(f"feature width {F.shape[1]} != sum of group sizes {groups.total}")

    # the nonzeros of A = -(z F) / N, scaled bitwise equal to it, from one
    # row-major scan; the features themselves are neither copied nor kept
    rows, cols = np.divmod(np.flatnonzero(F != 0), F.shape[1])
    vals = z[rows] * F[rows, cols]
    np.divide(vals, -n_samples, out=vals)
    coupling = SparseCoupling(rows, cols, vals, n_samples, groups)
    weights = lam * np.sqrt(np.asarray(groups.block_sizes, dtype=float))
    starts = np.asarray(groups.offsets[:-1])

    def objective(x):
        x = np.asarray(x, dtype=float)
        group_norms = np.sqrt(np.add.reduceat(x * x, starts))
        # z * (F x) = -N (A x)
        hinge = np.maximum(0.0, 1.0 + n_samples * coupling.matvec(x)).mean()
        return float(weights @ group_norms + hinge)

    return SepCCSPInstance(
        coupling=coupling,
        block_fns=tuple(GroupL2Block(float(w)) for w in weights),
        dual_fn=BoxLinearDual(-1.0 / n_samples),
        primal_objective=objective,
        residual_kind="suboptimality",
        name="group-lasso",
        meta={"lam": lam},
    )


_GL_POSITIONS = 7
_GL_ALPHABET = 4


def group_lasso_structure() -> BlockPartition:
    """7 single-position groups of 4, 21 pair groups of 16, 35 triple groups
    of 64: one-hot encodings of a 7-position, 4-letter sequence and its
    pairwise/threeway interactions (2604 features in 63 groups)."""
    sizes = (
        [_GL_ALPHABET] * _GL_POSITIONS
        + [_GL_ALPHABET ** 2] * len(list(combinations(range(_GL_POSITIONS), 2)))
        + [_GL_ALPHABET ** 3] * len(list(combinations(range(_GL_POSITIONS), 3)))
    )
    return BlockPartition(sizes)


def gen_group_lasso(seed: int, n_samples: int = 2000, active_fraction: float = 0.2,
                    label_noise: float = 0.1):
    """Synthetic sequence-classification data with the 2604-dim/63-group
    interaction structure.

    Samples are uniform random 7-letter sequences over a 4-letter alphabet;
    features are the one-hot single/pair/triple indicators, so column
    densities fall from 1/4 to 1/64 across group orders. Labels come from a
    group-sparse linear model (``active_fraction`` of groups) plus Gaussian
    noise, centered for class balance. Deterministic given seed.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")
    if not 0 < active_fraction <= 1:
        raise ValueError(f"active_fraction must lie in (0, 1], got {active_fraction!r}")
    if not (math.isfinite(label_noise) and label_noise >= 0):
        raise ValueError(f"label_noise must be finite and >= 0, got {label_noise!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    Q, L = _GL_ALPHABET, _GL_POSITIONS
    seqs = rng.integers(0, Q, size=(n_samples, L))
    groups = group_lasso_structure()
    X = np.zeros((n_samples, groups.total))
    rows = np.arange(n_samples)
    col = 0
    for p in range(L):
        X[rows, col + seqs[:, p]] = 1.0
        col += Q
    for p, q in combinations(range(L), 2):
        X[rows, col + seqs[:, p] * Q + seqs[:, q]] = 1.0
        col += Q * Q
    for p, q, r in combinations(range(L), 3):
        X[rows, col + (seqs[:, p] * Q + seqs[:, q]) * Q + seqs[:, r]] = 1.0
        col += Q ** 3
    num_active = max(1, int(round(active_fraction * groups.num_blocks)))
    active = rng.choice(groups.num_blocks, size=num_active, replace=False)
    x_true = np.zeros(groups.total)
    for g in active:
        x_true[groups.slice_of(g)] = rng.standard_normal(groups.block_sizes[g])
    score = X @ x_true
    score = score - score.mean()
    labels = np.sign(score + label_noise * rng.standard_normal(n_samples))
    labels[labels == 0] = 1.0
    return DenseMatrix(X), labels, groups
