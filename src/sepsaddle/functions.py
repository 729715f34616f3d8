"""Block function and dual function descriptors with closed-form prox dispatch.

A block term must expose ``value(x)``, ``prox(v, h)`` and a ``separable``
flag; non-separable terms (group L2, nuclear) only admit a closed-form prox
under a block-uniform metric, so they collapse a vector ``h`` to its maximum.
That uniform penalty dominates the per-dimension adaptive values, which keeps
the stepsize validity matrix positive semidefinite.

``BlockProx`` takes the prox of a whole set of selected blocks with one
call per function class, which is how the block engine uses these terms.

A dual term exposes ``value(y)`` and ``resolvent(y_prev, u, sigma)``; each
problem evaluates its primal objective directly, not through the conjugate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matrices import block_coords, smaller_gram
from .prox import (
    dual_resolvent_box_linear,
    dual_resolvent_linear,
    dual_resolvent_quadratic,
    prox_group_l2,
    prox_group_l2_segments,
    prox_l1,
    prox_nuclear,
    prox_quadratic_frobenius,
)


def _scalar_metric(h) -> float:
    return float(np.max(h))


def _check_weight(fn, positive: bool = False):
    """A weight its prox can use: finite and >= 0, or > 0 where ``positive``."""
    w = fn.weight
    if not (math.isfinite(w) and (w > 0 if positive else w >= 0)):
        need = "> 0" if positive else ">= 0"
        raise ValueError(f"{type(fn).__name__} weight must be finite and {need}, got {w!r}")


@dataclass(frozen=True)
class L1Block:
    """f(x) = weight * ||x||_1."""

    weight: float
    separable = True

    def __post_init__(self):
        _check_weight(self)

    def value(self, x) -> float:
        return self.weight * float(np.abs(x).sum())

    def prox(self, v, h) -> np.ndarray:
        return prox_l1(v, self.weight / np.asarray(h, dtype=float))


@dataclass(frozen=True)
class GroupL2Block:
    """f(x) = weight * ||x||_2 (one group)."""

    weight: float
    separable = False

    def __post_init__(self):
        _check_weight(self, positive=True)  # its prox takes tau > 0

    def value(self, x) -> float:
        return self.weight * float(np.linalg.norm(x))

    def prox(self, v, h) -> np.ndarray:
        return prox_group_l2(v, self.weight / _scalar_metric(h))


@dataclass(frozen=True)
class QuadraticBlock:
    """f(x) = (1/2) ||x||^2."""

    separable = True

    def value(self, x) -> float:
        x = np.asarray(x)
        return 0.5 * float(x @ x)

    def prox(self, v, h) -> np.ndarray:
        return prox_quadratic_frobenius(v, np.asarray(h, dtype=float))


@dataclass(frozen=True)
class NuclearBlock:
    """f(X) = weight * ||X||_* on a vectorized (rows x cols) matrix block.

    The value takes no SVD: the singular values are the square roots of the
    eigenvalues of the Gram matrix of the smaller side (r = min(rows, cols)),
    formed after scaling X by its largest |entry| so that no finite input
    overflows or underflows. Eigenvalues at or below r*eps*lambda_max are
    rounding noise and are dropped, as in ``prox.prox_nuclear``. Each
    eigenvalue is exact to about r*eps*||X||_2^2, so a singular value is off
    by at most sqrt(2*r*eps)*||X||_2 and the sum by r times that; a singular
    value above sqrt(eps)*||X||_2 keeps near full relative accuracy. A zero
    block has value 0.0, and one with a NaN or an infinite entry NaN.
    """

    weight: float
    rows: int
    cols: int
    separable = False

    def __post_init__(self):
        _check_weight(self)

    def _mat(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(self.rows, self.cols)

    def value(self, x) -> float:
        X = self._mat(x)
        scale = float(np.abs(X).max())
        if not math.isfinite(scale):
            return math.nan
        if scale == 0.0:
            return 0.0
        lam = np.linalg.eigvalsh(smaller_gram(X / scale))
        keep = lam > min(X.shape) * np.finfo(float).eps * lam[-1]
        return self.weight * scale * float(np.sqrt(lam[keep]).sum())

    def prox(self, v, h) -> np.ndarray:
        tau = self.weight / _scalar_metric(h)
        return prox_nuclear(self._mat(v), tau).ravel()


# Function classes of BlockProx; blocks of class _OWN call their own prox,
# and _ONE_GROUP is a selection of one block of an all-group instance.
_OWN, _SOFT, _QUADRATIC, _GROUP, _ONE_GROUP = range(5)
_FIRST = np.zeros(1, dtype=np.intp)  # reduceat start of a single segment


def _prox_class(fn) -> tuple[int, float]:
    """(class, weight) of a block function; exact types only, since a
    subclass may redefine ``prox``."""
    kind = type(fn)
    if kind is L1Block:
        return _SOFT, fn.weight
    if kind is QuadraticBlock:
        return _QUADRATIC, 0.0
    if kind is GroupL2Block:
        return _GROUP, fn.weight
    return _OWN, 0.0


def _apply(kind, v, parameter) -> np.ndarray:
    """The prox of one function class at v, from its ``BlockProx.plan``
    parameter: the L1 thresholds w/h, the quadratic factor h/(1+h), the
    group segment starts and tau_j = w_j / max h_j, or one group's tau.

    One group is ``prox_group_l2_segments`` of one segment, bitwise in half
    the numpy calls: its norm by the same ``np.add.reduceat``
    (``np.add.reduce`` and ``v @ v`` add in another order), then one scale,
    0 when the group is shrunk away."""
    if kind == _SOFT:
        return prox_l1(v, parameter)
    if kind == _QUADRATIC:
        return v * parameter
    if kind == _ONE_GROUP:
        norm = np.sqrt(np.add.reduceat(v * v, _FIRST)[0])
        return v * (1.0 - parameter / norm if norm > parameter else 0.0)
    return prox_group_l2_segments(v, *parameter)


class ProxPlan(NamedTuple):
    """What ``BlockProx`` derives from the metric h for one block selection:
    the (block, slice of v) of every block that calls its own prox, and the
    (class, positions in v, parameter) of every batched class present."""

    own: tuple
    classes: tuple


class BlockProx:
    """The prox of a set of blocks, with one call per function class.

    L1 blocks (weight 0 is the zero function) and quadratic blocks are
    coordinatewise, so all their selected coordinates take one elementwise
    prox, with thresholds from the blocks' weights. Group-L2 blocks are
    shrunk together from segment norms. Any other block (nuclear, or a
    user-defined function) calls its own ``prox`` inline. Every block writes
    only its own coordinates and the result is a new array.

    A call derives each class's parameter from h (``plan``). A run that takes
    the prox of the same blocks under the same h again and again (the engine
    at K = 1 and K = J, pdcp) builds those plans once and passes them in; a
    plan belongs to the run, since one instance is solved under several
    metrics.
    """

    def __init__(self, block_fns, block_sizes):
        self.fns = tuple(block_fns)
        self.sizes = np.asarray(block_sizes, dtype=np.intp)
        kinds, weights = zip(*map(_prox_class, self.fns))
        self.kinds = np.array(kinds)
        self.weights = np.array(weights, dtype=float)
        # one coordinate per block: the L1 weights of a selection are its blocks' weights
        self.singletons = bool((self.sizes == 1).all())
        self.single_class = kinds[0] if len(set(kinds)) == 1 else None

    def __call__(self, v, h, blocks, plan=None) -> np.ndarray:
        """argmin_x sum_{j in blocks} f_j(x_j) + (1/2)||x - v||^2_diag(h).

        ``blocks`` are sorted and distinct, and v, h and the result are
        ordered like their coordinates (``matrices.block_coords``). ``plan``
        is ``self.plan(h, blocks)``, when the caller holds it.
        """
        if plan is None:
            plan = self.plan(h, blocks)
        if self.single_class not in (None, _OWN):
            (kind, _, parameter), = plan.classes
            return _apply(kind, v, parameter)
        x = np.empty_like(v)
        for j, sl in plan.own:
            x[sl] = self.fns[j].prox(v[sl], h[sl])
        for kind, pos, parameter in plan.classes:
            x[pos] = _apply(kind, v[pos], parameter)
        return x

    def plan(self, h, blocks) -> ProxPlan:
        """The ``ProxPlan`` of the selected blocks under the metric h
        (ordered like their coordinates): the L1 thresholds w/h, the
        quadratic factor h/(1+h) and the group tau_j = w_j / max h_j, each a
        new array; one block of an all-group instance has its tau alone."""
        blocks = np.asarray(blocks)
        if self.single_class == _GROUP and blocks.size == 1:
            tau = self.weights[blocks[0]] / h.max()
            return ProxPlan((), ((_ONE_GROUP, slice(None), tau),))
        sizes = self.sizes[blocks]
        if self.single_class not in (None, _OWN):
            parameter = self._parameter(self.single_class, h, blocks, sizes)
            return ProxPlan((), ((self.single_class, slice(None), parameter),))
        seg = np.concatenate(([0], np.cumsum(sizes)))
        kinds = self.kinds[blocks]
        own = tuple((blocks[k], slice(seg[k], seg[k + 1]))
                    for k in np.flatnonzero(kinds == _OWN))
        classes = []
        for kind in (_SOFT, _QUADRATIC, _GROUP):
            ks = np.flatnonzero(kinds == kind)
            if ks.size:
                pos = block_coords(seg, ks)
                parameter = self._parameter(kind, h[pos], blocks[ks], sizes[ks])
                classes.append((kind, pos, parameter))
        return ProxPlan(own, tuple(classes))

    def _parameter(self, kind, h, blocks, sizes):
        if kind == _SOFT:
            w = self.weights[blocks]
            return (w if self.singletons else np.repeat(w, sizes)) / h
        if kind == _QUADRATIC:
            return h / (1.0 + h)
        starts = np.cumsum(sizes) - sizes
        # h is uniform on a group block; its maximum is the block's metric
        return starts, self.weights[blocks] / np.maximum.reduceat(h, starts)


@dataclass(frozen=True, eq=False)
class LinearDual:
    """g*(y) = <y, b>; the Lagrangian dual of the equality constraint Ax = b."""

    b: np.ndarray

    def value(self, y) -> float:
        return float(self.b @ y)

    def resolvent(self, y_prev, u, sigma) -> np.ndarray:
        return dual_resolvent_linear(y_prev, u, self.b, sigma)


@dataclass(frozen=True, eq=False)
class QuadraticDual:
    """g*(y) = sum(y^2/2 + b*y); the conjugate of the square loss (1/2)||u - b||^2."""

    b: np.ndarray

    def value(self, y) -> float:
        y = np.asarray(y)
        return 0.5 * float(y @ y) + float(self.b @ y)

    def resolvent(self, y_prev, u, sigma) -> np.ndarray:
        return dual_resolvent_quadratic(y_prev, u, self.b, sigma)


@dataclass(frozen=True)
class BoxLinearDual:
    """g*(y) = c * sum(y) restricted to y in [0,1]^m.

    c is the signed linear coefficient; the hinge-loss instance uses c = -1/N
    so that sup_y <y,u> - g*(y) = sum(max(0, u - c)) recovers the scaled
    hinge losses.
    """

    c: float

    def value(self, y) -> float:
        return self.c * float(np.sum(y))

    def resolvent(self, y_prev, u, sigma) -> np.ndarray:
        return dual_resolvent_box_linear(y_prev, u, self.c, sigma)
