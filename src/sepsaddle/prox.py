"""Closed-form proximal operators and dual resolvents under diagonal metrics.

Every function here solves its subproblem exactly:

    prox:      argmin_x  f(x) + (1/2) ||x - v||^2_diag(h)
    resolvent: argmin_y  g*(y) - <y, u> + (1/2) ||y - y_prev||^2_diag(sigma)

Thresholds/penalties may be scalars or per-coordinate vectors wherever the
subproblem stays coordinatewise separable.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError


def prox_l1(v, thresholds) -> np.ndarray:
    """Coordinatewise soft threshold: sign(v) * max(|v| - thresholds, 0).

    With thresholds = lam/h this is the exact minimizer of
    lam*|x| + (h/2)(x - v)^2.
    """
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - thresholds, 0.0)


def prox_group_l2(v, tau: float) -> np.ndarray:
    """Block shrinkage (1 - tau/||v||)_+ * v; exact minimizer of
    tau*||x|| + (1/2)||x - v||^2. Returns zero when ||v|| <= tau."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm <= tau:
        return np.zeros_like(v)
    return (1.0 - tau / norm) * v


def prox_group_l2_segments(v, starts, tau) -> np.ndarray:
    """``prox_group_l2`` on each segment of v at once: segment g starts at
    ``starts[g]`` (ascending, the first 0) and is shrunk with ``tau[g] > 0``."""
    v = np.asarray(v, dtype=float)
    norms = np.sqrt(np.add.reduceat(v * v, starts))
    keep = norms > tau
    scale = np.where(keep, 1.0 - tau / np.where(keep, norms, 1.0), 0.0)
    sizes = np.diff(np.append(starts, v.size))
    return v * np.repeat(scale, sizes)


def prox_nuclear(V, tau: float) -> np.ndarray:
    """Singular value thresholding: U max(S - tau, 0) W^T for V = U S W^T.

    Computed without an SVD, from the Gram matrix of the smaller side
    (Cai, Candes & Shen 2010): for V with rows <= cols, the eigenvectors
    U_k of V V^T whose eigenvalue may exceed tau^2 are the left singular
    vectors that can survive, P = U_k^T V has rows s_k w_k^T, and the result
    is U_k diag(1 - tau/s_k)_+ P (mirrored through V^T V for tall V). Each
    s_k is recomputed as the norm of its row of P, so it is accurate to
    eps*||V|| rather than the eigenvalue's eps*||V||^2/s_k, and it decides
    the threshold; an eigenvalue only preselects, with a margin of its own
    rounding error, so tau = 0 keeps every direction and returns V.

    Accuracy against an SVD-based threshold, max |entry| relative to
    ||V||_2: <= 1e-12 for tau >= 1e-3 ||V||_2, and <= 1e-8 for any tau >= 0.
    The looser bound is for tau near sqrt(eps)*||V||, where the singular
    directions below that size are mixed in the Gram matrix.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    M = np.asarray(V, dtype=float)
    wide = M.shape[0] <= M.shape[1]
    A = M if wide else M.T
    try:
        lam, U = np.linalg.eigh(A @ A.T)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(
            f"eigh of the Gram matrix failed on a {M.shape[0]}x{M.shape[1]} matrix "
            f"(fro norm {np.linalg.norm(M):.3e}, max |entry| {np.abs(M).max():.3e})"
        ) from exc
    slack = A.shape[0] * np.finfo(float).eps * lam.max(initial=0.0)
    Uk = U[:, lam > tau * tau - slack]
    P = Uk.T @ A
    s = np.linalg.norm(P, axis=1)
    keep = s > tau  # s = 0 is never kept, so tau/s is never 0/0
    scale = np.where(keep, 1.0 - tau / np.where(keep, s, 1.0), 0.0)
    X = Uk @ (scale[:, None] * P)
    return X if wide else X.T


def prox_quadratic_frobenius(v, h) -> np.ndarray:
    """Minimizer of (1/2)||x||^2 + (h/2)||x - v||^2, i.e. v*h/(1+h)."""
    v = np.asarray(v, dtype=float)
    return v * (h / (1.0 + h))


def dual_resolvent_linear(y_prev, u, b, sigma) -> np.ndarray:
    """Resolvent for g*(y) = <y, b>: y_prev + (u - b)/sigma, formed in one
    new array."""
    out = np.subtract(u, b, dtype=float)
    out /= sigma
    out += y_prev
    return out


def dual_resolvent_quadratic(y_prev, u, b, sigma) -> np.ndarray:
    """Resolvent for g*(y) = sum(y^2/2 + b*y): (sigma*y_prev + u - b)/(sigma + 1).

    sigma = 0 is allowed (the quadratic term keeps the subproblem strongly
    convex) and yields the unpenalized minimizer u - b.
    """
    y_prev = np.asarray(y_prev, dtype=float)
    return (sigma * y_prev + np.asarray(u, dtype=float) - b) / (np.asarray(sigma) + 1.0)


def dual_resolvent_box_linear(y_prev, u, c, sigma) -> np.ndarray:
    """Resolvent for g*(y) = c*sum(y) + indicator([0,1]^m):
    clip(y_prev + (u - c)/sigma, 0, 1), formed in one new array."""
    out = np.subtract(u, c, dtype=float)
    out /= sigma
    out += y_prev
    return out.clip(0.0, 1.0, out=out)
