"""Dense coupling matrices, column-block partitions, and the coupling
protocol the solvers use.

Matrices are float64 and immutable after construction. A ``DenseMatrix``
keeps the layout it was built with (C order by default). Every coupling is a
``Coupling``: a partition into column blocks plus the column-set operations
``gather`` (A_S for a set S of blocks, with A_S^T y, A_S v and the row
absolute sums of A_S), the full products, and the stepsize quantities
(column absolute sums, block norms, spectral norm).
``DenseCoupling`` stores its matrix column-major, so a single block and any
run of consecutive blocks are views and a scattered set of blocks is one
gather of their columns; ``IdentityStackCoupling`` is the implicit
[I I ... I] of the low-rank + sparse problem.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np


class DenseMatrix:
    """Immutable dense m x n matrix with finite entries.

    The backing array is frozen (``writeable=False``) so derived quantities
    can be cached safely.
    """

    def __init__(self, data, order: str = "C"):
        self._freeze(np.array(data, dtype=float, order=order))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "DenseMatrix":
        """Wrap a float64 array its builder owns and no longer writes,
        without copying it; the same checks as the constructor."""
        matrix = cls.__new__(cls)
        matrix._freeze(arr)
        return matrix

    def _freeze(self, arr: np.ndarray):
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix must have at least one row and column, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        self._data = arr

    @property
    def values(self) -> np.ndarray:
        return self._data

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"


class BlockPartition:
    """Column blocks of widths n_1..n_J; ``offsets`` are the prefix sums."""

    def __init__(self, block_sizes):
        sizes = tuple(int(s) for s in block_sizes)
        if not sizes:
            raise ValueError("partition needs at least one block")
        if any(s < 1 for s in sizes):
            raise ValueError(f"every block size must be >= 1, got {sizes}")
        self.block_sizes = sizes
        self.offsets = tuple(np.concatenate(([0], np.cumsum(sizes))).tolist())
        self.offset_array = np.asarray(self.offsets, dtype=np.intp)
        self.offset_array.setflags(write=False)

    @classmethod
    def singletons(cls, n: int) -> "BlockPartition":
        """n single-coordinate blocks."""
        return cls([1] * n)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def total(self) -> int:
        return self.offsets[-1]

    def slice_of(self, j: int) -> slice:
        if not 0 <= j < self.num_blocks:
            raise ValueError(f"block index {j} out of range [0, {self.num_blocks})")
        return slice(self.offsets[j], self.offsets[j + 1])

    def __repr__(self):
        return f"BlockPartition({list(self.block_sizes)})"


def block_coords(offsets: np.ndarray, blocks):
    """Coordinates covered by the sorted, distinct ``blocks`` of the partition
    with prefix sums ``offsets``, in block order.

    A slice when the blocks are consecutive (so indexing with it makes a
    view), otherwise an index array.
    """
    blocks = np.asarray(blocks)
    first, last = int(blocks[0]), int(blocks[-1])
    if last - first == blocks.size - 1:
        return slice(int(offsets[first]), int(offsets[last + 1]))
    if offsets[-1] == offsets.size - 1:  # every block is one coordinate
        return blocks
    starts = offsets[blocks]
    sizes = offsets[blocks + 1] - starts
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) + np.repeat(starts - ends + sizes, sizes)


def selected_blocks(blocks, num_blocks: int) -> np.ndarray:
    """The distinct indices in ``blocks``, sorted; raises ValueError when the
    selection is empty or an index lies outside [0, num_blocks)."""
    idx = np.unique(np.asarray(blocks, dtype=np.intp))
    if not idx.size:
        raise ValueError("block selection must be nonempty")
    if idx[0] < 0 or idx[-1] >= num_blocks:
        raise ValueError(f"block indices {idx.tolist()} out of range [0, {num_blocks})")
    return idx


def _values(A) -> np.ndarray:
    return A.values if isinstance(A, DenseMatrix) else np.asarray(A, dtype=float)


class SpectralEstimate(NamedTuple):
    value: float
    converged: bool
    iterations: int


# Deterministic start vector for the power iteration: a fixed non-uniform
# pattern so it is never orthogonal to the top singular subspace of the
# matrices we care about; a second fixed pattern is tried if the first one
# lands in the null space.
def _power_start(n: int, variant: int = 0) -> np.ndarray:
    if variant == 0:
        v = 1.0 + (np.arange(n) % 13) / 13.0
    else:
        v = 1.0 + np.sin(np.arange(n) + 1.0)
    return v / np.linalg.norm(v)


def spectral_norm_estimate(A, tol: float = 1e-6, max_iters: int = 1000) -> SpectralEstimate:
    """Largest singular value via power iteration on A^T A.

    Deterministic given the fixed start vector. Stops once successive
    estimates agree to relative ``tol``; if that never happens the best
    estimate is returned with ``converged=False``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    M = _values(A)
    if not np.any(M):
        return SpectralEstimate(0.0, True, 0)
    v = _power_start(M.shape[1])
    sigma_prev = 0.0
    for it in range(1, max_iters + 1):
        w = M @ v
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            v = _power_start(M.shape[1], variant=1)
            continue
        if abs(sigma - sigma_prev) <= 0.25 * tol * sigma:
            return SpectralEstimate(sigma, True, it)
        sigma_prev = sigma
        z = M.T @ w
        v = z / np.linalg.norm(z)
    return SpectralEstimate(sigma_prev, False, max_iters)


class Coupling:
    """A coupling operator over column blocks: the one interface the block
    engine and the baselines use.

    A subclass sets ``partition`` and ``m`` and supplies ``gather(blocks)``
    (the columns of sorted, distinct blocks, with ``index``, ``rmatvec``,
    ``matvec`` and ``row_abs_sums``), ``matvec``, ``rmatvec``,
    ``col_abs_sums``, ``block_norms`` and ``spectral_norm``.
    """

    partition: BlockPartition
    m: int

    @property
    def n(self) -> int:
        return self.partition.total

    @property
    def num_blocks(self) -> int:
        return self.partition.num_blocks

    def block_slice(self, j: int) -> slice:
        return self.partition.slice_of(j)

    def row_abs_sums(self, blocks) -> np.ndarray:
        """Row absolute sums over the selected blocks (duplicates collapse)."""
        return self.gather(selected_blocks(blocks, self.num_blocks)).row_abs_sums()


class DenseColumns:
    """The columns A_S of a set S of blocks, gathered once for both products
    and the dual stepsize rule.

    ``index`` selects S's coordinates of a primal vector, in block order.
    """

    __slots__ = ("index", "values", "blocks", "_coupling")

    def __init__(self, values: np.ndarray, index, blocks, coupling: "DenseCoupling"):
        self.values = values
        self.index = index
        self.blocks = blocks
        self._coupling = coupling

    def rmatvec(self, y) -> np.ndarray:
        """A_S^T y."""
        return self.values.T @ y

    def matvec(self, v) -> np.ndarray:
        """A_S v, for v ordered like ``index``."""
        return self.values @ v

    def row_abs_sums(self) -> np.ndarray:
        """sum over d in S of |A_kd|, for every row k.

        Summed over the gathered columns when every block is one column;
        otherwise the selected blocks' rows of the coupling's per-block cache
        are added, which is cheaper than summing wide blocks afresh.
        """
        if self._coupling.single_columns:
            return np.abs(self.values).sum(axis=1)
        return self._coupling._block_row_abs_sums[self.blocks].sum(axis=0)


class DenseCoupling(Coupling):
    """Column-block view of a dense coupling matrix, stored column-major.

    A matrix in C order is copied once into Fortran order; builders that own
    their data construct it in Fortran order directly so that no second copy
    exists. Caches the derived stepsize quantities (column sums, block norms,
    the spectral norm) so they are computed once per instance; the per-block
    row sums behind the dual stepsize rule are cached only when some block is
    wider than one column. Immutable.
    """

    def __init__(self, matrix: DenseMatrix, partition: BlockPartition):
        if not isinstance(matrix, DenseMatrix):
            matrix = DenseMatrix(matrix, order="F")
        elif not matrix.values.flags.f_contiguous:
            matrix = DenseMatrix(matrix.values, order="F")
        if partition.total != matrix.cols:
            raise ValueError(
                f"partition covers {partition.total} columns, matrix has {matrix.cols}"
            )
        self.matrix = matrix
        self.partition = partition
        self.m = matrix.rows
        self.single_columns = partition.total == partition.num_blocks

    def block(self, j: int) -> np.ndarray:
        return self.matrix.values[:, self.partition.slice_of(j)]

    def gather(self, blocks) -> DenseColumns:
        """A_S for the sorted, distinct ``blocks``: a view when they are
        consecutive, otherwise one gather of their columns."""
        index = block_coords(self.partition.offset_array, blocks)
        return DenseColumns(self.matrix.values[:, index], index, blocks, self)

    def matvec(self, x) -> np.ndarray:
        return self.matrix.values @ x

    def rmatvec(self, y) -> np.ndarray:
        return self.matrix.values.T @ y

    @cached_property
    def col_abs_sums(self) -> np.ndarray:
        """Per-column sums of absolute entries: the adaptive primal penalty."""
        out = np.abs(self.matrix.values).sum(axis=0)
        out.setflags(write=False)
        return out

    @cached_property
    def _block_row_abs_sums(self) -> np.ndarray:
        # (J, m): row absolute sums within each block, built on the first
        # wide selection; single-column partitions never need it
        out = np.stack([
            np.abs(self.block(j)).sum(axis=1) for j in range(self.num_blocks)
        ])
        out.setflags(write=False)
        return out

    @cached_property
    def block_norms(self) -> tuple[float, ...]:
        return tuple(
            spectral_norm_estimate(self.block(j), tol=1e-10, max_iters=5000).value
            for j in range(self.num_blocks)
        )

    @cached_property
    def spectral_norm(self) -> float:
        return spectral_norm_estimate(self.matrix, tol=1e-8, max_iters=5000).value

    def __repr__(self):
        return f"DenseCoupling({self.m}x{self.n}, J={self.num_blocks})"


class StackColumns:
    """The columns of ``count`` identity blocks of size m: A_S = [I ... I].

    ``index`` selects their coordinates of a primal vector, in block order.
    """

    __slots__ = ("index", "count", "m")

    def __init__(self, index, count: int, m: int):
        self.index = index
        self.count = count
        self.m = m

    def rmatvec(self, y) -> np.ndarray:
        """A_S^T y: y once per block."""
        return np.tile(y, self.count)

    def matvec(self, v) -> np.ndarray:
        """A_S v: the sum of v's blocks, added in block order."""
        return np.asarray(v).reshape(self.count, self.m).sum(axis=0)

    def row_abs_sums(self) -> np.ndarray:
        """Every row of A_S holds ``count`` ones."""
        return float(self.count) * np.ones(self.m)


class IdentityStackCoupling(Coupling):
    """Structural [I I ... I] coupling: J identity blocks of size m.

    Never materialized; every stepsize quantity has a closed form.
    """

    def __init__(self, m: int, num_blocks: int):
        if m < 1 or num_blocks < 1:
            raise ValueError("m and num_blocks must be >= 1")
        self.m = int(m)
        self.partition = BlockPartition([self.m] * int(num_blocks))

    def gather(self, blocks) -> StackColumns:
        """A_S for the sorted, distinct ``blocks``."""
        index = block_coords(self.partition.offset_array, blocks)
        return StackColumns(index, len(blocks), self.m)

    def matvec(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(self.num_blocks, self.m).sum(axis=0)

    def rmatvec(self, y) -> np.ndarray:
        return np.tile(np.asarray(y, dtype=float), self.num_blocks)

    @cached_property
    def col_abs_sums(self) -> np.ndarray:
        out = np.ones(self.n)
        out.setflags(write=False)
        return out

    @property
    def block_norms(self) -> tuple:
        return (1.0,) * self.num_blocks

    @property
    def spectral_norm(self) -> float:
        return float(np.sqrt(self.num_blocks))

    def __repr__(self):
        return f"IdentityStackCoupling(m={self.m}, J={self.num_blocks})"
