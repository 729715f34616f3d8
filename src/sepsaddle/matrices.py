"""Coupling matrices (dense, sparse and structural), column-block
partitions, and the coupling protocol the solvers use.

Matrices are float64 and immutable after construction. A ``DenseMatrix``
keeps the layout it was built with (C order by default). Every coupling is a
``Coupling``: a partition into column blocks plus the column-set operations
``gather`` (A_S for a set S of blocks, with A_S^T y, A_S v and the row
absolute sums of A_S; each one-block set and the set of all blocks are built
once and cached), the full products (those of the set of all blocks), and
the stepsize quantities (column absolute sums, block norms, spectral norm).
``DenseCoupling`` stores its matrix column-major, so a single block and any
run of consecutive blocks are views and a scattered set of blocks is one
gather of their columns, into a copy that its row absolute sums overwrite
with |A_S| (so those sums are the set's last use); ``SparseCoupling`` stores
each block's nonzeros as slot rows of length m (ELLPACK, one row per nonzero
a row of the block can hold), so a block's rows are views, A_S^T y is one
``np.bincount`` and A_S v and the row absolute sums add slot rows;
``IdentityStackCoupling`` is the implicit [I I ... I] of the low-rank +
sparse problem.
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
        arr = np.array(data, dtype=float, order=order)
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
    with prefix sums ``offsets``, in block order; every block covers at least
    one coordinate.

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

    ``A`` is a matrix, or a ``Coupling`` whose full products are used.
    Deterministic given the fixed start vector. Stops once successive
    estimates agree to relative ``tol``; if that never happens the best
    estimate is returned with ``converged=False``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(A, Coupling):
        matvec, rmatvec, n = A.matvec, A.rmatvec, A.n
        zero = not np.any(A.col_abs_sums)
    else:
        M = _values(A)
        matvec, rmatvec, n = M.__matmul__, M.T.__matmul__, M.shape[1]
        zero = not np.any(M)
    if zero:
        return SpectralEstimate(0.0, True, 0)
    v = _power_start(n)
    sigma_prev = 0.0
    for it in range(1, max_iters + 1):
        w = matvec(v)
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            v = _power_start(n, variant=1)
            continue
        if abs(sigma - sigma_prev) <= 0.25 * tol * sigma:
            return SpectralEstimate(sigma, True, it)
        sigma_prev = sigma
        z = rmatvec(w)
        v = z / np.linalg.norm(z)
    return SpectralEstimate(sigma_prev, False, max_iters)


class Coupling:
    """A coupling operator over column blocks: the one interface the block
    engine and the baselines use.

    A subclass sets ``partition`` and ``m`` and supplies ``_gather(blocks)``
    (the columns of sorted, distinct blocks, with ``index``, ``rmatvec``,
    ``matvec`` and ``row_abs_sums``, each returning a new float64 array
    that the caller may overwrite), ``col_abs_sums`` and ``spectral_norm``,
    and either ``block(j)`` (block j as a dense array) or its own
    ``block_norms``. ``gather`` builds each one-block set and the set of
    all blocks once; A x and A^T y are the products of the latter.

    A column set's ``row_abs_sums`` is its last use: a set that holds its
    own copy of the columns (a scattered dense set) takes |A_S| in that copy,
    and any use of it after that raises. No call writes a cached set, and
    its values are read-only views of the store.
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

    def gather(self, blocks):
        """The column set A_S of the sorted, distinct ``blocks``. A single
        block's set is built on first use and cached (its arrays are
        read-only views of the store), all blocks' is ``_all_columns``, and
        any other set is gathered anew by ``_gather``."""
        blocks = np.asarray(blocks)
        if blocks.size == 1:
            j = blocks.item()
            columns = self._block_columns.get(j)
            if columns is None:
                columns = self._block_columns[j] = self._gather(blocks)
            return columns
        if blocks.size == self.num_blocks:
            return self._all_columns
        return self._gather(blocks)

    @cached_property
    def _block_columns(self) -> dict:
        """The one-block column sets built so far, by block index."""
        return {}

    @cached_property
    def _all_columns(self):
        """The column set of every block, gathered once."""
        return self._gather(np.arange(self.num_blocks))

    def matvec(self, x) -> np.ndarray:
        return self._all_columns.matvec(np.asarray(x, dtype=float))

    def rmatvec(self, y) -> np.ndarray:
        return self._all_columns.rmatvec(np.asarray(y, dtype=float))

    def row_abs_sums(self, blocks) -> np.ndarray:
        """Row absolute sums over the selected blocks (duplicates collapse)."""
        return self.gather(selected_blocks(blocks, self.num_blocks)).row_abs_sums()

    @cached_property
    def block_norms(self) -> tuple[float, ...]:
        """||A_j||_2 of every block: the square root of the largest
        eigenvalue of the block's smaller Gram matrix (power iteration can
        stop below the norm, and the block-spectral rule needs no less)."""
        return tuple(_gram_norm(self.block(j)) for j in range(self.num_blocks))


def smaller_gram(B: np.ndarray) -> np.ndarray:
    """The Gram matrix of the smaller side of B: B^T B when B has no more
    columns than rows, else B B^T. Its eigenvalues are the squared singular
    values of B."""
    return B.T @ B if B.shape[1] <= B.shape[0] else B @ B.T


def _gram_norm(B: np.ndarray) -> float:
    return float(np.sqrt(max(np.linalg.eigvalsh(smaller_gram(B))[-1], 0.0)))


class DenseColumns(NamedTuple):
    """The columns A_S of a set S of blocks, gathered once for both products
    and the dual stepsize rule.

    ``index`` selects S's coordinates of a primal vector, in block order.
    ``values`` is a read-only view of the store: S is one block or a run of
    consecutive blocks (a scattered S is a ``GatheredColumns``).
    """

    index: object
    values: np.ndarray

    def rmatvec(self, y) -> np.ndarray:
        """A_S^T y."""
        return self.values.T @ y

    def matvec(self, v) -> np.ndarray:
        """A_S v, for v ordered like ``index``. One column is scaled by v's
        one entry, then 0.0 is added: gemv adds each product to 0.0, which
        turns the -0.0 of a zero entry or a zero v into +0.0, so the result
        is bitwise gemv's, in half its time."""
        values = self.values
        if values.shape[1] == len(v) == 1:  # any other length is gemv's error
            out = values[:, 0] * v[0]
            out += 0.0
            return out
        return values @ v

    def row_abs_sums(self) -> np.ndarray:
        """sum over d in S of |A_kd|, for every row k."""
        return np.abs(self.values).sum(axis=1)


class GatheredColumns:
    """The columns A_S of a scattered set S of blocks, in the set's own
    gathered copy (``values``, writeable), with the products of
    ``DenseColumns``.

    The row sums take |A_S| in that copy, so they are the set's last use:
    they drop the copy, and any later product or row sum raises
    ``RuntimeError``. A new |A_S| would have the copy's layout, so numpy
    adds the same terms in the same order: the sums are bitwise
    ``np.abs(values).sum(axis=1)``.
    """

    __slots__ = ("index", "values")

    def __init__(self, index, values: np.ndarray):
        self.index = index
        self.values = values

    rmatvec = DenseColumns.rmatvec
    matvec = DenseColumns.matvec

    def row_abs_sums(self) -> np.ndarray:
        """sum over d in S of |A_kd|, for every row k; consumes the set."""
        values = self.values
        del self.values
        return np.abs(values, out=values).sum(axis=1)

    def __getattr__(self, name):
        # reached only once ``values`` is deleted, or for a missing name
        if name == "values":
            raise RuntimeError("this column set was consumed by its row_abs_sums; "
                               "gather the blocks again")
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


class DenseCoupling(Coupling):
    """Column-block view of a dense coupling matrix, stored column-major.

    A matrix in C order is copied once into Fortran order; builders that own
    their data construct it in Fortran order directly so that no second copy
    exists. Caches the derived stepsize quantities (column sums, block norms,
    the spectral norm) so they are computed once per instance. Immutable.
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

    def block(self, j: int) -> np.ndarray:
        return self.matrix.values[:, self.partition.slice_of(j)]

    def _gather(self, blocks) -> DenseColumns | GatheredColumns:
        """A_S for the sorted, distinct ``blocks``: a view when they are
        consecutive, otherwise one gather of their columns into the set's
        own copy."""
        index = block_coords(self.partition.offset_array, blocks)
        columns = DenseColumns if isinstance(index, slice) else GatheredColumns
        return columns(index, self.matrix.values[:, index])

    @cached_property
    def col_abs_sums(self) -> np.ndarray:
        """Per-column sums of absolute entries: the adaptive primal penalty."""
        out = np.abs(self.matrix.values).sum(axis=0)
        out.setflags(write=False)
        return out

    @cached_property
    def spectral_norm(self) -> float:
        return spectral_norm_estimate(self.matrix, tol=1e-8, max_iters=5000).value

    def __repr__(self):
        return f"DenseCoupling({self.m}x{self.n}, J={self.num_blocks})"


def _sum_by(index: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    """out[i] = sum of ``weights`` where ``index`` is i, for i < ``length``,
    added in the order of ``index``: one ``np.bincount``, as float64 even
    with no weights (where ``np.bincount`` returns int64)."""
    return np.bincount(index, weights=weights, minlength=length).astype(float, copy=False)


def _add_slot_rows(a: np.ndarray) -> np.ndarray:
    """The sum of the rows of the C-contiguous (W, m) array ``a``, added row
    by row from 0.0, as ``np.bincount`` adds: so no sum is -0.0, and a zero
    padding term of either sign changes no finite sum.

    numpy reduces the outer axis of a C-contiguous array row by row; a
    single column it would add pairwise, so one column is that bincount. One
    row is the same single addition, without the reduction's set-up.
    """
    if a.shape[0] == 1:
        return a[0] + 0.0
    if a.shape[1] == 1:
        return _sum_by(np.zeros(a.shape[0], dtype=np.intp), a[:, 0], 1)
    return np.add.reduce(a, axis=0, initial=0.0)


class SparseColumns(NamedTuple):
    """The slot rows of the columns A_S of a set S of blocks, gathered once
    for both products and the dual stepsize rule: (W, m) arrays of column
    positions among S's coordinates (``width`` of them), of values and of
    absolute values, one row per slot row of S's blocks, in block order.

    ``index`` selects S's coordinates of a primal vector, in block order.
    """

    index: object
    cols: np.ndarray
    vals: np.ndarray
    abs_vals: np.ndarray
    width: int

    def rmatvec(self, y) -> np.ndarray:
        """A_S^T y."""
        return _sum_by(self.cols.ravel(), (self.vals * y).ravel(), self.width)

    def matvec(self, v) -> np.ndarray:
        """A_S v, for v ordered like ``index``."""
        return _add_slot_rows(self.vals * v[self.cols])

    def row_abs_sums(self) -> np.ndarray:
        """sum over d in S of |A_kd|, for every row k."""
        return _add_slot_rows(self.abs_vals)


def _slot_positions(rows: np.ndarray, cols: np.ndarray, partition: BlockPartition, m: int):
    """Where the nonzeros with ``rows`` and ``cols``, listed row by row with
    columns ascending in each row, go in the slot rows: each one's flat
    position s m + k in the (W, m) store, and the slot-row offsets of the
    blocks (the prefix sums of the widths w_j >= 1).

    In that order the (row, block) keys never decrease, so the nonzeros of
    one row in one block form one run, in column order, and a nonzero's slot
    within its block is its rank in its run: no sort is needed.
    """
    block = np.repeat(np.arange(partition.num_blocks), partition.block_sizes)[cols]
    key = rows * partition.num_blocks
    key += block
    at = np.arange(key.size)
    run_first = np.empty(key.size, dtype=bool)
    run_first[:1] = True
    np.not_equal(key[1:], key[:-1], out=run_first[1:])
    first = np.where(run_first, at, 0)
    np.maximum.accumulate(first, out=first)
    at -= first  # the rank in the run
    widths = np.zeros(partition.num_blocks, dtype=np.intp)
    np.maximum.at(widths, block, at)
    widths += 1
    slot_offsets = np.concatenate(([0], np.cumsum(widths)))
    at += slot_offsets[block]
    at *= m
    at += rows
    return at, slot_offsets


class SparseCoupling(Coupling):
    """Column-block view of a sparse coupling matrix, stored as slot rows:
    the ELLPACK layout (Bell & Garland, SC 2009), taken block by block.

    Block j owns w_j slot rows, where w_j is its largest nonzero count in any
    row (at least 1). Slot row s of block j holds, for every row k, the s-th
    nonzero of row k in block j, in column order: its column id within the
    block (``local_cols``), its value (``vals``) and its absolute value
    (``abs_vals``), all (W, m) arrays over the W slot rows. A row with fewer
    nonzeros is padded with value 0 at the block's first column.
    ``slot_offsets`` are the prefix sums of the w_j. No global column ids are
    stored: the set of all blocks is gathered like any other set, and its
    column positions are those ids.

    Built from the nonzeros listed row by row, columns ascending in each row
    (the order of a row-major ``np.flatnonzero`` scan); in that order every
    (row, block) run is contiguous and in column order, so the build sorts
    nothing. For a single block, or a run of consecutive blocks, gather takes
    views of the slot rows; for a scattered set, one gather of them. A_S^T y
    is one ``np.bincount``; A_S v and the row sums add slot rows, in the
    order ``np.bincount`` would add them. Caches the derived stepsize
    quantities like ``DenseCoupling``. Immutable.
    """

    def __init__(self, rows, cols, vals, m: int, partition: BlockPartition):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=float)
        if not rows.ndim == cols.ndim == vals.ndim == 1 or not rows.size == cols.size == vals.size:
            raise ValueError("rows, cols and vals must be 1-d arrays of one length")
        if m < 1:
            raise ValueError(f"matrix must have at least one row, got m={m}")
        n = partition.total
        if rows.size:
            if rows.min() < 0 or rows.max() >= m:
                raise ValueError(f"row indices must lie in [0, {m})")
            if cols.min() < 0 or cols.max() >= n:
                raise ValueError(f"column ids must lie in [0, {n})")
            if np.any(np.diff(rows * n + cols) <= 0):
                raise ValueError("nonzeros must be sorted by row, then by column, each once")
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix entries must be finite")

        at, slot_offsets = _slot_positions(rows, cols, partition, m)
        shape = (int(slot_offsets[-1]), int(m))
        starts = np.repeat(partition.offset_array[:-1], np.diff(slot_offsets))  # by slot row
        self.local_cols = np.zeros(shape, dtype=np.intp)  # padding: the block's first column
        self.local_cols.ravel()[at] = cols - starts[at // m]
        self.vals = np.zeros(shape)
        self.vals.ravel()[at] = vals
        self.abs_vals = np.abs(self.vals)
        self.slot_offsets = slot_offsets
        for arr in (self.vals, self.local_cols, self.abs_vals, self.slot_offsets):
            arr.setflags(write=False)
        self.partition = partition
        self.m = int(m)

    def block(self, j: int) -> np.ndarray:
        """Block j as a dense, column-major m x n_j array."""
        sl = self.partition.slice_of(j)
        out = np.zeros((self.m, sl.stop - sl.start), order="F")
        k = np.arange(self.m)
        slots = slice(self.slot_offsets[j], self.slot_offsets[j + 1])
        for cols, vals in zip(self.local_cols[slots], self.vals[slots]):
            out[k, cols] += vals  # padding adds 0
        return out

    def _gather(self, blocks) -> SparseColumns:
        """The slot rows of A_S for the sorted, distinct ``blocks``: views
        when they are consecutive, otherwise one gather. Column ids are local
        to a single block; for several blocks, each block's position among
        S's coordinates is added to them."""
        blocks = np.asarray(blocks)
        index = block_coords(self.partition.offset_array, blocks)
        slots = block_coords(self.slot_offsets, blocks)
        cols = self.local_cols[slots]
        if blocks.size > 1:
            offsets = self.partition.offset_array
            sizes = offsets[blocks + 1] - offsets[blocks]
            widths = self.slot_offsets[blocks + 1] - self.slot_offsets[blocks]
            cols = cols + np.repeat(np.cumsum(sizes) - sizes, widths)[:, None]
        width = index.stop - index.start if isinstance(index, slice) else index.size
        return SparseColumns(index, cols, self.vals[slots], self.abs_vals[slots], width)

    @cached_property
    def col_abs_sums(self) -> np.ndarray:
        """Per-column sums of absolute entries: the adaptive primal penalty."""
        full = self._all_columns  # its column positions are the global ids
        out = _sum_by(full.cols.ravel(), full.abs_vals.ravel(), self.n)
        out.setflags(write=False)
        return out

    @cached_property
    def spectral_norm(self) -> float:
        return spectral_norm_estimate(self, tol=1e-8, max_iters=5000).value

    def __repr__(self):
        return (f"SparseCoupling({self.m}x{self.n}, J={self.num_blocks}, "
                f"nnz={np.count_nonzero(self.vals)})")


class StackColumns(NamedTuple):
    """The columns of ``count`` identity blocks of size m: A_S = [I ... I].

    ``index`` selects their coordinates of a primal vector, in block order.
    """

    index: object
    count: int
    m: int

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

    def _gather(self, blocks) -> StackColumns:
        """A_S for the sorted, distinct ``blocks``."""
        index = block_coords(self.partition.offset_array, blocks)
        return StackColumns(index, len(blocks), self.m)

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
