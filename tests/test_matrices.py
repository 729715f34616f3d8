import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepsaddle.matrices import (
    BlockPartition,
    block_coords,
    DenseCoupling,
    DenseMatrix,
    IdentityStackCoupling,
    SparseCoupling,
    _add_slot_rows,
    spectral_norm_estimate,
)
from oracles import ColumnStore


def sparse_coupling(A, partition):
    """The sparse store of the nonzeros of the dense array ``A``, listed by
    one row-major scan."""
    rows, cols = np.divmod(np.flatnonzero(A != 0), A.shape[1])
    return SparseCoupling(rows, cols, A[rows, cols], A.shape[0], partition)


def identity_stack(m, copies):
    return DenseMatrix(np.hstack([np.eye(m)] * copies))


def col_abs_sums(A):
    """The coupling's column absolute sums, over single-column blocks."""
    return DenseCoupling(A, BlockPartition.singletons(A.cols)).col_abs_sums


def block_matvec(A, P, j, v):
    """A_j v through the coupling's gathered columns of block j."""
    return DenseCoupling(A, P).gather(np.array([j])).matvec(v)


def block_cache_row_abs_sums(coupling, blocks):
    """Reference: the dual stepsize rule's row sums as a per-block cache
    gives them, one (J, m) row of absolute sums per block and the selected
    rows added in ascending block order."""
    cache = np.stack([np.abs(coupling.block(j)).sum(axis=1)
                      for j in range(coupling.num_blocks)])
    return cache[np.unique(blocks)].sum(axis=0)


class TestDenseMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            DenseMatrix([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            DenseMatrix([[np.inf], [0.0]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            DenseMatrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DenseMatrix(np.zeros((0, 3)))

    def test_immutable(self):
        M = DenseMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            M.values[0, 0] = 5.0

    def test_shape(self):
        M = DenseMatrix(np.ones((3, 4)))
        assert (M.rows, M.cols) == (3, 4)
        assert M.shape == (3, 4)


class TestBlockPartition:
    def test_offsets_are_prefix_sums(self):
        P = BlockPartition([2, 3, 1])
        assert P.offsets == (0, 2, 5, 6)
        assert P.total == 6
        assert P.num_blocks == 3
        assert P.slice_of(1) == slice(2, 5)

    def test_singletons(self):
        P = BlockPartition.singletons(4)
        assert P.block_sizes == (1, 1, 1, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BlockPartition([])

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            BlockPartition([2, 0, 1])

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            BlockPartition([2, 2]).slice_of(2)

    def test_coords_of_a_run_is_a_slice(self):
        offsets = BlockPartition([2, 3, 1, 2]).offset_array
        assert block_coords(offsets, [1, 2]) == slice(2, 6)
        assert block_coords(offsets, [3]) == slice(6, 8)
        assert block_coords(offsets, range(4)) == slice(0, 8)

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_coords_match_concatenated_slices(self, seed, singletons):
        gen = np.random.Generator(np.random.PCG64(seed))
        sizes = np.ones(7, dtype=int) if singletons else gen.integers(1, 4, size=7)
        P = BlockPartition(sizes)
        blocks = np.sort(gen.choice(7, size=int(gen.integers(1, 8)), replace=False))
        expected = np.concatenate([np.arange(P.total)[P.slice_of(j)] for j in blocks])
        assert np.array_equal(np.arange(P.total)[block_coords(P.offset_array, blocks)],
                              expected)


class TestColAbsSums:
    def test_hand_example(self):
        assert np.array_equal(col_abs_sums(DenseMatrix([[1, -2], [3, 4]])), [4, 6])

    def test_zero_matrix(self):
        assert np.array_equal(col_abs_sums(DenseMatrix(np.zeros((2, 2)))), [0, 0])

    def test_identity(self):
        assert np.array_equal(col_abs_sums(DenseMatrix(np.eye(3))), [1, 1, 1])

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_dominates_every_entry(self, m, n, seed):
        A = np.random.Generator(np.random.PCG64(seed)).standard_normal((m, n))
        sums = col_abs_sums(DenseMatrix(A))
        assert np.all(sums[None, :] >= np.abs(A) - 1e-15)


class TestRowAbsSumsOverBlocks:
    def test_selected_single_columns(self):
        A = DenseMatrix([[1, -2, 0], [0, 3, 1]])
        P = BlockPartition.singletons(3)
        assert np.array_equal(DenseCoupling(A, P).row_abs_sums([0, 2]), [1, 1])

    def test_all_blocks_is_plain_row_sums(self):
        A = DenseMatrix([[1, -2, 0], [0, 3, 1]])
        P = BlockPartition.singletons(3)
        assert np.array_equal(DenseCoupling(A, P).row_abs_sums([0, 1, 2]), [3, 4])

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_identity_stack_counts_blocks(self, K):
        # each identity block contributes exactly one unit per row; verify by
        # direct summation
        A = identity_stack(2, 3)
        P = BlockPartition([2, 2, 2])
        blocks = list(range(K))
        expected = np.zeros(2)
        for j in blocks:
            for k in range(2):
                for dcol in range(2 * j, 2 * j + 2):
                    expected[k] += abs(A.values[k, dcol])
        out = DenseCoupling(A, P).row_abs_sums(blocks)
        assert np.array_equal(out, expected)
        assert np.array_equal(out, np.full(2, float(K)))

    def test_rejects_empty_selection(self):
        with pytest.raises(ValueError):
            DenseCoupling(DenseMatrix(np.eye(2)), BlockPartition([1, 1])).row_abs_sums([])

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            DenseCoupling(DenseMatrix(np.eye(2)), BlockPartition([1, 1])).row_abs_sums([5])

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_full_selection_matches_row_sums(self, seed):
        gen = np.random.Generator(np.random.PCG64(seed))
        A = gen.standard_normal((4, 7))
        P = BlockPartition([2, 1, 3, 1])
        out = DenseCoupling(DenseMatrix(A), P).row_abs_sums(range(4))
        assert np.allclose(out, np.abs(A).sum(axis=1), rtol=0, atol=1e-14)


@st.composite
def partitions_and_selections(draw):
    """A partition of one of three kinds and a sorted selection that is
    either one run of consecutive blocks or any distinct set."""
    kind = draw(st.sampled_from(["single-column", "wide", "mixed"]))
    J = draw(st.integers(1, 12))
    low = {"single-column": 1, "wide": 2, "mixed": 1}[kind]
    high = {"single-column": 1, "wide": 5, "mixed": 5}[kind]
    sizes = draw(st.lists(st.integers(low, high), min_size=J, max_size=J))
    if draw(st.booleans()):
        K = draw(st.integers(1, J))
        start = draw(st.integers(0, J - K))
        blocks = list(range(start, start + K))
    else:
        blocks = sorted(draw(st.sets(st.integers(0, J - 1), min_size=1)))
    return kind, sizes, np.array(blocks)


class TestGatheredRowAbsSums:
    @given(partitions_and_selections(), st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, drawn, m, seed):
        kind, sizes, blocks = drawn
        P = BlockPartition(sizes)
        A = np.random.Generator(np.random.PCG64(seed)).standard_normal((m, P.total))
        coupling = DenseCoupling(DenseMatrix(A), P)
        coords = np.concatenate([np.arange(P.offsets[j], P.offsets[j + 1]) for j in blocks])
        out = coupling.gather(blocks).row_abs_sums()
        assert np.allclose(out, np.abs(A[:, coords]).sum(axis=1), rtol=1e-14, atol=0)
        if kind == "single-column":
            assert np.array_equal(out, block_cache_row_abs_sums(coupling, blocks))

    @pytest.mark.parametrize("K", [1, 2, 9, 40, 120])
    def test_single_columns_bitwise_equal_to_block_cache(self, rng, K):
        A = rng.standard_normal((30, 120))
        coupling = DenseCoupling(DenseMatrix(A), BlockPartition.singletons(120))
        for blocks in (np.arange(K), np.sort(rng.choice(120, K, replace=False))):
            assert np.array_equal(coupling.gather(blocks).row_abs_sums(),
                                  block_cache_row_abs_sums(coupling, blocks))
            assert np.array_equal(coupling.row_abs_sums(blocks),
                                  block_cache_row_abs_sums(coupling, blocks))


class TestBlockMatvec:
    def test_identity_block(self):
        A = identity_stack(3, 2)
        P = BlockPartition([3, 3])
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(block_matvec(A, P, 1, v), v)

    def test_zero_vector(self):
        A = DenseMatrix(np.arange(6.0).reshape(2, 3))
        P = BlockPartition([2, 1])
        assert np.array_equal(block_matvec(A, P, 0, np.zeros(2)), np.zeros(2))

    def test_matches_padded_full_matvec(self, rng):
        A = rng.standard_normal((5, 8))
        P = BlockPartition([2, 3, 3])
        v = rng.standard_normal(3)
        padded = np.zeros(8)
        padded[2:5] = v
        out = block_matvec(DenseMatrix(A), P, 1, v)
        assert np.allclose(out, A @ padded, atol=1e-14)

    def test_rejects_length_mismatch(self):
        A = DenseMatrix(np.eye(3))
        # the product itself refuses an operand of the wrong length
        with pytest.raises(ValueError):
            block_matvec(A, BlockPartition.singletons(3), 0, np.zeros(2))


class TestSpectralNormEstimate:
    def test_diagonal(self):
        est = spectral_norm_estimate(DenseMatrix(np.diag([3.0, 1.0])), tol=1e-8)
        assert est.converged
        assert est.value == pytest.approx(3.0, rel=1e-8)

    def test_identity_stack_sqrt3(self):
        est = spectral_norm_estimate(identity_stack(2, 3), tol=1e-10)
        assert est.value == pytest.approx(np.sqrt(3.0), rel=1e-9)

    def test_matches_svd_oracle(self, rng):
        for _ in range(10):
            A = rng.standard_normal((10, 10))
            est = spectral_norm_estimate(DenseMatrix(A), tol=1e-8, max_iters=20_000)
            exact = np.linalg.svd(A, compute_uv=False)[0]
            assert abs(est.value - exact) <= 1e-6 * exact

    def test_zero_matrix(self):
        est = spectral_norm_estimate(DenseMatrix(np.zeros((3, 2))))
        assert est.value == 0.0 and est.converged

    def test_nonconvergence_flag(self, rng):
        A = rng.standard_normal((20, 20))
        est = spectral_norm_estimate(DenseMatrix(A), tol=1e-14, max_iters=1)
        assert not est.converged

    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_schur_bound(self, seed, m, n):
        A = np.random.Generator(np.random.PCG64(seed)).standard_normal((m, n))
        est = spectral_norm_estimate(DenseMatrix(A), tol=1e-8, max_iters=20_000)
        bound = np.sqrt(np.abs(A).sum(axis=0).max() * np.abs(A).sum(axis=1).max())
        assert est.value <= bound * (1.0 + 1e-9) + 1e-12


class TestDenseCoupling:
    def test_partition_must_cover_columns(self):
        with pytest.raises(ValueError, match="covers"):
            DenseCoupling(DenseMatrix(np.eye(3)), BlockPartition([1, 1]))

    def test_block_is_a_view(self):
        coupling = DenseCoupling(DenseMatrix(np.eye(4)), BlockPartition([2, 2]))
        assert np.shares_memory(coupling.block(1), coupling.matrix.values)

    def test_stores_column_major(self, rng):
        A = rng.standard_normal((3, 5))
        for matrix in (A, DenseMatrix(A), DenseMatrix(A, order="F")):
            coupling = DenseCoupling(matrix, BlockPartition([2, 3]))
            assert coupling.matrix.values.flags.f_contiguous
            assert np.array_equal(coupling.matrix.values, A)
        held = DenseMatrix(A, order="F")
        assert DenseCoupling(held, BlockPartition([5])).matrix is held

    def test_gather_products(self, rng):
        A = rng.standard_normal((4, 7))
        coupling = DenseCoupling(DenseMatrix(A), BlockPartition([2, 1, 3, 1]))
        y = rng.standard_normal(4)
        for blocks, cols in (([1, 2], [2, 3, 4, 5]), ([0, 3], [0, 1, 6])):
            columns = coupling.gather(np.array(blocks))
            v = rng.standard_normal(len(cols))
            assert np.allclose(columns.rmatvec(y), A[:, cols].T @ y, atol=1e-14)
            assert np.allclose(columns.matvec(v), A[:, cols] @ v, atol=1e-14)
        run = coupling.gather(np.array([1, 2]))
        assert np.shares_memory(run.values, coupling.matrix.values)

    def test_one_column_product_is_bitwise_gemv(self, rng):
        """A one-column set scales its column: bitwise the gemv product for
        a zero, a negative zero, negative and positive scalars, and columns
        that hold zeros, whose products with a negative scalar are -0.0."""
        A = rng.standard_normal((200, 6))
        A[rng.uniform(size=A.shape) < 0.4] = 0.0
        A[:, 2] = 0.0
        coupling = DenseCoupling(DenseMatrix(A), BlockPartition.singletons(6))
        for j in range(6):
            columns = coupling.gather(np.array([j]))
            for d in (0.0, -0.0, -1.5, 2.5, -1e-300, *rng.standard_normal(4)):
                d = np.array([d])
                want = coupling.matrix.values[:, [j]] @ d
                assert np.array_equal(columns.matvec(d).view(np.int64), want.view(np.int64))

    def test_row_abs_sums_checks_selection(self, rng):
        A = rng.standard_normal((3, 4))
        coupling = DenseCoupling(DenseMatrix(A), BlockPartition([1, 2, 1]))
        assert np.array_equal(coupling.row_abs_sums([2, 0, 2]), coupling.row_abs_sums([0, 2]))
        assert np.allclose(coupling.row_abs_sums(np.array([0, 2])),
                           np.abs(A[:, [0, 3]]).sum(axis=1), atol=1e-15)
        with pytest.raises(ValueError, match="nonempty"):
            coupling.row_abs_sums([])
        with pytest.raises(ValueError, match="out of range"):
            coupling.row_abs_sums([3])
        with pytest.raises(ValueError, match="out of range"):
            coupling.row_abs_sums([-1, 0])

    def test_cached_quantities(self, rng):
        A = rng.standard_normal((4, 6))
        coupling = DenseCoupling(DenseMatrix(A), BlockPartition([2, 2, 2]))
        assert np.allclose(coupling.col_abs_sums, np.abs(A).sum(axis=0))
        assert coupling.col_abs_sums is coupling.col_abs_sums
        norms = coupling.block_norms
        for j in range(3):
            exact = np.linalg.svd(A[:, 2 * j:2 * j + 2], compute_uv=False)[0]
            assert norms[j] == pytest.approx(exact, rel=1e-8)
        assert coupling.spectral_norm == pytest.approx(
            np.linalg.svd(A, compute_uv=False)[0], rel=1e-6)

    def test_matvec_roundtrip(self, rng):
        A = rng.standard_normal((4, 6))
        coupling = DenseCoupling(DenseMatrix(A), BlockPartition([3, 3]))
        x = rng.standard_normal(6)
        y = rng.standard_normal(4)
        assert np.allclose(coupling.matvec(x), A @ x)
        assert np.allclose(coupling.rmatvec(y), A.T @ y)
        assert np.allclose(coupling.gather(np.array([1])).rmatvec(y), A[:, 3:].T @ y)


class TestBlockNorms:
    @pytest.mark.parametrize("store", ["dense", "sparse"])
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_within_1e_13_of_svd(self, store, seed):
        """Every block norm, one-column and all-zero blocks included, lies
        within 1e-13 relative of the SVD's largest singular value."""
        gen = np.random.Generator(np.random.PCG64(seed))
        sizes = gen.integers(1, 7, size=int(gen.integers(1, 7)))
        P = BlockPartition(sizes)
        m = int(gen.integers(1, 9))
        A = gen.standard_normal((m, P.total)) * (gen.uniform(size=(m, P.total)) < 0.6)
        A[:, P.slice_of(int(gen.integers(P.num_blocks)))] = 0.0
        coupling = DenseCoupling(DenseMatrix(A), P) if store == "dense" else sparse_coupling(A, P)
        for j, norm in enumerate(coupling.block_norms):
            exact = np.linalg.svd(A[:, P.slice_of(j)], compute_uv=False)[0]
            assert abs(norm - exact) <= 1e-13 * exact


# ---------------------------------------------------------------------------
# The slot-row sparse store against the column store it replaced
# (``oracles.ColumnStore``). With one slot row per block every product adds
# the same terms in the same order, so the outputs are bitwise equal, signed
# zeros included. With more slot rows, A_S v and the row sums keep that
# order; A_S^T y and the column sums add a column's entries slot row by slot
# row instead of row by row.
# ---------------------------------------------------------------------------

def bits(a):
    """The bit patterns of a float64 array, so -0.0 differs from +0.0."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


@st.composite
def slot_matrices(draw, single_slot):
    """A small matrix over a partition, with all-zero rows, blocks and
    (sometimes) matrices, and a sorted selection: one run of consecutive
    blocks or any distinct set. ``single_slot`` gives every row at most one
    nonzero in each block; otherwise a row holds up to the block's width."""
    J = draw(st.integers(1, 10))
    sizes = draw(st.lists(st.integers(1, 5), min_size=J, max_size=J))
    P = BlockPartition(sizes)
    m = draw(st.integers(1, 9))
    gen = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    A = np.zeros((m, P.total))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    for j in range(J):
        sl = P.slice_of(j)
        if single_slot:
            hit = np.flatnonzero(gen.uniform(size=m) < density)
            A[hit, sl.start + gen.integers(0, sizes[j], size=hit.size)] = 1.0
        else:
            A[:, sl] = gen.uniform(size=(m, sizes[j])) < density
    # values over many magnitudes, of either sign
    A *= gen.standard_normal(A.shape) * 10.0 ** gen.integers(-6, 7, size=A.shape)
    if draw(st.booleans()):
        K = draw(st.integers(1, J))
        start = draw(st.integers(0, J - K))
        blocks = np.arange(start, start + K)
    else:
        blocks = np.array(sorted(draw(st.sets(st.integers(0, J - 1), min_size=1))))
    return A, P, blocks, gen


def same_bits(got, want):
    """Equal dtype, shape and bit patterns (8-byte entries)."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


def operand(gen, size):
    """Random entries with some +0.0 and -0.0, so products of either sign
    of zero occur."""
    v = gen.standard_normal(size)
    v[gen.uniform(size=size) < 0.2] = 0.0
    v[gen.uniform(size=size) < 0.2] = -0.0
    return v


class TestSparseCoupling:
    def test_hand_example(self):
        """Block 0 holds two nonzeros in rows 0 and 3, so it owns two slot
        rows; the all-zero block 1 owns one padding slot row; padding has
        value 0 at the block's first column."""
        A = np.array([[0.0, 2.0, 3.0, 0.0, 5.0, 0.0],
                      [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                      [4.0, 0.0, 7.0, 0.0, 6.0, -8.0]])
        coupling = sparse_coupling(A, BlockPartition([3, 1, 2]))
        assert coupling.slot_offsets.tolist() == [0, 2, 3, 5]
        assert coupling.vals.tolist() == [[2, 1, 0, 4], [3, 0, 0, 7], [0, 0, 0, 0],
                                          [5, 0, 0, 6], [0, 0, 0, -8]]
        assert coupling.local_cols.tolist() == [[1, 0, 0, 0], [2, 0, 0, 2], [0, 0, 0, 0],
                                                [0, 0, 0, 0], [0, 0, 0, 1]]
        # the global column ids are the positions of the set of all blocks
        full = coupling._all_columns
        assert full.cols.tolist() == [[1, 0, 0, 0], [2, 0, 0, 2], [3, 3, 3, 3],
                                      [4, 4, 4, 4], [4, 4, 4, 5]]
        assert full.cols.dtype == np.intp and full.cols.flags.c_contiguous
        assert not hasattr(coupling, "cols")
        assert np.array_equal(coupling.abs_vals, np.abs(coupling.vals))
        for arr in (coupling.vals, coupling.local_cols, coupling.abs_vals):
            assert not arr.flags.writeable and arr.flags.c_contiguous
        for j, sl in enumerate((slice(0, 3), slice(3, 4), slice(4, 6))):
            assert np.array_equal(coupling.block(j), A[:, sl])
            assert coupling.block(j).flags.f_contiguous
        assert repr(coupling) == "SparseCoupling(4x6, J=3, nnz=8)"

    def test_rejects_non_finite_and_malformed_input(self):
        P = BlockPartition([2])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                sparse_coupling(np.array([[0.0, bad]]), P)
        with pytest.raises(ValueError, match="lie in"):
            sparse_coupling(np.eye(3), P)
        with pytest.raises(ValueError, match="sorted"):
            SparseCoupling([0, 0], [1, 0], [1.0, 1.0], 1, P)
        with pytest.raises(ValueError, match="sorted"):
            SparseCoupling([1, 0], [0, 1], [1.0, 1.0], 2, P)
        with pytest.raises(ValueError, match="each once"):
            SparseCoupling([0, 0], [1, 1], [1.0, 1.0], 1, P)
        with pytest.raises(ValueError, match="row indices"):
            SparseCoupling([1], [0], [1.0], 1, P)
        with pytest.raises(ValueError, match="one length"):
            SparseCoupling([0], [0, 1], [1.0], 1, P)

    def test_gather_of_a_block_or_a_run_is_views(self, rng):
        A = rng.standard_normal((4, 7)) * (rng.uniform(size=(4, 7)) < 0.5)
        coupling = sparse_coupling(A, BlockPartition([2, 1, 3, 1]))
        one = coupling.gather(np.array([2]))
        assert one.index == slice(3, 6)
        for got, stored in ((one.cols, coupling.local_cols), (one.vals, coupling.vals),
                            (one.abs_vals, coupling.abs_vals)):
            assert np.shares_memory(got, stored)
        run = coupling.gather(np.array([1, 2]))
        assert run.index == slice(2, 6)
        assert np.shares_memory(run.vals, coupling.vals)
        assert np.shares_memory(run.abs_vals, coupling.abs_vals)

    def test_scattered_gather_skips_empty_blocks(self):
        # block 0 is empty and owns one padding slot row
        A = np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 3.0]])
        coupling = sparse_coupling(A, BlockPartition.singletons(3))
        columns = coupling.gather(np.array([0, 2]))
        y = np.array([1.0, -1.0])
        assert np.array_equal(columns.rmatvec(y), [0.0, -3.0])
        assert np.array_equal(columns.matvec(np.array([5.0, 2.0])), [0.0, 6.0])
        assert np.array_equal(columns.row_abs_sums(), [0.0, 3.0])

    def test_products_without_nonzeros_are_float64(self):
        """np.bincount gives int64 when it has no weights; an all-zero block,
        alone or in an all-zero matrix, still gives float64 zeros."""
        for A in (np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), np.zeros((2, 3))):
            coupling = sparse_coupling(A, BlockPartition([1, 2]))
            columns = coupling.gather(np.array([1]))
            outs = [columns.rmatvec(np.ones(2)), columns.matvec(np.ones(2)),
                    columns.row_abs_sums(), coupling.row_abs_sums([1])]
            if not A.any():
                outs += [coupling.matvec(np.ones(3)), coupling.rmatvec(np.ones(2)),
                         coupling.col_abs_sums]
            for out in outs:
                assert out.dtype == np.float64 and not out.any()

    def test_all_zero_matrix(self):
        coupling = sparse_coupling(np.zeros((3, 4)), BlockPartition([3, 1]))
        assert coupling.vals.shape == (2, 3) and not coupling.vals.any()
        assert np.array_equal(coupling.matvec(np.ones(4)), np.zeros(3))
        assert np.array_equal(coupling.rmatvec(np.ones(3)), np.zeros(4))
        assert np.array_equal(coupling.row_abs_sums([1]), np.zeros(3))
        assert coupling.block_norms == (0.0, 0.0)
        assert coupling.spectral_norm == 0.0

    def test_row_sums_are_new_arrays(self):
        """The row sums come from the cached |values|; the caller may
        overwrite them."""
        coupling = sparse_coupling(np.array([[1.0, -2.0], [0.0, 3.0]]), BlockPartition([1, 1]))
        sums = coupling.gather(np.array([1])).row_abs_sums()
        sums *= 10.0
        assert np.array_equal(coupling.row_abs_sums([1]), [2.0, 3.0])

    @given(slot_matrices(single_slot=True))
    @settings(max_examples=150, deadline=None)
    def test_single_slot_store_is_bitwise_the_column_store(self, drawn):
        A, P, blocks, gen = drawn
        store, oracle = sparse_coupling(A, P), ColumnStore(A, P)
        assert store.vals.shape == (P.num_blocks, A.shape[0])
        coords = oracle.gather(blocks)[0]
        columns = store.gather(blocks)
        assert np.array_equal(np.arange(P.total)[columns.index], coords)
        y, v, x = operand(gen, A.shape[0]), operand(gen, coords.size), operand(gen, P.total)
        for got, want in ((columns.rmatvec(y), oracle.block_rmatvec(blocks, y)),
                          (columns.matvec(v), oracle.block_matvec(blocks, v)),
                          (columns.row_abs_sums(), oracle.row_abs_sums(blocks)),
                          (store.row_abs_sums(blocks), oracle.row_abs_sums(blocks)),
                          (store.matvec(x), oracle.matvec(x)),
                          (store.rmatvec(y), oracle.rmatvec(y)),
                          (store.col_abs_sums, oracle.col_abs_sums())):
            assert got.dtype == np.float64
            assert np.array_equal(bits(got), bits(want))

    @given(slot_matrices(single_slot=False))
    @settings(max_examples=150, deadline=None)
    def test_general_store_matches_the_column_store(self, drawn):
        """Padding changes no finite result: A_S v, the row sums and A x are
        bitwise the column store's, and A_S^T y and A^T y are bitwise the
        bincount over the real nonzeros alone, in slot-row order."""
        A, P, blocks, gen = drawn
        store, oracle = sparse_coupling(A, P), ColumnStore(A, P)
        coords = oracle.gather(blocks)[0]
        columns = store.gather(blocks)
        assert np.array_equal(np.arange(P.total)[columns.index], coords)
        y, v, x = operand(gen, A.shape[0]), operand(gen, coords.size), operand(gen, P.total)
        for got, want in ((columns.matvec(v), oracle.block_matvec(blocks, v)),
                          (columns.row_abs_sums(), oracle.row_abs_sums(blocks)),
                          (store.matvec(x), oracle.matvec(x))):
            assert np.array_equal(bits(got), bits(want))
        real = columns.vals != 0
        products = columns.vals * y
        want = ColumnStore._sum_by(columns.cols[real], products[real], coords.size)
        assert np.array_equal(bits(columns.rmatvec(y)), bits(want))
        real = store.vals != 0
        global_cols = store._all_columns.cols
        want = ColumnStore._sum_by(global_cols[real], (store.vals * y)[real], P.total)
        assert np.array_equal(bits(store.rmatvec(y)), bits(want))
        assert np.allclose(store.col_abs_sums, oracle.col_abs_sums(), rtol=1e-14, atol=0)
        for j in range(P.num_blocks):
            assert np.array_equal(store.block(j), A[:, P.slice_of(j)])

    @given(st.integers(1, 40), st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_slot_row_sum_is_bincount_order(self, W, m, seed):
        """The slot-row sum, its one-row shortcut and its one-column case
        are bitwise the bincount over the rows' entries, signed zeros
        included; the shortcut is bitwise the general reduction."""
        gen = np.random.Generator(np.random.PCG64(seed))
        a = gen.standard_normal((W, m)) * 10.0 ** gen.integers(-8, 9, size=(W, m))
        a[gen.uniform(size=a.shape) < 0.3] = -0.0
        want = ColumnStore._sum_by(np.tile(np.arange(m), W), a.ravel(), m)
        assert np.array_equal(bits(_add_slot_rows(a)), bits(want))
        one = a[:1]
        assert np.array_equal(bits(_add_slot_rows(one)),
                              bits(np.add.reduce(one, axis=0, initial=0.0)))


class TestFullProducts:
    """A x and A^T y are the products of the column set of every block,
    gathered once."""

    @pytest.mark.parametrize("store", ["dense", "sparse", "identity"])
    def test_are_the_all_block_column_set(self, rng, store):
        A = rng.standard_normal((4, 7)) * (rng.uniform(size=(4, 7)) < 0.5)
        P = BlockPartition([2, 1, 3, 1])
        if store == "identity":
            coupling, A = IdentityStackCoupling(4, 3), identity_stack(4, 3).values
        else:
            coupling = DenseCoupling(DenseMatrix(A), P) if store == "dense" else sparse_coupling(A, P)
        everything = coupling.gather(np.arange(coupling.num_blocks))
        x, y = rng.standard_normal(coupling.n), rng.standard_normal(coupling.m)
        for got, want in ((coupling.matvec(x), everything.matvec(x)),
                          (coupling.rmatvec(y), everything.rmatvec(y))):
            assert got.dtype == np.float64
            assert np.array_equal(bits(got), bits(want))
        assert np.allclose(coupling.matvec(x), A @ x, rtol=1e-14, atol=1e-14)
        assert np.allclose(coupling.rmatvec(y), A.T @ y, rtol=1e-14, atol=1e-14)
        # integer lists are taken as float64 vectors
        for got, want in ((coupling.matvec([1] * coupling.n), A.sum(axis=1)),
                          (coupling.rmatvec([1] * coupling.m), A.sum(axis=0))):
            assert got.dtype == np.float64 and np.allclose(got, want, atol=1e-14)
        assert coupling._all_columns is coupling._all_columns

    def test_dense_set_is_a_view(self, rng):
        coupling = DenseCoupling(DenseMatrix(rng.standard_normal((3, 5))), BlockPartition([2, 3]))
        assert np.shares_memory(coupling._all_columns.values, coupling.matrix.values)

    def test_sparse_set_is_the_stored_slot_rows(self, rng):
        """The full set is the all-block gather: its values are views of all
        stored slot rows, and its column positions are built by the gather
        (the store keeps no global column ids)."""
        A = rng.standard_normal((4, 7)) * (rng.uniform(size=(4, 7)) < 0.5)
        coupling = sparse_coupling(A, BlockPartition([2, 1, 3, 1]))
        full = coupling._all_columns
        assert full.index == slice(0, 7) and full.width == 7
        fresh = coupling._gather(np.arange(4))
        assert np.array_equal(full.cols, fresh.cols) and full.cols.dtype == fresh.cols.dtype
        for got, stored in ((full.vals, coupling.vals), (full.abs_vals, coupling.abs_vals)):
            assert got.base is stored and got.shape == stored.shape

    def test_sparse_gather_of_every_block_is_the_full_set(self, rng):
        """A gather of all J blocks (the engine at K = J) returns the cached
        full set, whose global column ids are what a gather would build:
        each block's local ids shifted by its first column."""
        A = rng.standard_normal((4, 7)) * (rng.uniform(size=(4, 7)) < 0.5)
        P = BlockPartition([2, 1, 3, 1])
        coupling = sparse_coupling(A, P)
        assert coupling.gather(np.arange(4)) is coupling._all_columns
        widths = np.diff(coupling.slot_offsets)
        shift = np.repeat(P.offset_array[:-1], widths)[:, None]
        assert np.array_equal(coupling.local_cols + shift, coupling._all_columns.cols)


def coupling_of(store, rng):
    """A small coupling of each kind, with its dense matrix."""
    if store == "identity":
        return IdentityStackCoupling(4, 3), identity_stack(4, 3).values
    A = rng.standard_normal((4, 7)) * (rng.uniform(size=(4, 7)) < 0.5)
    P = BlockPartition([2, 1, 3, 1])
    return (DenseCoupling(DenseMatrix(A), P) if store == "dense" else sparse_coupling(A, P)), A


class TestGatherDispatch:
    """``gather`` builds each one-block column set once, returns the cached
    full set for all blocks, and gathers any other set anew."""

    @pytest.mark.parametrize("store", ["dense", "sparse", "identity"])
    def test_one_block_set_is_cached_read_only_and_the_fresh_gather(self, rng, store):
        coupling, A = coupling_of(store, rng)
        P = coupling.partition
        y = operand(rng, coupling.m)
        for j in range(coupling.num_blocks):
            columns = coupling.gather(np.array([j]))
            assert coupling.gather(np.array([j])) is columns
            assert coupling.gather([j]) is columns
            with pytest.raises(AttributeError):
                columns.index = slice(0, 0)
            fresh = coupling._gather(np.array([j]))
            assert fresh is not columns and type(fresh) is type(columns)
            for got, want in zip(columns, fresh):
                if isinstance(want, np.ndarray):
                    assert same_bits(got, want) and not got.flags.writeable
                else:
                    assert got == want
            assert columns.index == P.slice_of(j)
            v = operand(rng, P.block_sizes[j])
            for got, want in ((columns.rmatvec(y), fresh.rmatvec(y)),
                              (columns.matvec(v), fresh.matvec(v)),
                              (columns.row_abs_sums(), fresh.row_abs_sums())):
                assert same_bits(got, want)
            assert np.allclose(columns.matvec(v), A[:, P.slice_of(j)] @ v, rtol=1e-14, atol=1e-14)
        if store == "dense":
            assert np.shares_memory(columns.values, coupling.matrix.values)

    @pytest.mark.parametrize("store", ["dense", "sparse", "identity"])
    def test_all_blocks_are_the_full_set_and_others_are_new(self, rng, store):
        coupling, _ = coupling_of(store, rng)
        assert coupling.gather(np.arange(coupling.num_blocks)) is coupling._all_columns
        pair = coupling.gather(np.array([0, 2]))
        assert coupling.gather(np.array([0, 2])) is not pair


class TestScatteredDenseSet:
    """A scattered dense set holds its own copy of the columns. Its row sums
    take |A_S| in that copy, so they are its last use; the one-block, run and
    full sets are read-only views of the store, which no call writes."""

    @staticmethod
    def coupling(rng):
        A = operand(rng, (6, 9))
        return DenseCoupling(DenseMatrix(A), BlockPartition([2, 1, 3, 1, 2]))

    def test_row_sums_are_bitwise_those_of_an_untouched_copy(self, rng):
        coupling = self.coupling(rng)
        stored = coupling.matrix.values.copy()
        for blocks in ([0, 2], [1, 3, 4], [0, 2, 4], [0, 1, 3]):
            columns = coupling.gather(np.array(blocks))
            assert columns.values.flags.writeable
            assert not np.shares_memory(columns.values, coupling.matrix.values)
            untouched = columns.values.copy()
            assert same_bits(columns.row_abs_sums(), np.abs(untouched).sum(axis=1))
            assert same_bits(coupling.row_abs_sums(blocks), np.abs(untouched).sum(axis=1))
        assert same_bits(coupling.matrix.values, stored)

    def test_a_consumed_set_feeds_no_product(self, rng):
        coupling = self.coupling(rng)
        columns = coupling.gather(np.array([0, 2, 4]))
        y, v = operand(rng, 6), operand(rng, columns.index.size)
        want = (columns.rmatvec(y), columns.matvec(v))
        assert same_bits(want[0], coupling.matrix.values[:, columns.index].T @ y)
        columns.row_abs_sums()
        for use in (lambda: columns.rmatvec(y), lambda: columns.matvec(v),
                    columns.row_abs_sums, lambda: columns.values):
            with pytest.raises(RuntimeError, match="consumed"):
                use()
        again = coupling.gather(np.array([0, 2, 4]))
        assert same_bits(again.rmatvec(y), want[0]) and same_bits(again.matvec(v), want[1])

    def test_views_stay_read_only_and_serve_every_call(self, rng):
        coupling = self.coupling(rng)
        stored = coupling.matrix.values.copy()
        y = operand(rng, 6)
        for blocks in ([1], [3], [1, 2], [0, 1, 2, 3, 4]):
            columns = coupling.gather(np.array(blocks))
            sums = columns.row_abs_sums()
            assert same_bits(columns.row_abs_sums(), sums)
            assert np.allclose(columns.rmatvec(y), stored[:, columns.index].T @ y,
                               rtol=1e-14, atol=1e-14)
            assert not columns.values.flags.writeable
            assert np.shares_memory(columns.values, coupling.matrix.values)
        assert same_bits(coupling.matrix.values, stored)
