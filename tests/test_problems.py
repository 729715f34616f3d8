import gc
import weakref

import numpy as np
import pytest

from sepsaddle.baselines import fista_reference, preconditioned_reference
from sepsaddle.matrices import BlockPartition
from sepsaddle.problems import (
    IdentityStackCoupling,
    gen_group_lasso,
    gen_lasso,
    gen_rpca,
    group_lasso_structure,
    make_group_lasso_hinge,
    make_lasso,
    make_rpca,
    rpca_default_penalties,
)
from oracles import argmax_inner, lasso_truth, max_inner, rpca_components


class TestGenLasso:
    def test_unit_columns(self):
        A, _, _ = gen_lasso(50, 80, 10, seed=3)
        assert np.allclose(np.linalg.norm(A.values, axis=0), 1.0, atol=1e-12)

    def test_truth_has_exactly_d_nonzeros(self):
        A, b, _ = gen_lasso(30, 60, 7, seed=5)
        x_true = lasso_truth(30, 60, 7, seed=5)
        assert np.count_nonzero(x_true) == 7
        # b is A x_true plus noise of standard deviation sqrt(1e-3)
        assert np.std(b - A.values @ x_true) < 0.1

    def test_lambda_recipe(self):
        A, b, lam = gen_lasso(40, 60, 10, seed=9)
        assert lam == pytest.approx(0.1 * np.abs(A.values.T @ b).max(), rel=1e-15)

    def test_deterministic(self):
        A1, b1, lam1 = gen_lasso(20, 30, 4, seed=11)
        A2, b2, lam2 = gen_lasso(20, 30, 4, seed=11)
        assert np.array_equal(A1.values, A2.values)
        assert np.array_equal(b1, b2)
        assert lam1 == lam2

    def test_rejects_oversparse(self):
        with pytest.raises(ValueError):
            gen_lasso(10, 20, 21, seed=0)

    def test_b_norm_stable_across_seeds(self):
        # Monte-Carlo: spread of ||b|| within 20% of the mean over 10 seeds
        norms = [np.linalg.norm(gen_lasso(1000, 5000, 500, seed=s)[1]) for s in range(10)]
        mean = np.mean(norms)
        assert max(norms) <= 1.2 * mean
        assert min(norms) >= 0.8 * mean


class TestMakeLasso:
    def test_two_coordinate_toy_optimum(self):
        # A = I, b = (1, 0), lam = 0.5: optimum is the shrinkage of b
        inst = make_lasso(np.eye(2), np.array([1.0, 0.0]), 0.5)
        x_star, _ = fista_reference(inst.coupling.matrix.values, np.array([1.0, 0.0]),
                                    0.5, tol=1e-14)
        assert np.allclose(x_star, [0.5, 0.0], atol=1e-8)

    def test_large_lambda_gives_zero(self):
        A, b, _ = gen_lasso(15, 25, 5, seed=2)
        lam = 1.001 * np.abs(A.values.T @ b).max()
        x_star, _ = fista_reference(A.values, b, lam, tol=1e-14)
        assert np.allclose(x_star, 0.0, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make_lasso(np.eye(3), np.zeros(2), 1.0)

    def test_coupling_is_column_major(self, rng):
        A = rng.standard_normal((4, 6))
        inst = make_lasso(A, np.zeros(4), 0.5)
        stored = inst.coupling.matrix.values
        assert stored.flags.f_contiguous and np.array_equal(stored, A)
        # generator output keeps its row-major layout
        assert gen_lasso(4, 6, 2, seed=0)[0].values.flags.c_contiguous

    def test_residual_uses_reference(self):
        inst = make_lasso(np.eye(2), np.array([1.0, 0.0]), 0.5)
        assert np.isnan(inst.residual(np.zeros(2)))
        inst.reference_objective = inst.objective(np.array([0.5, 0.0]))
        assert inst.residual(np.array([0.5, 0.0])) == pytest.approx(0.0, abs=1e-15)
        assert inst.residual(np.zeros(2)) > 0


class TestIdentityStackCoupling:
    def test_shapes_and_closed_forms(self):
        coupling = IdentityStackCoupling(4, 3)
        assert coupling.n == 12
        assert np.array_equal(coupling.col_abs_sums, np.ones(12))
        assert np.array_equal(coupling.row_abs_sums([0, 2]), np.full(4, 2.0))
        assert coupling.block_norms == (1.0, 1.0, 1.0)
        assert coupling.spectral_norm == pytest.approx(np.sqrt(3.0))

    def test_matvec_is_block_sum(self, rng):
        coupling = IdentityStackCoupling(3, 3)
        x = rng.standard_normal(9)
        assert np.allclose(coupling.matvec(x), x[:3] + x[3:6] + x[6:])
        y = rng.standard_normal(3)
        assert np.array_equal(coupling.rmatvec(y), np.tile(y, 3))
        assert np.array_equal(coupling.gather(np.array([1])).matvec(y), y)

    def test_gather_tiles_and_sums(self, rng):
        coupling = IdentityStackCoupling(3, 4)
        y = rng.standard_normal(3)
        v = rng.standard_normal(6)
        for blocks, index in (([1, 2], slice(3, 9)), ([0, 3], [0, 1, 2, 9, 10, 11])):
            columns = coupling.gather(np.array(blocks))
            assert np.array_equal(np.arange(12)[columns.index], np.arange(12)[index])
            assert np.array_equal(columns.rmatvec(y), np.tile(y, 2))
            assert np.array_equal(columns.matvec(v), v[:3] + v[3:])

    def test_row_abs_sums_checks_selection(self):
        coupling = IdentityStackCoupling(2, 3)
        assert np.array_equal(coupling.row_abs_sums([2, 0, 2]), np.full(2, 2.0))
        with pytest.raises(ValueError, match="nonempty"):
            coupling.row_abs_sums([])
        with pytest.raises(ValueError, match="out of range"):
            coupling.row_abs_sums([0, 3])


class TestRpca:
    def test_default_penalties(self, rng):
        B = rng.standard_normal((20, 30))
        mu2, mu3 = rpca_default_penalties(B)
        assert mu2 == pytest.approx(0.15 * np.abs(B).max(), rel=1e-12)
        assert mu3 == pytest.approx(0.15 * np.linalg.norm(B, 2), rel=1e-6)

    def test_h_is_all_ones(self, rng):
        B = rng.standard_normal((5, 6))
        inst = make_rpca(B, 0.1, 0.1)
        assert np.array_equal(inst.coupling.col_abs_sums, np.ones(90))

    def test_zero_data_zero_optimum(self):
        inst = make_rpca(np.zeros((4, 5)), 0.1, 0.1)
        x_star, y_star = preconditioned_reference(inst, tol=1e-12, max_passes=500)
        assert np.allclose(x_star, 0.0, atol=1e-12)
        assert inst.objective(x_star) == 0.0

    def test_objective_and_residual(self, rng):
        B = rng.standard_normal((4, 5))
        inst = make_rpca(B, 0.2, 0.3)
        x = rng.standard_normal(inst.n)
        X1, X2, X3 = x.reshape(3, *inst.meta["shape"])
        expected = (0.5 * np.sum(X1 ** 2) + 0.2 * np.abs(X2).sum()
                    + 0.3 * np.linalg.svd(X3, compute_uv=False).sum())
        assert inst.objective(x) == pytest.approx(expected, rel=1e-12)
        assert inst.residual(x) == pytest.approx(
            np.linalg.norm(X1 + X2 + X3 - B, "fro"), rel=1e-12)


class TestGenRpca:
    def test_rank_exact(self):
        L0, S0, N0 = rpca_components(30, 40, 5, seed=7)
        assert np.array_equal(L0 + S0 + N0, gen_rpca(30, 40, 5, seed=7))
        assert np.linalg.matrix_rank(L0) == 5

    def test_sparse_fraction(self):
        L0, S0, N0 = rpca_components(60, 80, 4, seed=1)
        assert np.array_equal(L0 + S0 + N0, gen_rpca(60, 80, 4, seed=1))
        frac = np.count_nonzero(S0) / S0.size
        assert abs(frac - 0.05) <= 0.005

    def test_deterministic(self):
        assert np.array_equal(gen_rpca(10, 12, 2, seed=3), gen_rpca(10, 12, 2, seed=3))

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            gen_rpca(10, 12, 11, seed=0)


class TestGroups:
    def test_weights_are_sqrt_sizes(self):
        features = np.eye(84)[:2]
        inst = make_group_lasso_hinge(features, [1.0, -1.0], BlockPartition([4, 16, 64]), 1.0)
        assert np.allclose([fn.weight for fn in inst.block_fns], [2.0, 4.0, 8.0])
        assert inst.n == 84

    def test_structure_constants(self):
        spec = group_lasso_structure()
        assert spec.num_blocks == 63
        assert spec.total == 2604
        assert sorted(set(spec.block_sizes)) == [4, 16, 64]
        assert [spec.block_sizes.count(s) for s in (4, 16, 64)] == [7, 21, 35]


class TestGenGroupLasso:
    def test_dimensions(self):
        features, labels, spec = gen_group_lasso(seed=5, n_samples=200)
        assert features.shape == (200, 2604)
        assert spec.total == 2604 and spec.num_blocks == 63
        assert set(np.unique(labels)) <= {-1.0, 1.0}

    def test_one_hot_rows(self):
        features, _, spec = gen_group_lasso(seed=3, n_samples=50)
        # every sample activates exactly one indicator per group
        offsets = spec.offsets
        for g in range(spec.num_blocks):
            block = features.values[:, offsets[g]:offsets[g + 1]]
            assert np.array_equal(block.sum(axis=1), np.ones(50))

    @pytest.mark.parametrize("key, value", [
        ("n_samples", 0), ("active_fraction", -3.0), ("active_fraction", 0.0),
        ("active_fraction", 1.5), ("active_fraction", float("nan")),
        ("label_noise", -1.0), ("label_noise", float("nan")), ("label_noise", float("inf"))])
    def test_rejects_bad_settings(self, key, value):
        with pytest.raises(ValueError, match=key):
            gen_group_lasso(seed=1, **{"n_samples": 30, key: value})

    def test_class_balance(self):
        rates = []
        for seed in range(8):
            _, labels, _ = gen_group_lasso(seed=seed, n_samples=2000)
            rates.append((labels > 0).mean())
        assert all(abs(r - 0.5) <= 0.03 for r in rates)

    def test_deterministic(self):
        f1, l1, _ = gen_group_lasso(seed=9, n_samples=64)
        f2, l2, _ = gen_group_lasso(seed=9, n_samples=64)
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(l1, l2)


class TestMakeGroupLassoHinge:
    def small_instance(self, n_samples=40, seed=2, lam=0.05):
        features, labels, spec = gen_group_lasso(seed=seed, n_samples=n_samples)
        return make_group_lasso_hinge(features, labels, spec, lam)

    def test_zero_predictor_objective_is_one(self):
        inst = self.small_instance()
        assert inst.objective(np.zeros(inst.n)) == pytest.approx(1.0, abs=1e-12)

    def test_coupling_stores_scaled_nonzeros_in_slot_rows(self, rng):
        features, labels, spec = gen_group_lasso(seed=2, n_samples=40)
        # the one-hot pattern with general values, so that a different
        # rounding of the scaling shows; a caller's own, writeable array
        F = features.values * rng.uniform(0.5, 2.0, features.shape)
        before = F.copy()
        inst = make_group_lasso_hinge(F, labels, spec, 0.05)
        coupling = inst.coupling
        scaled = -(labels[:, None] * before) / 40
        # every nonzero of -(z F) / N, bitwise, and nothing else
        assert np.count_nonzero(coupling.vals) == np.count_nonzero(scaled)
        dense = np.hstack([coupling.block(j) for j in range(inst.num_blocks)])
        assert np.array_equal(dense, scaled)
        # one-hot groups: one slot row per group, with no padding
        assert coupling.vals.shape == (spec.num_blocks, 40)
        assert np.all(coupling.vals != 0)
        # the caller's features are left as they were
        assert np.array_equal(F, before)
        assert F.flags.writeable and F.flags.c_contiguous

    def test_objective_keeps_no_features(self, rng):
        features, labels, spec = gen_group_lasso(seed=3, n_samples=30)
        F = features.values.copy()
        inst = make_group_lasso_hinge(F, labels, spec, 0.05)
        for _ in range(3):
            x = rng.standard_normal(inst.n)
            norms = [np.linalg.norm(x[inst.block_slice(j)]) for j in range(inst.num_blocks)]
            direct = (0.05 * np.sqrt(spec.block_sizes) @ norms
                      + np.maximum(0.0, 1.0 - labels * (F @ x)).mean())
            assert inst.objective(x) == pytest.approx(direct, rel=1e-12)
        features_ref = weakref.ref(F)
        del F
        gc.collect()
        assert features_ref() is None

    def test_rejects_non_finite_features(self):
        features, labels, spec = gen_group_lasso(seed=2, n_samples=10)
        for bad in (np.nan, np.inf):
            F = features.values.copy()
            F[3, 5] = bad
            with pytest.raises(ValueError, match="finite"):
                make_group_lasso_hinge(F, labels, spec, 0.1)

    def test_rejects_bad_labels(self):
        features, labels, spec = gen_group_lasso(seed=2, n_samples=10)
        labels = labels.copy()
        labels[0] = 0.5
        with pytest.raises(ValueError, match="labels"):
            make_group_lasso_hinge(features, labels, spec, 0.1)

    def test_huge_lambda_zero_optimum(self):
        features, labels, spec = gen_group_lasso(seed=4, n_samples=30)
        inst = make_group_lasso_hinge(features, labels, spec, lam=50.0)
        x_star, _ = preconditioned_reference(inst, tol=1e-12, max_passes=4000)
        assert np.allclose(x_star, 0.0, atol=1e-8)

    def test_tiny_hand_instance_grid_saddle(self):
        # N=2, two 1-d groups: the saddle value from dual exhaustion over a
        # [0,1]^2 grid matches the primal objective pointwise and at the grid
        # minimum (the inner max of the box-linear dual is attained at the
        # grid corners, so exhaustion is exact)
        features = np.array([[1.0, 0.5], [-0.5, 1.0]])
        labels = np.array([1.0, -1.0])
        spec = BlockPartition([1, 1])
        lam = 0.3
        inst = make_group_lasso_hinge(features, labels, spec, lam)

        grid = np.linspace(-4, 4, 161)
        y_grid = np.linspace(0, 1, 51)
        grid_min = np.inf
        saddle_min = np.inf
        for xv in grid:
            for yv in grid:
                x = np.array([xv, yv])
                primal = inst.objective(x)
                u = inst.coupling.matvec(x)
                # <y,u> - g*(y) over the y grid, c = -1/N = -1/2
                inner = np.add.outer(y_grid * (u[0] + 1 / 2), y_grid * (u[1] + 1 / 2))
                l_max = lam * np.abs(x).sum() + inner.max()
                assert l_max == pytest.approx(primal, abs=1e-12)
                grid_min = min(grid_min, primal)
                saddle_min = min(saddle_min, l_max)
        assert saddle_min == pytest.approx(grid_min, abs=1e-12)

        x_star, _ = preconditioned_reference(inst, tol=1e-12, max_passes=20000)
        assert inst.objective(x_star) <= grid_min + 1e-3


class TestSaddleConsistency:
    """max_y L(x, y) via the conjugate maximizer reproduces the primal
    objective; the two are computed along different arithmetic routes."""

    def test_lasso(self, rng, small_lasso):
        inst = small_lasso
        for _ in range(5):
            x = rng.standard_normal(inst.n)
            y_hat = argmax_inner(inst.dual_fn, inst.coupling.matvec(x))
            assert inst.lagrangian(x, y_hat) == pytest.approx(
                inst.objective(x), rel=1e-10, abs=1e-10)

    def test_group_lasso(self, rng):
        features, labels, spec = gen_group_lasso(seed=6, n_samples=25)
        inst = make_group_lasso_hinge(features, labels, spec, 0.07)
        for _ in range(5):
            x = rng.standard_normal(inst.n) * 0.5
            y_hat = argmax_inner(inst.dual_fn, inst.coupling.matvec(x))
            assert inst.lagrangian(x, y_hat) == pytest.approx(
                inst.objective(x), rel=1e-10, abs=1e-10)

    def test_rpca_on_feasible_points(self, rng):
        B = rng.standard_normal((4, 6))
        inst = make_rpca(B, 0.2, 0.3)
        size = 24
        for _ in range(5):
            x2 = rng.standard_normal(size)
            x3 = rng.standard_normal(size)
            x1 = B.ravel() - x2 - x3
            x = np.concatenate([x1, x2, x3])
            y = rng.standard_normal(size)
            # on the constraint manifold the Lagrangian equals the objective
            # for every multiplier
            assert inst.lagrangian(x, y) == pytest.approx(
                inst.objective(x), rel=1e-10, abs=1e-8)
            assert max_inner(inst.dual_fn, inst.coupling.matvec(x)) == 0.0
        assert max_inner(inst.dual_fn, inst.coupling.matvec(x) + 1.0) == np.inf
