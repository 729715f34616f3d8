import numpy as np
import pytest

from sepsaddle.errors import ConvergenceError
from sepsaddle.functions import L1Block
from sepsaddle.matrices import BlockPartition
from sepsaddle.problems import (
    gen_group_lasso,
    make_group_lasso_hinge,
    make_lasso,
    make_rpca,
)
from sepsaddle.spbcd import (
    StepsizeConfig,
    compute_sigma_t,
    initial_state,
    iterate,
    sample_blocks,
)
from oracles import (
    compute_M0,
    golden_section,
    p_matrix_min_eig,
    prox_oracle,
    reference_optimum,
    saddle_gap,
    verify_saddle_point,
)


def random_partition(rng, n):
    J = int(rng.integers(2, 7))
    cuts = np.sort(rng.choice(np.arange(1, n), size=J - 1, replace=False))
    return BlockPartition(np.diff(np.concatenate(([0], cuts, [n]))).tolist())


class TestGoldenSection:
    def test_quadratic(self):
        assert golden_section(lambda t: (t - 1.3) ** 2, -5, 5) == pytest.approx(
            1.3, abs=1e-10)

    def test_kinked(self):
        assert golden_section(lambda t: abs(t - 0.25) + 0.1 * t, -2, 2) == \
            pytest.approx(0.25, abs=1e-9)


class TestProxOracle:
    def test_zero_function_identity_metric(self, rng):
        v = rng.standard_normal(3)
        assert np.allclose(prox_oracle(L1Block(0.0), v, 1.0), v, atol=1e-9)

    def test_refuses_high_dimension(self, rng):
        with pytest.raises(ValueError, match="dimension"):
            prox_oracle(L1Block(0.0), rng.standard_normal(5), 1.0)

    def test_respects_domain(self):
        out = prox_oracle(lambda x: float(-5.0 * x.sum()), np.array([0.5]), 1.0,
                          domain=(0.0, 1.0))
        assert out[0] == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def oracle(tiny_lasso):
    return reference_optimum(tiny_lasso, tol=1e-13)


class TestSaddleGap:
    def test_zero_at_saddle(self, tiny_lasso, oracle):
        gap = saddle_gap(tiny_lasso, oracle.x_star, oracle.y_star)
        assert -1e-12 <= gap <= 1e-9

    def test_one_sided_slack_nonnegative(self, tiny_lasso, oracle):
        gap = saddle_gap(tiny_lasso, oracle.x_star, 0.5 * oracle.y_star)
        assert gap >= -1e-12

    def test_infeasible_dual_gives_infinity(self, tiny_lasso, oracle):
        y_bad = oracle.y_star * 0 + 100.0
        assert saddle_gap(tiny_lasso, oracle.x_star, y_bad) == np.inf

    def test_matches_grid_oracle_on_2x2(self, rng):
        inst = make_lasso(np.array([[0.8, -0.3], [0.2, 0.9]]),
                          np.array([0.7, -0.4]), 0.3)
        lam, b = 0.3, np.array([0.7, -0.4])
        A = inst.coupling.matrix.values
        x_prime = np.array([0.4, -0.2])
        y_prime = np.array([0.05, 0.08])  # strictly dual feasible
        assert np.abs(A.T @ y_prime).max() < lam

        y_grid = np.linspace(-3, 3, 1201)
        Y1, Y2 = np.meshgrid(y_grid, y_grid, indexing="ij")
        Ax = A @ x_prime
        L_y = (lam * np.abs(x_prime).sum() + Y1 * Ax[0] + Y2 * Ax[1]
               - (0.5 * (Y1 ** 2 + Y2 ** 2) + b[0] * Y1 + b[1] * Y2))
        max_side = L_y.max()

        x_grid = np.linspace(-3, 3, 1201)
        X1, X2 = np.meshgrid(x_grid, x_grid, indexing="ij")
        corr = A.T @ y_prime
        L_x = (lam * (np.abs(X1) + np.abs(X2)) + corr[0] * X1 + corr[1] * X2
               - (0.5 * y_prime @ y_prime + b @ y_prime))
        min_side = L_x.min()

        grid_gap = max_side - min_side
        resolution = (y_grid[1] - y_grid[0]) * 4
        assert saddle_gap(inst, x_prime, y_prime) == pytest.approx(
            grid_gap, abs=resolution)

    def test_refuses_unsupported_instance(self, rng):
        inst = make_rpca(rng.standard_normal((3, 3)), 0.1, 0.1)
        with pytest.raises(ValueError, match="not implemented"):
            saddle_gap(inst, np.zeros(inst.n), np.zeros(inst.m))


class TestComputeM0:
    def test_zero_displacement(self, tiny_lasso):
        saddle = reference_optimum(tiny_lasso, tol=1e-13)
        config = StepsizeConfig.for_instance(tiny_lasso, K=6)
        sigma = compute_sigma_t(tiny_lasso.coupling, range(6), 6, 6)
        out = compute_M0(tiny_lasso, saddle.x_star, saddle.y_star, saddle,
                         config.h, sigma, 6, 6)
        assert abs(out) <= 1e-12

    def test_full_selection_drops_linear_term(self, tiny_lasso):
        saddle = reference_optimum(tiny_lasso, tol=1e-13)
        config = StepsizeConfig.for_instance(tiny_lasso, K=6)
        sigma = compute_sigma_t(tiny_lasso.coupling, range(6), 6, 6)
        x0 = np.ones(6)
        y0 = np.zeros(4)
        out = compute_M0(tiny_lasso, x0, y0, saddle, config.h, sigma, 6, 6)
        dx = x0 - saddle.x_star
        dy = y0 - saddle.y_star
        quad_only = (0.5 * (dx * dx) @ config.h + 0.5 * (dy * dy) @ sigma
                     - dy @ (tiny_lasso.coupling.matvec(dx)))
        assert out == pytest.approx(quad_only, rel=1e-12)

    def test_term_by_term_duplicate_path(self, tiny_lasso, rng):
        saddle = reference_optimum(tiny_lasso, tol=1e-13)
        K, J = 2, 6
        config = StepsizeConfig.for_instance(tiny_lasso, K=K)
        sigma = compute_sigma_t(tiny_lasso.coupling, [0, 3], K, J)
        x0 = rng.standard_normal(6)
        y0 = rng.standard_normal(4)
        out = compute_M0(tiny_lasso, x0, y0, saddle, config.h, sigma, K, J)

        # independent elementwise summation
        A = tiny_lasso.coupling.matrix.values
        lam = tiny_lasso.meta["lam"]
        t1 = sum((J / (2 * K)) * config.h[i] * (x0[i] - saddle.x_star[i]) ** 2
                 for i in range(6))
        t2 = sum(0.5 * sigma[k] * (y0[k] - saddle.y_star[k]) ** 2 for k in range(4))
        t3 = -sum((y0[k] - saddle.y_star[k]) * sum(
            A[k, i] * (x0[i] - saddle.x_star[i]) for i in range(6)) for k in range(4))
        f0 = lam * sum(abs(v) for v in x0)
        fs = lam * sum(abs(v) for v in saddle.x_star)
        t4 = ((J - K) / K) * (
            f0 + sum(saddle.y_star[k] * sum(A[k, i] * x0[i] for i in range(6))
                     for k in range(4))
            - fs - sum(saddle.y_star[k] * sum(A[k, i] * saddle.x_star[i]
                                              for i in range(6)) for k in range(4)))
        assert out == pytest.approx(t1 + t2 + t3 + t4, rel=1e-10)


class TestPMatrix:
    def test_adaptive_rule_is_psd_on_random_draws(self):
        rng = np.random.Generator(np.random.PCG64(77))
        for _ in range(100):
            A = rng.standard_normal((8, 12))
            P = random_partition(rng, 12)
            J = P.num_blocks
            K = int(rng.integers(1, J + 1))
            blocks = np.sort(rng.choice(J, size=K, replace=False))
            h = np.abs(A).sum(axis=0)
            sigma = np.zeros(8)
            for j in blocks:
                sigma += np.abs(A[:, P.slice_of(j)]).sum(axis=1)
            sigma *= J / K
            assert p_matrix_min_eig(A, P, blocks, h, sigma, K, J) >= -1e-8

    def test_block_spectral_rule_is_psd_on_random_draws(self):
        rng = np.random.Generator(np.random.PCG64(99))
        for _ in range(100):
            A = rng.standard_normal((8, 12))
            P = random_partition(rng, 12)
            J = P.num_blocks
            K = int(rng.integers(1, J + 1))
            blocks = np.sort(rng.choice(J, size=K, replace=False))
            norms = [np.linalg.norm(A[:, P.slice_of(j)], 2) for j in range(J)]
            h = np.concatenate([np.full(P.block_sizes[j], norms[j]) for j in range(J)])
            sigma = np.full(8, (J / K) * sum(norms[j] for j in blocks))
            assert p_matrix_min_eig(A, P, blocks, h, sigma, K, J) >= -1e-8

    def test_inflated_h_strictly_positive(self):
        rng = np.random.Generator(np.random.PCG64(3))
        A = rng.standard_normal((6, 9))
        P = BlockPartition([3, 3, 3])
        h = 2.0 * np.abs(A).sum(axis=0)
        sigma = (3 / 2) * np.abs(A[:, :3]).sum(axis=1) + (3 / 2) * np.abs(
            A[:, 6:]).sum(axis=1)
        assert p_matrix_min_eig(A, P, [0, 2], h, sigma, 2, 3) > 0

    def test_deflated_h_goes_negative(self):
        rng = np.random.Generator(np.random.PCG64(4))
        worst = np.inf
        for _ in range(20):
            A = rng.standard_normal((6, 9))
            P = BlockPartition([3, 3, 3])
            h = 0.1 * np.abs(A).sum(axis=0)
            sigma = (3 / 3) * np.abs(A).sum(axis=1)
            worst = min(worst, p_matrix_min_eig(A, P, [0, 1, 2], h, sigma, 3, 3))
        assert worst < -1e-6

    def test_global_max_dual_penalty_is_not_psd_safe(self):
        # scaling sigma by the max block norm instead of the selected-block
        # norm sum breaks positive semidefiniteness as soon as two selected
        # blocks overlap in range space; this pins why the block-spectral
        # rule sums the selected norms
        A = np.array([[1.0, 1.0]])
        P = BlockPartition.singletons(2)
        h = np.array([1.0, 1.0])            # block norms
        sigma = np.array([(2 / 2) * 1.0])   # (J/K) * max block norm
        assert p_matrix_min_eig(A, P, [0, 1], h, sigma, 2, 2) < -0.2


class TestAppendixChain:
    def test_merit_decrease_dominates_gap(self, tiny_lasso):
        """Deterministic full-selection case: M(t) - M(t+1) bounds the
        per-iteration saddle gap at the oracle point."""
        saddle = reference_optimum(tiny_lasso, tol=1e-13)
        J = tiny_lasso.num_blocks
        config = StepsizeConfig.for_instance(tiny_lasso, K=J)
        sigma = compute_sigma_t(tiny_lasso.coupling, range(J), J, J)
        state = initial_state(tiny_lasso)
        l_star_x = tiny_lasso.lagrangian(saddle.x_star, saddle.y_star)

        merits = [compute_M0(tiny_lasso, state.x, state.y, saddle, config.h,
                             sigma, J, J)]
        gaps = []
        for _ in range(300):
            iterate(tiny_lasso, state, config, np.arange(J))
            merits.append(compute_M0(tiny_lasso, state.x, state.y, saddle,
                                     config.h, sigma, J, J))
            gaps.append(tiny_lasso.lagrangian(state.x, saddle.y_star)
                        - tiny_lasso.lagrangian(saddle.x_star, state.y))
        for t in range(300):
            assert merits[t] - merits[t + 1] - gaps[t] >= -1e-9
        # sanity: the chain telescopes to a useful bound
        assert sum(gaps) <= merits[0] + 1e-9
        assert abs(l_star_x - tiny_lasso.objective(saddle.x_star)) <= 1e-8


class TestReferenceOptimum:
    def test_closed_form_toy(self):
        inst = make_lasso(np.eye(2), np.array([1.0, 0.0]), 0.5)
        saddle = reference_optimum(inst, tol=1e-13)
        assert np.allclose(saddle.x_star, [0.5, 0.0], atol=1e-7)
        assert np.allclose(saddle.y_star, [-0.5, 0.0], atol=1e-7)

    def test_zero_rpca(self):
        inst = make_rpca(np.zeros((3, 4)), 0.2, 0.2)
        saddle = reference_optimum(inst, tol=1e-12, max_passes=2000)
        assert np.allclose(saddle.x_star, 0.0, atol=1e-10)

    def test_perturbation_certificate(self, tiny_lasso):
        saddle = reference_optimum(tiny_lasso, tol=1e-13)
        violation = verify_saddle_point(tiny_lasso, saddle.x_star, saddle.y_star,
                                        num_directions=1000)
        assert violation <= saddle.tolerance

    def test_group_lasso_reference(self):
        features, labels, spec = gen_group_lasso(seed=3, n_samples=60)
        inst = make_group_lasso_hinge(features, labels, spec, 0.05)
        saddle = reference_optimum(inst, tol=1e-10, max_passes=40_000)
        assert np.all(saddle.y_star >= 0) and np.all(saddle.y_star <= 1)

    def test_nonconvergence_raises(self, tiny_lasso):
        with pytest.raises(ConvergenceError):
            reference_optimum(tiny_lasso, tol=1e-15, window=10, max_passes=20)


class TestStochasticGapBound:
    def test_mean_ergodic_gap_within_bound(self, tiny_lasso):
        """Sampled-block case: the mean ergodic gap at T=500 stays within a
        modest factor of the M(0)/T bound (20 seeds here; the acceptance
        suite runs 200)."""
        saddle = reference_optimum(tiny_lasso, tol=1e-13)
        K, J = 2, 6
        config = StepsizeConfig.for_instance(tiny_lasso, K=K)
        T = 500
        gaps = []
        bounds = []
        for seed in range(20):
            state = initial_state(tiny_lasso)
            draws = sample_blocks(np.random.Generator(np.random.PCG64(seed)), J, K, T)
            sum_x = np.zeros(J)
            sum_y = np.zeros(tiny_lasso.m)
            sigma0 = compute_sigma_t(tiny_lasso.coupling, draws[0], K, J)
            for blocks in draws:
                iterate(tiny_lasso, state, config, blocks)
                sum_x += state.x
                sum_y += state.y
            gaps.append(tiny_lasso.lagrangian(sum_x / T, saddle.y_star)
                        - tiny_lasso.lagrangian(saddle.x_star, sum_y / T))
            bounds.append(compute_M0(tiny_lasso, np.zeros(J), np.zeros(4),
                                     saddle, config.h, sigma0, K, J))
        assert np.mean(gaps) <= 1.2 * np.mean(bounds) / T
