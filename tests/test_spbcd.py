import dataclasses
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepsaddle import spbcd
from sepsaddle.baselines import PdcpConfig, pdcp_initial_state, pdcp_run, preconditioned_pdcp_run
from sepsaddle.errors import ConfigError, NumericsError, RunAborted
from sepsaddle.functions import (
    BlockProx,
    BoxLinearDual,
    GroupL2Block,
    L1Block,
    LinearDual,
    NuclearBlock,
    QuadraticBlock,
    QuadraticDual,
)
from sepsaddle.matrices import (
    BlockPartition,
    DenseCoupling,
    DenseMatrix,
    SparseCoupling,
)
from sepsaddle.problems import (
    SepCCSPInstance,
    gen_group_lasso,
    gen_lasso,
    gen_rpca,
    make_group_lasso_hinge,
    make_lasso,
    make_rpca,
    rpca_default_penalties,
)
from sepsaddle.prox import prox_group_l2_segments, prox_l1, prox_quadratic_frobenius
from sepsaddle.spbcd import (
    FLOOR_EPS,
    STEPSIZE_RULES,
    StepsizeConfig,
    _sigma_for,
    compute_sigma_t,
    dual_step,
    initial_state,
    iterate,
    iterations_per_pass,
    rbar_drift,
    run,
    sample_blocks,
    timed_passes,
)
from oracles import prox_oracle, resolvent_oracle


def hand_instance():
    """2x2 lasso used for the hand-executed trace."""
    return make_lasso(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([1.0, -1.0]), 0.1)


# ---------------------------------------------------------------------------
# Reference: the per-block iteration the batched ``iterate`` replaced. Each
# selected block takes its own primal step, extrapolation and block product,
# and the block images are summed in ascending block order.
# ---------------------------------------------------------------------------

def primal_block_step(instance, state, j, h_j):
    """Exact minimizer of f_j(x_j) + <y, A_j x_j> + (1/2)||x_j - x_j^t||^2_h_j."""
    sl = instance.block_slice(j)
    v = state.x[sl] - instance.coupling.gather(np.array([j])).rmatvec(state.y) / h_j
    return instance.block_fns[j].prox(v, h_j)


def extrapolate(x_new, x_old, theta):
    return x_new + theta * (x_new - x_old)


def ordered_sum(deltas):
    keys = sorted(deltas)
    total = deltas[keys[0]].copy()
    for j in keys[1:]:
        total += deltas[j]
    return total


def update_rbar(state, deltas):
    """r_bar += the per-block deltas, summed in ascending block order."""
    if deltas:
        state.r_bar = state.r_bar + ordered_sum(deltas)
    return state.r_bar


def reference_iterate(instance, state, config, blocks):
    """One iteration over the given sorted selection, block by block."""
    deltas = {}
    updates = []
    for j in blocks:
        sl = instance.block_slice(j)
        x_new = primal_block_step(instance, state, j, config.h[sl])
        xb_new = extrapolate(x_new, state.x[sl], config.theta)
        deltas[j] = instance.coupling.gather(np.array([j])).matvec(xb_new - state.x_bar[sl])
        updates.append((sl, x_new, xb_new))
    sigma_t = _sigma_for(instance, blocks, config)
    y_new = dual_step(instance, state, blocks, sigma_t, ordered_sum(deltas))
    for sl, x_new, xb_new in updates:
        state.x[sl] = x_new
        state.x_bar[sl] = xb_new
    state.y = y_new
    update_rbar(state, deltas)
    state.t += 1
    return state


class TestSampleBlocks:
    def test_full_set(self, rng):
        assert np.array_equal(sample_blocks(rng, 4, 4, 5), [[0, 1, 2, 3]] * 5)

    def test_sorted_and_distinct(self, rng):
        blocks = sample_blocks(rng, 10, 4, 100)
        assert blocks.shape == (100, 4)
        assert np.all(np.diff(blocks, axis=1) > 0)

    def test_marginal_frequencies(self):
        rng = np.random.Generator(np.random.PCG64(7))
        draws = 30_000
        counts = np.bincount(sample_blocks(rng, 3, 1, draws)[:, 0], minlength=3)
        assert np.all(np.abs(counts / draws - 1 / 3) <= 0.01)

    def test_same_seed_same_sequence(self):
        a = np.random.Generator(np.random.PCG64(5))
        b = np.random.Generator(np.random.PCG64(5))
        for _ in range(50):
            assert np.array_equal(sample_blocks(a, 7, 3, 2), sample_blocks(b, 7, 3, 2))

    def test_rejects_bad_K(self, rng):
        with pytest.raises(ValueError):
            sample_blocks(rng, 3, 4, 1)
        with pytest.raises(ValueError):
            sample_blocks(rng, 3, 0, 1)

    # numpy (2.4) draws ``choice(J, K, replace=False)`` by Floyd's method
    # when J <= 10,000 or K <= J // 50, and by a tail shuffle otherwise.
    @pytest.mark.parametrize("J, K", [(1, 1), (2, 1), (3, 1), (63, 1), (5000, 1), (2 ** 20, 1),
                                      (4, 4), (63, 63),
                                      (63, 3), (5000, 100),  # Floyd's method
                                      (10_001, 201)])  # tail shuffle
    def test_same_sets_and_generator_state_as_choice(self, J, K):
        """50 draws of up to a pass each hold, row by row, the sets of one
        sorted ``rng.choice`` per iteration, and leave the generator where
        those calls leave it; at K = J the generator is not touched."""
        fast = np.random.Generator(np.random.PCG64(2024))
        slow = np.random.Generator(np.random.PCG64(2024))
        untouched = np.random.Generator(np.random.PCG64(2024)).bit_generator.state
        count = min(iterations_per_pass(J, K), 100)
        for _ in range(50):
            want = [np.sort(slow.choice(J, size=K, replace=False)) for _ in range(count)]
            assert np.array_equal(sample_blocks(fast, J, K, count), want)
        if K == J and J > 1:
            assert fast.bit_generator.state == untouched
        else:
            assert fast.bit_generator.state == slow.bit_generator.state


class TestStepsizeConfig:
    def test_theta_is_K_over_J(self, small_lasso):
        config = StepsizeConfig.for_instance(small_lasso, K=5)
        assert config.theta == 5 / small_lasso.num_blocks

    def test_adaptive_h_is_column_sums(self, small_lasso):
        config = StepsizeConfig.for_instance(small_lasso, K=3)
        assert np.allclose(config.h, small_lasso.coupling.col_abs_sums)

    def test_block_spectral_h_is_blockwise_norms(self, rng):
        A = rng.standard_normal((4, 6))
        inst = SepCCSPInstance(
            coupling=DenseCoupling(DenseMatrix(A), BlockPartition([2, 2, 2])),
            block_fns=(L1Block(0.0),) * 3,
            dual_fn=QuadraticDual(np.zeros(4)),
            primal_objective=lambda x: 0.0,
            residual_kind="suboptimality",
        )
        config = StepsizeConfig.for_instance(inst, K=2, rule="block-spectral")
        for j in range(3):
            exact = np.linalg.svd(A[:, 2 * j:2 * j + 2], compute_uv=False)[0]
            assert np.allclose(config.h[2 * j:2 * j + 2], exact, rtol=1e-8)

    def test_zero_column_floored_with_warning(self):
        A = np.array([[1.0, 0.0], [2.0, 0.0]])
        inst = make_lasso(A, np.zeros(2), 0.5)
        with pytest.warns(RuntimeWarning, match="floored"):
            config = StepsizeConfig.for_instance(inst, K=2)
        assert config.h[1] == pytest.approx(1e-10)

    def test_lifted_floor_does_not_warn(self):
        # 30 samples leave some interaction columns empty; each group's
        # maximum lifts them off the floor
        features, labels, spec = gen_group_lasso(seed=0, n_samples=30)
        inst = make_group_lasso_hinge(features, labels, spec, 0.1)
        assert np.any(inst.coupling.col_abs_sums == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            config = StepsizeConfig.for_instance(inst, K=3)
        assert np.all(config.h > 1e-10)

    def test_all_zero_group_still_warns(self):
        features = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        labels = np.array([1.0, -1.0])
        inst = make_group_lasso_hinge(features, labels, BlockPartition((1, 2)), 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            config = StepsizeConfig.for_instance(inst, K=1)
        assert config.h[1] == 0.5 and config.h[2] == 0.5
        features[1, 1] = 0.0
        inst = make_group_lasso_hinge(features, labels, BlockPartition((1, 2)), 0.1)
        with pytest.warns(RuntimeWarning, match=r"coordinates \[1, 2\]$"):
            config = StepsizeConfig.for_instance(inst, K=1)
        assert np.all(config.h[1:] == 1e-10)

    def test_group_blocks_get_uniform_h(self):
        features, labels, spec = gen_group_lasso(seed=0, n_samples=30)
        inst = make_group_lasso_hinge(features, labels, spec, 0.1)
        config = StepsizeConfig.for_instance(inst, K=3)
        for g in range(inst.num_blocks):
            sl = inst.block_slice(g)
            assert np.all(config.h[sl] == config.h[sl][0])
            assert config.h[sl][0] == pytest.approx(
                inst.coupling.col_abs_sums[sl].max())

    def test_rejects_bad_rule_and_K(self, small_lasso):
        with pytest.raises(ConfigError):
            StepsizeConfig.for_instance(small_lasso, K=0)
        with pytest.raises(ConfigError):
            StepsizeConfig.for_instance(small_lasso, K=1, rule="spectral")

    @pytest.mark.parametrize("rule", STEPSIZE_RULES)
    def test_guarantee_mark_warns_once_when_it_is_off(self, small_lasso, rule):
        """A sigma_scale below 1, or a sigma_override below the rule's sigma
        over all blocks, marks the config off the guarantee with one
        RuntimeWarning; under an override the scale does not act. That sigma
        bounds every iteration's."""
        inst, K = small_lasso, 5
        J = inst.num_blocks
        if rule == "adaptive-l1":
            bound = (J / K) * np.abs(inst.coupling.matrix.values).sum(axis=1).max()
        else:
            bound = (J / K) * sum(sorted(inst.coupling.block_norms)[-K:])
        gen = np.random.Generator(np.random.PCG64(5))
        config = StepsizeConfig.for_instance(inst, K, rule=rule)
        for _ in range(50):
            blocks = np.sort(gen.choice(J, size=K, replace=False))
            assert _sigma_for(inst, blocks, config).max() <= bound * (1 + 1e-12)
        for setting, kept in [({}, True), ({"sigma_scale": 1.0}, True),
                              ({"sigma_scale": 3.0}, True), ({"sigma_scale": 0.999}, False),
                              ({"sigma_override": 1.001 * bound}, True),
                              ({"sigma_override": 0.999 * bound}, False),
                              ({"sigma_override": 2 * bound, "sigma_scale": 0.5}, True)]:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                config = StepsizeConfig.for_instance(inst, K, rule=rule, **setting)
            assert config.guarantee is kept, setting
            assert [w.category for w in caught] == ([] if kept else [RuntimeWarning]), setting
            if not kept:
                assert "guarantee=off" in str(caught[0].message)

    def test_a_directly_built_config_states_its_guarantee(self, small_lasso):
        """The mark has no default: a config built without ``for_instance``
        cannot claim the guarantee by leaving it out."""
        J = small_lasso.num_blocks
        with pytest.raises(TypeError, match="guarantee"):
            StepsizeConfig("adaptive-l1", small_lasso.coupling.col_abs_sums, K=J, J=J)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("key", ["sigma_override", "sigma_scale"])
    def test_rejects_sigma_settings_that_are_not_positive_and_finite(
            self, small_lasso, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be positive and finite"):
            StepsizeConfig.for_instance(small_lasso, K=1, **{key: value})


class TestComputeSigmaT:
    def test_identity_stack_is_J(self, rng):
        inst = make_rpca(rng.standard_normal((3, 4)), 0.1, 0.1)
        for K, blocks in ((1, [2]), (2, [0, 2]), (3, [0, 1, 2])):
            sigma = compute_sigma_t(inst.coupling, blocks, K, 3)
            assert np.allclose(sigma, 3.0)

    def test_hand_example(self):
        A = DenseMatrix([[1.0, -2.0, 0.0], [0.0, 3.0, 1.0]])
        coupling = DenseCoupling(A, BlockPartition.singletons(3))
        sigma = compute_sigma_t(coupling, [0, 2], K=2, J=3)
        assert np.allclose(sigma, [1.5, 1.5])

    def test_zero_columns_hit_floor(self):
        A = DenseMatrix([[1.0, 0.0], [1.0, 0.0]])
        coupling = DenseCoupling(A, BlockPartition.singletons(2))
        sigma = compute_sigma_t(coupling, [1], K=1, J=2)
        assert np.allclose(sigma, 1e-10)

    def test_block_spectral_uses_selected_norm_sum(self, rng):
        A = rng.standard_normal((4, 6))
        coupling = DenseCoupling(DenseMatrix(A), BlockPartition([2, 2, 2]))
        sigma = compute_sigma_t(coupling, [0, 2], K=2, J=3, rule="block-spectral")
        expected = (3 / 2) * sum(
            np.linalg.svd(A[:, c:c + 2], compute_uv=False)[0] for c in (0, 4))
        assert np.allclose(sigma, expected, rtol=1e-8)


class TestPrimalBlockStep:
    def test_zero_function_gives_linear_step(self, rng):
        A = rng.standard_normal((3, 4))
        inst = SepCCSPInstance(
            coupling=DenseCoupling(DenseMatrix(A), BlockPartition([2, 2])),
            block_fns=(L1Block(0.0), L1Block(0.0)),
            dual_fn=QuadraticDual(np.zeros(3)),
            primal_objective=lambda x: 0.0,
            residual_kind="suboptimality",
        )
        state = initial_state(inst, x0=rng.standard_normal(4),
                              y0=rng.standard_normal(3))
        h = np.array([2.0, 3.0])
        out = primal_block_step(inst, state, 1, h)
        expected = state.x[2:] - (A[:, 2:].T @ state.y) / h
        assert np.allclose(out, expected, atol=1e-14)

    def test_zero_dual_is_plain_shrink(self, small_lasso):
        state = initial_state(small_lasso,
                              x0=np.linspace(-1, 1, small_lasso.n))
        config = StepsizeConfig.for_instance(small_lasso, K=small_lasso.n)
        lam = small_lasso.meta["lam"]
        for j in (0, 3, 19):
            h = config.h[small_lasso.block_slice(j)]
            out = primal_block_step(small_lasso, state, j, h)
            x_j = state.x[small_lasso.block_slice(j)]
            expected = np.sign(x_j) * np.maximum(np.abs(x_j) - lam / h, 0)
            assert np.allclose(out, expected, atol=1e-15)

    def test_matches_numeric_oracle(self, small_lasso, rng):
        state = initial_state(small_lasso, x0=rng.standard_normal(small_lasso.n),
                              y0=rng.standard_normal(small_lasso.m))
        config = StepsizeConfig.for_instance(small_lasso, K=small_lasso.n)
        lam = small_lasso.meta["lam"]
        for j in (1, 7, 12):
            sl = small_lasso.block_slice(j)
            h = config.h[sl]
            out = primal_block_step(small_lasso, state, j, h)
            a_j = small_lasso.coupling.block(j)

            def subproblem(xj, j=j, sl=sl):
                return (lam * np.abs(xj).sum()
                        + float(state.y @ (a_j @ xj))
                        + 0.5 * float((xj - state.x[sl]) ** 2 @ h))

            ref = prox_oracle(subproblem, state.x[sl], 0.0)
            # metric folded into the subproblem; oracle sees the full objective
            assert np.allclose(out, ref, atol=1e-8)


class TestExtrapolate:
    def test_fixed_point(self, rng):
        v = rng.standard_normal(3)
        assert np.array_equal(extrapolate(v, v, 0.7), v)

    def test_doubling(self, rng):
        v = rng.standard_normal(3)
        assert np.allclose(extrapolate(v, np.zeros(3), 1.0), 2 * v)

    def test_third(self):
        assert extrapolate(np.array([6.0]), np.array([3.0]), 1 / 3)[0] == 7.0


class TestDualStep:
    def test_rpca_stationary(self, rng):
        B = rng.standard_normal((3, 4))
        inst = make_rpca(B, 0.1, 0.1)
        x = np.concatenate([B.ravel(), np.zeros(B.size), np.zeros(B.size)])
        state = initial_state(inst, x0=x, y0=rng.standard_normal(B.size))
        assert np.allclose(state.r_bar, B.ravel())
        sigma = compute_sigma_t(inst.coupling, [0], 1, 3)
        out = dual_step(inst, state, [0], sigma, np.zeros(inst.m))
        assert np.allclose(out, state.y, atol=1e-14)

    def test_matches_resolvent_oracle(self, rng):
        inst = make_lasso(rng.standard_normal((2, 3)), rng.standard_normal(2), 0.2)
        state = initial_state(inst, x0=rng.standard_normal(3),
                              y0=rng.standard_normal(2))
        blocks = [0, 2]
        sigma = compute_sigma_t(inst.coupling, blocks, 2, 3)
        delta = rng.standard_normal(2) * 0.1
        out = dual_step(inst, state, blocks, sigma, delta)
        u = state.r_bar + (3 / 2) * delta
        ref = resolvent_oracle(inst.dual_fn, state.y, u, sigma)
        assert np.allclose(out, ref, atol=1e-8)

    def test_hinge_output_in_box(self, rng):
        features, labels, spec = gen_group_lasso(seed=1, n_samples=20)
        inst = make_group_lasso_hinge(features, labels, spec, 0.05)
        state = initial_state(inst, y0=rng.uniform(0, 1, inst.m))
        blocks = [0, 5, 62]
        sigma = compute_sigma_t(inst.coupling, blocks, 3, 63)
        out = dual_step(inst, state, blocks, sigma, rng.standard_normal(inst.m))
        assert np.all(out >= 0) and np.all(out <= 1)


class TestUpdateRbar:
    """``update_rbar`` is the reference loop's; the runs check the engine's
    cache."""

    def test_no_deltas_no_change(self, small_lasso, rng):
        state = initial_state(small_lasso, x0=rng.standard_normal(small_lasso.n))
        before = state.r_bar.copy()
        update_rbar(state, {})
        assert np.array_equal(state.r_bar, before)

    def test_recompute_after_random_run(self, small_lasso):
        config = StepsizeConfig.for_instance(small_lasso, K=4)
        state, _ = run(small_lasso, config, pass_budget=40, seed=3)
        assert rbar_drift(small_lasso, state) <= 1e-10

    def test_full_sweep_equals_fresh_matvec(self, small_lasso):
        config = StepsizeConfig.for_instance(small_lasso, K=small_lasso.num_blocks)
        state, _ = run(small_lasso, config, pass_budget=20, seed=0)
        fresh = small_lasso.coupling.matvec(state.x_bar)
        denom = 1.0 + np.linalg.norm(fresh)
        assert np.linalg.norm(state.r_bar - fresh) / denom <= 1e-12


class TestIterate:
    def test_hand_executed_trace(self):
        """Two full iterations on the 2x2 problem, checked against the
        hand-derived constants (h = (1,3), sigma = (3,1), theta = 1)."""
        inst = hand_instance()
        config = StepsizeConfig.for_instance(inst, K=2)
        assert np.allclose(config.h, [1.0, 3.0])
        state = initial_state(inst)
        blocks = np.arange(2)

        iterate(inst, state, config, blocks)
        assert np.allclose(state.x, [0.0, 0.0], atol=1e-15)
        assert np.allclose(state.y, [-0.25, 0.5], atol=1e-15)
        assert np.allclose(state.r_bar, [0.0, 0.0], atol=1e-15)

        iterate(inst, state, config, blocks)
        assert np.allclose(state.x, [0.15, 0.0], atol=1e-12)
        assert np.allclose(state.x_bar, [0.30, 0.0], atol=1e-12)
        assert np.allclose(state.y, [-0.3625, 0.75], atol=1e-12)
        assert np.allclose(state.r_bar, [0.30, 0.0], atol=1e-12)

    def test_sigma_override_matches_manual(self):
        inst = hand_instance()
        config = StepsizeConfig.for_instance(inst, K=2, sigma_override=2.0)
        state = initial_state(inst)
        iterate(inst, state, config, np.arange(2))
        # y = (2*0 + 0 - b) / (2 + 1)
        assert np.allclose(state.y, [-1 / 3, 1 / 3], atol=1e-15)

    def test_rejects_nan_state(self, small_lasso, rng):
        config = StepsizeConfig.for_instance(small_lasso, K=2)
        state = initial_state(small_lasso)
        state.x[0] = np.nan
        with pytest.raises(NumericsError, match="non-finite"):
            iterate(small_lasso, state, config, sample_blocks(rng, config.J, 2, 1)[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, "middle", -1])
    @pytest.mark.parametrize("name", ["x", "x_bar", "y", "r_bar"])
    def test_non_finite_entry_names_its_vector(self, small_lasso, rng, name, where, bad):
        config = StepsizeConfig.for_instance(small_lasso, K=2)
        state = initial_state(small_lasso)
        state.t = 17
        v = getattr(state, name)
        v[v.size // 2 if where == "middle" else where] = bad
        with pytest.raises(NumericsError, match=f"^non-finite values in {name} at iteration 17$"):
            iterate(small_lasso, state, config, sample_blocks(rng, config.J, 2, 1)[0])

    def test_finite_state_whose_squares_overflow_passes(self, small_lasso):
        """Entries of 1e200 make the sum of squares inf; the exact scan then
        finds every entry finite, and nothing warns."""
        state = initial_state(small_lasso)
        for name in ("x", "x_bar", "y", "r_bar"):
            getattr(state, name)[:] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state.validate()
        state.y[-1] = np.nan
        with pytest.raises(NumericsError, match="non-finite values in y"):
            state.validate()

    def test_all_zero_block_gets_a_floored_float_sigma(self):
        """A sparse block with no nonzero sums its rows to zeros, which the
        sigma rule scales and floors in place."""
        A = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        coupling = sparse_coupling(A, BlockPartition([1, 2]))
        inst = SepCCSPInstance(coupling=coupling, block_fns=(L1Block(0.1), GroupL2Block(0.1)),
                               dual_fn=BoxLinearDual(-0.5), primal_objective=lambda x: 0.0,
                               residual_kind="suboptimality")
        with pytest.warns(RuntimeWarning, match="floored"):
            config = StepsizeConfig.for_instance(inst, K=1)
        columns = coupling.gather(np.array([1]))
        sigma = compute_sigma_t(coupling, [1], 1, 2, columns=columns)
        assert sigma.dtype == np.float64 and np.array_equal(sigma, [1e-10, 1e-10])
        state = initial_state(inst)
        iterate(inst, state, config, np.array([1]))
        assert state.t == 1 and np.array_equal(state.x, np.zeros(3))

    def test_full_selection_matches_preconditioned_twin(self, small_lasso):
        config = StepsizeConfig.for_instance(small_lasso, K=small_lasso.num_blocks)
        state, _ = run(small_lasso, config, pass_budget=100, seed=5)
        twin, _ = preconditioned_pdcp_run(small_lasso, passes=100)
        assert np.abs(state.x - twin.x).max() <= 1e-12
        assert np.abs(state.y - twin.y).max() <= 1e-12


class TestTimedPasses:
    def test_numerics_error_aborts_with_partial_trace(self):
        def step(k):
            if k == 2:
                raise NumericsError("overflow")
            return k + 1

        with pytest.raises(RunAborted, match="overflow") as excinfo:
            timed_passes(step, 0, 5, lambda p, k, secs: k)
        assert excinfo.value.trace == [1, 2]
        assert isinstance(excinfo.value.__cause__, NumericsError)

    def test_callback_runs_outside_the_timed_span(self):
        seen = []

        def callback(p, state, secs):
            seen.append(secs)
            time.sleep(0.02)

        state, trace = timed_passes(lambda k: k + 1, 0, 3, callback)
        assert state == 3 and trace == [None, None, None]
        assert seen == sorted(seen) and seen[-1] < 0.02

    def test_zero_passes_returns_the_start(self):
        assert timed_passes(lambda k: k + 1, 7, 0, lambda p, k, secs: k) == (7, [])


class TestRun:
    def test_rejects_zero_budget(self, small_lasso):
        config = StepsizeConfig.for_instance(small_lasso, K=2)
        with pytest.raises(ValueError):
            run(small_lasso, config, pass_budget=0)

    def test_pass_accounting(self, small_lasso):
        config = StepsizeConfig.for_instance(small_lasso, K=3)
        state, trace = run(small_lasso, config, pass_budget=4,
                           metric_callback=lambda p, s, t: p)
        assert trace == [1, 2, 3, 4]
        assert state.t == 4 * iterations_per_pass(small_lasso.num_blocks, 3)

    def test_callback_failure_aborts_with_partial_trace(self, small_lasso):
        config = StepsizeConfig.for_instance(small_lasso, K=2)

        def callback(p, state, secs):
            if p == 3:
                raise RuntimeError("boom")
            return p

        with pytest.raises(RunAborted) as excinfo:
            run(small_lasso, config, pass_budget=5, metric_callback=callback)
        assert excinfo.value.trace == [1, 2]

    def test_objective_decreases_on_lasso(self, small_lasso):
        config = StepsizeConfig.for_instance(small_lasso, K=5)
        _, trace = run(small_lasso, config, pass_budget=30,
                       metric_callback=lambda p, s, t: small_lasso.objective(s.x))
        assert trace[-1] < trace[0]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_does_not_change_iterates(self, workers):
        A, b, lam = gen_lasso(8, 12, 3, seed=21)
        inst = make_lasso(A, b, lam)
        config = StepsizeConfig.for_instance(inst, K=5)
        ref_state, ref_trace = run(
            inst, config, pass_budget=10, seed=9,
            metric_callback=lambda p, s, t: (s.x.copy(), s.y.copy()))
        state, trace = run(
            inst, config, pass_budget=10, seed=9, workers=workers,
            metric_callback=lambda p, s, t: (s.x.copy(), s.y.copy()))
        for (x1, y1), (x2, y2) in zip(ref_trace, trace):
            assert np.array_equal(x1, x2)
            assert np.array_equal(y1, y2)

    def test_group_lasso_dual_stays_in_box(self):
        features, labels, spec = gen_group_lasso(seed=2, n_samples=40)
        inst = make_group_lasso_hinge(features, labels, spec, 0.02)
        config = StepsizeConfig.for_instance(inst, K=7)

        def check(p, state, secs):
            assert np.all(state.y >= 0.0) and np.all(state.y <= 1.0)
            return p

        run(inst, config, pass_budget=5, metric_callback=check, seed=1)

    def test_rpca_worker_count_does_not_change_state(self):
        """The state after 30 iterations, nuclear block included, is bitwise
        the same for any worker count."""
        B = gen_rpca(6, 8, 2, seed=3)
        inst = make_rpca(B, *rpca_default_penalties(B))
        for K in (2, 3):
            config = StepsizeConfig.for_instance(inst, K=K)
            passes = 30 // iterations_per_pass(3, K)
            ref, _ = run(inst, config, pass_budget=passes, seed=4)
            for workers in (2, 8):
                state, _ = run(inst, config, pass_budget=passes, seed=4, workers=workers)
                for name in ("x", "x_bar", "y", "r_bar"):
                    assert np.array_equal(getattr(state, name), getattr(ref, name)), (K, workers, name)

    def test_rpca_gram_prox_matches_svd_prox(self):
        """30 iterations with the default nuclear prox track, within 1e-10
        relative, the same run whose nuclear block thresholds through a full
        SVD (a subclass, so ``BlockProx`` calls its own ``prox``)."""
        class SvdNuclearBlock(NuclearBlock):
            def prox(self, v, h):
                U, s, Wt = np.linalg.svd(self._mat(v), full_matrices=False)
                tau = self.weight / np.max(h)
                return ((U * np.maximum(s - tau, 0.0)) @ Wt).ravel()

        B = gen_rpca(20, 30, 2, seed=3)
        inst = make_rpca(B, *rpca_default_penalties(B))
        nuclear = inst.block_fns[2]
        svd_inst = dataclasses.replace(
            inst, block_fns=inst.block_fns[:2] + (
                SvdNuclearBlock(nuclear.weight, nuclear.rows, nuclear.cols),))
        for K in (2, 3):
            config = StepsizeConfig.for_instance(inst, K=K)
            passes = 30 // iterations_per_pass(3, K)
            state, _ = run(inst, config, pass_budget=passes, seed=4)
            ref, _ = run(svd_inst, config, pass_budget=passes, seed=4)
            assert state.t == ref.t == 30
            for name in ("x", "x_bar", "y", "r_bar"):
                a, b = getattr(state, name), getattr(ref, name)
                assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b), (K, name)

    def test_run_starts_no_thread(self):
        """The engine runs on the calling thread for any worker count; at
        K=3 every iteration samples the nuclear block."""
        B = gen_rpca(6, 8, 2, seed=3)
        inst = make_rpca(B, *rpca_default_penalties(B))
        config = StepsizeConfig.for_instance(inst, K=3)
        before = threading.active_count()
        _, trace = run(inst, config, pass_budget=3, seed=4, workers=8,
                       metric_callback=lambda p, s, t: threading.active_count())
        assert trace == [before] * 3


# ---------------------------------------------------------------------------
# The batched iteration against the per-block reference loop
# ---------------------------------------------------------------------------

def property_instance(kind, gen):
    if kind == "lasso":
        A, b, lam = gen_lasso(6, 9, 3, seed=int(gen.integers(1 << 30)))
        return make_lasso(A, b, lam)
    if kind == "group-lasso":
        spec = BlockPartition((3, 1, 4, 2))
        features = gen.standard_normal((7, spec.total))
        labels = np.where(gen.standard_normal(7) > 0, 1.0, -1.0)
        return make_group_lasso_hinge(features, labels, spec, 0.05)
    if kind == "rpca":
        B = gen.standard_normal((3, 4))
        return make_rpca(B, *rpca_default_penalties(B))
    # every function class, interleaved, so selections mix them
    block_fns = (L1Block(0.0), QuadraticBlock(), GroupL2Block(0.2), QuadraticBlock(),
                 NuclearBlock(0.3, 2, 2), L1Block(0.0), L1Block(0.1), GroupL2Block(0.4))
    sizes = (2, 1, 3, 2, 4, 1, 2, 2)
    A = gen.standard_normal((4, sum(sizes)))
    return SepCCSPInstance(
        coupling=DenseCoupling(DenseMatrix(A), BlockPartition(sizes)),
        block_fns=block_fns,
        dual_fn=QuadraticDual(gen.standard_normal(4)),
        primal_objective=lambda x: 0.5 * float(x @ x),
        residual_kind="suboptimality",
    )


def selection(gen, J, K, layout):
    if layout == "run" or K in (1, J):
        start = int(gen.integers(J - K + 1))
        return np.arange(start, start + K)
    while True:
        blocks = np.sort(gen.choice(J, size=K, replace=False))
        if blocks[-1] - blocks[0] > K - 1:
            return blocks


@given(kind=st.sampled_from(["lasso", "group-lasso", "rpca", "mixed"]),
       size=st.sampled_from(["one", "random", "all"]),
       layout=st.sampled_from(["run", "scattered"]),
       rule=st.sampled_from(STEPSIZE_RULES),
       sigma_scale=st.sampled_from([1.0, 0.5, 3.0]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_batched_iterate_matches_per_block_loop(kind, size, layout, rule, sigma_scale, seed):
    """The batched step changes only the order of summation, so every
    iterate stays within 1e-12 (relative) of the per-block loop."""
    gen = np.random.Generator(np.random.PCG64(seed))
    inst = property_instance(kind, gen)
    J = inst.num_blocks
    K = {"one": 1, "all": J}.get(size) or int(gen.integers(2, J))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # floored penalties
        config = StepsizeConfig.for_instance(inst, K=K, rule=rule, sigma_scale=sigma_scale)
    x0 = gen.standard_normal(inst.n)
    y0 = gen.uniform(0.0, 1.0, inst.m)
    selections = [selection(gen, J, K, layout) for _ in range(4)]
    batched = initial_state(inst, x0=x0, y0=y0)
    reference = initial_state(inst, x0=x0, y0=y0)
    for blocks in selections:
        iterate(inst, batched, config, blocks)
        reference_iterate(inst, reference, config, blocks)
        for name in ("x", "x_bar", "y", "r_bar"):
            got, want = getattr(batched, name), getattr(reference, name)
            scale = max(1.0, float(np.abs(want).max()))
            assert np.abs(got - want).max() <= 1e-12 * scale, name


# ---------------------------------------------------------------------------
# Bitwise reference: the engine's arithmetic written out again, with its own
# sigma, prox dispatch and resolvent, each recomputed and allocated on every
# iteration, and the state written through the selection's coordinates. It
# calls nothing of the engine but the coupling's products and the closed-form
# operators of ``prox``, so the engine's run constants are checked against
# values built anew.
# ---------------------------------------------------------------------------

def reference_sigma(instance, config, blocks, columns):
    """sigma^t of the config's rule, scale and override; ``columns`` are
    the selection's, whose row sums are their last use."""
    J, K = config.J, config.K
    if config.sigma_override is not None:
        return np.full(instance.m, max(config.sigma_override, FLOOR_EPS))
    if config.rule == "adaptive-l1":
        sigma = (J / K) * columns.row_abs_sums()
    else:
        norms = instance.coupling.block_norms
        sigma = np.full(instance.m, (J / K) * sum(norms[j] for j in blocks))
    sigma = np.maximum(sigma, FLOOR_EPS)
    if config.sigma_scale != 1.0:
        sigma = np.maximum(sigma * config.sigma_scale, FLOOR_EPS)
    return sigma


def reference_prox(instance, v, h, blocks):
    """The prox of the selected blocks, block by block; v and h are ordered
    like the blocks' coordinates."""
    x = np.empty_like(v)
    sizes = instance.coupling.partition.block_sizes
    start = 0
    for j in blocks:
        fn, sl = instance.block_fns[j], slice(start, start + sizes[j])
        start = sl.stop
        if type(fn) is L1Block:
            x[sl] = prox_l1(v[sl], fn.weight / h[sl])
        elif type(fn) is QuadraticBlock:
            x[sl] = prox_quadratic_frobenius(v[sl], h[sl])
        elif type(fn) is GroupL2Block:
            x[sl] = prox_group_l2_segments(v[sl], [0], [fn.weight / h[sl].max()])
        else:
            x[sl] = fn.prox(v[sl], h[sl])
    return x


def reference_resolvent(dual_fn, y, u, sigma):
    if type(dual_fn) is LinearDual:
        return y + (u - dual_fn.b) / sigma
    if type(dual_fn) is QuadraticDual:
        return (sigma * y + u - dual_fn.b) / (sigma + 1.0)
    return np.clip(y + (u - dual_fn.c) / sigma, 0.0, 1.0)


def choice_reference_run(instance, config, passes, seed):
    """Reference loop: one sorted ``rng.choice`` of the blocks per
    iteration, a fresh ``_gather`` of their columns, the reference sigma,
    prox and resolvent, and r_bar refreshed into a new array."""
    rng = np.random.Generator(np.random.PCG64(seed))
    state = initial_state(instance)
    J, K = config.J, config.K
    for _ in range(passes * iterations_per_pass(J, K)):
        blocks = np.sort(rng.choice(J, size=K, replace=False))
        state.validate()
        columns = instance.coupling._gather(blocks)
        index = columns.index
        h = config.h[index]
        x_old = state.x[index]
        x_new = reference_prox(instance, x_old - columns.rmatvec(state.y) / h, h, blocks)
        xb_new = x_new + config.theta * (x_new - x_old)
        delta_bar = columns.matvec(xb_new - state.x_bar[index])
        sigma_t = reference_sigma(instance, config, blocks, columns)
        y_new = reference_resolvent(instance.dual_fn, state.y,
                                    (J / K) * delta_bar + state.r_bar, sigma_t)
        state.x[index] = x_new
        state.x_bar[index] = xb_new
        state.y = y_new
        state.r_bar = state.r_bar + delta_bar
        state.t += 1
    return state


def pdcp_reference_run(instance, config, passes):
    """Reference pdcp loop: the metric h 1_n and the set of all blocks
    built on every pass, with the reference prox and resolvent."""
    state = pdcp_initial_state(instance)
    for _ in range(passes):
        h = np.full(instance.n, config.h)
        y_new = reference_resolvent(instance.dual_fn, state.y,
                                    instance.coupling.matvec(state.x_bar), config.sigma)
        v = state.x - instance.coupling.rmatvec(y_new) / config.h
        x_new = reference_prox(instance, v, h, np.arange(instance.num_blocks))
        state.x_bar = x_new + (x_new - state.x)
        state.x = x_new
        state.y = y_new
    return state


def assert_bitwise(got, want, names=("x", "x_bar", "y", "r_bar")):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


@pytest.mark.parametrize("kind", ["lasso", "group-lasso", "rpca"])
@pytest.mark.parametrize("size", ["one", "some", "all"])
@pytest.mark.parametrize("rule", STEPSIZE_RULES)
def test_run_is_bitwise_the_per_iteration_choice_loop(kind, size, rule):
    """One draw per pass, the cached one-block column sets, the in-place
    r_bar and the K = J run constants leave every bit of the run's state as
    the reference loop computes it."""
    gen = np.random.Generator(np.random.PCG64(77))
    inst = property_instance(kind, gen)
    J = inst.num_blocks
    K = {"one": 1, "some": 2, "all": J}[size]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # floored penalties
        config = StepsizeConfig.for_instance(inst, K=K, rule=rule)
    state, _ = run(inst, config, pass_budget=6, seed=31)
    want = choice_reference_run(inst, config, passes=6, seed=31)
    assert state.t == want.t
    assert_bitwise(state, want)


SIGMA_SETTINGS = {
    "scale-0.5": {"sigma_scale": 0.5}, "scale-3": {"sigma_scale": 3.0},
    "override": {"sigma_override": 2.5}, "block-spectral": {"rule": "block-spectral"},
    "block-spectral-scale-0.5": {"rule": "block-spectral", "sigma_scale": 0.5}}


@pytest.mark.parametrize("kind", ["lasso", "group-lasso", "rpca", "mixed"])
@pytest.mark.parametrize(
    "K, setting",
    [("J", s) for s in SIGMA_SETTINGS.values()] + [(1, s) for s in SIGMA_SETTINGS.values()],
    ids=[*SIGMA_SETTINGS, *(f"K1-{name}" for name in SIGMA_SETTINGS)])
def test_all_blocks_run_constants_are_bitwise_the_reference(kind, K, setting):
    """At K = J and at K = 1 sigma and the prox parameters are computed once
    per run; under every sigma setting the state is bitwise the reference's,
    which recomputes them on every iteration."""
    gen = np.random.Generator(np.random.PCG64(78))
    inst = property_instance(kind, gen)
    K = inst.num_blocks if K == "J" else K
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # floored penalties
        config = StepsizeConfig.for_instance(inst, K=K, **setting)
    state, _ = run(inst, config, pass_budget=8, seed=3)
    assert_bitwise(state, choice_reference_run(inst, config, passes=8, seed=3))


def test_one_block_sigma_table_is_a_read_only_run_constant(monkeypatch):
    """At K = 1 the dual penalties of every block are one read-only (J, m)
    table, built once per run (J calls of ``compute_sigma_t``, none in the
    passes) and kept by the run: no array of the instance, its coupling or
    its ``BlockProx`` holds it, and a second run builds its own."""
    gen = np.random.Generator(np.random.PCG64(80))
    inst = property_instance("group-lasso", gen)
    J = inst.num_blocks
    built, sigma_calls = [], []
    for_run = spbcd.BlockConstants.for_run.__func__
    compute = spbcd.compute_sigma_t

    def recording_for_run(cls, *args):
        built.append(for_run(cls, *args))
        return built[-1]

    def counting_compute(*args, **kwargs):
        sigma_calls.append(args[1])
        return compute(*args, **kwargs)

    monkeypatch.setattr(spbcd.BlockConstants, "for_run", classmethod(recording_for_run))
    monkeypatch.setattr(spbcd, "compute_sigma_t", counting_compute)
    config = StepsizeConfig.for_instance(inst, K=1)
    for _ in range(2):
        run(inst, config, pass_budget=4, seed=6)
    assert len(built) == 2 and len(sigma_calls) == 2 * J
    first, second = built
    assert first.sigma.shape == (J, inst.m) and not first.sigma.flags.writeable
    assert not np.shares_memory(first.sigma, second.sigma)
    for j in range(J):
        want = _sigma_for(inst, np.array([j]), config)
        assert np.array_equal(first.sigma[j].view(np.int64), want.view(np.int64))
    for owner in (inst, inst.coupling, inst.block_prox):
        for value in vars(owner).values():
            assert not (isinstance(value, np.ndarray) and np.shares_memory(value, first.sigma))


@pytest.mark.parametrize("kind", ["lasso", "group-lasso", "rpca", "mixed"])
def test_pdcp_run_is_bitwise_the_per_pass_loop(kind):
    """pdcp builds its metric, block set and prox parameters once per run;
    its iterates are bitwise those of a loop that rebuilds them every pass."""
    inst = property_instance(kind, np.random.Generator(np.random.PCG64(79)))
    config = PdcpConfig.recommended(inst)
    state, _ = pdcp_run(inst, config, passes=8)
    assert_bitwise(state, pdcp_reference_run(inst, config, passes=8), ("x", "x_bar", "y"))


def test_one_instance_under_several_configs_is_bitwise_fresh_instances():
    """Run constants live with the run: one rpca instance solved at K = 1,
    2 and 3 and then by pdcp gives every bit a fresh instance gives."""
    B = gen_rpca(8, 10, 2, seed=3)
    penalties = rpca_default_penalties(B)
    shared = make_rpca(B, *penalties)

    def solve(inst, K):
        if K is None:
            return pdcp_run(inst, PdcpConfig.recommended(inst), passes=5)[0]
        return run(inst, StepsizeConfig.for_instance(inst, K), pass_budget=5, seed=2)[0]

    for K in (1, 2, 3, None):
        assert_bitwise(solve(shared, K), solve(make_rpca(B, *penalties), K), ("x", "x_bar", "y"))


def test_runs_build_no_block_prox(monkeypatch):
    """The instance builds its ``BlockProx`` when it is constructed, so no
    solve builds one inside its first pass."""
    built = []
    init = BlockProx.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(BlockProx, "__init__", counting_init)
    B = gen_rpca(6, 8, 2, seed=3)
    inst = make_rpca(B, *rpca_default_penalties(B))
    assert len(built) == 1
    for K in (1, 3):
        run(inst, StepsizeConfig.for_instance(inst, K), pass_budget=2, seed=1)
    pdcp_run(inst, PdcpConfig.recommended(inst), passes=2)
    assert len(built) == 1


def test_all_blocks_iterates_replace_the_state_arrays():
    """At K = J the new x and x_bar replace the state's arrays, so an array
    held from an earlier pass keeps that pass's iterate; below K = J they
    are written in place."""
    B = gen_rpca(6, 8, 2, seed=3)
    inst = make_rpca(B, *rpca_default_penalties(B))
    for K, replaced in ((3, True), (2, False)):
        held = []
        run(inst, StepsizeConfig.for_instance(inst, K), pass_budget=3, seed=1,
            metric_callback=lambda p, state, s: held.append(
                (state.x, state.x.copy(), state.x_bar, state.x_bar.copy())))
        for x, x_then, x_bar, x_bar_then in held[:-1]:
            assert np.array_equal(x, x_then) is replaced
            assert np.array_equal(x_bar, x_bar_then) is replaced
        assert (held[0][0] is held[1][0]) is not replaced


@pytest.mark.parametrize("K, kind", [(1, "one block"), (2, "consecutive"),
                                     (4, "scattered"), (8, "all blocks")])
def test_dense_runs_write_neither_the_store_nor_a_cached_set(K, kind):
    """Only a scattered set's own gathered copy is overwritten, by its row
    sums: after 3 passes the lasso coupling's matrix bytes are unchanged and
    every cached column set is still a read-only view of the store."""
    inst = make_lasso(*gen_lasso(12, 8, 3, seed=4))
    coupling = inst.coupling
    J, seed = inst.num_blocks, 5
    drawn = sample_blocks(np.random.Generator(np.random.PCG64(seed)), J, K,
                          3 * iterations_per_pass(J, K))
    consecutive = drawn[:, -1] - drawn[:, 0] == K - 1
    if kind == "consecutive":
        assert consecutive.any()
    if kind == "scattered":
        assert not consecutive.all()
    stored = coupling.matrix.values.tobytes()
    run(inst, StepsizeConfig.for_instance(inst, K), pass_budget=3, seed=seed)
    assert coupling.matrix.values.tobytes() == stored
    if K == 1:
        assert sorted(coupling._block_columns) == np.unique(drawn).tolist()
    for columns in [*coupling._block_columns.values(), coupling._all_columns]:
        assert not columns.values.flags.writeable
        assert np.shares_memory(columns.values, coupling.matrix.values)


# ---------------------------------------------------------------------------
# Sparse against dense: the sparse store adds the same products in another
# order, so iterates agree to 1e-12 relative (the tolerance of the batched
# test above), and every derived quantity matches a brute-force oracle.
# ---------------------------------------------------------------------------

def sparse_coupling(A, partition):
    """The sparse store of the nonzeros of the dense array ``A``, listed by
    one row-major scan."""
    rows, cols = np.divmod(np.flatnonzero(A != 0), A.shape[1])
    return SparseCoupling(rows, cols, A[rows, cols], A.shape[0], partition)


@st.composite
def sparse_matrices(draw):
    """A small matrix with a random sparsity pattern and some all-zero rows
    and columns, a partition of its columns, a selection size and a seed."""
    J = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 4), min_size=J, max_size=J))
    m = draw(st.integers(1, 8))
    n = sum(sizes)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    gen = np.random.Generator(np.random.PCG64(seed))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    A = gen.standard_normal((m, n)) * (gen.uniform(size=(m, n)) < density)
    A[sorted(draw(st.sets(st.integers(0, m - 1), max_size=m))), :] = 0.0
    A[:, sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))] = 0.0
    return A, sizes, draw(st.integers(1, J)), seed


def assert_close(got, want, tol=1e-12):
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert np.abs(np.asarray(got) - want).max(initial=0.0) <= tol * scale


@given(drawn=sparse_matrices(),
       layout=st.sampled_from(["run", "scattered"]),
       rule=st.sampled_from(STEPSIZE_RULES),
       dual=st.sampled_from(["quadratic", "box"]),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
@settings(max_examples=150, deadline=None)
def test_sparse_coupling_matches_dense(drawn, layout, rule, dual, bad):
    A, sizes, K, seed = drawn
    gen = np.random.Generator(np.random.PCG64(seed ^ 0x5EED))
    P = BlockPartition(sizes)
    m, n, J = A.shape[0], P.total, P.num_blocks
    sparse = sparse_coupling(A, P)
    dense = DenseCoupling(DenseMatrix(A), P)

    # full products and stepsize quantities against brute force
    x, y = gen.standard_normal(n), gen.standard_normal(m)
    assert_close(sparse.matvec(x), A @ x)
    assert_close(sparse.rmatvec(y), A.T @ y)
    assert_close(sparse.col_abs_sums, np.abs(A).sum(axis=0))
    for j in range(J):
        exact = np.linalg.svd(A[:, P.slice_of(j)], compute_uv=False)[0]
        assert abs(sparse.block_norms[j] - exact) <= 1e-6 * exact
    exact = np.linalg.svd(A, compute_uv=False)[0]
    assert abs(sparse.spectral_norm - exact) <= 1e-6 * exact

    # one gathered selection, consecutive or scattered
    blocks = selection(gen, J, K, layout)
    coords = np.concatenate([np.arange(n)[P.slice_of(j)] for j in blocks])
    columns = sparse.gather(blocks)
    assert np.array_equal(np.arange(n)[columns.index], coords)
    v = gen.standard_normal(coords.size)
    assert_close(columns.rmatvec(y), A[:, coords].T @ y)
    assert_close(columns.matvec(v), A[:, coords] @ v)
    assert_close(columns.row_abs_sums(), np.abs(A[:, coords]).sum(axis=1))
    assert_close(sparse.row_abs_sums(blocks), np.abs(A[:, coords]).sum(axis=1))

    # a few engine iterations on each store, from one start and selection list
    dual_fn = QuadraticDual(gen.standard_normal(m)) if dual == "quadratic" else BoxLinearDual(-1.0 / m)
    block_fns = tuple(L1Block(w) if size == 1 else GroupL2Block(w)
                      for size, w in zip(sizes, gen.uniform(0.05, 0.5, J)))
    x0, y0 = gen.standard_normal(n), gen.uniform(0.0, 1.0, m)
    selections = [selection(gen, J, K, layout) for _ in range(5)]
    runs = []
    for coupling in (sparse, dense):
        inst = SepCCSPInstance(coupling=coupling, block_fns=block_fns, dual_fn=dual_fn,
                               primal_objective=lambda x: 0.0, residual_kind="suboptimality")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # floored penalties
            config = StepsizeConfig.for_instance(inst, K=K, rule=rule)
        runs.append((inst, config, initial_state(inst, x0=x0, y0=y0)))
    for blocks in selections:
        for inst, config, state in runs:
            iterate(inst, state, config, blocks)
        for name in ("x", "x_bar", "y", "r_bar"):
            assert_close(getattr(runs[0][2], name), getattr(runs[1][2], name))

    # a non-finite entry is a stored nonzero, and is refused
    A[gen.integers(m), gen.integers(n)] = bad
    with pytest.raises(ValueError, match="finite"):
        sparse_coupling(A, P)
