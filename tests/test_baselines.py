import warnings

import numpy as np
import pytest

from sepsaddle import spbcd
from sepsaddle.baselines import (
    PdcpConfig,
    _lasso_start,
    fista_reference,
    fista_run,
    ista_run,
    ista_step,
    lipschitz_upper,
    pdcp_initial_state,
    pdcp_iterate,
    pdcp_run,
    preconditioned_pdcp_iterate,
    preconditioned_pdcp_run,
    preconditioned_penalties,
    preconditioned_reference,
)
from sepsaddle.bench import SOLVERS
from sepsaddle.errors import ConfigError, NumericsError, RunAborted
from sepsaddle.problems import gen_group_lasso, gen_lasso, gen_rpca, make_group_lasso_hinge, \
    make_lasso, make_rpca, rpca_default_penalties
from sepsaddle.spbcd import StepsizeConfig, initial_state, run


def per_block_pdcp_iterate(instance, state, config):
    """Reference: the pdcp step with one prox call per block, the loop the
    batched ``block_prox`` call replaced."""
    u = instance.coupling.matvec(state.x_bar)
    y_new = instance.dual_fn.resolvent(state.y, u, config.sigma)
    grad = instance.coupling.rmatvec(y_new)
    x_new = np.empty(instance.n)
    for j, fn in enumerate(instance.block_fns):
        sl = instance.block_slice(j)
        x_new[sl] = fn.prox(state.x[sl] - grad[sl] / config.h, config.h)
    state.x_bar = x_new + (x_new - state.x)
    state.x = x_new
    state.y = y_new
    state.t += 1
    return state


def pdcp_instance(kind):
    if kind == "lasso":
        return make_lasso(*gen_lasso(12, 30, 4, seed=2))
    if kind == "rpca":
        B = gen_rpca(8, 10, 2, seed=3)
        return make_rpca(B, *rpca_default_penalties(B))
    features, labels, groups = gen_group_lasso(5, n_samples=150)
    return make_group_lasso_hinge(features, labels, groups, 1e-3)


def exact_toy_lasso():
    """A = I2, b = (1, 0), lam = 0.5: x* = (0.5, 0), y* = x* - b."""
    inst = make_lasso(np.eye(2), np.array([1.0, 0.0]), 0.5)
    x_star = np.array([0.5, 0.0])
    y_star = x_star - np.array([1.0, 0.0])
    return inst, x_star, y_star


class TestPdcp:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PdcpConfig(h=0.0, sigma=1.0)

    @pytest.mark.parametrize("field", ["h", "sigma"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0, 0.0])
    def test_config_refuses_non_finite_or_non_positive(self, field, bad):
        """NaN compares False, so a NaN penalty would pass a ``<= 0`` test
        and silence pdcp_run's sigma * h check; the error names the field."""
        values = {"h": 1.0, "sigma": 1.0, field: bad}
        with pytest.raises(ConfigError, match=rf"^{field} must be positive and finite"):
            PdcpConfig(**values)

    @pytest.mark.parametrize("passes", [0, -1, 2.5, 1.0, "3", None])
    def test_runs_refuse_bad_pass_counts(self, small_lasso, passes):
        """pdcp and its preconditioned twin take a positive integer pass
        count, like ``spbcd.run``; no solver step runs before the check."""
        config = PdcpConfig(h=1.0, sigma=1.0)
        for call in (lambda: pdcp_run(small_lasso, config, passes),
                     lambda: preconditioned_pdcp_run(small_lasso, passes)):
            with pytest.raises(ValueError, match="passes must be >= 1 and an integer"):
                call()

    def test_recommended_satisfies_theorem_condition(self, small_lasso):
        config = PdcpConfig.recommended(small_lasso)
        nrm = small_lasso.coupling.spectral_norm
        assert config.sigma * config.h >= nrm ** 2 * (1 - 1e-12)

    @pytest.mark.parametrize("start", [initial_state, pdcp_initial_state])
    def test_start_is_checked(self, small_lasso, start):
        """Both solvers take their start through ``spbcd.start_vectors``: a
        wrong shape raises ValueError, a NaN or an infinity NumericsError
        naming the vector; no start is zeros."""
        n, m = small_lasso.n, small_lasso.m
        with pytest.raises(ValueError, match=rf"^x0 must have shape \({n},\)$"):
            start(small_lasso, x0=np.zeros(3))
        with pytest.raises(ValueError, match=rf"^y0 must have shape \({m},\)$"):
            start(small_lasso, y0=np.zeros((m, 1)))
        with pytest.raises(NumericsError, match="^non-finite values in x0$"):
            start(small_lasso, x0=np.full(n, np.nan))
        y0 = np.zeros(m)
        y0[-1] = np.inf
        with pytest.raises(NumericsError, match="^non-finite values in y0$"):
            start(small_lasso, y0=y0)
        state = start(small_lasso)
        for v, size in ((state.x, n), (state.x_bar, n), (state.y, m)):
            assert v.dtype == np.float64 and np.array_equal(v, np.zeros(size))
        assert state.x_bar is not state.x and state.t == 0
        x0 = np.arange(n)  # integers are taken as a float64 copy
        state = start(small_lasso, x0=x0)
        assert state.x.dtype == np.float64 and np.array_equal(state.x, x0)
        assert state.x is not x0 and np.array_equal(state.x_bar, x0)

    def test_fixed_point_is_stationary(self):
        inst, x_star, y_star = exact_toy_lasso()
        config = PdcpConfig(h=2.0, sigma=2.0)
        state = pdcp_initial_state(inst, x0=x_star, y0=y_star)
        pdcp_iterate(inst, state, config)
        assert np.allclose(state.x, x_star, atol=1e-12)
        assert np.allclose(state.y, y_star, atol=1e-12)

    def test_rpca_recommended_runs_stably(self):
        B = gen_rpca(12, 15, 2, seed=3)
        inst = make_rpca(B, *rpca_default_penalties(B))
        config = PdcpConfig.recommended(inst)
        assert config.h == pytest.approx(np.sqrt(3.0), rel=1e-8)
        state, trace = pdcp_run(
            inst, config, passes=80,
            metric_callback=lambda p, s, t: (inst.objective(s.x), inst.residual(s.x)))
        objs = np.array([t[0] for t in trace])
        residuals = np.array([t[1] for t in trace])
        assert np.isfinite(objs).all()
        # stable: the constraint violation is driven well below its early value
        assert residuals[-1] <= 1e-3 * residuals[0]
        assert objs[-1] <= 2.0 * np.median(objs)

    def test_converges_to_fista_optimum(self):
        A, b, lam = gen_lasso(6, 9, 2, seed=8)
        inst = make_lasso(A, b, lam)
        x_ref, obj_ref = fista_reference(A.values, b, lam, tol=1e-13)
        config = PdcpConfig.recommended(inst)
        state, _ = pdcp_run(inst, config, passes=5000)
        assert inst.objective(state.x) <= obj_ref * (1 + 1e-6) + 1e-9

    def test_warns_when_condition_violated(self, small_lasso):
        config = PdcpConfig(h=0.01, sigma=0.01)
        with pytest.warns(RuntimeWarning, match="not guaranteed"):
            pdcp_run(small_lasso, config, passes=1)

    @pytest.mark.parametrize("kind", ["lasso", "rpca", "group-lasso"])
    def test_batched_prox_matches_per_block_loop(self, kind):
        inst = pdcp_instance(kind)
        config = PdcpConfig.recommended(inst)
        batched = pdcp_initial_state(inst)
        looped = pdcp_initial_state(inst)
        for _ in range(40):
            pdcp_iterate(inst, batched, config)
            per_block_pdcp_iterate(inst, looped, config)
        if kind == "group-lasso":
            # segment norms add in a different order from np.linalg.norm
            for a, b in ((batched.x, looped.x), (batched.y, looped.y)):
                assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())
        else:
            assert np.array_equal(batched.x, looped.x)
            assert np.array_equal(batched.x_bar, looped.x_bar)
            assert np.array_equal(batched.y, looped.y)


class TestPreconditionedPdcp:
    def test_penalties(self, small_lasso):
        h, sigma = preconditioned_penalties(small_lasso)
        M = small_lasso.coupling.matrix.values
        assert np.allclose(h, np.abs(M).sum(axis=0))
        assert np.allclose(sigma, np.abs(M).sum(axis=1))

    def test_matches_block_engine_with_all_blocks(self):
        # the module's primary reason to exist
        for seed in range(3):
            A, b, lam = gen_lasso(10, 20, 5, seed=seed)
            inst = make_lasso(A, b, lam)
            config = StepsizeConfig.for_instance(inst, K=inst.num_blocks)
            state, _ = run(inst, config, pass_budget=100, seed=seed)
            twin, _ = preconditioned_pdcp_run(inst, passes=100)
            assert np.abs(state.x - twin.x).max() <= 1e-12
            assert np.abs(state.y - twin.y).max() <= 1e-12

    def test_hand_trace(self):
        # same constants as the block-engine hand trace (theta = 1 twin)
        inst = make_lasso(np.array([[1.0, 2.0], [0.0, 1.0]]),
                          np.array([1.0, -1.0]), 0.1)
        state = pdcp_initial_state(inst)
        penalties = preconditioned_penalties(inst)
        preconditioned_pdcp_iterate(inst, state, penalties)
        assert np.allclose(state.y, [-0.25, 0.5], atol=1e-15)
        preconditioned_pdcp_iterate(inst, state, penalties)
        assert np.allclose(state.x, [0.15, 0.0], atol=1e-12)
        assert np.allclose(state.y, [-0.3625, 0.75], atol=1e-12)

    @pytest.mark.parametrize("window", [1, 7, 50])
    def test_reference_is_run_plus_stopping_rule(self, small_lasso, window):
        # tol = 1e6 stops after the first window; the reference is the
        # engine at K = J with seed 0
        x, y = preconditioned_reference(small_lasso, tol=1e6, window=window)
        config = StepsizeConfig.for_instance(small_lasso, K=small_lasso.num_blocks)
        state, _ = run(small_lasso, config, pass_budget=window, seed=0)
        assert np.array_equal(x, state.x)
        assert np.array_equal(y, state.y)

    def test_reference_does_not_repeat_the_floor_warning(self):
        # column 2 is zero, so its penalty is floored and for_instance warns
        inst = make_lasso(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0]]),
                          np.array([1.0, -1.0]), 0.1)
        with pytest.warns(RuntimeWarning, match="floored"):
            StepsizeConfig.for_instance(inst, K=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            preconditioned_reference(inst, tol=1e6, window=2)

    def test_reference_checks_rbar_drift(self, small_lasso, monkeypatch):
        monkeypatch.setattr(spbcd, "RBAR_TOL", -1.0)  # every check fails
        with pytest.raises(NumericsError, match="drift .* at iteration 2000$"):
            preconditioned_reference(small_lasso, tol=0.0, window=2000, max_passes=2000)

    def test_zero_matrix_reduces_to_pure_prox(self):
        inst = make_lasso(np.zeros((2, 3)), np.zeros(2), 0.5)
        state = pdcp_initial_state(inst, x0=np.array([1.0, -2.0, 3.0]))
        penalties = preconditioned_penalties(inst)
        for _ in range(3):
            preconditioned_pdcp_iterate(inst, state, penalties)
        assert np.all(np.isfinite(state.x))
        # with floored penalties the shrink threshold is enormous: x -> 0
        assert np.allclose(state.x, 0.0)


class TestIsta:
    def test_rejects_negative_passes(self):
        A, b, lam = gen_lasso(4, 6, 2, seed=1)
        with pytest.raises(ValueError, match="passes must be >= 0"):
            ista_run(A.values, b, lam, passes=-1)

    @pytest.mark.parametrize("run_fn", [ista_run, fista_run])
    @pytest.mark.parametrize("passes", [-1, 2.5, 0.0, "2", None])
    def test_ista_and_fista_refuse_bad_pass_counts(self, run_fn, passes):
        """ista and fista allow 0 passes but no negative or non-integer
        count."""
        A, b, lam = gen_lasso(4, 6, 2, seed=1)
        with pytest.raises(ValueError, match="passes must be >= 0 and an integer"):
            run_fn(A.values, b, lam, passes=passes)

    def test_fixed_point_at_optimum(self, rng):
        # orthonormal design: the optimum is the exact shrinkage of A^T b
        A = np.linalg.qr(rng.standard_normal((12, 12)))[0]
        b = rng.standard_normal(12)
        lam = 0.4 * np.abs(A.T @ b).max()
        c = A.T @ b
        x_star = np.sign(c) * np.maximum(np.abs(c) - lam, 0.0)
        moved = ista_step(A, b, lam, lipschitz_upper(A), x_star)
        assert np.allclose(moved, x_star, atol=1e-10)

    def test_zero_stays_zero_at_large_lambda(self):
        A, b, _ = gen_lasso(8, 12, 3, seed=5)
        lam = np.abs(A.values.T @ b).max() * 1.0001
        out = ista_step(A.values, b, lam, lipschitz_upper(A.values), np.zeros(12))
        assert np.array_equal(out, np.zeros(12))

    def test_objective_monotone(self):
        A, b, lam = gen_lasso(10, 15, 4, seed=6)

        def objective(x):
            r = A.values @ x - b
            return 0.5 * r @ r + lam * np.abs(x).sum()

        _, trace = ista_run(A.values, b, lam, passes=60,
                            metric_callback=lambda p, x, t: objective(x))
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(trace, trace[1:]))


class TestFista:
    def test_reaches_reference_accuracy(self):
        A, b, lam = gen_lasso(8, 14, 3, seed=7)
        x, _ = fista_run(A.values, b, lam, passes=4000)
        x_more, _ = fista_run(A.values, b, lam, passes=8000)

        def objective(z):
            r = A.values @ z - b
            return 0.5 * r @ r + lam * np.abs(z).sum()

        assert abs(objective(x) - objective(x_more)) <= 1e-10 * max(1, objective(x))

    def test_matches_ista_limit(self):
        A, b, lam = gen_lasso(6, 10, 2, seed=9)
        x_f, _ = fista_run(A.values, b, lam, passes=6000)
        x_i, _ = ista_run(A.values, b, lam, passes=60_000)
        assert np.abs(x_f - x_i).max() <= 1e-8

    def test_zero_passes_returns_initializer(self):
        A, b, lam = gen_lasso(4, 6, 2, seed=1)
        x, trace = fista_run(A.values, b, lam, passes=0)
        assert np.array_equal(x, np.zeros(6))
        assert trace == []

    @pytest.mark.parametrize("window", [1, 7, 50])
    def test_reference_is_run_plus_stopping_rule(self, window):
        # tol = 1e6 stops after the first window
        A, b, lam = gen_lasso(8, 14, 3, seed=7)
        x_ref, _ = fista_reference(A.values, b, lam, tol=1e6, window=window)
        x_run, _ = fista_run(A.values, b, lam, passes=window)
        assert np.array_equal(x_ref, x_run)

    @pytest.mark.parametrize("run_fn", [ista_run, fista_run])
    def test_steps_take_the_matrix_uncopied_in_any_layout(self, run_fn):
        """The steps take A in the layout it comes in, with no copy, so a
        column-major A (the lasso coupling's store) and a row-major one
        differ only in the products' rounding."""
        A, b, lam = gen_lasso(20, 40, 4, seed=0)
        rows, cols = A.values, np.asfortranarray(A.values)
        assert _lasso_start(cols)[0] is cols
        by_rows = run_fn(rows, b, lam, passes=30, metric_callback=lambda p, x, s: x.copy())
        by_cols = run_fn(cols, b, lam, passes=30, metric_callback=lambda p, x, s: x.copy())
        for x_r, x_c in zip(by_rows[1], by_cols[1]):
            assert np.abs(x_r - x_c).max() <= 1e-12 * max(1.0, np.abs(x_r).max())

    def test_lipschitz_safety_factor(self):
        A, _, _ = gen_lasso(10, 10, 2, seed=2)
        exact = np.linalg.norm(A.values, 2) ** 2
        L = lipschitz_upper(A.values)
        assert exact <= L <= exact * 1.02


class TestPdcpBoundedness:
    def test_no_divergence_over_long_run(self):
        # sigma*h >= ||A||^2 keeps the objective bounded over 10^4 iterations
        A, b, lam = gen_lasso(5, 8, 2, seed=12)
        inst = make_lasso(A, b, lam)
        config = PdcpConfig.recommended(inst)
        state, trace = pdcp_run(inst, config, passes=10_000,
                                metric_callback=lambda p, s, t: inst.objective(s.x))
        assert np.isfinite(trace).all()
        assert max(trace) <= 10 * trace[0] + 100


class TestRunAbort:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_callback_failure_aborts_with_partial_trace(self, solver):
        A, b, lam = gen_lasso(6, 9, 2, seed=8)
        inst = make_lasso(A, b, lam)
        runs = {
            "spbcd": lambda cb: run(inst, StepsizeConfig.for_instance(inst, K=3),
                                    pass_budget=5, metric_callback=cb),
            "pdcp": lambda cb: pdcp_run(inst, PdcpConfig.recommended(inst), passes=5,
                                        metric_callback=cb),
            "preconditioned-pdcp": lambda cb: preconditioned_pdcp_run(
                inst, passes=5, metric_callback=cb),
            "ista": lambda cb: ista_run(A, b, lam, passes=5, metric_callback=cb),
            "fista": lambda cb: fista_run(A, b, lam, passes=5, metric_callback=cb),
        }

        def callback(p, state, secs):
            if p == 3:
                raise RuntimeError("boom")
            return p

        with pytest.raises(RunAborted, match="pass 3: boom") as excinfo:
            runs[solver](callback)
        assert excinfo.value.trace == [1, 2]
        assert isinstance(excinfo.value.__cause__, RuntimeError)
