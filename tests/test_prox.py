import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepsaddle.errors import NumericsError
from sepsaddle.prox import (
    dual_resolvent_box_linear,
    dual_resolvent_linear,
    dual_resolvent_quadratic,
    prox_group_l2,
    prox_group_l2_segments,
    prox_l1,
    prox_nuclear,
    prox_quadratic_frobenius,
)
from oracles import prox_oracle, resolvent_oracle


def batched_perturbation_min(objective_batch, x, rng, num=1000, scale=1e-3):
    """Smallest objective over ``num`` random perturbations of norm ``scale``."""
    D = rng.standard_normal((num, x.size))
    D *= scale / np.linalg.norm(D, axis=1, keepdims=True)
    return objective_batch(x[None, :] + D).min()


def svd_threshold(V, tau):
    """Singular value thresholding through a full SVD: the oracle for
    ``prox_nuclear``, which takes it from the Gram matrix instead."""
    U, s, Wt = np.linalg.svd(V, full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Wt


ORACLE_KINDS = ("gaussian", "low-rank", "low-rank+noise", "graded", "repeated", "zero")


def oracle_input(kind, rows, cols, gen):
    """A rows x cols test matrix of one spectral kind; see ORACLE_KINDS."""
    k = min(rows, cols)
    if kind == "zero":
        return np.zeros((rows, cols))
    if kind == "gaussian":
        return gen.standard_normal((rows, cols))
    if kind in ("low-rank", "low-rank+noise"):
        r = int(gen.integers(1, k + 1))
        low = gen.standard_normal((rows, r)) @ gen.standard_normal((r, cols))
        return low if kind == "low-rank" else low + 1e-3 * gen.standard_normal((rows, cols))
    if kind == "graded":
        s = np.logspace(0, -12, k)
    else:  # repeated: each value three times
        s = np.repeat(gen.uniform(0.1, 3.0, size=k), 3)[:k]
    left = np.linalg.qr(gen.standard_normal((rows, k)))[0]
    right = np.linalg.qr(gen.standard_normal((cols, k)))[0]
    return (left * s) @ right.T


class TestProxL1:
    def test_shrinks_past_threshold(self):
        assert prox_l1(np.array([2.0]), np.array([1.0]))[0] == 1.0

    def test_dead_zone(self):
        assert prox_l1(np.array([0.5]), np.array([1.0]))[0] == 0.0

    def test_matches_oracle(self, rng):
        for _ in range(20):
            v = rng.standard_normal(3) * 2
            h = rng.uniform(0.2, 3.0, size=3)
            lam = rng.uniform(0.05, 1.5)
            out = prox_l1(v, lam / h)
            ref = prox_oracle(lambda x: lam * np.abs(x).sum(), v, h)
            assert np.allclose(out, ref, atol=1e-8)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_nonexpansive(self, seed):
        gen = np.random.Generator(np.random.PCG64(seed))
        u, v = gen.standard_normal((2, 5))
        thr = gen.uniform(0.01, 2.0, size=5)
        lhs = np.linalg.norm(prox_l1(u, thr) - prox_l1(v, thr))
        assert lhs <= np.linalg.norm(u - v) + 1e-12


class TestProxGroupL2:
    def test_hand_example(self):
        # ||v|| = 5, shrink factor (1 - 2.5/5) = 0.5
        out = prox_group_l2(np.array([3.0, 4.0]), 2.5)
        assert np.allclose(out, [1.5, 2.0], atol=1e-12)
        ref = prox_oracle(lambda x: 2.5 * np.linalg.norm(x), np.array([3.0, 4.0]), 1.0)
        assert np.allclose(out, ref, atol=1e-8)

    def test_inside_ball_maps_to_zero(self):
        assert np.array_equal(prox_group_l2(np.array([3.0, 4.0]), 6.0), [0.0, 0.0])

    def test_zero_vector(self):
        assert np.array_equal(prox_group_l2(np.zeros(3), 1.0), np.zeros(3))

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            prox_group_l2(np.ones(2), 0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_nonexpansive(self, seed):
        gen = np.random.Generator(np.random.PCG64(seed))
        u, v = gen.standard_normal((2, 4))
        tau = gen.uniform(0.01, 3.0)
        lhs = np.linalg.norm(prox_group_l2(u, tau) - prox_group_l2(v, tau))
        assert lhs <= np.linalg.norm(u - v) + 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_segments_match_per_group(self, seed):
        gen = np.random.Generator(np.random.PCG64(seed))
        sizes = gen.integers(1, 5, size=4)
        starts = np.cumsum(sizes) - sizes
        v = gen.standard_normal(sizes.sum())
        v[starts[1]:starts[2]] = 0.0  # a zero segment stays zero
        tau = gen.uniform(0.01, 3.0, size=4)
        out = prox_group_l2_segments(v, starts, tau)
        for g, (a, n) in enumerate(zip(starts, sizes)):
            ref = prox_group_l2(v[a:a + n], tau[g])
            assert np.allclose(out[a:a + n], ref, rtol=1e-14, atol=1e-15)


class TestProxNuclear:
    def test_diagonal(self):
        out = prox_nuclear(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_tau_zero_is_identity(self, rng):
        V = rng.standard_normal((4, 3))
        assert np.allclose(prox_nuclear(V, 0.0), V, atol=1e-12)

    def test_perturbation_optimality(self, rng):
        V = rng.standard_normal((6, 4))
        tau = 0.5
        X = prox_nuclear(V, tau)

        def objective_batch(Z_flat):
            Z = Z_flat.reshape(-1, 6, 4)
            nuc = np.linalg.svd(Z, compute_uv=False).sum(axis=1)
            return tau * nuc + 0.5 * ((Z - V) ** 2).sum(axis=(1, 2))

        base = objective_batch(X.ravel()[None, :])[0]
        best = batched_perturbation_min(objective_batch, X.ravel(), rng)
        assert base <= best + 1e-12 * (1 + abs(base))

    def test_rank_and_norm_shrink(self, rng):
        V = rng.standard_normal((5, 4)) @ np.diag([4.0, 2.0, 0.5, 0.1])
        out = prox_nuclear(V, 0.8)
        s_in = np.linalg.svd(V, compute_uv=False)
        s_out = np.linalg.svd(out, compute_uv=False)
        assert np.sum(s_out > 1e-12) <= np.sum(s_in > 1e-12)
        assert s_out.sum() <= s_in.sum() + 1e-12

    def test_svd_failure_raises_numerics_error(self, monkeypatch):
        def broken_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", broken_eigh)
        with pytest.raises(NumericsError, match="eigh of the Gram matrix failed") as excinfo:
            prox_nuclear(np.eye(3), 0.5)
        assert "3x3 matrix (fro norm 1.732e+00, max |entry| 1.000e+00)" in str(excinfo.value)

    def test_never_calls_svd(self, monkeypatch, rng):
        def no_svd(*args, **kwargs):
            raise AssertionError("prox_nuclear called np.linalg.svd")

        V = rng.standard_normal((4, 6))
        expected = svd_threshold(V, 0.7)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert np.allclose(prox_nuclear(V, 0.7), expected, rtol=0, atol=1e-12)
        assert np.allclose(prox_nuclear(V.T, 0.7), expected.T, rtol=0, atol=1e-12)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            prox_nuclear(np.eye(2), -0.1)

    @pytest.mark.parametrize("shape", [(5, 7), (7, 5), (4, 4)])
    def test_tau_zero_on_rank_deficient_input(self, shape, rng):
        """s_k = 0 is never divided by: tau = 0 returns the input, and the
        zero matrix maps to zero, with no floating-point warning."""
        low = rng.standard_normal((shape[0], 2)) @ rng.standard_normal((2, shape[1]))
        low[0, :] = low[:, 0] = 0.0  # an exact zero singular direction on either side
        with np.errstate(all="raise"):
            assert np.allclose(prox_nuclear(low, 0.0), low, rtol=0, atol=1e-13)
            assert np.array_equal(prox_nuclear(np.zeros(shape), 0.0), np.zeros(shape))

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(ORACLE_KINDS),
        st.sampled_from(["wide", "tall", "square"]),
        st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                  st.floats(-14.0, 0.0).map(lambda e: 10.0 ** e)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_svd_threshold(self, seed, kind, shape, frac):
        """Max |entry| error against the SVD route, relative to ||V||_2:
        <= 1e-12 for tau >= 1e-3 ||V||_2 and <= 1e-8 for any tau >= 0."""
        gen = np.random.Generator(np.random.PCG64(seed))
        small, extra = (int(d) for d in gen.integers(1, 9, size=2))
        rows, cols = {"wide": (small, small + extra), "tall": (small + extra, small),
                      "square": (small, small)}[shape]
        V = oracle_input(kind, rows, cols, gen)
        norm = np.linalg.norm(V, 2)
        tau = frac * norm
        err = np.abs(prox_nuclear(V, tau) - svd_threshold(V, tau)).max()
        bound = 1e-12 if tau >= 1e-3 * norm else 1e-8
        assert err <= bound * norm, (kind, rows, cols, frac, err / norm)


class TestProxQuadratic:
    def test_unit_weight_halves(self, rng):
        v = rng.standard_normal(4)
        assert np.allclose(prox_quadratic_frobenius(v, 1.0), v / 2, atol=1e-15)

    def test_zero(self):
        assert np.array_equal(prox_quadratic_frobenius(np.zeros(3), 0.3), np.zeros(3))

    def test_matches_oracle(self, rng):
        v = rng.standard_normal(3)
        out = prox_quadratic_frobenius(v, 0.3)
        ref = prox_oracle(lambda x: 0.5 * float(x @ x), v, 0.3)
        assert np.allclose(out, ref, atol=1e-10)


class TestDualResolventLinear:
    def test_stationary_at_u_equals_b(self, rng):
        y = rng.standard_normal(4)
        b = rng.standard_normal(4)
        out = dual_resolvent_linear(y, b, b, np.full(4, 2.0))
        assert np.allclose(out, y, atol=1e-15)

    def test_hand_value(self):
        out = dual_resolvent_linear(np.zeros(1), np.array([3.0]), np.array([1.0]),
                                    np.array([2.0]))
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle(self, rng):
        from sepsaddle.functions import LinearDual
        y = rng.standard_normal(3)
        u = rng.standard_normal(3)
        b = rng.standard_normal(3)
        sigma = rng.uniform(0.5, 3.0, size=3)
        out = dual_resolvent_linear(y, u, b, sigma)
        ref = resolvent_oracle(LinearDual(b), y, u, sigma)
        assert np.allclose(out, ref, atol=1e-8)

    def test_large_sigma_freezes(self, rng):
        y = rng.standard_normal(3)
        out = dual_resolvent_linear(y, rng.standard_normal(3), rng.standard_normal(3),
                                    np.full(3, 1e8))
        assert np.allclose(out, y, atol=1e-6)


class TestDualResolventQuadratic:
    def test_hand_value(self):
        from sepsaddle.functions import QuadraticDual
        out = dual_resolvent_quadratic(np.zeros(1), np.array([3.0]), np.array([1.0]),
                                       np.array([2.0]))
        assert out[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        ref = resolvent_oracle(QuadraticDual(np.array([1.0])),
                               np.zeros(1), np.array([3.0]), np.array([2.0]))
        assert out[0] == pytest.approx(ref[0], abs=1e-8)

    def test_stationary_zero(self):
        out = dual_resolvent_quadratic(np.zeros(2), np.array([1.0, -2.0]),
                                       np.array([1.0, -2.0]), np.ones(2))
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_sigma_zero_allowed(self, rng):
        u = rng.standard_normal(3)
        b = rng.standard_normal(3)
        out = dual_resolvent_quadratic(rng.standard_normal(3), u, b, 0.0)
        assert np.allclose(out, u - b, atol=1e-14)


class TestDualResolventBoxLinear:
    def test_clips_low(self):
        out = dual_resolvent_box_linear(np.array([0.5]), np.array([0.0]), 1.0,
                                        np.array([1.0]))
        assert out[0] == 0.0

    def test_stationary_at_u_equals_c(self, rng):
        y = rng.uniform(0.0, 1.0, size=4)
        out = dual_resolvent_box_linear(y, np.full(4, 0.7), 0.7, np.ones(4))
        assert np.allclose(out, y, atol=1e-15)

    def test_clips_high(self):
        out = dual_resolvent_box_linear(np.array([0.2]), np.array([10.0]), 0.0,
                                        np.array([1.0]))
        assert out[0] == 1.0

    def test_matches_grid_oracle(self, rng):
        from sepsaddle.functions import BoxLinearDual
        y = rng.uniform(0, 1, size=3)
        u = rng.standard_normal(3)
        sigma = rng.uniform(0.5, 2.0, size=3)
        c = 0.4
        out = dual_resolvent_box_linear(y, u, c, sigma)
        ref = resolvent_oracle(BoxLinearDual(c), y, u, sigma)
        assert np.allclose(out, ref, atol=1e-8)

    @given(st.integers(0, 10_000), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_the_clip_formula(self, seed, size):
        """Formed in one array, the resolvent equals np.clip of the formula
        bit for bit, at SIMD tail lengths and on signed zeros, NaN and inf."""
        gen = np.random.Generator(np.random.PCG64(seed))
        special = np.array([-0.0, 0.0, 1.0, -1.0, np.nan, np.inf, -np.inf])
        y = np.where(gen.uniform(size=size) < 0.3, gen.choice(special, size),
                     gen.uniform(0, 1, size))
        u = np.where(gen.uniform(size=size) < 0.3, gen.choice(special, size),
                     gen.standard_normal(size) * 5)
        c = gen.choice([0.0, -0.5, gen.standard_normal()])
        sigma = gen.uniform(0.1, 2.0, size)
        with np.errstate(invalid="ignore"):  # inf - inf
            want = np.clip(y + (u - c) / sigma, 0.0, 1.0)
            got = dual_resolvent_box_linear(y, u, c, sigma)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_output_in_unit_box_exactly(self, seed):
        gen = np.random.Generator(np.random.PCG64(seed))
        out = dual_resolvent_box_linear(
            gen.uniform(0, 1, size=6), gen.standard_normal(6) * 5,
            gen.standard_normal(), gen.uniform(0.1, 2.0, size=6))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestFirstOrderOptimalityInvariant:
    """Every operator's output beats 1000 random perturbations, 100 inputs each."""

    NUM_INPUTS = 100

    def test_prox_l1(self, rng):
        for _ in range(self.NUM_INPUTS):
            v = rng.standard_normal(4)
            h = rng.uniform(0.2, 3.0, size=4)
            lam = rng.uniform(0.05, 1.0)
            x = prox_l1(v, lam / h)

            def obj(X):
                return lam * np.abs(X).sum(axis=1) + 0.5 * ((X - v) ** 2 @ h)

            assert obj(x[None, :])[0] <= batched_perturbation_min(obj, x, rng) + 1e-12

    def test_prox_group_l2(self, rng):
        for _ in range(self.NUM_INPUTS):
            v = rng.standard_normal(4)
            h = rng.uniform(0.2, 3.0)
            tau = rng.uniform(0.05, 2.0)
            x = prox_group_l2(v, tau / h)

            def obj(X):
                return (tau / h) * np.linalg.norm(X, axis=1) + 0.5 * ((X - v) ** 2).sum(axis=1)

            assert obj(x[None, :])[0] <= batched_perturbation_min(obj, x, rng) + 1e-12

    def test_prox_quadratic(self, rng):
        for _ in range(self.NUM_INPUTS):
            v = rng.standard_normal(4)
            h = rng.uniform(0.2, 3.0, size=4)
            x = prox_quadratic_frobenius(v, h)

            def obj(X):
                return 0.5 * (X ** 2).sum(axis=1) + 0.5 * ((X - v) ** 2 @ h)

            assert obj(x[None, :])[0] <= batched_perturbation_min(obj, x, rng) + 1e-12

    def test_prox_nuclear(self, rng):
        for _ in range(self.NUM_INPUTS):
            V = rng.standard_normal((3, 2))
            tau = rng.uniform(0.05, 1.5)
            X = prox_nuclear(V, tau)

            def obj(Z_flat):
                Z = Z_flat.reshape(-1, 3, 2)
                return (tau * np.linalg.svd(Z, compute_uv=False).sum(axis=1)
                        + 0.5 * ((Z - V) ** 2).sum(axis=(1, 2)))

            assert obj(X.ravel()[None, :])[0] <= \
                batched_perturbation_min(obj, X.ravel(), rng) + 1e-12

    def test_resolvents(self, rng):
        for _ in range(self.NUM_INPUTS):
            y0 = rng.uniform(0, 1, size=4)
            u = rng.standard_normal(4)
            b = rng.standard_normal(4)
            sigma = rng.uniform(0.3, 3.0, size=4)
            c = rng.standard_normal() * 0.5

            y = dual_resolvent_linear(y0, u, b, sigma)

            def obj_lin(Y):
                return Y @ b - Y @ u + 0.5 * ((Y - y0) ** 2 @ sigma)

            assert obj_lin(y[None, :])[0] <= batched_perturbation_min(obj_lin, y, rng) + 1e-12

            y = dual_resolvent_quadratic(y0, u, b, sigma)

            def obj_quad(Y):
                return 0.5 * (Y ** 2).sum(axis=1) + Y @ b - Y @ u \
                    + 0.5 * ((Y - y0) ** 2 @ sigma)

            assert obj_quad(y[None, :])[0] <= batched_perturbation_min(obj_quad, y, rng) + 1e-12

            y = dual_resolvent_box_linear(y0, u, c, sigma)

            def obj_box(Y):
                vals = c * Y.sum(axis=1) - Y @ u + 0.5 * ((Y - y0) ** 2 @ sigma)
                vals = np.where((Y < 0).any(axis=1) | (Y > 1).any(axis=1), np.inf, vals)
                return vals

            assert obj_box(y[None, :])[0] <= batched_perturbation_min(obj_box, y, rng) + 1e-12
