import math

import numpy as np
import pytest

from sepsaddle.functions import BlockProx, GroupL2Block, L1Block, NuclearBlock, QuadraticBlock
from sepsaddle.problems import gen_rpca, make_rpca, rpca_default_penalties
from sepsaddle.prox import prox_group_l2_segments
from sepsaddle.spbcd import StepsizeConfig, run

# Weights a prox cannot use: L1Block(-1.0).prox([0.1, -0.1], 1) gave
# [1.1, -1.1], which is not a prox, and a zero group weight failed only
# inside an iteration, with "tau must be positive".
BAD_WEIGHTS = [-1.0, -1e-300, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("weight", BAD_WEIGHTS)
@pytest.mark.parametrize("make", [L1Block, lambda w: NuclearBlock(w, 2, 2)],
                         ids=["l1", "nuclear"])
def test_nonnegative_weight_blocks_refuse_bad_weights(make, weight):
    with pytest.raises(ValueError, match="finite and >= 0"):
        make(weight)


@pytest.mark.parametrize("weight", [0.0, *BAD_WEIGHTS])
def test_group_block_refuses_weights_its_prox_cannot_use(weight):
    with pytest.raises(ValueError, match="finite and > 0"):
        GroupL2Block(weight)


def test_zero_weights_are_the_identity_prox():
    v = np.array([0.1, -0.2, 0.3, -0.4])
    assert np.array_equal(L1Block(0.0).prox(v, np.ones(4)), v)
    assert np.allclose(NuclearBlock(0.0, 2, 2).prox(v, np.ones(4)), v, rtol=0, atol=1e-15)


def test_block_prox_keeps_block_weights_and_is_bitwise_each_blocks_prox():
    """``BlockProx`` keeps one weight per block and no per-coordinate array;
    for any selection its result is bitwise each block's own prox, so the L1
    thresholds are each block's weight over h, as before."""
    fns = (L1Block(0.3), QuadraticBlock(), L1Block(0.0), L1Block(1.7), NuclearBlock(0.2, 2, 2))
    sizes = [3, 2, 4, 1, 4]
    prox = BlockProx(fns, sizes)
    arrays = [a for a in vars(prox).values() if isinstance(a, np.ndarray)]
    assert arrays and all(a.size == len(sizes) for a in arrays)
    offsets = np.cumsum([0, *sizes])
    gen = np.random.Generator(np.random.PCG64(9))
    for blocks in ([0, 2, 3], [0, 1, 2, 3, 4], [3], [1, 4], [2]):
        pieces = [slice(offsets[j], offsets[j + 1]) for j in blocks]
        n = sum(sl.stop - sl.start for sl in pieces)
        v, h = gen.standard_normal(n), gen.uniform(0.5, 2.0, n)
        got = prox(v, h, np.array(blocks))
        start = 0
        for j, sl in zip(blocks, pieces):
            own = slice(start, start + sl.stop - sl.start)
            start = own.stop
            want = fns[j].prox(v[own], h[own])
            assert np.array_equal(got[own].view(np.int64), want.view(np.int64)), (blocks, j)


@pytest.mark.parametrize("width", [4, 16, 64])
def test_one_group_prox_is_bitwise_the_segment_prox(width):
    """A selection of one group block takes one norm and one scale; over
    draws on both sides of ||v|| = tau (shrunk to zero, signed zeros
    included) it equals ``prox_group_l2_segments`` bit for bit."""
    gen = np.random.Generator(np.random.PCG64(width))
    sizes = [4, 16, 64]
    weights = gen.uniform(0.05, 0.5, len(sizes))
    prox = BlockProx([GroupL2Block(w) for w in weights], sizes)
    j = sizes.index(width)
    shrunk = 0
    for _ in range(300):
        h = np.full(width, gen.uniform(0.5, 2.0))
        tau = weights[j] / h.max()
        v = gen.standard_normal(width)
        v *= tau * gen.uniform(0.0, 2.0) / np.linalg.norm(v)
        want = prox_group_l2_segments(v, np.array([0]), np.array([tau]))
        got = prox(v, h, np.array([j]))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        shrunk += not want.any()
    assert 100 <= shrunk <= 200


# Shapes for the nuclear-norm value: wide, tall, square, a row and a column.
NUCLEAR_SHAPES = [(20, 50), (50, 20), (30, 30), (1, 12), (12, 1), (7, 9)]
EPS = np.finfo(float).eps


def nuclear_input(kind, rows, cols, gen):
    """A rows x cols matrix and its singular values, from an SVD: Gaussian,
    rank <= r/4 (at least 1), or a graded spectrum from 1 down to 1e-16."""
    r = min(rows, cols)
    if kind == "gaussian":
        X = gen.standard_normal((rows, cols))
    elif kind == "low-rank":
        k = max(1, r // 4)
        X = gen.standard_normal((rows, k)) @ gen.standard_normal((k, cols))
    else:
        U, _ = np.linalg.qr(gen.standard_normal((rows, r)))
        W, _ = np.linalg.qr(gen.standard_normal((cols, r)))
        X = (U * np.logspace(0, -16, r)) @ W.T
    return X, np.linalg.svd(X, compute_uv=False)


class TestNuclearValue:
    """``NuclearBlock.value`` against the sum of an SVD's singular values.

    Tolerances: 1e-12 relative on Gaussian and rank <= r/4 inputs, and
    r * sqrt(2 r eps) ||X||_2 absolute on a graded spectrum, whose singular
    values below sqrt(eps) ||X||_2 the Gram eigenvalues cannot resolve.
    At entry magnitudes 1e+-300 an unscaled Gram matrix would overflow or
    underflow.
    """

    @pytest.mark.parametrize("shape", NUCLEAR_SHAPES)
    @pytest.mark.parametrize("kind", ["gaussian", "low-rank", "graded"])
    @pytest.mark.parametrize("magnitude", [1.0, 1e-300, 1e-150, 1e150, 1e300])
    def test_matches_svd_sum(self, kind, shape, magnitude):
        rows, cols = shape
        r = min(shape)
        gen = np.random.Generator(np.random.PCG64(rows * 100 + cols))
        for weight in (1.0, 0.3):
            X, s = nuclear_input(kind, rows, cols, gen)
            got = NuclearBlock(weight, rows, cols).value((X * magnitude).ravel())
            assert math.isfinite(got)
            want = weight * magnitude * s.sum()
            if kind == "graded":
                bound = weight * magnitude * r * math.sqrt(2 * r * EPS) * s[0]
            else:
                bound = 1e-12 * want
            assert abs(got - want) <= bound, (kind, shape, magnitude, abs(got - want) / bound)

    def test_zero_block_is_zero(self):
        assert NuclearBlock(0.5, 3, 4).value(np.zeros(12)) == 0.0
        assert NuclearBlock(0.5, 3, 4).value(-np.zeros(12)) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 5, 11])
    def test_non_finite_entry_gives_nan(self, bad, at):
        """A NaN or an infinite entry is NaN, never the 0.0 that a Gram
        matrix full of NaN yields after its eigenvalues are filtered."""
        x = np.random.Generator(np.random.PCG64(at)).standard_normal(12)
        x[at] = bad
        for weight in (0.0, 1.0):
            assert math.isnan(NuclearBlock(weight, 3, 4).value(x))

    def test_rpca_takes_no_svd(self, monkeypatch):
        """Building the low-rank + sparse instance, running the engine and
        reporting its objective every pass call no SVD."""
        B = gen_rpca(12, 16, 2, seed=3)

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd was called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        inst = make_rpca(B, *rpca_default_penalties(B))
        config = StepsizeConfig.for_instance(inst, K=3)
        state, trace = run(inst, config, pass_budget=3, seed=4,
                           metric_callback=lambda p, st, t: inst.objective(st.x))
        # one iteration from zero leaves x at zero, so pass 1 reports 0.0
        assert trace[0] == 0.0 and all(math.isfinite(v) and v > 0 for v in trace[1:])
        assert inst.objective(state.x) == trace[-1]
