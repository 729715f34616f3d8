import numpy as np
import pytest

from sepsaddle.functions import BlockProx, GroupL2Block, L1Block, NuclearBlock
from sepsaddle.prox import prox_group_l2_segments

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
    index = slice(sum(sizes[:j]), sum(sizes[:j + 1]))
    shrunk = 0
    for _ in range(300):
        h = np.full(width, gen.uniform(0.5, 2.0))
        tau = weights[j] / h.max()
        v = gen.standard_normal(width)
        v *= tau * gen.uniform(0.0, 2.0) / np.linalg.norm(v)
        want = prox_group_l2_segments(v, np.array([0]), np.array([tau]))
        got = prox(v, h, index, np.array([j]))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        shrunk += not want.any()
    assert 100 <= shrunk <= 200
