import numpy as np
import pytest

from sepsaddle.functions import GroupL2Block, L1Block, NuclearBlock

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

