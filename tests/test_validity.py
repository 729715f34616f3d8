"""The stepsize validity matrix P over random instances, as the engine builds
its stepsizes: h from ``StepsizeConfig.for_instance``, sigma^t from
``compute_sigma_t``, with sigma_scale = 1 and no override."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sepsaddle.matrices import BlockPartition
from sepsaddle.problems import gen_lasso, make_group_lasso_hinge, make_lasso
from sepsaddle.spbcd import STEPSIZE_RULES, StepsizeConfig, compute_sigma_t
from oracles import p_matrix_min_eig

# rounding allowance of the eigenvalue, the bound of criterion 4
TOL = 1e-8


def lasso_instance(gen):
    m, n = (int(v) for v in gen.integers(2, 9, size=2))
    A, b, lam = gen_lasso(m, n, int(gen.integers(1, n + 1)), seed=int(gen.integers(1 << 30)),
                          normalize=bool(gen.integers(2)))
    return make_lasso(A, b, lam)


def group_lasso_instance(gen):
    sizes = gen.integers(1, 5, size=int(gen.integers(1, 6)))
    m = int(gen.integers(2, 9))
    # some entries zero, so that rows, columns and whole groups can be empty
    features = gen.standard_normal((m, sizes.sum())) * (gen.uniform(size=(m, sizes.sum())) < 0.6)
    labels = np.where(gen.standard_normal(m) > 0, 1.0, -1.0)
    return make_group_lasso_hinge(features, labels, BlockPartition(sizes),
                                  float(gen.uniform(0.01, 1.0)))


@given(kind=st.sampled_from(["lasso", "group-lasso"]), rule=st.sampled_from(STEPSIZE_RULES),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_p_matrix_is_psd_for_any_selection(kind, rule, seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    inst = lasso_instance(gen) if kind == "lasso" else group_lasso_instance(gen)
    J = inst.num_blocks
    K = int(gen.integers(1, J + 1))
    blocks = np.sort(gen.choice(J, size=K, replace=False))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # floored penalties
        config = StepsizeConfig.for_instance(inst, K, rule=rule)
    sigma = compute_sigma_t(inst.coupling, blocks, K, J, rule)
    A = np.hstack([inst.coupling.block(j) for j in range(J)])
    assert p_matrix_min_eig(A, inst.coupling.partition, blocks, config.h, sigma, K, J) >= -TOL
