"""Solvers and benchmarks for separable convex-concave saddle-point problems.

The block engine lives in :mod:`sepsaddle.spbcd`; batch baselines in
:mod:`sepsaddle.baselines`; problem builders in :mod:`sepsaddle.problems`;
the benchmark harness in :mod:`sepsaddle.bench`; numerical oracles for the
test suite in :mod:`sepsaddle.verify`.
"""

from .baselines import (
    PdcpConfig,
    fista_run,
    ista_run,
    ista_step,
    pdcp_iterate,
    pdcp_run,
    preconditioned_pdcp_iterate,
    preconditioned_pdcp_run,
)
from .bench import RunConfig, TraceRecord, compare, run_experiment
from .matrices import (
    BlockPartition,
    DenseCoupling,
    DenseMatrix,
    block_matvec,
    col_abs_sums,
    spectral_norm_estimate,
)
from .problems import (
    GroupSpec,
    IdentityStackCoupling,
    SepCCSPInstance,
    gen_group_lasso,
    gen_lasso,
    gen_rpca,
    make_group_lasso_hinge,
    make_lasso,
    make_rpca,
    rpca_default_penalties,
)
from .spbcd import SolverState, StepsizeConfig, iterate, run, sample_blocks

__all__ = [
    "BlockPartition",
    "DenseCoupling",
    "DenseMatrix",
    "GroupSpec",
    "IdentityStackCoupling",
    "PdcpConfig",
    "RunConfig",
    "SepCCSPInstance",
    "SolverState",
    "StepsizeConfig",
    "TraceRecord",
    "block_matvec",
    "col_abs_sums",
    "compare",
    "fista_run",
    "gen_group_lasso",
    "gen_lasso",
    "gen_rpca",
    "ista_run",
    "ista_step",
    "iterate",
    "make_group_lasso_hinge",
    "make_lasso",
    "make_rpca",
    "pdcp_iterate",
    "pdcp_run",
    "preconditioned_pdcp_iterate",
    "preconditioned_pdcp_run",
    "rpca_default_penalties",
    "run",
    "run_experiment",
    "sample_blocks",
    "spectral_norm_estimate",
]

__version__ = "0.1.0"
