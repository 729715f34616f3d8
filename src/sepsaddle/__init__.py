"""Solvers and benchmarks for separable convex-concave saddle-point problems.

The block engine lives in :mod:`sepsaddle.spbcd`; batch baselines in
:mod:`sepsaddle.baselines`; problem builders in :mod:`sepsaddle.problems`;
the coupling protocol in :mod:`sepsaddle.matrices`; the benchmark harness in
:mod:`sepsaddle.bench`. The package holds only what the CLI, the benchmark
scripts and the library run; the test suite's numerical oracles live with
the tests. The package namespace holds what the CLI, the benchmark scripts
and the README use; everything else is imported from its module.
"""

from .baselines import PdcpConfig, fista_run, ista_run, pdcp_run, preconditioned_pdcp_run
from .bench import RunConfig, compare, run_experiment
from .problems import (
    gen_group_lasso,
    gen_lasso,
    gen_rpca,
    make_group_lasso_hinge,
    make_lasso,
    make_rpca,
    rpca_default_penalties,
)
from .spbcd import StepsizeConfig, iterate, run

__all__ = [
    "PdcpConfig",
    "RunConfig",
    "StepsizeConfig",
    "compare",
    "fista_run",
    "gen_group_lasso",
    "gen_lasso",
    "gen_rpca",
    "ista_run",
    "iterate",
    "make_group_lasso_hinge",
    "make_lasso",
    "make_rpca",
    "pdcp_run",
    "preconditioned_pdcp_run",
    "rpca_default_penalties",
    "run",
    "run_experiment",
]

__version__ = "0.1.0"
