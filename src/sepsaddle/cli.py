"""Command-line front end: ``generate``, ``run``, and ``compare``.

Exit codes: 0 success, 2 bad configuration or arguments, 3 solver numeric
failure (partial trace flushed when an output path was given) or a failed
reference solve (no trace written).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .bench import (
    PROBLEMS,
    SOLVERS,
    RunConfig,
    compare,
    config_from_sources,
    parse_config_file,
    problem_data,
    run_experiment,
)
from .datafiles import save_problem_dir
from .errors import ConfigError, ConvergenceError, FormatError, NumericsError, RunAborted
from .spbcd import STEPSIZE_RULES


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    """The flags that define a generated problem, shared by generate and run."""
    p.add_argument("--seed", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--no-normalize", action="store_const", const=False,
                   dest="normalize", help="skip unit-norm column scaling (lasso)")
    p.add_argument("--r", type=int, dest="rank")
    p.add_argument("--lam", type=float,
                   help="l1 / group weight (lasso, group-lasso); must be positive")
    p.add_argument("--gl-samples", type=int, dest="gl_samples")
    p.add_argument("--gl-active", type=float, dest="gl_active")
    p.add_argument("--gl-noise", type=float, dest="gl_noise")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--problem", choices=PROBLEMS)
    p.add_argument("--solver", choices=SOLVERS)
    p.add_argument("--passes", type=int)
    p.add_argument("--K", type=int, dest="K")
    p.add_argument("--workers", type=int,
                   help="accepted and recorded in the trace; the engine runs on one thread")
    p.add_argument("--rule", choices=STEPSIZE_RULES)
    p.add_argument("--sigma-override", type=float, dest="sigma_override",
                   help="manual constant dual penalty")
    p.add_argument("--sigma-scale", type=float, dest="sigma_scale",
                   help="multiplier on the adaptive dual penalty")
    p.add_argument("--out", help="trace CSV path")
    p.add_argument("--label", help="series label in compare outputs")
    p.add_argument("--gap", action="store_const", const=True,
                   help="emit the saddle gap column (tiny lasso only)")
    p.add_argument("--path", help="problem directory (with --problem file)")
    _add_problem_flags(p)


_RUN_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig))


def _flag_values(args) -> dict:
    return {name: getattr(args, name, None) for name in _RUN_FIELDS}


def _config_from_args(args) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else None
    return config_from_sources(file_values, _flag_values(args))


def _cmd_generate(args) -> int:
    # generate's --out is the problem directory, not a trace path
    config = config_from_sources(None, {**_flag_values(args), "out": None})
    root = save_problem_dir(args.out, *problem_data(config))
    print(f"wrote {config.problem} problem to {root}")
    return 0


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    trace = run_experiment(config)
    last = trace[-1]
    print(f"{config.solver} on {config.problem}: {len(trace)} passes, "
          f"objective {last.objective:.9g}, residual {last.residual:.3e}"
          + (f", trace -> {config.out}" if config.out else ""))
    return 0


def _cmd_compare(args) -> int:
    configs = []
    for path in args.config:
        values = parse_config_file(path)
        values.setdefault("out", str(Path(args.out_dir) / (Path(path).stem + ".csv")))
        configs.append(config_from_sources(values, {}))
    paths = compare(configs, args.out_dir, metric=args.metric)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepsaddle",
        description="Separable saddle-point solvers and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic problem directory")
    p_gen.add_argument("--problem", choices=("lasso", "rpca", "group-lasso"),
                       required=True)
    _add_problem_flags(p_gen)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=_cmd_generate)

    p_run = sub.add_parser("run", help="run one solver and write its trace")
    _add_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run several configs on one problem")
    p_cmp.add_argument("--config", action="append", required=True,
                       help="config file; repeat for each series")
    p_cmp.add_argument("--out-dir", required=True)
    p_cmp.add_argument("--metric", choices=("objective", "residual", "gap"),
                       default="objective")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RunAborted as exc:
        print(f"solver aborted: {exc} ({len(exc.trace)} passes completed)",
              file=sys.stderr)
        return 3
    except (ConvergenceError, NumericsError) as exc:
        # a run's own numeric failures arrive as RunAborted; these come from
        # the reference (or saddle) solve that precedes it
        print(f"error: reference solve failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
