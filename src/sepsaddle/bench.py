"""Benchmark harness: run configurations, trace CSV files, and side-by-side
comparisons with SVG charts."""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import baselines, spbcd
from .datafiles import (
    groups_from_meta,
    load_libsvm,
    load_problem_dir,
    meta_text,
    meta_value,
    positive_float,
)
from .errors import ConfigError, FormatError, RunAborted
from .matrices import _values
from .problems import (
    SepCCSPInstance,
    gen_group_lasso,
    gen_lasso,
    gen_rpca,
    lasso_data,
    make_group_lasso_hinge,
    make_lasso,
    make_rpca,
    rpca_default_penalties,
)
from .svgplot import AxisSpec, Series, render_svg

SOLVERS = ("spbcd", "pdcp", "preconditioned-pdcp", "ista", "fista")
PROBLEMS = ("lasso", "group-lasso", "rpca", "file")

DEFAULT_GROUP_LASSO_LAM = 1e-4
_GAP_MAX_DIM = 500
_GAP_ONLY = f"gap reporting is only available for lasso problems with n <= {_GAP_MAX_DIM}"
_RPCA_LAM = "problem 'rpca' has no lam; --lam applies to lasso and group-lasso"


@dataclass
class TraceRecord:
    pass_index: int
    elapsed_ms: float
    objective: float
    residual: float
    gap: float | None = None


@dataclass
class RunConfig:
    """One benchmark run: a problem source, a solver, and its knobs."""

    problem: str = "lasso"
    solver: str = "spbcd"
    passes: int = 30
    K: int = 1
    seed: int = 0
    workers: int = 1
    rule: str = "adaptive-l1"
    sigma_override: float | None = None
    sigma_scale: float = 1.0
    out: str | None = None
    label: str | None = None
    gap: bool = False
    # lasso generator (defaults resolved per problem)
    m: int | None = None
    n: int | None = None
    d: int | None = None
    normalize: bool = True
    # low-rank/sparse generator
    rank: int | None = None
    # group lasso
    lam: float | None = None
    gl_samples: int = 2000
    gl_active: float = 0.2
    gl_noise: float = 0.1
    # file source
    path: str | None = None

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}; expected one of {PROBLEMS}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}; expected one of {SOLVERS}")
        if self.K < 1:
            raise ConfigError("K must be >= 1")
        if self.passes < 1:
            raise ConfigError("passes must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        spbcd.check_sigma_settings(self.sigma_override, self.sigma_scale)
        if self.problem == "file" and not self.path:
            raise ConfigError("problem 'file' needs --path")
        if self.problem != "file" and self.path:
            raise ConfigError("--path is only valid with --problem file")
        if self.solver in ("ista", "fista") and self.problem not in ("lasso", "file"):
            raise ConfigError(f"solver {self.solver!r} only applies to lasso problems")
        if self.gap and self.problem not in ("lasso", "file"):
            raise ConfigError(_GAP_ONLY)
        if self.lam is not None and not self.lam > 0:
            raise ConfigError(f"--lam must be positive for problem {self.problem!r}, "
                              f"got {self.lam!r}")
        if self.lam is not None and self.problem == "rpca":
            raise ConfigError(_RPCA_LAM)
        if self.gl_samples < 1:
            raise ConfigError(f"--gl-samples must be >= 1, got {self.gl_samples!r}")
        if not 0 < self.gl_active <= 1:
            raise ConfigError(f"--gl-active must lie in (0, 1], got {self.gl_active!r}")
        if not (math.isfinite(self.gl_noise) and self.gl_noise >= 0):
            raise ConfigError(f"--gl-noise must be finite and >= 0, got {self.gl_noise!r}")

    def sizes(self) -> tuple:
        if self.problem == "lasso":
            return (self.m or 1000, self.n or 5000, self.d or 500)
        if self.problem == "rpca":
            return (self.m or 200, self.n or 500, self.rank or 10)
        return ()

    def problem_key(self) -> tuple:
        """Identity of the generated data; compare() refuses mixed keys."""
        if self.problem == "lasso":
            return ("lasso", self.seed, *self.sizes(), self.normalize, self.lam)
        if self.problem == "rpca":
            return ("rpca", self.seed, *self.sizes())
        if self.problem == "group-lasso":
            lam = DEFAULT_GROUP_LASSO_LAM if self.lam is None else self.lam
            return ("group-lasso", self.seed, self.gl_samples, self.gl_active,
                    self.gl_noise, lam)
        return ("file", str(Path(self.path).resolve()), self.lam)

    def series_label(self) -> str:
        if self.label:
            return self.label
        if self.solver == "spbcd":
            return f"spbcd-K{self.K}"
        return self.solver


def problem_data(config: RunConfig):
    """The problem as (kind, arrays, meta), the content of a problem directory
    with ``meta`` as the text of its ``meta.txt``: generated from the flags or
    read from ``config.path``. ``--lam`` replaces the lam of either."""
    kind, seed = config.problem, config.seed
    if kind == "file":
        kind, arrays, meta = load_problem_dir(config.path)
        libsvm = Path(config.path) / "features.libsvm"
        if kind == "group-lasso" and "features" not in arrays and libsvm.exists():
            arrays["features"], arrays["labels"] = load_libsvm(
                libsvm, num_features=groups_from_meta(meta, config.path).total)
    elif kind == "lasso":
        m, n, d = config.sizes()
        A, b, lam = gen_lasso(m, n, d, seed, normalize=config.normalize)
        arrays = {"A": A, "b": b}
        meta = {"m": m, "n": n, "d": d, "seed": seed, "normalize": config.normalize, "lam": lam}
    elif kind == "rpca":
        m, n, r = config.sizes()
        B = gen_rpca(m, n, r, seed)
        mu2, mu3 = rpca_default_penalties(B)
        arrays, meta = {"B": B}, {"m": m, "n": n, "rank": r, "seed": seed, "mu2": mu2, "mu3": mu3}
    else:
        features, labels, groups = gen_group_lasso(
            seed, n_samples=config.gl_samples, active_fraction=config.gl_active,
            label_noise=config.gl_noise)
        arrays = {"features": features, "labels": labels}
        meta = {"groups": list(groups.block_sizes), "seed": seed,
                "n_samples": config.gl_samples, "active_fraction": config.gl_active,
                "label_noise": config.gl_noise, "lam": DEFAULT_GROUP_LASSO_LAM}
    if config.lam is not None:
        if kind == "rpca":
            raise ConfigError(_RPCA_LAM)
        meta["lam"] = config.lam
    return kind, arrays, meta_text(meta)


def build_problem(config: RunConfig) -> SepCCSPInstance:
    """Build the instance from ``problem_data(config)``, the one path for
    generated problems and problem directories alike."""
    kind, arrays, meta = problem_data(config)
    source = config.path or kind

    def array(name):
        if name not in arrays:
            raise FormatError(f"{source}: no {name}.csv for a {kind} problem")
        return arrays[name]

    def vector(name):
        return np.ravel(_values(array(name)))

    if kind == "lasso":
        A, b = array("A"), vector("b")
        if "lam" not in meta:
            raise FormatError(f"{source}/meta.txt: no 'lam' key and no --lam")
        return make_lasso(A, b, meta_value(meta, "lam", positive_float, source))
    if kind == "rpca":
        B = _values(array("B"))
        if "mu2" in meta and "mu3" in meta:
            mu2, mu3 = (meta_value(meta, key, positive_float, source) for key in ("mu2", "mu3"))
        else:
            mu2, mu3 = rpca_default_penalties(B)
        return make_rpca(B, mu2, mu3)
    if kind == "group-lasso":
        groups = groups_from_meta(meta, source)
        if "features" not in arrays:
            raise ConfigError(f"{source}: no features.csv or features.libsvm")
        labels = vector("labels")
        lam = (meta_value(meta, "lam", positive_float, source) if "lam" in meta
               else DEFAULT_GROUP_LASSO_LAM)
        return make_group_lasso_hinge(arrays["features"], labels, groups, lam)
    raise ConfigError(f"unknown problem kind {kind!r} in {source}")


def _ensure_reference(instance: SepCCSPInstance) -> None:
    """Attach a reference objective for suboptimality residual reporting."""
    if instance.residual_kind != "suboptimality" or instance.reference_objective is not None:
        return
    if instance.name == "lasso":
        _, obj = baselines.fista_reference(*lasso_data(instance), tol=1e-10, max_passes=50_000)
    else:
        x_ref, _ = baselines.preconditioned_reference(instance, tol=1e-9, max_passes=50_000)
        obj = instance.objective(x_ref)
    instance.reference_objective = obj


_SADDLES = weakref.WeakKeyDictionary()  # instance -> (x*, y*) of its gap column


def _gap_evaluator(instance: SepCCSPInstance):
    """Saddle-referenced gap L(x, y*) - L(x*, y) for tiny lasso problems."""
    if instance not in _SADDLES:
        A, b, lam = lasso_data(instance)
        x_star, _ = baselines.fista_reference(A, b, lam, tol=1e-12, max_passes=200_000)
        _SADDLES[instance] = (x_star, instance.coupling.matvec(x_star) - b)
    x_star, y_star = _SADDLES[instance]
    l_star = instance.lagrangian(x_star, y_star)

    def gap_at(x, y):
        return (instance.lagrangian(x, y_star) - l_star
                + l_star - instance.lagrangian(x_star, y))

    return gap_at


def run_experiment(config: RunConfig, instance: SepCCSPInstance | None = None):
    """Build the problem (unless ``instance`` is given), run the configured
    solver, return the trace (and write it to ``config.out`` when set)."""
    config.validate()
    if instance is None:
        instance = build_problem(config)
    # a problem directory's kind is known only once it is loaded
    lasso = instance.name == "lasso"
    if config.solver in ("ista", "fista") and not lasso:
        raise ConfigError(f"solver {config.solver!r} only applies to lasso problems")
    if config.gap and not (lasso and instance.n <= _GAP_MAX_DIM):
        raise ConfigError(_GAP_ONLY)
    _ensure_reference(instance)
    gap_at = _gap_evaluator(instance) if config.gap else None
    step_config = None
    if config.solver == "spbcd":
        step_config = spbcd.StepsizeConfig.for_instance(
            instance, config.K, rule=config.rule,
            sigma_override=config.sigma_override, sigma_scale=config.sigma_scale)
    guarantee = step_config is None or step_config.guarantee

    def record(pass_index, x, y, seconds):
        gap = gap_at(x, y) if gap_at is not None else None
        return TraceRecord(pass_index, seconds * 1000.0,
                           instance.objective(x), instance.residual(x), gap)

    try:
        trace = _dispatch(config, instance, record, step_config)
    except RunAborted as exc:
        if config.out:
            write_trace(config.out, config, exc.trace, guarantee)
        raise
    if config.out:
        write_trace(config.out, config, trace, guarantee)
    return trace


def _dispatch(config: RunConfig, instance: SepCCSPInstance, record, step_config):
    if config.solver == "spbcd":
        _, trace = spbcd.run(
            instance, step_config, config.passes,
            metric_callback=lambda p, state, secs: record(p, state.x, state.y, secs),
            seed=config.seed, workers=config.workers)
        return trace
    if config.solver == "pdcp":
        pd_config = baselines.PdcpConfig.recommended(instance)
        _, trace = baselines.pdcp_run(
            instance, pd_config, config.passes,
            metric_callback=lambda p, state, secs: record(p, state.x, state.y, secs))
        return trace
    if config.solver == "preconditioned-pdcp":
        _, trace = baselines.preconditioned_pdcp_run(
            instance, config.passes,
            metric_callback=lambda p, state, secs: record(p, state.x, state.y, secs))
        return trace
    # ista / fista operate on the raw lasso data
    A, b, lam = lasso_data(instance)
    zeros_y = np.zeros(instance.m)
    callback = lambda p, x, secs: record(p, x, zeros_y, secs)  # noqa: E731
    if config.solver == "ista":
        _, trace = baselines.ista_run(A, b, lam, config.passes, metric_callback=callback)
    else:
        _, trace = baselines.fista_run(A, b, lam, passes=config.passes,
                                       metric_callback=callback)
    return trace


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------

def _trace_header(with_gap: bool) -> str:
    return "pass,elapsed_ms,objective,residual" + (",gap" if with_gap else "")


def _trace_row(rec: TraceRecord, with_gap: bool) -> str:
    """One trace record as a CSV row under ``_trace_header``."""
    row = f"{rec.pass_index},{rec.elapsed_ms:.3f},{rec.objective!r},{rec.residual!r}"
    return row + f",{rec.gap!r}" if with_gap else row


def write_trace(path, config: RunConfig, trace, guarantee: bool) -> Path:
    """Write ``trace`` under a header of ``# key=value`` lines; a run that
    leaves the O(1/T) guarantee (``spbcd.StepsizeConfig.guarantee``) has a
    ``# guarantee=off`` line."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with_gap = any(rec.gap is not None for rec in trace)
    lines = [
        f"# seed={config.seed}",
        f"# solver={config.solver}",
        f"# K={config.K}",
        f"# problem={config.problem}",
        f"# rule={config.rule}",
        f"# workers={config.workers}",
    ]
    if config.sigma_override is not None:
        lines.append(f"# sigma_override={config.sigma_override!r}")
    if config.sigma_scale != 1.0:
        lines.append(f"# sigma_scale={config.sigma_scale!r}")
    if not guarantee:
        lines.append("# guarantee=off")
    lines.append(_trace_header(with_gap))
    lines.extend(_trace_row(rec, with_gap) for rec in trace)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def compare(configs, out_dir, metric: str = "objective") -> dict:
    """Run >= 2 configs on the same generated problem; write a merged
    long-format CSV and two SVG charts (metric vs pass, metric vs time)."""
    configs = list(configs)
    if len(configs) < 2:
        raise ConfigError("compare needs at least two configurations")
    if metric not in ("objective", "residual", "gap"):
        raise ConfigError(f"unknown metric {metric!r}")
    keys = {c.problem_key() for c in configs}
    if len(keys) != 1:
        raise ConfigError(
            "compare requires identical problem data (same problem, seed and lam); "
            f"got {sorted(keys, key=str)}"
        )
    labels = [c.series_label() for c in configs]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"series labels must be distinct, got {labels}")
    no_gap = [label for label, c in zip(labels, configs) if not c.gap]
    if metric == "gap" and no_gap:
        raise ConfigError(f"metric 'gap' needs gap = true in every config; "
                          f"not set in {', '.join(no_gap)}")

    instance = build_problem(configs[0])
    traces = [run_experiment(c, instance) for c in configs]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    combined = out_dir / "combined.csv"
    with_gap = any(rec.gap is not None for trace in traces for rec in trace)
    lines = [f"# problem={configs[0].problem}", f"# seed={configs[0].seed}"]
    lines.append("solver," + _trace_header(with_gap))
    lines.extend(f"{label},{_trace_row(rec, with_gap)}"
                 for label, trace in zip(labels, traces) for rec in trace)
    combined.write_text("\n".join(lines) + "\n", encoding="ascii")

    def metric_values(trace):
        return [getattr(rec, "gap" if metric == "gap" else metric) for rec in trace]

    all_vals = [v for trace in traces for v in metric_values(trace) if v is not None]
    logy = bool(all_vals) and all(
        v > 0 and math.isfinite(v) for v in all_vals
    )

    paths = {"combined": combined}
    for suffix, x_of, xlabel in (
        ("pass", lambda rec: rec.pass_index, "passes"),
        ("time", lambda rec: rec.elapsed_ms, "solver time (ms)"),
    ):
        series = [
            Series(label=label,
                   xs=[x_of(rec) for rec in trace],
                   ys=metric_values(trace))
            for label, trace in zip(labels, traces)
        ]
        svg = render_svg(series, AxisSpec(
            title=f"{configs[0].problem}: {metric} vs {xlabel}",
            xlabel=xlabel, ylabel=metric, logy=logy))
        path = out_dir / f"{metric}_vs_{suffix}.svg"
        path.write_text(svg, encoding="ascii")
        paths[suffix] = path
    return paths


# ---------------------------------------------------------------------------
# key = value config files
# ---------------------------------------------------------------------------

_BOOL_FIELDS = {"normalize", "gap"}


def _parse_value(name: str, text: str):
    for f in fields(RunConfig):
        if f.name == name:
            break
    else:
        raise ConfigError(f"unknown config key {name!r}")
    text = text.strip()
    if name in _BOOL_FIELDS:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{name} expects true/false, got {text!r}")
    for kind, parse in (("int", int), ("float", float)):
        if f.type in (kind, f"{kind} | None"):
            try:
                return parse(text)
            except ValueError:
                raise ConfigError(f"{name} expects {kind}, got {text!r}") from None
    return text


def parse_config_file(path) -> dict:
    """A flat ``key = value`` file, optionally under a [run] section header.

    Keys are RunConfig field names (underscores). CLI flags override file
    values.
    """
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            if line not in ("[run]",):
                raise ConfigError(f"{path}:{lineno}: unknown section {line}")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        try:
            values[key] = _parse_value(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def config_from_sources(file_values: dict | None, flag_values: dict) -> RunConfig:
    """Merge config-file values with CLI flags; flags win on conflict."""
    merged = dict(file_values or {})
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    try:
        return RunConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
