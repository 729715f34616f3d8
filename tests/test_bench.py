import warnings
from pathlib import Path

import numpy as np
import pytest

import sepsaddle
from sepsaddle import bench
from sepsaddle.bench import (
    SOLVERS,
    RunConfig,
    TraceRecord,
    compare,
    config_from_sources,
    parse_config_file,
    run_experiment,
    write_trace,
)
from sepsaddle.cli import main
from sepsaddle.datafiles import load_problem_dir
from sepsaddle.errors import ConfigError, ConvergenceError, NumericsError
from sepsaddle.svgplot import AxisSpec, Series, render_svg


# generator flags of a tiny problem of each kind
TINY_FLAGS = {
    "lasso": ["--m", "8", "--n", "12", "--d", "3"],
    "rpca": ["--m", "6", "--n", "8", "--r", "2"],
    "group-lasso": ["--gl-samples", "30", "--lam", "0.05"],
}


def read_trace(path):
    """Read back a trace file as (header dict, list of TraceRecord)."""
    header = {}
    records = []
    columns = None
    for raw in Path(path).read_text(encoding="ascii").splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            header[key.strip()] = value.strip()
            continue
        if columns is None:
            columns = line.split(",")
            continue
        parts = line.split(",")
        rec = dict(zip(columns, parts))
        records.append(TraceRecord(
            pass_index=int(rec["pass"]),
            elapsed_ms=float(rec["elapsed_ms"]),
            objective=float(rec["objective"]),
            residual=float(rec["residual"]),
            gap=float(rec["gap"]) if "gap" in rec else None,
        ))
    return header, records


def trace_rows(path):
    """A trace file's header and rows, with the elapsed_ms column blanked."""
    header, records = read_trace(path)
    header.pop("problem")
    return header, [(r.pass_index, r.objective, r.residual, r.gap) for r in records]


def tiny_lasso_config(**overrides):
    base = dict(problem="lasso", solver="spbcd", passes=5, K=4, seed=7,
                m=8, n=12, d=3)
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_unknown_solver(self):
        with pytest.raises(ConfigError, match="solver"):
            tiny_lasso_config(solver="admm")

    def test_unknown_problem(self):
        with pytest.raises(ConfigError, match="problem"):
            RunConfig(problem="ridge")

    def test_file_needs_path(self):
        with pytest.raises(ConfigError, match="path"):
            RunConfig(problem="file")

    def test_ista_only_for_lasso(self):
        with pytest.raises(ConfigError, match="lasso"):
            RunConfig(problem="rpca", solver="ista")

    @pytest.mark.parametrize("lam", [0.0, -0.5, float("nan")])
    @pytest.mark.parametrize("problem", ["lasso", "group-lasso"])
    def test_lam_must_be_positive(self, problem, lam):
        with pytest.raises(ConfigError, match=f"positive for problem '{problem}'"):
            RunConfig(problem=problem, lam=lam)

    def test_lam_refused_for_rpca(self):
        with pytest.raises(ConfigError, match="problem 'rpca' has no lam"):
            RunConfig(problem="rpca", lam=1.0)

    @pytest.mark.parametrize("key, value, flag", [
        ("gl_samples", 0, "--gl-samples must be >= 1"),
        ("gl_samples", -4, "--gl-samples must be >= 1"),
        ("gl_active", -3.0, "--gl-active must lie in"),
        ("gl_active", 0.0, "--gl-active must lie in"),
        ("gl_active", 1.5, "--gl-active must lie in"),
        ("gl_active", float("nan"), "--gl-active must lie in"),
        ("gl_noise", -1.0, "--gl-noise must be finite"),
        ("gl_noise", float("nan"), "--gl-noise must be finite"),
        ("gl_noise", float("inf"), "--gl-noise must be finite")])
    def test_group_lasso_generator_settings_checked(self, key, value, flag):
        with pytest.raises(ConfigError, match=flag):
            RunConfig(problem="group-lasso", **{key: value})

    def test_group_lasso_generator_edge_values_pass(self):
        RunConfig(problem="group-lasso", gl_samples=1, gl_active=1.0, gl_noise=0.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", ["sigma_override", "sigma_scale"])
    def test_sigma_settings_must_be_positive_and_finite(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be positive and finite"):
            tiny_lasso_config(**{key: value})

    def test_lasso_problem_key_includes_lam(self):
        assert tiny_lasso_config().problem_key() != tiny_lasso_config(lam=0.5).problem_key()

    def test_labels(self):
        assert tiny_lasso_config().series_label() == "spbcd-K4"
        assert tiny_lasso_config(solver="pdcp").series_label() == "pdcp"
        assert tiny_lasso_config(label="mine").series_label() == "mine"


class TestRunExperiment:
    def test_trace_length_and_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        config = tiny_lasso_config(out=str(out))
        trace = run_experiment(config)
        assert len(trace) == 5
        header, records = read_trace(out)
        assert header["seed"] == "7"
        assert header["solver"] == "spbcd"
        assert header["K"] == "4"
        assert len(records) == 5
        assert [r.pass_index for r in records] == [1, 2, 3, 4, 5]
        assert all(np.isfinite(r.objective) for r in records)
        # lasso residual is relative suboptimality against the reference
        assert all(r.residual >= -1e-12 for r in records)

    def test_single_pass(self):
        assert len(run_experiment(tiny_lasso_config(passes=1))) == 1

    def test_elapsed_nondecreasing(self):
        trace = run_experiment(tiny_lasso_config())
        elapsed = [r.elapsed_ms for r in trace]
        assert elapsed == sorted(elapsed)

    def test_rerun_identical_except_elapsed(self, tmp_path):
        c1 = tiny_lasso_config(out=str(tmp_path / "a.csv"))
        c2 = tiny_lasso_config(out=str(tmp_path / "b.csv"))
        run_experiment(c1)
        run_experiment(c2)
        _, rec_a = read_trace(tmp_path / "a.csv")
        _, rec_b = read_trace(tmp_path / "b.csv")
        for ra, rb in zip(rec_a, rec_b):
            assert ra.pass_index == rb.pass_index
            assert ra.objective == rb.objective
            assert ra.residual == rb.residual

    @pytest.mark.parametrize("solver", ["pdcp", "preconditioned-pdcp", "ista", "fista"])
    def test_all_solvers_produce_traces(self, solver):
        trace = run_experiment(tiny_lasso_config(solver=solver, passes=3))
        assert len(trace) == 3

    def test_gap_column_for_tiny_lasso(self):
        trace = run_experiment(tiny_lasso_config(gap=True, passes=40))
        assert all(r.gap is not None and r.gap >= -1e-9 for r in trace)
        assert trace[-1].gap <= trace[0].gap

    def test_gap_refused_for_rpca(self):
        with pytest.raises(ConfigError, match="gap"):
            RunConfig(problem="rpca", solver="spbcd", passes=2, K=1,
                      m=6, n=8, rank=2, gap=True)

    @pytest.mark.parametrize("argv", [
        ["--problem", "group-lasso", "--gl-samples", "30"],
        ["--problem", "rpca", "--m", "6", "--n", "8", "--r", "2"],
        ["--problem", "lasso", "--m", "8", "--n", "501", "--d", "3"],
        ["--problem", "file", "--path", "{gl_dir}"],
    ])
    def test_gap_refused_before_any_reference_solve(self, tmp_path, capsys, monkeypatch,
                                                    argv):
        gl_dir = tmp_path / "gl"
        assert main(["generate", "--problem", "group-lasso", "--gl-samples", "30",
                     "--out", str(gl_dir)]) == 0

        def no_reference(*args, **kwargs):
            raise AssertionError("a reference was solved before the gap check")

        monkeypatch.setattr(bench.baselines, "fista_reference", no_reference)
        monkeypatch.setattr(bench.baselines, "preconditioned_reference", no_reference)
        argv = [a.format(gl_dir=gl_dir) for a in argv]
        assert main(["run", *argv, "--passes", "2", "--gap"]) == 2
        assert "gap reporting is only available for lasso problems with n <= 500" \
            in capsys.readouterr().err

    def test_rpca_runs(self):
        config = RunConfig(problem="rpca", solver="spbcd", passes=4, K=2,
                           m=6, n=8, rank=2, seed=1)
        trace = run_experiment(config)
        assert len(trace) == 4
        assert trace[-1].residual <= trace[0].residual

    def test_group_lasso_runs(self):
        config = RunConfig(problem="group-lasso", solver="spbcd", passes=2, K=7,
                           gl_samples=40, seed=2, lam=0.05)
        trace = run_experiment(config)
        assert len(trace) == 2

    def test_determinism_across_worker_counts(self):
        traces = [run_experiment(tiny_lasso_config(workers=w)) for w in (1, 2, 8)]
        for other in traces[1:]:
            for ra, rb in zip(traces[0], other):
                assert ra.objective == rb.objective
                assert ra.residual == rb.residual


class TestCompare:
    def test_merged_outputs(self, tmp_path):
        configs = [tiny_lasso_config(), tiny_lasso_config(solver="pdcp"),
                   tiny_lasso_config(solver="fista")]
        paths = compare(configs, tmp_path / "cmp")
        combined = paths["combined"].read_text().splitlines()
        data_rows = [l for l in combined if l and not l.startswith("#")][1:]
        assert len(data_rows) == 15  # 3 solvers x 5 passes
        assert {r.split(",")[0] for r in data_rows} == {"spbcd-K4", "pdcp", "fista"}
        assert paths["pass"].exists() and paths["time"].exists()

    def test_single_config_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="two"):
            compare([tiny_lasso_config()], tmp_path)

    def test_seed_mismatch_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="same problem"):
            compare([tiny_lasso_config(), tiny_lasso_config(seed=8)], tmp_path)

    def test_lam_mismatch_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="same problem"):
            compare([tiny_lasso_config(), tiny_lasso_config(lam=0.5)], tmp_path)

    def test_duplicate_labels_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="distinct"):
            compare([tiny_lasso_config(K=4), tiny_lasso_config(K=4)], tmp_path)

    def test_combined_rows_are_the_trace_file_rows(self, tmp_path):
        configs = [tiny_lasso_config(gap=True, out=str(tmp_path / "a.csv")),
                   tiny_lasso_config(solver="pdcp", gap=True, out=str(tmp_path / "b.csv"))]
        combined = compare(configs, tmp_path / "cmp")["combined"].read_text().splitlines()
        assert combined[2] == "solver,pass,elapsed_ms,objective,residual,gap"
        rows = [f"{label},{line}" for label, name in (("spbcd-K4", "a.csv"), ("pdcp", "b.csv"))
                for line in (tmp_path / name).read_text().splitlines()
                if not line.startswith(("#", "pass"))]
        assert combined[3:] == rows and len(rows) == 10

    def test_identical_traces_render(self, tmp_path):
        configs = [tiny_lasso_config(label="a"), tiny_lasso_config(label="b")]
        paths = compare(configs, tmp_path / "same")
        assert paths["pass"].read_text().startswith("<svg")

    def test_gap_metric_needs_gap_in_every_config(self, tmp_path):
        configs = [tiny_lasso_config(gap=True), tiny_lasso_config(solver="pdcp"),
                   tiny_lasso_config(solver="fista")]
        with pytest.raises(ConfigError, match="gap = true.* not set in pdcp, fista$"):
            compare(configs, tmp_path / "cmp", metric="gap")
        assert not (tmp_path / "cmp").exists()

    def test_gap_configs_share_one_saddle_solve(self, tmp_path, monkeypatch):
        real = bench.baselines.fista_reference
        tols = []

        def counted(*args, **kwargs):
            tols.append(kwargs["tol"])
            return real(*args, **kwargs)

        monkeypatch.setattr(bench.baselines, "fista_reference", counted)
        configs = [tiny_lasso_config(gap=True), tiny_lasso_config(solver="pdcp", gap=True)]
        paths = compare(configs, tmp_path / "cmp", metric="gap")
        # one reference objective and one saddle for the one instance
        assert sorted(tols) == [1e-12, 1e-10]
        assert paths["pass"].exists()


class TestRenderSvg:
    def test_two_point_series(self):
        svg = render_svg([Series("s", [0, 1], [1.0, 2.0])], AxisSpec(title="t"))
        assert svg.count("<polyline") == 1
        assert "</svg>" in svg

    def test_byte_identical(self):
        series = [Series("a", list(range(10)), [float(2 ** -i) for i in range(10)])]
        axis = AxisSpec(title="x", xlabel="p", ylabel="v", logy=True)
        assert render_svg(series, axis) == render_svg(series, axis)

    def test_log_ticks_at_powers_of_ten(self):
        series = [Series("a", [0, 1, 2], [1e-6, 1e-3, 1.0])]
        svg = render_svg(series, AxisSpec(logy=True))
        for label in ("1e-6", "1e-3", "1e0"):
            assert label in svg

    def test_log_axis_requires_positive(self):
        with pytest.raises(ValueError, match="positive"):
            render_svg([Series("a", [0, 1], [0.0, 1.0])], AxisSpec(logy=True))

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            render_svg([Series("a", [], [])], AxisSpec())


class TestConfigFiles:
    def test_parse_and_merge(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nproblem = lasso\nsolver = pdcp\npasses = 3\n"
                       "m = 8\nn = 12\nd = 3\nseed = 5\n")
        values = parse_config_file(cfg)
        config = config_from_sources(values, {"solver": "spbcd", "K": 2})
        assert config.solver == "spbcd"  # flag wins
        assert config.passes == 3
        assert config.seed == 5

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stepsize = 3\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(cfg)

    def test_bool_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("normalize = false\ngap = true\n")
        values = parse_config_file(cfg)
        assert values == {"normalize": False, "gap": True}


class TestWriteTrace:
    @pytest.mark.parametrize("setting, off", [({}, False), ({"sigma_scale": 0.5}, True),
                                              ({"sigma_override": 1e-3}, True)])
    def test_runs_off_the_guarantee_are_marked(self, tmp_path, setting, off):
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_experiment(tiny_lasso_config(passes=2, out=str(out), **setting))
        assert ("# guarantee=off" in out.read_text().splitlines()) is off

    def test_header_comments(self, tmp_path):
        config = tiny_lasso_config(sigma_scale=0.5)
        from sepsaddle.bench import TraceRecord
        trace = [TraceRecord(1, 1.5, 2.0, 0.1)]
        path = write_trace(tmp_path / "t.csv", config, trace, guarantee=False)
        text = path.read_text()
        assert "# seed=7" in text
        assert "# solver=spbcd" in text
        assert "# K=4" in text
        assert "# sigma_scale=0.5" in text
        assert "# guarantee=off" in text
        assert "pass,elapsed_ms,objective,residual" in text


    @pytest.mark.parametrize("gap", [None, 0.25])
    def test_rows_are_byte_exact(self, tmp_path, gap):
        trace = [TraceRecord(1, 1.5, 2.0, 0.1, gap), TraceRecord(2, 12.3456, 1 / 3, 1e-17, gap)]
        lines = write_trace(tmp_path / "t.csv", tiny_lasso_config(), trace, True).read_text()
        tail = ",0.25" if gap else ""
        assert lines.splitlines()[-3:] == [
            "pass,elapsed_ms,objective,residual" + (",gap" if gap else ""),
            "1,1.500,2.0,0.1" + tail,
            "2,12.346,0.3333333333333333,1e-17" + tail]


class TestCli:
    def test_run_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["run", "--problem", "lasso", "--m", "8", "--n", "12",
                     "--d", "3", "--solver", "spbcd", "--K", "4", "--passes",
                     "3", "--seed", "7", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "spbcd on lasso" in capsys.readouterr().out

    def test_unknown_solver_exits_2_without_file(self, tmp_path, capsys):
        out = tmp_path / "nope.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--problem", "lasso", "--solver", "sgd",
                  "--out", str(out)])
        assert excinfo.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--sigma-scale", "nan"), ("--sigma-override", "inf")])
    def test_non_finite_sigma_flag_exits_2_without_trace(self, tmp_path, capsys, flag, value):
        out = tmp_path / "trace.csv"
        code = main(["run", "--problem", "lasso", *TINY_FLAGS["lasso"], "--passes", "3",
                     flag, value, "--out", str(out)])
        assert code == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "generate"])
    @pytest.mark.parametrize("flag, value", [
        ("--gl-samples", "0"), ("--gl-active", "-3"), ("--gl-active", "nan"),
        ("--gl-noise", "nan"), ("--gl-noise", "-1")])
    def test_bad_group_lasso_flag_exits_2_without_output(self, tmp_path, capsys, command,
                                                         flag, value):
        out = tmp_path / "out"
        argv = [command, "--problem", "group-lasso", "--gl-samples", "30", flag, value,
                "--out", str(out)]
        assert main(argv + (["--passes", "2"] if command == "run" else [])) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} must" in err and "Traceback" not in err
        assert not out.exists()

    def test_config_error_exits_2(self, tmp_path, capsys):
        code = main(["run", "--problem", "file", "--solver", "spbcd",
                     "--passes", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [
        ("passes = abc", "passes"), ("K = 2.5", "K"), ("sigma_scale = x", "sigma_scale")])
    def test_bad_config_value_names_line_and_key(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[run]\nproblem = lasso\n{line}\n")
        assert main(["run", "--config", str(cfg), *TINY_FLAGS["lasso"]]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3: {key} expects" in err and "Traceback" not in err

    def test_generate_then_run_file(self, tmp_path, capsys):
        problem_dir = tmp_path / "prob"
        assert main(["generate", "--problem", "lasso", "--m", "8", "--n", "12",
                     "--d", "3", "--seed", "4", "--out", str(problem_dir)]) == 0
        assert (problem_dir / "A.csv").exists()
        out = tmp_path / "trace.csv"
        assert main(["run", "--problem", "file", "--path", str(problem_dir),
                     "--solver", "fista", "--passes", "3",
                     "--out", str(out)]) == 0
        _, records = read_trace(out)
        assert len(records) == 3

    def test_generate_lasso_writes_lam(self, tmp_path):
        root = tmp_path / "lasso"
        assert main(["generate", "--problem", "lasso", *TINY_FLAGS["lasso"], "--lam", "0.5",
                     "--out", str(root)]) == 0
        assert "lam = 0.5\n" in (root / "meta.txt").read_text().splitlines(keepends=True)

    def test_run_lam_is_the_lam_of_a_problem_dir(self, tmp_path):
        root = tmp_path / "lasso"
        assert main(["generate", "--problem", "lasso", *TINY_FLAGS["lasso"], "--seed", "7",
                     "--out", str(root)]) == 0
        meta = root / "meta.txt"
        lines = meta.read_text().splitlines(keepends=True)
        meta.write_text("".join("lam = 0.5\n" if line.startswith("lam") else line
                                for line in lines))
        common = ["--solver", "spbcd", "--K", "4", "--passes", "4", "--seed", "7"]
        flags = ["--problem", "lasso", *TINY_FLAGS["lasso"], "--lam", "0.5"]
        assert main(["run", *flags, *common, "--out", str(tmp_path / "a.csv")]) == 0
        assert main(["run", "--problem", "file", "--path", str(root), *common,
                     "--out", str(tmp_path / "b.csv")]) == 0
        assert trace_rows(tmp_path / "a.csv") == trace_rows(tmp_path / "b.csv")

    @pytest.mark.parametrize("problem", ["lasso", "rpca", "group-lasso"])
    def test_generated_dir_runs_as_the_generated_problem(self, tmp_path, problem):
        flags = ["--problem", problem, *TINY_FLAGS[problem]]
        root = tmp_path / "dir"
        assert main(["generate", *flags, "--seed", "5", "--out", str(root)]) == 0
        common = ["--solver", "spbcd", "--K", "3", "--passes", "4", "--seed", "5"]
        assert main(["run", *flags, *common, "--out", str(tmp_path / "a.csv")]) == 0
        assert main(["run", "--problem", "file", "--path", str(root), *common,
                     "--out", str(tmp_path / "b.csv")]) == 0
        assert trace_rows(tmp_path / "a.csv") == trace_rows(tmp_path / "b.csv")

    @pytest.mark.parametrize("source, lam, problem", [
        ("run", "0", "lasso"), ("run", "-1", "group-lasso"), ("run", "9", "rpca"),
        ("generate", "0", "lasso"), ("generate", "9", "rpca"),
        ("dir", "0", "file"), ("dir", "9", "rpca")])
    def test_lam_rules_exit_2(self, tmp_path, capsys, source, lam, problem):
        """--lam must be positive and is refused for rpca, whether the problem
        is generated, written or read from a directory; nothing is written."""
        out = tmp_path / "out"
        if source == "dir":
            kind = "lasso" if problem == "file" else problem
            root = tmp_path / kind
            assert main(["generate", "--problem", kind, *TINY_FLAGS[kind],
                         "--out", str(root)]) == 0
            argv = ["run", "--problem", "file", "--path", str(root), "--passes", "2"]
        else:
            argv = [source, "--problem", problem, *TINY_FLAGS[problem]]
            if source == "run":
                argv += ["--passes", "2"]
        capsys.readouterr()
        assert main([*argv, "--lam", lam, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"problem '{problem}'" in err and "lam" in err
        assert not out.exists()

    @pytest.mark.parametrize("solver", ["ista", "fista"])
    def test_lasso_solver_on_rpca_dir_exits_2(self, tmp_path, capsys, solver):
        problem_dir = tmp_path / "rpca"
        assert main(["generate", "--problem", "rpca", "--m", "6", "--n", "8",
                     "--r", "2", "--seed", "3", "--out", str(problem_dir)]) == 0
        out = tmp_path / "trace.csv"
        code = main(["run", "--problem", "file", "--path", str(problem_dir),
                     "--solver", solver, "--passes", "2", "--out", str(out)])
        assert code == 2
        assert f"solver '{solver}' only applies to lasso problems" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_defaults_are_run_config_defaults(self, tmp_path):
        problem_dir = tmp_path / "gl"
        assert main(["generate", "--problem", "group-lasso", "--gl-samples", "30",
                     "--out", str(problem_dir)]) == 0
        _, _, meta = load_problem_dir(problem_dir)
        defaults = RunConfig(problem="group-lasso")
        assert meta["seed"] == str(defaults.seed)
        assert float(meta["active_fraction"]) == defaults.gl_active
        assert float(meta["label_noise"]) == defaults.gl_noise
        assert float(meta["lam"]) == bench.DEFAULT_GROUP_LASSO_LAM

    def test_compare_subcommand(self, tmp_path):
        cfg_a = tmp_path / "a.cfg"
        cfg_b = tmp_path / "b.cfg"
        common = "problem = lasso\nm = 8\nn = 12\nd = 3\nseed = 7\npasses = 4\n"
        cfg_a.write_text(common + "solver = spbcd\nK = 4\n")
        cfg_b.write_text(common + "solver = pdcp\n")
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg_a), "--config", str(cfg_b),
                     "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "combined.csv").exists()
        assert (out_dir / "objective_vs_pass.svg").exists()
        assert (out_dir / "objective_vs_time.svg").exists()
        assert (out_dir / "a.csv").exists() and (out_dir / "b.csv").exists()

    def test_run_group_lasso_from_libsvm_dir(self, tmp_path):
        root = tmp_path / "gl"
        root.mkdir()
        (root / "meta.txt").write_text("groups = 1,2\nlam = 0.1\nproblem = group-lasso\n")
        (root / "features.libsvm").write_text(
            "+1 1:1.0 3:0.5\n-1 2:0.7\n+1 1:0.2 2:0.1 3:0.3\n-1 3:1.0\n")
        out = tmp_path / "t.csv"
        code = main(["run", "--problem", "file", "--path", str(root),
                     "--solver", "preconditioned-pdcp", "--passes", "3",
                     "--out", str(out)])
        assert code == 0
        _, records = read_trace(out)
        assert len(records) == 3

    def test_compare_gap_metric_without_gap_exits_2(self, tmp_path, capsys):
        common = "problem = lasso\nm = 8\nn = 12\nd = 3\nseed = 7\npasses = 2\n"
        (tmp_path / "a.cfg").write_text(common + "solver = spbcd\nK = 4\ngap = true\n")
        (tmp_path / "b.cfg").write_text(common + "solver = pdcp\n")
        argv = ["compare", "--config", str(tmp_path / "a.cfg"), "--config",
                str(tmp_path / "b.cfg"), "--out-dir", str(tmp_path / "cmp"), "--metric", "gap"]
        assert main(argv) == 2
        assert "not set in pdcp" in capsys.readouterr().err
        (tmp_path / "b.cfg").write_text(common + "solver = pdcp\ngap = true\n")
        assert main(argv) == 0
        assert (tmp_path / "cmp" / "gap_vs_pass.svg").exists()

    @pytest.mark.parametrize("problem", ["lasso", "group-lasso"])
    def test_reference_failure_exits_3(self, tmp_path, capsys, monkeypatch, problem):
        if problem == "lasso":
            def failing(*args, **kwargs):
                raise ConvergenceError("lasso reference did not settle within 50000 passes")

            monkeypatch.setattr(bench.baselines, "fista_reference", failing)
            why = "did not settle"
        else:
            # the reference's own passes fail, as a diverging step would
            def pass_step(*args, **kwargs):
                def failing(state):
                    raise NumericsError("non-finite values in y at iteration 1")
                return failing

            monkeypatch.setattr(bench.baselines, "pass_step", pass_step)
            why = "non-finite values in y"
        out = tmp_path / "t.csv"
        code = main(["run", "--problem", problem, *TINY_FLAGS[problem],
                     "--passes", "2", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: reference solve failed: ") and why in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_compare_seed_mismatch_exits_2(self, tmp_path, capsys):
        cfg_a = tmp_path / "a.cfg"
        cfg_b = tmp_path / "b.cfg"
        cfg_a.write_text("problem = lasso\nm = 8\nn = 12\nd = 3\nseed = 1\nsolver = spbcd\n")
        cfg_b.write_text("problem = lasso\nm = 8\nn = 12\nd = 3\nseed = 2\nsolver = pdcp\n")
        assert main(["compare", "--config", str(cfg_a), "--config", str(cfg_b),
                     "--out-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_aborted_run_exits_3_with_partial_trace(self, tmp_path, capsys, monkeypatch,
                                                    solver):
        real = bench.TraceRecord

        def record(*args, **kwargs):
            if args and args[0] == 3:  # the run's record of pass 3
                raise RuntimeError("metric failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "TraceRecord", record)
        out = tmp_path / "t.csv"
        code = main(["run", "--problem", "lasso", "--m", "8", "--n", "12", "--d", "3",
                     "--solver", solver, "--K", "4", "--passes", "5", "--out", str(out)])
        assert code == 3
        assert "solver aborted" in capsys.readouterr().err
        _, records = read_trace(out)
        assert [r.pass_index for r in records] == [1, 2]


class TestMalformedProblemDir:
    """A broken problem directory exits 2 with a message naming what is
    wrong, not a traceback."""

    def generate(self, tmp_path, problem):
        root = tmp_path / problem
        size = ["--m", "4", "--n", "5", "--r", "1"] if problem == "rpca" else \
            ["--m", "8", "--n", "12", "--d", "3"]
        assert main(["generate", "--problem", problem, *size, "--out", str(root)]) == 0
        return root

    def run_dir(self, root, capsys, solver="fista"):
        code = main(["run", "--problem", "file", "--path", str(root),
                     "--solver", solver, "--passes", "2"])
        return code, capsys.readouterr().err

    def drop_meta_key(self, root, key):
        meta = root / "meta.txt"
        lines = meta.read_text().splitlines(keepends=True)
        meta.write_text("".join(line for line in lines if not line.startswith(key)))

    def test_lasso_without_lam(self, tmp_path, capsys):
        root = self.generate(tmp_path, "lasso")
        self.drop_meta_key(root, "lam")
        code, err = self.run_dir(root, capsys)
        assert code == 2
        assert "'lam'" in err and "Traceback" not in err
        # an explicit --lam supplies it
        assert main(["run", "--problem", "file", "--path", str(root), "--lam", "0.1",
                     "--solver", "fista", "--passes", "2"]) == 0

    @pytest.mark.parametrize("name", ["A", "b"])
    def test_lasso_missing_csv(self, tmp_path, capsys, name):
        root = self.generate(tmp_path, "lasso")
        (root / f"{name}.csv").unlink()
        code, err = self.run_dir(root, capsys)
        assert code == 2
        assert f"{name}.csv" in err

    def test_rpca_missing_csv(self, tmp_path, capsys):
        root = self.generate(tmp_path, "rpca")
        (root / "B.csv").unlink()
        code, err = self.run_dir(root, capsys, solver="pdcp")
        assert code == 2
        assert "B.csv" in err

    @pytest.mark.parametrize("source", ["libsvm", "csv"])
    def test_group_lasso_without_groups(self, tmp_path, capsys, source):
        root = tmp_path / "gl"
        root.mkdir()
        (root / "meta.txt").write_text("lam = 0.1\nproblem = group-lasso\n")
        if source == "libsvm":
            (root / "features.libsvm").write_text("+1 1:1.0 3:0.5\n-1 2:0.7\n")
        else:
            (root / "features.csv").write_text("1.0,0.0,0.5\n0.0,0.7,0.0\n")
            (root / "labels.csv").write_text("1.0\n-1.0\n")
        code, err = self.run_dir(root, capsys, solver="pdcp")
        assert code == 2
        assert "'groups'" in err

    def test_group_lasso_libsvm_repeated_index(self, tmp_path, capsys):
        root = tmp_path / "gl"
        root.mkdir()
        (root / "meta.txt").write_text("groups = 1,2\nlam = 0.1\nproblem = group-lasso\n")
        (root / "features.libsvm").write_text("-1 2:0.7\n1 1:0.5 3:2.0 1:7.0\n")
        code, err = self.run_dir(root, capsys)
        assert code == 2
        assert "line 2: feature index 1 repeated" in err

    def test_group_lasso_missing_labels(self, tmp_path, capsys):
        root = tmp_path / "gl"
        root.mkdir()
        (root / "meta.txt").write_text("groups = 1,2\nproblem = group-lasso\n")
        (root / "features.csv").write_text("1.0,0.0,0.5\n0.0,0.7,0.0\n")
        code, err = self.run_dir(root, capsys, solver="pdcp")
        assert code == 2
        assert "labels.csv" in err

    @pytest.mark.parametrize("problem, line, key", [
        ("lasso", "lam = abc", "lam"), ("lasso", "lam = 0", "lam"),
        ("rpca", "mu2 = abc", "mu2"), ("rpca", "mu3 = nan", "mu3"),
        ("group-lasso", "groups = 1,,2", "groups"), ("group-lasso", "groups = 0,3", "groups"),
        ("group-lasso", "lam = -1", "lam")])
    def test_bad_meta_value_names_file_and_key(self, tmp_path, capsys, problem, line, key):
        if problem == "group-lasso":
            root = tmp_path / "gl"
            root.mkdir()
            (root / "meta.txt").write_text("groups = 1,2\nlam = 0.1\nproblem = group-lasso\n")
            (root / "features.csv").write_text("1.0,0.0,0.5\n0.0,0.7,0.0\n")
            (root / "labels.csv").write_text("1.0\n-1.0\n")
        else:
            root = self.generate(tmp_path, problem)
        self.drop_meta_key(root, key)
        with open(root / "meta.txt", "a") as fh:
            fh.write(line + "\n")
        code, err = self.run_dir(root, capsys, solver="pdcp")
        assert code == 2
        assert f"{root}/meta.txt" in err and f"'{key}'" in err and "Traceback" not in err

    @pytest.mark.parametrize("cell, problem", [
        ("nan", "non-finite"), ("inf", "non-finite"), ("-inf", "non-finite"),
        ("abc", "non-numeric"), ("", "columns")])
    def test_bad_cell(self, tmp_path, capsys, cell, problem):
        root = self.generate(tmp_path, "lasso")
        path = root / "A.csv"
        lines = path.read_text().splitlines(keepends=True)
        # replace the first cell of line 2; an empty one leaves the row short
        rest = lines[1][lines[1].index(","):]
        lines[1] = cell + rest if cell else rest[1:]
        path.write_text("".join(lines))
        code, err = self.run_dir(root, capsys)
        assert code == 2
        assert "line 2" in err and "A.csv" in err and problem in err


    def test_byte_order_mark_names_file_and_line(self, tmp_path, capsys):
        """A UTF-8 byte-order mark in b.csv exits 2 with the file and the
        line, not the codec's message."""
        root = self.generate(tmp_path, "lasso")
        path = root / "b.csv"
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        code, err = self.run_dir(root, capsys)
        assert code == 2
        assert f"{path}: line 1: not ASCII text" in err and "codec" not in err

class TestPackage:
    def test_every_export_resolves(self):
        for name in sepsaddle.__all__:
            assert getattr(sepsaddle, name) is not None, name
        assert len(set(sepsaddle.__all__)) == len(sepsaddle.__all__)
