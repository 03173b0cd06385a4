import dataclasses
import math
import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from inertiafb import certify, cli, i2piano, imaging, problem
from inertiafb.cli import (SOLVERS, ConfigError, build_settings, load_config,
                           main, parse_overrides)
from inertiafb.i2piano import I2PianoConfig
from inertiafb.iista import IistaConfig
from inertiafb.ipila import IPilaConfig
from inertiafb.problem import (CompositeProblem, DomainError,
                               IdentityOp, L1Norm, SmoothOracle,
                               StructuredConvexTerm, ZeroFunction)
from inertiafb.trace import Trace, csv_equal_ignoring_time
from tests.conftest import scaled_h_engine


def run_cli(*argv):
    return main(list(argv))


# the CLI's main on argv, printing how many dual iterates iPila's prox
# engine evaluated
COUNTING_CLI = """
import sys
from inertiafb import cli, ipila
evals = []
def engine(problem, query, **kw):
    return ipila.solve_inexact_prox(problem, query, **kw,
                                    inner_hook=lambda *a: evals.append(a))
step = ipila.ipila_step
ipila.ipila_step = lambda p, state, cfg: step(p, state, cfg, engine=engine)
code = cli.main(sys.argv[1:])
print(len(evals))
sys.exit(code)
"""


class TestConfigHandling:
    def test_load_config_parses_flat_key_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nproblem = synthetic-quadratic-l1\n"
                        "\nmax_outer=25\n")
        cfg = load_config(path)
        assert cfg == {"problem": "synthetic-quadratic-l1", "max_outer": "25"}

    def test_load_config_rejects_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just a line without equals\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_parse_overrides_both_styles(self):
        got = parse_overrides(["--max_outer", "10", "--solver=iista"])
        assert got == {"max_outer": "10", "solver": "iista"}

    def test_parse_overrides_rejects_dangling_flag(self):
        with pytest.raises(ConfigError):
            parse_overrides(["--max_outer"])
        with pytest.raises(ConfigError):
            parse_overrides(["stray"])

    def test_override_beats_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("max_outer=25\n")

        class Args:
            config = str(path)

        cfg = build_settings(Args(), ["--max_outer", "7"])
        assert cfg["max_outer"] == "7"
        assert cfg["problem"] == "synthetic-quadratic-l1"  # default kept

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        # a misspelt key used to be ignored, leaving max_outer at 1000
        path = tmp_path / "run.cfg"
        path.write_text("max_outr=5\n")
        for args in (("--max_outr", "5"), ("-c", str(path))):
            out = tmp_path / "out"
            assert run_cli("run", *args, "--out", str(out)) == 2
            assert "max_outr" in capsys.readouterr().err
            assert not out.exists()

    def test_key_that_prefixes_an_option_is_a_key(self, tmp_path):
        # --c used to be read as --config: "config file not found: 2.0"
        path = tmp_path / "c.cfg"
        path.write_text("c=2.0\n")
        args = ("run", "--problem", "gaussian-sd-tv", "--size", "16",
                "--solver", "iista", "--max_outer", "3")
        for name, extra in (("flag", ("--c", "2.0")), ("joined", ("--c=2.0",)),
                            ("file", ("-c", str(path))), ("default", ())):
            assert run_cli(*args, *extra,
                           "--out", str(tmp_path / name)) == 0, name
        trace = {name: tmp_path / name / "trace.csv"
                 for name in ("flag", "joined", "file", "default")}
        assert csv_equal_ignoring_time(trace["flag"], trace["file"])
        assert csv_equal_ignoring_time(trace["joined"], trace["file"])
        assert not csv_equal_ignoring_time(trace["flag"], trace["default"])

    # each used to end in a traceback and exit 1
    @pytest.mark.parametrize("argv, words", [
        ("run -c DIR", "cannot read config file .*Is a directory"),
        ("run --problem impulse-l1 --image DIR",
         "cannot read image file .*Is a directory"),
        ("run -c LATIN1", "cannot read config file .*can't decode byte 0xff"),
    ], ids=["config_dir", "image_dir", "config_not_utf8"])
    def test_unreadable_file_is_config_error(self, tmp_path, capsys, argv,
                                             words):
        (tmp_path / "dir").mkdir()
        (tmp_path / "latin1.txt").write_bytes(b"max_outer=3\nsize=\xff\n")
        paths = {"DIR": tmp_path / "dir", "LATIN1": tmp_path / "latin1.txt"}
        code = run_cli(*[str(paths.get(a, a)) for a in argv.split()],
                       "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2
        assert re.fullmatch(f"config error: {words}.*\n", err)

    def test_missing_config_file_is_config_error(self, tmp_path):
        class Args:
            config = str(tmp_path / "nope.cfg")

        with pytest.raises(ConfigError):
            build_settings(Args(), [])


class TestSolverSettings:
    def test_solver_keys_are_the_config_fields(self):
        fields = {f.name for cls in (I2PianoConfig, IPilaConfig, IistaConfig)
                  for f in dataclasses.fields(cls)}
        assert cli.SOLVER_KEYS.keys() == fields - {"variant"}
        assert cli.SOLVER_KEYS.keys().isdisjoint(cli.DEFAULTS)
        assert cli.DEFAULTS.keys() | cli.SOLVER_KEYS.keys() == {
            "problem", "solver", "out", "size", "n", "l1_weight",
            "blur_size", "blur_sigma", "noise_fraction", "seed", "peak",
            "rho", "rho_tv", "a", "c", "solvers", "fstar_iters", "tau", "L0",
            "eta", "delta", "gamma", "omega", "sigma", "ls_shrink",
            "max_halvings", "alpha_max", "beta_max", "max_outer",
            "max_inner", "stop_tol"}
        assert {k for k, t in cli.SOLVER_KEYS.items() if t is int} == {
            "max_outer", "max_inner", "max_halvings"} <= cli.INT_KEYS

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_each_key_reaches_its_field(self, solver):
        # every solver setting off its default, as its CLI text
        values = {"tau": 2.0, "L0": 0.5, "eta": 2.0, "delta": 0.25,
                  "gamma": 2e-5, "omega": 0.9, "sigma": 1e-3,
                  "ls_shrink": 0.6, "max_halvings": 40, "alpha_max": 0.8,
                  "beta_max": 0.4, "max_outer": 80, "max_inner": 1500,
                  "stop_tol": 1e-9}
        assert values.keys() == cli.SOLVER_KEYS.keys()
        cfg = dict(cli.DEFAULTS, solver=solver,
                   **{key: str(v) for key, v in values.items()})
        solve, config = cli._solver_config(cfg)
        _, default = cli._solver_config(dict(cli.DEFAULTS, solver=solver))
        assert solve.__name__ == f"{solver.split('-')[0]}_solve"
        for field in dataclasses.fields(config):
            value = getattr(config, field.name)
            if field.name == "variant":
                assert value == default.variant == {
                    "ipila-strict": "strict-alg3",
                    "ipila-practical": "practical-sec5"}[solver]
                continue
            assert value == values[field.name] != field.default
            assert type(value) is cli.SOLVER_KEYS[field.name]
            # a key the settings leave out keeps the class's default
            assert getattr(default, field.name) == field.default

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_each_default_has_its_field_type(self, solver):
        # certify reads a header setting as the type of the field's default
        config = certify.solver_config(solver, lambda key, default: default)
        for field in dataclasses.fields(config):
            if field.name != "variant":
                assert type(field.default) is cli.SOLVER_KEYS[field.name]

    def test_gamma_reaches_ipila(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--solver", "ipila-strict", "--gamma", "2e-5",
                       "--max_outer", "3", "--out", str(out)) == 0
        trace = Trace.read_csv(out / "trace.csv")
        assert trace.meta["gamma"] == 2e-5
        assert trace.column("L_or_gamma") == [2e-5] * 3  # strict's gamma_k

    def test_practical_delta_below_gamma_names_gamma(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("run", "--solver", "ipila-practical", "--delta", "1e-6",
                       "--out", str(out)) == 2
        assert ("config error: practical-sec5 needs delta >= gamma"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("solver, delta", [
        ("ipila-practical", "1e300"), ("ipila-practical", "8e307"),
        ("ipila-practical", "4e307"), ("ipila-strict", "1e308"),
        ("iista", "1e308")])
    def test_huge_delta_a_solver_survives_exits_0(self, tmp_path,
                                                  solver, delta):
        # iPila-practical clamps alpha_k at ALPHA_MIN, and iPila-strict and
        # iISTA never read delta
        assert run_cli("run", "--solver", solver, "--delta", delta,
                       "--max_outer", "3", "--out", str(tmp_path)) == 0


class TestUnusableOutputPath:
    """Each used to end in a traceback; ``run`` solved first."""

    @staticmethod
    def _no_solve(cfg):
        raise AssertionError("solved before the output path was checked")

    @pytest.mark.parametrize("command", ["run", "suite", "fstar"])
    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_at_or_under_a_file_exits_2(self, tmp_path, capsys,
                                            monkeypatch, command, sub):
        monkeypatch.setattr(cli, "build_problem", self._no_solve)
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = blocker / sub if sub else blocker
        code = run_cli(command, "--max_outer", "3", "--fstar_iters", "3",
                       "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error: out {out}: {blocker} is not a directory" in err
        assert "Traceback" not in err
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["suite", "fstar"])
    def test_solver_directory_that_is_a_file_exits_2(self, tmp_path, capsys,
                                                    command):
        # the worker used to solve, then die with a FileExistsError
        # traceback (exit 1)
        blocker = tmp_path / "iista"
        blocker.write_text("")
        code = run_cli(command, "--solvers", "i2piano,iista", "--max_outer",
                       "3", "--fstar_iters", "3", "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 2
        assert (f"config error: out {blocker}: {blocker} is not a directory"
                in err)
        assert "Traceback" not in err
        assert not (tmp_path / "i2piano").exists()

    @pytest.mark.parametrize("command,name", [
        *(("run", name) for name in cli.RUN_FILES),
        ("suite", "fstar.txt"), ("fstar", "fstar.txt"),
        ("suite", "iista/restored.npy")])
    def test_output_file_that_is_a_directory_exits_2(
            self, tmp_path, capsys, monkeypatch, command, name):
        # each used to solve, then end in an IsADirectoryError traceback
        # (exit 1), with the files written before it left behind
        monkeypatch.setattr(cli, "build_problem", self._no_solve)
        (tmp_path / name).mkdir(parents=True)
        code = run_cli(command, "--solvers", "iista", "--max_outer", "3",
                       "--fstar_iters", "3", "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error: out {tmp_path / name} is a directory" in err
        assert "Traceback" not in err
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]

    @pytest.mark.parametrize("command", ["run", "suite"])
    def test_output_that_cannot_be_written_exits_2(self, tmp_path, capsys,
                                                   monkeypatch, command):
        # a full disk under the run directory (trace.csv or report.txt a
        # link to /dev/full) used to end in an OSError traceback (exit 1)
        def full(trace, path, f_star=None):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Trace, "write_csv", full)
        # forked workers inherit the patch
        monkeypatch.setattr(cli, "START_METHOD", "fork")
        code = run_cli(command, "--solvers", "iista,i2piano", "--max_outer",
                       "3", "--out", str(tmp_path))
        assert (code, capsys.readouterr().err) == (
            2, "config error: [Errno 28] No space left on device\n")

    def test_run_ignores_solver_directories(self, tmp_path):
        (tmp_path / "iista").write_text("")
        assert run_cli("run", "--solver", "iista", "--max_outer", "3",
                       "--out", str(tmp_path)) == 0

    def test_certify_directory_exits_2(self, tmp_path, capsys):
        assert run_cli("certify", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "bad trace file:" in err and "Traceback" not in err


class TestRunCommand:
    def test_smoke_run_writes_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("run", "--problem", "synthetic-quadratic-l1",
                       "--solver", "i2piano", "--max_outer", "40",
                       "--out", str(out))
        assert code == 0
        trace = Trace.read_csv(out / "trace.csv")
        phis = trace.column("phi")
        assert all(b <= a + 1e-9 * (1 + abs(a))
                   for a, b in zip(phis, phis[1:]))
        assert "overall=pass" in (out / "report.txt").read_text()
        assert "f_final=" in (out / "summary.txt").read_text()

    def test_rel_gap_column_with_f_star(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("run", "--solver", "iista", "--max_outer", "10",
                       "--f_star", "1.0", "--out", str(out))
        assert code == 0
        trace = Trace.read_csv(out / "trace.csv")
        assert "rel_gap" in trace.rows[0]

    def test_rel_gap_final_with_negative_f_star(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--solver", "iista", "--max_outer", "10",
                       "--f_star", "-1.0", "--out", str(out)) == 0
        summary = dict(line.split("=", 1) for line in
                       (out / "summary.txt").read_text().splitlines())
        f_final = float(summary["f_final"])
        assert float(summary["rel_gap_final"]) == f_final + 1.0 > 0.0
        rows = Trace.read_csv(out / "trace.csv").rows
        assert rows[-1]["rel_gap"] == f_final + 1.0

    def test_zero_f_star_is_config_error(self, tmp_path, capsys):
        # relative gaps divide by |f_star|; this used to end in a
        # ZeroDivisionError traceback after the solve
        out = tmp_path / "run"
        assert run_cli("run", "--solver", "iista", "--max_outer", "5",
                       "--f_star", "0", "--out", str(out)) == 2
        assert "f_star" in capsys.readouterr().err
        assert not out.exists()

    def test_domain_error_exits_3(self, tmp_path, monkeypatch, capsys):
        def grad(x):
            raise DomainError("point outside the smooth domain")

        def build(cfg):
            n = 4
            f0 = SmoothOracle(lambda x: 0.0, grad)
            f1 = StructuredConvexTerm(IdentityOp(n), L1Norm(1.0),
                                      ZeroFunction(), op_norm_sq_bound=1.0)
            return CompositeProblem(f0, f1), np.ones(n), {}

        monkeypatch.setattr(cli, "build_problem", build)
        for solver in SOLVERS:
            assert run_cli("run", "--solver", solver, "--max_outer", "5",
                           "--out", str(tmp_path / solver)) == 3
            err = capsys.readouterr().err
            assert "solver failure" in err and "Traceback" not in err

    # finite settings whose f(x0) overflows used to end in a traceback,
    # "x0 must lie in dom(f1)", whichever term was not finite; at --rho
    # 1e308 only f0(x0) is.  NumPy's overflow warnings used to precede the
    # message; --a 1e308, whose noise overflows, is now a config error
    @pytest.mark.parametrize("overrides, words", [
        (("--problem", "gaussian-sd-tv", "--a", "1e305"),
         r"f0\(x0\) = inf, f1\(x0\) = [0-9.e+]+"),
        (("--problem", "gaussian-sd-tv", "--c", "1e308"),
         r"f0\(x0\) = inf, f1\(x0\) = inf"),
        (("--problem", "gaussian-sd-tv", "--rho_tv", "1e308"),
         r"f0\(x0\) = [0-9.]+, f1\(x0\) = inf"),
        (("--problem", "impulse-l1", "--rho", "1e308"),
         r"f0\(x0\) = inf, f1\(x0\) = [0-9.]+"),
    ], ids=["a", "c", "rho_tv", "rho"])
    def test_nonfinite_f_at_x0_names_the_term(self, tmp_path, capsys,
                                              recwarn, overrides, words):
        out = tmp_path / "run"
        assert run_cli("run", *overrides, "--size", "16", "--max_outer", "3",
                       "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            rf"solver failure: f\(x0\) is not finite: {words}\n", err)
        assert not [w for w in recwarn if w.category is RuntimeWarning]
        assert not out.exists()

    @pytest.mark.parametrize("args, code, message, max_evals", [
        ("--problem gaussian-sd-tv --size 16 --a 1e308 --max_outer 3", 2,
         "config error: a = 1e+308, c = 1.0: the noise variance", None),
        ("--problem gaussian-sd-tv --size 16 --c 1e308 --max_outer 3", 3,
         "solver failure: f(x0) is not finite: f0(x0) = inf", None),
        ("--problem synthetic-quadratic-l1 --solver ipila-strict "
         "--alpha_max 1e200 --max_outer 4", 3,
         "solver failure: prox engine at a fixed point with h not finite",
         10),
        ("--problem gaussian-sd-tv --size 8 --solver ipila-strict "
         "--beta_max 1e308 --max_outer 4", 3,
         "solver failure: Armijo search exhausted max_halvings", None),
        ("--problem gaussian-sd-tv --size 8 --solver ipila-strict "
         "--a 1e-300 --c 1e-300 --max_outer 4", 3,
         "solver failure: gradient of the fidelity is not finite", None)],
        ids=["a", "c", "alpha_max", "beta_max", "tiny_noise"])
    def test_overflowing_noise_writes_one_stderr_line(self, tmp_path, args,
                                                      code, message,
                                                      max_evals):
        # --a 1e308 printed 5 NumPy RuntimeWarnings (10 lines) and --c 1e308
        # 4 before their message, --alpha_max 1e200 one from the prox
        # engine and --beta_max 1e308 two from the Armijo search; a fresh
        # interpreter shows every warning.  --alpha_max 1e200 also spent
        # all max_inner iterations: 2001 dual iterates, each with h = inf.
        # --a 1e-300 --c 1e-300 printed two (den * den underflows in the
        # fidelity's gradient) and then blamed the prox engine
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
        proc = subprocess.run(
            [sys.executable, "-c", COUNTING_CLI, "run", *args.split(),
             "--out", str(tmp_path / "run")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        assert "RuntimeWarning" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(message)
        if max_evals is not None:
            assert int(proc.stdout) <= max_evals

    def test_step_failing_a_certificate_exits_3(self, tmp_path, monkeypatch,
                                                capsys):
        # an engine that overstates h: the run used to finish, write
        # overall=fail to report.txt and exit 0
        monkeypatch.setattr(i2piano, "solve_inexact_prox", scaled_h_engine(
            i2piano.solve_inexact_prox, 100.0))
        out = tmp_path / "run"
        assert run_cli("run", "--solver", "i2piano", "--max_outer", "10",
                       "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "solver failure: certificate failed: H1 at k=0 " in err
        assert "Traceback" not in err
        assert not (out / "report.txt").exists()

    def test_determinism_byte_identical_traces(self, tmp_path):
        args = ("run", "--solver", "ipila-practical", "--max_outer", "30",
                "--seed", "3")
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        assert csv_equal_ignoring_time(tmp_path / "a" / "trace.csv",
                                       tmp_path / "b" / "trace.csv")

    def test_cold_and_warm_norm_memo_write_equal_traces(self, tmp_path,
                                                        monkeypatch):
        # the second build takes impulse-l1's ||H||^2 from the memo, so its
        # run applies H^T 50 times less than the first
        args = ("run", "--problem", "impulse-l1", "--size", "16",
                "--solver", "ipila-practical", "--max_outer", "20")
        calls = []
        rmatvec = imaging.ConvOperator.rmatvec
        monkeypatch.setattr(imaging.ConvOperator, "rmatvec",
                            lambda op, y: calls.append(1) or rmatvec(op, y))
        problem._SQ_NORMS.clear()
        assert run_cli(*args, "--out", str(tmp_path / "cold")) == 0
        cold_calls = len(calls)
        assert len(problem._SQ_NORMS) == 1
        assert run_cli(*args, "--out", str(tmp_path / "warm")) == 0
        assert len(calls) - cold_calls == cold_calls - 50
        assert csv_equal_ignoring_time(tmp_path / "cold" / "trace.csv",
                                       tmp_path / "warm" / "trace.csv")

    def test_imaging_run_writes_restored_images(self, tmp_path):
        out = tmp_path / "img"
        code = run_cli("run", "--problem", "impulse-l1", "--size", "16",
                       "--max_outer", "5", "--solver", "iista",
                       "--out", str(out))
        assert code == 0
        assert (out / "restored.pgm").exists()
        assert (out / "restored.npy").exists()
        assert "psnr_db=" in (out / "summary.txt").read_text()

    def test_unknown_solver_exit_code(self, tmp_path, capsys):
        code = run_cli("run", "--solver", "bogus", "--out", str(tmp_path))
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_problem_exit_code(self, tmp_path, capsys):
        assert run_cli("run", "--problem", "bogus",
                       "--out", str(tmp_path)) == 2
        # the name is checked before any image is built: at size 1 the
        # blur used to be rejected first, as "kernel larger than image"
        assert run_cli("run", "--problem", "bogus", "--size", "1",
                       "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "config error: unknown problem 'bogus'")

    def test_missing_image_path_names_it(self, tmp_path, capsys):
        missing = tmp_path / "absent.pgm"
        code = run_cli("run", "--problem", "impulse-l1",
                       "--image", str(missing), "--out", str(tmp_path))
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_run_from_image_file(self, tmp_path):
        from inertiafb import imaging
        src = tmp_path / "truth.pgm"
        imaging.write_pgm(src, imaging.phantom(16, 255.0), peak=255.0)
        out = tmp_path / "img"
        code = run_cli("run", "--problem", "gaussian-sd-tv",
                       "--image", str(src), "--max_outer", "3",
                       "--solver", "iista", "--out", str(out))
        assert code == 0
        assert (out / "restored.pgm").exists()


# values the problem or solver rejects: (overrides, a pattern the message
# matches after "config error:")
BAD_VALUES = {
    "even_blur_size": (("--problem", "impulse-l1", "--blur_size", "4"),
                       "odd"),
    "negative_delta": (("--delta", "-1"), "delta"),
    # used to reach the prox engine: "beta must be nonnegative"
    "negative_delta_ipila_practical": (
        ("--problem", "impulse-l1", "--size", "16", "--solver",
         "ipila-practical", "--solvers", "ipila-practical", "--delta", "-1"),
        "delta"),
    "noise_fraction_above_one": (("--problem", "impulse-l1",
                                  "--noise_fraction", "2"), "fraction"),
    "image_smaller_than_blur": (("--problem", "impulse-l1", "--size", "2"),
                                "kernel larger"),
    # used to end in "math domain error" or "tau must be nonnegative"
    "negative_tau": (("--tau", "-1"), "tau"),
    # used to end in "empty trace" from summarize; fstar names fstar_iters,
    # which it reads in place of max_outer
    "zero_max_outer": (("--max_outer", "0", "--fstar_iters", "0"),
                       "(max_outer|fstar_iters) must be at least 1"),
    # used to run until a prox call needed an inner iteration, then exit 3
    "negative_max_inner": (("--max_inner", "-1"), "max_inner"),
    # used to end in ZeroDivisionError
    "negative_L0_ipila_practical": (
        ("--solver", "ipila-practical", "--solvers", "ipila-practical",
         "--L0", "-2e-5"), "L0"),
    # used to write trace.csv, then end in ZeroDivisionError in write_pgm
    "zero_peak": (("--problem", "gaussian-sd-tv", "--size", "16",
                   "--peak", "0"), "peak"),
    # used to build a NaN kernel and exit 3 as a solver failure
    "zero_blur_sigma": (("--problem", "impulse-l1", "--size", "16",
                         "--blur_sigma", "0"), "sigma"),
    # non-finite settings used to end in a traceback ("alpha must be
    # positive", "sigma must be positive") or in exit 3 after a full
    # prox engine run
    "inf_eta": (("--eta", "inf"), "eta must be finite"),
    "inf_L0_iista": (("--solver", "iista", "--solvers", "iista",
                      "--L0", "inf"), "L0 must be finite"),
    "inf_delta": (("--delta", "inf"), "delta must be finite"),
    # i2Piano's coupling at L_k in [fb.L_MIN, fb.L_MAX] used to exit 3: at
    # 1e308 on "alpha = nan", at 8e307 (4 delta overflows) on "certificate
    # failed: H1 at k=0", at 1e300 (top - 2 beta cancels) on "alpha = 0.0"
    "huge_delta": (("--delta", "1e308"),
                   r"delta = 1e\+308.* L_k = 1e-08 is not finite"),
    "overflowing_delta": (("--delta", "8e307"),
                          r"delta = 8e\+307.* is not finite"),
    "cancelling_delta": (("--delta", "1e300"),
                         r"delta = 1e\+300.* gives alpha_k = 0.0"),
    # iPila-practical's coupling at L0 used to exit 3 on "alpha = nan"
    "huge_delta_ipila_practical": (
        ("--solver", "ipila-practical", "--solvers", "ipila-practical",
         "--delta", "1e308"), r"delta = 1e\+308.* L_k = 1 is not finite"),
    "nan_tau": (("--tau", "nan"), "tau must be finite"),
    # used to end in an OverflowError traceback from theta_from_tau
    "huge_tau": (("--tau", "1e308"), "tau is too large"),
    # used to print 5 NumPy RuntimeWarnings, then exit 3 on f(x0)
    "huge_a": (("--problem", "gaussian-sd-tv", "--size", "16", "--a",
                "1e308"), "a = 1e\\+308, c = 1.0: the noise variance"),
    "inf_alpha_max_ipila_strict": (
        ("--solver", "ipila-strict", "--solvers", "ipila-strict",
         "--alpha_max", "inf"), "alpha_max must be finite"),
    # used to exit 3 with "Armijo search exhausted max_halvings"
    "negative_max_halvings_ipila_strict": (
        ("--solver", "ipila-strict", "--solvers", "ipila-strict",
         "--max_halvings", "-1"), "max_halvings"),
    # non-finite problem settings used to end in a traceback, "x0 must lie
    # in dom(f1)"
    "nan_l1_weight": (("--l1_weight", "nan"), "l1_weight must be finite"),
    "nan_rho": (("--problem", "impulse-l1", "--size", "16", "--rho", "nan"),
                "rho must be finite"),
    "nan_a": (("--problem", "gaussian-sd-tv", "--size", "16", "--a", "nan"),
              "a must be finite"),
    "inf_peak": (("--problem", "impulse-l1", "--size", "16",
                  "--peak", "inf"), "peak must be finite"),
    "inf_rho_tv": (("--problem", "gaussian-sd-tv", "--size", "16",
                    "--rho_tv", "inf"), "rho_tv must be finite"),
    # infinite integer settings used to end in an OverflowError traceback;
    # fstar reads fstar_iters in place of max_outer
    "inf_max_outer_and_fstar_iters": (
        ("--max_outer", "inf", "--fstar_iters", "inf"),
        "(max_outer|fstar_iters) must be finite"),
    "inf_seed": (("--seed", "inf"), "seed must be finite"),
    "inf_max_inner": (("--max_inner", "inf"), "max_inner must be finite"),
    # used to write a NaN rel_gap column and exit 0
    "nan_f_star": (("--f_star", "nan"), "f_star must be finite"),
    # used to exit 0 with a RuntimeWarning and write a NaN-cast
    # restored.pgm: 255/peak overflows
    "tiny_peak": (("--problem", "impulse-l1", "--size", "16",
                   "--peak", "5e-324"), "peak"),
    # each solver reads L0 in [fb.L_MIN, fb.L_MAX]; iISTA used to exit 3
    # after NumPy overflow warnings, on "weak duality violated: psi=inf"
    **{f"tiny_L0_{solver}": (("--solver", solver, "--solvers", solver,
                              "--L0", "1e-300"), "L0")
       for solver in SOLVERS},
}


def _fresh_interpreter(code, *args, **env):
    """Runs ``code`` in a fresh interpreter that imports this checkout,
    with ``env`` added to the environment; returns the finished process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path)),
               **env)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


# a 64x64 impulse-l1 run into argv[1], then the sha256 of the blur's outputs
# on a shape of several 64-wide tiles
RUN_AND_HASH = """
import hashlib, sys
import numpy as np
from inertiafb import cli, imaging
assert cli.main(["run", "--problem", "impulse-l1", "--max_outer", "5",
                 "--out", sys.argv[1]]) == 0
rng = np.random.default_rng(0)
op = imaging.ConvOperator(rng.standard_normal(5), rng.standard_normal(3),
                          (130, 70))
x = rng.standard_normal(op.in_dim)
print(hashlib.sha256(op.matvec(x).tobytes() + op.rmatvec(x).tobytes())
      .hexdigest())
"""


class TestFreshInterpreter:
    def test_the_cli_imports_no_scipy(self):
        proc = _fresh_interpreter(
            "import sys, inertiafb.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_bits_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the CLI leaves the BLAS thread count alone, so a trace must not
        # depend on it
        hashes = []
        for threads in ("1", "2"):
            proc = _fresh_interpreter(RUN_AND_HASH, str(tmp_path / threads),
                                      OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            hashes.append(proc.stdout.splitlines()[-1])
        assert hashes[0] == hashes[1]
        assert csv_equal_ignoring_time(tmp_path / "1" / "trace.csv",
                                       tmp_path / "2" / "trace.csv")


# the CLI's main on argv[2:] in an address space limited to what the
# interpreter holds once the package is imported, plus argv[1] bytes
LIMITED_CLI = """
import resource, sys
from inertiafb import cli
with open("/proc/self/statm") as fh:
    held = int(fh.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (held + int(sys.argv[1]), hard))
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads the address space size from /proc")
class TestOutOfMemory:
    """A problem too large for memory used to end in NumPy's
    _ArrayMemoryError traceback and exit 1.  Each command runs in a fresh
    interpreter whose address space limit acts on it alone."""

    MARGIN = 48 * 2 ** 20  # six vectors of 10^6 floats

    def limited_run(self, tmp_path, *argv):
        proc = _fresh_interpreter(LIMITED_CLI, str(self.MARGIN), "run",
                                  *argv, "--out", str(tmp_path / "run"),
                                  OPENBLAS_NUM_THREADS="1")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert not (tmp_path / "run").exists()
        return proc.returncode, proc.stderr

    @pytest.mark.parametrize("argv", [("--n", "1000000000"),
                                      ("--problem", "impulse-l1",
                                       "--size", "40000")])
    def test_a_problem_too_large_to_build_is_a_config_error(self, tmp_path,
                                                            argv):
        code, err = self.limited_run(tmp_path, *argv)
        assert code == 2
        assert err.startswith("config error: out of memory: ")

    def test_memory_running_out_in_the_solve_is_a_solver_failure(
            self, tmp_path):
        # the build holds two vectors of n = 10^6 floats, and the solve's
        # first step needs more than the four left
        code, err = self.limited_run(tmp_path, "--n", "1000000")
        assert code == 3
        assert err.startswith("solver failure: out of memory: ")


class TestBadValuesAreConfigErrors:
    """Each used to end in a ValueError traceback."""

    @pytest.mark.parametrize("command", ["run", "suite", "fstar"])
    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_bad_value_exits_2(self, tmp_path, capsys, recwarn, command,
                               case):
        overrides, words = BAD_VALUES[case]
        out = tmp_path / "out"
        code = run_cli(command, "--solvers", "i2piano", "--max_outer", "3",
                       "--fstar_iters", "3", *overrides, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2
        assert re.search(f"config error: .*{words}", err)
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not [w for w in recwarn if w.category is RuntimeWarning]
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("command", ["run", "suite", "fstar"])
    def test_sixteen_bit_pgm_exits_2(self, tmp_path, capsys, command):
        image = tmp_path / "deep.pgm"
        image.write_bytes(b"P5\n4 4\n65535\n" + bytes(32))
        code = run_cli(command, "--problem", "impulse-l1", "--solvers",
                       "i2piano", "--image", str(image), "--max_outer", "3",
                       "--fstar_iters", "3", "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2
        assert "config error:" in err and "maxval" in err


# values of keys the command does not read; each used to run and exit 0
UNREAD_BAD_VALUES = {
    "fstar_iters_abc": (("--fstar_iters", "abc"),
                        "bad numeric value for 'fstar_iters'"),
    "unknown_solver_in_list": (("--solvers", "i2piano,bogus"),
                               "unknown solver 'bogus'"),
    "unknown_solver": (("--solver", "bogus"), "unknown solver 'bogus'"),
    "delta_abc_for_iista": (("--solver", "iista", "--solvers", "iista",
                             "--delta", "abc"),
                            "bad numeric value for 'delta'"),
}


class TestEveryValueIsChecked:
    @pytest.mark.parametrize("command", ["run", "suite", "fstar"])
    @pytest.mark.parametrize("case", sorted(UNREAD_BAD_VALUES))
    def test_bad_value_exits_2_before_a_solve(self, tmp_path, capsys,
                                              command, case):
        overrides, words = UNREAD_BAD_VALUES[case]
        out = tmp_path / "out"
        code = run_cli(command, "--solvers", "i2piano", "--max_outer", "3",
                       "--fstar_iters", "3", *overrides, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error: {words}" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["size", "n", "seed", "max_outer",
                                     "max_inner", "max_halvings",
                                     "blur_size", "fstar_iters"])
    def test_fractional_integer_exits_2(self, tmp_path, capsys, key):
        # --max_outer 2.9 used to write 2 rows and exit 0
        out = tmp_path / "out"
        assert run_cli("run", "--max_outer", "3", f"--{key}", "2.9",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"config error: {key} must be an integer" in err
        assert not out.exists()

    def test_integer_in_exponent_form_is_valid(self, tmp_path):
        assert cli._i({"max_outer": "2e4"}, "max_outer") == 20000
        assert run_cli("run", "--max_outer", "3e0",
                       "--out", str(tmp_path)) == 0
        assert len(Trace.read_csv(tmp_path / "trace.csv")) == 3

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_empty_synthetic_problem_exits_2(self, tmp_path, capsys, n):
        # --n 0 used to run a 0-dimensional problem and exit 0
        out = tmp_path / "out"
        assert run_cli("run", "--n", n, "--out", str(out)) == 2
        assert "config error: n must be positive" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()


class TestSuiteAndFstar:
    def test_suite_writes_fstar_consistent_with_finals(self, tmp_path):
        out = tmp_path / "suite"
        code = run_cli("suite", "--max_outer", "60", "--out", str(out))
        assert code == 0
        lines = (out / "fstar.txt").read_text().strip().splitlines()
        vals = dict(l.split("=") for l in lines)
        f_star = float(vals.pop("f_star"))
        finals = {k.split(".", 1)[1]: float(v) for k, v in vals.items()}
        assert len(finals) == 4
        assert f_star == min(finals.values())
        # convex smoke problem: every solver agrees on the optimum
        for name, f in finals.items():
            assert f == pytest.approx(f_star, rel=1e-6), name
        for name in finals:
            assert (out / name / "trace.csv").exists()

    def test_suite_directories_match_run_directories(self, tmp_path):
        # suite directories used to lack the restored images and psnr_db,
        # which run added after writing summary.txt
        args = ("--problem", "impulse-l1", "--size", "16", "--max_outer", "3")
        assert run_cli("suite", "--solvers", "iista", *args,
                       "--out", str(tmp_path / "suite")) == 0
        assert run_cli("run", "--solver", "iista", *args,
                       "--out", str(tmp_path / "run")) == 0
        suite, run = tmp_path / "suite" / "iista", tmp_path / "run"
        for name in ("trace.csv", "report.txt", "summary.txt",
                     "restored.pgm", "restored.npy"):
            assert (suite / name).exists(), name
        for name in ("report.txt", "summary.txt", "restored.npy"):
            assert (suite / name).read_bytes() == (run / name).read_bytes()
        summary = (suite / "summary.txt").read_text().splitlines()
        assert summary == sorted(summary)
        assert [l.split("=")[0] for l in summary].count("psnr_db") == 1

    def test_suite_rejects_unknown_solver(self, tmp_path):
        assert run_cli("suite", "--solvers", "iista,bogus",
                       "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("command", ["suite", "fstar"])
    def test_empty_solver_list_is_config_error(self, tmp_path, capsys,
                                               command):
        # used to end in "min() arg is an empty sequence"
        out = tmp_path / "out"
        assert run_cli(command, "--solvers", ",", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "config error: no solvers" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["suite", "fstar"])
    def test_repeated_solver_is_config_error(self, tmp_path, capsys, command):
        # used to solve twice into one directory and list f_final.iista twice
        out = tmp_path / "out"
        assert run_cli(command, "--solvers", "iista,ipila-strict,iista",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "config error: solver iista listed twice" in err
        assert not out.exists()

    def test_fstar_uses_long_iteration_override(self, tmp_path):
        out = tmp_path / "fs"
        code = run_cli("fstar", "--solvers", "iista", "--fstar_iters", "12",
                       "--stop_tol", "-1", "--out", str(out))
        assert code == 0
        assert len(Trace.read_csv(out / "iista" / "trace.csv")) == 12

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_suite_workers_match_single_worker(self, tmp_path, monkeypatch,
                                               method):
        args = ("suite", "--problem", "impulse-l1", "--size", "16",
                "--max_outer", "25")
        with monkeypatch.context() as m:
            m.setattr(cli.os, "cpu_count", lambda: 1)
            assert run_cli(*args, "--out", str(tmp_path / "one")) == 0
        monkeypatch.setattr(cli, "START_METHOD", method)
        assert run_cli(*args, "--out", str(tmp_path / "many")) == 0
        assert ((tmp_path / "one" / "fstar.txt").read_bytes()
                == (tmp_path / "many" / "fstar.txt").read_bytes())
        for name in SOLVERS:
            assert csv_equal_ignoring_time(
                tmp_path / "one" / name / "trace.csv",
                tmp_path / "many" / name / "trace.csv"), name

    @pytest.mark.parametrize("command", ["run", "suite", "fstar"])
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_solver_failure_exits_3(self, tmp_path, capsys, command, solver):
        # max_inner=0 leaves the prox engine without a certificate; suite
        # and fstar used to leave out which solver failed
        flag = "--solver" if command == "run" else "--solvers"
        code = run_cli(command, flag, solver, "--max_inner", "0",
                       "--out", str(tmp_path))
        assert code == 3
        named = "" if command == "run" else f"{solver}: "
        assert capsys.readouterr().err == (
            f"solver failure: {named}prox engine hit max_inner without "
            "certificate\n")

    @pytest.mark.parametrize("command", ["suite", "fstar"])
    def test_a_solver_config_error_stops_the_suite_before_any_solve(
            self, tmp_path, capsys, command):
        # iISTA never reads delta: it used to solve and write its run
        # directory before i2Piano's worker rejected the coupling
        out = tmp_path / "out"
        assert run_cli(command, "--delta", "1e308", "--solvers",
                       "iista,i2piano", "--max_outer", "3", "--fstar_iters",
                       "3", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("config error: delta = ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["suite", "fstar"])
    def test_a_solver_failure_starts_no_other_solver(self, tmp_path, capsys,
                                                     monkeypatch, command):
        # with one worker, iista used to be solved and written after
        # ipila-strict had failed
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
        out = tmp_path / "out"
        assert run_cli(command, "--problem", "synthetic-quadratic-l1",
                       "--alpha_max", "1e200", "--max_outer", "4",
                       "--fstar_iters", "4", "--solvers", "ipila-strict,iista",
                       "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            "solver failure: ipila-strict: prox engine at a fixed point with "
            "h not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("iters", ["0", "-2"])
    def test_fstar_iters_below_one_names_fstar_iters(self, tmp_path, capsys,
                                                     iters):
        # used to read "max_outer must be at least 1", a key not set
        out = tmp_path / "out"
        assert run_cli("fstar", "--fstar_iters", iters, "--solvers", "iista",
                       "--out", str(out)) == 2
        assert capsys.readouterr().err \
            == "config error: fstar_iters must be at least 1\n"
        assert not out.exists()


class TestNearStationarity:
    """The prox engine stays at an x it certifies as stationary."""

    # every solver setting off its default; rows with h = 0 and a step of
    # 4.4e-8 used to fail H4 for both iPilas, and the run exited 0
    OFF_DEFAULT = ("--tau", "2", "--L0", "0.5", "--eta", "2", "--delta",
                   "0.25", "--gamma", "2e-5", "--omega", "0.9", "--sigma",
                   "1e-3", "--ls_shrink", "0.6", "--max_halvings", "40",
                   "--alpha_max", "0.8", "--beta_max", "0.4", "--max_inner",
                   "1500", "--max_outer", "80")

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_off_default_run_certifies(self, tmp_path, solver):
        out = tmp_path / solver
        assert run_cli("run", "--solver", solver, *self.OFF_DEFAULT,
                       "--out", str(out)) == 0
        assert (out / "report.txt").read_text().endswith("overall=pass\n")

    def test_ipila_strict_stops_stationary(self):
        # it used to run all 200 rows, the last ones with a zero step and
        # 27 Armijo halvings each (3566 in all)
        cfg = dict(cli.DEFAULTS, solver="ipila-strict", max_outer="200")
        problem, x0, _ = cli.build_problem(cfg)
        trace = cli.run_solver(problem, x0, cfg)
        assert trace.meta["stop_reason"] == "stationary"
        assert len(trace) < 200
        assert sum(trace.column("backtracks")) == 0

    @pytest.mark.parametrize("solver", ["ipila-strict", "ipila-practical"])
    def test_stationary_rows_record_positive_zero_d_k(self, tmp_path, solver):
        # d_k was sqrt(max(-delta_k, 0.0)), and max(-0.0, 0.0) is -0.0,
        # so stationary rows wrote d_k = -0
        cfg = dict(cli.DEFAULTS, solver=solver, max_outer="200")
        problem, x0, _ = cli.build_problem(cfg)
        trace = cli.run_solver(problem, x0, cfg)
        trace.write_csv(tmp_path / "trace.csv")
        for rows in (trace.rows, Trace.read_csv(tmp_path / "trace.csv").rows):
            d_k = [r["d_k"] for r in rows
                   if r["accepted_branch"] == "stationary"]
            assert d_k == [0.0]
            assert math.copysign(1.0, d_k[0]) == 1.0


class TestCertifyCommand:
    def test_certify_passes_on_honest_trace(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("run", "--solver", "ipila-strict", "--max_outer", "30",
                       "--out", str(out)) == 0
        capsys.readouterr()
        code = run_cli("certify", str(out / "trace.csv"))
        assert code == 0
        assert "overall=pass" in capsys.readouterr().out

    def test_ipila_practical_certifies_with_nondefault_delta(self, tmp_path,
                                                            capsys):
        # the certifier used to replay alpha_k(beta_k) with delta fixed at
        # 0.5, so this honest run failed param-identities at k=0
        out = tmp_path / "run"
        assert run_cli("run", "--problem", "synthetic-quadratic-l1",
                       "--solver", "ipila-practical", "--delta", "0.3",
                       "--max_outer", "30", "--out", str(out)) == 0
        assert "# delta=0.29999999999999999" in (out / "trace.csv").read_text()
        assert "overall=pass" in (out / "report.txt").read_text()
        capsys.readouterr()
        assert run_cli("certify", str(out / "trace.csv")) == 0
        assert "overall=pass" in capsys.readouterr().out

    def test_converged_ipila_practical_passes_the_duality_guard(self, tmp_path,
                                                              capsys):
        # psi used to cancel two terms of order ||xbar||^2 / alpha at
        # alpha ~ 6e-7, and the weak-duality guard stopped this run with
        # exit 3 (psi=7.84e-09 > h=4.81e-15)
        out = tmp_path / "run"
        assert run_cli("run", "--problem", "synthetic-quadratic-l1",
                       "--solver", "ipila-practical", "--delta", "0.3",
                       "--max_outer", "100", "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("certify", str(out / "trace.csv")) == 0
        assert "overall=pass" in capsys.readouterr().out

    def test_certify_fails_on_corrupted_trace(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("run", "--solver", "i2piano", "--max_outer", "30",
                       "--out", str(out)) == 0
        trace = Trace.read_csv(out / "trace.csv")
        trace.rows[4]["phi"] += 10.0
        trace.write_csv(out / "trace.csv")
        capsys.readouterr()
        code = run_cli("certify", str(out / "trace.csv"))
        assert code == 4
        assert "overall=fail" in capsys.readouterr().out

    def test_certify_reads_f(self, tmp_path, capsys):
        # a last row's f of 1e300 used to certify with overall=pass, exit 0,
        # and summary.f_final=1e+300
        out = tmp_path / "run"
        assert run_cli("run", "--solver", "iista", "--max_outer", "3",
                       "--out", str(out)) == 0
        trace = Trace.read_csv(out / "trace.csv")
        trace.rows[-1]["f"] = 1e300
        trace.write_csv(out / "trace.csv")
        capsys.readouterr()
        assert run_cli("certify", str(out / "trace.csv")) == 4
        report = capsys.readouterr().out
        assert "merit.status=fail" in report
        assert f"merit.worst_k={trace.rows[-1]['k']}" in report
        assert "overall=fail" in report

    def test_certify_fails_on_nan_residuals(self, tmp_path, capsys):
        # a NaN residual used to pass, as nan > worst is false, and the
        # psi checks skipped a non-finite psi: this trace certified
        out = tmp_path / "run"
        assert run_cli("run", "--solver", "ipila-strict", "--max_outer", "20",
                       "--out", str(out)) == 0
        trace = Trace.read_csv(out / "trace.csv")
        for row in trace.rows:
            for key in ("phi", "h", "psi", "d_k", "x_step_norm",
                        "y_step_norm"):
                row[key] = float("nan")
        trace.write_csv(out / "trace.csv")
        capsys.readouterr()
        assert run_cli("certify", str(out / "trace.csv")) == 4
        report = capsys.readouterr().out
        assert "overall=fail" in report
        for name in ("H1", "H4", "prox", "duality-gap", "armijo"):
            assert f"{name}.status=fail" in report, name

    def test_certify_replays_the_practical_coupling_forward(self, tmp_path,
                                                            capsys):
        # at delta = gamma_min every beta_k is 0, and the certifier used to
        # skip each such row as it inverted beta_k to find alpha_k's L_k
        out = tmp_path / "run"
        assert run_cli("run", "--solver", "ipila-practical", "--delta",
                       "1e-5", "--gamma", "1e-5", "--max_outer", "20",
                       "--out", str(out)) == 0
        path = out / "trace.csv"
        trace = Trace.read_csv(path)
        assert {r["beta_k"] for r in trace.rows} == {0.0}
        # row 0 read L0, and each later row the L_k its previous row left
        assert trace.rows[0]["L_or_gamma"] != trace.meta["L0"]
        capsys.readouterr()
        assert run_cli("certify", str(path)) == 0
        assert "overall=pass" in capsys.readouterr().out
        for row in trace.rows:
            row["alpha_k"] *= 3.0
        trace.write_csv(path)
        assert run_cli("certify", str(path)) == 4
        report = capsys.readouterr().out
        assert "param-identities.status=fail" in report
        assert "param-identities.worst_k=0" in report

    @pytest.mark.parametrize("key", ["alpha_k", "beta_k"])
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_certify_replays_the_coupling_to_the_bit(self, tmp_path, capsys,
                                                     solver, key):
        # param-identities allowed a relative slack of 1e-9, so a row one
        # ulp off its solver's coupling certified; it now replays the
        # solvers' own coupling with no tolerance
        out = tmp_path / "run"
        assert run_cli("run", "--solver", solver, "--max_outer", "30",
                       "--out", str(out)) == 0
        path = out / "trace.csv"
        trace = Trace.read_csv(path)
        row = trace.rows[1]
        row[key] = math.nextafter(row[key], math.inf)
        trace.write_csv(path)
        capsys.readouterr()
        assert run_cli("certify", str(path)) == 4
        report = capsys.readouterr().out
        assert "param-identities.status=fail" in report
        assert f"param-identities.worst_k={row['k']}" in report

    @pytest.mark.parametrize("solver", ["ipila-strict", "ipila-practical"])
    def test_certify_replays_the_armijo_bound_to_the_bit(self, tmp_path,
                                                         capsys, solver):
        # armijo allowed a slack of 1e-9 (1 + |phi_{k-1}|); a last row's
        # phi at phi_{k-1} + sigma lambda_k Delta_k passes it, one ulp
        # above fails it
        out = tmp_path / "run"
        assert run_cli("run", "--solver", solver, "--max_outer", "30",
                       "--out", str(out)) == 0
        path = out / "trace.csv"
        trace = Trace.read_csv(path)
        prev, row = trace.rows[-2], trace.rows[-1]
        bound = (prev["phi"] + float(trace.meta["sigma"]) * row["lambda_k"]
                 * row["delta_k"])
        row["phi"] = bound
        trace.write_csv(path)
        capsys.readouterr()
        run_cli("certify", str(path))
        assert "armijo.status=pass" in capsys.readouterr().out
        row["phi"] = math.nextafter(bound, math.inf)
        trace.write_csv(path)
        assert run_cli("certify", str(path)) == 4
        report = capsys.readouterr().out
        assert "armijo.status=fail" in report
        assert f"armijo.worst_k={row['k']}" in report

    def test_certify_unparsable_value_exits_2(self, tmp_path, capsys):
        # used to end in "could not convert string to float"
        out = tmp_path / "run"
        assert run_cli("run", "--solver", "iista", "--max_outer", "5",
                       "--out", str(out)) == 0
        path = out / "trace.csv"
        text = path.read_text().replace("\n1,", "\n1,oops", 1)
        path.write_text(text)
        capsys.readouterr()
        assert run_cli("certify", str(path)) == 2
        err = capsys.readouterr().err
        assert "bad trace file" in err and "'oops" in err
        assert "Traceback" not in err

    def test_certify_missing_column_exits_2(self, tmp_path, capsys):
        # used to end in KeyError: 'd_k'
        path = self._run_and_drop_columns(tmp_path, "iista", ["d_k"])
        capsys.readouterr()
        assert run_cli("certify", str(path)) == 2
        err = capsys.readouterr().err
        assert "bad trace file" in err and "d_k" in err

    def test_certify_trace_without_step_and_branch_columns_exits_2(
            self, tmp_path, capsys):
        # the columns trace.csv used to leave out; without y_step_norm the
        # prox check fell back to x_step_norm and certified a smaller step
        cols = ["y_step_norm", "s_step_norm", "prox_branch", "accepted_branch"]
        path = self._run_and_drop_columns(tmp_path, "ipila-strict", cols)
        capsys.readouterr()
        assert run_cli("certify", str(path)) == 2
        err = capsys.readouterr().err
        assert f"bad trace file: {path}" in err and "Traceback" not in err
        assert ", ".join(cols) in err

    @staticmethod
    def _run_and_drop_columns(tmp_path, solver, cols):
        """A short run's trace.csv without the columns ``cols``."""
        out = tmp_path / "run"
        assert run_cli("run", "--solver", solver, "--max_outer", "5",
                       "--out", str(out)) == 0
        path = out / "trace.csv"
        lines = path.read_text().splitlines()
        header = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        keep = [i for i, c in enumerate(lines[header].split(","))
                if c not in cols]
        for i in range(header, len(lines)):
            parts = lines[i].split(",")
            lines[i] = ",".join(parts[j] for j in keep)
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("solver,key,checks", [
        ("i2piano", "gamma", ("H4", "param-identities")),
        ("i2piano", "delta", ("param-identities",)),
        ("i2piano", "tau", ("prox", "param-identities")),
        ("ipila-strict", "alpha_max", ("param-identities",)),
        ("ipila-strict", "tau", ("prox",)),
    ])
    def test_certify_missing_header_key_is_incomplete(
            self, tmp_path, capsys, solver, key, checks):
        # each used to end in a KeyError traceback, then in exit 0 with
        # the checks that read the key skipped as "incomplete"; now the
        # file is bad, as it is without a column
        path = self._run_and_edit_header(tmp_path, solver, key, None)
        capsys.readouterr()
        assert run_cli("certify", str(path)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"bad trace file: header lacks {key}" in err
        assert "Traceback" not in err
        trace = Trace.read_csv(path)
        for name in checks:
            with pytest.raises(ValueError, match=f"header lacks {key}"):
                certify.check(trace, name)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_certify_without_any_header_key_keeps_report_or_exits_2(
            self, tmp_path, capsys, solver):
        # deleting "# solver=" used to judge an honest i2Piano or iPila
        # trace by iISTA's rules (exit 4), deleting iPila-practical's
        # "# variant=" made it use the strict identities (exit 4), and
        # deleting a key a check reads skipped that check (exit 0)
        out = tmp_path / "run"
        assert run_cli("run", "--solver", solver, "--max_outer", "40",
                       "--out", str(out)) == 0
        path = out / "trace.csv"
        lines = path.read_text().splitlines()
        capsys.readouterr()
        assert run_cli("certify", str(path)) == 0
        intact = capsys.readouterr().out
        keys = [i for i, line in enumerate(lines) if line.startswith("# ")]
        assert len(keys) >= 8
        for i in keys:
            key = lines[i][2:].partition("=")[0]
            edited = tmp_path / f"no-{key}.csv"
            edited.write_text("\n".join(lines[:i] + lines[i + 1:]) + "\n")
            code = run_cli("certify", str(edited))
            report, err = capsys.readouterr()
            if code == 2:
                assert f"bad trace file: header lacks {key}" in err, key
                assert report == "", key
            else:
                assert (code, report) == (0, intact), key

    def test_certify_derives_theta_from_tau(self, tmp_path, capsys):
        # H4 used to read "# theta=", so a header edited to a tiny theta
        # passed a step 100 times too long; the header no longer holds
        # theta, and a stray theta line must not loosen H4
        out = tmp_path / "run"
        assert run_cli("run", "--solver", "ipila-strict", "--tau", "1.0",
                       "--max_outer", "5", "--out", str(out)) == 0
        path = out / "trace.csv"
        lines = path.read_text().splitlines()
        header = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        col = lines[header].split(",").index("x_step_norm")
        parts = lines[header + 3].split(",")
        parts[col] = repr(100.0 * float(parts[col]))
        lines[header + 3] = ",".join(parts)
        assert not any(l.startswith("# theta=") for l in lines)
        lines.insert(0, "# theta=1e-12")
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("certify", str(path)) == 4
        report = capsys.readouterr().out
        assert "H4.status=fail" in report and "H4.worst_k=2" in report

    @pytest.mark.parametrize("tau", [None, "inf", "-1"])
    def test_certify_header_tau_cannot_void_prox(self, tmp_path, capsys,
                                                  tau):
        # "# tau=inf" made theta and the gap weight 0, so the prox check
        # passed a row that claims 1000 times less decrease than its step
        # (exit 0), and "# tau=-1" ended in "math domain error"
        def edit(trace):
            trace.rows[2]["h"] *= 1e-3
            if tau is not None:
                trace.meta["tau"] = float(tau)
        code, out, err = self._certify_edited(
            tmp_path, capsys, edit, "--solver", "iista", "--problem",
            "gaussian-sd-tv", "--size", "16", "--tau", "0.01",
            "--max_outer", "5")
        if tau is None:
            assert code == 4
            assert "prox.status=fail" in out and "prox.worst_k=2" in out
        else:
            assert (code, out) == (2, "")
            assert err.startswith("bad trace file: tau must be ")

    @pytest.mark.parametrize("sigma", [None, -1, 0, 1])
    def test_certify_header_sigma_must_lie_in_0_1(self, tmp_path, capsys,
                                                   sigma):
        # "# sigma=-1" turned the decrease terms of H1 and armijo into
        # allowances, so a last step whose merit rises passed (exit 0)
        def edit(trace):
            trace.rows[-1]["phi"] = trace.rows[-2]["phi"] * (1 + 1e-6)
            if sigma is not None:
                trace.meta["sigma"] = sigma
        code, out, err = self._certify_edited(
            tmp_path, capsys, edit, "--solver", "ipila-strict", "--problem",
            "impulse-l1", "--size", "16", "--max_outer", "6")
        if sigma is None:
            assert code == 4
            assert "H1.status=fail" in out and "armijo.status=fail" in out
        else:
            assert (code, out) == (2, "")
            assert err == "bad trace file: sigma must lie in (0,1)\n"

    def test_certify_first_step_starts_from_f_init(self, tmp_path, capsys):
        # H1 and armijo read the merit at x0 from "# phi_init=", so raising
        # it passed a first step whose merit rises (exit 0)
        def edit(trace):
            phi0 = trace.meta["phi_init"]
            assert phi0 == trace.meta["f_init"]
            trace.rows[0]["phi"] = phi0 * (1 + 1e-6)
            trace.meta["phi_init"] = phi0 * (1 + 1e-5)
        code, out, _ = self._certify_edited(
            tmp_path, capsys, edit, "--solver", "ipila-strict", "--problem",
            "impulse-l1", "--size", "16", "--max_outer", "6")
        assert code == 4
        for name in ("H1", "armijo"):
            assert f"{name}.status=fail\n{name}.worst_residual=" in out
            assert f"{name}.worst_k=0\n" in out

    @pytest.mark.parametrize("solver,key,value,message", [
        ("i2piano", "eta", "1", "eta must exceed 1"),
        ("iista", "L0", "0", "L0 must lie in [1e-08, 1e+12]"),
        ("ipila-strict", "ls_shrink", "1.5", "ls_shrink must lie in (0,1)"),
        ("ipila-practical", "max_halvings", "-1",
         "max_halvings must be nonnegative"),
    ])
    def test_certify_header_value_the_config_rejects_exits_2(
            self, tmp_path, capsys, solver, key, value, message):
        # no check reads these keys, so each edit used to certify (exit 0)
        path = self._run_and_edit_header(tmp_path, solver, key, value)
        capsys.readouterr()
        assert run_cli("certify", str(path)) == 2
        assert capsys.readouterr() == ("", f"bad trace file: {message}\n")

    ROWS_RUN = ("--problem", "impulse-l1", "--size", "16", "--solver",
                "i2piano", "--max_outer", "12")

    @pytest.mark.parametrize("tamper,message", [
        ("row-5-deleted", "row 5 has k = 6"),
        ("every-k-0", "row 1 has k = 0"),
        ("max_outer-6", "12 rows, max_outer is 6"),
    ])
    def test_certify_rows_a_run_cannot_write_exit_2(self, tmp_path, capsys,
                                                    tamper, message):
        # each used to certify (exit 0): no run skips, renumbers or adds a
        # row, as fb.run writes k from range(max_outer)
        def edit(trace):
            if tamper == "row-5-deleted":
                del trace.rows[5]
            elif tamper == "every-k-0":
                for row in trace.rows:
                    row["k"] = 0
            else:
                trace.meta["max_outer"] = 6
        code, out, err = self._certify_edited(tmp_path, capsys, edit,
                                              *self.ROWS_RUN)
        assert (code, out, err) == (2, "", f"bad trace file: {message}\n")

    def test_certify_header_naming_a_column_twice_exits_2(self, tmp_path,
                                                          capsys):
        # the reader kept the last of two phi columns, so a first one whose
        # merit rises at k=5 certified (exit 0) beside an honest second one
        out = tmp_path / "run"
        assert run_cli("run", *self.ROWS_RUN, "--out", str(out)) == 0
        path = out / "trace.csv"
        lines = path.read_text().splitlines()
        header = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        col = lines[header].split(",").index("phi")
        for i in range(header, len(lines)):
            parts = lines[i].split(",")
            first = parts[col]
            if i == header + 6:
                first = repr(float(first) * (1 + 1e-3))
            lines[i] = ",".join([first, *parts])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("certify", str(path)) == 2
        assert capsys.readouterr() == (
            "", f"bad trace file: {path}:{header + 1}: header names phi "
            "twice\n")

    @staticmethod
    def _certify_edited(tmp_path, capsys, edit, *args):
        """``certify``'s exit code, stdout and stderr on the trace.csv of
        ``run *args`` after ``edit(trace)``."""
        out = tmp_path / "run"
        assert run_cli("run", *args, "--out", str(out)) == 0
        path = out / "trace.csv"
        trace = Trace.read_csv(path)
        edit(trace)
        trace.write_csv(path)
        capsys.readouterr()
        return (run_cli("certify", str(path)), *capsys.readouterr())

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_certify_unusable_header_value_exits_2(self, tmp_path, capsys,
                                                   value):
        # used to end in "could not convert string to float" or
        # ZeroDivisionError tracebacks
        path = self._run_and_edit_header(tmp_path, "i2piano", "gamma", value)
        capsys.readouterr()
        assert run_cli("certify", str(path)) == 2
        err = capsys.readouterr().err
        assert "bad trace file:" in err and "Traceback" not in err
        if value == "abc":
            assert "gamma" in err

    @staticmethod
    def _run_and_edit_header(tmp_path, solver, key, value):
        """A short run's trace.csv with header ``key`` set to ``value``, or
        dropped when ``value`` is None."""
        out = tmp_path / "run"
        assert run_cli("run", "--solver", solver, "--max_outer", "5",
                       "--out", str(out)) == 0
        path = out / "trace.csv"
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines)
                 if line.startswith(f"# {key}="))
        if value is None:
            del lines[i]
        else:
            lines[i] = f"# {key}={value}"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_certify_missing_file(self, tmp_path, capsys):
        path = tmp_path / "none.csv"
        code = run_cli("certify", str(path))
        assert code == 2
        assert capsys.readouterr().err == (
            "bad trace file: [Errno 2] No such file or directory: "
            f"{str(path)!r}\n")

    def test_certify_empty_trace(self, tmp_path):
        empty = tmp_path / "empty.csv"
        Trace().write_csv(empty)
        assert run_cli("certify", str(empty)) == 2
