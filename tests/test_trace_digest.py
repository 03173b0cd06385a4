import importlib.util
import subprocess
from pathlib import Path

import numpy as np
import pytest

from inertiafb import cli
from inertiafb import trace as trace_module
from inertiafb.certify import summarize
from inertiafb.i2piano import I2PianoConfig, i2piano_solve
from inertiafb.iista import IistaConfig, iista_solve
from inertiafb.ipila import IPilaConfig, ipila_solve
from inertiafb.trace import CSV_COLUMNS, Trace

_PATH = Path(__file__).resolve().parent.parent / "tools" / "trace_digest.py"
_spec = importlib.util.spec_from_file_location("trace_digest", _PATH)
trace_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_digest)


def test_digests_repeat_and_cover_every_run():
    first = trace_digest.digests(size=16, iters=5)
    assert first == trace_digest.digests(size=16, iters=5)
    assert len(first) == 32
    # cut to 5 iterations, the 80- and 200-iteration synthetic runs coincide,
    # and i2Piano and iISTA do not read alpha_max
    assert len({d for _, _, d in first}) == 26


def test_runs_reach_every_stop_reason_and_branch(tmp_path):
    runs = trace_digest.traces()
    # each row is the trace.csv schema, and the file gets the same verdicts
    for label, solver, t in runs:
        assert all(r.keys() == set(CSV_COLUMNS) for r in t.rows), solver
        path = tmp_path / "trace.csv"
        t.write_csv(path)
        in_memory, from_csv = summarize(t), summarize(Trace.read_csv(path))
        assert in_memory.ok, (label, solver)
        assert from_csv.checks == in_memory.checks, (label, solver)
        np.testing.assert_equal(from_csv.summary, in_memory.summary)
    reasons = {}
    for _, solver, t in runs:
        reasons.setdefault(solver, set()).add(t.meta["stop_reason"])
    assert "d_k" in reasons["i2piano"] & reasons["iista"]
    assert "stationary" in reasons["ipila-strict"] & reasons["ipila-practical"]
    assert "max_outer" in set().union(*reasons.values())
    assert {r["accepted_branch"] for _, solver, t in runs
            if solver.startswith("ipila") for r in t.rows} \
        == {"inertial", "linesearch", "stationary"}
    # the line search steps short of y on a problem with a forward pass
    assert any(r["accepted_branch"] == "linesearch" and r["lambda_k"] < 1
               for label, solver, t in runs
               if solver.startswith("ipila")
               and not label.startswith("synthetic-quadratic-l1")
               for r in t.rows)
    by_solver = {}
    for _, solver, t in runs:
        by_solver.setdefault(solver, []).append(t)
    assert any(b < a for t in by_solver["i2piano"]
               for a, b in zip(t.column("L_or_gamma"),
                               t.column("L_or_gamma")[1:]))
    for solver in ("i2piano", "iista"):
        assert sum(sum(t.column("backtracks"))
                   for t in by_solver[solver]) > 0, solver


def test_library_and_cli_run_the_same_solvers():
    # the CLI used to turn on a Lipschitz shrink that the library's default
    # left off: 83 rows against the library's 72, whose L_k stayed >= 1
    cfg = dict(cli.DEFAULTS, max_outer="200", solver="i2piano")
    problem, x0, _ = cli.build_problem(cfg)
    lib = i2piano_solve(problem, x0, I2PianoConfig(max_outer=200))
    run = cli.run_solver(problem, x0, cfg)
    assert trace_digest.trace_digest(lib) == trace_digest.trace_digest(run)
    # each solver's library defaults are the CLI's
    library = {
        "i2piano": lambda p, x0: i2piano_solve(
            p, x0, I2PianoConfig(max_outer=60)),
        "ipila-strict": lambda p, x0: ipila_solve(
            p, x0, IPilaConfig(max_outer=60, variant="strict-alg3")),
        "ipila-practical": lambda p, x0: ipila_solve(
            p, x0, IPilaConfig(max_outer=60, variant="practical-sec5")),
        "iista": lambda p, x0: iista_solve(p, x0, IistaConfig(max_outer=60)),
    }
    for name in ("synthetic-quadratic-l1", "impulse-l1"):
        for solver, solve in library.items():
            cfg = dict(cli.DEFAULTS, problem=name, size="16",
                       max_outer="60", solver=solver)
            problem, x0, _ = cli.build_problem(cfg)
            assert (trace_digest.trace_digest(solve(problem, x0))
                    == trace_digest.trace_digest(
                        cli.run_solver(problem, x0, cfg))), (name, solver)


def test_changed_f_changes_the_digest():
    cfg = dict(cli.DEFAULTS, problem="gaussian-sd-tv", tau="0.01", size="16",
               max_outer="5", solver="iista")
    problem, x0, _ = cli.build_problem(cfg)
    trace = cli.run_solver(problem, x0, cfg)
    before = trace_digest.trace_digest(trace)
    trace.rows[2]["time_s"] += 1.0
    assert trace_digest.trace_digest(trace) == before
    trace.rows[2]["f"] = np.nextafter(trace.rows[2]["f"], np.inf)
    assert trace_digest.trace_digest(trace) != before


def test_changed_float_format_changes_the_digest(monkeypatch):
    cfg = dict(cli.DEFAULTS, size="16", max_outer="5", solver="iista")
    problem, x0, _ = cli.build_problem(cfg)
    trace = cli.run_solver(problem, x0, cfg)
    before = trace_digest.trace_digest(trace)
    monkeypatch.setattr(trace_module, "_fmt", lambda v: format(v, ".16g")
                        if isinstance(v, float) else str(v))
    assert trace_digest.trace_digest(trace) != before


def test_changed_meta_changes_the_digest():
    cfg = dict(cli.DEFAULTS, size="16", max_outer="5", solver="i2piano")
    problem, x0, _ = cli.build_problem(cfg)
    trace = cli.run_solver(problem, x0, cfg)
    before = trace_digest.trace_digest(trace)
    trace.meta["stop_reason"] = "d_k"
    assert trace_digest.trace_digest(trace) != before


def test_against_prints_each_differing_run(monkeypatch, capsys):
    # the subprocess digests this checkout, so only the altered run differs
    real = trace_digest.digests()
    label, solver, _ = real[3]
    monkeypatch.setattr(trace_digest, "digests", lambda: [
        *real[:3], (label, solver, "0" * 64), *real[4:]])
    assert trace_digest.main(["--against", str(_PATH.parent.parent)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"differs: {label} {solver}", "31 of 32 runs equal"]


def test_against_stops_the_other_side_when_this_side_fails(monkeypatch):
    # an error in this side's digests used to leave the child that digests
    # the other checkout running to its end
    children, popen = [], subprocess.Popen

    def spawn(*args, **kwargs):
        children.append(popen(*args, **kwargs))
        return children[-1]

    def broken():
        raise RuntimeError("this side failed")

    monkeypatch.setattr(trace_digest.subprocess, "Popen", spawn)
    monkeypatch.setattr(trace_digest, "digests", broken)
    try:
        with pytest.raises(RuntimeError, match="this side failed"):
            trace_digest.main(["--against", str(_PATH.parent.parent)])
        assert [child.poll() is not None for child in children] == [True]
    finally:
        for child in children:
            child.kill()
            child.wait(timeout=10)
