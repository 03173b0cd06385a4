import importlib.util
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


@pytest.fixture(scope="module")
def runs():
    """The 32 runs ``tools/trace_digest.py`` digests."""
    return trace_digest.traces()


def test_digests_match_the_committed_file(runs):
    # a change that moves bits by design regenerates the file with
    # tools/trace_digest.py --write
    platform, *lines = trace_digest.DIGEST_FILE.read_text().splitlines()
    committed = {}
    for line in lines:
        *label, solver, digest = line.split()
        committed[(" ".join(label), solver)] = digest
    ours = {(label, solver): trace_digest.trace_digest(t)
            for label, solver, t in runs}
    differ = [f"{label} {solver}" for label, solver in {**committed, **ours}
              if committed.get((label, solver)) != ours.get((label, solver))]
    here = trace_digest.platform()
    assert not differ, "\n".join(
        [f"{len(differ)} of {len(ours)} runs differ:", *differ]
        + ([f"file: {platform}", f"here: {here}"] if platform != here else []))


def test_write_puts_the_platform_above_the_printed_lines(monkeypatch,
                                                         tmp_path, capsys):
    fake = [("synthetic-quadratic-l1 k=80", "iista", "0" * 64)]
    monkeypatch.setattr(trace_digest, "digests", lambda: fake)
    monkeypatch.setattr(trace_digest, "DIGEST_FILE", tmp_path / "d.txt")
    monkeypatch.setattr(trace_digest.sys, "path", list(trace_digest.sys.path))
    assert trace_digest.main([]) == 0
    printed = capsys.readouterr().out
    assert trace_digest.main(["--write"]) == 0
    assert (tmp_path / "d.txt").read_text() \
        == f"{trace_digest.platform()}\n{printed}"


def test_runs_reach_every_stop_reason_and_branch(tmp_path, runs):
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
