import importlib.util
import os
import subprocess
import sys
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


def _moved(before, after):
    """The parts whose digests differ between two ``trace_digest`` dicts."""
    return sorted(part for part in before.keys() | after.keys()
                  if before.get(part) != after.get(part))


def test_digests_repeat_and_cover_every_run():
    first = trace_digest.digests(size=16, iters=5)
    assert first == trace_digest.digests(size=16, iters=5)
    # a rows and a meta part per run: no column is newer than the split
    assert [part for _, _, part, _ in first] == ["rows", "meta"] * 32
    runs, parts = {}, {}
    for label, solver, part, digest in first:
        runs.setdefault((label, solver), []).append(digest)
        parts.setdefault(part, set()).add(digest)
    # cut to 5 iterations, the 80- and 200-iteration synthetic runs coincide,
    # and i2Piano and iISTA do not read alpha_max; in 5 rows neither
    # iPila-practical's cap alpha_max 5 nor iPila-strict's L0 moves a row
    assert len({tuple(d) for d in runs.values()}) == 26
    assert {part: len(d) for part, d in parts.items()} \
        == {"rows": 24, "meta": 26}


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
        *label, solver, part, digest = line.split()
        committed[(" ".join(label), solver, part)] = digest
    ours = {(label, solver, part): digest for label, solver, t in runs
            for part, digest in trace_digest.trace_digest(t).items()}
    differ = [" ".join(key) for key in {**committed, **ours}
              if committed.get(key) != ours.get(key)]
    here = trace_digest.platform()
    assert not differ, "\n".join(
        [f"{len(differ)} of {len(ours)} run parts differ:", *differ]
        + ([f"file: {platform}", f"here: {here}"] if platform != here else []))


def test_write_puts_the_platform_above_the_printed_lines(monkeypatch,
                                                         tmp_path, capsys):
    fake = [("synthetic-quadratic-l1 k=80", "iista", "rows", "0" * 64)]
    monkeypatch.setattr(trace_digest, "digests", lambda: fake)
    monkeypatch.setattr(trace_digest, "DIGEST_FILE", tmp_path / "d.txt")
    monkeypatch.setattr(trace_digest.sys, "path", list(trace_digest.sys.path))
    assert trace_digest.main([]) == 0
    printed = capsys.readouterr().out
    assert trace_digest.main(["--write"]) == 0
    assert (tmp_path / "d.txt").read_text() \
        == f"{trace_digest.platform()}\n{printed}"


def _platform_fields(line):
    """``(the line up to the kernel, the kernel, the dispatch targets)``."""
    rest, _, dispatch = line.rpartition("; dispatch ")
    head, _, kernel = rest.rpartition("; kernel ")
    return head, kernel, dispatch.split()


def test_platform_names_the_kernel_and_the_dispatch_targets():
    # the OpenBLAS build string names the kernel it was built for, and
    # NumPy's version no SIMD target, yet both settings below move digests
    head, kernel, dispatch = _platform_fields(trace_digest.platform())
    assert head and kernel and dispatch
    # every dispatch target but the lowest turned off, on top of those this
    # process runs without, and OpenBLAS made to run its Haswell kernel
    off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               NPY_DISABLE_CPU_FEATURES=" ".join(off + dispatch[1:]))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import trace_digest; print(trace_digest.platform())")
    proc = subprocess.run([sys.executable, "-c", code, str(_PATH.parent)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _platform_fields(proc.stdout.strip()) == (
        head, "unknown" if kernel == "unknown" else "Haswell", dispatch[:1])


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
    assert _moved(before, trace_digest.trace_digest(trace)) == ["rows"]


def test_changed_float_format_changes_the_digest(monkeypatch):
    cfg = dict(cli.DEFAULTS, size="16", max_outer="5", solver="iista")
    problem, x0, _ = cli.build_problem(cfg)
    trace = cli.run_solver(problem, x0, cfg)
    before = trace_digest.trace_digest(trace)
    monkeypatch.setattr(trace_module, "_fmt", lambda v: format(v, ".16g")
                        if isinstance(v, float) else str(v))
    assert trace_digest.trace_digest(trace) != before


def test_changed_meta_changes_the_digest():
    # a header-only edit moves the meta part alone: rel_gap is read from the
    # last row's f, so not even f_final moves the rows
    cfg = dict(cli.DEFAULTS, size="16", max_outer="5", solver="i2piano")
    problem, x0, _ = cli.build_problem(cfg)
    trace = cli.run_solver(problem, x0, cfg)
    before = trace_digest.trace_digest(trace)
    for key, value in (("stop_reason", "d_k"), ("variant", "x"),
                       ("f_final", np.nextafter(trace.meta["f_final"], 0))):
        trace.meta[key] = value
        after = trace_digest.trace_digest(trace)
        assert _moved(before, after) == ["meta"], key
        before = after


def test_a_new_column_gets_its_own_part(monkeypatch):
    # a change that adds a column shows every old byte unchanged
    cfg = dict(cli.DEFAULTS, size="16", max_outer="5", solver="iista")
    problem, x0, _ = cli.build_problem(cfg)
    trace = cli.run_solver(problem, x0, cfg)
    before = trace_digest.trace_digest(trace)
    monkeypatch.setattr(trace_module, "CSV_COLUMNS", [*CSV_COLUMNS, "extra"])
    for row in trace.rows:
        row["extra"] = 0.5 * row["f"]
    after = trace_digest.trace_digest(trace)
    assert _moved(before, after) == ["col:extra"]
    trace.rows[2]["extra"] = 1.0
    assert _moved(after, trace_digest.trace_digest(trace)) == ["col:extra"]
