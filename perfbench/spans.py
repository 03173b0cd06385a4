"""In-memory span recorder and the layer boundaries it wraps.

A span is ``(id, parent, run, name, start_ns, end_ns, attrs)``.  Spans are
recorded from outside the package: ``instrumented(recorder)`` replaces the
public functions and methods listed in ``_targets`` with timing wrappers and
puts the originals back on exit.  Each thread keeps its own stack of open
spans, so spans opened by the suite's worker threads get the right parent.
``cli.run_solver`` opens a new run id; every span below it shares that id.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import threading
import time

from inertiafb import certify, cli, i2piano, iista, imaging, ipila, problem
from inertiafb import trace as trace_mod


class Recorder:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs_fn=None, new_run=False):
        """Runs ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``attrs_fn(args, kwargs, result)`` returns the span's attributes; it
        runs after the clock stops, so it is not part of the span.
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent, run = stack[-1] if stack else (None, None)
        if new_run:
            run = span_id
        stack.append((span_id, run))
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
        attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
        self.spans.append((span_id, parent, run, name, start, end, attrs))
        return result

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "run", "name", "start_ns", "end_ns",
                          "attrs"])
            for span_id, parent, run, name, start, end, attrs in self.spans:
                out.writerow([span_id, "" if parent is None else parent,
                              "" if run is None else run, name, start, end,
                              "" if attrs is None else repr(attrs)])


def _conv_attrs(adjoint):
    # computed, not measured: one multiply-add per kernel tap and pixel; bytes
    # are float64 reads and writes of input, output and (adjoint) the
    # full-size intermediate that is folded back
    def attrs(args, kwargs, result):
        op = args[0]
        h, w = op.shape
        kh, kw = op.kernel.shape
        flops = 2 * kh * kw * h * w
        nbytes = 8 * (2 * h * w + kh * kw)
        if adjoint:
            nbytes += 8 * 2 * (h + kh - 1) * (w + kw - 1)
        return {"flops": flops, "bytes": nbytes}
    return attrs


def _prox_attrs(args, kwargs, result):
    return {"inner": result.inner_iters, "warm": result.inner_iters == 0,
            "maxiter": result.converged == "maxiter"}


def _armijo_attrs(args, kwargs, result):
    return {"evals": result[3]}


def _solver_attrs(args, kwargs, result):
    rows = result.rows
    return {"solver": args[2]["solver"], "iters": len(rows),
            "inner": sum(int(r["inner_iters"]) for r in rows),
            "backtracks": sum(int(r["backtracks"]) for r in rows),
            "inertial": sum(r.get("accepted_branch") == "inertial"
                            for r in rows),
            "time_s": rows[-1]["time_s"] if rows else 0.0}


def _targets():
    """``(owner, attribute, span name, attrs_fn, new_run)`` per boundary.

    ``eval_f`` and ``solve_inexact_prox`` are imported by name into each
    solver module, so they are wrapped at every import site.  iPila binds
    its engine as a default argument of ``ipila_step``; its prox calls are
    timed by passing a wrapped engine through ``engine=``.
    """
    out = [
        (problem.SmoothOracle, "grad", "problem.f0_grad", None, False),
        (problem.SmoothOracle, "value", "problem.f0_value", None, False),
        (problem.StructuredConvexTerm, "value", "problem.f1_value", None,
         False),
        (problem, "power_iteration_sq_norm", "problem.power_iteration", None,
         False),
        (imaging.ConvOperator, "matvec", "imaging.conv_matvec",
         _conv_attrs(False), False),
        (imaging.ConvOperator, "rmatvec", "imaging.conv_rmatvec",
         _conv_attrs(True), False),
        (imaging.GradOp, "matvec", "imaging.gradop_matvec", None, False),
        (imaging.GradOp, "rmatvec", "imaging.gradop_rmatvec", None, False),
        (ipila, "armijo_linesearch", "ipila.armijo", _armijo_attrs, False),
        (cli, "build_problem", "cli.build_problem", None, False),
        (cli, "run_solver", "cli.run_solver", _solver_attrs, True),
        (trace_mod.Trace, "write_csv", "trace.write_csv", None, False),
        (certify, "summarize", "certify.summarize", None, False),
        (cli, "summarize", "certify.summarize", None, False),
    ]
    for mod in (i2piano, ipila, iista):
        out.append((mod, "eval_f", "problem.eval_f", None, False))
    for mod in (i2piano, iista):
        out.append((mod, "solve_inexact_prox", "prox_engine.solve",
                    _prox_attrs, False))
    for name in ("i2piano_solve", "ipila_solve", "iista_solve"):
        out.append((cli, name, "solver.solve", None, False))
    return out


def _wrap(rec, fn, name, attrs_fn, new_run):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, attrs_fn, new_run)
    return wrapper


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Wraps every layer boundary for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, attrs_fn, new_run in _targets():
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, _wrap(rec, orig, name, attrs_fn, new_run))

        orig_step = ipila.ipila_step
        engine = _wrap(rec, ipila.solve_inexact_prox, "prox_engine.solve",
                       _prox_attrs, False)

        @functools.wraps(orig_step)
        def step(problem_, state, cfg):
            return orig_step(problem_, state, cfg, engine=engine)

        saved.append((ipila, "ipila_step", orig_step))
        ipila.ipila_step = step
        yield rec
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
