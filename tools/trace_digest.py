"""Print each run's sha256 per part: the byte-identity gate for refactors.

A change that must not move any arithmetic should leave every digest
unchanged.  Each run gets one digest per part, so a change that adds a
column or edits the header shows every other byte unchanged:

- ``rows``: every in-memory trace row restricted to ``BASE_COLUMNS``
  without ``time_s`` (floats by their exact hex form), then the bytes of
  ``x_final``, then the column line and row lines of the ``trace.csv`` the
  trace writes with ``f_star`` the last row's ``f`` (so with a ``rel_gap``
  column), restricted the same way and with ``time_s`` blanked, so that
  the CSV writer's formatting is gated too;
- ``meta``: the trace's ``meta`` (sorted keys, floats by hex), then the
  CSV's ``# key=value`` lines;
- ``col:NAME``: for each column not in ``BASE_COLUMNS``, its in-memory
  values and its CSV fields.

``tests/trace_digests.txt`` holds the digests of the committed code, one
line per run and part as this script prints them, after a first line that
names NumPy's version, its OpenBLAS configuration, the OpenBLAS kernel that
runs and the SIMD targets NumPy's loops dispatch to: a ``DYNAMIC_ARCH``
OpenBLAS picks its kernel by CPU (``OPENBLAS_CORETYPE`` overrides it), as
NumPy picks its loops (``NPY_DISABLE_CPU_FEATURES`` turns targets off), so
bits may differ between machines.
``tests/test_trace_digest.py`` recomputes the digests and fails on any
that differs from the file, naming the run and the part.  ``--write``
regenerates the file; a change that moves bits by design does so and names
the runs and parts that moved.

The runs are the 4 solvers at 64x64 on impulse-l1 at ``tau`` 1e6 and 1.0,
gaussian-sd-tv at ``tau`` 0.01 (also with ``alpha_max`` 5) and
synthetic-quadratic-l1 for 80 outer iterations, then
synthetic-quadratic-l1 for 200, at ``L0`` 1 and 0.1.  The 200-iteration
runs reach what the others never do: every stop reason (both iPila
variants stop ``stationary``, i2Piano and iISTA on ``d_k``) and, at ``L0 =
0.1``, backtracking in i2Piano and iISTA.  At ``alpha_max`` 5, iPila's
line search steps short of ``y`` on a problem with a forward pass.  The
last run, synthetic-quadratic-l1 for 80 outer iterations with every other
solver setting off its default, comes near stationarity with ``tau`` 2,
where the prox engine must stay at ``x`` rather than step to a point whose
certified decrease is zero.
"""

from __future__ import annotations

import argparse
import hashlib
import numbers
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_FILE = ROOT / "tests" / "trace_digests.txt"
SOLVERS = ("i2piano", "ipila-strict", "ipila-practical", "iista")
# trace.CSV_COLUMNS when the digests were split into parts, frozen: a column
# added later gets a part of its own
BASE_COLUMNS = ("k", "time_s", "f", "phi", "h", "delta_k", "d_k", "alpha_k",
                "beta_k", "L_or_gamma", "lambda_k", "inner_iters",
                "backtracks", "psi", "x_step_norm", "y_step_norm",
                "s_step_norm", "prox_branch", "accepted_branch")
# (label, CLI overrides, outer iterations)
RUNS = (
    ("impulse-l1 tau=1e6", {"problem": "impulse-l1", "tau": "1e6"}, 80),
    ("impulse-l1 tau=1.0", {"problem": "impulse-l1", "tau": "1.0"}, 80),
    ("gaussian-sd-tv tau=0.01", {"problem": "gaussian-sd-tv", "tau": "0.01"},
     80),
    ("gaussian-sd-tv tau=0.01 alpha_max=5",
     {"problem": "gaussian-sd-tv", "tau": "0.01", "alpha_max": "5"}, 80),
    ("synthetic-quadratic-l1", {"problem": "synthetic-quadratic-l1"}, 80),
    ("synthetic-quadratic-l1", {"problem": "synthetic-quadratic-l1"}, 200),
    ("synthetic-quadratic-l1 L0=0.1",
     {"problem": "synthetic-quadratic-l1", "L0": "0.1"}, 200),
    ("synthetic-quadratic-l1 off-default",
     {"problem": "synthetic-quadratic-l1", "tau": "2", "L0": "0.5",
      "eta": "2", "delta": "0.25", "gamma": "2e-5", "omega": "0.9",
      "sigma": "1e-3", "ls_shrink": "0.6", "max_halvings": "40",
      "alpha_max": "0.8", "beta_max": "0.4", "max_inner": "1500"}, 80),
)


def _encode(value) -> str:
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return float(value).hex()
    return repr(value)


def _fields(mapping) -> bytes:
    return (";".join(f"{k}={_encode(v)}" for k, v in sorted(mapping.items()))
            + "\n").encode()


def _csv(trace):
    """The ``trace.csv`` that ``trace`` writes with ``f_star`` the last
    row's ``f``, its ``time_s`` fields blanked as
    ``csv_equal_ignoring_time`` does: ``(# key=value lines, [column line,
    *row lines] split into fields)``."""
    from inertiafb.trace import _strip_time

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        trace.write_csv(path, f_star=trace.rows[-1]["f"])
        lines = _strip_time(path)
    return ([line for line in lines if line.startswith("#")],
            [line.split(",") for line in lines if not line.startswith("#")])


def trace_digest(trace) -> dict:
    """``{part: sha256}`` of the trace's parts ``rows``, ``meta`` and one
    ``col:NAME`` per column not in ``BASE_COLUMNS``."""
    import numpy as np

    header, table = _csv(trace)
    rows, meta = hashlib.sha256(), hashlib.sha256()
    base = [c for c in BASE_COLUMNS if c != "time_s"]
    for row in trace.rows:
        rows.update(_fields({c: row[c] for c in base}))
    if trace.x_final is not None:
        rows.update(np.ascontiguousarray(trace.x_final, dtype="<f8").tobytes())
    kept = [i for i, c in enumerate(table[0])
            if c in BASE_COLUMNS or c == "rel_gap"]
    for fields in table:
        rows.update((",".join(fields[i] for i in kept) + "\n").encode())
    meta.update(_fields(trace.meta))
    meta.update("".join(line + "\n" for line in header).encode())
    out = {"rows": rows.hexdigest(), "meta": meta.hexdigest()}
    for i, name in enumerate(table[0]):
        if i not in kept:
            col = hashlib.sha256()
            for row, fields in zip(trace.rows, table[1:]):
                col.update(_fields({name: row[name]}) + fields[i].encode())
            out[f"col:{name}"] = col.hexdigest()
    return out


def traces(size: int = 64, iters=None):
    """``[(label, solver, trace)]``, one per run.

    ``iters``, when given, replaces every run's outer-iteration count.
    """
    from inertiafb import cli

    out = []
    for label, overrides, run_iters in RUNS:
        for solver in SOLVERS:
            cfg = dict(cli.DEFAULTS, size=str(size),
                       max_outer=str(iters or run_iters), solver=solver,
                       **overrides)
            problem, x0, _ = cli.build_problem(cfg)
            out.append((f"{label} k={run_iters}", solver,
                        cli.run_solver(problem, x0, cfg)))
    return out


def digests(size: int = 64, iters=None):
    """``[(run label, solver, part, digest)]``, one per run and part."""
    return [(label, solver, part, digest)
            for label, solver, trace in traces(size, iters)
            for part, digest in trace_digest(trace).items()]


def platform() -> str:
    """The digest file's first line: NumPy's version, its OpenBLAS
    configuration, the OpenBLAS kernel that runs (``unknown`` without
    NumPy's bundled OpenBLAS) and the enabled SIMD dispatch targets, on
    which the bits depend."""
    import ctypes

    import numpy as np
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1
        from numpy.core import _multiarray_umath as umath

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # NumPy before 1.26 prints its configuration only
        blas = {}
    # the build string names the kernel OpenBLAS was built for, not the
    # one it picked at load time
    kernel = "unknown"
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        corename = getattr(ctypes.CDLL(str(lib)),
                           "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            kernel = corename().decode()
    dispatch = [target for target in umath.__cpu_dispatch__
                if umath.__cpu_features__.get(target)]
    return (f"# numpy {np.__version__}; "
            f"{blas.get('openblas configuration', blas.get('name'))}; "
            f"kernel {kernel}; dispatch {' '.join(dispatch) or 'none'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"write the digests to {DIGEST_FILE.name}")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    lines = [f"{label:36s} {solver:16s} {part:5s} {digest}"
             for label, solver, part, digest in digests()]
    if args.write:
        DIGEST_FILE.write_text("\n".join([platform(), *lines]) + "\n")
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
