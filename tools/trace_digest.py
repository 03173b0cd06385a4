"""Print one sha256 per solver run: the byte-identity gate for refactors.

A change that must not move any arithmetic should leave every digest
unchanged.  Each digest covers the run's in-memory trace rows, every field
but ``time_s`` (floats by their exact hex form), then its ``meta`` (sorted
keys, floats by hex), then the bytes of ``x_final``, then the ``trace.csv``
the trace writes with ``f_star = f_final`` (so with a ``rel_gap`` column)
and its ``time_s`` fields blanked, so that the CSV writer's formatting is
gated too.

``tests/trace_digests.txt`` holds the digests of the committed code, one
line per run as this script prints them, after a first line that names
NumPy's version, its OpenBLAS configuration, the OpenBLAS kernel that runs
and the SIMD targets NumPy's loops dispatch to: a ``DYNAMIC_ARCH``
OpenBLAS picks its kernel by CPU (``OPENBLAS_CORETYPE`` overrides it), as
NumPy picks its loops (``NPY_DISABLE_CPU_FEATURES`` turns targets off), so
bits may differ between machines.
``tests/test_trace_digest.py`` recomputes the digests and fails on any
that differs from the file.  ``--write`` regenerates the file; a change
that moves bits by design does so and names the runs that moved.

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


def _fields(mapping, skip=()) -> bytes:
    return (";".join(f"{k}={_encode(v)}" for k, v in sorted(mapping.items())
                     if k not in skip) + "\n").encode()


def csv_without_time(trace) -> bytes:
    """The ``trace.csv`` that ``trace`` writes with ``f_star = f_final``,
    its ``time_s`` fields blanked as ``csv_equal_ignoring_time`` does."""
    from inertiafb.trace import _strip_time

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        trace.write_csv(path, f_star=trace.meta["f_final"])
        return "\n".join(_strip_time(path)).encode()


def trace_digest(trace) -> str:
    """sha256 of the trace rows without ``time_s``, its meta, ``x_final``
    and its written CSV without ``time_s``."""
    import numpy as np

    sha = hashlib.sha256()
    for row in trace.rows:
        sha.update(_fields(row, skip=("time_s",)))
    sha.update(_fields(trace.meta))
    if trace.x_final is not None:
        sha.update(np.ascontiguousarray(trace.x_final, dtype="<f8").tobytes())
    sha.update(csv_without_time(trace))
    return sha.hexdigest()


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
    """``[(run label, solver, digest)]``, one per run."""
    return [(label, solver, trace_digest(trace))
            for label, solver, trace in traces(size, iters)]


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
    lines = [f"{label:36s} {solver:16s} {digest}"
             for label, solver, digest in digests()]
    if args.write:
        DIGEST_FILE.write_text("\n".join([platform(), *lines]) + "\n")
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
