"""Print one sha256 per solver run: the byte-identity gate for refactors.

A change that must not move any arithmetic should leave every digest
unchanged.  Each digest covers the run's in-memory trace rows, every field
but ``time_s`` (floats by their exact hex form), then its ``meta`` (sorted
keys, floats by hex), then the bytes of ``x_final``, then the ``trace.csv``
the trace writes with ``f_star = f_final`` (so with a ``rel_gap`` column)
and its ``time_s`` fields blanked, so that the CSV writer's formatting is
gated too.  Compare a checkout
with a clone of its parent commit::

    python3 tools/trace_digest.py --against /path/to/parent-clone

``--against`` computes that checkout's digests in a subprocess (this
script with ``--src``, so both sides run this script's ``RUNS``) while this
one computes its own, prints each run whose digest differs and how many are
equal, and exits 1 if any differs.  Without it the script prints one line
per run.  ``--src`` names a checkout or its ``src`` directory; the package
is imported from there.  The runs are the 4
solvers at 64x64 on impulse-l1 at ``tau`` 1e6 and 1.0, gaussian-sd-tv at
``tau`` 0.01 (also with ``alpha_max`` 5) and synthetic-quadratic-l1 for 80
outer iterations, then synthetic-quadratic-l1 for 200, at ``L0`` 1 and 0.1.
The 200-iteration runs reach what the others never do: every stop reason
(both iPila variants stop ``stationary``, i2Piano and iISTA on ``d_k``)
and, at ``L0 = 0.1``, backtracking in i2Piano and iISTA.  At
``alpha_max`` 5, iPila's line search steps short of ``y`` on a problem with
a forward pass.  The last run, synthetic-quadratic-l1 for 80 outer
iterations with every other solver setting off its default, comes near
stationarity with ``tau`` 2, where the prox engine must stay at ``x``
rather than step to a point whose certified decrease is zero.
"""

from __future__ import annotations

import argparse
import hashlib
import numbers
import subprocess
import sys
import tempfile
from pathlib import Path

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve()
                                             .parent.parent / "src"),
                        help="checkout or src directory to import from")
    parser.add_argument("--against", metavar="PATH",
                        help="checkout to compare with; exit 1 if any "
                             "digest differs")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if (src / "src" / "inertiafb").is_dir():
        src = src / "src"
    if not (src / "inertiafb").is_dir():
        parser.error(f"no inertiafb package under {src}")
    sys.path.insert(0, str(src))
    if args.against is None:
        for label, solver, digest in digests():
            print(f"{label:36s} {solver:16s} {digest}")
        return 0

    with subprocess.Popen([sys.executable, __file__, "--src", args.against],
                          stdout=subprocess.PIPE, text=True) as other:
        try:
            ours = {(label, solver): digest
                    for label, solver, digest in digests()}
            out, _ = other.communicate()
        finally:
            other.kill()  # a no-op once it has exited; the exit waits for it
    if other.returncode:
        return other.returncode
    theirs = {}
    for line in out.splitlines():
        *label, solver, digest = line.split()
        theirs[(" ".join(label), solver)] = digest
    differ = [run for run in {**ours, **theirs}
              if ours.get(run) != theirs.get(run)]
    for label, solver in differ:
        print(f"differs: {label} {solver}")
    print(f"{len(ours) - len(differ)} of {len(ours)} runs equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
