"""Judge criterion 9 on an ensemble of starting points, not on one run.

Criterion 9 (``tests/test_acceptance.py``) runs the four solvers for 20000
iterations on impulse-l1 at the CLI defaults and judges two clauses:

- clause a: iPila-strict reaches relative gap 1e-4, with no more cumulative
  inner iterations than i2Piano when i2Piano reaches it too;
- clause b: iPila-strict and i2Piano reach gap 1e-3 in fewer outer
  iterations than iISTA, which may never reach it.

Each gap is ``(f - f_star) / f_star`` with ``f_star`` the smallest final
``f`` of the four runs.  Those crossings move by hundreds of iterations
when ``x0`` changes in its last bits, so one run says little about a change
that moves a solver's bits.  Draw ``j`` of this script builds the same
problem and starts all four solvers from ``x0 * (1 + j * 1e-13)``; draw 0
is criterion 9's own run.  It prints each draw's criterion-9 line as the
draws finish, then the min/median/max of each crossing over the draws
("never" counts as later than any iteration) and how many draws pass each
clause::

    python3 tools/crit9_ensemble.py --draws 10 [--src /path/to/checkout]

The runs go to worker processes, at most one per CPU.  ``--src`` names a
checkout or its ``src`` directory, and the package is imported from there,
so this one script judges a clone of a parent commit too.  The ensemble is
evidence, not a gate: the script judges no wall-time budget and exits 0
whatever the clauses say.  Ten draws take 5 to 7 minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

SOLVERS = ("i2piano", "ipila-strict", "ipila-practical", "iista")
SIZE = 64
ITERS = 20000
STEP = 1e-13  # draw j scales x0 by 1 + j * STEP


def _add_src(src: str) -> None:
    if src not in sys.path:
        sys.path.insert(0, src)


def _solve(job):
    """One solver run of one draw: ``(j, solver, f per row, inner
    iterations per row, final f)``."""
    j, solver, size, iters = job
    from inertiafb import cli

    cfg = dict(cli.DEFAULTS, problem="impulse-l1", size=str(size),
               max_outer=str(iters), solver=solver)
    problem, x0, _ = cli.build_problem(cfg)
    trace = cli.run_solver(problem, x0 * (1.0 + j * STEP), cfg)
    return (j, solver, np.array(trace.column("f")),
            np.array(trace.column("inner_iters")),
            float(trace.rows[-1]["f"]))


def ensemble(draws: int, src: str, size: int = SIZE, iters: int = ITERS):
    """Yields ``(j, runs)`` for each draw in order, ``runs`` mapping each
    solver to ``(f, inner_iters, f_final)``; the package is imported from
    ``src`` in every worker."""
    jobs = [(j, s, size, iters) for j in range(draws) for s in SOLVERS]
    runs = {}
    with ProcessPoolExecutor(
            max_workers=min(len(jobs), os.cpu_count() or 1),
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_add_src, initargs=(src,)) as pool:
        for j, solver, f, inner, f_final in pool.map(_solve, jobs):
            runs[solver] = (f, inner, f_final)
            if len(runs) == len(SOLVERS):
                yield j, runs
                runs = {}


def crossing(f, inner, f_star: float, gap: float):
    """``(outer index, cumulative inner iterations)`` of the first row whose
    relative gap ``(f - f_star) / f_star`` is at most ``gap``; None when no
    row reaches it."""
    hits = np.flatnonzero((f - f_star) / f_star <= gap)
    if hits.size == 0:
        return None
    k = int(hits[0])
    return k, int(inner[:k + 1].sum())


def judge(runs: dict, f_star=None) -> dict:
    """Criterion 9's crossings and clauses for one draw; ``f_star`` is the
    smallest final ``f`` of ``runs`` unless given."""
    if f_star is None:
        f_star = min(f_final for _, _, f_final in runs.values())
    ipila = crossing(*runs["ipila-strict"][:2], f_star, 1e-4)
    i2p_fine = crossing(*runs["i2piano"][:2], f_star, 1e-4)
    outer = {}
    for name in ("ipila-strict", "i2piano", "iista"):
        hit = crossing(*runs[name][:2], f_star, 1e-3)
        outer[name] = hit[0] if hit else None
    iista_k = math.inf if outer["iista"] is None else outer["iista"]
    return {
        "f_star": f_star,
        "ipila_fine": ipila and ipila[1],
        "i2piano_fine": i2p_fine and i2p_fine[1],
        "budget": int(runs["i2piano"][1].sum()),
        "outer": outer,
        "a": ipila is not None and (i2p_fine is None
                                    or ipila[1] <= i2p_fine[1]),
        "b": all(outer[name] is not None and outer[name] < iista_k
                 for name in ("ipila-strict", "i2piano")),
    }


def _fmt(value) -> str:
    return "never" if value is None or value == math.inf else f"{value:.10g}"


def line(j: int, v: dict) -> str:
    """Draw ``j``'s criterion-9 line, with its ``f_star``."""
    failed = [c for c in "ab" if not v[c]]
    verdict = f"FAIL clause {' and '.join(failed)}" if failed else "PASS"
    out = v["outer"]
    return (f"draw {j}: {verdict} - f_star {v['f_star']!r}; inner iters to "
            f"gap 1e-4: ipila {_fmt(v['ipila_fine'])} vs i2piano "
            f"{_fmt(v['i2piano_fine'])} (budget {v['budget']}); outer iters "
            f"to gap 1e-3: ipila {_fmt(out['ipila-strict'])}, i2piano "
            f"{_fmt(out['i2piano'])}, iista {_fmt(out['iista'])}")


def summary(verdicts: list) -> list:
    """Lines with the min/median/max of each crossing over ``verdicts``,
    "never" as infinity, and the count of draws that pass each clause."""
    series = {
        "f_star": [v["f_star"] for v in verdicts],
        "ipila inner iters to 1e-4": [v["ipila_fine"] for v in verdicts],
        "i2piano inner iters to 1e-4": [v["i2piano_fine"] for v in verdicts],
        "i2piano inner iters in all": [v["budget"] for v in verdicts],
    }
    for name in ("ipila-strict", "i2piano", "iista"):
        series[f"{name} outer iters to 1e-3"] = [v["outer"][name]
                                                 for v in verdicts]
    out = []
    for name, xs in series.items():
        xs = [math.inf if x is None else x for x in xs]
        out.append(f"{name}: min {_fmt(min(xs))}, median "
                   f"{_fmt(statistics.median(xs))}, max {_fmt(max(xs))}")
    n = len(verdicts)
    out.append(f"clause a: {sum(v['a'] for v in verdicts)} of {n} draws; "
               f"clause b: {sum(v['b'] for v in verdicts)} of {n} draws; "
               f"both: {sum(v['a'] and v['b'] for v in verdicts)} of {n}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, required=True)
    parser.add_argument("--src", default=str(Path(__file__).resolve()
                                             .parent.parent / "src"),
                        help="checkout or src directory to import from")
    args = parser.parse_args(argv)
    if args.draws < 1:
        parser.error("--draws must be at least 1")
    src = Path(args.src).resolve()
    if (src / "src" / "inertiafb").is_dir():
        src = src / "src"
    if not (src / "inertiafb").is_dir():
        parser.error(f"no inertiafb package under {src}")
    verdicts = []
    for j, runs in ensemble(args.draws, str(src)):
        verdicts.append(judge(runs))
        print(line(j, verdicts[-1]), flush=True)
    for text in summary(verdicts):
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
