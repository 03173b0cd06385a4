"""Hostile settings end in a clean exit.

A fixed ``random.Random(1)`` draws 300 in-process ``run`` commands, each on
a random problem and solver at size 8 or 16 with ``max_outer 4``, setting
1-3 numeric keys to extreme values.  A command fails on a traceback, a
NumPy warning, more than one stderr line or an exit code outside 0/2/3/4.
"""

import contextlib
import io
import random
import traceback
import warnings

from inertiafb.cli import (DEFAULTS, PROBLEMS, SOLVER_KEYS, SOLVERS,
                           TEXT_KEYS, main)

VALUES = ("0", "-1", "5e-324", "1e-300", "1e308", "nan", "inf")
# every numeric key of a run but the two the slice sets
KEYS = sorted((DEFAULTS.keys() | SOLVER_KEYS.keys() | {"f_star"})
              - TEXT_KEYS - {"size", "max_outer"})


def hostile_commands(out, seed=1, count=300):
    rng = random.Random(seed)
    for _ in range(count):
        argv = ["run", "--problem", rng.choice(PROBLEMS),
                "--solver", rng.choice(SOLVERS),
                "--size", rng.choice(("8", "16")), "--max_outer", "4",
                "--out", str(out)]
        for key in rng.sample(KEYS, rng.randint(1, 3)):
            argv += [f"--{key}", rng.choice(VALUES)]
        yield argv


def test_hostile_settings_exit_cleanly(tmp_path):
    failures, codes = [], set()
    for argv in hostile_commands(tmp_path / "run"):
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except (Exception, SystemExit):
                code = traceback.format_exc()
        lines = err.getvalue().splitlines()
        codes.add(code)
        if code not in (0, 2, 3, 4) or caught or len(lines) > 1:
            failures.append((" ".join(argv[1:]), code, lines[:2],
                             [f"{w.filename}:{w.lineno}: {w.message}"
                              for w in caught[:2]]))
    assert not failures, failures
    assert {0, 2, 3} <= codes  # the slice reaches each kind of ending
