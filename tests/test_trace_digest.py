import importlib.util
from pathlib import Path

import numpy as np

from inertiafb import cli

_PATH = Path(__file__).resolve().parent.parent / "tools" / "trace_digest.py"
_spec = importlib.util.spec_from_file_location("trace_digest", _PATH)
trace_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_digest)


def test_digests_repeat_and_cover_every_run():
    first = trace_digest.digests(size=16, iters=5)
    assert first == trace_digest.digests(size=16, iters=5)
    assert len(first) == 16
    assert len({d for _, _, d in first}) == 16


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
