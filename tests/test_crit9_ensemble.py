import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from inertiafb import cli
from tests.test_acceptance import _crossing

_ROOT = Path(__file__).resolve().parent.parent
SIZE, ITERS = 16, 200


@pytest.fixture(scope="module")
def crit9_ensemble():
    # imported by name, so that its spawned workers can unpickle _solve
    sys.path.insert(0, str(_ROOT / "tools"))
    try:
        import crit9_ensemble
        yield crit9_ensemble
    finally:
        sys.path.remove(str(_ROOT / "tools"))


def _criterion_9(traces, f_star):
    # test_criterion_09's clauses, on its own _crossing
    ipila = _crossing(traces["ipila-strict"], f_star, 1e-4)
    i2p_fine = _crossing(traces["i2piano"], f_star, 1e-4)
    outer = {}
    for name in ("ipila-strict", "i2piano", "iista"):
        hit = _crossing(traces[name], f_star, 1e-3)
        outer[name] = hit[0] if hit else None
    iista_k = outer["iista"] if outer["iista"] is not None else math.inf
    return {
        "f_star": f_star,
        "ipila_fine": ipila and ipila[1],
        "i2piano_fine": i2p_fine and i2p_fine[1],
        "budget": sum(traces["i2piano"].column("inner_iters")),
        "outer": outer,
        "a": ipila is not None and (i2p_fine is None
                                    or ipila[1] <= i2p_fine[1]),
        "b": all(outer[name] is not None and outer[name] < iista_k
                 for name in ("ipila-strict", "i2piano")),
    }


def _traces(j):
    # draw j built in this process, as criterion 9 builds draw 0
    out = {}
    for solver in ("i2piano", "ipila-strict", "ipila-practical", "iista"):
        cfg = dict(cli.DEFAULTS, problem="impulse-l1", size=str(SIZE),
                   max_outer=str(ITERS), solver=solver)
        problem, x0, _ = cli.build_problem(cfg)
        out[solver] = cli.run_solver(problem, x0 * (1.0 + j * 1e-13), cfg)
    return out


def test_draws_follow_criterion_9s_rules(crit9_ensemble):
    draws = list(crit9_ensemble.ensemble(2, str(_ROOT / "src"), size=SIZE,
                                         iters=ITERS))
    assert [j for j, _ in draws] == [0, 1]
    seen = set()
    for j, runs in draws:
        traces = _traces(j)
        for solver, (f, inner, f_final) in runs.items():
            t = traces[solver]
            assert f.tobytes() == np.array(t.column("f")).tobytes()
            assert inner.tolist() == t.column("inner_iters")
            assert f_final == t.rows[-1]["f"]
        f_min = min(t.rows[-1]["f"] for t in traces.values())
        assert crit9_ensemble.judge(runs) == _criterion_9(traces, f_min)
        # at this size iISTA outpaces i2Piano, so clause b also runs on the
        # solvers relabelled: i2Piano's run in iISTA's place
        relabel = {"i2piano": "ipila-practical",
                   "ipila-strict": "ipila-strict",
                   "ipila-practical": "iista", "iista": "i2piano"}
        for names in ({s: s for s in runs}, relabel):
            new_runs = {s: runs[names[s]] for s in runs}
            new_traces = {s: traces[names[s]] for s in runs}
            # stubbed f_star values that move every crossing, into the run
            # and past its end
            f_i2p = new_traces["i2piano"].column("f")
            for f_star in (f_min * (1 - 5e-4), f_min * (1 - 2e-3), f_i2p[20],
                           f_i2p[120], new_traces["iista"].column("f")[60]):
                got = crit9_ensemble.judge(new_runs, f_star)
                assert got == _criterion_9(new_traces, f_star)
                seen.add((got["a"], got["b"], got["outer"]["iista"] is None))
    # both clauses pass and fail, and iISTA both crosses and never does
    assert {a for a, _, _ in seen} == {b for _, b, _ in seen} \
        == {n for _, _, n in seen} == {True, False}
    # draw 1 starts from other bits than draw 0
    assert draws[0][1]["i2piano"][0].tobytes() \
        != draws[1][1]["i2piano"][0].tobytes()


def test_a_gap_equal_to_the_threshold_is_crossed(crit9_ensemble):
    # exact in binary: (1.5 - 1) / 1 is 0.5
    f, inner = [3.0, 2.0, 1.5, 1.25], [2, 0, 5, 1]
    trace = SimpleNamespace(rows=[{"f": a, "inner_iters": b}
                                  for a, b in zip(f, inner)])
    for gap, want in ((0.5, (2, 7)), (0.25, (3, 8)), (0.2, None)):
        assert crit9_ensemble.crossing(np.array(f), np.array(inner), 1.0,
                                       gap) == _crossing(trace, 1.0, gap) \
            == want


def test_lines_and_summary_count_never_as_latest(crit9_ensemble):
    verdicts = [
        {"f_star": 10.0, "ipila_fine": 40, "i2piano_fine": None,
         "budget": 90, "outer": {"ipila-strict": 5, "i2piano": 7,
                                 "iista": None}, "a": True, "b": True},
        {"f_star": 12.5, "ipila_fine": 60, "i2piano_fine": 50,
         "budget": 80, "outer": {"ipila-strict": 9, "i2piano": 8,
                                 "iista": 8}, "a": False, "b": False},
        {"f_star": 11.0, "ipila_fine": None, "i2piano_fine": 70,
         "budget": 70, "outer": {"ipila-strict": 6, "i2piano": 9,
                                 "iista": None}, "a": False, "b": True},
    ]
    assert crit9_ensemble.line(0, verdicts[0]) == (
        "draw 0: PASS - f_star 10.0; inner iters to gap 1e-4: ipila 40 vs "
        "i2piano never (budget 90); outer iters to gap 1e-3: ipila 5, "
        "i2piano 7, iista never")
    assert crit9_ensemble.line(1, verdicts[1]).startswith(
        "draw 1: FAIL clause a and b - f_star 12.5;")
    assert crit9_ensemble.summary(verdicts) == [
        "f_star: min 10, median 11, max 12.5",
        "ipila inner iters to 1e-4: min 40, median 60, max never",
        "i2piano inner iters to 1e-4: min 50, median 70, max never",
        "i2piano inner iters in all: min 70, median 80, max 90",
        "ipila-strict outer iters to 1e-3: min 5, median 6, max 9",
        "i2piano outer iters to 1e-3: min 7, median 8, max 9",
        "iista outer iters to 1e-3: min 8, median never, max never",
        "clause a: 1 of 3 draws; clause b: 2 of 3 draws; both: 1 of 3"]
