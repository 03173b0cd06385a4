import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", _ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_SPECS = [{"name": "ms", "better": "lower", "bound": 0.25},
          {"name": "score", "better": "higher", "bound": 0.25}]


def _line(ms, score=1.0, failed=0):
    """A perfbench result line, as ``perfbench/run.py`` prints it."""
    return {"result": {"correct": failed == 0, "attempted": 24,
                       "failed": failed,
                       "metrics": {"ms": {"value": ms, "unit": "ms"},
                                   "score": {"value": score,
                                             "unit": "ratio"}}},
            "notes": {}}


def _pairs(parent, change):
    return [{"seed": i, "parent": _line(p), "change": _line(c)}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_summary_counts_medians_quartiles_and_ties():
    parent = [4.0, 4.1, 4.2, 4.0, 4.3]
    change = [3.7, 3.8, 4.2, 3.6, 3.9]
    entry = bench_pairs.summarize(_pairs(parent, change), _SPECS)["ms"]
    assert entry["parent_median"] == 4.1 and entry["change_median"] == 3.8
    assert entry["parent_q1_q3"] == [4.0, 4.2]
    assert entry["change_q1_q3"] == [3.7, 3.9]
    assert entry["parent_min_max"] == [4.0, 4.3]
    assert (entry["change_lower_in"], entry["ties"], entry["pairs"]) \
        == (4, 1, 5)
    assert entry["ratio"] == pytest.approx(3.8 / 4.1)
    # a tie counts for neither side: 4 of 5 is below nine tenths
    assert entry["verdict"] == "within bound"


def test_gain_needs_nine_tenths_and_a_gap_beyond_the_parent_iqr():
    parent = [4.0 + 0.02 * i for i in range(10)]
    change = [p - 0.4 for p in parent]
    summary = bench_pairs.summarize(_pairs(parent, change), _SPECS)
    assert summary["ms"]["verdict"] == "gain"
    # nine of ten pairs still gain; eight do not
    for won, want in ((9, "gain"), (8, "within bound")):
        mixed = change[:won] + parent[won:]
        assert bench_pairs.summarize(_pairs(parent, mixed), _SPECS)[
            "ms"]["verdict"] == want
    # every pair lower, but by less than the parent's interquartile range
    close = [p - 0.01 for p in parent]
    entry = bench_pairs.summarize(_pairs(parent, close), _SPECS)["ms"]
    assert entry["change_lower_in"] == 10
    assert entry["verdict"] == "within bound"


def test_worse_and_unresolved_follow_the_bound():
    parent = [4.0, 4.1, 4.0, 4.1]
    worse = bench_pairs.summarize(_pairs(parent, [5.2] * 4), _SPECS)["ms"]
    assert worse["verdict"] == "worse"
    wide = [2.0, 6.0, 2.5, 5.5]  # parent IQR above 25% of its median
    entry = bench_pairs.summarize(_pairs(wide, [4.0, 4.5, 4.2, 4.6]),
                                  _SPECS)["ms"]
    assert entry["verdict"] == "unresolved"
    # unless every change run reads better than every parent run; the
    # median gap is still inside the parent's IQR, so it is no gain
    entry = bench_pairs.summarize(_pairs(wide, [1.0, 1.5, 1.2, 1.9]),
                                  _SPECS)["ms"]
    assert entry["verdict"] == "within bound"


def test_higher_is_better_metrics_count_the_other_way():
    pairs = [{"seed": i, "parent": _line(4.0, score=1.0 + 0.01 * i),
              "change": _line(4.0, score=1.5 + 0.01 * i)} for i in range(10)]
    summary = bench_pairs.summarize(pairs, _SPECS)
    assert summary["score"]["change_lower_in"] == 0
    assert summary["score"]["verdict"] == "gain"
    assert summary["ms"]["ties"] == 10
    assert summary["ms"]["verdict"] == "within bound"


def test_operations_add_up_failures_per_side():
    pairs = _pairs([4.0, 4.0], [3.0, 3.0])
    pairs[1]["change"] = _line(3.0, failed=2)
    ops = bench_pairs.operations(pairs)
    assert ops["parent"] == {"attempted": 48, "failed": 0,
                             "all_correct": True}
    assert ops["change"] == {"attempted": 48, "failed": 2,
                             "all_correct": False}


def test_missing_values_and_failed_operations_get_no_gain():
    """A run that fails reports ``None`` for what it could not measure:
    the summary covers the values there are, and a metric with a gap
    reads ``missing``; a change with more failed operations gains
    nothing."""
    parent = [4.0 + 0.02 * i for i in range(10)]
    pairs = [{"seed": i, "parent": _line(p),
              "change": _line(p - 0.4, score=1.5)}
             for i, p in enumerate(parent)]
    pairs[3]["change"] = _line(None, score=1.5, failed=1)
    summary = bench_pairs.summarize(pairs, _SPECS)
    ms = summary["ms"]
    assert ms["verdict"] == "missing"
    assert ms["missing"] == {"parent": 0, "change": 1}
    present = [p - 0.4 for i, p in enumerate(parent) if i != 3]
    assert ms["change_median"] == pytest.approx(statistics.median(present))
    assert ms["change_min_max"] == [min(present), max(present)]
    assert (ms["change_lower_in"], ms["ties"]) == (9, 0)
    # the score is better in every pair, but one change operation failed
    assert summary["score"]["change_lower_in"] == 0
    assert summary["score"]["verdict"] == "within bound"
    pairs[3]["change"] = _line(3.9, score=1.5)
    assert bench_pairs.summarize(pairs, _SPECS)["score"]["verdict"] == "gain"


def test_run_keeps_every_error_line(monkeypatch):
    stdout = ("# seed: 7\n# error: first failure\n# error: second: detail\n"
              + json.dumps(_line(4.0)["result"]) + "\n")

    def fake_subprocess_run(cmd, **kwargs):
        assert cmd[-8:] == ["--workload", "w", "--seed", "7", "--seconds",
                            "45", "--trace", "0"]
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    run = bench_pairs._run(_ROOT, "w", 7, 45)
    assert run["notes"] == {"seed": "7"}
    assert run["errors"] == ["first failure", "second: detail"]
    assert run["result"] == _line(4.0)["result"]


def _fake_parent(tmp_path):
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    return parent


def test_main_alternates_sides_and_keeps_every_result_line(monkeypatch,
                                                            tmp_path):
    bench = json.loads((_ROOT / "BENCHMARK.json").read_text())
    names = [spec["name"] for spec in bench["end_to_end"]]
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout, seed, seconds, trace))
        value = 3.0 if checkout == _ROOT else 4.0
        return {"result": {"correct": True, "attempted": 24, "failed": 0,
                           "metrics": {n: {"value": value + seed, "unit": ""}
                                       for n in names}},
                "notes": {"seed": str(seed)}, "errors": []}

    def fake_cold_build(checkout, workload):
        assert workload == "w"
        cold.append(checkout)
        return 0.02 if checkout == _ROOT else 0.03

    cold = []
    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    monkeypatch.setattr(bench_pairs, "_cold_build", fake_cold_build)
    parent = _fake_parent(tmp_path)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--against", str(parent), "--workload", "w",
                             "--seed-base", "70", "--out", str(out)]) == 0
    seeds = range(70, 70 + bench_pairs.PAIRS)
    assert bench_pairs.PAIRS == 10
    # the run length is the benchmark's own; the traced run comes last
    assert calls == [
        (side, s, bench["run_seconds"], 0) for s in seeds
        for side in ((parent, _ROOT) if s % 2 == 0 else (_ROOT, parent))] \
        + [(_ROOT, 70, bench["run_seconds"], 1)]
    # one cold build after each paired run, in that run's checkout
    assert cold == [c for c, _, _, trace in calls if not trace]
    record = json.loads(out.read_text())
    assert [p["first"] for p in record["pairs"]] == ["parent", "change"] * 5
    assert [p[side] for p in record["pairs"] for side in ("parent", "change")] \
        == [dict(fake_run(c, "w", s, 45), cold_build_s=fake_cold_build(c, "w"))
            for s in seeds for c in (parent, _ROOT)]
    assert list(record["summary"]) == names + ["cold_build_s", "slowdown",
                                               "as_timed"]
    assert all(record["summary"][n]["change_lower_in"] == 10 for n in names)
    assert record["summary"]["cold_build_s"] == {"parent_median": 0.03,
                                                 "change_median": 0.02}
    # these runs note no slowdown and no as-timed timings
    assert record["summary"]["slowdown"] == {"parent_median": None,
                                             "change_median": None}
    assert record["summary"]["as_timed"] == {}


def test_main_keeps_the_pairs_run_before_a_run_fails(monkeypatch, tmp_path):
    names = [spec["name"] for spec in json.loads(
        (_ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_run(checkout, workload, seed, seconds, trace=0):
        if seed == 72:
            raise subprocess.CalledProcessError(1, "perfbench/run.py")
        return {"result": {"correct": True, "attempted": 24, "failed": 0,
                           "metrics": {n: {"value": 1.0, "unit": ""}
                                       for n in names}},
                "notes": {}, "errors": []}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    monkeypatch.setattr(bench_pairs, "_cold_build", lambda c, w: 0.02)
    out = tmp_path / "bench.json"
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.main(["--against", str(_fake_parent(tmp_path)),
                          "--workload", "w", "--seed-base", "70",
                          "--out", str(out)])
    record = json.loads(out.read_text())
    assert [p["seed"] for p in record["pairs"]] == [70, 71]
    assert record["operations"]["change"]["attempted"] == 48
    assert record["summary"]["setup_s"]["pairs"] == 2


def _traced_main(monkeypatch, tmp_path, traced_result, traced_errors):
    """``main`` with every paired run correct and the traced run returning
    ``traced_result`` and ``traced_errors``; its exit code and record."""
    names = [spec["name"] for spec in json.loads(
        (_ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_run(checkout, workload, seed, seconds, trace=0):
        if trace:
            assert (checkout, seed) == (_ROOT, 70)
            return {"result": traced_result, "notes": {},
                    "errors": traced_errors}
        return {"result": {"correct": True, "attempted": 24, "failed": 0,
                           "metrics": {n: {"value": 1.0, "unit": ""}
                                       for n in names}},
                "notes": {}, "errors": []}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    monkeypatch.setattr(bench_pairs, "_cold_build", lambda c, w: 0.02)
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--against", str(_fake_parent(tmp_path)),
                             "--workload", "w", "--seed-base", "70",
                             "--out", str(out)])
    return code, json.loads(out.read_text())


def test_main_stores_a_correct_traced_run(monkeypatch, tmp_path):
    code, record = _traced_main(
        monkeypatch, tmp_path,
        {"correct": True, "attempted": 48, "failed": 0, "metrics": {}}, [])
    assert code == 0
    assert record["traced"] == {"seed": 70, "correct": True, "failed": 0,
                                "errors": []}
    assert len(record["pairs"]) == bench_pairs.PAIRS


def test_main_exits_1_when_the_traced_run_is_not_correct(monkeypatch,
                                                         tmp_path, capsys):
    # a change that drops a span perfbench requires reads correct in
    # every --trace 0 run and fails only the traced one
    error = "layer problem.power_iteration recorded no spans"
    code, record = _traced_main(
        monkeypatch, tmp_path,
        {"correct": False, "attempted": 48, "failed": 0, "metrics": {}},
        [error])
    assert code == 1
    assert record["traced"] == {"seed": 70, "correct": False, "failed": 0,
                                "errors": [error]}
    assert record["operations"]["change"]["all_correct"]
    assert f"# error: {error}" in capsys.readouterr().out


def test_run_passes_the_trace_flag(monkeypatch):
    def fake_subprocess_run(cmd, **kwargs):
        assert cmd[-2:] == ["--trace", "1"]
        return subprocess.CompletedProcess(
            cmd, 0, stdout=json.dumps(_line(4.0)["result"]) + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    assert bench_pairs._run(_ROOT, "w", 7, 45, trace=1)["result"] \
        == _line(4.0)["result"]


def test_cold_build_times_one_build_in_a_fresh_interpreter(monkeypatch,
                                                          tmp_path):
    def fake_subprocess_run(cmd, **kwargs):
        assert cmd[:3] == [sys.executable, "-B", "-c"]
        assert cmd[3] == bench_pairs._COLD_BUILD and cmd[4:] == ["w"]
        assert kwargs["cwd"] == tmp_path and kwargs["check"]
        return subprocess.CompletedProcess(cmd, 0, stdout="0.0215\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    assert bench_pairs._cold_build(tmp_path, "w") == 0.0215


def test_cold_build_keeps_the_fastest_of_five_fresh_interpreters(
        monkeypatch, tmp_path):
    # a bimodal build time: the slow mode must not reach cold_build_s
    times = iter(["0.0203\n", "0.0121\n", "0.0197\n", "0.0124\n",
                  "0.0210\n"])
    calls = []

    def fake_subprocess_run(cmd, **kwargs):
        assert cmd == [sys.executable, "-B", "-c", bench_pairs._COLD_BUILD,
                       "w"]
        assert kwargs["cwd"] == tmp_path and kwargs["check"]
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout=next(times))

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    assert bench_pairs.COLD_BUILDS == 5
    assert bench_pairs._cold_build(tmp_path, "w") == 0.0121
    assert len(calls) == 5


def test_cold_build_script_builds_a_workload_problem():
    # the script reads the workload from this checkout's perfbench/run.py
    seconds = bench_pairs._cold_build(_ROOT, "tv-tight-prox")
    assert 0.0 < seconds < 60.0


def test_summary_takes_cold_build_medians_without_a_verdict():
    pairs = _pairs([4.0, 4.1, 4.2], [3.0, 3.1, 3.2])
    for pair, (p, c) in zip(pairs, [(0.03, 0.02), (0.05, 0.01),
                                    (0.04, None)]):
        pair["parent"]["cold_build_s"] = p
        pair["change"]["cold_build_s"] = c
    cold = bench_pairs.summarize(pairs, _SPECS)["cold_build_s"]
    assert cold == {"parent_median": 0.04, "change_median": 0.015}
    # pairs from before the cold build was timed have none
    assert bench_pairs.summarize(_pairs([4.0], [3.0]), _SPECS)[
        "cold_build_s"] == {"parent_median": None, "change_median": None}


def _noted(line, slowdown, timed):
    """``line`` with perfbench's ``# slowdown:`` note and its as-timed
    ``# ms_per_iter.<solver>:`` notes."""
    line["notes"] = {
        "slowdown": f"{slowdown} (reference kernel against its nominal 8.0 "
                    f"ms); timings below are divided by it",
        **{f"ms_per_iter.{solver}": f"as timed {ms} ms, p95 {2 * ms} ms "
                                    f"over 180 iterations, each the fastest "
                                    f"of 9 rounds"
           for solver, ms in timed.items()}}
    return line


def test_summary_takes_slowdown_and_as_timed_medians_without_a_verdict():
    pairs = _pairs([4.0, 4.1, 4.2], [3.0, 3.1, 3.2])
    notes = [((0.57, {"i2piano": 0.452, "iista": 0.41}),
              (0.61, {"i2piano": 0.426, "iista": 0.40})),
             ((0.88, {"i2piano": 0.484, "iista": 0.43}),
              (0.55, {"i2piano": 0.428, "iista": 0.38})),
             ((0.70, {"i2piano": 0.468, "iista": 0.42}),
              (0.66, {"i2piano": 0.405, "iista": 0.39}))]
    for pair, (parent, change) in zip(pairs, notes):
        _noted(pair["parent"], *parent)
        _noted(pair["change"], *change)
    summary = bench_pairs.summarize(pairs, _SPECS)
    assert summary["slowdown"] == {"parent_median": 0.70,
                                   "change_median": 0.61}
    assert summary["as_timed"] == {
        "ms_per_iter.i2piano": {"parent_median": 0.468,
                                "change_median": 0.426},
        "ms_per_iter.iista": {"parent_median": 0.42, "change_median": 0.39}}
    # the notes add no verdict and leave the metrics' entries alone
    plain = bench_pairs.summarize(_pairs([4.0, 4.1, 4.2], [3.0, 3.1, 3.2]),
                                  _SPECS)
    assert [summary[spec["name"]] for spec in _SPECS] \
        == [plain[spec["name"]] for spec in _SPECS]
    assert "verdict" not in summary["slowdown"]
    # a run without the notes counts for neither median
    pairs[2]["change"]["notes"] = {}
    summary = bench_pairs.summarize(pairs, _SPECS)
    assert summary["slowdown"]["change_median"] == pytest.approx(0.58)
    assert summary["as_timed"]["ms_per_iter.i2piano"]["change_median"] \
        == pytest.approx(0.427)


def test_main_prints_the_informational_medians(monkeypatch, tmp_path,
                                               capsys):
    names = [spec["name"] for spec in json.loads(
        (_ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_run(checkout, workload, seed, seconds, trace=0):
        slow = 0.5 if checkout == _ROOT else 0.6
        return _noted({"result": {"correct": True, "attempted": 24,
                                  "failed": 0,
                                  "metrics": {n: {"value": 1.0, "unit": ""}
                                              for n in names}},
                       "errors": []}, slow, {"i2piano": slow / 2})

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    monkeypatch.setattr(bench_pairs, "_cold_build", lambda c, w: 0.02)
    assert bench_pairs.main(["--against", str(_fake_parent(tmp_path)),
                             "--workload", "w", "--seed-base", "70",
                             "--out", str(tmp_path / "bench.json")]) == 0
    out = capsys.readouterr().out
    assert "slowdown: median 0.6 -> 0.5 (informational, no verdict)" in out
    assert ("ms_per_iter.i2piano as timed: median 0.3 -> 0.25 "
            "(informational, no verdict)") in out
    assert "cold_build_s: median 0.02 -> 0.02 (informational" in out
