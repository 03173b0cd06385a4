"""Run perfbench on two checkouts in alternating pairs and judge each metric.

The one harness for a speed claim.  Compare a checkout with a clone of its
parent commit::

    python3 tools/bench_pairs.py --against /path/to/parent-clone \\
        --workload tv-tight-prox --seed-base 701 --out BENCH_x.json

Pair ``i`` of ``PAIRS`` runs ``perfbench/run.py --workload W --seed B+i
--seconds S --trace 0`` in each checkout, one run at a time, the parent
first when ``i`` is even; ``S`` is ``run_seconds`` of this checkout's
``BENCHMARK.json``.  Every run's result line (the last line it prints) is
kept, with its ``# key: value`` lines and its ``# error:`` lines, and
``--out`` is rewritten after each pair, so a failing run loses none of the
pairs before it.  For each end-to-end metric that ``BENCHMARK.json`` lists,
the summary holds both medians and quartiles, the ratio of the medians, the
pairs in which the change read lower and the ties, and a verdict:

- ``missing``: some run reported no value for the metric; the statistics
  cover the values there are;
- ``gain``: the change reads better in at least nine tenths of the pairs,
  ties counting for neither, its median is better than the parent's by
  more than the parent's interquartile range, and no more of its
  operations failed than the parent's;
- ``worse``: its median is worse than the parent's by more than the
  metric's bound;
- ``unresolved``: none of these, and the parent's interquartile range is
  wider than the bound, unless every change run reads better than every
  parent run;
- ``within bound``: otherwise.

After each run the script also times ``COLD_BUILDS`` cold builds in the
same checkout: the workload's problem at perfbench's 64x64 size, CLI
defaults otherwise, each built once in its own fresh interpreter after its
imports.  perfbench's ``setup_s`` is a median over the builds of one
process, so it misses what only a process's first build pays, such as the
blur norm's power iteration.  The fastest of those builds is kept as
``cold_build_s`` next to the run's result, since one cold build reads
bimodally, and the summary adds each side's median under ``cold_build_s``.
Next to it go each side's median ``slowdown``, the reference kernel's
reading that perfbench divides every timing by, under ``slowdown``, and
each side's median of the undivided ``ms_per_iter.*`` that perfbench notes
as timed, under ``as_timed``.  These medians are informational and get no
verdict.

The script prints one line per metric when all pairs are done.  It then
runs the change once more with ``--trace 1`` at the first seed, which also
checks that every layer perfbench requires still records spans, stores
that run's ``correct``, ``failed`` and ``# error:`` lines under ``traced``
in ``--out``, and exits 1 when the run is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # the fewest pairs the nine-tenths rule can judge
COLD_BUILDS = 5  # fresh interpreters per run; the fastest build is kept
SIDES = ("parent", "change")


def _run(checkout: Path, workload: str, seed: int, seconds: float,
         trace: int = 0) -> dict:
    """One perfbench run: its result line, its ``# key: value`` lines and
    its ``# error:`` lines."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    notes, errors = {}, []
    for line in lines[:-1]:
        if line.startswith("# error: "):
            errors.append(line[len("# error: "):])
        elif line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            notes[key] = value
    return {"result": json.loads(lines[-1]), "notes": notes,
            "errors": errors}


# importing perfbench/run.py pins the BLAS threads as a perfbench run does
_COLD_BUILD = """
import sys, time
sys.path[:0] = ["perfbench", "src"]
import run
from inertiafb import cli
cfg = dict(cli.DEFAULTS, problem=run.WORKLOADS[sys.argv[1]]["problem"],
           size=run.SIZE)
start = time.perf_counter()
cli.build_problem(cfg)
print(time.perf_counter() - start)
"""


def _cold_build(checkout: Path, workload: str) -> float:
    """Seconds the fastest of ``COLD_BUILDS`` cold builds of ``workload``'s
    problem takes in ``checkout``, each in a fresh interpreter."""
    times = []
    for _ in range(COLD_BUILDS):
        out = subprocess.run(
            [sys.executable, "-B", "-c", _COLD_BUILD, workload],
            cwd=checkout, capture_output=True, text=True, check=True).stdout
        times.append(float(out.splitlines()[-1]))
    return min(times)


def _quartiles(xs):
    if len(xs) == 1:
        return [xs[0], xs[0]]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q3]


def verdict(entry: dict, better: str, bound: float,
            more_failed: bool = False) -> str:
    """The ``gain`` / ``worse`` / ``unresolved`` / ``within bound`` rule
    of the module docstring for one metric's summary ``entry`` with every
    value present; ``more_failed`` says that more of the change's
    operations failed than the parent's."""
    lower = better == "lower"
    parent, change = entry["parent_median"], entry["change_median"]
    pairs, ties = entry["pairs"], entry["ties"]
    wins = entry["change_lower_in"] if lower \
        else pairs - ties - entry["change_lower_in"]
    q1, q3 = entry["parent_q1_q3"]
    gap = parent - change if lower else change - parent  # > 0: better
    if wins >= 0.9 * pairs and gap > q3 - q1 and not more_failed:
        return "gain"
    if -gap > bound * abs(parent):
        return "worse"
    (c_lo, c_hi), (p_lo, p_hi) = entry["change_min_max"], \
        entry["parent_min_max"]
    every_run_better = c_hi < p_lo if lower else c_lo > p_hi
    if q3 - q1 > bound * abs(parent) and not every_run_better:
        return "unresolved"
    return "within bound"


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per metric of ``end_to_end`` (``BENCHMARK.json``'s entries), the
    medians, quartiles and extremes of the values reported over ``pairs``,
    the runs that reported none, the lower-in and tie counts over the pairs
    with both values, and the verdict; then, with no verdict, each side's
    median cold build under ``cold_build_s``, median ``slowdown`` under
    ``slowdown`` and median as-timed ``ms_per_iter.*`` under ``as_timed``."""
    ops = operations(pairs)
    more_failed = ops["change"]["failed"] > ops["parent"]["failed"]
    summary = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [pair[side]["result"]["metrics"][name]["value"]
                         for pair in pairs]
                  for side in SIDES}
        entry = {"pairs": len(pairs),
                 "missing": {side: xs.count(None)
                             for side, xs in values.items()}}
        for side, xs in values.items():
            xs = [x for x in xs if x is not None]
            entry[f"{side}_median"] = statistics.median(xs) if xs else None
            entry[f"{side}_q1_q3"] = _quartiles(xs) if xs else None
            entry[f"{side}_min_max"] = [min(xs), max(xs)] if xs else None
        both = [(a, b) for a, b in zip(values["parent"], values["change"])
                if a is not None and b is not None]
        entry["change_lower_in"] = sum(b < a for a, b in both)
        entry["ties"] = sum(b == a for a, b in both)
        entry["ratio"] = (entry["change_median"] / entry["parent_median"]
                          if entry["parent_median"]
                          and entry["change_median"] is not None else None)
        entry["verdict"] = (
            "missing" if any(entry["missing"].values())
            else verdict(entry, spec["better"], spec["bound"], more_failed))
        summary[name] = entry
    summary["cold_build_s"] = _side_medians(
        pairs, lambda run: run.get("cold_build_s"))
    summary["slowdown"] = _side_medians(
        pairs, lambda run: _note_number(run, "slowdown"))
    timed = dict.fromkeys(key for pair in pairs for side in SIDES
                          for key in pair[side].get("notes", {})
                          if key.startswith("ms_per_iter."))
    summary["as_timed"] = {
        key: _side_medians(pairs, lambda run, key=key: _note_number(run, key))
        for key in timed}
    return summary


def _note_number(run: dict, key: str):
    """The number that ``run``'s ``# key: value`` note starts with, after
    an ``as timed`` label; None without the note."""
    note = run.get("notes", {}).get(key)
    if note is None:
        return None
    return float(note.removeprefix("as timed ").split()[0])


def _side_medians(pairs: list, value) -> dict:
    """Each side's median of ``value(run)`` over the runs where it is not
    None; None where no run has one."""
    out = {}
    for side in SIDES:
        xs = [x for x in (value(pair[side]) for pair in pairs)
              if x is not None]
        out[f"{side}_median"] = statistics.median(xs) if xs else None
    return out


def operations(pairs: list) -> dict:
    """Attempted and failed operations per side, and whether every run
    reported ``correct``."""
    out = {}
    for side in SIDES:
        results = [pair[side]["result"] for pair in pairs]
        out[side] = {"attempted": sum(r["attempted"] for r in results),
                     "failed": sum(r["failed"] for r in results),
                     "all_correct": all(r["correct"] for r in results)}
    return out


def _fmt(x) -> str:
    return "none" if x is None else f"{x:.6g}"


def _revision(checkout: Path):
    done = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="PARENT",
                        help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    parent = Path(args.against).resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {parent}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    record = {
        "harness": f"tools/bench_pairs.py: perfbench/run.py --workload "
                   f"{args.workload} --seed {args.seed_base}+i --seconds "
                   f"{seconds:g} --trace 0, one run at a time, the parent "
                   f"first on even pairs i, each run followed by the fastest "
                   f"of {COLD_BUILDS} cold builds, each in a fresh "
                   f"interpreter; then the change once "
                   f"with --seed {args.seed_base} --trace 1",
        "workload": args.workload,
        "revisions": {"parent": _revision(parent), "change": _revision(ROOT)},
        "operations": None, "summary": None, "pairs": [], "traced": None}
    pairs = record["pairs"]
    for i in range(PAIRS):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            checkout = parent if side == "parent" else ROOT
            pair[side] = _run(checkout, args.workload, seed, seconds)
            pair[side]["cold_build_s"] = _cold_build(checkout, args.workload)
        pairs.append(pair)
        record["operations"] = operations(pairs)
        record["summary"] = summarize(pairs, bench["end_to_end"])
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
        print(f"# pair {i + 1}/{PAIRS} seed {seed} done", flush=True)

    summary = dict(record["summary"])
    informational = {"cold_build_s": summary.pop("cold_build_s"),
                     "slowdown": summary.pop("slowdown")}
    informational.update((f"{key} as timed", medians) for key, medians
                         in summary.pop("as_timed").items())
    for name, e in summary.items():
        if e["verdict"] == "missing":
            print(f"{name}: no value in {e['missing']['parent']} parent and "
                  f"{e['missing']['change']} change runs: missing")
            continue
        print(f"{name}: median {e['parent_median']:.6g} -> "
              f"{e['change_median']:.6g}, parent quartiles "
              f"{e['parent_q1_q3'][0]:.6g}..{e['parent_q1_q3'][1]:.6g}, "
              f"change lower in {e['change_lower_in']} of {e['pairs']} "
              f"({e['ties']} ties): {e['verdict']}")
    for name, e in informational.items():
        print(f"{name}: median {_fmt(e['parent_median'])} -> "
              f"{_fmt(e['change_median'])} (informational, no verdict)")
    ops = record["operations"]
    print(f"failed operations: parent {ops['parent']['failed']} of "
          f"{ops['parent']['attempted']}, change {ops['change']['failed']} "
          f"of {ops['change']['attempted']}")

    run = _run(ROOT, args.workload, args.seed_base, seconds, trace=1)
    traced = record["traced"] = {"seed": args.seed_base,
                                 "correct": run["result"]["correct"],
                                 "failed": run["result"]["failed"],
                                 "errors": run["errors"]}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for line in traced["errors"]:
        print(f"# error: {line}")
    print(f"traced run of the change, seed {args.seed_base}: correct "
          f"{traced['correct']}, {traced['failed']} failed operations")
    return 0 if traced["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
