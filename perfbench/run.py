#!/usr/bin/env python3
"""inertiafb benchmark: end-to-end and per-layer solver cost.

Run from the root of a checkout:

    python3 perfbench/run.py --workload impulse-l1-oracle --seed 0 \\
        --seconds 30 --trace 0

Each run solves a fixed set of problem instances derived from ``--seed``
with all four solvers at a fixed outer-iteration budget, repeating the set
in as many rounds as ``--seconds`` allows at nominal speed.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` spends half the time untraced and half
with spans recorded around every layer boundary (``spans.py``), and prints
the per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Workload rationale and
the metric map are in ``perfbench/README.md``.
"""

import os

# pinned before NumPy loads, so that BLAS/OpenMP pools add no threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import layers
import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SOLVERS = ("i2piano", "ipila-strict", "ipila-practical", "iista")
ITERS = 30        # outer-iteration budget of every solver run
INSTANCES = 6     # problem instances per round; their seeds derive from --seed
SIZE = "64"

# round_s: nominal length of one round on a 2-vCPU Xeon VM
WORKLOADS = {
    "impulse-l1-oracle": {"problem": "impulse-l1", "tau": "1e6",
                          "round_s": 5},
    "tv-tight-prox": {"problem": "gaussian-sd-tv", "tau": "0.01",
                      "round_s": 7.5},
}

E2E_UNITS = {"setup_s": "s", "suite_wall_s": "s"}
E2E_UNITS.update({f"ms_per_iter.{s}": "ms" for s in SOLVERS})
E2E_UNITS.update({f"f_final.{s}": "f/f_init" for s in SOLVERS})


LAYER_UNITS = {"us_per_call": "us", "us_per_inner": "us", "ms": "ms",
               "flops_per_call": "flop", "bytes_per_call": "B",
               "calls_per_iter": "count", "inner_per_call": "count",
               "evals_per_call": "count"}


def _layer_unit(name):
    """Unit from the metric's last non-solver part; shares are ratios."""
    parts = name.split(".")
    tail = parts[-2] if parts[-1] in SOLVERS else parts[-1]
    return LAYER_UNITS.get(tail, "ratio")


class Samples:
    """Everything one measurement phase observed.

    Timings are kept per unit of identical work, one entry per round: build
    times and pass walls per instance, per-iteration times per (instance,
    solver).  Every round repeats exactly the same computation, so the
    fastest repeat is the cost without interference from other load on the
    machine, which on a shared VM slows whole stretches of seconds.
    """

    def __init__(self):
        self.setup_s = defaultdict(list)
        self.iter_ms = defaultdict(list)
        self.walls = defaultdict(list)
        self.ref_ms = defaultdict(list)
        self.f_final = {}
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def gauge(self, ref, j):
        """One reference-kernel sample per solver slot of instance ``j``."""
        for solver in SOLVERS:
            self.ref_ms[j, solver].append(ref.ms())

    def op_failed(self, what):
        self.failed += 1
        self.errors.append(what)

    def record_f(self, key, tr):
        """Final objective relative to the starting one; must repeat."""
        f = tr.rows[-1]["f"] / tr.meta["f_init"]
        if key in self.f_final and self.f_final[key] != f:
            self.errors.append(f"f_final of {key} changed between rounds: "
                               f"{self.f_final[key]!r} then {f!r}")
        self.f_final[key] = f


def _instance_cfg(cli, wl, seed, j):
    cfg = dict(cli.DEFAULTS)
    cfg.update(problem=wl["problem"], tau=wl["tau"], size=SIZE,
               seed=str(seed * INSTANCES + j), max_outer=str(ITERS))
    return cfg


def _check_trace(tr, certify, trace_mod, tmp):
    """Why the run does not count as a certified success, or ``None``."""
    if len(tr.rows) != ITERS:
        return f"{len(tr.rows)} rows, expected {ITERS}"
    if not all(math.isfinite(r["f"]) for r in tr.rows):
        return "non-finite objective"
    if not certify.summarize(tr).ok:
        return "certify.summarize overall=fail"
    path = tmp / "trace.csv"
    tr.write_csv(path)
    if not certify.summarize(trace_mod.Trace.read_csv(path)).ok:
        return "written trace.csv does not certify"
    return None


def _iter_ms(tr):
    times = [0.0] + [r["time_s"] for r in tr.rows]
    return [1e3 * (b - a) for a, b in zip(times, times[1:])]


def solo_instance(mods, wl, seed, j, samples, tmp):
    """The four solvers one after another on one thread."""
    cli, certify, trace_mod = mods["cli"], mods["certify"], mods["trace"]
    cfg = _instance_cfg(cli, wl, seed, j)
    samples.gauge(mods["ref"], j)
    done = []
    start = time.perf_counter()
    for solver in SOLVERS:
        c = dict(cfg, solver=solver)
        samples.attempted += 1
        try:
            t0 = time.perf_counter()
            problem, x0, _ = cli.build_problem(c)
            t1 = time.perf_counter()
            tr = cli.run_solver(problem, x0, c)
            t2 = time.perf_counter()
        except Exception as exc:
            samples.op_failed(f"{solver} instance {j}: "
                              f"{type(exc).__name__}: {exc}")
            continue
        samples.setup_s[j].append(t1 - t0)
        done.append((solver, tr, t2 - t1))
    wall = time.perf_counter() - start
    for solver, tr, solve_s in done:
        why = _check_trace(tr, certify, trace_mod, tmp)
        if why is None and tr.rows[-1]["time_s"] > solve_s:
            why = f"trace time {tr.rows[-1]['time_s']} s exceeds timed solve"
        if why:
            samples.op_failed(f"{solver} instance {j}: {why}")
            continue
        samples.iter_ms[j, solver].append(_iter_ms(tr))
        samples.record_f((j, solver), tr)
    if len(done) == len(SOLVERS):
        samples.walls[j].append(wall)


def measure(mods, wl, seed, seconds, tmp):
    """Solves the instance set in ``seconds / round_s`` rounds (at least 1).

    The round count follows from ``seconds``, not from how fast the machine
    runs, so every run takes the fastest of the same number of repeats.
    Only on a machine far slower than nominal does the run stop early, after
    the round that passes ``1.25 * seconds``.
    """
    samples = Samples()
    start = time.perf_counter()
    for _ in range(max(1, int(seconds // wl["round_s"]))):
        for j in range(INSTANCES):
            solo_instance(mods, wl, seed, j, samples, tmp)
        samples.rounds += 1
        if time.perf_counter() - start > 1.25 * seconds:
            break
    return samples


def _median(values):
    return statistics.median(values) if values else None


def _p95(values):
    return statistics.quantiles(values, n=20)[-1] if len(values) > 1 else None


def iteration_ms(samples, solver):
    """Fastest repeat of each (instance, iteration) of one solver."""
    out = []
    for j in range(INSTANCES):
        out.extend(min(col) for col in zip(*samples.iter_ms[j, solver]))
    return out


def slowdown(samples):
    """Reference-kernel time over its nominal, taken with the timings'
    estimator."""
    ref = _median([min(v) for v in samples.ref_ms.values()])
    return ref / reference.NOMINAL_MS


def _scaled(value, factor):
    return None if value is None else value / factor


def e2e_metrics(samples):
    """Each timing is the median over distinct work of its fastest repeat,
    divided by the run's ``slowdown``."""
    k = slowdown(samples)
    out = {"setup_s": _scaled(_median(
               [min(v) for v in samples.setup_s.values()]), k),
           "suite_wall_s": _scaled(_median(
               [min(v) for v in samples.walls.values()]), k)}
    for s in SOLVERS:
        out[f"ms_per_iter.{s}"] = _scaled(
            _median(iteration_ms(samples, s)), k)
        fs = [samples.f_final.get((j, s)) for j in range(INSTANCES)]
        out[f"f_final.{s}"] = (None if None in fs
                               else math.fsum(fs) / INSTANCES)
    return out


def _steal_jiffies():
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(steal0, steal1):
    steal = None
    if steal0 and steal1 and steal1[1] > steal0[1]:
        steal = (steal1[0] - steal0[0]) / (steal1[1] - steal0[1])
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "steal_share": steal,
            "blas_threads": os.environ["OMP_NUM_THREADS"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "inertiafb" / "__init__.py").is_file():
        print(f"inertiafb sources not found under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from inertiafb import certify, cli
    from inertiafb import trace as trace_mod
    import spans

    mods = {"cli": cli, "certify": certify, "trace": trace_mod,
            "ref": reference.Reference()}
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    steal0 = _steal_jiffies()
    try:
        if args.trace == 0:
            samples = measure(mods, wl, args.seed, args.seconds, tmp)
            values = e2e_metrics(samples)
            units = E2E_UNITS
            errors = list(samples.errors)
            phases = [samples]
        else:
            plain = measure(mods, wl, args.seed, args.seconds / 2, tmp)
            rec = spans.Recorder()
            with spans.instrumented(rec):
                traced = measure(mods, wl, args.seed, args.seconds / 2, tmp)
            base, with_spans = e2e_metrics(plain), e2e_metrics(traced)
            ms = [(base[f"ms_per_iter.{s}"], with_spans[f"ms_per_iter.{s}"])
                  for s in SOLVERS]
            overhead = None
            if None not in sum(ms, ()):
                overhead = sum(t for _, t in ms) / sum(b for b, _ in ms)
            wall_total = sum(sum(v) for v in traced.walls.values())
            values = layers.metrics(rec.spans, wall_total, overhead)
            units = {k: _layer_unit(k) for k in values}
            extra = (("problem.power_iteration",) if wl["problem"] == "impulse-l1"
                     else ("imaging.gradop_matvec", "imaging.gradop_rmatvec"))
            errors = plain.errors + traced.errors + layers.check(rec.spans,
                                                                 extra)
            for s in SOLVERS:
                if base[f"f_final.{s}"] != with_spans[f"f_final.{s}"]:
                    errors.append(f"f_final.{s} differs with tracing on")
            phases = [plain, traced]
            rec.write_csv(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env = environment(steal0, _steal_jiffies())
    k = slowdown(phases[-1])

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = failed == 0 and not errors and None not in values.values()
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}}

    for key, value in env.items():
        print(f"# {key}: {value}")
    print(f"# rounds: {[p.rounds for p in phases]}, instances per round: "
          f"{INSTANCES}, iterations per solver run: {ITERS}")
    for err in errors:
        print("# error: " + err.strip().replace("\n", " | "))
    if args.trace == 0:
        print(f"# slowdown: {k} (reference kernel against its nominal "
              f"{reference.NOMINAL_MS} ms); timings below are divided by it")
        for s in SOLVERS:
            ms = iteration_ms(samples, s)
            print(f"# ms_per_iter.{s}: as timed {_median(ms)} ms, p95 "
                  f"{_p95(ms)} ms over {len(ms)} iterations, each the "
                  f"fastest of {samples.rounds} rounds")
        print(f"# setup_s over {sum(map(len, samples.setup_s.values()))} "
              f"builds, suite_wall_s over "
              f"{sum(map(len, samples.walls.values()))} passes")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']} {metric['unit']}")
    with open(OUT / f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "environment": env, "slowdown": k,
                   "errors": errors, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
