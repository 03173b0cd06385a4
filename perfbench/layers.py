"""Per-layer metrics and reconciliation checks computed from recorded spans.

A span's self time is its duration minus the durations of its child spans;
children of one span run one after another on the parent's thread, so their
durations do not overlap.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

SOLVERS = ("i2piano", "ipila-strict", "ipila-practical", "iista")
IPILA = ("ipila-strict", "ipila-practical")

# layers that must record at least one span on every workload
REQUIRED = ("problem.f0_grad", "problem.f0_value", "problem.eval_f",
            "problem.f1_value", "imaging.conv_matvec", "imaging.conv_rmatvec",
            "prox_engine.solve", "ipila.armijo", "solver.solve",
            "cli.run_solver", "cli.build_problem", "trace.write_csv",
            "certify.summarize")


class _Layer:
    def __init__(self):
        self.count = 0
        self.dur = 0
        self.self_ns = 0
        self.durs = []
        self.per_solver = defaultdict(int)
        self.attrs = defaultdict(float)
        self.solver_attrs = defaultdict(lambda: defaultdict(float))


def _aggregate(spans):
    child_ns = defaultdict(int)
    for span_id, parent, run, name, start, end, attrs in spans:
        if parent is not None:
            child_ns[parent] += end - start
    runs = {span_id: attrs for span_id, _, _, name, _, _, attrs in spans
            if name == "cli.run_solver"}
    layers = defaultdict(_Layer)
    per_run = defaultdict(lambda: defaultdict(float))
    for span_id, parent, run, name, start, end, attrs in spans:
        layer = layers[name]
        dur = end - start
        layer.count += 1
        layer.dur += dur
        layer.self_ns += dur - child_ns[span_id]
        layer.durs.append(dur)
        solver = runs[run]["solver"] if run in runs else None
        layer.per_solver[solver] += 1
        for key, val in (attrs or {}).items():
            if isinstance(val, (int, float)):
                layer.attrs[key] += val
                layer.solver_attrs[solver][key] += val
        if run in runs:
            tally = per_run[run]
            tally[name] += 1
            if name == "prox_engine.solve":
                tally["inner"] += attrs["inner"]
            elif name == "ipila.armijo":
                tally["evals"] += attrs["evals"]
            elif name == "solver.solve":
                tally["solve_ns"] += dur
    return layers, runs, per_run


def check(spans, required_extra=()):
    """Returns a list of reconciliation failures (empty when all hold).

    Per solver run: prox calls equal iterations plus rejected prox calls
    (i2Piano, iISTA) or iterations (iPila, whose ``backtracks`` column counts
    Armijo halvings, so Armijo merit evaluations equal backtracks plus
    Armijo calls); summed ``ProxResult.inner_iters`` equals the trace's
    ``inner_iters`` column; the trace's last ``time_s`` fits inside the
    externally timed ``*_solve`` call.  Every required layer recorded spans.
    """
    layers, runs, per_run = _aggregate(spans)
    errors = []
    for name in REQUIRED + tuple(required_extra):
        if layers[name].count == 0:
            errors.append(f"layer {name} recorded no spans")
    seen = {attrs["solver"] for attrs in runs.values()}
    for solver in SOLVERS:
        if solver not in seen:
            errors.append(f"no traced run of {solver}")
    for run, attrs in runs.items():
        tally = per_run[run]
        solver = attrs["solver"]
        prox = int(tally["prox_engine.solve"])
        if solver in IPILA:
            if prox != attrs["iters"]:
                errors.append(f"{solver}: {prox} prox calls for "
                              f"{attrs['iters']} iterations")
            evals = int(tally["evals"])
            want = attrs["backtracks"] + int(tally["ipila.armijo"])
            if evals != want:
                errors.append(f"{solver}: {evals} Armijo evaluations, "
                              f"trace implies {want}")
        elif prox != attrs["iters"] + attrs["backtracks"]:
            errors.append(f"{solver}: {prox} prox calls for "
                          f"{attrs['iters']} iterations + "
                          f"{attrs['backtracks']} backtracks")
        if int(tally["inner"]) != attrs["inner"]:
            errors.append(f"{solver}: spans count {int(tally['inner'])} inner "
                          f"iterations, trace {attrs['inner']}")
        if attrs["time_s"] * 1e9 > tally["solve_ns"]:
            errors.append(f"{solver}: trace time {attrs['time_s']} s exceeds "
                          f"the timed solve call")
    return errors


def metrics(spans, pass_wall_total_s, overhead_ratio):
    """Per-layer metric values keyed by name (see ``perfbench/README.md``)."""
    layers, runs, _ = _aggregate(spans)
    iters = defaultdict(int)
    backtracks = defaultdict(int)
    inertial = defaultdict(int)
    for attrs in runs.values():
        iters[attrs["solver"]] += attrs["iters"]
        backtracks[attrs["solver"]] += attrs["backtracks"]
        inertial[attrs["solver"]] += attrs["inertial"]
    solve_ns = layers["solver.solve"].dur

    def ratio(num, den):
        return num / den if den else 0.0

    def per_iter(name, key=None, solvers=SOLVERS):
        return {f"{key or name}.calls_per_iter.{s}":
                ratio(layers[name].per_solver[s], iters[s]) for s in solvers}

    def us_per_call(name):
        return ratio(layers[name].dur, layers[name].count) / 1e3

    def median_ms(name):
        durs = layers[name].durs
        return statistics.median(durs) / 1e6 if durs else 0.0

    prox = layers["prox_engine.solve"]
    armijo = layers["ipila.armijo"]
    out = {}
    out.update(per_iter("problem.f0_grad"))
    out["problem.f0_grad.us_per_call"] = us_per_call("problem.f0_grad")
    out["problem.f0_grad.self_share"] = ratio(
        layers["problem.f0_grad"].self_ns, solve_ns)
    out.update(per_iter("problem.f0_value"))
    out["problem.f0_value.us_per_call"] = us_per_call("problem.f0_value")
    out.update(per_iter("problem.eval_f"))
    out.update(per_iter("problem.f1_value"))
    out["problem.power_iteration.setup_share"] = ratio(
        layers["problem.power_iteration"].dur, layers["cli.build_problem"].dur)
    for name in ("imaging.conv_matvec", "imaging.conv_rmatvec"):
        out.update(per_iter(name))
        out[f"{name}.us_per_call"] = us_per_call(name)
        out[f"{name}.flops_per_call"] = ratio(layers[name].attrs["flops"],
                                              layers[name].count)
        out[f"{name}.bytes_per_call"] = ratio(layers[name].attrs["bytes"],
                                              layers[name].count)
    out.update(per_iter("imaging.gradop_matvec"))
    out.update(per_iter("imaging.gradop_rmatvec"))
    out["imaging.gradop.solve_share"] = ratio(
        layers["imaging.gradop_matvec"].dur
        + layers["imaging.gradop_rmatvec"].dur, solve_ns)
    out.update(per_iter("prox_engine.solve", "prox_engine"))
    for s in SOLVERS:
        out[f"prox_engine.inner_per_call.{s}"] = ratio(
            prox.solver_attrs[s]["inner"], prox.per_solver[s])
    # per dual iterate evaluated, counting the starting iterate of each call
    out["prox_engine.us_per_inner"] = ratio(
        prox.dur, prox.attrs["inner"] + prox.count) / 1e3
    out["prox_engine.self_share"] = ratio(prox.self_ns, solve_ns)
    for s in SOLVERS:
        out[f"prox_engine.warm_hit_ratio.{s}"] = ratio(
            prox.solver_attrs[s]["warm"], prox.per_solver[s])
    out["prox_engine.maxiter_ratio"] = ratio(prox.attrs["maxiter"],
                                             prox.count)
    out.update(per_iter("ipila.armijo", solvers=IPILA))
    for s in IPILA:
        out[f"ipila.armijo.evals_per_call.{s}"] = ratio(
            armijo.solver_attrs[s]["evals"], armijo.per_solver[s])
        out[f"ipila.inertial_ratio.{s}"] = ratio(inertial[s], iters[s])
    for s in ("i2piano", "iista"):
        out[f"{s}.backtrack_ratio"] = ratio(backtracks[s],
                                            prox.per_solver[s])
    out["trace.write_csv.ms"] = median_ms("trace.write_csv")
    out["certify.summarize.ms"] = median_ms("certify.summarize")
    # one thread: the share of the sequential passes spent inside solves
    out["cli.suite.parallel_efficiency"] = ratio(solve_ns / 1e9,
                                                 pass_wall_total_s)
    out["tracing.overhead_ratio"] = overhead_ratio
    return out
