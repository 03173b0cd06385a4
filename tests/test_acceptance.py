"""End-to-end acceptance gate.

Each test implements one numbered acceptance criterion and prints a single
``criterion N: PASS/FAIL`` line (to the real stdout, past pytest's capture)
before asserting.  Criteria 2, 5, 6 and 9 share one long benchmark suite on
the 64x64 impulse-noise deblurring problem; running it dominates the wall
time of this module.
"""

import math
import time

import numpy as np
import pytest

from inertiafb import cli, imaging
from inertiafb.certify import check, coupling
from inertiafb.i2piano import I2PianoConfig, i2piano_solve
from inertiafb.iista import IistaConfig, iista_solve
from inertiafb.ipila import IPilaConfig, ipila_solve, phi_value
from inertiafb.problem import (CompositeProblem, ZeroFunction,
                               adjoint_residual, check_gradient,
                               power_iteration_sq_norm)
from inertiafb.prox_engine import solve_inexact_prox, theta_from_tau
from inertiafb.trace import Trace, csv_equal_ignoring_time
from tests.conftest import prox_query, quadratic_l1_problem, xi_term


def _report(capfd, num: int, ok: bool, detail: str) -> None:
    # pytest captures at file-descriptor level, so the per-criterion line
    # must be emitted with capture suspended to reach the real stdout
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capfd.disabled():
        print(line, flush=True)


BENCH_ITERS = 20000
BENCH_SOLVERS = ("i2piano", "ipila-strict", "ipila-practical", "iista")


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """Long-horizon benchmark suite on the 64x64 impulse-noise problem."""
    out = tmp_path_factory.mktemp("bench")
    t0 = time.monotonic()
    code = cli.main(["fstar", "--problem", "impulse-l1", "--size", "64",
                     "--fstar_iters", str(BENCH_ITERS), "--out", str(out)])
    wall = time.monotonic() - t0
    assert code == 0
    traces = {name: Trace.read_csv(out / name / "trace.csv")
              for name in BENCH_SOLVERS}
    lines = (out / "fstar.txt").read_text().splitlines()
    f_star = float(lines[0].split("=")[1])
    return {"traces": traces, "f_star": f_star, "wall": wall, "dir": out}


@pytest.fixture(scope="module")
def quad_traces():
    """Moderate solver runs on the convex smoke problem, kept in memory so
    the rows still carry the prox candidate step norms."""
    p, _, _ = quadratic_l1_problem(n=50, seed=21)
    x0 = np.zeros(50)
    return {
        "i2piano": i2piano_solve(p, x0, I2PianoConfig(max_outer=150)),
        "ipila-strict": ipila_solve(
            p, x0, cfg=IPilaConfig(variant="strict-alg3", max_outer=150)),
        "ipila-practical": ipila_solve(
            p, x0, cfg=IPilaConfig(variant="practical-sec5", max_outer=150)),
        "iista": iista_solve(p, x0, IistaConfig(max_outer=150, L0=10.0)),
    }


def _soft(u, t):
    return np.sign(u) * np.maximum(np.abs(u) - t, 0.0)


def test_criterion_01_engine_matches_soft_threshold_oracle(capfd):
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(50):
        p, b, _ = quadratic_l1_problem(n=100, seed=1000 + trial, weight=0.3)
        rng = np.random.default_rng(2000 + trial)
        x = rng.standard_normal(100)
        q = prox_query(p, x, x, 1.0, 0.0, 0.0, abs_tol=1e-10, max_inner=5000)
        res = solve_inexact_prox(p, q)
        assert res.ok
        ref = _soft(b, 0.3)  # xbar = x - (x - b) = b
        worst = max(worst, float(np.max(np.abs(res.y_tilde - ref))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(capfd, 1, ok, f"50 instances, worst componentwise error {worst:.2e}, "
            f"{elapsed:.2f}s")
    assert ok


def test_criterion_02_inexactness_certificates(capfd, bench, quad_traces):
    # direct engine calls: replay both certificates on the returned point
    worst = 0.0
    for trial in range(20):
        p, _, _ = quadratic_l1_problem(n=40, seed=3000 + trial)
        rng = np.random.default_rng(4000 + trial)
        x = rng.standard_normal(40)
        s = rng.standard_normal(40)
        tau = (0.0, 1.0, 1e6)[trial % 3]
        q = prox_query(p, x, s, 0.6, 0.2, tau, abs_tol=1e-12)
        res = solve_inexact_prox(p, q)
        theta = theta_from_tau(tau)
        d = res.y_tilde - x
        dist = (theta / (2.0 * 0.6)) * float(d @ d)
        scale = 1.0 + abs(res.h_value)
        worst = max(worst, res.h_value / scale,
                    (dist + res.h_value) / scale - 1e-10)
        if res.converged == "gap" and tau > 0:
            assert res.h_value <= (2.0 / (2.0 + tau)) * res.psi_value
    # trace-level replay on every accepted point of the long and smoke runs
    bad = []
    for name, trace in {**bench["traces"], **quad_traces}.items():
        r = check(trace, "prox")
        if r.status != "pass":
            bad.append(f"{name}:{r.status}@k={r.worst_k}")
    ok = worst <= 1e-10 and not bad
    _report(capfd, 2, ok, f"worst direct residual {worst:.2e}; trace replays "
            + ("all pass" if not bad else ",".join(bad)))
    assert ok


def test_criterion_03_weak_duality_every_inner_iterate(capfd, bench, quad_traces):
    worst = -math.inf
    count = 0

    def hook(l, h, psi):
        nonlocal worst, count
        count += 1
        worst = max(worst, (psi - h) / (1.0 + abs(h)))

    for trial in range(30):
        p, _, _ = quadratic_l1_problem(n=60, seed=5000 + trial)
        rng = np.random.default_rng(6000 + trial)
        x = rng.standard_normal(60)
        q = prox_query(p, x, x, 0.8, 0.1, (0.0, 2.0, 1e6)[trial % 3],
                       abs_tol=1e-11)
        solve_inexact_prox(p, q, inner_hook=hook)
    bad = [name for name, t in {**bench["traces"], **quad_traces}.items()
           if check(t, "duality-gap").status == "fail"]
    ok = worst <= 1e-10 and count > 0 and not bad
    _report(capfd, 3, ok, f"{count} inner iterates, worst psi-h residual "
            f"{worst:.2e}; trace replays " +
            ("all pass" if not bad else ",".join(bad)))
    assert ok


def test_criterion_04_parameter_identities_random_tuples(capfd):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        L = 10.0 ** rng.uniform(-2, 4)
        gamma = 10.0 ** rng.uniform(-8, -2)
        delta = gamma * 10.0 ** rng.uniform(0, 3)
        tau = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-2, 6)
        omega = rng.uniform(0.0, 1.0) if tau > 0 else rng.uniform(0.0, 1.0001)
        omega = min(omega, 1.0 if tau == 0 else 0.999999)
        cfg = I2PianoConfig(delta=delta, gamma=gamma, tau=tau, omega=omega)
        alpha, beta = coupling("i2piano", L, cfg)
        top = 1.0 + cfg.theta * omega
        # residuals measured relative to the magnitude of the terms in the
        # identity; the terms scale with L, so an absolute reading of the
        # tolerance would demand sub-machine precision at large L
        r1 = abs(top / (2 * alpha) - L / 2 - beta / (2 * alpha) - delta) \
            / (1.0 + top / (2 * alpha) + L / 2)
        r2 = abs(delta - beta / (2 * alpha) - gamma) \
            / (1.0 + delta + beta / (2 * alpha))
        r3 = abs(alpha - (top - 2 * beta) / (L + 2 * gamma)) / (1.0 + alpha)
        worst = max(worst, r1, r2, r3)
    worst_theta = max(
        abs(theta_from_tau(t)
            - 1.0 / (math.sqrt(1.0 + t / 2.0) + math.sqrt(t / 2.0)) ** 2)
        for t in [0.0, 1e-6, 0.5, 1.0, 37.0, 1e3, 1e6])
    ok = worst <= 1e-12 and worst_theta <= 1e-15
    _report(capfd, 4, ok, f"1000 tuples, worst identity residual {worst:.2e}, "
            f"theta consistency {worst_theta:.2e}")
    assert ok


def test_criterion_05_merit_certification_on_benchmark(capfd, bench):
    failures = []
    for name in ("i2piano", "ipila-strict", "ipila-practical"):
        trace = bench["traces"][name]
        assert len(trace) >= 2000
        for r in (check(trace, "H1"), check(trace, "prox")):
            if r.status != "pass":
                failures.append(f"{name}:{r.name}@k={r.worst_k}")
        phis = trace.column("phi")
        drops = [b - a - 1e-9 * (1 + abs(a)) for a, b in zip(phis, phis[1:])]
        if drops and max(drops) > 0:
            failures.append(f"{name}:phi-increase")
    ok = not failures
    _report(capfd, 5, ok, "H1 + prox certificates on 20000-iteration runs "
            + ("clean" if ok else ",".join(failures)))
    assert ok


def test_criterion_06_armijo_soundness(capfd, bench, quad_traces):
    failures = []
    lam_min = math.inf
    bt_max = 0
    for name in ("ipila-strict", "ipila-practical"):
        for trace in (bench["traces"][name], quad_traces[name]):
            lams = [v for v in trace.column("lambda_k") if math.isfinite(v)]
            if lams:
                lam_min = min(lam_min, min(lams))
            bt_max = max(bt_max, max(trace.column("backtracks")))
            r = check(trace, "armijo")
            if r.status != "pass":
                failures.append(f"{name}:{r.status}")
    # direct re-evaluation of the accepted inequality on a fresh run
    p, _, _ = quadratic_l1_problem(n=30, seed=31)
    seen = []
    ipila_solve(p, np.zeros(30), cfg=IPilaConfig(max_outer=80),
                on_step=lambda k, st, new: seen.append((st, new)))
    worst = 0.0
    for st, new in seen:
        if new.accepted_branch == "stationary":
            continue
        lhs = phi_value(p, new.x_curr, new.s_curr)
        rhs = st.phi + 1e-4 * new.lambda_k * new.delta_k
        worst = max(worst, (lhs - rhs) / (1.0 + abs(st.phi)))
    ok = (not failures and lam_min > 0.0 and bt_max <= 60
          and worst <= 1e-9)
    _report(capfd, 6, ok, f"min lambda {lam_min:.3g}, max halvings {bt_max}, "
            f"re-evaluated inequality residual {worst:.2e}")
    assert ok


def test_criterion_07_gradient_checks(capfd):
    shape = (8, 8)
    reg = imaging.log_filter_regularizer(0.08, shape)
    preg = CompositeProblem(
        reg, xi_term(ZeroFunction(), 64))
    blur = imaging.gaussian_kernel(3, 1.0)
    op = imaging.ConvOperator(blur, blur, (5, 5))
    rng = np.random.default_rng(8)
    g = np.abs(rng.standard_normal(25)) + 1.0
    fid = imaging.gaussian_sd_fidelity(op, g, a=0.01, c=1.0)
    pfid = CompositeProblem(
        fid, xi_term(ZeroFunction(), 25))
    worst = 0.0
    for trial in range(20):
        x = 50.0 * rng.standard_normal(64)
        worst = max(worst, check_gradient(preg, x, seed=trial).max_rel_error)
        x = np.abs(rng.standard_normal(25)) + 0.5
        worst = max(worst, check_gradient(pfid, x, seed=trial).max_rel_error)
    ok = worst <= 1e-4
    _report(capfd, 7, ok, f"20 random points each oracle, worst relative error "
            f"{worst:.2e}")
    assert ok


def test_criterion_08_adjoints_and_operator_norm(capfd):
    rng = np.random.default_rng(9)
    worst = 0.0
    for shape, ksize in (((64, 64), 5), ((32, 48), 3), ((17, 9), 5)):
        blur = imaging.gaussian_kernel(ksize, 1.0)
        op = imaging.ConvOperator(blur, blur, shape)
        worst = max(worst, adjoint_residual(op, rng))
    worst = max(worst, adjoint_residual(imaging.GradOp((64, 64)), rng))
    tv_norm = power_iteration_sq_norm(imaging.GradOp((64, 64)), iters=200)
    ok = worst <= 1e-12 and tv_norm <= 8.01
    _report(capfd, 8, ok, f"worst adjoint residual {worst:.2e}, TV norm estimate "
            f"{tv_norm:.4f}")
    assert ok


def _crossing(trace, f_star, gap):
    """(outer index, cumulative inner iterations) of the first row with
    relative gap at most ``gap``; None when never reached."""
    cum = 0
    for k, row in enumerate(trace.rows):
        cum += row["inner_iters"]
        if (row["f"] - f_star) / f_star <= gap:
            return k, cum
    return None


def test_criterion_09_qualitative_convergence_ordering(capfd, bench):
    f_star = bench["f_star"]
    ipila = _crossing(bench["traces"]["ipila-strict"], f_star, 1e-4)
    i2p_fine = _crossing(bench["traces"]["i2piano"], f_star, 1e-4)
    inner_budget = sum(bench["traces"]["i2piano"].column("inner_iters"))
    clause_a = ipila is not None and (
        i2p_fine is None or ipila[1] <= i2p_fine[1])

    outer = {}
    for name in ("ipila-strict", "i2piano", "iista"):
        hit = _crossing(bench["traces"][name], f_star, 1e-3)
        outer[name] = hit[0] if hit else None
    iista_k = outer["iista"] if outer["iista"] is not None else math.inf
    clause_b = all(
        outer[name] is not None and outer[name] < iista_k
        for name in ("ipila-strict", "i2piano"))

    budget_ok = bench["wall"] < 600.0

    def fmt(v):
        return "never" if v is None else str(v)

    detail = (f"inner iters to gap 1e-4: ipila "
              f"{fmt(ipila and ipila[1])} vs i2piano "
              f"{fmt(i2p_fine and i2p_fine[1])} (budget {inner_budget}); "
              f"outer iters to gap 1e-3: ipila {fmt(outer['ipila-strict'])}, "
              f"i2piano {fmt(outer['i2piano'])}, iista {fmt(outer['iista'])}; "
              f"suite wall {bench['wall']:.0f}s")
    ok = clause_a and clause_b and budget_ok
    _report(capfd, 9, ok, detail)
    assert clause_a, "iPila-strict should reach gap 1e-4, and with no more " \
        "cumulative inner iterations than i2Piano when i2Piano reaches it too"
    assert budget_ok, "suite exceeded the 10-minute budget"
    # The margin is thin.  i2Piano's step is (1 + theta*omega) /
    # (L_k + 4 delta - 2 gamma): 1/3 at L_k = L0 = 1 against iISTA's 1.
    # With L_k held at L0 (0 backtracks in 20000 iterations) i2Piano ends
    # at gap 3.3e-3.  With the shrinking estimate the CLI runs, L_k falls to
    # L_min, the step nears 1/2 and i2Piano crosses 1e-3 at iteration 19437;
    # iISTA ends at 1.0046e-3.
    assert clause_b, detail


def test_criterion_10_iterate_convergence_and_finite_length(capfd):
    p, _, ref = quadratic_l1_problem(n=40, seed=12)
    x0 = np.zeros(40)
    runs = {
        # d_k carries a sqrt(gamma) ~ 3e-3 factor relative to the step norm,
        # so the d_k threshold sits well below the 1e-8 step target
        "i2piano": i2piano_solve(
            p, x0, I2PianoConfig(max_outer=4000, stop_tol=1e-12)),
        "ipila": ipila_solve(
            p, x0, cfg=IPilaConfig(max_outer=4000, stop_tol=1e-12)),
        "iista": iista_solve(
            p, x0, IistaConfig(max_outer=4000, stop_tol=1e-9)),
    }
    failures = []
    for name, trace in runs.items():
        step = min(v for v in trace.column("x_step_norm")
                   if math.isfinite(v))
        err = float(np.max(np.abs(trace.x_final - ref)))
        d = [v for v in trace.column("d_k") if math.isfinite(v)]
        total = sum(d)
        tail = sum(d[3 * len(d) // 4:])
        plateau = total == 0.0 or tail <= 0.01 * total
        if step > 1e-8:
            failures.append(f"{name}:step={step:.1e}")
        if err > 1e-6:
            failures.append(f"{name}:err={err:.1e}")
        if not plateau:
            failures.append(f"{name}:tail={tail:.1e}/{total:.1e}")
    ok = not failures
    _report(capfd, 10, ok, "steps below 1e-8, minimizer error below 1e-6, d_k sums "
            "plateau" if ok else ",".join(failures))
    assert ok


def test_criterion_11_determinism(capfd, tmp_path):
    args = ("run", "--problem", "impulse-l1", "--size", "16",
            "--max_outer", "15", "--solver", "ipila-practical", "--seed", "4")
    assert cli.main(list(args) + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(list(args) + ["--out", str(tmp_path / "b")]) == 0
    same = csv_equal_ignoring_time(tmp_path / "a" / "trace.csv",
                                   tmp_path / "b" / "trace.csv")
    _report(capfd, 11, same, "repeated run byte-identical apart from timing")
    assert same
