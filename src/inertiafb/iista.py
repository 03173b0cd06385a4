"""Inexact forward-backward baseline (iISTA).

Plain proximal-gradient iteration without inertia: ``alpha_k = 1/L_k``,
``beta_k = 0``, with the same inexact prox engine and the same local descent
test ``f0(y) <= f0(x) + <grad f0(x), y-x> + (L_k/2)||y-x||^2`` driving a
nondecreasing backtracking on ``L_k``.  Serves as the comparator against
the two inertial solvers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from inertiafb.problem import CompositeProblem, SolverError, eval_f
from inertiafb.prox_engine import ProxQuery, solve_inexact_prox
from inertiafb.trace import Trace


@dataclass
class IistaConfig:
    L0: float = 1.0
    eta: float = 1.5
    tau: float = 1e6
    L_max: float = 1e12
    max_outer: int = 1000
    stop_tol: float = 0.0
    max_inner: int = 2000
    abs_tol: Optional[float] = None

    def __post_init__(self):
        if self.eta <= 1:
            raise ValueError("eta must exceed 1")
        if self.L0 <= 0:
            raise ValueError("L0 must be positive")


def iista_solve(problem: CompositeProblem, x0: np.ndarray,
                cfg: Optional[IistaConfig] = None) -> Trace:
    """Run iISTA from ``x0`` and emit a trace.

    Stops when ``||x^{k+1} - x^k|| <= stop_tol`` or after ``max_outer``
    iterations; ``f`` is monotone nonincreasing along the iterates.
    """
    cfg = cfg or IistaConfig()
    x = np.asarray(x0, dtype=float)
    f_val = eval_f(problem, x)
    if not np.isfinite(f_val):
        raise ValueError("x0 must lie in dom(f1)")
    fwd = problem.f0.forward(x)
    f0x, f1x = problem.f0.value(x, fwd), problem.f1.value(x)
    L = cfg.L0
    warm = warm_mtw = None
    trace = Trace(meta={"solver": "iista", "L0": cfg.L0, "eta": cfg.eta,
                        "tau": cfg.tau, "stop_tol": cfg.stop_tol,
                        "f_init": f_val, "phi_init": f_val})
    t0 = time.monotonic()
    for k in range(cfg.max_outer):
        g = problem.f0.grad(x, fwd)
        backtracks = 0
        inner_total = 0
        while True:
            alpha = 1.0 / L
            query = ProxQuery(x=x, s=x, alpha=alpha, beta=0.0, tau=cfg.tau,
                              max_inner=cfg.max_inner, abs_tol=cfg.abs_tol,
                              f0_x=f0x, f1_x=f1x, grad_x=g)
            res = solve_inexact_prox(problem, query, warm_start=warm,
                                     warm_mtw=warm_mtw)
            inner_total += res.inner_iters
            if not res.ok:
                raise SolverError("prox engine hit max_inner without certificate")
            y = res.y_tilde
            dx = y - x
            rhs = f0x + float(np.dot(g, dx)) + 0.5 * L * float(np.dot(dx, dx))
            fwd_y = problem.f0.forward(y)
            f0y = problem.f0.value(y, fwd_y)
            if f0y <= rhs + 1e-12 * (1.0 + abs(f0x)):
                break
            L *= cfg.eta
            backtracks += 1
            if L > cfg.L_max * cfg.eta:
                raise SolverError("descent test still failing at L_max")
        step = float(np.linalg.norm(dx))
        f0x, f1x, fwd = f0y, res.f1_y, fwd_y
        f_val = f0x + f1x
        warm, warm_mtw = res.w_tilde, res.mtw_tilde
        trace.append(
            k=k, time_s=time.monotonic() - t0, f=f_val, phi=f_val,
            h=res.h_value, delta_k=float("nan"), d_k=step, alpha_k=alpha,
            beta_k=0.0, L_or_gamma=L, lambda_k=float("nan"),
            inner_iters=inner_total, backtracks=backtracks,
            psi=res.psi_value, x_step_norm=step, y_step_norm=step,
            prox_branch=res.converged,
        )
        x = y
        if step <= cfg.stop_tol:
            trace.meta["stop_reason"] = "x_step"
            break
    else:
        trace.meta["stop_reason"] = "max_outer"
    trace.meta["f_final"] = f_val
    trace.x_final = x
    return trace
