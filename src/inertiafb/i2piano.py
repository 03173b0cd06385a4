"""Inertial inexact proximal solver with Lipschitz backtracking (i2Piano).

Each iteration couples the local Lipschitz estimate L_k to the step size and
inertial weight through

    b_k     = (L_k + 2 delta) / (L_k + 2 gamma)
    beta_k  = (1 + theta*omega)/2 * (b_k - 1) / (b_k - 1/2)
    alpha_k = (1 + theta*omega - 2 beta_k) / (L_k + 2 gamma)

then asks the prox engine for an inexact inertial proximal point and accepts
it when the local descent inequality with constant L_k holds, scaling L_k up
by eta otherwise.  The merit function ``Phi(x, x_prev) = f(x) +
delta ||x - x_prev||^2`` decreases by at least
``gamma ||x - x_prev||^2 - (1 - omega) h`` per accepted step, which the
solver re-checks at runtime when ``check_invariants`` is on.

The couplings and the merit inequality hold for any accepted L_k in
``[L_min, L_max]``, so the estimate may also shrink: with
``allow_L_decrease`` the backtracking starts from ``max(L_min, L_{k-1}/eta)``
after ``SHRINK_STREAK`` consecutive backtrack-free iterations, which lets
the step grow towards ``(1 + theta*omega) / (4 delta - 2 gamma)`` where the
local curvature is below the current estimate.  By default L_k is
nondecreasing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from inertiafb.problem import CompositeProblem, SolverError, eval_f
from inertiafb.prox_engine import ProxQuery, solve_inexact_prox, theta_from_tau
from inertiafb.trace import Trace


# backtrack-free iterations before allow_L_decrease tries L_{k-1}/eta; a
# shrink that overshoots the local curvature costs one extra backtrack, and
# trying at every iteration cost 0.66 of them per iteration on impulse-l1
SHRINK_STREAK = 10


@dataclass
class I2PianoConfig:
    delta: float = 0.5
    gamma: float = 1e-5
    eta: float = 1.5
    omega: float = 0.95
    tau: float = 1e6
    L0: float = 1.0
    L_min: float = 1e-8
    L_max: float = 1e12
    max_outer: int = 1000
    stop_tol: float = 0.0
    max_inner: int = 2000
    abs_tol: Optional[float] = None
    check_invariants: bool = True
    # after SHRINK_STREAK backtrack-free iterations, start the next
    # backtracking from max(L_min, L_k / eta) instead of L_k
    allow_L_decrease: bool = False

    def __post_init__(self):
        if not (self.delta >= self.gamma > 0):
            raise ValueError("need delta >= gamma > 0")
        if self.eta <= 1:
            raise ValueError("eta must exceed 1")
        if not (self.L_min <= self.L0 <= self.L_max):
            raise ValueError("need L_min <= L0 <= L_max")
        hi = 1.0 if self.tau == 0 else np.nextafter(1.0, 0.0)
        if not (0.0 <= self.omega <= hi):
            raise ValueError("omega in [0,1) for tau>0, [0,1] for tau=0")

    @property
    def theta(self) -> float:
        return theta_from_tau(self.tau)


def compute_params(L_k: float, cfg: I2PianoConfig):
    """Per-iteration couplings ``(b_k, beta_k, alpha_k)`` from ``L_k``."""
    top = 1.0 + cfg.theta * cfg.omega
    b = (L_k + 2.0 * cfg.delta) / (L_k + 2.0 * cfg.gamma)
    # (b-1)/(b-1/2) rewritten over the common denominator; the direct form
    # cancels catastrophically when L_k dwarfs delta
    beta = 2.0 * top * (cfg.delta - cfg.gamma) \
        / (L_k + 4.0 * cfg.delta - 2.0 * cfg.gamma)
    alpha = (top - 2.0 * beta) / (L_k + 2.0 * cfg.gamma)
    return b, beta, alpha


@dataclass
class I2PianoState:
    x_curr: np.ndarray
    x_prev: np.ndarray
    L_k: float
    f_val: float
    phi_val: float
    f0_val: float  # f0(x_curr); f_val = f0_val + f1_val
    f1_val: float
    f0_fwd: object = None  # problem.f0.forward(x_curr)
    beta_k: float = 0.0
    alpha_k: float = 0.0
    h_val: float = 0.0
    psi_val: float = 0.0
    d_k_sq: float = 0.0
    inner_iters: int = 0
    backtracks: int = 0
    warm_dual: Optional[np.ndarray] = None
    warm_mtw: Optional[np.ndarray] = None
    prox_branch: str = ""


def initial_state(problem: CompositeProblem, x0: np.ndarray,
                  cfg: I2PianoConfig) -> I2PianoState:
    x0 = np.asarray(x0, dtype=float)
    f0 = eval_f(problem, x0)
    if not np.isfinite(f0):
        raise ValueError("x0 must lie in dom(f1)")
    fwd = problem.f0.forward(x0)
    return I2PianoState(x_curr=x0, x_prev=x0.copy(), L_k=cfg.L0, f_val=f0,
                        phi_val=f0, f0_val=problem.f0.value(x0, fwd),
                        f1_val=problem.f1.value(x0), f0_fwd=fwd)


def i2piano_step(problem: CompositeProblem, state: I2PianoState,
                 cfg: I2PianoConfig) -> I2PianoState:
    x = state.x_curr
    s = state.x_prev
    g = problem.f0.grad(x, state.f0_fwd)
    f0x = state.f0_val
    L = state.L_k
    backtracks = 0
    inner_total = 0
    while True:
        _, beta, alpha = compute_params(L, cfg)
        query = ProxQuery(x=x, s=s, alpha=alpha, beta=beta, tau=cfg.tau,
                          max_inner=cfg.max_inner, abs_tol=cfg.abs_tol,
                          f0_x=f0x, f1_x=state.f1_val, grad_x=g)
        res = solve_inexact_prox(problem, query, warm_start=state.warm_dual,
                                 warm_mtw=state.warm_mtw)
        inner_total += res.inner_iters
        if not res.ok:
            raise SolverError("prox engine hit max_inner without certificate")
        y = res.y_tilde
        dx = y - x
        fwd_y = problem.f0.forward(y)
        f0y = problem.f0.value(y, fwd_y)
        descent_rhs = (f0x + float(np.dot(g, dx))
                       + 0.5 * L * float(np.dot(dx, dx)))
        if f0y <= descent_rhs + 1e-12 * (1.0 + abs(f0x)):
            break
        L *= cfg.eta
        backtracks += 1
        if L > cfg.L_max * cfg.eta:
            raise SolverError(
                "descent test still failing at L_max; gradient or domain broken")

    step_prev_sq = float(np.dot(x - s, x - s))
    # h <= 0 in exact arithmetic; roundoff on the stationary branch can
    # leave it a hair positive, which would push d_k below sqrt(gamma)*step
    h_eff = min(res.h_value, 0.0)
    d_sq = cfg.gamma * step_prev_sq - (1.0 - cfg.omega) * h_eff
    f_new = f0y + res.f1_y
    phi_new = f_new + cfg.delta * float(np.dot(dx, dx))
    if cfg.check_invariants:
        bound = (state.phi_val - cfg.gamma * step_prev_sq
                 + (1.0 - cfg.omega) * res.h_value)
        if phi_new > bound + 1e-9 * (1.0 + abs(state.phi_val)):
            raise SolverError(
                f"merit descent inequality violated: {phi_new} > {bound}")

    return I2PianoState(x_curr=y, x_prev=x, L_k=L, f_val=f_new,
                        phi_val=phi_new, f0_val=f0y, f1_val=res.f1_y,
                        f0_fwd=fwd_y, beta_k=beta, alpha_k=alpha,
                        h_val=res.h_value, psi_val=res.psi_value,
                        d_k_sq=max(d_sq, 0.0), inner_iters=inner_total,
                        backtracks=backtracks, warm_dual=res.w_tilde,
                        warm_mtw=res.mtw_tilde, prox_branch=res.converged)


def i2piano_solve(problem: CompositeProblem, x0: np.ndarray,
                  cfg: Optional[I2PianoConfig] = None) -> Trace:
    """Run i2Piano from ``x0`` (with ``x^{-1} = x0``) and emit a trace.

    Stops when ``sqrt(d_k^2) <= stop_tol`` or after ``max_outer`` iterations.
    L_k carries over nondecreasing between iterations unless
    ``allow_L_decrease`` is set; then every ``SHRINK_STREAK`` consecutive
    backtrack-free iterations the next one starts its backtracking from
    ``max(L_min, L_k / eta)``.
    """
    cfg = cfg or I2PianoConfig()
    state = initial_state(problem, x0, cfg)
    trace = Trace(meta={
        "solver": "i2piano", "delta": cfg.delta, "gamma": cfg.gamma,
        "eta": cfg.eta, "omega": cfg.omega, "tau": cfg.tau,
        "theta": cfg.theta, "L0": cfg.L0, "stop_tol": cfg.stop_tol,
        "f_init": state.f_val, "phi_init": state.phi_val,
    })
    t0 = time.monotonic()
    streak = 0
    for k in range(cfg.max_outer):
        if cfg.allow_L_decrease and streak >= SHRINK_STREAK:
            state.L_k = max(cfg.L_min, state.L_k / cfg.eta)
            streak = 0
        new = i2piano_step(problem, state, cfg)
        streak = streak + 1 if new.backtracks == 0 else 0
        d_k = float(np.sqrt(new.d_k_sq))
        step = float(np.linalg.norm(new.x_curr - new.x_prev))
        trace.append(
            k=k, time_s=time.monotonic() - t0, f=new.f_val, phi=new.phi_val,
            h=new.h_val, delta_k=float("nan"), d_k=d_k, alpha_k=new.alpha_k,
            beta_k=new.beta_k, L_or_gamma=new.L_k, lambda_k=float("nan"),
            inner_iters=new.inner_iters, backtracks=new.backtracks,
            psi=new.psi_val,
            x_step_norm=step, y_step_norm=step,
            prox_branch=new.prox_branch,
        )
        state = new
        if d_k <= cfg.stop_tol:
            trace.meta["stop_reason"] = "d_k"
            break
    else:
        trace.meta["stop_reason"] = "max_outer"
    trace.meta["f_final"] = state.f_val
    trace.x_final = state.x_curr
    return trace
