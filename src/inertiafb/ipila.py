"""Inertial proximal solver with an Armijo line search on a merit function.

iPila tracks a pair ``(x, s)`` and enforces descent of the merit function

    Phi(x, s) = f(x) + ||x - s||^2 / 2

rather than of ``f`` itself.  Each iteration computes an inexact inertial
proximal point ``y``, the predicted decrease ``Delta_k = h(y) -
gamma_k ||x - s||^2 <= 0``, and the search direction

    d_x = y - x,
    d_s = (1 + beta/alpha)(y - x) + gamma_k (x - s),

then backtracks ``lambda`` until the generalized Armijo inequality
``Phi(x + lambda d_x, s + lambda d_s) <= Phi(x, s) + sigma lambda Delta_k``
holds.  The pair ``(y, x)`` is accepted instead of the line-search point
whenever it satisfies the same inequality, which turns the following
iteration into an actual inertial step.

Two parameter policies are provided.  ``strict-alg3`` keeps ``alpha_k =
alpha_max``, ``beta_k = beta_max``, ``gamma_k = gamma_min`` constant and
always runs the line search.  ``practical-sec5`` couples ``alpha_k, beta_k``
to a running Lipschitz estimate ``L_k``, tests acceptance of ``(y, x)`` with
``lambda = 1`` before any line search, and scales ``L_k`` up by ``eta`` when
that test fails (without recomputing ``y`` in the same iteration).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from inertiafb.problem import CompositeProblem, SolverError, eval_f
from inertiafb.prox_engine import (ProxQuery, ProxResult, solve_inexact_prox,
                                   theta_from_tau)
from inertiafb.trace import Trace

VARIANTS = ("strict-alg3", "practical-sec5")


@dataclass
class IPilaConfig:
    sigma: float = 1e-4
    ls_shrink: float = 0.5
    alpha_min: float = 1e-12
    alpha_max: float = 1.0
    beta_max: float = 0.5
    gamma_min: float = 1e-5
    gamma_max: float = 1e-5
    tau: float = 1e6
    max_halvings: int = 60
    variant: str = "practical-sec5"
    L0: float = 1.0
    eta: float = 1.5
    delta: float = 0.5
    max_outer: int = 1000
    stop_tol: float = 0.0
    max_inner: int = 2000
    abs_tol: Optional[float] = None
    check_invariants: bool = True

    def __post_init__(self):
        if not (0.0 < self.sigma < 1.0):
            raise ValueError("sigma must lie in (0,1)")
        if not (0.0 < self.ls_shrink < 1.0):
            raise ValueError("ls_shrink must lie in (0,1)")
        if not (0.0 < self.alpha_min <= self.alpha_max):
            raise ValueError("need 0 < alpha_min <= alpha_max")
        if self.beta_max < 0:
            raise ValueError("beta_max must be nonnegative")
        if not (0.0 < self.gamma_min <= self.gamma_max):
            raise ValueError("need 0 < gamma_min <= gamma_max")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.eta <= 1:
            raise ValueError("eta must exceed 1")

    @property
    def theta(self) -> float:
        return theta_from_tau(self.tau)


def phi_value(problem: CompositeProblem, x: np.ndarray,
              s: np.ndarray) -> float:
    d = x - s
    return eval_f(problem, x) + 0.5 * float(np.dot(d, d))


def descent_direction(x: np.ndarray, s: np.ndarray, y_tilde: np.ndarray,
                      alpha: float, beta: float, gamma_k: float):
    """Search direction ``(d_x, d_s)`` in the joint ``(x, s)`` space."""
    step = y_tilde - x
    d_x = step
    d_s = (1.0 + beta / alpha) * step + gamma_k * (x - s)
    return d_x, d_s


def compute_delta(h_val: float, gamma_k: float, x: np.ndarray,
                  s: np.ndarray) -> float:
    """Predicted merit decrease ``Delta_k = h - gamma_k ||x-s||^2 <= 0``."""
    if h_val > 0:
        raise SolverError(f"subproblem value h={h_val} > 0 breaks the "
                          "engine contract")
    if gamma_k <= 0:
        raise ValueError("gamma_k must be positive")
    d = x - s
    return float(h_val - gamma_k * np.dot(d, d))


def armijo_linesearch(problem: CompositeProblem, x: np.ndarray, s: np.ndarray,
                      phi0: float, d_x: np.ndarray, d_s: np.ndarray,
                      delta_k: float, sigma: float, ls_shrink: float,
                      max_halvings: int, *, y: np.ndarray, f_y: float):
    """Largest ``lambda`` in the backtracking grid passing the Armijo test.

    ``phi0`` is the merit value ``Phi(x, s)`` the caller already holds, and
    ``f_y = f(y)`` its value at the prox point ``y``: the ``lambda = 1``
    trial reuses ``f_y`` when ``x + d_x`` equals ``y`` bit for bit.
    Returns ``(lambda, new_x, new_s, evals)`` where ``evals`` counts merit
    evaluations at trial points, a reused one included.  Termination is
    guaranteed for a genuine descent direction, so exhausting
    ``max_halvings`` is a hard error.
    """
    if delta_k >= 0:
        raise SolverError("armijo_linesearch requires delta_k < 0")
    lam = 1.0
    evals = 0
    for _ in range(max_halvings + 1):
        xt = x + lam * d_x
        st = s + lam * d_s
        evals += 1
        reuse = lam == 1.0 and xt.tobytes() == y.tobytes()
        d = xt - st
        phi_t = (f_y if reuse else eval_f(problem, xt)) \
            + 0.5 * float(np.dot(d, d))
        if phi_t <= phi0 + sigma * lam * delta_k:
            return lam, xt, st, evals
        lam *= ls_shrink
    raise SolverError("Armijo search exhausted max_halvings; gradient or "
                      "subproblem value is inconsistent")


@dataclass
class IPilaState:
    x_curr: np.ndarray
    s_curr: np.ndarray
    f_val: float
    phi_val: float
    L_k: float
    f0_val: float  # f0(x_curr); f_val = f0_val + f1_val
    f1_val: float
    f0_fwd: object = None  # problem.f0.forward(x_curr)
    delta_k: float = 0.0
    lambda_k: float = 1.0
    alpha_k: float = 0.0
    beta_k: float = 0.0
    gamma_k: float = 0.0
    accepted_branch: str = ""  # "inertial" | "linesearch" | "stationary"
    h_val: float = 0.0
    psi_val: float = 0.0
    inner_iters: int = 0
    backtracks: int = 0
    y_tilde: Optional[np.ndarray] = None
    warm_dual: Optional[np.ndarray] = None
    warm_mtw: Optional[np.ndarray] = None
    prox_branch: str = ""


def initial_state(problem: CompositeProblem, x0: np.ndarray,
                  s0: Optional[np.ndarray], cfg: IPilaConfig) -> IPilaState:
    x0 = np.asarray(x0, dtype=float)
    s0 = x0.copy() if s0 is None else np.asarray(s0, dtype=float)
    f0 = eval_f(problem, x0)
    if not np.isfinite(f0):
        raise ValueError("x0 must lie in dom(f1)")
    d = x0 - s0
    fwd = problem.f0.forward(x0)
    return IPilaState(x_curr=x0, s_curr=s0, f_val=f0,
                      phi_val=f0 + 0.5 * float(np.dot(d, d)), L_k=cfg.L0,
                      f0_val=problem.f0.value(x0, fwd),
                      f1_val=problem.f1.value(x0), f0_fwd=fwd)


def _practical_params(L_k: float, cfg: IPilaConfig):
    b = (L_k + 2.0 * cfg.delta) / (L_k + 2.0 * cfg.gamma_min)
    beta = (b - 1.0) / (b - 0.5)
    alpha = 2.0 * (1.0 - beta) / (L_k + 2.0 * cfg.gamma_min)
    alpha = min(max(alpha, cfg.alpha_min), cfg.alpha_max)
    return alpha, beta


def _check_step_invariants(cfg, state, alpha, beta, gamma_k, delta_k,
                           y_step_sq, anchor_sq, d_x, d_s, phi_new, lam):
    tol = 1e-9 * (1.0 + abs(state.phi_val))
    a = cfg.theta / (2.0 * alpha)
    if delta_k > -a * y_step_sq - gamma_k * anchor_sq + tol:
        raise SolverError("predicted decrease weaker than the certified bound")
    if phi_new > state.phi_val + cfg.sigma * lam * delta_k + tol:
        raise SolverError("merit Armijo inequality violated on accepted step")
    dbar = 1.0 + beta / alpha
    cap = max((1.0 + dbar * dbar + dbar * gamma_k) / a, gamma_k + dbar)
    d_sq = float(np.dot(d_x, d_x) + np.dot(d_s, d_s))
    if d_sq > cap * (a * y_step_sq + gamma_k * anchor_sq) + tol:
        raise SolverError("direction norm exceeds its theoretical bound")


def ipila_step(problem: CompositeProblem, state: IPilaState, cfg: IPilaConfig,
               engine: Callable[..., ProxResult] = solve_inexact_prox,
               ) -> IPilaState:
    x = state.x_curr
    s = state.s_curr
    practical = cfg.variant == "practical-sec5"
    if practical:
        alpha, beta = _practical_params(state.L_k, cfg)
    else:
        alpha, beta = cfg.alpha_max, cfg.beta_max
    gamma_k = cfg.gamma_min

    query = ProxQuery(x=x, s=s, alpha=alpha, beta=beta, tau=cfg.tau,
                      max_inner=cfg.max_inner, abs_tol=cfg.abs_tol,
                      f0_x=state.f0_val, f1_x=state.f1_val,
                      grad_x=problem.f0.grad(x, state.f0_fwd))
    res = engine(problem, query, warm_start=state.warm_dual,
                 warm_mtw=state.warm_mtw)
    if not res.ok:
        raise SolverError("prox engine hit max_inner without certificate")
    y = res.y_tilde
    h_val = res.h_value
    if h_val > 0:
        # roundoff on the abs branch can leave h a hair above zero
        if h_val <= 1e-10 * (1.0 + abs(state.f_val)):
            h_val = 0.0
    delta_k = compute_delta(h_val, gamma_k, x, s)

    common = dict(f_val=state.f_val, f0_val=state.f0_val,
                  f1_val=state.f1_val, f0_fwd=state.f0_fwd, L_k=state.L_k,
                  alpha_k=alpha, beta_k=beta, gamma_k=gamma_k, h_val=h_val,
                  psi_val=res.psi_value, inner_iters=res.inner_iters,
                  y_tilde=y, warm_dual=res.w_tilde, warm_mtw=res.mtw_tilde,
                  prox_branch=res.converged)

    if delta_k == 0.0:
        return IPilaState(x_curr=x, s_curr=s, phi_val=state.phi_val,
                          delta_k=0.0, lambda_k=1.0,
                          accepted_branch="stationary", **common)

    y_step = y - x
    y_step_sq = float(np.dot(y_step, y_step))
    anchor_sq = float(np.dot(x - s, x - s))
    fwd_y = problem.f0.forward(y)
    f0_y = problem.f0.value(y, fwd_y)
    f_y = f0_y + res.f1_y
    at_y = dict(f_val=f_y, f0_val=f0_y, f1_val=res.f1_y, f0_fwd=fwd_y)
    phi_yx = f_y + 0.5 * y_step_sq

    L_next = state.L_k
    if practical:
        # lambda = 1 acceptance test, tried before any line search
        if phi_yx <= state.phi_val + cfg.sigma * delta_k:
            if cfg.check_invariants:
                d_x, d_s = descent_direction(x, s, y, alpha, beta, gamma_k)
                _check_step_invariants(cfg, state, alpha, beta, gamma_k,
                                       delta_k, y_step_sq, anchor_sq,
                                       d_x, d_s, phi_yx, 1.0)
            return IPilaState(x_curr=y, s_curr=x,
                              phi_val=phi_yx, delta_k=delta_k, lambda_k=1.0,
                              accepted_branch="inertial", backtracks=0,
                              **{**common, **at_y})
        L_next = state.L_k * cfg.eta

    d_x, d_s = descent_direction(x, s, y, alpha, beta, gamma_k)
    lam, ls_x, ls_s, evals = armijo_linesearch(
        problem, x, s, state.phi_val, d_x, d_s, delta_k, cfg.sigma,
        cfg.ls_shrink, cfg.max_halvings, y=y, f_y=f_y)

    if phi_yx <= state.phi_val + cfg.sigma * lam * delta_k:
        new_x, new_s, branch = y, x, "inertial"
        common.update(at_y)
        phi_new = phi_yx
    else:
        new_x, new_s, branch = ls_x, ls_s, "linesearch"
        fwd = problem.f0.forward(new_x)
        f0_new, f1_new = problem.f0.value(new_x, fwd), problem.f1.value(new_x)
        common.update(f_val=f0_new + f1_new, f0_val=f0_new, f1_val=f1_new,
                      f0_fwd=fwd)
        d = new_x - new_s
        phi_new = common["f_val"] + 0.5 * float(np.dot(d, d))

    if cfg.check_invariants:
        _check_step_invariants(cfg, state, alpha, beta, gamma_k, delta_k,
                               y_step_sq, anchor_sq, d_x, d_s, phi_new, lam)

    common["L_k"] = L_next
    return IPilaState(x_curr=new_x, s_curr=new_s, phi_val=phi_new,
                      delta_k=delta_k, lambda_k=lam, accepted_branch=branch,
                      backtracks=evals - 1, **common)


def ipila_solve(problem: CompositeProblem, x0: np.ndarray,
                s0: Optional[np.ndarray] = None,
                cfg: Optional[IPilaConfig] = None,
                on_step: Optional[Callable[[int, IPilaState, IPilaState], None]] = None,
                ) -> Trace:
    """Run iPila from ``(x0, s0)`` (``s0 = x0`` by default) and emit a trace.

    Stops when ``sqrt(-Delta_k) <= stop_tol``, when an iteration is exactly
    stationary, or after ``max_outer`` iterations.  ``on_step(k, before,
    after)``, when given, observes each accepted transition.
    """
    cfg = cfg or IPilaConfig()
    state = initial_state(problem, x0, s0, cfg)
    trace = Trace(meta={
        "solver": f"ipila-{'practical' if cfg.variant == 'practical-sec5' else 'strict'}",
        "variant": cfg.variant, "sigma": cfg.sigma,
        "ls_shrink": cfg.ls_shrink, "tau": cfg.tau, "theta": cfg.theta,
        "gamma_min": cfg.gamma_min, "alpha_max": cfg.alpha_max,
        "beta_max": cfg.beta_max, "L0": cfg.L0, "eta": cfg.eta,
        "delta": cfg.delta,
        "stop_tol": cfg.stop_tol, "f_init": state.f_val,
        "phi_init": state.phi_val,
    })
    t0 = time.monotonic()
    for k in range(cfg.max_outer):
        new = ipila_step(problem, state, cfg)
        d_k = float(np.sqrt(max(-new.delta_k, 0.0)))
        l_or_g = new.L_k if cfg.variant == "practical-sec5" else new.gamma_k
        y_step = (np.linalg.norm(new.y_tilde - state.x_curr)
                  if new.y_tilde is not None else 0.0)
        trace.append(
            k=k, time_s=time.monotonic() - t0, f=new.f_val, phi=new.phi_val,
            h=new.h_val, delta_k=new.delta_k, d_k=d_k, alpha_k=new.alpha_k,
            beta_k=new.beta_k, L_or_gamma=l_or_g, lambda_k=new.lambda_k,
            inner_iters=new.inner_iters, backtracks=new.backtracks,
            psi=new.psi_val,
            x_step_norm=float(np.linalg.norm(new.x_curr - state.x_curr)),
            y_step_norm=float(y_step),
            s_step_norm=float(np.linalg.norm(new.s_curr - state.s_curr)),
            prox_branch=new.prox_branch,
            accepted_branch=new.accepted_branch,
        )
        if on_step is not None:
            on_step(k, state, new)
        state = new
        if new.accepted_branch == "stationary" or d_k <= cfg.stop_tol:
            trace.meta["stop_reason"] = ("stationary"
                                         if new.accepted_branch == "stationary"
                                         else "d_k")
            break
    else:
        trace.meta["stop_reason"] = "max_outer"
    trace.meta["f_final"] = state.f_val
    trace.x_final = state.x_curr
    return trace
