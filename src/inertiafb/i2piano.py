"""Inertial inexact proximal solver with Lipschitz backtracking (i2Piano).

The prox step, its backtracking on the Lipschitz estimate L_k and the
driver, with its stop rule and trace header, are the shared core
(:mod:`inertiafb.fb`).  What stays here is the config and the step: the
parameter policy, which couples L_k to the step size and inertial weight,

    b_k     = (L_k + 2 delta) / (L_k + 2 gamma)
    beta_k  = (1 + theta*omega)/2 * (b_k - 1) / (b_k - 1/2)
    alpha_k = (1 + theta*omega - 2 beta_k) / (L_k + 2 gamma)

and the merit: ``Phi(x, x_prev) = f(x) + delta ||x - x_prev||^2``
decreases by at least ``d_k^2 = gamma ||x - x_prev||^2 - (1 - omega) h``
per accepted step, which ``fb.run`` checks on every row as certify's H1.

The couplings and the merit inequality hold for any accepted L_k in
``[fb.L_MIN, fb.L_MAX]``, so the estimate follows the local curvature
both ways: the backtracking raises it by ``eta`` until the descent test
holds, and after ``SHRINK_STREAK`` consecutive backtrack-free iterations
it starts from ``max(fb.L_MIN, L_{k-1}/eta)`` instead, which lets the
step grow towards ``(1 + theta*omega) / (4 delta - 2 gamma)`` where the
local curvature is below the current estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from inertiafb import fb
from inertiafb.problem import CompositeProblem, eval_f
from inertiafb.prox_engine import solve_inexact_prox
from inertiafb.trace import Trace


# backtrack-free iterations before the backtracking tries L_{k-1}/eta; a
# shrink that overshoots the local curvature costs one extra backtrack, and
# trying at every iteration cost 0.66 of them per iteration on impulse-l1
SHRINK_STREAK = 10


@dataclass(kw_only=True)
class I2PianoConfig(fb.Config):
    delta: float = 0.5
    gamma: float = 1e-5
    omega: float = 0.95

    def __post_init__(self):
        super().__post_init__()
        if not (self.delta >= self.gamma > 0):
            raise ValueError("need delta >= gamma > 0")
        hi = 1.0 if self.tau == 0 else np.nextafter(1.0, 0.0)
        if not (0.0 <= self.omega <= hi):
            raise ValueError("omega in [0,1) for tau>0, [0,1] for tau=0")


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


def i2piano_step(problem: CompositeProblem, state: fb.Iterate,
                 cfg: I2PianoConfig) -> fb.Iterate:
    L, streak = state.L_k, state.streak
    if streak >= SHRINK_STREAK:
        L, streak = max(fb.L_MIN, L / cfg.eta), 0

    def params(L_k):
        _, beta, alpha = compute_params(L_k, cfg)
        return alpha, beta

    new = fb.backtrack(problem, state, cfg, params, solve_inexact_prox, L)
    # ||x - s||^2: x is the last prox point and s the point its step began
    d_sq = cfg.gamma * state.y_step_sq - (1.0 - cfg.omega) * new.h_val
    new.phi_val = new.f_val + cfg.delta * new.y_step_sq
    new.d_k = float(np.sqrt(max(d_sq, 0.0)))
    new.streak = streak + 1 if new.backtracks == 0 else 0
    return new


def i2piano_solve(problem: CompositeProblem, x0: np.ndarray,
                  cfg: Optional[I2PianoConfig] = None) -> Trace:
    """Run i2Piano from ``x0`` (with ``x^{-1} = x0``) and emit a trace;
    :func:`fb.run` stops it on ``d_k`` or after ``max_outer`` iterations."""
    return fb.run(problem, x0, eval_f, cfg or I2PianoConfig(), "i2piano",
                  i2piano_step)
