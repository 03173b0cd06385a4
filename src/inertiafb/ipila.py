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
holds.  The first trial, ``lambda = 1``, is the prox point ``y`` itself,
which ``fb.prox`` evaluated once with its step; each ``lambda < 1``
evaluates ``x + lambda d_x`` once, as the search hands back the point it
accepts with its values.  The pair ``(y, x)`` is accepted instead of the
line-search point whenever it satisfies the same inequality, which turns
the following iteration into an actual inertial step.

Two parameter policies are provided.  ``strict-alg3`` keeps ``alpha_k =
alpha_max``, ``beta_k = beta_max``, ``gamma_k = gamma`` constant and
always runs the line search.  ``practical-sec5`` couples ``alpha_k, beta_k``
to a running Lipschitz estimate ``L_k``, tests acceptance of ``(y, x)`` with
``lambda = 1`` before any line search, and scales ``L_k`` up by ``eta`` when
that test fails (without recomputing ``y`` in the same iteration).

The prox call, the iterate and the driver, with its stop rule and trace
header, are the shared core (:mod:`inertiafb.fb`), and the two parameter
policies and the Armijo bound are ``certify.coupling`` and
``certify.armijo_bound``, which certify replays; this module keeps the
config and the step: the merit, the Armijo search and the choice between
its branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from inertiafb import fb
from inertiafb.certify import ALPHA_MIN, armijo_bound, coupling
from inertiafb.problem import CompositeProblem, SolverError, eval_f
from inertiafb.prox_engine import ProxResult, solve_inexact_prox
from inertiafb.trace import Trace

# each variant's solver name, which the trace header, the coupling and
# certify.solver_config read
VARIANTS = {"strict-alg3": "ipila-strict", "practical-sec5": "ipila-practical"}


@dataclass(kw_only=True)
class IPilaConfig(fb.Config):
    sigma: float = 1e-4
    ls_shrink: float = 0.5
    alpha_max: float = 1.0
    beta_max: float = 0.5
    gamma: float = 1e-5
    max_halvings: int = 60
    variant: str = "practical-sec5"
    delta: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.sigma < 1.0):
            raise ValueError("sigma must lie in (0,1)")
        if not (0.0 < self.ls_shrink < 1.0):
            raise ValueError("ls_shrink must lie in (0,1)")
        if self.alpha_max < ALPHA_MIN:
            raise ValueError(f"alpha_max must be at least {ALPHA_MIN:g}")
        if self.max_halvings < 0:
            raise ValueError("max_halvings must be nonnegative")
        if self.beta_max < 0:
            raise ValueError("beta_max must be nonnegative")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {tuple(VARIANTS)}")
        if self.variant == "practical-sec5":
            # the practical coupling's beta is nonnegative only for these
            if self.delta < self.gamma:
                raise ValueError("practical-sec5 needs delta >= gamma")
            # L_k >= L0, where b_k is largest
            fb.check_coupling("ipila-practical", self, self.L0)


def phi_value(problem: CompositeProblem, x: np.ndarray,
              s: np.ndarray) -> float:
    d = x - s
    return eval_f(problem, x) + 0.5 * float(np.dot(d, d))


def descent_direction(y_step: np.ndarray, anchor: np.ndarray, alpha: float,
                      beta: float, gamma_k: float):
    """Search direction ``(d_x, d_s)`` in the joint ``(x, s)`` space from
    ``y_step = y - x`` and ``anchor = x - s``; ``d_x`` is ``y_step``.  Its
    norm bound holds for every input, so it is a property test of this
    function, not a check on each trace row."""
    return y_step, (1.0 + beta / alpha) * y_step + gamma_k * anchor


def compute_delta(h_val: float, gamma_k: float, anchor_sq: float) -> float:
    """Predicted merit decrease ``Delta_k = h - gamma_k ||x-s||^2 <= 0``
    from ``anchor_sq = ||x - s||^2``; ``IPilaConfig`` keeps ``gamma_k``
    positive."""
    if h_val > 0:
        raise SolverError(f"subproblem value h={h_val} > 0 breaks the "
                          "engine contract")
    return float(h_val - gamma_k * anchor_sq)


def armijo_linesearch(problem: CompositeProblem, x: np.ndarray, s: np.ndarray,
                      phi0: float, d_x: np.ndarray, d_s: np.ndarray,
                      delta_k: float, sigma: float, ls_shrink: float,
                      max_halvings: int, *, y: np.ndarray, fwd_y, f0_y: float,
                      f1_y: float):
    """Largest ``lambda`` in the backtracking grid passing the Armijo test.

    ``phi0`` is ``Phi(x, s)``; ``fwd_y``, ``f0_y``, ``f1_y`` are the forward
    pass and values at the prox point ``y = x + d_x``, the ``lambda = 1``
    trial (returned as that object).  Each ``lambda < 1`` evaluates ``f1`` at
    ``x + lambda d_x``, then the forward pass and ``f0`` if ``f1`` is finite.
    Returns ``(lambda, new_x, new_s, evals, fwd, f0, f1, phi)``: the accepted
    pair, new_x's forward pass and values, the pair's merit, and ``evals``
    merit evaluations at trial points, the unit trial included.  Exhausting
    ``max_halvings`` is a hard error: a genuine descent direction ends it.
    """
    if delta_k >= 0:
        raise SolverError("armijo_linesearch requires delta_k < 0")
    lam = 1.0
    evals = 0
    for _ in range(max_halvings + 1):
        if lam == 1.0:
            xt, fwd, f0, f1 = y, fwd_y, f0_y, f1_y
        else:
            xt = x + lam * d_x
            f1 = problem.f1.value(xt)
            fwd, f0 = None, np.inf  # outside dom(f1) the trial fails
            if np.isfinite(f1):
                fwd = problem.f0.forward(xt)
                f0 = problem.f0.value(xt, fwd)
        st = s + lam * d_s
        evals += 1
        d = xt - st
        phi_t = f0 + f1 + 0.5 * float(np.dot(d, d))
        if phi_t <= armijo_bound(phi0, sigma, lam, delta_k):
            return lam, xt, st, evals, fwd, f0, f1, phi_t
        lam *= ls_shrink
    raise SolverError("Armijo search exhausted max_halvings; gradient or "
                      "subproblem value is inconsistent")


def ipila_step(problem: CompositeProblem, state: fb.Iterate, cfg: IPilaConfig,
               engine: Callable[..., ProxResult] = solve_inexact_prox,
               ) -> fb.Iterate:
    x, s = state.x_curr, state.s_curr
    practical = cfg.variant == "practical-sec5"
    alpha, beta = coupling(VARIANTS[cfg.variant], state.L_or_gamma, cfg)
    gamma_k = cfg.gamma

    new = fb.prox(problem, state, cfg, alpha, beta,
                  problem.f0.grad(x, state.f0_fwd), engine)
    new.lambda_k, new.backtracks = 1.0, 0
    new.inner_iters = new.prox.inner_iters
    if not practical:
        new.L_or_gamma = gamma_k  # strict never reads L_k
    anchor = x - s
    anchor_sq = float(np.dot(anchor, anchor))
    new.delta_k = compute_delta(new.prox.h_value, gamma_k, anchor_sq)
    if new.delta_k == 0.0:
        # the pair (x, s) stays put
        new.move_to(x, s, state.f0_fwd, state.f0_val, state.f1_val)
        new.delta_k, new.accepted_branch = 0.0, "stationary"
    else:
        _accept(problem, state, new, cfg, practical, gamma_k, anchor)
    # max keeps its first argument on a tie, so a stationary row gets +0.0
    new.d_k = float(np.sqrt(max(0.0, -new.delta_k)))
    return new


def _accept(problem, state, new, cfg, practical, gamma_k, anchor):
    """Keep ``new`` at ``(y, x)`` or move it to the Armijo point from
    ``state``; ``anchor = x - s``.  ``fb.run`` checks the step's
    inequalities on its trace row."""
    delta_k = new.delta_k
    phi_yx = new.f + 0.5 * new.prox.y_step_sq

    # practical: lambda = 1 acceptance test, tried before any line search
    inertial = practical and phi_yx <= armijo_bound(state.phi, cfg.sigma,
                                                    1.0, delta_k)
    if practical and not inertial:
        new.L_or_gamma = state.L_or_gamma * cfg.eta
    if not inertial:
        # an overflowing trial fails its test: the search reports that
        with np.errstate(over="ignore", invalid="ignore"):
            d_x, d_s = descent_direction(new.prox.y_step, anchor,
                                         new.alpha_k, new.beta_k, gamma_k)
            lam, ls_x, ls_s, evals, fwd, f0, f1, phi = armijo_linesearch(
                problem, state.x_curr, state.s_curr, state.phi, d_x, d_s,
                delta_k, cfg.sigma, cfg.ls_shrink, cfg.max_halvings,
                y=new.x_curr, fwd_y=new.f0_fwd, f0_y=new.f0_val,
                f1_y=new.f1_val)
        new.lambda_k, new.backtracks = lam, evals - 1
        inertial = phi_yx <= armijo_bound(state.phi, cfg.sigma, lam, delta_k)

    if inertial:
        new.phi, new.accepted_branch = phi_yx, "inertial"
    else:
        new.move_to(ls_x, ls_s, fwd, f0, f1)
        new.phi, new.accepted_branch = phi, "linesearch"


def ipila_solve(problem: CompositeProblem, x0: np.ndarray,
                cfg: Optional[IPilaConfig] = None, on_step=None) -> Trace:
    """Run iPila from ``(x0, x0)`` and emit a trace; :func:`fb.run` stops
    it on an exactly stationary iteration, once ``d_k = sqrt(-Delta_k) <=
    stop_tol``, or after ``max_outer`` iterations.  ``on_step(k, before,
    after)``, when given, observes each accepted transition.
    """
    cfg = cfg or IPilaConfig()
    return fb.run(problem, x0, eval_f, cfg, VARIANTS[cfg.variant], ipila_step,
                  on_step)
