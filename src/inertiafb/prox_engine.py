"""Inexact inertial proximal-gradient point via a dual FISTA loop.

For the strongly convex subproblem

    h(y; x, s) = f1(y) - f1(x) + <grad f0(x) - (beta/alpha)(x-s), y-x>
                 + ||y-x||^2 / (2 alpha)

the engine maximizes the concave dual and stops as soon as the primal
candidate ``y = prox_{alpha xi}(xbar - alpha M^T w)`` closes the gap test

    h(y) <= (2 / (2 + tau)) * psi(w),

which certifies ``0 in eps-subdiff of h`` at y with
``eps = -(tau/2) h(y)``; psi is capped at 0 there, as ``psi <= h(x) = 0``.
An absolute stop with ``|h| <= abs_tol`` certifies x itself, and the result
stays at x with ``h = 0``.  Weak duality ``psi <= h`` is asserted at every
inner iterate.  With ``q = xbar - alpha M^T w``, ``z = prox_{alpha xi}(q)``,
``xbar = x - alpha v`` (v the linear coefficient of h) and
``c = -(alpha/2) ||v||^2 - f1(x)``, the dual objective is

    psi(w) = xi(z) + ||z - q||^2 / (2 alpha) + <M^T w, xbar + q> / 2
             - g*(w) + c,

free of the cancellation in ``(||xbar||^2 - ||q||^2) / (2 alpha)`` at small
alpha.  Each inner iteration applies ``M^T`` once: psi, y and h use a fresh
``M^T w`` per dual iterate, and only FISTA's extrapolated point takes its q
from the last two iterates by linearity.
Every query carries ``f0(x)``, ``f1(x)`` and ``grad f0(x)``, so the engine
evaluates none of them, and every ``f1`` has a block.  One code path
evaluates iterate 0 and every FISTA iterate into a record, and the result
is the record with the best psi: with ``f1(y_tilde)``, the step
``y_tilde - x`` and its squared norm as ``h(y_tilde)`` used them, and
``M^T w_tilde``, which the next warm start reuses for iterate 0 (``M^T w``
does not depend on the query).
Iterate 0 (any warm start) checks ``g*(w)`` for a finite value; later
iterates are projections onto the domain of ``g*`` by the block's
``conjugate_prox``, which ``conjugate_at_prox`` values without the test;
each is a fresh array (``ProxFunction``'s contract), kept as returned.
psi and h share each ``xi(z)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from inertiafb.problem import CompositeProblem


class EngineError(RuntimeError):
    """Inner solver contract violation (weak duality broken, bad query)."""


def theta_from_tau(tau: float) -> float:
    """Strong-convexity factor ``2/(sqrt(2+tau)+sqrt(tau))^2`` in (0, 1]."""
    return 2.0 / (math.sqrt(2.0 + tau) + math.sqrt(tau)) ** 2


@dataclass
class ProxQuery:
    x: np.ndarray
    s: np.ndarray
    alpha: float
    beta: float
    tau: float
    f0_x: float  # f0(x)
    f1_x: float  # f1(x)
    grad_x: np.ndarray  # grad f0(x)
    max_inner: int = 2000
    abs_tol: Optional[float] = None

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")


@dataclass
class ProxResult:
    """A dual iterate ``w_tilde`` and its primal candidate ``y_tilde``, or a
    copy of ``x`` with a zero step where the ``abs`` branch stays there."""
    y_tilde: np.ndarray
    h_value: float
    psi_value: float
    w_tilde: np.ndarray
    inner_iters: int
    converged: str  # "gap" | "abs" | "maxiter"
    f1_y: float  # f1(y_tilde)
    mtw_tilde: np.ndarray  # M^T w_tilde, the next call's warm_mtw
    y_step: np.ndarray  # y_tilde - x, as h(y_tilde) used it
    y_step_sq: float  # ||y_tilde - x||^2

    @property
    def ok(self) -> bool:
        return self.converged != "maxiter"


class _DualProblem:
    """Quantities of one subproblem instance, shared across inner iterates."""

    def __init__(self, problem: CompositeProblem, query: ProxQuery):
        self.f1 = problem.f1
        self.alpha = query.alpha
        x, s, f1x = query.x, query.s, query.f1_x
        if not math.isfinite(f1x):
            raise EngineError("prox query with x outside dom(f1)")
        self.f0x, self.f1x = query.f0_x, f1x
        self.x = x
        self.v = query.grad_x - (query.beta / query.alpha) * (x - s)
        self.xbar = x - self.alpha * self.v
        self.c = -0.5 * self.alpha * float(self.v.dot(self.v)) - f1x

    def h(self, y: np.ndarray, xi_y: Optional[float] = None):
        """``(h(y), f1(y), y - x, ||y - x||^2)``; ``xi_y``, when given, is
        ``xi(y)``."""
        f1y = self.f1.value(y, xi_y)
        d = y - self.x
        d_sq = float(d.dot(d))
        if not math.isfinite(f1y):
            return np.inf, f1y, d, d_sq
        return (float(f1y - self.f1x + self.v.dot(d)
                      + d_sq / (2.0 * self.alpha)), f1y, d, d_sq)

    def psi(self, w: np.ndarray, mtw: np.ndarray, at_prox: bool = False):
        """``(psi(w), z, q, xi(z))`` given ``mtw = M^T w``: q = xbar - alpha
        mtw, z = prox(q); ``at_prox``: ``w`` came from ``conjugate_prox``."""
        q = self.xbar - self.alpha * mtw
        z = self.f1.xi.prox(q, self.alpha)
        xi_z = self.f1.xi.value(z)
        g = self.f1.block.fn
        conj = (g.conjugate_at_prox if at_prox else g.conjugate)(w)
        if not math.isfinite(conj):
            return -np.inf, z, q, xi_z
        r = z - q
        val = (xi_z + r.dot(r) / (2.0 * self.alpha)
               + 0.5 * mtw.dot(self.xbar + q) - conj + self.c)
        return float(val), z, q, xi_z


def solve_inexact_prox(problem: CompositeProblem, query: ProxQuery,
                       warm_start: Optional[np.ndarray] = None,
                       warm_mtw: Optional[np.ndarray] = None,
                       inner_hook: Optional[Callable[[int, float, float], None]] = None,
                       ) -> ProxResult:
    """Compute an inexact inertial proximal point with a gap certificate.

    FISTA runs on the negated dual with step ``1/(alpha ||M||^2)``; the
    stopping test uses the best dual value seen so far together with its
    primal candidate.  When ``tau == 0`` the gap test degenerates, so the
    engine instead requires ``h - psi <= abs_tol``; the same absolute branch
    also catches the stationary case ``h(yhat) = 0`` for ``tau > 0``, and
    any such stop with ``|h| <= abs_tol`` stays at a copy of ``x``, so
    every zero decrease comes with a zero step.
    ``inner_hook(l, h, psi)``, when given, observes every inner iterate;
    ``warm_start`` is never written to, and may come back as ``w_tilde``.
    An inner iteration applies ``M`` twice (on FISTA's ``z_u``, and in
    ``f1(y)`` for ``h``) and ``M^T`` once; iterate 0 applies ``M`` once, in
    ``f1(y)``, and ``M^T`` only when no ``warm_mtw = M^T warm_start`` is
    given.
    """
    dp = _DualProblem(problem, query)
    tau = query.tau
    eta_gap = 2.0 / (2.0 + tau)
    abs_tol = query.abs_tol
    if abs_tol is None:
        fx = dp.f0x + dp.f1x
        abs_tol = 1e-12 * (1.0 + abs(fx))

    m = problem.f1.out_dim
    if warm_start is not None and warm_start.shape == (m,):
        w = np.asarray(warm_start, dtype=float)
    else:
        w, warm_mtw = np.zeros(m), None
    mtw = problem.f1.rmatvec(w) if warm_mtw is None else warm_mtw

    # psi is a sum of terms on the scale of |c| and |f1(x)|, so its
    # cancellation noise is relative to that scale, not to |h|
    guard_tol = 1e-10 * (1.0 + abs(dp.c) + abs(dp.f1x))

    def evaluate(it, w, mtw, at_prox=False):
        """``(record, q)`` of the dual iterate ``it``, checked and observed;
        ``finish`` sets the record's ``inner_iters`` and ``converged``."""
        psi, y, q, xi_y = dp.psi(w, mtw, at_prox)
        h, f1_y, step, step_sq = dp.h(y, xi_y)
        if inner_hook is not None:
            inner_hook(it, h, psi)
        if psi > h + guard_tol * (1.0 + abs(h)):
            raise EngineError(f"weak duality violated: psi={psi!r} > h={h!r}")
        return ProxResult(y, h, psi, w, it, "", f1_y, mtw, step, step_sq), q

    def finish(iters, branch):
        best.inner_iters, best.converged = iters, branch
        if branch == "abs" and abs(best.h_value) <= abs_tol:
            # x is an abs_tol-minimiser of h: stay there, with h(x) = 0
            best.y_tilde, best.y_step = dp.x.copy(), np.zeros_like(dp.x)
            best.h_value, best.y_step_sq, best.f1_y = 0.0, 0.0, dp.f1x
            best.psi_value = min(best.psi_value, 0.0)
        return best

    def stop_branch(h_val, psi_val):
        # psi <= min h <= h(x) = 0 in exact arithmetic, so the cap keeps
        # a psi that cancellation left above 0 from accepting an h > 0
        if tau > 0 and h_val <= eta_gap * min(psi_val, 0.0):
            return "gap"
        if h_val - psi_val <= abs_tol and (tau == 0 or abs(h_val) <= abs_tol):
            return "abs"
        return ""

    best, q = evaluate(0, w, mtw)  # the starting dual point
    branch = stop_branch(best.h_value, best.psi_value)
    if branch:
        return finish(0, branch)

    # FISTA on -psi
    sigma = 1.0 / (query.alpha * problem.f1.op_norm_sq_bound)
    t = 1.0
    g = problem.f1.block.fn
    # u, u + sigma M z_u and q_u live in buffers rewritten every iteration;
    # w and every w_new may be returned, so none of them is ever written to
    u, v = w.copy(), np.empty(m)
    w_prev = w
    q_u = q_prev = q  # xbar - alpha M^T u, kept by linearity
    q_buf = np.empty_like(q)
    for it in range(1, query.max_inner + 1):
        z_u = problem.f1.xi.prox(q_u, query.alpha)
        np.multiply(sigma, problem.f1.matvec(z_u), out=v)
        np.add(u, v, out=v)
        w_new = g.conjugate_prox(v, sigma)  # fresh: v is rewritten

        cand, q_new = evaluate(it, w_new, problem.f1.rmatvec(w_new), True)
        if cand.psi_value > best.psi_value:
            best = cand
        branch = stop_branch(best.h_value, best.psi_value)
        if branch:
            return finish(it, branch)

        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        mom = (t - 1.0) / t_new
        # u = w_new + mom * (w_new - w_prev), q_u likewise, in that order
        for new_, prev, out in ((w_new, w_prev, u), (q_new, q_prev, q_buf)):
            np.subtract(new_, prev, out=out)
            np.multiply(mom, out, out=out)
            np.add(new_, out, out=out)
        q_u = q_buf
        w_prev, q_prev = w_new, q_new
        t = t_new

    return finish(query.max_inner, "maxiter")
