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
stays at x with ``h = 0``; so does a gap stop whose ``|h|`` lies below
``h_err``, the rounding error of the computed h, where the sign of h is
noise.  Weak duality ``psi <= h`` is asserted at every inner iterate.  A
broken contract (weak duality, an ``x`` outside the domain of ``f1``, a
fixed point with ``h`` not finite) raises ``problem.SolverError``, as every
step that cannot be certified does.
With ``q = xbar - alpha M^T w``, ``z = prox_{alpha xi}(q)``,
``xbar = x - alpha v`` (v the linear coefficient of h) and
``c = -(alpha/2) ||v||^2 - f1(x)``, the dual objective is

    psi(w) = xi(z) + ||z - q||^2 / (2 alpha) + <M^T w, xbar + q> / 2
             - g*(w) + c,

free of the cancellation in ``(||xbar||^2 - ||q||^2) / (2 alpha)`` at small
alpha.  Each inner iteration applies ``M^T`` once: psi, y and h use a fresh
``M^T w`` per dual iterate, and only FISTA's extrapolated point takes its q
from the last two iterates by linearity.
Every query carries ``f0(x)``, ``f1(x)`` and ``grad f0(x)``, so the engine
evaluates none of them; it reads ``f1``'s parts ``op``, ``g`` and ``xi``.
The query holds ``h`` and ``psi``; one loop body evaluates iterate 0 and
every FISTA iterate through them, and the result is the record with the
best psi: with ``f1(y_tilde)``, the step ``y_tilde - x`` and its squared
norm as ``h(y_tilde)`` used them, and ``M^T w_tilde``, which the next warm
start reuses for iterate 0 (``M^T w`` does not depend on the query).
Iterate 0 (any warm start) checks ``g*(w)`` for a finite value; later
iterates are projections onto the domain of ``g*`` by ``g``'s
``conjugate_prox``, which ``conjugate_at_prox`` values without the test;
each is a fresh array (``ProxFunction``'s contract), kept as returned.
psi and h share each ``xi(z)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from inertiafb.problem import (CompositeProblem, SolverError,
                               StructuredConvexTerm)


def theta_from_tau(tau: float) -> float:
    """Strong-convexity factor ``2/(sqrt(2+tau)+sqrt(tau))^2`` in (0, 1]."""
    return 2.0 / (math.sqrt(2.0 + tau) + math.sqrt(tau)) ** 2


@dataclass
class ProxQuery:
    """One subproblem instance: its inputs, and the ``v``, ``xbar`` and
    ``c`` of h and psi, which every dual iterate shares."""
    x: np.ndarray
    s: np.ndarray
    alpha: float
    beta: float
    tau: float
    f0_x: float  # f0(x)
    f1_x: float  # f1(x)
    grad_x: np.ndarray  # grad f0(x)
    max_inner: int
    abs_tol: Optional[float] = None

    # an overflow leaves v, xbar or c non-finite, which no stop test accepts
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0 <= self.tau < np.inf:
            raise ValueError("tau must be nonnegative and finite")
        if not 0 <= self.beta < np.inf:
            raise ValueError("beta must be nonnegative and finite")
        self.v = self.grad_x - (self.beta / self.alpha) * (self.x - self.s)
        self.xbar = self.x - self.alpha * self.v
        self.c = -0.5 * self.alpha * float(self.v.dot(self.v)) - self.f1_x

    def h(self, f1: StructuredConvexTerm, y: np.ndarray,
          xi_y: Optional[float] = None):
        """``(h(y), f1(y), y - x, ||y - x||^2)``; ``xi_y``, when given, is
        ``xi(y)``."""
        f1y = f1.value(y, xi_y)
        d = y - self.x
        d_sq = float(d.dot(d))
        if not math.isfinite(f1y):
            return np.inf, f1y, d, d_sq
        return (float(f1y - self.f1_x + self.v.dot(d)
                      + d_sq / (2.0 * self.alpha)), f1y, d, d_sq)

    def psi(self, f1: StructuredConvexTerm, w: np.ndarray, mtw: np.ndarray,
            at_prox: bool = False):
        """``(psi(w), z, q, xi(z))`` given ``mtw = M^T w``: q = xbar - alpha
        mtw, z = prox(q); ``at_prox``: ``w`` came from ``conjugate_prox``."""
        q = self.xbar - self.alpha * mtw
        z = f1.xi.prox(q, self.alpha)
        xi_z = f1.xi.value(z)
        conj = (f1.g.conjugate_at_prox if at_prox else f1.g.conjugate)(w)
        if not math.isfinite(conj):
            return -np.inf, z, q, xi_z
        r = z - q
        val = (xi_z + r.dot(r) / (2.0 * self.alpha)
               + 0.5 * mtw.dot(self.xbar + q) - conj + self.c)
        return float(val), z, q, xi_z


@dataclass
class ProxResult:
    """A dual iterate ``w_tilde`` and its primal candidate ``y_tilde``, or a
    copy of ``x`` with a zero step where the ``abs`` branch stays there."""
    y_tilde: np.ndarray
    h_value: float
    psi_value: float
    w_tilde: Optional[np.ndarray]
    inner_iters: int
    converged: str  # "gap" | "abs" | "maxiter"
    f1_y: float  # f1(y_tilde)
    mtw_tilde: Optional[np.ndarray]  # M^T w_tilde, the next warm_mtw
    y_step: np.ndarray  # y_tilde - x, as h(y_tilde) used it
    y_step_sq: float  # ||y_tilde - x||^2

    @property
    def ok(self) -> bool:
        return self.converged != "maxiter"


# an overflow leaves h or psi non-finite, which no stop test accepts
@np.errstate(over="ignore", invalid="ignore")
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
    any such stop with ``|h| <= max(abs_tol, h_err)`` stays at a copy of
    ``x``, so every zero decrease comes with a zero step.  ``h_err =
    gamma_n (|f1(y)| + |f1(x)| + |<v, y - x>| + ||y - x||^2 / (2 alpha))``
    bounds the rounding error of the computed ``h(y)``, with ``gamma_n = n
    u / (1 - n u)``, ``u = 2^-53`` and ``n = in_dim + out_dim + 4``; a gap
    stop with ``|h| <= h_err`` is an ``abs`` stop.
    A candidate whose ``h`` is not finite, from a dual iterate equal bit
    for bit to the two before it, raises SolverError: FISTA is then at a
    fixed point, so no later iterate can certify.
    ``inner_hook(l, h, psi)``, when given, observes every inner iterate.
    ``warm_start``, when given, is an earlier call's ``w_tilde`` on the
    same problem; it is never written to, and may come back as ``w_tilde``.
    An inner iteration applies ``M`` twice (on FISTA's ``z_u``, and in
    ``f1(y)`` for ``h``; the prox of ``xi`` is not linear, so no linearity
    saves one) and ``M^T`` once; iterate 0 applies ``M`` once, in
    ``f1(y)``, and ``M^T`` unless ``warm_mtw = M^T warm_start`` is given.
    The FISTA buffers are allocated only once iterate 0 fails its stop
    test.  ``abs_tol`` defaults to ``1e-12 (1 + |f(x)|)``.
    """
    if not math.isfinite(query.f1_x):
        raise SolverError("prox query with x outside dom(f1)")
    tau, alpha = query.tau, query.alpha
    eta_gap = 2.0 / (2.0 + tau)
    abs_tol = (1e-12 * (1.0 + abs(query.f0_x + query.f1_x))
               if query.abs_tol is None else query.abs_tol)

    f1, op = problem.f1, problem.f1.op
    w = np.zeros(op.out_dim) if warm_start is None else warm_start
    mtw = op.rmatvec(w) if warm_mtw is None else warm_mtw

    # psi is a sum of terms on the scale of |c| and |f1(x)|, so its
    # cancellation noise is relative to that scale, not to |h|
    guard_tol = 1e-10 * (1.0 + abs(query.c) + abs(query.f1_x))

    # iterate 0 is the starting dual point, each later one a FISTA step on
    # -psi from u; u, u + sigma M z_u and q_u live in buffers rewritten every
    # step, and every w may be returned, so none is ever written to
    for it in range(query.max_inner + 1):
        if it:
            z_u = f1.xi.prox(q_u, alpha)
            np.multiply(sigma, op.matvec(z_u), out=v)
            np.add(u, v, out=v)
            w = f1.g.conjugate_prox(v, sigma)  # fresh: v is rewritten
            mtw = op.rmatvec(w)
        psi, y, q, xi_y = query.psi(f1, w, mtw, at_prox=it > 0)
        h, f1_y, d, d_sq = query.h(f1, y, xi_y)
        if inner_hook is not None:
            inner_hook(it, h, psi)
        if psi > h + guard_tol * (1.0 + abs(h)):
            raise SolverError(f"weak duality violated: psi={psi!r} > h={h!r}")
        if not math.isfinite(h) and it > 1 and all(
                a.tobytes() == w.tobytes() for a in (w_prev, w_prev2)):
            raise SolverError("prox engine at a fixed point with h not finite")
        if not it or psi > best.psi_value:
            best = ProxResult(y, h, psi, w, it, "maxiter", f1_y, mtw, d, d_sq)
        # psi <= min h <= h(x) = 0 in exact arithmetic, so the cap keeps
        # a psi that cancellation left above 0 from accepting an h > 0
        if tau > 0 and best.h_value <= eta_gap * min(best.psi_value, 0.0):
            best.converged = "gap"
            break
        if best.h_value - best.psi_value <= abs_tol and (
                tau == 0 or abs(best.h_value) <= abs_tol):
            best.converged = "abs"
            break

        if not it:
            sigma, t = 1.0 / (alpha * f1.op_norm_sq_bound), 1.0
            u, v = w.copy(), np.empty_like(w)
            w_prev2 = w_prev = w
            q_u = q_prev = q  # xbar - alpha M^T u, kept by linearity
            q_buf = np.empty_like(q)
            continue
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        mom = (t - 1.0) / t_new
        # u = w + mom * (w - w_prev), q_u likewise, in that order
        for new_, prev, out in ((w, w_prev, u), (q, q_prev, q_buf)):
            np.subtract(new_, prev, out=out)
            np.multiply(mom, out, out=out)
            np.add(new_, out, out=out)
        q_u = q_buf
        w_prev2, w_prev, q_prev = w_prev, w, q
        t = t_new

    best.inner_iters = it
    # h_err bounds the rounding error of the computed h (Higham, Accuracy
    # and Stability of Numerical Algorithms, 2002, sec. 3.1): below it, the
    # sign of h that the gap test read is noise
    n_u = (op.in_dim + op.out_dim + 4) * 2.0 ** -53
    h_err = n_u / (1.0 - n_u) * (
        abs(best.f1_y) + abs(query.f1_x)
        + abs(float(query.v.dot(best.y_step)))
        + best.y_step_sq / (2.0 * alpha))
    if best.converged == "gap" and abs(best.h_value) <= h_err:
        best.converged = "abs"
    if best.converged == "abs" and abs(best.h_value) <= max(abs_tol, h_err):
        # x is a max(abs_tol, h_err)-minimiser of h: stay there, h(x) = 0
        best.y_tilde, best.y_step = query.x.copy(), np.zeros_like(query.x)
        best.h_value, best.y_step_sq, best.f1_y = 0.0, 0.0, query.f1_x
        best.psi_value = min(best.psi_value, 0.0)
    return best
