"""Composite problem abstraction ``f = f0 + f1``.

``f0`` is a smooth (possibly nonconvex) term exposed through value/gradient
oracles.  ``f1`` is a convex term with the structure

    f1(x) = g(M x) + xi(x),

where ``g`` and ``xi`` admit closed-form proximity operators and ``M`` is a
linear operator with an exact adjoint.  Points are dense float64 arrays;
extended-real values use ``numpy.inf``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class SolverError(RuntimeError):
    """A solver could not produce a certified step (shared by all solvers)."""


class DomainError(SolverError):
    """A point lies outside the open set where a smooth oracle is defined:
    a solver failure, like every ``SolverError``."""


# ---------------------------------------------------------------------------
# smooth part


class SmoothOracle:
    """Value/gradient oracle for the smooth term, split at a forward pass.

    ``forward(x)`` returns an opaque result (the filter responses ``K x``,
    say), or None when there is no ``forward_fn``.  ``value(x, fwd)`` and
    ``grad(x, fwd)`` finish from it, and run the forward pass themselves
    without one.  Nothing is memoized: the solvers carry the forward result
    of the current point with its f0 value.  ``value_fn`` and ``grad_fn``
    read ``forward_fn(x)``, or the flat float64 ``x`` when there is none.
    ``grad`` returns ``grad_fn``'s array uncopied, so that must be a fresh
    float64 array; callers keep it but never write into it.
    """

    def __init__(self, value_fn: Callable, grad_fn: Callable,
                 forward_fn: Optional[Callable] = None):
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self._forward_fn = forward_fn

    def forward(self, x: np.ndarray):
        return None if self._forward_fn is None else self._forward_fn(x)

    def _fn_input(self, x, fwd):
        fwd = self.forward(x) if fwd is None else fwd
        return x if fwd is None else fwd

    def value(self, x: np.ndarray, fwd=None) -> float:
        return float(self._value_fn(self._fn_input(x, fwd)))

    def grad(self, x: np.ndarray, fwd=None) -> np.ndarray:
        return self._grad_fn(self._fn_input(x, fwd))


# ---------------------------------------------------------------------------
# linear operators


class LinearOp:
    """Linear operator with an exact adjoint, acting on flat arrays.
    ``matvec`` may return ``x`` itself (``IdentityOp``): never write into
    it.  ``rmatvec`` returns a fresh array (callers keep it or write into
    it) that holds no -0.0, as a sum accumulated from +0.0 never does.
    An operator's matrix never changes after construction, and operators
    hash by identity, so ``power_iteration_sq_norm`` keeps one bound per
    operator object.
    """

    in_dim: int
    out_dim: int


class IdentityOp(LinearOp):
    def __init__(self, n: int):
        self.in_dim = self.out_dim = n

    def matvec(self, x):
        return np.asarray(x, dtype=float)

    def rmatvec(self, y):
        return 0.0 + np.asarray(y, dtype=float)  # 0.0 + (-0.0) is +0.0


def adjoint_residual(op: LinearOp, rng: np.random.Generator) -> float:
    """Worst relative defect of <Mx, y> = <x, M^T y> on 5 random pairs."""
    worst = 0.0
    for _ in range(5):
        x = rng.standard_normal(op.in_dim)
        y = rng.standard_normal(op.out_dim)
        lhs = float(np.dot(op.matvec(x), y))
        rhs = float(np.dot(x, op.rmatvec(y)))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
    return worst


@functools.lru_cache(maxsize=1)
def power_iteration_sq_norm(op: LinearOp, iters: int = 50) -> float:
    """Estimate of lambda_max(M^T M) by power iteration.

    Each ``M^T M v`` is normalised in place, as ``LinearOp.rmatvec``
    allows; ``sqrt(w.w)`` is ``np.linalg.norm``'s own formula.  The
    iteration is deterministic and an operator fixed, so the last ``(op,
    iters)`` is kept: the builds that share ``cli._scene``'s blur share
    its bound, bit for bit, and an equal operator built anew runs the
    iteration again.
    """
    v = np.random.default_rng(0).standard_normal(op.in_dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        v = op.rmatvec(op.matvec(v))
        lam = float(np.sqrt(v.dot(v)))
        if lam == 0.0:
            break
        v /= lam
    return lam


# ---------------------------------------------------------------------------
# proximable convex functions


class ProxFunction:
    """Convex function with closed-form oracles, in one of two roles.

    The ``g`` of ``g(M x)`` (``L1Norm``, ``imaging.GroupL2``) exposes
    ``value``, the conjugate value ``conjugate(w)``, ``conjugate_prox(v,
    sigma)``, the minimizer of ``sigma g*(w) + ||w - v||^2 / 2``, and
    ``conjugate_at_prox(w)``, ``conjugate(w)`` without the feasibility
    test for a ``w`` that ``conjugate_prox`` returned.  ``conjugate_prox``
    returns a fresh array, never ``v`` or a view of it: the prox engine
    keeps each dual iterate while it rewrites ``v``.  Indicator-type
    conjugates accept a small relative slack, so that a warm start touched
    by roundoff does not flip to ``-inf``.  An ``xi`` function exposes
    ``value`` and ``prox(u, sigma)``, the minimizer of ``value(y) +
    ||y - u||^2 / (2 sigma)``.
    """

    #: relative feasibility slack for indicator-type conjugates
    feas_rtol = 1e-9


class ZeroFunction(ProxFunction):
    def value(self, x):
        return 0.0

    def prox(self, u, sigma):
        return np.asarray(u, dtype=float)


class L1Norm(ProxFunction):
    """``weight * ||u - shift||_1``, a ``g`` of ``StructuredConvexTerm``.

    The conjugate is ``<w, shift>`` (0 without a shift) on the box
    ``|w_i| <= weight`` and ``+inf`` off it, so ``prox_{sigma g*}(v)`` is
    the projection of ``v - sigma shift`` onto the box.  A clip is exact:
    each projected point lies in the box bit for bit.
    """

    def __init__(self, weight: float = 1.0, shift: Optional[np.ndarray] = None):
        if not 0 < weight < np.inf:
            raise ValueError("weight must be positive and finite")
        self.weight = float(weight)
        self.shift = None if shift is None else np.asarray(shift, dtype=float)

    def value(self, x):
        z = x if self.shift is None else x - self.shift
        return self.weight * float(np.abs(z).sum())

    def conjugate(self, w):
        w = np.asarray(w, dtype=float)
        if np.abs(w).max(initial=0.0) > self.weight * (1.0 + self.feas_rtol):
            return np.inf
        return self.conjugate_at_prox(w)

    def conjugate_prox(self, v, sigma):
        if self.shift is not None:
            v = v - sigma * self.shift
        return np.clip(v, -self.weight, self.weight)

    def conjugate_at_prox(self, w):
        return 0.0 if self.shift is None else float(w.dot(self.shift))


class NonnegIndicator(ProxFunction):
    """Indicator of the nonnegative orthant; feasibility test is exact."""

    def value(self, x):
        return 0.0 if x.min(initial=0.0) >= 0.0 else np.inf

    def prox(self, u, sigma):
        return np.maximum(u, 0.0)


# ---------------------------------------------------------------------------
# structured convex term and composite problem


class StructuredConvexTerm:
    """``f1(x) = g(M x) + xi(x)`` as its parts ``op`` (``M``), ``g`` and
    ``xi``; its sizes are ``op``'s.  A sum ``sum_i g_i(M_i x)`` is one term:
    stack the ``M_i`` into ``M`` and let ``g`` be separable.

    ``op_norm_sq_bound``, on which the dual step relies, must upper-bound
    ``||M||^2`` and be positive and finite; when omitted it is 1.05 times
    ``power_iteration_sq_norm(op)``, 50 power iterations once per ``op``
    object.  That bound holds only while ``op``'s matrix stays as it was
    when first asked, as ``LinearOp`` requires: an operator edited after
    its bound was kept would get the stale bound.
    """

    def __init__(self, op: LinearOp, g: ProxFunction, xi: ProxFunction,
                 op_norm_sq_bound: Optional[float] = None):
        self.op, self.g, self.xi = op, g, xi
        if op_norm_sq_bound is None:
            op_norm_sq_bound = 1.05 * power_iteration_sq_norm(op)
        if not 0.0 < op_norm_sq_bound < math.inf:
            raise ValueError("op_norm_sq_bound must be positive and finite")
        self.op_norm_sq_bound = float(op_norm_sq_bound)

    def value(self, x: np.ndarray, xi_x: Optional[float] = None) -> float:
        """``f1(x)``; a caller that holds ``xi(x)`` passes it as ``xi_x``."""
        total = self.xi.value(x) if xi_x is None else xi_x
        if not math.isfinite(total):
            return np.inf
        total += self.g.value(self.op.matvec(x))
        if not math.isfinite(total):
            return np.inf
        return float(total)


@dataclass
class CompositeProblem:
    """``f = f0 + f1``; its size ``n`` is ``f1``'s, ``f1.op.in_dim``."""

    f0: SmoothOracle
    f1: StructuredConvexTerm

    @property
    def n(self) -> int:
        return self.f1.op.in_dim


def eval_f(problem: CompositeProblem, x: np.ndarray) -> float:
    """``f0(x) + f1(x)``; ``+inf`` exactly when x is outside dom(f1)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"expected shape ({problem.n},), got {x.shape}")
    f1x = problem.f1.value(x)
    if not np.isfinite(f1x):
        return np.inf
    return problem.f0.value(x) + f1x


@dataclass
class GradientReport:
    max_rel_error: float
    probed: int
    skipped: list = field(default_factory=list)


def check_gradient(problem: CompositeProblem, x: np.ndarray,
                   seed: int = 0) -> GradientReport:
    """Central-difference check of the smooth gradient at ``x``.

    Probes at most 32 random coordinates; a coordinate whose probe leaves
    the domain of f0 is skipped and flagged in the report.
    """
    x = np.asarray(x, dtype=float)
    step = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    g = problem.f0.grad(x)
    rng = np.random.default_rng(seed)
    coords = np.arange(x.size)
    if x.size > 32:
        coords = rng.choice(x.size, size=32, replace=False)
    worst = 0.0
    skipped = []
    for i in coords:
        e = np.zeros_like(x)
        e[i] = step
        try:
            fp = problem.f0.value(x + e)
            fm = problem.f0.value(x - e)
        except DomainError:
            skipped.append(int(i))
            continue
        if not (np.isfinite(fp) and np.isfinite(fm)):
            skipped.append(int(i))
            continue
        fd = (fp - fm) / (2.0 * step)
        worst = max(worst, abs(fd - g[i]) / (1.0 + abs(g[i])))
    return GradientReport(max_rel_error=worst, probed=len(coords) - len(skipped),
                          skipped=skipped)
