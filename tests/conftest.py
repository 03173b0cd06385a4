import dataclasses

import numpy as np
from scipy import ndimage

from inertiafb.cli import build_problem
from inertiafb.fb import Config
from inertiafb.problem import (CompositeProblem, IdentityOp, L1Norm,
                               LinearOp, ProxFunction, SmoothOracle,
                               StructuredConvexTerm, ZeroFunction)
from inertiafb.prox_engine import ProxQuery


class MatrixOp(LinearOp):
    """A dense matrix as a linear operator."""

    def __init__(self, a: np.ndarray):
        self.a = np.asarray(a, dtype=float)
        self.out_dim, self.in_dim = self.a.shape

    def matvec(self, x):
        return self.a @ x

    def rmatvec(self, y):
        return 0.0 + self.a.T @ y  # LinearOp.rmatvec holds no -0.0


def _fold_reference(z, length, pad):
    # transpose of whole-sample mirror padding along axis 0
    out = z[pad:pad + length].copy()
    if pad:
        out[1:pad + 1] += z[:pad][::-1]
        out[length - 1 - pad:length - 1] += z[length + pad:][::-1]
    return out


def fold2d_reference(full, shape, kshape):
    """Transpose of whole-sample mirror padding by ``kshape``'s radii of a
    ``shape`` image: the rows folded first, then the columns; flat."""
    tmp = _fold_reference(full, shape[0], kshape[0] // 2)
    return _fold_reference(tmp.T, shape[1], kshape[1] // 2).T.ravel()


class MirrorConv2D(LinearOp):
    """The 2-D reference for ``imaging.ConvOperator`` and the log-filter
    oracle: correlation of the whole-sample mirrored image with any odd 2-D
    ``kernel`` by ``ndimage.correlate``, and its adjoint as ``np.pad``, full
    convolution by ``ndimage.convolve`` and two out-of-place folds."""

    def __init__(self, kernel, shape):
        self.kernel = np.asarray(kernel, dtype=float)
        self.shape = tuple(shape)
        self.in_dim = self.out_dim = self.shape[0] * self.shape[1]

    def matvec(self, x):
        return ndimage.correlate(np.reshape(x, self.shape), self.kernel,
                                 mode="mirror").ravel()

    def rmatvec(self, y):
        pads = tuple((k // 2, k // 2) for k in self.kernel.shape)
        full = ndimage.convolve(np.pad(np.reshape(y, self.shape), pads),
                                self.kernel, mode="constant")
        return fold2d_reference(full, self.shape, self.kernel.shape)


class ZeroBlockFunction(ProxFunction):
    """``g = 0``, whose conjugate is the indicator of ``{0}``: the dual
    iterate stays at 0, where the primal candidate is the exact prox point
    of ``xi``."""

    def value(self, x):
        return 0.0

    def conjugate(self, w):
        return 0.0 if not np.any(w) else np.inf

    def conjugate_prox(self, v, sigma):
        return np.zeros_like(v)

    def conjugate_at_prox(self, w):
        return 0.0


def xi_term(xi, n):
    """``f1 = xi`` as a structured term: ``g = 0`` on ``IdentityOp(n)``,
    with the bound 1, plus ``xi``."""
    return StructuredConvexTerm(IdentityOp(n), ZeroBlockFunction(), xi,
                                op_norm_sq_bound=1.0)


def prox_query(p, x, s, alpha, beta, tau, **settings):
    """The ``ProxQuery`` at ``(x, s)`` with ``f0(x)``, ``f1(x)`` and ``grad
    f0(x)`` evaluated on ``p``, as ``fb.prox`` passes them; ``max_inner``
    is ``fb.Config``'s unless ``settings`` holds one."""
    settings.setdefault("max_inner", Config.max_inner)
    return ProxQuery(x=x, s=s, alpha=alpha, beta=beta, tau=tau,
                     f0_x=p.f0.value(x), f1_x=p.f1.value(x),
                     grad_x=p.f0.grad(x), **settings)


def quadratic_l1_problem(n=50, seed=0, weight=0.3):
    """The CLI's synthetic-quadratic-l1 problem, f0 = 0.5||x - b||^2 and
    f1 = weight*||x||_1, as ``(problem, b, minimizer)``; the minimizer is
    soft(b, weight)."""
    p, _, context = build_problem({"problem": "synthetic-quadratic-l1",
                                   "n": str(n), "seed": str(seed),
                                   "l1_weight": str(weight)})
    b = context["b"]
    minimizer = np.sign(b) * np.maximum(np.abs(b) - weight, 0.0)
    return p, b, minimizer


def smooth_only_problem(n=1, target=3.0):
    """f0 = 0.5||x - target||^2, f1 = 0 (``g = 0`` and ``xi = 0``)."""
    t = np.full(n, target, dtype=float)
    f0 = SmoothOracle(lambda x: 0.5 * float(np.dot(x - t, x - t)),
                      lambda x: x - t)
    return CompositeProblem(f0, xi_term(ZeroFunction(), n))


def scalar_l1_problem(weight=1.0):
    """1-D f0 = 0.5 x^2, f1 = weight*|x|."""
    f0 = SmoothOracle(lambda x: 0.5 * float(x[0] ** 2),
                      lambda x: np.asarray(x, dtype=float))
    f1 = StructuredConvexTerm(IdentityOp(1), L1Norm(weight), ZeroFunction(),
                              op_norm_sq_bound=1.0)
    return CompositeProblem(f0, f1)


def eval_h(p, x, s, alpha, beta, y):
    """The subproblem objective h(y; x, s), as the prox engine computes it."""
    return prox_query(p, x, s, alpha, beta, 0.0).h(p.f1, y)[0]


def dual_objective(p, query, w):
    """``(psi(w), z)``, the dual value at ``w`` and its primal candidate, as
    the prox engine computes them; psi is ``-inf`` outside the dual domain."""
    w = np.asarray(w, dtype=float)
    psi, z, _, _ = query.psi(p.f1, w, p.f1.op.rmatvec(w))
    return psi, z


def scaled_h_engine(engine, factor):
    """``engine`` with its subproblem value ``h`` times ``factor``: a prox
    engine that misreports the decrease it certifies."""
    def scaled(*args, **kwargs):
        res = engine(*args, **kwargs)
        return dataclasses.replace(res, h_value=factor * res.h_value)
    return scaled

