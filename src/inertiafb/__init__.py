"""Inertial inexact forward-backward solvers for nonsmooth nonconvex problems.

The package bundles:

* a composite-problem abstraction ``f = f0 + f1`` with a structured convex
  term (:mod:`inertiafb.problem`),
* an inexact inertial proximal engine driven by a dual FISTA loop with a
  primal-dual gap certificate (:mod:`inertiafb.prox_engine`),
* three solvers built on that engine: an inertial method with Lipschitz
  backtracking (:mod:`inertiafb.i2piano`), an inertial line-search method on
  a merit function (:mod:`inertiafb.ipila`) and an inexact ISTA baseline
  (:mod:`inertiafb.iista`),
* a trace/certifier pair that replays the descent inequalities over solver
  output (:mod:`inertiafb.trace`, :mod:`inertiafb.certify`),
* an image-deblurring problem library (:mod:`inertiafb.imaging`) and a CLI
  benchmark driver (:mod:`inertiafb.cli`).
"""

from inertiafb.problem import (
    Block,
    CompositeProblem,
    DomainError,
    L1Norm,
    LinearOp,
    MatrixOp,
    IdentityOp,
    NonnegIndicator,
    ProxFunction,
    SmoothOracle,
    SolverError,
    StructuredConvexTerm,
    ZeroFunction,
    eval_f,
    check_gradient,
    power_iteration_sq_norm,
)
from inertiafb.prox_engine import (
    EngineError,
    ProxQuery,
    ProxResult,
    dual_objective,
    solve_inexact_prox,
    theta_from_tau,
)
from inertiafb.i2piano import I2PianoConfig, compute_params, i2piano_solve
from inertiafb.ipila import (
    IPilaConfig,
    armijo_linesearch,
    compute_delta,
    descent_direction,
    ipila_solve,
)
from inertiafb.iista import IistaConfig, iista_solve
from inertiafb.trace import Trace
from inertiafb.certify import summarize

__all__ = [
    "Block",
    "CompositeProblem",
    "DomainError",
    "EngineError",
    "I2PianoConfig",
    "IPilaConfig",
    "IdentityOp",
    "IistaConfig",
    "L1Norm",
    "LinearOp",
    "MatrixOp",
    "NonnegIndicator",
    "ProxFunction",
    "ProxQuery",
    "ProxResult",
    "SmoothOracle",
    "SolverError",
    "StructuredConvexTerm",
    "Trace",
    "ZeroFunction",
    "armijo_linesearch",
    "check_gradient",
    "compute_delta",
    "compute_params",
    "descent_direction",
    "dual_objective",
    "eval_f",
    "i2piano_solve",
    "iista_solve",
    "ipila_solve",
    "power_iteration_sq_norm",
    "solve_inexact_prox",
    "summarize",
    "theta_from_tau",
]
