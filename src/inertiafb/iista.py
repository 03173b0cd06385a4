"""Inexact forward-backward baseline (iISTA).

Plain proximal-gradient iteration without inertia on the shared core
(:mod:`inertiafb.fb`): the same inexact prox engine, local descent test and
driver as i2Piano, with backtracking that keeps ``L_k`` nondecreasing
(i2Piano's also shrinks it), and the parameter policy ``alpha_k = 1/L_k``,
``beta_k = 0`` is ``certify.coupling``'s.  What stays here is the step,
with ``f`` as merit and ``||x^{k+1} - x^k||`` as ``d_k``.  Serves as the
comparator against the two inertial solvers.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from inertiafb import fb
from inertiafb.problem import CompositeProblem, eval_f
from inertiafb.prox_engine import solve_inexact_prox
from inertiafb.trace import Trace


class IistaConfig(fb.Config):
    """iISTA has no policy fields: it reads the shared settings only."""


def iista_step(problem: CompositeProblem, state: fb.Iterate,
               cfg: IistaConfig) -> fb.Iterate:
    new = fb.backtrack(problem, state, cfg, "iista", solve_inexact_prox,
                       state.L_or_gamma)
    new.s_curr = new.x_curr
    new.d_k = math.sqrt(new.prox.y_step_sq)  # x^{k+1} is the prox point
    return new


def iista_solve(problem: CompositeProblem, x0: np.ndarray,
                cfg: Optional[IistaConfig] = None) -> Trace:
    """Run iISTA from ``x0`` and emit a trace; :func:`fb.run` stops it once
    ``d_k = ||x^{k+1} - x^k|| <= stop_tol`` or after ``max_outer``
    iterations.  ``f`` is monotone nonincreasing along the iterates."""
    return fb.run(problem, x0, eval_f, cfg or IistaConfig(), "iista",
                  iista_step)
