"""Forward-backward core shared by i2Piano, iPila and iISTA.

Each step of the three solvers asks the prox engine for an inexact inertial
proximal point ``y`` from a point ``x`` and merit anchor ``s`` with a step
``alpha_k`` and inertia ``beta_k``; they differ only in how they choose
these and in the test that accepts the step.  This module holds the rest:
the settings every solver reads (:class:`Config`), the :class:`Iterate`,
the start at ``x0``, the certified prox call, the Lipschitz backtracking
step of i2Piano and iISTA, and the one driver, :func:`run`, which writes
the trace header from the solver's config, applies the stop rule and checks
every row it appends with the row functions :mod:`inertiafb.certify`
replays, handing them a ``certify.Header`` of the config it runs, so each
inequality is written once, and so is each solver's coupling of
``(alpha_k, beta_k)`` to ``L_k``: ``certify.coupling``.  A solver module
is its config class and its step.  Each solver evaluates
``f0``, ``grad f0`` and ``f1`` once per point and computes each step once:
iPila's line search adds its trial points, each evaluated once, and iPila's
``stationary`` row, a run's last, evaluates ``f0`` at a prox point it does
not take.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from inertiafb.certify import Header, coupling, row_checks
from inertiafb.problem import CompositeProblem, DomainError, SolverError
from inertiafb.prox_engine import ProxQuery, ProxResult, theta_from_tau
from inertiafb.trace import CSV_COLUMNS, Trace

# the backtracking step gives up once its Lipschitz estimate passes L_MAX;
# i2Piano's shrink never takes it below L_MIN, and L0 lies between the two
L_MIN = 1e-8
L_MAX = 1e12


@dataclass(kw_only=True)
class Config:
    """Settings every solver reads; each solver's config adds its policy
    fields.  ``tau`` and ``max_inner`` go to the prox engine.  Every float
    setting must be finite, ``tau`` nonnegative with a finite ``theta``,
    ``max_outer`` at least 1, ``max_inner`` nonnegative, ``eta`` above 1
    and ``L0`` in ``[L_MIN, L_MAX]``."""
    tau: float = 1e6
    L0: float = 1.0
    eta: float = 1.5
    max_outer: int = 1000
    stop_tol: float = 0.0
    max_inner: int = 2000

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        try:
            theta_from_tau(self.tau)
        except OverflowError:
            raise ValueError("tau is too large: theta overflows") from None
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if self.max_inner < 0:
            raise ValueError("max_inner must be nonnegative")
        if self.eta <= 1:
            raise ValueError("eta must exceed 1")
        if not L_MIN <= self.L0 <= L_MAX:
            raise ValueError(f"L0 must lie in [{L_MIN:g}, {L_MAX:g}]")

    @property
    def theta(self) -> float:
        return theta_from_tau(self.tau)


def check_coupling(solver: str, cfg: Config, *Ls: float) -> None:
    """Raise ValueError unless ``certify.coupling(solver, L, cfg)``'s
    ``alpha_k`` is positive at each of ``Ls`` with every value it computes
    on the way finite.  It runs on NumPy scalars, whose overflow or invalid
    operation (``inf - inf``, say) raises here."""
    probe = SimpleNamespace(theta=np.float64(cfg.theta), **{
        k: np.float64(v) if isinstance(v, float) else v
        for k, v in vars(cfg).items()})
    for L in Ls:
        setting = (f"delta = {cfg.delta!r}, gamma = {cfg.gamma!r}: the "
                   f"coupling at L_k = {L:g}")
        try:
            with np.errstate(over="raise", invalid="raise"):
                alpha, _ = coupling(solver, np.float64(L), probe)
        except FloatingPointError as exc:
            raise ValueError(f"{setting} is not finite ({exc})") from None
        if not alpha > 0:
            raise ValueError(f"{setting} gives alpha_k = {float(alpha)!r}")


@dataclass
class Iterate:
    """A point, its merit anchor and the prox call that led there; each
    field named after a ``trace.CSV_COLUMNS`` column holds that column."""
    x_curr: np.ndarray
    # merit anchor: i2Piano's previous point, iPila's s, x itself for iISTA
    s_curr: np.ndarray
    f: float
    phi: float
    f0_val: float  # f0(x_curr); f = f0_val + f1_val
    f1_val: float
    f0_fwd: object  # problem.f0.forward(x_curr)
    L_or_gamma: float  # L_k, or iPila strict's constant gamma_k
    prox: ProxResult  # the step's engine result; x0's zero step at the start
    alpha_k: float = 0.0
    beta_k: float = 0.0
    d_k: float = 0.0
    delta_k: float = math.nan
    lambda_k: float = math.nan
    inner_iters: int = 0  # summed over backtracking trials
    backtracks: int = 0
    accepted_branch: str = ""  # iPila's "inertial", "linesearch", "stationary"
    streak: int = 0  # i2Piano: backtrack-free steps since L_k last shrank

    def after_prox(self, res: ProxResult, alpha: float, beta: float,
                   fwd, f0: float) -> "Iterate":
        """A copy at ``(y_tilde, x)`` holding ``res``, the prox call from this
        point, and ``y_tilde``'s forward pass ``fwd`` and ``f0``; same phi."""
        new = object.__new__(Iterate)  # a shallow copy at a third of the
        new.__dict__.update(self.__dict__)  # cost of dataclasses.replace
        new.prox, new.alpha_k, new.beta_k = res, alpha, beta
        new.move_to(res.y_tilde, self.x_curr, fwd, f0, res.f1_y)
        return new

    def move_to(self, x, s, fwd, f0: float, f1: float) -> None:
        """Put this iterate at the pair ``(x, s)``; ``fwd`` is x's forward."""
        self.x_curr, self.s_curr, self.f0_fwd = x, s, fwd
        self.f0_val, self.f1_val, self.f = f0, f1, f0 + f1


# the row fields an iterate holds under their column names
ROW_FIELDS = [c for c in CSV_COLUMNS if c in Iterate.__dataclass_fields__]


def start(problem: CompositeProblem, x0, eval_f, L0: float) -> Iterate:
    """The iterate at ``x0`` with a copy of ``x0`` as its anchor.

    ``eval_f`` is the calling solver's, so that its calls are counted there.
    Its merit value is ``f(x0)``: with the anchor at ``x0``, every solver's
    merit reduces to ``f``.  When ``f(x0)`` is not finite, a DomainError
    gives the value of each term, and no NumPy overflow warning precedes it.
    """
    x0 = np.asarray(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        f = eval_f(problem, x0)
        fwd = problem.f0.forward(x0)
        f0, f1 = problem.f0.value(x0, fwd), problem.f1.value(x0)
    if not np.isfinite(f):
        raise DomainError(f"f(x0) is not finite: f0(x0) = {f0!r}, "
                          f"f1(x0) = {f1!r}")
    zero_step = ProxResult(x0, 0.0, 0.0, None, 0, "", f1, None,
                           np.zeros_like(x0), 0.0)
    return Iterate(x_curr=x0, s_curr=x0.copy(), f=f, phi=f, f0_val=f0,
                   f1_val=f1, f0_fwd=fwd, L_or_gamma=L0, prox=zero_step)


def prox(problem: CompositeProblem, it: Iterate, cfg: Config, alpha: float,
         beta: float, grad: np.ndarray, engine) -> Iterate:
    """``it.after_prox`` of the engine's certified prox point ``y`` from
    ``(it.x_curr, it.s_curr)``, with ``y``'s forward pass and ``f0(y)``:
    every solver's one evaluation of a prox point."""
    try:  # an overflowed coupling (--delta 1e308) is NaN, which is rejected
        query = ProxQuery(x=it.x_curr, s=it.s_curr, alpha=alpha, beta=beta,
                          tau=cfg.tau, max_inner=cfg.max_inner,
                          f0_x=it.f0_val, f1_x=it.f1_val, grad_x=grad)
    except ValueError as exc:
        raise SolverError(f"prox step rejected: {exc}: alpha = {alpha!r}, "
                          f"beta = {beta!r}") from None
    res = engine(problem, query, warm_start=it.prox.w_tilde,
                 warm_mtw=it.prox.mtw_tilde)
    if not res.ok:
        raise SolverError("prox engine hit max_inner without certificate")
    fwd = problem.f0.forward(res.y_tilde)
    return it.after_prox(res, alpha, beta, fwd,
                         problem.f0.value(res.y_tilde, fwd))


def backtrack(problem: CompositeProblem, it: Iterate, cfg: Config,
              solver: str, engine, L: float) -> Iterate:
    """The step from ``it`` accepted by the local descent test.

    Starting from the estimate ``L``, ``certify.coupling(solver, L, cfg)``
    gives ``(alpha, beta)`` and ``L`` grows by ``cfg.eta`` until ``f0(y) <=
    f0(x) + <grad f0(x), y - x> + (L/2) ||y - x||^2``.  The returned
    iterate sits at ``(y, x)`` with merit ``f(y)``; the caller sets its
    anchor, merit and ``d_k``.
    """
    g = problem.f0.grad(it.x_curr, it.f0_fwd)
    backtracks = inner = 0
    while True:
        alpha, beta = coupling(solver, L, cfg)
        new = prox(problem, it, cfg, alpha, beta, g, engine)
        inner += new.prox.inner_iters
        rhs = (it.f0_val + float(np.dot(g, new.prox.y_step))
               + 0.5 * L * new.prox.y_step_sq)
        if new.f0_val <= rhs + 1e-12 * (1.0 + abs(it.f0_val)):
            break
        L *= cfg.eta
        backtracks += 1
        if L > L_MAX * cfg.eta:
            raise SolverError("descent test still failing at L_max; "
                              "gradient or domain broken")
    new.phi, new.L_or_gamma = new.f, L
    new.inner_iters, new.backtracks = inner, backtracks
    return new


def run(problem: CompositeProblem, x0, eval_f, cfg: Config, solver: str,
        step: Callable[[CompositeProblem, Iterate, Config], Iterate],
        on_step=None) -> Trace:
    """Run ``solver`` from :func:`start` at ``x0``, one trace row per
    ``step(problem, state, cfg)``.

    ``step`` returns an iterate made by :func:`prox`.  The ``stop_reason``
    is ``stationary`` after a row whose accepted branch is ``stationary``,
    ``d_k`` once ``d_k <= cfg.stop_tol``, and ``max_outer`` after
    ``cfg.max_outer`` steps.  The meta is ``solver``, each field of
    ``cfg`` under its own name, ``f_init``, ``phi_init``, ``f_final`` and
    ``stop_reason``.  Each row holds every ``CSV_COLUMNS`` column: the
    iterate's ``ROW_FIELDS``, its prox result's ``h``, ``psi`` and branch,
    and the three step norms.  It is checked as it is appended, by the
    :mod:`certify` row functions that apply to ``solver``; a positive or
    NaN residual raises SolverError naming the check and ``k``.
    ``on_step(k, before, after)`` observes each transition.
    """
    state = start(problem, x0, eval_f, cfg.L0)
    trace = Trace(meta={"solver": solver, **dataclasses.asdict(cfg),
                        "f_init": state.f, "phi_init": state.phi})
    hdr = Header(solver, cfg, state.f)
    checks, prev = row_checks(hdr), None
    t0 = time.monotonic()
    for k in range(cfg.max_outer):
        new = step(problem, state, cfg)
        res = new.prox
        # sqrt of the dot product is np.linalg.norm's own formula
        y_step = math.sqrt(res.y_step_sq)
        # x_{k+1} = y_tilde moved by y_step: no second pass over x
        x_step = y_step if new.x_curr is res.y_tilde \
            else math.sqrt((dx := new.x_curr - state.x_curr).dot(dx))
        ds = new.s_curr - state.s_curr
        row = trace.append(
            k=k, time_s=time.monotonic() - t0,
            **{name: getattr(new, name) for name in ROW_FIELDS},
            h=res.h_value, psi=res.psi_value, prox_branch=res.converged,
            x_step_norm=x_step, y_step_norm=y_step,
            s_step_norm=math.sqrt(ds.dot(ds)))
        if failed := [f"{name} at k={j} (residual {r:.3e})"
                      for name, fn in checks.items()
                      for j, r in fn(hdr, prev, row) if not r <= 0.0]:
            raise SolverError(f"certificate failed: {', '.join(failed)}")
        prev = row
        if on_step is not None:
            on_step(k, state, new)
        state = new
        if reason := ("stationary" if new.accepted_branch == "stationary"
                      else "d_k" if new.d_k <= cfg.stop_tol else ""):
            break
    else:
        reason = "max_outer"
    trace.meta["f_final"], trace.meta["stop_reason"] = state.f, reason
    trace.x_final = state.x_curr
    return trace
