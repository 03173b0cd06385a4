"""Post-hoc verification of solver traces.

Each check replays one of the inequalities the solvers are supposed to
maintain: sufficient decrease of the merit value against the per-iteration
quantity d_k (H1), the step-norm bound through d_k (H4), the distance and
gap certificates of the inexact prox engine, the algebraic couplings between
alpha_k, beta_k and the Lipschitz estimate, the Armijo inequality, and weak
duality psi <= h.  Checks are pure functions over a trace: same rows in,
same verdicts out.  Rows hold every ``trace.CSV_COLUMNS`` column, whether
a solver wrote them or ``Trace.read_csv`` read them, so a trace and its
``trace.csv`` get the same verdicts.  Each verdict is ``pass`` or ``fail``,
and a check passes only when each residual it computes is a number ``<= 0``.
The header's ``solver`` must name one of ``SOLVERS``, and a check raises
ValueError naming the key when the header lacks a value it reads or holds
one that is not a number; the Armijo check applies to iPila traces only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from inertiafb.ipila import ALPHA_MIN
from inertiafb.prox_engine import theta_from_tau
from inertiafb.trace import Trace

_REL_TOL = 1e-9

SOLVERS = ("i2piano", "ipila-strict", "ipila-practical", "iista")


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    worst_residual: float = 0.0
    worst_k: int = -1
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass
class CertReport:
    checks: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    def format(self) -> str:
        lines = []
        for name in sorted(self.checks):
            c = self.checks[name]
            lines.append(f"{name}.status={c.status}")
            lines.append(f"{name}.worst_residual={c.worst_residual:.6e}")
            lines.append(f"{name}.worst_k={c.worst_k}")
            if c.detail:
                lines.append(f"{name}.detail={c.detail}")
        for key in sorted(self.summary):
            lines.append(f"summary.{key}={self.summary[key]}")
        lines.append(f"overall={'pass' if self.ok else 'fail'}")
        return "\n".join(lines) + "\n"


def _meta(trace: Trace, key: str) -> float:
    """The header value ``key`` as a float."""
    if key not in trace.meta:
        raise ValueError(f"header lacks {key}")
    try:
        return float(trace.meta[key])
    except ValueError:
        raise ValueError(f"bad {key} value {trace.meta[key]!r}") from None


def _solver(trace: Trace) -> str:
    """The header's ``solver``, one of ``SOLVERS``."""
    if "solver" not in trace.meta:
        raise ValueError("header lacks solver")
    name = trace.meta["solver"]
    if name not in SOLVERS:
        raise ValueError(f"bad solver value {name!r}")
    return name


def _nonempty(check):
    """``check`` with an empty trace rejected."""
    @functools.wraps(check)
    def checked(trace: Trace) -> CheckResult:
        if not trace.rows:
            raise ValueError("empty trace")
        return check(trace)
    return checked


def _worst(name: str, residuals) -> CheckResult:
    """Passes when every ``(k, r)`` has a residual ``r`` that is a number
    ``<= 0``; a failure names the largest residual, or the first NaN."""
    worst, worst_k = -math.inf, -1
    for k, r in residuals:
        if not r <= worst:
            worst, worst_k = r, k
            if math.isnan(r):
                break
    if worst_k < 0:
        return CheckResult(name=name, status="pass")
    status = "pass" if worst <= 0.0 else "fail"
    return CheckResult(name=name, status=status, worst_residual=worst,
                       worst_k=worst_k)


@_nonempty
def check_H1(trace: Trace) -> CheckResult:
    """Sufficient decrease: ``phi_{k+1} + a_k d_{k+1}^2 <= phi_k``.

    The constant a_k follows the solver: 1 for the backtracking solver,
    sigma times the smallest observed lambda_k for the line-search solver,
    0 for the baseline, whose d_k is a plain step norm.
    """
    kind = _solver(trace)
    a_k = 0.0
    if kind == "i2piano":
        a_k = 1.0
    elif kind.startswith("ipila"):
        lam_min = min(r["lambda_k"] for r in trace.rows)
        a_k = _meta(trace, "sigma") * lam_min

    prev = _meta(trace, "phi_init")
    residuals = []
    for row in trace.rows:
        phi = row["phi"]
        d = row["d_k"]
        lhs = phi + a_k * d * d
        tol = _REL_TOL * (1.0 + abs(prev))
        residuals.append((row["k"], (lhs - prev - tol) / (1.0 + abs(prev))))
        prev = phi
    return _worst("H1", residuals)


def h4_constants(trace: Trace):
    """Solver-specific ``(p, k_shift)`` for the step-norm bound."""
    kind = _solver(trace)
    if kind == "i2piano":
        return 1.0 / math.sqrt(_meta(trace, "gamma")), 1
    if kind.startswith("ipila"):
        theta = _meta(trace, "theta")
        alpha_max = max(r["alpha_k"] for r in trace.rows)
        return math.sqrt(2.0 * alpha_max / theta), 0
    return 1.0, 0


@_nonempty
def check_H4(trace: Trace) -> CheckResult:
    """Step-norm relates to d: ``||x^{k+1} - x^k|| <= p * d_{k+k'}``, with
    ``(p, k')`` from :func:`h4_constants`."""
    p, k_shift = h4_constants(trace)
    residuals = []
    n = len(trace.rows)
    for i, row in enumerate(trace.rows):
        j = i + k_shift
        if j >= n:
            continue
        step = row["x_step_norm"]
        bound = p * trace.rows[j]["d_k"]
        tol = _REL_TOL * (1.0 + bound)
        residuals.append((row["k"], (step - bound - tol) / (1.0 + bound)))
    return _worst("H4", residuals)


@_nonempty
def check_prox_certificates(trace: Trace) -> CheckResult:
    """Distance and gap certificates of the inexact prox computation.

    Row-wise: ``(theta / 2 alpha_k) ||y - x||^2 <= -h`` and ``h <= (2 /
    (2 + tau)) psi`` up to the absolute slack that the engine's stationary
    branch is allowed; ``||y - x||`` is the row's ``y_step_norm``.
    """
    tau = _meta(trace, "tau")
    theta = theta_from_tau(tau)
    eta_gap = 2.0 / (2.0 + tau)
    f0 = abs(_meta(trace, "f_init"))
    slack = 1e-10 * (1.0 + f0)
    residuals = []
    for row in trace.rows:
        h = row["h"]
        psi = row["psi"]
        alpha = row["alpha_k"]
        step = row["y_step_norm"]
        dist = (theta / (2.0 * alpha)) * step * step
        tol = _REL_TOL * (1.0 + abs(h))
        residuals.append((row["k"], (dist - (-h) - tol) / (1.0 + abs(h))))
        residuals.append((row["k"], (h - eta_gap * psi - slack - tol)
                          / (1.0 + abs(h))))
    return _worst("prox", residuals)


@_nonempty
def check_duality_gap(trace: Trace) -> CheckResult:
    """Weak duality along the trace: ``psi <= h``.

    The recorded psi carries cancellation noise proportional to the
    objective magnitude, so the check allows the same absolute slack as the
    gap certificate.
    """
    f0 = abs(_meta(trace, "f_init"))
    slack = 1e-10 * (1.0 + f0)
    residuals = []
    for row in trace.rows:
        h, psi = row["h"], row["psi"]
        tol = slack + 1e-10 * (1.0 + abs(h))
        residuals.append((row["k"], (psi - h - tol) / (1.0 + abs(h))))
    return _worst("duality-gap", residuals)


@_nonempty
def check_param_identities(trace: Trace) -> CheckResult:
    """Replays the algebraic coupling between alpha_k, beta_k and L_k."""
    kind = _solver(trace)
    residuals = []

    def add(k, *errors):  # the relative error of each identity on row k
        residuals.extend((k, e - _REL_TOL) for e in errors)

    if kind == "i2piano":
        delta, gamma = _meta(trace, "delta"), _meta(trace, "gamma")
        omega, theta = _meta(trace, "omega"), _meta(trace, "theta")
        top = 1.0 + theta * omega
        for row in trace.rows:
            L, a, bta = row["L_or_gamma"], row["alpha_k"], row["beta_k"]
            b = (L + 2.0 * delta) / (L + 2.0 * gamma)
            beta_e = 0.5 * top * (b - 1.0) / (b - 0.5)
            alpha_e = (top - 2.0 * beta_e) / (L + 2.0 * gamma)
            # identity chain: (1+theta*omega)/(2a) - L/2 - beta/(2a) = delta
            lhs = top / (2.0 * a) - L / 2.0 - bta / (2.0 * a)
            add(row["k"], abs(bta - beta_e) / (1.0 + abs(beta_e)),
                abs(a - alpha_e) / (1.0 + abs(alpha_e)),
                abs(lhs - delta) / (1.0 + abs(delta)),
                abs(delta - bta / (2.0 * a) - gamma) / (1.0 + gamma))
    elif kind == "ipila-practical":
        gamma, delta = _meta(trace, "gamma_min"), _meta(trace, "delta")
        a_max, L = _meta(trace, "alpha_max"), _meta(trace, "L0")
        for row in trace.rows:  # each step reads the L_k its last row left
            b = (L + 2.0 * delta) / (L + 2.0 * gamma)
            beta_e = (b - 1.0) / (b - 0.5)
            alpha_e = min(max(2.0 * (1.0 - beta_e) / (L + 2.0 * gamma),
                              ALPHA_MIN), a_max)
            add(row["k"], abs(row["alpha_k"] - alpha_e) / (1.0 + alpha_e),
                abs(row["beta_k"] - beta_e) / (1.0 + abs(beta_e)))
            L = row["L_or_gamma"]
    elif kind == "ipila-strict":
        a_max = _meta(trace, "alpha_max")
        b_max = _meta(trace, "beta_max")
        for row in trace.rows:
            add(row["k"], abs(row["alpha_k"] - a_max) / (1.0 + a_max),
                abs(row["beta_k"] - b_max) / (1.0 + b_max))
    else:
        for row in trace.rows:
            L, a = row["L_or_gamma"], row["alpha_k"]
            add(row["k"], abs(a * L - 1.0), abs(row["beta_k"]))
    return _worst("param-identities", residuals)


@_nonempty
def check_armijo(trace: Trace) -> CheckResult:
    """Merit Armijo inequality on accepted steps of an iPila trace."""
    if not _solver(trace).startswith("ipila"):
        raise ValueError("armijo applies to iPila traces only")
    sigma, prev = _meta(trace, "sigma"), _meta(trace, "phi_init")
    residuals = []
    for row in trace.rows:
        lam, delta_k = row["lambda_k"], row["delta_k"]
        if not math.isfinite(lam) or lam <= 0.0:
            return CheckResult("armijo", "fail", worst_k=row["k"],
                               detail="nonpositive lambda_k")
        bound = prev + sigma * lam * delta_k
        tol = _REL_TOL * (1.0 + abs(prev))
        residuals.append((row["k"], (row["phi"] - bound - tol) / (1.0 + abs(prev))))
        prev = row["phi"]
    return _worst("armijo", residuals)


def summarize(trace: Trace) -> CertReport:
    """Runs every check that applies to the trace's solver, the Armijo
    check on iPila traces only, and aggregates convergence statistics."""
    if not trace.rows:
        raise ValueError("empty trace")
    checks = [check_H1, check_H4, check_prox_certificates,
              check_duality_gap, check_param_identities]
    if _solver(trace).startswith("ipila"):
        checks.append(check_armijo)
    report = CertReport()
    for check in checks:
        result = check(trace)
        report.checks[result.name] = result

    d = trace.column("d_k")
    lams = [v for v in trace.column("lambda_k") if math.isfinite(v)]
    report.summary = {
        "rows": len(trace.rows),
        "f_final": trace.rows[-1]["f"],
        "phi_final": trace.rows[-1]["phi"],
        "sum_d_k": sum(v for v in d if math.isfinite(v)),
        "min_lambda_k": min(lams) if lams else float("nan"),
        "total_inner_iters": sum(trace.column("inner_iters")),
        "total_backtracks": sum(trace.column("backtracks")),
    }
    return report
