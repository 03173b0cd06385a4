"""Verification of solver traces, written once as row functions.

Each check replays one of the inequalities the solvers are supposed to
maintain: sufficient decrease of the merit value against the per-iteration
quantity d_k (H1), the step-norm bound through d_k (H4), the distance and
gap certificates of the inexact prox engine, weak duality psi <= h, the
algebraic couplings between alpha_k, beta_k and the Lipschitz estimate, the
Armijo inequality, and the tie of the merit value to ``f``.  Each is a row
function ``(meta, prev, row)`` that returns the residuals ``(k, r)`` of
``row``, the step after ``prev`` (None for the first step), and a residual
passes only when it is a number ``<= 0``.  ``fb.run`` calls these
functions on every row it appends and raises on the first that fails, so a
run that completes passes every check; :func:`summarize` and
:func:`check` fold the same functions over a trace.  Rows hold
every ``trace.CSV_COLUMNS`` column, whether a solver wrote them or
``Trace.read_csv`` read them, so ``certify trace.csv`` reproduces every
verdict of the run.  The header's ``solver`` must name one of ``SOLVERS``,
and a check raises ValueError naming the key when the header lacks a value
it reads or holds one that is not a number; a key no check reads may be
missing.  The checks derive ``theta`` from the header's ``tau``, as the
solvers do, and the header holds no ``theta``, so a ``# theta=`` line
cannot loosen a check.  The Armijo check applies to iPila traces only.
Each solver's coupling of ``(alpha_k, beta_k)`` to ``L_k`` and iPila's
Armijo bound are written here once, and the steps call them, so the checks
``param-identities`` and ``armijo`` replay them with no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from inertiafb.prox_engine import theta_from_tau
from inertiafb.trace import Trace

_REL_TOL = 1e-9

SOLVERS = ("i2piano", "ipila-strict", "ipila-practical", "iista")
# iPila's practical coupling never takes alpha_k below this
ALPHA_MIN = 1e-12


def coupling(solver: str, L, cfg):
    """``(alpha_k, beta_k)`` of ``solver``'s step at ``L_k = L`` from the
    settings ``cfg``, read as given, so NumPy scalars stay NumPy scalars:
    the one copy of each policy, which the steps, their config checks and
    :func:`row_param_identities` call.  iPila-strict's ignores ``L``."""
    if solver == "i2piano":
        top = 1.0 + cfg.theta * cfg.omega
        # the direct form (b-1)/(b-1/2) cancels catastrophically when L_k
        # dwarfs delta
        beta = 2.0 * top * (cfg.delta - cfg.gamma) \
            / (L + 4.0 * cfg.delta - 2.0 * cfg.gamma)
        return (top - 2.0 * beta) / (L + 2.0 * cfg.gamma), beta
    if solver == "ipila-practical":
        b = (L + 2.0 * cfg.delta) / (L + 2.0 * cfg.gamma)
        beta = (b - 1.0) / (b - 0.5)
        alpha = 2.0 * (1.0 - beta) / (L + 2.0 * cfg.gamma)
        return min(max(alpha, ALPHA_MIN), cfg.alpha_max), beta
    if solver == "ipila-strict":
        return cfg.alpha_max, cfg.beta_max
    return 1.0 / L, 0.0


def armijo_bound(phi0, sigma, lam, delta_k):
    """iPila's bound ``phi0 + sigma lambda Delta_k`` on the merit of a step
    of length ``lambda`` from merit ``phi0``, the one copy."""
    return phi0 + sigma * lam * delta_k


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    worst_residual: float = 0.0
    worst_k: int = -1

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
        for key in sorted(self.summary):
            lines.append(f"summary.{key}={self.summary[key]}")
        lines.append(f"overall={'pass' if self.ok else 'fail'}")
        return "\n".join(lines) + "\n"


def _meta(meta: dict, key: str) -> float:
    """The header value ``key`` as a float."""
    if key not in meta:
        raise ValueError(f"header lacks {key}")
    try:
        return float(meta[key])
    except ValueError:
        raise ValueError(f"bad {key} value {meta[key]!r}") from None


@dataclass
class _Header:
    """The header's values as config attributes, ``theta`` from ``tau``."""
    meta: dict

    def __getattr__(self, key: str) -> float:
        return _theta(self.meta) if key == "theta" else _meta(self.meta, key)


def _theta(meta: dict) -> float:
    """``theta`` from the header's ``tau``."""
    return theta_from_tau(_meta(meta, "tau"))


def _solver(meta: dict) -> str:
    """The header's ``solver``, one of ``SOLVERS``."""
    if "solver" not in meta:
        raise ValueError("header lacks solver")
    name = meta["solver"]
    if name not in SOLVERS:
        raise ValueError(f"bad solver value {name!r}")
    return name


def _phi_before(meta: dict, prev) -> float:
    """The merit value the step after ``prev`` starts from."""
    return _meta(meta, "phi_init") if prev is None else prev["phi"]


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


def row_H1(meta, prev, row):
    """Sufficient decrease: ``phi_{k+1} + a_k d_{k+1}^2 <= phi_k``.

    The constant a_k follows the solver: 1 for the backtracking solver,
    sigma times the row's lambda_k for the line-search solver, 0 for the
    baseline, whose d_k is a plain step norm.
    """
    kind = _solver(meta)
    a_k = 0.0
    if kind == "i2piano":
        a_k = 1.0
    elif kind.startswith("ipila"):
        a_k = _meta(meta, "sigma") * row["lambda_k"]
    phi0 = _phi_before(meta, prev)
    d = row["d_k"]
    lhs = row["phi"] + a_k * d * d
    tol = _REL_TOL * (1.0 + abs(phi0))
    return [(row["k"], (lhs - phi0 - tol) / (1.0 + abs(phi0)))]


def h4_constants(meta, row):
    """Solver-specific ``(p, k_shift)`` of the step-norm bound read on
    ``row``; iPila's ``p`` takes the row's ``alpha_k``."""
    kind = _solver(meta)
    if kind == "i2piano":
        return 1.0 / math.sqrt(_meta(meta, "gamma")), 1
    if kind.startswith("ipila"):
        return math.sqrt(2.0 * row["alpha_k"] / _theta(meta)), 0
    return 1.0, 0


def row_H4(meta, prev, row):
    """Step-norm relates to d: ``||x^{k+1} - x^k|| <= p * d_{k+k'}``, with
    ``(p, k')`` from :func:`h4_constants`.  With ``k' = 1`` the row checks
    the step of ``prev`` against its own d_k, so a trace's last step goes
    unchecked."""
    p, k_shift = h4_constants(meta, row)
    stepped = prev if k_shift else row
    if stepped is None:
        return []
    step = stepped["x_step_norm"]
    bound = p * row["d_k"]
    tol = _REL_TOL * (1.0 + bound)
    return [(stepped["k"], (step - bound - tol) / (1.0 + bound))]


def row_prox(meta, prev, row):
    """Distance and gap certificates of the inexact prox computation:
    ``(theta / 2 alpha_k) ||y - x||^2 <= -h`` and ``h <= (2 / (2 + tau))
    psi`` up to the absolute slack that the engine's stationary branch is
    allowed; ``||y - x||`` is the row's ``y_step_norm``.
    """
    tau = _meta(meta, "tau")
    slack = 1e-10 * (1.0 + abs(_meta(meta, "f_init")))
    h = row["h"]
    step = row["y_step_norm"]
    dist = (_theta(meta) / (2.0 * row["alpha_k"])) * step * step
    tol = _REL_TOL * (1.0 + abs(h))
    return [(row["k"], (dist - (-h) - tol) / (1.0 + abs(h))),
            (row["k"], (h - 2.0 / (2.0 + tau) * row["psi"] - slack - tol)
             / (1.0 + abs(h)))]


def row_duality_gap(meta, prev, row):
    """Weak duality: ``psi <= h``.

    The recorded psi carries cancellation noise proportional to the
    objective magnitude, so the check allows the same absolute slack as the
    gap certificate.
    """
    slack = 1e-10 * (1.0 + abs(_meta(meta, "f_init")))
    h, psi = row["h"], row["psi"]
    tol = slack + 1e-10 * (1.0 + abs(h))
    return [(row["k"], (psi - h - tol) / (1.0 + abs(h)))]


def row_param_identities(meta, prev, row):
    """``|alpha_k - alpha|`` and ``|beta_k - beta|``, the :func:`coupling`
    at the row's ``L_or_gamma`` replayed; iPila-practical's step reads the
    ``L_k`` that ``prev`` left, or the header's ``L0``."""
    kind, L = _solver(meta), row["L_or_gamma"]
    if kind == "ipila-practical":
        L = _meta(meta, "L0") if prev is None else prev["L_or_gamma"]
    alpha, beta = coupling(kind, L, _Header(meta))
    return [(row["k"], abs(row["alpha_k"] - alpha)),
            (row["k"], abs(row["beta_k"] - beta))]


def row_armijo(meta, prev, row):
    """Merit Armijo inequality ``phi <=`` :func:`armijo_bound` on an
    accepted iPila step; a lambda_k that is not a positive number gives a
    NaN residual."""
    if not _solver(meta).startswith("ipila"):
        raise ValueError("armijo applies to iPila traces only")
    lam = row["lambda_k"]
    if not (math.isfinite(lam) and lam > 0.0):
        return [(row["k"], math.nan)]
    bound = armijo_bound(_phi_before(meta, prev), _meta(meta, "sigma"), lam,
                         row["delta_k"])
    return [(row["k"], row["phi"] - bound)]


def row_merit(meta, prev, row):
    """The merit value reads ``f``: ``phi >= f`` on every row and ``phi ==
    f`` on iISTA rows.  Exact, since every merit value is ``f`` plus a
    nonnegative term (i2Piano's ``delta ||y - x||^2``, iPila's ``||x -
    s||^2 / 2``) and iISTA's is ``f`` itself."""
    f, phi = row["f"], row["phi"]
    if _solver(meta) == "iista":
        return [(row["k"], f - phi), (row["k"], phi - f)]
    return [(row["k"], f - phi)]


ROW_CHECKS = {"H1": row_H1, "H4": row_H4, "prox": row_prox,
              "duality-gap": row_duality_gap,
              "param-identities": row_param_identities, "armijo": row_armijo,
              "merit": row_merit}


def row_checks(meta: dict) -> dict:
    """The ``ROW_CHECKS`` that apply to ``meta``'s solver: armijo on iPila
    traces only."""
    if _solver(meta).startswith("ipila"):
        return ROW_CHECKS
    return {n: f for n, f in ROW_CHECKS.items() if n != "armijo"}


def check(trace: Trace, name: str) -> CheckResult:
    """The check ``name`` of ``ROW_CHECKS``, its row function run on each
    row of ``trace``."""
    if not trace.rows:
        raise ValueError("empty trace")
    fn, rows = ROW_CHECKS[name], trace.rows
    return _worst(name, (kr for prev, row in zip([None, *rows], rows)
                         for kr in fn(trace.meta, prev, row)))


def summarize(trace: Trace) -> CertReport:
    """Runs every check that applies to the trace's solver, the Armijo
    check on iPila traces only, and aggregates convergence statistics."""
    if not trace.rows:
        raise ValueError("empty trace")
    report = CertReport()
    for name in row_checks(trace.meta):
        report.checks[name] = check(trace, name)

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
