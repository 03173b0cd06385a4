"""Verification of solver traces, written once as row functions.

Each check replays one of the inequalities the solvers are supposed to
maintain: sufficient decrease of the merit value against the per-iteration
quantity d_k (H1), the step-norm bound through d_k (H4), the distance and
gap certificates of the inexact prox engine, weak duality psi <= h, the
algebraic identities that define alpha_k, beta_k and d_k, the Armijo
inequality, and the tie of the merit value to ``f``.  Each is a row
function ``(hdr, prev, row)`` that returns the residuals ``(k, r)`` of
``row``, the step after ``prev`` (None for the first step), and a residual
passes only when it is a number ``<= 0``.  ``hdr`` is a :class:`Header`:
the solver, its config and ``f_init``, the merit at ``x0`` from which the
first step starts.  ``fb.run`` calls these functions on every row it
appends, with the config it runs, and raises on the first that fails, so a
run that completes passes every check; :func:`summarize` and :func:`check`
fold the same functions over a trace, with the config that :func:`header`
builds from the trace's header through the solver's own config class, so a
header value the solver would reject is a bad trace, not a looser check.
They read only rows that a run can write, one to ``max_outer`` of them with
each ``k`` its position; a row missing, added or renumbered is a bad trace.
Rows hold every ``trace.CSV_COLUMNS`` column, whether a solver wrote them
or ``Trace.read_csv`` read them, so ``certify trace.csv`` reproduces every
verdict of the run.  The Armijo check applies to iPila traces only.  Each
solver's coupling of ``(alpha_k, beta_k)`` to ``L_k`` and iPila's Armijo
bound are written here once, and the steps call them, so the checks
``param-identities`` and ``armijo`` replay them, and ``d_k``, exactly.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields

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


class Header(typing.NamedTuple):
    """A run's solver, its config and ``f_init``, the merit at ``x0``."""
    solver: str
    cfg: typing.Any
    f_init: float


def _meta(meta: dict, key: str, typ=float):
    """The header value ``key`` as a ``typ``; an int is written as one."""
    if key not in meta:
        raise ValueError(f"header lacks {key}")
    value = meta[key]
    try:
        if typ is int and not isinstance(value, int):
            raise ValueError
        return typ(value)
    except ValueError:
        raise ValueError(f"bad {key} value {value!r}") from None


def solver_config(solver: str, read):
    """``solver``'s config, each field from ``read(key, default)`` and
    iPila's ``variant`` from the name: the one map from the ``SOLVERS`` to
    their config classes."""
    # the solver modules import this one, so it imports them when called
    from inertiafb.i2piano import I2PianoConfig
    from inertiafb.iista import IistaConfig
    from inertiafb.ipila import VARIANTS, IPilaConfig
    cls = {"i2piano": I2PianoConfig, "iista": IistaConfig}.get(solver,
                                                               IPilaConfig)
    values = {f.name: read(f.name, f.default)
              for f in fields(cls) if f.name != "variant"}
    if cls is IPilaConfig:
        values["variant"] = next(v for v, s in VARIANTS.items() if s == solver)
    return cls(**values)


def header(meta: dict) -> Header:
    """The :class:`Header` of a trace's ``meta``, which must hold, in this
    order, ``solver``, one of ``SOLVERS``, ``f_init`` and each field of the
    solver's config but iPila's ``variant``, of its default's type; a value
    the config class rejects raises its message.  ``phi_init`` is unread."""
    solver = _meta(meta, "solver", str)
    if solver not in SOLVERS:
        raise ValueError(f"bad solver value {solver!r}")
    f_init = _meta(meta, "f_init")
    return Header(solver, solver_config(
        solver, lambda key, default: _meta(meta, key, type(default))), f_init)


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


def row_H1(hdr, prev, row):
    """Sufficient decrease: ``phi_{k+1} + a_k d_{k+1}^2 <= phi_k``.

    The constant a_k follows the solver: 1 for the backtracking solver,
    sigma times the row's lambda_k for the line-search solver, 0 for the
    baseline, whose d_k is a plain step norm.
    """
    a_k = 0.0
    if hdr.solver == "i2piano":
        a_k = 1.0
    elif hdr.solver.startswith("ipila"):
        a_k = hdr.cfg.sigma * row["lambda_k"]
    phi0 = hdr.f_init if prev is None else prev["phi"]
    d = row["d_k"]
    lhs = row["phi"] + a_k * d * d
    tol = _REL_TOL * (1.0 + abs(phi0))
    return [(row["k"], (lhs - phi0 - tol) / (1.0 + abs(phi0)))]


def h4_constants(hdr, row):
    """Solver-specific ``(p, k_shift)`` of the step-norm bound read on
    ``row``; iPila's ``p`` takes the row's ``alpha_k``."""
    if hdr.solver == "i2piano":
        return 1.0 / math.sqrt(hdr.cfg.gamma), 1
    if hdr.solver.startswith("ipila"):
        return math.sqrt(2.0 * row["alpha_k"] / hdr.cfg.theta), 0
    return 1.0, 0


def row_H4(hdr, prev, row):
    """Step-norm relates to d: ``||x^{k+1} - x^k|| <= p * d_{k+k'}``, with
    ``(p, k')`` from :func:`h4_constants`.  With ``k' = 1`` the row checks
    the step of ``prev`` against its own d_k, so a trace's last step goes
    unchecked."""
    p, k_shift = h4_constants(hdr, row)
    stepped = prev if k_shift else row
    if stepped is None:
        return []
    step = stepped["x_step_norm"]
    bound = p * row["d_k"]
    tol = _REL_TOL * (1.0 + bound)
    return [(stepped["k"], (step - bound - tol) / (1.0 + bound))]


def row_prox(hdr, prev, row):
    """Distance and gap certificates of the inexact prox computation:
    ``(theta / 2 alpha_k) ||y - x||^2 <= -h`` and ``h <= (2 / (2 + tau))
    psi`` up to the absolute slack that the engine's stationary branch is
    allowed; ``||y - x||`` is the row's ``y_step_norm``.
    """
    slack = 1e-10 * (1.0 + abs(hdr.f_init))
    h = row["h"]
    step = row["y_step_norm"]
    dist = (hdr.cfg.theta / (2.0 * row["alpha_k"])) * step * step
    tol = _REL_TOL * (1.0 + abs(h))
    return [(row["k"], (dist - (-h) - tol) / (1.0 + abs(h))),
            (row["k"], (h - 2.0 / (2.0 + hdr.cfg.tau) * row["psi"]
                        - slack - tol) / (1.0 + abs(h)))]


def row_duality_gap(hdr, prev, row):
    """Weak duality: ``psi <= h``.

    The recorded psi carries cancellation noise proportional to the
    objective magnitude, so the check allows the same absolute slack as the
    gap certificate.
    """
    slack = 1e-10 * (1.0 + abs(hdr.f_init))
    h, psi = row["h"], row["psi"]
    tol = slack + 1e-10 * (1.0 + abs(h))
    return [(row["k"], (psi - h - tol) / (1.0 + abs(h)))]


def row_param_identities(hdr, prev, row):
    """``|alpha_k - alpha|`` and ``|beta_k - beta|``, the :func:`coupling`
    at the row's ``L_or_gamma`` replayed on the run's config;
    iPila-practical's step reads the ``L_k`` that ``prev`` left, or ``L0``;
    then ``d_k``'s tie to ``delta_k`` (iPila) or ``y_step_norm`` (iISTA)."""
    L = row["L_or_gamma"]
    if hdr.solver == "ipila-practical":
        L = hdr.cfg.L0 if prev is None else prev["L_or_gamma"]
    alpha, beta = coupling(hdr.solver, L, hdr.cfg)
    out = [(row["k"], abs(row["alpha_k"] - alpha)),
           (row["k"], abs(row["beta_k"] - beta))]
    if hdr.solver == "i2piano":
        return out
    d = row["y_step_norm"] if hdr.solver == "iista" \
        else math.sqrt(max(0.0, -row["delta_k"]))
    return out + [(row["k"], abs(row["d_k"] - d))]


def row_armijo(hdr, prev, row):
    """Merit Armijo inequality ``phi <=`` :func:`armijo_bound` on an
    accepted iPila step; a lambda_k that is not a positive number gives a
    NaN residual."""
    if not hdr.solver.startswith("ipila"):
        raise ValueError("armijo applies to iPila traces only")
    lam = row["lambda_k"]
    if not (math.isfinite(lam) and lam > 0.0):
        return [(row["k"], math.nan)]
    phi0 = hdr.f_init if prev is None else prev["phi"]
    bound = armijo_bound(phi0, hdr.cfg.sigma, lam, row["delta_k"])
    return [(row["k"], row["phi"] - bound)]


def row_merit(hdr, prev, row):
    """The merit value reads ``f``: ``phi >= f`` on every row and ``phi ==
    f`` on iISTA rows.  Exact, since every merit value is ``f`` plus a
    nonnegative term (i2Piano's ``delta ||y - x||^2``, iPila's ``||x -
    s||^2 / 2``) and iISTA's is ``f`` itself."""
    f, phi = row["f"], row["phi"]
    if hdr.solver == "iista":
        return [(row["k"], f - phi), (row["k"], phi - f)]
    return [(row["k"], f - phi)]


ROW_CHECKS = {"H1": row_H1, "H4": row_H4, "prox": row_prox,
              "duality-gap": row_duality_gap,
              "param-identities": row_param_identities, "armijo": row_armijo,
              "merit": row_merit}


def row_checks(hdr: Header) -> dict:
    """The ``ROW_CHECKS`` that apply to ``hdr``'s solver: armijo on iPila
    traces only."""
    if hdr.solver.startswith("ipila"):
        return ROW_CHECKS
    return {n: f for n, f in ROW_CHECKS.items() if n != "armijo"}


def _run_rows(trace: Trace):
    """``(hdr, rows)`` of a trace that ``fb.run`` could write: its
    :func:`header`, and 1 to ``max_outer`` rows, each ``k`` its position."""
    rows = trace.rows
    if not rows:
        raise ValueError("empty trace")
    hdr = header(trace.meta)
    if len(rows) > hdr.cfg.max_outer:
        raise ValueError(f"{len(rows)} rows, max_outer is {hdr.cfg.max_outer}")
    for k, row in enumerate(rows):
        if row["k"] != k:
            raise ValueError(f"row {k} has k = {row['k']}")
    return hdr, rows


def check(trace: Trace, name: str) -> CheckResult:
    """The check ``name`` of ``ROW_CHECKS``, its row function run on each
    row of ``trace``."""
    fn, (hdr, rows) = ROW_CHECKS[name], _run_rows(trace)
    return _worst(name, (kr for prev, row in zip([None, *rows], rows)
                         for kr in fn(hdr, prev, row)))


def summarize(trace: Trace) -> CertReport:
    """Runs every check that applies to the trace's solver, the Armijo
    check on iPila traces only, and aggregates convergence statistics."""
    report = CertReport()
    for name in row_checks(_run_rows(trace)[0]):
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
