"""Honest runs that must certify, pinned while they do not.

Each case is a ``run`` at settings the Settings table allows, followed by
``certify`` on its trace; both must exit 0.  The marked cases below still
exit 3, so each is a strict xfail: the change that mends one must remove
its marker, since an unexpected pass fails the suite.

- Two i2Piano runs at the large end of the ``L0`` range failed
  ``param-identities`` at k=0 while certify kept a second copy of the
  coupling that cancels at large ``L_k``; they certify and are unmarked.

- Seven synthetic-quadratic-l1 iPila runs fail ``H4`` near stationarity,
  at k = 28-64: the computed ``h`` lies below its own rounding error
  there, so the sign of the prox distance test is noise.
- Five gaussian-sd-tv runs at size 32 and ``tau`` 0.01 end in ``prox
  engine hit max_inner without certificate`` near stationarity, where the
  dual iterates' primal candidate does not reach the gap test in time.
"""

import pytest

from inertiafb import cli

H4 = pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="certificate failed: H4")
MAX_INNER = pytest.mark.xfail(strict=True, raises=AssertionError,
                              reason="prox engine hit max_inner")

CASES = [
    # (n, l1_weight, seed, tau, solver)
    pytest.param(("synthetic-quadratic-l1", "--n", n, "--l1_weight", weight,
                  "--seed", seed, "--tau", tau, "--solver", solver),
                 marks=H4, id=f"synthetic-{n}-{weight}-{seed}-{tau}-{solver}")
    for n, weight, seed, tau, solver in [
        ("10", "0.3", "0", "0.01", "ipila-strict"),
        ("10", "0.3", "0", "0.01", "ipila-practical"),
        ("10", "0.3", "0", "1", "ipila-strict"),
        ("100", "0.03", "1", "0.01", "ipila-practical"),
        ("100", "0.3", "0", "0.01", "ipila-practical"),
        ("100", "3", "3", "0.01", "ipila-practical"),
        ("100", "3", "3", "1", "ipila-practical"),
    ]
] + [
    # (rho_tv, seed, solver), at size 32 and tau 0.01
    pytest.param(("gaussian-sd-tv", "--size", "32", "--tau", "0.01",
                  "--rho_tv", rho_tv, "--seed", seed, "--solver", solver),
                 marks=MAX_INNER, id=f"tv-{rho_tv}-{seed}-{solver}")
    for rho_tv, seed, solver in [
        ("0.25", "0", "i2piano"),
        ("0.25", "2", "i2piano"),
        ("1", "0", "i2piano"),
        ("1", "2", "i2piano"),
        ("1", "0", "ipila-practical"),
    ]
] + [
    pytest.param(("synthetic-quadratic-l1", "--L0", L0, "--solver",
                  "i2piano"), id=f"synthetic-L0-{L0}-i2piano")
    for L0 in ("1e8", "1e12")
]


@pytest.mark.parametrize("args", CASES)
def test_honest_run_certifies(tmp_path, args):
    problem, *settings = args
    out = tmp_path / "run"
    assert cli.main(["run", "--problem", problem, *settings,
                     "--max_outer", "300", "--out", str(out)]) == 0
    assert cli.main(["certify", str(out / "trace.csv")]) == 0
