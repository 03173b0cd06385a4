import numpy as np
import pytest

from inertiafb.iista import IistaConfig, iista_solve
from inertiafb.problem import (CompositeProblem, SmoothOracle, SolverError,
                               ZeroFunction)
from tests.conftest import quadratic_l1_problem, smooth_only_problem, xi_term


def soft(u, t):
    return np.sign(u) * np.maximum(np.abs(u) - t, 0.0)


class TestStepEquivalence:
    def test_single_step_matches_closed_form_ista(self):
        # L0 equals the true Lipschitz constant: alpha = 1, no backtracks,
        # x1 = soft(x0 - grad f0(x0), weight)
        p, b, _ = quadratic_l1_problem(n=20, seed=1, weight=0.3)
        x0 = np.zeros(20)
        cfg = IistaConfig(L0=1.0, tau=0.0, max_outer=1)
        trace = iista_solve(p, x0, cfg)
        ref = soft(x0 - (x0 - b), 0.3)
        np.testing.assert_allclose(trace.x_final, ref, atol=1e-8)
        assert trace.rows[0]["backtracks"] == 0

    def test_reduces_to_gradient_descent_without_blocks(self):
        p = smooth_only_problem(n=3, target=2.0)
        cfg = IistaConfig(L0=1.0, max_outer=1)
        trace = iista_solve(p, np.zeros(3), cfg)
        # x1 = x0 - (1/L) grad f0(x0) = 0 - (0 - 2) = 2, exact minimizer
        np.testing.assert_allclose(trace.x_final, 2.0, atol=1e-12)

    def test_no_inertia_in_trace(self):
        p, _, _ = quadratic_l1_problem(n=10, seed=2)
        trace = iista_solve(p, np.zeros(10), IistaConfig(max_outer=10))
        assert all(v == 0.0 for v in trace.column("beta_k"))
        for row in trace.rows:
            assert row["alpha_k"] * row["L_or_gamma"] == pytest.approx(1.0)


class TestBacktracking:
    def test_L_raised_when_initial_estimate_too_small(self):
        t = np.zeros(4)
        f0 = SmoothOracle(lambda x: 5.0 * float(np.dot(x - t, x - t)),
                          lambda x: 10.0 * (x - t))
        f1 = xi_term(ZeroFunction(), 4)
        p = CompositeProblem(f0, f1, 4)
        trace = iista_solve(p, np.ones(4), IistaConfig(L0=1.0, max_outer=5))
        assert trace.rows[0]["backtracks"] >= 1
        assert trace.rows[0]["L_or_gamma"] >= 1.5

    def test_L_nondecreasing(self):
        p, _, _ = quadratic_l1_problem(n=15, seed=3)
        trace = iista_solve(p, np.zeros(15), IistaConfig(max_outer=40))
        Ls = trace.column("L_or_gamma")
        assert all(b >= a for a, b in zip(Ls, Ls[1:]))

    def test_broken_gradient_hits_L_max(self):
        f0 = SmoothOracle(lambda x: float(np.sum(x ** 2)), lambda x: -x)
        f1 = xi_term(ZeroFunction(), 2)
        p = CompositeProblem(f0, f1, 2)
        with pytest.raises(SolverError):
            iista_solve(p, np.ones(2), IistaConfig())


class TestSolve:
    def test_converges_to_soft_threshold_minimizer(self):
        p, _, ref = quadratic_l1_problem(n=40, seed=4)
        cfg = IistaConfig(max_outer=2000, stop_tol=1e-11)
        trace = iista_solve(p, np.zeros(40), cfg)
        assert np.max(np.abs(trace.x_final - ref)) <= 1e-6

    def test_f_monotone_nonincreasing(self):
        p, _, _ = quadratic_l1_problem(n=30, seed=5)
        trace = iista_solve(p, np.zeros(30), IistaConfig(max_outer=100))
        fs = trace.column("f")
        for a, b in zip(fs, fs[1:]):
            assert b <= a + 1e-9 * (1 + abs(a))

    def test_stop_reason_metadata(self):
        p, _, _ = quadratic_l1_problem(n=10, seed=6)
        done = iista_solve(p, np.zeros(10),
                           IistaConfig(max_outer=5000, stop_tol=1e-9))
        assert done.meta["stop_reason"] == "d_k"
        assert len(done) < 5000
        # a conservative L estimate keeps the steps short enough that the
        # iteration cap binds before stationarity
        capped = iista_solve(p, np.zeros(10), IistaConfig(max_outer=3, L0=50.0))
        assert capped.meta["stop_reason"] == "max_outer"
        assert len(capped) == 3

    def test_x0_outside_domain_rejected(self):
        from inertiafb.problem import NonnegIndicator
        f0 = SmoothOracle(lambda x: 0.0, lambda x: np.zeros_like(x))
        f1 = xi_term(NonnegIndicator(), 1)
        p = CompositeProblem(f0, f1, 1)
        with pytest.raises(ValueError):
            iista_solve(p, np.array([-1.0]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IistaConfig(eta=1.0)
        with pytest.raises(ValueError):
            IistaConfig(L0=0.0)
        # an empty trace that certify could not summarize
        with pytest.raises(ValueError, match="max_outer"):
            IistaConfig(max_outer=0)
