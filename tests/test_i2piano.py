import numpy as np
import pytest

from inertiafb import fb, i2piano
from inertiafb.certify import summarize
from inertiafb.fb import L_MIN
from inertiafb.i2piano import (I2PianoConfig, compute_params, i2piano_solve,
                               i2piano_step)
from inertiafb.problem import (Block, CompositeProblem, IdentityOp, L1Norm,
                               SmoothOracle, SolverError, StructuredConvexTerm,
                               ZeroFunction, eval_f)
from tests.conftest import (quadratic_l1_problem, scaled_h_engine,
                            smooth_only_problem, xi_term)


def cfg_exact(**kw):
    kw.setdefault("tau", 0.0)
    kw.setdefault("omega", 1.0)
    return I2PianoConfig(**kw)


class TestComputeParams:
    def test_theta_one_at_tau_zero(self):
        assert cfg_exact().theta == pytest.approx(1.0, abs=1e-15)

    def test_delta_equals_gamma_kills_inertia(self):
        cfg = I2PianoConfig(delta=1e-3, gamma=1e-3)
        b, beta, alpha = compute_params(2.0, cfg)
        assert b == pytest.approx(1.0)
        assert beta == pytest.approx(0.0)
        assert alpha == pytest.approx((1 + cfg.theta * cfg.omega) / (2 + 2e-3))

    def test_worked_example(self):
        cfg = cfg_exact(delta=0.5, gamma=1e-5)
        b, beta, alpha = compute_params(1.0, cfg)
        assert b == pytest.approx(2.0 / 1.00002, rel=1e-9)
        assert beta == pytest.approx((b - 1.0) / (b - 0.5), rel=1e-9)
        assert beta == pytest.approx(0.66666, abs=1e-4)
        assert alpha == pytest.approx(0.66667, abs=1e-4)

    @pytest.mark.parametrize("L", [0.01, 1.0, 37.5, 1e4])
    @pytest.mark.parametrize("tau,omega", [(0.0, 1.0), (1e6, 0.95), (2.0, 0.5)])
    def test_identities(self, L, tau, omega):
        cfg = I2PianoConfig(tau=tau, omega=omega)
        b, beta, alpha = compute_params(L, cfg)
        top = 1.0 + cfg.theta * omega
        # merit coupling and its two consequences
        assert top / (2 * alpha) - L / 2 - beta / (2 * alpha) == \
            pytest.approx(cfg.delta, rel=1e-12, abs=1e-12)
        assert cfg.delta - beta / (2 * alpha) == \
            pytest.approx(cfg.gamma, rel=1e-12, abs=1e-12)
        assert alpha == pytest.approx((top - beta) / (L + 2 * cfg.delta),
                                      rel=1e-12)
        assert 0.0 <= beta <= top / 2


class TestConfigValidation:
    def test_omega_range_depends_on_tau(self):
        I2PianoConfig(tau=0.0, omega=1.0)
        with pytest.raises(ValueError):
            I2PianoConfig(tau=1.0, omega=1.0)
        with pytest.raises(ValueError):
            I2PianoConfig(omega=-0.1)

    def test_delta_ge_gamma_required(self):
        with pytest.raises(ValueError):
            I2PianoConfig(delta=1e-6, gamma=1e-5)

    def test_eta_must_exceed_one(self):
        with pytest.raises(ValueError):
            I2PianoConfig(eta=1.0)

    def test_tau_must_be_nonnegative(self):
        # used to fail at the first theta: "math domain error"
        with pytest.raises(ValueError, match="tau"):
            I2PianoConfig(tau=-1.0)


class TestStep:
    def test_first_step_hand_simulation(self):
        # 1-D f0 = x^2/2, f1 = 0, x0 = 1: no inertia at k=0, y = 1 - alpha
        p = smooth_only_problem(n=1, target=0.0)
        cfg = cfg_exact(delta=0.5, gamma=1e-5, L0=1.0)
        st = fb.start(p, np.array([1.0]), eval_f, cfg.L0)
        new = i2piano_step(p, st, cfg)
        _, _, alpha = compute_params(1.0, cfg)
        assert new.x_curr[0] == pytest.approx(1.0 - alpha, abs=1e-8)
        assert new.x_curr[0] == pytest.approx(0.33333, abs=1e-4)
        assert new.backtracks == 0

    def test_no_backtracks_when_L_dominates(self):
        p, _, _ = quadratic_l1_problem(n=10)
        cfg = I2PianoConfig(L0=2.0)  # true L is 1
        st = fb.start(p, np.zeros(10), eval_f, cfg.L0)
        new = i2piano_step(p, st, cfg)
        assert new.backtracks == 0
        assert new.L_k == 2.0

    def test_backtracking_raises_L(self):
        # gradient Lipschitz constant 10, L0 = 1 forces increases
        t = np.zeros(4)
        f0 = SmoothOracle(lambda x: 5.0 * float(np.dot(x - t, x - t)),
                          lambda x: 10.0 * (x - t))
        f1 = xi_term(ZeroFunction(), 4)
        p = CompositeProblem(f0, f1, 4)
        cfg = I2PianoConfig(L0=1.0)
        st = fb.start(p, np.ones(4), eval_f, cfg.L0)
        new = i2piano_step(p, st, cfg)
        assert new.backtracks >= 1
        assert new.L_k >= 1.5

    def test_broken_gradient_hits_L_max(self):
        f0 = SmoothOracle(lambda x: float(np.sum(x ** 2)),
                          lambda x: -x)  # wrong sign
        f1 = xi_term(ZeroFunction(), 2)
        p = CompositeProblem(f0, f1, 2)
        cfg = I2PianoConfig()
        st = fb.start(p, np.ones(2), eval_f, cfg.L0)
        with pytest.raises(SolverError):
            i2piano_step(p, st, cfg)

    def test_merit_descent_inequality_every_step(self):
        p, _, _ = quadratic_l1_problem(n=20, seed=2)
        cfg = I2PianoConfig(max_outer=100)
        st = fb.start(p, np.zeros(20), eval_f, cfg.L0)
        for _ in range(30):
            new = i2piano_step(p, st, cfg)
            dstep = np.dot(st.x_curr - st.s_curr, st.x_curr - st.s_curr)
            bound = (st.phi_val - cfg.gamma * dstep
                     + (1 - cfg.omega) * new.h_val)
            assert new.phi_val <= bound + 1e-9 * (1 + abs(st.phi_val))
            st = new

    def test_merit_descent_violation_is_hard_error(self, monkeypatch):
        # an engine that overstates h lowers the bound below the merit;
        # the run checks the step's row with certify's H1
        monkeypatch.setattr(i2piano, "solve_inexact_prox", scaled_h_engine(
            i2piano.solve_inexact_prox, 100.0))
        p, _, _ = quadratic_l1_problem(n=15, seed=3)
        with pytest.raises(SolverError,
                           match=r"certificate failed: H1 at k=0 "):
            i2piano_solve(p, np.zeros(15), I2PianoConfig())


class TestSolve:
    def test_converges_on_smooth_quadratic(self):
        p = smooth_only_problem(n=1, target=3.0)
        cfg = I2PianoConfig(max_outer=200, stop_tol=1e-10)
        trace = i2piano_solve(p, np.zeros(1), cfg)
        assert abs(trace.x_final[0] - 3.0) <= 1e-8

    def test_stationary_start_stops_immediately(self):
        p = smooth_only_problem(n=3, target=0.0)
        cfg = I2PianoConfig(tau=0.0, omega=0.95, stop_tol=1e-9)
        trace = i2piano_solve(p, np.zeros(3), cfg)
        assert len(trace) == 1
        assert trace.rows[0]["d_k"] <= 1e-9

    def test_converges_to_soft_threshold_minimizer(self):
        p, _, ref = quadratic_l1_problem(n=40, seed=4)
        cfg = I2PianoConfig(max_outer=2000, stop_tol=1e-11)
        trace = i2piano_solve(p, np.zeros(40), cfg)
        assert np.max(np.abs(trace.x_final - ref)) <= 1e-6

    def test_phi_nonincreasing(self):
        p, _, _ = quadratic_l1_problem(n=30, seed=6)
        trace = i2piano_solve(p, np.zeros(30), I2PianoConfig(max_outer=100))
        phis = trace.column("phi")
        for a, b in zip(phis, phis[1:]):
            assert b <= a + 1e-9 * (1 + abs(a))

    def test_L_decrease_below_L0_keeps_certificates(self):
        # a linear f0 has no curvature, so every shrink passes the descent
        # test until L_MIN stops it
        c = np.full(20, 0.1)
        f0 = SmoothOracle(lambda x: float(np.dot(c, x)), lambda x: c.copy())
        f1 = StructuredConvexTerm(Block(IdentityOp(20), L1Norm(0.01)),
                                 xi=ZeroFunction(), n=20,
                                 op_norm_sq_bound=1.0)
        p = CompositeProblem(f0, f1, 20)
        cfg = I2PianoConfig(max_outer=600)
        trace = i2piano_solve(p, np.zeros(20), cfg)
        Ls = trace.column("L_or_gamma")
        assert Ls[0] == cfg.L0
        assert min(Ls) == L_MIN
        assert Ls[-1] == L_MIN
        # merit descent inequality replayed row by row from the trace
        phi_prev, step_prev = trace.meta["phi_init"], 0.0
        for row in trace.rows:
            bound = (phi_prev - cfg.gamma * step_prev ** 2
                     + (1 - cfg.omega) * row["h"])
            assert row["phi"] <= bound + 1e-9 * (1 + abs(phi_prev))
            phi_prev, step_prev = row["phi"], row["x_step_norm"]
        assert summarize(trace).ok

    def test_x0_outside_domain_rejected(self):
        from inertiafb.problem import NonnegIndicator
        f0 = SmoothOracle(lambda x: 0.0, lambda x: np.zeros_like(x))
        f1 = xi_term(NonnegIndicator(), 1)
        p = CompositeProblem(f0, f1, 1)
        with pytest.raises(ValueError):
            i2piano_solve(p, np.array([-1.0]), I2PianoConfig())

    def test_trace_meta_and_final_value(self):
        p, _, _ = quadratic_l1_problem(n=10, seed=8)
        trace = i2piano_solve(p, np.zeros(10), I2PianoConfig(max_outer=20))
        assert trace.meta["solver"] == "i2piano"
        assert trace.meta["f_final"] == pytest.approx(
            eval_f(p, trace.x_final))
