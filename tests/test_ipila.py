import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertiafb import fb, ipila
from inertiafb.certify import ALPHA_MIN
from inertiafb.ipila import (IPilaConfig, SolverError, armijo_linesearch,
                             compute_delta, descent_direction, ipila_solve,
                             ipila_step, phi_value)
from inertiafb.problem import (CompositeProblem, SmoothOracle, ZeroFunction,
                               eval_f)
from inertiafb.prox_engine import solve_inexact_prox, theta_from_tau
from tests.conftest import (eval_h, quadratic_l1_problem, scaled_h_engine,
                            smooth_only_problem, xi_term)


class TestDescentDirection:
    def test_stationary_gives_zero(self):
        x = np.ones(3)
        dx, ds = descent_direction(x - x, x - x, 0.5, 0.2, 1.0)
        np.testing.assert_allclose(dx, 0.0)
        np.testing.assert_allclose(ds, 0.0)

    def test_hand_example(self):
        # x = 1, s = 0, y = 0
        dx, ds = descent_direction(np.array([-1.0]), np.array([1.0]),
                                   1.0, 0.5, 2.0)
        assert dx[0] == pytest.approx(-1.0)
        assert ds[0] == pytest.approx(0.5)  # 1.5*(-1) + 2*1

    def test_degenerate_anchor(self):
        x = np.array([2.0, -1.0])
        y = np.array([0.5, 0.5])
        dx, ds = descent_direction(y - x, x - x, 0.7, 0.0, 3.0)
        np.testing.assert_allclose(ds, dx)

    @given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                    min_size=1, max_size=8),
           st.floats(ALPHA_MIN, 1e3), st.floats(0.0, 10.0),
           st.floats(1e-8, 1.0), st.floats(0.0, 1e8))
    @settings(max_examples=200, deadline=None)
    def test_norm_bound_holds_for_every_input(self, pairs, alpha, beta,
                                              gamma_k, tau):
        # ||d_x||^2 + ||d_s||^2 <= cap (a ||y-x||^2 + gamma ||x-s||^2),
        # since 2|<y-x, x-s>| <= ||y-x||^2 + ||x-s||^2; the step used to
        # test it on every row
        y_step, anchor = (np.array(c) for c in zip(*pairs))
        dx, ds = descent_direction(y_step, anchor, alpha, beta, gamma_k)
        assert dx is y_step
        a, dbar = theta_from_tau(tau) / (2.0 * alpha), 1.0 + beta / alpha
        cap = max((1.0 + dbar * dbar + dbar * gamma_k) / a, gamma_k + dbar)
        bound = cap * (a * float(y_step @ y_step)
                       + gamma_k * float(anchor @ anchor))
        assert float(dx @ dx + ds @ ds) <= bound * (1.0 + 1e-12)


class TestComputeDelta:
    def test_zero_at_stationarity(self):
        assert compute_delta(0.0, 2.0, 0.0) == 0.0

    def test_hand_example(self):
        # ||x - s||^2 = 1
        assert compute_delta(-1.5, 2.0, 1.0) == pytest.approx(-3.5)

    def test_positive_h_is_hard_error(self):
        with pytest.raises(SolverError):
            compute_delta(0.1, 1.0, 0.0)

    def test_dist33_bound_example(self):
        # h = -1.5, theta = 1 (tau=0), alpha = 1, ||y-x||^2 = 1:
        # required (theta/2 alpha)*1 = 0.5 <= 1.5
        assert 0.5 <= 1.5


def _at_y(p, y):
    """``armijo_linesearch``'s keywords for the prox point ``y``."""
    fwd = p.f0.forward(y)
    return {"y": y, "fwd_y": fwd, "f0_y": p.f0.value(y, fwd),
            "f1_y": p.f1.value(y)}


class TestArmijo:
    def test_full_step_accepted_on_mild_quadratic(self):
        p = smooth_only_problem(n=1, target=0.0)
        x = np.array([1.0])
        s = x.copy()
        y = np.array([0.9])  # small step on a 1-Lipschitz problem
        h = eval_h(p, x, s, 0.1, 0.0, y)
        delta = compute_delta(h, 1e-5, 0.0)
        dx, ds = descent_direction(y - x, x - s, 0.1, 0.0, 1e-5)
        lam, nx, ns, evals, _, f0, f1, phi = armijo_linesearch(
            p, x, s, phi_value(p, x, s), dx, ds, delta, 1e-4, 0.5, 60,
            **_at_y(p, y))
        assert lam == 1.0
        assert evals == 1
        assert (f0, f1) == (p.f0.value(y), p.f1.value(y))
        assert phi == phi_value(p, nx, ns)

    def test_overshoot_halves_once(self):
        # f0 = 8x^2 is stiff; a unit direction from x=1 overshoots
        f0 = SmoothOracle(lambda x: 8.0 * float(x[0] ** 2),
                          lambda x: 16.0 * np.asarray(x, dtype=float))
        f1 = xi_term(ZeroFunction(), 1)
        p = CompositeProblem(f0, f1, 1)
        x = np.array([1.0])
        s = x.copy()
        alpha = 0.12
        y = x - alpha * p.f0.grad(x)  # exact prox step, y = -0.92
        h = eval_h(p, x, s, alpha, 0.0, y)
        delta = compute_delta(h, 1e-5, 0.0)
        dx, ds = descent_direction(y - x, x - s, alpha, 0.0, 1e-5)
        assert phi_value(p, x + dx, s + ds) > phi_value(p, x, s) + 0.25 * delta
        lam, nx, ns, evals, _, f0, f1, phi = armijo_linesearch(
            p, x, s, phi_value(p, x, s), dx, ds, delta, 0.25, 0.5, 60,
            **_at_y(p, y))
        assert lam == 0.5
        assert evals == 2
        # the accepted trial's values, as a fresh evaluation gives them
        np.testing.assert_array_equal(nx, x + 0.5 * dx)
        assert (f0, f1) == (p.f0.value(nx), p.f1.value(nx))
        assert phi == phi_value(p, nx, ns)

    def test_unit_trial_is_y_itself(self):
        # x + (y - x) rounds away from y here, and the unit trial must
        # still be y with the caller's f(y), not a fresh evaluation
        calls = []
        f0 = SmoothOracle(lambda x: (calls.append(1), 0.5 * float(x @ x))[1],
                          lambda x: x)
        p = CompositeProblem(f0, xi_term(ZeroFunction(), 1), 1)
        x, y = np.array([0.4]), np.array([0.1])
        d = y - x
        assert (x + d).tobytes() != y.tobytes()
        phi0, at_y = phi_value(p, x, x), _at_y(p, y)
        calls.clear()
        lam, new_x, _, evals, _, f0, f1, _ = armijo_linesearch(
            p, x, x, phi0, d, np.zeros(1), -1e-3, 1e-4, 0.5, 60, **at_y)
        assert (lam, evals) == (1.0, 1)
        assert new_x is y
        assert (f0, f1) == (at_y["f0_y"], at_y["f1_y"])
        assert calls == []

    def test_nonnegative_delta_rejected(self):
        p = smooth_only_problem(n=1)
        with pytest.raises(SolverError):
            armijo_linesearch(p, np.zeros(1), np.zeros(1), 0.0, np.zeros(1),
                              np.zeros(1), 0.0, 1e-4, 0.5, 60,
                              **_at_y(p, np.zeros(1)))

    def test_exhaustion_is_hard_error(self):
        # ascent direction with a fake negative delta can never pass
        p = smooth_only_problem(n=1, target=0.0)
        x = np.array([1.0])
        d = np.array([10.0])
        with pytest.raises(SolverError):
            armijo_linesearch(p, x, x, phi_value(p, x, x), d, d, -1e-12,
                              0.9, 0.5, 20, **_at_y(p, x + d))


class TestStep:
    def test_linesearch_evaluates_each_trial_point_once(self):
        # f0 = 8x^2 from x = 1 with alpha = 0.5: y = -7, and the search
        # tries -7, -3 and -1 before it accepts lambda = 1/8 at 0
        seen = []
        f0 = SmoothOracle(lambda v: 8.0 * float(v[0] ** 2),
                          lambda v: 16.0 * v,
                          forward_fn=lambda x: (seen.append(x.tobytes()),
                                                x.copy())[1])
        p = CompositeProblem(f0, xi_term(ZeroFunction(), 1), 1)
        cfg = IPilaConfig(variant="strict-alg3", alpha_max=0.5, beta_max=0.0,
                          tau=0.0)
        st = fb.start(p, np.ones(1), eval_f, cfg.L0)
        seen.clear()
        new = ipila_step(p, st, cfg)
        assert new.accepted_branch == "linesearch"
        assert (new.lambda_k, new.backtracks) == (0.125, 3)
        # one forward pass at y, then one per lambda < 1 trial
        assert len(seen) == 1 + new.backtracks
        assert len(set(seen)) == len(seen)
        assert seen[-1] == new.x_curr.tobytes()
        assert new.f0_val == p.f0.value(new.x_curr)
        assert new.phi_val == phi_value(p, new.x_curr, new.s_curr)

    def test_stationary_short_circuit(self):
        p = smooth_only_problem(n=2, target=0.0)
        cfg = IPilaConfig(tau=0.0)
        st = fb.start(p, np.zeros(2), eval_f, cfg.L0)
        new = ipila_step(p, st, cfg)
        assert new.accepted_branch == "stationary"
        np.testing.assert_allclose(new.x_curr, st.x_curr)

    def test_strict_fb_reduces_merit(self):
        p = smooth_only_problem(n=1, target=3.0)
        cfg = IPilaConfig(variant="strict-alg3", beta_max=0.0,
                          alpha_max=0.5, tau=0.0)
        st = fb.start(p, np.zeros(1), eval_f, cfg.L0)
        new = ipila_step(p, st, cfg)
        assert new.phi_val < st.phi_val
        assert new.lambda_k > 0.0

    def test_both_decrease_conditions_hold(self):
        p, _, _ = quadratic_l1_problem(n=15, seed=3)
        for variant in ("strict-alg3", "practical-sec5"):
            cfg = IPilaConfig(variant=variant)
            st = fb.start(p, np.zeros(15), eval_f, cfg.L0)
            for _ in range(25):
                new = ipila_step(p, st, cfg)
                if new.accepted_branch == "stationary":
                    break
                lhs = new.phi_val
                assert lhs <= (st.phi_val + cfg.sigma * new.lambda_k
                               * new.delta_k + 1e-9 * (1 + abs(st.phi_val)))
                phi_yx = phi_value(p, new.y_tilde, st.x_curr) \
                    if new.accepted_branch == "linesearch" else np.inf
                if new.accepted_branch == "linesearch":
                    assert lhs <= phi_yx + 1e-9 * (1 + abs(phi_yx))
                st = new

    def test_practical_raises_L_on_rejection(self):
        # stiff smooth part makes the lambda=1 test fail early on
        f0 = SmoothOracle(lambda x: 20.0 * float(np.dot(x, x)),
                          lambda x: 40.0 * np.asarray(x, dtype=float))
        f1 = xi_term(ZeroFunction(), 2)
        p = CompositeProblem(f0, f1, 2)
        cfg = IPilaConfig(variant="practical-sec5", L0=1.0, tau=0.0)
        st = fb.start(p, np.ones(2), eval_f, cfg.L0)
        new = ipila_step(p, st, cfg)
        if new.backtracks > 0 or new.accepted_branch == "linesearch":
            assert new.L_k == pytest.approx(st.L_k * cfg.eta)


class TestStepChecks:
    """Each injected fault stops the run at the check that guards against
    it: the direction-norm bound in the step, the others on the row that
    ``fb.run`` checks with certify's row functions."""

    @staticmethod
    def _solve(cfg):
        p, _, _ = quadratic_l1_problem(n=15, seed=3)
        return ipila_solve(p, np.zeros(15), cfg)

    def test_weak_predicted_decrease_is_hard_error(self, monkeypatch):
        # at tau = 0 the distance certificate asks for the exact prox
        # point's full strong-convexity decrease, which half of h falls
        # short of here; H4 fails with it, as d_k reads the same h
        real, engine = ipila.ipila_step, scaled_h_engine(solve_inexact_prox,
                                                         0.5)
        monkeypatch.setattr(ipila, "ipila_step", lambda p, st, cfg: real(
            p, st, cfg, engine=engine))
        with pytest.raises(SolverError,
                           match=r"H4 at k=0 .*, prox at k=0 "):
            self._solve(IPilaConfig(variant="strict-alg3", tau=0.0))

    def test_armijo_violation_on_accepted_step_is_hard_error(self,
                                                             monkeypatch):
        # a search that reports the starting merit at the point it accepts
        real = ipila.armijo_linesearch
        monkeypatch.setattr(ipila, "armijo_linesearch",
                            lambda *a, **k: (*real(*a, **k)[:7], a[3]))
        with pytest.raises(SolverError, match=r"armijo at k=\d+ "):
            self._solve(IPilaConfig(variant="strict-alg3"))


class TestSolve:
    def test_converges_both_variants(self):
        p, _, ref = quadratic_l1_problem(n=40, seed=4)
        for variant in ("strict-alg3", "practical-sec5"):
            cfg = IPilaConfig(variant=variant, max_outer=2000,
                              stop_tol=1e-11)
            trace = ipila_solve(p, np.zeros(40), cfg=cfg)
            assert np.max(np.abs(trace.x_final - ref)) <= 1e-6, variant

    def test_s0_defaults_to_x0(self):
        p, _, _ = quadratic_l1_problem(n=5, seed=5)
        cfg = IPilaConfig(max_outer=1)
        trace = ipila_solve(p, np.zeros(5), cfg=cfg)
        # anchor coincides: Delta_0 = h(y_0)
        row = trace.rows[0]
        assert row["delta_k"] == pytest.approx(row["h"], abs=1e-14)

    def test_lambda_bounded_below_over_run(self):
        p, _, _ = quadratic_l1_problem(n=25, seed=6)
        trace = ipila_solve(p, np.zeros(25),
                            cfg=IPilaConfig(max_outer=200, stop_tol=1e-10))
        lams = [v for v in trace.column("lambda_k") if np.isfinite(v)]
        assert min(lams) > 0.0
        assert max(trace.column("backtracks")) <= 60

    def test_on_step_hook_sees_transitions(self):
        p, _, _ = quadratic_l1_problem(n=8, seed=7)
        seen = []
        ipila_solve(p, np.zeros(8), cfg=IPilaConfig(max_outer=5),
                    on_step=lambda k, before, after: seen.append(k))
        assert seen == list(range(5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IPilaConfig(sigma=1.5)
        with pytest.raises(ValueError):
            IPilaConfig(ls_shrink=0.0)
        with pytest.raises(ValueError):
            IPilaConfig(alpha_max=1e-13)  # below ipila.ALPHA_MIN
        with pytest.raises(ValueError):
            IPilaConfig(variant="bogus")
        # below gamma the practical coupling's beta turns negative
        with pytest.raises(ValueError, match="delta"):
            IPilaConfig(variant="practical-sec5", delta=-1.0)
        IPilaConfig(variant="strict-alg3", delta=-1.0)  # strict ignores it
        # used to end in ZeroDivisionError or a negative beta mid-run
        with pytest.raises(ValueError, match="L0"):
            IPilaConfig(L0=0.0)

    def test_phi_nonincreasing(self):
        p, _, _ = quadratic_l1_problem(n=30, seed=8)
        trace = ipila_solve(p, np.zeros(30), cfg=IPilaConfig(max_outer=100))
        phis = trace.column("phi")
        for a, b in zip(phis, phis[1:]):
            assert b <= a + 1e-9 * (1 + abs(a))
