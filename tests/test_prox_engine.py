import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertiafb import cli, imaging
from inertiafb.problem import (CompositeProblem, IdentityOp, L1Norm,
                               LinearOp, NonnegIndicator, ProxFunction,
                               SmoothOracle, StructuredConvexTerm,
                               ZeroFunction)
from inertiafb.prox_engine import (EngineError, solve_inexact_prox,
                                   theta_from_tau)
from tests.conftest import (MatrixOp, dual_objective, eval_h, prox_query,
                            quadratic_l1_problem, scalar_l1_problem,
                            smooth_only_problem, xi_term)


class TestTheta:
    def test_tau_zero_is_one(self):
        assert theta_from_tau(0.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 10.0, 1e6])
    def test_two_formulas_agree(self, tau):
        alt = 1.0 / (math.sqrt(1.0 + tau / 2.0) + math.sqrt(tau / 2.0)) ** 2
        assert abs(theta_from_tau(tau) - alt) <= 1e-15

    @given(st.floats(0.0, 1e8))
    @settings(max_examples=100, deadline=None)
    def test_range_and_monotone(self, tau):
        th = theta_from_tau(tau)
        assert 0.0 < th <= 1.0
        assert theta_from_tau(tau + 1.0) < th


class TestEvalH:
    def test_y_equals_x_is_zero(self):
        p, _, _ = quadratic_l1_problem(n=4)
        x = np.ones(4)
        assert eval_h(p, x, x, 0.5, 0.1, x) == pytest.approx(0.0, abs=1e-14)

    def test_hand_example_no_inertia(self):
        p = scalar_l1_problem()
        x = np.array([1.0])
        y = np.array([0.0])
        # |0| - |1| + 1*(0-1) + (0-1)^2/2 = -1.5
        assert eval_h(p, x, x, 1.0, 0.0, y) == pytest.approx(-1.5)

    def test_hand_example_with_inertia(self):
        p = scalar_l1_problem()
        x = np.array([1.0])
        s = np.array([0.0])
        y = np.array([0.0])
        # -1 + (1 - 0.5)(-1) + 0.5 = -1.0
        assert eval_h(p, x, s, 1.0, 0.5, y) == pytest.approx(-1.0)

    def test_infinite_outside_domain(self):
        f0 = SmoothOracle(lambda x: 0.0, lambda x: np.zeros_like(x))
        f1 = xi_term(NonnegIndicator(), 1)
        p = CompositeProblem(f0, f1, 1)
        assert eval_h(p, np.array([1.0]), np.array([1.0]), 1.0, 0.0,
                      np.array([-1.0])) == np.inf


class TestConjugateProx:
    def test_abs_projects_onto_interval(self):
        got = L1Norm(1.0).conjugate_prox(np.array([2.0]), 1.0)
        assert got[0] == pytest.approx(1.0)

    def test_shifted_l1(self):
        # prox of sigma*g* with g(u)=|u-3|: projection of v - sigma*3
        fn = L1Norm(1.0, shift=np.array([3.0]))
        got = fn.conjugate_prox(np.array([0.0]), 2.0)
        assert got[0] == pytest.approx(-1.0)

    @given(st.floats(-5, 5), st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, v, sigma):
        # minimize sigma*g*(w) + 0.5 (w - v)^2 for g = |.|:
        # g* = indicator of [-1,1], so the prox is clip(v, -1, 1)
        got = L1Norm(1.0).conjugate_prox(np.array([v]), sigma)[0]
        assert got == pytest.approx(np.clip(v, -1.0, 1.0), abs=1e-12)


class TestDualObjective:
    def test_w_zero_gives_c(self):
        p, b, _ = quadratic_l1_problem(n=6, weight=0.3)
        x = np.zeros(6)
        q = prox_query(p, x, x, 1.0, 0.0, 0.0)
        psi, cand = dual_objective(p, q, np.zeros(6))
        v = p.f0.grad(x)
        c = -0.5 * float(v @ v) - p.f1.value(x)
        assert psi == pytest.approx(c, rel=1e-12)
        np.testing.assert_allclose(cand, x - v)

    def test_outside_dual_domain_is_minus_inf(self):
        p, _, _ = quadratic_l1_problem(n=3, weight=0.3)
        x = np.zeros(3)
        q = prox_query(p, x, x, 1.0, 0.0, 0.0)
        psi, _ = dual_objective(p, q, np.full(3, 10.0))
        assert psi == -np.inf

    def test_weak_duality_random_w(self):
        p, _, _ = quadratic_l1_problem(n=8, weight=0.3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8)
        s = rng.standard_normal(8)
        q = prox_query(p, x, s, 0.7, 0.2, 0.0)
        for _ in range(20):
            w = rng.uniform(-0.3, 0.3, 8)
            psi, cand = dual_objective(p, q, w)
            h = eval_h(p, x, s, 0.7, 0.2, cand)
            assert psi <= h + 1e-10 * (1.0 + abs(h))


class TestSolveInexactProx:
    def test_matches_soft_threshold_oracle(self):
        p, b, _ = quadratic_l1_problem(n=100, seed=3, weight=0.3)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(100)
        q = prox_query(p, x, x, 1.0, 0.0, 0.0, abs_tol=1e-10, max_inner=5000)
        res = solve_inexact_prox(p, q)
        # xbar = x - (x - b) = b; exact prox = soft(b, 0.3)
        ref = np.sign(b) * np.maximum(np.abs(b) - 0.3, 0.0)
        assert res.ok
        np.testing.assert_allclose(res.y_tilde, ref, atol=1e-6)

    def test_two_blocks_match_their_summed_soft_threshold(self):
        # 0.1|x| + 0.2|x| as one block over M = [0.1 I; 0.2 I] with
        # g = ||.||_1 is 0.3|x|; each half of the dual point w lies in the
        # unit box
        n = 50
        rng = np.random.default_rng(3)
        b = rng.standard_normal(n)
        f0 = SmoothOracle(lambda x: 0.5 * float(np.dot(x - b, x - b)),
                          lambda x: x - b)
        op = MatrixOp(np.vstack([0.1 * np.eye(n), 0.2 * np.eye(n)]))
        f1 = StructuredConvexTerm(op, L1Norm(1.0), ZeroFunction(),
                                  op_norm_sq_bound=0.05)
        p = CompositeProblem(f0, f1, n)
        x = rng.standard_normal(n)
        # at tau > 0 iterate 0 already certifies and no dual step is taken
        q = prox_query(p, x, x, 1.0, 0.0, 0.0, abs_tol=1e-10, max_inner=5000)
        res = solve_inexact_prox(p, q)
        assert res.ok and res.inner_iters > 0
        ref = np.sign(b) * np.maximum(np.abs(b) - 0.3, 0.0)
        np.testing.assert_allclose(res.y_tilde, ref, rtol=0, atol=1e-12)
        w1, w2 = res.w_tilde[:n], res.w_tilde[n:]
        assert np.max(np.abs(w1)) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(w2)) == pytest.approx(1.0, abs=1e-12)

    def test_stationary_point_fires_abs_branch(self):
        p = scalar_l1_problem()
        x = np.array([0.0])
        q = prox_query(p, x, x, 1.0, 0.0, 0.0, abs_tol=1e-12)
        res = solve_inexact_prox(p, q)
        assert res.converged == "abs"
        assert abs(res.y_tilde[0]) < 1e-10
        assert res.h_value == pytest.approx(0.0, abs=1e-12)

    def test_abs_stop_stays_at_x(self):
        # |h| <= abs_tol certifies x itself; the engine used to return its
        # candidate y = 0 with h = -1e-13, a step the solvers took
        p = scalar_l1_problem()
        x = np.array([1e-13])
        q = prox_query(p, x, x, 1.0, 0.0, 0.0, abs_tol=1e-11)
        res = solve_inexact_prox(p, q)
        assert res.converged == "abs"
        assert res.y_tilde is not x and res.y_tilde[0] == x[0]
        assert (res.h_value, res.f1_y) == (0.0, p.f1.value(x))
        assert res.psi_value <= 0.0

    def test_gap_branch_with_positive_tau(self):
        p, _, _ = quadratic_l1_problem(n=30, seed=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(30)
        s = rng.standard_normal(30)
        q = prox_query(p, x, s, 0.5, 0.3, 1.0)
        res = solve_inexact_prox(p, q)
        assert res.converged == "gap"
        assert res.h_value <= (2.0 / 3.0) * res.psi_value + 1e-12

    def test_dist33_certificate(self):
        p, _, _ = quadratic_l1_problem(n=20, seed=5)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(20)
        for tau in (0.0, 1.0, 1e6):
            q = prox_query(p, x, x, 0.8, 0.0, tau, abs_tol=1e-12)
            res = solve_inexact_prox(p, q)
            theta = theta_from_tau(tau)
            d = res.y_tilde - x
            lhs = (theta / (2 * 0.8)) * float(d @ d)
            assert lhs <= -res.h_value + 1e-10 * (1.0 + abs(res.h_value))

    def test_h_value_nonpositive(self):
        p, _, _ = quadratic_l1_problem(n=10, seed=9)
        rng = np.random.default_rng(10)
        for i in range(10):
            x = rng.standard_normal(10)
            q = prox_query(p, x, rng.standard_normal(10), 0.3, 0.1, 10.0)
            res = solve_inexact_prox(p, q)
            assert res.h_value <= 1e-12

    def test_weak_duality_at_every_inner_iterate(self):
        p, _, _ = quadratic_l1_problem(n=40, seed=11)
        rng = np.random.default_rng(12)
        x = rng.standard_normal(40)
        seen = []

        def hook(l, h, psi):
            seen.append((l, h, psi))
            assert psi <= h + 1e-10 * (1.0 + abs(h))

        q = prox_query(p, x, x, 1.0, 0.0, 0.0, abs_tol=1e-10)
        solve_inexact_prox(p, q, inner_hook=hook)
        assert seen

    def test_maxiter_flag(self):
        p, _, _ = quadratic_l1_problem(n=30, seed=13)
        rng = np.random.default_rng(14)
        x = rng.standard_normal(30)
        q = prox_query(p, x, x, 1.0, 0.0, 0.0, abs_tol=0.0, max_inner=1)
        res = solve_inexact_prox(p, q)
        # abs_tol=0 is unreachable in finite time here
        assert res.converged == "maxiter" and not res.ok

    def test_warm_start_reduces_inner_iterations(self):
        p, _, _ = quadratic_l1_problem(n=60, seed=15)
        rng = np.random.default_rng(16)
        x = rng.standard_normal(60)
        q = prox_query(p, x, x, 0.9, 0.0, 0.0, abs_tol=1e-9)
        cold = solve_inexact_prox(p, q)
        x2 = x + 1e-3 * rng.standard_normal(60)
        q2 = prox_query(p, x2, x2, 0.9, 0.0, 0.0, abs_tol=1e-9)
        warm = solve_inexact_prox(p, q2, warm_start=cold.w_tilde)
        cold2 = solve_inexact_prox(p, q2)
        assert warm.inner_iters <= cold2.inner_iters

    def test_zero_block_returns_exact_point(self):
        # g = 0 keeps the dual at 0, where the candidate is the exact prox
        f0 = SmoothOracle(lambda x: 0.5 * float(np.dot(x, x)), lambda x: x)
        f1 = xi_term(NonnegIndicator(), 2)
        p = CompositeProblem(f0, f1, 2)
        x = np.array([1.0, -0.0])
        q = prox_query(p, x, x, 0.5, 0.0, 1e6)
        res = solve_inexact_prox(p, q)
        # exact projection of x - alpha*x onto the nonnegative orthant
        np.testing.assert_allclose(res.y_tilde, np.maximum(0.5 * x, 0.0))
        assert res.inner_iters == 0

    @pytest.mark.parametrize("alpha, beta, tau", [
        (0.0, 0.0, 0.0), (1.0, 0.0, -1.0), (1.0, -1.0, 0.0),
        (np.nan, 0.0, 0.0), (1.0, np.nan, 0.0), (1.0, 0.0, np.nan),
        (np.inf, 0.0, 0.0), (1.0, np.inf, 0.0), (1.0, 0.0, np.inf)])
    def test_invalid_query_rejected(self, alpha, beta, tau):
        # NaN used to pass every test; tau = NaN then ran all max_inner
        # iterations, and alpha = NaN failed inside the engine
        p = smooth_only_problem()
        with pytest.raises(ValueError):
            prox_query(p, np.zeros(1), np.zeros(1), alpha, beta, tau)

    def test_x_outside_domain_is_engine_error(self):
        # raised before any dual iterate, by the engine and not the query
        f0 = SmoothOracle(lambda x: 0.0, lambda x: np.zeros_like(x))
        f1 = xi_term(NonnegIndicator(), 1)
        p = CompositeProblem(f0, f1, 1)
        q = prox_query(p, np.array([-1.0]), np.array([0.0]), 1.0, 0.0, 0.0)
        seen = []
        with pytest.raises(EngineError, match="outside dom"):
            solve_inexact_prox(p, q, inner_hook=lambda *a: seen.append(a))
        assert seen == []


class _CountingOp(LinearOp):
    def __init__(self, op):
        self.op = op
        self.in_dim, self.out_dim = op.in_dim, op.out_dim
        self.matvecs = self.rmatvecs = 0

    def matvec(self, x):
        self.matvecs += 1
        return self.op.matvec(x)

    def rmatvec(self, y):
        self.rmatvecs += 1
        return self.op.rmatvec(y)


def _tv_denoising_problem(shape=(16, 16), seed=0):
    """f0 = 0.5||x - b||^2, f1 = 0.25 TV(x) + nonnegativity, counted M."""
    rng = np.random.default_rng(seed)
    n = shape[0] * shape[1]
    b = rng.uniform(0.0, 4.0, n)
    op = _CountingOp(imaging.GradOp(shape))
    f0 = SmoothOracle(lambda x: 0.5 * float(np.dot(x - b, x - b)),
                      lambda x: x - b)
    f1 = StructuredConvexTerm(op, imaging.GroupL2(0.25), NonnegIndicator(),
                              op_norm_sq_bound=8.0)
    return CompositeProblem(f0, f1, n), op, rng


class TestOneAdjointPerInnerIteration:
    @pytest.mark.parametrize("branch, tau, settings", [
        ("gap", 0.01, {}), ("abs", 0.0, {"abs_tol": 1e-6}),
        ("maxiter", 0.0, {"abs_tol": 0.0, "max_inner": 7})])
    @pytest.mark.parametrize("warm", [False, True])
    def test_operator_counts_on_every_stop(self, branch, tau, settings,
                                           warm):
        # M once per iterate for h and once per FISTA step, M^T once per
        # FISTA step and once for a cold iterate 0: no step after the last
        # iterate, and none before iterate 0's stop test
        p, op, rng = _tv_denoising_problem(seed=3)
        x, s = rng.uniform(0.0, 4.0, p.n), rng.uniform(0.0, 4.0, p.n)
        q = prox_query(p, x, s, 0.8, 0.2, tau, **settings)
        kw = {}
        if warm:
            prev = solve_inexact_prox(p, prox_query(p, s, s, 0.8, 0.2, 0.01))
            kw = {"warm_start": prev.w_tilde, "warm_mtw": prev.mtw_tilde}
        op.matvecs = op.rmatvecs = 0
        res = solve_inexact_prox(p, q, **kw)
        assert res.converged == branch and res.inner_iters > 0
        assert op.matvecs == 2 * res.inner_iters + 1
        assert op.rmatvecs == res.inner_iters + (not warm)

    def test_stop_at_iterate_zero_applies_m_once(self):
        p, op, rng = _tv_denoising_problem(seed=3)
        x, s = rng.uniform(0.0, 4.0, p.n), rng.uniform(0.0, 4.0, p.n)
        q = prox_query(p, x, s, 0.8, 0.2, 0.01)
        first = solve_inexact_prox(p, q)
        op.matvecs = op.rmatvecs = 0
        res = solve_inexact_prox(p, q, warm_start=first.w_tilde,
                                 warm_mtw=first.mtw_tilde)
        assert (res.converged, res.inner_iters) == ("gap", 0)
        assert (op.matvecs, op.rmatvecs) == (1, 0)

    def test_rmatvec_calls_are_inner_iters_plus_one(self):
        p, op, rng = _tv_denoising_problem()
        w, total = None, 0
        for _ in range(4):
            x = rng.uniform(0.0, 4.0, p.n)
            q = prox_query(p, x, rng.uniform(0.0, 4.0, p.n), 0.8, 0.2, 0.01)
            op.rmatvecs = 0
            res = solve_inexact_prox(p, q, warm_start=w)
            assert res.ok
            assert op.rmatvecs == res.inner_iters + 1
            w, total = res.w_tilde, total + res.inner_iters
        assert total > 0

    def test_certificate_is_evaluated_at_the_returned_dual_point(self):
        p, _, rng = _tv_denoising_problem(seed=1)
        x, s = rng.uniform(0.0, 4.0, p.n), rng.uniform(0.0, 4.0, p.n)
        q = prox_query(p, x, s, 0.6, 0.3, 0.01)
        res = solve_inexact_prox(p, q)
        assert res.converged == "gap" and res.inner_iters > 1
        psi, cand = dual_objective(p, q, res.w_tilde)
        assert psi == res.psi_value
        np.testing.assert_array_equal(cand, res.y_tilde)
        assert res.h_value == eval_h(p, x, s, 0.6, 0.3, res.y_tilde)


def _record_dual_iterates(fn):
    """Wraps ``fn.conjugate_prox`` and ``fn.conjugate`` on the instance:
    returns the list of projected dual iterates and the conjugate count."""
    iterates, calls = [], [0]
    project, conjugate = fn.conjugate_prox, fn.conjugate

    def recording_prox(v, sigma):
        iterates.append(project(v, sigma))
        return iterates[-1]

    def counting_conjugate(w):
        calls[0] += 1
        return conjugate(w)

    fn.conjugate_prox = recording_prox
    fn.conjugate = counting_conjugate
    return iterates, calls


class TestConjugateOfProjectedIterates:
    def _check(self, p, q):
        """Solves once; returns (inner iterations, conjugate calls), after
        checking every inner psi against ``dual_objective`` bit for bit."""
        iterates, calls = _record_dual_iterates(p.f1.g)
        psis = []
        res = solve_inexact_prox(p, q, inner_hook=lambda l, h, psi:
                                 psis.append(psi) if l else None)
        solve_calls = calls[0]
        assert res.inner_iters > 0
        assert len(iterates) == len(psis) == res.inner_iters
        for w, psi in zip(iterates, psis):
            assert psi == dual_objective(p, q, w)[0]
        return res.inner_iters, solve_calls

    def test_group_l2_conjugate_checked_at_iterate_zero_only(self):
        p, _, rng = _tv_denoising_problem(seed=2)
        x, s = rng.uniform(0.0, 4.0, p.n), rng.uniform(0.0, 4.0, p.n)
        q = prox_query(p, x, s, 0.6, 0.3, 0.01)
        _, calls = self._check(p, q)
        assert calls == 1

    @pytest.mark.parametrize("shifted", [False, True])
    def test_l1_conjugate_checked_at_iterate_zero_only(self, shifted):
        p, _, _ = quadratic_l1_problem(n=30, seed=1)
        rng = np.random.default_rng(2)
        if shifted:
            p.f1.g.shift = rng.standard_normal(30)
        x, s = rng.standard_normal(30), rng.standard_normal(30)
        q = prox_query(p, x, s, 0.5, 0.3, 0.01)
        _, calls = self._check(p, q)
        assert calls == 1

    @pytest.mark.parametrize("weight", [1.0, 0.3])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_l1_conjugate_prox_stays_in_the_box(self, weight, shifted):
        # Moreau's identity v - prox(v) returned 2 at 2^53 + 2, outside
        # [-1, 1]; a clip returns the bound itself
        rng = np.random.default_rng(5)
        v = np.concatenate([[2.0 ** 53 + 2.0, -(2.0 ** 53 + 2.0)],
                            rng.standard_normal(200)
                            * 10.0 ** rng.uniform(0.0, 300.0, 200)])
        shift = rng.uniform(0.0, 255.0, v.size) if shifted else None
        fn = L1Norm(weight, shift=shift)
        for sigma in (1.0, 1e-6, 1e6):
            w = fn.conjugate_prox(v, sigma)
            assert np.abs(w).max() == weight
            assert w[0] == weight and w[1] == -weight
            assert math.isfinite(fn.conjugate(w))


class _IndicatorOfZero(ProxFunction):
    """Indicator of ``{0}``: ``g* = 0``, and ``prox_{sigma g*}`` returns a
    copy of its input, as ``ProxFunction.conjugate_prox`` must."""

    def value(self, x):
        return 0.0 if not np.any(x) else np.inf

    def conjugate(self, w):
        return 0.0

    def conjugate_at_prox(self, w):
        return 0.0

    def conjugate_prox(self, v, sigma):
        return v.copy()


@pytest.mark.parametrize("fn", [
    L1Norm(0.3), L1Norm(0.3, shift=np.linspace(-1.0, 1.0, 40)),
    imaging.GroupL2(0.25)], ids=["l1", "l1-shifted", "group-l2"])
@pytest.mark.parametrize("scale", [1e-3, 10.0], ids=["inside", "outside"])
def test_conjugate_prox_returns_a_fresh_array(fn, scale):
    # the engine writes its next dual point into v while it keeps w; at
    # scale 1e-3 every entry of the unshifted v lies in the ball already
    v = scale * np.random.default_rng(3).standard_normal(40)
    for sigma in (1e-6, 1.0):
        w = fn.conjugate_prox(v, sigma)
        kept = w.copy()
        assert not np.may_share_memory(w, v)
        v += 1.0
        assert w.tobytes() == kept.tobytes()


def _blur(size, shape):
    g = imaging.gaussian_kernel(size, 1.0)
    return imaging.ConvOperator(g, g, shape)


class TestReusedBuffers:
    """The dual loop and ``M^T`` skip fresh arrays without moving a bit."""

    @pytest.mark.parametrize("op", [
        imaging.GradOp((6, 7)), imaging.GradOp((64, 64)),
        _blur(3, (6, 7)), _blur(5, (17, 9)), _blur(5, (64, 64)),
        IdentityOp(42)],
        ids=["grad", "grad-64x64", "conv", "conv-17x9", "conv-64x64",
             "identity"])
    def test_rmatvec_is_the_zero_filled_sum(self, op):
        # LinearOp.rmatvec returns a fresh array free of -0.0, which is
        # what a sum accumulated from +0.0 gives
        rng = np.random.default_rng(5)
        m = op.out_dim
        mixed = rng.choice([-0.0, 0.0, 1.5, -2.25], m)
        mixed = np.where(rng.random(m) < 0.3, rng.standard_normal(m), mixed)
        earlier = []
        for w in (mixed, np.full(m, -0.0), np.zeros(m)):
            before = w.copy()
            r = op.rmatvec(w)
            assert not np.any((r == 0.0) & np.signbit(r))
            assert not any(np.may_share_memory(r, b) for b in (w, *earlier))
            assert w.tobytes() == before.tobytes()
            earlier.append(r)

    @staticmethod
    def _returned_arrays_survive(p, queries, max_inner=2000):
        kept, warm, warm_mtw = [], None, None
        for q in queries:
            q.max_inner = max_inner
            res = solve_inexact_prox(p, q, warm_start=warm, warm_mtw=warm_mtw)
            # w_tilde was not rewritten after M^T w_tilde was taken
            assert (res.mtw_tilde.tobytes()
                    == p.f1.op.rmatvec(res.w_tilde).tobytes())
            kept.append((res, [a.copy() for a in (res.y_tilde, res.w_tilde,
                                                  res.mtw_tilde)]))
            warm, warm_mtw = res.w_tilde, res.mtw_tilde
        for res, copies in kept:
            for a, c in zip((res.y_tilde, res.w_tilde, res.mtw_tilde),
                            copies):
                assert a.tobytes() == c.tobytes()
        return [res for res, _ in kept]

    def test_tv_results_unchanged_by_later_calls(self):
        p, _, rng = _tv_denoising_problem(seed=3)
        queries = [prox_query(p, rng.uniform(0.0, 4.0, p.n),
                              rng.uniform(0.0, 4.0, p.n), 0.8, 0.2, 0.01)
                   for _ in range(3)]
        results = self._returned_arrays_survive(p, queries)
        assert all(r.ok and r.inner_iters > 1 for r in results)

    def test_unimproved_warm_start_is_returned_intact(self):
        # from a dual point FISTA cannot improve on, the engine returns its
        # own iterate 0 after extrapolating past it three times
        p, _, rng = _tv_denoising_problem(shape=(8, 8), seed=3)
        x, s = rng.uniform(0.0, 4.0, p.n), rng.uniform(0.0, 4.0, p.n)
        q = prox_query(p, x, s, 0.8, 0.2, 0.0, abs_tol=0.0, max_inner=1000)
        first = solve_inexact_prox(p, q)
        assert (first.converged, first.inner_iters) == ("maxiter", 1000)
        q.max_inner = 3
        res = solve_inexact_prox(p, q, warm_start=first.w_tilde,
                                 warm_mtw=first.mtw_tilde)
        assert (res.converged, res.inner_iters) == ("maxiter", 3)
        assert res.w_tilde.tobytes() == first.w_tilde.tobytes()
        assert (res.mtw_tilde.tobytes()
                == p.f1.op.rmatvec(res.w_tilde).tobytes())

    def test_results_unchanged_by_later_calls_when_xi_and_m_alias(self):
        # xi's prox and M return their input here, so any reused buffer
        # that leaks would show; the loose norm bound keeps h infinite and
        # the dual climbing for every step
        n = 12
        b = np.linspace(-1.0, 1.0, n)
        f0 = SmoothOracle(lambda x: 0.5 * float(np.dot(x - b, x - b)),
                          lambda x: x - b)
        f1 = StructuredConvexTerm(IdentityOp(n), _IndicatorOfZero(),
                                  ZeroFunction(), op_norm_sq_bound=4.0)
        p = CompositeProblem(f0, f1, n)
        queries = [prox_query(p, np.zeros(n), np.full(n, 0.1 * k), 0.5, 0.3,
                              0.01) for k in range(3)]
        for res in self._returned_arrays_survive(p, queries, max_inner=6):
            assert (res.converged, res.inner_iters) == ("maxiter", 6)


def _problem_and_points(name):
    """``(problem, x, s)``: the synthetic l1 problem, or a 16x16 imaging
    problem as ``cli.build_problem`` makes it, at ``x0`` and an anchor off
    it."""
    rng = np.random.default_rng(2)
    if name == "quadratic-l1":
        p, _, _ = quadratic_l1_problem(n=30, seed=1)
        return p, rng.standard_normal(30), rng.standard_normal(30)
    p, x0, _ = cli.build_problem(dict(cli.DEFAULTS, problem=name, size="16"))
    return p, x0, np.clip(x0 + rng.standard_normal(x0.size), 0.0, None)


# (branch, query settings, whether the step stays at x); the quadratic's
# identity block is solved exactly by the first FISTA iterate, so its
# maxiter case stops before one
STEP_CASES = {
    "gap-fista": ("gap", dict(tau=0.01), False),
    "gap-iterate-0": ("gap", dict(tau=1e6), False),
    "abs-step": ("abs", dict(tau=0.0, abs_tol=1.0), False),
    "abs-stays-at-x": ("abs", dict(tau=1.0, abs_tol=1e30), True),
    "maxiter": ("maxiter", dict(tau=0.0, abs_tol=0.0, max_inner=3), False),
}


class TestResultCarriesItsStep:
    """The step ``y_tilde - x`` and its squared norm come back from the
    engine, as the certified ``h(y_tilde)`` used them."""

    @pytest.mark.parametrize("case", sorted(STEP_CASES))
    @pytest.mark.parametrize("name", ["quadratic-l1", "gaussian-sd-tv",
                                      "impulse-l1"])
    def test_step_is_y_minus_x_bit_for_bit(self, name, case):
        branch, settings_, stays = STEP_CASES[case]
        p, x, s = _problem_and_points(name)
        if name == "quadratic-l1" and branch == "maxiter":
            settings_ = dict(settings_, max_inner=0)
        q = prox_query(p, x, s, 0.5, 0.2, **settings_)
        res = solve_inexact_prox(p, q)
        assert res.converged == branch
        assert res.y_step.tobytes() == (res.y_tilde - q.x).tobytes()
        assert res.y_step_sq == float(np.dot(res.y_step, res.y_step))
        assert (res.y_step_sq == 0.0) == stays
        if stays:
            assert res.y_tilde is not x and res.h_value == 0.0
        elif branch != "maxiter":
            # the step certifies the decrease it is reported with
            assert res.h_value == eval_h(p, x, s, 0.5, 0.2, res.y_tilde)


class TestWarmStartIsNotCopied:
    @pytest.mark.parametrize("tau, stops_at_iterate_0", [(0.01, False),
                                                         (1e6, True)])
    def test_warm_start_unchanged_and_as_good_as_a_copy(self, tau,
                                                        stops_at_iterate_0):
        p, x, s = _problem_and_points("gaussian-sd-tv")
        first = solve_inexact_prox(p, prox_query(p, x, s, 0.5, 0.2, 0.01))
        warm = first.w_tilde
        before = warm.tobytes()
        x2 = s  # a second point, as the next outer iteration asks
        q = prox_query(p, x2, x, 0.5, 0.2, tau)
        res = solve_inexact_prox(p, q, warm_start=warm)
        assert (res.inner_iters == 0) == stops_at_iterate_0
        assert warm.tobytes() == before
        if stops_at_iterate_0:
            assert res.w_tilde is warm  # handed back, not a copy of it
        ref = solve_inexact_prox(p, q, warm_start=warm.copy())
        for field in ("y_tilde", "w_tilde", "mtw_tilde", "y_step"):
            assert (getattr(res, field).tobytes()
                    == getattr(ref, field).tobytes())
        assert ((res.h_value, res.psi_value, res.y_step_sq, res.inner_iters,
                 res.converged) == (ref.h_value, ref.psi_value,
                                    ref.y_step_sq, ref.inner_iters,
                                    ref.converged))
