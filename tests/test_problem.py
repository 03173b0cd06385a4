import collections
import functools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertiafb import i2piano, iista, ipila
from inertiafb.cli import (DEFAULTS, PROBLEMS, SOLVERS, build_problem,
                           run_solver)
from inertiafb.problem import (CompositeProblem, IdentityOp, L1Norm,
                               NonnegIndicator, SmoothOracle,
                               StructuredConvexTerm, ZeroFunction,
                               adjoint_residual, check_gradient, eval_f,
                               power_iteration_sq_norm)
from inertiafb.prox_engine import solve_inexact_prox
from tests.conftest import (MatrixOp, quadratic_l1_problem,
                            smooth_only_problem, xi_term)


def brute_force_conjugate_prox_1d(fn, v, sigma, steps=20001):
    """Grid minimizer of ``sigma g*(z) + (z - v)^2 / 2`` for a 1-D ``fn``;
    the grid spans twice the box, where ``g*`` is ``+inf``."""
    grid = np.linspace(-2.0 * fn.weight, 2.0 * fn.weight, steps)
    vals = np.array([sigma * fn.conjugate(np.array([z])) + 0.5 * (z - v) ** 2
                     for z in grid])
    return grid[np.argmin(vals)]


def _conjugate_prox_objective(fn, z, v, sigma):
    return sigma * fn.conjugate(z) + 0.5 * float(np.dot(z - v, z - v))


class TestEvalF:
    def test_hand_example(self):
        n = 2
        f0 = SmoothOracle(lambda x: 0.5 * float(np.dot(x, x)), lambda x: x)
        f1 = StructuredConvexTerm(IdentityOp(n), L1Norm(1.0), ZeroFunction(),
                                  op_norm_sq_bound=1.0)
        p = CompositeProblem(f0, f1)
        assert eval_f(p, np.array([1.0, -2.0])) == pytest.approx(5.5)

    def test_indicator_outside_domain(self):
        f0 = SmoothOracle(lambda x: 0.0, lambda x: np.zeros_like(x))
        f1 = xi_term(NonnegIndicator(), 1)
        p = CompositeProblem(f0, f1)
        assert eval_f(p, np.array([-1.0])) == np.inf
        assert eval_f(p, np.array([2.0])) == 0.0

    def test_zero_case(self):
        p, _, _ = quadratic_l1_problem(n=3)
        z = np.zeros(3)
        assert np.isfinite(eval_f(p, z))

    def test_dimension_mismatch_is_hard_error(self):
        p, _, _ = quadratic_l1_problem(n=3)
        with pytest.raises(ValueError):
            eval_f(p, np.zeros(4))


class TestProxFunctions:
    @pytest.mark.parametrize("shift", [None, 2.0, -0.4])
    @pytest.mark.parametrize("v,sigma", [(2.0, 1.0), (-0.7, 0.3), (0.1, 2.0),
                                         (4.0, 0.5)])
    def test_l1_conjugate_prox_against_brute_force(self, v, sigma, shift):
        fn = L1Norm(1.3, shift=None if shift is None else np.array([shift]))
        got = fn.conjugate_prox(np.array([v]), sigma)[0]
        ref = brute_force_conjugate_prox_1d(fn, v, sigma)
        assert got == pytest.approx(ref, abs=3e-4)

    def test_nonneg_prox_clamps(self):
        fn = NonnegIndicator()
        np.testing.assert_allclose(fn.prox(np.array([-1.0, 2.0]), 1.0),
                                   [0.0, 2.0])

    def test_nonneg_value_exact(self):
        fn = NonnegIndicator()
        assert fn.value(np.array([0.0, 1.0])) == 0.0
        assert fn.value(np.array([-1e-300])) == np.inf

    def test_l1_conjugate_box(self):
        fn = L1Norm(0.5)
        assert fn.conjugate(np.array([0.5, -0.5])) == 0.0
        assert fn.conjugate(np.array([0.6])) == np.inf

    def test_l1_conjugate_with_shift_is_linear(self):
        g0 = np.array([3.0, -1.0])
        fn = L1Norm(1.0, shift=g0)
        w = np.array([0.5, -1.0])
        assert fn.conjugate(w) == pytest.approx(float(w @ g0))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(0.01, 10.0), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_conjugate_prox_nonexpansive(self, u, v, sigma, shifted):
        m = min(len(u), len(v))
        u, v = np.array(u[:m]), np.array(v[:m])
        shift = np.linspace(-3.0, 3.0, m) if shifted else None
        fn = L1Norm(1.0, shift=shift)
        pu, pv = fn.conjugate_prox(u, sigma), fn.conjugate_prox(v, sigma)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12

    @given(st.floats(-5, 5), st.floats(0.05, 5.0), st.floats(-1.0, 1.0),
           st.sampled_from([None, -2.5, 0.0, 3.0]))
    @settings(max_examples=50, deadline=None)
    def test_conjugate_prox_minimizes_its_objective(self, v, sigma, z,
                                                     shift):
        # no point z of the box does better than the prox
        fn = L1Norm(1.0, shift=None if shift is None else np.array([shift]))
        vv = np.array([v])
        p = fn.conjugate_prox(vv, sigma)
        lhs = _conjugate_prox_objective(fn, p, vv, sigma)
        assert lhs <= _conjugate_prox_objective(fn, np.array([z]), vv,
                                                sigma) + 1e-12

    @pytest.mark.parametrize("weight", [0.0, -1.0, np.inf, np.nan])
    def test_l1_rejects_non_positive_or_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="positive and finite"):
            L1Norm(weight)


class TestLinearOps:
    def test_matrix_adjoint(self):
        rng = np.random.default_rng(0)
        op = MatrixOp(rng.standard_normal((7, 4)))
        assert adjoint_residual(op, rng) < 1e-12

    def test_identity_adjoint(self):
        rng = np.random.default_rng(1)
        assert adjoint_residual(IdentityOp(9), rng) < 1e-15

    def test_power_iteration_matches_eig(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6))
        op = MatrixOp(a)
        lam = power_iteration_sq_norm(op, iters=500)
        ref = float(np.linalg.norm(a, 2) ** 2)
        assert lam == pytest.approx(ref, rel=1e-6)

    def test_default_norm_bound_is_valid(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 8))
        term = StructuredConvexTerm(MatrixOp(a), L1Norm(1.0), ZeroFunction())
        assert term.op_norm_sq_bound >= float(np.linalg.norm(a, 2) ** 2)


class TestStructuredTerm:
    def test_value_sums_stacked_terms(self):
        # 2||a x||_1 + ||x||_1 as one stacked term: M = [2a; I], g = ||.||_1
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 5))
        term = StructuredConvexTerm(
            MatrixOp(np.vstack([2.0 * a, np.eye(5)])), L1Norm(1.0),
            NonnegIndicator())
        x = np.abs(rng.standard_normal(5))
        expected = 2.0 * np.sum(np.abs(a @ x)) + np.sum(np.abs(x))
        assert term.value(x) == pytest.approx(expected)
        assert term.value(-x) == np.inf

    def test_zero_g_term_is_xi(self):
        term = xi_term(NonnegIndicator(), 3)
        assert term.op.out_dim == 3 and term.op_norm_sq_bound == 1.0
        x = np.array([1.0, 0.0, 2.0])
        assert term.value(x) == NonnegIndicator().value(x) == 0.0
        assert term.value(-x) == np.inf

    @pytest.mark.parametrize("bound", [0.0, -1.0, np.inf, np.nan])
    def test_bad_op_norm_sq_bound_is_rejected(self, bound):
        # the dual step 1/(alpha bound) needs a positive, finite bound
        with pytest.raises(ValueError, match="op_norm_sq_bound"):
            StructuredConvexTerm(IdentityOp(3), L1Norm(1.0), ZeroFunction(),
                                 op_norm_sq_bound=bound)

    def test_zero_operator_estimate_is_rejected(self):
        # power iteration on M = 0 estimates ||M||^2 = 0
        with pytest.raises(ValueError, match="op_norm_sq_bound"):
            StructuredConvexTerm(MatrixOp(np.zeros((2, 3))), L1Norm(1.0),
                                 ZeroFunction())

    def test_sizes_are_the_operators(self):
        # a problem size of 7 against IdentityOp(5) used to build, read
        # f = 10.5 and only fail in a solver's broadcast; the size is now
        # the operator's
        f0 = SmoothOracle(lambda x: 0.5 * float(np.dot(x, x)), lambda x: x)
        term = StructuredConvexTerm(IdentityOp(5), L1Norm(1.0), ZeroFunction(),
                                    op_norm_sq_bound=1.0)
        assert CompositeProblem(f0, term).n == 5


class TestCheckGradient:
    def test_quadratic_exact(self):
        p = smooth_only_problem(n=6)
        rng = np.random.default_rng(6)
        rep = check_gradient(p, rng.standard_normal(6))
        assert rep.max_rel_error < 1e-8
        assert rep.probed == 6

    def test_detects_wrong_gradient(self):
        f0 = SmoothOracle(lambda x: 0.5 * float(np.dot(x, x)),
                          lambda x: 2.0 * x)
        f1 = xi_term(ZeroFunction(), 3)
        p = CompositeProblem(f0, f1)
        rep = check_gradient(p, np.array([1.0, 2.0, 3.0]))
        assert rep.max_rel_error > 1e-2


def _held_arrays(root):
    """Every ndarray that ``root`` reaches through function closures,
    bound methods, containers and the attributes of package objects."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
        elif type(obj).__module__.startswith("inertiafb."):
            stack.extend(vars(obj).values())
    return found


class TestSmoothOracle:
    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_grad_shares_no_memory(self, problem):
        # grad hands grad_fn's array on uncopied: each call's array must be
        # fresh, apart from x, the forward result, the other call's array
        # and every workspace the oracle keeps
        cfg = dict(DEFAULTS, problem=problem, size="16", n="40")
        p, x0, _ = build_problem(cfg)
        x = x0 + 1.0
        fwd = p.f0.forward(x)
        held = _held_arrays(p.f0)
        if problem != "synthetic-quadratic-l1":
            assert sum(a.size for a in held) > 3 * x.size
        g1, g2 = p.f0.grad(x), p.f0.grad(x, fwd)
        np.testing.assert_array_equal(g1, g2)
        for g in (g1, g2):
            assert g.dtype == np.float64 and g.shape == x.shape
            others = [x, g2 if g is g1 else g1, *held]
            if fwd is not None:
                others.append(fwd)
            assert not any(np.shares_memory(g, a) for a in others)

    def test_without_forward_value_and_grad_read_x(self):
        f0 = SmoothOracle(lambda x: float(x @ x), lambda x: 2.0 * x)
        x = np.array([1.0, -2.0])
        assert f0.forward(x) is None
        assert f0.value(x, f0.forward(x)) == f0.value(x) == 5.0
        np.testing.assert_array_equal(f0.grad(x, None), [2.0, -4.0])

    def test_given_forward_is_used_instead_of_a_new_pass(self):
        passes = []

        def forward(x):
            passes.append(1)
            return 3.0 * x

        f0 = SmoothOracle(lambda u: float(u @ u), lambda u: 3.0 * u, forward)
        x = np.array([1.0, 2.0])
        assert f0.value(x) == 45.0 and len(passes) == 1
        fwd = f0.forward(x)
        assert f0.value(x, fwd) == 45.0
        np.testing.assert_array_equal(f0.grad(x, fwd), [9.0, 18.0])
        assert len(passes) == 2
        # a forward result is what value and grad read, whatever x is
        assert f0.value(np.zeros(2), fwd) == 45.0


def _counted(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestOneEvaluationPerPoint:
    """The solvers evaluate f0, grad f0, f1 and M^T once per point, and take
    one forward pass of f0 per point.

    Counting wrappers sit on ``f0.forward``, ``f0.value``, ``f0.grad``,
    ``f1.value`` and the block operator's ``rmatvec`` of a 16x16 impulse-l1
    problem; every prox call checks its own counts and compares the values
    it was handed and returned with fresh evaluations on a second, uncounted
    instance of the same problem.
    """

    @pytest.mark.parametrize("tau", ["1e6", "1.0"])
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_counts_and_carried_values(self, monkeypatch, solver, tau):
        self._run_counted(monkeypatch, solver, tau)

    def test_linesearch_point_carries_its_own_forward(self, monkeypatch):
        # iPila's line-search branch is rare and its lambda < 1 points
        # rarer; with a long step this run accepts both the unit trial y
        # and a backtracked point mid-run
        rows = self._run_counted(monkeypatch, "ipila-strict", "1e6",
                                 problem="gaussian-sd-tv", alpha_max="3")
        lams = {r["lambda_k"] for r in rows[:-1]
                if r["accepted_branch"] == "linesearch"}
        assert 1.0 in lams
        assert min(lams) < 1.0

    @staticmethod
    def _run_counted(monkeypatch, solver, tau, problem="impulse-l1",
                     **overrides):
        cfg = dict(DEFAULTS, problem=problem, size="16", tau=tau,
                   solver=solver, max_outer="15", **overrides)
        p, x0, _ = build_problem(cfg)
        q, _, _ = build_problem(cfg)
        op = p.f1.op
        fresh = dict(f0=q.f0.value, grad=q.f0.grad, f1=q.f1.value,
                     rmatvec=q.f1.op.rmatvec)
        counts = collections.Counter()
        p.f0.forward = _counted(counts, "forward", p.f0.forward)
        p.f0.value = _counted(counts, "f0", p.f0.value)
        counted_grad = _counted(counts, "grad", p.f0.grad)

        def grad(x, fwd=None):
            # the carried forward pass is at hand, equals a fresh one bit
            # for bit, and grad takes no pass of its own
            assert fwd is not None
            np.testing.assert_array_equal(fwd, q.f0.forward(x))
            before = counts["forward"]
            g = counted_grad(x, fwd)
            assert counts["forward"] == before
            return g

        p.f0.grad = grad
        p.f1.value = _counted(counts, "f1", p.f1.value)
        # op is impulse-l1's H, which later builds share: monkeypatch
        # restores it
        monkeypatch.setattr(op, "rmatvec",
                            _counted(counts, "rmatvec", op.rmatvec))
        monkeypatch.setattr(ipila, "eval_f",
                            _counted(counts, "eval_f", ipila.eval_f))

        cold_calls = []

        def engine(problem, query, warm_start=None, warm_mtw=None):
            before = counts.copy()
            res = solve_inexact_prox(problem, query, warm_start=warm_start,
                                     warm_mtw=warm_mtw)
            cold = warm_start is None
            cold_calls.append(cold)
            assert counts["f1"] - before["f1"] == 1 + res.inner_iters
            assert counts["rmatvec"] - before["rmatvec"] \
                == res.inner_iters + cold
            assert counts["f0"] == before["f0"]
            assert counts["grad"] == before["grad"]
            assert query.f0_x == fresh["f0"](query.x)
            assert query.f1_x == fresh["f1"](query.x)
            np.testing.assert_array_equal(query.grad_x, fresh["grad"](query.x))
            assert res.f1_y == fresh["f1"](res.y_tilde)
            np.testing.assert_array_equal(res.mtw_tilde,
                                          fresh["rmatvec"](res.w_tilde))
            return res

        for mod in (i2piano, iista):
            monkeypatch.setattr(mod, "solve_inexact_prox", engine)
        monkeypatch.setattr(ipila, "ipila_step",
                            functools.partial(ipila.ipila_step, engine=engine))
        tr = run_solver(p, x0, cfg)

        rows = tr.rows
        backtracks = sum(r["backtracks"] for r in rows)
        if tau == "1.0":  # the per-inner-iteration counts are exercised
            assert sum(r["inner_iters"] for r in rows) > 0
        assert counts["grad"] == len(rows)
        # the initial state evaluates f0 twice: once in eval_f for f(x0)
        # and once for the carried f0(x0)
        if solver.startswith("ipila"):
            stationary = sum(r["accepted_branch"] == "stationary"
                             for r in rows)
            # eval_f counts the initial state only: the Armijo search
            # evaluates each lambda < 1 trial itself and hands back the
            # values of the point it accepts; the unit trial is y
            assert counts["eval_f"] == 1
            # one f0 at y per moving step, one per lambda < 1 trial, and
            # none again at an accepted line-search point
            assert counts["f0"] == 2 + len(rows) - stationary + backtracks
            assert len(cold_calls) == len(rows)
            first_calls = 1
        else:
            assert counts["f0"] == 2 + len(rows) + backtracks
            assert len(cold_calls) == len(rows) + backtracks
            first_calls = 1 + rows[0]["backtracks"]
        assert cold_calls == [True] * first_calls \
            + [False] * (len(cold_calls) - first_calls)
        # one forward pass per f0 evaluation: per trial point, plus eval_f's
        # and the carried one at the initial point
        assert counts["forward"] == counts["f0"]
        x = tr.x_final
        assert tr.rows[-1]["f"] == fresh["f0"](x) + fresh["f1"](x)
        return rows
