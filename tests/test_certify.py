import math

import numpy as np
import pytest

from inertiafb import certify
from inertiafb.certify import CertReport, check, h4_constants, summarize
from inertiafb.i2piano import I2PianoConfig, i2piano_solve
from inertiafb.iista import IistaConfig, iista_solve
from inertiafb.ipila import IPilaConfig, ipila_solve
from inertiafb.problem import SolverError
from inertiafb.prox_engine import theta_from_tau
from inertiafb.trace import Trace
from tests.conftest import quadratic_l1_problem


@pytest.fixture(scope="module")
def traces():
    p, _, _ = quadratic_l1_problem(n=25, seed=1)
    x0 = np.zeros(25)
    return {
        "i2piano": i2piano_solve(p, x0, I2PianoConfig(max_outer=60)),
        "ipila": ipila_solve(p, x0, cfg=IPilaConfig(max_outer=60)),
        # strict always line-searches; some of its rows step short of y
        "ipila-strict": ipila_solve(
            p, x0, cfg=IPilaConfig(max_outer=60, variant="strict-alg3")),
        # conservative L0 keeps the baseline from converging in two steps,
        # so the trace has enough rows to corrupt
        "iista": iista_solve(p, x0, IistaConfig(max_outer=60, L0=50.0)),
    }


class TestHonestTracesPass:
    @pytest.mark.parametrize("name", ["i2piano", "ipila", "iista"])
    def test_summarize_overall_pass(self, traces, name):
        report = summarize(traces[name])
        assert report.ok, report.format()

    def test_pass_survives_csv_round_trip(self, traces, tmp_path):
        strict = traces["ipila-strict"].rows
        assert any(r["accepted_branch"] == "linesearch"
                   and r["x_step_norm"] != r["y_step_norm"] for r in strict)
        for name, trace in traces.items():
            path = tmp_path / f"{name}.csv"
            trace.write_csv(path)
            in_memory, from_csv = summarize(trace), summarize(
                Trace.read_csv(path))
            assert from_csv.ok, name
            assert from_csv.checks == in_memory.checks, name
            np.testing.assert_equal(from_csv.summary, in_memory.summary)

    def test_summary_statistics_arithmetic(self, traces):
        t = traces["iista"]
        report = summarize(t)
        s = report.summary
        assert s["rows"] == len(t)
        assert s["f_final"] == t.rows[-1]["f"]
        assert s["sum_d_k"] == pytest.approx(sum(t.column("d_k")))
        assert s["total_inner_iters"] == sum(t.column("inner_iters"))
        assert math.isnan(s["min_lambda_k"])  # no line search in baseline


class TestCorruptionDetected:
    def _copy(self, trace):
        t = Trace(meta=dict(trace.meta))
        t.rows = [dict(r) for r in trace.rows]
        return t

    def test_H1_flags_merit_increase_at_row(self, traces):
        t = self._copy(traces["i2piano"])
        t.rows[7]["phi"] += 1.0
        res = check(t, "H1")
        assert res.status == "fail"
        assert res.worst_k == 7

    def test_H4_flags_overlong_step(self, traces):
        t = self._copy(traces["i2piano"])
        t.rows[4]["x_step_norm"] *= 1e6
        res = check(t, "H4")
        assert res.status == "fail"
        assert res.worst_k == 4

    def test_prox_flags_distance_violation(self, traces):
        t = self._copy(traces["ipila"])
        t.rows[3]["h"] = -1e-12
        t.rows[3]["x_step_norm"] = 10.0
        res = check(t, "prox")
        assert res.status == "fail"
        assert res.worst_k == t.rows[3]["k"]

    def test_duality_gap_flags_psi_above_h(self, traces):
        t = self._copy(traces["iista"])
        t.rows[5]["psi"] = t.rows[5]["h"] + 1.0
        res = check(t, "duality-gap")
        assert res.status == "fail"
        assert res.worst_k == 5

    def test_param_identities_flag_wrong_alpha(self, traces):
        for name in ("i2piano", "ipila", "iista"):
            t = self._copy(traces[name])
            t.rows[2]["alpha_k"] *= 1.5
            assert check(t, "param-identities").status == "fail", name

    @pytest.mark.parametrize("check_name,name,key", [
        ("prox", "ipila", "psi"),
        ("param-identities", "i2piano", "alpha_k"),
        ("param-identities", "ipila", "beta_k"),
        ("param-identities", "ipila-strict", "beta_k"),
        ("param-identities", "iista", "beta_k"),
    ])
    def test_nan_in_any_residual_of_a_row_fails(self, traces, check_name,
                                                name, key):
        # a NaN that is not the first of a row's residuals used to vanish
        # in the row's max(), and a NaN worst residual passed
        t = self._copy(traces[name])
        t.rows[3][key] = math.nan
        res = check(t, check_name)
        assert res.status == "fail"
        assert res.worst_k == t.rows[3]["k"]
        assert math.isnan(res.worst_residual)

    def test_armijo_flags_nonpositive_lambda(self, traces):
        t = self._copy(traces["ipila"])
        t.rows[6]["lambda_k"] = 0.0
        res = check(t, "armijo")
        assert res.status == "fail"
        assert res.worst_k == t.rows[6]["k"]
        assert math.isnan(res.worst_residual)

    def test_ipila_H1_reads_the_rows_own_lambda(self, traces):
        # a row at lambda_k = 1 whose merit falls only by sigma times the
        # trace's smallest lambda_k, which the check used to read
        t = self._copy(traces["ipila-strict"])
        lam_min = min(t.column("lambda_k"))
        assert lam_min < 1.0
        i = next(i for i, r in enumerate(t.rows) if i and r["lambda_k"] == 1)
        d = t.rows[i]["d_k"]
        t.rows[i]["phi"] = (t.rows[i - 1]["phi"]
                            - float(t.meta["sigma"]) * lam_min * d * d)
        res = check(t, "H1")
        assert res.status == "fail"
        assert res.worst_k == t.rows[i]["k"]

    def test_armijo_flags_insufficient_decrease(self, traces):
        t = self._copy(traces["ipila"])
        t.rows[6]["phi"] = t.rows[5]["phi"] + 1.0
        assert check(t, "armijo").status == "fail"

    @pytest.mark.parametrize("name", ["i2piano", "ipila", "ipila-strict",
                                      "iista"])
    def test_merit_flags_f_above_phi(self, traces, name):
        # no check used to read f: a last row's f of 1e300 passed
        t = self._copy(traces[name])
        t.rows[-1]["f"] = 1e300
        res = summarize(t).checks["merit"]
        assert res.status == "fail"
        assert res.worst_k == t.rows[-1]["k"]

    def test_merit_is_f_itself_for_iista_only(self, traces):
        # one ulp of f below phi breaks iISTA's phi == f, while i2Piano's
        # and iPila's merit terms are positive on some rows
        for name in ("i2piano", "ipila", "iista"):
            t = self._copy(traces[name])
            t.rows[4]["f"] = math.nextafter(t.rows[4]["phi"], -math.inf)
            res = summarize(t).checks["merit"]
            assert res.ok == (name != "iista"), name
        assert any(r["phi"] > r["f"] for r in traces["i2piano"].rows)
        assert any(r["phi"] > r["f"] for r in traces["ipila"].rows)
        assert all(r["phi"] == r["f"] for r in traces["iista"].rows)


class TestRunChecksEachRow:
    def test_run_and_summarize_call_the_same_row_functions(self, traces,
                                                           monkeypatch):
        real = certify.ROW_CHECKS["H1"]

        def failing_at_2(meta, prev, row):
            return [(k, 1.0 if k == 2 else r)
                    for k, r in real(meta, prev, row)]

        monkeypatch.setitem(certify.ROW_CHECKS, "H1", failing_at_2)
        res = summarize(traces["iista"]).checks["H1"]
        assert (res.status, res.worst_k, res.worst_residual) == ("fail", 2,
                                                                  1.0)
        p, _, _ = quadratic_l1_problem(n=25, seed=1)
        with pytest.raises(SolverError, match=r"^certificate failed: H1 at "
                           r"k=2 \(residual 1\.000e\+00\)$"):
            iista_solve(p, np.zeros(25), IistaConfig(max_outer=60, L0=50.0))


class TestEdgeCases:
    def test_empty_trace_is_hard_error(self):
        with pytest.raises(ValueError):
            summarize(Trace())
        with pytest.raises(ValueError):
            check(Trace(), "H1")

    def test_header_lacking_f_init_is_a_bad_trace(self, traces):
        # a header without a value a check reads is a bad trace, not a
        # third verdict
        t = Trace(meta={"solver": "i2piano"})
        t.rows = [dict(r) for r in traces["i2piano"].rows]
        with pytest.raises(ValueError, match="header lacks f_init"):
            check(t, "H1")
        with pytest.raises(ValueError, match="header lacks f_init"):
            summarize(t)

    def test_armijo_not_applicable_to_backtracking_solver(self, traces):
        # summarize runs armijo on iPila traces only
        for name in ("i2piano", "iista"):
            with pytest.raises(ValueError, match="iPila"):
                check(traces[name], "armijo")
            assert "armijo" not in summarize(traces[name]).checks, name
        for name in ("ipila", "ipila-strict"):
            assert summarize(traces[name]).checks["armijo"].ok, name

    @pytest.mark.parametrize("solver", [None, "", "ipila", "fista"])
    def test_header_must_name_a_known_solver(self, traces, solver):
        # a trace without the solver's name used to be judged by iISTA's
        # rules, which failed an honest i2Piano or iPila run
        t = Trace(meta=dict(traces["ipila"].meta))
        t.rows = [dict(r) for r in traces["ipila"].rows]
        if solver is None:
            del t.meta["solver"]
        else:
            t.meta["solver"] = solver
        with pytest.raises(ValueError, match="solver"):
            summarize(t)

    def test_every_verdict_is_pass_or_fail(self, traces):
        for name, trace in traces.items():
            for result in summarize(trace).checks.values():
                assert result.status in ("pass", "fail"), (name, result)

    def test_h4_constants_per_solver(self, traces):
        t = traces["i2piano"]
        p, shift = h4_constants(certify.header(t.meta), t.rows[3])
        gamma = float(t.meta["gamma"])
        assert p == pytest.approx(1.0 / math.sqrt(gamma))
        assert shift == 1
        t = traces["iista"]
        assert h4_constants(certify.header(t.meta), t.rows[3]) == (1.0, 0)
        # iPila's p reads the row's own alpha_k
        t = traces["ipila"]
        p, shift = h4_constants(certify.header(t.meta), t.rows[3])
        assert p == math.sqrt(2.0 * t.rows[3]["alpha_k"]
                              / theta_from_tau(t.meta["tau"]))
        assert shift == 0


class TestReportFormat:
    def test_key_value_lines_and_overall(self, traces):
        report = summarize(traces["ipila"])
        text = report.format()
        assert text.endswith("overall=pass\n")
        for name in ("H1", "H4", "prox", "duality-gap", "param-identities",
                     "armijo", "merit"):
            assert f"{name}.status=" in text
        assert "summary.rows=" in text
        for line in text.strip().splitlines():
            assert "=" in line

    def test_overall_fail_when_any_check_fails(self, traces):
        t = Trace(meta=dict(traces["iista"].meta))
        t.rows = [dict(r) for r in traces["iista"].rows]
        t.rows[0]["phi"] += 5.0
        report = summarize(t)
        assert not report.ok
        assert report.format().endswith("overall=fail\n")

    def test_empty_report_is_ok(self):
        assert CertReport().ok
