import dataclasses
import math

import numpy as np
import pytest

from inertiafb.i2piano import I2PianoConfig, i2piano_solve
from inertiafb.iista import IistaConfig, iista_solve
from inertiafb.ipila import IPilaConfig, ipila_solve
from inertiafb.trace import CSV_COLUMNS, Trace, csv_equal_ignoring_time
from tests.conftest import quadratic_l1_problem


def small_trace():
    t = Trace(meta={"solver": "iista", "tau": 1e6, "note": "smoke",
                    "L0": 1.0, "phi_init": 3.5})
    rng = np.random.default_rng(0)
    for k in range(5):
        t.append(k=k, time_s=0.01 * k, f=3.5 - k, phi=3.5 - k,
                 h=-rng.uniform(), delta_k=float("nan"), d_k=rng.uniform(),
                 alpha_k=0.5, beta_k=0.0, L_or_gamma=2.0,
                 lambda_k=float("nan"), inner_iters=k + 1, backtracks=0,
                 psi=-1.0, x_step_norm=rng.uniform(),
                 y_step_norm=0.1, s_step_norm=0.2, prox_branch="gap",
                 accepted_branch="")
    return t


class TestRoundTrip:
    def test_rows_and_meta_survive(self, tmp_path):
        t = small_trace()
        path = tmp_path / "trace.csv"
        t.write_csv(path)
        back = Trace.read_csv(path)
        assert len(back) == len(t)
        assert back.meta["solver"] == "iista"
        assert back.meta["tau"] == 1e6
        assert back.meta["note"] == "smoke"
        assert back.meta["phi_init"] == 3.5
        for a, b in zip(t.rows, back.rows):
            for col in CSV_COLUMNS:
                va, vb = a[col], b[col]
                if isinstance(va, float) and math.isnan(va):
                    assert math.isnan(vb)
                else:
                    assert va == vb, col

    def test_float_serialization_is_exact(self, tmp_path):
        t = Trace()
        val = 1.0 / 3.0 + 1e-17
        t.append(time_s=0.0, f=val, phi=val, h=0.0, delta_k=0.0, d_k=0.0,
                 alpha_k=val, beta_k=0.0, L_or_gamma=1.0, lambda_k=1.0,
                 inner_iters=0, backtracks=0, psi=0.0, x_step_norm=0.0,
                 y_step_norm=0.0, s_step_norm=0.0, prox_branch="abs",
                 accepted_branch="inertial")
        path = tmp_path / "t.csv"
        t.write_csv(path)
        assert Trace.read_csv(path).rows[0]["f"] == val

    def test_every_row_column_serialized(self, tmp_path):
        t = small_trace()
        path = tmp_path / "trace.csv"
        t.write_csv(path)
        header = [l for l in path.read_text().splitlines()
                  if not l.startswith("#")][0]
        assert header.split(",") == CSV_COLUMNS
        assert set(t.rows[0]) == set(CSV_COLUMNS)
        row = Trace.read_csv(path).rows[0]
        assert set(row) == set(CSV_COLUMNS)
        # the branch columns are text, the empty string included
        assert row["prox_branch"] == "gap"
        assert row["accepted_branch"] == ""

    def test_int_columns_read_as_int(self, tmp_path):
        t = small_trace()
        path = tmp_path / "trace.csv"
        t.write_csv(path)
        row = Trace.read_csv(path).rows[2]
        assert isinstance(row["k"], int)
        assert isinstance(row["inner_iters"], int)
        assert row["inner_iters"] == 3


# every setting off its default, so that a value read back from its own key
# cannot be a default
SHARED = dict(tau=2.0, L0=0.5, eta=2.0, max_outer=7, stop_tol=1e-30,
              max_inner=1500)
SOLVES = {
    "i2piano": (i2piano_solve, I2PianoConfig(
        **SHARED, delta=0.25, gamma=2e-5, omega=0.9)),
    "ipila-strict": (ipila_solve, IPilaConfig(
        **SHARED, sigma=1e-3, ls_shrink=0.6, alpha_max=0.8, beta_max=0.4,
        gamma=2e-5, max_halvings=40, variant="strict-alg3", delta=0.25)),
    "ipila-practical": (ipila_solve, IPilaConfig(
        **SHARED, sigma=1e-3, ls_shrink=0.6, alpha_max=0.8, beta_max=0.4,
        gamma=2e-5, max_halvings=40, delta=0.25)),
    "iista": (iista_solve, IistaConfig(**SHARED)),
}


class TestSolverHeader:
    @pytest.mark.parametrize("solver", sorted(SOLVES))
    def test_header_is_the_config_under_its_own_names(self, tmp_path,
                                                       solver):
        solve, cfg = SOLVES[solver]
        p, _, _ = quadratic_l1_problem(n=20, seed=2)
        trace = solve(p, np.ones(20), cfg)
        trace.write_csv(tmp_path / "trace.csv")
        meta = Trace.read_csv(tmp_path / "trace.csv").meta
        fields = dataclasses.asdict(cfg)
        assert meta.keys() == {"solver", *fields, "f_init", "phi_init",
                               "f_final", "stop_reason"}
        run = ("f_init", "phi_init", "f_final", "stop_reason")
        assert meta == {"solver": solver, **fields,
                        **{key: trace.meta[key] for key in run}}
        assert meta["f_final"] == trace.rows[-1]["f"]


class TestRelGap:
    def test_column_appended_when_f_star_given(self, tmp_path):
        t = small_trace()
        path = tmp_path / "trace.csv"
        t.write_csv(path, f_star=0.5)
        back = Trace.read_csv(path)
        for orig, row in zip(t.rows, back.rows):
            assert row["rel_gap"] == pytest.approx(
                (orig["f"] - 0.5) / 0.5, rel=1e-15)

    def test_negative_f_star_keeps_the_sign_of_the_gap(self, tmp_path):
        # f = 3.5 - k above f_star = -2: every gap is positive, f - f_star
        # over |f_star|
        t = small_trace()
        path = tmp_path / "trace.csv"
        t.write_csv(path, f_star=-2.0)
        back = Trace.read_csv(path)
        gaps = [row["rel_gap"] for row in back.rows]
        assert gaps == pytest.approx([2.75, 2.25, 1.75, 1.25, 0.75],
                                     rel=1e-15)

    def test_column_absent_by_default(self, tmp_path):
        t = small_trace()
        path = tmp_path / "trace.csv"
        t.write_csv(path)
        assert "rel_gap" not in path.read_text()


class TestHelpers:
    def test_append_autonumbers(self):
        t = Trace()
        t.append(f=1.0)
        t.append(f=2.0)
        assert [r["k"] for r in t.rows] == [0, 1]

    def test_column_missing_from_the_rows_raises(self):
        # used to return [nan]; every solver row holds every column
        t = Trace()
        t.append(f=1.0)
        with pytest.raises(KeyError):
            t.column("lambda_k")
        assert t.column("f") == [1.0]

    @pytest.mark.parametrize("edit,words", [
        (lambda ls: ls[:-1] + [ls[-1].rsplit(",", 1)[0]], "header has 19"),
        (lambda ls: ls[:-1] + [ls[-1].replace(",", ",x", 1)], "bad time_s"),
        (lambda ls: [ls[0].replace("psi,", "")] + ls[1:], "lacks psi"),
    ], ids=["short_row", "bad_number", "missing_column"])
    def test_malformed_file_names_its_line(self, tmp_path, edit, words):
        path = tmp_path / "trace.csv"
        small_trace().write_csv(path)
        lines = path.read_text().splitlines()
        meta = [line for line in lines if line.startswith("#")]
        table = edit(lines[len(meta):])
        path.write_text("\n".join(meta + table) + "\n")
        with pytest.raises(ValueError, match=words):
            Trace.read_csv(path)

    def test_x_final_not_serialized(self, tmp_path):
        t = small_trace()
        t.x_final = np.ones(3)
        path = tmp_path / "trace.csv"
        t.write_csv(path)
        assert Trace.read_csv(path).x_final is None


class TestCsvEqualIgnoringTime:
    def test_equal_up_to_timing(self, tmp_path):
        a, b = small_trace(), small_trace()
        for row in b.rows:
            row["time_s"] += 17.0
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_csv(pa)
        b.write_csv(pb)
        assert csv_equal_ignoring_time(pa, pb)

    def test_detects_value_difference(self, tmp_path):
        a, b = small_trace(), small_trace()
        b.rows[3]["f"] += 1e-12
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_csv(pa)
        b.write_csv(pb)
        assert not csv_equal_ignoring_time(pa, pb)
