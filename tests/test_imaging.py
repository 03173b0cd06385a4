import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from inertiafb import imaging, problem
from inertiafb.cli import DEFAULTS, build_problem
from inertiafb.problem import (CompositeProblem, IdentityOp, L1Norm,
                               StructuredConvexTerm, ZeroFunction,
                               adjoint_residual, check_gradient,
                               power_iteration_sq_norm)
from tests.conftest import MatrixOp, MirrorConv2D, fold2d_reference, xi_term


# Reference formulas the imaging layer must reproduce bit for bit: the
# log-filter columns as a gather by precomputed indices, and the phantom and
# the DCT filters as they were first written.

def _factors(rng, kshape):
    # random unequal factors of a kh x kw kernel
    return rng.standard_normal(kshape[0]), rng.standard_normal(kshape[1])


def _log_filter_forward_reference(shape, x):
    h, w = shape
    kmat, _ = _filters_and_weights()
    idx = np.pad(np.arange(h * w).reshape(h, w), 1, mode="reflect")
    idx = sliding_window_view(idx, (h, w)).reshape(9, h * w)
    return kmat @ np.take(x, idx)


def _phantom_reference(size, peak):
    # the test image on two meshgrid coordinate arrays
    i, j = np.meshgrid(np.linspace(-1, 1, size), np.linspace(-1, 1, size),
                       indexing="ij")
    img = 0.25 + 0.45 * np.exp(-((i + 0.3) ** 2 + (j + 0.3) ** 2) / 0.08)
    img += 0.35 * ((np.abs(i - 0.35) < 0.3) & (np.abs(j - 0.25) < 0.35))
    img += 0.15 * ((i ** 2 + (j - 0.45) ** 2) < 0.04)
    return np.clip(img, 0.0, 1.0) * peak


def _dct_filters_reference():
    # one np.outer of two 1-D DCT-II basis rows per (p, q) != (0, 0)
    def basis(p):
        c = np.sqrt(1.0 / 3.0) if p == 0 else np.sqrt(2.0 / 3.0)
        return c * np.cos(np.pi * (2.0 * np.arange(3) + 1.0) * p / 6.0)

    return [(np.outer(basis(p), basis(q)), 1.0 / 8.0)
            for p in range(3) for q in range(3) if (p, q) != (0, 0)]


DCT_FILTERS = _dct_filters_reference()
RHO = 0.08  # the log-filter regularizer's rho in these tests


def _signed_zero_samples(rng, n):
    # random data with -0.0 and +0.0 sprinkled in, and an all -0.0 vector
    y = rng.standard_normal(n)
    y[::7] = -0.0
    y[3::11] = 0.0
    return [y, np.full(n, -0.0)]


# (image shape, kernel shape) beyond one 64-wide tile: two tiles of rows
# and of columns with short last ones, a last row tile of one row, and a
# kernel as large as the image
TILE_CASES = [((130, 70), (5, 3)), ((65, 64), (5, 5)), ((5, 5), (5, 5))]


class TestConvOperator:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        img = rng.standard_normal((6, 7))
        op = imaging.ConvOperator([1.0], [1.0], img.shape)
        np.testing.assert_allclose(op.matvec(img.ravel()), img.ravel())

    def test_constant_image_preserved_by_normalized_kernel(self):
        g = imaging.gaussian_kernel(5, 1.0)
        op = imaging.ConvOperator(g, g, (10, 10))
        out = op.matvec(np.full(100, 3.7))
        np.testing.assert_allclose(out, 3.7, atol=1e-12)

    def test_matches_explicit_mirror_padding(self):
        # independent construction: whole-sample reflect pad + valid correlation
        rng = np.random.default_rng(1)
        img = rng.standard_normal((9, 12))
        col, row = _factors(rng, (3, 5))
        k = np.outer(col, row)
        op = imaging.ConvOperator(col, row, img.shape)
        padded = np.pad(img, ((1, 1), (2, 2)), mode="reflect")
        ref = np.empty_like(img)
        for i in range(9):
            for j in range(12):
                ref[i, j] = np.sum(padded[i:i + 3, j:j + 5] * k)
        np.testing.assert_allclose(op.matvec(img.ravel()).reshape(9, 12), ref,
                                   atol=1e-12)

    @pytest.mark.parametrize("shape,ksize", [
        ((8, 8), 3), ((8, 8), 5), ((7, 11), 3), ((16, 5), 5),
        *((shape, kshape[0]) for shape, kshape in TILE_CASES)])
    def test_adjoint_exact(self, shape, ksize):
        rng = np.random.default_rng(2)
        op = imaging.ConvOperator(*_factors(rng, (ksize, ksize)), shape)
        assert adjoint_residual(op, rng) < 1e-12

    def test_matvec_and_rmatvec_preserve_size(self):
        rng = np.random.default_rng(3)
        img = rng.standard_normal((5, 6))
        g = imaging.gaussian_kernel(3, 1.0)
        op = imaging.ConvOperator(g, g, img.shape)
        assert op.matvec(img).shape == (30,)
        assert op.rmatvec(img).shape == (30,)

    @pytest.mark.parametrize("shape,kshape", [((7, 10), (3, 3)),
                                              ((9, 6), (5, 5)),
                                              ((6, 11), (3, 5))])
    def test_rmatvec_is_dense_transpose_of_matvec(self, shape, kshape):
        # independent construction: the dense matrix of matvec, one column
        # per basis image, then its transpose applied to random data
        rng = np.random.default_rng(6)
        op = imaging.ConvOperator(*_factors(rng, kshape), shape)
        n = shape[0] * shape[1]
        dense = np.column_stack([op.matvec(e) for e in np.eye(n)])
        y = rng.standard_normal(n)
        np.testing.assert_allclose(op.rmatvec(y), dense.T @ y, rtol=0,
                                   atol=1e-12 * np.abs(dense.T @ y).max())

    def test_kernel_validation(self):
        with pytest.raises(ValueError, match="odd"):
            imaging.ConvOperator(np.ones(2), np.ones(3), (8, 8))
        with pytest.raises(ValueError, match="odd"):
            imaging.ConvOperator(np.ones(3), np.ones(4), (8, 8))
        with pytest.raises(ValueError, match="larger than image"):
            imaging.ConvOperator(np.ones(9), np.ones(9), (4, 4))
        with pytest.raises(ValueError, match="larger than image"):
            imaging.ConvOperator(np.ones(3), np.ones(5), (8, 4))
        for col, row in ((np.ones((3, 3)), np.ones(3)),
                         (np.ones(3), np.ones((1, 3))),
                         (np.ones((3, 3)), np.ones((3, 3)))):
            with pytest.raises(ValueError, match="1-D"):  # 2-D factors
                imaging.ConvOperator(col, row, (8, 8))

    def test_gaussian_kernel_normalized(self):
        g = imaging.gaussian_kernel(5, 1.3)
        assert g.shape == (5,)
        assert g.sum() == pytest.approx(1.0)
        assert np.argmax(g) == 2  # peak at the center
        assert g.tobytes() == g[::-1].tobytes()
        with pytest.raises(ValueError):
            imaging.gaussian_kernel(4, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_tiny_sigma_is_the_delta_kernel_without_warnings(self):
        # (r / sigma)^2 used to warn "overflow encountered in square"
        g = imaging.gaussian_kernel(5, 1e-300)
        assert g.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    def test_kernel_is_the_read_only_outer_product(self):
        # and the factors are read-only too: the band matrices and the key
        # are fixed at construction, so an edited factor would leave them
        # behind
        rng = np.random.default_rng(7)
        col, row = _factors(rng, (3, 5))
        op = imaging.ConvOperator(col, row, (6, 11))
        key = op.key
        assert op.kernel.shape == (3, 5)
        assert op.kernel.tobytes() == np.outer(col, row).tobytes()
        with pytest.raises(ValueError):
            op.kernel[1, 2] = 0.0
        for factor in (op.col, op.row):
            with pytest.raises(ValueError):
                factor[1] = 0.0
        col[1] = 0.0  # the operator keeps copies of its factors
        assert op.kernel.tobytes() == np.outer(op.col, op.row).tobytes()
        assert op.key is key
        assert key == (imaging.ConvOperator, (6, 11), op.col.tobytes(),
                       op.row.tobytes())

    @pytest.mark.parametrize("shape,kshape", [
        ((8, 8), (5, 5)), ((6, 11), (3, 5)), ((17, 9), (5, 3)),
        ((64, 64), (5, 5)), ((130, 130), (5, 5)), *TILE_CASES])
    def test_matches_the_2d_reference(self, shape, kshape):
        # the banded products against a 2-D correlation with outer(col,
        # row), and the adjoint against its pad-and-fold transpose; equal
        # factors on a square share one band matrix
        rng = np.random.default_rng(8)
        col, row = _factors(rng, kshape)
        for other in (row, col) if kshape[0] == kshape[1] else (row,):
            op = imaging.ConvOperator(col, other, shape)
            ref = MirrorConv2D(np.outer(col, other), shape)
            for _ in range(2):
                v = rng.standard_normal(op.in_dim)
                for got, want in ((op.matvec(v), ref.matvec(v)),
                                  (op.rmatvec(v), ref.rmatvec(v))):
                    assert np.max(np.abs(got - want)) \
                        <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape,kshape", [((8, 8), (5, 5)),
                                              ((6, 11), (3, 5)), *TILE_CASES])
    def test_returned_arrays_are_fresh_and_rmatvec_holds_no_negative_zero(
            self, shape, kshape):
        rng = np.random.default_rng(9)
        g = imaging.gaussian_kernel(kshape[0], 1.0)
        for col, row in ((g, g), _factors(rng, kshape)):
            op = imaging.ConvOperator(col, row, shape)
            for y in _signed_zero_samples(rng, op.in_dim):
                kept = [op.matvec(y), op.rmatvec(y)]
                back = kept[1]
                assert not np.any(np.signbit(back) & (back == 0.0))
                snapshot = [a.tobytes() for a in kept]
                later = [op.matvec(-y), op.rmatvec(-y)]
                assert [a.tobytes() for a in kept] == snapshot
                for a, b in zip(kept, later):
                    assert not np.shares_memory(a, b)


def _filters_and_weights():
    return (np.stack([np.ravel(k) for k, _ in DCT_FILTERS]),
            np.array([wt for _, wt in DCT_FILTERS]))


def _response_weight_taps(u):
    # the tap rows K^T (w * (2 u / (1 + u u))): the weights on the responses
    kmat, wts = _filters_and_weights()
    return kmat.T @ (wts[:, None] * (2.0 * u / (1.0 + u * u)))


def _folded_weight_taps(u):
    # the tap rows (2 w K)^T (u / (1 + u u)): the weights in the filters
    kmat, wts = _filters_and_weights()
    return (kmat * (2.0 * wts)[:, None]).T @ (u / (1.0 + u * u))


def _tap_loop_gradient(shape, u):
    """The log-filter gradient with the weights on the responses, its tap
    rows scattered tap by tap into the padded array, then folded."""
    h, w = shape
    full = np.zeros((h + 2, w + 2))
    for t, row in enumerate(_response_weight_taps(u)):
        i, j = divmod(t, 3)
        full[i:i + h, j:j + w] += row.reshape(h, w)
    return RHO * fold2d_reference(full, shape, (3, 3))


# image shapes: the two row folds meet at (3, 3), the two column folds at
# (7, 3)
FOLD_SHAPES = [(3, 3), (7, 3), (17, 9), (6, 11), (64, 64)]


class TestReusedWorkspaces:
    """The log-filter oracle works in padded arrays each instance keeps; its
    results must keep the reference bits, and its results and the blur's
    must stay fresh."""

    @pytest.mark.parametrize("shape", FOLD_SHAPES)
    def test_log_filter_forward_bits_match_index_gather(self, shape):
        reg = imaging.log_filter_regularizer(RHO, shape)
        rng = np.random.default_rng(22)
        for _ in range(2):
            for x in _signed_zero_samples(rng, shape[0] * shape[1]):
                want = _log_filter_forward_reference(shape, x)
                assert reg.forward(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", FOLD_SHAPES)
    def test_log_filter_gradient_bits_match_pad_and_fold(self, shape):
        # the per-filter adjoints, each filter scaled by twice its weight,
        # summed in filter order, then folded once
        h, w = shape
        reg = imaging.log_filter_regularizer(RHO, shape)
        x = 5.0 * np.random.default_rng(23).standard_normal(h * w)
        u = reg.forward(x)
        index = sliding_window_view(
            np.arange((h + 2) * (w + 2)).reshape(h + 2, w + 2),
            (h, w)).reshape(-1)
        full = np.bincount(index, weights=_folded_weight_taps(u).reshape(-1))
        want = RHO * fold2d_reference(full.reshape(h + 2, w + 2), shape,
                                      (3, 3))
        assert reg.grad(x, u).tobytes() == want.tobytes()

    def test_returned_arrays_survive_later_calls(self):
        shape, kshape = (17, 9), (5, 5)
        rng = np.random.default_rng(24)
        op = imaging.ConvOperator(*_factors(rng, kshape), shape)
        reg = imaging.log_filter_regularizer(RHO, shape)
        n = op.in_dim
        x1, x2 = rng.standard_normal((2, n))
        kept = [op.rmatvec(x1), op.matvec(x1), reg.forward(x1)]
        kept.append(reg.grad(x1, kept[2]))
        snapshot = [a.copy() for a in kept]
        op.rmatvec(x2)
        op.matvec(x2)
        reg.grad(x2, reg.forward(x2))
        for a, b in zip(kept, snapshot):
            assert a.tobytes() == b.tobytes()
        assert not np.shares_memory(kept[0], op.rmatvec(x1))

    def test_operators_of_different_shapes_share_no_state(self):
        # the blur against an operator built afresh for each call, the
        # oracle against its reference bits
        col, row = _factors(np.random.default_rng(25), (5, 5))
        shapes = [(17, 9), (9, 17), (5, 5), (130, 70)]
        ops = [imaging.ConvOperator(col, row, s) for s in shapes]
        regs = [imaging.log_filter_regularizer(RHO, s) for s in shapes]
        rng = np.random.default_rng(26)
        for _ in range(2):  # interleaved calls on every instance
            for shape, op, reg in zip(shapes, ops, regs):
                y = rng.standard_normal(op.in_dim)
                fresh = imaging.ConvOperator(col, row, shape)
                assert op.matvec(y).tobytes() == fresh.matvec(y).tobytes()
                assert op.rmatvec(y).tobytes() == fresh.rmatvec(y).tobytes()
                assert reg.forward(y).tobytes() == \
                    _log_filter_forward_reference(shape, y).tobytes()

    def test_power_iteration_keeps_the_norm_bits(self):
        # 50 steps of the blur's own products at 64x64, against
        # np.linalg.norm and v = w / lam
        problem._SQ_NORMS.clear()  # the iteration runs, not the memo
        op = _blur()
        rng = np.random.default_rng(0)
        v = rng.standard_normal(op.in_dim)
        v /= np.linalg.norm(v)
        for _ in range(50):
            w = op.rmatvec(op.matvec(v))
            lam = float(np.linalg.norm(w))
            v = w / lam
        assert power_iteration_sq_norm(op).hex() == lam.hex()


def _blur(shape=(64, 64), sigma=1.0):
    g = imaging.gaussian_kernel(5, sigma)
    return imaging.ConvOperator(g, g, shape)


def _count_calls(op):
    """Wraps ``op``'s matvec and rmatvec; returns the list of their names,
    one per call."""
    calls = []
    for name in ("matvec", "rmatvec"):
        def counted(v, fn=getattr(op, name), name=name):
            calls.append(name)
            return fn(v)
        setattr(op, name, counted)
    return calls


class TestNormMemo:
    """``power_iteration_sq_norm`` runs once per operator key and step
    count, and returns what a fresh iteration returns, bit for bit."""

    LAM = "0x1.033cd4dfbad93p+0"  # 50 steps on the 5x5 sigma=1 64x64 blur
    BOUND = "0x1.103312b7b7641p+0"  # impulse-l1's 1.05 * LAM at 64x64

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        problem._SQ_NORMS.clear()

    def test_a_stored_bound_has_the_bits_of_a_fresh_one(self):
        op = _blur()
        calls = _count_calls(op)
        assert power_iteration_sq_norm(op).hex() == self.LAM
        assert calls == ["matvec", "rmatvec"] * 50
        g = np.zeros(64 * 64)
        assert imaging.l1_fidelity_term(_blur(), g).op_norm_sq_bound.hex() \
            == self.BOUND
        problem._SQ_NORMS.clear()
        cold = imaging.l1_fidelity_term(_blur(), g)
        assert cold.op_norm_sq_bound.hex() == self.BOUND
        assert cold.op.key == _blur().key
        assert list(problem._SQ_NORMS.values())[0].hex() == self.LAM

    def test_an_equal_operator_applies_nothing(self):
        power_iteration_sq_norm(_blur())
        again = _blur()
        calls = _count_calls(again)
        assert power_iteration_sq_norm(again).hex() == self.LAM
        assert calls == []
        assert len(problem._SQ_NORMS) == 1

    @pytest.mark.parametrize("change", ["kernel", "shape", "iters",
                                        "edited kernel"])
    def test_another_matrix_or_step_count_recomputes(self, change):
        base = _blur((16, 16))
        lam = power_iteration_sq_norm(base)
        iters = 30 if change == "iters" else 50
        if change == "kernel":
            op = _blur((16, 16), sigma=2.0)
        elif change == "shape":
            op = _blur((16, 17))
        elif change == "edited kernel":  # the factors are read-only
            with pytest.raises(ValueError, match="read-only"):
                base.row[2] *= 2.0
            row = base.row.copy()
            row[2] *= 2.0
            op = imaging.ConvOperator(base.col, row, base.shape)
        else:
            op = _blur((16, 16))
        calls = _count_calls(op)
        got = power_iteration_sq_norm(op, iters)
        assert calls == ["matvec", "rmatvec"] * iters
        assert len(problem._SQ_NORMS) == 2
        if change != "iters":
            assert got != lam
        # the new value is stored under its own key
        assert power_iteration_sq_norm(op, iters) == got
        assert len(calls) == 2 * iters

    def test_operators_without_a_key_are_never_stored(self):
        rng = np.random.default_rng(5)
        ops = [MatrixOp(rng.standard_normal((6, 4))),
               imaging.GradOp((8, 8)), IdentityOp(5)]
        for op in ops:
            assert op.key is None
            calls = _count_calls(op)
            first = power_iteration_sq_norm(op, 20)
            assert power_iteration_sq_norm(op, 20) == first
            assert calls == ["matvec", "rmatvec"] * 40
        StructuredConvexTerm(ops[0], L1Norm(1.0), ZeroFunction())
        assert problem._SQ_NORMS == {}


class TestTotalVariation:
    def test_value_of_two_pixel_step(self):
        # image (0, 1): single horizontal difference of 1
        op = imaging.GradOp((1, 2))
        val = imaging.GroupL2(1.0).value(op.matvec(np.array([0.0, 1.0])))
        assert val == pytest.approx(1.0)

    def test_gradient_adjoint(self):
        rng = np.random.default_rng(4)
        assert adjoint_residual(imaging.GradOp((7, 9)), rng) < 1e-12

    @pytest.mark.parametrize("shape", [(3, 5), (1, 4)])
    def test_gradient_matches_dense_matrix(self, shape):
        h, w = shape
        n = h * w
        dense = np.zeros((2 * n, n))
        for i in range(h):
            for j in range(w):
                col = dense[:, i * w + j]
                # vertical difference x[i+1, j] - x[i, j] sits in row
                # (i, j) of the first field, horizontal in the second
                if i + 1 < h:
                    col[i * w + j] -= 1.0
                if i > 0:
                    col[(i - 1) * w + j] += 1.0
                if j + 1 < w:
                    col[n + i * w + j] -= 1.0
                if j > 0:
                    col[n + i * w + j - 1] += 1.0
        op = imaging.GradOp(shape)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(n)
        y = rng.standard_normal(2 * n)
        np.testing.assert_allclose(op.matvec(x), dense @ x, rtol=0,
                                   atol=1e-14)
        np.testing.assert_allclose(op.rmatvec(y), dense.T @ y, rtol=0,
                                   atol=1e-14)

    @staticmethod
    def _strided_gradient(x, shape):
        # reference: zero-filled (2, h, w) fields and strided 2-D updates
        img = x.reshape(shape)
        out = np.zeros((2,) + shape)
        np.subtract(img[1:, :], img[:-1, :], out=out[0, :-1, :])
        np.subtract(img[:, 1:], img[:, :-1], out=out[1, :, :-1])
        return out.ravel()

    @staticmethod
    def _strided_adjoint(y, shape):
        dv, dh = y.reshape((2,) + shape)
        out = np.zeros(shape)
        out[:-1, :] -= dv[:-1, :]
        out[1:, :] += dv[:-1, :]
        out[:, :-1] -= dh[:, :-1]
        out[:, 1:] += dh[:, :-1]
        return out.ravel()

    @pytest.mark.parametrize("shape", [(64, 64), (3, 5), (1, 4), (5, 1),
                                       (2, 2)])
    def test_gradient_bits_match_strided_reference(self, shape):
        n = shape[0] * shape[1]
        rng = np.random.default_rng(11)
        op = imaging.GradOp(shape)
        for _ in range(4):
            # signed zeros and repeated values exercise -0.0 and exact
            # cancellation; dh's last column (ignored) is nonzero
            x = rng.choice([-0.0, 0.0, 1.5, -2.25, 1e-300], n)
            x = np.where(rng.random(n) < 0.3, rng.standard_normal(n), x)
            y = rng.choice([-0.0, 0.0, 3.0, -3.0], 2 * n)
            y = np.where(rng.random(2 * n) < 0.5, rng.standard_normal(2 * n),
                         y)
            assert (op.matvec(x).tobytes()
                    == self._strided_gradient(x, shape).tobytes())
            assert (op.rmatvec(y).tobytes()
                    == self._strided_adjoint(y, shape).tobytes())

    def test_operator_norm_bound(self):
        est = power_iteration_sq_norm(imaging.GradOp((16, 16)), iters=300)
        assert est <= 8.01

    def test_constant_image_has_zero_tv(self):
        term = imaging.tv_term(0.25, (6, 6))
        assert term.value(np.full(36, 2.0)) == pytest.approx(0.0)
        assert term.value(np.full(36, -1.0)) == np.inf  # nonnegativity

    def test_conjugate_prox_is_ball_projection(self):
        # prox of the conjugate (ball indicator) projects (3, 4) to (0.6, 0.8)
        got = imaging.GroupL2(1.0).conjugate_prox(np.array([3.0, 4.0]), 1.7)
        np.testing.assert_allclose(got, [0.6, 0.8])

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.inf, np.nan])
    def test_group_l2_rejects_non_positive_or_non_finite_rho(self, rho):
        with pytest.raises(ValueError, match="positive and finite"):
            imaging.GroupL2(rho)

    @pytest.mark.parametrize("sigma", [1e-3, 0.7, 5.0])
    def test_conjugate_prox_matches_moreau_formula(self, sigma):
        g = imaging.GroupL2(0.4)
        rng = np.random.default_rng(3)
        v = np.concatenate([rng.standard_normal(50), np.zeros(2),
                            0.1 * rng.standard_normal(48)])
        v = np.concatenate([v, np.roll(v, 7)])
        got = g.conjugate_prox(v, sigma)

        def shrink(u, t):
            # prox of t * 0.4 * sum_i ||(u_i, v_i)||_2: group shrinkage
            pairs = u.reshape(2, -1)
            norms = np.sqrt(pairs[0] ** 2 + pairs[1] ** 2)
            scale = np.divide(np.maximum(norms - 0.4 * t, 0.0), norms,
                              out=np.zeros_like(norms), where=norms > 0)
            return (pairs * scale).ravel()

        moreau = v - sigma * shrink(v / sigma, 1.0 / sigma)
        np.testing.assert_allclose(got, moreau, rtol=0.0, atol=1e-14)
        a, b = got.reshape(2, -1)
        # pairs projected onto the sphere keep a few ulps of roundoff
        assert np.max(np.hypot(a, b)) <= 0.4 * (1.0 + 1e-15)
        assert g.conjugate(got) == 0.0

    def test_group_conjugate_ball_indicator(self):
        g = imaging.GroupL2(0.5)
        assert g.conjugate(np.array([0.3, 0.4])) == 0.0
        assert g.conjugate(np.array([0.4, 0.4])) == np.inf


SHAPES = [(7, 11), (9, 6)]

# more shapes, for the gradient's bits
GRADIENT_SHAPES = SHAPES + [(17, 9), (64, 64)]


class TestRegularizerAndFidelities:
    def test_impulse_responses_are_the_dct_filters(self):
        # the responses to a unit impulse at the centre of a 5x5 image are
        # the 8 filters, flipped, bit for bit; each has zero mean, so a
        # constant image gives responses of zero
        x = np.zeros((5, 5))
        x[2, 2] = 1.0
        reg = imaging.log_filter_regularizer(RHO, (5, 5))
        u = reg.forward(x.ravel()).reshape(8, 5, 5)
        got = u[:, 1:4, 1:4][:, ::-1, ::-1]
        assert got.tobytes() == np.stack([k for k, _ in DCT_FILTERS]).tobytes()
        assert np.abs(reg.forward(np.full(25, 3.0))).max() < 1e-14

    def test_log_filter_gradient(self):
        reg = imaging.log_filter_regularizer(RHO, (6, 6))
        p = CompositeProblem(
            reg, xi_term(ZeroFunction(), 36))
        rng = np.random.default_rng(5)
        rep = check_gradient(p, 10.0 * rng.standard_normal(36))
        assert rep.max_rel_error < 1e-4

    @pytest.mark.parametrize("shape", SHAPES)
    def test_log_filter_forward_matches_pad_and_sliding_window(self, shape):
        # reference: mirror pad, then a copy of every sliding window
        h, w = shape
        kmat, _ = _filters_and_weights()
        reg = imaging.log_filter_regularizer(RHO, shape)
        rng = np.random.default_rng(9)
        for _ in range(2):  # the gather buffer is reused between calls
            x = 5.0 * rng.standard_normal(h * w)
            pad = np.pad(x.reshape(h, w), 1, mode="reflect")
            cols = sliding_window_view(pad, (h, w)).reshape(9, h * w)
            np.testing.assert_array_equal(reg.forward(x), kmat @ cols)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_log_filter_matches_per_filter_sum(self, shape):
        # reference: one 2-D mirror convolution per filter, value and
        # gradient summed filter by filter
        ops = [(MirrorConv2D(k, shape), wt) for k, wt in DCT_FILTERS]
        reg = imaging.log_filter_regularizer(RHO, shape)
        x = 5.0 * np.random.default_rng(8).standard_normal(shape[0] * shape[1])
        want_v, want_g = 0.0, 0.0
        for op, wt in ops:
            u = op.matvec(x)
            want_v += RHO * wt * np.sum(np.log1p(u * u))
            want_g = want_g + RHO * wt * op.rmatvec(2.0 * u / (1 + u * u))
        assert reg.value(x) == pytest.approx(want_v, rel=1e-12)
        np.testing.assert_allclose(reg.grad(x), want_g, rtol=0,
                                   atol=1e-12 * np.abs(want_g).max())

    @pytest.mark.parametrize("shape", GRADIENT_SHAPES)
    def test_log_filter_gradient_bits_match_tap_loop(self, shape):
        # reference: the weighted responses mapped back, scattered tap by
        # tap into the padded array, then folded; the doubled weight 1/4
        # is a power of two, so 2 w k times u / (1 + u u) rounds as k times
        # w (2 u / (1 + u u)) does, summed in the same order
        reg = imaging.log_filter_regularizer(RHO, shape)
        x = 5.0 * np.random.default_rng(4).standard_normal(shape[0]
                                                           * shape[1])
        u = reg.forward(x)
        assert reg.grad(x, u).tobytes() \
            == _tap_loop_gradient(shape, u).tobytes()

    @pytest.mark.parametrize("shape", GRADIENT_SHAPES)
    def test_log_filter_reads_no_workspace_entry_before_writing_it(
            self, shape, monkeypatch):
        # the build's np.empty arrays come filled with NaN: a pad column or
        # a tap row read before it is written puts NaN into the gradient
        empty = np.empty

        def nan_empty(*args, **kwargs):
            out = empty(*args, **kwargs)
            out.fill(np.nan)
            return out

        with monkeypatch.context() as patch:
            patch.setattr(imaging.np, "empty", nan_empty)
            reg = imaging.log_filter_regularizer(RHO, shape)
        rng = np.random.default_rng(13)
        for _ in range(2):
            x = 5.0 * rng.standard_normal(shape[0] * shape[1])
            u = reg.forward(x)
            assert u.tobytes() == _log_filter_forward_reference(
                shape, x).tobytes()
            assert reg.grad(x, u).tobytes() \
                == _tap_loop_gradient(shape, u).tobytes()

    def test_log_filter_build_allocates_no_more_than_separate_workspaces(
            self):
        # 64x64 with the 3x3 DCT bank: the padded image and the flat padded
        # array (66 x 66 each), the (9, 4096) columns, the tap rows at the
        # padded width (9 x 64 x 66) and two (8, 4096) response arrays, each
        # its own array; the quotients' pad columns must fit in that room
        separate = 8 * (2 * 66 * 66 + 9 * 4096 + 9 * 64 * 66 + 2 * 8 * 4096)
        imaging.log_filter_regularizer(RHO, (64, 64))  # warm-up
        tracemalloc.start()
        try:
            imaging.log_filter_regularizer(RHO, (64, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= separate

    def test_log_filter_value_and_grad_allocate_less_than_one_response(self):
        # the (filters, pixels) and (taps, pixels) temporaries live in the
        # oracle's workspace; only the forward pass allocates
        p, x, _ = build_problem(dict(DEFAULTS, problem="impulse-l1",
                                     size="64"))
        fwd = p.f0.forward(x)
        assert fwd.shape == (8, 4096)
        for call in (p.f0.value, p.f0.grad):
            call(x, fwd)  # warm-up
            tracemalloc.start()
            try:
                call(x, fwd)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < fwd.nbytes

    def test_log_filter_rejects_images_smaller_than_the_filters(self):
        for shape in ((2, 8), (8, 2)):
            with pytest.raises(ValueError, match="larger than image"):
                imaging.log_filter_regularizer(RHO, shape)

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
    def test_log_filter_rejects_rho_not_positive_and_finite(self, rho):
        # NaN passed a `<= 0` test; rho scales every value and gradient
        with pytest.raises(ValueError, match="rho must be positive"):
            imaging.log_filter_regularizer(rho, (8, 8))

    def test_gaussian_sd_value_examples(self):
        op = imaging.ConvOperator([1.0], [1.0], (1, 1))
        # exact fit with unit denominator: 0.5*0 + log 1 = 0
        fid = imaging.gaussian_sd_fidelity(op, np.array([0.0]), a=0.01, c=1.0)
        assert fid.value(np.array([0.0])) == pytest.approx(0.0)
        # t=2, g=1, a=c=1: 0.5*1/3 + log 3
        fid = imaging.gaussian_sd_fidelity(op, np.array([1.0]), a=1.0, c=1.0)
        assert fid.value(np.array([2.0])) == pytest.approx(
            0.5 / 3.0 + np.log(3.0))
        assert fid.value(np.array([2.0])) == pytest.approx(1.26528, abs=1e-5)

    def test_gaussian_sd_domain(self):
        op = imaging.ConvOperator([1.0], [1.0], (1, 1))
        fid = imaging.gaussian_sd_fidelity(op, np.array([0.0]), a=1.0, c=1.0)
        assert fid.value(np.array([-2.0])) == np.inf
        from inertiafb.problem import DomainError
        with pytest.raises(DomainError):
            fid.grad(np.array([-2.0]))
        with pytest.raises(ValueError):
            imaging.gaussian_sd_fidelity(op, np.array([0.0]), a=-1.0,
                                         c=1.0)

    @pytest.mark.parametrize("a,c", [(np.nan, 1.0), (np.inf, 1.0),
                                     (0.0, 1.0), (0.01, np.nan),
                                     (0.01, np.inf), (0.01, 0.0)])
    def test_gaussian_sd_rejects_non_positive_or_non_finite_a_and_c(self, a,
                                                                    c):
        # NaN passed the old `<= 0` test, and value then returned NaN
        op = imaging.ConvOperator([1.0], [1.0], (1, 1))
        with pytest.raises(ValueError, match="positive and finite"):
            imaging.gaussian_sd_fidelity(op, np.array([0.0]), a=a, c=c)

    def test_gaussian_sd_gradient(self):
        rng = np.random.default_rng(6)
        k = imaging.gaussian_kernel(3, 1.0)
        op = imaging.ConvOperator(k, k, (5, 5))
        g = np.abs(rng.standard_normal(25)) + 1.0
        fid = imaging.gaussian_sd_fidelity(op, g, a=0.01, c=1.0)
        p = CompositeProblem(
            fid, xi_term(ZeroFunction(), 25))
        rep = check_gradient(p, np.abs(rng.standard_normal(25)) + 1.0)
        assert rep.max_rel_error < 1e-4

    def test_l1_fidelity_value(self):
        op = imaging.ConvOperator([1.0], [1.0], (2, 2))
        g = np.array([1.0, 0.0, -1.0, 2.0])
        term = imaging.l1_fidelity_term(op, g)
        x = np.zeros(4)
        assert term.value(x) == pytest.approx(4.0)
        assert term.value(-np.ones(4)) == np.inf  # nonnegativity
        with pytest.raises(ValueError):
            imaging.l1_fidelity_term(op, np.zeros(3))


class TestNoiseAndMetrics:
    def test_impulse_noise_deterministic(self):
        img = imaging.phantom(16, 255.0)
        a = imaging.impulse_noise(img, 0.3, seed=5, peak=255.0)
        b = imaging.impulse_noise(img, 0.3, seed=5, peak=255.0)
        np.testing.assert_array_equal(a, b)
        c = imaging.impulse_noise(img, 0.3, seed=6, peak=255.0)
        assert np.any(a != c)

    def test_impulse_noise_fraction(self):
        img = np.full((10, 10), 100.0)
        out = imaging.impulse_noise(img, 0.25, seed=0, peak=255.0)
        changed = np.sum(out != 100.0)
        assert changed == 25
        assert np.sum(out == 255.0) == 13  # odd count favors salt
        assert np.sum(out == 0.0) == 12

    def test_impulse_noise_extremes(self):
        img = np.full((4, 4), 10.0)
        np.testing.assert_array_equal(
            imaging.impulse_noise(img, 0.0, 0, 255.0), img)
        full = imaging.impulse_noise(img, 1.0, 0, 255.0)
        assert set(np.unique(full)) <= {0.0, 255.0}
        with pytest.raises(ValueError):
            imaging.impulse_noise(img, 1.5, 0, 255.0)

    def test_psnr_reference_values(self):
        base = np.zeros((10, 10))
        off = np.ones((10, 10))  # MSE = 1
        assert imaging.psnr(base, off, peak=255.0) == pytest.approx(
            48.1308, abs=1e-4)
        off01 = np.full((10, 10), 0.1)  # MSE = 0.01
        assert imaging.psnr(base, off01, peak=1.0) == pytest.approx(20.0)
        # peak^2 used to underflow at peak 1e-300: a NumPy warning, then
        # -inf dB; the value does not depend on the scale
        with np.errstate(all="raise"):
            for peak in (1e-300, 1e300):
                assert imaging.psnr(base, off01 * peak, peak) \
                    == pytest.approx(20.0)

    def test_psnr_cap_and_errors(self):
        img = imaging.phantom(8, 255.0)
        assert imaging.psnr(img, img, peak=255.0) == 300.0
        with pytest.raises(ValueError):
            imaging.psnr(np.zeros((2, 2)), np.zeros((3, 3)), peak=1.0)

    @pytest.mark.parametrize("size", [1, 2, 8, 17, 64, 65])
    @pytest.mark.parametrize("peak", [255.0, 1.0])
    def test_phantom_bits_match_meshgrid(self, size, peak):
        img = imaging.phantom(size, peak=peak)
        want = _phantom_reference(size, peak)
        assert img.shape == want.shape == (size, size)
        assert img.tobytes() == want.tobytes()

    def test_phantom_range(self):
        img = imaging.phantom(32, peak=255.0)
        assert img.shape == (32, 32)
        assert img.min() >= 0.0 and img.max() <= 255.0
        assert img.std() > 1.0  # genuinely non-constant


class TestImageIO:
    def test_pgm_roundtrip_exact_for_8bit(self, tmp_path):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, size=(9, 13)).astype(float)
        path = tmp_path / "img.pgm"
        imaging.write_pgm(path, img, peak=255.0)
        np.testing.assert_array_equal(imaging.read_pgm(path), img)

    def test_pgm_scales_by_peak(self, tmp_path):
        img = np.array([[0.0, 0.5, 1.0]])
        path = tmp_path / "img.pgm"
        imaging.write_pgm(path, img, peak=1.0)
        np.testing.assert_allclose(imaging.read_pgm(path),
                                   [[0.0, 128.0, 255.0]])

    def test_pgm_rejects_other_formats(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError):
            imaging.read_pgm(path)
