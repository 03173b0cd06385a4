"""Image deblurring problem library.

Provides the pieces of the benchmark problems: separable convolution with
whole-sample reflective boundaries and its exact adjoint, a forward
difference gradient with Neumann boundaries for total variation, an l1 data
fidelity with a nonnegativity constraint, a smooth log-filter regularizer on
the 3x3 DCT filter bank, a signal-dependent Gaussian fidelity, impulse noise
simulation, PSNR, and 8-bit PGM image I/O.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from inertiafb.problem import (DomainError, LinearOp, NonnegIndicator,
                               ProxFunction, SmoothOracle, L1Norm,
                               StructuredConvexTerm)


# ---------------------------------------------------------------------------
# convolution with reflective boundaries


TILE = 64  # outputs per banded product: the cost stays linear in pixels


def _mirror_matrix(factor: np.ndarray, n: int) -> np.ndarray:
    """The ``n x n`` matrix of a 1-D correlation by ``factor`` (odd length
    ``2 r + 1 <= n``) of the whole-sample mirrored signal: row ``i`` holds
    ``factor[t + r]`` at column ``mirror(i + t)`` for ``|t| <= r``, the
    taps that meet at one column added in tap order."""
    r = factor.size // 2
    rows = np.arange(n)[:, None]
    # 2 r + 1 <= n: each tap index leaves [0, n) across one border at most
    cols = (n - 1) - np.abs((n - 1) - np.abs(rows + np.arange(-r, r + 1)))
    m = np.zeros((n, n))
    np.add.at(m, (rows, cols), factor)
    return m


def _tiles(n: int, radius: int):
    """``(out, inp)`` slice pairs that split ``n`` outputs of a band matrix
    of half-width ``radius`` into ``TILE``-wide ranges ``out``, each with
    the inputs ``inp`` within ``radius`` of it, the only ones it reads."""
    return [(slice(s, min(s + TILE, n)),
             slice(max(s - radius, 0), min(s + TILE + radius, n)))
            for s in range(0, n, TILE)]


class ConvOperator(LinearOp):
    """2-D convolution by the separable kernel ``outer(col, row)`` with
    whole-sample reflective boundary handling.

    The forward map mirrors the image across its border pixels before a
    valid-mode correlation with the kernel.  Along each axis that is a
    banded matrix, built once: ``C`` (``h x h``) from ``col`` and ``R``
    (``w x w``) from ``row``.  So ``H x = C X R^T`` and ``H^T y = C^T Y R``
    (Hansen, Nagy & O'Leary, *Deblurring Images*, SIAM 2006, ch. 4), run as
    BLAS products per ``TILE x TILE`` output tile: the row pass of the
    tile's input rows, those within the kernel radius, then the column
    pass.  A 64 x 64 image is one tile.  The factors are read-only copies
    and define the operator; ``kernel`` is their read-only outer product,
    kept for reporting.  No state changes after construction, so one
    instance may serve concurrent callers and keep one norm bound, and
    every returned array is fresh.  The bits do not depend on the BLAS
    thread count.
    """

    def __init__(self, col: np.ndarray, row: np.ndarray, shape):
        self.col = np.array(col, dtype=float)
        self.row = np.array(row, dtype=float)
        if self.col.ndim != 1 or self.row.ndim != 1:
            raise ValueError("kernel factors must be 1-D")
        kh, kw = self.col.size, self.row.size
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError("kernel dimensions must be odd")
        self.shape = (int(shape[0]), int(shape[1]))
        h, w = self.shape
        if kh > h or kw > w:
            raise ValueError("kernel larger than image")
        self.kernel = np.outer(self.col, self.row)
        for a in (self.col, self.row, self.kernel):
            a.flags.writeable = False
        self.in_dim = self.out_dim = h * w
        c, r = _mirror_matrix(self.col, h), _mirror_matrix(self.row, w)
        # (block, out, inp) per tile, each block a C-ordered copy: BLAS
        # reads a view with a longer row stride more slowly
        rows, cols = _tiles(h, kh // 2), _tiles(w, kw // 2)
        tile = np.ascontiguousarray
        self._forward = ([(tile(r.T[i, o]), o, i) for o, i in cols],
                         [(tile(c[o, i]), o, i) for o, i in rows])
        self._adjoint = ([(tile(r[i, o]), o, i) for o, i in cols],
                         [(tile(c.T[o, i]), o, i) for o, i in rows])

    def _apply(self, x, passes):
        # every temporary is one tile with its halo rows: a full-size
        # intermediate next to the fresh output made the allocator return
        # and re-fault its pages on every call at 256 x 256
        img = np.reshape(np.asarray(x, dtype=float), self.shape)
        row_tiles, col_tiles = passes
        out = np.empty(self.shape)
        for left, rows, rows_in in col_tiles:
            for right, cols, cols_in in row_tiles:
                np.matmul(left, img[rows_in, cols_in] @ right,
                          out=out[rows, cols])
        return out.ravel()

    def matvec(self, x):
        return self._apply(x, self._forward)

    def rmatvec(self, y):
        # each entry is a BLAS sum accumulated from +0.0: it holds no -0.0
        return self._apply(y, self._adjoint)


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Normalized truncated 1-D Gaussian of odd ``size``: the factor ``g``
    of the blur kernel ``outer(g, g)``."""
    if size % 2 == 0:
        raise ValueError("size must be odd")
    if not sigma > 0:
        raise ValueError("blur sigma must be positive")
    r = np.arange(size) - size // 2
    # at a tiny sigma the square overflows to inf off the centre, and
    # exp(-inf) = 0 is the delta kernel it tends to
    with np.errstate(over="ignore"):
        g = np.exp(-0.5 * (r / sigma) ** 2)
    return g / g.sum()


# ---------------------------------------------------------------------------
# discrete gradient and total variation


class GradOp(LinearOp):
    """Forward-difference 2-D gradient with Neumann boundary (last row/column
    differences are zero).  Output stacks the vertical then the horizontal
    differences; ``||M||^2 <= 8`` classically."""

    def __init__(self, shape):
        self.shape = (int(shape[0]), int(shape[1]))
        h, w = self.shape
        self.in_dim = h * w
        self.out_dim = 2 * h * w

    def matvec(self, x):
        # flat differences; those across a row end become the Neumann zeros
        x = np.asarray(x, dtype=float).reshape(-1)
        n, w = x.size, self.shape[1]
        out = np.empty(2 * n)
        np.subtract(x[w:], x[:-w], out=out[:n - w])
        out[n - w:n] = 0.0
        np.subtract(x[1:], x[:-1], out=out[n:-1])
        out[n + w - 1::w] = 0.0  # includes out[-1]
        return out

    def rmatvec(self, y):
        # out starts as 0.0 - dv and +0.0, so it never holds -0.0 and adding
        # the zeroed last column of dh leaves its bits unchanged
        y = np.asarray(y, dtype=float).reshape(-1)
        n, w = y.size // 2, self.shape[1]
        dh = y[n:].copy()
        dh[w - 1::w] = 0.0
        out = np.empty(n)
        np.subtract(0.0, y[:n - w], out=out[:n - w])
        out[n - w:] = 0.0
        out[w:] += y[:n - w]
        out[:-1] -= dh[:-1]
        out[1:] += dh[:-1]
        return out


class GroupL2(ProxFunction):
    """``rho * sum_i ||(u_i, v_i)||_2`` over per-pixel difference pairs.

    The input vector stacks the two difference fields; the conjugate is the
    indicator of the per-pixel l2-ball of radius rho.  The prox engine uses
    only the conjugate's prox, a projection, so ``prox`` itself is left out.
    """

    def __init__(self, rho: float):
        if not 0 < rho < np.inf:
            raise ValueError("rho must be positive and finite")
        self.rho = float(rho)

    @staticmethod
    def _norms(pairs):
        a, b = pairs
        t = a * a
        t += b * b
        return np.sqrt(t, out=t)

    def value(self, x):
        pairs = np.asarray(x, dtype=float).reshape(2, -1)
        return self.rho * float(self._norms(pairs).sum())

    def conjugate_prox(self, v, sigma):
        """Per-pixel projection onto the ball of radius rho (any sigma)."""
        pairs = np.asarray(v, dtype=float).reshape(2, -1)
        return (pairs * (self.rho / np.maximum(self._norms(pairs), self.rho))
                ).ravel()

    def conjugate(self, w):
        norms = self._norms(np.asarray(w, dtype=float).reshape(2, -1))
        if np.max(norms, initial=0.0) > self.rho * (1.0 + self.feas_rtol):
            return np.inf
        return 0.0

    def conjugate_at_prox(self, w):
        return 0.0  # projected pairs have norms of rho (1 + a few ulp) at most


def tv_term(rho: float, shape) -> StructuredConvexTerm:
    """Total variation plus nonnegativity as a structured convex term."""
    op = GradOp(shape)
    return StructuredConvexTerm(op, GroupL2(rho), NonnegIndicator(),
                                op_norm_sq_bound=8.0)


# ---------------------------------------------------------------------------
# fidelities and regularizers


def l1_fidelity_term(H: ConvOperator, g: np.ndarray) -> StructuredConvexTerm:
    """``||Hx - g||_1`` plus nonnegativity as a structured convex term."""
    g = np.asarray(g, dtype=float).ravel()
    if g.size != H.out_dim:
        raise ValueError("data size does not match operator output")
    return StructuredConvexTerm(H, L1Norm(1.0, shift=g), NonnegIndicator())


def log_filter_regularizer(rho: float, shape) -> SmoothOracle:
    """Smooth edge-preserving regularizer ``rho sum_l w_l sum_i
    log(1 + (K_l x)_i^2)`` over the 8 non-constant 3x3 DCT-II basis
    filters ``K_l``, each at weight ``w_l = 1/8``.

    Filter ``(p, q)`` is the outer product of 1-D basis rows ``p`` and
    ``q``, taken from one broadcast product, in row-major order of ``(p,
    q)`` without ``(0, 0)``.  The forward pass mirror-pads the image into a
    workspace and copies its ``(taps, pixels)`` windows into columns, and
    one ``(filters, taps) @ (taps, pixels)`` product gives every filter
    response.  The gradient writes the quotients ``u / (1 + u u)`` into
    rows of the padded width, whose extra columns hold +0.0, and one
    product with the transposed filters, each scaled by twice its weight,
    gives the tap rows at the padded width.  It adds each tap row in tap
    order into the flat padded array as one contiguous slice, and folds the
    border.  Forward, value and gradient write their large temporaries into
    the oracle's own workspace, so one instance must not run concurrently.
    """
    if not 0 < rho < np.inf:
        raise ValueError("rho must be positive and finite")
    h, w = shape = (int(shape[0]), int(shape[1]))
    kh = kw = 3
    if kh > h or kw > w:
        raise ValueError("kernel larger than image")
    ph, pw = kh // 2, kw // 2
    c = np.sqrt(np.array([1.0, 2.0, 2.0]) / 3.0)
    p = np.arange(3)[:, None]
    basis = c[:, None] * np.cos(np.pi * (2.0 * np.arange(3) + 1.0) * p / 6.0)
    kmat = (basis[:, None, :, None]
            * basis[None, :, None, :]).reshape(9, 9)[1:]
    wts = np.full(8, 1.0 / 8.0)
    # the filters scaled by twice their weights, transposed: 2 w = 1/4 is
    # exact, so the gradient keeps the bits of K^T (w (2 u / (1 + u u)))
    kt = (kmat * (2.0 * wts)[:, None]).T
    nf, nt = len(kmat), kh * kw
    hp, wp = h + kh - 1, w + kw - 1
    padded = np.empty((hp, wp))
    img = padded[ph:ph + h, pw:pw + w]
    windows = sliding_window_view(padded, (h, w))  # (kh, kw, h, w) view
    # the responses' log1p of squares (value) or denominators (gradient),
    # and the quotients at the padded width
    block = np.empty(nf * h * (w + wp))
    ws = block[:nf * h * w].reshape(nf, h * w)
    quot = block[nf * h * w:].reshape(nf, h, wp)
    # the gradient's tap rows at the padded width, and the flat padded
    # array they are added into: tap (i, j)'s window starts at i * wp + j,
    # its rows joined by the pad columns, which add zeros; the forward
    # pass's (taps, pixels) columns share the tap rows' memory
    taps_wide = np.empty((nt, h * wp))
    cols = taps_wide.reshape(-1)[:nt * h * w].reshape(nt, h * w)
    full = np.empty(hp * wp)
    span = (h - 1) * wp + w
    # each tap row's slice of the flat padded array, then the transpose of
    # the mirror padding: each border row, then each border column across
    # every row, added onto its mirror source
    grid = full.reshape(hp, wp)
    rows = grid[ph:ph + h]
    adds = [(full[i * wp + j:i * wp + j + span], row[:span])
            for (i, j), row in zip(np.ndindex(kh, kw), taps_wide)] + [
        (grid[ph + 1:2 * ph + 1], grid[:ph][::-1]),
        (grid[h - 1:h + ph - 1], grid[h + ph:][::-1]),
        (rows[:, pw + 1:2 * pw + 1], rows[:, :pw][:, ::-1]),
        (rows[:, w - 1:w + pw - 1], rows[:, w + pw:][:, ::-1])]
    interior = grid[ph:ph + h, pw:pw + w]

    def forward(x):
        # whole-sample mirror: rows first, then columns across every row
        img[...] = np.reshape(x, (h, w))
        padded[:ph, pw:pw + w] = img[1:ph + 1][::-1]
        padded[ph + h:, pw:pw + w] = img[h - 1 - ph:h - 1][::-1]
        padded[:, :pw] = padded[:, pw + 1:2 * pw + 1][:, ::-1]
        padded[:, pw + w:] = padded[:, w - 1:w + pw - 1][:, ::-1]
        cols.reshape(kh, kw, h, w)[...] = windows
        return kmat @ cols

    def value(u):
        np.log1p(np.multiply(u, u, out=ws), out=ws)
        return rho * float(wts @ ws.sum(axis=1))

    def grad(u):
        den = np.add(1.0, np.multiply(u, u, out=ws), out=ws)
        np.divide(u.reshape(nf, h, w), den.reshape(nf, h, w),
                  out=quot[:, :, :w])
        quot[:, :, w:] = 0.0  # per call, so that a build writes no page
        # every entry of the tap rows, the pad columns as +-0.0
        np.matmul(kt, quot.reshape(nf, h * wp), out=taps_wide)
        # each padded element sums its taps in tap order from +0.0, so it
        # never holds -0.0 and the added pad zeros leave its bits alone;
        # then the border folds onto its mirror sources
        full.fill(0.0)
        for dst, src in adds:
            dst += src
        return (rho * interior).ravel()

    return SmoothOracle(value, grad, forward)


def gaussian_sd_fidelity(H: ConvOperator, g: np.ndarray, a: float,
                         c: float) -> SmoothOracle:
    """Signal-dependent Gaussian discrepancy
    ``1/2 sum ((Hx)_i - g_i)^2 / (a (Hx)_i + c) + log(a (Hx)_i + c)``.

    Scalars ``a, c`` are positive and finite.  The value is ``+inf`` where
    a denominator is not positive, and the gradient raises there and where
    it is not finite; forward pass ``H x``.
    """
    g = np.asarray(g, dtype=float).ravel()
    a, c = float(a), float(c)
    if not (0 < a < np.inf and 0 < c < np.inf):
        raise ValueError("a and c must be positive and finite")

    def value(t):
        den = a * t + c
        if np.min(den) <= 0:
            return np.inf
        r = t - g
        return float(0.5 * np.sum(r * r / den) + np.sum(np.log(den)))

    def grad(t):
        den = a * t + c
        if np.min(den) <= 0:
            raise DomainError("point outside the open domain of the fidelity")
        r = t - g
        with np.errstate(all="ignore"):  # den * den underflows at tiny a, c
            dt = r / den - 0.5 * a * r * r / (den * den) + a / den
        if not np.isfinite(dt).all():
            raise DomainError("gradient of the fidelity is not finite")
        return H.rmatvec(dt)

    # looked up per call, so wrappers on ConvOperator.matvec see it
    return SmoothOracle(value, grad, lambda x: H.matvec(x))


# ---------------------------------------------------------------------------
# noise, metrics, test images


def impulse_noise(x: np.ndarray, fraction: float, seed: int,
                  peak: float) -> np.ndarray:
    """Salt-and-pepper corruption of ``round(fraction * n)`` pixels.

    Half the corrupted pixels go to ``peak`` and half to 0 (odd counts favor
    salt); deterministic given ``seed``.  Pixel values are assumed to live in
    ``[0, peak]``.
    """
    x = np.asarray(x, dtype=float)
    if not (0.0 <= fraction <= 1.0):
        raise ValueError("fraction must lie in [0, 1]")
    n = x.size
    m = int(round(fraction * n))
    out = x.copy().ravel()
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=m, replace=False)
    n_salt = (m + 1) // 2
    out[idx[:n_salt]] = peak
    out[idx[n_salt:]] = 0.0
    return out.reshape(x.shape)


def psnr(x: np.ndarray, ref: np.ndarray, peak: float) -> float:
    """``10 log10(peak^2 n / ||x - ref||^2)`` in dB, capped at 300, summed in
    logarithms so that no positive finite ``peak`` overflows or underflows."""
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        raise ValueError("shape mismatch")
    diff = (x - ref).ravel()
    e = float(np.abs(diff).max(initial=0.0))
    if e == 0.0:
        return 300.0
    diff /= e  # ||diff||^2 now lies in [1, n]
    return min(20.0 * (math.log10(peak) - math.log10(e))
               + 10.0 * math.log10(x.size / float(diff.dot(diff))), 300.0)


def phantom(size: int, peak: float) -> np.ndarray:
    """Piecewise-smooth synthetic test image in ``[0, peak]``."""
    j = np.linspace(-1, 1, size)
    i = j[:, None]  # row coordinate; j broadcasts along the columns
    img = 0.25 + 0.45 * np.exp(-((i + 0.3) ** 2 + (j + 0.3) ** 2) / 0.08)
    img += 0.35 * ((np.abs(i - 0.35) < 0.3) & (np.abs(j - 0.25) < 0.35))
    img += 0.15 * ((i ** 2 + (j - 0.45) ** 2) < 0.04)
    return np.clip(img, 0.0, 1.0) * peak


# ---------------------------------------------------------------------------
# image I/O

def write_pgm(path, img: np.ndarray, peak: float) -> None:
    """8-bit binary PGM (P5, maxval 255); values scaled from [0, peak]."""
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
    data = np.clip(np.rint(img * (255.0 / peak)), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(data.tobytes())


def parse_pgm(raw: bytes) -> np.ndarray:
    """The pixels of the binary PGM file whose bytes are ``raw``."""
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P5":
        raise ValueError("not a binary PGM (P5) file")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError("only maxval 255 supported")
    pos += 1  # single whitespace after maxval
    data = np.frombuffer(raw, dtype=np.uint8, count=h * w, offset=pos)
    return data.reshape(h, w).astype(float)
