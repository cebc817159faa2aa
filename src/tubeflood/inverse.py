"""Recovery of V_w and the measure from a displacement characteristic.

Given the curve G and the support bound alpha_max, the produced-water
profile V_w solves the fixed-point equation

    V(alpha) = G(h(alpha) + (TV)(alpha)) ,

where h collects the curve-endpoint data and T is the integral operator
with kernel K below.  G is 1-Lipschitz and the sup-norm of T is at most
q = (1-kappa)/(1+kappa) < 1, so the solution is unique.

V is represented by its samples on a uniform grid and their
piecewise-linear interpolant.  The kernel integrates against the hat
functions in closed form, so the operator matrix is exact up to rounding.
T integrates from alpha up to alpha_max (a Volterra operator), so that
matrix is upper triangular and the discrete fixed point is solved exactly
by one sweep down from alpha_max, one scalar equation per grid node.

From the recovered V, the harmonic cumulative Phi(alpha) = int_0^alpha
dmu(y)/y follows from V'(alpha) = (1+kappa)/kappa * alpha * Phi(alpha),
and for measures with a continuous density f,

    f(alpha) = kappa/(1+kappa) * alpha * (V'(alpha)/alpha)' .

Note the prefactor: substituting the V' relation shows the inverted form
is required.  The operator is assembled over measures.row_blocks, the same
memory rule as the tail integrals, each row block in place in per-thread
buffers kept from one call to the next (measures._block_buffers, shared
with the tail integrals).  Its one transcendental term, t - arctan t, is a
5-term series wherever t < 0.025, where the remainder is below 2^-53
relative, and arctan on the few other cells.  One operator is cached; a new (n, kappa)
frees it before assembly, so two operators are never held at once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, overflow_guard
from .forward import curve_readoff
from .measures import _block_buffers, check_count, check_kappa, row_blocks

# The cached operator: at most one entry, keyed by (n, kappa).
_OPERATOR = {}

# Rows per block of the back-substitution sweep.
_SWEEP_ROWS = 8

# t - arctan(t) = t^3 (1/3 - t^2/5 + t^4/7 - t^6/9 + t^8/11 - ...): below
# _SERIES_T the next term, t^13/13, is under 2^-53 of the sum.
_SERIES_T = 0.025
_SERIES = tuple((-1) ** k / (2 * k + 3) for k in range(5))


@dataclass(frozen=True)
class RecoveryConfig:
    """Numerical parameters of the inversion.

    n_grid is the number of uniform grid nodes on [0, alpha_max].
    alpha_min is the lower edge of the density reporting window; 0
    disables density recovery (the density formula divides by alpha).
    """

    n_grid: int = 1001
    alpha_min: float = 0.0

    def __post_init__(self):
        check_count("n_grid", self.n_grid, 3)
        if not isinstance(self.alpha_min, (int, float, np.integer, np.floating)):
            raise ArgumentError("alpha_min must be a number >= 0")
        if not self.alpha_min >= 0:
            raise ArgumentError("alpha_min must be >= 0")


@dataclass(eq=False)
class RecoveryResult:
    """Recovered profile plus solver diagnostics.

    residual is sup |V - G(h + TV)| on the grid; contraction_q =
    (1-kappa)/(1+kappa) and error_bound = residual / (1 - q), which bounds
    the distance to the exact discrete fixed point, derive from kappa and
    residual.  phi and f are filled by the cdf/density stages (f is NaN
    outside the density reporting window).  timings holds seconds per
    stage, and operator_cached whether the operator came from the cache.
    iterations is always 1 (the solve is one sweep); it stays only because
    perfbench/ reads it, and invert --diagnostics does not report it.
    """

    iterations = 1

    grid: np.ndarray
    v: np.ndarray
    kappa: float
    residual: float
    phi: np.ndarray | None = None
    phi_clip_count: int | None = None
    f: np.ndarray | None = None
    f_clip_count: int | None = None
    timings: dict | None = None
    operator_cached: bool | None = None

    @property
    def contraction_q(self):
        return (1.0 - self.kappa) / (1.0 + self.kappa)

    @property
    def error_bound(self):
        return self.residual / (1.0 - self.contraction_q)


def _t_minus_arctan(t, out, t2):
    """Write t - arctan(t) for t >= 0 into out, using t2 (t's shape) as scratch.

    The series t^3 (1/3 - t^2/5 + t^4/7 - ...) runs over every cell: below
    _SERIES_T its first len(_SERIES) terms leave a remainder under 2^-53 of
    the sum, where the direct difference would cancel.  The few cells at or
    above _SERIES_T are gathered and take t - arctan(t) instead.
    """
    np.multiply(t, t, out=t2)
    np.multiply(t2, _SERIES[-1], out=out)
    for coeff in _SERIES[-2:0:-1]:
        np.add(out, coeff, out=out)
        np.multiply(out, t2, out=out)
    np.add(out, _SERIES[0], out=out)
    np.multiply(out, t2, out=out)
    np.multiply(out, t, out=out)
    big = np.flatnonzero(t >= _SERIES_T)
    if big.size:
        tb = t.flat[big]
        out.flat[big] = tb - np.arctan(tb)
    return out


def _unit_t_matrix(n, kappa):
    """Exact operator matrix on the unit uniform grid.

    Row i, column j is kappa c alpha_i^4 times the integral of
    phi_j(y) / (y^2 (y^2 - c alpha_i^2)^{3/2}) over [alpha_i, 1], with
    c = 1 - kappa^2 and phi_j the hat function of node j.  In x = y/alpha_i
    the nodes sit at x_m = m/i and the integrand is phi_j / (x^2 u^3),
    u = sqrt(x^2 - c), whose antiderivatives are

        A(x) = int dx / (x^2 u^3) = -(2x^2 - c) / (c^2 x u)
        B(x) = int dx / (x u^3)   = -(1/u + arctan(u/sqrt(c))/sqrt(c)) / c .

    Over the cell [x_m, x_{m+1}] the hat of node m+1 is i (x - x_m), so
    that node gets i (dB - x_m dA) and node m gets the rest of dA.  The
    differences over the cell are taken in forms free of cancellation
    between its ends, in node units: m1 = m, m2 = m + 1 and
    w = i u = sqrt((m - i)(m + i) + (kappa i)^2), so that the powers of i
    collect into per-row factors.  With D = m1 + m2 (= m2^2 - m1^2),
    P = w1 w2, Q = (w1 + w2)(c i^2 + P) and E = m1 w2 + m2 w1,

        a = dA / i^4 = D (m1^2 + m2^2 - c i^2) / (P m1 m2 E (m1 m2 + P))
            dB / i^3 = D / (P Q) + (t - arctan t) / (c^{3/2} i^3),
                   t = sqrt(c) i D / Q ,

    and with r = dB / i^3 - m1 a the cell adds kappa c i^4 (a - r) to node
    m and kappa c i^4 r to node m+1.  Cells below the diagonal (m < i) are
    zeroed before they are added, so the matrix is upper triangular; row 0
    (alpha = 0) is 0.

    Rows are assembled over measures.row_blocks, each block in place with
    out= ufuncs, in six of the calling thread's measures._block_buffers (one
    over the block's nodes, five over its cells): once those have grown, no
    block-sized array is allocated, and threads never share one.
    t - arctan t is a 5-term series on every cell, replaced by arctan on the
    few with t >= _SERIES_T (_t_minus_arctan).

    T is invariant under rescaling alpha -> alpha_max * alpha (kernel gains
    1/alpha_max, cell widths gain alpha_max), so one matrix per (n, kappa)
    serves every alpha_max.  The cache holds one matrix, dropped on a miss
    before the next is built (threads that miss at once may each build one,
    and each gets a correct matrix): the package reuses a single (n, kappa).
    """
    cached = _OPERATOR.get((n, kappa))
    if cached is not None:
        return cached
    _OPERATOR.clear()
    c = 1.0 - kappa * kappa
    sc = math.sqrt(c)
    out = np.zeros((n, n))
    m = np.arange(n, dtype=float)
    msq = m * m
    cell_D = m[:-1] + m[1:]
    cell_mm = m[:-1] * m[1:]
    cell_msq = msq[:-1] + msq[1:]
    below = np.empty((0, 0), dtype=bool)
    for rows in row_blocks(n, n, start=1):
        i0, nr = rows.start, rows.stop - rows.start
        i = np.arange(i0, rows.stop, dtype=float)[:, None]
        i2 = i * i
        ci2 = c * i2
        m1, m2 = m[i0:-1], m[i0 + 1:]
        D, mm = cell_D[i0:], cell_mm[i0:]
        w, *cells = _block_buffers(nr, n - i0, count=6)
        P, Q, t, X, r = (b.ravel()[:w.size - nr].reshape(nr, -1) for b in cells)
        # below the diagonal w is held at its value at m = i, kappa i, so the
        # root stays real; those cells are zeroed before they are added
        np.subtract(msq[i0:], i2, out=w)
        np.maximum(w[:, :nr], 0.0, out=w[:, :nr])
        np.add(w, (kappa * i) ** 2, out=w)
        np.sqrt(w, out=w)
        w1, w2 = w[:, :-1], w[:, 1:]
        np.multiply(w1, w2, out=P)
        np.add(P, ci2, out=X)
        np.add(w1, w2, out=Q)
        np.multiply(Q, X, out=Q)
        np.multiply(D, sc * i, out=t)
        np.divide(t, Q, out=t)
        # r = dB / i^3, less m1 a below
        _t_minus_arctan(t, r, X)
        np.multiply(r, 1.0 / (c * sc * i * i2), out=r)
        np.multiply(P, Q, out=X)
        np.divide(D, X, out=X)
        np.add(r, X, out=r)
        # a = dA / i^4, into t
        np.multiply(m1, w2, out=X)
        np.multiply(m2, w1, out=Q)
        np.add(X, Q, out=X)
        np.add(P, mm, out=Q)
        np.multiply(X, Q, out=X)
        np.multiply(X, P, out=X)
        np.multiply(X, mm, out=X)
        np.subtract(cell_msq[i0:], ci2, out=t)
        np.multiply(t, D, out=t)
        np.divide(t, X, out=t)
        np.multiply(m1, t, out=X)
        np.subtract(r, X, out=r)
        if below.shape[0] < nr:     # cell j of row i0 + k is below if j < k
            below = np.tri(nr, nr, -1, dtype=bool)
        below_here = below[:nr, :min(nr, n - i0 - 1)]
        np.copyto(t[:, :nr], 0.0, where=below_here)
        np.copyto(r[:, :nr], 0.0, where=below_here)
        scale = kappa * c * (i2 * i2)
        np.subtract(t, r, out=t)
        np.multiply(t, scale, out=out[rows, i0:-1])
        np.multiply(r, scale, out=r)
        np.add(out[rows, i0 + 1:], r, out=out[rows, i0 + 1:])
    out.setflags(write=False)
    _OPERATOR[(n, kappa)] = out
    return out


def apply_T(v, kappa, alpha_max):
    """Apply the integral operator to samples of V on the uniform grid.

    v holds the values of V at linspace(0, alpha_max, len(v)); the result
    samples TV on the same grid, with (TV)(alpha_max) = 0 exactly.
    """
    kappa = check_kappa(kappa)
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ArgumentError("v must be a 1-d array of >= 2 grid samples")
    if not alpha_max > 0:
        raise ArgumentError("alpha_max must be > 0")
    return _unit_t_matrix(v.size, kappa) @ v


def h_of_alpha(v_w_max, v_w_prime_max, kappa, alpha_max, alpha):
    """Inhomogeneous term h(alpha) built from the curve endpoint data.

    With R(alpha) = sqrt(alpha_max^2 - (1-kappa^2) alpha^2):

        h = kappa/(1-kappa^2) (alpha_max - R) V_w'(alpha_max)
          + kappa/(1-kappa^2) (alpha_max - R)^2 / (alpha_max R) V_w(alpha_max)

    v_w_max and v_w_prime_max are V_w(alpha_max) and V_w'(alpha_max), as
    curve_readoff returns them.  h is evaluated in units of alpha_max, so
    no square of alpha_max can overflow, and alpha_max - R without
    cancellation: with r2 = (1-kappa^2) (alpha/alpha_max)^2 and
    rho = sqrt(1 - r2), gap = r2/(1+rho) = (alpha_max - R)/alpha_max and
    h = kappa/(1-kappa^2) gap (alpha_max V_w' + gap/rho V_w).
    """
    kappa = check_kappa(kappa)
    if not 0 < alpha_max:
        raise ArgumentError("alpha_max must be > 0")
    a = np.asarray(alpha, dtype=float)
    if np.any(a < 0) or np.any(a > alpha_max * (1 + 1e-12)):
        raise ArgumentError("alpha must lie in [0, alpha_max]")
    c = 1.0 - kappa * kappa
    u = a / alpha_max
    r2 = c * u * u
    rho = np.sqrt(1.0 - r2)
    gap = r2 / (1.0 + rho)
    return kappa / c * gap * (alpha_max * v_w_prime_max + gap / rho * v_w_max)


def _back_substitute(M, h, x, g):
    """V with V_i = G(h_i + sum_j M[i, j] V_j) for upper triangular M.

    G interpolates (x, g) piecewise-linearly and is constant outside
    [x_0, x_last]; M[i, i] * slope < 1 on every segment of G.  Rows are
    solved from the last up, in blocks of _SWEEP_ROWS: the part of
    b_i = h_i + M[i, i+1:] V[i+1:] from rows of earlier blocks is one
    matrix-vector product per block, the rest a scalar sum inside it.
    Row i then reads V_i = G(b + d V_i) with d = M[i, i]: s - d G(s)
    increases with s, so the segment of G holding s = b + d V_i is the
    k with knot(k) <= b < knot(k+1), knot(k) = x_k - d g_k, and one linear
    solve on it gives V_i.  k starts from the previous row's segment and
    walks to this row's; s moves little from one row to the next, so the
    whole walk costs about one pass over the curve.
    """
    n = h.size
    xs, gs = x.tolist(), g.tolist()
    slope = (np.diff(g) / np.diff(x)).tolist()
    diag = M.diagonal().tolist()
    hs = h.tolist()
    last = len(xs) - 1
    v = np.zeros(n)
    k = last
    for i1 in range(n, 0, -_SWEEP_ROWS):
        i0 = max(i1 - _SWEEP_ROWS, 0)
        m = i1 - i0
        solved = (M[i0:i1, i1:] @ v[i1:]).tolist()
        block = M[i0:i1, i0:i1].tolist()
        vb = [0.0] * m
        for r in range(m - 1, -1, -1):
            row = block[r]
            acc = solved[r]
            for j in range(r + 1, m):
                acc += row[j] * vb[j]
            b = hs[i0 + r] + acc
            d = diag[i0 + r]
            while k >= 0 and b < xs[k] - d * gs[k]:
                k -= 1
            while k < last and xs[k + 1] - d * gs[k + 1] <= b:
                k += 1
            if k < 0:            # G is constant outside [0, v_max]
                vb[r] = gs[0]
            elif k == last:
                vb[r] = gs[last]
            else:
                knot = xs[k] - d * gs[k]
                vb[r] = gs[k] + slope[k] * (b - knot) / (1.0 - d * slope[k])
        v[i0:i1] = vb
    return v


def solve_fixed_point(curve, config=None):
    """Solve the discrete V = G(h + MV) exactly, by back-substitution.

    M is upper triangular, so once the nodes above i are known, row i is a
    scalar equation V_i = G(b + d V_i) on the piecewise-linear G.  Since G
    is 1-Lipschitz and d = M[i, i] < 1, it has one solution, on the segment
    of G found by walking from the previous row's segment; marching from
    alpha_max down in row blocks solves every row in one sweep
    (``_back_substitute``).

    Returns a RecoveryResult holding V, with timings of the assembly (or
    the cache lookup; operator_cached tells which) and of the solve, in
    perf_counter seconds (see ``recover`` for the full pipeline).
    """
    n, kappa = (config or RecoveryConfig()).n_grid, curve.kappa
    cached = (n, kappa) in _OPERATOR
    start = time.perf_counter()
    try:
        M = _unit_t_matrix(n, kappa)
    except ValueError as exc:       # numpy cannot even describe an n x n array
        raise ArgumentError(f"n_grid={n} is too large: {exc}") from exc
    assembled = time.perf_counter()
    grid = np.linspace(0.0, curve.alpha_max, n)
    h = h_of_alpha(*curve_readoff(curve), kappa, curve.alpha_max, grid)
    v = _back_substitute(M, h, curve.x, curve.g)

    return RecoveryResult(
        grid=grid,
        v=v,
        kappa=kappa,
        residual=float(np.max(np.abs(v - curve(h + M @ v)))),
        timings={
            "assembly": assembled - start, "solve": time.perf_counter() - assembled
        },
        operator_cached=cached,
    )


def recover_cdf(grid, v, kappa):
    """Harmonic cumulative Phi from recovered V samples.

    Phi(alpha) = kappa V'(alpha) / ((1+kappa) alpha), with V' by
    second-order differences (one-sided at the ends) and Phi(0) = 0.
    Noise-induced decreases are clipped to the running maximum; the clip
    count is returned alongside.
    """
    kappa = check_kappa(kappa)
    grid = np.asarray(grid, dtype=float)
    v = np.asarray(v, dtype=float)
    spacing = grid[1] - grid[0]
    vp = np.gradient(v, spacing, edge_order=2)
    raw = np.zeros_like(v)
    raw[1:] = kappa * vp[1:] / ((1.0 + kappa) * grid[1:])
    phi = np.maximum.accumulate(raw)
    return phi, int(np.sum(phi > raw))


def recover_density(grid, v, kappa, alpha_min):
    """Density samples f on the window [alpha_min, alpha_max - 2h].

    f(alpha) = kappa/(1+kappa) alpha (V'(alpha)/alpha)' via second-order
    stencils; NaN outside the window, negatives clipped to 0 inside (count
    returned).  Only meaningful when the measure has a continuous density.
    The stencils are taken on the unit grid u = alpha / alpha_max and the
    result scaled once by 1 / alpha_max^2, so f stays finite wherever it
    is a double: in units of alpha, (V'/alpha)' alone scales as
    1 / alpha_max^3 and overflowed from alpha_max near 1e-103.
    """
    kappa = check_kappa(kappa)
    grid = np.asarray(grid, dtype=float)
    v = np.asarray(v, dtype=float)
    if not alpha_min > 0:
        raise ArgumentError("alpha_min must be > 0 (density formula divides by alpha)")
    if not alpha_min < grid[-1]:
        raise ArgumentError("alpha_min must be below alpha_max")
    alpha_max = grid[-1]
    spacing = grid[1] - grid[0]
    window = (grid >= alpha_min) & (grid <= alpha_max - 2.0 * spacing * (1 - 1e-12))
    f = np.full_like(v, np.nan)
    if not window.any():   # at n_grid 3 the stencils have too few nodes
        return f, 0
    unit = grid / alpha_max
    du = unit[1] - unit[0]
    vp = np.gradient(v, du, edge_order=2)
    w = vp[1:] / unit[1:]
    wp = np.gradient(w, du, edge_order=2)
    f[1:] = kappa / (1.0 + kappa) * unit[1:] * wp / alpha_max / alpha_max
    f[~window] = np.nan
    negative = window & (f < 0.0)
    f[negative] = 0.0
    return f, int(np.sum(negative))


def recover(curve, config=None):
    """Full pipeline: fixed point, then Phi, then (optionally) the density.

    The result's timings holds the perf_counter seconds of each stage that
    ran: assembly and solve (from solve_fixed_point), cdf and, with
    alpha_min > 0, density.  Phi and f scale as v_max / alpha_max^2; both
    stages run under errors.overflow_guard, so a value of either that
    overflows a double (a tiny alpha_max) raises ArgumentError.
    """
    cfg = config or RecoveryConfig()
    result = solve_fixed_point(curve, cfg)
    grid, v, kappa = result.grid, result.v, result.kappa
    with overflow_guard(f"Phi or f at alpha_max={curve.alpha_max}"):
        start = time.perf_counter()
        result.phi, result.phi_clip_count = recover_cdf(grid, v, kappa)
        result.timings["cdf"] = time.perf_counter() - start
        if cfg.alpha_min > 0:
            start = time.perf_counter()
            result.f, result.f_clip_count = recover_density(
                grid, v, kappa, cfg.alpha_min
            )
            result.timings["density"] = time.perf_counter() - start
    return result
