"""Recovery of V_w and the measure from a displacement characteristic.

Given the curve G and the support bound alpha_max, the produced-water
profile V_w solves the fixed-point equation

    V(alpha) = G(h(alpha) + (TV)(alpha)) ,

where h collects the curve-endpoint data and T is the integral operator
with kernel K below.  G is 1-Lipschitz and the sup-norm of T is at most
q = (1-kappa)/(1+kappa) < 1, so the solution is unique.

V is represented by its samples on a uniform grid and their
piecewise-linear interpolant.  The kernel integrates against the hat
functions in closed form, so every entry of the operator matrix M is exact
up to rounding.  T integrates from alpha up to alpha_max (a Volterra
operator), so M is upper triangular and the discrete fixed point is
solved exactly by one sweep down from alpha_max, one scalar equation per
grid node.

M is never formed as an n x n array.  It is held on a tree of its rows,
the one the atom tails of measures sum over: [0, n) is halved down to
leaves of at most 40 rows.  A span whose rows lie in [a, b], of width w,
takes as its far field the columns from the first whose hat lies at or
above both b and sqrt(c) (b + w), c = 1 - kappa^2, up to the column its
ancestors took.  Over those columns each entry over kappa c alpha^4 is
analytic in alpha, with its one singularity, at y / sqrt(c), 3
half-widths past the span's middle, so the span stores these quotients
at 20 Chebyshev rows and interpolates them to its rows to rounding
(Trefethen, Approximation Theory and Approximation Practice, Thm 8.2;
the bound is worked out at _tree).  The quotient stays finite as
alpha -> 0, so each entry keeps its relative digits, and row 0 is
exactly 0.  A leaf holds its rows exactly and densely, from its diagonal
block up to the column its ancestors took.  Memory and build time grow
as n log n: 5-10% of n^2 doubles at n = 2001, less for larger kappa, and
108-182 MB of peak RSS at n = 50001, where M would take 20 GB.  Leaves
and the far fields' rows all come from one cell function, _cells, each
evaluated in place in per-thread buffers kept from one call to the next
(measures._block_buffers, shared with the tail integrals).  _cells is
also the one place that gives the cell past alpha_max no left part, so
no caller fixes up a cell or a slot.  The cells' one transcendental
term, t - arctan t, is a 5-term series wherever t < 0.025, where the
remainder is below 2^-53 relative, and arctan on the few other cells.
A leaf evaluates only its cells on and above the diagonal.  The sweep
solves the leaves from alpha_max down (Hairer, Lubich and Schlichte,
SIAM J. Sci. Stat. Comput. 6, 1985); before the leaf that ends where a
span ends, the span's far columns are all solved, and its interpolated
far field goes into its rows' right-hand side.  The residual and apply_T
multiply by the same operator, so residual and error_bound measure the
discrete system with the stored far fields; their own distance from the
exact M, up to about 3e-12 of a row's largest entry at n = 2001 with
the cells' rounding, is not in them.  One operator is cached; a new
(n, kappa) frees it before the build, so two are never held at once.

From the recovered V, the harmonic cumulative Phi(alpha) = int_0^alpha
dmu(y)/y follows from V'(alpha) = (1+kappa)/kappa * alpha * Phi(alpha),

    Phi(alpha) = kappa/(1+kappa) * V'(alpha) / alpha ,

and a measure with a continuous density f has dPhi = f(alpha) dalpha / alpha,
so that

    f(alpha) = alpha * Phi'(alpha) .

The prefactor kappa/(1+kappa) appears once, in Phi.  The paper prints the
density formula as (1+kappa)/kappa * alpha * (V'/alpha)', with the prefactor
inverted, which scales f by ((1+kappa)/kappa)^2 and fails the round trip.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, overflow_guard
from .forward import curve_readoff
from . import measures
from .measures import _block_buffers, check_count, check_kappa, row_blocks

# The cached operator: at most one entry, keyed by (n, kappa).
_OPERATOR = {}

# Rows per sub-block of a leaf's back-substitution sweep.
_SWEEP_ROWS = 8

# Rows of a leaf of the operator's tree, at most: the atom tails' leaf
# size, below which a far field at measures._FAR_POINTS rows would save
# at most half of the cells it replaces.
_LEAF = measures._LEAF_LIMITS

# _cells makes some 15 temporaries per call, so its calls take row blocks
# of a third of the cells: a temporary then stays under 128 KiB, glibc's
# default threshold for fresh pages per allocation.  With whole-block calls
# (_CELL_WORK = 1) a build at n_grid 2001 and kappa 0.1 took 1965 minor
# faults against 1214, and a fresh process ran a median 6% slower.
_CELL_WORK = 3

# The closed forms square node indices, exactly in doubles only below 2^26.
_MAX_GRID = 1 << 26

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
        if self.n_grid > _MAX_GRID:
            raise ArgumentError(
                f"n_grid must be at most 2**26, got {self.n_grid}: the operator "
                "squares node indices, exact in doubles only up to there"
            )
        if isinstance(self.alpha_min, bool) or not isinstance(
            self.alpha_min, (int, float, np.integer, np.floating)
        ):
            raise ArgumentError("alpha_min must be a number >= 0")
        if not self.alpha_min >= 0:
            raise ArgumentError("alpha_min must be >= 0")


@dataclass(eq=False)
class RecoveryResult:
    """Recovered profile plus solver diagnostics.

    residual is sup |V - G(h + TV)| on the grid, T the stored operator
    (whose far fields' own distance from the exact one it leaves out);
    contraction_q = (1-kappa)/(1+kappa) and error_bound = residual /
    (1 - q), which bounds the distance to that operator's discrete fixed
    point, derive from kappa and residual.  phi and f are filled by the
    cdf/density stages (f is NaN outside the density reporting window).
    timings holds seconds per stage, and operator_cached whether the
    operator came from the cache.
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


def _cells(i, m, kappa, n):
    """The cells [m, m+1] of rows i: their contributions to their two
    nodes, over kappa c i^4.

    i and m are float node indices that broadcast to the cells' shape, with
    0 < i <= m: the upper triangle.  The rows need not be integers: a far
    field takes its Chebyshev rows, and at alpha = 0, where this divides
    by i, the quotient's limit, at i = 2^-100.  Returns (left, right)
    = (a - r, r), whose multiples by kappa c i^4 are the parts of M[i, m]
    and M[i, m+1] that the cell adds (see _unit_t_matrix), as views on this
    thread's measures._block_buffers that the next call overwrites.  On an
    n-node grid the cell n - 1 lies past alpha_max, and its left part is 0:
    this is the one place that rule is applied.  Each cell takes one fixed
    sequence of operations, so its value does not depend on the shape or
    grouping of a call.  The factors of i alone and of m alone are taken at
    their own shapes: a leaf passes one i per cell, and a rectangle of
    _columns one i per row and one m per cell.
    """
    c = 1.0 - kappa * kappa
    sc = math.sqrt(c)
    shape = np.broadcast(i, m).shape
    w1, w2, P, Q, t, X, r = _block_buffers(1, math.prod(shape), count=7).reshape(
        (7,) + shape
    )
    i2 = i * i
    ci2 = c * i2
    ki2 = (kappa * i) ** 2
    m2 = m + 1.0
    sq1, sq2 = m * m, m2 * m2
    for w, sq in ((w1, sq1), (w2, sq2)):   # w = i u at the cell's two ends
        np.subtract(sq, i2, out=w)
        np.add(w, ki2, out=w)
        np.sqrt(w, out=w)
    D = m + m2
    mm = m * m2
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
    np.multiply(m, w2, out=X)
    np.multiply(m2, w1, out=Q)
    np.add(X, Q, out=X)
    np.add(P, mm, out=Q)
    np.multiply(X, Q, out=X)
    np.multiply(X, P, out=X)
    np.multiply(X, mm, out=X)
    np.add(sq1, sq2, out=t)
    np.subtract(t, ci2, out=t)
    np.multiply(t, D, out=t)
    np.divide(t, X, out=t)
    np.multiply(m, t, out=X)
    np.subtract(r, X, out=r)
    np.subtract(t, r, out=t)
    np.copyto(t, 0.0, where=m == n - 1)      # past alpha_max
    return t, r


def _tree(n, kappa):
    """The tree over the rows [0, n): its leaves and its far parts.

    A span of more than _LEAF rows splits at mid = (lo + hi) // 2.  A span
    whose rows lie in [a, b] = [lo, hi - 1], of width w, takes as its far
    field the columns from j up to top, the column its ancestors took
    (n at the root): j is the first column whose hat [j - 1, j + 1] lies
    at or above both b and sqrt(c) (b + w).  Returns the leaves' (lo, hi,
    top) from the top of the grid down, the order the sweep solves them
    in, and the far parts' (lo, hi, j, top), those with j < top.

    The separation: over a column's hat, which lies above every row of
    the span, M[alpha, j] / (kappa c alpha^4) is an integral of the hat
    against 1 / (y^2 (y^2 - c alpha^2)^{3/2}), analytic in alpha but at
    alpha = +-y / sqrt(c), y in the hat.  The nearest lies at alpha >=
    b + w, t >= 3 in the span's coordinate t in [-1, 1], so the column
    is analytic inside the Bernstein ellipse of rho = 3 + sqrt(8) = 5.83,
    and its interpolant in measures._FAR_POINTS = 20 Chebyshev rows
    converges as rho^-20, 5e-16 (Trefethen, Approximation Theory and
    Approximation Practice, Thm 8.2), as for the atom tails.  For a hat
    exactly at the separation, on a span 40 hats wide, the interpolant is
    within 5.3e-15 relative of 40-digit values at kappa 1e-6 and 0.5, and
    18 points would give 1.7e-13 (the FAR_HAT table of the tests pins
    it).  sqrt(c) is formed as sqrt((1 - kappa)(1 + kappa)), without a
    rounded 1 - kappa^2.
    """
    sc = math.sqrt((1.0 - kappa) * (1.0 + kappa))
    leaves, far = [], []
    pending = [(0, n, n)]
    while pending:             # depth first, the top half first
        lo, hi, top = pending.pop()
        if hi - lo <= _LEAF:
            leaves.append((lo, hi, top))
            continue
        b, w = hi - 1, hi - 1 - lo
        j = min(max(b, math.ceil(sc * (b + w))) + 1, top)
        if j < top:
            far.append((lo, hi, j, top))
        mid = (lo + hi) // 2
        pending += [(lo, mid, j), (mid, hi, j)]
    return leaves, far


def _leaves(n, kappa, spans):
    """The leaves' rows M[lo:hi, lo:top], holding their exact diagonal
    blocks M[lo:hi, lo:hi] and 0 past them, as views on one array.

    Only the cells on and above the diagonal are evaluated: row i of a
    leaf takes the cells i, ..., hi - 1, listed flat over row_blocks of the
    leaves.  Cell m adds its left part to column m and its right part to
    column m + 1, so M[i, j] is left(j) + right(j - 1), the sum of two
    neighbours in the list; the right part of a row's last cell falls in
    the near columns past the block, which _columns fills.  Row 0 and the
    cells below the diagonal are 0, and _cells gives the cell n - 1 past
    alpha_max no left part.
    """
    lo, hi, top = np.array(spans).T
    size, width = int(np.max(hi - lo)), top - lo
    start = np.concatenate(([0], np.cumsum((hi - lo) * width)))
    flat = np.zeros(start[-1])
    kc = kappa * (1.0 - kappa * kappa)
    # the cells (i, m) = (lo + r, lo + c) of each leaf, r <= c < its size
    r, c = np.triu_indices(size)
    for g in row_blocks(lo.size, r.size * _CELL_WORK):
        i, m = lo[g, None] + r, lo[g, None] + c
        pos = start[g, None] + r * width[g, None] + c
        live = (c < (hi - lo)[g, None]) & (i >= 1)
        i, m, pos = i[live].astype(float), m[live].astype(float), pos[live]
        diagonal = np.broadcast_to(r == c, live.shape)[live]
        left, right = _cells(i, m, kappa, n)
        scale = kc * ((i * i) * (i * i))
        np.multiply(left, scale, out=left)
        np.multiply(right, scale, out=right)
        # M[i, j] = left(j) + right(j - 1), the cells of a row being listed in turn
        np.add(left[1:], right[:-1], out=left[1:], where=~diagonal[1:])
        flat[pos] = left
    return [flat[s:e].reshape(b - a, w)
            for s, e, a, b, w in zip(start[:-1], start[1:], lo, hi, width)]


def _columns(i, j, top, kappa, n):
    """M[i, j:top] / (kappa c i^4) for the rows i, a 1-d float array with
    0 < i <= j - 1, as a new (rows, top - j) array.

    Column m is left(m) + right(m - 1) of the cells [j - 1, top), taken as
    (rows, 1) x (cells,) rectangles of _cells over slices of the columns
    (each with the cell before its first), so that a call holds at most a
    _CELL_WORK-th of measures._BLOCK_CELLS cells.  The rows need not be
    integers: the far parts take theirs at Chebyshev points.
    """
    out = np.empty((i.size, top - j))
    m = np.arange(j - 1.0, top)
    for s in row_blocks(top - j, i.size * _CELL_WORK):
        left, right = _cells(i[:, None], m[s.start:s.stop + 1], kappa, n)
        np.add(left[:, 1:], right[:, :-1], out=out[:, s])
    return out


class _Operator:
    """The operator matrix M of _unit_t_matrix, on the tree of its rows.

    leaves holds (lo, hi, L), L = M[lo:hi, lo:top] dense and exact: the
    leaf's diagonal block and its near columns [hi, top), up to the
    column its ancestors took.  far holds (lo, hi, j, top, F, B, scale)
    with M[lo:hi, j:top] = (B @ F) * scale[:, None]: F holds M / (kappa c
    alpha^4) at the span's _FAR_POINTS Chebyshev rows, B (rows, points)
    is the barycentric basis at its rows (one per row count) and scale is
    kappa c i^4.  Every other entry of M is 0.  The leaves run from the
    top of the grid down, the order in which sweep solves them.
    """

    def __init__(self, n, kappa):
        leaves, far = _tree(n, kappa)
        self.n = n
        kc = kappa * (1.0 - kappa * kappa)
        i = np.arange(float(n))
        row_scale = kc * ((i * i) * (i * i))
        self.leaves = []
        for (lo, hi, top), L in zip(leaves, _leaves(n, kappa, leaves)):
            rows = slice(max(lo, 1), hi)       # row 0 stays 0
            if hi < top:
                L[rows.start - lo:, hi - lo:] = (
                    _columns(i[rows], hi, top, kappa, n) * row_scale[rows, None])
            self.leaves.append((lo, hi, L))
        basis = {}
        self.far = []
        for lo, hi, j, top in far:
            s = hi - lo
            if s not in basis:
                B = np.empty((measures._FAR_POINTS, s))
                basis[s] = measures._far_basis(np.arange(s) / (s - 1.0), B).T.copy()
            # the Chebyshev rows; at alpha = 0 the quotient's limit, taken at 2^-100
            x = np.maximum(lo + (s - 1.0) * measures._FAR_NODES, 2.0 ** -100)
            F = _columns(x, j, top, kappa, n)
            self.far.append((lo, hi, j, top, F, basis[s], row_scale[lo:hi]))
        # the far parts by row count, (B, rows, scale, parts): the spans of one
        # level of the tree hold n / 2^k rows, rounded either way, so those of
        # one count past _LEAF lie on one level and their rows are disjoint
        self._groups = []
        for s, B in basis.items():
            parts = [p for p in self.far if p[1] - p[0] == s]
            rows = np.array([p[0] for p in parts])[:, None] + np.arange(s)
            self._groups.append((B, rows, row_scale[rows], [p[2:5] for p in parts]))
        self._far_by_hi = {}
        for part in self.far:
            self._far_by_hi.setdefault(part[1], []).append(part)

    def matvec(self, v):
        """M v."""
        y = np.empty(self.n)
        for lo, hi, L in self.leaves:
            np.dot(L, v[lo:lo + L.shape[1]], out=y[lo:hi])
        for B, rows, scale, parts in self._groups:
            coef = np.empty((len(parts), B.shape[1]))
            for c, (j, top, F) in zip(coef, parts):
                np.dot(F, v[j:top], out=c)
            y[rows] += (coef @ B.T) * scale
        return y

    def sweep(self, h, x, g):
        """V with V_i = G(h_i + (M V)_i), by one Volterra sweep down the leaves.

        G interpolates (x, g) piecewise-linearly and is constant outside
        [x_0, x_last]; M[i, i] * slope < 1 on every segment of G.  The
        leaves are solved in turn, from the top of the grid down.  When the
        sweep reaches the leaf ending at hi, the far columns [j, top) of
        every span that ends at hi are all solved and none of its rows is
        yet, so each such span's (B (F v[j:top])) kappa c i^4 goes into its
        rows' right-hand sides first.
        A leaf solves its rows from the last up, in sub-blocks of
        _SWEEP_ROWS: the part of b from the leaf's near columns and the
        rows of earlier sub-blocks is one matrix-vector product, the rest
        a scalar sum.
        Row i then reads V_i = G(b + d V_i) with d = M[i, i], read from
        the sub-block's row that gives b.  The knot lists start with
        (x_0, g_0) twice and the slopes s_k have a 0 at each end, so
        segment 0 is the flat ray below x_0 and segment last the flat ray
        past x_last.  s - d G(s) increases with s, so the segment of G
        holding s = b + d V_i is the k with knot(k) <= b < knot(k+1),
        knot(k) = x_k - d g_k, and every row takes the one linear solve
        V_i = g_k + s_k (b - knot(k)) / (1 - d s_k).  k starts from the
        previous row's segment, across leaves too, and walks to this row's;
        s moves little from one row to the next, so the whole walk costs
        about one pass over the curve.
        """
        xs, gs = x[:1].tolist() + x.tolist(), g[:1].tolist() + g.tolist()
        slope = [0.0] + (np.diff(g) / np.diff(x)).tolist() + [0.0]
        last = len(xs) - 1
        rhs = np.array(h, dtype=float)
        v = np.zeros(self.n)
        k = last
        for lo, hi, L in self.leaves:
            for plo, _, j, top, F, B, scale in self._far_by_hi.get(hi, ()):
                part = rhs[plo:hi]
                part += np.dot(B, np.dot(F, v[j:top])) * scale
            top = lo + L.shape[1]
            for i1 in range(hi - lo, 0, -_SWEEP_ROWS):
                i0 = max(i1 - _SWEEP_ROWS, 0)
                m = i1 - i0
                solved = (rhs[lo + i0:lo + i1] + L[i0:i1, i1:] @ v[lo + i1:top]).tolist()
                block = L[i0:i1, i0:i1].tolist()
                vb = [0.0] * m
                for r in range(m - 1, -1, -1):
                    row = block[r]
                    b = solved[r]
                    for j in range(r + 1, m):
                        b += row[j] * vb[j]
                    d = row[r]
                    while k > 0 and b < xs[k] - d * gs[k]:
                        k -= 1
                    while k < last and xs[k + 1] - d * gs[k + 1] <= b:
                        k += 1
                    knot = xs[k] - d * gs[k]
                    vb[r] = gs[k] + slope[k] * (b - knot) / (1.0 - d * slope[k])
                v[lo + i0:lo + i1] = vb
        return v


def _unit_t_matrix(n, kappa):
    """The exact operator matrix on the unit uniform grid, as an _Operator.

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
    m and kappa c i^4 r to node m+1 (_cells gives a - r and r).  Cells below the diagonal
    (m < i) add nothing, so the matrix is upper triangular; row 0
    (alpha = 0) is 0.  t - arctan t is a 5-term series on every cell,
    replaced by arctan on the few with t >= _SERIES_T (_t_minus_arctan).

    No n x n array is formed: _tree halves the rows [0, n) down to leaves
    of at most _LEAF rows, each held exactly from its diagonal up to the
    column its ancestors took (_leaves, _columns), and each span keeps its
    far columns as their quotients by kappa c alpha^4 at its Chebyshev
    rows (_columns), all from _cells.

    T is invariant under rescaling alpha -> alpha_max * alpha (kernel gains
    1/alpha_max, cell widths gain alpha_max), so one operator per (n, kappa)
    serves every alpha_max.  The cache holds one operator, dropped on a miss
    before the next is built (threads that miss at once may each build one,
    and each gets a correct operator): the package reuses a single
    (n, kappa).
    """
    cached = _OPERATOR.get((n, kappa))
    if cached is not None:
        return cached
    _OPERATOR.clear()
    op = _OPERATOR[(n, kappa)] = _Operator(n, kappa)
    return op


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
    return _unit_t_matrix(v.size, kappa).matvec(v)


def h_of_alpha(v_w_max, v_w_prime_max, kappa, alpha_max, alpha):
    """Inhomogeneous term h(alpha) built from the curve endpoint data.

    With R(alpha) = sqrt(alpha_max^2 - (1-kappa^2) alpha^2):

        h = kappa/(1-kappa^2) (alpha_max - R) V_w'(alpha_max)
          + kappa/(1-kappa^2) (alpha_max - R)^2 / (alpha_max R) V_w(alpha_max)

    v_w_max and v_w_prime_max are V_w(alpha_max) and V_w'(alpha_max), as
    curve_readoff returns them.  h is evaluated in units of alpha_max, so
    no square of alpha_max can overflow, and alpha_max - R without
    cancellation: with u = alpha/alpha_max, r2 = (1-kappa^2) u^2 and
    rho = R/alpha_max = sqrt((1 - u)(1 + u) + (kappa u)^2), formed from
    its nonnegative parts so that no rounded 1 - kappa^2 is subtracted,
    gap = r2/(1+rho) = (alpha_max - R)/alpha_max and
    h = kappa/(1-kappa^2) gap (alpha_max V_w' + gap/rho V_w).
    """
    kappa = check_kappa(kappa)
    if not 0 < alpha_max < math.inf:
        raise ArgumentError("alpha_max must be > 0 and finite")
    a = np.asarray(alpha, dtype=float)
    if not np.all((0 <= a) & (a <= alpha_max * (1 + 1e-12))):
        raise ArgumentError("alpha must lie in [0, alpha_max]")
    c = 1.0 - kappa * kappa
    u = a / alpha_max
    r2 = c * u * u
    rho = np.sqrt((1.0 - u) * (1.0 + u) + (kappa * u) ** 2)
    gap = r2 / (1.0 + rho)
    return kappa / c * gap * (alpha_max * v_w_prime_max + gap / rho * v_w_max)


def solve_fixed_point(curve, config=None):
    """Solve the discrete V = G(h + MV) exactly, by one sweep.

    M is upper triangular, so once the nodes above i are known, row i is a
    scalar equation V_i = G(b + d V_i) on the piecewise-linear G.  Since G
    is 1-Lipschitz and d = M[i, i] < 1, it has one solution, on the segment
    of G found by walking from the previous row's segment; the sweep over
    the operator's leaves (``_Operator.sweep``) solves every row from
    alpha_max down.  The residual applies the same operator.

    Returns a RecoveryResult holding V, with timings of the assembly (or
    the cache lookup; operator_cached tells which) and of the solve, in
    perf_counter seconds (see ``recover`` for the full pipeline).
    """
    n, kappa = (config or RecoveryConfig()).n_grid, curve.kappa
    grid = np.linspace(0.0, curve.alpha_max, n)
    cached = (n, kappa) in _OPERATOR
    start = time.perf_counter()
    M = _unit_t_matrix(n, kappa)
    assembled = time.perf_counter()
    h = h_of_alpha(*curve_readoff(curve), kappa, curve.alpha_max, grid)
    v = M.sweep(h, curve.x, curve.g)

    return RecoveryResult(
        grid=grid,
        v=v,
        kappa=kappa,
        residual=float(np.max(np.abs(v - curve(h + M.matvec(v))))),
        timings={
            "assembly": assembled - start, "solve": time.perf_counter() - assembled
        },
        operator_cached=cached,
    )


def _phi(grid, v, kappa):
    """Phi = kappa V' / ((1+kappa) alpha) on the grid, before any clip.

    V' is taken by second-order differences (one-sided at the ends) on the
    unit grid u = alpha / alpha_max, Phi(0) = 0, and the result is scaled
    once by 1 / alpha_max^2, so that Phi and the density read off it stay
    finite wherever they are doubles: in units of alpha, the density's
    (V'/alpha)' alone scales as 1 / alpha_max^3 and overflowed from
    alpha_max near 1e-103.  The stencils take one spacing, so grid and v
    must be finite 1-d arrays of one length >= 3, and the grid must run
    from 0 to grid[-1] > 0 in steps that spread by at most 1e-6 of the
    first (rounding moves a linspace step by about n_grid * 3e-16 of it).
    """
    grid = np.asarray(grid, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (grid.ndim == v.ndim == 1 and grid.size == v.size >= 3):
        raise ArgumentError("grid and v must be 1-d arrays of one length >= 3")
    if not (np.isfinite(grid).all() and np.isfinite(v).all()):
        raise ArgumentError("grid and v must be finite")
    step = np.diff(grid)
    if not (grid[0] == 0.0 < step[0] and np.ptp(step) <= 1e-6 * step[0]):
        raise ArgumentError("grid must run evenly from 0 to grid[-1] > 0")
    alpha_max = grid[-1]
    unit = grid / alpha_max
    vp = np.gradient(v, unit[1], edge_order=2)
    phi = np.zeros_like(v)
    phi[1:] = kappa / (1.0 + kappa) * vp[1:] / unit[1:] / alpha_max / alpha_max
    return phi


def recover_cdf(grid, v, kappa):
    """Harmonic cumulative Phi from recovered V samples.

    Phi(alpha) = kappa V'(alpha) / ((1+kappa) alpha), as _phi forms it.
    Noise-induced decreases are clipped to the running maximum; the clip
    count is returned alongside.
    """
    raw = _phi(grid, v, check_kappa(kappa))
    phi = np.maximum.accumulate(raw)
    return phi, int(np.sum(phi > raw))


def recover_density(grid, v, kappa, alpha_min):
    """Density samples f on the window [alpha_min, alpha_max - 2h].

    f(alpha) = alpha Phi'(alpha), Phi the unclipped _phi: at node i, where
    alpha = i h, f_i = i dPhi/di, by second-order stencils in the node
    index.  Phi is already scaled to the doubles, and the stencils multiply
    a Phi value by at most 2 before the factor i, so f overflows only where
    f itself, or Phi within a factor 2, is past the doubles.  f is NaN
    outside the window, and negatives are clipped to 0 inside (count
    returned).  Only meaningful when the measure has a continuous density.
    """
    grid = np.asarray(grid, dtype=float)
    if not alpha_min > 0:
        raise ArgumentError("alpha_min must be > 0 (density formula divides by alpha)")
    phi = _phi(grid, v, check_kappa(kappa))
    alpha_max = grid[-1]
    if not alpha_min < alpha_max:
        raise ArgumentError("alpha_min must be below alpha_max")
    spacing = grid[1] - grid[0]
    window = (grid >= alpha_min) & (grid <= alpha_max - 2.0 * spacing * (1 - 1e-12))
    f = np.full_like(phi, np.nan)
    if not window.any():   # at n_grid 3 the stencils have too few nodes
        return f, 0
    f[1:] = np.arange(1, f.size) * np.gradient(phi[1:], edge_order=2)
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
    overflows a double (a tiny alpha_max) raises ArgumentError, and so
    does a scale below the normal doubles (a huge alpha_max), where both
    would underflow to 0; that one is checked first, before the operator
    is built.
    """
    cfg = config or RecoveryConfig()
    if curve.v_max / curve.alpha_max / curve.alpha_max < sys.float_info.min:
        raise ArgumentError(
            f"Phi and f at alpha_max={curve.alpha_max} underflow a double"
        )
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
