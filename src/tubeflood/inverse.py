"""Recovery of V_w and the measure from a displacement characteristic.

Given the curve G and the support bound alpha_max, the produced-water
profile V_w solves the fixed-point equation

    V(alpha) = G(h(alpha) + (TV)(alpha)) ,

where h collects the curve-endpoint data and T is the integral operator
with kernel K below.  G is 1-Lipschitz and the sup-norm of T is at most
q = (1-kappa)/(1+kappa) < 1, so the solution is unique.

V is represented by its samples on a uniform grid and, between them, by
hats linear in alpha^2 on each cell.  Between atoms Phi is constant, so
the relation V' = (1+kappa)/kappa alpha Phi below makes V exactly
a + b alpha^2 there: with every atom on a grid node V lies in this
space, and the sweep recovers it to rounding (Brunner, Collocation
Methods for Volterra Integral and Related Functional Equations, 2004,
ch. 2, on fitting the space to the solution).  The hats are >= 0 and
sum to 1, and the kernel integrates against them in closed form, so
every entry of the operator matrix M is exact up to rounding and each
row sums to at most q.  T integrates from alpha up to alpha_max (a Volterra
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
alpha -> 0, so each entry keeps its relative digits, and row 0, whose
factor is 0, is exactly 0.  Every entry, near or far, is built as such
a quotient, and each row of a leaf takes its factor kappa c i^4 once.
The same rule, turned over, cuts the far columns into clusters whose
cells lie 3 half-widths from sqrt(c) b, each filled from two 20 x 20
cores, the parts of its cells at 20 Chebyshev cells times y^5, which
flattens their y^-5 fall-off, interpolated to its columns and divided
by m^5; the alpha_max column, half a hat, and a last cluster of at most
20 columns are evaluated exactly.  A leaf holds its rows exactly and
densely, from its diagonal block up to the column its ancestors took,
and carries the far parts of the spans that end where it ends.  Memory
grows as n log n: 5-10% of n^2 doubles at n = 2001, less for larger
kappa, and 109-185 MB of peak RSS at n = 50001, where M would take 20
GB.  Leaves, cores and exact far columns all come from one cell
function, _cells, each call evaluated in place in per-thread buffers
kept from one call to the next
(measures._block_buffers, shared with the tail integrals); a call takes
the cells of several leaves' near columns or several clusters' cores at
once.  _cells is also the one place that gives the cell past alpha_max
no left part, so no caller fixes up a cell or a slot.  Each part of a
cell is one quotient of products and sums of positive terms, with no
transcendental term and nothing that cancels, within 1.6e-15 relative
of 40-digit values up to m = 2^26 - 1 (the CELLS table of the tests).
A leaf evaluates only its cells on and above the diagonal.  The sweep
solves the leaves from alpha_max down (Hairer, Lubich and Schlichte,
SIAM J. Sci. Stat. Comput. 6, 1985); before a leaf, the far columns of
each span it carries are all solved, and the span's interpolated far
field goes into its rows' right-hand side.  The residual and apply_T
multiply by the same operator, walking the same leaves and adding each
far part as the sweep does, so residual and error_bound measure the
discrete system with the stored far fields; their own distance from the
exact M, up to about 4e-15 of a row's largest entry at n = 2001 to
20001, is not in them.  One operator is cached; a new
(n, kappa) frees it before the build, so two are never held at once.

From the recovered V, the harmonic cumulative Phi(alpha) = int_0^alpha
dmu(y)/y follows from V'(alpha) = (1+kappa)/kappa * alpha * Phi(alpha),

    Phi(alpha) = kappa/(1+kappa) * V'(alpha) / alpha ,

and a measure with a continuous density f has dPhi = f(alpha) dalpha / alpha,
so that

    f(alpha) = alpha * Phi'(alpha) .

Phi and f are read off V's node values by difference stencils.  The
prefactor kappa/(1+kappa) appears once, in Phi.  The paper prints the
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
from .measures import (
    _block_buffers, check_array, check_count, check_kappa, check_number, row_blocks
)

# The cached operator: at most one entry, keyed by (n, kappa).
_OPERATOR = {}

# Rows per sub-block of a leaf's back-substitution sweep.
_SWEEP_ROWS = 8

# Rows of a leaf of the operator's tree, at most: the atom tails' leaf
# size, below which a far field at measures._FAR_POINTS rows would save
# at most half of the cells it replaces.
_LEAF = measures._LEAF_LIMITS

# _cells makes some 9 temporaries per call, so its calls take row blocks
# of a third of the cells: a temporary then stays under 128 KiB, glibc's
# default threshold for fresh pages per allocation.  With whole-block calls
# (_CELL_WORK = 1) the first build in a fresh process, at n_grid 2001 and
# kappa 0.1, took 2024 minor faults against 914 and a median 1.08x the
# CPU time over 9 processes; later builds in a process ran 1.04x.
_CELL_WORK = 3

# The closed forms square node indices, exactly in doubles only below 2^26.
_MAX_GRID = 1 << 26


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
        check_count("n_grid", self.n_grid, 3, _MAX_GRID)
        check_number("alpha_min", self.alpha_min)
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
    timings holds seconds per stage, operator_cached whether the
    operator came from the cache, and operator_doubles the doubles it
    stores, {"leaves": ..., "far": ...}.
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
    operator_doubles: dict | None = None

    @property
    def contraction_q(self):
        return (1.0 - self.kappa) / (1.0 + self.kappa)

    @property
    def error_bound(self):
        return self.residual / (1.0 - self.contraction_q)


def _cells(i, m, kappa, n):
    """The cells [m, m+1] of rows i: their contributions to their two
    nodes, over kappa c i^4.

    i and m are float node indices that broadcast to the cells' shape, with
    0 <= i <= m and 0 < m: the upper triangle.  The rows need not be
    integers: a far field takes its Chebyshev rows.  Returns (left, right),
    whose multiples by kappa c i^4 are the parts of M[i, m] and M[i, m+1]
    that the cell adds (see _unit_t_matrix), as views on this thread's
    measures._block_buffers that the next call overwrites.  Both are
    quotients of products and sums of positive terms, so neither cancels.
    On an n-node grid the cell n - 1 lies past alpha_max, and its left
    part is 0: this is the one place that rule is applied.  Each cell
    takes one fixed sequence of operations, so its value does not depend
    on the shape or grouping of a call.  The factors of i alone and of m
    alone are taken at their own shapes: a leaf passes one i per cell, and
    a rectangle of _columns one i per row and one m per cell.
    """
    shape = np.broadcast(i, m).shape
    w1, w2, E, K, left, right = _block_buffers(1, math.prod(shape), count=6).reshape(
        (6,) + shape
    )
    i2 = i * i
    ki2 = (kappa * i) ** 2
    m2 = m + 1.0
    for w, mk in ((w1, m), (w2, m2)):      # w = i u at the cell's two ends
        np.subtract(mk * mk, i2, out=w)
        np.add(w, ki2, out=w)
        np.sqrt(w, out=w)
    # D N, D = m1 + m2 and N = w1^2 + m2^2
    np.multiply(w1, w1, out=left)
    np.add(left, m2 * m2, out=left)
    np.multiply(left, m + m2, out=left)
    # E = m1 w2 + m2 w1, K = m1 m2 + w1 w2
    np.multiply(w2, m, out=E)
    np.multiply(w1, m2, out=K)
    np.add(E, K, out=E)
    np.multiply(w1, w2, out=K)
    np.add(K, m * m2, out=K)
    np.multiply(E, K, out=E)
    # F = m1 w1 + m2 w2, from the two ends' products
    np.multiply(w1, m, out=w1)
    np.multiply(w2, m2, out=w2)
    np.add(w1, w2, out=K)
    np.multiply(E, K, out=E)
    np.divide(left, E, out=left)
    np.divide(left, w2, out=right)
    np.divide(left, w1, out=left)
    np.copyto(left, 0.0, where=m == n - 1)      # past alpha_max
    return left, right


def _tree(n, kappa):
    """The tree over the rows [0, n): its leaves and its far parts.

    A span of more than _LEAF rows splits at mid = (lo + hi) // 2.  A span
    whose rows lie in [a, b] = [lo, hi - 1], of width w, takes as its far
    field the columns from j up to top, the column its ancestors took
    (n at the root): j is the first column whose hat [j - 1, j + 1] lies
    at or above both b and sqrt(c) (b + w).  From j on, its far columns
    but the alpha_max column n - 1 split into clusters [p, e) of at most
    hi - lo columns and at most floor(p - 1 - sqrt(c) b), each stored
    from a core, up to the first that would hold at most _FAR_POINTS
    columns; the columns from there on are evaluated exactly.  Returns
    the leaves' (lo, hi, top, far) from the top of the grid down, the
    order the sweep solves them in.  far holds (lo, j, top, cores) of
    each span with j < top that ends at the leaf's hi, widest first, cores
    its clusters' (p, e): depth first and top half first, the walk meets
    such a span after the leaf above and before this one.

    The row separation: over a column's hat, which lies above every row
    of the span, M[alpha, j] / (kappa c alpha^4) is an integral of the
    hat against 1 / (y^2 (y^2 - c alpha^2)^{3/2}), analytic in alpha but
    at alpha = +-y / sqrt(c), y in the hat.  The nearest lies at alpha >=
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

    The column separation is the same rule turned over.  Column m is
    left(m) + right(m - 1), the parts the cells [m, m + 1] and [m - 1, m]
    add to it (see _cells), and at a row alpha <= b each part over kappa
    c alpha^4 is analytic in the cell's start y but where the cell [y, y
    + 1] reaches sqrt(c) alpha, the nearest at y = sqrt(c) b, and at y =
    0 or -1.  A cluster [p, e) takes the cells y in [p - 1, e - 1], and
    with e - p <= p - 1 - sqrt(c) b the nearest lies at t >= 3 of that
    interval, so 20 Chebyshev cells interpolate both parts as 20 rows
    interpolate a column (Fong and Darve, J. Comput. Phys. 228, 2009, on
    interpolation in both variables).  Far from alpha the parts fall off
    as y^-5, the tail of a pole of order 5 at y = 0 or -1, and grow as
    such toward it on the ellipse; y^5 left and (y + 1)^5 right stay near
    flat there, so the cores interpolate those and the columns divide by
    m^5.  For a cluster one span wide exactly at the separation, on the
    row b of a span [0, 80], 20 points interpolate them within 1.7e-15
    relative of 40-digit values, 18 points within 5.3e-14, and the parts
    without their y^5 within 1.6e-13 to 2.2e-11 (the FAR_COLUMN table of
    the tests pins it); at n = 2001 and kappa 0.999, cores without the
    y^5 left far entries 2.3e-11 from the dense closed form, against
    2.6e-15 with it.  The alpha_max column is half a hat, whose kink
    would lie inside a cluster, so it stays exact.
    """
    sc = math.sqrt((1.0 - kappa) * (1.0 + kappa))
    leaves, far = [], []
    pending = [(0, n, n)]
    while pending:             # depth first, the top half first
        lo, hi, top = pending.pop()
        if hi - lo <= _LEAF:
            leaves.append((lo, hi, top, far))
            far = []
            continue
        b, w = hi - 1, hi - 1 - lo
        j = min(max(b, math.ceil(sc * (b + w))) + 1, top)
        if j < top:
            cores, p, end = [], j, min(top, n - 1)
            while p < end:
                e = min(end, p + min(hi - lo, math.floor(p - 1 - sc * b)))
                if e - p <= measures._FAR_POINTS:
                    break
                cores.append((p, e))
                p = e
            far.append((lo, j, top, cores))
        mid = (lo + hi) // 2
        pending += [(lo, mid, j), (mid, hi, j)]
    return leaves


def _leaves(n, kappa, leaves):
    """The leaves' rows M[lo:hi, lo:top] / (kappa c i^4), holding the
    quotients of their diagonal blocks M[lo:hi, lo:hi] and 0 past them, as
    views on one array, for the leaves (lo, hi, top, ...) of _tree.

    Only the cells on and above the diagonal are evaluated: row i of a
    leaf takes the cells i, ..., hi - 1, listed flat over row_blocks of the
    leaves.  Cell m adds its left part to column m and its right part to
    column m + 1, so M[i, j] is left(j) + right(j - 1), the sum of two
    neighbours in the list; the right part of a row's last cell falls in
    the near columns past the block, which _columns fills.  Row 0, whose
    cell (0, 0) would divide by 0, and the cells below the diagonal are 0,
    and _cells gives the cell n - 1 past alpha_max no left part.
    """
    lo, hi, top = np.array([leaf[:3] for leaf in leaves]).T
    width = top - lo
    start = np.concatenate(([0], np.cumsum((hi - lo) * width)))
    flat = np.zeros(start[-1])
    for size in sorted(set((hi - lo).tolist())):   # two sizes, halves of the tree
        # the cells (i, m) = (lo + r, lo + c) of each leaf of this size, r <= c
        r, c = np.triu_indices(size)
        leaves = np.flatnonzero(hi - lo == size)
        for g in row_blocks(leaves.size, r.size * _CELL_WORK):
            k = leaves[g, None]
            i, m = np.add(lo[k], r, dtype=float).ravel(), np.add(lo[k], c, dtype=float).ravel()
            pos = (start[k] + r * width[k] + c).ravel()
            diagonal = np.tile(r == c, k.size)
            if i.min() < 1.0:                 # row 0 stays 0
                live = i >= 1.0
                i, m, pos, diagonal = i[live], m[live], pos[live], diagonal[live]
            left, right = _cells(i, m, kappa, n)
            # M[i, j] = left(j) + right(j - 1), the cells of a row being listed in turn
            np.add(left[1:], right[:-1], out=left[1:], where=~diagonal[1:])
            flat[pos] = left
    return [flat[s:e].reshape(b - a, w)
            for s, e, a, b, w in zip(start[:-1], start[1:], lo, hi, width)]


def _columns(parts, kappa, n):
    """Write M[i, j:top] / (kappa c i^4) into out for each part (i, j,
    top, out).

    i is a 1-d float array of rows with 0 <= i <= j - 1, and out a view
    of shape (i.size, top - j).  Column m is left(m) + right(m - 1) of
    the cells [j - 1, top).  The parts, cut into column slices of at most
    a _CELL_WORK-th of measures._BLOCK_CELLS cells, are taken widest
    first, as many at once as fit in that many cells: one _cells call
    over (parts, rows, 1) x (parts, 1, cells), each part padded to the
    rows and cells of the widest by repeating its last row and its last
    cell.  A cell's value does not depend on the call, so the entries
    are those of one call per row.  The rows need not be integers: the
    far parts take theirs at Chebyshev points.
    """
    if not parts:
        return
    rows = max(i.size for i, *_ in parts)
    step = max(1, measures._BLOCK_CELLS // (_CELL_WORK * rows))
    pieces = sorted(((i, a, min(a + step, top), out[:, a - j:a - j + step])
                     for i, j, top, out in parts for a in range(j, top, step)),
                    key=lambda piece: piece[1] - piece[2])      # widest first
    # each piece's rows, its last repeated up to rows
    size = np.array([piece[0].size for piece in pieces])
    end = np.cumsum(size)
    at = np.minimum(end[:, None] - size[:, None] + np.arange(rows), end[:, None] - 1)
    i_all = np.concatenate([piece[0] for piece in pieces])[at][:, :, None]
    j_all, top_all = (np.array([piece[k] for piece in pieces], dtype=float) for k in (1, 2))
    k = 0
    while k < len(pieces):
        width = pieces[k][2] - pieces[k][1]
        g = slice(k, k + max(1, measures._BLOCK_CELLS // (_CELL_WORK * rows * (width + 1))))
        k = min(g.stop, len(pieces))
        i = i_all[g]
        m = np.minimum(j_all[g, None] - 1.0 + np.arange(width + 1), top_all[g, None] - 1.0)
        left, right = _cells(i, m[:, None, :], kappa, n)
        values = left[:, :, 1:]
        np.add(values, right[:, :, :-1], out=values)
        for v, (ig, j, top, out) in zip(values, pieces[g]):
            out[...] = v[:ig.size, :top - j]


def _cores(clusters, kappa, n):
    """Write M[x, p:e] / (kappa c x^4) into out for each far cluster (x,
    p, e, out), x a span's _FAR_POINTS Chebyshev rows, from its cores.

    Column m is left(m) + right(m - 1), so the cluster takes the cells
    [y, y + 1] at the Chebyshev points y = p - 1 + (e - p) _FAR_NODES,
    not integers, and keeps two cores, y^5 left and (y + 1)^5 right at
    the rows x: both are near flat (see _tree).  The clusters are taken
    narrowest first in blocks of a _CELL_WORK-th of measures._BLOCK_CELLS
    cells, one _cells call over (clusters, rows, 1) x (clusters, 1,
    cells) per block.  Column m is then (y^5 left) C(m) + ((y + 1)^5
    right) C(m - 1) over m^5, C measures._far_basis at the cells m and
    m - 1, built once per cluster width and slice of measures._FAR_COLUMNS
    columns; the clusters of one width in a block take one product per
    slice.  The slices are fixed, so no value follows the block size.
    """
    points = measures._FAR_POINTS
    clusters = sorted(clusters, key=lambda cluster: cluster[2] - cluster[1])
    width = np.array([e - p for _, p, e, _ in clusters])
    key = None                 # the width and first column of the basis C
    for g in row_blocks(len(clusters), points * points * _CELL_WORK):
        x, p, _, _ = zip(*clusters[g])
        y = np.array(p, dtype=float)[:, None] - 1.0 + width[g, None] * measures._FAR_NODES
        left, right = _cells(np.array(x)[:, :, None], y[:, None, :], kappa, n)
        cores = np.empty((g.stop - g.start, points, 2 * points))
        np.multiply(left, ((y * y) * (y * y) * y)[:, None, :], out=cores[:, :, :points])
        y += 1.0
        np.multiply(right, ((y * y) * (y * y) * y)[:, None, :], out=cores[:, :, points:])
        cuts = np.flatnonzero(np.diff(width[g], prepend=0, append=0))
        for a, b in zip(cuts[:-1], cuts[1:]):          # the clusters of one width
            w = width[g.start + a]
            for start in range(0, w, measures._FAR_COLUMNS):
                cols = slice(start, min(start + measures._FAR_COLUMNS, w))
                if key != (w, cols.start):
                    key = w, cols.start
                    C = measures._far_basis(np.arange(cols.start, cols.stop + 1.0) / w,
                                            np.empty((points, cols.stop - cols.start + 1)))
                    C = np.concatenate((C[:, 1:], C[:, :-1]))
                for r in row_blocks(b - a, points * (cols.stop - cols.start)):
                    s = slice(a + r.start, a + r.stop)
                    m = np.array(p[s], dtype=float)[:, None] + np.arange(cols.start, cols.stop)
                    m5 = (m * m) * (m * m) * m
                    for v, d, (*_, out) in zip(cores[s] @ C, m5, clusters[g][s]):
                        np.divide(v, d, out=out[:, cols])


class _Operator:
    """The operator matrix M of _unit_t_matrix, on the tree of its rows.

    Every entry is built as its quotient by kappa c i^4, row i's factor,
    which each row of a leaf then takes once.  leaves holds (lo, hi, L,
    far) from the top of the grid down, the order in which sweep solves
    them.  L = M[lo:hi, lo:top] is dense and exact: the leaf's diagonal
    block and its near columns [hi, top), up to the column its ancestors
    took.  far holds (lo, j, top, F, B, scale) for each span [lo, hi) that
    ends where the leaf ends, with M[lo:hi, j:top] = (B @ F) * scale[:, None]:
    F holds the quotients at the span's _FAR_POINTS Chebyshev rows, from
    the cores of its clusters and exact past them, B (rows, points) is
    the barycentric basis at its rows (one per row count) and scale is
    kappa c i^4.  Every other entry of M is 0.  doubles counts the doubles
    that leaves and far parts store.
    """

    def __init__(self, n, kappa):
        tree = _tree(n, kappa)
        self.n = n
        kc = kappa * (1.0 - kappa * kappa)
        i = np.arange(float(n))
        row_scale = kc * ((i * i) * (i * i))
        self.leaves, near, clusters, exact, basis = [], [], [], [], {}
        for (lo, hi, top, spans), L in zip(tree, _leaves(n, kappa, tree)):
            if hi < top:
                near.append((i[lo:hi], hi, top, L[:, hi - lo:]))
            far = []
            for plo, j, ftop, cores in spans:
                s = hi - plo
                if s not in basis:
                    B = np.empty((measures._FAR_POINTS, s))
                    basis[s] = measures._far_basis(np.arange(s) / (s - 1.0), B).T.copy()
                x = plo + (s - 1.0) * measures._FAR_NODES       # the Chebyshev rows
                F = np.empty((measures._FAR_POINTS, ftop - j))
                clusters += [(x, p, e, F[:, p - j:e - j]) for p, e in cores]
                q = cores[-1][1] if cores else j
                if q < ftop:
                    exact.append((x, q, ftop, F[:, q - j:]))
                far.append((plo, j, ftop, F, basis[s], row_scale[plo:hi]))
            self.leaves.append((lo, hi, L, far))
        # apart: a call pads each part to its most rows, up to 40 near and 20 far
        _columns(near, kappa, n)
        _columns(exact, kappa, n)
        _cores(clusters, kappa, n)
        for lo, hi, L, _ in self.leaves:
            L *= row_scale[lo:hi, None]
        self.doubles = {"leaves": sum(L.size for _, _, L, _ in self.leaves),
                        "far": sum(part[3].size for *_, far in self.leaves for part in far)}

    def matvec(self, v):
        """M v: the leaves' rows, then each far part added as sweep adds it."""
        y = np.empty(self.n)
        for lo, hi, L, _ in self.leaves:
            np.dot(L, v[lo:lo + L.shape[1]], out=y[lo:hi])
        for _, hi, _, far in self.leaves:
            for lo, j, top, F, B, scale in far:
                part = y[lo:hi]
                part += np.dot(B, np.dot(F, v[j:top])) * scale
        return y

    def sweep(self, h, x, g):
        """V with V_i = G(h_i + (M V)_i), by one Volterra sweep down the leaves.

        G interpolates (x, g) piecewise-linearly and is constant outside
        [x_0, x_last]; M[i, i] * slope < 1 on every segment of G.  The
        leaves are solved in turn, from the top of the grid down.  When the
        sweep reaches a leaf, the far columns [j, top) of each far part it
        carries, a span that ends where the leaf ends, are all solved and
        none of the span's rows is yet, so the span's (B (F v[j:top]))
        kappa c i^4 goes into its rows' right-hand sides first.
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
        for lo, hi, L, far in self.leaves:
            for plo, j, top, F, B, scale in far:
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
    c = 1 - kappa^2 and phi_j the hat of node j, linear in y^2 on each of
    its two cells.  In x = y/alpha_i the nodes sit at x_m = m/i and the
    integrand is phi_j / (x^2 u^3), u = sqrt(x^2 - c), whose
    antiderivatives are

        A(x) = int dx / (x^2 u^3) = -(2x^2 - c) / (c^2 x u)
        C(x) = int dx / u^3       = -x / (c u) .

    Over the cell [x_m, x_{m+1}] the hat of node m+1 is (x^2 - x_m^2) /
    (x_{m+1}^2 - x_m^2), so that node gets (dC - x_m^2 dA) / (x_{m+1}^2 -
    x_m^2) and node m gets the rest of dA.  In node units, m1 = m,
    m2 = m + 1 and w = i u = sqrt((m - i)(m + i) + (kappa i)^2), the
    powers of i collect into per-row factors, and the differences between
    the cell's ends reduce to sums of positive terms: m2 w2 - m1 w1 =
    D N / F and m1 w2 - m2 w1 = c i^2 D / E.  With D = m1 + m2
    (= m2^2 - m1^2), N = w1^2 + m2^2, E = m1 w2 + m2 w1,
    F = m1 w1 + m2 w2 and K = m1 m2 + w1 w2, the cell adds kappa c i^4
    times

        left  = D N / (m1 w1 E F K)   to node m,
        right = D N / (m2 w2 E F K)   to node m+1,

    whose sum is dA / i^4 (_cells gives left and right).  Cells below the
    diagonal (m < i) add nothing, so the matrix is upper triangular; row
    0 (alpha = 0) is 0.

    No n x n array is formed: _tree halves the rows [0, n) down to leaves
    of at most _LEAF rows, each held exactly from its diagonal up to the
    column its ancestors took (_leaves, _columns), and each span keeps its
    far columns at its Chebyshev rows, from the cores of their clusters
    (_cores) and exactly past them (_columns), all from _cells.  Every
    entry is built as its quotient by kappa c i^4, and each leaf's rows
    then take that factor once; the leaf a span ends at carries its far
    part.

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
    v = check_array("v", v)
    if v.ndim != 1 or v.size < 2:
        raise ArgumentError("v must be a 1-d array of >= 2 grid samples")
    if not check_number("alpha_max", alpha_max) > 0:
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
    alpha_max = check_number("alpha_max", alpha_max)
    if not 0 < alpha_max < math.inf:
        raise ArgumentError("alpha_max must be > 0 and finite")
    v_w_max = check_number("v_w_max", v_w_max)
    v_w_prime_max = check_number("v_w_prime_max", v_w_prime_max)
    a = check_array("alpha", alpha)
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
        operator_doubles=dict(M.doubles),
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
    grid, v = check_array("grid", grid), check_array("v", v)
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
    grid = check_array("grid", grid)
    check_number("alpha_min", alpha_min)
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
