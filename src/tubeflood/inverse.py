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

M is never formed as an n x n array.  It is held in hierarchical (HODLR)
form: [0, n) is halved down to leaves of at most 64 nodes, each leaf a
dense, exact diagonal block, and each split's off-diagonal block
M[lo:mid, mid:hi] rank-k factors U.T V from adaptive cross approximation
on exact entries, to 1e-12 of the block (Hackbusch, Hierarchical Matrices,
2015; Bebendorf, Numer. Math. 86, 2000).  The ranks stay below about 35,
so memory and build time grow as n log n: 5-8.5% of n^2 doubles at
n = 2001, and 60-110 MB at n = 50001 where M would take 20 GB.
Leaves, ACA rows and ACA columns all come from one cell function, _cells,
each evaluated in place in per-thread buffers kept from one call to the
next (measures._block_buffers, shared with the tail integrals).  _cells
is also the one place that gives the cell past alpha_max no left part,
and an ACA row chunk evaluates the cell after its last, so no caller
fixes up a cell or a slot.  The cells' one transcendental term,
t - arctan t, is a 5-term series wherever t < 0.025, where the remainder
is below 2^-53 relative, and arctan on the few other cells.  A leaf
evaluates only its cells on and above the diagonal.  ACA advances all
the blocks of a batch together, their rows and columns cut into chunks
of one width, so that a step is a few array operations over all of them
and its terms are subtracted by one batched matrix product per page of
16 terms.  The blocks sit largest first: a block that stops
takes its factors out and steps on with a zero term, and the stopped
blocks after the last running one are cut off the end of the batch by
slicing.  The sweep solves the leaves from alpha_max down (Hairer,
Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985); before the
leaf that ends at a block's first column, the block's columns are all
solved, and its U.T (V v) goes into its rows' right-hand side.  The
residual and apply_T multiply by the same operator, so residual and
error_bound measure the discrete system with the stored factors; the
factors' own distance from the exact M, up to about 1e-11 of a row's
largest entry at n = 2001, is not in them.  One operator is cached; a
new (n, kappa) frees it before the build, so two are never held at
once.

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

# Nodes of a diagonal leaf of the operator, at most.
_LEAF = 64

# ACA stops a block at the first term below _ACA_TOL of the block's
# Frobenius norm (or a rounding floor above it, see _aca), and at
# _ACA_RANK terms at the latest.
_ACA_TOL = 1e-12
_ACA_RANK = 64

# ACA terms per page of stored terms.
_PAGE = 16

# _cells makes some 15 temporaries per call, so its calls take row blocks
# of a third of the cells: a temporary then stays under 128 KiB, glibc's
# default threshold for fresh pages per allocation.  With whole-block calls
# (_CELL_WORK = 1) a build at n_grid 2001 took 1877 minor faults against
# 711, and a fresh process ran a median 15% slower.
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

    residual is sup |V - G(h + TV)| on the grid, T the stored operator;
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
    1 <= i <= m: the upper triangle, row 0 being 0.  Returns (left, right)
    = (a - r, r), whose multiples by kappa c i^4 are the parts of M[i, m]
    and M[i, m+1] that the cell adds (see _unit_t_matrix), as views on this
    thread's measures._block_buffers that the next call overwrites.  On an
    n-node grid the cell n - 1 lies past alpha_max, and its left part is 0:
    this is the one place that rule is applied.  Each cell takes one fixed
    sequence of operations, so its value does not depend on the shape or
    grouping of a call.  The factors of i alone and of m alone are taken at
    their own shapes: a leaf passes one i per cell, an ACA row one per
    chunk of cells, and an ACA column one per row and its two cells j and
    j - 1 once per chunk of rows.
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


def _split(n):
    """The tree over the nodes [0, n): diagonal leaves and off-diagonal blocks.

    A span of more than _LEAF nodes splits at mid = (lo + hi) // 2 into two
    halves and the block M[lo:mid, mid:hi] (its rows from 1 on, row 0
    being 0); the block below the diagonal is 0.  Returns the leaves'
    (lo, hi) from the top of the grid down, the order the sweep solves
    them in, and the blocks' (rlo, mid, hi).
    """
    leaves, blocks = [], []
    pending = [(0, n)]
    while pending:             # depth first, the top half first
        lo, hi = pending.pop()
        if hi - lo <= _LEAF:
            leaves.append((lo, hi))
            continue
        mid = (lo + hi) // 2
        pending += [(lo, mid), (mid, hi)]
        blocks.append((max(lo, 1), mid, hi))
    return np.array(leaves, dtype=int), np.array(blocks, dtype=int).reshape(-1, 3)


def _leaves(n, kappa, spans):
    """The dense diagonal leaves M[lo:hi, lo:hi], exact, as views on one array.

    Only the cells on and above the diagonal are evaluated: row i of a
    leaf takes the cells i, ..., hi - 1, listed flat over row_blocks of the
    leaves.  Cell m adds its left part to column m and its right part to
    column m + 1, so M[i, j] is left(j) + right(j - 1), the sum of two
    neighbours in the list; the right part of a row's last cell falls in
    the block above the leaf.  Row 0 and the cells below the diagonal are
    0, and _cells gives the cell n - 1 past alpha_max no left part.
    """
    lo, hi = spans[:, 0], spans[:, 1]
    size = int(np.max(hi - lo))
    out = np.zeros((lo.size, size, size))
    flat = out.reshape(-1)
    kc = kappa * (1.0 - kappa * kappa)
    # the cells (i, m) = (lo + r, lo + c) of each leaf, r <= c < its size
    r, c = np.triu_indices(size)
    for g in row_blocks(lo.size, r.size * _CELL_WORK):
        i, m = lo[g, None] + r, lo[g, None] + c
        pos = (np.arange(g.start, g.stop)[:, None] * size + r) * size + c
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
    return [L[:b - a, :b - a] for L, a, b in zip(out, lo.tolist(), hi.tolist())]


def _aca_batches(blocks):
    """Slices of the block list that ACA runs together: each holds at most
    measures._BLOCK_CELLS row and column slots, or a single block."""
    start, slots = 0, 0
    for b, (rlo, mid, hi) in enumerate(blocks.tolist()):
        if slots + hi - rlo + 1 > measures._BLOCK_CELLS and b > start:
            yield slice(start, b)
            start, slots = b, 0
        slots += hi - rlo + 1
    yield slice(start, len(blocks))


def _chunks(lo, length, width):
    """Chunks of width nodes lo[s], lo[s] + 1, ... holding at least length[s]
    of them for each s: the nodes (chunks, width), as floats, the s of each
    chunk and the first chunk of each s (and the total)."""
    count = -(-length // width)
    first = np.concatenate(([0], np.cumsum(count)))
    owner = np.repeat(np.arange(lo.size), count)
    offset = (np.arange(first[-1]) - first[owner])[:, None] * width + np.arange(width)
    return (offset + lo[owner, None]).astype(float), owner, first


def _block_argmax(a, first, owner):
    """Flat index into a (chunks, width) of the first largest entry of each
    block (chunks first[b]:first[b+1], owner[c] the block of chunk c), and
    that entry."""
    at = a.argmax(axis=1)
    top = a[np.arange(at.size), at]
    best = np.maximum.reduceat(top, first[:-1])
    hit = np.flatnonzero(top == best[owner])
    chunk = hit[np.searchsorted(hit, first[:-1])]
    return chunk * a.shape[1] + at[chunk], best


def _take_terms(pages, k, chunks, scale):
    """The first k terms over the first scale.size slots of the given
    chunks, times scale, as a new (k, scale.size) array."""
    out = np.empty((k, scale.size))
    for l, F in zip(range(0, k, _PAGE), pages):
        F = F[:k - l, chunks]
        np.multiply(F.reshape(F.shape[0], -1)[:, :scale.size], scale, out=out[l:l + _PAGE])
    return out


def _subtract_terms(out, pages, coef_pages, k, index):
    """out -= the first k terms of pages, (terms, chunks, width), each chunk
    c of term l times coef_pages' term l at the flat slot index[c]: one
    batched product per page."""
    for l, F, G in zip(range(0, k, _PAGE), pages, coef_pages):
        t = min(k - l, _PAGE)
        coef = G[:t].reshape(t, -1)[:, index]
        out -= np.matmul(coef.T[:, None, :], F[:t].transpose(1, 0, 2))[:, 0]


def _aca(n, kappa, blocks):
    """Factors (U, V), M[rlo:mid, mid:hi] ~ U.T @ V, of every block, by ACA.

    Adaptive cross approximation with partial pivoting (Bebendorf 2000) on
    exact entries: each term is the residual's column at the pivot row's
    largest entry, times that row over the entry.  A block starts at its
    last row, next to the diagonal (row 0 of M is 0), and each next pivot
    row is the largest entry of the last column among the rows not yet
    used.  It stops once a term's Frobenius norm is below tol times that of
    the sum so far, the sum of the terms' squared norms standing for the
    latter; tol is _ACA_TOL, or 2 hi eps where that is larger: r = dB/i^3 -
    m1 a cancels by a factor near the column index, so an entry is known
    only to about m eps of itself, and past that floor ACA would run on
    rounding to _ACA_RANK terms (at n = 8001 and kappa 0.5 it did).

    ACA runs on the entries times j^5 / i^4, which evens out the kernel's
    decay, alpha^4 / y^5 away from the diagonal: pivots and the stop test
    then weigh an entry against its own size, not the block's largest, so
    small entries far from the diagonal are kept to their own size too.
    Those are _cells' parts, which leave out kappa c i^4, times j^5; a
    block's rows take kappa c i^4 and its columns 1 / j^5 when it stops.

    The blocks of one batch (_aca_batches) advance together, each step
    evaluating every running block's pivot row, then its pivot column.
    Each block's rows and its cells [mid - 1, hi) are cut into chunks of
    width w, the cell count of the batch's smallest blocks, and a step's
    rows and columns are (chunks, w) arrays; past the block, the last
    chunk's rows repeat its last row and are masked out, and its cells run
    on with weight 0.  A pivot row's cells take its row index once per
    chunk, and a column the cells j and j - 1 of each row, with j once per
    chunk.  Slot x of a row is column mid + x: the right part of cell
    mid - 1 + x plus the left part of the cell after it.  Each chunk of a
    row evaluates its w cells and the one after its last (ends), so it
    forms all its slots itself.  The terms sit in pages of
    _PAGE, U over the rows' chunks and V over the cells', so subtracting
    them is one batched product per page.

    The blocks sit largest first, and the largest stop last.  A block that
    stops takes its terms out and from then on steps with the batch on a
    zero term, which nothing reads: its rows and columns are still
    evaluated, but no array moves.  Once every block after a running one
    has stopped, those blocks are cut off the end of the batch, each
    per-block and per-chunk array by a slice and each page as the view
    F[:, :chunks].  A block's steps read only its own chunks, so the blocks
    that share its batch change its terms only through the chunk width w,
    by rounding.
    """
    if not blocks.size:
        return []
    eps = np.finfo(float).eps
    kc = kappa * (1.0 - kappa * kappa)
    run = np.argsort(blocks[:, 1] - blocks[:, 2], kind="stable")
    rlo, mid, hi = blocks[run].T
    p, q = mid - rlo, hi - mid
    w = int(np.max(q[q <= q.min() + 1])) + 1
    rows, rblock, rfirst = _chunks(rlo, p, w)
    rmask = rows < mid[rblock, None]
    rows = np.minimum(rows, mid[rblock, None] - 1.0)      # pad with the last row
    cells, cblock, cfirst = _chunks(mid - 1, q + 1, w)
    ends = np.concatenate((cells, cells[:, -1:] + 1.0), axis=1)
    cmask = cells < hi[cblock, None] - 1.0                # a column j = cell + 1 < hi
    weight = np.where(cmask, (cells + 1.0) ** 5, 0.0)
    rmask, free_c = rmask.astype(float), cmask.astype(float)
    free_r = rmask.copy()
    tol2 = np.maximum(_ACA_TOL, 2.0 * hi * eps) ** 2
    norm2 = np.zeros(run.size)
    stopped = np.zeros(run.size, dtype=bool)
    piv = p - 1                                 # within the block's rows
    Up, Vp = [], []
    factors = [None] * len(blocks)
    k = 0
    while run.size:
        if k % _PAGE == 0:
            Up.append(np.empty((_PAGE,) + rows.shape))
            Vp.append(np.empty((_PAGE,) + cells.shape))
        U, V = Up[-1][k % _PAGE], Vp[-1][k % _PAGE]
        # the pivot rows: slot x is right(x) + left(x + 1)
        slot = rfirst[:-1] * w + piv
        i = rows.reshape(-1)[slot][cblock, None]
        for s in row_blocks(len(cells), (w + 1) * _CELL_WORK):
            left, right = _cells(i[s], ends[s], kappa, n)
            np.add(right[:, :-1], left[:, 1:], out=V[s])
        V *= weight
        _subtract_terms(V, Vp, Up, k, slot[cblock])
        a = np.abs(V)
        a *= free_c
        jpos, top = _block_argmax(a, cfirst, cblock)
        # a row already matched, no column left, or a stopped block: a zero
        # term, so a stopped block never divides by a pivot at rounding level
        stop = (top <= 0.0) | stopped
        pivot = V.reshape(-1)[jpos]
        if stop.any():
            pivot[stop] = 1.0
        V /= pivot[cblock, None]
        # the pivot columns, node j = cell + 1, from the cells j and j - 1
        j = cells.reshape(-1)[jpos] + 1.0
        m = np.stack((j, j - 1.0))[:, rblock, None]
        for s in row_blocks(len(rows), 2 * w * _CELL_WORK):
            left, right = _cells(rows[s], m[:, s], kappa, n)
            np.add(left[0], right[1], out=U[s])
        U *= rmask
        U *= weight.reshape(-1)[jpos][rblock, None]
        _subtract_terms(U, Up, Vp, k, jpos[rblock])
        if stop.any():
            U[stop[rblock]] = 0.0
            V[stop[cblock]] = 0.0
        free_r.reshape(-1)[slot] = free_c.reshape(-1)[jpos] = 0.0
        term2 = (np.add.reduceat(np.einsum("cw,cw->c", U, U), rfirst[:-1])
                 * np.add.reduceat(np.einsum("cw,cw->c", V, V), cfirst[:-1]))
        norm2 += term2
        a = np.abs(U)
        a *= free_r
        piv = _block_argmax(a, rfirst, rblock)[0] - rfirst[:-1] * w
        k += 1
        done = (term2 <= tol2 * norm2) | (k >= np.minimum(p, q)) | (k == _ACA_RANK)
        done &= ~stopped
        # the blocks that stop take their terms out, scaled back
        for s in np.flatnonzero(done).tolist():
            rs, cs = slice(rfirst[s], rfirst[s + 1]), slice(cfirst[s], cfirst[s + 1])
            i = rows[rs].reshape(-1)[:p[s]]
            j5 = weight[cs].reshape(-1)[:q[s]]
            factors[run[s]] = (_take_terms(Up, k, rs, kc * i ** 4),
                               _take_terms(Vp, k, cs, 1.0 / j5))
        stopped |= done
        # cut the stopped blocks after the last running one off the batch
        b = np.max(np.flatnonzero(~stopped), initial=-1) + 1
        if b < run.size:
            r1, c1 = rfirst[b], cfirst[b]
            run, tol2, norm2, piv, p, q, stopped = (
                x[:b] for x in (run, tol2, norm2, piv, p, q, stopped))
            rows, rmask, free_r, rblock = (x[:r1] for x in (rows, rmask, free_r, rblock))
            cells, ends, weight, free_c, cblock = (
                x[:c1] for x in (cells, ends, weight, free_c, cblock))
            rfirst, cfirst = rfirst[:b + 1], cfirst[:b + 1]
            Up, Vp = [F[:, :r1] for F in Up], [F[:, :c1] for F in Vp]
    return factors


class _Operator:
    """The operator matrix M of _unit_t_matrix, in hierarchical form.

    leaves holds (lo, hi, L) with L = M[lo:hi, lo:hi] dense and exact;
    blocks holds (rlo, mid, hi, U, V) with M[rlo:mid, mid:hi] ~ U.T @ V;
    every other entry of M is 0.  The leaves run from the top of the grid
    down, the order in which sweep solves them.
    """

    def __init__(self, n, kappa):
        spans, blocks = _split(n)
        self.n = n
        self.leaves = [
            (lo, hi, L) for (lo, hi), L in zip(spans.tolist(), _leaves(n, kappa, spans))
        ]
        factors = []
        for batch in _aca_batches(blocks):
            factors += _aca(n, kappa, blocks[batch])
        self.blocks = [
            (rlo, mid, hi, U, V)
            for (rlo, mid, hi), (U, V) in zip(blocks.tolist(), factors)
        ]

    def matvec(self, v):
        """M v."""
        y = np.empty(self.n)
        for lo, hi, L in self.leaves:
            np.dot(L, v[lo:hi], out=y[lo:hi])
        for rlo, mid, hi, U, V in self.blocks:
            y[rlo:mid] += (V @ v[mid:hi]) @ U
        return y

    def sweep(self, h, x, g):
        """V with V_i = G(h_i + (M V)_i), by one Volterra sweep down the leaves.

        G interpolates (x, g) piecewise-linearly and is constant outside
        [x_0, x_last]; M[i, i] * slope < 1 on every segment of G.  The
        leaves are solved in turn, from the top of the grid down.  When the
        sweep reaches the leaf ending at a block's mid, the block's columns
        [mid, hi) are all solved and none of its rows [rlo, mid) is yet, so
        the block's U.T (V v) goes into those rows' right-hand sides first.
        A leaf solves its rows from the last up, in sub-blocks of
        _SWEEP_ROWS: the part of b from rows of earlier sub-blocks is one
        matrix-vector product, the rest a scalar sum.
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
        by_mid = {mid: (rlo, hi, U, V) for rlo, mid, hi, U, V in self.blocks}
        for lo, hi, L in self.leaves:
            if hi in by_mid:
                rlo, top, U, V = by_mid[hi]
                rhs[rlo:hi] += (V @ v[hi:top]) @ U
            for i1 in range(hi - lo, 0, -_SWEEP_ROWS):
                i0 = max(i1 - _SWEEP_ROWS, 0)
                m = i1 - i0
                solved = (rhs[lo + i0:lo + i1] + L[i0:i1, i1:] @ v[lo + i1:hi]).tolist()
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

    No n x n array is formed: _split halves [0, n) down to leaves of at
    most _LEAF nodes, each a dense, exact diagonal block (_leaves), and
    each split keeps its off-diagonal block M[lo:mid, mid:hi] as rank-k
    factors from ACA on exact entries (_aca), all from _cells.

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
